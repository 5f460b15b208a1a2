"""End-to-end command-line tests, driven in-process through main(argv),
and once as ``python -m covgraph.cli``."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covgraph import ExperimentTable, LearnConfig, build_graph
from covgraph import io as cio
from covgraph.cli import build_parser, main
from covgraph.learn import KKT_EXIT, learn
from _support import kernel_spd_covariance


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def synth_files(tmp_path):
    cov = tmp_path / "cov.csv"
    pts = tmp_path / "pts.csv"
    status = run(
        "synth", "--n", "12", "--range", "0.3", "--sill", "10", "--seed", "42",
        "--out-cov", str(cov), "--out-points", str(pts),
    )
    assert status == 0
    return cov, pts


class TestSynth:
    def test_writes_files_deterministically(self, tmp_path, synth_files):
        cov, pts = synth_files
        S = cio.read_covariance_csv(cov)
        assert S.n == 12
        points = cio.read_points_csv(pts)
        assert points.shape == (12, 2)
        cov2 = tmp_path / "cov2.csv"
        run("synth", "--n", "12", "--range", "0.3", "--sill", "10", "--seed", "42",
            "--out-cov", str(cov2))
        assert cov.read_text() == cov2.read_text()

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        status = run("synth", "--n", "5", "--range", "0.1", "--seed", "1",
                     "--out-cov", str(tmp_path / "c.csv"), "--bogus", "1")
        assert status == 1
        assert "error" in capsys.readouterr().err


class TestExitStatus:
    def test_numerical_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        # numpy's LinAlgError subclasses ValueError; it must still map to 2.
        graph = tmp_path / "graph.json"
        cio.write_graph_json(graph, build_graph(3, [(0, 1, 1.0)], q=np.ones(3), q_min=0.01))

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic singular matrix")

        monkeypatch.setattr("covgraph.cli.compute_gft", singular)
        assert run("gft", "--graph", str(graph)) == 2
        assert "numerical failure: synthetic singular matrix" in capsys.readouterr().err


class TestLearn:
    def test_joint_learn_writes_graph_and_meta(self, tmp_path, synth_files):
        cov, pts = synth_files
        out = tmp_path / "graph.json"
        status = run(
            "learn", "--cov", str(cov), "--method", "joint", "--qmin", "1e-4",
            "--tol", "1e-10", "--points", str(pts), "--out", str(out),
        )
        assert status == 0
        graph = cio.read_graph_json(out)
        assert graph.n == 12 and graph.q is not None
        meta = json.loads((tmp_path / "graph.meta.json").read_text())
        assert meta["converged"] is True
        assert meta["epochs"] >= 1

    @pytest.mark.parametrize("protocol", ["optimum", "paper"])
    def test_protocol_recorded_in_meta(self, tmp_path, synth_files, protocol):
        cov, pts = synth_files
        out = tmp_path / "graph.json"
        assert run("learn", "--cov", str(cov), "--points", str(pts), "--protocol", protocol,
                   "--out", str(out)) == 0
        meta = json.loads((tmp_path / "graph.meta.json").read_text())
        assert meta["protocol"] == protocol and meta["converged"] is True
        assert meta["duality_gap"] >= 0.0
        if protocol == "optimum":
            assert meta["kkt_residual"] <= KKT_EXIT

    def test_unknown_protocol_exits_one(self, tmp_path, synth_files, capsys):
        cov, _ = synth_files
        out = tmp_path / "graph.json"
        assert run("learn", "--cov", str(cov), "--protocol", "fast", "--out", str(out)) == 1
        assert "--protocol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "protocol, missed",
        [("optimum", f"before the KKT residual reached {KKT_EXIT:g}"),
         ("paper", "before an epoch changed the objective by less than --tol 1e-10")],
    )
    def test_unconverged_run_warns_and_exits_zero(self, tmp_path, synth_files, capsys, protocol, missed):
        cov, pts = synth_files
        out = tmp_path / "graph.json"
        assert run("learn", "--cov", str(cov), "--points", str(pts), "--protocol", protocol,
                   "--max-epochs", "1", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: stopped at max_epochs=1 ") and missed in err
        assert json.loads((tmp_path / "graph.meta.json").read_text())["converged"] is False

    def test_cap_reached_by_full_newton_steps_warns_max_epochs(self, tmp_path, capsys):
        # Five warm epochs and two Newton rounds, which run no epoch: 5
        # epochs run, but the cap of 7 counts the rounds too.
        cov = tmp_path / "cov.csv"
        assert run("synth", "--n", "20", "--range", "0.2", "--seed", "8", "--out-cov", str(cov)) == 0
        out = tmp_path / "graph.json"
        assert run("learn", "--cov", str(cov), "--max-epochs", "7", "--out", str(out)) == 0
        meta = json.loads((tmp_path / "graph.meta.json").read_text())
        assert (meta["epochs"], meta["newton_rounds"], meta["converged"]) == (5, 2, False)
        err = capsys.readouterr().err
        assert err.startswith("warning: stopped at max_epochs=7 before the KKT residual reached ")

    @pytest.mark.parametrize("synth, options, stop", [
        (("12", "0.3", "10", "42"), ("--points", "PTS"), "certified"),
        (("12", "0.3", "10", "42"), ("--points", "PTS", "--protocol", "paper"), "stop_tol"),
        (("12", "0.3", "10", "42"), ("--points", "PTS", "--max-epochs", "1"), "max_epochs"),
        (("12", "0.3", "10", "42"), ("--points", "PTS", "--protocol", "paper", "--max-epochs", "1"), "max_epochs"),
        (("20", "0.2", "10", "8"), ("--max-epochs", "7"), "max_epochs"),
        (("50", "1", "1e-6", "0"), ("--points", "PTS"), "stalled"),
    ])
    def test_sidecar_records_how_the_run_stopped(self, tmp_path, synth, options, stop):
        # The converged runs and the three warning cases of this class.
        cov, pts, out = tmp_path / "cov.csv", tmp_path / "pts.csv", tmp_path / "graph.json"
        n, r, sill, seed = synth
        assert run("synth", "--n", n, "--range", r, "--sill", sill, "--seed", seed,
                   "--out-cov", str(cov), "--out-points", str(pts)) == 0
        options = [str(pts) if o == "PTS" else o for o in options]
        assert run("learn", "--cov", str(cov), *options, "--out", str(out)) == 0
        meta = json.loads((tmp_path / "graph.meta.json").read_text())
        assert meta["stop"] == stop
        assert meta["converged"] is (stop in ("certified", "stop_tol"))

    def test_stalled_run_warns_and_exits_zero(self, tmp_path, capsys):
        # At variances of 1e-6 the residual's rounding floor lies above the
        # exit, so the run stops on a stalled residual before max_epochs.
        cov, pts = tmp_path / "cov.csv", tmp_path / "pts.csv"
        assert run("synth", "--n", "50", "--range", "1", "--sill", "1e-6", "--seed", "0",
                   "--out-cov", str(cov), "--out-points", str(pts)) == 0
        out = tmp_path / "graph.json"
        assert run("learn", "--cov", str(cov), "--points", str(pts), "--out", str(out)) == 0
        assert capsys.readouterr().err.startswith("warning: the KKT residual stalled at ")
        meta = json.loads((tmp_path / "graph.meta.json").read_text())
        assert meta["converged"] is False and meta["epochs"] < 1000
        assert meta["kkt_residual"] > KKT_EXIT

    def test_baseline_learn(self, tmp_path, synth_files):
        cov, pts = synth_files
        out = tmp_path / "base.json"
        status = run("learn", "--cov", str(cov), "--method", "baseline",
                     "--points", str(pts), "--out", str(out))
        assert status == 0
        graph = cio.read_graph_json(out)
        assert graph.q is None

    def test_screened_baseline_rejected(self, tmp_path, synth_files, capsys):
        cov, _ = synth_files
        out = tmp_path / "base.json"
        assert run("learn", "--cov", str(cov), "--method", "baseline", "--screen",
                   "--out", str(out)) == 1
        assert "joint method only" in capsys.readouterr().err
        assert not out.exists()

    def test_given_start_reads_the_init_graph(self, tmp_path, synth_files, monkeypatch):
        cov, pts = synth_files
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run("learn", "--cov", str(cov), "--points", str(pts), "--out", str(first)) == 0
        configs = []

        def recording_learn(S, config):
            configs.append(config)
            return learn(S, config)

        monkeypatch.setattr("covgraph.cli.learn", recording_learn)
        assert run("learn", "--cov", str(cov), "--init", "given", "--init-graph", str(first),
                   "--out", str(second)) == 0
        start = cio.read_graph_json(first)
        assert configs[0].init == "given"
        assert configs[0].init_weights == {(i, j): w for i, j, w in start.edges}
        again = cio.read_graph_json(second)
        assert json.loads((tmp_path / "second.meta.json").read_text())["converged"] is True
        assert [e[:2] for e in again.edges] == [e[:2] for e in start.edges]
        np.testing.assert_allclose(again.w, start.w, rtol=1e-6)

    @pytest.mark.parametrize("init", [(), ("--init", "uniform"), ("--init", "kernel")])
    def test_init_graph_needs_a_given_start(self, tmp_path, synth_files, capsys, init):
        # With the default "auto" the graph was once ignored without a word.
        cov, pts = synth_files
        start, out = tmp_path / "start.json", tmp_path / "g.json"
        assert run("learn", "--cov", str(cov), "--method", "baseline", "--out", str(start)) == 0
        assert run("learn", "--cov", str(cov), "--points", str(pts), *init, "--init-graph", str(start),
                   "--out", str(out)) == 1
        assert "--init-graph requires --init given" in capsys.readouterr().err
        assert not out.exists()

    def test_init_value_needs_a_uniform_start(self, tmp_path, synth_files, capsys):
        # With points, "auto" picks the kernel start, which once dropped the value.
        cov, pts = synth_files
        out = tmp_path / "g.json"
        assert run("learn", "--cov", str(cov), "--points", str(pts), "--init-value", "0.3",
                   "--out", str(out)) == 1
        assert "init_value applies to init='uniform' only, not 'kernel'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_covariance_file(self, tmp_path, capsys):
        status = run("learn", "--cov", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "g.json"))
        assert status == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_point_count_mismatch(self, tmp_path, synth_files):
        cov, _ = synth_files
        bad_pts = tmp_path / "bad_pts.csv"
        cio.write_points_csv(bad_pts, np.zeros((3, 2)))
        status = run("learn", "--cov", str(cov), "--points", str(bad_pts),
                     "--out", str(tmp_path / "g.json"))
        assert status == 1


class TestVerify:
    @pytest.fixture()
    def learned(self, tmp_path):
        S = kernel_spd_covariance(4, seed=8)
        cov = tmp_path / "cov.csv"
        cio.write_covariance_csv(cov, S)
        out = tmp_path / "graph.json"
        assert run("learn", "--cov", str(cov), "--out", str(out)) == 0
        return cov, out

    def test_converged_fixture_passes(self, tmp_path, learned, capsys):
        cov, graph = learned
        kkt_path = tmp_path / "kkt.json"
        bounds_path = tmp_path / "bounds.json"
        status = run("verify", "--graph", str(graph), "--cov", str(cov),
                     "--out-kkt", str(kkt_path), "--out-bounds", str(bounds_path))
        assert status == 0
        assert json.loads(kkt_path.read_text())["passed"] is True
        assert json.loads(bounds_path.read_text())["summary"]["violated"] == 0
        assert "kkt pass" in capsys.readouterr().out

    def test_perturbed_graph_fails_kkt(self, tmp_path, learned, capsys):
        cov, graph_path = learned
        data = json.loads(graph_path.read_text())
        data["edges"][0]["w"] += 0.1
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        kkt_path = tmp_path / "kkt.json"
        status = run("verify", "--graph", str(broken), "--cov", str(cov),
                     "--out-kkt", str(kkt_path))
        assert status == 0
        assert json.loads(kkt_path.read_text())["passed"] is False
        assert "kkt fail" in capsys.readouterr().out

    def test_trim_without_violations_preserves_graph(self, tmp_path, learned):
        cov, graph_path = learned
        trimmed = tmp_path / "trimmed.json"
        status = run("verify", "--graph", str(graph_path), "--cov", str(cov),
                     "--trim", "--out-graph", str(trimmed))
        assert status == 0
        assert trimmed.read_text() == graph_path.read_text()

    def test_rejected_bound_tolerance_writes_no_report(self, tmp_path, learned, capsys):
        # The KKT report was once written before the bound tolerance was
        # checked, and left behind by the rejected run.
        cov, graph_path = learned
        outputs = {"--out-kkt": "kkt.json", "--out-bounds": "bounds.json", "--bounds-csv": "bounds.csv",
                   "--out-graph": "trimmed.json"}
        flags = [arg for flag, name in outputs.items() for arg in (flag, str(tmp_path / name))]
        status = run("verify", "--graph", str(graph_path), "--cov", str(cov), *flags, "--trim", "--bound-tol", "nan")
        assert status == 1
        assert capsys.readouterr().err == "error: bound tolerance must be finite, got nan\n"
        assert not any((tmp_path / name).exists() for name in outputs.values())

    def test_trim_requires_out_graph(self, tmp_path, learned, capsys):
        cov, graph_path = learned
        status = run("verify", "--graph", str(graph_path), "--cov", str(cov), "--trim")
        assert status == 1
        assert "out-graph" in capsys.readouterr().err

    def test_dimension_mismatch_exits_one(self, tmp_path, learned):
        _, graph_path = learned
        other = tmp_path / "other.csv"
        cio.write_covariance_csv(other, kernel_spd_covariance(6, seed=9))
        assert run("verify", "--graph", str(graph_path), "--cov", str(other)) == 1

    @pytest.mark.parametrize("rows", [5, 13])
    def test_points_must_match_the_vertex_count(self, tmp_path, synth_files, capsys, rows):
        cov, pts = synth_files
        graph = tmp_path / "graph.json"
        assert run("learn", "--cov", str(cov), "--points", str(pts), "--out", str(graph)) == 0
        points = cio.read_points_csv(pts)
        bad = tmp_path / "bad.csv"
        cio.write_points_csv(bad, np.vstack([points, points])[:rows])
        outputs = [tmp_path / "kkt.json", tmp_path / "bounds.csv"]
        status = run("verify", "--graph", str(graph), "--cov", str(cov), "--points", str(bad),
                     "--out-kkt", str(outputs[0]), "--bounds-csv", str(outputs[1]))
        assert status == 1
        assert f"{rows} locations for a 12-vertex covariance" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("endpoint", [1.9, 0.5])
    def test_non_integer_endpoint_exits_one(self, tmp_path, learned, capsys, endpoint):
        # 1.9 was once truncated to 1, loading a different graph.
        cov, graph_path = learned
        data = json.loads(graph_path.read_text())
        data["edges"][0]["i"] = endpoint
        graph_path.write_text(json.dumps(data))
        kkt_path = tmp_path / "kkt.json"
        assert run("verify", "--graph", str(graph_path), "--cov", str(cov), "--out-kkt", str(kkt_path)) == 1
        assert "non-integer endpoint" in capsys.readouterr().err
        assert not kkt_path.exists()

    def test_degenerate_covariance_exits_one(self, tmp_path, capsys):
        # Vertices 0 and 1 are perfectly correlated: their edge cost is 0.
        cov = tmp_path / "cov.csv"
        cio.write_covariance_csv(cov, np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]]))
        graph = tmp_path / "graph.json"
        cio.write_graph_json(graph, build_graph(3, [(0, 2, 0.5)], q=np.ones(3), q_min=0.01))
        kkt_path = tmp_path / "kkt.json"
        assert run("verify", "--graph", str(graph), "--cov", str(cov), "--out-kkt", str(kkt_path)) == 1
        assert "pair (0, 1)" in capsys.readouterr().err
        assert not kkt_path.exists()

    @pytest.fixture()
    def baseline(self, tmp_path):
        S = kernel_spd_covariance(4, seed=10)
        cov = tmp_path / "cov.csv"
        cio.write_covariance_csv(cov, S)
        out = tmp_path / "base.json"
        assert run("learn", "--cov", str(cov), "--method", "baseline", "--out", str(out)) == 0
        return cov, out

    def test_baseline_graph_verifies(self, tmp_path, baseline, capsys):
        cov, graph_path = baseline
        kkt_path = tmp_path / "kkt.json"
        assert run("verify", "--graph", str(graph_path), "--cov", str(cov),
                   "--out-kkt", str(kkt_path)) == 0
        assert json.loads(kkt_path.read_text())["passed"] is True
        out = capsys.readouterr().out
        assert out.startswith("kkt pass (max edge residual ")
        assert "bounds" not in out

    @pytest.mark.parametrize("flags", [
        ["--out-bounds", "bounds.json"],
        ["--bounds-csv", "bounds.csv"],
        ["--trim", "--out-graph", "trimmed.json"],
        ["--bound-tol", "1e-3"],
    ])
    def test_bound_flags_reject_baseline_graph(self, tmp_path, baseline, capsys, flags):
        cov, graph_path = baseline
        flags = [str(tmp_path / f) if f.endswith((".json", ".csv")) else f for f in flags]
        assert run("verify", "--graph", str(graph_path), "--cov", str(cov), *flags) == 1
        assert "vertex importances" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in ("bounds.json", "bounds.csv", "trimmed.json"))

    def test_negative_bound_tol_is_written_with_an_equals_sign(self, tmp_path, capsys):
        # argparse reads "-1e-2" after a space as an option name.
        cov, graph, trimmed = tmp_path / "cov.csv", tmp_path / "graph.json", tmp_path / "trimmed.json"
        cio.write_covariance_csv(cov, kernel_spd_covariance(5, seed=3))
        assert run("learn", "--cov", str(cov), "--out", str(graph)) == 0
        verify = ("verify", "--graph", str(graph), "--cov", str(cov), "--trim", "--out-graph", str(trimmed))
        assert run(*verify, "--bound-tol", "-1e-2") == 1
        assert "expected one argument" in capsys.readouterr().err
        assert run(*verify, "--bound-tol=-1e-2") == 0
        assert "trimmed 5 bound-violating edge(s)" in capsys.readouterr().err
        assert cio.read_graph_json(trimmed).m == cio.read_graph_json(graph).m - 5


@pytest.mark.parametrize("argv, message", [
    ("synth --n 5 --range inf --seed 0 --out-cov {out}", "variogram range must be positive and finite, got inf"),
    ("synth --n 5 --range 0.1 --seed -1 --out-cov {out}", "seed must be an integer >= 0, got -1"),
    ("learn --cov {cov} --protocol paper --tol inf --out {out}", "stop_tol must be positive and finite, got inf"),
    ("learn --cov {cov} --qmin nan --out {out}", "q_min must be positive and finite, got nan"),
    ("learn --cov {cov} --init-value -1 --out {out}", "init_value must be nonnegative and finite, got -1.0"),
    ("verify --graph {graph} --cov {cov} --tol nan", "tol must be finite, got nan"),
    ("verify --graph {graph} --cov {cov} --bound-tol nan", "bound tolerance must be finite, got nan"),
    ("verify --graph {text_floor} --cov {cov}", "q_min must be positive and finite, got '0.0001'"),
    ("sample --graph {graph} --count 3 --seed -1", "seed must be an integer >= 0, got -1"),
])
def test_invalid_value_exits_one_and_names_it(tmp_path, synth_files, capsys, argv, message):
    # Each of these once exited 0 with a degenerate output or a wrong
    # verdict, or failed with an error that did not name the option.
    cov, _ = synth_files
    paths = {"cov": cov, "graph": tmp_path / "graph.json", "text_floor": tmp_path / "text.json",
             "out": tmp_path / "out"}
    assert run("learn", "--cov", str(cov), "--out", str(paths["graph"])) == 0
    data = json.loads(paths["graph"].read_text())
    paths["text_floor"].write_text(json.dumps({**data, "q_min": str(data["q_min"])}))
    capsys.readouterr()
    assert run(*(arg.format(**paths) for arg in argv.split())) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not paths["out"].exists()


class TestRoundTrip:
    def test_learn_output_reproduces_identically_through_tools(self, tmp_path, synth_files):
        from covgraph import laplacian

        cov, pts = synth_files
        out = tmp_path / "graph.json"
        run("learn", "--cov", str(cov), "--points", str(pts), "--out", str(out))
        g1 = cio.read_graph_json(out)
        resaved = tmp_path / "resaved.json"
        cio.write_graph_json(resaved, g1)
        g2 = cio.read_graph_json(resaved)
        np.testing.assert_array_equal(laplacian(g1), laplacian(g2))
        np.testing.assert_array_equal(g1.q, g2.q)
        assert out.read_text() == resaved.read_text()


class TestSpectrumAndSampling:
    def test_gft_export(self, tmp_path, synth_files):
        cov, pts = synth_files
        graph = tmp_path / "graph.json"
        run("learn", "--cov", str(cov), "--points", str(pts), "--out", str(graph))
        spec_path = tmp_path / "spectrum.csv"
        assert run("gft", "--graph", str(graph), "--out-spectrum", str(spec_path)) == 0
        rows = [line.split(",") for line in spec_path.read_text().splitlines()]
        assert len(rows) == 13 and all(len(r) == 12 for r in rows)
        lams = [float(v) for v in rows[0]]
        assert lams == sorted(lams) and lams[0] >= 0

    def test_sample_deterministic(self, tmp_path, synth_files, capsys):
        cov, pts = synth_files
        graph = tmp_path / "graph.json"
        run("learn", "--cov", str(cov), "--points", str(pts), "--out", str(graph))
        sig = tmp_path / "signals.csv"
        assert run("sample", "--graph", str(graph), "--count", "10", "--seed", "3",
                   "--out", str(sig)) == 0
        first = sig.read_text()
        run("sample", "--graph", str(graph), "--count", "10", "--seed", "3",
            "--out", str(sig))
        assert sig.read_text() == first
        rows = first.splitlines()
        assert len(rows) == 10


class TestBaselineGraphTools:
    @pytest.fixture()
    def baseline_graph(self, tmp_path, synth_files):
        cov, pts = synth_files
        out = tmp_path / "base.json"
        run("learn", "--cov", str(cov), "--method", "baseline",
            "--points", str(pts), "--out", str(out))
        return out

    def test_gft_falls_back_to_dot_product(self, tmp_path, baseline_graph, capsys):
        spec_path = tmp_path / "spec.csv"
        assert run("gft", "--graph", str(baseline_graph),
                   "--out-spectrum", str(spec_path)) == 0
        assert "dot product" in capsys.readouterr().err
        assert len(spec_path.read_text().splitlines()) == 13

    def test_sample_with_laplacian_psd(self, tmp_path, baseline_graph):
        sig = tmp_path / "sig.csv"
        assert run("sample", "--graph", str(baseline_graph), "--count", "5",
                   "--seed", "1", "--psd", "baseline", "--out", str(sig)) == 0
        signals = np.array(
            [[float(v) for v in row.split(",")] for row in sig.read_text().splitlines()]
        )
        # DC variance is zero under the pure-Laplacian profile: every signal
        # is orthogonal to the constant vector.
        np.testing.assert_allclose(signals.sum(axis=1), 0.0, atol=1e-9)


class TestExperimentAndBounds:
    def test_experiment_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        status = run("experiment", "--ranges", "0.2,1", "--n", "8", "--trials", "2",
                     "--seed", "0", "--tol", "1e-8", "--max-epochs", "200",
                     "--out", str(out))
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,r,u_q,q_bar,epsilon_w,time_s"
        assert len(lines) == 5
        assert lines[1].startswith("baseline,0.2,,,")
        assert lines[3].startswith("joint,0.2,")

    def test_bounds_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run("bounds", "--ranges", "0.1,0.2", "--steps", "31", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,bound_proposed_r0.1,bound_proposed_r0.2,bound_baseline_r0.1,bound_baseline_r0.2"
        assert len(lines) == 32

    def test_unknown_method_rejected(self, capsys):
        assert run("experiment", "--methods", "magic", "--trials", "1", "--n", "5") == 1
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [("--ranges", "0"), ("--ranges=0.1,-0.1",), ("--sill", "-10"), ("--sill", "inf"), ("--ranges", "inf")]
    )
    def test_bounds_rejects_invalid_variogram(self, tmp_path, capsys, argv):
        out = tmp_path / "curves.csv"
        assert run("bounds", *argv, "--out", str(out)) == 1
        assert "variogram" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--d-max", "-1"), "d_max"),
            (("--d-max", "0"), "d_max"),
            (("--steps", "0"), "steps"),
            (("--ranges", ""), "ranges must not be empty"),
            (("--ranges", ","), "ranges must not be empty"),
        ],
    )
    def test_bounds_rejects_invalid_grid_and_empty_ranges(self, tmp_path, capsys, argv, message):
        out = tmp_path / "curves.csv"
        assert run("bounds", "--ranges", "0.1", *argv, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("--ranges", ""), ("--methods", ""), ("--methods", " , ")])
    def test_experiment_rejects_empty_lists(self, tmp_path, capsys, monkeypatch, argv):
        import covgraph.bench as bench

        def no_trial(*task):
            raise AssertionError("no trial may run")

        monkeypatch.setattr(bench, "_run_trial", no_trial)
        out = tmp_path / "table.csv"
        assert run("experiment", "--trials", "1", "--n", "5", *argv, "--out", str(out)) == 1
        assert "must not be empty" in capsys.readouterr().err
        assert not out.exists()


class TestDefaults:
    """Options left unset reach the library as absent, so its defaults apply."""

    REQUIRED = {
        "synth": ("--n", "3", "--range", "0.1", "--seed", "0", "--out-cov", "c.csv"),
        "learn": ("--cov", "c.csv", "--out", "g.json"),
        "verify": ("--graph", "g.json", "--cov", "c.csv"),
        "gft": ("--graph", "g.json"),
        "sample": ("--graph", "g.json", "--count", "1", "--seed", "0"),
        "experiment": (),
        "bounds": (),
    }
    PAPER_RANGES = "0.01,0.02,0.1,0.2,1"
    CLI_CHOICES = {
        "learn": {"init": "auto"},
        "sample": {"psd": "joint"},
        "experiment": {"ranges": PAPER_RANGES},
        "bounds": {"ranges": PAPER_RANGES},
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_only_command_line_choices_have_defaults(self, command):
        required = self.REQUIRED[command]
        args = vars(build_parser().parse_args([command, *required]))
        given = {flag[2:].replace("-", "_") for flag in required[::2]} | {"command", "handler"}
        defaults = {k: v for k, v in args.items() if k not in given and v is not None and v is not False}
        assert defaults == self.CLI_CHOICES.get(command, {})

    def test_learn_uses_the_library_config(self, tmp_path, synth_files, monkeypatch):
        configs = []

        def recording_learn(S, config):
            configs.append(config)
            return learn(S, config)

        monkeypatch.setattr("covgraph.cli.learn", recording_learn)
        cov, _ = synth_files
        assert run("learn", "--cov", str(cov), "--out", str(tmp_path / "g.json")) == 0
        assert configs == [LearnConfig()]

    def test_experiment_passes_only_the_given_options(self, tmp_path, monkeypatch):
        calls = []

        def recording_experiment(ranges, **options):
            calls.append((ranges, options))
            return ExperimentTable(rows=[])

        monkeypatch.setattr("covgraph.cli.run_experiment", recording_experiment)
        assert run("experiment", "--seed", "3", "--tol", "1e-8", "--out", str(tmp_path / "t.csv")) == 0
        assert run("experiment", "--methods", "joint", "--out", str(tmp_path / "t.csv")) == 0
        assert calls == [
            ([0.01, 0.02, 0.1, 0.2, 1.0], {"base_seed": 3, "config": LearnConfig(stop_tol=1e-8)}),
            ([0.01, 0.02, 0.1, 0.2, 1.0], {"methods": ["joint"], "config": LearnConfig()}),
        ]


def _without_time_column(text):
    return [line.rsplit(",", 1)[0] for line in text.split("\n")]


@pytest.mark.parametrize(
    "command, out_flag, argv",
    [
        ("gft", "--out-spectrum", ()),
        ("sample", "--out", ("--count", "4", "--seed", "2")),
        ("experiment", "--out", ("--ranges", "0.5", "--n", "6", "--trials", "1",
                                 "--max-epochs", "50")),
        ("bounds", "--out", ("--ranges", "0.1", "--steps", "5")),
    ],
)
def test_stdout_matches_output_file(tmp_path, synth_files, capsys, command, out_flag, argv):
    cov, pts = synth_files
    if command in ("gft", "sample"):
        graph = tmp_path / "graph.json"
        assert run("learn", "--cov", str(cov), "--points", str(pts), "--out", str(graph)) == 0
        argv = ("--graph", str(graph), *argv)
    out = tmp_path / "out.csv"
    assert run(command, *argv, out_flag, str(out)) == 0
    capsys.readouterr()
    assert run(command, *argv) == 0
    written, printed = out.read_text(), capsys.readouterr().out
    assert printed
    if command == "experiment":
        # Wall time differs between the two runs; every other column may not.
        written, printed = _without_time_column(written), _without_time_column(printed)
    assert printed == written


def test_module_runs_as_a_script(tmp_path):
    # Without a __main__ guard, ``python -m covgraph.cli`` exited 0 and did nothing.
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "covgraph.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    synth = cli("synth", "--n", "4", "--range", "0.3", "--seed", "1", "--out-cov", "cov.csv")
    assert synth.returncode == 0, synth.stderr
    assert cio.read_covariance_csv(tmp_path / "cov.csv").n == 4
    missing = cli("learn", "--cov", "nope.csv", "--out", "g.json")
    assert missing.returncode == 1
    assert "nope.csv" in missing.stderr
    assert not (tmp_path / "g.json").exists()

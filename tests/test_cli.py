"""End-to-end command-line tests, driven in-process through main(argv)."""
import json

import numpy as np
import pytest

from covgraph import build_graph
from covgraph import io as cio
from covgraph.cli import main
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

    def test_baseline_learn(self, tmp_path, synth_files):
        cov, pts = synth_files
        out = tmp_path / "base.json"
        status = run("learn", "--cov", str(cov), "--method", "baseline",
                     "--points", str(pts), "--out", str(out))
        assert status == 0
        graph = cio.read_graph_json(out)
        assert graph.q is None

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

    def test_baseline_graph_rejected(self, tmp_path):
        S = kernel_spd_covariance(4, seed=10)
        cov = tmp_path / "cov.csv"
        cio.write_covariance_csv(cov, S)
        out = tmp_path / "base.json"
        assert run("learn", "--cov", str(cov), "--method", "baseline", "--out", str(out)) == 0
        assert run("verify", "--graph", str(out), "--cov", str(cov)) == 1


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

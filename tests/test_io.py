"""Serialization tests: every format must round-trip finite doubles
bit-exactly (shortest round-trip decimal encoding)."""
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgraph import GraphValidationError, LearnConfig, build_graph, laplacian, learn_joint, trim_violations
from covgraph.learn import learn
from covgraph import io as cio
from covgraph.graphs import pairwise_distances
from _support import kernel_spd_covariance


class TestCovarianceCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        S = kernel_spd_covariance(5, seed=1)
        path = tmp_path / "cov.csv"
        cio.write_covariance_csv(path, S)
        back = cio.read_covariance_csv(path)
        np.testing.assert_array_equal(back.entries, S.entries)

    def test_rejects_ragged_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0\n0.0\n")
        with pytest.raises(GraphValidationError, match="n lines of n values"):
            cio.read_covariance_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,x\nx,1.0\n")
        with pytest.raises(GraphValidationError, match="non-numeric"):
            cio.read_covariance_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(GraphValidationError, match="empty"):
            cio.read_covariance_csv(path)


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        pts = np.random.default_rng(2).random((7, 2))
        path = tmp_path / "pts.csv"
        cio.write_points_csv(path, pts)
        np.testing.assert_array_equal(cio.read_points_csv(path), pts)

    def test_rejects_wrong_width(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.1,0.2,0.3\n")
        with pytest.raises(GraphValidationError, match="two coordinates"):
            cio.read_points_csv(path)


class TestGraphJson:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        g = build_graph(
            4,
            [(0, 1, rng.random()), (2, 3, rng.random()), (0, 3, rng.random())],
            q=rng.uniform(0.5, 2.0, size=4),
            q_min=1e-4,
        )
        path = tmp_path / "graph.json"
        cio.write_graph_json(path, g)
        back = cio.read_graph_json(path)
        assert back.edges == g.edges
        np.testing.assert_array_equal(back.q, g.q)
        assert back.q_min == g.q_min
        np.testing.assert_array_equal(laplacian(back), laplacian(g))

    def test_edges_sorted_in_file(self, tmp_path):
        g = build_graph(3, [(1, 2, 1.0), (0, 1, 2.0)], q=np.ones(3), q_min=0.01)
        path = tmp_path / "graph.json"
        cio.write_graph_json(path, g)
        data = json.loads(path.read_text())
        assert [(e["i"], e["j"]) for e in data["edges"]] == [(0, 1), (1, 2)]

    def test_baseline_graph_has_empty_importances(self, tmp_path):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        path = tmp_path / "graph.json"
        cio.write_graph_json(path, g)
        data = json.loads(path.read_text())
        assert data["q"] == [] and data["q_min"] is None
        back = cio.read_graph_json(path)
        assert back.q is None

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text("{not json")
        with pytest.raises(GraphValidationError, match="JSON"):
            cio.read_graph_json(path)


# Doubles at the edges of the format: signed zeros, the smallest subnormal
# and normal numbers, and magnitudes with exponents near -308 and +308.
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-308,
            1e308, -1.7976931348623157e308, 1.7976931348623157e308)
finite = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(st.sampled_from([x for x in EXTREMES if x > 0]),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@st.composite
def symmetric_matrices(draw):
    """Exactly symmetric matrices with a positive diagonal, entries drawn
    from the whole finite double range."""
    n = draw(st.integers(1, 6))
    S = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    S[iu] = draw(st.lists(finite, min_size=len(iu[0]), max_size=len(iu[0])))
    S.T[iu] = S[iu]
    S[np.diag_indices(n)] = draw(st.lists(positive, min_size=n, max_size=n))
    return S


@st.composite
def graphs(draw, joint):
    """Graphs with weights and importances from the whole positive double
    range; some drawn weights are signed zeros, which the graph drops."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [(i, j, draw(st.one_of(positive, st.sampled_from([0.0, -0.0])))) for i, j in chosen]
    if not joint:
        return build_graph(n, edges)
    q = np.array(draw(st.lists(positive, min_size=n, max_size=n)))
    q_min = draw(st.sampled_from([float(q.min()), 5e-324]))
    return build_graph(n, edges, q=q, q_min=q_min)


class TestRoundTripProperties:
    """Every writer/reader pair reproduces every finite double bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(symmetric_matrices())
    def test_covariance_csv(self, tmp_path_factory, S):
        path = tmp_path_factory.mktemp("cov") / "cov.csv"
        cio.write_covariance_csv(path, S)
        assert cio.read_covariance_csv(path).entries.tobytes() == S.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(finite, min_size=2 * n, max_size=2 * n)))
    def test_points_csv(self, tmp_path_factory, values):
        points = np.array(values).reshape(-1, 2)
        path = tmp_path_factory.mktemp("pts") / "pts.csv"
        cio.write_points_csv(path, points)
        assert cio.read_points_csv(path).tobytes() == points.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.booleans().flatmap(graphs))
    def test_graph_json(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("graph") / "graph.json"
        cio.write_graph_json(path, g)
        back = cio.read_graph_json(path)
        assert back.n == g.n
        assert [(i, j) for i, j, _ in back.edges] == [(i, j) for i, j, _ in g.edges]
        weights = np.array([w for _, _, w in back.edges])
        assert weights.tobytes() == np.array([w for _, _, w in g.edges]).tobytes()
        assert (back.q is None) == (g.q is None)
        if g.q is not None:
            assert back.q.tobytes() == g.q.tobytes()
            assert np.float64(back.q_min).tobytes() == np.float64(g.q_min).tobytes()


class TestMetaSidecar:
    def test_meta_path_derivation(self):
        assert str(cio.meta_path_for("out/graph.json")).endswith("graph.meta.json")
        assert str(cio.meta_path_for("graph")).endswith("graph.meta.json")

    def test_meta_contents(self, tmp_path):
        result = learn_joint(kernel_spd_covariance(3, seed=3))
        path = tmp_path / "g.meta.json"
        cio.write_learn_meta_json(path, result)
        data = json.loads(path.read_text())
        assert set(data) == {
            "objective", "epochs", "converged", "wall_time_s", "max_refresh_drift", "singularity_clips",
            "protocol", "kkt_residual", "duality_gap", "newton_rounds", "cg_iterations",
            "failed_line_searches", "stop",
        }
        assert data["converged"] is True
        assert data["stop"] == result.stop == "certified"
        assert data["protocol"] == "optimum"
        assert data["kkt_residual"] == result.kkt_residual
        assert data["duality_gap"] == result.duality_gap
        assert data["objective"] == result.objective
        assert data["max_refresh_drift"] == result.max_refresh_drift
        assert data["singularity_clips"] == result.singularity_clips == 0
        assert data["newton_rounds"] == result.newton_rounds > 0
        assert data["cg_iterations"] == result.cg_iterations >= result.newton_rounds
        assert data["failed_line_searches"] == result.failed_line_searches


# The sidecar's keys, source fields and casts as the writer once listed them
# by hand, and the key "stop" added last; the writer derives them from
# LearnResult, byte for byte.
LISTED_META = (
    ("objective", "objective", float),
    ("epochs", "epochs_run", int),
    ("converged", "converged", bool),
    ("wall_time_s", "wall_time_seconds", float),
    ("max_refresh_drift", "max_refresh_drift", float),
    ("singularity_clips", "singularity_clips", int),
    ("protocol", "protocol", str),
    ("kkt_residual", "kkt_residual", float),
    ("duality_gap", "duality_gap", float),
    ("newton_rounds", "newton_rounds", int),
    ("cg_iterations", "cg_iterations", int),
    ("failed_line_searches", "failed_line_searches", int),
    ("stop", "stop", str),
)


class TestMetaSidecarBytes:
    @staticmethod
    def assert_listed_bytes(tmp_path, result):
        path = tmp_path / "g.meta.json"
        cio.write_learn_meta_json(path, result)
        listed = {key: cast(getattr(result, name)) for key, name, cast in LISTED_META}
        assert path.read_text() == json.dumps(listed, indent=2) + "\n"

    @pytest.mark.parametrize(
        "method, protocol, max_epochs",
        [("joint", "optimum", 1000), ("joint", "paper", 1000), ("baseline", "optimum", 1000),
         ("baseline", "paper", 1000), ("joint", "optimum", 2)],
    )
    def test_learned_sidecar_matches_the_listed_keys(self, tmp_path, method, protocol, max_epochs):
        config = LearnConfig(method=method, protocol=protocol, max_epochs=max_epochs)
        result = learn(kernel_spd_covariance(5, seed=3), config)
        assert result.converged == (max_epochs > 2)
        assert result.converged == (result.stop in ("certified", "stop_tol"))
        self.assert_listed_bytes(tmp_path, result)

    def test_trimmed_sidecar_matches_the_listed_keys(self, tmp_path):
        S = kernel_spd_covariance(5, seed=3)
        result = learn_joint(S)
        trimmed, n_trimmed = trim_violations(result, S, tol=-1e-2)
        assert n_trimmed > 0
        assert (result.stop, trimmed.stop, trimmed.converged) == ("certified", "trimmed", False)
        self.assert_listed_bytes(tmp_path, trimmed)


class TestReportsAndTables:
    def test_spectrum_csv_layout(self, tmp_path):
        from covgraph import compute_gft

        g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)], q=np.ones(3), q_min=0.01)
        spec = compute_gft(laplacian(g), np.ones(3))
        path = tmp_path / "spec.csv"
        cio.write_spectrum_csv(path, spec)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert len(rows) == 4 and all(len(r) == 3 for r in rows)
        np.testing.assert_array_equal([float(v) for v in rows[0]], spec.lambdas)

    def test_signals_csv_shape(self, tmp_path):
        signals = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "signals.csv"
        cio.write_signals_csv(path, signals)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert len(rows) == 4 and all(len(r) == 3 for r in rows)

    def test_kkt_and_bound_json(self, tmp_path):
        from covgraph import bound_report, kkt_report

        S = kernel_spd_covariance(4, seed=6)
        result = learn_joint(S)
        kkt_path = tmp_path / "kkt.json"
        cio.write_kkt_json(kkt_path, kkt_report(result, S))
        kkt_data = json.loads(kkt_path.read_text())
        assert kkt_data["passed"] is True
        assert list(kkt_data) == [
            "tol", "max_edge_residual", "max_vertex_residual",
            "complementarity_violations", "m_matrix_ok", "passed",
        ]

        bounds_path = tmp_path / "bounds.json"
        cio.write_bound_report_json(bounds_path, bound_report(result, S))
        bound_data = json.loads(bounds_path.read_text())
        assert bound_data["summary"]["violated"] == 0
        assert len(bound_data["edges"]) == len(result.graph.edges)
        assert list(bound_data) == ["tol", "summary", "edges"]
        assert list(bound_data["edges"][0]) == [
            "i", "j", "w", "rho", "bound", "applicable", "violated", "excess",
        ]

    def test_bound_table_csv(self, tmp_path):
        from covgraph import bound_report

        S = kernel_spd_covariance(4, seed=6)
        result = learn_joint(S)
        report = bound_report(result, S)
        path = tmp_path / "bounds.csv"
        pts = np.random.default_rng(0).random((4, 2))
        cio.write_bound_table_csv(path, report, points=pts)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,d,w,bound,violated"
        assert len(lines) == 1 + len(report.records)
        # Each distance is the pairwise_distances entry of the edge, byte for byte.
        dist = pairwise_distances(pts)
        for line, rec in zip(lines[1:], report.records):
            assert line.split(",")[2] == repr(float(dist[rec.i, rec.j]))

        cio.write_bound_table_csv(path, report)
        assert {line.split(",")[2] for line in path.read_text().splitlines()[1:]} == {"nan"}
        cio.write_bound_table_csv(path, replace(report, records=[]), points=pts)
        assert path.read_text() == "i,j,d,w,bound,violated\n"

    def test_experiment_csv_blank_for_absent(self):
        from covgraph import ExperimentTable, MetricsRow

        table = ExperimentTable(
            rows=[
                MetricsRow(method="baseline", r=0.1, u_q=None, q_bar=None, epsilon_w=0.25, time_s=1.0),
                MetricsRow(method="joint", r=0.1, u_q=0.5, q_bar=0.2, epsilon_w=0.5, time_s=0.5),
            ]
        )
        out = io.StringIO()
        cio.write_experiment_csv(out, table)
        lines = out.getvalue().splitlines()
        assert lines[0] == "method,r,u_q,q_bar,epsilon_w,time_s"
        assert lines[1] == "baseline,0.1,,,0.25,1.0"
        assert lines[2] == "joint,0.1,0.5,0.2,0.5,0.5"

    def test_bound_curves_csv(self, tmp_path):
        from covgraph import bound_curves

        d, curves = bound_curves([0.1], steps=4)
        out = io.StringIO()
        cio.write_bound_curves_csv(out, d, curves)
        lines = out.getvalue().splitlines()
        assert lines[0] == "d,bound_proposed_r0.1,bound_baseline_r0.1"
        assert lines[1].startswith("0.0,inf,inf")
        assert len(lines) == 5


class TestCsvCells:
    # The expected bytes are those of the per-table writers that preceded the
    # shared table formatter. A float cell is repr(float(v)): repr of a numpy
    # scalar would write "np.float64(0.25)" under numpy 2.
    NAN, INF = float("nan"), float("inf")

    def _write(self, writer, *args, **kwargs):
        out = io.StringIO()
        writer(out, *args, **kwargs)
        return out.getvalue()

    def test_bound_table(self):
        from covgraph.verify import BoundReport, EdgeBoundRecord

        records = [
            EdgeBoundRecord(0, 1, np.float64(0.25), 0.5, self.INF, True, True, self.NAN),
            EdgeBoundRecord(0, 2, 5e-324, -0.5, -0.0, False, False, 0.0),
            EdgeBoundRecord(1, 2, 1e300, 0.1, self.NAN, True, np.True_, 1.0),
        ]
        report = BoundReport(1e-8, records, 3, 2, 1)
        assert self._write(cio.write_bound_table_csv, report) == (
            "i,j,d,w,bound,violated\n0,1,nan,0.25,inf,1\n0,2,nan,5e-324,-0.0,0\n1,2,nan,1e+300,nan,1\n"
        )
        points = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert self._write(cio.write_bound_table_csv, report, points=points) == (
            "i,j,d,w,bound,violated\n0,1,5.0,0.25,inf,1\n0,2,1.0,5e-324,-0.0,0\n"
            "1,2,4.242640687119285,1e+300,nan,1\n"
        )

    def test_experiment_table(self):
        from covgraph import ExperimentTable, MetricsRow

        table = ExperimentTable(rows=[
            MetricsRow(method="baseline", r=np.float64(0.1), u_q=None, q_bar=None, epsilon_w=-0.0, time_s=5e-324),
            MetricsRow(method="joint", r=1, u_q=self.NAN, q_bar=np.float64(0.25), epsilon_w=self.INF, time_s=1e300),
        ])
        assert self._write(cio.write_experiment_csv, table) == (
            "method,r,u_q,q_bar,epsilon_w,time_s\nbaseline,0.1,,,-0.0,5e-324\njoint,1.0,nan,0.25,inf,1e+300\n"
        )

    def test_bound_curves(self):
        d_grid = np.array([0.0, 0.5, 1e300])
        curves = {
            "bound_proposed_r1": np.array([self.INF, 0.25, 5e-324]),
            "bound_baseline_r1": [-0.0, self.NAN, 2],
        }
        assert self._write(cio.write_bound_curves_csv, d_grid, curves) == (
            "d,bound_proposed_r1,bound_baseline_r1\n0.0,inf,-0.0\n0.5,0.25,nan\n1e+300,5e-324,2.0\n"
        )

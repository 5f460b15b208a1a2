"""Serialization tests: every format must round-trip finite doubles
bit-exactly (shortest round-trip decimal encoding)."""
import json

import numpy as np
import pytest

from covgraph import GraphValidationError, build_graph, laplacian, learn_joint
from covgraph import io as cio
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


class TestMetaSidecar:
    def test_meta_path_derivation(self):
        assert str(cio.meta_path_for("out/graph.json")).endswith("graph.meta.json")
        assert str(cio.meta_path_for("graph")).endswith("graph.meta.json")

    def test_meta_contents(self, tmp_path):
        result = learn_joint(kernel_spd_covariance(3, seed=3))
        path = tmp_path / "g.meta.json"
        cio.write_learn_meta_json(path, result)
        data = json.loads(path.read_text())
        assert set(data) == {"objective", "epochs", "converged", "wall_time_s"}
        assert data["converged"] is True
        assert data["objective"] == result.objective


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

    def test_experiment_csv_blank_for_absent(self):
        from covgraph import ExperimentTable, MetricsRow

        table = ExperimentTable(
            rows=[
                MetricsRow(method="baseline", r=0.1, u_q=None, q_bar=None, epsilon_w=0.25, time_s=1.0),
                MetricsRow(method="joint", r=0.1, u_q=0.5, q_bar=0.2, epsilon_w=0.5, time_s=0.5),
            ]
        )
        text = cio.experiment_table_to_csv(table)
        lines = text.splitlines()
        assert lines[0] == "method,r,u_q,q_bar,epsilon_w,time_s"
        assert lines[1] == "baseline,0.1,,,0.25,1.0"
        assert lines[2] == "joint,0.1,0.5,0.2,0.5,0.5"

    def test_bound_curves_csv(self, tmp_path):
        from covgraph import bound_curves

        d, curves = bound_curves([0.1], steps=4)
        text = cio.bound_curves_to_csv(d, curves)
        lines = text.splitlines()
        assert lines[0] == "d,bound_proposed_r0.1,bound_baseline_r0.1"
        assert lines[1].startswith("0.0,inf,inf")
        assert len(lines) == 5

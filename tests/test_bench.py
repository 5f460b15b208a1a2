"""Benchmark harness tests: spatial sampling, variogram covariances, kernel
initialization, metrics, and the trial-averaging experiment driver.

The mean pairwise distance of uniform points in the unit square has the
known value (2 + sqrt(2) + 5*asinh(1)) / 15 ~= 0.5214; a seeded Monte-Carlo
average must reproduce it.
"""
import inspect

import numpy as np
import pytest

from covgraph import (
    GraphValidationError,
    LearnConfig,
    VariogramSpec,
    baseline_variogram_edge_bound,
    bound_curves,
    build_graph,
    compute_metrics,
    kernel_initial_graph,
    run_experiment,
    sample_locations,
    variogram_covariance,
    variogram_edge_bound,
)
from covgraph.learn import LearnResult

UNIT_SQUARE_MEAN_DISTANCE = (2.0 + np.sqrt(2.0) + 5.0 * np.arcsinh(1.0)) / 15.0


class TestSampleLocations:
    def test_deterministic(self):
        a = sample_locations(50, seed=42)
        b = sample_locations(50, seed=42)
        np.testing.assert_array_equal(a.points, b.points)

    def test_in_unit_square(self):
        pts = sample_locations(50, seed=3).points
        assert pts.shape == (50, 2)
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)

    def test_mean_pairwise_distance_constant(self):
        totals = []
        for seed in range(40):
            pts = sample_locations(60, seed=seed).points
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            iu = np.triu_indices(60, k=1)
            totals.append(dist[iu].mean())
        assert abs(np.mean(totals) - UNIT_SQUARE_MEAN_DISTANCE) <= 0.02

    def test_rejects_tiny_n(self):
        with pytest.raises(GraphValidationError):
            sample_locations(1, seed=0)


class TestVariogramCovariance:
    def test_coincident_points_hit_sill(self):
        pts = np.array([[0.25, 0.25], [0.25, 0.25]])
        S = variogram_covariance(pts, VariogramSpec(range_=0.1))
        assert S.entries[0, 1] == 10.0

    def test_unit_lag_ratio(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        S = variogram_covariance(pts, VariogramSpec(range_=0.1))
        assert S.entries[0, 1] == pytest.approx(10.0 * np.exp(-1.0), rel=1e-12)

    def test_positive_definite(self):
        for seed in range(5):
            sample = sample_locations(30, seed=seed)
            for r in (0.01, 0.1, 1.0):
                S = variogram_covariance(sample, VariogramSpec(range_=r))
                assert np.linalg.eigvalsh(S.entries).min() > 0

    def test_diagonal_is_sill_and_offdiagonals_positive(self):
        S = variogram_covariance(sample_locations(20, seed=1), VariogramSpec(range_=0.2))
        np.testing.assert_array_equal(np.diag(S.entries), np.full(20, 10.0))
        assert np.all(S.entries > 0)

    def test_spec_validation(self):
        with pytest.raises(GraphValidationError):
            VariogramSpec(sill=0.0, range_=0.1)
        with pytest.raises(GraphValidationError):
            VariogramSpec(range_=-1.0)
        with pytest.raises(TypeError):
            VariogramSpec(range_=0.1, nugget=0.5)


class TestKernelInitialGraph:
    def test_zero_distance_gives_unit_weight(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
        w = kernel_initial_graph(pts)
        assert w[0] == pytest.approx(1.0)

    def test_bandwidth_distance_weight(self):
        # Two points: sigma = d/3, so w = exp(-d^2 / (2 d^2/9)) = exp(-4.5);
        # verify against a three-point layout where one pair sits at sigma.
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        w = kernel_initial_graph(pts)
        assert w[0] == pytest.approx(np.exp(-4.5), rel=1e-12)

    def test_all_weights_in_unit_interval(self):
        pts = sample_locations(25, seed=9).points
        w = kernel_initial_graph(pts)
        assert w.shape == (25 * 24 // 2,)
        assert np.all(w > 0) and np.all(w <= 1.0)


class TestComputeMetrics:
    @staticmethod
    def _result(graph, wall=1.5):
        return LearnResult(
            graph=graph, objective=0.0, epochs_run=1, converged=True,
            wall_time_seconds=wall, history=[0.0],
        )

    def test_importance_metrics(self):
        g = build_graph(4, [(0, 1, 1.0)], q=[0.01, 0.01, 0.5, 0.7], q_min=0.01)
        row = compute_metrics(self._result(g), method="joint", r=0.1)
        assert row.u_q == pytest.approx(0.5)
        assert row.q_bar == pytest.approx(0.6)

    def test_sparsity_fraction(self):
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)], q=np.ones(4), q_min=0.01)
        row = compute_metrics(self._result(g))
        assert row.epsilon_w == pytest.approx(0.5)

    def test_baseline_metrics_absent(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        row = compute_metrics(self._result(g), method="baseline", r=0.2)
        assert row.u_q is None and row.q_bar is None
        assert row.time_s == 1.5

    def test_dust_weights_do_not_count_as_edges(self):
        g = build_graph(3, [(0, 1, 1e-14), (1, 2, 1.0)], q=np.ones(3), q_min=0.01)
        row = compute_metrics(self._result(g))
        assert row.epsilon_w == pytest.approx(2.0 / 3.0)

    def test_floor_is_the_kkt_floor(self):
        # An importance within FLOOR_TOL of the floor is at the floor, as in
        # kkt_report and bound_report.
        g = build_graph(3, [(0, 1, 1.0)], q=[0.01 + 1e-13, 0.01, 0.5], q_min=0.01)
        row = compute_metrics(self._result(g))
        assert row.u_q == pytest.approx(2.0 / 3.0)
        assert row.q_bar == 0.5

    def test_single_vertex_graph_rejected(self):
        g = build_graph(1, [], q=[1.0], q_min=0.01)
        with pytest.raises(GraphValidationError, match="at least 2 vertices"):
            compute_metrics(self._result(g))


class TestRunExperiment:
    CONFIG = LearnConfig(stop_tol=1e-8, max_epochs=300)

    def test_table_order_and_determinism(self):
        table = run_experiment(
            [0.1, 1.0], n=8, trials=2, base_seed=5, config=self.CONFIG
        )
        labels = [(row.method, row.r) for row in table.rows]
        assert labels == [("baseline", 0.1), ("baseline", 1.0), ("joint", 0.1), ("joint", 1.0)]
        again = run_experiment([0.1, 1.0], n=8, trials=2, base_seed=5, config=self.CONFIG)
        for a, b in zip(table.rows, again.rows):
            assert a.epsilon_w == b.epsilon_w
            assert a.u_q == b.u_q and a.q_bar == b.q_bar

    def test_joint_sparser_than_baseline_at_moderate_range(self):
        table = run_experiment([0.1], n=10, trials=3, base_seed=11, config=self.CONFIG)
        by_method = {row.method: row for row in table.rows}
        assert by_method["joint"].epsilon_w > by_method["baseline"].epsilon_w

    def test_failed_trial_excluded_with_warning(self, monkeypatch):
        import covgraph.bench as bench
        from covgraph import SingularModelError

        calls = {"count": 0}
        original = bench._run_trial

        def flaky(method, r, n, seed, template):
            calls["count"] += 1
            if calls["count"] == 1:
                raise SingularModelError("synthetic failure")
            return original(method, r, n, seed, template)

        monkeypatch.setattr(bench, "_run_trial", flaky)
        with pytest.warns(UserWarning, match="excluded"):
            table = bench.run_experiment(
                [0.5], n=6, trials=2, base_seed=0, methods=("joint",), config=self.CONFIG
            )
        assert len(table.rows) == 1
        assert np.isfinite(table.rows[0].epsilon_w)

    def test_unknown_method_raises_before_any_trial(self, monkeypatch):
        import covgraph.bench as bench

        calls = {"count": 0}

        def counting(*task):
            calls["count"] += 1
            raise AssertionError("no trial may run")

        monkeypatch.setattr(bench, "_run_trial", counting)
        with pytest.raises(GraphValidationError, match="unknown method 'magic'"):
            bench.run_experiment(
                [0.5], n=6, trials=2, base_seed=0, methods=("joint", "magic"), config=self.CONFIG
            )
        assert calls["count"] == 0

    @pytest.mark.parametrize("ranges, methods", [([], ("joint",)), ([0.5], ()), ([], ())])
    def test_empty_lists_raise_before_any_trial(self, monkeypatch, ranges, methods):
        import covgraph.bench as bench

        def no_trial(*task):
            raise AssertionError("no trial may run")

        monkeypatch.setattr(bench, "_run_trial", no_trial)
        with pytest.raises(GraphValidationError, match="must not be empty"):
            bench.run_experiment(ranges, n=6, trials=1, methods=methods, config=self.CONFIG)

    def test_unconverged_trials_kept_with_one_warning_per_cell(self):
        import covgraph.bench as bench

        config = LearnConfig(max_epochs=1)
        with pytest.warns(UserWarning) as record:
            table = run_experiment(
                [0.5, 1.0], n=6, trials=2, base_seed=0, methods=("joint",), config=config
            )
        messages = [str(w.message) for w in record if "max_epochs" in str(w.message)]
        assert len(messages) == 2
        assert messages[0].startswith("2 of 2 trials for method=joint r=0.5 ")
        assert messages[1].startswith("2 of 2 trials for method=joint r=1.0 ")
        for row in table.rows:
            trials = [bench._run_trial("joint", row.r, 6, k, config) for k in (0, 1)]
            assert all(not converged for _, converged in trials)
            assert row.epsilon_w == float(np.mean([m.epsilon_w for m, _ in trials]))

    def test_parallel_matches_sequential(self):
        seq = run_experiment([0.5], n=6, trials=2, base_seed=3, config=self.CONFIG)
        par = run_experiment([0.5], n=6, trials=2, base_seed=3, config=self.CONFIG, parallel=2)
        for a, b in zip(seq.rows, par.rows):
            assert a.epsilon_w == b.epsilon_w
            assert a.u_q == b.u_q and a.q_bar == b.q_bar


class TestBoundCurves:
    def test_grid_and_labels(self):
        d, curves = bound_curves([0.1, 1.0], steps=16)
        assert d[0] == 0.0 and d[-1] == 1.5
        assert set(curves) == {
            "bound_proposed_r0.1",
            "bound_proposed_r1",
            "bound_baseline_r0.1",
            "bound_baseline_r1",
        }
        assert np.isinf(curves["bound_proposed_r0.1"][0])

    @pytest.mark.parametrize(
        "ranges, sill",
        [([0.0], 10.0), ([0.1, -0.1], 10.0), ([float("nan")], 10.0), ([0.1], -10.0),
         ([float("inf")], 10.0), ([0.1], float("inf")), ([0.1], "10")],
    )
    def test_invalid_variogram_rejected(self, ranges, sill):
        with pytest.raises(GraphValidationError, match="variogram"):
            bound_curves(ranges, sill=sill)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"ranges": []}, "ranges must not be empty"),
            ({"d_max": -1.0}, "d_max"),
            ({"d_max": 0.0}, "d_max"),
            ({"d_max": float("nan")}, "d_max"),
            ({"d_max": float("inf")}, "d_max"),
            ({"steps": 0}, "steps"),
            ({"steps": -3}, "steps"),
            ({"d_max": "1.5"}, "d_max must be positive and finite, got '1.5'"),
            ({"d_max": True}, "d_max must be positive and finite, got True"),
        ],
    )
    def test_invalid_grid_rejected(self, kwargs, message):
        with pytest.raises(GraphValidationError, match=message):
            bound_curves(**{"ranges": [0.1], **kwargs})

    def test_single_step_grid(self):
        d, curves = bound_curves([0.1], steps=1)
        assert d.tolist() == [0.0]
        assert np.isinf(curves["bound_proposed_r0.1"]).all()

    def test_proposed_below_baseline_everywhere(self):
        d, curves = bound_curves([0.01, 0.02, 0.1, 0.2, 1.0])
        for r in ("0.01", "0.02", "0.1", "0.2", "1"):
            joint = curves[f"bound_proposed_r{r}"][1:]
            base = curves[f"bound_baseline_r{r}"][1:]
            assert np.all(joint < base)


class TestVariogramBounds:
    """The closed-form bounds take their sill default and their parameter
    checks from :class:`VariogramSpec`."""

    @pytest.mark.parametrize("function", [bound_curves, variogram_edge_bound, baseline_variogram_edge_bound])
    def test_sill_default_is_the_spec_default(self, function):
        assert inspect.signature(function).parameters["sill"].default == VariogramSpec.sill
        assert VariogramSpec().sill == VariogramSpec.sill

    @pytest.mark.parametrize("bound", [variogram_edge_bound, baseline_variogram_edge_bound])
    @pytest.mark.parametrize(
        "r, sill, message",
        [(0.0, 10.0, "range"), (-1.0, 10.0, "range"), (float("nan"), 10.0, "range"),
         (0.1, 0.0, "sill"), (0.1, -10.0, "sill"),
         (float("inf"), 10.0, "range"), (0.1, float("inf"), "sill"), ("0.1", 10.0, "range")],
    )
    def test_invalid_variogram_rejected(self, bound, r, sill, message):
        # A negative range or sill once gave a negative bound, and r = 0 gave 0.0.
        with pytest.raises(GraphValidationError, match=f"variogram {message} must be positive"):
            bound(0.1, r, sill)

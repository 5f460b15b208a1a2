"""Verification tests: weight bounds, screening, optimality reports, and
bound-violation trimming.

The two-node problem is the sharpness witness: its learned weight must meet
the correlation bound with equality.
"""
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgraph import (
    GraphValidationError,
    LearnConfig,
    SingularModelError,
    all_pairs,
    baseline_variogram_edge_bound,
    bound_report,
    build_graph,
    edge_weight_bound,
    kkt_report,
    learn_cgl_baseline,
    learn_joint,
    screen_edges,
    trim_violations,
    variogram_edge_bound,
)
from covgraph.learn import KKT_EXIT
from covgraph.verify import BOUND_TOL
from _support import (
    assert_pair_set,
    edge_weight_map,
    kernel_spd_covariance,
    mixed_sign_spd_covariance,
    pair_list,
)
from oracles import (
    is_connected_loop,
    joint_objective_oracle,
    kkt_residuals_loop,
    screen_pairs_loop,
)

S2 = np.array([[1.0, 0.5], [0.5, 1.0]])


class TestEdgeWeightBound:
    def test_half_correlation_closed_form(self):
        # rho = 0.5: bound = (1/0.5) * 0.25/0.75 = 2/3.
        assert edge_weight_bound(S2, 0, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_bound_is_sharp_on_two_node_optimum(self):
        result = learn_joint(S2, LearnConfig(q_min=0.01))
        w = edge_weight_map(result.graph)[(0, 1)]
        assert abs(w - edge_weight_bound(S2, 0, 1)) <= 1e-6

    def test_zero_covariance_gives_zero_bound(self):
        S = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert edge_weight_bound(S, 0, 1) == 0.0

    def test_degenerate_correlation_inapplicable(self):
        S = np.array([[4.0, 4.0], [4.0, 4.0]])
        assert math.isnan(edge_weight_bound(S, 0, 1))

    def test_variogram_closed_form(self):
        # For the exponential-variogram covariance (sill s, range r) the
        # general bound collapses to 1/(s (e^(d/r) - e^(-d/r))).
        for d, r in [(0.1, 0.1), (0.05, 0.02), (0.3, 0.2)]:
            sill = 10.0
            S = np.array(
                [[sill, sill * np.exp(-d / r)], [sill * np.exp(-d / r), sill]]
            )
            direct = edge_weight_bound(S, 0, 1)
            closed = variogram_edge_bound(d, r, sill)
            assert direct == pytest.approx(closed, rel=1e-12)
        assert variogram_edge_bound(0.1, 0.1) == pytest.approx(
            0.1 / (np.e - 1.0 / np.e), rel=1e-12
        )


class TestBaselineVariogramBound:
    def test_limit_is_inverse_double_sill(self):
        assert baseline_variogram_edge_bound(1000.0, 1.0) == pytest.approx(0.05, abs=1e-12)

    def test_unit_lag_value(self):
        assert baseline_variogram_edge_bound(0.1, 0.1) == pytest.approx(
            0.05 / (1.0 - np.exp(-1.0)), rel=1e-12
        )

    def test_unbounded_at_zero_distance(self):
        assert baseline_variogram_edge_bound(0.0, 0.1) == np.inf

    def test_dominates_joint_bound_pointwise(self):
        d = np.linspace(0.01, 1.5, 300)
        for r in (0.01, 0.02, 0.1, 0.2, 1.0):
            joint = variogram_edge_bound(d, r)
            base = baseline_variogram_edge_bound(d, r)
            assert np.all(joint < base)


class TestScreening:
    def test_sign_pattern_read_off(self):
        S = np.array([[1.0, 0.5, -0.2], [0.5, 1.0, 0.3], [-0.2, 0.3, 1.0]])
        assert_pair_set(screen_edges(S), [(0, 1), (1, 2)])

    def test_identity_screens_everything(self):
        assert_pair_set(screen_edges(np.eye(4)), [])

    def test_positive_covariance_keeps_all_pairs(self):
        S = kernel_spd_covariance(6, seed=9)
        assert_pair_set(screen_edges(S), pair_list(all_pairs(6)))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_matches_pair_loop(self, n, seed):
        # Off-diagonals in {-1, 0, 1}: screening needs a valid covariance
        # (symmetric, positive diagonal), not a definite one.
        upper = np.triu(np.random.default_rng(seed).integers(-1, 2, size=(n, n)), k=1)
        S = (upper + upper.T + np.eye(n)).astype(float)
        assert_pair_set(screen_edges(S), screen_pairs_loop(S))


class TestKktReport:
    def test_converged_result_passes(self):
        result = learn_joint(S2, LearnConfig(q_min=0.01))
        report = kkt_report(result, S2, tol=1e-6)
        assert report.passed
        assert report.m_matrix_ok
        assert report.complementarity_violations == 0

    def test_perturbed_result_fails(self):
        result = learn_joint(S2, LearnConfig(q_min=0.01))
        w = edge_weight_map(result.graph)[(0, 1)]
        broken = build_graph(
            2, [(0, 1, w + 0.1)], q=result.graph.q, q_min=result.graph.q_min
        )
        report = kkt_report(broken, S2, tol=1e-6)
        assert not report.passed
        assert report.max_edge_residual > 1e-6

    def test_screened_out_pair_satisfies_one_sided_condition(self):
        # Negative-covariance pair: learned without screening, its weight is
        # zero and the inward derivative is nonnegative.
        S = np.array([[1.0, 0.5, -0.2], [0.5, 1.0, 0.3], [-0.2, 0.3, 1.0]])
        result = learn_joint(S, LearnConfig(q_min=1e-4))
        w = edge_weight_map(result.graph)
        assert w.get((0, 2), 0.0) <= 1e-8
        report = kkt_report(result, S, tol=1e-6)
        assert report.passed

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from([1e-6, 1e-2, 0.3, 10.0]),
        baseline=st.booleans(),
    )
    def test_matches_pair_loop_reference(self, n, seed, tol, baseline):
        # Random graphs (far from optimal, so every branch of the residual
        # and violation counting is hit): joint ones with some importances
        # floored, and baseline ones, some of them disconnected.
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, 2 * n))
        S = A @ A.T / (2 * n) + 0.5 * np.eye(n)
        S = (S + S.T) / 2.0
        q_min = 0.05
        q = np.where(rng.random(n) < 0.3, q_min, rng.uniform(q_min, 3.0, size=n))
        edges = [
            (i, j, float(rng.uniform(0.0, 2.0))) for i, j in pair_list(all_pairs(n)) if rng.random() < 0.5
        ]
        if baseline:
            q = q_min = None
        graph = build_graph(n, edges, q=q, q_min=q_min)
        pairs = [(i, j) for i, j, _ in graph.edges]
        if baseline and not is_connected_loop(n, pairs, graph.w):
            with pytest.raises(SingularModelError, match="connected"):
                kkt_report(graph, S, tol=tol)
            return
        report = kkt_report(graph, S, tol=tol)
        expected = kkt_residuals_loop(n, pairs, graph.w, graph.q, q_min, S, tol)
        assert (
            report.max_edge_residual,
            report.max_vertex_residual,
            report.complementarity_violations,
        ) == expected

    @pytest.mark.parametrize("joint", [True, False])
    def test_degenerate_covariance_raises_as_learning_does(self, joint):
        # Vertices 0 and 1 are perfectly correlated: their edge cost is 0.
        S = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
        q, q_min = (np.ones(3), 0.01) if joint else (None, None)
        graph = build_graph(3, [(0, 2, 0.5), (1, 2, 0.5)], q=q, q_min=q_min)
        with pytest.raises(GraphValidationError) as learning:
            (learn_joint if joint else learn_cgl_baseline)(S)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphValidationError) as checking:
                kkt_report(graph, S)
        assert str(checking.value) == str(learning.value)
        assert "pair (0, 1)" in str(checking.value)

    def test_agrees_with_independent_stationarity_check(self):
        # Same instance as the learner-side stationarity test.
        S = kernel_spd_covariance(5, seed=707)
        result = learn_joint(S)
        report = kkt_report(result, S, tol=1e-6)
        assert report.passed


class TestKktReportBaseline:
    def test_empty_two_node_graph_is_singular(self):
        # J/2 passes a Cholesky factorization; the graph is still disconnected.
        with pytest.raises(SingularModelError, match="connected"):
            kkt_report(build_graph(2, []), S2)

    def test_converged_learn_passes_and_heavier_edge_fails(self):
        S = kernel_spd_covariance(6, seed=21)
        result = learn_cgl_baseline(S)
        assert result.converged
        report = kkt_report(result, S, tol=1e-6)
        assert report.passed
        assert report.m_matrix_ok
        assert report.complementarity_violations == 0
        assert report.max_vertex_residual == 0.0

        edges = list(result.graph.edges)
        i, j, w = edges[0]
        edges[0] = (i, j, 1.1 * w)
        report = kkt_report(build_graph(6, edges), S, tol=1e-6)
        assert not report.passed
        assert report.max_edge_residual > 1e-6


class TestBoundReport:
    def test_counts_on_converged_run(self):
        S = kernel_spd_covariance(5, seed=15)
        result = learn_joint(S)
        report = bound_report(result, S, tol=1e-8)
        assert report.n_edges == len(result.graph.edges)
        assert report.n_violated == 0
        for rec in report.records:
            if rec.applicable:
                assert rec.w <= rec.bound + 1e-8

    def test_floored_endpoint_marked_inapplicable(self):
        g = build_graph(2, [(0, 1, 5.0)], q=[0.01, 1.0], q_min=0.01)
        report = bound_report(g, S2, tol=1e-8)
        assert report.records[0].applicable is False
        assert report.n_violated == 0


class TestTrim:
    def test_idempotent_without_violations(self):
        S = kernel_spd_covariance(5, seed=16)
        result = learn_joint(S)
        trimmed, count = trim_violations(result, S)
        assert count == 0
        assert trimmed.graph.edges == result.graph.edges

    @staticmethod
    def _with_violation(S, result):
        """``result`` with one bound-applicable edge (both endpoints above the
        floor) pushed far above its bound, and that edge's endpoints."""
        bad_edges = list(result.graph.edges)
        floor = result.graph.q_min + 1e-12
        target = next(
            k
            for k, (i, j, _) in enumerate(bad_edges)
            if result.graph.q[i] > floor and result.graph.q[j] > floor
        )
        i, j, _ = bad_edges[target]
        bound = edge_weight_bound(S, i, j)
        bad_edges[target] = (i, j, bound + 1.0)
        broken = build_graph(4, bad_edges, q=result.graph.q, q_min=result.graph.q_min)
        return dataclasses.replace(result, graph=broken), (i, j)

    def test_injected_violation_removed(self):
        S = kernel_spd_covariance(4, seed=17)
        broken_result, (i, j) = self._with_violation(S, learn_joint(S))
        trimmed, count = trim_violations(broken_result, S)
        assert count == 1
        assert (i, j) not in edge_weight_map(trimmed.graph)
        # Objective recomputed by direct evaluation on the trimmed graph.
        g = trimmed.graph
        expected = joint_objective_oracle(
            4, [(i, j) for i, j, _ in g.edges], g.w, g.q, S.entries
        )
        assert trimmed.objective == pytest.approx(expected)

    def test_trim_removes_what_the_report_flags_at_the_default_tolerance(self):
        for check in (bound_report, trim_violations):
            assert inspect.signature(check).parameters["tol"].default == BOUND_TOL
        S = kernel_spd_covariance(4, seed=17)
        broken, _ = self._with_violation(S, learn_joint(S))
        flagged = {(rec.i, rec.j) for rec in bound_report(broken, S).records if rec.violated}
        trimmed, count = trim_violations(broken, S)
        assert count == len(flagged) == 1
        assert set(edge_weight_map(broken.graph)) - set(edge_weight_map(trimmed.graph)) == flagged

    def test_trimmed_result_carries_no_certificate(self):
        # The run's residual and gap belong to the untrimmed graph.
        S = kernel_spd_covariance(4, seed=17)
        result = learn_joint(S)
        assert result.kkt_residual <= KKT_EXIT and result.duality_gap >= 0.0
        trimmed, count = trim_violations(self._with_violation(S, result)[0], S)
        assert count == 1
        assert math.isnan(trimmed.kkt_residual) and math.isnan(trimmed.duality_gap)
        assert (trimmed.epochs_run, trimmed.history) == (result.epochs_run, result.history)
        # Nor does it claim the run's certified stop.
        assert (result.stop, result.converged) == ("certified", True)
        assert (trimmed.stop, trimmed.converged) == ("trimmed", False)
        assert trimmed.converged == (trimmed.stop in ("certified", "stop_tol"))


class TestCovarianceSize:
    # A larger S was once read off its top-left block, and a smaller one
    # raised a bare IndexError.
    joint = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5)], q=np.ones(3), q_min=0.01)

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("check", [kkt_report, bound_report, trim_violations])
    def test_other_size_rejected(self, check, size):
        S = kernel_spd_covariance(size, seed=3)
        with pytest.raises(GraphValidationError, match=f"graph has 3 vertices but covariance is {size} x {size}"):
            check(self.joint, S)

    @pytest.mark.parametrize("size", [2, 4])
    def test_other_size_rejected_for_results_and_baseline_graphs(self, size):
        S = kernel_spd_covariance(size, seed=3)
        result = learn_joint(kernel_spd_covariance(3, seed=4))
        for check in (kkt_report, bound_report, trim_violations):
            with pytest.raises(GraphValidationError, match="graph has 3 vertices"):
                check(result, S)
        baseline = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        with pytest.raises(GraphValidationError, match="graph has 3 vertices"):
            kkt_report(baseline, S)


class TestTolerance:
    joint = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5)], q=np.ones(3), q_min=0.01)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, "1e-6", True, None])
    @pytest.mark.parametrize("check, name", [(kkt_report, "tol"), (bound_report, "bound tolerance"),
                                             (trim_violations, "bound tolerance")])
    def test_tolerance_must_be_finite(self, check, name, tol):
        # A NaN tolerance once failed every KKT check and flagged no bound.
        S = kernel_spd_covariance(3, seed=3)
        with pytest.raises(GraphValidationError, match=f"^{name} must be finite, got {tol!r}$"):
            check(self.joint, S, tol=tol)

    @pytest.mark.parametrize("check", [kkt_report, bound_report, trim_violations])
    def test_any_finite_tolerance_passes(self, check):
        # A negative bound tolerance stays legal: it also flags edges just under their bound.
        S = kernel_spd_covariance(3, seed=3)
        for tol in (-1e-2, 0, np.float32(1e-3), 1e300):
            check(self.joint, S, tol=tol)


class TestOptimalSupportProperties:
    def test_nonpositive_pairs_carry_no_weight(self):
        for seed in (31, 32):
            S = mixed_sign_spd_covariance(5, seed=seed)
            negative_pairs = [
                (i, j)
                for i in range(5)
                for j in range(i + 1, 5)
                if S.entries[i, j] <= 0
            ]
            assert negative_pairs
            for screen in (False, True):
                result = learn_joint(S, LearnConfig(screen=screen))
                w = edge_weight_map(result.graph)
                for pair in negative_pairs:
                    assert w.get(pair, 0.0) <= 1e-8

    def test_screening_excludes_exactly_nonpositive_pairs(self):
        S = mixed_sign_spd_covariance(6, seed=33)
        kept = set(pair_list(screen_edges(S)))
        for i in range(6):
            for j in range(i + 1, 6):
                if S.entries[i, j] > 0:
                    assert (i, j) in kept
                else:
                    assert (i, j) not in kept

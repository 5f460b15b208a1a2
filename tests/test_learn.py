"""Learning-loop tests: closed-form optima, determinism, descent, stopping,
initialization modes, and oracle equivalence.

Oracles: the closed-form two-node optimum (the unconstrained stationary
point S^{-1} is feasible there), a planted-graph self-consistency check for
the baseline, and an independent projected-gradient minimizer.
"""
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covgraph import (
    CovarianceMatrix,
    GraphValidationError,
    LearnConfig,
    all_pairs,
    init_state,
    kkt_report,
    laplacian,
    learn_cgl_baseline,
    learn_joint,
)
import covgraph.bench
import covgraph.learn
from covgraph.bench import (
    EDGE_PRESENCE_TOL,
    VariogramSpec,
    run_experiment,
    sample_locations,
    variogram_covariance,
)
from covgraph.graphs import laplacian_from_pairs
from covgraph.learn import KKT_EXIT, WARM_EPOCHS, epoch, learn
from covgraph.solver import _CG_MAX_ITER, clamp_step, evaluate_objective, newton_step, refresh_phi, sweep_edges
from _support import batched_path, edge_weight_map, kernel_spd_covariance, mixed_sign_spd_covariance
from oracles import (
    kernel_weights_loop,
    minimize_baseline_objective,
    minimize_joint_objective,
    sweep_edges_loop,
)

S2 = np.array([[1.0, 0.5], [0.5, 1.0]])
F2_STAR = np.log(0.75) + 2.0  # logdet(S) + n at theta = S^{-1}


class TestJointClosedForm:
    def test_two_node_optimum(self):
        result = learn_joint(S2, LearnConfig(q_min=0.01))
        assert result.converged
        w = edge_weight_map(result.graph)
        assert w[(0, 1)] == pytest.approx(2.0 / 3.0, abs=1e-6)
        np.testing.assert_allclose(result.graph.q, 2.0 / 3.0, atol=1e-6)
        assert result.objective == pytest.approx(F2_STAR, abs=1e-6)

    def test_identity_covariance_gives_edgeless_graph(self):
        result = learn_joint(np.eye(5), LearnConfig(q_min=0.01))
        assert result.converged
        assert result.graph.edges == ()
        np.testing.assert_allclose(result.graph.q, 1.0, atol=1e-6)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(GraphValidationError, match="symmetric"):
            learn_joint(np.array([[1.0, 0.3], [0.2, 1.0]]))

    def test_rejects_mismatched_method(self):
        with pytest.raises(GraphValidationError, match="method"):
            learn_joint(S2, LearnConfig(method="baseline"))


class TestLearnEntryPoint:
    @pytest.mark.parametrize(
        "method, wrapper", [("joint", learn_joint), ("baseline", learn_cgl_baseline)]
    )
    def test_same_result_as_fixed_method_wrapper(self, method, wrapper):
        S = kernel_spd_covariance(6, seed=808)
        config = LearnConfig(method=method)
        a, b = learn(S, config), wrapper(S, config)
        assert a.graph.edges == b.graph.edges
        assert (a.graph.q is None) == (method == "baseline") == (b.graph.q is None)
        if a.graph.q is not None:
            assert a.graph.q.tobytes() == b.graph.q.tobytes()
        assert a.objective == b.objective
        assert a.epochs_run == b.epochs_run

    def test_default_config_is_joint(self):
        assert learn(S2).graph.edges == learn_joint(S2).graph.edges


class TestBaseline:
    def test_recovers_planted_graph(self):
        # Plant a 3-node graph, hand its exact model covariance (Laplacian
        # pseudo-inverse) to the learner, and expect the weights back.
        pairs = [(0, 1), (1, 2)]
        w_true = np.array([1.0, 2.0])
        L = laplacian_from_pairs(3, [0, 1], [1, 2], w_true)
        P = np.linalg.pinv(L)
        S = (P + P.T) / 2.0
        result = learn_cgl_baseline(S)
        assert result.converged
        learned = edge_weight_map(result.graph)
        assert learned.get((0, 1), 0.0) == pytest.approx(1.0, abs=1e-3)
        assert learned.get((1, 2), 0.0) == pytest.approx(2.0, abs=1e-3)
        assert learned.get((0, 2), 0.0) == pytest.approx(0.0, abs=1e-3)
        assert result.graph.q is None

    def test_weights_respect_cost_bound(self):
        for seed in range(4):
            S = kernel_spd_covariance(5, seed=200 + seed)
            result = learn_cgl_baseline(S)
            for i, j, w in result.graph.edges:
                h = S.entries[i, i] + S.entries[j, j] - 2.0 * S.entries[i, j]
                assert w <= 1.0 / h + 1e-8

    def test_oracle_equivalence_small(self):
        S = kernel_spd_covariance(4, seed=77)
        result = learn_cgl_baseline(S)
        _, f_oracle = minimize_baseline_objective(S.entries)
        assert abs(result.objective - f_oracle) / abs(f_oracle) <= 1e-6

    def test_disconnected_init_rejected(self):
        config = LearnConfig(method="baseline", init="given", init_weights={(0, 1): 1.0})
        from covgraph import SingularModelError

        with pytest.raises(SingularModelError):
            learn_cgl_baseline(kernel_spd_covariance(4, seed=1), config)


class TestJointOracle:
    def test_oracle_equivalence_small(self):
        for seed, n in [(300, 3), (301, 4), (302, 5)]:
            S = kernel_spd_covariance(n, seed=seed)
            result = learn_joint(S)
            _, _, f_oracle = minimize_joint_objective(S.entries, q_min=1e-4)
            assert abs(result.objective - f_oracle) / abs(f_oracle) <= 1e-6


def learn_verified(S, q_min):
    """``learn_joint`` run close to the optimum (an epoch change below
    1e-13), its result checked by ``kkt_report``."""
    result = learn_joint(S, LearnConfig(q_min=q_min, stop_tol=1e-13, max_epochs=20000))
    assert result.converged
    assert kkt_report(result, S).passed
    return result


def assert_same_model(L, q, L_ref, q_ref):
    # The optimum is unique, because -logdet is strictly convex in Theta and
    # Theta is linear and injective in (w, q); two learns reach it within
    # 7.6e-7 of the largest entry (2,000 random draws, n <= 8), from
    # starting points the transformation does not map onto each other.
    scale = max(np.max(np.abs(L_ref)), np.max(q_ref))
    np.testing.assert_allclose(L, L_ref, rtol=0, atol=1e-5 * scale)
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-5 * scale)


@st.composite
def small_problems(draw):
    """A covariance of n <= 8 variables with a floor from far below the
    optimal importances to near them."""
    n = draw(st.integers(1, 8))
    S = kernel_spd_covariance(n, seed=draw(st.integers(0, 2**32 - 1)))
    return S, draw(st.sampled_from([1e-4, 0.02, 0.1]))


class TestOptimumProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_problems(), st.sampled_from([0.5, 2.0, 4.0, 10.0]))
    def test_scale_covariance(self, problem, c):
        # Theta* (c S, q_min / c) = Theta* (S, q_min) / c: w -> w / c, q -> q / c,
        # and the objective moves by n log c.
        S, q_min = problem
        base = learn_verified(S, q_min)
        scaled = learn_verified(CovarianceMatrix(entries=c * S.entries), q_min / c)
        assert_same_model(c * laplacian(scaled.graph), c * scaled.graph.q,
                          laplacian(base.graph), base.graph.q)
        assert scaled.objective == pytest.approx(base.objective + S.n * np.log(c), rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(small_problems(), st.data())
    def test_vertex_permutation_equivariance(self, problem, data):
        S, q_min = problem
        perm = np.array(data.draw(st.permutations(range(S.n))), dtype=int)
        base = learn_verified(S, q_min)
        permuted = learn_verified(CovarianceMatrix(entries=S.entries[np.ix_(perm, perm)]), q_min)
        L = laplacian(base.graph)
        assert_same_model(laplacian(permuted.graph), permuted.graph.q,
                          L[np.ix_(perm, perm)], base.graph.q[perm])
        assert permuted.objective == pytest.approx(base.objective, rel=1e-9, abs=1e-9)


class TestEpoch:
    def test_zero_change_at_optimum(self):
        state = init_state(S2, *all_pairs(2), [2.0 / 3.0], q0=np.array([2 / 3, 2 / 3]), q_min=1e-4)
        assert abs(epoch(state)) <= 1e-12

    def test_first_epoch_descends(self):
        state = init_state(S2, *all_pairs(2), [0.0], q0=1.0, q_min=1e-4)
        assert epoch(state) < 0

    def test_epoch_count_deterministic(self):
        results = [learn_joint(S2, LearnConfig(q_min=0.01)) for _ in range(2)]
        assert results[0].epochs_run == results[1].epochs_run


class TestRunBehavior:
    def test_bit_identical_reruns(self):
        S = kernel_spd_covariance(5, seed=404)
        a = learn_joint(S)
        b = learn_joint(S)
        assert a.graph.edges == b.graph.edges
        np.testing.assert_array_equal(a.graph.q, b.graph.q)
        assert a.objective == b.objective
        assert a.history == b.history

    def test_history_nonincreasing(self):
        for method, learner in (("joint", learn_joint), ("baseline", learn_cgl_baseline)):
            S = kernel_spd_covariance(6, seed=505)
            result = learner(S, LearnConfig(method=method))
            history = np.array(result.history)
            assert np.all(np.diff(history) <= 1e-10)

    def test_max_epochs_reports_not_converged(self):
        S = kernel_spd_covariance(6, seed=606)
        result = learn_joint(S, LearnConfig(max_epochs=2))
        assert not result.converged and result.stop == "max_epochs"
        assert result.epochs_run == 2

    def test_stationarity_at_convergence(self):
        # Interior coordinates must have matching cost and quadratic form;
        # bound coordinates must not want to move inward.
        S = kernel_spd_covariance(5, seed=707)
        result = learn_joint(S)
        graph = result.graph
        theta = laplacian_from_pairs(5, graph.idx_i, graph.idx_j, graph.w)
        theta[np.diag_indices(5)] += result.graph.q
        phi = np.linalg.inv(theta)
        w = edge_weight_map(result.graph)
        Se = S.entries
        for i in range(5):
            for j in range(i + 1, 5):
                h = Se[i, i] + Se[j, j] - 2 * Se[i, j]
                r = phi[i, i] + phi[j, j] - 2 * phi[i, j]
                gap = 1 / h - 1 / r
                if w.get((i, j), 0.0) > 0:
                    assert abs(gap) <= 1e-6
                else:
                    assert gap <= 1e-6
        for i in range(5):
            gap = 1 / Se[i, i] - 1 / phi[i, i]
            if result.graph.q[i] > result.graph.q_min + 1e-12:
                assert abs(gap) <= 1e-6
            else:
                assert gap <= 1e-6


@pytest.mark.parametrize("method", ["joint", "baseline"])
def test_learn_with_per_edge_sweep_is_bit_identical(monkeypatch, method):
    # The zero-run scan of sweep_edges must not change a single bit of a
    # learned graph: rerun with the per-edge loop swapped in and compare.
    sample = sample_locations(30, seed=0)
    S = variogram_covariance(sample, VariogramSpec(range_=1.0))
    config = LearnConfig(method=method, init="kernel", points=sample.points)
    scanned = learn(S, config)
    monkeypatch.setattr(covgraph.learn, "sweep_edges", sweep_edges_loop)
    looped = learn(S, config)
    assert scanned.graph.edges == looped.graph.edges
    q = [b"" if r.graph.q is None else r.graph.q.tobytes() for r in (scanned, looped)]
    assert q[0] == q[1]
    assert scanned.history == looped.history
    assert scanned.epochs_run == looped.epochs_run


class TestRunRecord:
    @pytest.mark.parametrize("method", ["joint", "baseline"])
    def test_drift_and_clips_are_those_of_the_run(self, monkeypatch, method):
        drifts, states = [], []

        def recording_refresh(state):
            drifts.append(refresh_phi(state))
            return drifts[-1]

        def recording_init(*args, **kwargs):
            # Learned runs rarely clip; a counter started at 3 shows that
            # the result reports the state's count.
            states.append(init_state(*args, **kwargs))
            states[-1].singularity_clips = 3
            return states[-1]

        monkeypatch.setattr(covgraph.learn, "refresh_phi", recording_refresh)
        monkeypatch.setattr(covgraph.learn, "init_state", recording_init)
        sample = sample_locations(20, seed=0)
        S = variogram_covariance(sample, VariogramSpec(range_=0.2))
        config = LearnConfig(method=method, protocol="paper", init="kernel", points=sample.points)
        result = learn(S, config)
        assert len(drifts) == result.epochs_run // covgraph.learn.REFRESH_EVERY + 1 >= 2
        assert result.max_refresh_drift == max(drifts) > 0.0
        assert result.singularity_clips == states[0].singularity_clips >= 3

    @pytest.mark.parametrize("method", ["joint", "baseline"])
    @pytest.mark.parametrize("max_epochs", [3, 1000])
    def test_history_ends_as_documented(self, method, max_epochs):
        sample = sample_locations(20, seed=2)
        S = variogram_covariance(sample, VariogramSpec(range_=0.2))
        config = LearnConfig(method=method, init="kernel", points=sample.points, max_epochs=max_epochs)
        # "optimum" ends on the objective of its exit refresh; "paper" records
        # each epoch and ends before its closing refresh.
        optimum = learn(S, config)
        assert optimum.history[-1] == optimum.objective
        paper = learn(S, replace(config, protocol="paper"))
        assert len(paper.history) == paper.epochs_run + 1

    def test_batched_learn_records_small_drift(self):
        sample = sample_locations(20, seed=8)
        S = variogram_covariance(sample, VariogramSpec(range_=0.2))
        # Under "paper" the exit refresh meets phi maintained by rank-one
        # updates; an "optimum" exit can follow a full Newton step, whose
        # freshly inverted phi has no drift at all.
        config = LearnConfig(protocol="paper", init="kernel", points=sample.points)
        with batched_path():
            result = learn_joint(S, config)
        assert 0.0 < result.max_refresh_drift <= 1e-9


class TestInitModes:
    def test_uniform_default_is_one_over_n(self):
        S = kernel_spd_covariance(4, seed=3)
        state = init_state(S, *all_pairs(4), np.full(6, 0.25), q0=1.0, q_min=1e-4)
        result = learn_joint(S)  # default uniform init = 1/n = 0.25
        direct = learn_joint(S, LearnConfig(init="uniform", init_value=0.25))
        assert result.objective == direct.objective
        assert state.w[0] == 0.25

    def test_kernel_init_requires_points(self):
        with pytest.raises(GraphValidationError, match="coordinates"):
            learn_joint(S2, LearnConfig(init="kernel"))

    def test_kernel_init_runs(self):
        rng = np.random.default_rng(12)
        points = rng.random((4, 2))
        S = kernel_spd_covariance(4, seed=12)
        result = learn_joint(S, LearnConfig(init="kernel", points=points))
        assert result.converged

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), keep=st.floats(0.0, 1.0))
    def test_kernel_weights_match_the_pair_loop_byte_for_byte(self, n, seed, keep):
        # Random locations, some of them repeated, and a random subset of pairs.
        rng = np.random.default_rng(seed)
        points = rng.random((n, 2))
        points[rng.random(n) < 0.2] = points[0]
        idx_i, idx_j = all_pairs(n)
        chosen = rng.random(len(idx_i)) < keep
        idx_i, idx_j = idx_i[chosen], idx_j[chosen]
        assume(np.any(covgraph.graphs.pairwise_distances(points) > 0))
        expected = kernel_weights_loop(points, zip(idx_i, idx_j))
        assert covgraph.learn.kernel_weights(points, idx_i, idx_j).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("method", ["joint", "baseline"])
    def test_single_vertex_kernel_learn_warns_nothing(self, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = covgraph.learn.kernel_weights(np.zeros((1, 2)), *all_pairs(1))
            config = LearnConfig(method=method, init="kernel", points=np.zeros((1, 2)))
            result = learn(np.array([[2.0]]), config)
        assert weights.shape == (0,) and weights.dtype == float
        assert result.graph.edges == () and result.converged

    def test_given_init(self):
        S = kernel_spd_covariance(3, seed=8)
        config = LearnConfig(init="given", init_weights={(0, 1): 0.5, (1, 2): 0.1})
        result = learn_joint(S, config)
        assert result.converged

    def test_given_init_rejects_inactive_pair(self):
        config = LearnConfig(init="given", init_weights={(0, 7): 0.5})
        with pytest.raises(GraphValidationError, match="inactive"):
            learn_joint(kernel_spd_covariance(3, seed=8), config)

    def test_given_init_rejects_non_integer_key(self):
        # The (0.5, 1) weight was once dropped silently, giving w = [0, 0, 0.2].
        config = LearnConfig(init="given", init_weights={(0.5, 1): 0.3, (1, 2): 0.2})
        with pytest.raises(GraphValidationError, match="non-integer"):
            covgraph.learn._initial_weights(3, *all_pairs(3), config)

    @pytest.mark.parametrize("key", [(0, 1, 2), "ab"])
    def test_given_init_rejects_a_key_that_is_not_a_pair(self, key):
        # Both once raised a bare ValueError from the endpoint array.
        config = LearnConfig(init="given", init_weights={(1, 2): 0.2, key: 0.5})
        with pytest.raises(GraphValidationError, match=re.escape(f"init weight key {key!r} is not an (i, j) pair")):
            covgraph.learn._initial_weights(3, *all_pairs(3), config)

    def test_given_init_reads_keys_in_either_order(self):
        config = LearnConfig(init="given", init_weights={(1, 0): 0.3, (2, 1): 0.2})
        w0 = covgraph.learn._initial_weights(3, *all_pairs(3), config)
        assert w0.tolist() == [0.3, 0.0, 0.2]

    def test_given_init_rejects_a_pair_given_twice(self):
        config = LearnConfig(init="given", init_weights={(0, 1): 0.3, (1, 0): 0.2})
        with pytest.raises(GraphValidationError, match=r"duplicate edge \(0, 1\)"):
            covgraph.learn._initial_weights(3, *all_pairs(3), config)

    def test_given_init_rejects_a_screened_out_pair(self):
        S = np.array([[2.0, 0.5, -0.1], [0.5, 2.0, 0.3], [-0.1, 0.3, 2.0]])
        idx_i, idx_j = covgraph.verify.screen_edges(S)
        config = LearnConfig(init="given", init_weights={(2, 0): 0.3})
        with pytest.raises(GraphValidationError, match=r"inactive pair \(0, 2\)"):
            covgraph.learn._initial_weights(3, idx_i, idx_j, config)
        config = LearnConfig(init="given", init_weights={(2, 1): 0.3})
        assert covgraph.learn._initial_weights(3, idx_i, idx_j, config).tolist() == [0.0, 0.3]

    def test_screening_matches_unscreened_on_positive_covariance(self):
        # All off-diagonals positive: screening removes nothing.
        S = kernel_spd_covariance(4, seed=44)
        plain = learn_joint(S)
        screened = learn_joint(S, LearnConfig(screen=True))
        assert plain.graph.edges == screened.graph.edges


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(GraphValidationError):
            LearnConfig(method="magic")

    def test_bad_tolerance(self):
        with pytest.raises(GraphValidationError):
            LearnConfig(stop_tol=0.0)

    def test_bad_epochs(self):
        with pytest.raises(GraphValidationError):
            LearnConfig(max_epochs=0)

    @pytest.mark.parametrize("init", ["kernel", "given"])
    def test_init_value_needs_a_uniform_start(self, init):
        with pytest.raises(GraphValidationError, match=f"init_value applies to init='uniform' only, not '{init}'"):
            LearnConfig(init=init, init_value=0.3)

    @pytest.mark.parametrize("init", ["uniform", "kernel"])
    def test_init_weights_need_a_given_start(self, init):
        with pytest.raises(GraphValidationError, match=f"init_weights applies to init='given' only, not '{init}'"):
            LearnConfig(init=init, init_weights={(0, 1): 0.5})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"q_min": "1e-4"}, "q_min must be positive and finite, got '1e-4'"),
            ({"q_min": np.inf}, "q_min must be positive and finite"),
            ({"q_min": True}, "q_min must be positive and finite"),
            ({"stop_tol": np.inf}, "stop_tol must be positive and finite"),
            ({"stop_tol": np.nan}, "stop_tol must be positive and finite"),
            ({"init_value": -1.0}, "init_value must be nonnegative and finite"),
            ({"init_value": np.nan}, "init_value must be nonnegative and finite"),
            ({"init": "kernel"}, "vertex coordinates as an (n, d) array, got None"),
            ({"init": "kernel", "points": np.zeros(6)}, "vertex coordinates as an (n, d) array, got shape (6,)"),
            ({"init": "given"}, "init='given' requires init_weights"),
            # Beyond the float range: once a bare OverflowError. 10**5000 has
            # more digits than Python turns into text by default.
            ({"q_min": 10**400}, "q_min must be positive and finite, got an int beyond the float range"),
            ({"q_min": 10**5000}, "q_min must be positive and finite, got an int beyond the float range"),
        ],
    )
    def test_bad_value_rejected_at_construction(self, kwargs, message):
        # Each was once accepted, or failed late with a bare TypeError or
        # IndexError inside learn.
        with pytest.raises(GraphValidationError, match=re.escape(message)):
            LearnConfig(**kwargs)

    def test_screening_rejected_for_baseline(self):
        # Screening drops the pairs with S_ij <= 0, where baseline optima
        # can carry weight.
        with pytest.raises(GraphValidationError, match="joint method only"):
            LearnConfig(method="baseline", screen=True)
        with pytest.raises(GraphValidationError, match="joint method only"):
            run_experiment([0.1], n=6, trials=1, config=LearnConfig(screen=True))


def desk_problem(trial, r, n=50):
    """Locations and covariance of one trial of the spatial benchmark."""
    sample = sample_locations(n, seed=trial)
    return sample, variogram_covariance(sample, VariogramSpec(range_=r))


def kernel_config(sample, **kwargs):
    return LearnConfig(init="kernel", points=sample.points, **kwargs)


class TestPaperProtocol:
    @pytest.mark.parametrize(
        "method, objective, epochs",
        [("joint", "68.72442549137193", 74), ("baseline", "62.05286702381923", 56)],
    )
    def test_criterion_8_trials_unchanged(self, method, objective, epochs):
        # Trial 0 at r = 1 of the criterion-8 table; the values are those of
        # the learning loop before the "optimum" protocol was added.
        sample, S = desk_problem(0, 1.0)
        config = kernel_config(sample, method=method, protocol="paper", stop_tol=1e-10, max_epochs=1000)
        result = learn(S, config)
        assert repr(float(result.objective)) == objective
        assert result.epochs_run == epochs
        assert len(result.history) == epochs + 1
        assert result.converged and result.protocol == "paper" and result.stop == "stop_tol"
        assert (result.newton_rounds, result.cg_iterations, result.failed_line_searches) == (0, 0, 0)

    def test_run_experiment_forces_paper(self, monkeypatch):
        protocols = []

        def recording_learn(S, config):
            protocols.append(config.protocol)
            return learn(S, config)

        monkeypatch.setattr(covgraph.bench, "learn", recording_learn)
        run_experiment([0.5], n=6, trials=1, config=LearnConfig(protocol="optimum"))
        assert protocols == ["paper", "paper"]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(GraphValidationError, match="unknown protocol 'fast'"):
            LearnConfig(protocol="fast")


PAPER_RANGES = (0.01, 0.02, 0.1, 0.2, 1.0)
DESK_SPECS = [(trial, r) for trial in range(7) for r in PAPER_RANGES]


class TestCertifiedOptimum:
    def test_joint_desk_specs_pass_kkt(self):
        for trial, r in DESK_SPECS:
            sample, S = desk_problem(trial, r)
            result = learn_joint(S, kernel_config(sample))
            report = kkt_report(result, S)
            assert result.converged and result.kkt_residual <= KKT_EXIT, (trial, r)
            # Every Newton step's line search accepts a point: its Armijo
            # reference is the objective evaluated at the current weights.
            assert result.newton_rounds > 0 and result.failed_line_searches == 0, (trial, r)
            assert report.passed, (trial, r, report)
            reported = max(report.max_edge_residual, report.max_vertex_residual)
            assert result.kkt_residual == pytest.approx(reported, rel=0, abs=1e-12)

    @pytest.mark.parametrize("max_epochs", [1000, 3])
    def test_sweeps_only_in_the_warm_phase(self, monkeypatch, max_epochs):
        events = []

        def recording_newton(state):
            step, iterations = newton_step(state)
            events.append(step)
            return step, iterations

        def recording_sweep(state):
            events.append("sweep")
            return sweep_edges(state)

        monkeypatch.setattr(covgraph.learn, "newton_step", recording_newton)
        monkeypatch.setattr(covgraph.learn, "sweep_edges", recording_sweep)
        sample, S = desk_problem(0, 1.0)
        result = learn_joint(S, kernel_config(sample, max_epochs=max_epochs))
        warm = min(WARM_EPOCHS, max_epochs)
        assert result.epochs_run == warm
        assert events[:warm] == ["sweep"] * warm
        steps = events[warm:]
        assert "sweep" not in steps and len(steps) == result.newton_rounds
        assert len(result.history) == warm + result.newton_rounds + 1
        if max_epochs == 1000:
            # Shortened steps are followed by the next step, not by a sweep.
            assert result.converged
            assert any(step == 1.0 for step in steps) and any(step < 1.0 for step in steps)

    @pytest.mark.parametrize("method, r", [("baseline", 0.1), ("joint", 0.02)])
    def test_n200_trial_2_certifies(self, method, r):
        # With a coordinate epoch after every shortened Newton step both
        # stalled at a residual of about 6e-6.
        sample, S = desk_problem(2, r, n=200)
        result = learn(S, kernel_config(sample, method=method))
        assert result.stop == "certified" and result.kkt_residual <= KKT_EXIT
        assert kkt_report(result, S).passed

    @pytest.mark.parametrize("trial, r", [(4, 0.1), (6, 0.2), (6, 1.0)])
    def test_criterion_8_baselines_pass_kkt(self, trial, r):
        # The paper protocol stops these three at max_epochs short of the gate.
        sample, S = desk_problem(trial, r)
        result = learn_cgl_baseline(S, kernel_config(sample, method="baseline"))
        assert result.converged and result.kkt_residual <= KKT_EXIT
        assert kkt_report(result, S).passed

    @pytest.mark.parametrize("init", ["uniform", "kernel"])
    def test_no_newton_solve_reaches_the_cg_cap(self, monkeypatch, init):
        # Criterion-8 baseline trial 6 at r = 0.2, where the Jacobi
        # preconditioner took up to _CG_MAX_ITER iterations a round.
        iterations = []

        def recording_newton(state):
            step, count = newton_step(state)
            iterations.append(count)
            return step, count

        monkeypatch.setattr(covgraph.learn, "newton_step", recording_newton)
        sample, S = desk_problem(6, 0.2)
        config = kernel_config(sample, method="baseline") if init == "kernel" else LearnConfig(method="baseline")
        result = learn(S, config)
        assert result.stop == "certified" and kkt_report(result, S).passed
        assert iterations and max(iterations) < _CG_MAX_ITER

    def test_rounding_level_lows_do_not_extend_a_run(self):
        # At sill 1e-4 the residual falls below KKT_EXIT and then wanders
        # between 1.5e-9 and 7.5e-9 at its rounding floor. Counting every
        # new low as progress kept this run going for 18 rounds.
        sample = sample_locations(50, seed=0)
        S = variogram_covariance(sample, VariogramSpec(sill=1e-4, range_=1.0))
        result = learn_joint(S, kernel_config(sample))
        assert result.converged and result.kkt_residual <= KKT_EXIT
        assert result.newton_rounds <= 12

    @pytest.mark.parametrize("trial", range(10))
    def test_uniform_and_kernel_starts_keep_the_same_support(self, trial):
        # The optimum is unique, so its support does not depend on the start:
        # criterion 8's problems (trials 0-9, five ranges, both methods),
        # each certified from the uniform and from the kernel start.
        for method in ("joint", "baseline"):
            for r in PAPER_RANGES:
                sample, S = desk_problem(trial, r)
                supports = []
                for config in (LearnConfig(method=method), kernel_config(sample, method=method)):
                    result = learn(S, config)
                    assert result.stop == "certified" and result.converged, (method, r, config.init)
                    assert kkt_report(result, S).passed, (method, r, config.init)
                    supports.append({(i, j) for i, j, w in result.graph.edges if w > EDGE_PRESENCE_TOL})
                assert supports[0] == supports[1], (method, r)

    def test_blas_thread_count_keeps_the_certified_support(self):
        # BLAS rounds differently with more threads, so the learned bytes
        # differ; the certified optimum, and so its support, does not.
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        runs = []
        for threads in ("1", "2"):
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", JOINT_LARGE_LEARN], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            runs.append(json.loads(done.stdout))
        for run in runs:
            assert run["stop"] == "certified" and run["kkt_passed"], run
        assert runs[0]["support"] == runs[1]["support"]
        gap = max(run["duality_gap"] for run in runs)
        assert abs(runs[0]["objective"] - runs[1]["objective"]) <= gap


# The joint-large problem (n = 200, trial 0, r = 1, kernel start), learned
# and verified in a fresh process; prints the outcome as JSON.
JOINT_LARGE_LEARN = """
import json
from covgraph import LearnConfig, kkt_report, learn_joint
from covgraph.bench import EDGE_PRESENCE_TOL, VariogramSpec, sample_locations, variogram_covariance
sample = sample_locations(200, 0)
S = variogram_covariance(sample, VariogramSpec(range_=1.0))
result = learn_joint(S, LearnConfig(init="kernel", points=sample.points))
print(json.dumps({
    "stop": result.stop, "kkt_passed": kkt_report(result, S).passed, "objective": result.objective,
    "duality_gap": result.duality_gap,
    "support": [[i, j] for i, j, w in result.graph.edges if w > EDGE_PRESENCE_TOL],
}))
"""


def recorded_clamps(monkeypatch):
    """Install a recorder of the learning loop's clamp steps: each call
    appends the state's objective before the step and the step's result."""
    calls = []

    def recording_clamp(state):
        before = state.objective
        calls.append((before, clamp_step(state)))
        return calls[-1][1]

    monkeypatch.setattr(covgraph.learn, "clamp_step", recording_clamp)
    return calls


class TestOpeningClamp:
    @pytest.mark.parametrize("method", ["joint", "baseline"])
    def test_paper_never_clamps(self, monkeypatch, method):
        calls = recorded_clamps(monkeypatch)
        sample, S = desk_problem(0, 1.0, n=20)
        learn(S, kernel_config(sample, method=method, protocol="paper"))
        assert calls == []

    @pytest.mark.parametrize("method", ["joint", "baseline"])
    def test_optimum_clamps_once_per_learn(self, monkeypatch, method):
        calls = recorded_clamps(monkeypatch)
        sample, S = desk_problem(0, 1.0, n=20)
        result = learn(S, kernel_config(sample, method=method))
        assert len(calls) == 1
        # history[0] is the objective at the start weights, before the clamp.
        assert result.history[0] == calls[0][0]
        assert len(result.history) == WARM_EPOCHS + result.newton_rounds + 1

    def test_kernel_start_clamp_is_accepted_and_not_a_capped_step(self, monkeypatch):
        calls = recorded_clamps(monkeypatch)
        sample, S = desk_problem(0, 1.0)
        pairs = all_pairs(50)
        start = init_state(S, *pairs, covgraph.learn.kernel_weights(sample.points, *pairs), q0=1.0, q_min=1e-4)
        result = learn(S, kernel_config(sample, max_epochs=1))
        assert calls[0][0] == start.objective and calls[0][1] > 0
        # max_epochs = 1 allows one warm epoch after the clamp.
        assert result.epochs_run == 1 and len(result.history) == 2
        assert result.history[0] == evaluate_objective(start)


def certificate_cases():
    """Results of both methods under both protocols, some stopped early."""
    for trial, r in [(0, 0.1), (1, 1.0), (2, 0.2)]:
        sample, S = desk_problem(trial, r, n=20)
        for method in ("joint", "baseline"):
            optimum = learn(S, kernel_config(sample, method=method))
            for max_epochs in (3, 1000):
                config = kernel_config(sample, method=method, protocol="paper", max_epochs=max_epochs)
                yield S, optimum, learn(S, config)


class TestCertificates:
    def test_gap_is_nonnegative(self):
        for _, optimum, paper in certificate_cases():
            for result in (optimum, paper):
                assert result.duality_gap >= 0.0
                assert result.kkt_residual >= 0.0

    @pytest.mark.parametrize("protocol", ["optimum", "paper"])
    @pytest.mark.parametrize("method", ["joint", "baseline"])
    @pytest.mark.parametrize("n", [50, 112])
    def test_kkt_residual_is_that_of_kkt_report(self, n, method, protocol):
        # Unscreened, the learner's pairs are all pairs, which kkt_report
        # checks on its own inverse: one number. n = 112 takes the batched
        # path; max_epochs keeps the learns short, converged or not.
        sample, S = desk_problem(0, 1.0, n=n)
        result = learn(S, kernel_config(sample, method=method, protocol=protocol, max_epochs=8))
        report = kkt_report(result, S)
        assert result.kkt_residual == max(report.max_edge_residual, report.max_vertex_residual)

    @pytest.mark.parametrize("protocol", ["optimum", "paper"])
    @pytest.mark.parametrize("n", [50, 112])
    def test_screened_kkt_residual_is_at_most_that_of_kkt_report(self, n, protocol):
        # Screening drops the pairs with S_ij <= 0, which kkt_report still checks.
        S = mixed_sign_spd_covariance(n, seed=n)
        result = learn(S, LearnConfig(screen=True, protocol=protocol, max_epochs=8))
        report = kkt_report(result, S)
        assert result.kkt_residual <= max(report.max_edge_residual, report.max_vertex_residual)

    def test_paper_gap_bounds_its_distance_to_the_optimum(self):
        for _, optimum, paper in certificate_cases():
            assert paper.duality_gap >= paper.objective - optimum.objective

"""Solver-state tests: initialization, coordinate updates, the maintained
inverse, objective bookkeeping, and the refresh path.

Oracle: direct dense inversion (SciPy) of the freshly assembled model
matrix, hand-derived update values on two-node instances, and the
per-coordinate sweep loops of ``oracles.py`` for the edge and vertex sweeps
(bit for bit on the immediate update path, within rounding on the batched
one).
"""
import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covgraph.solver
from covgraph import (
    GraphValidationError,
    SingularModelError,
    all_pairs,
    as_covariance,
    build_graph,
    edge_cost,
    edge_update,
    evaluate_objective,
    init_state,
    laplacian,
    refresh_phi,
    vertex_update,
)
from covgraph.graphs import laplacian_from_pairs
from covgraph.learn import epoch, kernel_weights
from covgraph.bench import VariogramSpec, sample_locations, variogram_covariance
from covgraph.solver import (
    _FIRST_PIECE,
    _MIN_SCAN_RUN,
    _PIECE_GROWTH,
    _MIN_BATCH_N,
    _is_connected,
    _rank_one_update,
    _pcg,
    certificate,
    clamp_step,
    coordinate_matrix,
    hessian_block,
    hessian_product,
    inverse_hessian_product,
    model_inverse,
    newton_step,
    pair_quadratic,
    sweep_edges,
    sweep_vertices,
)
from _support import batched_path, kernel_spd_covariance
from oracles import (
    direct_inverse_oracle,
    duality_gap_oracle,
    explicit_hessian,
    kkt_residuals_loop,
    is_connected_loop,
    sweep_edges_loop,
    sweep_vertices_loop,
)

S2 = np.array([[1.0, 0.5], [0.5, 1.0]])


def has_negative_zero(a):
    return bool(np.any((a == 0.0) & np.signbit(a)))


def joint_state(S, w0=None, q0=1.0, q_min=1e-4):
    S = as_covariance(S).entries
    n = S.shape[0]
    idx_i, idx_j = all_pairs(n)
    if w0 is None:
        w0 = np.zeros(len(idx_i))
    return init_state(S, idx_i, idx_j, w0, q0=q0, q_min=q_min)


class TestEdgeCost:
    def test_correlated_pair(self):
        assert edge_cost(S2, 0, 1) == pytest.approx(1.0)

    def test_identity_covariance(self):
        assert edge_cost(np.eye(3), 0, 2) == pytest.approx(2.0)

    def test_perfect_correlation_rejected(self):
        with pytest.raises(GraphValidationError, match="degenerate"):
            edge_cost(np.array([[10.0, 10.0], [10.0, 10.0]]), 0, 1)


class TestInitState:
    def test_identity_start(self):
        state = joint_state(S2, q0=1.0)
        np.testing.assert_allclose(state.phi, np.eye(2), atol=1e-14)
        # -logdet(I) = 0, so the objective is the trace term alone.
        assert state.objective == pytest.approx(np.trace(S2))

    def test_baseline_phi_matches_direct_inversion(self):
        state = init_state(S2, [0], [1], [1.0])
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        oracle = direct_inverse_oracle(L + 0.5)
        np.testing.assert_allclose(state.phi, oracle, atol=1e-12)

    def test_baseline_empty_graph_is_singular(self):
        # At n = 2, Cholesky of J/2 succeeds in floating point; the
        # connectivity test must reject it.
        np.linalg.cholesky(np.full((2, 2), 0.5))
        for n in (2, 3):
            with pytest.raises(SingularModelError, match="connected"):
                init_state(np.eye(n), *all_pairs(n), np.zeros(n * (n - 1) // 2))

    def test_baseline_disconnected_graph_is_singular(self):
        S = kernel_spd_covariance(4, seed=0).entries
        with pytest.raises(SingularModelError):
            init_state(S, [0, 2], [1, 3], [1.0, 1.0])

    def test_q0_below_floor_rejected(self):
        with pytest.raises(GraphValidationError, match="q_min"):
            joint_state(S2, q0=1e-6, q_min=1e-4)

    def test_negative_initial_weight_rejected(self):
        with pytest.raises(GraphValidationError, match="nonnegative"):
            init_state(S2, [0], [1], [-1.0], q0=1.0, q_min=1e-4)

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1), (2, 1), (0, 2)], r"active pair \(2, 1\) must satisfy"),
        ([(0, 1), (1, 1)], r"active pair \(1, 1\) must satisfy"),
        ([(0, 3), (0, 1)], r"active pair \(0, 3\) must satisfy"),
        ([(-1, 2)], r"active pair \(-1, 2\) must satisfy"),
        ([(0, 1), (1, 2), (0, 1), (2, 0)], r"duplicate active pair \(0, 1\)"),
        ([(0, 1), (2, 0), (0, 1)], r"active pair \(2, 0\) must satisfy"),
        ([(0, 2), (1, 2), (3, 0), (1, 2)], r"active pair \(3, 0\) must satisfy"),
    ])
    def test_first_offending_pair_is_named(self, pairs, message):
        S = kernel_spd_covariance(3, seed=1)
        idx_i, idx_j = np.array(pairs).T
        with pytest.raises(GraphValidationError, match=message):
            init_state(S, idx_i, idx_j, 1.0, q0=1.0, q_min=1e-4)

    @pytest.mark.parametrize("idx_i, idx_j", [
        (np.array([0, 1]), np.array([2])),
        (np.array([0]), np.array([1, 2])),
        (np.array([[0, 1]]), np.array([[2, 2]])),
        (np.array([[0], [1]]), np.array([2, 2])),
        (np.array([0.0, 1.0]), np.array([2.0, 2.0])),
        (np.array([0, 1]), np.array([2.0, 2.0])),
        ([], []),
    ])
    def test_malformed_endpoint_arrays_rejected(self, idx_i, idx_j):
        # Mismatched lengths, 2-D and float input (an empty list is float)
        # each fail by name, not with a broadcast or indexing error further in.
        S = kernel_spd_covariance(3, seed=1)
        with pytest.raises(GraphValidationError, match="1-D int arrays of equal length"):
            init_state(S, idx_i, idx_j, 1.0, q0=1.0, q_min=1e-4)

    def test_pairs_are_int_tuples_matching_the_endpoint_arrays(self):
        idx_i, idx_j = np.array([0, 1], dtype=np.int32), np.array([2, 2], dtype=np.uint8)
        state = init_state(kernel_spd_covariance(3, seed=1), idx_i, idx_j, 1.0, q0=1.0, q_min=1e-4)
        assert state.pairs == [(0, 2), (1, 2)]
        assert all(type(i) is int and type(j) is int for i, j in state.pairs)
        assert state.idx_i.tolist() == [0, 1] and state.idx_j.tolist() == [2, 2]
        assert state.idx_i.dtype == state.idx_j.dtype == np.dtype(int)
        # The state keeps its own copies of the endpoint arrays.
        idx_i[0] = 1
        assert state.idx_i.tolist() == [0, 1]


class TestIsConnected:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        density=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_search_loop(self, n, density, seed):
        rng = np.random.default_rng(seed)
        idx_i, idx_j = all_pairs(n)
        m = len(idx_i)
        w = np.where(rng.random(m) < density, rng.uniform(0.0, 2.0, m), 0.0)
        graph = build_graph(n, list(zip(idx_i, idx_j, w)))
        assert _is_connected(laplacian(graph)) == is_connected_loop(n, list(zip(idx_i, idx_j)), w)


class TestEdgeUpdate:
    def test_hand_derived_first_step(self):
        # From phi = I: resistance 2, cost 1, step max(-0, 1/1 - 1/2) = 0.5.
        state = joint_state(S2)
        upd = edge_update(state, 0)
        assert upd.cost == pytest.approx(1.0)
        assert upd.effective == pytest.approx(2.0)
        assert upd.delta == pytest.approx(0.5)
        assert state.w[0] == pytest.approx(0.5)
        np.testing.assert_allclose(state.phi, [[0.75, 0.25], [0.25, 0.75]], atol=1e-14)

    def test_stationary_coordinate_is_untouched(self):
        # Identity covariance: from phi = I after importances settle, each
        # pair has matching cost and resistance.
        state = joint_state(np.eye(2), q0=1.0, q_min=1e-4)
        phi_before = state.phi.copy()
        upd = edge_update(state, 0)
        assert upd.delta == 0.0
        np.testing.assert_array_equal(state.phi, phi_before)

    def test_clamped_at_zero_exactly(self):
        state = joint_state(S2, w0=np.array([0.5]))
        # Make the unconstrained step far more negative than -w by doctoring
        # the maintained inverse (tiny effective resistance).
        state.phi = np.array([[0.026, 0.001], [0.001, 0.026]])
        upd = edge_update(state, 0)
        assert upd.delta == -0.5
        assert state.w[0] == 0.0

    def test_monotone_descent_closed_form(self):
        state = joint_state(kernel_spd_covariance(5, seed=5))
        for sweep in range(30):
            for e in range(state.m):
                upd = edge_update(state, e)
                change = upd.delta * upd.cost - math.log1p(upd.delta * upd.effective)
                assert change <= 1e-12
            for i in range(state.n):
                upd = vertex_update(state, i)
                change = upd.delta * upd.cost - math.log1p(upd.delta * upd.effective)
                assert change <= 1e-12

    def test_objective_tracks_direct_evaluation(self):
        state = joint_state(kernel_spd_covariance(4, seed=9))
        for _ in range(50):
            epoch(state)
        assert state.objective == pytest.approx(evaluate_objective(state), abs=1e-10)


class TestVertexUpdate:
    def test_stationary_at_identity(self):
        state = joint_state(np.eye(3), q0=1.0)
        upd = vertex_update(state, 0)
        assert upd.delta == 0.0
        assert upd.cost == pytest.approx(1.0)
        assert upd.effective == pytest.approx(1.0)

    def test_clamps_to_floor_exactly(self):
        state = joint_state(kernel_spd_covariance(3, seed=2), q0=1.0, q_min=0.01)
        # Doctor the inverse so the unconstrained step dives past the floor.
        state.phi = np.eye(3) * 0.05
        vertex_update(state, 1)
        assert state.q[1] == 0.01

    def test_phi_consistent_with_direct_inversion(self):
        state = joint_state(kernel_spd_covariance(4, seed=3))
        for _ in range(5):
            for e in range(state.m):
                edge_update(state, e)
            for i in range(state.n):
                vertex_update(state, i)
        direct = direct_inverse_oracle(state.model_matrix())
        assert np.max(np.abs(state.phi - direct)) <= 1e-10

    def test_rejected_in_baseline_mode(self):
        state = init_state(S2, [0], [1], [1.0])
        with pytest.raises(ValueError, match="joint"):
            vertex_update(state, 0)


class TestObjective:
    def test_identity_model_identity_covariance(self):
        state = joint_state(np.eye(2), q0=1.0)
        assert evaluate_objective(state) == pytest.approx(2.0)

    def test_joint_closed_form_at_optimum(self):
        # At theta = S^{-1} the objective equals logdet(S) + n.
        state = joint_state(S2, w0=np.array([2.0 / 3.0]), q0=np.array([2 / 3, 2 / 3]), q_min=1e-4)
        assert evaluate_objective(state) == pytest.approx(np.log(0.75) + 2.0, abs=1e-12)

    def test_baseline_direct_evaluation(self):
        state = init_state(S2, [0], [1], [1.0])
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        theta = L + 0.5
        expected = -np.linalg.slogdet(theta)[1] + np.sum(L * S2)
        assert evaluate_objective(state) == pytest.approx(expected, abs=1e-12)


class TestRefreshPhi:
    def test_no_drift_right_after_init(self):
        state = joint_state(kernel_spd_covariance(5, seed=1))
        assert refresh_phi(state) <= 1e-12

    def test_post_refresh_inverse_is_exact(self):
        sample = sample_locations(20, seed=8)
        S = variogram_covariance(sample, VariogramSpec(range_=0.2))
        pairs = all_pairs(20)
        state = init_state(S, *pairs, kernel_weights(sample.points, *pairs), q0=1.0, q_min=1e-4)
        for _ in range(60):
            epoch(state)
        drift = refresh_phi(state)
        assert drift < 1e-8  # measured accumulation, small but nonzero
        ident = state.phi @ state.model_matrix()
        assert np.max(np.abs(ident - np.eye(20))) <= 1e-12

    def test_joint_mode_never_singular(self):
        # Even an edgeless floor-level model stays positive definite.
        state = joint_state(np.eye(3), q0=1e-4, q_min=1e-4)
        refresh_phi(state)
        assert np.isfinite(state.objective)


class TestSharedUpdatePath:
    def test_modes_share_edge_update_given_same_inverse(self):
        # The edge update must depend on the mode only through phi: inject
        # the same inverse into both states and compare results bitwise.
        S = kernel_spd_covariance(4, seed=21)
        pairs = all_pairs(4)
        w0 = np.full(6, 0.25)
        joint = init_state(S, *pairs, w0, q0=1.0, q_min=1e-4)
        base = init_state(S, *pairs, w0)
        injected = direct_inverse_oracle(joint.model_matrix())
        joint.phi = injected.copy()
        base.phi = injected.copy()
        for e in range(6):
            upd_j = edge_update(joint, e)
            upd_b = edge_update(base, e)
            assert upd_j.delta == upd_b.delta
            assert upd_j.effective == upd_b.effective
        np.testing.assert_array_equal(joint.phi, base.phi)
        np.testing.assert_array_equal(joint.w, base.w)

    def test_baseline_singularity_guard_clips(self):
        # Doctor a baseline state so the optimal step would push the
        # determinant factor 1 + delta*r below tolerance (effective
        # resistance vastly smaller than the edge cost): the step must be
        # clipped short of the singularity, not crash.
        state = init_state(S2, [0], [1], [1.0])
        state.w[0] = 3e12
        state.phi = np.array([[0.5 + 2.5e-13, 0.5], [0.5, 0.5 + 2.5e-13]])
        upd = edge_update(state, 0)
        assert state.singularity_clips == 1
        assert state.w[0] > 0.0
        assert upd.delta > -3e12
        assert np.all(np.isfinite(state.phi))


class TestEpochInvariant:
    def test_phi_inverse_identity_at_epoch_boundaries(self):
        for seed, mode in [(4, "joint"), (5, "baseline")]:
            S = kernel_spd_covariance(6, seed=seed)
            pairs = all_pairs(6)
            if mode == "joint":
                state = init_state(S, *pairs, np.full(15, 1 / 6), q0=1.0, q_min=1e-4)
            else:
                state = init_state(S, *pairs, np.full(15, 1 / 6))
            for _ in range(40):
                epoch(state)
                ident = state.phi @ state.model_matrix()
                assert np.max(np.abs(ident - np.eye(6))) <= 1e-6

    def test_rank_one_maintenance_exact_after_every_epoch(self):
        # Without any refresh the maintained inverse must track the direct
        # inverse at every epoch boundary.
        sample = sample_locations(10, seed=13)
        S = variogram_covariance(sample, VariogramSpec(range_=0.2))
        pairs = all_pairs(10)
        state = init_state(S, *pairs, kernel_weights(sample.points, *pairs), q0=1.0, q_min=1e-4)
        for _ in range(100):
            epoch(state)
            direct = direct_inverse_oracle(state.model_matrix())
            assert np.max(np.abs(state.phi - direct)) <= 1e-8

    def test_projection_exact_after_every_epoch(self):
        # Clamped arithmetic: bounds hold exactly, never within a tolerance.
        S = kernel_spd_covariance(6, seed=31)
        state = init_state(S, *all_pairs(6), np.full(15, 1 / 6), q0=1.0, q_min=0.05)
        for _ in range(60):
            epoch(state)
            assert np.all(state.w >= 0.0)
            assert np.all(state.q >= 0.05)


@st.composite
def zero_run_states(draw):
    """A joint or baseline state whose weights alternate between runs of
    zeros and runs of positive weights. Runs are drawn shorter and longer
    than the sweep's scan threshold and can sit at the start, middle or end
    of the pair list; one long run makes every weight zero. A baseline state
    keeps the last pair of every row, (i, n-1), positive so that its graph
    stays connected."""
    mode = draw(st.sampled_from(["joint", "baseline"]))
    n = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pairs = all_pairs(n)
    m = len(pairs[0])
    w = np.zeros(m)
    zero = draw(st.booleans())
    start = 0
    for length in draw(st.lists(st.integers(1, 2 * _MIN_SCAN_RUN + 3), max_size=12)):
        if not zero:
            w[start:start + length] = rng.uniform(0.01, 1.0, size=w[start:start + length].shape)
        start += length
        zero = not zero
    if start < m and not zero:
        w[start:] = rng.uniform(0.01, 1.0, size=m - start)
    S = kernel_spd_covariance(n, seed=seed)
    if mode == "joint":
        return init_state(S, *pairs, w, q0=1.0, q_min=1e-4)
    return connected_baseline_state(S, pairs, w)


def connected_baseline_state(S, pairs, w):
    """Baseline state on the pair set ``pairs`` with the weights of the
    pairs (i, n-1) raised to at least 0.05, so that its graph is connected."""
    last = pairs[1] == S.n - 1
    w[last] = np.maximum(w[last], 0.05)
    return init_state(S, *pairs, w)


def assert_sweeps_match_loop(state, sweeps=3):
    """Each of ``sweeps`` consecutive sweeps leaves the state bit for bit as
    the per-edge loop does."""
    reference = copy.deepcopy(state)
    for _ in range(sweeps):
        change = sweep_edges(state)
        expected = sweep_edges_loop(reference)
        assert np.float64(change).tobytes() == np.float64(expected).tobytes()
        assert state.phi.tobytes() == reference.phi.tobytes()
        assert state.w.tobytes() == reference.w.tobytes()
        assert np.float64(state.objective).tobytes() == np.float64(reference.objective).tobytes()
        assert state.updates_since_refresh == reference.updates_since_refresh
        assert state.singularity_clips == reference.singularity_clips


def near_converged_state(range_=0.1):
    """Joint state of a desk-like problem (n = 30, immediate path) after 40
    epochs: the support still changes. At r = 0.1 most edges are zero; at
    r = 1 two thirds of the importances sit at the floor."""
    sample = sample_locations(30, seed=1)
    S = variogram_covariance(sample, VariogramSpec(range_=range_))
    pairs = all_pairs(30)
    state = init_state(S, *pairs, kernel_weights(sample.points, *pairs), q0=1.0, q_min=1e-4)
    for _ in range(40):
        epoch(state)
    return state


class TestEdgeSweepMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(zero_run_states())
    def test_zero_runs(self, state):
        assert_sweeps_match_loop(state)

    @pytest.mark.parametrize("n", [2, 9, 14])
    def test_all_zero_weights(self, n):
        S = kernel_spd_covariance(n, seed=n)
        assert_sweeps_match_loop(init_state(S, *all_pairs(n), 0.0, q0=1.0, q_min=1e-4))

    def test_no_active_pairs(self):
        S = kernel_spd_covariance(4, seed=2)
        assert_sweeps_match_loop(init_state(S, *all_pairs(1), [], q0=1.0, q_min=1e-4))
        assert_sweeps_match_loop(init_state(S.entries[:1, :1], *all_pairs(1), []))

    @pytest.mark.parametrize("range_", [0.1, 1.0])
    def test_near_converged_state(self, range_):
        state = near_converged_state(range_)
        assert state._pending is None
        assert_sweeps_match_loop(state)

    def test_nan_step_in_a_long_run_is_applied(self):
        # A NaN step is not "<= -0.0": the loop applies it, and so must the scan.
        n = 12
        state = init_state(kernel_spd_covariance(n, seed=5), *all_pairs(n), 0.0, q0=1.0, q_min=1e-4)
        e = 3 * _MIN_SCAN_RUN // 2
        i, j = state.pairs[e]
        state.phi[i, j] = state.phi[j, i] = np.nan
        assert_sweeps_match_loop(state, sweeps=1)
        assert np.isnan(state.objective)

    def test_nan_step_before_nonzero_edges_is_applied(self):
        # After a NaN step no bound holds: every later run, even an empty
        # one between two nonzero edges, goes to the per-edge arithmetic.
        n = 12
        w = np.zeros(66)
        w[[20, 21, 22, 40]] = 0.3
        state = init_state(kernel_spd_covariance(n, seed=5), *all_pairs(n), w, q0=1.0, q_min=1e-4)
        i, j = state.pairs[12]
        state.phi[i, j] = state.phi[j, i] = np.nan
        assert_sweeps_match_loop(state, sweeps=1)
        assert np.isnan(state.w[13:]).all()

    def test_zero_resistance_divides_as_numpy(self):
        # 1/r at r = 0 is inf, as numpy scalars divide, not a
        # ZeroDivisionError of Python floats: the step clamps the weight.
        state = joint_state(S2, w0=[0.5])
        state.phi = np.ones((2, 2))
        with np.errstate(divide="ignore"):
            assert_sweeps_match_loop(state, sweeps=1)
        assert state.w[0] == 0.0

    def test_baseline_singularity_clip(self):
        state = init_state(S2, [0], [1], [1.0])
        state.w[0] = 3e12
        state.phi = np.array([[0.5 + 2.5e-13, 0.5], [0.5, 0.5 + 2.5e-13]])
        assert_sweeps_match_loop(state, sweeps=1)
        assert state.singularity_clips == 1

    def test_disconnected_start_at_memory_bound_size(self):
        state = disconnected_state()
        assert not has_negative_zero(state.phi)
        refresh_phi(state)
        assert not has_negative_zero(state.phi)
        assert_sweeps_match_loop(state)


def disconnected_state(n=101):
    """Joint state on all pairs whose starting graph is two blocks plus an
    isolated vertex: phi holds exact zeros between them, so the v of an
    update has zero entries beside entries of both signs and some products
    v_a * v_b are -0.0."""
    block = np.arange(n) * 2 // (n - 1)
    idx_i, idx_j = all_pairs(n)
    rng = np.random.default_rng(7)
    w = np.array([
        rng.uniform(0.001, 0.05) if block[i] == block[j] < 2 else 0.0 for i, j in zip(idx_i, idx_j)
    ])
    state = init_state(kernel_spd_covariance(n, seed=7), idx_i, idx_j, w, q0=0.01, q_min=1e-4)
    assert np.count_nonzero(state.phi == 0.0) > 0
    return state


class TestRankOneUpdate:
    @pytest.mark.parametrize("c", [0.37, -0.37])
    def test_matches_outer_on_exact_zeros(self, c):
        # The update stores a -0.0 product as +0.0; on a phi without -0.0
        # that leaves every byte as phi - c * np.outer(v, v) gives it.
        state = disconnected_state()
        v = state.phi[0] - state.phi[1]
        assert has_negative_zero(np.outer(v, v))
        expected = state.phi - c * np.outer(v, v)
        _rank_one_update(state, v, c)
        assert state.phi.tobytes() == expected.tobytes()

    @pytest.mark.skipif(covgraph.solver._einsum is np.einsum, reason="numpy has no c_einsum at the numpy 2 path")
    def test_public_einsum_gives_the_same_bytes(self):
        # The update calls numpy's C einsum directly; the public wrapper,
        # its fallback, must leave phi with the same bytes after a sweep.
        state = disconnected_state()
        reference = copy.deepcopy(state)
        with mock.patch.object(covgraph.solver, "_einsum", np.einsum):
            sweep_edges(reference)
            sweep_vertices(reference)
        sweep_edges(state)
        sweep_vertices(state)
        assert state.updates_since_refresh > 0
        assert state.phi.tobytes() == reference.phi.tobytes()
        assert np.float64(state.objective).tobytes() == np.float64(reference.objective).tobytes()


@st.composite
def random_states(draw, modes=("joint", "baseline"), max_n=10):
    """A joint or baseline state with random weights, some of them zero.
    Joint importances sit at ``q_min`` or above it, with a floor from far
    below the optimal importances (about 1/S_ii) to above them, so vertex
    steps both move freely and clamp at the floor."""
    mode = draw(st.sampled_from(modes))
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    pairs = all_pairs(n)
    m = len(pairs[0])
    w = np.where(rng.random(m) < density, rng.uniform(0.01, 1.0, m), 0.0)
    S = kernel_spd_covariance(n, seed=seed)
    if mode == "baseline":
        return connected_baseline_state(S, pairs, w)
    q_min = draw(st.sampled_from([1e-4, 0.02, 0.5]))
    q0 = q_min + np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 2.0, n))
    return init_state(S, *pairs, w, q0=q0, q_min=q_min)


def assert_vertex_sweeps_match_loop(state, sweeps=3):
    """Each of ``sweeps`` consecutive vertex sweeps leaves the state bit for
    bit as the per-vertex loop does."""
    reference = copy.deepcopy(state)
    for _ in range(sweeps):
        change = sweep_vertices(state)
        expected = sweep_vertices_loop(reference)
        assert np.float64(change).tobytes() == np.float64(expected).tobytes()
        assert state.phi.tobytes() == reference.phi.tobytes()
        assert state.q.tobytes() == reference.q.tobytes()
        assert np.float64(state.objective).tobytes() == np.float64(reference.objective).tobytes()
        assert state.updates_since_refresh == reference.updates_since_refresh


class TestVertexSweepMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(random_states(modes=("joint",)))
    def test_matches_loop(self, state):
        assert_vertex_sweeps_match_loop(state)

    def test_near_converged_state(self):
        state = near_converged_state(range_=1.0)
        assert np.count_nonzero(state.q == state.q_min) == 20
        assert_vertex_sweeps_match_loop(state)

    def test_floor_vertices_at_ratio_one_stay(self):
        # With S = I, no edges and q = q_min = 1, phi = I exactly: every
        # importance sits at the floor with a step of exactly 0. Vertex 3
        # starts above the floor and moves down to it.
        q0 = np.ones(5)
        q0[3] = 2.0
        state = init_state(np.eye(5), *all_pairs(1), [], q0=q0, q_min=1.0)
        assert_vertex_sweeps_match_loop(state, sweeps=1)
        assert state.q.tobytes() == np.ones(5).tobytes()

    def test_nan_step_is_applied(self):
        # A NaN step is not "<= floor_gap": the loop applies it, and so must
        # the sweep, and every later step is NaN.
        state = near_converged_state(range_=1.0)
        floor = np.flatnonzero(state.q == state.q_min)
        state.phi[floor[0], floor[0]] = np.nan
        assert_vertex_sweeps_match_loop(state, sweeps=1)
        assert np.isnan(state.objective)
        assert np.isnan(state.q[floor[1:]]).all()

    def test_zero_effective_importance_divides_as_numpy(self):
        # 1/u at u = 0 is inf, as numpy scalars divide, not a
        # ZeroDivisionError of Python floats: the step clamps to the floor.
        state = joint_state(S2)
        state.phi = np.array([[0.0, 0.0], [0.0, 1.0]])
        with np.errstate(divide="ignore"):
            assert_vertex_sweeps_match_loop(state, sweeps=1)
        assert state.q[0] == state.q_min


class TestMonotoneDescent:
    @settings(max_examples=100, deadline=None)
    @given(random_states(), st.integers(1, 3))
    def test_every_update_descends(self, state, sweeps):
        updates = [lambda e=e: edge_update(state, e) for e in range(state.m)]
        if state.q is not None:
            updates += [lambda i=i: vertex_update(state, i) for i in range(state.n)]
        for _ in range(sweeps):
            for update in updates:
                before = evaluate_objective(state)
                upd = update()
                assert upd.delta * upd.cost - math.log1p(upd.delta * upd.effective) <= 0.0
                assert evaluate_objective(state) <= before + 1e-9 * abs(before)


class TestCertificate:
    @settings(max_examples=150, deadline=None)
    @given(random_states())
    def test_matches_the_defining_formulas(self, state):
        residual, gap = certificate(state)
        q = None if state.q is None else state.q
        edge, vertex, _ = kkt_residuals_loop(state.n, state.pairs, state.w, q, state.q_min, state.S, 1e-6)
        assert residual == pytest.approx(max(edge, vertex), rel=1e-8, abs=1e-12)
        expected = duality_gap_oracle(state.n, state.pairs, state.w, q, state.q_min, state.S)
        scale = state.n + float(np.sum(np.abs(state.model_matrix() * state.S)))
        assert gap >= 0.0
        assert abs(gap - expected) <= 1e-9 * scale


def random_free_set(state, seed):
    """Random subsets of a state's edge and vertex coordinates, as
    newton_step's free set."""
    rng = np.random.default_rng(seed)
    edges = np.flatnonzero(rng.random(state.m) < 0.7)
    vertices = np.flatnonzero(rng.random(state.n) < 0.7) if state.q is not None else edges[:0]
    return edges, vertices


class TestNewtonStep:
    @settings(max_examples=150, deadline=None)
    @given(random_states(max_n=8), st.integers(0, 2**32 - 1))
    def test_hessian_product_matches_explicit_hessian(self, state, seed):
        # On a random subset of the coordinates, as newton_step's free set.
        rng = np.random.default_rng(seed)
        edges = np.flatnonzero(rng.random(state.m) < 0.7)
        vertices = np.flatnonzero(rng.random(state.n) < 0.7) if state.q is not None else edges[:0]
        d = rng.standard_normal(len(edges) + len(vertices))
        phi = state.phi
        H = explicit_hessian(phi, [state.pairs[e] for e in edges], vertices)
        got = hessian_product(phi, state.idx_i[edges], state.idx_j[edges], vertices)(d)
        expected = H @ d
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12 * np.max(np.abs(expected), initial=0.0)

    @settings(max_examples=150, deadline=None)
    @given(random_states(max_n=8), st.integers(0, 2**32 - 1))
    def test_matrix_free_product_is_bit_identical_to_its_definition(self, state, seed):
        # D is L(d_edges) + diag(d_vertices) as laplacian_from_pairs and a
        # diagonal add form it, zeros of both signs included, and H d is
        # read off phi D phi as pair_quadratic and the diagonal read it.
        edges, vertices = random_free_set(state, seed)
        rng = np.random.default_rng(seed)
        k = len(edges)
        d = rng.standard_normal(k + len(vertices))
        d[rng.random(len(d)) < 0.2] = 0.0
        d[rng.random(len(d)) < 0.2] = -0.0
        fi, fj = state.idx_i[edges], state.idx_j[edges]
        expected = laplacian_from_pairs(state.n, fi, fj, d[:k])
        expected[vertices, vertices] += d[k:]
        assert coordinate_matrix(state.n, fi, fj, vertices)(d).tobytes() == expected.tobytes()
        phi = state.phi
        M = phi @ expected @ phi
        hd = np.concatenate([pair_quadratic(M, fi, fj), M.diagonal()[vertices]])
        assert hessian_product(phi, fi, fj, vertices)(d).tobytes() == hd.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(random_states(max_n=8), st.integers(0, 2**32 - 1))
    def test_hessian_block_matches_explicit_hessian(self, state, seed):
        edges, vertices = random_free_set(state, seed)
        phi = state.phi
        expected = explicit_hessian(phi, [state.pairs[e] for e in edges], vertices)
        got = hessian_block(phi, state.idx_i[edges], state.idx_j[edges], vertices)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12 * np.max(np.abs(expected), initial=0.0)

    @settings(max_examples=150, deadline=None)
    @given(random_states(), st.integers(0, 2**32 - 1))
    def test_both_hessian_paths_give_the_same_cg_step(self, state, seed):
        # The Newton system's right-hand side, -gradient, on a random free
        # set, solved by the same two CG iterations with either product.
        # Full solves agree only to about the CG tolerance times the
        # condition number (8e-3 apart at a condition of 3e8, n = 8), as CG
        # amplifies rounding; after two iterations they were at most 2.2e-9
        # apart over 1,500 random states.
        edges, vertices = random_free_set(state, seed)
        phi = state.phi
        fi, fj = state.idx_i[edges], state.idx_j[edges]
        r = pair_quadratic(phi, fi, fj)
        u = phi.diagonal()[vertices]
        b = np.concatenate([r - state.edge_costs[edges], u - state.S[vertices, vertices]])
        inv_diag = 1.0 / np.concatenate([r * r, u * u])
        with mock.patch.multiple(covgraph.solver, _CG_TOL=0.0, _CG_MAX_ITER=2):
            dense, _ = _pcg(hessian_block(phi, fi, fj, vertices).dot, b, inv_diag.__mul__)
            free, _ = _pcg(hessian_product(phi, fi, fj, vertices), b, inv_diag.__mul__)
        assert np.max(np.abs(dense - free), initial=0.0) <= 1e-6 * np.max(np.abs(free), initial=0.0)

    @settings(max_examples=150, deadline=None)
    @given(random_states(max_n=8), st.integers(0, 2**32 - 1))
    def test_preconditioner_inverts_the_hessian_and_is_symmetric(self, state, seed):
        # Over all coordinates it is the inverse of hessian_product, within
        # the rounding that the condition number of the Hessian, about that
        # of the model matrix squared, amplifies: at most 2.4 units of
        # eps * cond^2 * |x| over 2,000 random states.
        joint = state.q is not None
        theta = state.model_matrix() if joint else state.laplacian()
        vertices = np.arange(state.n) if joint else np.arange(0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(state.m + len(vertices))
        precondition = inverse_hessian_product(theta, state.idx_i, state.idx_j, vertices)
        product = hessian_product(state.phi, state.idx_i, state.idx_j, vertices)
        scale = np.finfo(float).eps * np.linalg.cond(state.model_matrix()) ** 2 * np.max(np.abs(x), initial=0.0)
        assert np.max(np.abs(precondition(product(x)) - x), initial=0.0) <= 100.0 * scale
        # On a random free set, as newton_step's, it is symmetric.
        edges, vertices = random_free_set(state, seed)
        precondition = inverse_hessian_product(theta, state.idx_i[edges], state.idx_j[edges], vertices)
        a, b = rng.standard_normal((2, len(edges) + len(vertices)))
        ka, kb = precondition(a), precondition(b)
        assert abs(a @ kb - b @ ka) <= 1e-12 * np.linalg.norm(a) * max(np.linalg.norm(ka), np.linalg.norm(kb))

    @settings(max_examples=150, deadline=None)
    @given(random_states(max_n=8))
    def test_line_search_does_not_read_the_maintained_objective(self, state):
        # The Armijo reference is the objective evaluated at the current
        # point, so a maintained value off by any amount takes the same step.
        # A value is maintained once an update has moved it since phi was
        # set from scratch; until then it is the evaluated one, bit for bit.
        assert state.updates_since_refresh == 0
        assert state.objective == evaluate_objective(state)
        steps = []
        for shift in (0.0, -1.0, 1.0):
            shifted = copy.deepcopy(state)
            shifted.objective += shift
            shifted.updates_since_refresh += 1
            alpha, _ = newton_step(shifted)
            steps.append((alpha, shifted.w.tobytes(), None if state.q is None else shifted.q.tobytes()))
        assert steps[1] == steps[0] and steps[2] == steps[0]

    @settings(max_examples=150, deadline=None)
    @given(random_states(max_n=8))
    def test_newton_round_never_raises_objective(self, state):
        # Strictly so above the rounding floor; at it, a full step may raise
        # the objective by at most the allowance.
        start = copy.deepcopy(state)
        before = state.objective
        alpha, _ = newton_step(state)
        if at_rounding_floor(start, state, alpha):
            assert state.objective <= before + rounding_allowance(before)
        else:
            assert state.objective <= before
        assert state.objective == evaluate_objective(state)
        if alpha > 0.0:
            assert state.phi.tobytes() == model_inverse(state.laplacian(), state.q).tobytes()
        # The round's coordinate epoch descends too, up to rounding.
        epoch(state)
        refresh_phi(state)
        assert state.objective <= before + 1e-9 * abs(before)

    @pytest.mark.parametrize("method", ["joint", "baseline"])
    def test_rounds_at_the_rounding_floor_rise_by_at_most_the_allowance(self, method):
        # Rounds near the optimum of a desk-like problem (n = 30, r = 1),
        # as the learner runs them: some reach the floor, and only those
        # may raise the objective, by at most the allowance. Some do: a
        # line search that held them to a strict decrease would backtrack.
        sample = sample_locations(30, seed=1)
        S = variogram_covariance(sample, VariogramSpec(range_=1.0))
        pairs = all_pairs(30)
        q0 = 1.0 if method == "joint" else None
        state = init_state(S, *pairs, kernel_weights(sample.points, *pairs), q0=q0, q_min=1e-4)
        clamp_step(state)
        for _ in range(5):
            epoch(state)
        refresh_phi(state)
        floors = rises = 0
        for _ in range(12):
            start = copy.deepcopy(state)
            before = state.objective
            alpha, _ = newton_step(state)
            if at_rounding_floor(start, state, alpha):
                floors += 1
                rises += state.objective > before
                assert state.objective <= before + rounding_allowance(before)
            else:
                assert state.objective <= before
            if alpha < 1.0:
                epoch(state)
                refresh_phi(state)
        assert floors > rises > 0
        assert certificate(state)[0] <= 1e-8


def rounding_allowance(objective):
    return covgraph.solver.ROUNDING_ALLOWANCE * np.finfo(float).eps * abs(objective)


def at_rounding_floor(start, state, alpha):
    """Whether a Newton round from ``start`` to ``state`` took a full step
    whose predicted decrease, -g^T (x(1) - x), is below the allowance of the
    objective at ``start``; g is read off start's phi."""
    phi = start.phi
    decrease = -(start.edge_costs - pair_quadratic(phi, start.idx_i, start.idx_j)) @ (state.w - start.w)
    if start.q is not None:
        decrease -= (np.diag(start.S) - phi.diagonal()) @ (state.q - start.q)
    return alpha == 1.0 and decrease < rounding_allowance(start.objective)


def predicted_clamps(state):
    """Edges whose exact coordinate step from the state's weights clamps to
    zero, one edge at a time off a direct inverse of the model matrix."""
    phi = direct_inverse_oracle(state.model_matrix())
    clamps = np.zeros(state.m, dtype=bool)
    for e, (i, j) in enumerate(state.pairs):
        r = phi[i, i] + phi[j, j] - 2.0 * phi[i, j]
        h = state.S[i, i] + state.S[j, j] - 2.0 * state.S[i, j]
        clamps[e] = state.w[e] > 0.0 and 1.0 / h - 1.0 / r <= -state.w[e]
    return clamps


def state_bytes(state):
    q = b"" if state.q is None else state.q.tobytes()
    return state.w.tobytes(), q, state.phi.tobytes(), np.float64(state.objective).tobytes()


class TestClampStep:
    def test_kernel_start_clamps_the_predicted_edges(self):
        sample = sample_locations(30, seed=1)
        S = variogram_covariance(sample, VariogramSpec(range_=1.0))
        pairs = all_pairs(30)
        state = init_state(S, *pairs, kernel_weights(sample.points, *pairs), q0=1.0, q_min=1e-4)
        before, w, q = state.objective, state.w.copy(), state.q.copy()
        clamps = predicted_clamps(state)
        assert clamps.sum() > state.m // 2
        assert clamp_step(state) == clamps.sum()
        assert state.objective < before
        assert np.all(state.w[clamps] == 0.0)
        assert state.w[~clamps].tobytes() == w[~clamps].tobytes()
        assert state.q.tobytes() == q.tobytes()
        assert state.objective == evaluate_objective(state)
        expected = direct_inverse_oracle(state.model_matrix())
        assert np.max(np.abs(state.phi - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert state.updates_since_refresh == 0

    @settings(max_examples=150, deadline=None)
    @given(random_states())
    def test_accepts_only_a_lower_objective(self, state):
        before = copy.deepcopy(state)
        clamps = predicted_clamps(state)
        count = clamp_step(state)
        if count:
            assert count == clamps.sum()
            assert state.objective < before.objective
            assert np.all(state.w[clamps] == 0.0)
            assert state.w[~clamps].tobytes() == before.w[~clamps].tobytes()
            assert state.phi.tobytes() == model_inverse(state.laplacian(), state.q).tobytes()
        else:
            assert state_bytes(state) == state_bytes(before)

    def test_rising_objective_leaves_the_state_as_it_was(self):
        # Two tightly correlated blocks of four vertices, correlated 0.8
        # with each other. Each of the 16 cross edges is redundant beside
        # the other 15, so each step alone clamps it, but the blocks need
        # some of them.
        block = np.arange(8) // 4
        S = np.where(block[:, None] == block[None, :], 0.99, 0.8)
        np.fill_diagonal(S, 1.0)
        idx_i, idx_j = all_pairs(8)
        w = np.where(block[idx_i] == block[idx_j], 1.0, 0.5)
        state = init_state(S, idx_i, idx_j, w, q0=1.0, q_min=1e-4)
        clamps = predicted_clamps(state)
        assert clamps.sum() == 16
        trial = state.w.copy()
        trial[clamps] = 0.0
        L = laplacian_from_pairs(8, state.idx_i, state.idx_j, trial)
        assert covgraph.solver.model_objective(L, state.q, state.S) > state.objective
        before = state_bytes(state)
        assert clamp_step(state) == 0
        assert state_bytes(state) == before

    def test_disconnecting_baseline_clamp_leaves_the_state_as_it_was(self):
        # The four cross edges of two weakly coupled pairs all clamp, and
        # without them L + J/n is singular.
        S = 10.0 * np.array([[1, 0.99, 0, 0], [0.99, 1, 0, 0], [0, 0, 1, 0.99], [0, 0, 0.99, 1]])
        state = init_state(S, *all_pairs(4), np.ones(6))
        assert predicted_clamps(state).tolist() == [False, True, True, True, True, False]
        before = state_bytes(state)
        assert clamp_step(state) == 0
        assert state_bytes(state) == before

    def test_nothing_to_clamp(self):
        state = joint_state(S2)
        before = state_bytes(state)
        assert clamp_step(state) == 0
        assert state_bytes(state) == before


@st.composite
def batched_states(draw):
    """A state of ``random_states`` or ``zero_run_states`` on the batched
    update path with four updates per flush: flushes land mid-sweep, and a
    run of more than n^2 / 3 zero-weight edges is scanned in pieces."""
    with batched_path():
        return draw(st.one_of(random_states(), zero_run_states()))


class TestBatchedUpdates:
    def test_small_states_take_the_immediate_path(self):
        # The bit-identity tests above run below the batching size.
        assert disconnected_state().n < _MIN_BATCH_N
        assert disconnected_state()._pending is None

    @settings(max_examples=150, deadline=None)
    @given(batched_states(), st.integers(1, 3))
    def test_sweeps_match_loop_within_rounding(self, state, sweeps):
        assert state._pending is not None
        reference = copy.deepcopy(state)
        for sweep in range(sweeps):
            sweep_edges(state)
            sweep_edges_loop(reference)
            if state.q is not None:
                sweep_vertices(state)
                sweep_vertices_loop(reference)
            if sweep == 0:
                # Later sweeps revisit coordinates already at their optimum,
                # whose step is a rounding residue (under 3e-15 in 3,000
                # random states) that either side may round to exactly 0,
                # so only the first sweep's count must match.
                assert state.updates_since_refresh == reference.updates_since_refresh
        # The per-coordinate loop itself strays up to 1.3e-12 * max|phi| from
        # the fresh inverse (1 of 1,500 drawn states, condition number 75),
        # so the batched phi may stray 1e-12 * max|phi| beyond the loop's own
        # distance.
        direct = model_inverse(state.laplacian(), state.q)
        loop_error = np.max(np.abs(reference.phi - direct), initial=0.0)
        error = np.max(np.abs(state.phi - direct), initial=0.0)
        assert error <= 1e-12 * np.max(np.abs(direct), initial=0.0) + loop_error
        np.testing.assert_allclose(state.w, reference.w, rtol=0, atol=1e-12)
        if state.q is not None:
            np.testing.assert_allclose(state.q, reference.q, rtol=0, atol=1e-12)
        assert abs(state.objective - evaluate_objective(state)) <= 1e-12 * abs(state.objective)

    def test_reading_phi_mid_sweep_gives_current_inverse(self):
        S = kernel_spd_covariance(9, seed=3)
        w0 = np.full(36, 0.1)
        immediate = joint_state(S, w0)
        with batched_path(size=8):
            state = joint_state(S, w0)
        for e in range(5):
            edge_update(state, e)
            edge_update(immediate, e)
        vertex_update(state, 0)
        vertex_update(immediate, 0)
        assert state._k == 6
        phi = state.phi
        assert state._k == 0
        direct = model_inverse(state.laplacian(), state.q)
        assert np.max(np.abs(phi - direct)) <= 1e-12 * np.max(np.abs(phi))
        np.testing.assert_allclose(phi, immediate.phi, rtol=0, atol=1e-14)

    def test_long_zero_run_is_scanned_in_pieces(self, monkeypatch):
        # S = I but for a star of correlated pairs (0, 1) ... (0, 7), which
        # start at a small weight, and the correlated last pair (78, 79). The
        # sweep flushes and the seven star edges step up: seven updates
        # pending (no flush below eight). The rest of the pairs, from (0, 8)
        # on, form one zero run in which only the last edge moves, so the
        # scan tests it in pieces that start at _FIRST_PIECE, grow by
        # _PIECE_GROWTH up to the cap 80^2 // 7 = 914 and end with the rest
        # of the run.
        n = 80
        S = np.eye(n)
        S[0, 1:8] = S[1:8, 0] = 0.3
        S[n - 2, n - 1] = S[n - 1, n - 2] = 0.9
        m = n * (n - 1) // 2
        w0 = np.zeros(m)
        w0[:7] = 0.01
        with batched_path(size=8):
            state = init_state(S, *all_pairs(n), w0, q0=1.0, q_min=1e-4)
        calls = []

        def recording(M, idx_i, idx_j):
            calls.append((len(idx_i), state._k))
            return pair_quadratic(M, idx_i, idx_j)

        monkeypatch.setattr(covgraph.solver, "pair_quadratic", recording)
        sweep_edges(state)
        lengths = [length for length, _ in calls]
        assert {k for _, k in calls} == {7}
        # The rule of _sweep_zero_run: a piece leaves no tail shorter than
        # _MIN_SCAN_RUN, and the cap cuts it.
        cap = n * n // 7
        expected = []
        piece, left = _FIRST_PIECE, m - 7
        while left >= _MIN_SCAN_RUN:
            expected.append(min(piece if left >= piece + _MIN_SCAN_RUN else left, cap))
            left -= expected[-1]
            piece *= _PIECE_GROWTH
        assert lengths == expected
        assert _FIRST_PIECE * _PIECE_GROWTH in lengths and cap in lengths
        assert max(lengths) <= cap
        assert np.flatnonzero(state.w).tolist() == [0, 1, 2, 3, 4, 5, 6, m - 1]

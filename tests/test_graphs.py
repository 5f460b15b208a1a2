"""Graph container, validation, and Laplacian algebra tests."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgraph import (
    CovarianceMatrix,
    GraphValidationError,
    LearnConfig,
    all_pairs,
    as_covariance,
    bound_curves,
    build_graph,
    compute_gft,
    incidence_vector,
    joint_model_psd,
    laplacian,
    run_experiment,
    sample_locations,
    sample_stationary_signals,
)
from covgraph.graphs import laplacian_from_pairs
from covgraph.solver import init_state
from _support import assert_pair_set
from oracles import assemble_model_matrix, build_graph_loop, laplacian_add_at


@st.composite
def sorted_weighted_pairs(draw, max_n=12):
    """(n, (idx_i, idx_j), w): a random subset of all_pairs(n) in sorted
    order, with nonnegative weights spanning many magnitudes so summation
    order shows."""
    n = draw(st.integers(1, max_n))
    idx_i, idx_j = all_pairs(n)
    keep = np.array(draw(st.lists(st.booleans(), min_size=len(idx_i), max_size=len(idx_i))), dtype=bool)
    weight = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False)
    w = draw(st.lists(weight, min_size=int(keep.sum()), max_size=int(keep.sum())))
    return n, (idx_i[keep], idx_j[keep]), w


@st.composite
def raw_edge_lists(draw):
    """(n, edges, q): an edge list mixing flipped, zero, duplicate,
    self-loop, out-of-range, negative and non-finite entries, now and then
    a non-integer endpoint, as tuples or as an (m, 3) array; and a q of
    importances against the floor 0.01, or None."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda p: (p[0], (p[0] + p[1]) % n))
    weight = st.one_of(st.just(0.0), st.floats(1e-300, 1e6))
    edge = st.builds(lambda p, w: (*p, w), pair, weight)
    if draw(st.booleans()):
        endpoint = st.one_of(
            st.integers(-2, n + 1),
            st.integers(0, n - 1).map(float),
            st.sampled_from([0.5, 1.9, -0.5, np.nan, np.inf, -np.inf]),
        )
        weight = st.sampled_from([0.0, -0.0, -1.5, np.nan, np.inf, -np.inf, 2.5])
        edge = st.one_of(edge, edge, st.tuples(endpoint, endpoint, weight))
    edges = draw(st.lists(edge, max_size=10))
    if edges and draw(st.booleans()):
        edges = np.array(edges, dtype=float)
    q = draw(st.one_of(st.none(), st.lists(st.floats(0.005, 2.0), min_size=n, max_size=n)))
    return n, edges, q


def _built(build, n, edges, q):
    try:
        edges, q = build(n, edges, q=q, q_min=None if q is None else 0.01)
    except GraphValidationError as exc:
        return str(exc)
    return repr(edges), None if q is None else np.asarray(q).tobytes()


def _graph_parts(n, edges, q=None, q_min=None):
    graph = build_graph(n, edges, q=q, q_min=q_min)
    return graph.edges, graph.q


class TestBuildGraph:
    def test_minimal_valid_graph(self):
        g = build_graph(2, [(0, 1, 1.0)], q=[1.0, 1.0], q_min=0.01)
        assert g.n == 2
        assert g.edges == ((0, 1, 1.0),)
        assert g.q_min == 0.01

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            build_graph(2, [(0, 0, 1.0)], q=[1.0, 1.0], q_min=0.01)

    def test_zero_weight_edges_dropped(self):
        g = build_graph(3, [(0, 1, 0.0), (1, 2, 0.5)], q=[1, 1, 1], q_min=0.01)
        assert g.edges == ((1, 2, 0.5),)

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphValidationError, match="negative weight"):
            build_graph(2, [(0, 1, -0.5)], q=[1, 1], q_min=0.01)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicate edge"):
            build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)], q=[1, 1, 1], q_min=0.01)

    def test_q_below_floor_rejected(self):
        with pytest.raises(GraphValidationError, match="below the floor"):
            build_graph(2, [(0, 1, 1.0)], q=[1.0, 0.001], q_min=0.01)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(GraphValidationError, match="outside"):
            build_graph(2, [(0, 2, 1.0)], q=[1, 1], q_min=0.01)

    def test_edges_canonicalized_and_sorted(self):
        g = build_graph(4, [(3, 2, 1.0), (1, 0, 2.0)], q=np.ones(4), q_min=0.01)
        assert g.edges == ((0, 1, 2.0), (2, 3, 1.0))

    def test_graph_without_importances(self):
        g = build_graph(2, [(0, 1, 1.0)])
        assert g.q is None and g.q_min is None

    def test_q_without_q_min_rejected(self):
        with pytest.raises(GraphValidationError, match="together"):
            build_graph(2, [(0, 1, 1.0)], q=[1, 1])

    def test_graph_is_immutable(self):
        g = build_graph(2, [(0, 1, 1.0)], q=[1.0, 1.0], q_min=0.01)
        with pytest.raises(ValueError):
            g.q[0] = 5.0

    @pytest.mark.parametrize("edge, named", [
        ((0.5, 1, 0.3), "(0.5, 1.0)"),
        ((1, 1.9, 0.2), "(1.0, 1.9)"),
        ((np.nan, 1, 0.3), "(nan, 1.0)"),
        ((0, np.inf, 0.3), "(0.0, inf)"),
        ((-np.inf, 2, 0.3), "(-inf, 2.0)"),
    ])
    def test_non_integer_endpoint_rejected(self, edge, named):
        # Endpoints were once truncated: (1.9, 2) loaded as edge (1, 2).
        with pytest.raises(GraphValidationError, match=rf"edge {re.escape(named)} has a non-integer endpoint"):
            build_graph(3, [(0, 2, 1.0), edge, (1, 2, 0.2)])

    def test_integral_float_endpoints_and_arrays_accepted(self):
        rows = np.array([[2.0, 1.0, 0.5], [0.0, 2.0, 0.0], [0.0, 1.0, 1.5]])
        expected = ((0, 1, 1.5), (1, 2, 0.5))
        assert build_graph(3, rows).edges == expected
        assert build_graph(3, [tuple(r) for r in rows]).edges == expected
        assert build_graph(3, np.array([[2, 1, 1], [0, 1, 3]])).edges == ((0, 1, 3.0), (1, 2, 1.0))

    def test_malformed_rows_rejected(self):
        with pytest.raises(GraphValidationError, match="triples"):
            build_graph(3, [(0, 1)])
        with pytest.raises(GraphValidationError, match="triples"):
            build_graph(3, [0, 1, 0.5])

    @settings(max_examples=400, deadline=None)
    @given(raw_edge_lists())
    def test_matches_the_edge_loop(self, case):
        n, edges, q = case
        rows = [tuple(float(v) for v in e) for e in edges]
        whole = [all(np.isfinite(v) and v == int(v) for v in e[:2]) for e in rows]
        if all(whole):
            assert _built(_graph_parts, n, edges, q) == _built(build_graph_loop, n, edges, q)
            return
        # The loop truncated a non-integer endpoint; the builder names the
        # first such edge unless an earlier edge has a fault of its own.
        k = whole.index(False)
        expected = _built(build_graph_loop, n, rows[:k], None)
        if not isinstance(expected, str) or expected.startswith("duplicate"):
            i, j, _ = rows[k]
            expected = f"edge ({i}, {j}) has a non-integer endpoint"
        assert _built(_graph_parts, n, edges, q) == expected


class TestLaplacian:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1, 1.0)], q=[1, 1], q_min=0.01)
        np.testing.assert_array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_empty_graph_is_zero(self):
        g = build_graph(3, [], q=np.ones(3), q_min=0.01)
        np.testing.assert_array_equal(laplacian(g), np.zeros((3, 3)))

    def test_three_node_path(self):
        g = build_graph(3, [(0, 1, 2.0), (1, 2, 3.0)], q=np.ones(3), q_min=0.01)
        L = laplacian(g)
        # Direct evaluation of degree-minus-adjacency.
        np.testing.assert_array_equal(L, [[2, -2, 0], [-2, 5, -3], [0, -3, 3]])
        np.testing.assert_array_equal(L.sum(axis=1), np.zeros(3))

    def test_matches_incidence_expansion(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        edges.append((i, j, float(rng.uniform(0.1, 3.0))))
            g = build_graph(n, edges, q=np.ones(n), q_min=0.01)
            L = laplacian(g)
            expansion = np.zeros((n, n))
            for i, j, w in g.edges:
                b = incidence_vector(n, i, j)
                expansion += w * np.outer(b, b)
            np.testing.assert_allclose(L, expansion, atol=1e-12)
            assert np.linalg.eigvalsh(L).min() >= -1e-10

    def test_constant_vector_annihilated_exactly(self):
        # Dyadic weights keep every partial sum exact, so the row-sum
        # cancellation of the constant vector holds with no rounding at all.
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        edges.append((i, j, float(rng.integers(1, 512)) / 256.0))
            g = build_graph(n, edges, q=np.ones(n), q_min=0.01)
            L = laplacian(g)
            np.testing.assert_array_equal(L @ np.ones(n), np.zeros(n))
            np.testing.assert_array_equal(L, L.T)

    @settings(max_examples=200, deadline=None)
    @given(sorted_weighted_pairs())
    def test_from_pairs_bit_identical_to_loop_assembly(self, case):
        n, pairs, w = case
        L = laplacian_from_pairs(n, *pairs, w)
        expected = assemble_model_matrix(n, zip(*pairs), w)
        assert L.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_from_pairs_bit_identical_to_add_at(self, data):
        # Any order of distinct pairs, weights of either sign and many zeros.
        n = data.draw(st.integers(1, 12))
        all_i, all_j = all_pairs(n)
        order = data.draw(st.permutations(range(len(all_i))))
        order = np.array(order[: data.draw(st.integers(0, len(order)))], dtype=int)
        weight = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))
        w = data.draw(st.lists(weight, min_size=len(order), max_size=len(order)))
        idx_i, idx_j = all_i[order], all_j[order]
        L = laplacian_from_pairs(n, idx_i, idx_j, w)
        assert L.tobytes() == laplacian_add_at(n, idx_i, idx_j, w).tobytes()


class TestIncidenceVector:
    def test_first_pair(self):
        np.testing.assert_array_equal(incidence_vector(3, 0, 1), [1.0, -1.0, 0.0])

    def test_second_pair(self):
        np.testing.assert_array_equal(incidence_vector(3, 1, 2), [0.0, 1.0, -1.0])

    def test_unit_norm_squared_is_two(self):
        for n in (2, 5):
            for i in range(n):
                for j in range(i + 1, n):
                    b = incidence_vector(n, i, j)
                    assert b @ b == 2.0

    def test_requires_ordered_pair(self):
        with pytest.raises(GraphValidationError):
            incidence_vector(3, 2, 1)


class TestCovarianceMatrix:
    def test_accepts_valid(self):
        cov = CovarianceMatrix(entries=[[2.0, 0.5], [0.5, 1.0]])
        assert cov.n == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphValidationError, match="symmetric"):
            CovarianceMatrix(entries=[[1.0, 0.5], [0.4, 1.0]])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(GraphValidationError, match="diagonal"):
            CovarianceMatrix(entries=[[1.0, 0.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(GraphValidationError, match="square"):
            CovarianceMatrix(entries=np.ones((2, 3)))

    def test_as_covariance_passthrough(self):
        cov = CovarianceMatrix(entries=np.eye(3))
        assert as_covariance(cov) is cov
        assert as_covariance(np.eye(3)).n == 3


def test_all_pairs_sorted():
    assert_pair_set(all_pairs(3), [(0, 1), (0, 2), (1, 2)])
    assert all(len(idx) == 50 * 49 // 2 for idx in all_pairs(50))


@settings(max_examples=31, deadline=None)
@given(st.integers(0, 30))
def test_all_pairs_is_the_double_loop(n):
    assert_pair_set(all_pairs(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_pair_arrays_are_the_stored_edges():
    g = build_graph(4, [(2, 3, 1.0), (0, 2, 0.5), (1, 0, 2.0)])
    assert_pair_set((g.idx_i, g.idx_j), [(0, 1), (0, 2), (2, 3)])
    assert g.w.tolist() == [2.0, 0.5, 1.0] and g.w.dtype == float
    assert g.edges == ((0, 1, 2.0), (0, 2, 0.5), (2, 3, 1.0)) and g.m == 3
    assert all(type(i) is int and type(w) is float for i, _, w in g.edges)
    for field in (g.idx_i, g.idx_j, g.w):
        with pytest.raises(ValueError):
            field[0] = 1
    empty = build_graph(3, [])
    assert_pair_set((empty.idx_i, empty.idx_j), [])
    assert empty.w.shape == (0,) and empty.edges == ()


def _signals(count, seed=0):
    spectrum = compute_gft(laplacian(build_graph(2, [(0, 1, 1.0)])), np.ones(2))
    return sample_stationary_signals(spectrum, joint_model_psd, count, seed)


# Every count a library call takes, seeds included: the call, the count's
# least value and the error of the module.
COUNTS = {
    "build_graph n": (lambda v: build_graph(v, []), 1, GraphValidationError),
    "max_epochs": (lambda v: LearnConfig(max_epochs=v), 1, GraphValidationError),
    "run_experiment n": (lambda v: run_experiment([0.5], n=v, trials=1), 2, GraphValidationError),
    "trials": (lambda v: run_experiment([0.5], n=3, trials=v), 1, GraphValidationError),
    "parallel": (lambda v: run_experiment([0.5], n=3, trials=1, parallel=v), 1, GraphValidationError),
    "base_seed": (lambda v: run_experiment([0.5], n=3, trials=1, base_seed=v), 0, GraphValidationError),
    "sample_locations n": (lambda v: sample_locations(v, 0), 2, GraphValidationError),
    "steps": (lambda v: bound_curves([0.1], steps=v), 1, GraphValidationError),
    "count": (_signals, 1, ValueError),
    "sample_locations seed": (lambda v: sample_locations(3, v), 0, GraphValidationError),
    "signals seed": (lambda v: _signals(1, v), 0, ValueError),
}


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("value", [2.5, 3.7, 3.0, np.float64(3.0), True, False, "3", None])
def test_counts_reject_anything_but_an_integer(name, value):
    # A count is never truncated: a float, even an integral one, and a bool
    # fail with the module's error before any work is done.
    call, _, error = COUNTS[name]
    with pytest.raises(error, match="must be an integer") as raised:
        call(value)
    assert type(raised.value) is error


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint8])
def test_counts_accept_python_and_numpy_integers(name, kind):
    call, least, error = COUNTS[name]
    call(kind(least))
    with pytest.raises(error, match="must be an integer >= "):
        call(least - 1)


# Both calls that take importances with their floor, checked by one rule.
IMPORTANCES = {
    "build_graph": lambda q, q_min: build_graph(3, [], q=q, q_min=q_min),
    "init_state": lambda q, q_min: init_state(np.eye(3), *all_pairs(3), np.ones(3), q0=q, q_min=q_min),
}


@pytest.mark.parametrize("name", IMPORTANCES)
@pytest.mark.parametrize("q, q_min, message", [
    ([1.0, 1.0, 1.0], "0.01", "q_min must be positive and finite, got '0.01'"),
    ([1.0, 1.0, 1.0], np.inf, "q_min must be positive and finite, got inf"),
    ([1.0, 1.0, 1.0], 0.0, "q_min must be positive and finite, got 0.0"),
    ([1.0, 1.0, 1.0], True, "q_min must be positive and finite, got True"),
    ([1.0, 1.0], 0.01, "q must have length 3, got shape (2,)"),
    ([1.0, np.nan, 1.0], 0.01, "q contains non-finite entries"),
    ([0.005, 1.0, 0.001], 0.01, "importance q[2]=0.001 is below the floor q_min=0.01"),
])
def test_importances_are_checked_against_their_floor(name, q, q_min, message):
    with pytest.raises(GraphValidationError, match=f"^{re.escape(message)}$"):
        IMPORTANCES[name](q, q_min)

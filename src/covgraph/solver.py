"""Coordinate-minimization engine over a maintained dense inverse.

The learning problem of both methods is defined here once, by
:func:`model_matrix` (diag(q) + L in joint mode, L + J/n with J all-ones
in baseline mode, ``q=None``) and :func:`model_objective`; the solver state
tracks the inverse ``phi`` of the model matrix and applies
single-coordinate updates. Each applied update changes the model
matrix by a rank-one term ``delta * v v^T``, so ``phi`` is maintained with
the Sherman-Morrison identity

    phi' = phi - delta * (phi v)(phi v)^T / (1 + delta * v^T phi v)

at O(n^2) per update, and the objective change has the closed form
``delta * cost - log(1 + delta * quad)`` where ``quad`` is the current
quadratic form of the coordinate in phi. Quadratic forms of incidence
vectors are read directly off phi entries. Every update writes its
rank-one term into one n x n buffer owned by the state and subtracts it
from phi in place, so no update allocates an n x n array. The product
v_a * v_b is formed by ``np.einsum("i,j->ij", ...)``, the one multiply
per element of ``np.outer``; with it a whole update takes about two thirds
of the time of a broadcast ``np.multiply(v[:, None], v)`` at n = 100 and
200 (Intel Xeon, numpy 2.4). The update calls the C function behind
``np.einsum`` directly, without the wrapper's per-call cost, and falls back
to ``np.einsum`` where numpy does not have it at that path; both give the
same bytes. :func:`_rank_one_update` says why the result is bit-identical.
The per-coordinate updates read their scalars off phi as Python floats,
whose IEEE arithmetic is numpy's, and divide by a zero as numpy does.

The joint method learns sparse graphs, so most edge coordinates sit at
w = 0 and do not move. An edge sweep therefore tests each run of
zero-weight edges in pieces, one numpy step each (on the immediate path a
gather of phi's flat indices), with the per-edge arithmetic, hands the
first edge that moves to the per-edge update and tests the rest of the run
again; the sweep order and the arithmetic of every step it tests are those
of visiting one edge at a time. A piece
starts short after every edge that moves and grows geometrically while
none does, so an edge that moves soon wastes little of the piece.

From n = ``_MIN_BATCH_N`` on, updates are batched: an update does not
touch phi but is kept pending as a row v_k, with its coefficient c_k, of a
``_BATCH_SIZE`` x n array P, so the inverse is ``phi - P^T diag(c) P``.
Reads go through small corrections: an effective resistance is
``r - sum_k c_k (v_k[i] - v_k[j])^2``, a row is ``phi[i] - (c * P[:, i]) @ P``.
Once ``_BATCH_SIZE`` updates are pending, one matrix product
``phi -= (P^T c) @ P`` applies them all; reading ``state.phi``,
:func:`refresh_phi` and the start of each sweep apply them first, so every
sweep starts its first batch at its first update. The update order, the
clamps and the steps are those of the immediate path, but sums are rounded
in another order, so results agree only within rounding. At n = 200 a
batched joint learn takes about a third of the time: a flush streams phi
through memory once for 32 updates. Below ``_MIN_BATCH_N`` the corrections
cost more than they save, and every update is applied at once,
bit-identical to ``c * np.outer(v, v)``.

:func:`clamp_step` sets to zero, at once, every weight that its coordinate
step would clamp. :func:`newton_step` takes a projected Newton step over
all coordinates at once. Its Hessian over the free coordinates is G o G
with G = U^T phi U; when the free set is small, as on a sparse joint graph,
that block is formed once per step by gathers of phi
(:func:`hessian_block`), and otherwise each product with it is two n x n
matrix products (:func:`hessian_product`), between one ``np.bincount``
that forms the coordinates' matrix D and one gather that reads H d off the
result, both from flat indices built once per step.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, log1p, sqrt

import numpy as np

from .graphs import GraphValidationError, as_covariance, as_importances, laplacian_from_pairs

try:
    # The C function that np.einsum calls unoptimized, without its Python
    # wrapper; private API, at this path from numpy 2 on.
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

# Smallest allowed determinant factor for a baseline edge update; stepping
# past it would make L + J/n numerically singular (disconnected graph).
BASELINE_SINGULARITY_TOL = 1e-10

# Shortest run of zero-weight edges that sweep_edges tests in one numpy
# step; shorter runs go through the per-edge loop, which is faster for them.
# Break-even, measured on an Intel Xeon with numpy 2.4 at n = 50 and 200:
# a scan costs about 6.5 us whatever the run length up to 16 edges, a
# per-edge visit that does not move about 1 us, so a scan pays from about
# 7 edges on; on joint desk states (n = 50) minimums of 4 to 12 tied and
# 16 or more lost part of the gain.
_MIN_SCAN_RUN = 8

# Length of a zero-run scan's first piece, and of its first piece after each
# edge that moves; each piece without a mover is _PIECE_GROWTH times longer
# than the one before, up to _piece_length. Measured on an Intel Xeon with
# numpy 2.4 at n = 200: a piece costs about 11 us plus 0.003 us per edge and
# pending update up to 512 edges, and 706 us for 2,048 edges at 31 pending.
# Over one joint-large learn, pieces always as long as _piece_length read
# 1.55 M resistances in 5,371 pieces; starting at 128 and doubling reads
# 0.32 M in 5,470, while starts of 32 and 64 take 33 % and 10 % more pieces.
# The first edge sweep after the initial one fell from 101-124 ms to 36-42 ms
# (minimum of 9 on one saved state). On the 35 joint desk requests (n = 50)
# the pieces fall from 3.07 M to 1.46 M resistances, in 69,005 pieces
# against 68,955.
_FIRST_PIECE = 128
_PIECE_GROWTH = 2

# Smallest n from which updates are batched (see the module docstring), and
# the number of pending updates that one flush applies. Break-even, measured
# as the time of a batched learn over an immediate one (joint, kernel init,
# trial 0, Intel Xeon, numpy 2.4, 1 BLAS thread, medians of 3 alternating
# runs): n = 100 0.94 (r = 0.1) and 1.05 (r = 1), n = 112 0.71 and 0.92,
# n = 128 0.77 and 0.87, n = 200 (r = 1) 0.53. The bit-identity tests run up
# to n = 101 on the immediate path. At n = 200, batches of 16, 32 and 64 took
# 8.3, 7.2 and 6.9 s (medians of 2), 64 within the spread of 32's runs.
_MIN_BATCH_N = 112
_BATCH_SIZE = 32

# Importances are clamped to the floor exactly, so "at the floor" is an
# equality test with a tiny absolute guard.
FLOOR_TOL = 1e-12

# Relative residual at which newton_step stops its conjugate-gradient solve,
# and the most iterations it runs. Measured on an Intel Xeon with numpy 2.4
# and 1 BLAS thread, one run each, certified at a KKT residual of 1e-8: with
# tolerances 1e-1, 1e-2, 1e-3 and 1e-4 the 35 joint desk requests took 7.7,
# 7.3, 6.8 and 7.9 s in all and one joint-large learn 1.3, 1.1-1.3, 1.1-1.3
# and 1.2-1.4 s, so the tolerance barely matters. A product with the dense
# free-block Hessian costs 0.1 ms at n = 200 and 562 free coordinates (a
# matrix-free one 0.94 ms), and joint-large runs 35-50 of them a round.
# Only the hardest baseline steps reach the iteration cap (criterion-8
# trial 6 at r = 0.2, 383 edges).
_CG_TOL = 1e-3
_CG_MAX_ITER = 200

# newton_step forms the dense Hessian of the free coordinates when there are
# at most this many per vertex, and multiplies matrix-free above. Measured on
# an Intel Xeon with numpy 2.4 and 1 BLAS thread (minimum of 3 runs, random
# free sets): at k = 4n free coordinates the build takes 0.16, 0.68 and
# 3.2 ms at n = 50, 100 and 200, a dense product 0.004, 0.026 and 0.23 ms
# and a matrix-free one 0.034, 0.13 and 0.73 ms, so the dense path wins
# from 5-7 CG iterations on; at 6n it needs 21-245 and from 8n it never
# wins, as the k x k matrix outgrows the cache (5.1 MB at n = 200 and 4n,
# against 0.3 MB for phi at n = 200). Over the 35 joint desk requests and
# one joint-large learn, ratios of 2, 4, 6 and 8 took 3.9, 3.6, 3.8 and
# 3.9 s and 1.1-1.3, 0.82-0.88, 0.74-0.87 and 0.70-0.81 s. Joint-large
# holds 2.5-2.8n free coordinates; the desk requests 2.3-3.3n at r = 1,
# 3.6-6.5n at r = 0.2 and 9-23n at r <= 0.02.
_DENSE_HESSIAN_RATIO = 4

# Armijo constant and backtracking factor of newton_step's line search, and
# the most trial points it evaluates before it gives the step up.
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_MAX_TRIALS = 30

# Rounding allowance of model_objective, in units of eps * |objective|: a
# full Newton step whose predicted decrease is below it is accepted when the
# objective rises by at most it (newton_step). Measured on the certified
# optima of the 35 joint and 35 baseline desk problems (n = 50) and of
# joint-large (n = 200): model_objective of one point under 20 random vertex
# permutations, which leave its exact value as it is, spread by up to 53
# units (median 2.3) and lay up to 42 units from the unpermuted value. 100
# is about twice that. Without the rule the Armijo test at the floor decides
# at random: with an allowance of 0 the uniform and kernel starts of
# criterion-8 joint trial 6 at r = 0.02 (n = 50) kept different weights
# above 1e-10, and with 10 to 1000 the same. On the desk problems
# allowances of 0, 10 and 30 took 297, 300 and 300 Newton rounds (joint)
# and 306, 310 and 310 (baseline), and 100, 300 and 1000 took 301 and 310.
ROUNDING_ALLOWANCE = 100.0
_EPS = float(np.finfo(float).eps)


class SingularModelError(RuntimeError):
    """The baseline model matrix L + J/n is (numerically) singular."""


@dataclass
class CoordinateUpdate:
    """Record of one applied coordinate update.

    ``cost`` is the data-side coefficient of the coordinate (edge cost or
    vertex variance); ``effective`` is its quadratic form in the maintained
    inverse (effective resistance or effective importance), taken before
    the update was applied.
    """

    target: tuple
    delta: float
    cost: float
    effective: float


class SolverState:
    """Mutable single-owner state of one coordinate-minimization run, built
    by :func:`init_state`, which validates the inputs and gives the state
    its own pair set, weights and importances; ``pairs`` repeats the pair
    set as int tuples for the per-edge loops. ``q is None`` selects the
    baseline model."""

    def __init__(self, S, idx_i, idx_j, w, q, q_min):
        self.S = S
        self.n = S.shape[0]
        self.idx_i, self.idx_j = idx_i, idx_j
        self.pairs = list(zip(idx_i.tolist(), idx_j.tolist()))
        self.w = w
        self.q = q
        self.q_min = q_min
        self.edge_costs = edge_cost(S, self.idx_i, self.idx_j)
        self._inv_costs = 1.0 / self.edge_costs
        self._sdiag = np.diag(S).copy()
        self._outer = np.empty((self.n, self.n))
        # Batched path: rows v_k and coefficients c_k of the pending updates;
        # phi is ``_phi - sum_k c_k v_k v_k^T``. None on the immediate path.
        batched = self.n >= _MIN_BATCH_N
        self._pending = np.empty((_BATCH_SIZE, self.n)) if batched else None
        self._coef = np.empty(_BATCH_SIZE) if batched else None
        # Immediate path: the flat indices of phi_ii, phi_jj and phi_ij of
        # each pair, for the zero-run scan's one gather. None when batched,
        # where they would be 3 x m ints (478 KB at n = 200) and unused.
        n = self.n
        self._flat = None if batched else np.stack([idx_i * (n + 1), idx_j * (n + 1), idx_i * n + idx_j])
        self.phi = None
        self.objective = None
        self.epoch_counter = 0
        self.max_refresh_drift = 0.0
        self.singularity_clips = 0
        self.newton_rounds = 0
        self.cg_iterations = 0
        self.failed_line_searches = 0

    @property
    def phi(self):
        """The inverse of the model matrix, with every pending update applied."""
        _flush(self)
        return self._phi

    @phi.setter
    def phi(self, value):
        # A phi set from scratch has no update pending or applied since.
        self._phi = value
        self._k = 0
        self.updates_since_refresh = 0

    @property
    def m(self) -> int:
        return len(self.pairs)

    def laplacian(self) -> np.ndarray:
        return laplacian_from_pairs(self.n, self.idx_i, self.idx_j, self.w)

    def model_matrix(self) -> np.ndarray:
        return model_matrix(self.laplacian(), self.q)


def model_matrix(L, q=None) -> np.ndarray:
    """diag(q) + L in joint mode; L + J/n in baseline mode (``q=None``)."""
    return L + 1.0 / L.shape[0] if q is None else L + np.diag(q)


def model_objective(L, q, S) -> float:
    """-logdet(model_matrix(L, q)) + data trace term.

    The trace term is trace((diag(q)+L) S) in joint mode and trace(L S) in
    baseline mode (the J/n shim enters only the log-determinant).
    """
    theta = model_matrix(L, q)
    sign, logdet = np.linalg.slogdet(theta)
    if sign <= 0:
        raise SingularModelError("model matrix is not positive definite")
    return -logdet + float(np.sum((L if q is None else theta) * S))


def pair_quadratic(M, idx_i, idx_j) -> np.ndarray:
    """M_ii + M_jj - 2 M_ij for each pair: the quadratic form of the pair's
    incidence vector in M (edge cost on S, effective resistance on phi).

    The diagonal is read as a view (``M.diagonal()``), which saves a copy
    of it on every step of the zero-run scan."""
    d = M.diagonal()
    return d[idx_i] + d[idx_j] - 2.0 * M[idx_i, idx_j]


def edge_cost(S, i, j):
    """Quadratic form of the edge's incidence vector in S (an array of them
    when ``i`` and ``j`` are index arrays).

    Equals S_ii + S_jj - 2 S_ij and must be strictly positive; a zero or
    negative value means the two variables are perfectly correlated, which
    no valid covariance for this model admits.
    """
    idx_i, idx_j = np.atleast_1d(i), np.atleast_1d(j)
    h = pair_quadratic(np.asarray(S), idx_i, idx_j)
    bad = np.flatnonzero(h <= 0)
    if bad.size:
        k = bad[0]
        raise GraphValidationError(
            f"edge cost for pair ({idx_i[k]}, {idx_j[k]}) is {float(h[k])}; "
            "covariance is degenerate"
        )
    return h if np.ndim(i) else float(h[0])


def _is_connected(L) -> bool:
    """Whether the graph of Laplacian ``L`` (its nonzero off-diagonal
    pattern) is connected: a breadth-first search, one frontier at a time."""
    adjacent = L != 0
    seen = np.zeros(L.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def model_inverse(L, q=None) -> np.ndarray:
    """Symmetrized inverse of ``model_matrix(L, q)``, computed from scratch.

    The baseline L + J/n (``q=None``) is singular exactly when the graph is
    disconnected, which raises :class:`SingularModelError`, as does a failed
    Cholesky factorization. Connectivity is searched on L, not left to
    Cholesky: rounding leaves a small positive last pivot often enough that
    it accepted 2,908 of 20,000 random disconnected graphs (n = 2-59, two to
    five components), and the empty n = 2 graph.
    """
    theta = model_matrix(L, q)
    if q is None:
        if not _is_connected(L):
            raise SingularModelError("baseline model L + J/n is singular: graph not connected")
        try:
            np.linalg.cholesky(theta)
        except np.linalg.LinAlgError as exc:
            raise SingularModelError("baseline model L + J/n is numerically singular") from exc
    phi = np.linalg.inv(theta)
    return (phi + phi.T) / 2.0


def init_state(S, idx_i, idx_j, w0, q0=None, q_min=None) -> SolverState:
    """Build a solver state with phi from direct dense inversion.

    ``(idx_i, idx_j)`` is the active pair set in the form that
    :func:`covgraph.graphs.all_pairs` gives (i < j, no duplicates) and
    ``w0`` its initial weights. Passing ``q0`` selects joint mode (then
    ``q_min`` is required and q0 must respect it); ``q0=None`` selects
    baseline mode, which requires the initial graph to be connected.
    """
    cov = as_covariance(S)
    S = cov.entries
    n = cov.n

    idx_i, idx_j = np.asarray(idx_i), np.asarray(idx_j)
    if idx_i.ndim != 1 or idx_i.shape != idx_j.shape or {idx_i.dtype.kind, idx_j.dtype.kind} - {"i", "u"}:
        got = f"{idx_i.dtype} {idx_i.shape} and {idx_j.dtype} {idx_j.shape}"
        raise GraphValidationError(f"active pairs must be two 1-D int arrays of equal length, got {got}")
    idx_i, idx_j = idx_i.astype(int), idx_j.astype(int)
    m = len(idx_i)
    # The first pair out of order or range, or equal to an earlier pair,
    # is named; keys of out-of-range pairs are distinct negatives.
    in_range = (0 <= idx_i) & (idx_i < idx_j) & (idx_j < n)
    keys = np.where(in_range, idx_i * n + idx_j, -1 - np.arange(m))
    repeated = np.ones(m, dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    bad = np.flatnonzero(~in_range | repeated)
    if bad.size:
        k = bad[0]
        i, j = int(idx_i[k]), int(idx_j[k])
        if in_range[k]:
            raise GraphValidationError(f"duplicate active pair ({i}, {j})")
        raise GraphValidationError(f"active pair ({i}, {j}) must satisfy 0 <= i < j < n")

    w0 = np.broadcast_to(np.asarray(w0, dtype=float), (m,)).copy()
    if np.any(~np.isfinite(w0)) or np.any(w0 < 0):
        raise GraphValidationError("initial edge weights must be finite and nonnegative")

    q0, q_min = (None, None) if q0 is None else as_importances(q0 if np.ndim(q0) else np.full(n, q0), n, q_min)

    state = SolverState(S, idx_i, idx_j, w0, q0, q_min)
    refresh_phi(state)
    return state


def evaluate_objective(state) -> float:
    """Objective of the state's current weights, recomputed directly."""
    return model_objective(state.laplacian(), state.q, state.S)


def refresh_phi(state) -> float:
    """Recompute phi by direct dense inversion, and the cached objective,
    flushing the rounding of long runs of rank-one updates. Returns the
    max-abs drift of phi and keeps the run's largest on
    ``state.max_refresh_drift``."""
    L = state.laplacian()
    phi = model_inverse(L, state.q)
    drift = 0.0 if state.phi is None else float(np.max(np.abs(phi - state.phi), initial=0.0))
    state.max_refresh_drift = max(state.max_refresh_drift, drift)
    state.phi = phi
    state.objective = model_objective(L, state.q, state.S)
    return drift


def above_floor(q, q_min) -> np.ndarray:
    """Which importances ``q`` sit strictly above the floor ``q_min``: the
    free importance coordinates of the joint model."""
    return q > q_min + FLOOR_TOL


def _stationarity(steps, free):
    """(steps, free, residual), the residual being the largest |step| over
    free coordinates and positive step over bound ones."""
    residual = np.where(free, np.abs(steps), np.maximum(steps, 0.0))
    return steps, free, float(np.max(residual, initial=0.0))


def coordinate_steps(phi, idx_i, idx_j, h, w, p=None, q=None, q_min=None):
    """Exact coordinate steps at the model inverse ``phi``, before any clamp:
    1/h - 1/r for pairs (idx_i, idx_j) of edge costs ``h``, free when their
    weights ``w`` are positive, and in joint mode (``q`` given) 1/p - 1/phi_ii
    for vertices of variances ``p``, free when :func:`above_floor`. Returns
    ``(r, edges, vertices)``: the resistances r and a ``(steps, free,
    residual)`` triple per block (no vertices in baseline mode), the
    residual being the largest step that stationarity forbids."""
    r = pair_quadratic(phi, idx_i, idx_j)
    if q is None:
        vertices = np.zeros(0), np.zeros(0, dtype=bool)
    else:
        vertices = 1.0 / p - 1.0 / phi.diagonal(), above_floor(q, q_min)
    return r, _stationarity(1.0 / h - 1.0 / r, w > 0.0), _stationarity(*vertices)


def certificate(state):
    """(KKT residual, duality gap) of the state, read off its phi in one pass
    over the pairs. On a freshly refreshed phi they certify the state; on a
    maintained one they carry its rounding drift.

    The residual is that of :func:`coordinate_steps`, over the state's pairs
    where :func:`covgraph.verify.kkt_report` takes all pairs. The gap bounds
    the objective's distance to the optimum from above. By Fenchel duality,
    -logdet Theta >= logdet X + n - tr(Theta X) for every X > 0, and X is
    dual feasible when r_e(X) <= h_e on every pair and, in the joint model,
    X_ii <= S_ii. Scaling phi by t = max(1, max r_e / h_e, max phi_ii / S_ii)
    makes it feasible, and the gap at X = phi / t is

        tr(Theta S) - n + n log t - q_min sum_i (S_ii - phi_ii / t)  (joint)
        tr(L S) - n + n log t + 1 / t                                (baseline)

    with tr(Theta S) = sum q_i S_ii + sum w_e h_e; the baseline form uses
    1^T phi 1 = n. It is evaluated with n written as tr(Theta phi), that is
    sum q_i phi_ii + sum w_e r_e (joint) or sum w_e r_e + 1 (baseline),
    which leaves n (log t - 1 + 1/t) plus one product per coordinate,
    w_e (h_e - r_e / t) and (q_i - q_min)(S_ii - phi_ii / t). Each of them
    is nonnegative, because X is feasible, and the clamps below drop only
    the rounding of the division by t. The gap is 0 at the optimum, by
    complementary slackness.
    """
    phi = state.phi
    r, (_, _, edge_residual), (_, _, vertex_residual) = coordinate_steps(
        phi, state.idx_i, state.idx_j, state.edge_costs, state.w, state._sdiag, state.q, state.q_min
    )
    residual = max(edge_residual, vertex_residual)
    ratios = [1.0, float(np.max(r / state.edge_costs, initial=0.0))]
    if state.q is not None:
        u = phi.diagonal()
        ratios.append(float(np.max(u / state._sdiag)))
    t = max(ratios)
    gap = state.n * max(log(t) - 1.0 + 1.0 / t, 0.0)
    gap += float(state.w @ np.maximum(state.edge_costs - r / t, 0.0))
    if state.q is not None:
        gap += float((state.q - state.q_min) @ np.maximum(state._sdiag - u / t, 0.0))
    return residual, gap


def _pcg(product, b, inv_diag):
    """Solve H x = b by conjugate gradients preconditioned with the inverse
    diagonal ``inv_diag``; ``product(p)`` returns H p. Stops once the
    residual falls to ``_CG_TOL`` times |b|, after
    ``_CG_MAX_ITER`` iterations, or on a curvature that rounding made
    nonpositive. Returns (x, iterations)."""
    x = np.zeros_like(b)
    res = b.copy()
    z = inv_diag * res
    p = z.copy()
    rz = float(res @ z)
    # sqrt(x @ x) is what np.linalg.norm computes for a 1-D array.
    target = _CG_TOL * sqrt(float(b @ b))
    for it in range(1, _CG_MAX_ITER + 1):
        hp = product(p)
        curvature = float(p @ hp)
        if not curvature > 0.0:
            return x, it
        alpha = rz / curvature
        x += alpha * p
        res -= alpha * hp
        if sqrt(float(res @ res)) <= target:
            return x, it
        z = inv_diag * res
        rz, rz_old = float(res @ z), rz
        p *= rz / rz_old
        p += z
    return x, _CG_MAX_ITER


def coordinate_matrix(n, idx_i, idx_j, vertices):
    """The map d -> D = sum_b d_b u_b u_b^T = L(d_edges) + diag(d_vertices)
    over the edge coordinates of pairs (idx_i, idx_j) followed by the
    importance coordinates ``vertices``, u being the incidence vector of an
    edge or the unit vector of a vertex.

    The scatter indices are built once; each D is then one ``np.bincount``
    over the flat indices of an n x n array. It adds the diagonal's j-side
    terms, then its i-side terms, then the vertices': the summation order of
    :func:`covgraph.graphs.laplacian_from_pairs` followed by
    ``D[v, v] += d_v``, so D is theirs bit for bit. An off-diagonal entry is
    0.0 + (-d_e), which equals their 0.0 - d_e, zeros included.
    """
    k, edges = len(idx_i), np.arange(len(idx_i))
    scatter = np.concatenate([idx_j * (n + 1), idx_i * (n + 1), vertices * (n + 1),
                              idx_i * n + idx_j, idx_j * n + idx_i])
    pick = np.concatenate([edges, edges, k + np.arange(len(vertices)), edges, edges])
    sign = np.repeat([1.0, -1.0], [2 * k + len(vertices), 2 * k])

    def matrix(d):
        return np.bincount(scatter, d[pick] * sign, minlength=n * n).reshape(n, n)

    return matrix


def hessian_product(phi, idx_i, idx_j, vertices):
    """The map d -> H d for the objective's Hessian H over the edge
    coordinates of pairs (idx_i, idx_j) followed by the importance
    coordinates ``vertices``, at the model inverse ``phi``; ``d`` holds one
    entry per coordinate, in that order.

    H_ab = (u_a^T phi u_b)^2, with u the incidence vector of an edge or the
    unit vector of a vertex, so (H d)_a = u_a^T (phi D phi) u_a with D of
    :func:`coordinate_matrix`: two n x n matrix products, read like the
    edge costs and the diagonal, by one gather of flat indices. With the
    indices built once, a product at n = 50 and 650 coordinates takes 23 us,
    against 35 us for forming D by ``laplacian_from_pairs`` and reading M by
    :func:`pair_quadratic` (Intel Xeon, numpy 2.4, 1 BLAS thread, minimum of
    5 x 2,000 products), with the same bytes.
    """
    n, k = phi.shape[0], len(idx_i)
    kv = k + len(vertices)
    matrix = coordinate_matrix(n, idx_i, idx_j, vertices)
    gather = np.concatenate([idx_i * (n + 1), vertices * (n + 1), idx_j * (n + 1), idx_i * n + idx_j])

    def product(d):
        g = (phi @ matrix(d) @ phi).take(gather)
        hd = g[:kv]
        hd[:k] += g[kv : kv + k]
        hd[:k] -= 2.0 * g[kv + k :]
        return hd

    return product


def hessian_block(phi, idx_i, idx_j, vertices) -> np.ndarray:
    """The Hessian H = G o G of :func:`hessian_product` as a dense matrix
    over the same coordinates, in the same order.

    Row a of G = U^T phi U is R_a = u_a^T phi (row i minus row j of phi for
    an edge, row i for a vertex) read at the coordinates: R_a[i] - R_a[j]
    for an edge (i, j), R_a[i] for a vertex. Rows are built in blocks of
    n / 2 coordinates, by gathers alone, so no temporary exceeds n x k / 2:
    one joint-large learn (n = 200, 501-562 free coordinates) peaked at
    50.2 MB with blocks of n rows and at 49.7 MB with n / 2, n / 4 or n / 8
    (47.7-48.1 MB with matrix-free products alone).
    """
    n, k = phi.shape[0], len(idx_i) + len(vertices)
    rows = max(1, n // 2)
    plus = np.concatenate([idx_i, vertices])
    H = np.empty((k, k))
    for start in range(0, k, rows):
        stop = min(start + rows, k)
        R = phi[plus[start:stop]]
        edge_rows = max(0, min(stop, len(idx_j)) - start)
        R[:edge_rows] -= phi[idx_j[start : start + edge_rows]]
        G = R[:, plus]
        G[:, : len(idx_j)] -= R[:, idx_j]
        np.multiply(G, G, out=H[start:stop])
    return H


def newton_step(state):
    """One projected Newton step on all coordinates; returns (step length,
    CG iterations), with step length 0.0 when no trial point passed the line
    search and the state was left as it was.

    Follows Bertsekas's projected Newton method (SIAM J. Control Optim.
    1982) on x = (w, q) >= (0, q_min). The gradient g is read off phi:
    h_e - r_e for an edge and S_ii - phi_ii for an importance. The Hessian
    is G o G with G = U^T phi U, U holding the incidence vectors of the
    pairs and the unit vectors of the vertices, so its diagonal is r_e^2
    and phi_ii^2. A coordinate is free when it is off its bound (w > 0,
    q > q_min) or its gradient points inward; the others stay put. The free
    coordinates take the Newton step d of their block of H, solved by
    conjugate gradients with the Jacobi preconditioner. With at most
    ``_DENSE_HESSIAN_RATIO`` free coordinates per vertex, as on the sparse
    graphs of the joint method, the block is formed once by
    :func:`hessian_block` and each product is one mat-vec with it; above
    that each product is one of :func:`hessian_product`, two n x n matrix
    products. Trial points x(a) = P[x + a d], with P the projection onto
    the bounds, start at a = 1 and shrink by ``_BACKTRACK`` until
    ``model_objective`` falls below its value at x by ``_ARMIJO`` times
    -g^T (x(a) - x) (:func:`_try_point`). The reference is the objective
    evaluated at x: the state's when phi was set from scratch with no
    update since, else evaluated anew, because the objective an epoch
    maintains from closed-form changes can sit a few ulps below it, and
    then no trial point near the optimum passes.

    At the objective's rounding floor the Armijo test decides at random:
    when the full step's predicted decrease -g^T (x(1) - x) is below the
    allowance eps_f = ``ROUNDING_ALLOWANCE`` * eps * |f(x)|, the computed
    change of f is rounding, and halving the step only shortens it. There
    x(1) is accepted when f(x(1)) <= f(x) + eps_f, the approximate Armijo
    condition of Hager and Zhang (SIAM J. Optim. 2005); otherwise the line
    search backtracks as above. So a round never raises the objective,
    except by at most eps_f on a full step below the floor. On the 35 joint
    and 35 baseline desk problems and joint-large, 37 of 625 rounds raised
    it, by at most 36 units of eps * |f(x)| (Intel Xeon, numpy 2.4, 1 BLAS
    thread).

    A weight that a step leaves tiny but positive stays free, so the next
    step that points it below zero projects it onto zero; no coordinate
    epoch follows a step. The state counts the steps, their CG iterations
    and the line searches that accepted no point.

    Reading phi flushes pending updates; phi may carry the rounding drift of
    the epochs since it was last inverted, which moves the gradient by far
    less than the exit tolerance of the learning loop.
    """
    phi = state.phi
    n, m = state.n, state.m
    joint = state.q is not None
    r = pair_quadratic(phi, state.idx_i, state.idx_j)
    x, grad, hdiag = state.w, state.edge_costs - r, r * r
    lower = np.zeros(m)
    if joint:
        u = phi.diagonal()
        x = np.concatenate([x, state.q])
        grad = np.concatenate([grad, state._sdiag - u])
        hdiag = np.concatenate([hdiag, u * u])
        lower = np.concatenate([lower, np.full(n, state.q_min)])
    free = np.flatnonzero((x > lower) | (grad < 0.0))
    edges = free[free < m]
    vertices = free[len(edges):] - m
    fi, fj = state.idx_i[edges], state.idx_j[edges]
    state.newton_rounds += 1
    step = np.zeros_like(x)
    iterations = 0
    if free.size:
        if free.size <= _DENSE_HESSIAN_RATIO * n:
            product = hessian_block(phi, fi, fj, vertices).dot
        else:
            product = hessian_product(phi, fi, fj, vertices)
        step[free], iterations = _pcg(product, -grad[free], 1.0 / hdiag[free])
        state.cg_iterations += iterations
    # The objective set with phi from scratch is the one evaluated at x, bit
    # for bit; once an update has moved it, it is re-evaluated.
    reference = state.objective if state.updates_since_refresh == 0 else evaluate_objective(state)
    allowance = ROUNDING_ALLOWANCE * _EPS * abs(reference)
    alpha = 1.0
    for _ in range(_MAX_TRIALS):
        trial = np.maximum(x + alpha * step, lower)
        slope = min(float(grad @ (trial - x)), 0.0)
        floor = alpha == 1.0 and -slope < allowance
        bound = reference + (allowance if floor else _ARMIJO * slope)
        if _try_point(state, trial[:m], trial[m:] if joint else None, lambda f: f <= bound):
            return alpha, iterations
        alpha *= _BACKTRACK
    state.failed_line_searches += 1
    return 0.0, iterations


def _try_point(state, w, q, accept) -> bool:
    """Move the state to weights ``w`` and importances ``q`` (None in
    baseline mode), with phi and the objective computed from scratch, when
    ``accept(objective)`` holds and the model matrix is not singular;
    returns whether it moved. Otherwise the state stays byte for byte.
    Whether the objective may rise is the caller's test: the clamp accepts
    only a lower one, and Newton a rise of at most its rounding allowance
    on a full step below the floor (:func:`newton_step`)."""
    L = laplacian_from_pairs(state.n, state.idx_i, state.idx_j, w)
    try:
        objective = model_objective(L, q, state.S)
        if not accept(objective):
            return False
        phi = model_inverse(L, q)
    except SingularModelError:
        return False
    state.w[:] = w
    if q is not None:
        state.q[:] = q
    state.phi = phi
    state.objective = objective
    return True


def clamp_step(state) -> int:
    """Set to zero, at once, every weight that its exact coordinate step
    would clamp; returns how many it zeroed, 0 when it left the state as it
    was.

    The steps are those of :func:`_apply_edge`, all read off the current
    phi by :func:`coordinate_steps`: an edge with w > 0 clamps when
    1/h - 1/r <= -w. :func:`_try_point` keeps the new point only when its
    objective lies strictly below ``state.objective``, which should
    therefore be exact, as it is after :func:`init_state` or
    :func:`refresh_phi`; a baseline clamp that disconnects the graph is
    rejected.

    It acts on all coordinates at once, as projected Newton does
    (Bertsekas, SIAM J. Control Optim. 1982), but moves only the weights
    that want to leave; :mod:`covgraph.learn` says what it saves at a
    kernel start.
    """
    w = state.w
    _, (steps, free, _), _ = coordinate_steps(state.phi, state.idx_i, state.idx_j, state.edge_costs, w)
    clamped = free & (steps <= -w)
    count = int(np.count_nonzero(clamped))
    if count and _try_point(state, np.where(clamped, 0.0, w), state.q, lambda f: f < state.objective):
        return count
    return 0


def _rank_one_update(state, v, c):
    """phi -= c * v v^T through the state's n x n buffer.

    ``v`` may be a row of phi: the buffer is filled before phi changes.
    The product is formed as c * (v_i * v_j), the rounding of
    ``c * np.outer(v, v)``; scaling v first would round differently.

    ``np.einsum("i,j->ij")`` (unoptimized, so no BLAS call) rounds each
    v_i * v_j once, as ``np.outer`` does, but adds it into a zeroed output,
    so a product of -0.0 is stored as +0.0. After ``buf *= c`` the two
    buffers differ at most in the sign of a zero, and ``x - 0.0`` equals
    ``x - (-0.0)`` bit for bit for every x except x = -0.0. So phi's bytes
    can differ only where phi holds -0.0, and it does not: a subtraction
    yields -0.0 in round-to-nearest only as (-0.0) - (+0.0), so phi gains
    no -0.0 from updates, and the refreshed inverse ``(inv + inv.T) / 2``
    held none among the 1,513,210 exact zeros of 4,000 random sparse
    block-structured models (n <= 40); the tests check it at n = 101.
    """
    buf = state._outer
    _einsum("i,j->ij", v, v, out=buf)
    buf *= c
    state._phi -= buf


def _update_phi(state, v, c):
    """phi -= c * v v^T: at once on the immediate path; on the batched path
    as one more pending term, flushing once ``_BATCH_SIZE`` are pending."""
    if state._pending is None:
        _rank_one_update(state, v, c)
        return
    k = state._k
    state._pending[k] = v
    state._coef[k] = c
    state._k = k + 1
    if state._k == len(state._coef):
        _flush(state)


def _flush(state):
    """Apply the pending terms to phi in one matrix product, through the
    state's n x n buffer."""
    k = state._k
    if k:
        pending = state._pending[:k]
        np.matmul(pending.T * state._coef[:k], pending, out=state._outer)
        state._phi -= state._outer
        state._k = 0


def _apply_edge(state, e):
    """Optimal single-edge step; returns (delta, cost, effective resistance).

    Scalars are read as Python floats (``ndarray.item``), whose arithmetic
    is numpy's, but a division by zero raises where numpy's gives ±inf or
    NaN, so a zero divisor is divided as a numpy scalar."""
    i, j = state.pairs[e]
    phi = state._phi
    item = phi.item
    r = item(i, i) + item(j, j) - 2.0 * item(i, j)
    k = state._k
    if k:
        pending = state._pending[:k]
        d = pending[:, i] - pending[:, j]
        cd = state._coef[:k] * d
        r -= cd @ d
    h = state.edge_costs.item(e)
    we = state.w.item(e)

    delta = 1.0 / h - (1.0 / r if r else np.float64(1.0) / r)
    clamped = delta <= -we
    if clamped:
        delta = -we

    if delta == 0.0:
        return 0.0, h, r

    denom = 1.0 + delta * r
    if state.q is None and denom < BASELINE_SINGULARITY_TOL:
        # Removing this much weight would disconnect the graph; stop just
        # short of the singularity instead of crashing.
        delta = (BASELINE_SINGULARITY_TOL - 1.0) / r
        denom = 1.0 + delta * r
        clamped = False
        state.singularity_clips += 1
        if delta == 0.0:
            return 0.0, h, r

    v = phi[i] - phi[j]
    if k:
        v -= cd @ pending
    _update_phi(state, v, delta / denom if denom else np.float64(delta) / denom)
    state.w[e] = 0.0 if clamped else we + delta
    state.objective += delta * h - log1p(delta * r)
    state.updates_since_refresh += 1
    return delta, h, r


def _apply_vertex(state, i):
    """Optimal single-importance step; returns (delta, cost, effective
    importance). Scalars are read as :func:`_apply_edge` reads them."""
    phi = state._phi
    u = phi.item(i, i)
    k = state._k
    if k:
        pending = state._pending[:k]
        cd = state._coef[:k] * pending[:, i]
        u -= cd @ pending[:, i]
    p = state._sdiag.item(i)
    qi = state.q.item(i)

    delta = 1.0 / p - (1.0 / u if u else np.float64(1.0) / u)
    floor_gap = state.q_min - qi
    clamped = delta <= floor_gap
    if clamped:
        delta = floor_gap

    if delta == 0.0:
        return 0.0, p, u

    v = phi[i]
    if k:
        v = v - cd @ pending
    denom = 1.0 + delta * u
    _update_phi(state, v, delta / denom if denom else np.float64(delta) / denom)
    state.q[i] = state.q_min if clamped else qi + delta
    state.objective += delta * p - log1p(delta * u)
    state.updates_since_refresh += 1
    return delta, p, u


def edge_update(state, e) -> CoordinateUpdate:
    """Apply the optimal update to edge ``e`` (index into the active set)."""
    i, j = state.pairs[e]
    delta, cost, effective = _apply_edge(state, e)
    return CoordinateUpdate(target=("edge", i, j), delta=delta, cost=cost, effective=effective)


def vertex_update(state, i) -> CoordinateUpdate:
    """Apply the optimal update to importance ``i`` (joint mode only)."""
    if state.q is None:
        raise ValueError("vertex updates are only defined in joint mode")
    delta, cost, effective = _apply_vertex(state, i)
    return CoordinateUpdate(target=("vertex", int(i)), delta=delta, cost=cost, effective=effective)


def _piece_length(state) -> int:
    """Most edges whose resistances are read in one numpy step: with k
    updates pending, each k x length temporary stays within one n x n array."""
    k = state._k
    return max(_MIN_SCAN_RUN, state.n * state.n // k) if k else max(_MIN_SCAN_RUN, state.m)


def _resistances(state, start, stop):
    """Effective resistances of edges ``start:stop`` in the current inverse,
    with the operations of :func:`_apply_edge`: on the immediate path from
    one gather of phi's flat indices, on the batched path with the pending
    correction summed in another order."""
    if state._flat is not None:
        g = state._phi.take(state._flat[:, start:stop])
        return g[0] + g[1] - 2.0 * g[2]
    idx_i, idx_j = state.idx_i[start:stop], state.idx_j[start:stop]
    r = pair_quadratic(state._phi, idx_i, idx_j)
    k = state._k
    if k:
        pending = state._pending[:k]
        d = pending[:, idx_i]
        d -= pending[:, idx_j]
        d *= d
        r -= state._coef[:k] @ d
    return r


def _sweep_zero_run(state, start, stop):
    """Visit edges ``start:stop``, all at w = 0, in order.

    An edge at w = 0 moves only when its step ``1/h - 1/r`` is not
    ``<= -0.0`` (a NaN step moves it too). While at least ``_MIN_SCAN_RUN``
    edges remain, the steps of the next piece of them are computed at once
    from the current phi by :func:`_resistances`; the first edge that moves
    is updated by :func:`_apply_edge` and the rest of the run is tested
    again against the updated phi. The first piece, and the first after
    each edge that moves, holds ``_FIRST_PIECE`` edges; each later one is
    ``_PIECE_GROWTH`` times longer, never longer than :func:`_piece_length`.
    """
    piece = _FIRST_PIECE
    while stop - start >= _MIN_SCAN_RUN:
        # A piece leaves no tail too short to scan, unless the cap cuts it.
        length = piece if stop - start >= piece + _MIN_SCAN_RUN else stop - start
        end = start + min(length, _piece_length(state))
        delta = state._inv_costs[start:end] - 1.0 / _resistances(state, start, end)
        moves = ~(delta <= -0.0)
        first = int(moves.argmax())
        if moves[first]:
            _apply_edge(state, start + first)
            start += first + 1
            piece = _FIRST_PIECE
        elif end == stop:
            return
        else:
            start = end
            piece *= _PIECE_GROWTH
    for e in range(start, stop):
        _apply_edge(state, e)


def sweep_edges(state) -> float:
    """One pass over all active edges in sorted order; returns the objective change.

    Edges with nonzero weight at the start of the sweep are updated one at a
    time, and each run of zero-weight edges between them goes to
    :func:`_sweep_zero_run`. An edge's weight changes only when the sweep
    reaches it, so the runs found at the start hold until then. The result
    is that of calling :func:`_apply_edge` on every edge: bit for bit on the
    immediate path, within rounding on the batched one.
    """
    before = state.objective
    m = state.m
    _flush(state)
    start = 0
    for stop in np.flatnonzero(state.w != 0).tolist() + [m]:
        if start < stop:
            _sweep_zero_run(state, start, stop)
        if stop < m:
            _apply_edge(state, stop)
        start = stop + 1
    return state.objective - before


def sweep_vertices(state) -> float:
    """One pass over all vertices in index order; returns the objective change."""
    before = state.objective
    _flush(state)
    for i in range(state.n):
        _apply_vertex(state, i)
    return state.objective - before

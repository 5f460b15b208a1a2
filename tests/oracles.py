"""Independent reference implementations used only by the tests.

Nothing here touches the package's solver machinery: matrices are
assembled from scratch, eigenproblems go through SciPy, and the minimizers
are projected-gradient descent with a Barzilai-Borwein step and an Armijo
backtracking safeguard. The loop references (Laplacian assembly, KKT
residuals, screening, the edge sweep) visit one pair at a time in sorted
order, and the vertex sweep one vertex at a time in index order, with the
same arithmetic as the package's vectorized code, so the two agree bit for
bit; graph building checks one edge at a time in input order, and
connectivity is a depth-first search over adjacency lists. Agreement
between these and the package is the point of the tests,
so keep them independent.
"""
from __future__ import annotations

from math import log1p

import numpy as np
import scipy.linalg

from covgraph.graphs import GraphValidationError
from covgraph.solver import BASELINE_SINGULARITY_TOL


def assemble_model_matrix(n, pairs, w, diag_vector=None, rank_one_shift=False):
    """Sum of w_e * b_e b_e^T plus either a diagonal or the all-ones/n term."""
    T = np.zeros((n, n))
    for (i, j), we in zip(pairs, w):
        T[i, i] += we
        T[j, j] += we
        T[i, j] -= we
        T[j, i] -= we
    if diag_vector is not None:
        T[np.diag_indices(n)] += diag_vector
    if rank_one_shift:
        T += 1.0 / n
    return T


def laplacian_add_at(n, idx_i, idx_j, w):
    """Laplacian of distinct pairs by unbuffered ``np.add.at`` into zeros,
    j-side degree terms first."""
    w = np.asarray(w, dtype=float)
    L = np.zeros((n, n))
    np.add.at(L, (idx_j, idx_j), w)
    np.add.at(L, (idx_i, idx_i), w)
    np.add.at(L, (idx_i, idx_j), -w)
    np.add.at(L, (idx_j, idx_i), -w)
    return L


def joint_objective_oracle(n, pairs, w, q, S):
    """-logdet(diag(q) + L(w)) + trace((diag(q) + L(w)) S)."""
    T = assemble_model_matrix(n, pairs, w, diag_vector=q)
    sign, logdet = np.linalg.slogdet(T)
    return -logdet + float(np.sum(T * np.asarray(S, dtype=float)))


def is_connected_loop(n, pairs, w):
    """Whether the edges with positive weight connect all n vertices: a
    depth-first search over adjacency lists."""
    adjacency = [[] for _ in range(n)]
    for (i, j), we in zip(pairs, w):
        if we > 0:
            adjacency[i].append(j)
            adjacency[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for nb in adjacency[v]:
            if not seen[nb]:
                seen[nb] = True
                count += 1
                stack.append(nb)
    return count == n


def kkt_residuals_loop(n, pairs, w, q, q_min, S, tol, floor_tol=1e-12):
    """(max edge residual, max vertex residual, complementarity violations)
    of a graph, one pair and one vertex at a time: the joint model
    diag(q) + L, or the baseline L + J/n with no vertex terms when ``q`` is
    None."""
    S = np.asarray(S, dtype=float)
    if q is None:
        T = assemble_model_matrix(n, pairs, w, rank_one_shift=True)
    else:
        T = assemble_model_matrix(n, pairs, w, diag_vector=q)
    phi = np.linalg.inv(T)
    phi = (phi + phi.T) / 2.0
    weight = dict(zip(pairs, w))
    max_edge = 0.0
    violations = 0
    for i in range(n):
        for j in range(i + 1, n):
            h = S[i, i] + S[j, j] - 2.0 * S[i, j]
            r = phi[i, i] + phi[j, j] - 2.0 * phi[i, j]
            gap = 1.0 / h - 1.0 / r
            if weight.get((i, j), 0.0) > 0.0:
                max_edge = max(max_edge, abs(gap))
            else:
                if gap > tol:
                    violations += 1
                max_edge = max(max_edge, max(gap, 0.0))
    max_vertex = 0.0
    if q is None:
        return float(max_edge), max_vertex, violations
    for i in range(n):
        gap = 1.0 / S[i, i] - 1.0 / phi[i, i]
        if q[i] > q_min + floor_tol:
            max_vertex = max(max_vertex, abs(gap))
        else:
            if gap > tol:
                violations += 1
            max_vertex = max(max_vertex, max(gap, 0.0))
    return float(max_edge), float(max_vertex), violations


def sweep_edges_loop(state):
    """One edge sweep of a solver state, one edge at a time in sorted order,
    with a freshly allocated outer product per update; returns the
    objective change. Mutates ``state`` as ``covgraph.solver.sweep_edges``
    does."""
    before = state.objective
    phi = state.phi
    for e, (i, j) in enumerate(state.pairs):
        r = phi[i, i] + phi[j, j] - 2.0 * phi[i, j]
        h = state.edge_costs[e]
        we = state.w[e]
        delta = 1.0 / h - 1.0 / r
        clamped = delta <= -we
        if clamped:
            delta = -we
        if delta == 0.0:
            continue
        denom = 1.0 + delta * r
        if state.q is None and denom < BASELINE_SINGULARITY_TOL:
            delta = (BASELINE_SINGULARITY_TOL - 1.0) / r
            denom = 1.0 + delta * r
            clamped = False
            state.singularity_clips += 1
            if delta == 0.0:
                continue
        v = phi[i] - phi[j]
        phi -= (delta / denom) * np.outer(v, v)
        state.w[e] = 0.0 if clamped else we + delta
        state.objective += delta * h - log1p(delta * r)
        state.updates_since_refresh += 1
    return state.objective - before


def sweep_vertices_loop(state):
    """One importance sweep of a joint solver state, one vertex at a time in
    index order, clamping at ``q_min``, with a freshly allocated outer
    product per update; returns the objective change. Mutates ``state`` as
    ``covgraph.solver.sweep_vertices`` does."""
    before = state.objective
    phi = state.phi
    for i in range(state.n):
        u = phi[i, i]
        p = state.S[i, i]
        delta = 1.0 / p - 1.0 / u
        floor_gap = state.q_min - state.q[i]
        clamped = delta <= floor_gap
        if clamped:
            delta = floor_gap
        if delta == 0.0:
            continue
        v = phi[i]
        phi -= (delta / (1.0 + delta * u)) * np.outer(v, v)
        state.q[i] = state.q_min if clamped else state.q[i] + delta
        state.objective += delta * p - log1p(delta * u)
        state.updates_since_refresh += 1
    return state.objective - before


def duality_gap_oracle(n, pairs, w, q, q_min, S):
    """The duality gap of a graph by its defining formula, one pair at a
    time: tr(Theta S) - n + n log t - q_min sum_i (S_ii - phi_ii / t) for the
    joint model, tr(L S) - n + n log t + 1 / t for the baseline (``q`` is
    None), with t = max(1, max r_e / h_e, max phi_ii / S_ii)."""
    S = np.asarray(S, dtype=float)
    L = assemble_model_matrix(n, pairs, w)
    T = L + (1.0 / n if q is None else np.diag(q))
    phi = scipy.linalg.inv(T)
    t = 1.0
    for i, j in pairs:
        h = S[i, i] + S[j, j] - 2.0 * S[i, j]
        t = max(t, (phi[i, i] + phi[j, j] - 2.0 * phi[i, j]) / h)
    if q is None:
        return float(np.sum(L * S)) - n + n * np.log(t) + 1.0 / t
    for i in range(n):
        t = max(t, phi[i, i] / S[i, i])
    floor_term = sum(S[i, i] - phi[i, i] / t for i in range(n))
    return float(np.sum(T * S)) - n + n * np.log(t) - q_min * floor_term


def explicit_hessian(phi, pairs, vertices):
    """Hessian of the objective at model inverse ``phi`` over the edge
    coordinates of ``pairs`` followed by the importance coordinates
    ``vertices``: G o G with G = U^T phi U, where U holds the incidence
    vectors and then the unit vectors, G assembled one pair of coordinates
    at a time."""
    n = phi.shape[0]
    columns = []
    for i, j in pairs:
        u = np.zeros(n)
        u[i], u[j] = 1.0, -1.0
        columns.append(u)
    for i in vertices:
        u = np.zeros(n)
        u[i] = 1.0
        columns.append(u)
    k = len(columns)
    G = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            G[a, b] = columns[a] @ phi @ columns[b]
    return G * G


def kernel_weights_loop(points, pairs):
    """Gaussian-kernel start weights exp(-d^2 / (2 sigma^2)), one pair at a
    time in numpy scalar arithmetic, with sigma a third of the mean distance
    over all pairs."""
    points = np.asarray(points, dtype=float)
    n = len(points)

    def dist(i, j):
        return np.sqrt(sum(np.square(points[i, k] - points[j, k]) for k in range(points.shape[1])))

    sigma = float(np.mean([dist(i, j) for i in range(n) for j in range(i + 1, n)])) / 3.0
    return np.array([np.exp(-dist(i, j) ** 2 / (2.0 * sigma**2)) for i, j in pairs])


def build_graph_loop(n, edges, q=None, q_min=None):
    """``(edges, q)`` of ``build_graph`` by its reference loop, one edge at a
    time: endpoints truncated to int, each edge checked for a self-loop, an
    index outside 0..n-1, a non-finite and a negative weight, then the
    canonical pairs for a duplicate; zero weights dropped and the rest
    sorted as Python ``(i, j, w)`` tuples."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise GraphValidationError(f"vertex count must be a positive integer, got {n!r}")
    n = int(n)

    canonical = []
    for edge in edges:
        i, j, w = edge
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise GraphValidationError(f"self-loop at vertex {i} is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphValidationError(f"edge ({i}, {j}) has an index outside 0..{n - 1}")
        if not np.isfinite(w):
            raise GraphValidationError(f"edge ({i}, {j}) has non-finite weight {w!r}")
        if w < 0:
            raise GraphValidationError(f"edge ({i}, {j}) has negative weight {w}")
        if i > j:
            i, j = j, i
        canonical.append((i, j, w))

    seen = set()
    for i, j, _ in canonical:
        if (i, j) in seen:
            raise GraphValidationError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))

    kept = tuple(sorted((i, j, w) for i, j, w in canonical if w > 0))

    if (q is None) != (q_min is None):
        raise GraphValidationError("q and q_min must be provided together or both omitted")
    if q is not None:
        q_min = float(q_min)
        if not np.isfinite(q_min) or q_min <= 0:
            raise GraphValidationError(f"q_min must be a positive real, got {q_min!r}")
        q = np.asarray(q, dtype=float)
        if q.shape != (n,):
            raise GraphValidationError(f"q must have length {n}, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise GraphValidationError("q contains non-finite entries")
        if np.any(q < q_min):
            bad = int(np.argmin(q))
            raise GraphValidationError(
                f"importance q[{bad}]={q[bad]} is below the floor q_min={q_min}"
            )
    return kept, q


def screen_pairs_loop(S):
    """Pairs (i, j), i < j, with a strictly positive covariance entry."""
    n = S.shape[0]
    return [(i, j) for i in range(n) for j in range(i + 1, n) if S[i, j] > 0]


def generalized_eigh_oracle(L, q):
    """Generalized symmetric-definite eigensolve via SciPy (independent path)."""
    return scipy.linalg.eigh(np.asarray(L, dtype=float), np.diag(np.asarray(q, dtype=float)))


def direct_inverse_oracle(T):
    return scipy.linalg.inv(np.asarray(T, dtype=float))


def _pg_minimize(f_and_grad, project, x0, max_iter=50000, residual_tol=1e-9):
    """Projected gradient with BB steps and a non-monotone Armijo safeguard.

    ``f_and_grad(x)`` returns (f, grad) with f = inf outside the domain;
    ``project`` maps any point onto the feasible box. The line search
    compares against the worst of the last few objective values so the
    Barzilai-Borwein steps are rarely truncated.
    """
    x = project(np.asarray(x0, dtype=float).copy())
    f, g = f_and_grad(x)
    step = 1e-3
    prev_x = None
    prev_g = None
    recent = [f]
    for _ in range(max_iter):
        if prev_x is not None:
            dx = x - prev_x
            dg = g - prev_g
            denom = float(dx @ dg)
            if denom > 1e-300:
                step = float(dx @ dx) / denom
            step = min(max(step, 1e-12), 1e6)
        reference = max(recent)
        accepted = False
        for _ in range(200):
            candidate = project(x - step * g)
            fc, gc = f_and_grad(candidate)
            direction = candidate - x
            if fc <= reference + 1e-4 * float(g @ direction) + 1e-300:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        prev_x, prev_g = x, g
        x, f, g = candidate, fc, gc
        recent.append(f)
        if len(recent) > 10:
            recent.pop(0)
        residual = np.max(np.abs(x - project(x - g)), initial=0.0)
        if residual <= residual_tol:
            break
    return x, f


def minimize_joint_objective(S, q_min, max_iter=100000):
    """Minimize -logdet(diag(q)+L(w)) + tr((diag(q)+L(w)) S) over w>=0, q>=q_min."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    h = np.array([S[i, i] + S[j, j] - 2.0 * S[i, j] for i, j in pairs])
    sdiag = np.diag(S).copy()

    def f_and_grad(x):
        w, q = x[:m], x[m:]
        T = assemble_model_matrix(n, pairs, w, diag_vector=q)
        sign, logdet = np.linalg.slogdet(T)
        if sign <= 0:
            return np.inf, np.zeros_like(x)
        P = np.linalg.inv(T)
        gw = h - np.array([P[i, i] + P[j, j] - 2.0 * P[i, j] for i, j in pairs])
        gq = sdiag - np.diag(P)
        return -logdet + float(np.sum(T * S)), np.concatenate([gw, gq])

    def project(x):
        out = x.copy()
        out[:m] = np.maximum(out[:m], 0.0)
        out[m:] = np.maximum(out[m:], q_min)
        return out

    x0 = np.concatenate([np.full(m, 1.0 / n), np.ones(n)])
    x, f = _pg_minimize(f_and_grad, project, x0, max_iter=max_iter)
    return x[:m], x[m:], f


def minimize_baseline_objective(S, max_iter=100000):
    """Minimize -logdet(L(w) + J/n) + tr(L(w) S) over w >= 0."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    h = np.array([S[i, i] + S[j, j] - 2.0 * S[i, j] for i, j in pairs])

    def f_and_grad(w):
        T = assemble_model_matrix(n, pairs, w, rank_one_shift=True)
        sign, logdet = np.linalg.slogdet(T)
        if sign <= 0:
            return np.inf, np.zeros_like(w)
        P = np.linalg.inv(T)
        gw = h - np.array([P[i, i] + P[j, j] - 2.0 * P[i, j] for i, j in pairs])
        L = assemble_model_matrix(n, pairs, w)
        return -logdet + float(np.sum(L * S)), gw

    def project(w):
        return np.maximum(w, 0.0)

    w0 = np.full(len(pairs), 1.0 / n)
    w, f = _pg_minimize(f_and_grad, project, w0, max_iter=max_iter)
    return w, f

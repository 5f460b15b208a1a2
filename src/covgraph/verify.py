"""Optimality verification: edge-weight bounds, candidate screening,
stationarity (KKT) checks, and bound-violation trimming.

At a minimizer of either model, joint diag(q) + L or baseline L + J/n,
every coordinate is stationary: each positive weight has matching edge cost
and effective resistance (1/h = 1/r), each zero weight has 1/h <= 1/r, and
the analogous conditions hold for joint importances against their floor.
``kkt_report`` checks both models on a freshly inverted model matrix at
every vertex pair with :func:`covgraph.solver.coordinate_steps`, as the
learner's exit check does; the independent references are the tests'
pair loop ``kkt_residuals_loop`` and the benchmark's stationarity gate
(``perfbench/stationarity.py``). The weight bounds are joint-model results.
Each check takes a learning result or a bare graph, and a covariance of the
graph's size; one of another size raises ``GraphValidationError``.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphValidationError, all_pairs, as_covariance, as_real, build_graph, laplacian
from .solver import above_floor, coordinate_steps, edge_cost, model_inverse, model_objective

# Default tolerance of the weight-bound check: ``bound_report`` flags, and
# ``trim_violations`` removes, the edges with w > bound + tol.
BOUND_TOL = 1e-8


@dataclass
class EdgeBoundRecord:
    i: int
    j: int
    w: float
    rho: float
    bound: float
    applicable: bool
    violated: bool
    excess: float


@dataclass
class BoundReport:
    """Per-edge correlation bounds for a learned joint graph.

    The bound applies only to edges whose endpoints both sit strictly above
    the importance floor; others are recorded with ``applicable=False`` and
    never flagged.
    """

    tol: float
    records: list
    n_edges: int
    n_applicable: int
    n_violated: int


@dataclass
class KKTReport:
    """Stationarity residuals of a learned joint or baseline graph at
    tolerance ``tol`` (``max_vertex_residual`` is 0.0 for a baseline graph).

    ``complementarity_violations`` counts coordinates sitting at their bound
    (zero weight or floored importance) whose one-sided optimality condition
    fails; ``m_matrix_ok`` confirms the Laplacian has no positive
    off-diagonal entries.
    """

    tol: float
    max_edge_residual: float
    max_vertex_residual: float
    complementarity_violations: int
    m_matrix_ok: bool
    passed: bool


def edge_weight_bound(S, i, j) -> float:
    """Largest weight the pair (i, j) can carry at a joint optimum, provided
    both endpoint importances are above the floor.

    Equals rho^2 / ((1 - rho^2) |S_ij|) with rho the correlation of the
    pair; zero when S_ij = 0, and NaN (inapplicable) when |rho| >= 1.
    """
    return float(_correlation_bound(as_covariance(S).entries, i, j)[1])


def _correlation_bound(S, i, j):
    """(rho, bound) of the pairs (i, j), scalars or arrays of endpoints, in a
    validated covariance array."""
    sij = S[i, j]
    rho = sij / np.sqrt(S[i, i] * S[j, j])
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = rho * rho / ((1.0 - rho * rho) * np.abs(sij))
    return rho, np.where(sij == 0.0, 0.0, np.where(np.abs(rho) >= 1.0, np.nan, bound))


def screen_edges(S):
    """The pair set that can carry weight at a joint optimum, the pairs of
    :func:`covgraph.graphs.all_pairs` with S_ij > 0, in its form and order.

    Exact for the joint model only; a baseline optimum can put weight on
    pairs with S_ij <= 0, so the baseline learner does not screen."""
    S = as_covariance(S).entries
    idx_i, idx_j = all_pairs(S.shape[0])
    keep = S[idx_i, idx_j] > 0
    return idx_i[keep], idx_j[keep]


def _inputs(result_or_graph, S):
    """The graph of a learning result or a bare graph, and ``S`` as a
    validated covariance array of the graph's size."""
    graph = getattr(result_or_graph, "graph", result_or_graph)
    S = as_covariance(S)
    if S.n != graph.n:
        raise GraphValidationError(f"graph has {graph.n} vertices but covariance is {S.n} x {S.n}")
    return graph, S.entries


def _bound_columns(graph, S, tol):
    """Arrays i, j, w, rho, bound, applicable, violated and excess over the
    stored edges of a joint graph, the fields of :class:`EdgeBoundRecord`."""
    if graph.q is None:
        raise ValueError("bound report requires a graph with vertex importances")
    free = above_floor(graph.q, graph.q_min)
    i, j, w = graph.idx_i, graph.idx_j, graph.w
    rho, bound = _correlation_bound(S, i, j)
    applicable = free[i] & free[j] & ~np.isnan(bound)
    violated = applicable & (w > bound + as_real(tol, "bound tolerance"))
    return i, j, w, rho, bound, applicable, violated, np.where(violated, w - bound, 0.0)


def bound_report(result_or_graph, S, tol=BOUND_TOL) -> BoundReport:
    """Check every stored edge of a joint result against its weight bound."""
    columns = _bound_columns(*_inputs(result_or_graph, S), tol)
    records = [EdgeBoundRecord(*row) for row in zip(*(c.tolist() for c in columns))]
    n_applicable, n_violated = (int(np.count_nonzero(c)) for c in columns[5:7])
    return BoundReport(tol, records, len(records), n_applicable, n_violated)


def kkt_report(result_or_graph, S, tol=1e-6) -> KKTReport:
    """Verify first-order optimality of a learned graph from scratch.

    Inverts the model matrix directly (diag(q) + L with importances, the
    baseline L + J/n without) and checks the steps of
    :func:`covgraph.solver.coordinate_steps` at every vertex pair (not just
    stored edges) and every importance. A disconnected baseline graph raises
    :class:`~covgraph.solver.SingularModelError`; a degenerate covariance
    raises the error of :func:`covgraph.solver.edge_cost`, as learning does.
    """
    graph, S = _inputs(result_or_graph, S)
    tol = as_real(tol, "tol")
    L = laplacian(graph)
    phi = model_inverse(L, graph.q)

    idx_i, idx_j = all_pairs(graph.n)
    off_diag = L[idx_i, idx_j]
    _, edges, vertices = coordinate_steps(
        phi, idx_i, idx_j, edge_cost(S, idx_i, idx_j), -off_diag, S.diagonal(), graph.q, graph.q_min
    )
    violations = sum(int(np.count_nonzero(~f & (s > tol))) for s, f, _ in (edges, vertices))
    max_edge, max_vertex = edges[2], vertices[2]

    # On L, not L + J/n: its off-diagonals -w + 1/n are positive for light edges.
    m_matrix_ok = bool(np.all(off_diag <= 0.0))

    return KKTReport(
        tol=tol,
        max_edge_residual=max_edge,
        max_vertex_residual=max_vertex,
        complementarity_violations=violations,
        m_matrix_ok=m_matrix_ok,
        passed=bool(max_edge <= tol and max_vertex <= tol and m_matrix_ok),
    )


def trim_violations(result, S, tol=BOUND_TOL):
    """Zero out bound-violating edges of a joint result.

    Returns ``(trimmed_result, n_trimmed)``. The trimmed result carries a
    recomputed objective and ``stop="trimmed"``, so it is not ``converged``;
    its ``kkt_residual`` and ``duality_gap`` are NaN, since the run's
    certificate was for the untrimmed graph (:func:`kkt_report` checks the
    trimmed one). With no violations the result is returned unchanged.
    """
    graph, S = _inputs(result, S)
    violated = _bound_columns(graph, S, tol)[6]
    n_violated = int(np.count_nonzero(violated))
    if n_violated == 0:
        return result, 0

    edges = np.column_stack((graph.idx_i, graph.idx_j, graph.w))[~violated]
    trimmed = build_graph(graph.n, edges, q=graph.q, q_min=graph.q_min)
    if not hasattr(result, "graph"):
        # Bare Graph in, bare Graph out.
        return trimmed, n_violated
    objective = model_objective(laplacian(trimmed), trimmed.q, S)
    uncertified = {"kkt_residual": math.nan, "duality_gap": math.nan, "stop": "trimmed", "converged": False}
    return dataclasses.replace(result, graph=trimmed, objective=objective, **uncertified), n_violated

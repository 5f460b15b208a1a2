"""The benchmark's own optimality gate, written apart from ``covgraph.verify``.

Both learners minimize ``-logdet(Theta) + trace(Theta_data S)`` by exact
coordinate steps. The exact step on edge (i, j) is ``1/h - 1/r``, with
``h = S_ii + S_jj - 2 S_ij`` the edge cost and ``r`` the effective resistance
of the pair in ``Phi = Theta^-1``; the exact step on importance i is
``1/S_ii - 1/Phi_ii``. A point is stationary when every free coordinate's
step is zero and every coordinate held at its bound (w = 0, q = q_min) has
a step that points out of the feasible set. The residual reported here is
the size of the step that the conditions forbid, so it is comparable with
the acceptance tolerance of 1e-6.

Joint model:    Theta = diag(q) + L(w)
Baseline model: Theta = L(w) + J/n   (J all-ones; J/n does not change r)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-6
# Importances are clamped to the floor exactly; this only guards rounding.
FLOOR_TOL = 1e-12


@dataclass(frozen=True)
class Stationarity:
    edge_residual: float
    vertex_residual: float
    passed: bool


def laplacian(n, edges) -> np.ndarray:
    """Dense Laplacian from (i, j, w) triples."""
    L = np.zeros((n, n))
    if edges:
        i, j, w = (np.array(col) for col in zip(*edges))
        i, j = i.astype(int), j.astype(int)
        np.add.at(L, (i, j), -w)
        np.add.at(L, (j, i), -w)
        np.add.at(L, (i, i), w)
        np.add.at(L, (j, j), w)
    return L


def _edge_residual(S, phi, n, edges) -> float:
    iu, ju = np.triu_indices(n, k=1)
    d = np.diag(S)
    h = d[iu] + d[ju] - 2.0 * S[iu, ju]
    p = np.diag(phi)
    r = p[iu] + p[ju] - 2.0 * phi[iu, ju]
    step = 1.0 / h - 1.0 / r
    present = np.zeros((n, n), dtype=bool)
    for i, j, w in edges:
        present[i, j] = w > 0.0
    free = present[iu, ju]
    # Free weights must not move; absent pairs may only want to shrink.
    residual = np.where(free, np.abs(step), np.maximum(step, 0.0))
    return float(np.max(residual, initial=0.0))


def check(S, n, edges, q=None, q_min=None, tol=TOL) -> Stationarity:
    """Check a learned graph against its covariance ``S``.

    ``q is None`` selects the baseline model L + J/n; otherwise the joint
    model diag(q) + L with importance floor ``q_min``.
    """
    S = np.asarray(S, dtype=float)
    theta = laplacian(n, edges)
    if q is None:
        theta += 1.0 / n
    else:
        theta[np.diag_indices(n)] += np.asarray(q, dtype=float)
    try:
        phi = np.linalg.inv(theta)
    except np.linalg.LinAlgError:
        return Stationarity(math.inf, math.inf, False)
    phi = (phi + phi.T) / 2.0

    edge_res = _edge_residual(S, phi, n, edges)
    vertex_res = 0.0
    if q is not None:
        q = np.asarray(q, dtype=float)
        step = 1.0 / np.diag(S) - 1.0 / np.diag(phi)
        free = q > q_min + FLOOR_TOL
        vertex_res = float(np.max(np.where(free, np.abs(step), np.maximum(step, 0.0))))
    ok = bool(np.isfinite(edge_res) and np.isfinite(vertex_res))
    return Stationarity(edge_res, vertex_res, ok and edge_res <= tol and vertex_res <= tol)


def check_graph(graph, S, tol=TOL) -> Stationarity:
    """:func:`check` for a ``covgraph`` Graph (joint when it carries ``q``)."""
    return check(S, graph.n, graph.edges, graph.q, graph.q_min, tol)

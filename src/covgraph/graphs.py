"""Core graph containers and Laplacian algebra.

A graph is stored as a pair set (endpoint arrays, i < j, sorted) with
positive edge weights and an optional vector of positive vertex
importances. Dense matrices are materialized on demand: problem sizes stay
in the hundreds of vertices, so plain ``numpy`` arrays beat any sparse
machinery here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GraphValidationError(ValueError):
    """Structural invariant violated by a graph or covariance input."""


def _frozen_array(values, dtype=float):
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def as_count(value, name, minimum, error=GraphValidationError) -> int:
    """``value`` as an int of at least ``minimum``. A numpy integer passes;
    a bool, or a number of any other type, raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def as_real(value, name, sign=None, error=GraphValidationError) -> float:
    """``value`` as a float: a finite Python or numpy real, not a bool, and
    also ``"positive"`` or ``"nonnegative"`` if ``sign`` names one. Anything
    else raises ``error``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    signed = {None: True, "positive": real and value > 0, "nonnegative": real and value >= 0}[sign]
    try:
        finite, shown = real and math.isfinite(value), None
    except OverflowError:
        # An int beyond the float range, whose decimal text can be too long
        # for Python to form (more than 4,300 digits).
        finite, shown = False, "an int beyond the float range"
    if not (real and finite and signed):
        raise error(f"{name} must be {sign + ' and ' if sign else ''}finite, got {shown or repr(value)}")
    return float(value)


def as_importances(q, n, q_min):
    """``(q, q_min)`` as a new array of ``n`` finite floats, none below the
    floor, and a positive float; a floor failure names the lowest entry."""
    q_min = as_real(q_min, "q_min", "positive")
    q = np.array(q, dtype=float)
    if q.shape != (n,):
        raise GraphValidationError(f"q must have length {n}, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise GraphValidationError("q contains non-finite entries")
    if np.any(q < q_min):
        bad = int(np.argmin(q))
        raise GraphValidationError(f"importance q[{bad}]={q[bad]} is below the floor q_min={q_min}")
    return q, q_min


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph with optional vertex importances.

    ``(idx_i, idx_j)`` is the pair set of the edges in the form of
    :func:`all_pairs` and ``w`` their strictly positive weights (a zero
    weight means "no edge" and is never stored). ``q`` holds one importance
    per vertex, each at least ``q_min``; both are ``None`` for graphs
    learned without importances. Instances and their arrays are immutable;
    :func:`build_graph` makes them.
    """

    n: int
    idx_i: np.ndarray
    idx_j: np.ndarray
    w: np.ndarray
    q: np.ndarray | None
    q_min: float | None

    @property
    def m(self) -> int:
        return len(self.w)

    @property
    def edges(self) -> tuple:
        """The edges as a sorted tuple of Python ``(i, j, w)`` triples."""
        return tuple(zip(self.idx_i.tolist(), self.idx_j.tolist(), self.w.tolist()))


# Per-edge faults in the order they are checked, each with its message.
_EDGE_FAULTS = (
    "edge ({i}, {j}) has a non-integer endpoint",
    "self-loop at vertex {i} is not allowed",
    "edge ({i}, {j}) has an index outside 0..{last}",
    "edge ({i}, {j}) has non-finite weight {w!r}",
    "edge ({i}, {j}) has negative weight {w}",
)


def build_graph(n, edges, q=None, q_min=None) -> Graph:
    """Validate and canonicalize raw edge data into a :class:`Graph`.

    ``edges`` is a sequence of (i, j, w) triples, an (m, 3) array included,
    in either endpoint order; they are flipped to i < j and sorted, and
    zero weights dropped. A :class:`GraphValidationError` names the first
    edge in input order with a non-integer endpoint, a self-loop, an
    out-of-range index, a non-finite or a negative weight (checked in that
    order), then the first duplicate, then an importance below the floor.
    """
    n = as_count(n, "vertex count", 1)

    rows = np.asarray(edges, dtype=float)
    rows = rows.reshape(0, 3) if rows.size == 0 else rows
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise GraphValidationError(f"edges must be (i, j, w) triples, got shape {rows.shape}")
    ends, w = rows[:, :2], rows[:, 2]
    i, j = ends.T
    whole = np.isfinite(ends) & (ends == np.trunc(ends))
    inside = (0 <= ends) & (ends < n)
    faults = np.column_stack([~whole.all(axis=1), i == j, ~inside.all(axis=1), ~np.isfinite(w), w < 0])
    if faults.any():
        k, fault = np.argwhere(faults)[0]
        end = float if fault == 0 else int
        message = _EDGE_FAULTS[fault].format(i=end(i[k]), j=end(j[k]), w=float(w[k]), last=n - 1)
        raise GraphValidationError(message)

    lo, hi = np.minimum(i, j).astype(int), np.maximum(i, j).astype(int)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:
        k = repeats.min()
        raise GraphValidationError(f"duplicate edge ({lo[k]}, {hi[k]})")
    order = order[w[order] > 0]

    if (q is None) != (q_min is None):
        raise GraphValidationError("q and q_min must be provided together or both omitted")
    if q is not None:
        q, q_min = as_importances(q, n, q_min)
        q = _frozen_array(q)

    idx_i, idx_j, w = _frozen_array(lo[order], int), _frozen_array(hi[order], int), _frozen_array(w[order])
    return Graph(n=n, idx_i=idx_i, idx_j=idx_j, w=w, q=q, q_min=q_min)


def laplacian_from_pairs(n, idx_i, idx_j, w) -> np.ndarray:
    """Dense combinatorial Laplacian from parallel endpoint/weight arrays of
    distinct pairs.

    Degrees add j-side terms before i-side terms: for pairs sorted by (i, j)
    that is the summation order of adding one edge at a time. ``np.bincount``
    sums its weights in input order, so the result is bit for bit that of
    ``np.add.at`` into zeros, about twice as fast (19,900 pairs at n = 200
    on an Intel Xeon with numpy 2.4: 0.84 against 1.74 ms); the
    off-diagonals are ``0.0 - w``, which keeps a zero weight +0.0 as
    ``0.0 + (-w)`` does.
    """
    w = np.asarray(w, dtype=float)
    L = np.zeros((n, n))
    L[np.diag_indices(n)] = np.bincount(
        np.concatenate([idx_j, idx_i]), np.concatenate([w, w]), minlength=n
    )
    L[idx_i, idx_j] = L[idx_j, idx_i] = 0.0 - w
    return L


def laplacian(graph: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian (degree matrix minus adjacency)."""
    return laplacian_from_pairs(graph.n, graph.idx_i, graph.idx_j, graph.w)


def incidence_vector(n, i, j) -> np.ndarray:
    """Signed indicator of edge (i, j): +1 at i, -1 at j, zeros elsewhere."""
    if not 0 <= i < j < n:
        raise GraphValidationError(f"incidence vector needs 0 <= i < j < n, got ({i}, {j})")
    b = np.zeros(n)
    b[i] = 1.0
    b[j] = -1.0
    return b


def all_pairs(n):
    """Every vertex pair (i, j) with i < j as a pair set: two int arrays
    ``(idx_i, idx_j)`` of endpoints, sorted by (i, j)."""
    return np.triu_indices(n, k=1)


def pairwise_distances(points) -> np.ndarray:
    """Euclidean distance matrix of an (n, d) array of points, summed one
    coordinate at a time (several times faster than an (n, n, d) array)."""
    points = np.asarray(points, dtype=float)
    return np.sqrt(sum(np.square(c[:, None] - c[None, :]) for c in points.T))


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric matrix of second moments with strictly positive diagonal.

    Symmetry is required to hold exactly as stored (entry for entry), which
    every supported producer guarantees: CSV input, exact model covariances,
    and mirrored kernel evaluations.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphValidationError(f"covariance must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise GraphValidationError("covariance contains non-finite entries")
        if not np.array_equal(a, a.T):
            raise GraphValidationError("covariance is not exactly symmetric")
        if np.any(np.diag(a) <= 0):
            bad = int(np.argmin(np.diag(a)))
            raise GraphValidationError(
                f"covariance diagonal must be strictly positive, S[{bad},{bad}]={a[bad, bad]}"
            )
        object.__setattr__(self, "entries", _frozen_array(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def as_covariance(S) -> CovarianceMatrix:
    """Coerce an array (or pass through a CovarianceMatrix) with validation."""
    if isinstance(S, CovarianceMatrix):
        return S
    return CovarianceMatrix(entries=S)

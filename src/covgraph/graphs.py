"""Core graph containers and Laplacian algebra.

A graph is stored as a sorted tuple of weighted undirected edges (i < j)
together with an optional vector of positive vertex importances. Dense
matrices are materialized on demand: problem sizes stay in the hundreds of
vertices, so plain ``numpy`` arrays beat any sparse machinery here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphValidationError(ValueError):
    """Structural invariant violated by a graph or covariance input."""


def _frozen_array(values, dtype=float):
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph with optional vertex importances.

    ``edges`` is canonical: sorted by (i, j) with i < j and strictly
    positive weights (a zero weight means "no edge" and is never stored).
    ``q`` holds one positive importance per vertex, each at least
    ``q_min``; both are ``None`` for graphs learned without importances.
    Instances are immutable and safe to share across threads.
    """

    n: int
    edges: tuple
    q: np.ndarray | None
    q_min: float | None

    @property
    def m(self) -> int:
        return len(self.edges)

    def pair_arrays(self):
        """Endpoints of the stored edges as a pair set, the form of :func:`all_pairs`."""
        idx_i = np.fromiter((i for i, _, _ in self.edges), int, self.m)
        idx_j = np.fromiter((j for _, j, _ in self.edges), int, self.m)
        return idx_i, idx_j

    def weights(self) -> np.ndarray:
        return np.array([w for _, _, w in self.edges], dtype=float)


def build_graph(n, edges, q=None, q_min=None) -> Graph:
    """Validate and canonicalize raw edge data into a :class:`Graph`.

    Edges may be given in either endpoint order; they are flipped to i < j
    and sorted. Zero-weight edges are dropped. Each malformed input is
    rejected with its own :class:`GraphValidationError` message: self-loop,
    out-of-range index, negative weight, duplicate edge, importance below
    the floor.
    """
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
        q = _frozen_array(q)

    return Graph(n=n, edges=kept, q=q, q_min=q_min)


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
    idx_i, idx_j = graph.pair_arrays()
    return laplacian_from_pairs(graph.n, idx_i, idx_j, graph.weights())


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

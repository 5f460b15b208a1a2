"""The learning loop shared by the joint edge/importance learner and the
baseline combinatorial-Laplacian learner.

:func:`learn` runs the method named by ``LearnConfig.method``;
:func:`learn_joint` and :func:`learn_cgl_baseline` fix the method. Both
minimize the log-determinant objective defined in :mod:`covgraph.solver`
(``model_objective`` of ``model_matrix``) by coordinate minimization. An
epoch sweeps every active edge in sorted (i, j) order, then (joint mode)
every vertex importance in index order; the run stops once the objective
improves by less than ``stop_tol`` over an epoch, or at ``max_epochs``.
The epoch improvement is accumulated from the closed-form per-update
changes, and the maintained inverse is recomputed from scratch every
``refresh_every`` epochs and once more at the end, so rounding drift never
reaches the reported result.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, GraphValidationError, all_pairs, as_covariance, build_graph
from .solver import (
    MODE_JOINT,
    SolverState,
    init_state,
    refresh_phi,
    sweep_edges,
    sweep_vertices,
)
from .verify import screen_edges

INIT_MODES = ("uniform", "kernel", "given")


@dataclass
class LearnConfig:
    """Hyperparameters and initialization for one learning run.

    ``init`` selects how the starting weights are built: ``"uniform"``
    places ``init_value`` (default 1/n) on every active pair, ``"kernel"``
    uses a Gaussian kernel of the pairwise distances of ``points`` with
    bandwidth one third of the mean distance, and ``"given"`` reads weights
    from the ``init_weights`` mapping {(i, j): w}. ``refresh_every=0``
    disables periodic re-inversion (the final refresh still runs).
    """

    method: str = "joint"
    q_min: float = 1e-4
    stop_tol: float = 1e-10
    max_epochs: int = 1000
    init: str = "uniform"
    init_value: float | None = None
    points: np.ndarray | None = None
    init_weights: dict | None = None
    refresh_every: int = 50
    screen: bool = False

    def __post_init__(self):
        if self.method not in ("joint", "baseline"):
            raise GraphValidationError(f"unknown method {self.method!r}")
        if self.init not in INIT_MODES:
            raise GraphValidationError(f"unknown init mode {self.init!r}")
        if not self.stop_tol > 0:
            raise GraphValidationError("stop_tol must be positive")
        if self.max_epochs < 1:
            raise GraphValidationError("max_epochs must be at least 1")
        if not self.q_min > 0:
            raise GraphValidationError("q_min must be positive")


@dataclass
class LearnResult:
    """Packaged outcome of a learning run.

    ``history`` holds the objective at initialization and after each epoch;
    ``converged`` is True only when the stop tolerance was met (hitting
    ``max_epochs`` reports False).
    """

    graph: Graph
    objective: float
    epochs_run: int
    converged: bool
    wall_time_seconds: float
    history: list = field(default_factory=list)


def epoch(state: SolverState) -> float:
    """One full sweep (edges, then importances in joint mode); returns its
    accumulated objective change, which is nonpositive up to rounding."""
    change = sweep_edges(state)
    if state.mode == MODE_JOINT:
        change += sweep_vertices(state)
    state.epoch_counter += 1
    return change


def pairwise_distances(points) -> np.ndarray:
    """Euclidean distance matrix of an (n, d) array of points, summed one
    coordinate at a time (several times faster than an (n, n, d) array)."""
    points = np.asarray(points, dtype=float)
    return np.sqrt(sum(np.square(c[:, None] - c[None, :]) for c in points.T))


def kernel_weights(points, pairs) -> np.ndarray:
    """Gaussian-kernel starting weights exp(-d^2 / (2 sigma^2)) over ``pairs``,
    with sigma one third of the mean pairwise distance."""
    points = np.asarray(points, dtype=float)
    dist = pairwise_distances(points)
    n = points.shape[0]
    iu = np.triu_indices(n, k=1)
    mean_distance = float(np.mean(dist[iu]))
    if mean_distance <= 0:
        raise GraphValidationError("kernel init needs at least two distinct locations")
    sigma = mean_distance / 3.0
    return np.array([np.exp(-dist[i, j] ** 2 / (2.0 * sigma**2)) for i, j in pairs])


def _initial_weights(n, pairs, config: LearnConfig) -> np.ndarray:
    if config.init == "uniform":
        value = 1.0 / n if config.init_value is None else float(config.init_value)
        if value < 0:
            raise GraphValidationError("uniform init weight must be nonnegative")
        return np.full(len(pairs), value)
    if config.init == "kernel":
        if config.points is None:
            raise GraphValidationError("kernel init requires vertex coordinates")
        points = np.asarray(config.points, dtype=float)
        if points.shape[0] != n:
            raise GraphValidationError(
                f"kernel init got {points.shape[0]} locations for {n} vertices"
            )
        return kernel_weights(points, pairs)
    # given
    if config.init_weights is None:
        raise GraphValidationError("init='given' requires init_weights")
    active = set(pairs)
    for key in config.init_weights:
        i, j = key
        if (int(i), int(j)) not in active:
            raise GraphValidationError(f"init weight for inactive pair {key!r}")
    return np.array([float(config.init_weights.get((i, j), 0.0)) for i, j in pairs])


def _active_pairs(S, config: LearnConfig):
    if config.screen:
        return screen_edges(S)
    return all_pairs(S.shape[0])


def _run(state: SolverState, config: LearnConfig):
    history = [state.objective]
    converged = False
    epochs = 0
    for _ in range(config.max_epochs):
        change = epoch(state)
        epochs += 1
        if config.refresh_every and state.epoch_counter % config.refresh_every == 0:
            refresh_phi(state)
        history.append(state.objective)
        if abs(change) < config.stop_tol:
            converged = True
            break
    refresh_phi(state)
    return history, converged, epochs


def learn(S, config: LearnConfig | None = None) -> LearnResult:
    """Learn a graph from a covariance with the method ``config.method``.

    ``"joint"`` minimizes -logdet(diag(q) + L) + trace((diag(q) + L) S)
    over w >= 0 and q >= q_min, starting every importance at 1; the model
    matrix is always positive definite, so no connectivity restriction
    applies to the updates.
    ``"baseline"`` minimizes -logdet(L + J/n) + trace(L S) over w >= 0;
    the initial graph must be connected, and updates are clipped away from
    the disconnection singularity of L + J/n. The default config is joint.
    """
    cov = as_covariance(S)
    config = config or LearnConfig()

    pairs = _active_pairs(cov.entries, config)
    w0 = _initial_weights(cov.n, pairs, config)
    if config.method == "joint":
        q0, q_min = 1.0, config.q_min
    else:
        q0 = q_min = None

    start = time.perf_counter()
    state = init_state(cov, pairs, w0, q0=q0, q_min=q_min)
    history, converged, epochs = _run(state, config)
    wall = time.perf_counter() - start

    graph = build_graph(
        cov.n,
        [(i, j, w) for (i, j), w in zip(state.pairs, state.w) if w > 0],
        q=state.q,
        q_min=state.q_min,
    )
    return LearnResult(
        graph=graph,
        objective=state.objective,
        epochs_run=epochs,
        converged=converged,
        wall_time_seconds=wall,
        history=history,
    )


def _learn_method(name, method, S, config):
    config = config or LearnConfig(method=method)
    if config.method != method:
        raise GraphValidationError(f"{name} called with method {config.method!r}")
    return learn(S, config)


def learn_joint(S, config: LearnConfig | None = None) -> LearnResult:
    """:func:`learn` with the joint method (edge weights and importances)."""
    return _learn_method("learn_joint", "joint", S, config)


def learn_cgl_baseline(S, config: LearnConfig | None = None) -> LearnResult:
    """:func:`learn` with the baseline method (a combinatorial Laplacian
    alone). Learned weights always satisfy w_e <= 1/h_e up to rounding,
    where h_e is the edge cost in S."""
    return _learn_method("learn_cgl_baseline", "baseline", S, config)

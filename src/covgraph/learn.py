"""The learning loop shared by the joint edge/importance learner and the
baseline combinatorial-Laplacian learner.

:func:`learn` runs the method named by ``LearnConfig.method``;
:func:`learn_joint` and :func:`learn_cgl_baseline` fix the method. Both
minimize the log-determinant objective defined in :mod:`covgraph.solver`
(``model_objective`` of ``model_matrix``), which is strictly convex, so its
minimizer is unique. An epoch sweeps every active edge in sorted (i, j)
order, then (joint mode) every vertex importance in index order, each by
exact coordinate minimization. ``LearnConfig.protocol`` picks how a run
proceeds and when it stops:

- ``"optimum"`` (the default) certifies the minimizer. It opens with one
  clamp step (:func:`covgraph.solver.clamp_step`): every weight whose
  exact coordinate step would clamp it is set to zero at once, and the new
  point is kept when its objective is lower. At a kernel start the dense
  graph keeps every resistance small, so nearly all weights clamp (all but
  one of 19,900 at joint-large, n = 200). Without the clamp the first
  epoch zeroes them one Sherman-Morrison update at a time, about 0.3 s of
  a 0.8 s joint-large learn; the clamp takes one inverse, about 5 ms, and
  leaves the epoch long zero runs to scan. After the clamp and
  ``WARM_EPOCHS`` epochs it runs projected Newton alone (Bertsekas, SIAM
  J. Control Optim. 1982): each round is one step of
  :func:`covgraph.solver.newton_step`, and no round sweeps. The step moves
  every coordinate that is off its bound or whose gradient points inward,
  and projects its trial points onto the bounds, so it both grows and
  prunes the support. A coordinate epoch after each shortened step, as in
  QUIC (Hsieh et al., JMLR 2014), bought nothing here: without it the 35
  joint and 35 baseline desk problems take the same supports in fewer
  epochs and less time, and two n = 200 problems that stalled with it
  (trial 2, kernel start: baseline at r = 0.1 and joint at r = 0.02)
  certify. A round lowers the objective, except at its rounding floor: a
  full step whose predicted decrease is below the objective's rounding
  allowance is taken when it raises the objective by at most that
  allowance (``covgraph.solver.ROUNDING_ALLOWANCE``), where halving it
  would only shorten it at random. The run is certified once
  the largest KKT residual, that of
  :func:`covgraph.solver.coordinate_steps`, is at most ``KKT_EXIT`` on a
  freshly refreshed inverse. Rounds go on until the residual reaches
  ``KKT_SETTLE``, where the support no longer depends on the start, or
  until ``STALL_ROUNDS`` rounds in a row neither cut the lowest residual
  by the factor ``STALL_DROP`` nor lower the lowest objective by more than
  ``STALL_PROGRESS`` rounding units, which is where rounding stops
  Newton's progress; a stalled run reports whether it is certified. Once
  the lowest residual is at most ``KKT_EXIT`` (the settle band), one such
  round ends a run that its refreshed inverse certifies: at sill 1e-4
  (n = 50, trial 0, r = 1, joint, kernel start) the residual wanders at a
  floor between ``KKT_EXIT`` and ``KKT_SETTLE``, and without the band the
  run takes 16 rounds instead of 12. A round whose line search accepts no
  point leaves the state as it was, so the next would repeat it: the run
  stops there too, ``"certified"`` by the refreshed inverse or
  ``"stalled"`` (the 3 x 3 rows at correlation 1 - 1e-14 of the
  near-degenerate tests ran 3 and 4 such rounds). Each accepted Newton
  step inverts the model matrix at its new point, so a round decides on
  the inverse of the last accepted step, or before any on the maintained
  inverse of the warm epochs, and only the exit refreshes it.
- ``"paper"`` is the stop protocol of the paper's benchmark table, which
  :func:`covgraph.bench.run_experiment` always runs. The run stops once
  the objective improves by less than ``stop_tol`` over an epoch. The
  epoch improvement is accumulated from the closed-form per-update
  changes, and the maintained inverse is recomputed from scratch every
  ``REFRESH_EVERY`` epochs and once more at the end. The objective-change
  test does not measure stationarity: runs can stop far from the optimum.

Under both, ``max_epochs`` caps the steps of a run, that is its epochs
under ``"paper"`` and its warm epochs plus Newton rounds under
``"optimum"``, and rounding drift of the maintained inverse never reaches
the reported result. The opening clamp is not a step that ``max_epochs``
caps.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .graphs import (Graph, GraphValidationError, all_pairs, as_count, as_covariance, as_real, build_graph,
                     pairwise_distances)
from .solver import (
    _EPS,
    SolverState,
    certificate,
    clamp_step,
    init_state,
    newton_step,
    refresh_phi,
    sweep_edges,
    sweep_vertices,
)
from .verify import screen_edges

INIT_MODES = ("uniform", "kernel", "given")
PROTOCOLS = ("optimum", "paper")

# Epochs between two from-scratch recomputations of the maintained inverse,
# under the "paper" protocol only.
REFRESH_EVERY = 50

# Epochs of the "optimum" protocol before its first Newton round, and its
# only coordinate epochs. After the opening clamp a kernel start keeps
# almost no weight, and the epochs find the support again more cheaply than
# Newton steps, which free only the coordinates whose gradient points
# inward. Measured in one process on an Intel Xeon with numpy 2.4 and 1
# BLAS thread, kernel starts, medians of 5 alternating rounds, with the
# inverse-Hessian preconditioner of covgraph.solver.newton_step: 1 to 6
# warm epochs took the 35 joint desk problems (n = 50, trials 0-6, five
# ranges) 0.67, 0.63, 0.66, 0.67, 0.76 and 0.83 s (436, 353, 315, 291, 282
# and 271 rounds), one joint-large learn (n = 200, trial 0, r = 1) 1.72,
# 0.30, 0.33, 0.38, 0.29 and 0.25 s (27, 17, 20, 23, 14 and 12 rounds) and
# the 35 baseline desk problems 1.18, 1.23, 1.38, 1.51, 1.62 and 1.82 s.
# With 6 the desk problem at trial 6, r = 1 stalls at a KKT residual of
# 2.5e-3, its Newton steps shrinking to 2e-6. So 2, where the Jacobi
# preconditioner had made 5 the fastest.
WARM_EPOCHS = 2

# Largest KKT residual, on a freshly refreshed inverse, at which an
# "optimum" run counts as converged: kkt_report's arithmetic with a 100x
# margin under its default tolerance of 1e-6.
KKT_EXIT = 1e-8

# KKT residual at which an "optimum" run stops. A weight is resolved only to
# about the residual, so a run stopped at KKT_EXIT can keep tiny weights
# that belong at zero. Uniform and kernel starts of the 35 joint desk
# problems kept different sets of weights above 1e-10 (EDGE_PRESENCE_TOL)
# in 10 problems when stopped at 1e-8, in 6 at 1e-10, in 2 at 1e-11 and in
# none at 1e-12; joint-large took 12 epochs to 1e-8 and 15 to 1e-12.
# Rounding binds not far below: at 1e-13 one criterion-8 baseline (trial 6,
# r = 0.1) stalled at 5.8e-11.
KKT_SETTLE = 1e-12

# Rounds in a row without progress (a lowest KKT residual cut by STALL_DROP,
# or a decrease of the lowest objective by STALL_PROGRESS) after which an
# "optimum" run stops. The residual is absolute, so its rounding floor grows
# as the variances shrink: at n = 50 and sills of 1e-6 and 1e-4 it lies
# above or near KKT_EXIT, and those runs went on to max_epochs; with 3 they
# stop after 15-19 warm epochs and rounds (trial 0, r = 1, both methods,
# kernel start). With 3, the 100 criterion-8 problems from uniform and
# kernel starts, twenty at n = 100 (trials 0-1, five ranges, both methods,
# kernel start) and both methods at n = 200 (trial 0, r = 1) stop
# converged, in at most 23 warm epochs and rounds.
STALL_ROUNDS = 3

# Decrease of the lowest objective so far, in units of eps * |objective|,
# that also counts a round as progress for STALL_ROUNDS: a slow run lowers
# the objective while its residual sets no new low, and a rounding floor
# does not. On criterion-8 baseline trial 6 at r = 0.2 the residual hovers
# at 2.0e-4 to 2.3e-4 for eight rounds while each lowers the objective by
# 2.4e8 to 9.1e8 units, and by at least 7.8e6 until it falls below 1e-6;
# without this test that run stops unconverged at 2.0e-4. At the sill 1e-6
# and 1e-4 floors above, the objective moves by at most 3.1e3 units a
# round, either way.
STALL_PROGRESS = 1e6

# Factor by which the KKT residual must fall below its lowest value so far
# for a round to count as progress for STALL_ROUNDS. Near a rounding floor
# the residual wanders and sets small new lows: at sill 1e-4 (trial 0,
# r = 1, joint, kernel start) it reaches 1.0e-8 in round 9 and then moves
# between 3e-10 and 6e-9, and with any new low counted the run took 13
# rounds; with 0.5 it takes 10 and ends certified at 5.9e-9. A Newton round
# away from the floor cuts the residual by far more than half: the 35
# baseline desk problems and joint-large (kernel start) take the same
# rounds either way, the 35 joint desk ones 301 rounds against 302, and
# the 100 criterion-8 problems all still stop certified.
STALL_DROP = 0.5


@dataclass
class LearnConfig:
    """Hyperparameters and initialization for one learning run.

    ``init`` selects how the starting weights are built: ``"uniform"``
    places ``init_value`` (default 1/n) on every active pair, ``"kernel"``
    uses a Gaussian kernel of the pairwise distances of ``points`` with
    bandwidth one third of the mean distance, and ``"given"`` reads weights
    from the ``init_weights`` mapping {(i, j): w}. Construction rejects
    either option with another start, a kernel start without a 2-D array
    of ``points``, a given one without ``init_weights`` and an
    ``init_value`` that is not a nonnegative real; :func:`learn` checks
    what needs n. ``screen`` keeps only the pairs with S_ij > 0
    (:func:`covgraph.verify.screen_edges`); that is exact for the joint
    method alone, because baseline optima put weight on nonpositive pairs
    too, so the baseline rejects it.

    ``protocol`` is ``"optimum"`` (certified stop, the default) or
    ``"paper"`` (the paper's objective-change stop); the module docstring
    describes both. ``stop_tol`` > 0 applies to ``"paper"`` alone.
    ``max_epochs`` caps the epochs of ``"paper"`` and the warm epochs plus
    Newton rounds of ``"optimum"``.
    ``q_min`` > 0 is an absolute floor, in 1/variance units: not scaled by S.
    """

    method: str = "joint"
    protocol: str = "optimum"
    q_min: float = 1e-4
    stop_tol: float = 1e-10
    max_epochs: int = 1000
    init: str = "uniform"
    init_value: float | None = None
    points: np.ndarray | None = None
    init_weights: dict | None = None
    screen: bool = False

    def __post_init__(self):
        if self.method not in ("joint", "baseline"):
            raise GraphValidationError(f"unknown method {self.method!r}")
        if self.protocol not in PROTOCOLS:
            raise GraphValidationError(f"unknown protocol {self.protocol!r}")
        if self.init not in INIT_MODES:
            raise GraphValidationError(f"unknown init mode {self.init!r}")
        if self.init_value is not None and self.init != "uniform":
            raise GraphValidationError(f"init_value applies to init='uniform' only, not {self.init!r}")
        if self.init_weights is not None and self.init != "given":
            raise GraphValidationError(f"init_weights applies to init='given' only, not {self.init!r}")
        if self.init_value is not None:
            as_real(self.init_value, "init_value", "nonnegative")
        if self.init == "kernel" and np.ndim(self.points) != 2:
            got = "None" if self.points is None else f"shape {np.shape(self.points)}"
            raise GraphValidationError(f"kernel init requires vertex coordinates as an (n, d) array, got {got}")
        if self.init == "given" and self.init_weights is None:
            raise GraphValidationError("init='given' requires init_weights")
        as_real(self.stop_tol, "stop_tol", "positive")
        as_count(self.max_epochs, "max_epochs", 1)
        as_real(self.q_min, "q_min", "positive")
        if self.screen and self.method == "baseline":
            raise GraphValidationError("screening is exact for the joint method only")


@dataclass
class LearnResult:
    """Packaged outcome of a learning run.

    ``epochs_run`` counts the coordinate epochs that ran: under
    ``"optimum"`` only the warm ones, ``min(WARM_EPOCHS, max_epochs)``.
    ``history`` holds the objective at initialization and after each step
    that ``max_epochs`` caps: under ``"paper"`` each epoch, so it has
    ``epochs_run + 1`` entries; under ``"optimum"`` each warm epoch and
    each Newton round, so it has ``epochs_run + newton_rounds + 1``
    entries.
    Under ``"optimum"`` the last entry is ``objective``, taken on the exit's
    refreshed inverse; under ``"paper"`` it is the objective after the last
    epoch, before the closing refresh, so its last digits can differ. The
    opening clamp of an ``"optimum"`` run is not a capped step and has no
    entry: ``history[0]`` is the objective at the start weights, before it.
    ``stop`` is how the run ended: ``"certified"`` (refreshed KKT residual
    at most ``KKT_EXIT``, even at the cap), ``"stalled"``, ``"max_epochs"``
    (the cap, which wins over a stall), ``"stop_tol"`` (``"paper"``) or
    ``"trimmed"`` (:func:`covgraph.verify.trim_violations` removed edges);
    ``converged`` is ``stop in ("certified", "stop_tol")``.
    ``max_refresh_drift`` is the largest max-abs difference between the
    maintained inverse and its from-scratch recomputation over the run's
    refreshes; ``singularity_clips`` counts the baseline edge steps clipped
    short of a disconnected graph.

    ``kkt_residual`` and ``duality_gap`` are read off the final refreshed
    inverse under both protocols (:func:`covgraph.solver.certificate`): the
    largest stationarity residual over the active pairs and importances, and
    an upper bound on how far ``objective`` lies above the optimum.

    ``newton_rounds`` counts the Newton steps of an ``"optimum"`` run,
    ``cg_iterations`` the conjugate-gradient iterations they took, and
    ``failed_line_searches`` the steps whose line search accepted no trial
    point (step length 0); all three are 0 under ``"paper"``.
    """

    graph: Graph
    objective: float
    epochs_run: int
    converged: bool
    wall_time_seconds: float
    history: list = field(default_factory=list)
    max_refresh_drift: float = 0.0
    singularity_clips: int = 0
    protocol: str | None = None
    kkt_residual: float = math.nan
    duality_gap: float = math.nan
    newton_rounds: int = 0
    cg_iterations: int = 0
    failed_line_searches: int = 0
    stop: str | None = None


def epoch(state: SolverState) -> float:
    """One full sweep (edges, then importances in joint mode); returns its
    accumulated objective change, which is nonpositive up to rounding."""
    change = sweep_edges(state)
    if state.q is not None:
        change += sweep_vertices(state)
    state.epoch_counter += 1
    return change


def kernel_weights(points, idx_i, idx_j) -> np.ndarray:
    """Gaussian-kernel starting weights exp(-d^2 / (2 sigma^2)) over the pair
    set ``(idx_i, idx_j)``, with sigma one third of the mean pairwise distance."""
    if not len(idx_i):
        return np.zeros(0)
    dist = pairwise_distances(points)
    mean_distance = float(np.mean(dist[all_pairs(len(dist))]))
    if mean_distance <= 0:
        raise GraphValidationError("kernel init needs at least two distinct locations")
    sigma = mean_distance / 3.0
    # float_power squares through pow(), as a scalar ``d ** 2`` does; ``d * d``
    # rounds 1 in about 1,300 squares otherwise, which moves kernel-start runs.
    return np.exp(-np.float_power(dist[idx_i, idx_j], 2) / (2.0 * sigma**2))


def _initial_weights(n, idx_i, idx_j, config: LearnConfig) -> np.ndarray:
    if config.init == "uniform":
        return np.full(len(idx_i), 1.0 / n if config.init_value is None else float(config.init_value))
    if config.init == "kernel":
        points = np.asarray(config.points, dtype=float)
        if points.shape[0] != n:
            raise GraphValidationError(f"kernel init got {points.shape[0]} locations for {n} vertices")
        return kernel_weights(points, idx_i, idx_j)
    given = config.init_weights  # init == "given"
    for key in given:
        if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(v, numbers.Real) for v in key)):
            raise GraphValidationError(f"init weight key {key!r} is not an (i, j) pair")
    ends = np.array(list(given), dtype=float).reshape(len(given), 2)
    inside = np.all((0 <= ends) & (ends < n), axis=1)
    graph = build_graph(n, np.column_stack((ends, list(given.values())))[inside])
    active, keys = idx_i * n + idx_j, graph.idx_i * n + graph.idx_j
    listed = np.isin(keys, active)
    if not (inside.all() and listed.all()):
        key = graph.edges[np.argmin(listed)][:2] if inside.all() else list(given)[np.argmin(inside)]
        raise GraphValidationError(f"init weight for inactive pair {key!r}")
    w0 = np.zeros(len(idx_i))
    w0[np.searchsorted(active, keys)] = graph.w
    return w0


def _paper_run(state: SolverState, config: LearnConfig):
    history = [state.objective]
    stop = "max_epochs"
    for _ in range(config.max_epochs):
        change = epoch(state)
        if state.epoch_counter % REFRESH_EVERY == 0:
            refresh_phi(state)
        history.append(state.objective)
        if abs(change) < config.stop_tol:
            stop = "stop_tol"
            break
    refresh_phi(state)
    return history, stop


def _optimum_run(state: SolverState, config: LearnConfig):
    history = [state.objective]
    clamp_step(state)
    for _ in range(min(WARM_EPOCHS, config.max_epochs)):
        epoch(state)
        history.append(state.objective)
    best, lowest, stale, failed = math.inf, math.inf, 0, False
    while True:
        capped = len(history) - 1 >= config.max_epochs
        residual = certificate(state)[0]
        progress = STALL_PROGRESS * _EPS * abs(state.objective)
        moved = residual < STALL_DROP * best or state.objective < lowest - progress
        best, lowest = min(best, residual), min(lowest, state.objective)
        stale = 0 if moved else stale + 1
        # A failed line search left the state as it was.
        stalled = stale >= STALL_ROUNDS or failed
        # The settle band: once the lowest residual is certifiable, one
        # round without a new low ends a run that the refresh certifies.
        settled = stale > 0 and best <= KKT_EXIT
        if capped or stalled or settled or residual <= KKT_SETTLE:
            # The exit is decided on a refreshed phi.
            refresh_phi(state)
            history[-1] = state.objective
            if certificate(state)[0] <= KKT_EXIT:
                return history, "certified"
            if capped or stalled:
                return history, "max_epochs" if capped else "stalled"
        failed = newton_step(state)[0] == 0.0
        history.append(state.objective)


# Each run returns its history and its LearnResult.stop, on a refreshed phi.
_RUNS = {"optimum": _optimum_run, "paper": _paper_run}


def learn(S, config: LearnConfig | None = None) -> LearnResult:
    """Learn a graph from a covariance with the method ``config.method``.

    ``"joint"`` minimizes -logdet(diag(q) + L) + trace((diag(q) + L) S)
    over w >= 0 and q >= q_min, starting every importance at 1; the model
    matrix is always positive definite, so no connectivity restriction
    applies to the updates.
    ``"baseline"`` minimizes -logdet(L + J/n) + trace(L S) over w >= 0;
    the initial graph must be connected, and updates are clipped away from
    the disconnection singularity of L + J/n. The default config is joint,
    under the ``"optimum"`` protocol.
    """
    cov = as_covariance(S)
    config = config or LearnConfig()

    idx_i, idx_j = screen_edges(cov) if config.screen else all_pairs(cov.n)
    w0 = _initial_weights(cov.n, idx_i, idx_j, config)
    if config.method == "joint":
        q0, q_min = 1.0, config.q_min
    else:
        q0 = q_min = None

    start = time.perf_counter()
    state = init_state(cov, idx_i, idx_j, w0, q0=q0, q_min=q_min)
    history, stop = _RUNS[config.protocol](state, config)
    kkt_residual, duality_gap = certificate(state)
    wall = time.perf_counter() - start

    edges = np.column_stack((state.idx_i, state.idx_j, state.w))[state.w > 0]
    graph = build_graph(cov.n, edges, q=state.q, q_min=state.q_min)
    return LearnResult(
        graph=graph,
        objective=state.objective,
        epochs_run=state.epoch_counter,
        converged=stop in ("certified", "stop_tol"),
        wall_time_seconds=wall,
        history=history,
        max_refresh_drift=state.max_refresh_drift,
        singularity_clips=state.singularity_clips,
        protocol=config.protocol,
        kkt_residual=kkt_residual,
        duality_gap=duality_gap,
        newton_rounds=state.newton_rounds,
        cg_iterations=state.cg_iterations,
        failed_line_searches=state.failed_line_searches,
        stop=stop,
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

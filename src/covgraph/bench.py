"""Synthetic spatial benchmark: exponential-variogram covariances over
random locations in the unit square, learned-graph quality metrics, and the
trial-averaged comparison harness for the two learners.

A trial samples n locations, builds the exact covariance S_ii = sill,
S_ij = sill * exp(-d_ij / range), learns a graph from the same Gaussian
kernel initialization for every method, and reports: the fraction of
importances at the floor, the mean importance above the floor, the fraction
of absent edges, and the learning wall time.
"""
from __future__ import annotations

import concurrent.futures
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .graphs import CovarianceMatrix, GraphValidationError, _frozen_array, all_pairs
from .learn import LearnConfig, kernel_weights, learn, pairwise_distances
from .solver import SingularModelError
from .verify import baseline_variogram_edge_bound, variogram_edge_bound

# A weight is an "edge" only above this threshold: exact clamps land on 0.0,
# but refresh and trimming paths may leave numerical dust.
EDGE_PRESENCE_TOL = 1e-10

METHOD_ORDER = ("baseline", "joint")


@dataclass(frozen=True, eq=False)
class SpatialSample:
    """Locations drawn uniformly in the unit square, reproducible per seed."""

    points: np.ndarray
    seed: int


@dataclass(frozen=True)
class VariogramSpec:
    """Isotropic exponential variogram 2*gamma(d) = 2*sill*(1 - e^(-d/r)).

    ``sill`` is the common variance of every location and ``range_`` the
    correlation length. Measurement noise (a nugget) is not modeled.
    """

    sill: float = 10.0
    range_: float = 0.1
    nugget: float = 0.0

    def __post_init__(self):
        if not self.sill > 0:
            raise GraphValidationError("variogram sill must be positive")
        if not self.range_ > 0:
            raise GraphValidationError("variogram range must be positive")
        if self.nugget != 0.0:
            raise GraphValidationError("nonzero nugget is not supported")


@dataclass
class MetricsRow:
    """Per-(method, range) metrics; ``u_q``/``q_bar`` are None for methods
    without importances or when undefined (no importance above the floor)."""

    method: str
    r: float
    u_q: float | None
    q_bar: float | None
    epsilon_w: float
    time_s: float


@dataclass
class ExperimentTable:
    rows: list


def sample_locations(n, seed) -> SpatialSample:
    """Draw n i.i.d. uniform locations in [0, 1]^2."""
    if n < 2:
        raise GraphValidationError(f"need at least 2 locations, got {n}")
    rng = np.random.default_rng(seed)
    return SpatialSample(points=_frozen_array(rng.random((int(n), 2))), seed=int(seed))


def _points_of(sample_or_points) -> np.ndarray:
    points = getattr(sample_or_points, "points", None)
    if points is None:
        points = np.asarray(sample_or_points, dtype=float)
    return points


def variogram_covariance(sample_or_points, spec: VariogramSpec) -> CovarianceMatrix:
    """Exact covariance of the variogram model at the sampled locations."""
    points = _points_of(sample_or_points)
    S = spec.sill * np.exp(-pairwise_distances(points) / spec.range_)
    np.fill_diagonal(S, spec.sill)
    return CovarianceMatrix(entries=S)


def kernel_initial_graph(sample_or_points) -> np.ndarray:
    """Fully connected Gaussian-kernel starting weights over all pairs,
    ordered like :func:`covgraph.graphs.all_pairs`."""
    points = _points_of(sample_or_points)
    return kernel_weights(points, all_pairs(points.shape[0]))


def compute_metrics(result, method=None, r=None) -> MetricsRow:
    """Learned-graph quality metrics for one result.

    ``u_q`` uses exact equality with the floor (clamping is exact);
    ``q_bar`` averages the strictly-above-floor importances; ``epsilon_w``
    is the fraction of vertex pairs carrying no weight.
    """
    graph = result.graph
    n = graph.n
    total_pairs = n * (n - 1) // 2
    present = sum(1 for _, _, w in graph.edges if w > EDGE_PRESENCE_TOL)
    epsilon_w = 1.0 - present / total_pairs

    u_q = None
    q_bar = None
    if graph.q is not None:
        at_floor = graph.q == graph.q_min
        u_q = float(np.mean(at_floor))
        above = graph.q[~at_floor]
        if above.size:
            q_bar = float(np.mean(above))
    return MetricsRow(
        method=method,
        r=r,
        u_q=u_q,
        q_bar=q_bar,
        epsilon_w=epsilon_w,
        time_s=result.wall_time_seconds,
    )


def _run_trial(method, r, n, seed, template: LearnConfig):
    """Metrics of one trial and whether its learner converged."""
    sample = sample_locations(n, seed)
    S = variogram_covariance(sample, VariogramSpec(range_=r))
    config = replace(
        template,
        method=method,
        init="kernel",
        points=sample.points,
        init_weights=None,
        init_value=None,
    )
    result = learn(S, config)
    return compute_metrics(result, method=method, r=r), result.converged


def _attempt_trial(task):
    """``_run_trial(*task)``, or the numerical failure it raised."""
    try:
        return _run_trial(*task)
    except (SingularModelError, np.linalg.LinAlgError) as exc:
        return exc


def _mean_or_none(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def run_experiment(
    ranges,
    n=50,
    trials=50,
    base_seed=0,
    methods=METHOD_ORDER,
    config: LearnConfig | None = None,
    parallel=1,
) -> ExperimentTable:
    """Average trial metrics per (method, range).

    Trial k uses seed ``base_seed + k``, so every method sees the same
    locations and the same kernel initialization. Failed trials (a numerical
    singularity in the baseline) are excluded from the averages with an
    explicit warning; trials that stopped at ``max_epochs`` stay in the
    averages, with one warning per (method, range) giving their count. Rows
    are emitted baseline-first, ranges in the given order. ``parallel`` > 1
    runs trials in worker processes; results are merged in deterministic
    trial order either way.
    """
    if trials < 1:
        raise GraphValidationError("trials must be at least 1")
    template = config or LearnConfig()

    tasks = [
        (method, float(r), int(n), int(base_seed) + k, template)
        for method in methods
        for r in ranges
        for k in range(trials)
    ]

    if parallel and parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_attempt_trial, tasks))
    else:
        results = list(map(_attempt_trial, tasks))
    outcomes = {task[:4]: result for task, result in zip(tasks, results)}

    rows = []
    for method in methods:
        for r in ranges:
            collected = []
            unconverged = 0
            for k in range(trials):
                key = (method, float(r), int(n), int(base_seed) + k)
                outcome = outcomes[key]
                if isinstance(outcome, Exception):
                    warnings.warn(
                        f"trial {k} for method={method} r={r} failed and is "
                        f"excluded from the averages: {outcome}"
                    )
                    continue
                row, converged = outcome
                collected.append(row)
                unconverged += not converged
            if unconverged:
                warnings.warn(
                    f"{unconverged} of {trials} trials for method={method} r={r} "
                    "stopped at max_epochs without converging; they stay in the averages"
                )
            if not collected:
                warnings.warn(f"all trials failed for method={method} r={r}")
                rows.append(
                    MetricsRow(
                        method=method, r=float(r), u_q=None, q_bar=None,
                        epsilon_w=float("nan"), time_s=float("nan"),
                    )
                )
                continue
            rows.append(
                MetricsRow(
                    method=method,
                    r=float(r),
                    u_q=_mean_or_none([m.u_q for m in collected]),
                    q_bar=_mean_or_none([m.q_bar for m in collected]),
                    epsilon_w=float(np.mean([m.epsilon_w for m in collected])),
                    time_s=float(np.mean([m.time_s for m in collected])),
                )
            )
    return ExperimentTable(rows=rows)


def bound_curves(ranges, sill=10.0, d_max=1.5, steps=151):
    """Weight-bound curves on a uniform distance grid starting at 0.

    Returns ``(d_grid, curves)`` with one joint-model and one baseline curve
    per range, keyed ``bound_proposed_r{r}`` and ``bound_baseline_r{r}``;
    values at d = 0 are infinite.
    """
    d = np.linspace(0.0, float(d_max), int(steps))
    curves = {}
    for r in ranges:
        curves[f"bound_proposed_r{r:g}"] = variogram_edge_bound(d, r, sill)
    for r in ranges:
        curves[f"bound_baseline_r{r:g}"] = baseline_variogram_edge_bound(d, r, sill)
    return d, curves

"""Synthetic spatial benchmark: exponential-variogram covariances over
random locations in the unit square and their closed-form weight bounds,
learned-graph quality metrics, and the trial-averaged comparison harness
for the two learners.

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

from .graphs import (CovarianceMatrix, GraphValidationError, _frozen_array, all_pairs, as_count, as_real,
                     pairwise_distances)
from .learn import LearnConfig, kernel_weights, learn
from .solver import SingularModelError, above_floor

# A weight is an "edge" only above this threshold: exact clamps land on 0.0,
# but refresh and trimming paths may leave numerical dust.
EDGE_PRESENCE_TOL = 1e-10

METHOD_ORDER = ("baseline", "joint")


@dataclass(frozen=True, eq=False)
class SpatialSample:
    """Locations drawn uniformly in the unit square, reproducible per seed."""

    points: np.ndarray


@dataclass(frozen=True)
class VariogramSpec:
    """Isotropic exponential variogram 2*gamma(d) = 2*sill*(1 - e^(-d/r)).

    ``sill`` is the common variance of every location and ``range_`` the
    correlation length. Measurement noise is not modeled.
    """

    sill: float = 10.0
    range_: float = 0.1

    def __post_init__(self):
        as_real(self.sill, "variogram sill", "positive")
        as_real(self.range_, "variogram range", "positive")


def variogram_edge_bound(d, r, sill=VariogramSpec.sill):
    """Joint-model weight bound for the covariance of ``VariogramSpec(sill, r)``
    as a function of vertex distance: 1 / (sill * (e^(d/r) - e^(-d/r)))."""
    spec = VariogramSpec(sill, r)
    x = np.asarray(d, dtype=float) / spec.range_
    with np.errstate(divide="ignore"):
        out = 1.0 / (spec.sill * (np.exp(x) - np.exp(-x)))
    return out if out.ndim else float(out)


def baseline_variogram_edge_bound(d, r, sill=VariogramSpec.sill):
    """Baseline (combinatorial-Laplacian) weight bound 1/h for the same
    covariance: 1 / (2 sill (1 - e^(-d/r))); unbounded (inf) at d = 0."""
    spec = VariogramSpec(sill, r)
    x = np.asarray(d, dtype=float) / spec.range_
    with np.errstate(divide="ignore"):
        out = 1.0 / (2.0 * spec.sill * (1.0 - np.exp(-x)))
    return out if out.ndim else float(out)


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
    """Draw n i.i.d. uniform locations in [0, 1]^2; n is an int >= 2, seed >= 0."""
    n = as_count(n, "location count", 2)
    rng = np.random.default_rng(as_count(seed, "seed", 0))
    return SpatialSample(points=_frozen_array(rng.random((n, 2))))


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
    """Fully connected Gaussian-kernel starting weights, one per pair of
    :func:`covgraph.graphs.all_pairs`, in its order."""
    points = _points_of(sample_or_points)
    return kernel_weights(points, *all_pairs(points.shape[0]))


def compute_metrics(result, method=None, r=None) -> MetricsRow:
    """Learned-graph quality metrics for one result of n >= 2 vertices.

    ``u_q`` is the fraction of importances at the floor and ``q_bar`` the
    mean of the others, split by :func:`covgraph.solver.above_floor`;
    ``epsilon_w`` is the fraction of vertex pairs carrying no weight.
    """
    graph = result.graph
    n = graph.n
    if n < 2:
        raise GraphValidationError(f"metrics need at least 2 vertices, got {n}")
    total_pairs = n * (n - 1) // 2
    present = int(np.count_nonzero(graph.w > EDGE_PRESENCE_TOL))
    epsilon_w = 1.0 - present / total_pairs

    u_q = None
    q_bar = None
    if graph.q is not None:
        free = above_floor(graph.q, graph.q_min)
        u_q = float(np.mean(~free))
        above = graph.q[free]
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
        protocol="paper",
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


def _mean(values, empty=None):
    """Mean of the values that are not None, or ``empty`` if there are none."""
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else empty


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
    locations and the same kernel initialization. Every trial runs the
    paper's stop protocol (``protocol="paper"``), whatever the template
    says, so the table is the paper's table. Failed trials (a numerical
    singularity in the baseline) are excluded from the averages with an
    explicit warning; trials that stopped at ``max_epochs`` stay in the
    averages, with one warning per (method, range) giving their count. Rows
    are emitted baseline-first, ranges in the given order. ``parallel`` > 1
    runs trials in worker processes; results are merged in deterministic
    trial order either way. Empty ``ranges`` or ``methods``, an unknown
    method, and counts that are not ints (n >= 2, trials and parallel >= 1,
    base_seed >= 0) raise :class:`GraphValidationError` before any trial runs.
    """
    trials, n = as_count(trials, "trials", 1), as_count(n, "n", 2)
    base_seed, parallel = as_count(base_seed, "base_seed", 0), as_count(parallel, "parallel", 1)
    if len(ranges) == 0 or len(methods) == 0:
        raise GraphValidationError("ranges and methods must not be empty")
    template = config or LearnConfig()
    configs = {method: replace(template, method=method) for method in methods}

    # Cell c holds tasks and results c * trials to (c + 1) * trials.
    cells = [(method, r) for method in methods for r in ranges]
    tasks = [
        (method, float(r), n, base_seed + k, configs[method])
        for method, r in cells
        for k in range(trials)
    ]

    if parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_attempt_trial, tasks))
    else:
        results = list(map(_attempt_trial, tasks))

    rows = []
    for c, (method, r) in enumerate(cells):
        collected = []
        unconverged = 0
        for k, outcome in enumerate(results[c * trials:(c + 1) * trials]):
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
                method=method,
                r=float(r),
                u_q=_mean([m.u_q for m in collected]),
                q_bar=_mean([m.q_bar for m in collected]),
                epsilon_w=_mean([m.epsilon_w for m in collected], float("nan")),
                time_s=_mean([m.time_s for m in collected], float("nan")),
            )
        )
    return ExperimentTable(rows=rows)


def bound_curves(ranges, sill=VariogramSpec.sill, d_max=1.5, steps=151):
    """Weight-bound curves on a uniform distance grid starting at 0.

    Returns ``(d_grid, curves)`` with one joint-model and one baseline curve
    per range, keyed ``bound_proposed_r{r}`` and ``bound_baseline_r{r}``;
    values at d = 0 are infinite. ``ranges`` must not be empty, every range
    must give a valid :class:`VariogramSpec` with ``sill``, ``d_max`` must
    be positive and finite and ``steps`` an int of at least 1.
    """
    if len(ranges) == 0:
        raise GraphValidationError("ranges must not be empty")
    d = np.linspace(0.0, as_real(d_max, "d_max", "positive"), as_count(steps, "steps", 1))
    curves = {}
    for r in ranges:
        curves[f"bound_proposed_r{r:g}"] = variogram_edge_bound(d, r, sill)
    for r in ranges:
        curves[f"bound_baseline_r{r:g}"] = baseline_variogram_edge_bound(d, r, sill)
    return d, curves

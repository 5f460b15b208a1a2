"""Layer spans recorded from outside the program.

Each hook replaces one module-level name with a timing wrapper, in the
module where its callers look the name up (``covgraph.learn.sweep_edges``
is what ``covgraph.learn.epoch`` calls). A span's self time is its duration
minus the time covered by the spans it caused, so self times of nested
layers add up to the traced request time without double counting.

Wrapped names are restored when :func:`hooked` exits. A name that no longer
exists is reported as a missing span instead of failing the run.
"""
from __future__ import annotations

import fnmatch
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Recorder:
    """Spans of the traced phase, kept in memory until the run ends."""

    def __init__(self):
        self.request = None
        self.spans = []  # (request, name, start, end, parent)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []  # [name, start, child seconds]

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self):
        name, start, child = self._stack.pop()
        end = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        self.calls[name] += 1
        self.self_s[name] += end - start - child
        self.spans.append((self.request, name, start, end, parent[0] if parent else None))


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be a glob) in span ``span``.

    ``before(args)`` runs ahead of the call and its value is handed to
    ``after(recorder, args, result, before_value)``, which records counts.
    """

    module: str
    attr: str
    span: str
    before: Callable | None = None
    after: Callable | None = None


def _wrap(original, hook: Hook, recorder: Recorder):
    def wrapper(*args, **kwargs):
        seen = hook.before(args) if hook.before else None
        recorder.enter(hook.span)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.leave()
        if hook.after:
            hook.after(recorder, args, result, seen)
        return result

    wrapper.__wrapped__ = original
    return wrapper


@contextmanager
def hooked(hooks, recorder: Recorder):
    """Install ``hooks`` for the duration of the block; yields the names
    (``module.attr``) that could not be found."""
    restore = []
    missing = []
    try:
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                missing.append(f"{hook.module}.{hook.attr}")
                continue
            names = [n for n in vars(module) if fnmatch.fnmatchcase(n, hook.attr)]
            names = [n for n in names if callable(getattr(module, n))]
            if not names:
                missing.append(f"{hook.module}.{hook.attr}")
            for name in sorted(names):
                original = getattr(module, name)
                restore.append((module, name, original))
                setattr(module, name, _wrap(original, hook, recorder))
        yield missing
    finally:
        for module, name, original in reversed(restore):
            setattr(module, name, original)


# --- counters read at the layer boundaries -------------------------------

def _solver_before(args):
    state = args[0]
    return state.updates_since_refresh, state.singularity_clips


def _sweep_after(visited):
    def after(rec, args, result, seen):
        state = args[0]
        rec.counts["solver.coords_visited"] += visited(state)
        rec.counts["solver.updates_applied"] += state.updates_since_refresh - seen[0]
        rec.counts["solver.singularity_clips"] += state.singularity_clips - seen[1]

    return after


def _refresh_after(rec, args, drift, seen):
    rec.maxima["solver.refresh_drift_max"] = max(rec.maxima["solver.refresh_drift_max"], drift)


def _learn_after(rec, args, result, seen):
    rec.counts["learn.epochs"] += result.epochs_run
    rec.counts["learn.unconverged"] += not result.converged


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _read_before(args):
    return _size(args[0])


def _read_after(rec, args, result, size):
    rec.counts["io.bytes_read"] += size


def _write_after(rec, args, result, seen):
    rec.counts["io.bytes_written"] += _size(args[0])


HOOKS = (
    Hook("covgraph.learn", "learn_joint", "learn", after=_learn_after),
    Hook("covgraph.learn", "learn_cgl_baseline", "learn", after=_learn_after),
    Hook("covgraph.learn", "init_state", "solver.init"),
    Hook("covgraph.learn", "sweep_edges", "solver.edge_sweep", _solver_before,
         _sweep_after(lambda state: len(state.pairs))),
    Hook("covgraph.learn", "sweep_vertices", "solver.vertex_sweep", _solver_before,
         _sweep_after(lambda state: state.n)),
    Hook("covgraph.learn", "refresh_phi", "solver.refresh", after=_refresh_after),
    Hook("covgraph.solver", "laplacian_from_pairs", "graphs.laplacian"),
    Hook("covgraph.bench", "sample_locations", "bench.sample_locations"),
    Hook("covgraph.bench", "variogram_covariance", "bench.variogram_covariance"),
    Hook("covgraph.bench", "compute_metrics", "bench.compute_metrics"),
    Hook("covgraph.cli", "main", "cli"),
    Hook("covgraph.cli", "kkt_report", "verify.kkt_report"),
    Hook("covgraph.cli", "bound_report", "verify.bound_report"),
    Hook("covgraph.cli", "compute_gft", "spectral.compute_gft"),
    Hook("covgraph.cli", "sample_stationary_signals", "spectral.sample"),
    Hook("covgraph.cli", "laplacian", "graphs.laplacian"),
    Hook("covgraph.verify", "laplacian", "graphs.laplacian"),
    Hook("covgraph.io", "read_*", "io.read", before=_read_before, after=_read_after),
    Hook("covgraph.io", "write_*", "io.write", after=_write_after),
)

# (metric, unit) in report order; self times and counts are per request.
LAYER_METRICS = (
    ("solver.edge_sweep_s", "s"),
    ("solver.vertex_sweep_s", "s"),
    ("solver.epoch_ms", "ms"),
    ("solver.coords_visited", "count"),
    ("solver.updates_applied", "count"),
    ("solver.update_ratio", "ratio"),
    ("solver.refresh_s", "s"),
    ("solver.refresh_calls", "count"),
    ("solver.refresh_drift_max", "max_abs"),
    ("solver.singularity_clips", "count"),
    ("solver.init_s", "s"),
    ("learn.calls", "count"),
    ("learn.epochs", "count"),
    ("learn.unconverged", "count"),
    ("learn.self_s", "s"),
    ("graphs.laplacian_s", "s"),
    ("graphs.laplacian_calls", "count"),
    ("verify.kkt_report_s", "s"),
    ("verify.bound_report_s", "s"),
    ("spectral.compute_gft_s", "s"),
    ("spectral.sample_s", "s"),
    ("io.read_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_read", "bytes"),
    ("io.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("bench.sample_locations_s", "s"),
    ("bench.variogram_covariance_s", "s"),
    ("bench.compute_metrics_s", "s"),
)


def layer_metrics(rec: Recorder, requests: int) -> dict:
    """Per-request values of :data:`LAYER_METRICS` from one traced phase."""
    per = 1.0 / max(requests, 1)
    values = {}
    for span in set(h.span for h in HOOKS):
        key = f"{span}_s" if "." in span else f"{span}.self_s"
        values[key] = rec.self_s[span] * per
    for name, total in rec.counts.items():
        values[name] = total * per
    values["learn.calls"] = rec.calls["learn"] * per
    values["solver.refresh_calls"] = rec.calls["solver.refresh"] * per
    values["graphs.laplacian_calls"] = rec.calls["graphs.laplacian"] * per
    values["solver.refresh_drift_max"] = rec.maxima["solver.refresh_drift_max"]
    epochs = rec.calls["solver.edge_sweep"]
    sweep_s = rec.self_s["solver.edge_sweep"] + rec.self_s["solver.vertex_sweep"]
    values["solver.epoch_ms"] = 1000.0 * sweep_s / epochs if epochs else 0.0
    visited = rec.counts["solver.coords_visited"]
    values["solver.update_ratio"] = rec.counts["solver.updates_applied"] / visited if visited else 0.0
    return {name: float(values.get(name, 0.0)) for name, _ in LAYER_METRICS}

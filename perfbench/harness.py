"""The closed loop: set-up, timed requests, traced replay, and the tail rule."""
from __future__ import annotations

import itertools
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import tracing
from workloads import WORKLOADS, Outcome

TAIL_LADDER = (500, 750, 900, 950, 990, 995, 999)  # percentiles, in tenths
MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 5, 0.5, 200


@dataclass
class Request:
    spec: object
    seconds: float
    outcome: Outcome


def tail(times):
    """Highest ladder percentile with at least ten requests beyond it, as
    (percentile, value, sample count); None below twenty requests."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    best = None
    for tenths in TAIL_LADDER:
        rank = (tenths * n + 999) // 1000  # nearest rank, rounded up
        if n - rank >= 10:
            best = (tenths / 10, ordered[rank - 1], n)
    return best


def one_request(workload, ctx, spec) -> Request:
    start = time.perf_counter()
    try:
        out = workload.request(ctx, spec)
    except Exception as exc:  # a failed request is counted, not fatal
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Request(spec, seconds, Outcome("raised", True, "raised", f"{spec}: {exc!r}"))
    seconds = time.perf_counter() - start
    return Request(spec, seconds, workload.check(ctx, spec, out))


def timed_phase(workload, ctx, pool, seconds, recorder=None):
    """Whole passes over ``pool`` until the request time reaches ``seconds``.

    With a recorder, every request runs twice in a row, untraced and traced.
    Which copy goes first alternates, because the second copy finds the
    request's data warm. Returns (untraced, traced, missing span names).
    """
    workload.warmup(ctx, pool)
    untraced, traced, missing = [], [], set()
    for passes in itertools.count():
        for position, spec in enumerate(pool):
            traced_first = recorder is not None and (passes + position) % 2 == 1
            if not traced_first:
                untraced.append(one_request(workload, ctx, spec))
            if recorder is not None:
                recorder.request = len(traced)
                with tracing.hooked(tracing.HOOKS, recorder) as gone:
                    traced.append(one_request(workload, ctx, spec))
                missing.update(gone)
            if traced_first:
                untraced.append(one_request(workload, ctx, spec))
        if sum(r.seconds for r in untraced) >= seconds:
            return untraced, traced, sorted(missing)


def timed_setup(workload, seed, workdir):
    times = []
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        start = time.perf_counter()
        pool, ctx = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return pool, ctx, statistics.median(times)


def environment():
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def failures(done):
    causes = {"raised": 0, "unconverged": 0, "check": 0}
    for r in done:
        if r.outcome.cause:
            causes[r.outcome.cause] += 1
    return causes

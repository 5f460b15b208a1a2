"""covgraph benchmark: time to a verified graph, one closed-loop client.

    python3 perfbench/run.py --workload joint-desk --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a checkout; covgraph is imported from its ``src/``.
One client sends each request after the previous one returns. Requests run
in whole passes over the workload's pool until the time spent in requests
reaches ``--seconds``. Each output is checked after its request, outside the
timing, and every request counts whether or not it failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every timed
request twice in a row, untraced and with every layer hook installed, and
prints the per-layer metrics with the tracing overhead (traced minus
untraced request median). The last line of standard output is one JSON
object; the lines before it are the human-readable report. ``--workload
all`` runs every workload, each in a fresh process.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def report(args, env, done, setup_s, traced=None):
    times = [r.seconds for r in done]
    causes = harness.failures(done)
    failed = sum(causes.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "request_p50_s": (statistics.median(times), "s"),
        "requests_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(done)} requests, closed loop, one client")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {value:.6g} {unit}")
    t = harness.tail(times)
    if t:
        print(f"request_tail_s   {t[1]:.6g} s (p{t[0]:g} of {t[2]} requests)")
    else:
        print(f"request_tail_s   not reported ({len(times)} requests, fewer than 20)")
    print(f"fail_frac        {failed / len(done):.6g} ({failed} of {len(done)}: "
          + ", ".join(f"{k} {v}" for k, v in causes.items()) + ")")
    for r in done:
        if r.outcome.cause:
            print(f"failed [{r.outcome.cause}] {r.outcome.note}")
    valid = all(r.outcome.valid for r in done)
    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if traced is not None:
        traced_done, recorder, missing = traced
        same = [r.outcome.digest for r in done] == [r.outcome.digest for r in traced_done]
        valid = valid and same
        layer = harness.tracing.layer_metrics(recorder, len(traced_done))
        untraced_p50 = metrics["request_p50_s"][0]
        traced_p50 = statistics.median(r.seconds for r in traced_done)
        layer["trace.overhead_s"] = traced_p50 - untraced_p50
        layer["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
        units = dict(harness.tracing.LAYER_METRICS, **{"trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
        print(f"traced replay: {len(traced_done)} requests, outputs identical to untraced: {same}")
        print("missing spans: " + (", ".join(missing) if missing else "none"))
        for name, value in layer.items():
            print(f"{name:<30} {value:.6g} {units[name]}")
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        write_spans(args, recorder)
    if not valid:
        print("INCORRECT: an output broke the program's contract (see failed lines)")
    print(json.dumps({"correct": valid, "attempted": len(done), "failed": failed,
                      "metrics": result_metrics}))


def write_spans(args, recorder):
    out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for req, name, start, end, parent in recorder.spans:
            fh.write(json.dumps({"request": req, "span": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")
    print(f"spans written to {out.relative_to(ROOT)}")


def run_all(args):
    status = 0
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)

    workload = harness.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        pool, ctx, setup_s = harness.timed_setup(workload, args.seed, workdir)
        recorder = harness.tracing.Recorder() if args.trace else None
        done, traced, missing = harness.timed_phase(workload, ctx, pool, args.seconds, recorder)
        report(args, harness.environment(), done, setup_s,
               (traced, recorder, missing) if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def import_harness():
    """Import the benchmark with covgraph taken from this checkout's sources.

    BLAS reads its thread count once, when numpy loads it, so the count is
    pinned here, before the first import of numpy.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "covgraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no covgraph sources at {SRC}; run from a covgraph checkout")
    sys.path.insert(0, str(SRC))
    import covgraph

    if Path(covgraph.__file__).resolve().parent != SRC / "covgraph":
        sys.exit(f"perfbench: imported covgraph from {covgraph.__file__}, not {SRC}")
    import harness

    return harness


if __name__ == "__main__":
    harness = import_harness()
    sys.exit(main())

"""Paired benchmark runs of a parent commit against a change, summarized.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_7.json
    python3 tools/bench_pairs.py --parent HEAD --change worktree --workloads joint-large

Run from the root of a checkout. The parent side is ``git archive`` of the
``--parent`` revision, unpacked into a temporary directory that is removed
afterwards. The change side is the ``--change`` revision unpacked the same
way, or with ``--change worktree`` (the default) the checkout itself, so
uncommitted edits are measured. Every run is
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` in a fresh
process. Pair k uses seed ``--seed + k``; even pairs run the parent first,
odd pairs the change. The JSON file is rewritten after every run, so an
interrupted set keeps what it measured.

The summary gives, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles (linear interpolation), the pairs the
change wins (ties count for neither side), the relative change of the
median, whether it stays within the metric's bound, and whether the
claim rule holds: the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.

    python3 tools/bench_pairs.py --in-process --parent HEAD~1 --change HEAD --pairs 10 --out BENCH_7.json

Each run is a fresh process and runs at least one whole pass over its
workload's pool after the warmup, so a tiny run length gives each side's
peak memory for one pass (one learn for ``joint-large``, the two fixtures
for ``analyze``) under ``peak_rss_mb``, with no other tool:

    python3 tools/bench_pairs.py --parent HEAD --workloads joint-large,analyze --seconds 0.001 --pairs 5 --out rss.json

``--in-process`` measures in one process instead, which the machine's
drift between processes does not reach. Both trees are imported side by
side, under the package names ``covgraph_parent`` and ``covgraph_change``.
Each of ``--pairs`` rounds times, per side, three problem sets on the same
inputs, each learn from a kernel start under the default protocol:
``desk``, the 35 joint desk learns (n = 50, trials 0-6, five ranges);
``large``, one joint-large learn (n = 200, trial 0, r = 1); and
``baseline``, the 35 desk problems learned by the baseline method, which
no benchmark workload runs. The side that goes first alternates from
round to round. BLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` says
otherwise. The times go under the key
``in_process`` of ``--out``, and the file's other keys are kept, so one
file holds both sets. The summary gives, per problem set, each side's
median, quartiles and minimum, the rounds the change wins and the
quartiles of the per-round ratio change / parent, and each side's totals
over the set's learns (``counts``): coordinate epochs, Newton rounds, CG
iterations and certified stops. Outside the timed
region the run also compares the two sides' outputs, problem by problem:
``identical`` holds, per problem set, whether ``graph.edges``, the bytes
of ``graph.q``, ``repr(objective)``, ``history``, ``epochs_run``,
``converged``, ``repr(kkt_residual)``, ``repr(duality_gap)``, ``stop``,
``repr(max_refresh_drift)``, ``singularity_clips``, ``newton_rounds``,
``cg_iterations`` and ``failed_line_searches`` were byte-identical on both
sides in every round, and the summary counts them.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of ``values`` by linear interpolation between order
    statistics (numpy's default percentile method)."""
    xs = sorted(values)

    def at(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def compare(parent, change, better, bound):
    """Summary of one metric over pairs ``parent[k]``, ``change[k]``."""
    sign = 1.0 if better == "lower" else -1.0
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    relative = (cm - pm) / pm if pm else 0.0
    return {
        "better": better,
        "bound": bound,
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "change_wins": wins,
        "relative_change_of_median": relative,
        "parent_iqr": p3 - p1,
        "within_bound": sign * relative <= bound,
        "claim_rule_met": wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1,
    }


def summarize(runs, metrics):
    """Per-workload summary of ``runs`` (entries of the ``runs`` list) for
    ``metrics``, the ``end_to_end`` list of ``BENCHMARK.json``. Only pairs
    in which both sides produced a result count."""
    by_pair = {}
    for run in runs:
        if run.get("result") is not None:
            by_pair.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for workload, pairs in by_pair.items():
        complete = [pairs[k] for k in sorted(pairs) if len(pairs[k]) == len(SIDES)]
        if not complete:
            continue
        entry = {"pairs": len(complete)}
        for metric in metrics:
            name = metric["name"]
            parent, change = ([p[s]["result"]["metrics"][name]["value"] for p in complete] for s in SIDES)
            entry[name] = compare(parent, change, metric["better"], metric["bound"])
        entry["failed_per_run"] = {
            s: sorted({p[s]["result"]["failed"] for p in complete}) for s in SIDES
        }
        summary[workload] = entry
    return summary


def unpack(rev, dest):
    """Write the files of commit ``rev`` to ``dest`` with ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_once(checkout, workload, seed, seconds):
    """One benchmark process; returns (returncode, environment line, result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    environment = next((line for line in lines if line.startswith("environment ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, environment, result


DESK = tuple((50, trial, r) for trial in range(7) for r in (0.01, 0.02, 0.1, 0.2, 1.0))
LARGE = ((200, 0, 1.0),)


def default_problem_sets():
    """The in-process problem sets: name -> (method, problems)."""
    return {"desk": ("joint", DESK), "large": ("joint", LARGE), "baseline": ("baseline", DESK)}


def load_package(checkout, name):
    """Import ``src/covgraph`` of ``checkout`` as the package ``name``."""
    source = Path(checkout) / "src" / "covgraph"
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def problem_inputs(package, problems):
    """(covariance entries, locations) of each (n, trial, range) problem."""
    inputs = []
    for n, trial, r in problems:
        sample = package.sample_locations(n, trial)
        S = package.variogram_covariance(sample, package.VariogramSpec(range_=r))
        inputs.append((S.entries, sample.points))
    return inputs


def timed_learns(package, method, inputs):
    """(seconds, results) of one learn per input by ``method`` (``"joint"``
    or ``"baseline"``) from a kernel start, under the default protocol."""
    learner = package.learn_joint if method == "joint" else package.learn_cgl_baseline
    results = []
    start = time.perf_counter()
    for S, points in inputs:
        results.append(learner(S, package.LearnConfig(method=method, init="kernel", points=points)))
    return time.perf_counter() - start, results


def output_digest(result):
    """What two trees must agree on byte for byte: the learned edges, the
    bytes of the importances, the objective, its history, the epochs, the
    certificate (whether the run converged, its KKT residual and its
    duality gap), how the run stopped, and the rest of the run record (the
    largest refresh drift, the singularity clips, the Newton rounds, their
    CG iterations and the failed line searches)."""
    q = result.graph.q
    return (repr(result.graph.edges), None if q is None else q.tobytes(),
            repr(result.objective), repr(result.history), result.epochs_run,
            result.converged, repr(result.kkt_residual), repr(result.duality_gap), result.stop,
            repr(result.max_refresh_drift), result.singularity_clips, result.newton_rounds,
            result.cg_iterations, result.failed_line_searches)


def run_counts(results):
    """Totals over one problem set's learns: coordinate epochs, Newton
    rounds, their CG iterations and the runs that stopped certified."""
    return {
        "epochs": sum(result.epochs_run for result in results),
        "newton_rounds": sum(result.newton_rounds for result in results),
        "cg_iterations": sum(result.cg_iterations for result in results),
        "certified": sum(result.stop == "certified" for result in results),
    }


def in_process(packages, problem_sets, rounds):
    """Alternate the sides' learns over ``rounds`` rounds in this process.

    ``packages`` maps each side of ``SIDES`` to its imported package and
    ``problem_sets`` a set name to its method and its (n, trial, range)
    problems. Round k runs every set on both sides, the parent first in
    even rounds. Returns
    the per-round times, the unconverged counts, whether each problem's
    outputs were byte-identical on both sides in every round, and the
    summary with each side's :func:`run_counts` of the last round."""
    inputs = {name: problem_inputs(packages["change"], problems)
              for name, (_, problems) in problem_sets.items()}
    times = {side: {name: [] for name in problem_sets} for side in SIDES}
    unconverged = {side: 0 for side in SIDES}
    identical = {name: [True] * len(problems) for name, (_, problems) in problem_sets.items()}
    counts = {}
    for k in range(rounds):
        digests = {}
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            for name, (method, _) in problem_sets.items():
                seconds, results = timed_learns(packages[side], method, inputs[name])
                times[side][name].append(seconds)
                unconverged[side] += sum(not result.converged for result in results)
                digests[side, name] = [output_digest(result) for result in results]
                counts[side, name] = run_counts(results)
        for name in problem_sets:
            pairs = zip(identical[name], digests["parent", name], digests["change", name])
            identical[name] = [same and parent == change for same, parent, change in pairs]
    summary = {}
    for name in problem_sets:
        parent, change = times["parent"][name], times["change"][name]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        r1, rm, r3 = quartiles([c / p for p, c in zip(parent, change)])
        summary[name] = {
            "parent": {"median": pm, "q1": p1, "q3": p3, "min": min(parent)},
            "change": {"median": cm, "q1": c1, "q3": c3, "min": min(change)},
            "ratio": {"median": rm, "q1": r1, "q3": r3},
            "change_wins": sum(1 for p, c in zip(parent, change) if c < p),
            "rounds": rounds,
            "identical": sum(identical[name]),
            "problems": len(identical[name]),
            "counts": {side: counts[side, name] for side in SIDES},
        }
    return {"rounds": times, "unconverged": unconverged, "identical": identical, "summary": summary}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--change", default="worktree",
                        help="change revision, or 'worktree' for this checkout (default)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=71, help="seed of pair 0")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default: those of BENCHMARK.json)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--what", default="", help="one line saying what is compared")
    parser.add_argument("--in-process", action="store_true",
                        help="alternate desk, joint-large and baseline desk learns of both trees "
                             "in this process")
    args = parser.parse_args(argv)
    if args.in_process:
        return main_in_process(args)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    revs = {"parent": args.parent, "change": args.change}
    record = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": (f"{args.pairs} pairs of runs, each in a fresh process; parent {args.parent}, "
                   f"change {args.change}; pair k uses seed {args.seed}+k; even pairs run the "
                   "parent first, odd pairs the change; quartiles by linear interpolation"),
        "machine": None,
        "summary": {},
        "runs": [],
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        checkouts = checkout_trees(revs, tmp)
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    code, environment, result = run_once(checkouts[side], workload, seed, args.seconds)
                    record["machine"] = record["machine"] or environment
                    record["runs"].append({
                        "workload": workload, "pair": pair, "seed": seed, "side": side,
                        "first": order[0], "returncode": code, "environment": environment,
                        "result": result,
                    })
                    record["summary"] = summarize(record["runs"], metrics)
                    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
                    p50 = result["metrics"]["request_p50_s"]["value"] if result else None
                    print(f"pair {pair} {workload} {side}: exit {code}, p50 {p50}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def checkout_trees(revs, tmp):
    """Each side's source tree: this checkout for ``worktree``, else the
    revision unpacked under ``tmp``."""
    checkouts = {}
    for side in SIDES:
        if revs[side] == "worktree":
            checkouts[side] = ROOT
        else:
            checkouts[side] = tmp / side
            unpack(revs[side], checkouts[side])
    return checkouts


def main_in_process(args):
    """``--in-process``: write the alternating in-process set under the key
    ``in_process`` of ``--out``."""
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    # One BLAS thread, as perfbench/run.py sets, unless the caller set it;
    # it must be set before the packages import numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        checkouts = checkout_trees({"parent": args.parent, "change": args.change}, tmp)
        packages = {side: load_package(checkouts[side], f"covgraph_{side}") for side in SIDES}
        measured = in_process(packages, default_problem_sets(), args.pairs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["in_process"] = {
        "what": args.what,
        "method": (f"{args.pairs} rounds in one process; parent {args.parent} and change "
                   f"{args.change} imported as covgraph_parent and covgraph_change; per round "
                   "and side the total learn time of the 35 joint desk specs (n=50, trials 0-6 "
                   "x ranges 0.01, 0.02, 0.1, 0.2, 1), of one joint-large learn (n=200, trial 0, "
                   "r=1) and of the 35 desk specs learned by the baseline method, each from a "
                   "kernel start under the default protocol, on the same inputs; even rounds run "
                   "the parent first; quartiles by linear interpolation; seconds; outputs "
                   "compared per problem outside the timed region"),
        "environment": (f"python {sys.version.split()[0]}, numpy {version('numpy')}, "
                        f"{os.cpu_count()} CPUs, OPENBLAS_NUM_THREADS="
                        f"{os.environ['OPENBLAS_NUM_THREADS']}"),
        **measured,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, row in measured["summary"].items():
        print(f"{name}: parent {row['parent']['median']:.4g} s, change {row['change']['median']:.4g} s, "
              f"change wins {row['change_wins']} of {row['rounds']}, "
              f"{row['identical']} of {row['problems']} outputs identical", file=sys.stderr)
        for side in SIDES:
            print(f"  {side}: " + ", ".join(f"{k} {v}" for k, v in row["counts"][side].items()),
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

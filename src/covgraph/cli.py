"""Command-line entry point.

Subcommands: synth (variogram covariance generation), learn, verify
(optimality + bound reports, optional trimming), gft (spectrum export),
sample (stationary signal draws), experiment (trial-averaged benchmark),
bounds (weight-bound curves). Exit status: 0 success, 1 validation error,
2 numerical failure. Data goes to files or standard output, diagnostics to
standard error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .bench import VariogramSpec, bound_curves, run_experiment, sample_locations, variogram_covariance
from .graphs import GraphValidationError, laplacian
from .learn import LearnConfig, learn
from .solver import SingularModelError
from .spectral import compute_gft, joint_model_psd, laplacian_model_psd, sample_stationary_signals
from .verify import bound_report, kkt_report, trim_violations


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_floats(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise CliError(f"expected comma-separated numbers, got {text!r}") from exc


def _cmd_synth(args):
    sample = sample_locations(args.n, args.seed)
    S = variogram_covariance(sample, VariogramSpec(sill=args.sill, range_=args.range))
    io.write_covariance_csv(args.out_cov, S)
    if args.out_points:
        io.write_points_csv(args.out_points, sample.points)
    return 0


def _learn_config(args, points):
    if args.init == "auto":
        init = "kernel" if points is not None else "uniform"
    else:
        init = args.init
    init_weights = None
    if init == "given":
        if not args.init_graph:
            raise CliError("--init given requires --init-graph")
        graph = io.read_graph_json(args.init_graph)
        init_weights = {(i, j): w for i, j, w in graph.edges}
    return LearnConfig(
        method=args.method,
        q_min=args.qmin,
        stop_tol=args.tol,
        max_epochs=args.max_epochs,
        init=init,
        init_value=args.init_value,
        points=points,
        init_weights=init_weights,
        refresh_every=args.refresh_every,
        screen=args.screen,
    )


def _cmd_learn(args):
    S = io.read_covariance_csv(args.cov)
    points = io.read_points_csv(args.points) if args.points else None
    if points is not None and points.shape[0] != S.n:
        raise CliError(f"{args.points}: {points.shape[0]} locations for a {S.n}-vertex covariance")
    result = learn(S, _learn_config(args, points))
    io.write_graph_json(args.out, result.graph)
    io.write_learn_meta_json(io.meta_path_for(args.out), result)
    if not result.converged:
        print(
            f"warning: stopped at max_epochs={args.max_epochs} without convergence",
            file=sys.stderr,
        )
    return 0


def _cmd_verify(args):
    graph = io.read_graph_json(args.graph)
    S = io.read_covariance_csv(args.cov)
    if graph.n != S.n:
        raise CliError(f"graph has {graph.n} vertices but covariance is {S.n} x {S.n}")
    if graph.q is None:
        raise CliError("verification requires a graph learned with vertex importances")
    points = io.read_points_csv(args.points) if args.points else None

    kkt = kkt_report(graph, S, tol=args.tol)
    bounds = bound_report(graph, S, tol=args.bound_tol)

    if args.out_kkt:
        io.write_kkt_json(args.out_kkt, kkt)
    if args.out_bounds:
        io.write_bound_report_json(args.out_bounds, bounds)
    if args.bounds_csv:
        io.write_bound_table_csv(args.bounds_csv, bounds, points=points)

    if args.trim:
        trimmed, n_trimmed = trim_violations(graph, S, tol=args.bound_tol)
        io.write_graph_json(args.out_graph, trimmed)
        print(f"trimmed {n_trimmed} bound-violating edge(s)", file=sys.stderr)

    status = "pass" if kkt.passed else "fail"
    print(
        f"kkt {status} (max edge residual {kkt.max_edge_residual:.3e}, "
        f"max vertex residual {kkt.max_vertex_residual:.3e}); "
        f"bounds: {bounds.n_violated} violated of {bounds.n_applicable} applicable"
    )
    return 0


def _spectrum(args):
    """Fourier basis of ``args.graph``; a graph without importances uses q = 1."""
    graph = io.read_graph_json(args.graph)
    q = graph.q
    if q is None:
        print("graph has no importances; using the plain dot product", file=sys.stderr)
        q = np.ones(graph.n)
    return compute_gft(laplacian(graph), q)


def _cmd_gft(args):
    io.write_spectrum_csv(args.out_spectrum or sys.stdout, _spectrum(args))
    return 0


def _cmd_sample(args):
    psd = joint_model_psd if args.psd == "joint" else laplacian_model_psd
    signals = sample_stationary_signals(_spectrum(args), psd, args.count, args.seed)
    io.write_signals_csv(args.out or sys.stdout, signals)
    return 0


def _cmd_experiment(args):
    ranges = _parse_floats(args.ranges)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("baseline", "joint"):
            raise CliError(f"unknown method {m!r}")
    config = LearnConfig(
        q_min=args.qmin,
        stop_tol=args.tol,
        max_epochs=args.max_epochs,
        refresh_every=args.refresh_every,
    )
    table = run_experiment(
        ranges,
        n=args.n,
        trials=args.trials,
        base_seed=args.seed,
        methods=methods,
        config=config,
        parallel=args.parallel,
    )
    io.write_experiment_csv(args.out or sys.stdout, table)
    return 0


def _cmd_bounds(args):
    ranges = _parse_floats(args.ranges)
    d_grid, curves = bound_curves(ranges, sill=args.sill, d_max=args.d_max, steps=args.steps)
    io.write_bound_curves_csv(args.out or sys.stdout, d_grid, curves)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="covgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a variogram covariance and locations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--range", type=float, required=True)
    p.add_argument("--sill", type=float, default=10.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-cov", required=True)
    p.add_argument("--out-points")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("learn", help="learn a graph from a covariance CSV")
    p.add_argument("--cov", required=True)
    p.add_argument("--method", choices=("joint", "baseline"), default="joint")
    p.add_argument("--qmin", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-epochs", type=int, default=1000)
    p.add_argument("--refresh-every", type=int, default=50)
    p.add_argument("--screen", action="store_true")
    p.add_argument("--points")
    p.add_argument("--init", choices=("auto", "uniform", "kernel", "given"), default="auto")
    p.add_argument("--init-value", type=float, default=None)
    p.add_argument("--init-graph")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_learn)

    p = sub.add_parser("verify", help="optimality and bound reports for a learned graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--cov", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--bound-tol", type=float, default=1e-8)
    p.add_argument("--points")
    p.add_argument("--out-kkt")
    p.add_argument("--out-bounds")
    p.add_argument("--bounds-csv")
    p.add_argument("--trim", action="store_true")
    p.add_argument("--out-graph", help="output path for the trimmed graph (required with --trim)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("gft", help="export the graph Fourier spectrum")
    p.add_argument("--graph", required=True)
    p.add_argument("--out-spectrum")
    p.set_defaults(handler=_cmd_gft)

    p = sub.add_parser("sample", help="draw stationary signals on a learned graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--psd", choices=("joint", "baseline"), default="joint")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("experiment", help="trial-averaged benchmark table")
    p.add_argument("--ranges", default="0.01,0.02,0.1,0.2,1")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default="baseline,joint")
    p.add_argument("--qmin", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-epochs", type=int, default=1000)
    p.add_argument("--refresh-every", type=int, default=50)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("bounds", help="weight-bound curves over a distance grid")
    p.add_argument("--ranges", default="0.01,0.02,0.1,0.2,1")
    p.add_argument("--sill", type=float, default=10.0)
    p.add_argument("--d-max", type=float, default=1.5)
    p.add_argument("--steps", type=int, default=151)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "trim", False) and not args.out_graph:
            raise CliError("--trim requires --out-graph")
        return args.handler(args)
    except (SingularModelError, np.linalg.LinAlgError) as exc:
        # Before ValueError: numpy's LinAlgError is a ValueError subclass.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (CliError, GraphValidationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())

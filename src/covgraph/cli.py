"""Command-line entry point.

Subcommands: synth (variogram covariance generation), learn (certified
optimum by default, or the paper's stop with --protocol paper), verify
(optimality report; bound reports and trimming for joint graphs), gft
(spectrum export), sample (stationary signal draws), experiment
(trial-averaged benchmark under the paper's stop), bounds (weight-bound
curves). Exit status: 0 success, 1 validation error, 2 numerical failure.
Data goes to files or standard output, diagnostics to standard error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .bench import VariogramSpec, bound_curves, run_experiment, sample_locations, variogram_covariance
from .graphs import GraphValidationError, laplacian
from .learn import KKT_EXIT, PROTOCOLS, LearnConfig, learn
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


def _given(args, *names):
    """Keyword arguments for the options among ``names`` that the user gave,
    so the library supplies the defaults of the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_synth(args):
    sample = sample_locations(args.n, args.seed)
    S = variogram_covariance(sample, VariogramSpec(range_=args.range, **_given(args, "sill")))
    io.write_covariance_csv(args.out_cov, S)
    if args.out_points:
        io.write_points_csv(args.out_points, sample.points)
    return 0


def _read_points(path, n):
    """Locations from ``path``, one per vertex of ``n``; None without a path."""
    if not path:
        return None
    points = io.read_points_csv(path)
    if points.shape[0] != n:
        raise CliError(f"{path}: {points.shape[0]} locations for a {n}-vertex covariance")
    return points


def _learn_config(args, points):
    init = args.init
    if init == "auto":
        init = "kernel" if points is not None else "uniform"
    init_weights = None
    if init == "given":
        if not args.init_graph:
            raise CliError("--init given requires --init-graph")
        graph = io.read_graph_json(args.init_graph)
        init_weights = {(i, j): w for i, j, w in graph.edges}
    elif args.init_graph:
        raise CliError(f"--init-graph requires --init given (the start is {init})")
    options = _given(args, "method", "protocol", "q_min", "stop_tol", "max_epochs", "init_value")
    return LearnConfig(init=init, points=points, init_weights=init_weights, screen=args.screen, **options)


def _cmd_learn(args):
    S = io.read_covariance_csv(args.cov)
    config = _learn_config(args, _read_points(args.points, S.n))
    result = learn(S, config)
    io.write_graph_json(args.out, result.graph)
    io.write_learn_meta_json(io.meta_path_for(args.out), result)
    residual = f"{result.kkt_residual:.3e}"
    if result.stop == "stalled":
        print(f"warning: the KKT residual stalled at {residual}, above {KKT_EXIT:g}", file=sys.stderr)
    elif result.stop == "max_epochs":
        why = f"the KKT residual reached {KKT_EXIT:g} (it is {residual})"
        if result.protocol == "paper":
            why = f"an epoch changed the objective by less than --tol {config.stop_tol:g}"
        print(f"warning: stopped at max_epochs={config.max_epochs} before {why}", file=sys.stderr)
    return 0


def _cmd_verify(args):
    if args.trim and not args.out_graph:
        raise CliError("--trim requires --out-graph")
    graph = io.read_graph_json(args.graph)
    S = io.read_covariance_csv(args.cov)
    if graph.q is None and (args.out_bounds or args.bounds_csv or args.trim or args.bound_tol is not None):
        raise CliError(
            "--out-bounds, --bounds-csv, --trim and --bound-tol need a graph learned with vertex importances"
        )
    points = _read_points(args.points, S.n)

    # Every report is computed, and so every option checked, before any is written.
    kkt = kkt_report(graph, S, **_given(args, "tol"))
    if graph.q is not None:
        bound_tol = {} if args.bound_tol is None else {"tol": args.bound_tol}
        bounds = bound_report(graph, S, **bound_tol)
        trim = trim_violations(graph, S, **bound_tol) if args.trim else None
    if args.out_kkt:
        io.write_kkt_json(args.out_kkt, kkt)
    status = "pass" if kkt.passed else "fail"
    if graph.q is None:
        print(f"kkt {status} (max edge residual {kkt.max_edge_residual:.3e})")
        return 0

    if args.out_bounds:
        io.write_bound_report_json(args.out_bounds, bounds)
    if args.bounds_csv:
        io.write_bound_table_csv(args.bounds_csv, bounds, points=points)
    if trim:
        trimmed, n_trimmed = trim
        io.write_graph_json(args.out_graph, trimmed)
        print(f"trimmed {n_trimmed} bound-violating edge(s)", file=sys.stderr)

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
    options = _given(args, "n", "trials", "base_seed", "parallel")
    if args.methods is not None:
        options["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    config = LearnConfig(**_given(args, "q_min", "stop_tol", "max_epochs"))
    table = run_experiment(ranges, config=config, **options)
    io.write_experiment_csv(args.out or sys.stdout, table)
    return 0


def _cmd_bounds(args):
    d_grid, curves = bound_curves(_parse_floats(args.ranges), **_given(args, "sill", "d_max", "steps"))
    io.write_bound_curves_csv(args.out or sys.stdout, d_grid, curves)
    return 0


# The paper's correlation ranges, the grid of `experiment` and `bounds`.
_PAPER_RANGES = "0.01,0.02,0.1,0.2,1"


def build_parser() -> argparse.ArgumentParser:
    """Options left unset are None and take the library's defaults (see
    :func:`_given`); only ``--init``, ``--psd`` and ``--ranges`` default here."""
    parser = _Parser(prog="covgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a variogram covariance and locations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--range", type=float, required=True)
    p.add_argument("--sill", type=float)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-cov", required=True)
    p.add_argument("--out-points")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("learn", help="learn a graph from a covariance CSV")
    p.add_argument("--cov", required=True)
    p.add_argument("--method", choices=("joint", "baseline"))
    p.add_argument(
        "--protocol", choices=PROTOCOLS,
        help="optimum: stop at a certified KKT residual; paper: the paper's objective-change stop",
    )
    p.add_argument("--qmin", type=float, dest="q_min")
    p.add_argument("--tol", type=float, dest="stop_tol",
                   help="epoch objective change that stops a paper-protocol run")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--screen", action="store_true")
    p.add_argument("--points")
    p.add_argument("--init", choices=("auto", "uniform", "kernel", "given"), default="auto")
    p.add_argument("--init-value", type=float)
    p.add_argument("--init-graph")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_learn)

    p = sub.add_parser("verify", help="optimality and bound reports for a learned graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--cov", required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--bound-tol", type=float)
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
    p.add_argument("--ranges", default=_PAPER_RANGES)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, dest="base_seed")
    p.add_argument("--methods")
    p.add_argument("--qmin", type=float, dest="q_min")
    p.add_argument("--tol", type=float, dest="stop_tol")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--parallel", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("bounds", help="weight-bound curves over a distance grid")
    p.add_argument("--ranges", default=_PAPER_RANGES)
    p.add_argument("--sill", type=float)
    p.add_argument("--d-max", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    entry()

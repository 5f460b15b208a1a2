"""File formats: covariance/points/signals CSV, graph JSON and its learning
sidecar, verification reports, and benchmark tables.

Every writer takes its destination first: a file path, or an open text
stream such as ``sys.stdout``, which receives the same bytes the file would.
All floating-point values are serialized with Python's shortest round-trip
decimal representation (``repr``), so a write/read cycle reproduces every
finite double bit-exactly.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .graphs import CovarianceMatrix, Graph, GraphValidationError, build_graph


def _fmt(x) -> str:
    return repr(float(x))


def _rows_to_text(rows) -> str:
    """One comma-separated line per row; each row is a float array."""
    return "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)


def _write(dest, text) -> None:
    """Write ``text`` to a file path or to an open text stream."""
    if isinstance(dest, (str, os.PathLike)):
        Path(dest).write_text(text, encoding="utf-8")
    else:
        dest.write(text)


def _write_json(dest, payload) -> None:
    _write(dest, json.dumps(payload, indent=2) + "\n")


def _read_rows(path, what) -> list:
    """Float rows of a comma-separated file; blank lines are skipped."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    try:
        return [[float(v) for v in line.split(",")] for line in lines if line.strip()]
    except ValueError as exc:
        raise GraphValidationError(f"{path}: non-numeric {what} ({exc})") from exc


def write_covariance_csv(dest, S) -> None:
    entries = S.entries if isinstance(S, CovarianceMatrix) else np.asarray(S, dtype=float)
    _write(dest, _rows_to_text(entries))


def read_covariance_csv(path) -> CovarianceMatrix:
    """Parse an n x n comma-separated matrix (no header) and validate it."""
    values = _read_rows(path, "covariance entry")
    if not values:
        raise GraphValidationError(f"{path}: empty covariance file")
    n = len(values[0])
    if len(values) != n or any(len(row) != n for row in values):
        raise GraphValidationError(
            f"{path}: expected exactly n lines of n values, got "
            f"{len(values)} lines of lengths {sorted({len(r) for r in values})}"
        )
    return CovarianceMatrix(entries=np.array(values))


def write_points_csv(dest, points) -> None:
    _write(dest, _rows_to_text(np.asarray(points, dtype=float)))


def read_points_csv(path) -> np.ndarray:
    points = np.array(_read_rows(path, "coordinate"))
    if points.ndim != 2 or points.shape[1] != 2:
        raise GraphValidationError(f"{path}: expected two coordinates per line")
    return points


def graph_to_dict(graph: Graph) -> dict:
    return {
        "n": graph.n,
        "q_min": None if graph.q_min is None else float(graph.q_min),
        "q": [] if graph.q is None else [float(v) for v in graph.q],
        "edges": [{"i": i, "j": j, "w": float(w)} for i, j, w in graph.edges],
    }


def graph_from_dict(data: dict) -> Graph:
    try:
        n = data["n"]
        q = data["q"]
        q_min = data["q_min"]
        edges = [(e["i"], e["j"], e["w"]) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphValidationError(f"malformed graph object: {exc}") from exc
    if not q:
        q = None
        q_min = None
    return build_graph(n, edges, q=q, q_min=q_min)


def write_graph_json(dest, graph: Graph) -> None:
    _write_json(dest, graph_to_dict(graph))


def read_graph_json(path) -> Graph:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GraphValidationError(f"{path}: invalid JSON ({exc})") from exc
    return graph_from_dict(data)


def meta_path_for(graph_path) -> Path:
    """Sidecar path for a learned graph: foo.json -> foo.meta.json."""
    p = Path(graph_path)
    if p.suffix == ".json":
        return p.with_suffix(".meta.json")
    return Path(str(p) + ".meta.json")


def write_learn_meta_json(dest, result) -> None:
    payload = {
        "objective": float(result.objective),
        "epochs": int(result.epochs_run),
        "converged": bool(result.converged),
        "wall_time_s": float(result.wall_time_seconds),
    }
    _write_json(dest, payload)


def write_signals_csv(dest, signals) -> None:
    """One signal per row."""
    _write(dest, _rows_to_text(np.asarray(signals, dtype=float)))


def write_spectrum_csv(dest, spectrum) -> None:
    """First line: eigenvalues; then the n x n matrix of modes, row by row."""
    _write(dest, _rows_to_text([spectrum.lambdas, *spectrum.modes]))


def write_kkt_json(dest, report) -> None:
    """The :class:`~covgraph.verify.KKTReport` fields, in declaration order."""
    _write_json(dest, vars(report))


def bound_report_to_dict(report) -> dict:
    return {
        "tol": report.tol,
        "summary": {
            "edges": report.n_edges,
            "applicable": report.n_applicable,
            "violated": report.n_violated,
        },
        "edges": [dict(vars(rec)) for rec in report.records],
    }


def write_bound_report_json(dest, report) -> None:
    _write_json(dest, bound_report_to_dict(report))


def write_bound_table_csv(dest, report, points=None) -> None:
    """Per-edge bound table: i,j,d,w,bound,violated. The distance column is
    NaN unless vertex coordinates are supplied."""
    lines = ["i,j,d,w,bound,violated\n"]
    for rec in report.records:
        if points is not None:
            d = float(np.hypot(*(np.asarray(points)[rec.i] - np.asarray(points)[rec.j])))
        else:
            d = float("nan")
        lines.append(
            f"{rec.i},{rec.j},{_fmt(d)},{_fmt(rec.w)},{_fmt(rec.bound)},{int(rec.violated)}\n"
        )
    _write(dest, "".join(lines))


def experiment_table_to_csv(table) -> str:
    """Header method,r,u_q,q_bar,epsilon_w,time_s; undefined metrics stay blank."""
    lines = ["method,r,u_q,q_bar,epsilon_w,time_s\n"]
    for row in table.rows:
        u_q = "" if row.u_q is None else _fmt(row.u_q)
        q_bar = "" if row.q_bar is None else _fmt(row.q_bar)
        lines.append(
            f"{row.method},{_fmt(row.r)},{u_q},{q_bar},{_fmt(row.epsilon_w)},{_fmt(row.time_s)}\n"
        )
    return "".join(lines)


def write_experiment_csv(dest, table) -> None:
    _write(dest, experiment_table_to_csv(table))


def bound_curves_to_csv(d_grid, curves) -> str:
    header = "d," + ",".join(curves.keys()) + "\n"
    lines = [header]
    columns = list(curves.values())
    for k, d in enumerate(d_grid):
        lines.append(",".join([_fmt(d)] + [_fmt(col[k]) for col in columns]) + "\n")
    return "".join(lines)


def write_bound_curves_csv(dest, d_grid, curves) -> None:
    _write(dest, bound_curves_to_csv(d_grid, curves))

"""Workloads: inputs built from the seed, one request, and its check.

Every workload runs a fixed pool of requests; the seed rotates where a pass
through the pool starts (and, in ``analyze``, seeds the signal draws). A
fixed pool keeps the per-request cost distribution the same from seed to
seed, so run-to-run spread measures the program rather than the inputs.

A request is only the work a user waits for. Its check runs afterwards,
outside the timing, and classifies it: ``raised`` (an exception or a
nonzero exit status), ``unconverged`` (the learner stopped at
``max_epochs``) or ``check`` (the output failed the benchmark's own check).
An output that breaks the program's contract (wrong shape, wrong input,
inconsistent metrics) also marks the run incorrect.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as textio
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import covgraph.bench as cbench
import covgraph.cli as ccli
import covgraph.io as cio
import covgraph.learn as clearn
import stationarity

FIXTURES = Path(__file__).resolve().parent / "fixtures"

DESK_RANGES = (0.01, 0.02, 0.1, 0.2, 1.0)
# Trials 0-6 of the desk experiment hold the cases that fail at the
# acceptance tolerance, so every pass must include all of them.
DESK_TRIALS = range(7)
DENSE_RANGES = (0.01, 0.02, 0.1)
# compute_metrics counts a weight as an edge only above this value.
EDGE_PRESENCE_TOL = 1e-10
SIGNAL_COUNT = 1000


class SetupError(RuntimeError):
    """The workload's inputs are not what the benchmark requires."""


@dataclass
class Outcome:
    cause: str | None
    valid: bool
    digest: str
    note: str = ""


def rotate(items, seed):
    k = seed % len(items)
    return list(items[k:]) + list(items[:k])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _graph_valid(graph, n, joint) -> bool:
    weights = [w for _, _, w in graph.edges]
    ok = graph.n == n and all(math.isfinite(w) and w > 0 for w in weights)
    if joint:
        ok = ok and graph.q is not None and bool(np.all(np.isfinite(graph.q)))
        ok = ok and bool(np.all(graph.q >= graph.q_min))
    return ok and (joint or graph.q is None)


@dataclass
class LearnWorkload:
    """Trials run the way ``covgraph.bench.run_experiment`` runs them."""

    name: str
    method: str
    n: int
    items: tuple
    config: dict = field(default_factory=dict)

    def setup(self, seed, workdir):
        pool = rotate(self.items, seed)
        inputs = {}
        for trial, r in pool:
            sample = cbench.sample_locations(self.n, trial)
            S = cbench.variogram_covariance(sample, cbench.VariogramSpec(range_=r))
            inputs[(trial, r)] = S.entries
        return pool, inputs

    def warmup(self, inputs, pool):
        """Load every code path once on a small trial before timing."""
        replace(self, n=10).request(inputs, pool[0])

    def request(self, inputs, spec):
        trial, r = spec
        sample = cbench.sample_locations(self.n, trial)
        S = cbench.variogram_covariance(sample, cbench.VariogramSpec(range_=r))
        config = clearn.LearnConfig(
            method=self.method, init="kernel", points=sample.points, **self.config
        )
        if self.method == "joint":
            result = clearn.learn_joint(S, config)
        else:
            result = clearn.learn_cgl_baseline(S, config)
        row = cbench.compute_metrics(result, method=self.method, r=r)
        return S, result, row

    def check(self, inputs, spec, out) -> Outcome:
        S, result, row = out
        expected = inputs[spec]
        graph = result.graph
        present = sum(1 for _, _, w in graph.edges if w > EDGE_PRESENCE_TOL)
        total = self.n * (self.n - 1) // 2
        valid = (
            np.array_equal(S.entries, expected)
            and _graph_valid(graph, self.n, self.method == "joint")
            and row.epsilon_w == 1.0 - present / total
            and row.time_s == result.wall_time_seconds
            and math.isfinite(result.objective)
        )
        verdict = stationarity.check_graph(graph, expected)
        if not result.converged:
            cause = "unconverged"
        elif not (verdict.passed and valid):
            cause = "check"
        else:
            cause = None
        note = (
            f"trial={spec[0]} r={spec[1]} epochs={result.epochs_run} "
            f"edges={graph.m} edge_residual={verdict.edge_residual:.3g} "
            f"vertex_residual={verdict.vertex_residual:.3g}"
        )
        q = b"" if graph.q is None else graph.q.tobytes()
        return Outcome(cause, bool(valid), _digest(graph.edges, q), note)


@dataclass
class Fixture:
    graph: Path
    cov: Path
    points: Path
    out: Path
    n: int
    laplacian: np.ndarray
    q: np.ndarray
    m: int


class AnalyzeWorkload:
    """verify, gft and sample on two fixed learned graphs, through cli.main."""

    name = "analyze"

    def setup(self, seed, workdir):
        params = json.loads((FIXTURES / "fixtures.json").read_text(encoding="utf-8"))
        fixtures = {}
        for key, p in params.items():
            graph = json.loads((FIXTURES / p["graph"]).read_text(encoding="utf-8"))
            sample = cbench.sample_locations(p["n"], p["seed"])
            spec = cbench.VariogramSpec(sill=p["sill"], range_=p["range"])
            S = cbench.variogram_covariance(sample, spec).entries
            edges = [(e["i"], e["j"], e["w"]) for e in graph["edges"]]
            verdict = stationarity.check(S, graph["n"], edges, graph["q"], graph["q_min"])
            if not verdict.passed:
                raise SetupError(f"fixture {key} fails the stationarity check: {verdict}")
            out = workdir / key
            out.mkdir(parents=True, exist_ok=True)
            cov, points = out / "cov.csv", out / "points.csv"
            cio.write_covariance_csv(cov, S)
            cio.write_points_csv(points, sample.points)
            fixtures[key] = Fixture(
                graph=FIXTURES / p["graph"], cov=cov, points=points, out=out,
                n=graph["n"], laplacian=stationarity.laplacian(graph["n"], edges),
                q=np.array(graph["q"]), m=len(edges),
            )
        pool = [(key, 2 * seed + k) for k, key in enumerate(sorted(fixtures))]
        return rotate(pool, seed), fixtures

    def warmup(self, fixtures, pool):
        self.request(fixtures, pool[0])

    def request(self, fixtures, spec):
        key, sample_seed = spec
        fx = fixtures[key]
        o = fx.out
        # Keep the commands' stdout off the benchmark's own report.
        summary, signals = textio.StringIO(), textio.StringIO()
        with contextlib.redirect_stdout(summary):
            verify = ccli.main([
                "verify", "--graph", str(fx.graph), "--cov", str(fx.cov),
                "--points", str(fx.points), "--out-kkt", str(o / "kkt.json"),
                "--out-bounds", str(o / "bounds.json"), "--bounds-csv", str(o / "bounds.csv"),
            ])
            gft = ccli.main(["gft", "--graph", str(fx.graph), "--out-spectrum", str(o / "spectrum.csv")])
        with contextlib.redirect_stdout(signals):
            sample = ccli.main([
                "sample", "--graph", str(fx.graph), "--count", str(SIGNAL_COUNT),
                "--seed", str(sample_seed),
            ])
        return (verify, gft, sample), signals.getvalue()

    def check(self, fixtures, spec, out) -> Outcome:
        key, sample_seed = spec
        fx = fixtures[key]
        codes, signals_text = out
        note = f"graph={key} sample_seed={sample_seed} exit={codes}"
        if any(codes):
            return Outcome("raised", True, _digest(codes), note)
        files = {
            name: (fx.out / name).read_text(encoding="utf-8")
            for name in ("kkt.json", "bounds.json", "bounds.csv", "spectrum.csv")
        }
        kkt = json.loads(files["kkt.json"])
        bounds = json.loads(files["bounds.json"])
        valid = (
            kkt["passed"] is True
            and bounds["summary"]["edges"] == fx.m
            and len(files["bounds.csv"].splitlines()) == fx.m + 1
            and self._spectrum_and_signals_ok(fx, files["spectrum.csv"], signals_text, sample_seed)
        )
        digest = _digest(*(files[k] for k in sorted(files)), signals_text)
        return Outcome(None if valid else "check", valid, digest, note)

    @staticmethod
    def _spectrum_and_signals_ok(fx, spectrum_text, signals_text, sample_seed) -> bool:
        rows = np.array([[float(v) for v in line.split(",")] for line in spectrum_text.splitlines()])
        signals = np.array(signals_text.replace("\n", ",").split(",")[:-1], dtype=float)
        if rows.shape != (fx.n + 1, fx.n) or signals.size != SIGNAL_COUNT * fx.n:
            return False
        lam, modes = rows[0], rows[1:]
        scale = 1.0 + float(np.max(lam)) * float(np.max(fx.q))
        eig_res = np.max(np.abs(fx.laplacian @ modes - (fx.q[:, None] * modes) * lam[None, :]))
        ortho_res = np.max(np.abs(modes.T @ (fx.q[:, None] * modes) - np.eye(fx.n)))
        z = np.random.default_rng(sample_seed).standard_normal((fx.n, SIGNAL_COUNT))
        expected = (modes @ (np.sqrt(1.0 / (1.0 + lam))[:, None] * z)).T
        return bool(
            eig_res <= 1e-8 * scale
            and ortho_res <= 1e-8
            and np.allclose(signals.reshape(SIGNAL_COUNT, fx.n), expected, rtol=1e-9, atol=1e-12)
        )


WORKLOADS = {
    w.name: w
    for w in (
        LearnWorkload("joint-desk", "joint", 50,
                      tuple((t, r) for t in DESK_TRIALS for r in DESK_RANGES)),
        LearnWorkload("baseline-dense", "baseline", 50, tuple((0, r) for r in DENSE_RANGES)),
        LearnWorkload("joint-large", "joint", 200, ((0, 1.0),)),
        AnalyzeWorkload(),
    )
}

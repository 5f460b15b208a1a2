"""Tests of the paired-benchmark summary in ``tools/bench_pairs.py``, on
fixed numbers worked out by hand, and of its in-process alternation on tiny
problems."""
import dataclasses
import importlib.util
import json
import operator
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "request_p50_s", "better": "lower", "bound": 0.24},
    {"name": "requests_per_s", "better": "higher", "bound": 0.24},
]


def _run(pair, side, p50, rate, failed=0, workload="w"):
    metrics = {"request_p50_s": {"value": p50}, "requests_per_s": {"value": rate}}
    return {"workload": workload, "pair": pair, "side": side,
            "result": {"failed": failed, "metrics": metrics}}


def test_quartiles_interpolate_linearly():
    for values in ([3.0], [4.0, 1.0], [1.0, 2.0, 3.0, 4.0], [10, 12, 11, 13, 14]):
        assert bench_pairs.quartiles(values) == pytest.approx(
            tuple(np.percentile(values, [25, 50, 75])))
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_summary_on_fixed_numbers():
    parent_p50, change_p50 = [10, 12, 11, 13, 14], [6, 7, 12, 5, 6]
    parent_rate, change_rate = [1, 2, 3, 4, 5], [1, 3, 2, 5, 6]
    runs = []
    for k in range(5):
        runs.append(_run(k, "parent", parent_p50[k], parent_rate[k], failed=1))
        runs.append(_run(k, "change", change_p50[k], change_rate[k], failed=1 + (k == 2)))
    # A pair with one side missing does not count.
    runs.append(_run(5, "parent", 1.0, 9.0))
    runs.append({"workload": "w", "pair": 5, "side": "change", "result": None})

    summary = bench_pairs.summarize(runs, METRICS)["w"]
    assert summary["pairs"] == 5
    p50 = summary["request_p50_s"]
    assert p50["parent"] == {"median": 12, "q1": 11, "q3": 13}
    assert p50["change"] == {"median": 6, "q1": 6, "q3": 7}
    assert p50["change_wins"] == 4
    assert p50["relative_change_of_median"] == -0.5
    assert p50["parent_iqr"] == 2
    assert p50["within_bound"]
    assert not p50["claim_rule_met"]  # 4 wins of 5 is under nine tenths

    rate = summary["requests_per_s"]
    assert rate["change_wins"] == 3  # the tie in pair 0 counts for neither side
    assert rate["change"]["median"] == rate["parent"]["median"] == 3
    assert rate["relative_change_of_median"] == 0.0
    assert rate["within_bound"]
    assert summary["failed_per_run"] == {"parent": [1], "change": [1, 2]}


@pytest.mark.parametrize("better, parent, change, within, claim", [
    ("lower", [10, 11, 12, 13], [9, 9, 9, 9], True, True),
    ("lower", [10, 11, 12, 13], [14, 15, 16, 17], False, False),
    ("higher", [10, 11, 12, 13], [14, 15, 16, 17], True, True),
    ("higher", [10, 11, 12, 13], [8, 8, 8, 8], False, False),
    ("higher", [10, 11, 12, 13], [10, 10, 10, 10], True, False),
])
def test_bound_and_claim_follow_direction(better, parent, change, within, claim):
    row = bench_pairs.compare(parent, change, better, 0.24)
    assert row["within_bound"] is within
    assert row["claim_rule_met"] is claim


TINY = ((8, 0, 1.0), (8, 1, 0.1))


def test_in_process_alternates_two_imports_of_the_tree():
    packages = {side: bench_pairs.load_package(bench_pairs.ROOT, f"covgraph_{side}_test")
                for side in bench_pairs.SIDES}
    assert packages["parent"].learn_joint is not packages["change"].learn_joint
    assert packages["parent"].solver.__name__ == "covgraph_parent_test.solver"

    measured = bench_pairs.in_process(packages, {"tiny": ("joint", TINY)}, rounds=3)
    assert measured["unconverged"] == {"parent": 0, "change": 0}
    times = measured["rounds"]
    parent, change = times["parent"]["tiny"], times["change"]["tiny"]
    assert len(parent) == len(change) == 3 and min(parent + change) > 0
    row = measured["summary"]["tiny"]
    q1, median, q3 = bench_pairs.quartiles(change)
    assert row["change"] == {"median": median, "q1": q1, "q3": q3, "min": min(change)}
    assert row["ratio"]["median"] == bench_pairs.quartiles([c / p for p, c in zip(parent, change)])[1]
    assert row["change_wins"] == sum(c < p for p, c in zip(parent, change))
    assert row["rounds"] == 3
    # Two imports of one tree learn the same bytes.
    assert measured["identical"] == {"tiny": [True, True]}
    assert row["identical"] == row["problems"] == 2


def test_in_process_counts_each_sides_learns():
    packages = {side: bench_pairs.load_package(bench_pairs.ROOT, f"covgraph_{side}_count")
                for side in bench_pairs.SIDES}
    _, results = bench_pairs.timed_learns(packages["change"], "joint",
                                          bench_pairs.problem_inputs(packages["change"], TINY))
    expected = {
        "epochs": sum(result.epochs_run for result in results),
        "newton_rounds": sum(result.newton_rounds for result in results),
        "cg_iterations": sum(result.cg_iterations for result in results),
        "certified": 2,
    }
    assert expected["epochs"] > 0 and expected["newton_rounds"] > 0 and expected["cg_iterations"] > 0
    measured = bench_pairs.in_process(packages, {"tiny": ("joint", TINY)}, rounds=2)
    assert measured["summary"]["tiny"]["counts"] == {"parent": expected, "change": expected}


def _ulp_up(value):
    return np.nextafter(value, np.inf)


def _one_more(count):
    return count + 1


def _stalled(stop):
    return "stalled"


class _Perturbed:
    """A package whose learns of the problem with covariance ``S[0, 1] ==
    first`` report ``field`` changed (by default an objective one ulp
    higher) from round ``from_call`` on."""

    def __init__(self, package, first, from_call, field="objective", change=_ulp_up):
        self._package, self._first, self._from_call, self._calls = package, first, from_call, 0
        self._field, self._change = field, change

    def __getattr__(self, name):
        return getattr(self._package, name)

    def learn_joint(self, S, config):
        result = self._package.learn_joint(S, config)
        if S[0, 1] == self._first:
            self._calls += 1
            if self._calls > self._from_call:
                changed = self._change(getattr(result, self._field))
                return dataclasses.replace(result, **{self._field: changed})
        return result


@pytest.mark.parametrize("from_call", [0, 1])
def test_in_process_flags_a_problem_whose_outputs_differ(from_call):
    packages = {side: bench_pairs.load_package(bench_pairs.ROOT, f"covgraph_{side}_flag")
                for side in bench_pairs.SIDES}
    S, _ = bench_pairs.problem_inputs(packages["change"], TINY[1:])[0]
    packages["change"] = _Perturbed(packages["change"], S[0, 1], from_call)
    # A difference in any round, the first or a later one, marks the problem.
    measured = bench_pairs.in_process(packages, {"tiny": ("joint", TINY)}, rounds=2)
    assert measured["identical"] == {"tiny": [True, False]}
    assert measured["summary"]["tiny"]["identical"] == 1


@pytest.mark.parametrize("field, change", [
    ("converged", operator.not_), ("kkt_residual", _ulp_up), ("duality_gap", _ulp_up),
    ("max_refresh_drift", _ulp_up), ("singularity_clips", _one_more), ("newton_rounds", _one_more),
    ("cg_iterations", _one_more), ("failed_line_searches", _one_more), ("stop", _stalled),
])
def test_in_process_flags_a_problem_whose_certificate_differs(field, change):
    packages = {side: bench_pairs.load_package(bench_pairs.ROOT, f"covgraph_{side}_cert")
                for side in bench_pairs.SIDES}
    S, _ = bench_pairs.problem_inputs(packages["change"], TINY[1:])[0]
    packages["change"] = _Perturbed(packages["change"], S[0, 1], 0, field, change)
    measured = bench_pairs.in_process(packages, {"tiny": ("joint", TINY)}, rounds=2)
    assert measured["identical"] == {"tiny": [True, False]}
    assert measured["summary"]["tiny"]["identical"] == 1


def test_in_process_run_keeps_the_other_keys_of_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "DESK", TINY)
    monkeypatch.setattr(bench_pairs, "LARGE", TINY[:1])
    # main sets these when unset; the patch restores them afterwards.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"summary": {"joint-large": 1}}))
    code = bench_pairs.main(["--in-process", "--parent", "worktree", "--change", "worktree",
                             "--pairs", "2", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["summary"] == {"joint-large": 1}
    assert set(record["in_process"]["summary"]) == {"desk", "large", "baseline"}
    assert len(record["in_process"]["rounds"]["change"]["large"]) == 2
    assert "OPENBLAS_NUM_THREADS=1" in record["in_process"]["environment"]
    assert record["in_process"]["identical"] == {"desk": [True, True], "large": [True], "baseline": [True, True]}


def test_each_problem_set_learns_by_its_method():
    package = bench_pairs.load_package(bench_pairs.ROOT, "covgraph_method_test")
    inputs = bench_pairs.problem_inputs(package, TINY)
    methods = {name: method for name, (method, _) in bench_pairs.default_problem_sets().items()}
    assert methods == {"desk": "joint", "large": "joint", "baseline": "baseline"}
    for method, joint in (("joint", True), ("baseline", False)):
        _, results = bench_pairs.timed_learns(package, method, inputs)
        assert [result.graph.q is not None for result in results] == [joint, joint]
        assert all(result.stop == "certified" for result in results)

"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np
import pytest

import covgraph.learn
import harness
import stationarity
import tracing
from covgraph.verify import kkt_report
from workloads import LearnWorkload

S2 = np.array([[1.0, 0.5], [0.5, 1.0]])


def test_two_node_joint_closed_form_passes_and_perturbation_fails():
    q = [2.0 / 3.0, 2.0 / 3.0]
    assert stationarity.check(S2, 2, [(0, 1, 2.0 / 3.0)], q, 1e-4).passed
    bad = stationarity.check(S2, 2, [(0, 1, 2.0 / 3.0 + 1e-3)], q, 1e-4)
    assert not bad.passed and bad.edge_residual > 1e-6


def test_two_node_baseline_closed_form_passes_and_perturbation_fails():
    # L + J/2 gives effective resistance 1/w, so the optimum is w = 1/h = 1.
    assert stationarity.check(S2, 2, [(0, 1, 1.0)]).passed
    assert not stationarity.check(S2, 2, [(0, 1, 1.01)]).passed


def test_absent_edge_that_should_carry_weight_fails():
    assert not stationarity.check(S2, 2, [], [2.0 / 3.0, 2.0 / 3.0], 1e-4).passed


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, (50.0, 10)), (40, (75.0, 30)), (100, (90.0, 90)),
     (200, (95.0, 190)), (1000, (99.0, 990)), (2000, (99.5, 1990))],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, expected):
    times = [float(k) for k in range(n, 0, -1)]  # value k is the k-th smallest
    got = harness.tail(times)
    if expected is None:
        assert got is None
    else:
        assert got == (expected[0], float(expected[1]), n)
        assert n - expected[1] >= 10


def test_hooks_restore_module_globals_even_after_an_error():
    original = covgraph.learn.sweep_edges
    recorder = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with tracing.hooked(tracing.HOOKS, recorder) as missing:
            assert missing == []
            assert covgraph.learn.sweep_edges is not original
            raise RuntimeError("boom")
    assert covgraph.learn.sweep_edges is original
    for hook in tracing.HOOKS:
        module = sys.modules[hook.module]
        assert all(not hasattr(v, "__wrapped__") for v in vars(module).values())


def test_missing_name_is_reported_not_fatal():
    hooks = (tracing.Hook("covgraph.learn", "no_such_function", "learn.gone"),)
    with tracing.hooked(hooks, tracing.Recorder()) as missing:
        assert missing == ["covgraph.learn.no_such_function"]


def test_max_epochs_one_counts_as_unconverged(tmp_path):
    workload = LearnWorkload("tiny", "joint", 10, ((0, 0.1),), config={"max_epochs": 1})
    pool, inputs = workload.setup(0, tmp_path)
    request = harness.one_request(workload, inputs, pool[0])
    assert request.outcome.cause == "unconverged"
    assert request.outcome.valid


def test_traced_counts_match_the_work_done(tmp_path):
    n = 8
    workload = LearnWorkload("tiny", "joint", n, ((1, 0.2),))
    pool, inputs = workload.setup(0, tmp_path)
    recorder = tracing.Recorder()
    untraced, traced, missing = harness.timed_phase(workload, inputs, pool, 1e-9, recorder)
    assert missing == [] and len(untraced) == len(traced) == 1
    assert untraced[0].outcome.digest == traced[0].outcome.digest
    layer = tracing.layer_metrics(recorder, 1)
    epochs = layer["learn.epochs"]
    assert layer["learn.calls"] == 1 and epochs >= 1
    assert layer["solver.coords_visited"] == epochs * (n * (n - 1) // 2 + n)
    assert 0 < layer["solver.update_ratio"] <= 1
    # One refresh per refresh_every=50 epochs, plus the final one.
    assert layer["solver.refresh_calls"] == epochs // 50 + 1


@pytest.mark.parametrize("trial, r", [(0, 0.1), (3, 0.2), (4, 1.0)])
def test_own_check_agrees_with_kkt_report(tmp_path, trial, r):
    workload = LearnWorkload("desk", "joint", 50, ((trial, r),))
    pool, inputs = workload.setup(0, tmp_path)
    S, result, _ = workload.request(inputs, pool[0])
    ours = stationarity.check_graph(result.graph, S.entries).passed
    assert ours == kkt_report(result, S).passed

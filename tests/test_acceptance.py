"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line on success (run with -v for per-criterion
pass/fail lines, -s to see the prints).

Criteria map:
 1 closed-form two-node optimum (< 1 s)
 2 oracle equivalence on 20 random SPD instances, joint and baseline (< 30 s)
 3 Monte-Carlo consistency of the model covariance (100k draws)
 4 per-update monotone descent and post-convergence stationarity (1e-6)
 5 rank-one inverse maintenance fidelity over 200 refresh-free epochs (n=20)
 6 correlation-based weight bound on converged results; two-node sharpness
 7 nonpositive-covariance pairs carry no weight; screening is exact
 8 desk-scale benchmark table (n=50, 10 trials, 5 ranges, tol 1e-10)
 9 exported bound curves: strict dominance and the 1/(2*sill) limit
"""
import math
import time

import numpy as np

from covgraph import (
    LearnConfig,
    all_pairs,
    bound_curves,
    bound_report,
    edge_update,
    edge_weight_bound,
    init_state,
    kkt_report,
    learn_cgl_baseline,
    learn_joint,
    refresh_phi,
    run_experiment,
    sample_locations,
    screen_edges,
    variogram_covariance,
    vertex_update,
    build_graph,
    compute_gft,
    joint_model_psd,
    laplacian,
    model_covariance,
    sample_stationary_signals,
    VariogramSpec,
)
from covgraph.graphs import CovarianceMatrix
from covgraph.learn import epoch, kernel_weights
from _support import edge_weight_map, kernel_spd_covariance, mixed_sign_spd_covariance, pair_list
from oracles import (
    direct_inverse_oracle,
    minimize_baseline_objective,
    minimize_joint_objective,
)

S2 = np.array([[1.0, 0.5], [0.5, 1.0]])
F2_STAR = math.log(0.75) + 2.0

ORACLE_SEEDS = [(100 + k, [3, 4, 5][k % 3]) for k in range(20)]


def _joint_corpus():
    """Converged joint instances reused by criteria 4 and 6."""
    instances = [("two-node", CovarianceMatrix(entries=S2))]
    for seed, n in [(300, 3), (301, 4), (302, 5), (404, 4), (505, 6)]:
        instances.append((f"kernel-{seed}", kernel_spd_covariance(n, seed=seed)))
    sample = sample_locations(10, seed=77)
    instances.append(
        ("variogram-10", variogram_covariance(sample, VariogramSpec(range_=0.3)))
    )
    return instances


def test_criterion_1_closed_form_optimum():
    start = time.perf_counter()
    result = learn_joint(S2, LearnConfig(q_min=1e-4))
    elapsed = time.perf_counter() - start
    assert result.converged
    w = edge_weight_map(result.graph)[(0, 1)]
    assert abs(w - 2.0 / 3.0) <= 1e-6
    assert np.all(np.abs(result.graph.q - 2.0 / 3.0) <= 1e-6)
    assert abs(result.objective - F2_STAR) <= 1e-6
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 PASS: closed-form optimum w={w:.8f}, F={result.objective:.8f} "
        f"in {elapsed * 1e3:.1f} ms"
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    worst_joint = 0.0
    worst_baseline = 0.0
    for seed, n in ORACLE_SEEDS:
        S = kernel_spd_covariance(n, seed=seed)
        res_joint = learn_joint(S)
        _, _, f_joint = minimize_joint_objective(S.entries, q_min=1e-4)
        worst_joint = max(worst_joint, abs(res_joint.objective - f_joint) / abs(f_joint))

        res_base = learn_cgl_baseline(S)
        _, f_base = minimize_baseline_objective(S.entries)
        worst_baseline = max(worst_baseline, abs(res_base.objective - f_base) / abs(f_base))
    elapsed = time.perf_counter() - start
    assert worst_joint <= 1e-6
    assert worst_baseline <= 1e-6
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 2 PASS: oracle equivalence on 20 instances "
        f"(worst joint {worst_joint:.2e}, worst baseline {worst_baseline:.2e}, "
        f"{elapsed:.1f} s)"
    )


def test_criterion_3_monte_carlo_model_covariance():
    graph = build_graph(
        5,
        [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (0, 4, 0.7), (1, 3, 0.3)],
        q=[0.5, 1.0, 2.0, 1.5, 0.8],
        q_min=1e-4,
    )
    L = laplacian(graph)
    spectrum = compute_gft(L, graph.q)
    sigma = model_covariance(L, graph.q)
    errors = {}
    for count in (1000, 100000):
        X = sample_stationary_signals(spectrum, joint_model_psd, count, seed=7)
        empirical = X.T @ X / count
        errors[count] = float(np.max(np.abs(empirical - sigma)))
    assert errors[100000] <= 5e-2
    ratio = errors[1000] / errors[100000]
    assert 3.0 <= ratio <= 30.0, f"expected ~10x error reduction, got {ratio:.1f}x"
    print(
        f"ACCEPTANCE 3 PASS: MC covariance err(1e5)={errors[100000]:.2e}, "
        f"err(1e3)/err(1e5)={ratio:.1f} (~10x for 100x samples)"
    )


def test_criterion_4_descent_and_stationarity():
    checked_updates = 0
    for name, S in _joint_corpus():
        state = init_state(S, *all_pairs(S.n), 0.0, q0=1.0, q_min=1e-4)
        for _ in range(2000):
            before = state.objective
            for e in range(state.m):
                upd = edge_update(state, e)
                change = upd.delta * upd.cost - math.log1p(upd.delta * upd.effective)
                assert change <= 1e-12, f"{name}: edge update increased objective"
                checked_updates += 1
            for i in range(state.n):
                upd = vertex_update(state, i)
                change = upd.delta * upd.cost - math.log1p(upd.delta * upd.effective)
                assert change <= 1e-12, f"{name}: vertex update increased objective"
                checked_updates += 1
            state.epoch_counter += 1
            if abs(state.objective - before) < 1e-10:
                break
        refresh_phi(state)
        graph = build_graph(
            state.n,
            [(i, j, w) for (i, j), w in zip(state.pairs, state.w) if w > 0],
            q=state.q,
            q_min=state.q_min,
        )
        report = kkt_report(graph, S, tol=1e-6)
        assert report.passed, f"{name}: stationarity report failed ({report})"

    # Descent also holds for the baseline update path.
    state = init_state(kernel_spd_covariance(5, seed=42), *all_pairs(5), 0.2)
    for _ in range(200):
        before = state.objective
        for e in range(state.m):
            upd = edge_update(state, e)
            change = upd.delta * upd.cost - math.log1p(upd.delta * upd.effective)
            assert change <= 1e-12
            checked_updates += 1
        if abs(state.objective - before) < 1e-10:
            break
    print(
        f"ACCEPTANCE 4 PASS: {checked_updates} coordinate updates all descend "
        f"(<= 1e-12) and every converged instance passes the 1e-6 stationarity check"
    )


def test_criterion_5_rank_one_inverse_fidelity():
    worst = 0.0
    for seed, mode in [(3, "joint"), (4, "joint"), (5, "baseline")]:
        sample = sample_locations(20, seed=seed)
        S = variogram_covariance(sample, VariogramSpec(range_=0.2))
        pairs = all_pairs(20)
        w0 = kernel_weights(sample.points, *pairs)
        if mode == "joint":
            state = init_state(S, *pairs, w0, q0=1.0, q_min=1e-4)
        else:
            state = init_state(S, *pairs, w0)
        for k in range(200):
            epoch(state)
            if (k + 1) % 50 == 0:
                direct = direct_inverse_oracle(state.model_matrix())
                worst = max(worst, float(np.max(np.abs(state.phi - direct))))
        assert state.updates_since_refresh > 0  # no refresh happened
    assert worst <= 1e-8
    print(
        f"ACCEPTANCE 5 PASS: maintained inverse within {worst:.2e} of direct "
        f"inversion after 200 refresh-free epochs (n=20)"
    )


def test_criterion_6_weight_bound_suite():
    checked_edges = 0
    for name, S in _joint_corpus():
        result = learn_joint(S)
        assert result.converged, f"{name} did not converge"
        report = bound_report(result, S, tol=1e-8)
        assert report.n_violated == 0, f"{name}: bound violated"
        checked_edges += report.n_applicable
    # Sharpness: the two-node optimum attains its bound.
    result = learn_joint(S2, LearnConfig(q_min=1e-4))
    w = edge_weight_map(result.graph)[(0, 1)]
    bound = edge_weight_bound(S2, 0, 1)
    assert abs(w - bound) <= 1e-6
    print(
        f"ACCEPTANCE 6 PASS: {checked_edges} applicable edges within bound + 1e-8; "
        f"two-node case attains it (|w - bound| = {abs(w - bound):.2e})"
    )


def test_criterion_7_nonpositive_pairs_carry_no_weight():
    checked_pairs = 0
    for seed, n in [(31, 4), (32, 5), (33, 5)]:
        S = mixed_sign_spd_covariance(n, seed=seed)
        nonpositive = [
            (i, j) for i in range(n) for j in range(i + 1, n) if S.entries[i, j] <= 0
        ]
        assert nonpositive, "generator must produce nonpositive off-diagonals"
        kept = set(pair_list(screen_edges(S)))
        for i in range(n):
            for j in range(i + 1, n):
                assert ((i, j) in kept) == (S.entries[i, j] > 0)
        for screen in (False, True):
            result = learn_joint(S, LearnConfig(screen=screen))
            assert result.converged
            w = edge_weight_map(result.graph)
            for pair in nonpositive:
                assert w.get(pair, 0.0) <= 1e-8
                checked_pairs += 1
    print(
        f"ACCEPTANCE 7 PASS: {checked_pairs} nonpositive-covariance pair checks "
        f"at <= 1e-8, screening excludes exactly those pairs"
    )


def _assert_monotone(values, nondecreasing, slack=0.02, label=""):
    violations = []
    for a, b in zip(values, values[1:]):
        step = b - a if nondecreasing else a - b
        if step < -1e-12:
            violations.append(-step)
    assert len(violations) <= 1, f"{label}: {len(violations)} trend violations"
    assert all(v <= slack for v in violations), f"{label}: trend violation beyond slack"


def test_criterion_8_desk_scale_benchmark_table():
    ranges = [0.01, 0.02, 0.1, 0.2, 1.0]
    start = time.perf_counter()
    table = run_experiment(
        ranges,
        n=50,
        trials=10,
        base_seed=0,
        config=LearnConfig(stop_tol=1e-10, max_epochs=1000),
    )
    elapsed = time.perf_counter() - start
    rows = {(row.method, row.r): row for row in table.rows}

    eps_joint = [rows[("joint", r)].epsilon_w for r in ranges]
    eps_base = [rows[("baseline", r)].epsilon_w for r in ranges]

    # (a) joint sparsity at the shortest range close to the reference 51.8%
    assert abs(eps_joint[0] - 0.518) <= 0.15, f"joint eps(0.01) = {eps_joint[0]:.3f}"
    # (b) baseline stays dense at the shortest range
    assert eps_base[0] <= 0.05, f"baseline eps(0.01) = {eps_base[0]:.3f}"
    # (c) strict sparsity dominance for r <= 0.2
    for k, r in enumerate(ranges[:4]):
        assert eps_joint[k] > eps_base[k], f"no dominance at r={r}"
    # joint sparsity grows with the correlation range
    _assert_monotone(eps_joint, nondecreasing=True, label="epsilon_w")
    # (d) importance trends
    u_q = [rows[("joint", r)].u_q for r in ranges]
    q_bar = [rows[("joint", r)].q_bar for r in ranges]
    assert all(v is not None for v in u_q)
    assert all(v is not None for v in q_bar)
    _assert_monotone(u_q, nondecreasing=True, label="u_q")
    _assert_monotone(q_bar, nondecreasing=False, label="q_bar")
    # (e) joint learning is faster where the baseline stays dense
    for r in (0.01, 0.02, 0.1):
        assert rows[("joint", r)].time_s < rows[("baseline", r)].time_s, (
            f"joint not faster at r={r}"
        )
    assert elapsed < 1800.0

    summary = ", ".join(
        f"r={r:g}: eps_j={rows[('joint', r)].epsilon_w:.1%}/eps_b={rows[('baseline', r)].epsilon_w:.1%}"
        for r in ranges
    )
    print(f"ACCEPTANCE 8 PASS ({elapsed:.0f} s): {summary}")
    print(
        "ACCEPTANCE 8 trends: u_q="
        + ", ".join(f"{v:.2f}" for v in u_q)
        + "; q_bar="
        + ", ".join(f"{v:.3f}" for v in q_bar)
    )


def test_criterion_9_bound_curve_export():
    ranges = [0.01, 0.02, 0.1, 0.2, 1.0]
    d_grid, curves = bound_curves(ranges, sill=10.0, d_max=1.5, steps=151)
    interior = d_grid > 0
    for r in ranges:
        joint = np.asarray(curves[f"bound_proposed_r{r:g}"])[interior]
        base = np.asarray(curves[f"bound_baseline_r{r:g}"])[interior]
        assert np.all(joint < base), f"dominance fails for r={r}"
    # Baseline limit: 1/(2*sill) = 0.05, reached within 1e-3 by d/r = 10.
    from covgraph import baseline_variogram_edge_bound

    for r in ranges:
        assert abs(baseline_variogram_edge_bound(10.0 * r, r) - 0.05) <= 1e-3
    # The same limit is visible inside the exported grid where 10r <= 1.5.
    for r in (0.01, 0.02, 0.1):
        k = int(np.argmin(np.abs(d_grid - 10.0 * r)))
        assert abs(curves[f"bound_baseline_r{r:g}"][k] - 0.05) <= 1e-3
    print(
        "ACCEPTANCE 9 PASS: proposed bound strictly below baseline bound on "
        "(0, 1.5] for all ranges; baseline limit 0.05 reached within 1e-3 at d/r=10"
    )

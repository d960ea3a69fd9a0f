"""End-to-end acceptance gate.

Each test covers one release criterion, records a one-line verdict (printed in
the terminal summary), and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from betahmm import (
    BetaMapConfig,
    CountSequence,
    EmConfig,
    FtdConfig,
    HmmParams,
    MomentAccumulator,
    SynthConfig,
    beta_map,
    cache_stats,
    clear_cache,
    em_fit,
    ftd_fit,
    ftd_fit_moments,
    generate_params,
    log_likelihood,
    run_benchmark,
    sample_sequence,
    solve_assignment,
)
from betahmm.recovery import chain_via_pinv, differential_states, estimate_joint_lsq
from betahmm.spectral import tensor_power_method

from conftest import ACCEPTANCE_LINES
from oracles import (
    brute_force_log_likelihood,
    exact_feature_map,
    population_moments,
)

BENCHMARK_BUDGET_SECONDS = 900.0


def _record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def benchmark_report():
    cfg = SynthConfig(trials=20, seed=0)
    start = time.perf_counter()
    report = run_benchmark(cfg, threads=4)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_01_exact_moment_recovery():
    pi = np.array([2.0 / 3.0, 1.0 / 3.0])
    T = np.array([[0.8, 0.4], [0.2, 0.6]])
    probs = np.array([0.2, 0.8])
    coverage, granularity = 50, 32
    C = exact_feature_map(probs, [(coverage, 1.0)], granularity)
    moments = population_moments(pi, T, C)
    weight = 1.0 / (coverage + 2.0)

    start = time.perf_counter()
    model = ftd_fit_moments(moments, 2, [weight], FtdConfig(moment_ridge=0.0))
    elapsed = time.perf_counter() - start

    est = model.per_cell_probs[0]
    best = None
    for perm in ([0, 1], [1, 0]):
        p_err = float(np.abs(est[list(perm)] - probs).max())
        t_err = float(np.linalg.norm(model.params.transition[np.ix_(perm, perm)] - T))
        pi_err = float(np.linalg.norm(model.params.initial_dist[list(perm)] - pi))
        if best is None or p_err < best[0]:
            best = (p_err, t_err, pi_err)
    p_err, t_err, pi_err = best

    ok = p_err <= 0.035 and t_err <= 0.01 and pi_err <= 0.01 and elapsed < 10.0
    _record(
        f"criterion 01: {'PASS' if ok else 'FAIL'} - exact-moment two-state fit "
        f"(max p error {p_err:.4f} <= 0.035, T error {t_err:.2e} <= 0.01, "
        f"pi error {pi_err:.2e} <= 0.01, {elapsed:.2f}s < 10s)"
    )
    assert p_err <= 0.035
    assert t_err <= 0.01
    assert pi_err <= 0.01
    assert elapsed < 10.0


def test_criterion_02_feature_map_conditioning():
    granularity = 8
    C = exact_feature_map([0.1, 0.9], [(800, 1.0)], granularity)
    sigma_min = float(np.linalg.svd(C, compute_uv=False)[-1])
    bound = 1.0 / (2.0 * math.sqrt(granularity))
    ok = sigma_min >= bound
    _record(
        f"criterion 02: {'PASS' if ok else 'FAIL'} - well-separated states stay "
        f"well-conditioned (sigma_min {sigma_min:.5f} >= {bound:.5f})"
    )
    assert sigma_min >= bound


def test_criterion_03_error_trend_and_variance(benchmark_report):
    report, elapsed = benchmark_report
    ftd_short = report.ok_errors(128, "ftd")
    ftd_long = report.ok_errors(8192, "ftd")
    em_long = report.ok_errors(8192, "em")
    mean_short = float(ftd_short.mean())
    mean_long = float(ftd_long.mean())
    ftd_std = float(ftd_long.std(ddof=1))
    em_std = float(em_long.std(ddof=1))

    trend_ok = mean_long < mean_short
    variance_ok = ftd_std <= em_std
    runtime_ok = elapsed < BENCHMARK_BUDGET_SECONDS
    ok = trend_ok and variance_ok and runtime_ok
    _record(
        f"criterion 03: {'PASS' if ok else 'FAIL'} - spectral error trend and spread "
        f"(mean {mean_short:.4f} @128 -> {mean_long:.4f} @8192, trend "
        f"{'ok' if trend_ok else 'violated'}; spectral std {ftd_std:.4f} vs em std "
        f"{em_std:.4f} @8192, {'ok' if variance_ok else 'violated'}; sweep "
        f"{elapsed:.1f}s < {BENCHMARK_BUDGET_SECONDS:.0f}s)"
    )
    assert runtime_ok, f"benchmark took {elapsed:.1f}s, budget {BENCHMARK_BUDGET_SECONDS}s"
    assert trend_ok, (
        f"mean spectral error did not improve: {mean_short:.4f} @128 vs "
        f"{mean_long:.4f} @8192"
    )
    assert variance_ok, (
        f"spectral error spread at length 8192 (std {ftd_std:.4f}) exceeds the EM "
        f"baseline's (std {em_std:.4f})"
    )


def test_criterion_04_runtime_and_feature_touches(benchmark_report):
    report, _ = benchmark_report
    ftd_secs = float(report.ok_seconds(8192, "ftd").mean())
    em_secs = float(report.ok_seconds(8192, "em").mean())

    params = generate_params(SynthConfig(), seed=0)
    seq = sample_sequence(params, 8192, 25.0, seed=1)
    clear_cache()
    ftd_fit(seq, 4, FtdConfig())
    stats = cache_stats()
    touch_ok = stats["requests"] <= 4 * len(seq) and stats["computed"] <= len(seq)

    ok = ftd_secs < em_secs and touch_ok
    _record(
        f"criterion 04: {'PASS' if ok else 'FAIL'} - single-pass speed "
        f"(spectral {ftd_secs:.3f}s < em {em_secs:.3f}s @8192; feature maps: "
        f"{stats['requests']} lookups, {stats['computed']} computed for "
        f"{len(seq)} positions)"
    )
    assert ftd_secs < em_secs
    assert stats["requests"] <= 4 * len(seq)
    assert stats["computed"] <= len(seq)


def test_criterion_05_feature_maps_are_distributions():
    gen = np.random.default_rng(0)
    worst_sum = 0.0
    worst_entry = np.inf
    for _ in range(10_000):
        c = int(gen.integers(0, 201))
        mu = int(gen.integers(0, c + 1))
        granularity = int(gen.integers(1, 129))
        phi = beta_map((c, mu), BetaMapConfig(granularity))
        worst_sum = max(worst_sum, abs(float(phi.sum()) - 1.0))
        worst_entry = min(worst_entry, float(phi.min()))
    ok = worst_sum <= 1e-10 and worst_entry >= 0.0
    _record(
        f"criterion 05: {'PASS' if ok else 'FAIL'} - 10000 random feature maps are "
        f"distributions (worst |sum-1| {worst_sum:.2e} <= 1e-10, min entry "
        f"{worst_entry:.2e} >= 0)"
    )
    assert worst_sum <= 1e-10
    assert worst_entry >= 0.0


def test_criterion_06_planted_tensor_recovery():
    gen = np.random.default_rng(2024)
    worst = 0.0
    for rep in range(100):
        m = int(gen.integers(1, 7))
        q, _ = np.linalg.qr(gen.standard_normal((m, m)))
        lam = gen.uniform(0.5, 3.0, size=m)
        h = np.einsum("im,jm,km,m->ijk", q, q, q, lam)
        result = tensor_power_method(
            h, m, iters_per_component=100, restarts=10, seed=rep
        )
        cost = np.empty((m, m))
        for i in range(m):
            v = result.eigenvectors[:, i]
            for j in range(m):
                cost[i, j] = min(
                    float(np.linalg.norm(v - q[:, j])),
                    float(np.linalg.norm(v + q[:, j])),
                )
        assignment, _ = solve_assignment(cost)
        for i in range(m):
            j = int(assignment[i])
            worst = max(worst, cost[i, j], abs(float(result.eigenvalues[i]) - lam[j]))
    ok = worst <= 1e-6
    _record(
        f"criterion 06: {'PASS' if ok else 'FAIL'} - 100 planted orthogonal tensors "
        f"recovered (worst eigenpair error {worst:.2e} <= 1e-6)"
    )
    assert worst <= 1e-6


def test_criterion_07_moment_concentration():
    reps, M, delta = 200, 500, 0.1
    eps = math.sqrt((4.0 + 4.0 * math.log(8.0 / delta)) / M)
    pi = np.array([0.6, 0.4])
    T = np.array([[0.7, 0.2], [0.3, 0.8]])
    p = np.array([0.15, 0.85])
    granularity, max_cov = 4, 3

    cov_support = [(c, 1.0 / (max_cov + 1)) for c in range(max_cov + 1)]
    C = exact_feature_map(p, cov_support, granularity)
    exact = population_moments(pi, T, C)

    from oracles import beta_histogram_row

    table = np.zeros((max_cov + 1, max_cov + 1, granularity))
    for c in range(max_cov + 1):
        for mu in range(c + 1):
            table[c, mu] = beta_histogram_row(c, mu, granularity)

    gen = np.random.default_rng(99)
    hits = 0
    for _ in range(reps):
        h1 = gen.choice(2, size=M, p=pi)
        h2 = (gen.random(M) < T[1, h1]).astype(np.int64)
        h3 = (gen.random(M) < T[1, h2]).astype(np.int64)
        states = np.stack([h1, h2, h3], axis=1)
        covs = gen.integers(0, max_cov + 1, size=(M, 3))
        mus = gen.binomial(covs, p[states])
        f1 = table[covs[:, 0], mus[:, 0]]
        f2 = table[covs[:, 1], mus[:, 1]]
        f3 = table[covs[:, 2], mus[:, 2]]
        dev = max(
            float(np.linalg.norm(f1.T @ f2 / M - exact.p12)),
            float(np.linalg.norm(f1.T @ f3 / M - exact.p13)),
            float(np.linalg.norm(f2.T @ f3 / M - exact.p23)),
            float(
                np.linalg.norm(
                    np.einsum("ni,nj,nk->ijk", f1, f2, f3) / M - exact.t123
                )
            ),
        )
        hits += dev <= eps
    needed = int(math.ceil(0.85 * reps))
    ok = hits >= needed
    _record(
        f"criterion 07: {'PASS' if ok else 'FAIL'} - finite-sample moment bound "
        f"(within eps {eps:.4f} in {hits}/{reps} reps, needed {needed})"
    )
    assert hits >= needed


def test_criterion_08_likelihood_against_enumeration():
    gen = np.random.default_rng(17)
    worst_ll_gap = 0.0
    worst_drop = 0.0
    for rep in range(50):
        if rep == 0:
            m, L = 4, 10
        else:
            m = int(gen.integers(2, 5))
            L = int(gen.integers(3, 9))
        pi = gen.dirichlet(np.ones(m))
        T = np.column_stack([gen.dirichlet(np.ones(m)) for _ in range(m)])
        p = gen.uniform(0.05, 0.95, size=m)
        params = HmmParams(initial_dist=pi, transition=T, meth_probs=p)
        cov = gen.integers(0, 4, size=L)
        meth = gen.binomial(cov, 0.5)
        seq = CountSequence(cov, meth)

        gap = abs(log_likelihood(params, seq) - brute_force_log_likelihood(params, seq))
        worst_ll_gap = max(worst_ll_gap, gap)

        trace = em_fit(seq, m, EmConfig(max_iters=6, rel_ll_tolerance=0.0, seed=rep))
        diffs = np.diff(trace.log_likelihoods)
        if diffs.size:
            worst_drop = max(worst_drop, float(-diffs.min()))
    ok = worst_ll_gap <= 1e-8 and worst_drop <= 1e-8
    _record(
        f"criterion 08: {'PASS' if ok else 'FAIL'} - em likelihood exactness "
        f"(worst |forward - enumeration| {worst_ll_gap:.2e} <= 1e-8, worst trace "
        f"drop {worst_drop:.2e} <= 1e-8, 50 instances)"
    )
    assert worst_ll_gap <= 1e-8
    assert worst_drop <= 1e-8


def test_criterion_09_joint_estimation_stability():
    runs = 50
    feasible = 0
    clamped_runs = 0
    for run in range(runs):
        seeds = np.random.SeedSequence((123, run)).generate_state(3)
        params = generate_params(SynthConfig(), int(seeds[0]))
        seq = sample_sequence(params, 512, 25.0, int(seeds[1]))
        model = ftd_fit(seq, 4, FtdConfig())
        rank = model.diagnostics["effective_rank"]
        means_r = model.feature_means[:, :rank]

        acc = MomentAccumulator(feature_dim=30)
        acc.add_sequence(seq, BetaMapConfig(granularity=30))
        p21 = acc.finalize().p21

        joint = estimate_joint_lsq(p21, means_r)
        if joint.matrix.min() >= 0.0 and abs(joint.matrix.sum() - 1.0) <= 1e-9:
            feasible += 1
        _, _, clamp_mass = chain_via_pinv(p21, means_r)
        clamped_runs += clamp_mass > 0.0
    ok = feasible == runs and clamped_runs >= 1
    _record(
        f"criterion 09: {'PASS' if ok else 'FAIL'} - constrained joint fit stability "
        f"({feasible}/{runs} runs feasible with no clamping; direct inversion "
        f"clamped negatives in {clamped_runs}/{runs} runs)"
    )
    assert feasible == runs
    assert clamped_runs >= 1


def test_criterion_10_differential_state_detection():
    p_a = np.array([0.20, 0.10, 0.35, 0.55, 0.70, 0.90])
    p_b = np.array([0.80, 0.12, 0.30, 0.60, 0.65, 0.85])
    gen = np.random.default_rng(7)
    m = 6
    u = gen.uniform(size=(m, m))
    u /= u.sum(axis=0, keepdims=True)
    T = 0.5 * np.eye(m) + 0.5 * u
    T /= T.sum(axis=0, keepdims=True)
    pi = gen.dirichlet(np.ones(m))
    params = HmmParams(
        initial_dist=pi, transition=T, meth_probs=np.stack([p_a, p_b])
    )

    seq = sample_sequence(params, 100_000, 25.0, seed=11)
    start = time.perf_counter()
    model = ftd_fit(seq, m, FtdConfig(granularity=12))
    elapsed = time.perf_counter() - start

    flagged = differential_states(model.per_cell_probs, threshold=0.3)
    # identify which recovered state corresponds to the planted divergent one
    est = model.per_cell_probs
    truth = np.stack([p_a, p_b])
    cost = np.abs(truth[0][None, :] - est[0][:, None]) + np.abs(
        truth[1][None, :] - est[1][:, None]
    )
    assignment, _ = solve_assignment(cost.T)  # true index -> estimated index
    target = int(assignment[0])

    ok = flagged == [target]
    _record(
        f"criterion 10: {'PASS' if ok else 'FAIL'} - two-cell differential call "
        f"(flagged {flagged}, planted divergent state maps to {target}, rank "
        f"{model.diagnostics['effective_rank']}, {elapsed:.1f}s)"
    )
    assert flagged == [target], (
        f"expected exactly the planted divergent state {target}, got {flagged}"
    )

"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import hashlib
import math
import time

import numpy as np
import pytest

from fedpecd.design import solve_design
from fedpecd.harness import (
    SyntheticSpec,
    curve_stats,
    desk_spec,
    generate_synthetic,
    run_sweep,
    sweep_csv_lines,
)
from fedpecd.linalg import pinv
from fedpecd.messages import LocalEstimateUpload
from fedpecd.protocol import build_schedule, run_protocol
from fedpecd.server import aggregate_init, aggregate_phase

from conftest import design_problem, identical_agents_scenario
from test_design import grid_search_two_by_two, rot

BASE_SEED = 20260810

# Fixed small scenario for the coverage and retention criteria:
# K=5, d=2, M=5, T=2^10, delta=0.1, hidden contexts, sigma=0.5.
COVERAGE_SPEC = SyntheticSpec(
    K=5, d=2, M=5, sigma=0.5,
    gap_range=(0.55, 0.75),
    norm_range=(0.85, 1.0),
    best_reward_range=(0.82, 0.88),
    perturbation=0.05,
)
COVERAGE_RUNS = 200
COVERAGE_HORIZON = 2**10

DESK_TRIALS = 20
DESK_HORIZON = 2**13


def report(criterion, ok, detail):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="session")
def coverage_runs():
    scenario = generate_synthetic(COVERAGE_SPEC, seed=BASE_SEED)
    schedule = build_schedule(1, 2, scenario.K, COVERAGE_HORIZON)
    start = time.monotonic()
    outcomes = []
    for seed in range(COVERAGE_RUNS):
        trace = run_protocol(
            scenario, schedule, delta=0.1, master_seed=(BASE_SEED, seed),
            variant="hidden",
        )
        outcomes.append(
            (trace.any_confidence_violation(), trace.any_optimal_arm_eliminated())
        )
    elapsed = time.monotonic() - start
    return outcomes, elapsed


@pytest.fixture(scope="session")
def desk_sweep():
    return run_sweep(
        desk_spec(),
        variants=("exact", "hidden"),
        agent_counts=(10, 25, 50),
        trials=DESK_TRIALS,
        horizon=DESK_HORIZON,
        delta=0.1,
        base_seed=BASE_SEED,
        extra_checkpoints=(2**10,),
    )


def test_c01_confidence_coverage(coverage_runs):
    outcomes, elapsed = coverage_runs
    rate = sum(1 for viol, _ in outcomes if viol) / len(outcomes)
    ok = rate <= 0.15 and elapsed < 120.0
    report(1, ok, f"violation rate {rate:.3f} <= 0.15 over {len(outcomes)} runs "
                  f"({elapsed:.1f}s)")
    assert rate <= 0.15
    assert elapsed < 120.0


def test_c02_optimal_arm_retention(coverage_runs):
    outcomes, _ = coverage_runs
    rate = sum(1 for _, elim in outcomes if elim) / len(outcomes)
    report(2, rate <= 0.15, f"optimal-arm elimination rate {rate:.3f} <= 0.15")
    assert rate <= 0.15


def test_c03_exact_beats_hidden(desk_sweep):
    hidden = desk_sweep.cells["hidden", 25][:, -1]
    exact = desk_sweep.cells["exact", 25][:, -1]
    diffs = hidden - exact
    mean = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
    ok = exact.mean() < hidden.mean() and mean > stderr
    report(3, ok, f"paired diff {mean:.1f} > stderr {stderr:.1f}; "
                  f"exact {exact.mean():.1f} < hidden {hidden.mean():.1f}")
    assert exact.mean() < hidden.mean()
    assert mean > stderr


def test_c04_collaboration_gain(desk_sweep):
    finals = {m: desk_sweep.cells["hidden", m][:, -1] for m in (10, 25, 50)}
    means = {m: float(v.mean()) for m, v in finals.items()}
    monotone = means[10] >= means[25] >= means[50]
    diffs = finals[10] - finals[50]
    mean = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
    ok = monotone and mean > stderr
    report(4, ok, f"means M10/25/50 = {means[10]:.1f}/{means[25]:.1f}/{means[50]:.1f}; "
                  f"M10-M50 diff {mean:.1f} > stderr {stderr:.1f}")
    assert monotone
    assert mean > stderr


# sha256 of the desk sweep's CSV lines, one newline after each.
DESK_SWEEP_CSV_SHA256 = "840533b7955084602a4cc855a6a6ca1fbcad1af7102f9449e7497d84851d2a2c"


def test_desk_sweep_csv_is_pinned(desk_sweep):
    """The c03-c05 sweep's CSV is byte-identical to the pinned digest.

    Rounding-level changes can leave the tiny-run trace pin in place while
    they move these 20-trial means.  A change that moves outputs on purpose
    updates the pin here and records in CHANGES.md what moved and why.
    """
    text = "".join(line + "\n" for line in sweep_csv_lines(desk_sweep))
    assert hashlib.sha256(text.encode()).hexdigest() == DESK_SWEEP_CSV_SHA256

def test_c05_sublinearity(desk_sweep):
    mean, _ = curve_stats(desk_sweep.cells["exact", 25])
    idx10 = desk_sweep.rounds.index(2**10)
    idx13 = desk_sweep.rounds.index(2**13)
    rate10 = float(mean[idx10]) / 2**10
    rate13 = float(mean[idx13]) / 2**13
    ok = rate13 <= 0.5 * rate10
    report(5, ok, f"R/T at 2^13 = {rate13:.4f} <= 0.5 * {rate10:.4f} "
                  f"(ratio {rate13 / rate10:.3f})")
    assert rate13 <= 0.5 * rate10


def test_c06_communication_cost_scaling():
    template = identical_agents_scenario(m=10, sigma=0.0)
    costs, phase_counts = [], []
    for t_exp in (10, 12, 14, 16):
        schedule = build_schedule(1, 2, template.K, 2**t_exp)
        trace = run_protocol(
            template.restrict(5), schedule, master_seed=0, variant="exact"
        )
        costs.append(trace.meter.total)
        phase_counts.append(schedule.H)
    slope, intercept = np.polyfit(phase_counts, costs, 1)
    fitted = slope * np.array(phase_counts) + intercept
    ss_res = float(np.sum((np.array(costs) - fitted) ** 2))
    ss_tot = float(np.sum((np.array(costs) - np.mean(costs)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot

    schedule = build_schedule(1, 2, template.K, 2**12)
    cost_m5 = run_protocol(
        template.restrict(5), schedule, master_seed=0, variant="exact"
    ).meter.total
    cost_m10 = run_protocol(
        template, schedule, master_seed=0, variant="exact"
    ).meter.total
    ratio = cost_m10 / cost_m5
    ok = r_squared >= 0.99 and abs(ratio - 2.0) <= 0.2
    report(6, ok, f"cost ~ a + b*H with R^2 = {r_squared:.5f}; "
                  f"M doubling ratio {ratio:.3f}")
    assert r_squared >= 0.99
    assert abs(ratio - 2.0) <= 0.2


def test_c07_design_solver_oracle():
    dirs = {
        (0, 0): rot(10), (0, 1): rot(75),
        (1, 0): rot(50), (1, 1): rot(160),
    }
    prob = design_problem([[0, 1], [0, 1]], dirs, 2)
    alloc = solve_design(prob)
    grid_best, _ = grid_search_two_by_two(dirs)
    gap = abs(alloc.objective - grid_best)

    d = 3
    frame = design_problem([list(range(d))], {(0, a): np.eye(d)[a] for a in range(d)}, d)
    frame_alloc = solve_design(frame)
    uniform_err = max(abs(frame_alloc.pi[0][a] - 1.0 / d) for a in range(d))
    ok = gap <= 1e-4 and uniform_err <= 1e-6
    report(7, ok, f"grid-search objective gap {gap:.2e} <= 1e-4; "
                  f"orthonormal-frame deviation {uniform_err:.2e} <= 1e-6")
    assert gap <= 1e-4
    assert uniform_err <= 1e-6


def test_c08_aggregation_oracle():
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        psis = {}
        for i in range(m):
            for a in range(k):
                v = rng.normal(size=d)
                psis[(i, a)] = (0.5 + 0.5 * rng.random()) * v / np.linalg.norm(v)

        def estimate(i, a, y):
            psi = psis[(i, a)]
            return (y / float(psi @ psi)) * psi

        def upload(phase, reported, pulls):
            """The round of estimates of the ``reported`` pairs from fresh
            average rewards, drawn agent by agent, arms ascending."""
            theta_hat = np.zeros((m, k, d))
            for i, a in np.argwhere(reported):
                y = float(rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0]))
                theta_hat[i, a] = estimate(i, a, y)
            return LocalEstimateUpload(phase=np.full(m, phase), arms=reported,
                                       theta_hat=theta_hat, pulls=pulls)

        every = np.ones((m, k), dtype=bool)
        init_upload = upload(0, every, np.ones((m, k), dtype=int))
        model = aggregate_init(init_upload, m=m, k=k, d=d)

        # independent recomputation from the printed formulas
        for a in range(k):
            gram = np.zeros((d, d))
            linear = np.zeros(d)
            for i in range(m):
                th = init_upload.theta_hat[i, a]
                linear += th
                nsq = float(th @ th)
                if nsq > 0.0:
                    gram += np.outer(th, th) / nsq
            v_ref = pinv(gram)
            theta_ref = v_ref @ linear
            theta, v = model.theta[a], model.v[a]
            worst = max(worst, float(np.max(np.abs(v - v_ref))),
                        float(np.max(np.abs(theta - theta_ref))))
            np.testing.assert_allclose(v, v_ref, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(theta, theta_ref, rtol=1e-8, atol=1e-12)

        # one phase of f-weighted aggregation
        active = np.zeros((m, k), dtype=bool)
        for i in range(m):
            active[i, rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)] = True
        issued = np.zeros((m, k), dtype=int)
        for i, a in np.argwhere(active):
            issued[i, a] = rng.integers(0, 4)
        phase_upload = upload(1, active & (issued >= 1), issued)
        phase_model = aggregate_phase(phase_upload, issued, active, model)

        for a in np.flatnonzero(active.any(axis=0)).tolist():
            gram = np.zeros((d, d))
            linear = np.zeros(d)
            seen = False
            for i in range(m):
                f = int(issued[i, a])
                if f < 1:
                    continue
                th = phase_upload.theta_hat[i, a]
                linear += f * th
                nsq = float(th @ th)
                if nsq > 0.0:
                    gram += (f / nsq) * np.outer(th, th)
                    seen = True
            theta, v = phase_model.theta[a], phase_model.v[a]
            if not seen:
                theta_ref, v_ref = model.theta[a], model.v[a]
            else:
                v_ref = pinv(gram)
                theta_ref = v_ref @ linear
            np.testing.assert_allclose(v, v_ref, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(theta, theta_ref, rtol=1e-8, atol=1e-12)
    report(8, True, f"100 randomized instances matched (worst abs dev {worst:.2e})")


def test_c09_noiseless_exactness():
    spec = SyntheticSpec(K=5, d=3, M=6, sigma=0.0, perturbation=0.04)
    scenario = generate_synthetic(spec, seed=BASE_SEED + 1)
    schedule = build_schedule(1, 2, scenario.K, 2**10)
    trace = run_protocol(
        scenario, schedule, master_seed=(BASE_SEED, 9), variant="exact",
    )
    worst = 0.0
    # Each phase scores the arms the previous one kept: all arms in phase 1.
    scored = np.ones((scenario.M, scenario.K), dtype=bool)
    for rec in trace.phases:
        deviation = np.abs(rec.scores[:, 0] - trace.true_rewards[np.nonzero(scored)])
        worst = max(worst, float(deviation.max()))
        scored = rec.active
    report(9, worst <= 1e-9, f"max |r_hat - r| = {worst:.2e} <= 1e-9 "
                             f"across {schedule.H} phases")
    assert worst <= 1e-9


def c10_csv(workers=1):
    """The CSV bytes of c10's small sweep, run with ``workers`` processes."""
    result = run_sweep(
        SyntheticSpec(K=3, d=2, M=4, sigma=0.2, gap_range=(0.5, 0.7),
                      norm_range=(0.8, 1.0), best_reward_range=(0.78, 0.85),
                      perturbation=0.05),
        variants=("exact", "hidden"),
        agent_counts=(2, 4),
        trials=3,
        horizon=2**9,
        base_seed=BASE_SEED,
        workers=workers,
    )
    return "\n".join(sweep_csv_lines(result)).encode()


def test_c10_sweep_determinism(tmp_path):
    first, second = c10_csv(), c10_csv()
    ok = first == second
    report(10, ok, f"two sweeps produced byte-identical CSV ({len(first)} bytes)")
    assert first == second


def test_c10_worker_count_keeps_the_csv():
    """Runs come back in task order, so two worker processes write the
    bytes that one does."""
    assert c10_csv(workers=2) == c10_csv(workers=1)

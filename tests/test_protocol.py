import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import fedpecd.server as server_module
from fedpecd.agent import Agent
from fedpecd.environment import Environment
from fedpecd.errors import ConfigurationError, ProtocolError
from fedpecd.harness import SyntheticSpec, desk_spec, generate_synthetic
from fedpecd.messages import (
    ActiveSetUpload,
    AllocationMessage,
    GlobalBroadcast,
    LocalEstimateUpload,
)
from fedpecd.model import build_psi_set
from fedpecd.protocol import build_schedule, compute_alpha, meter_message, run_protocol
from fedpecd.server import DESIGN_TOL, CentralServer

from conftest import identical_agents_scenario


class TestBuildSchedule:
    def test_doubling_schedule_matches_benchmark_settings(self):
        sched = build_schedule(1, 2, 10, 2**17)
        assert list(sched.f) == [2**p for p in range(1, sched.H + 1)]
        covered = sum(f + 10 for f in sched.f)
        assert covered >= 2**17
        assert covered - (sched.f[-1] + 10) < 2**17  # H is minimal

    def test_single_phase_exact_fit(self):
        sched = build_schedule(1, 2, 10, 12)
        assert sched.H == 1 and sched.f == (2,)

    def test_partial_sum_example(self):
        # 2*3+5=11, +2*9+5 -> 34, +2*27+5 -> 93, +2*81+5 -> 260 >= 100
        sched = build_schedule(2, 3, 5, 100)
        assert sched.H == 4
        assert list(sched.f) == [6, 18, 54, 162]

    def test_too_small_horizon(self):
        with pytest.raises(ConfigurationError):
            build_schedule(1, 2, 10, 11)

    def test_geometric_sum_identity(self):
        sched = build_schedule(3, 2, 4, 5000)
        c, n, h = sched.c, sched.n, sched.H
        assert sum(sched.f) == c * n * (n**h - 1) // (n - 1)
        assert sum(sched.f) + sched.K * h >= sched.horizon


class TestComputeAlpha:
    def test_first_branch_small_case(self):
        alpha, k = compute_alpha(1, 1, 1, 1, 0.5)
        assert alpha == pytest.approx(math.sqrt(2 * math.log(2 / 0.5)), abs=1e-9)
        assert k == pytest.approx(3.6926345288896958, abs=1e-6)

    def test_frozen_oracle_value(self):
        # high-precision reference computed with 40-digit arithmetic
        alpha, k = compute_alpha(100, 10, 17, 3, 0.1)
        assert alpha == pytest.approx(4.912380491224657, abs=1e-7)
        assert k == pytest.approx(8.043827363521535, abs=1e-6)
        # the second branch equals sqrt(d k) at the smallest feasible k
        assert alpha == pytest.approx(math.sqrt(3 * k), abs=1e-6)

    def test_k_is_smallest_feasible(self):
        m, k_arms, h, d, delta = 5, 4, 6, 3, 0.1
        _, k = compute_alpha(m, k_arms, h, d, delta)
        target = 2 * math.log(k_arms * h / delta)
        slack = k * d - target - d * math.log(k * math.e)
        assert -1e-6 <= slack <= 1e-6
        assert k > 1.0

    def test_monotone_in_delta(self):
        alphas = [compute_alpha(10, 5, 8, 3, delta)[0] for delta in (0.01, 0.1, 0.5)]
        assert alphas[0] >= alphas[1] >= alphas[2]
        assert all(np.isfinite(a) for a in alphas)

    def test_delta_near_one_limit(self):
        m, k_arms, h = 2, 3, 4
        alpha, _ = compute_alpha(m, k_arms, h, 2, 1 - 1e-12)
        assert alpha == pytest.approx(math.sqrt(2 * math.log(2 * m * k_arms * h)), abs=1e-6)

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            compute_alpha(1, 1, 1, 1, 1.5)


class TestMeterMessage:
    def test_estimate_upload(self):
        msg = LocalEstimateUpload(
            phase=np.ones(2, dtype=int), arms=np.array([[True] * 3, [False] * 3]),
            theta_hat=np.zeros((2, 3, 3)), pulls=np.array([[1] * 3, [0] * 3]),
        )
        assert meter_message(msg) == 15  # 3 * (1 + 3 + 1)

    def test_active_set_upload(self):
        arms = np.zeros((1, 5), dtype=bool)
        arms[0, 4] = True
        assert meter_message(ActiveSetUpload(phase=np.ones(1, dtype=int), arms=arms)) == 1

    def test_broadcast(self):
        msg = GlobalBroadcast(phase=1, theta=np.zeros((3, 2)), v=np.zeros((3, 2, 2)),
                              has_model=np.array([True, False, True]))
        assert meter_message(msg) == 14  # 2 models * (1 + 2 + 4)

    def test_allocation(self):
        msg = AllocationMessage(phase=np.ones(1, dtype=int), arms=np.array([[True, False, True]]),
                                counts=np.array([[3, 0, 1]]))
        assert meter_message(msg) == 4

    def test_unknown_type(self):
        with pytest.raises(ProtocolError):
            meter_message(object())


def small_spec(**overrides):
    base = dict(K=4, d=2, M=4, sigma=0.2, gap_range=(0.5, 0.7),
                norm_range=(0.8, 1.0), best_reward_range=(0.78, 0.85),
                perturbation=0.05)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestRunProtocol:
    def test_single_arm_has_zero_regret(self):
        from fedpecd.model import Bounds, ContextDistribution, Scenario

        sc = Scenario(
            d=2, K=1, M=3, bounds=Bounds(ell=0.9, big_l=1.0, s=1.0),
            rewards=[[1.0, 0.0]],
            features=[[[0.95, 0.0]]],
            mus=[ContextDistribution.point_mass(0)] * 3,
            sigma=0.1,
        )
        sched = build_schedule(1, 2, 1, 256)
        trace = run_protocol(sc, sched, master_seed=1, variant="hidden")
        assert trace.final_avg_regret == 0.0
        for rec in trace.phases:
            assert rec.active.tolist() == [[True]] * 3

    def test_noiseless_separated_gaps_eliminate_at_first_phase(self):
        sc = identical_agents_scenario(m=5, sigma=0.0)
        sched = build_schedule(1, 2, sc.K, 2**10)
        trace = run_protocol(sc, sched, master_seed=0, variant="exact")
        assert [np.flatnonzero(row).tolist() for row in trace.phases[0].active] == [[0]] * 5
        # afterwards the only pulls are the optimal arm: regret freezes
        final = trace.phases[-1].regret.tolist()
        first = trace.phases[0].regret.tolist()
        assert final == first

    def test_optimal_arm_elimination_reads_the_masks(self):
        sc = identical_agents_scenario(m=5, sigma=0.0)
        sched = build_schedule(1, 2, sc.K, 2**10)
        trace = run_protocol(sc, sched, master_seed=0, variant="exact")
        assert not trace.any_optimal_arm_eliminated()
        # Arm 1 is eliminated in phase 1 for every agent.
        assert replace(trace, optimal_arms=np.ones(sc.M, dtype=int)).any_optimal_arm_eliminated()

    def test_same_seed_bit_identical_trace(self):
        sc = generate_synthetic(small_spec(), seed=5)
        sched = build_schedule(1, 2, sc.K, 2**9)
        t1 = run_protocol(sc, sched, master_seed=9, variant="hidden")
        t2 = run_protocol(sc, sched, master_seed=9, variant="hidden")
        assert list(t1.records()) == list(t2.records())

    def test_total_rounds_cover_horizon(self):
        sc = generate_synthetic(small_spec(), seed=5)
        sched = build_schedule(1, 2, sc.K, 2**9)
        trace = run_protocol(sc, sched, master_seed=9)
        assert trace.total_rounds >= sched.horizon
        assert trace.total_rounds == sched.total_rounds()
        assert any(r == sched.horizon for r, _ in trace.checkpoints)

    def test_monotone_elimination_and_best_arm_survival(self):
        sc = generate_synthetic(small_spec(), seed=6)
        sched = build_schedule(1, 2, sc.K, 2**10)
        trace = run_protocol(sc, sched, master_seed=2, variant="hidden")
        agents = [rec for rec in trace.records() if rec["type"] == "agent"]
        for rec in agents:
            assert set(rec["active_after"]) <= set(rec["active_before"])
        # the empirical best of each round survives by construction:
        # active sets never become empty
        for rec in agents:
            assert len(rec["active_after"]) >= 1

    def test_checkpoint_curve_nondecreasing(self):
        sc = generate_synthetic(small_spec(), seed=7)
        sched = build_schedule(1, 2, sc.K, 2**9)
        trace = run_protocol(sc, sched, master_seed=3)
        values = [v for _, v in trace.checkpoints]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_meter_matches_a_hand_count_from_the_masks(self):
        """Per phase: one scalar per active arm uploaded, two per allocated
        arm, 2 + d per reported estimate, and each model (one per arm of
        the union) at 1 + d + d^2 to each of the M agents."""
        sc = generate_synthetic(small_spec(), seed=6)
        sched = build_schedule(1, 2, sc.K, 2**10)
        trace = run_protocol(sc, sched, master_seed=2, variant="hidden")
        m, k, d = sc.M, sc.K, sc.d
        model = 1 + d + d * d
        buckets = trace.meter.per_phase
        assert buckets[0] == {"phase": 0, "up": m * k * (2 + d), "down": k * model * m}
        assert len(buckets) == 1 + len(trace.phases)
        for rec in trace.phases:
            sets = int(rec.active.sum())
            up = sets + int((rec.issued > 0).sum()) * (2 + d)
            down = 2 * sets + int(rec.active.any(axis=0).sum()) * model * m
            assert buckets[rec.phase] == {"phase": rec.phase, "up": up, "down": down}

    def test_schedule_scenario_mismatch(self):
        sc = generate_synthetic(small_spec(), seed=5)
        sched = build_schedule(1, 2, sc.K + 1, 2**9)
        with pytest.raises(ConfigurationError):
            run_protocol(sc, sched)

    def test_comm_cost_grows_with_phase_count(self):
        sc = identical_agents_scenario(m=4)
        costs, hs = [], []
        for t_exp in (8, 10, 12):
            sched = build_schedule(1, 2, sc.K, 2**t_exp)
            trace = run_protocol(sc, sched, master_seed=0, variant="exact")
            costs.append(trace.meter.total)
            hs.append(sched.H)
        per_phase = [
            (costs[i + 1] - costs[i]) / (hs[i + 1] - hs[i]) for i in range(2)
        ]
        # steady-state per-phase cost is constant once elimination settles
        assert per_phase[0] == pytest.approx(per_phase[1], rel=0.01)

    def test_per_phase_regret_bound_under_good_event(self):
        """Phase regret stays below the analytical elimination-based bound
        (4 sqrt(10) alpha L / ell) sqrt(dKM) (f_p + K) / sqrt(f_{p-1})
        whenever no confidence interval failed during the run."""
        sc = generate_synthetic(small_spec(sigma=0.5), seed=8)
        sched = build_schedule(1, 2, sc.K, 2**10)
        checked = 0
        for seed in range(5):
            trace = run_protocol(sc, sched, master_seed=seed, variant="hidden")
            if trace.any_confidence_violation():
                continue
            init_total = trace.regret_at(sc.K) * sc.M
            prev = init_total
            for rec in trace.phases:
                phase_regret = sum(rec.regret) - prev
                prev = sum(rec.regret)
                f_prev = 1 if rec.phase == 1 else sched.f_p(rec.phase - 1)
                bound = (
                    4 * math.sqrt(10) * trace.alpha * sc.bounds.big_l / sc.bounds.ell
                    * math.sqrt(sc.d * sc.K * sc.M)
                    * (rec.f_p + sc.K) / math.sqrt(f_prev)
                )
                assert phase_regret <= bound + 1e-9
                checked += 1
        assert checked > 0

    @pytest.mark.xfail(
        strict=False,
        reason="the width floor ||psi||_V >= sqrt(L) stops holding once "
        "exploration mass accumulates in the per-phase Gram matrices",
    )
    def test_confidence_width_floor(self):
        sc = generate_synthetic(small_spec(), seed=9)
        sched = build_schedule(1, 2, sc.K, 2**10)
        trace = run_protocol(sc, sched, master_seed=1, variant="hidden")
        ell, big_l = sc.bounds.ell, sc.bounds.big_l
        ratios = []
        for rec in trace.phases:
            for stats in rec.stats:
                for _, _, u in stats:
                    psi_v = u * ell / trace.alpha
                    ratios.append(psi_v / math.sqrt(big_l))
        assert min(ratios) >= 1.0


def planned_first_phase():
    """Five desk agents, their server and environment with phase 1 planned.
    alpha = 0 keeps each agent's empirical best alone, so every agent has
    inactive arms."""
    sc = generate_synthetic(desk_spec(m=5), seed=3, variant="hidden")
    env = Environment(sc, master_seed=0)
    agents = Agent(build_psi_set(sc.features, sc.mus, sc.bounds), 0.0, sc.bounds.ell)
    server = CentralServer(sc.M, sc.K, sc.d)
    sets, _ = agents.begin_phase(server.ingest_init(agents.initialize(env.pull)))
    return env, agents, server, server.plan_phase(sets, 16)


def with_bad_row(r, j, defect, active):
    """A copy of the round ``r`` with one defect in agent j's row; returns it
    and the arm the error names."""
    r = replace(r, **{f: v.copy() for f, v in vars(r).items()})
    count = "counts" if hasattr(r, "counts") else "pulls"
    a = int(np.flatnonzero(active[j])[0])
    if defect == "stale phase":
        r.phase[j] = 0
        return r, f"[{a}]"
    if defect == "inactive arm":
        # A zero count: only the roster check can refuse it.
        a = int(np.flatnonzero(~active[j])[0])
        r.arms[j, a] = True
    elif defect == "negative count":
        getattr(r, count)[j, a] = -1
    elif defect == "float count":
        values = getattr(r, count).astype(float)
        values[j, a] = 2.5
        setattr(r, count, values)
    else:  # "non-finite estimate"
        r.theta_hat[j, a, 0] = np.nan
    return r, str(a)


class TestRoundAtomicity:
    """A round with one bad row is refused whole: the error names that row's
    agent, and nothing was pulled and no state changed."""

    @pytest.mark.parametrize("j", [0, 2, 4])
    @pytest.mark.parametrize(
        "defect", ["inactive arm", "negative count", "float count", "stale phase"]
    )
    def test_bad_allocation_row_pulls_nothing(self, defect, j):
        env, agents, _, alloc = planned_first_phase()
        active, regret = agents.active, env.cumulative_regret()[0]
        bad, arm = with_bad_row(alloc, j, defect, active)
        pulls = []
        with pytest.raises(ProtocolError, match=rf"^agent {j}, arm {re.escape(arm)}, phase "):
            agents.explore_phase(bad, lambda *args: pulls.append(args))
        assert pulls == [] and agents.phase == 1
        assert agents.active is active and active.sum() == len(active)
        assert (env.cumulative_regret()[0] == regret).all()

    @pytest.mark.parametrize("j", [0, 2, 4])
    @pytest.mark.parametrize("defect", [
        "inactive arm", "negative count", "float count", "stale phase", "non-finite estimate",
    ])
    def test_bad_estimate_row_changes_nothing(self, defect, j):
        env, agents, server, alloc = planned_first_phase()
        upload, _ = agents.explore_phase(alloc, env.pull_many)
        state = (server.model, server.active, server.issued, server.design)
        bad, arm = with_bad_row(upload, j, defect, server.active)
        with pytest.raises(ProtocolError, match=rf"^agent {j}, arm {re.escape(arm)}, phase "):
            server.ingest_phase(bad)
        now = (server.model, server.active, server.issued, server.design)
        assert all(x is y for x, y in zip(now, state))


class TestOutputTripwire:
    # sha256 of the JSONL trace written by the run below.
    TINY_RUN_TRACE_SHA256 = (
        "df6995146731a7dc0b9dd65ff2226752d47542f5f9b620a9537ad38276ad88f9"
    )

    def test_tiny_run_trace_is_pinned(self, tmp_path):
        """The JSONL trace of a tiny desk run (6 agents, generator seed 3,
        T = 2^9, run seed 0) is byte-identical to the pinned digest.

        Its final regret can stay put while the noise stream or a tie-break
        moves, so only the trace shows such a change.  A change that moves
        outputs on purpose updates the pin here and records in CHANGES.md
        what moved and why; any other change must leave the digest alone.
        """
        sc = generate_synthetic(desk_spec(m=6), seed=3, variant="hidden")
        sched = build_schedule(1, 2, sc.K, 2**9)
        path = tmp_path / "trace.jsonl"
        run_protocol(sc, sched, master_seed=0, trace_path=path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.TINY_RUN_TRACE_SHA256


def tiny_run_records(tmp_path):
    """JSONL records of the tiny desk run above, read back from disk."""
    sc = generate_synthetic(desk_spec(m=6), seed=3, variant="hidden")
    sched = build_schedule(1, 2, sc.K, 2**9)
    path = tmp_path / "trace.jsonl"
    trace = run_protocol(sc, sched, master_seed=0, trace_path=path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 2 + sched.H * (1 + sc.M)
    return trace, records


class TestDesignDiagnostics:
    """Trace v3: each phase's design solve is reported, not used silently."""

    def test_plain_run_reports_converged_solves(self, tmp_path):
        trace, records = tiny_run_records(tmp_path)
        assert all(rec["v"] == 3 for rec in records)
        assert records[0]["design_tol"] == DESIGN_TOL
        servers = [rec for rec in records if rec["type"] == "server"]
        assert len(servers) == len(trace.phases)
        for rec in servers:
            design = rec["design"]
            assert sorted(design) == ["certificate", "converged", "gap", "objective", "sweeps"]
            assert design["converged"] is True
            assert design["sweeps"] >= 1
            assert design["gap"] >= 0.0
            assert math.isfinite(design["objective"])
        assert records[-1]["design_unconverged"] == 0

    def test_converged_phases_meet_the_certificate(self, tmp_path):
        _, records = tiny_run_records(tmp_path)
        tol = records[0]["design_tol"]
        certified = [
            rec["design"] for rec in records if rec["type"] == "server" and rec["design"]["converged"]
        ]
        assert certified
        for design in certified:
            assert 1.0 - 1e-9 <= design["certificate"] <= 1.0 + tol

    def test_unconverged_solve_is_traced_and_counted(self, tmp_path, monkeypatch):
        solve = server_module.solve_design

        def one_sweep(prob, **kwargs):
            return solve(prob, **{**kwargs, "max_iters": 1})

        monkeypatch.setattr(server_module, "solve_design", one_sweep)
        trace, records = tiny_run_records(tmp_path)
        designs = [rec["design"] for rec in records if rec["type"] == "server"]
        assert all(d["sweeps"] == 1 for d in designs)
        unconverged = sum(not d["converged"] for d in designs)
        assert unconverged > 0
        assert records[-1]["design_unconverged"] == unconverged
        # The server proceeds on the feasible allocation: the run completes.
        assert trace.total_rounds >= 2**9

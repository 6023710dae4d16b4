"""Error-path and small-contract checks that cut across modules."""

from dataclasses import replace

import numpy as np
import pytest

from fedpecd.agent import Agent, score_arms
from fedpecd.design import DesignAllocation
from fedpecd.environment import Environment
from fedpecd.errors import (
    ConfigurationError,
    InfeasibleSpecError,
    NotPSDError,
    ProtocolError,
    ValidationError,
)
from fedpecd.harness import SyntheticSpec, generate_synthetic
from fedpecd.model import Bounds, Scenario
from fedpecd.protocol import build_schedule, run_protocol
from fedpecd.server import CentralServer, allocate

from conftest import active_sets, estimates, identical_agents_scenario
from test_agent import allocation, make_agent
from test_environment import one_agent_scenario
from test_harness import tiny_sweep


def one_context_document(support):
    """A one-arm, one-context scenario document whose only agent has ``support``."""
    doc = Scenario(bounds=Bounds(ell=0.5, big_l=1.0, s=1.0), rewards=[[1.0, 0.0]],
                   features=[[[1.0, 0.0]]], mu=[[1.0]]).to_json_dict()
    doc["agents"] = [{"mu": support}]
    return doc


def test_expected_feature_missing_pair():
    """A support id past the feature array's contexts has no phi to average,
    in a document or as a column past the array's."""
    with pytest.raises(ValidationError, match="agent 0: context id 7 outside 0..0"):
        Scenario.from_json_dict(one_context_document([[0, 0.5], [7, 0.5]]))
    with pytest.raises(ValidationError, match=r"mu has shape \(1, 2\), expected \(M, 1\)"):
        Scenario(bounds=Bounds(ell=0.5, big_l=1.0, s=1.0), rewards=[[1.0, 0.0]],
                 features=[[[1.0, 0.0]]], mu=[[0.5, 0.5]])


def test_duplicate_context_id_rejected():
    with pytest.raises(ValidationError, match="agent 0: duplicate context id"):
        Scenario.from_json_dict(one_context_document([[0, 0.5], [0, 0.5]]))


def test_init_estimate_rejects_zero_psi():
    with pytest.raises(ProtocolError, match="agent 0, arm 1: psi has zero norm"):
        Agent(np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]), alpha=1.0, ell=0.5)


def test_arm_stats_propagate_not_psd():
    with pytest.raises(NotPSDError):
        score_arms(np.array([[0.0, 1.0]]), np.zeros((1, 2)),
                   np.array([np.diag([1.0, -1.0])]), alpha=1.0, ell=0.5)


def test_explore_negative_count_rejected():
    env = Environment(one_agent_scenario(), master_seed=0)
    agent = make_agent()
    agent.phase = 1
    with pytest.raises(ProtocolError):
        agent.explore_phase(allocation({0: -1}), env.pull_many)


def test_allocate_requires_positive_budget():
    with pytest.raises(ProtocolError):
        allocate(DesignAllocation(pi=np.array([[1.0]])), 0)


def test_plan_phase_requires_all_agents():
    """Before initialization any round is refused; after it, a round
    without agent 1's row is mis-shaped."""
    server = CentralServer(m=2, k=2, d=2)
    with pytest.raises(ProtocolError):
        server.plan_phase(active_sets([[0]], 2), f_p=2)
    server.ingest_init(estimates(0, [[(0, [1.0, 0.0], 1), (1, [0.0, 1.0], 1)]] * 2, 2))
    with pytest.raises(ProtocolError, match=r"^phase 1: ActiveSetUpload phase shaped \(1,\)"):
        server.plan_phase(active_sets([[0]], 2), f_p=2)


def test_phase_uploads_before_planning_rejected():
    server = CentralServer(m=1, k=1, d=2)
    with pytest.raises(ProtocolError):
        server.ingest_phase(estimates(1, [[]], 1))


def test_invalid_variant_rejected():
    sc = identical_agents_scenario(m=2)
    sched = build_schedule(1, 2, sc.K, 64)
    with pytest.raises(ConfigurationError):
        run_protocol(sc, sched, variant="oracle")


def test_noise_sigma_override():
    sc = identical_agents_scenario(m=2, sigma=0.5)
    sched = build_schedule(1, 2, sc.K, 64)
    trace = run_protocol(replace(sc, sigma=0.0), sched, master_seed=0)
    assert trace.sigma == 0.0


def test_regret_at_unknown_round():
    sc = identical_agents_scenario(m=2)
    sched = build_schedule(1, 2, sc.K, 64)
    trace = run_protocol(sc, sched, master_seed=0)
    with pytest.raises(KeyError):
        trace.regret_at(63)


def test_restrict_out_of_range():
    sc = identical_agents_scenario(m=3)
    with pytest.raises(ValidationError):
        sc.restrict(4)


def test_unreachable_reward_is_infeasible():
    spec = SyntheticSpec(K=2, d=2, M=1, norm_range=(0.3, 0.5),
                         best_reward_range=(0.6, 0.7), gap_range=(0.05, 0.1),
                         perturbation=0.05)
    with pytest.raises(InfeasibleSpecError):
        generate_synthetic(spec, seed=0)


def test_comm_cost_per_log_horizon_bounded():
    """Total metered scalars per phase stay within a constant band across
    geometrically spaced horizons."""
    sc = identical_agents_scenario(m=4)
    ratios = []
    for t_exp in range(8, 15):
        sched = build_schedule(1, 2, sc.K, 2**t_exp)
        trace = run_protocol(sc, sched, master_seed=0, variant="exact")
        ratios.append(trace.meter.total / sched.H)
    assert max(ratios) / min(ratios) <= 3.0


def test_sweep_requires_trials():
    with pytest.raises(ConfigurationError):
        tiny_sweep(trials=0)

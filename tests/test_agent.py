import numpy as np
import pytest

from fedpecd.agent import Agent, eliminate, init_local_estimate, score_arms
from fedpecd.environment import Environment
from fedpecd.errors import DimensionError, NonFiniteError, ProtocolError
from fedpecd.linalg import pinv
from fedpecd.messages import (
    ActiveSetUpload,
    AllocationMessage,
    GlobalBroadcast,
    LocalEstimate,
    LocalEstimateUpload,
)

from test_environment import one_agent_scenario


class TestInitLocalEstimate:
    def test_zero_reward_gives_zero_vector(self):
        est = init_local_estimate(0, 0.0, np.array([0.6, 0.8]), 1)
        np.testing.assert_allclose(est.theta_hat, [0.0, 0.0])
        assert est.pulls == 1

    def test_unit_norm_psi(self):
        est = init_local_estimate(2, 0.7, np.array([1.0, 0.0, 0.0]), 1)
        np.testing.assert_allclose(est.theta_hat, [0.7, 0.0, 0.0])
        assert est.arm == 2

    def test_unit_norm_square(self):
        # ||psi||^2 = 1 here, so theta_hat equals psi itself
        est = init_local_estimate(0, 1.0, np.array([0.6, 0.8]), 1)
        np.testing.assert_allclose(est.theta_hat, [0.6, 0.8])


def score_one(psi, theta, v, alpha=2.0, ell=0.5):
    """score_arms on a stack of one arm, as Python floats."""
    r_hat, u = score_arms(
        np.array([psi], dtype=float), np.array([theta], dtype=float),
        np.array([v], dtype=float), alpha, ell,
    )
    return float(r_hat[0]), float(u[0])


class TestComputeArmStats:
    """``score_arms``: r_hat and u for a stack of arms at once."""

    def test_zero_matrix_means_zero_width(self):
        r_hat, u = score_one([0.5, 0.5], [1.0, 0.0], np.zeros((2, 2)))
        assert u == 0.0
        assert r_hat == pytest.approx(0.5)

    def test_direct_formula(self):
        r_hat, u = score_one([1.0, 0.0, 0.0], [0.5, 9.0, 9.0], np.eye(3))
        assert r_hat == pytest.approx(0.5)
        assert u == pytest.approx(4.0)

    def test_zero_alpha(self):
        psi = [0.3, 0.4]
        assert score_one(psi, psi, np.eye(2), alpha=0.0)[1] == 0.0

    def test_stack_shapes_must_agree(self):
        with pytest.raises(DimensionError):
            score_arms(np.ones((2, 2)), np.ones((2, 2)), np.ones((1, 2, 2)), 1.0, 1.0)
        with pytest.raises(DimensionError):
            score_arms(np.ones((1, 2)), np.ones((1, 3)), np.ones((1, 2, 2)), 1.0, 1.0)
        with pytest.raises(DimensionError):
            score_arms(np.ones(2), np.ones(2), np.eye(2), 1.0, 1.0)

    def test_non_finite_weight_rejected(self):
        v = np.eye(2)
        v[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            score_one([1.0, 0.0], [0.0, 0.0], v)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_per_arm_products_exactly(self, rng, d):
        """Each row equals the one-arm products bit for bit, so batching
        leaves traces and elimination unchanged."""
        n, alpha, ell = 200, 2.7, 0.3
        psi = rng.normal(size=(n, d))
        theta = rng.normal(size=(n, d))
        v = np.array([pinv(a @ a.T) for a in rng.normal(size=(n, d, d + 1))])
        r_hat, u = score_arms(psi, theta, v, alpha, ell)
        for p, th, w, r, width in zip(psi, theta, v, r_hat, u):
            q = p @ (0.5 * (w + w.T)) @ p
            assert r == float(p @ th)
            assert width == alpha * float(np.sqrt(max(q, 0.0))) / ell


class TestEliminate:
    def test_zero_width_keeps_only_argmax(self):
        assert eliminate([0, 1, 2], [0.1, 0.9, 0.4], [0.0] * 3) == [1]

    def test_identical_stats_keep_everything(self):
        assert eliminate(list(range(4)), [0.5] * 4, [0.1] * 4) == [0, 1, 2, 3]

    def test_hand_checked_case(self):
        # floor = 0.9 - 0.05 = 0.85; arm1: 0.9 >= 0.85 stays; arm2: 0.35 < 0.85
        assert eliminate([0, 1, 2], [0.9, 0.7, 0.3], [0.05, 0.2, 0.05]) == [0, 1]

    def test_arm_ids_follow_positions(self):
        assert eliminate([3, 7, 9], [0.9, 0.7, 0.3], [0.05, 0.2, 0.05]) == [3, 7]

    def test_best_arm_always_survives(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 6))
            r_hat = rng.normal(size=k)
            u = rng.uniform(0, 0.5, size=k)
            assert int(np.argmax(r_hat)) in eliminate(list(range(k)), r_hat, u)

    def test_tie_break_lowest_index(self):
        # both share the max r_hat; both meet the floor exactly
        assert eliminate([0, 1], [0.5, 0.5], [0.0, 0.0]) == [0, 1]
        # the first maximum sets the floor 0.5 - 0.0, which arm 2 misses;
        # the second's floor 0.5 - 0.1 would keep it
        assert eliminate([0, 1, 2], [0.5, 0.5, 0.45], [0.0, 0.1, 0.0]) == [0, 1]

    def test_empty_active_set_rejected(self):
        with pytest.raises(ProtocolError):
            eliminate([], [], [])

    def test_stats_must_cover_active_set(self):
        with pytest.raises(ProtocolError):
            eliminate([0, 1], [1.0], [0.1])
        with pytest.raises(ProtocolError):
            eliminate([0], [1.0, 0.5], [0.1, 0.1])
        with pytest.raises(ProtocolError):
            eliminate([0, 1], [1.0, 0.5], [0.1])


def make_agent(env, alpha=1.0):
    scenario = env.scenario
    psi = {
        a: scenario.features.vector(a, env.realized_context(0))
        for a in range(scenario.K)
    }
    return Agent(0, psi, alpha=alpha, ell=scenario.bounds.ell)


class TestExplorePhase:
    def test_single_pull_noiseless(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.phase = 1
        msg = AllocationMessage(agent=0, phase=1, counts={0: 1, 1: 0})
        upload, used = agent.explore_phase(msg, lambda a, c: env.pull_many(0, a, c))
        assert used == 1
        assert [e.arm for e in upload.estimates] == [0]
        psi = agent.psi[0]
        expected = (0.5 / float(psi @ psi)) * psi
        np.testing.assert_allclose(upload.estimates[0].theta_hat, expected)

    def test_zero_count_emits_nothing(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.phase = 1
        msg = AllocationMessage(agent=0, phase=1, counts={0: 0, 1: 0})
        upload, used = agent.explore_phase(msg, lambda a, c: env.pull_many(0, a, c))
        assert upload.estimates == [] and used == 0

    def test_average_concentrates(self):
        env = Environment(one_agent_scenario(sigma=1e-3), master_seed=3)
        agent = make_agent(env)
        agent.phase = 1
        n = 10**4
        msg = AllocationMessage(agent=0, phase=1, counts={0: n})
        upload, _ = agent.explore_phase(msg, lambda a, c: env.pull_many(0, a, c))
        psi = agent.psi[0]
        # recover the average reward the estimate was built from
        y_bar = float(upload.estimates[0].theta_hat @ psi)
        assert abs(y_bar - 0.5) <= 4e-3 / np.sqrt(n)

    def test_collinearity_of_estimates(self, rng):
        env = Environment(one_agent_scenario(sigma=0.5), master_seed=1)
        agent = make_agent(env)
        agent.phase = 1
        msg = AllocationMessage(agent=0, phase=1, counts={0: 3, 1: 2})
        upload, _ = agent.explore_phase(msg, lambda a, c: env.pull_many(0, a, c))
        for est in upload.estimates:
            psi = agent.psi[est.arm]
            cross = np.outer(est.theta_hat, psi) - np.outer(psi, est.theta_hat)
            assert np.max(np.abs(cross)) <= 1e-10

    @pytest.mark.parametrize("agent_id,phase", [(1, 1), (0, 0), (0, 2)])
    def test_misaddressed_allocation_rejected(self, agent_id, phase):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.phase = 1
        msg = AllocationMessage(agent=agent_id, phase=phase, counts={0: 1})
        with pytest.raises(ProtocolError, match="agent 0, phase 1: allocation addressed to"):
            agent.explore_phase(msg, lambda a, c: env.pull_many(0, a, c))


class TestExploitRemainder:
    def test_zero_rounds_no_pulls(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.a_hat = 0
        agent.exploit_remainder(0, lambda a, c: env.pull_many(0, a, c))
        with pytest.raises(ValueError):
            env.cumulative_regret(upto=1)

    def test_optimal_arm_accrues_nothing(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.a_hat = env.optimal_arm(0)
        agent.exploit_remainder(10, lambda a, c: env.pull_many(0, a, c))
        assert env.cumulative_regret()[1] == 0.0

    def test_gap_arm_accrues_exactly(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.a_hat = 1
        gap = env.expected_reward(0, 0) - env.expected_reward(0, 1)
        agent.exploit_remainder(5, lambda a, c: env.pull_many(0, a, c))
        assert env.cumulative_regret()[1] == pytest.approx(5 * gap)


class TestFederationBoundary:
    def test_outbound_message_fields(self):
        """Agents upload only active sets and per-arm estimates; psi, mu,
        contexts, and raw rewards never appear in message types."""
        assert set(LocalEstimateUpload.__dataclass_fields__) == {
            "agent", "phase", "estimates",
        }
        assert set(LocalEstimate.__dataclass_fields__) == {"arm", "theta_hat", "pulls"}
        assert set(ActiveSetUpload.__dataclass_fields__) == {"agent", "phase", "arms"}


class TestBeginPhase:
    def test_elimination_uses_broadcast_model(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env, alpha=0.0)
        theta = np.array([1.0, 0.0, 0.0])
        models = {a: (theta, np.zeros((3, 3))) for a in range(2)}
        upload, stats = agent.begin_phase(GlobalBroadcast(phase=1, models=models))
        # zero-width intervals: only the better arm survives
        assert upload.arms == [0]
        assert agent.a_hat == 0
        assert agent.active == [0]
        assert [a for a, _, _ in stats] == [0, 1]

    def test_stats_are_per_arm_scores(self, rng):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env, alpha=1.5)
        models = {}
        for a in range(2):
            g = rng.normal(size=(3, 4))
            models[a] = (rng.normal(size=3), pinv(g @ g.T))
        _, stats = agent.begin_phase(GlobalBroadcast(phase=1, models=models))
        for a, r_hat, u in stats:
            theta, v = models[a]
            assert (r_hat, u) == score_one(agent.psi[a], theta, v, 1.5, agent.ell)
            assert type(r_hat) is float and type(u) is float

    def test_a_hat_is_first_maximum(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env, alpha=0.0)
        models = {a: (np.zeros(3), np.zeros((3, 3))) for a in range(2)}
        upload, _ = agent.begin_phase(GlobalBroadcast(phase=1, models=models))
        # r_hat ties at 0 with zero widths: both survive, the first is best
        assert agent.a_hat == 0
        assert upload.arms == [0, 1]

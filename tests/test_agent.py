from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpecd.agent import Agent, eliminate, score_arms
from fedpecd.environment import Environment
from fedpecd.errors import DimensionError, NonFiniteError, ProtocolError
from fedpecd.linalg import pinv, sq_norms
from fedpecd.messages import ActiveSetUpload, AllocationMessage, LocalEstimateUpload

from conftest import broadcast
from test_environment import one_agent_scenario


class TestInitLocalEstimate:
    """The rank-one estimates y psi / ||psi||^2 an agent uploads, one row per arm."""

    def test_zero_reward_gives_zero_vector(self):
        agent = Agent(np.array([[[0.6, 0.8]]]), alpha=1.0, ell=0.5)
        upload = agent.initialize(lambda i, a: 0.0)
        np.testing.assert_allclose(upload.theta_hat, [[[0.0, 0.0]]])
        np.testing.assert_array_equal(upload.pulls, [[1]])

    def test_unit_norm_psi(self):
        psi = np.array([[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]])
        agent = Agent(psi, alpha=1.0, ell=0.5)
        agent.phase = 1
        upload, _ = agent.explore_phase(allocation({2: 4}, k=3), lambda i, a, c: 0.7)
        np.testing.assert_allclose(upload.theta_hat[0, 2], [0.7, 0.0, 0.0])
        np.testing.assert_array_equal(upload.arms, [[False, False, True]])
        np.testing.assert_array_equal(upload.pulls, [[0, 0, 4]])

    def test_unit_norm_square(self):
        # ||psi||^2 = 1 here, so theta_hat equals psi itself
        agent = Agent(np.array([[[0.6, 0.8]]]), alpha=1.0, ell=0.5)
        upload = agent.initialize(lambda i, a: 1.0)
        np.testing.assert_allclose(upload.theta_hat, [[[0.6, 0.8]]])


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


def eliminate_row(active, r_hat, u):
    """``eliminate`` on one agent whose ``active`` arm ids are scored by
    ``r_hat`` and ``u`` in order; returns the kept ids."""
    k = max(active, default=-1) + 1
    mask = np.zeros((1, k), dtype=bool)
    mask[0, active] = True
    dense = np.zeros((2, 1, k))
    dense[:, 0, active] = r_hat, u
    kept, best = eliminate(mask, *dense)
    assert best[0] == active[int(np.argmax(r_hat))]
    return np.flatnonzero(kept[0]).tolist()


class TestEliminate:
    def test_zero_width_keeps_only_argmax(self):
        assert eliminate_row([0, 1, 2], [0.1, 0.9, 0.4], [0.0] * 3) == [1]

    def test_identical_stats_keep_everything(self):
        assert eliminate_row(list(range(4)), [0.5] * 4, [0.1] * 4) == [0, 1, 2, 3]

    def test_hand_checked_case(self):
        # floor = 0.9 - 0.05 = 0.85; arm1: 0.9 >= 0.85 stays; arm2: 0.35 < 0.85
        assert eliminate_row([0, 1, 2], [0.9, 0.7, 0.3], [0.05, 0.2, 0.05]) == [0, 1]

    def test_arm_ids_follow_positions(self):
        assert eliminate_row([3, 7, 9], [0.9, 0.7, 0.3], [0.05, 0.2, 0.05]) == [3, 7]

    def test_best_arm_always_survives(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 6))
            r_hat = rng.normal(size=k)
            u = rng.uniform(0, 0.5, size=k)
            assert int(np.argmax(r_hat)) in eliminate_row(list(range(k)), r_hat, u)

    def test_tie_break_lowest_index(self):
        # both share the max r_hat; both meet the floor exactly
        assert eliminate_row([0, 1], [0.5, 0.5], [0.0, 0.0]) == [0, 1]
        # the first maximum sets the floor 0.5 - 0.0, which arm 2 misses;
        # the second's floor 0.5 - 0.1 would keep it
        assert eliminate_row([0, 1, 2], [0.5, 0.5, 0.45], [0.0, 0.1, 0.0]) == [0, 1]

    def test_empty_active_set_rejected(self):
        with pytest.raises(ProtocolError):
            eliminate_row([], [], [])
        with pytest.raises(ProtocolError):
            eliminate(np.array([[True], [False]]), np.zeros((2, 1)), np.zeros((2, 1)))

    def test_stats_must_cover_active_set(self):
        with pytest.raises(ProtocolError):
            eliminate(np.ones((1, 2), dtype=bool), np.array([[1.0]]), np.array([[0.1, 0.1]]))
        with pytest.raises(ProtocolError):
            eliminate(np.ones((1, 1), dtype=bool), np.array([[1.0, 0.5]]), np.array([[0.1, 0.1]]))
        with pytest.raises(ProtocolError):
            eliminate(np.ones((1, 2), dtype=bool), np.array([[1.0, 0.5]]), np.array([[0.1]]))


def make_agent(env, alpha=1.0):
    """The one-agent population of agent 0 of ``env``."""
    scenario = env.scenario
    psi = scenario.features[:, env.contexts[0]]
    return Agent(psi[None], alpha=alpha, ell=scenario.bounds.ell)


def allocation(counts, phase=1, k=2):
    """The one-agent allocation round for an {arm: count} map over k arms."""
    arms = np.zeros((1, k), dtype=bool)
    dense = np.zeros((1, k), dtype=int)
    for a, c in counts.items():
        arms[0, a], dense[0, a] = True, c
    return AllocationMessage(phase=np.array([phase]), arms=arms, counts=dense)


class TestExplorePhase:
    def test_single_pull_noiseless(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.phase = 1
        msg = allocation({0: 1, 1: 0})
        upload, used = agent.explore_phase(msg, env.pull_many)
        assert used.tolist() == [1]
        assert upload.arms.tolist() == [[True, False]]
        psi = agent.psi[0, 0]
        expected = (0.5 / float(psi @ psi)) * psi
        np.testing.assert_allclose(upload.theta_hat[0, 0], expected)

    def test_zero_count_emits_nothing(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.phase = 1
        msg = allocation({0: 0, 1: 0})
        upload, used = agent.explore_phase(msg, env.pull_many)
        assert not upload.arms.any() and not upload.theta_hat.any() and used.tolist() == [0]
        assert upload.theta_hat.shape == (1, 2, 3)

    def test_average_concentrates(self):
        env = Environment(one_agent_scenario(sigma=1e-3), master_seed=3)
        agent = make_agent(env)
        agent.phase = 1
        n = 10**4
        msg = allocation({0: n})
        upload, _ = agent.explore_phase(msg, env.pull_many)
        psi = agent.psi[0, 0]
        # recover the average reward the estimate was built from
        y_bar = float(upload.theta_hat[0, 0] @ psi)
        assert abs(y_bar - 0.5) <= 4e-3 / np.sqrt(n)

    def test_collinearity_of_estimates(self, rng):
        env = Environment(one_agent_scenario(sigma=0.5), master_seed=1)
        agent = make_agent(env)
        agent.phase = 1
        msg = allocation({0: 3, 1: 2})
        upload, _ = agent.explore_phase(msg, env.pull_many)
        for i, arm in np.argwhere(upload.arms):
            theta_hat, psi = upload.theta_hat[i, arm], agent.psi[i, arm]
            cross = np.outer(theta_hat, psi) - np.outer(psi, theta_hat)
            assert np.max(np.abs(cross)) <= 1e-10

    @pytest.mark.parametrize("agent_id,phase", [(1, 1), (0, 0), (0, 2)])
    def test_misaddressed_allocation_rejected(self, agent_id, phase):
        """Row i of a round is agent i's, so an allocation addressed to agent 1
        of a one-agent population is a round shaped for two agents."""
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.phase = 1
        msg = allocation({0: 1}, phase=phase)
        if agent_id:
            msg = AllocationMessage(*(np.repeat(x, 2, axis=0) for x in vars(msg).values()))
            named = r"^phase 1: AllocationMessage phase shaped \(2,\), not \(1,\)$"
        else:
            named = rf"^agent 0, arm \[0\], phase {phase}: expected phase 1$"
        with pytest.raises(ProtocolError, match=named):
            agent.explore_phase(msg, env.pull_many)

    @pytest.mark.parametrize("active,arms,counts,named", [
        ([True, False], [[True, True]], [[3, 2]], "agent 0, arm 1, phase 1: "),  # arm 1 was eliminated
        # repeated arm: a mask cannot repeat one; an int array counting arm 0
        # twice is not a bool mask
        ([True, True], [[2, 0]], [[3, 2]], "agent 0, arm 0, phase 1: "),
        # not ascending: a round has no order; a transposed one is mis-shaped
        ([True, True], [[True], [True]], [[2], [3]], "phase 1: AllocationMessage arms shaped"),
        ([True, True], [[True, True]], [[3, -1]], "agent 0, arm 1, phase 1: "),  # negative count
        # two counts for one arm: a count outside the allocation
        ([True, True], [[True, False]], [[3, 2]], "agent 0, arm 1, phase 1: "),
        ([True, True], [[0.0, 1.0]], [[3, 2]], "agent 0, arm 0, phase 1: "),  # float mask
        ([True, True], [[True, True]], [[3.0, 2.0]], "agent 0, arm 0, phase 1: "),  # float counts
    ])
    def test_whole_allocation_checked_before_the_first_pull(self, active, arms, counts, named):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.phase, agent.active = 1, np.array([active])
        msg = AllocationMessage(phase=np.array([1]), arms=np.array(arms), counts=np.array(counts))
        with pytest.raises(ProtocolError, match=f"^{named}"):
            agent.explore_phase(msg, env.pull_many)
        with pytest.raises(ValueError):  # no round was booked
            env.cumulative_regret(upto=1)


class TestExploitRemainder:
    def test_zero_rounds_no_pulls(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.a_hat = np.array([0])
        agent.exploit_remainder(np.array([0]), env.pull_many)
        with pytest.raises(ValueError):
            env.cumulative_regret(upto=1)

    def test_optimal_arm_accrues_nothing(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.a_hat = env.optimal_arms[:1]
        agent.exploit_remainder(np.array([10]), env.pull_many)
        assert env.cumulative_regret()[1] == 0.0

    def test_gap_arm_accrues_exactly(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        agent.a_hat = np.array([1])
        gap = env.true_rewards[0, 0] - env.true_rewards[0, 1]
        agent.exploit_remainder(np.array([5]), env.pull_many)
        assert env.cumulative_regret()[1] == pytest.approx(5 * gap)


class TestFederationBoundary:
    def test_outbound_message_fields(self):
        """Agents upload only active sets and per-arm estimates; psi, mu,
        contexts, and raw rewards never appear in message types."""
        assert set(LocalEstimateUpload.__dataclass_fields__) == {
            "phase", "arms", "theta_hat", "pulls",
        }
        assert set(ActiveSetUpload.__dataclass_fields__) == {"phase", "arms"}


class TestBeginPhase:
    def test_elimination_uses_broadcast_model(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env, alpha=0.0)
        theta = np.array([1.0, 0.0, 0.0])
        models = {a: (theta, np.zeros((3, 3))) for a in range(2)}
        upload, scores = agent.begin_phase(broadcast(models, 2, phase=1))
        # zero-width intervals: only the better arm survives
        assert upload.arms.tolist() == [[True, False]]
        assert agent.a_hat.tolist() == [0]
        assert agent.active.tolist() == [[True, False]]
        assert scores.shape == (2, 2)  # both arms scored

    def test_stats_are_per_arm_scores(self, rng):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env, alpha=1.5)
        models = {}
        for a in range(2):
            g = rng.normal(size=(3, 4))
            models[a] = (rng.normal(size=3), pinv(g @ g.T))
        _, scores = agent.begin_phase(broadcast(models, 2, phase=1))
        assert scores.dtype == np.float64
        for a, (r_hat, u) in enumerate(scores.tolist()):
            theta, v = models[a]
            assert (r_hat, u) == score_one(agent.psi[0, a], theta, v, 1.5, agent.ell)

    def test_a_hat_is_first_maximum(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env, alpha=0.0)
        models = {a: (np.zeros(3), np.zeros((3, 3))) for a in range(2)}
        upload, _ = agent.begin_phase(broadcast(models, 2, phase=1))
        # r_hat ties at 0 with zero widths: both survive, the first is best
        assert agent.a_hat.tolist() == [0]
        assert upload.arms.tolist() == [[True, True]]

    @pytest.mark.parametrize("stamp", [0, 2, 7])
    def test_broadcast_for_another_phase_rejected(self, stamp):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        models = {a: (np.zeros(3), np.eye(3)) for a in range(2)}
        with pytest.raises(
            ProtocolError, match=rf"^agent 0, arm \[0, 1\], phase 1: .* phase {stamp}$"
        ):
            agent.begin_phase(broadcast(models, 2, phase=stamp))
        assert agent.phase == 0 and agent.active.tolist() == [[True, True]]

    def test_broadcast_without_an_active_arm_rejected(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        models = {0: (np.zeros(3), np.eye(3))}
        with pytest.raises(ProtocolError, match=r"^agent 0, arm 1, phase 1: "):
            agent.begin_phase(broadcast(models, 2, phase=1))
        assert agent.phase == 0 and agent.active.tolist() == [[True, True]]

    @pytest.mark.parametrize("field", ["theta", "v"])
    def test_broadcast_with_a_non_finite_model_rejected(self, field):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        bad = broadcast({a: (np.zeros(3), np.eye(3)) for a in range(2)}, 2, phase=1)
        getattr(bad, field)[1, 0] = np.nan
        with pytest.raises(ProtocolError, match=r"^agent 0, arm 1, phase 1: broadcast has no finite"):
            agent.begin_phase(bad)
        assert agent.phase == 0 and agent.active.tolist() == [[True, True]]

    @pytest.mark.parametrize("v_shape", [(2, 2, 2), (2, 4, 4), (2, 3, 4), (3, 3, 3), (2, 9)])
    def test_broadcast_with_mis_shaped_v_rejected(self, v_shape):
        env = Environment(one_agent_scenario(), master_seed=0)
        agent = make_agent(env)
        models = {a: (np.zeros(3), np.eye(3)) for a in range(2)}
        bad = replace(broadcast(models, 2, phase=1), v=np.zeros(v_shape))
        with pytest.raises(ProtocolError, match=r"^agent 0, arm \[0, 1\], phase 1: broadcast V"):
            agent.begin_phase(bad)
        assert agent.phase == 0 and agent.active.tolist() == [[True, True]]


def per_agent_step(psi, active, model, alpha, ell):
    """The step the population step replaced: each agent scores its active
    arms in one ``score_arms`` call, takes the first maximum of r_hat as its
    empirical best and keeps the arms whose upper bound reaches the best's
    lower bound.  Returns the stacked scores, kept mask and best arms."""
    scores, kept, a_hat = [], np.zeros_like(active), []
    for i, row in enumerate(active):
        arms = np.flatnonzero(row).tolist()
        r_hat, u = score_arms(psi[i][arms], model.theta[arms], model.v[arms], alpha, ell)
        best = int(np.argmax(r_hat))
        keep = np.add(r_hat, u) >= r_hat[best] - u[best]
        kept[i, [a for a, k in zip(arms, keep.tolist()) if k]] = True
        a_hat.append(arms[best])
        scores.extend(zip(r_hat.tolist(), u.tolist()))
    return np.array(scores).reshape(-1, 2), kept, np.array(a_hat)


def random_population(rng, m, k, d):
    """psi, nonempty active sets and a phase-1 broadcast; in one draw of
    three, small integer coordinates make exact r_hat ties."""
    ties = rng.random() < 1 / 3
    def draw(*shape):
        return rng.integers(-2, 3, size=shape).astype(float) if ties else rng.normal(size=shape)

    psi = draw(m, k, d)
    psi[sq_norms(psi) == 0.0] = 1.0
    active = rng.random((m, k)) < rng.uniform(0.2, 1.0)
    active[np.arange(m), rng.integers(0, k, size=m)] = True
    g = rng.normal(size=(k, d, d + 1))
    v = pinv(g @ np.swapaxes(g, 1, 2)) * (rng.random() < 0.8)
    return psi, active, broadcast({a: (draw(d), v[a]) for a in range(k)}, k)


class TestPopulationStep:
    def test_matches_the_per_agent_loop_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        for _ in range(60):
            m, k, d = int(rng.integers(1, 151)), int(rng.integers(1, 31)), int(rng.integers(1, 6))
            psi, active, model = random_population(rng, m, k, d)
            alpha, ell = rng.uniform(0.5, 5.0), rng.uniform(0.1, 1.0)
            agents = Agent(psi, alpha, ell)
            agents.active = active
            upload, scores = agents.begin_phase(model)
            want_scores, want_kept, want_best = per_agent_step(psi, active, model, alpha, ell)
            assert (scores == want_scores).all()
            assert (agents.active == want_kept).all() and (upload.arms == want_kept).all()
            assert (agents.a_hat == want_best).all()

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 8), st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.data())
    def test_rows_are_independent(self, m, k, d, seed, data):
        """Stepping a subset of the agents (scoring, elimination and
        exploration) gives exactly those agents' rows."""
        rng = np.random.default_rng(seed)
        psi, active, model = random_population(rng, m, k, d)
        counts = rng.integers(0, 4, size=(m, k))
        rewards = rng.normal(size=(m, k))
        rows = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True).map(sorted))

        def step(ids):
            agents = Agent(psi[ids], 1.7, 0.4)
            agents.active = active[ids]
            sets, scores = agents.begin_phase(model)
            alloc = AllocationMessage(phase=np.full(len(ids), 1), arms=sets.arms,
                                      counts=np.where(sets.arms, counts[ids], 0))
            upload, used = agents.explore_phase(alloc, lambda i, a, c: rewards[ids[i], a] / c)
            pairs = {(ids[i], a): tuple(s) for (i, a), s in
                     zip(np.argwhere(active[ids]).tolist(), scores.tolist())}
            return sets.arms, agents.a_hat, upload, used, pairs

        arms, a_hat, upload, used, pairs = step(list(range(m)))
        sub_arms, sub_hat, sub_upload, sub_used, sub_pairs = step(rows)
        assert (sub_arms == arms[rows]).all() and (sub_hat == a_hat[rows]).all()
        assert (sub_used == used[rows]).all()
        for f in ("arms", "theta_hat", "pulls"):
            assert (getattr(sub_upload, f) == getattr(upload, f)[rows]).all()
        assert sub_pairs == {p: s for p, s in pairs.items() if p[0] in rows}

from dataclasses import replace

import numpy as np
import pytest

from fedpecd.environment import Environment
from fedpecd.errors import ValidationError
from fedpecd.harness import SyntheticSpec, generate_synthetic
from fedpecd.model import Bounds, Scenario

from conftest import pull_record, rescan


def one_agent_scenario(sigma=0.0):
    return Scenario(
        bounds=Bounds(ell=0.5, big_l=1.0, s=1.0),
        rewards=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        features=[[[0.5, 0.2, 0.1]], [[0.1, 0.5, 0.3]]],
        mu=[[1.0]],
        sigma=sigma,
    )


class TestPull:
    def test_noiseless_reward_is_inner_product(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        assert env.pull(0, 0) == pytest.approx(0.5)

    def test_optimal_pull_has_zero_regret(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        one_pull = env.optimal_arms[:, None], np.ones((1, 1), dtype=int)
        assert env.cumulative_regret(*one_pull, [1]).tolist() == [[0.0]]

    def test_monte_carlo_mean_within_clt_bound(self):
        env = Environment(one_agent_scenario(sigma=1e-3), master_seed=7)
        n = 10**5
        avg = env.pull_many(0, 0, n)
        assert abs(avg - 0.5) <= 4e-3 / np.sqrt(n)

    def test_index_errors(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        with pytest.raises(IndexError):
            env.pull(0, 5)
        with pytest.raises(IndexError):
            env.pull(3, 0)

    @pytest.mark.parametrize("bad", [1.0, True, np.float64(0.0), np.True_])
    def test_float_and_bool_ids_rejected(self, bad):
        """A bool would index list position 1 and a float is no id at all:
        both are refused as agent and as arm, before any noise is drawn."""
        env, fresh = (Environment(one_agent_scenario(sigma=0.3), master_seed=0) for _ in "ab")
        with pytest.raises(IndexError, match="is not an integer id"):
            env.pull(bad, 0)
        with pytest.raises(IndexError, match="is not an integer id"):
            env.pull_many(0, bad, 2)
        assert env.pull(0, 1) == fresh.pull(0, 1)

    def test_numpy_integer_ids_accepted(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        assert env.pull(np.int64(0), np.int32(1)) == env.pull(0, 1)
        with pytest.raises(IndexError, match="arm 2 out of range"):
            env.pull(np.int64(0), np.int64(2))

    @pytest.mark.parametrize("count", [2.5, True])
    def test_fractional_count_rejected(self, count):
        """Neither 2.5 nor True is a pull count (True read as one pull)."""
        env, fresh = (Environment(one_agent_scenario(sigma=0.3), master_seed=0) for _ in "ab")
        with pytest.raises(ValueError, match=f"^count must be an integer, got {count!r}$"):
            env.pull_many(0, 1, count)
        assert env.pull_many(0, 1, 3) == fresh.pull_many(0, 1, 3)

    def test_numpy_integer_count_accepted(self):
        env, fresh = (Environment(one_agent_scenario(sigma=0.3), master_seed=0) for _ in "ab")
        assert env.pull_many(0, 1, np.int64(3)) == fresh.pull_many(0, 1, 3)

    def test_sigma_above_one_rejected(self):
        with pytest.raises(ValidationError, match="sigma = 1.5"):
            one_agent_scenario(sigma=1.5)


class TestNoise:
    def test_single_pulls_are_the_agent_stream_draws(self):
        """A single pull adds one N(0, sigma^2) draw from the agent's own
        stream, so the init estimates are pinned to the seed."""
        sigma, seed = 0.4, 17
        spec = SyntheticSpec(K=4, d=3, M=3, sigma=sigma, perturbation=0.04)
        env = Environment(generate_synthetic(spec, seed=6), master_seed=seed)
        streams = np.random.SeedSequence(seed).spawn(2)[1].spawn(spec.M)
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams]
        for _ in range(3):
            for a in range(spec.K):
                for i in range(spec.M):
                    expected = env.true_rewards[i, a] + rngs[i].normal(0.0, sigma)
                    assert env.pull(i, a) == expected

    @pytest.mark.parametrize("count", [2, 7, 1000])
    def test_batch_average_has_variance_sigma_squared_over_count(self, count):
        sigma, calls = 0.5, 20_000
        env = Environment(one_agent_scenario(sigma=sigma), master_seed=23)
        mean = env.true_rewards[0, 0]
        z = np.array(
            [(env.pull_many(0, 0, count) - mean) * np.sqrt(count) / sigma
             for _ in range(calls)]
        )
        assert abs(z.mean()) <= 5.0 / np.sqrt(calls)
        assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / calls)

    def test_batches_past_one_noise_block_match_per_call_draws(self):
        """Across several refills of the drawn-ahead block, each batch equals
        the mean plus one ``normal(0, sigma / sqrt(count))`` call on the
        agent's stream, bit for bit; a zero count draws nothing, or every
        later batch would miss its oracle draw."""
        from fedpecd.environment import NOISE_BLOCK

        sigma, seed = 0.3, 5
        env = Environment(one_agent_scenario(sigma=sigma), master_seed=seed)
        stream = np.random.SeedSequence(seed).spawn(2)[1].spawn(1)[0]
        oracle = np.random.Generator(np.random.PCG64(stream))
        counts = [1, 7, 0, 1000] * NOISE_BLOCK
        drawn = 0
        for step, count in enumerate(counts):
            a = step % 2
            got = env.pull_many(0, a, count)
            if count == 0:
                assert got == 0.0
                continue
            drawn += 1
            expected = env.true_rewards[0, a] + oracle.normal(0.0, sigma / np.sqrt(count))
            assert got == expected, step
        assert drawn > 2 * NOISE_BLOCK

    def test_zero_sigma_returns_mean_without_drawing(self):
        env = Environment(replace(one_agent_scenario(sigma=0.3), sigma=0.0), master_seed=0)
        state = env._rngs[0].bit_generator.state
        assert env.pull(0, 1) == env.true_rewards[0, 1]
        assert env.pull_many(0, 0, 9) == env.true_rewards[0, 0]
        assert env._rngs[0].bit_generator.state == state


class TestOptimalArm:
    def test_single_arm(self):
        sc = one_agent_scenario()
        env = Environment(sc, master_seed=0)
        assert env.optimal_arms[0] == 0

    def test_matches_brute_force(self):
        """The stacked true rewards carry the bits of one dot per pair; per-arm
        thetas make the summation order visible (theta = e_1 would not)."""
        for theta_mode in ("shared", "per_arm"):
            spec = SyntheticSpec(K=10, d=3, M=6, perturbation=0.04, theta_mode=theta_mode)
            sc = generate_synthetic(spec, seed=11)
            env = Environment(sc, master_seed=4)
            rewards = np.array([
                [float(sc.rewards[a] @ sc.features[a, env.contexts[i]])
                 for a in range(sc.K)]
                for i in range(sc.M)
            ])
            assert np.array_equal(env.true_rewards, rewards)
            for i in range(sc.M):
                assert env.optimal_arms[i] == int(np.argmax(rewards[i]))


    def test_truths_are_read_only(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        for truth in (env.contexts, env.true_rewards, env.optimal_arms, env.gaps):
            with pytest.raises(ValueError):
                truth[0] = 1


class TestRegretLedger:
    """``cumulative_regret`` of a pull record: per agent, its batches of
    (arm, count) in pull order, read at given rounds."""

    def test_no_pulls_zero(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        no_pulls = np.array([[1]]), np.array([[0]])
        assert env.cumulative_regret(*no_pulls, [0]).tolist() == [[0.0]]

    def test_three_pulls_of_gap_arm(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        gap = env.true_rewards[0, 0] - env.true_rewards[0, 1]
        three_pulls = np.array([[1, 1, 1]]), np.array([[1, 1, 1]])
        assert env.cumulative_regret(*three_pulls, [3])[0, 0] == pytest.approx(3 * gap)

    def test_prefix_query(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        gap = env.true_rewards[0, 0] - env.true_rewards[0, 1]
        regret = env.cumulative_regret(np.array([[1, 0]]), np.array([[4, 4]]), [2, 8])
        assert regret[:, 0] == pytest.approx([2 * gap, 4 * gap])

    def test_ledger_independent_of_noise_seed(self):
        record = np.array([[0, 1, 1, 0, 1]]), np.ones((1, 5), dtype=int)
        regrets = [Environment(one_agent_scenario(sigma=0.5), master_seed=seed)
                   .cumulative_regret(*record, [5]) for seed in (1, 2)]
        assert regrets[0] == regrets[1]

    def test_prefix_sums_match_a_segment_rescan(self):
        """Every prefix, inside batches and on their ends, equals a rescan
        of the batches with the same float additions in the same order."""
        spec = SyntheticSpec(K=5, d=3, M=3, perturbation=0.04)
        sc = generate_synthetic(spec, seed=4)
        env = Environment(sc, master_seed=1)
        rng = np.random.default_rng(12)
        rounds = 4000
        calls = []
        done = [0] * sc.M
        while min(done) < rounds:
            for i in range(sc.M):
                if done[i] < rounds:
                    count = min(int(rng.integers(1, 400)), rounds - done[i])
                    calls.append((i, int(rng.integers(sc.K)), count))
                    done[i] += count
        best = env.true_rewards[np.arange(sc.M), env.optimal_arms]
        batches = [[(c, best[i] - env.true_rewards[i, a]) for j, a, c in calls if j == i]
                   for i in range(sc.M)]
        assert sum(gap > 0.0 for segs in batches for _, gap in segs) > 10

        regret = env.cumulative_regret(*pull_record(calls, sc.M), range(rounds + 1))
        for r, per_agent in enumerate(regret):
            assert per_agent.tolist() == [rescan(segs, r) for segs in batches], r

    def test_cumulative_nondecreasing_and_bounded(self):
        spec = SyntheticSpec(K=4, d=3, M=3, perturbation=0.04)
        sc = generate_synthetic(spec, seed=2)
        env = Environment(sc, master_seed=9)
        rng = np.random.default_rng(0)
        max_gap = env.gaps.max()
        arms = np.array([[int(rng.integers(sc.K)) for _ in range(sc.M)] for _ in range(39)]).T
        totals = env.cumulative_regret(arms, np.ones_like(arms), range(1, 40)).sum(axis=1)
        assert (np.diff(totals) >= 0.0).all()
        assert (totals <= np.arange(1, 40) * max_gap * sc.M + 1e-12).all()


class TestDeterminism:
    def test_same_seed_same_rewards(self):
        sc = one_agent_scenario(sigma=0.3)
        a = Environment(sc, master_seed=42)
        b = Environment(sc, master_seed=42)
        seq_a = [a.pull(0, t % 2) for t in range(10)]
        seq_b = [b.pull(0, t % 2) for t in range(10)]
        assert seq_a == seq_b

    @pytest.mark.parametrize("source", ["synthetic", "desk-exact", "movielens-like", "random-rows"])
    def test_contexts_are_the_choice_draws(self, source):
        """Each agent's context is the id ``Generator.choice(C, p=row)`` draws
        from the agent's own stream, for rows with zeros anywhere."""
        if source == "random-rows":
            rng = np.random.default_rng(4)
            mu = rng.dirichlet(np.ones(9), size=12) * (rng.random((12, 9)) < 0.5)
            mu[:, 4] += 1e-3
            mu /= mu.sum(axis=1, keepdims=True)
            sc = Scenario(bounds=Bounds(ell=0.5, big_l=1.0, s=1.0), rewards=[[1.0, 0.0]],
                          features=np.full((1, 9, 2), 0.6), mu=mu, sigma=0.0)
        else:
            spec = {"synthetic": SyntheticSpec(M=20),
                    "desk-exact": SyntheticSpec(K=5, M=9),
                    "movielens-like": SyntheticSpec(K=8, M=15, copies=2, theta_mode="per_arm",
                                                    contested_frac=0.25)}[source]
            sc = generate_synthetic(spec, seed=1, variant="exact" if "exact" in source else "hidden")
        for seed in range(10):
            ctx_root = np.random.SeedSequence(seed).spawn(2)[0]
            expected = [np.random.Generator(np.random.PCG64(s)).choice(sc.mu.shape[1], p=row)
                        for row, s in zip(sc.mu, ctx_root.spawn(sc.M))]
            assert Environment(sc, master_seed=seed).contexts.tolist() == expected

    def test_realized_contexts_stable_under_agent_prefix(self):
        """Restricting to the first m agents must not change their draws."""
        spec = SyntheticSpec(K=3, d=2, M=6, norm_range=(0.6, 1.0), perturbation=0.05)
        sc = generate_synthetic(spec, seed=5)
        big = Environment(sc, master_seed=3)
        small = Environment(sc.restrict(2), master_seed=3)
        for i in range(2):
            assert big.contexts[i] == small.contexts[i]

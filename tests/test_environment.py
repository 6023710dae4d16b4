from dataclasses import replace

import numpy as np
import pytest

from fedpecd.environment import Environment
from fedpecd.errors import ValidationError
from fedpecd.harness import SyntheticSpec, generate_synthetic
from fedpecd.model import Bounds, Scenario


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
        env.pull(0, env.optimal_arms[0])
        per_agent, total = env.cumulative_regret()
        assert total == 0.0

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
        both are refused as agent and as arm, before any pull is booked."""
        env = Environment(one_agent_scenario(), master_seed=0)
        with pytest.raises(IndexError, match="is not an integer id"):
            env.pull(bad, 0)
        with pytest.raises(IndexError, match="is not an integer id"):
            env.pull_many(0, bad, 2)
        assert env.cumulative_regret() == (np.zeros(1), 0.0)

    def test_numpy_integer_ids_accepted(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        assert env.pull(np.int64(0), np.int32(1)) == env.pull(0, 1)
        with pytest.raises(IndexError, match="arm 2 out of range"):
            env.pull(np.int64(0), np.int64(2))

    def test_fractional_count_rejected(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        with pytest.raises(ValueError, match="integer"):
            env.pull_many(0, 1, 2.5)
        env.pull_many(0, 1, 3)
        with pytest.raises(ValueError, match="agent 0 has only 3 rounds"):
            env.cumulative_regret(upto=4)

    def test_numpy_integer_count_accepted(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        env.pull_many(0, 1, np.int64(3))
        assert env.cumulative_regret() == env.cumulative_regret(upto=3)

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
        for truth in (env.contexts, env.true_rewards, env.optimal_arms):
            with pytest.raises(ValueError):
                truth[0] = 1


class TestRegretLedger:
    def test_no_pulls_zero(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        _, total = env.cumulative_regret()
        assert total == 0.0

    def test_three_pulls_of_gap_arm(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        gap = env.true_rewards[0, 0] - env.true_rewards[0, 1]
        for _ in range(3):
            env.pull(0, 1)
        _, total = env.cumulative_regret()
        assert total == pytest.approx(3 * gap)

    def test_prefix_query(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        gap = env.true_rewards[0, 0] - env.true_rewards[0, 1]
        env.pull_many(0, 1, 4)
        env.pull_many(0, 0, 4)
        per_agent, _ = env.cumulative_regret(upto=2)
        assert per_agent[0] == pytest.approx(2 * gap)
        per_agent, _ = env.cumulative_regret(upto=8)
        assert per_agent[0] == pytest.approx(4 * gap)

    def test_ledger_independent_of_noise_seed(self):
        traces = []
        for seed in (1, 2):
            env = Environment(one_agent_scenario(sigma=0.5), master_seed=seed)
            for arm in (0, 1, 1, 0, 1):
                env.pull(0, arm)
            traces.append(env.cumulative_regret()[1])
        assert traces[0] == traces[1]

    def test_negative_upto_rejected(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        env.pull_many(0, 1, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            env.cumulative_regret(upto=-3)

    def test_fractional_upto_rejected(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        env.pull_many(0, 1, 4)
        with pytest.raises(ValueError, match="integer"):
            env.cumulative_regret(upto=2.5)

    def test_numpy_integer_upto_accepted(self):
        env = Environment(one_agent_scenario(), master_seed=0)
        env.pull_many(0, 1, 4)
        assert env.cumulative_regret(upto=np.int64(3)) == env.cumulative_regret(upto=3)

    def test_upto_beyond_rounds_names_agent(self):
        spec = SyntheticSpec(K=4, d=3, M=3, perturbation=0.04)
        env = Environment(generate_synthetic(spec, seed=2), master_seed=9)
        for i, count in enumerate((5, 5, 2)):
            env.pull_many(i, 0, count)
        with pytest.raises(ValueError, match="agent 2 has only 2 rounds"):
            env.cumulative_regret(upto=3)

    def test_prefix_sums_match_a_segment_rescan(self):
        """Every prefix, inside segments and on their ends, equals a rescan
        of the pull batches with the same float additions in the same order."""
        spec = SyntheticSpec(K=5, d=3, M=3, perturbation=0.04)
        sc = generate_synthetic(spec, seed=4)
        env = Environment(sc, master_seed=1)
        rng = np.random.default_rng(12)
        rounds = 4000
        segments = [[] for _ in range(sc.M)]
        pending = list(range(sc.M))
        while pending:
            for i in list(pending):
                done = sum(c for c, _ in segments[i])
                count = min(int(rng.integers(1, 400)), rounds - done)
                arm = int(rng.integers(sc.K))
                if count == 1:
                    env.pull(i, arm)
                else:
                    env.pull_many(i, arm, count)
                gap = env.true_rewards[i, env.optimal_arms[i]] - env.true_rewards[i, arm]
                segments[i].append((count, gap))
                if done + count == rounds:
                    pending.remove(i)
        assert sum(gap > 0.0 for segs in segments for _, gap in segs) > 10

        def rescan(segs, upto):
            acc, remaining = 0.0, upto
            for count, gap in segs:
                if remaining <= 0:
                    break
                take = min(count, remaining)
                acc += take * gap
                remaining -= take
            return acc

        for r in range(rounds + 1):
            expected = np.array([rescan(segs, r) for segs in segments])
            per_agent, total = env.cumulative_regret(upto=r)
            assert per_agent.tolist() == expected.tolist(), r
            assert total == float(expected.sum()), r
        per_agent, _ = env.cumulative_regret()
        assert per_agent.tolist() == [rescan(segs, rounds) for segs in segments]

    def test_cumulative_nondecreasing_and_bounded(self):
        spec = SyntheticSpec(K=4, d=3, M=3, perturbation=0.04)
        sc = generate_synthetic(spec, seed=2)
        env = Environment(sc, master_seed=9)
        rng = np.random.default_rng(0)
        prev = 0.0
        max_gap = 0.0
        for i in range(sc.M):
            gaps = [env.true_rewards[i, env.optimal_arms[i]] - env.true_rewards[i, a]
                    for a in range(sc.K)]
            max_gap = max(max_gap, max(gaps))
        for t in range(1, 40):
            for i in range(sc.M):
                env.pull(i, int(rng.integers(sc.K)))
            _, total = env.cumulative_regret(upto=t)
            assert total >= prev
            assert total <= t * max_gap * sc.M + 1e-12
            prev = total


class TestDeterminism:
    def test_same_seed_same_rewards(self):
        sc = one_agent_scenario(sigma=0.3)
        a = Environment(sc, master_seed=42)
        b = Environment(sc, master_seed=42)
        seq_a = [a.pull(0, t % 2) for t in range(10)]
        seq_b = [b.pull(0, t % 2) for t in range(10)]
        assert seq_a == seq_b

    def test_realized_contexts_stable_under_agent_prefix(self):
        """Restricting to the first m agents must not change their draws."""
        spec = SyntheticSpec(K=3, d=2, M=6, norm_range=(0.6, 1.0), perturbation=0.05)
        sc = generate_synthetic(spec, seed=5)
        big = Environment(sc, master_seed=3)
        small = Environment(sc.restrict(2), master_seed=3)
        for i in range(2):
            assert big.contexts[i] == small.contexts[i]

"""Ground-truth simulator: hidden contexts, noisy rewards, pseudo-regret.

Each agent's realized context is drawn once at construction (it is the
agent's fixed user profile for the whole run), from the agent's row of the
scenario's ``mu`` over the context ids ``0..C-1``; a zero-probability id is
never drawn.  The draw is ``Generator.choice(C, p=row)``'s, in bulk: one
uniform u per agent from its own stream, and the id is the number of
entries of the row's normalized cumulative sum at or below u, which is
``choice``'s right-sided search of that sorted row.  One master seed spawns
independent per-agent streams, keyed by agent index, so results do not
depend on scheduling order and a run over the first m agents of a scenario
sees the same draws as a larger run would.

The true expected rewards r(a, c_i) = theta_a' phi(a, c_i) of all
(agent, arm) pairs come from one stacked product at construction.  A pull
adds N(0, sigma^2) noise with the scenario's sigma, which the scenario
keeps in [0, 1] so the noise is 1-subgaussian.

A batch of ``count`` pulls of one arm returns the average reward, drawn
once as ``mean + N(0, sigma^2 / count)``: the mean of ``count`` iid
N(0, sigma^2) draws has exactly that law, so a batch costs one draw
whatever its size, and a single pull is the plain ``N(0, sigma^2)`` draw.

The hot path runs on Python floats.  Each agent draws its standard normals
ahead, ``NOISE_BLOCK`` at a time, from its own stream, and a batch uses the
next one, z, as ``mean + (0.0 + s * z)`` with ``s = sigma / sqrt(count)``.
The bits are those of one ``normal(0.0, s)`` call per batch: numpy computes
that call as ``0.0 + s * z`` from one standard normal, and a bulk
``standard_normal(n)`` yields the same sequence as n scalar draws.  An
agent's stream feeds only its own noise, so drawing ahead moves no other
value.  Blocks are drawn on first need, so with sigma = 0 nothing is drawn.

A pull keeps no record.  Pseudo-regret is a function of a pull record
and the true reward gaps (``cumulative_regret``), so it is the same across
noise seeds for a fixed pull sequence.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .model import Scenario

# Standard normals an agent draws ahead per refill: enough to spread the
# generator call over many batches, few enough that the M blocks stay small
# (0.6 MB of Python floats for 150 agents).
NOISE_BLOCK = 128


def _checked_id(what: str, value, n: int) -> int:
    """An agent or arm id as an int in ``0..n-1``; numpy integers pass, a
    bool or a float is not an id."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise IndexError(f"{what} {value!r} is not an integer id")
    if not 0 <= index < n:
        raise IndexError(f"{what} {index} out of range [0, {n})")
    return index


class Environment:
    """Reward oracle, and the pseudo-regret agents can never compute.

    Its truths are read-only arrays: the ``(M,)`` realized ``contexts``, the
    ``(M, K)`` ``true_rewards`` r(a, c_i), the ``(M,)`` ``optimal_arms``,
    each row's argmax with ties broken by the lowest arm index, and the
    ``(M, K)`` ``gaps`` r(a*_i, c_i) - r(a, c_i).
    """

    def __init__(self, scenario: Scenario, master_seed):
        m = scenario.M

        root = np.random.SeedSequence(master_seed)
        ctx_root, agent_root = root.spawn(2)
        ctx_streams = ctx_root.spawn(m)
        agent_streams = agent_root.spawn(m)
        self._rngs = [np.random.Generator(np.random.PCG64(s)) for s in agent_streams]

        u = np.array([np.random.Generator(np.random.PCG64(s)).random() for s in ctx_streams])
        cdf = np.cumsum(scenario.mu, axis=1)
        cdf /= cdf[:, -1:]
        self.contexts = np.count_nonzero(cdf <= u[:, None], axis=1)

        # True expected rewards and per-agent gaps, fixed for the run.  numpy
        # evaluates stacked (1, d) @ (d, 1) products as one dot per (agent,
        # arm), so each carries the bits of ``theta_a @ phi(a, c_i)``.
        phi = scenario.features[:, self.contexts, None, :]  # (K, M, 1, d)
        self.true_rewards = (phi @ scenario.rewards[:, None, :, None])[:, :, 0, 0].T.copy()
        self.optimal_arms = np.argmax(self.true_rewards, axis=1)
        self.gaps = self.true_rewards.max(axis=1, keepdims=True) - self.true_rewards
        for truth in (self.contexts, self.true_rewards, self.optimal_arms, self.gaps):
            truth.setflags(write=False)

        # The hot path's copies as Python scalars and nested lists (``tolist``
        # keeps the bits), and each agent's drawn-ahead standard normals,
        # stored reversed so the next one is ``pop()``.
        self._m, self._k, self._sigma = m, scenario.K, float(scenario.sigma)
        self._means: list[list[float]] = self.true_rewards.tolist()
        self._noise: list[list[float]] = [[] for _ in range(m)]

    def pull(self, agent: int, arm: int) -> float:
        """One pull: returns the noisy reward."""
        return self._pull(agent, arm, 1)

    def pull_many(self, agent: int, arm: int, count: int) -> float:
        """count pulls of one arm; returns the average observed reward."""
        return self._pull(agent, arm, count)

    def _pull(self, agent: int, arm: int, count: int) -> float:
        # Both public methods call this core and never each other, so a
        # wrapper around either one sees each pull exactly once.
        if type(agent) is not int or not 0 <= agent < self._m:
            agent = _checked_id("agent", agent, self._m)
        if type(arm) is not int or not 0 <= arm < self._k:
            arm = _checked_id("arm", arm, self._k)
        if type(count) is not int:
            try:  # a bool is no count: True is not one pull
                count = operator.index(None if isinstance(count, bool) else count)
            except TypeError:
                raise ValueError(f"count must be an integer, got {count!r}") from None
        if count <= 0:
            if count < 0:
                raise ValueError("count must be nonnegative")
            return 0.0
        avg = self._means[agent][arm]
        if self._sigma > 0.0:
            # One draw: the batch average's law, with the bits of
            # ``normal(0.0, s)`` (see the module docstring).
            noise = self._noise[agent]
            if not noise:
                noise += self._rngs[agent].standard_normal(NOISE_BLOCK)[::-1].tolist()
            avg += 0.0 + (self._sigma / math.sqrt(count)) * noise.pop()
        return avg

    def cumulative_regret(self, arms: np.ndarray, counts: np.ndarray, rounds) -> np.ndarray:
        """Per-agent cumulative pseudo-regret of a pull record, ``(len(rounds), M)``.

        Row i of the ``(M, S)`` ``arms`` and ``counts`` is agent i's pull
        batches in pull order.  Each round r must be an integer in
        ``0..counts[i].sum()``; inside a batch the partial regret is added to
        the prefix before it: the additions of a rescan of the batches.
        """
        rows = np.arange(self._m)
        # cum[:, j] is the regret through batch j, added batch by batch.
        cum = self.gaps[rows[:, None], arms]
        cum *= counts
        np.cumsum(cum, axis=1, out=cum)
        ends = np.cumsum(counts, axis=1)
        out = np.empty((len(rounds), self._m))
        for t, r in enumerate(rounds):
            # Batch j holds pull r; no regret precedes batch 0.  When r ends
            # batch j, ``(r - start) * gap`` is the addition that booked cum[:, j].
            j = (ends < r).sum(axis=1)
            start = ends[rows, j] - counts[rows, j]
            before = np.where(j > 0, cum[rows, j - 1], 0.0)
            out[t] = before + (r - start) * self.gaps[rows, arms[rows, j]]
        return out

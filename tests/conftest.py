import numpy as np
import pytest

from fedpecd.design import DesignProblem
from fedpecd.messages import ActiveSetUpload, GlobalBroadcast, LocalEstimateUpload
from fedpecd.model import Bounds, ContextDistribution, Scenario


def design_problem(active_sets, directions, dim):
    """A DesignProblem from a {(agent, arm): unit vector} map, densified
    over arm ids 0..max(arm)."""
    k = 1 + max([a for arms in active_sets for a in arms] + [a for _, a in directions],
                default=-1)
    active = np.zeros((len(active_sets), k), dtype=bool)
    for i, arms in enumerate(active_sets):
        active[i, arms] = True
    dense = np.zeros((len(active_sets), k, dim))
    has = np.zeros((len(active_sets), k), dtype=bool)
    for (i, a), v in directions.items():
        dense[i, a] = v
        has[i, a] = True
    return DesignProblem(active=active, directions=dense, has_direction=has)


def broadcast(models, k, phase=1):
    """The broadcast over k arms carrying ``models``, {arm: (theta_hat, V)}."""
    d = len(next(iter(models.values()))[0])
    out = GlobalBroadcast(phase, np.zeros((k, d)), np.zeros((k, d, d)), np.zeros(k, dtype=bool))
    for a, (theta, v) in models.items():
        out.theta[a], out.v[a], out.has_model[a] = theta, v, True
    return out


def estimates(phase, rows, k, d=2):
    """The estimate round of ``rows``: per agent, its (arm, theta_hat, pulls)
    triples; every other pair is unreported and zero."""
    m = len(rows)
    arms = np.zeros((m, k), dtype=bool)
    theta = np.zeros((m, k, d))
    pulls = np.zeros((m, k), dtype=int)
    for i, agent_rows in enumerate(rows):
        for a, th, f in agent_rows:
            arms[i, a], theta[i, a], pulls[i, a] = True, th, f
    return LocalEstimateUpload(phase=np.full(m, phase), arms=arms, theta_hat=theta, pulls=pulls)


def active_sets(sets, k, phase=1):
    """The active-set round of ``sets``, one list of arm ids per agent."""
    arms = np.zeros((len(sets), k), dtype=bool)
    for i, ids in enumerate(sets):
        arms[i, ids] = True
    return ActiveSetUpload(phase=np.full(len(sets), phase), arms=arms)


def random_design_problem(m, k, d, seed=0, active_sets=None):
    rng = np.random.default_rng(seed)
    if active_sets is None:
        active_sets = [list(range(k)) for _ in range(m)]
    dirs = {}
    for i, arms in enumerate(active_sets):
        for a in arms:
            v = rng.normal(size=d)
            dirs[(i, a)] = v / np.linalg.norm(v)
    return design_problem(active_sets, dirs, d)


def identical_agents_scenario(m=5, sigma=0.0):
    """All agents share one point-mass context; huge gaps, unit features.

    Noiseless runs on this scenario are fully deterministic and eliminate
    every suboptimal arm at the first opportunity, for any agent count.
    """
    u0 = np.array([1.0, 0.0, 0.0])
    u1 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    u2 = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    dirs = [u0, u1, u2]
    rewards = [10.0, 2.0, 2.0]
    thetas = [r * u for r, u in zip(rewards, dirs)]
    bounds = Bounds(ell=1.0, big_l=1.0, s=10.0)
    return Scenario(
        d=3,
        K=3,
        M=m,
        bounds=bounds,
        rewards=thetas,
        features=[[u] for u in dirs],
        mus=[ContextDistribution.point_mass(0) for _ in range(m)],
        sigma=sigma,
        name="identical-agents",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

"""The stacked aggregation against the per-arm loop it replaced.

``loop_aggregate`` is the loop ``server._aggregate`` used to run: one arm
at a time, each term added to the running sums in agent order, one
pseudo-inverse and one PSD check per arm.  The stacked pass must give the
same outcome bit for bit: equal theta_hat and V for every arm, the same
carried-over models, and the same error where the loop raises one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpecd.errors import DegenerateArmError, NotPSDError
from fedpecd.linalg import eigen_cutoff, pinv
from fedpecd.messages import GlobalBroadcast, LocalEstimate, LocalEstimateUpload
from fedpecd.server import aggregate_init, aggregate_phase

# Derandomized so tier-1 runs the same examples every time; no database.
PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def loop_aggregate(phase, collected, prev):
    """Per arm: V = pinv(sum_i f_i th th' / ||th||^2), theta = V (sum_i f_i th)."""
    models = {}
    for a, terms in collected.items():
        gram = None
        linear = None
        for f, th in terms:
            if f < 1:
                continue
            linear = f * th if linear is None else linear + f * th
            norm_sq = float(th @ th)
            if norm_sq == 0.0:
                continue
            outer = (f / norm_sq) * np.outer(th, th)
            gram = outer if gram is None else gram + outer
        if gram is None:
            if prev is None:
                raise DegenerateArmError(f"all initial estimates for arm {a} are zero")
            models[a] = prev.models[a]
            continue
        v = pinv(gram)
        w = np.linalg.eigvalsh(0.5 * (v + v.T))
        if float(w.min()) < -float(eigen_cutoff(w)):
            raise NotPSDError(f"aggregated V for arm {a} has eigenvalue {w.min()}")
        models[a] = (v @ linear, v)
    return GlobalBroadcast(phase=phase, models=models)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateArmError, NotPSDError) as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.phase == want.phase
    assert list(got.models) == list(want.models)
    for a, (theta, v) in want.models.items():
        assert np.array_equal(got.models[a][0], theta)
        assert np.array_equal(got.models[a][1], v)


def estimate(arm, theta, pulls):
    return LocalEstimate(arm=arm, theta_hat=np.asarray(theta, dtype=float), pulls=pulls)


# Coordinates with full mantissas, so a changed summation order shows in
# the last bits; exact zeros make zero-norm estimates and zero rewards.
COORD = st.one_of(st.just(0.0), st.floats(0.1, 4.0), st.floats(-4.0, -0.1))


@st.composite
def rounds(draw):
    """An init round and one phase round of m agents over k arms."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    vec = st.one_of(st.just([0.0] * d), st.lists(COORD, min_size=d, max_size=d))
    init = [[draw(vec) for _ in range(k)] for _ in range(m)]
    phase = []
    for _ in range(m):
        arms = draw(st.lists(st.integers(0, k - 1), unique=True, max_size=k))
        # (issued pulls, estimate, whether a zero-pull pair uploads anyway)
        phase.append({a: (draw(st.integers(0, 4)), draw(vec), draw(st.booleans()))
                      for a in sorted(arms)})
    return m, k, d, init, phase


@PROFILE
@given(rounds())
def test_init_matches_the_loop(case):
    m, k, d, init, _ = case
    uploads = [
        LocalEstimateUpload(agent=i, phase=0,
                            estimates=[estimate(a, th, 1) for a, th in enumerate(row)])
        for i, row in enumerate(init)
    ]
    collected = {a: [(1, np.asarray(init[i][a], dtype=float)) for i in range(m)]
                 for a in range(k)}
    assert_same_outcome(outcome(aggregate_init, uploads, m, k, d),
                        outcome(loop_aggregate, 1, collected, None))


@PROFILE
@given(rounds())
def test_phase_matches_the_loop(case):
    m, k, d, _, phase = case
    prev = GlobalBroadcast(
        phase=1, models={a: (np.full(d, float(a)), np.eye(d)) for a in range(k)}
    )
    f_issued = {i: {a: f for a, (f, _, _) in pairs.items()} for i, pairs in enumerate(phase)}
    sent = [
        {a: (f, np.asarray(th, dtype=float)) for a, (f, th, extra) in pairs.items()
         if f >= 1 or extra}
        for pairs in phase
    ]
    uploads = [
        LocalEstimateUpload(agent=i, phase=1,
                            estimates=[estimate(a, th, f) for a, (f, th) in pairs.items()])
        for i, pairs in enumerate(sent)
    ]
    union = sorted({a for pairs in phase for a in pairs})
    collected = {a: [sent[i][a] for i in range(m) if a in sent[i]] for a in union}
    got = outcome(aggregate_phase, uploads, f_issued, prev)
    assert_same_outcome(got, outcome(loop_aggregate, 2, collected, prev))
    if isinstance(got, GlobalBroadcast):
        for a in union:
            if not any(f >= 1 and np.any(th) for f, th in collected[a]):
                assert got.models[a] is prev.models[a]

"""The stacked aggregation against the per-arm loop it replaced, and the
federation boundary against perturbed uploads.

``loop_aggregate`` is the loop ``server._aggregate`` used to run: one arm
at a time, each term added to the running sums in agent order, one
pseudo-inverse and one PSD check per arm.  The stacked pass must give the
same outcome bit for bit: equal theta_hat and V for every arm, the same
carried-over models, and the same error where the loop raises one.

A perturbed phase upload set must either raise a ``ProtocolError`` that
names the offending agent, arm and phase, or aggregate bit for bit as the
clean set does.  The same holds for the initial uploads and for the
active sets a phase is planned from: a missing, repeated or out-of-range
agent is named too.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpecd.errors import DegenerateArmError, NotPSDError, ProtocolError
from fedpecd.linalg import eigen_cutoff, pinv
from fedpecd.messages import ActiveSetUpload, GlobalBroadcast, LocalEstimate, LocalEstimateUpload
from fedpecd.server import CentralServer, aggregate_init, aggregate_phase

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
    except (DegenerateArmError, NotPSDError, ProtocolError) as exc:
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


def init_uploads(init):
    """The phase-0 uploads of a drawn round: every agent, every arm, one pull."""
    return [
        LocalEstimateUpload(agent=i, phase=0,
                            estimates=[estimate(a, th, 1) for a, th in enumerate(row)])
        for i, row in enumerate(init)
    ]


@PROFILE
@given(rounds())
def test_init_matches_the_loop(case):
    m, k, d, init, _ = case
    uploads = init_uploads(init)
    collected = {a: [(1, np.asarray(init[i][a], dtype=float)) for i in range(m)]
                 for a in range(k)}
    assert_same_outcome(outcome(aggregate_init, uploads, m, k, d),
                        outcome(loop_aggregate, 1, collected, None))


def phase_round(case):
    """The clean phase-1 uploads of a drawn round, with the server's issued
    counts, its roster mask and the phase-1 model they aggregate into."""
    m, k, d, _, phase = case
    prev = GlobalBroadcast(
        phase=1, models={a: (np.full(d, float(a)), np.eye(d)) for a in range(k)}
    )
    issued = np.zeros((m, k), dtype=int)
    active = np.zeros((m, k), dtype=bool)
    uploads = []
    for i, pairs in enumerate(phase):
        estimates = []
        for a, (f, th, extra) in pairs.items():
            issued[i, a], active[i, a] = f, True
            if f >= 1 or extra:
                estimates.append(estimate(a, th, f))
        uploads.append(LocalEstimateUpload(agent=i, phase=1, estimates=estimates))
    return uploads, issued, active, prev


@PROFILE
@given(rounds())
def test_phase_matches_the_loop(case):
    uploads, issued, active, prev = phase_round(case)
    union = np.flatnonzero(active.any(axis=0)).tolist()
    collected = {
        a: [(e.pulls, e.theta_hat) for u in uploads for e in u.estimates if e.arm == a]
        for a in union
    }
    got = outcome(aggregate_phase, uploads, issued, active, prev)
    assert_same_outcome(got, outcome(loop_aggregate, 2, collected, prev))
    if isinstance(got, GlobalBroadcast):
        for a in union:
            if not any(f >= 1 and np.any(th) for f, th in collected[a]):
                assert got.models[a] is prev.models[a]


def named(got, offender, must_raise, kind):
    """Whether ``got`` is a ``ProtocolError``, which must name the offending
    (agent, arm, phase); a perturbation that must raise fails if not."""
    if isinstance(got, ProtocolError):
        agent, arm, phase = offender
        assert str(got).startswith(f"agent {agent}, arm {arm}, phase {phase}: ")
        return True
    assert not must_raise, f"{kind} was accepted"
    return False


PERTURBATIONS = (
    "duplicate", "drop", "rescale", "wrong phase", "wrong shape", "non-finite",
    "pulls", "agent id", "arm id", "reorder",
)


def perturb(kind, uploads, m, k, draw):
    """Apply one perturbation to a copy of the uploads.

    Returns the perturbed list, the (agent, arm, phase) an error must name,
    and whether the boundary must raise.  "rescale" reports c times the
    pulls with 1/c of the estimate, the same pooled sum f * theta, which the
    server must not take in place of its own issued count.  Agent and arm
    ids move out of range by whole multiples of M or K, negative ones
    included, where they would wrap onto a valid pair.
    """
    out = list(uploads)
    pairs = [(j, n) for j, u in enumerate(out) for n in range(len(u.estimates))]
    if kind == "reorder":
        out = [replace(u, estimates=draw(st.permutations(u.estimates)))
               for u in draw(st.permutations(out))]
        return out, None, False
    if kind in ("wrong phase", "agent id"):
        j = draw(st.integers(0, len(out) - 1))
        u = out[j]
        arms = [e.arm for e in u.estimates]
        if kind == "wrong phase":
            out[j] = replace(u, phase=draw(st.sampled_from([0, 2, -1])))
            return out, (u.agent, arms, out[j].phase), True
        out[j] = replace(u, agent=u.agent + m * draw(st.sampled_from([-2, -1, 1, 2])))
        return out, (out[j].agent, arms[0] if arms else None, 1), bool(arms)
    if not pairs:
        return out, None, False
    j, n = draw(st.sampled_from(pairs))
    u = out[j]
    e = u.estimates[n]
    offender = (u.agent, e.arm, 1)
    estimates = list(u.estimates)
    if kind == "duplicate":
        if draw(st.booleans()):
            estimates.insert(draw(st.integers(0, len(estimates))), e)
            out[j] = replace(u, estimates=estimates)
        else:
            out.insert(draw(st.integers(0, len(out))), replace(u, estimates=[e]))
        return out, offender, True
    if kind == "drop":
        del estimates[n]
        out[j] = replace(u, estimates=estimates)
        return out, offender, e.pulls >= 1
    if kind == "rescale":
        c = draw(st.sampled_from([2, 3]))
        estimates[n] = replace(e, pulls=c * e.pulls, theta_hat=e.theta_hat / c)
        must_raise = e.pulls >= 1
    elif kind == "wrong shape":
        th = e.theta_hat
        estimates[n] = replace(e, theta_hat=draw(st.sampled_from(
            [th[:-1], np.append(th, 1.0), th[None], np.float64(th[0])])))
        must_raise = True
    elif kind == "non-finite":
        th = e.theta_hat.copy()
        th[draw(st.integers(0, len(th) - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        estimates[n] = replace(e, theta_hat=th)
        must_raise = True
    elif kind == "pulls":
        estimates[n] = replace(e, pulls=e.pulls + draw(st.sampled_from([-1, 1, 2])))
        must_raise = True
    else:  # "arm id"
        arm = e.arm + k * draw(st.sampled_from([-2, -1, 1, 2]))
        estimates[n] = replace(e, arm=arm)
        offender = (u.agent, arm, 1)
        must_raise = True
    out[j] = replace(u, estimates=estimates)
    return out, offender, must_raise


@PROFILE
@given(rounds(), st.sampled_from(PERTURBATIONS), st.data())
def test_perturbed_uploads_are_named_or_change_nothing(case, kind, data):
    m, k, _, _, _ = case
    uploads, issued, active, prev = phase_round(case)
    clean = outcome(aggregate_phase, uploads, issued, active, prev)
    perturbed, offender, must_raise = perturb(kind, uploads, m, k, data.draw)
    got = outcome(aggregate_phase, perturbed, issued, active, prev)
    if not named(got, offender, must_raise, kind):
        assert_same_outcome(got, clean)


ROSTER = ("duplicate", "drop", "agent id", "wrong phase", "reorder")


def perturb_roster(kind, uploads, m, draw, arms_of, items, stamps):
    """Apply one roster-level perturbation to a copy of the uploads.

    ``arms_of(u)`` is the arm list an error about upload ``u`` names and
    ``items`` the field ``reorder`` permutes.  Returns the perturbed list,
    the (agent, arm, phase) an error must name (None when nothing may be
    named) and whether the boundary must raise.
    """
    out = list(uploads)
    if kind == "reorder":
        out = [replace(u, **{items: draw(st.permutations(getattr(u, items)))})
               for u in draw(st.permutations(out))]
        return out, None, False
    j = draw(st.integers(0, len(out) - 1))
    u = out[j]
    if kind == "duplicate":
        out.insert(draw(st.integers(0, len(out))), u)
        return out, (u.agent, arms_of(u), u.phase), True
    if kind == "drop":
        del out[j]
        return out, None, True
    if kind == "wrong phase":
        out[j] = replace(u, phase=draw(st.sampled_from(stamps)))
    else:  # "agent id"
        out[j] = replace(u, agent=u.agent + m * draw(st.sampled_from([-2, -1, 1, 2])))
    return out, (out[j].agent, arms_of(u), out[j].phase), True


@PROFILE
@given(rounds(), st.sampled_from(ROSTER + ("arm id", "non-finite")), st.data())
def test_perturbed_init_uploads_are_named_or_change_nothing(case, kind, data):
    m, k, d, init, _ = case
    uploads = init_uploads(init)
    clean = outcome(aggregate_init, uploads, m, k, d)
    every_arm = list(range(k))
    if kind in ROSTER:
        perturbed, offender, must_raise = perturb_roster(
            kind, uploads, m, data.draw, lambda u: every_arm, "estimates", [1, 2, -1]
        )
        if kind == "drop":
            missing = min(set(range(m)) - {u.agent for u in perturbed})
            offender = (missing, every_arm, 0)
    else:
        perturbed = list(uploads)
        j = data.draw(st.integers(0, m - 1))
        n = data.draw(st.integers(0, k - 1))
        estimates = list(perturbed[j].estimates)
        e = estimates[n]
        if kind == "arm id":
            estimates[n] = replace(e, arm=e.arm + k * data.draw(st.sampled_from([-2, -1, 1, 2])))
            arm = sorted(x.arm for x in estimates)
        else:  # "non-finite"
            th = e.theta_hat.copy()
            th[data.draw(st.integers(0, d - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
            estimates[n] = replace(e, theta_hat=th)
            arm = e.arm
        perturbed[j] = replace(perturbed[j], estimates=estimates)
        offender, must_raise = (j, arm, 0), True
    got = outcome(aggregate_init, perturbed, m, k, d)
    if not named(got, offender, must_raise, kind):
        assert_same_outcome(got, clean)


# Nonzero init coordinates, so every drawn server initializes.
NONZERO = st.one_of(st.floats(0.1, 4.0), st.floats(-4.0, -0.1))


@st.composite
def planned_rounds(draw):
    """Nonzero init estimates and nonempty phase-1 active sets of m agents."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    init = [[draw(st.lists(NONZERO, min_size=d, max_size=d)) for _ in range(k)]
            for _ in range(m)]
    sets = [draw(st.lists(st.integers(0, k - 1), unique=True, min_size=1, max_size=k))
            for _ in range(m)]
    return m, k, d, init, sets


def plan(m, k, d, init, uploads):
    """The allocation a freshly initialized server plans from ``uploads``."""
    server = CentralServer(m, k, d)
    server.ingest_init(init_uploads(init))
    return outcome(server.plan_phase, uploads, 8)


@PROFILE
@given(planned_rounds(), st.sampled_from(ROSTER + ("arm id", "repeat arm")), st.data())
def test_perturbed_active_sets_are_named_or_change_nothing(case, kind, data):
    m, k, d, init, sets = case
    uploads = [ActiveSetUpload(agent=i, phase=1, arms=arms) for i, arms in enumerate(sets)]
    clean = plan(m, k, d, init, uploads)
    assert not isinstance(clean, Exception)
    if kind in ROSTER:
        perturbed, offender, must_raise = perturb_roster(
            kind, uploads, m, data.draw, lambda u: u.arms, "arms", [0, 2, -1]
        )
        if kind == "drop":
            missing = min(set(range(m)) - {u.agent for u in perturbed})
            # Before phase 1 every arm is in every agent's active set.
            offender = (missing, list(range(k)), 1)
    else:
        perturbed = list(uploads)
        j = data.draw(st.integers(0, m - 1))
        arms = list(perturbed[j].arms)
        n = data.draw(st.integers(0, len(arms) - 1))
        if kind == "arm id":
            arms[n] += k * data.draw(st.sampled_from([-2, -1, 1, 2]))
            arm = arms[n]
        else:  # "repeat arm"
            arm = arms[n]
            arms.insert(data.draw(st.integers(0, len(arms))), arm)
        perturbed[j] = replace(perturbed[j], arms=arms)
        offender, must_raise = (j, arm, 1), True
    got = plan(m, k, d, init, perturbed)
    if not named(got, offender, must_raise, kind):
        assert got == clean

"""The stacked aggregation against the per-arm loop it replaced, and the
federation boundary against perturbed uploads.

``loop_aggregate`` is the loop ``server._aggregate`` used to run: one arm
at a time, each term added to the running sums in agent order, one
pseudo-inverse and one PSD check per arm.  The stacked pass must give the
same outcome bit for bit: equal theta_hat and V for every arm, the same
carried-over models, and the same error where the loop raises one.

A perturbed round of phase estimates must either raise a ``ProtocolError``
that names the offending agent, arm and phase (or only the phase, for a
round not shaped for the server's M agents and K arms), or aggregate bit
for bit as the clean round does.  The same holds for the init round and
for the active sets a phase is planned from.  A round has one row per
agent and one column per arm, so a missing, repeated or out-of-range agent
or arm id can only show as a mis-shaped round, an unreported pair, a mask
that is not bool, or a second delivery of a whole round, which is stale.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpecd.errors import DegenerateArmError, NotPSDError, ProtocolError
from fedpecd.linalg import eigen_cutoff, pinv
from fedpecd.messages import GlobalBroadcast
from fedpecd.server import CentralServer, aggregate_init, aggregate_phase

from conftest import active_sets, broadcast, estimates

# Derandomized so tier-1 runs the same examples every time; no database.
PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def loop_aggregate(phase, collected, prev, k, d):
    """Per arm: V = pinv(sum_i f_i th th' / ||th||^2), theta = V (sum_i f_i th).

    Returns the broadcast over k arms with a model for each collected arm.
    """
    out = GlobalBroadcast(phase, np.zeros((k, d)), np.zeros((k, d, d)), np.zeros(k, dtype=bool))
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
        out.has_model[a] = True
        if gram is None:
            if prev is None:
                raise DegenerateArmError(f"all initial estimates for arm {a} are zero")
            out.theta[a], out.v[a] = prev.theta[a], prev.v[a]
            continue
        v = pinv(gram)
        w = np.linalg.eigvalsh(0.5 * (v + v.T))
        if float(w.min()) < -float(eigen_cutoff(w)):
            raise NotPSDError(f"aggregated V for arm {a} has eigenvalue {w.min()}")
        out.theta[a], out.v[a] = v @ linear, v
    return out


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
    assert np.array_equal(got.has_model, want.has_model)
    assert np.array_equal(got.theta, want.theta)
    assert np.array_equal(got.v, want.v)


def pairs_of(r):
    """The reported (agent, arm, theta_hat, pulls) of a round, in agent order."""
    return [(i, a, r.theta_hat[i, a], int(r.pulls[i, a])) for i, a in np.argwhere(r.arms).tolist()]


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


def init_round(init):
    """The phase-0 round of a drawn case: every agent, every arm, one pull."""
    k, d = len(init[0]), len(init[0][0])
    return estimates(0, [[(a, th, 1) for a, th in enumerate(row)] for row in init], k, d)


@PROFILE
@given(rounds())
def test_init_matches_the_loop(case):
    m, k, d, init, _ = case
    collected = {a: [(1, np.asarray(init[i][a], dtype=float)) for i in range(m)]
                 for a in range(k)}
    assert_same_outcome(outcome(aggregate_init, init_round(init), m, k, d),
                        outcome(loop_aggregate, 1, collected, None, k, d))


def phase_round(case):
    """The clean phase-1 round of a drawn case, with the server's issued
    counts, its roster mask and the phase-1 model they aggregate into."""
    m, k, d, _, phase = case
    prev = broadcast({a: (np.full(d, float(a)), np.eye(d)) for a in range(k)}, k)
    issued = np.zeros((m, k), dtype=int)
    active = np.zeros((m, k), dtype=bool)
    rows = []
    for i, pairs in enumerate(phase):
        rows.append([])
        for a, (f, th, extra) in pairs.items():
            issued[i, a], active[i, a] = f, True
            if f >= 1 or extra:
                rows[i].append((a, th, f))
    return estimates(1, rows, k, d), issued, active, prev


@PROFILE
@given(rounds())
def test_phase_matches_the_loop(case):
    round_, issued, active, prev = phase_round(case)
    k, d = prev.theta.shape
    union = np.flatnonzero(active.any(axis=0)).tolist()
    collected = {a: [(f, th) for _, arm, th, f in pairs_of(round_) if arm == a] for a in union}
    got = outcome(aggregate_phase, round_, issued, active, prev)
    assert_same_outcome(got, outcome(loop_aggregate, 2, collected, prev, k, d))
    if isinstance(got, GlobalBroadcast):
        for a in union:
            if not any(f >= 1 and np.any(th) for f, th in collected[a]):
                assert np.array_equal(got.theta[a], prev.theta[a])
                assert np.array_equal(got.v[a], prev.v[a])


def named(got, prefix, must_raise, kind):
    """Whether ``got`` is a ``ProtocolError``, which must start with
    ``prefix`` (its agent, arm and phase, or its phase); a perturbation
    that must raise fails if not."""
    if isinstance(got, ProtocolError):
        assert str(got).startswith(prefix), (str(got), prefix)
        return True
    assert not must_raise, f"{kind} was accepted"
    return False


def pair(i, a, phase):
    return f"agent {i}, arm {a}, phase {phase}: "


def stamped(r, j, draw, stamps):
    """``r`` with row j stamped from ``stamps``, and the prefix naming it."""
    phase = r.phase.copy()
    phase[j] = draw(st.sampled_from(stamps))
    return replace(r, phase=phase), pair(j, np.flatnonzero(r.arms[j]).tolist(), phase[j])


def reshaped_rows(r, draw):
    """``r`` with one row more or one fewer in every field, as if an agent
    id outside 0..M-1 had sent one or an agent had sent none."""
    if draw(st.booleans()):
        return replace(r, **{f: np.concatenate([v, v[-1:]]) for f, v in vars(r).items()})
    return replace(r, **{f: v[1:] for f, v in vars(r).items()})


def reshaped_arms(r, draw):
    """``r`` with one column more or one fewer in every per-pair field, as if
    an arm id outside 0..K-1 had been sent."""
    more = draw(st.booleans())
    return replace(r, **{f: np.concatenate([v, v[:, -1:]], axis=1) if more else v[:, 1:]
                         for f, v in vars(r).items() if f != "phase"})


def retyped(r, draw):
    """``r`` with its mask, or its pull counts, of a float or int dtype; every
    entry then offends and the first pair is named."""
    field = draw(st.sampled_from([f for f in ("arms", "pulls") if hasattr(r, f)]))
    dtype = draw(st.sampled_from([float, int])) if field == "arms" else float
    return replace(r, **{field: getattr(r, field).astype(dtype)})


PERTURBATIONS = (
    "drop", "rescale", "wrong phase", "wrong shape", "non-finite", "pulls",
    "agent id", "arm id", "float id", "unreported",
)


def perturb(kind, r, active, draw):
    """Apply one perturbation to a copy of the phase-1 round ``r``.

    Returns the perturbed round, the prefix an error must start with, and
    whether the boundary must raise.  "rescale" reports c times the pulls
    with 1/c of the estimate, the same pooled sum f * theta, which the
    server must not take in place of its own issued count.  "non-finite"
    and "pulls" may hit an unreported pair, whose entries carry nothing;
    "unreported" writes noise into every unreported entry.  "arm id"
    reports a pair outside the roster, or, when every pair is in it,
    resizes the arm axis.
    """
    m, k, d = r.theta_hat.shape
    r = replace(r, **{f: v.copy() for f, v in vars(r).items()})
    if kind == "wrong phase":
        return *stamped(r, draw(st.integers(0, m - 1)), draw, [0, 2, -1]), True
    if kind == "wrong shape":
        t = r.theta_hat
        return replace(r, theta_hat=draw(st.sampled_from(
            [t[..., :-1], np.append(t, np.ones((m, k, 1)), axis=-1), t[None], t.reshape(m, -1)]
        ))), "phase 1: ", True
    if kind == "agent id":
        return reshaped_rows(r, draw), "phase 1: ", True
    if kind == "float id":
        return retyped(r, draw), pair(0, 0, 1), True
    if kind == "unreported":
        noise = draw(st.sampled_from([np.nan, np.inf, 7.5]))
        r.theta_hat[~r.arms] = noise
        r.pulls[~r.arms] = draw(st.integers(-3, 9))
        return r, None, False
    if kind == "arm id":
        outside = np.argwhere(~active).tolist()
        if not outside:
            return reshaped_arms(r, draw), "phase 1: ", True
        # A zero-pull report matches the issued count: only the roster
        # check can refuse it.
        i, a = draw(st.sampled_from(outside))
        r.arms[i, a], r.theta_hat[i, a] = True, 1.0
        return r, pair(i, a, 1), True
    everywhere = kind in ("non-finite", "pulls")
    pairs = np.argwhere(np.ones((m, k), dtype=bool) if everywhere else r.arms).tolist()
    if not pairs:
        return r, None, False
    i, a = draw(st.sampled_from(pairs))
    reported, f = bool(r.arms[i, a]), int(r.pulls[i, a])
    if kind == "drop":
        r.arms[i, a] = False
        must_raise = f >= 1
    elif kind == "rescale":
        c = draw(st.sampled_from([2, 3]))
        r.theta_hat[i, a] /= c
        r.pulls[i, a] *= c
        must_raise = f >= 1
    elif kind == "non-finite":
        r.theta_hat[i, a, draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        must_raise = reported
    else:  # "pulls"
        r.pulls[i, a] += draw(st.sampled_from([-1, 1, 2]))
        must_raise = reported
    return r, pair(i, a, 1), must_raise


@PROFILE
@given(rounds(), st.sampled_from(PERTURBATIONS), st.data())
def test_perturbed_uploads_are_named_or_change_nothing(case, kind, data):
    round_, issued, active, prev = phase_round(case)
    clean = outcome(aggregate_phase, round_, issued, active, prev)
    perturbed, prefix, must_raise = perturb(kind, round_, active, data.draw)
    got = outcome(aggregate_phase, perturbed, issued, active, prev)
    if not named(got, prefix, must_raise, kind):
        assert_same_outcome(got, clean)


ROSTER = ("drop", "agent id", "float id", "wrong phase")


def perturb_roster(kind, r, phase, draw, stamps):
    """Apply one roster-level perturbation to a copy of the round ``r`` of
    ``phase``: empty agent j's row ("drop"), add or remove a row, retype a
    mask or count array, or restamp a row.  Returns the perturbed round,
    the prefix an error must start with (None for "drop", which the caller
    names) and whether the boundary must raise."""
    r = replace(r, **{f: v.copy() for f, v in vars(r).items()})
    if kind == "drop":
        r.arms[draw(st.integers(0, len(r.arms) - 1))] = False
        return r, None, True
    if kind == "agent id":
        return reshaped_rows(r, draw), f"phase {phase}: ", True
    if kind == "float id":
        return retyped(r, draw), pair(0, 0, phase), True
    return *stamped(r, draw(st.integers(0, len(r.arms) - 1)), draw, stamps), True


def dropped(r):
    """The first agent whose row of ``r`` is empty."""
    return int(np.flatnonzero(~r.arms.any(axis=1))[0])


@PROFILE
@given(rounds(), st.sampled_from(ROSTER + ("arm id", "non-finite")), st.data())
def test_perturbed_init_uploads_are_named_or_change_nothing(case, kind, data):
    m, k, d, init, _ = case
    round_ = init_round(init)
    clean = outcome(aggregate_init, round_, m, k, d)
    if kind in ROSTER:
        perturbed, prefix, must_raise = perturb_roster(kind, round_, 0, data.draw, [1, 2, -1])
        if kind == "drop":
            # The agent's first arm was issued its one init pull.
            prefix = pair(dropped(perturbed), 0, 0)
    elif kind == "arm id":
        # Every arm is in every agent's init roster: an id outside 0..K-1
        # can only resize the arm axis.
        perturbed, prefix, must_raise = reshaped_arms(round_, data.draw), "phase 0: ", True
    else:  # "non-finite"
        j = data.draw(st.integers(0, m - 1))
        n = data.draw(st.integers(0, k - 1))
        theta = round_.theta_hat.copy()
        theta[j, n, data.draw(st.integers(0, d - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        perturbed, prefix, must_raise = replace(round_, theta_hat=theta), pair(j, n, 0), True
    got = outcome(aggregate_init, perturbed, m, k, d)
    if not named(got, prefix, must_raise, kind):
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


def plan(m, k, d, init, upload):
    """The allocation a freshly initialized server plans from ``upload``,
    as plain lists."""
    server = CentralServer(m, k, d)
    server.ingest_init(init_round(init))
    got = outcome(server.plan_phase, upload, 8)
    if isinstance(got, Exception):
        return got
    return got.phase.tolist(), got.arms.tolist(), got.counts.tolist()


@PROFILE
@given(planned_rounds(), st.sampled_from(ROSTER + ("arm id", "repeat arm", "empty")),
       st.data())
def test_perturbed_active_sets_are_named_or_change_nothing(case, kind, data):
    m, k, d, init, sets = case
    upload = active_sets(sets, k, 1)
    clean = plan(m, k, d, init, upload)
    assert not isinstance(clean, Exception)
    if kind in ROSTER:
        perturbed, prefix, must_raise = perturb_roster(kind, upload, 1, data.draw, [0, 2, -1])
        if kind == "drop":
            prefix = pair(dropped(perturbed), [], 1)
    elif kind == "arm id":
        # Before phase 1 every arm is in every agent's roster.
        perturbed, prefix, must_raise = reshaped_arms(upload, data.draw), "phase 1: ", True
    else:
        j = data.draw(st.integers(0, m - 1))
        arms = upload.arms.copy()
        if kind == "repeat arm":
            # A mask cannot repeat an arm; an int array counting one twice
            # is not a mask, and its first pair is named.
            arms = arms.astype(int)
            arms[j, data.draw(st.sampled_from(np.flatnonzero(arms[j]).tolist()))] = 2
            prefix = pair(0, 0, 1)
        else:  # "empty"
            arms[j] = False
            prefix = pair(j, [], 1)
        perturbed, must_raise = replace(upload, arms=arms), True
    got = plan(m, k, d, init, perturbed)
    if not named(got, prefix, must_raise, kind):
        assert got == clean


@PROFILE
@given(planned_rounds())
def test_second_delivery_of_a_round_is_stale(case):
    """A round has one row per agent, so a repeated upload can only come as a
    second delivery of a whole round.  Once the server has moved past the
    round's phase it is stale: named and changing nothing."""
    m, k, d, init, sets = case
    server = CentralServer(m, k, d)
    server.ingest_init(init_round(init))
    named(outcome(server.ingest_init, init_round(init)), "phase 1: ", True, "init again")
    sets_round = active_sets(sets, k, 1)
    alloc = server.plan_phase(sets_round, 8)
    planned = (server.active, server.issued, server.design)
    named(outcome(server.plan_phase, sets_round, 8), "phase 1: stale active-set round", True,
          "active sets again")
    assert all(now is then for now, then in zip((server.active, server.issued, server.design),
                                                planned))
    rows = [[(a, np.ones(d), f) for a, f in enumerate(row) if f >= 1]
            for row in alloc.counts.tolist()]
    est_round = estimates(1, rows, k, d)
    model = server.ingest_phase(est_round)
    state = (server.active, server.issued, server.design)
    for deliver, r in ((server.ingest_phase, est_round),
                       (lambda r: server.plan_phase(r, 8), sets_round)):
        got = outcome(deliver, r)
        named(got, pair(0, np.flatnonzero(r.arms[0]).tolist(), 1), True, "second delivery")
        assert str(got).endswith("expected phase 2")
    assert server.model is model
    assert all(now is then for now, then in zip((server.active, server.issued, server.design), state))

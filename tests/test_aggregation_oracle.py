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
active sets a phase is planned from: a missing, repeated, out-of-range or
float agent id is named too.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpecd.errors import DegenerateArmError, NotPSDError, ProtocolError
from fedpecd.linalg import eigen_cutoff, pinv
from fedpecd.messages import ActiveSetUpload, GlobalBroadcast
from fedpecd.server import CentralServer, aggregate_init, aggregate_phase

from conftest import broadcast, upload

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


def rows_of(u):
    return list(zip(u.arms.tolist(), u.theta_hat, u.pulls.tolist()))


def permuted(u, order):
    """``u`` with its rows, every per-arm field, in ``order``."""
    if isinstance(u, ActiveSetUpload):
        return replace(u, arms=[u.arms[n] for n in order])
    order = np.array(order, dtype=int)
    return replace(u, arms=u.arms[order], theta_hat=u.theta_hat[order], pulls=u.pulls[order])


def shuffled(uploads, draw):
    """The uploads in a drawn order, each with its rows in a drawn order."""
    return [permuted(u, draw(st.permutations(range(len(u.arms)))))
            for u in draw(st.permutations(uploads))]


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
    return [upload(i, 0, [(a, th, 1) for a, th in enumerate(row)], len(row[0]))
            for i, row in enumerate(init)]


@PROFILE
@given(rounds())
def test_init_matches_the_loop(case):
    m, k, d, init, _ = case
    uploads = init_uploads(init)
    collected = {a: [(1, np.asarray(init[i][a], dtype=float)) for i in range(m)]
                 for a in range(k)}
    assert_same_outcome(outcome(aggregate_init, uploads, m, k, d),
                        outcome(loop_aggregate, 1, collected, None, k, d))


def phase_round(case):
    """The clean phase-1 uploads of a drawn round, with the server's issued
    counts, its roster mask and the phase-1 model they aggregate into."""
    m, k, d, _, phase = case
    prev = broadcast({a: (np.full(d, float(a)), np.eye(d)) for a in range(k)}, k)
    issued = np.zeros((m, k), dtype=int)
    active = np.zeros((m, k), dtype=bool)
    uploads = []
    for i, pairs in enumerate(phase):
        rows = []
        for a, (f, th, extra) in pairs.items():
            issued[i, a], active[i, a] = f, True
            if f >= 1 or extra:
                rows.append((a, th, f))
        uploads.append(upload(i, 1, rows, d))
    return uploads, issued, active, prev


@PROFILE
@given(rounds())
def test_phase_matches_the_loop(case):
    uploads, issued, active, prev = phase_round(case)
    k, d = prev.theta.shape
    union = np.flatnonzero(active.any(axis=0)).tolist()
    collected = {
        a: [(f, th) for u in uploads for arm, th, f in rows_of(u) if arm == a] for a in union
    }
    got = outcome(aggregate_phase, uploads, issued, active, prev)
    assert_same_outcome(got, outcome(loop_aggregate, 2, collected, prev, k, d))
    if isinstance(got, GlobalBroadcast):
        for a in union:
            if not any(f >= 1 and np.any(th) for f, th in collected[a]):
                assert np.array_equal(got.theta[a], prev.theta[a])
                assert np.array_equal(got.v[a], prev.v[a])


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
    "pulls", "agent id", "arm id", "float id", "reorder",
)


def float_ids(u, draw):
    """``u`` with its agent id, or its arm ids, as floats of the same values;
    an upload without arms gets a float agent id."""
    if not len(u.arms) or draw(st.booleans()):
        return replace(u, agent=float(u.agent))
    arms = np.asarray(u.arms, dtype=float)
    return replace(u, arms=arms.tolist() if isinstance(u, ActiveSetUpload) else arms)


def perturb(kind, uploads, m, k, d, draw):
    """Apply one perturbation to the rows of a copy of the uploads.

    Returns the perturbed list, the (agent, arm, phase) an error must name,
    and whether the boundary must raise.  "reorder" permutes the uploads
    and the rows of each.  "rescale" reports c times the pulls with 1/c of
    the estimate, the same pooled sum f * theta, which the server must not
    take in place of its own issued count.  "wrong shape" reshapes an
    upload's whole theta_hat, so the error names its arm list.  Agent and
    arm ids move out of range by whole multiples of M or K, negative ones
    included, where they would wrap onto a valid pair.  "float id" keeps
    an upload's ids in range but makes them floats.
    """
    out = list(uploads)
    if kind == "reorder":
        return shuffled(out, draw), None, False
    if kind in ("wrong phase", "agent id", "float id"):
        j = draw(st.integers(0, len(out) - 1))
        u = out[j]
        if kind == "wrong phase":
            out[j] = replace(u, phase=draw(st.sampled_from([0, 2, -1])))
        elif kind == "agent id":
            out[j] = replace(u, agent=u.agent + m * draw(st.sampled_from([-2, -1, 1, 2])))
        else:
            out[j] = float_ids(u, draw)
        return out, (out[j].agent, out[j].arms.tolist(), out[j].phase), True
    pairs = [(j, n) for j, u in enumerate(out) for n in range(len(u.arms))]
    if not pairs:
        return out, None, False
    j, n = draw(st.sampled_from(pairs))
    u = out[j]
    rows = rows_of(u)
    arm, th, f = rows[n]
    offender = (u.agent, arm, 1)
    must_raise = True
    if kind == "duplicate":
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), rows[n])
        else:
            # A second upload from the agent, named by its arm list.
            out.insert(draw(st.integers(0, len(out))), upload(u.agent, 1, [rows[n]], d))
            second = [x for x in out if x.agent == u.agent][1]
            return out, (u.agent, second.arms.tolist(), 1), True
    elif kind == "wrong shape":
        t = u.theta_hat
        out[j] = replace(u, theta_hat=draw(st.sampled_from(
            [t[:, :-1], np.append(t, np.ones((len(t), 1)), axis=1), t[None], t.ravel()])))
        return out, (u.agent, u.arms.tolist(), 1), True
    elif kind == "drop":
        del rows[n]
        must_raise = f >= 1
    elif kind == "rescale":
        c = draw(st.sampled_from([2, 3]))
        rows[n] = (arm, th / c, c * f)
        must_raise = f >= 1
    elif kind == "non-finite":
        th = th.copy()
        th[draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        rows[n] = (arm, th, f)
    elif kind == "pulls":
        rows[n] = (arm, th, f + draw(st.sampled_from([-1, 1, 2])))
    else:  # "arm id"
        arm += k * draw(st.sampled_from([-2, -1, 1, 2]))
        rows[n] = (arm, th, f)
        offender = (u.agent, arm, 1)
    out[j] = upload(u.agent, 1, rows, d)
    return out, offender, must_raise


@PROFILE
@given(rounds(), st.sampled_from(PERTURBATIONS), st.data())
def test_perturbed_uploads_are_named_or_change_nothing(case, kind, data):
    m, k, d, _, _ = case
    uploads, issued, active, prev = phase_round(case)
    clean = outcome(aggregate_phase, uploads, issued, active, prev)
    perturbed, offender, must_raise = perturb(kind, uploads, m, k, d, data.draw)
    got = outcome(aggregate_phase, perturbed, issued, active, prev)
    if not named(got, offender, must_raise, kind):
        assert_same_outcome(got, clean)


ROSTER = ("duplicate", "drop", "agent id", "float id", "wrong phase", "reorder")


def perturb_roster(kind, uploads, m, draw, stamps):
    """Apply one roster-level perturbation to a copy of the uploads.

    Returns the perturbed list, the (agent, arm, phase) an error must name
    (None when nothing may be named) and whether the boundary must raise.
    An error about an upload names its arm list.
    """
    out = list(uploads)
    if kind == "reorder":
        return shuffled(out, draw), None, False
    j = draw(st.integers(0, len(out) - 1))
    u = out[j]
    arms = np.asarray(u.arms).tolist()
    if kind == "duplicate":
        out.insert(draw(st.integers(0, len(out))), u)
        return out, (u.agent, arms, u.phase), True
    if kind == "drop":
        del out[j]
        return out, None, True
    if kind == "wrong phase":
        out[j] = replace(u, phase=draw(st.sampled_from(stamps)))
    elif kind == "agent id":
        out[j] = replace(u, agent=u.agent + m * draw(st.sampled_from([-2, -1, 1, 2])))
    else:  # "float id"
        out[j] = float_ids(u, draw)
    return out, (out[j].agent, np.asarray(out[j].arms).tolist(), out[j].phase), True


@PROFILE
@given(rounds(), st.sampled_from(ROSTER + ("arm id", "non-finite")), st.data())
def test_perturbed_init_uploads_are_named_or_change_nothing(case, kind, data):
    m, k, d, init, _ = case
    uploads = init_uploads(init)
    clean = outcome(aggregate_init, uploads, m, k, d)
    if kind in ROSTER:
        perturbed, offender, must_raise = perturb_roster(
            kind, uploads, m, data.draw, [1, 2, -1]
        )
        if kind == "drop":
            missing = min(set(range(m)) - {u.agent for u in perturbed})
            offender = (missing, list(range(k)), 0)
    else:
        perturbed = list(uploads)
        j = data.draw(st.integers(0, m - 1))
        n = data.draw(st.integers(0, k - 1))
        rows = rows_of(perturbed[j])
        arm, th, f = rows[n]
        if kind == "arm id":
            arm += k * data.draw(st.sampled_from([-2, -1, 1, 2]))
        else:  # "non-finite"
            th = th.copy()
            th[data.draw(st.integers(0, d - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
        rows[n] = (arm, th, f)
        perturbed[j] = upload(j, 0, rows, d)
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
    """The allocations a freshly initialized server plans from ``uploads``,
    as (agent, phase, arms, counts) tuples of plain values."""
    server = CentralServer(m, k, d)
    server.ingest_init(init_uploads(init))
    got = outcome(server.plan_phase, uploads, 8)
    if isinstance(got, Exception):
        return got
    return [(x.agent, x.phase, x.arms.tolist(), x.counts.tolist()) for x in got]


@PROFILE
@given(planned_rounds(), st.sampled_from(ROSTER + ("arm id", "repeat arm", "empty")),
       st.data())
def test_perturbed_active_sets_are_named_or_change_nothing(case, kind, data):
    m, k, d, init, sets = case
    uploads = [ActiveSetUpload(agent=i, phase=1, arms=arms) for i, arms in enumerate(sets)]
    clean = plan(m, k, d, init, uploads)
    assert not isinstance(clean, Exception)
    if kind in ROSTER:
        perturbed, offender, must_raise = perturb_roster(
            kind, uploads, m, data.draw, [0, 2, -1]
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
        elif kind == "repeat arm":
            arm = arms[n]
            arms.insert(data.draw(st.integers(0, len(arms))), arm)
        else:  # "empty"
            arms = arm = []
        perturbed[j] = replace(perturbed[j], arms=arms)
        offender, must_raise = (j, arm, 1), True
    got = plan(m, k, d, init, perturbed)
    if not named(got, offender, must_raise, kind):
        assert got == clean

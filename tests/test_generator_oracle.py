"""The two-stage scenario generator against the per-arm generator it replaced.

``oracle_generate_synthetic`` and its three helpers are the generator as it
was: every feature vector built one arm at a time, with its draws and its
vector math interleaved.  Two changes only: its name, and that it reads
``harness.MAX_REJECTIONS`` at call time, so a test can lower the redraw
limit for both sides.  ``generate_synthetic`` draws each agent's values in
the same stream order and does the vector math in bulk; on every spec, seed
and variant it must give the same ``features``, ``mu``, ``rewards`` and
``name`` bit for bit, or raise the same ``InfeasibleSpecError`` text.

A stub generator replaces chosen normal draws of chosen agents' streams
with zero vectors, or with vectors parallel to the shared theta = e1.  Such
a direction is degenerate (norm at most 1e-9 after projection) and must be
drawn again, which no real stream does in practice; the two sides must
still agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fedpecd.harness as harness
from fedpecd.errors import ConfigurationError, InfeasibleSpecError
from fedpecd.harness import (
    RHO,
    THETA_SCALE_RANGE,
    SyntheticSpec,
    desk_spec,
    generate_synthetic,
    movielens_like_spec,
)
from fedpecd.model import Bounds, Scenario
from fedpecd.protocol import checked_variant

# Derandomized so tier-1 runs the same examples every time; no database.
PROFILE = settings(derandomize=True, deadline=None, database=None)

REAL_GENERATOR = np.random.Generator


def _offset(rng, d: int, magnitude: float, orthogonal_to=None) -> np.ndarray:
    """Random vector of the given magnitude, orthogonal to `orthogonal_to` if given."""
    if magnitude == 0.0:
        return np.zeros(d)
    unit = None if orthogonal_to is None else orthogonal_to / np.linalg.norm(orthogonal_to)
    for _ in range(harness.MAX_REJECTIONS):
        w = rng.normal(size=d)
        if unit is not None:
            w -= (w @ unit) * unit
        nrm = float(np.linalg.norm(w))
        if nrm > 1e-9:
            return (magnitude / nrm) * w
    raise InfeasibleSpecError("could not sample a perturbation direction")


def _feature_for_reward(rng, theta: np.ndarray, reward: float,
                        norm_lo: float, norm_hi: float,
                        reach: float = 0.0) -> np.ndarray:
    """Vector phi with theta' phi = reward and ||phi|| in [norm_lo, norm_hi].

    `reach` raises the norm floor so the vector can later be retargeted to
    a reward of that magnitude without changing its norm.
    """
    theta_norm = float(np.linalg.norm(theta))
    base = (reward / theta_norm**2) * theta
    base_norm = float(np.linalg.norm(base))
    if max(base_norm, reach / theta_norm) > norm_hi + 1e-12:
        raise InfeasibleSpecError(
            f"reward {reward} (reach {reach}) unreachable within norm bound {norm_hi}"
        )
    lo = max(norm_lo, base_norm, reach / theta_norm)
    target = float(rng.uniform(lo, norm_hi))
    tail = math.sqrt(max(target**2 - base_norm**2, 0.0))
    if tail == 0.0:
        return base
    return base + _offset(rng, len(theta), tail, theta)


def _retarget_reward(rng, theta: np.ndarray, feat: np.ndarray,
                     new_reward: float) -> np.ndarray:
    """Feature with the same norm and tail direction as `feat` but whose
    expected reward under `theta` is `new_reward`.

    Keeping the tail direction aligned with the original keeps the angle
    between old and new feature small, which protects the mixture psi's
    norm floor.
    """
    theta_norm = float(np.linalg.norm(theta))
    unit = theta / theta_norm
    norm = float(np.linalg.norm(feat))
    along = new_reward / theta_norm
    if abs(along) > norm + 1e-12:
        raise InfeasibleSpecError(
            f"reward {new_reward} unreachable at feature norm {norm}"
        )
    tail = feat - (feat @ unit) * unit
    tail_norm = float(np.linalg.norm(tail))
    tail_dir = tail / tail_norm if tail_norm > 1e-12 else _offset(rng, len(theta), 1.0, theta)
    tail_len = math.sqrt(max(norm**2 - along**2, 0.0))
    return along * unit + tail_len * tail_dir


def oracle_generate_synthetic(spec: SyntheticSpec, seed, variant: str = "hidden") -> Scenario:
    """Random scenario honoring a SyntheticSpec's gap, norm, and mixing settings.

    variant="hidden" gives each agent a mixture over its true context and
    `spec.copies` perturbed copies; variant="exact" gives point masses.
    """
    checked_variant(variant)
    root = np.random.SeedSequence(seed)
    theta_stream, agent_root = root.spawn(2)
    theta_rng = np.random.Generator(np.random.PCG64(theta_stream))
    agent_streams = agent_root.spawn(spec.M)

    lo, hi = spec.norm_range
    base_lo, base_hi = lo + spec.perturbation, hi - spec.perturbation

    if spec.theta_mode == "shared":
        theta = np.zeros(spec.d)
        theta[0] = 1.0
        thetas = [theta] * spec.K
    else:
        thetas = []
        for _ in range(spec.K):
            v = theta_rng.normal(size=spec.d)
            v /= np.linalg.norm(v)
            thetas.append(float(theta_rng.uniform(*THETA_SCALE_RANGE)) * v)

    gap_lo, gap_hi = spec.gap_range

    rows: list[np.ndarray] = []  # rows[c]: the (K, d) features of context id c
    weights: list[tuple[int, int, float]] = []  # (agent, context id, mu entry)
    for i in range(spec.M):
        rng = np.random.Generator(np.random.PCG64(agent_streams[i]))
        best = int(rng.integers(spec.K))
        r_best = float(rng.uniform(*spec.best_reward_range))
        rewards = np.empty(spec.K)
        for a in range(spec.K):
            if a == best:
                rewards[a] = r_best
            else:
                rewards[a] = r_best - float(rng.uniform(gap_lo, gap_hi))

        # Contested agents: the perturbed copies prefer a rival arm the
        # base context does not, so the mixture average ties the top two.
        rival = -1
        if spec.contested_frac > 0.0 and float(rng.random()) < spec.contested_frac:
            rival = int(rng.integers(spec.K - 1))
            if rival >= best:
                rival += 1
            rewards[rival] = r_best - float(rng.uniform(*spec.contested_gap_range))

        base_id = len(rows)
        # One unread draw per context keeps every later draw, so every scenario, fixed.
        rng.normal(size=spec.d)
        base_feats = np.empty((spec.K, spec.d))
        for a in range(spec.K):
            reach = 0.0
            if rival >= 0 and a in (best, rival):
                reach = max(abs(rewards[best]), abs(rewards[rival]))
            base_feats[a] = _feature_for_reward(
                rng, thetas[a], rewards[a], base_lo, base_hi, reach=reach
            )
        rows.append(base_feats)

        if variant == "exact":
            weights.append((i, base_id, 1.0))
            continue

        copy_ids = []
        for _ in range(spec.copies):
            cid = len(rows)
            rng.normal(size=spec.d)  # the copy's unread draw
            row = np.empty((spec.K, spec.d))
            for a in range(spec.K):
                if rival >= 0 and a in (best, rival):
                    swapped = rewards[rival] if a == best else rewards[best]
                    row[a] = _retarget_reward(rng, thetas[a], base_feats[a], swapped)
                else:
                    mag = spec.perturbation * float(rng.uniform(0.5, 1.0))
                    row[a] = base_feats[a] + _offset(rng, spec.d, mag)
            rows.append(row)
            copy_ids.append(cid)
        weights.append((i, base_id, 1.0 - RHO))
        weights += [(i, cid, RHO / spec.copies) for cid in copy_ids]

    mu = np.zeros((spec.M, len(rows)))
    agent_ids, context_ids, probs = zip(*weights)
    mu[agent_ids, context_ids] = probs
    return Scenario(
        bounds=Bounds(ell=lo, big_l=hi, s=1.0),
        rewards=thetas,
        features=np.stack(rows, axis=1),
        mu=mu,
        sigma=spec.sigma,
        name=f"{spec.name}-K{spec.K}-d{spec.d}-M{spec.M}",
    )


def outcome(generate, spec, seed, variant):
    """A scenario's exact bits, or the text of the InfeasibleSpecError it raised."""
    try:
        sc = generate(spec, seed, variant)
    except InfeasibleSpecError as exc:
        return "raised", str(exc)
    return (sc.features.shape, sc.features.tobytes(), sc.mu.shape, sc.mu.tobytes(),
            sc.rewards.shape, sc.rewards.tobytes(), sc.name)


def assert_same(spec, seed, variant):
    expected = outcome(oracle_generate_synthetic, spec, seed, variant)
    assert outcome(generate_synthetic, spec, seed, variant) == expected
    return expected


# A tailless base feature: the norm band [lo + p, hi - p] is one point, and
# the best reward sits on it, so the best arm's base feature is theta's
# direction alone.  Its contested copies each draw their own tail direction.
TAILLESS = SyntheticSpec(K=5, M=6, norm_range=(0.7, 0.9), perturbation=0.1,
                         best_reward_range=(0.8, 0.8), gap_range=(0.1, 0.3),
                         contested_frac=1.0, copies=3, name="tailless")


@st.composite
def specs(draw):
    """Specs over the generator's whole range, some infeasible on purpose: a
    best reward above the norm band cannot be reached."""
    lo = draw(st.floats(0.05, 0.95))
    hi = draw(st.floats(lo, 1.0))
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, (hi - lo) / 2)))
    best_lo = draw(st.floats(0.05, 1.2))
    gap_lo = draw(st.floats(0.01, 0.6))
    clo = draw(st.floats(0.01, 0.4))
    try:
        return SyntheticSpec(
            K=draw(st.integers(2, 12)),
            d=draw(st.integers(2, 5)),
            M=draw(st.integers(1, 8)),
            gap_range=(gap_lo, draw(st.floats(gap_lo, 0.8))),
            norm_range=(lo, hi),
            best_reward_range=(best_lo, draw(st.floats(best_lo, 1.3))),
            perturbation=p,
            copies=draw(st.integers(1, 4)),
            theta_mode=draw(st.sampled_from(["shared", "per_arm"])),
            contested_frac=draw(st.sampled_from([0.0, 0.5, 1.0])),
            contested_gap_range=(clo, draw(st.floats(clo, 0.5))),
        )
    except ConfigurationError:
        assume(False)


seeds = st.one_of(st.integers(0, 2**32), st.tuples(st.integers(0, 99), st.integers(0, 3), st.integers(0, 9)))
variants = st.sampled_from(["hidden", "exact"])


class TestOracle:
    @settings(PROFILE, max_examples=300)
    @given(specs(), seeds, variants)
    def test_matches_the_per_arm_generator(self, spec, seed, variant):
        assert_same(spec, seed, variant)

    @pytest.mark.parametrize("variant", ["hidden", "exact"])
    @pytest.mark.parametrize("spec", [SyntheticSpec(M=12), desk_spec(12), movielens_like_spec(12)],
                             ids=["synthetic", "desk", "movielens-like"])
    def test_presets_match(self, spec, variant):
        for seed in range(3):
            assert_same(spec, seed, variant)

    def test_per_arm_thetas_match(self):
        """Each arm's tail is made orthogonal to its own theta."""
        spec = SyntheticSpec(K=6, d=4, M=8, theta_mode="per_arm", contested_frac=0.5)
        for seed in range(3):
            assert_same(spec, seed, "hidden")

    def test_theta_squares_keep_the_bits_of_pow(self):
        """The per-arm code squared ||theta_a|| with Python's ``**`` (libm's
        pow), which differs from ``x * x`` in the last bit for some values;
        seed 123 draws one such norm."""
        spec = SyntheticSpec(K=12, M=4, theta_mode="per_arm")
        norms = [float(np.linalg.norm(t)) for t in generate_synthetic(spec, 123).rewards]
        assert any(t**2 != t * t for t in norms)
        assert_same(spec, 123, "hidden")

    def test_tailless_base_feature_draws_a_direction_per_copy(self):
        for seed in range(3):
            sc = generate_synthetic(TAILLESS, seed)
            assert_same(TAILLESS, seed, "hidden")
            best = int(np.argmax([sc.rewards[a] @ sc.features[a, 0] for a in range(TAILLESS.K)]))
            assert sc.features[best, 0].tolist() == [0.8, 0.0, 0.0]
            assert len({tuple(row) for row in sc.features[best, 1:4].tolist()}) == 3

    @pytest.mark.parametrize("spec, named", [
        (SyntheticSpec(M=4, best_reward_range=(0.95, 0.99), norm_range=(0.5, 0.9)),
         "unreachable within norm bound 0.8"),
        (SyntheticSpec(M=4, K=3, best_reward_range=(0.7, 0.9), norm_range=(0.5, 0.9),
                       contested_frac=1.0, theta_mode="per_arm"),
         "unreachable within norm bound 0.8"),
    ], ids=["best-reward-above-band", "contested-reach-above-band"])
    def test_infeasible_specs_raise_the_same_text(self, spec, named):
        for variant in ("hidden", "exact"):
            for seed in range(4):
                expected = assert_same(spec, seed, variant)
                assert expected[0] == "raised" and named in expected[1]


def stub_generator(plan):
    """A Generator class whose normal draws are replaced where ``plan`` says.

    ``plan[(agent, call)]`` is "zero" or "parallel" (to e1): the stub counts
    each agent stream's ``normal`` calls from 0 and returns that vector in
    place of the draw, after drawing it, at those calls.
    """
    class StubGenerator:
        def __init__(self, bit_generator):
            self._rng = REAL_GENERATOR(bit_generator)
            key = bit_generator.seed_seq.spawn_key
            # Agent i's stream is child i of the root's second child.
            self._plan = {call: kind for (agent, call), kind in plan.items()
                          if key == (1, agent)}
            self._calls = 0

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def normal(self, size=None):
            w = self._rng.normal(size=size)
            kind = self._plan.get(self._calls)
            self._calls += 1
            if kind is None:
                return w
            out = np.zeros_like(w)
            if kind == "parallel":
                out[0] = 0.7
            return out

    return StubGenerator


def stubbed_outcomes(monkeypatch, plan, spec, seed, variant="hidden"):
    """Both generators' outcomes under the stub, the oracle's first."""
    monkeypatch.setattr(np.random, "Generator", stub_generator(plan))
    return (outcome(oracle_generate_synthetic, spec, seed, variant),
            outcome(generate_synthetic, spec, seed, variant))


class TestRedraw:
    """A degenerate direction is drawn again in place, which moves every
    later draw of the agent's stream."""

    SPEC = SyntheticSpec(K=4, M=3, copies=2)

    def test_degenerate_directions_are_drawn_again(self):
        # Agent 0 draws call 0 unread, calls 1-4 for its base tails, call 5
        # unread for copy 0, and then one offset per arm.
        plan = {(0, 1): "parallel", (0, 3): "zero", (0, 4): "zero", (0, 7): "zero",
                (1, 6): "parallel", (2, 2): "parallel", (2, 3): "parallel"}
        with pytest.MonkeyPatch.context() as mp:
            expected, got = stubbed_outcomes(mp, plan, self.SPEC, 5)
        assert got == expected
        assert expected != outcome(generate_synthetic, self.SPEC, 5, "hidden")

    @settings(PROFILE, max_examples=150)
    @given(specs(), seeds, variants,
           st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 60)),
                           st.sampled_from(["zero", "parallel"]), max_size=12))
    def test_stubbed_streams_match_the_per_arm_generator(self, spec, seed, variant, plan):
        with pytest.MonkeyPatch.context() as mp:
            expected, got = stubbed_outcomes(mp, plan, spec, seed, variant)
        assert got == expected

    @pytest.mark.parametrize("spec", [SPEC, TAILLESS], ids=["offsets", "tailless"])
    def test_redraw_limit_raises_as_before(self, spec):
        """Three degenerate draws in a row exhaust a limit of 3 in the slot
        they start, unless the first is an unread draw."""
        raised = []
        for start in range(1, 4 * spec.K):
            plan = {(1, start + j): "zero" for j in range(3)}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "MAX_REJECTIONS", 3)
                expected, got = stubbed_outcomes(mp, plan, spec, 2)
            assert got == expected
            raised.append(expected == ("raised", "could not sample a perturbation direction"))
        assert any(raised) and not all(raised)

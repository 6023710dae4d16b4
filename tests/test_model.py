from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from fedpecd.errors import ConfigurationError, ValidationError
from fedpecd.harness import SyntheticSpec, desk_spec, generate_synthetic, load_features
from fedpecd.model import Bounds, ContextDistribution, Scenario, build_psi_set

# A floor low enough that build_psi_set accepts any psi these tests mix.
LOOSE = Bounds(ell=1e-6, big_l=1.0, s=1.0)


def make_scenario(features, rewards=None, mus=None, bounds=LOOSE, **kw):
    """A Scenario over the (K, C, d) ``features``; theta_a = e_1 and one
    agent at context 0 unless given."""
    features = np.asarray(features, dtype=float)
    k, _, d = features.shape
    if rewards is None:
        rewards = np.tile(np.eye(d)[0], (k, 1))
    if mus is None:
        mus = [ContextDistribution.point_mass(0)]
    return Scenario(d=d, K=k, M=len(mus), bounds=bounds, rewards=rewards,
                    features=features, mus=mus, **kw)


def psi_of(features, mu, arm=0):
    """psi(arm) under mu, computed by build_psi_set."""
    return build_psi_set(np.asarray(features, dtype=float), [mu], LOOSE)[0, arm]


def per_pair_psi(features, mus):
    """The per-(agent, arm) loop that build_psi_set replaced, kept as its
    bit oracle: each psi sums its support terms in context-id order."""
    k, _, d = features.shape
    out = np.empty((len(mus), k, d))
    for i, mu in enumerate(mus):
        for a in range(k):
            v = np.zeros(d)
            for c, p in zip(mu.ids, mu.probs):
                v += p * features[a, c]
            out[i, a] = v
    return out


class TestBounds:
    def test_valid(self):
        Bounds(ell=0.5, big_l=1.0, s=2.0)

    @pytest.mark.parametrize("ell,big_l,s", [
        (0.0, 1.0, 1.0),     # ell must be positive
        (0.8, 0.5, 1.0),     # ell <= L
        (0.5, 1.5, 1.0),     # L <= 1
        (0.5, 1.0, -1.0),    # s >= 0
    ])
    def test_invalid(self, ell, big_l, s):
        with pytest.raises(ValidationError):
            Bounds(ell=ell, big_l=big_l, s=s)


class TestContextDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ContextDistribution([(0, 0.5), (1, 0.4)])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError):
            ContextDistribution([(0, 1.2), (1, -0.2)])

    @pytest.mark.parametrize("support", [[(0, np.nan)], [(0, np.nan), (1, 1.0)]])
    def test_nan_probability_rejected(self, support):
        with pytest.raises(ValidationError, match="NaN probability"):
            ContextDistribution(support)

    def test_empty_support_rejected(self):
        with pytest.raises(ValidationError):
            ContextDistribution([])

    def test_point_mass(self):
        mu = ContextDistribution.point_mass(7)
        assert mu.is_point_mass and mu.ids == (7,)

    def test_sampling_is_seed_deterministic(self):
        mu = ContextDistribution([(0, 0.3), (1, 0.7)])
        draws1 = [mu.sample(np.random.default_rng(5)) for _ in range(4)]
        draws2 = [mu.sample(np.random.default_rng(5)) for _ in range(4)]
        assert draws1 == draws2


class TestFeatureMap:
    """The scenario's read-only (K, C, d) feature array phi."""

    def test_norm_bounds_enforced(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=1.0)
        with pytest.raises(ValidationError, match=r"\|\|phi\[0, 1\]\|\| = 0.1"):
            make_scenario([[[0.9, 0.0], [0.1, 0.0]]], bounds=bounds)
        with pytest.raises(ValidationError, match=r"phi\[1, 0\]"):
            make_scenario([[[0.9, 0.0]], [[0.0, 1.5]]], bounds=bounds)

    def test_missing_pair_raises(self):
        """A support id outside 0..C-1 names no stored feature."""
        for ctx in (99, -1):
            with pytest.raises(ValidationError, match=f"agent 0: context id {ctx} outside 0..0"):
                make_scenario([[[1.0, 0.0]]], mus=[ContextDistribution.point_mass(ctx)])

    @pytest.mark.parametrize("features,rewards", [
        ([[1.0, 0.0]], None),                         # not (K, C, d)
        ([[[1.0, 0.0, 0.0]]], [[1.0, 0.0]]),          # d disagrees with theta
        ([[[1.0, 0.0]], [[1.0, 0.0]]], [[1.0, 0.0]]),  # K disagrees with theta
    ])
    def test_wrong_shape_rejected(self, features, rewards):
        with pytest.raises(ValidationError, match="shape"):
            Scenario(d=2, K=1, M=1, bounds=LOOSE, rewards=rewards or [[1.0, 0.0]],
                     features=features, mus=[ContextDistribution.point_mass(0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match=r"phi\[0, 1\]\|\| = nan"):
            make_scenario([[[1.0, 0.0], [np.nan, 0.0]]])
        with pytest.raises(ValidationError, match=r"theta\[0\]\|\| = inf"):
            make_scenario([[[1.0, 0.0]]], rewards=[[np.inf, 0.0]])
        # A finite vector whose norm overflows is rejected, not warned about.
        with pytest.raises(ValidationError, match=r"phi\[0, 0\]\|\| = inf"):
            make_scenario([[[1e200, 0.0]]])

    def test_arrays_are_read_only_copies(self):
        features = np.array([[[1.0, 0.0]]])
        sc = make_scenario(features)
        features[0, 0, 0] = 0.5
        assert sc.features[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            sc.features[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            sc.rewards[0, 0] = 0.5

    def test_scenario_is_immutable(self):
        """Validation holds for the scenario's life: a support id cannot be
        swapped in after construction, nor a field reassigned."""
        sc = generate_synthetic(desk_spec(m=3), seed=9)
        with pytest.raises(TypeError):
            sc.mus[0] = ContextDistribution.point_mass(-1)
        with pytest.raises(FrozenInstanceError):
            sc.sigma = 0.5
        assert sc.restrict(2).mus == sc.mus[:2]


class TestExpectedFeature:
    """psi(a) = sum_c mu(c) phi(a, c), as build_psi_set computes it."""

    features = [[[0.5, 0.2, 0.1], [0.8, 0.1, 0.4]]]

    def test_point_mass_returns_phi(self):
        mu = ContextDistribution.point_mass(1)
        np.testing.assert_allclose(psi_of(self.features, mu), [0.8, 0.1, 0.4])

    def test_uniform_two_contexts(self):
        mu = ContextDistribution([(0, 0.5), (1, 0.5)])
        np.testing.assert_allclose(psi_of([[[1.0, 0.0], [0.0, 1.0]]], mu), [0.5, 0.5])

    def test_weighted_sum(self):
        mu = ContextDistribution([(0, 0.3), (1, 0.7)])
        np.testing.assert_allclose(
            psi_of(self.features, mu), [0.71, 0.13, 0.31], atol=1e-15
        )

    def test_mixture_linearity(self, rng):
        """psi under a mixture alpha*mu1 + (1-alpha)*mu2 is the mixture of psis."""
        features = rng.normal(size=(1, 4, 3))
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 0.9))
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            mu1 = ContextDistribution(list(enumerate(p)))
            mu2 = ContextDistribution(list(enumerate(q)))
            mix = ContextDistribution(list(enumerate(alpha * p + (1 - alpha) * q)))
            lhs = psi_of(features, mix)
            rhs = alpha * psi_of(features, mu1) + (1 - alpha) * psi_of(features, mu2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_jensen_norm_bound(self, rng):
        features = rng.normal(size=(1, 5, 3))
        mu = ContextDistribution(list(enumerate(np.full(5, 0.2))))
        psi = psi_of(features, mu)
        assert np.linalg.norm(psi) <= np.linalg.norm(features, axis=2).max() + 1e-12

    def test_bit_identical_recomputation(self):
        mu = ContextDistribution([(0, 0.3), (1, 0.7)])
        assert np.array_equal(psi_of(self.features, mu), psi_of(self.features, mu))


class TestBuildPsiSet:
    def test_point_mass_matches_feature_table(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=1.0)
        features = np.array([[[0.9, 0.0], [0.0, 0.9]], [[0.0, 0.8], [0.8, 0.0]]])
        mus = [ContextDistribution.point_mass(0), ContextDistribution.point_mass(1)]
        psi = build_psi_set(features, mus, bounds)
        np.testing.assert_allclose(psi[0][0], [0.9, 0.0])
        np.testing.assert_allclose(psi[1][1], [0.8, 0.0])
        assert psi.shape == (2, 2, 2) and not psi.flags.writeable

    def test_matches_entrywise_recomputation(self, rng):
        bounds = Bounds(ell=0.1, big_l=1.0, s=1.0)
        v = rng.normal(size=(2, 3, 3))
        features = 0.7 * v / np.linalg.norm(v, axis=2, keepdims=True)
        mus = [
            ContextDistribution([(0, 0.2), (1, 0.5), (2, 0.3)]),
            ContextDistribution([(0, 0.6), (2, 0.4)]),
        ]
        psi = build_psi_set(features, mus, bounds)
        for i, mu in enumerate(mus):
            for a in range(2):
                manual = sum(p * features[a, c] for c, p in zip(mu.ids, mu.probs))
                np.testing.assert_allclose(psi[i][a], manual, atol=1e-15)

    def test_matches_the_per_pair_loop_bit_for_bit(self, rng):
        features = rng.normal(size=(4, 6, 3))
        mus = []
        for _ in range(10):
            ids = rng.choice(6, size=int(rng.integers(1, 7)), replace=False)
            mus.append(ContextDistribution(zip(ids, rng.dirichlet(np.ones(len(ids))))))
        assert np.array_equal(build_psi_set(features, mus, LOOSE), per_pair_psi(features, mus))
        sc = generate_synthetic(desk_spec(m=8), seed=2, variant="hidden")
        assert np.array_equal(build_psi_set(sc.features, sc.mus, sc.bounds),
                              per_pair_psi(sc.features, sc.mus))

    def test_floor_violation_names_offender(self):
        bounds = Bounds(ell=0.9, big_l=1.0, s=1.0)
        # Two opposed contexts average to a near-zero psi for arm 0.
        features = np.array([[[0.95, 0.0], [-0.95, 0.0]]])
        mus = [ContextDistribution([(0, 0.5), (1, 0.5)])]
        with pytest.raises(ConfigurationError, match="agent 0, arm 0"):
            build_psi_set(features, mus, bounds)


class TestScenarioSerialization:
    def test_round_trip_preserves_document(self, tmp_path):
        scenario = generate_synthetic(
            SyntheticSpec(K=3, d=2, M=2, norm_range=(0.6, 1.0), perturbation=0.05),
            seed=3,
        )
        path = tmp_path / "scenario.json"
        scenario.save(path)
        loaded = load_features(path)
        assert loaded.to_json_dict() == scenario.to_json_dict()

    def test_validation_catches_bad_theta_norm(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=0.1)
        with pytest.raises(ValidationError, match=r"theta\[0\]\|\| = 5.0"):
            make_scenario([[[0.9, 0.0]]], rewards=[[5.0, 0.0]], bounds=bounds)

    def test_missing_feature_for_support_context(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=1.0)
        with pytest.raises(ValidationError, match="agent 0: context id 1"):
            make_scenario([[[0.9, 0.0]]], bounds=bounds,
                     mus=[ContextDistribution([(0, 0.5), (1, 0.5)])])

    @pytest.mark.parametrize("sigma", [-0.1, 1.5, np.nan])
    def test_sigma_outside_noise_range_rejected(self, sigma):
        with pytest.raises(ValidationError, match="sigma"):
            make_scenario([[[1.0, 0.0]]], sigma=sigma)

    @pytest.mark.parametrize("edit,message", [
        (lambda f: f["1"].pop("2"), "arm 1: no feature for context 2"),
        (lambda f: f["0"].update({"-1": [0.9, 0.0]}), "arm 0: context id -1 outside 0..2"),
        (lambda f: f.pop("2"), r"features cover arms \[0, 1\], expected 0..2"),
    ])
    def test_document_context_ids_must_be_dense(self, edit, message):
        doc = make_scenario(np.full((3, 3, 2), 0.6)).to_json_dict()
        edit(doc["features"])
        with pytest.raises(ValidationError, match=message):
            Scenario.from_json_dict(doc)

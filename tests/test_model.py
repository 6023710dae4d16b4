import numpy as np
import pytest

from fedpecd.errors import ConfigurationError, FeatureLookupError, ValidationError
from fedpecd.harness import SyntheticSpec, generate_synthetic, load_features
from fedpecd.model import (
    Bounds,
    ContextDistribution,
    FeatureMap,
    RewardParams,
    Scenario,
    build_psi_set,
    expected_feature,
)


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
    def test_norm_bounds_enforced(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=1.0)
        with pytest.raises(ValidationError):
            FeatureMap({0: {0: [0.1, 0.0]}}, dim=2, bounds=bounds)

    def test_missing_pair_raises(self):
        fm = FeatureMap({0: {0: [1.0, 0.0]}}, dim=2)
        with pytest.raises(FeatureLookupError):
            fm.vector(0, 99)


class TestExpectedFeature:
    def setup_method(self):
        self.phi = FeatureMap(
            {0: {0: [0.5, 0.2, 0.1], 1: [0.8, 0.1, 0.4]}}, dim=3
        )

    def test_point_mass_returns_phi(self):
        mu = ContextDistribution.point_mass(1)
        np.testing.assert_allclose(expected_feature(self.phi, mu, 0), [0.8, 0.1, 0.4])

    def test_uniform_two_contexts(self):
        phi = FeatureMap({0: {0: [1.0, 0.0], 1: [0.0, 1.0]}}, dim=2)
        mu = ContextDistribution([(0, 0.5), (1, 0.5)])
        np.testing.assert_allclose(expected_feature(phi, mu, 0), [0.5, 0.5])

    def test_weighted_sum(self):
        mu = ContextDistribution([(0, 0.3), (1, 0.7)])
        np.testing.assert_allclose(
            expected_feature(self.phi, mu, 0), [0.71, 0.13, 0.31], atol=1e-15
        )

    def test_mixture_linearity(self, rng):
        """psi under a mixture alpha*mu1 + (1-alpha)*mu2 is the mixture of psis."""
        phi = FeatureMap(
            {0: {c: rng.normal(size=3) for c in range(4)}}, dim=3
        )
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 0.9))
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            mu1 = ContextDistribution(list(enumerate(p)))
            mu2 = ContextDistribution(list(enumerate(q)))
            mix = ContextDistribution(list(enumerate(alpha * p + (1 - alpha) * q)))
            lhs = expected_feature(phi, mix, 0)
            rhs = alpha * expected_feature(phi, mu1, 0) + (1 - alpha) * expected_feature(phi, mu2, 0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_jensen_norm_bound(self, rng):
        vecs = {c: rng.normal(size=3) for c in range(5)}
        phi = FeatureMap({0: vecs}, dim=3)
        mu = ContextDistribution(list(enumerate(np.full(5, 0.2))))
        psi = expected_feature(phi, mu, 0)
        assert np.linalg.norm(psi) <= max(np.linalg.norm(v) for v in vecs.values()) + 1e-12

    def test_bit_identical_recomputation(self):
        mu = ContextDistribution([(0, 0.3), (1, 0.7)])
        a = expected_feature(self.phi, mu, 0)
        b = expected_feature(self.phi, mu, 0)
        assert np.array_equal(a, b)


class TestBuildPsiSet:
    def test_point_mass_matches_feature_table(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=1.0)
        phi = FeatureMap(
            {0: {0: [0.9, 0.0], 1: [0.0, 0.9]}, 1: {0: [0.0, 0.8], 1: [0.8, 0.0]}},
            dim=2,
            bounds=bounds,
        )
        mus = [ContextDistribution.point_mass(0), ContextDistribution.point_mass(1)]
        psi = build_psi_set(phi, mus, bounds)
        np.testing.assert_allclose(psi[0][0], [0.9, 0.0])
        np.testing.assert_allclose(psi[1][1], [0.8, 0.0])

    def test_matches_entrywise_recomputation(self, rng):
        bounds = Bounds(ell=0.1, big_l=1.0, s=1.0)
        table = {}
        for a in range(2):
            table[a] = {}
            for c in range(3):
                v = rng.normal(size=3)
                table[a][c] = 0.7 * v / np.linalg.norm(v)
        phi = FeatureMap(table, dim=3, bounds=bounds)
        mus = [
            ContextDistribution([(0, 0.2), (1, 0.5), (2, 0.3)]),
            ContextDistribution([(0, 0.6), (2, 0.4)]),
        ]
        psi = build_psi_set(phi, mus, bounds)
        for i, mu in enumerate(mus):
            for a in range(2):
                manual = sum(p * table[a][c] for c, p in zip(mu.ids, mu.probs))
                np.testing.assert_allclose(psi[i][a], manual, atol=1e-15)

    def test_floor_violation_names_offender(self):
        bounds = Bounds(ell=0.9, big_l=1.0, s=1.0)
        # Two opposed contexts average to a near-zero psi for arm 0.
        phi = FeatureMap(
            {0: {0: [0.95, 0.0], 1: [-0.95, 0.0]}}, dim=2, bounds=bounds
        )
        mus = [ContextDistribution([(0, 0.5), (1, 0.5)])]
        with pytest.raises(ConfigurationError, match="agent 0, arm 0"):
            build_psi_set(phi, mus, bounds)


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
        with pytest.raises(ValidationError):
            RewardParams([[5.0, 0.0]], s=bounds.s)

    def test_missing_feature_for_support_context(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=1.0)
        phi = FeatureMap({0: {0: [0.9, 0.0]}}, dim=2, bounds=bounds)
        with pytest.raises(ValidationError):
            Scenario(
                d=2, K=1, M=1, bounds=bounds,
                rewards=RewardParams([[1.0, 0.0]], s=1.0),
                features=phi,
                mus=[ContextDistribution([(0, 0.5), (1, 0.5)])],
            )

import json
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from fedpecd.environment import Environment
from fedpecd.errors import ConfigurationError, ValidationError
from fedpecd.harness import SyntheticSpec, desk_spec, generate_synthetic, load_features
from fedpecd.model import Bounds, Scenario, build_psi_set

# A floor low enough that build_psi_set accepts any psi these tests mix.
LOOSE = Bounds(ell=1e-6, big_l=1.0, s=1.0)


def make_scenario(features, rewards=None, mu=None, bounds=LOOSE, **kw):
    """A Scenario over the (K, C, d) ``features``; theta_a = e_1 and one
    agent at context 0 unless given."""
    features = np.asarray(features, dtype=float)
    k, n_ctx, d = features.shape
    if rewards is None:
        rewards = np.tile(np.eye(d)[0], (k, 1))
    if mu is None:
        mu = np.eye(n_ctx)[:1]
    return Scenario(bounds=bounds, rewards=rewards, features=features, mu=mu, **kw)


def document(n_ctx, supports, **fields):
    """The document of a one-arm scenario over ``n_ctx`` contexts whose
    agents have the schema-v1 ``supports``, with ``fields`` overridden."""
    doc = make_scenario(np.full((1, n_ctx, 2), 0.6)).to_json_dict()
    doc["agents"] = [{"mu": support} for support in supports]
    doc["M"] = len(supports)
    doc.update(fields)
    return doc


def psi_of(features, row, arm=0):
    """psi(arm) for one agent whose distribution is ``row``, by build_psi_set."""
    return build_psi_set(np.asarray(features, dtype=float), np.array([row]), LOOSE)[0, arm]


def per_pair_psi(features, mu):
    """The per-(agent, arm) loop that build_psi_set replaced, kept as its
    bit oracle: each psi sums its support terms in context-id order."""
    k, _, d = features.shape
    out = np.empty((len(mu), k, d))
    for i, row in enumerate(mu):
        for a in range(k):
            v = np.zeros(d)
            for c in np.flatnonzero(row):
                v += row[c] * features[a, c]
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
        (0.5, 1.0, np.nan),  # s >= 0 fails for a NaN
    ])
    def test_invalid(self, ell, big_l, s):
        with pytest.raises(ValidationError):
            Bounds(ell=ell, big_l=big_l, s=s)


class TestContextDistribution:
    """The scenario's (M, C) array mu: row i is agent i's distribution."""

    features = np.full((1, 2, 2), 0.6)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="agent 1: probabilities sum to 0.9"):
            make_scenario(self.features, mu=[[1.0, 0.0], [0.5, 0.4], [-1.0, 2.0]])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError, match="agent 0: negative or NaN probability"):
            make_scenario(self.features, mu=[[1.2, -0.2]])

    @pytest.mark.parametrize("support", [[[0, np.nan]], [[0, np.nan], [1, 1.0]]])
    def test_nan_probability_rejected(self, support):
        row = np.zeros(2)
        row[[c for c, _ in support]] = [p for _, p in support]
        with pytest.raises(ValidationError, match="agent 0: negative or NaN probability"):
            make_scenario(self.features, mu=[row])
        with pytest.raises(ValidationError, match="agent 0: negative or NaN probability"):
            Scenario.from_json_dict(document(2, [support]))

    def test_empty_support_rejected(self):
        with pytest.raises(ValidationError, match="agent 1: context distribution has an empty"):
            Scenario.from_json_dict(document(2, [[[0, 1.0]], []]))
        with pytest.raises(ValidationError, match="agent 0: probabilities sum to 0.0"):
            make_scenario(self.features, mu=[[0.0, 0.0]])

    def test_point_mass(self):
        """A one-hot row is saved as its single [id, 1.0] entry and loads back."""
        sc = make_scenario(self.features, mu=[[0.0, 1.0]])
        doc = sc.to_json_dict()
        assert doc["agents"] == [{"mu": [[1, 1.0]]}]
        assert np.array_equal(Scenario.from_json_dict(doc).mu, [[0.0, 1.0]])

    def test_sampling_is_seed_deterministic(self):
        """A realized context depends only on the seed, and drawing it over
        all C ids gives the id a draw over the support alone gives."""
        sc = generate_synthetic(desk_spec(m=6), seed=4)
        first = Environment(sc, master_seed=5).contexts
        assert np.array_equal(first, Environment(sc, master_seed=5).contexts)
        assert all(sc.mu[i, c] > 0.0 for i, c in enumerate(first))
        rng = np.random.default_rng(0)
        for seed in range(20):
            row = np.zeros(9)
            ids = np.sort(rng.choice(9, size=int(rng.integers(1, 6)), replace=False))
            row[ids] = rng.dirichlet(np.ones(ids.size))
            dense = np.random.default_rng(seed).choice(9, p=row)
            assert dense == ids[np.random.default_rng(seed).choice(ids.size, p=row[ids])]

    def test_zero_probability_entry_is_validated_not_kept(self):
        sc = Scenario.from_json_dict(document(2, [[[0, 1.0], [1, 0.0]]]))
        assert sc.to_json_dict()["agents"] == [{"mu": [[0, 1.0]]}]
        with pytest.raises(ValidationError, match="agent 0: negative or NaN probability"):
            Scenario.from_json_dict(document(2, [[[0, 1.0], [1, np.nan]]]))


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
                Scenario.from_json_dict(document(1, [[[ctx, 1.0]]]))

    @pytest.mark.parametrize("features,rewards", [
        ([[1.0, 0.0]], None),                         # not (K, C, d)
        ([[[1.0, 0.0, 0.0]]], [[1.0, 0.0]]),          # d disagrees with theta
        ([[[1.0, 0.0]], [[1.0, 0.0]]], [[1.0, 0.0]]),  # K disagrees with theta
    ])
    def test_wrong_shape_rejected(self, features, rewards):
        with pytest.raises(ValidationError, match="shape"):
            Scenario(bounds=LOOSE, rewards=rewards or [[1.0, 0.0]],
                     features=features, mu=[[1.0]])

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
        with pytest.raises(ValueError):
            sc.mu[0, 0] = 0.5

    def test_scenario_is_immutable(self):
        """Validation holds for the scenario's life: a distribution cannot be
        edited after construction, nor a field or size reassigned."""
        sc = generate_synthetic(desk_spec(m=3), seed=9)
        with pytest.raises(ValueError):
            sc.mu[0] = np.roll(sc.mu[0], 1)
        for name in ("sigma", "M"):
            with pytest.raises(FrozenInstanceError):
                setattr(sc, name, 2)
        assert np.array_equal(sc.restrict(2).mu, sc.mu[:2])
        assert (sc.restrict(2).M, sc.restrict(2).K, sc.restrict(2).d) == (2, sc.K, sc.d)

    def test_equality_is_identity(self):
        """Array fields compare elementwise, so scenarios compare by identity
        instead of raising on the truth value of an array."""
        sc = generate_synthetic(desk_spec(m=3), seed=1)
        copy = generate_synthetic(desk_spec(m=3), seed=1)
        assert sc == sc
        assert sc != copy
        assert sc.to_json_dict() == copy.to_json_dict()


class TestExpectedFeature:
    """psi(a) = sum_c mu(c) phi(a, c), as build_psi_set computes it."""

    features = [[[0.5, 0.2, 0.1], [0.8, 0.1, 0.4]]]

    def test_point_mass_returns_phi(self):
        np.testing.assert_allclose(psi_of(self.features, [0.0, 1.0]), [0.8, 0.1, 0.4])

    def test_uniform_two_contexts(self):
        np.testing.assert_allclose(psi_of([[[1.0, 0.0], [0.0, 1.0]]], [0.5, 0.5]), [0.5, 0.5])

    def test_weighted_sum(self):
        np.testing.assert_allclose(
            psi_of(self.features, [0.3, 0.7]), [0.71, 0.13, 0.31], atol=1e-15
        )

    def test_mixture_linearity(self, rng):
        """psi under a mixture alpha*mu1 + (1-alpha)*mu2 is the mixture of psis."""
        features = rng.normal(size=(1, 4, 3))
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 0.9))
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            lhs = psi_of(features, alpha * p + (1 - alpha) * q)
            rhs = alpha * psi_of(features, p) + (1 - alpha) * psi_of(features, q)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_jensen_norm_bound(self, rng):
        features = rng.normal(size=(1, 5, 3))
        psi = psi_of(features, np.full(5, 0.2))
        assert np.linalg.norm(psi) <= np.linalg.norm(features, axis=2).max() + 1e-12

    def test_bit_identical_recomputation(self):
        assert np.array_equal(psi_of(self.features, [0.3, 0.7]),
                              psi_of(self.features, [0.3, 0.7]))


class TestBuildPsiSet:
    def test_point_mass_matches_feature_table(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=1.0)
        features = np.array([[[0.9, 0.0], [0.0, 0.9]], [[0.0, 0.8], [0.8, 0.0]]])
        psi = build_psi_set(features, np.eye(2), bounds)
        np.testing.assert_allclose(psi[0][0], [0.9, 0.0])
        np.testing.assert_allclose(psi[1][1], [0.8, 0.0])
        assert psi.shape == (2, 2, 2) and not psi.flags.writeable

    def test_matches_entrywise_recomputation(self, rng):
        bounds = Bounds(ell=0.1, big_l=1.0, s=1.0)
        v = rng.normal(size=(2, 3, 3))
        features = 0.7 * v / np.linalg.norm(v, axis=2, keepdims=True)
        mu = np.array([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4]])
        psi = build_psi_set(features, mu, bounds)
        for i, row in enumerate(mu):
            for a in range(2):
                manual = sum(p * features[a, c] for c, p in enumerate(row))
                np.testing.assert_allclose(psi[i][a], manual, atol=1e-15)

    def test_matches_the_per_pair_loop_bit_for_bit(self, rng):
        """Supports of every size, at scattered ids, and agents of one context."""
        features = rng.normal(size=(4, 6, 3))
        mu = np.zeros((12, 6))
        for row in mu[:10]:
            ids = rng.choice(6, size=int(rng.integers(1, 7)), replace=False)
            row[ids] = rng.dirichlet(np.ones(len(ids)))
        mu[10:, 5] = 1.0
        assert np.array_equal(build_psi_set(features, mu, LOOSE), per_pair_psi(features, mu))
        sc = generate_synthetic(desk_spec(m=8), seed=2, variant="hidden")
        assert np.array_equal(build_psi_set(sc.features, sc.mu, sc.bounds),
                              per_pair_psi(sc.features, sc.mu))

    def test_floor_violation_names_offender(self):
        bounds = Bounds(ell=0.9, big_l=1.0, s=1.0)
        # Two opposed contexts average to a near-zero psi for arm 0.
        features = np.array([[[0.95, 0.0], [-0.95, 0.0]]])
        with pytest.raises(ConfigurationError, match="agent 0, arm 0"):
            build_psi_set(features, np.array([[0.5, 0.5]]), bounds)


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

    @pytest.mark.parametrize("profiles", [
        {"0": [0.1, 0.2, 0.3], "1": [0.4, 0.5, 0.6]},
        # Two keys naming context 0, and vectors whose length is not d = 3.
        {"0": [0.1, 0.2], "00": [0.1, 0.2, 0.3, 0.4], "1": [0.5]},
    ])
    def test_schema_v1_contexts_table_is_ignored(self, profiles):
        """Older schema-v1 files carry a ``contexts`` table of per-context
        profile vectors that nothing reads: it is ignored like any unknown key,
        so the document loads to the same bits as without it."""
        doc = generate_synthetic(desk_spec(m=3), seed=2).to_json_dict()
        assert "contexts" not in doc
        plain = Scenario.from_json_dict(doc)
        loaded = Scenario.from_json_dict(dict(doc, contexts=profiles))
        for name in ("features", "rewards", "mu"):
            assert getattr(loaded, name).tobytes() == getattr(plain, name).tobytes()
        assert (loaded.bounds, loaded.sigma) == (plain.bounds, plain.sigma)
        assert loaded.to_json_dict() == doc

    def test_validation_catches_bad_theta_norm(self):
        bounds = Bounds(ell=0.5, big_l=1.0, s=0.1)
        with pytest.raises(ValidationError, match=r"theta\[0\]\|\| = 5.0"):
            make_scenario([[[0.9, 0.0]]], rewards=[[5.0, 0.0]], bounds=bounds)

    def test_missing_feature_for_support_context(self):
        with pytest.raises(ValidationError, match="agent 0: context id 1 outside 0..0"):
            Scenario.from_json_dict(document(1, [[[0, 0.5], [1, 0.5]]]))

    @pytest.mark.parametrize("sigma", [-0.1, 1.5, np.nan])
    def test_sigma_outside_noise_range_rejected(self, sigma):
        with pytest.raises(ValidationError, match="sigma"):
            make_scenario([[[1.0, 0.0]]], sigma=sigma)

    @pytest.mark.parametrize("edit,message", [
        (lambda f: f["1"].pop("2"), "arm 1: no feature for context 2"),
        (lambda f: f["0"].update({"-1": [0.9, 0.0]}),
         "arm 0: context key '-1' is not written as an id"),
        (lambda f: f.pop("2"), r"features cover arms \[0, 1\], expected 0..2"),
    ])
    def test_document_context_ids_must_be_dense(self, edit, message):
        doc = make_scenario(np.full((3, 3, 2), 0.6)).to_json_dict()
        edit(doc["features"])
        with pytest.raises(ValidationError, match=message):
            Scenario.from_json_dict(doc)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["agents"][0].update(mu=[[0.5, 0.5], [1.5, 0.25], [2.5, 0.25]]),
         "agent 0: context id = 0.5 is not an integer"),
        (lambda doc: doc["agents"][1].update(mu=[[True, 1.0]]),
         "agent 1: context id = True is not an integer"),
        (lambda doc: doc["agents"][1].update(mu=[["1", 1.0]]),
         "agent 1: context id = '1' is not an integer"),
        (lambda doc: doc.update(d=3.9), "d = 3.9 is not an integer"),
        (lambda doc: doc.update(K=True), "K = True is not an integer"),
        (lambda doc: doc.update(M=2.0), "M = 2.0 is not an integer"),
    ])
    def test_non_integer_ids_and_sizes_rejected(self, tmp_path, edit, message):
        doc = document(3, [[[0, 1.0]], [[2, 1.0]]])
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"{path}: {message}"):
            load_features(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(features=[]), "features is not an object"),
        (lambda doc: doc.update(features=None), "features is not an object"),
        (lambda doc: doc["features"].update({"0": [[0.6, 0.6]] * 3}),
         "arm 0: features are not an object"),
        (lambda doc: doc["features"].update({"2": "0.6"}), "arm 2: features are not an object"),
    ])
    def test_non_object_tables_rejected(self, edit, message):
        doc = make_scenario(np.full((3, 3, 2), 0.6)).to_json_dict()
        edit(doc)
        with pytest.raises(ValidationError, match=message):
            Scenario.from_json_dict(doc)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["features"]["1"].update({"1000000000": [0.6, 0.6]}),
         "arm 1: context id 1000000000 outside 0..3, as no arm names more than 4 contexts"),
        (lambda doc: doc.update(K=1000000000),
         r"features cover arms \[0, 1, 2\], expected 0..999999999"),
    ])
    def test_huge_id_or_size_rejected_before_sizing(self, edit, message):
        """No arm names more contexts than the document has keys, so a
        context id at or above that count, or a declared K that the table
        does not hold, is refused without building anything as large."""
        doc = make_scenario(np.full((3, 3, 2), 0.6)).to_json_dict()
        edit(doc)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=message):
                Scenario.from_json_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("edit,message", [
        (lambda f: f.update({"00": f["0"]}), "arm key '00' is not written as an id"),
        (lambda f: f["1"].update({"00": [0.9, 0.0]}),
         "arm 1: context key '00' is not written as an id"),
        (lambda f: f["2"].update({" 1": [0.9, 0.0]}),
         "arm 2: context key ' 1' is not written as an id"),
    ])
    def test_document_ids_named_twice_rejected(self, edit, message):
        """Keys are looked up as ``save`` writes ids, so a second spelling of
        an id is refused by name and cannot replace the feature it shadows."""
        doc = make_scenario(np.full((3, 3, 2), 0.6)).to_json_dict()
        edit(doc["features"])
        with pytest.raises(ValidationError, match=message):
            Scenario.from_json_dict(doc)

    @pytest.mark.parametrize("canonical,key", [
        ("4", "+4"), ("10", "1_0"), ("0", "\u0660"), ("2", "\u00b2"), ("0", "-1"), ("3", 3),
    ], ids=["plus", "underscore", "arabic-indic-zero", "superscript-two", "minus-one", "int"])
    def test_keys_not_written_as_ids_rejected(self, canonical, key):
        """int() reads "+4" as 4, "1_0" as 10 and an Arabic-Indic zero as 0;
        the table takes only the ids as ``save`` writes them, and names a key
        written any other way (an int key of an in-memory dict included), at
        the arm level and at the context level."""
        def respelled(table):
            return {key if k == canonical else k: v for k, v in table.items()}

        doc = make_scenario(np.full((11, 11, 2), 0.6)).to_json_dict()
        table = doc["features"]
        arm_level = dict(doc, features=respelled(table))
        context_level = dict(doc, features={**table, "1": respelled(table["1"])})
        for edited, where in ((arm_level, "arm"), (context_level, "arm 1: context")):
            with pytest.raises(ValidationError) as got:
                Scenario.from_json_dict(edited)
            assert str(got.value) == (
                f'{where} key {key!r} is not written as an id ("0", "1", "2", ...)')

    def test_declared_k_below_the_table_rejected(self):
        """The table holds exactly the declared K arms: K = 2 does not read
        the first two of three."""
        doc = make_scenario(np.full((3, 3, 2), 0.6)).to_json_dict()
        doc["K"] = 2
        message = r"^features cover arms \[0, 1, 2\], expected 0..1$"
        with pytest.raises(ValidationError, match=message):
            Scenario.from_json_dict(doc)

    def test_id_out_of_range_named_before_a_gap(self):
        """Every arm is checked for an id at or above C before any arm for a
        missing context, so the id that sets no size is named first."""
        doc = make_scenario(np.full((3, 3, 2), 0.6)).to_json_dict()
        doc["features"]["0"].pop("2")
        doc["features"]["2"]["5"] = doc["features"]["2"].pop("1")
        message = "arm 2: context id 5 outside 0..2, as no arm names more than 3 contexts"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Scenario.from_json_dict(doc)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["bounds"].update(ell="0.5"), "bounds.ell = '0.5' is not a number"),
        (lambda doc: doc["bounds"].update(L=True), "bounds.L = True is not a number"),
        (lambda doc: doc["bounds"].update(s=None), "bounds.s = None is not a number"),
        (lambda doc: doc.update(sigma="0.1"), "sigma = '0.1' is not a number"),
        (lambda doc: doc["thetas"][0].__setitem__(1, True),
         r"thetas\[0, 1\] = True is not a number"),
        (lambda doc: doc["features"]["0"]["2"].__setitem__(0, "0.6"),
         r"features\[0, 2, 0\] = '0.6' is not a number"),
        (lambda doc: doc["features"]["0"].update({"1": None}),
         r"features\[0, 1\] = None is not a number"),
        (lambda doc: doc["agents"][1].update(mu=[[2, True]]),
         "agent 1: probability of context 2 = True is not a number"),
        (lambda doc: doc["agents"][0].update(mu=[[0, "0.5"], [1, 0.5]]),
         "agent 0: probability of context 0 = '0.5' is not a number"),
    ])
    def test_non_numbers_rejected(self, edit, message):
        """Every real a document holds must be a JSON number: float() would
        read "0.5" as 0.5 and true as 1.0."""
        doc = document(3, [[[0, 1.0]], [[2, 1.0]]])
        edit(doc)
        with pytest.raises(ValidationError, match=message):
            Scenario.from_json_dict(doc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(thetas=[[1.0, 0.0], [1.0]]),
        lambda doc: doc["features"]["0"].update({"1": [0.6]}),
    ])
    def test_ragged_arrays_are_malformed(self, edit):
        doc = document(3, [[[0, 1.0]], [[2, 1.0]]])
        edit(doc)
        with pytest.raises(ValidationError, match="malformed scenario document"):
            Scenario.from_json_dict(doc)

    def test_first_non_number_in_index_order_is_named(self):
        doc = document(3, [[[0, 1.0]], [[2, 1.0]]], thetas=[[0.6, None], ["x", 0.6]])
        with pytest.raises(ValidationError, match=r"thetas\[0, 1\] = None is not a number"):
            Scenario.from_json_dict(doc)

    def test_integer_numbers_accepted(self):
        doc = document(2, [[[0, 1]], [[1, 0.5], [0, 0.5]]], sigma=0)
        doc["bounds"].update(L=1)
        sc = Scenario.from_json_dict(doc)
        assert sc.mu.tolist() == [[1.0, 0.0], [0.5, 0.5]]
        assert (sc.sigma, sc.bounds.big_l) == (0.0, 1.0)

    @pytest.mark.parametrize("key,value,held", [("d", 3, 2), ("M", 3, 2)])
    def test_declared_sizes_must_match_the_arrays(self, key, value, held):
        """A declared K is checked against the feature table's arms."""
        doc = document(3, [[[0, 1.0]], [[2, 1.0]]], **{key: value})
        message = f"{key} = {value} disagrees with the arrays, which hold {held}"
        with pytest.raises(ValidationError, match=message):
            Scenario.from_json_dict(doc)

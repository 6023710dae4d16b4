import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fedpecd.harness as harness
from fedpecd.cli import main
from fedpecd.errors import ConfigurationError, ValidationError
from fedpecd.harness import (
    CSV_HEADER,
    SyntheticSpec,
    desk_spec,
    generate_synthetic,
    load_features,
    movielens_like_spec,
    run_sweep,
    sweep_csv_lines,
    sweep_summary,
    write_sweep_csv,
    write_sweep_json,
)
from fedpecd.model import build_psi_set
from fedpecd.protocol import build_schedule, checkpoint_rounds

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "movielens_like.json"


def base_rewards(scenario, agent):
    base = np.flatnonzero(scenario.mu[agent])[0]
    return np.array([
        float(scenario.rewards[a] @ scenario.features[a, base])
        for a in range(scenario.K)
    ])


class TestGenerateSynthetic:
    def test_benchmark_defaults_validate(self):
        sc = generate_synthetic(SyntheticSpec(M=5), seed=0)
        assert (sc.K, sc.d) == (10, 3)
        np.testing.assert_allclose(sc.rewards[0], [1.0, 0.0, 0.0])
        sc.validate()

    def test_base_gaps_inside_declared_range(self):
        spec = SyntheticSpec(M=8, gap_range=(0.2, 0.4))
        sc = generate_synthetic(spec, seed=1)
        for i in range(sc.M):
            rewards = base_rewards(sc, i)
            best = rewards.max()
            gaps = best - rewards[rewards < best]
            assert np.all(gaps >= 0.2 - 1e-12)
            assert np.all(gaps <= 0.4 + 1e-12)

    def test_feature_norms_inside_declared_range(self):
        spec = SyntheticSpec(M=4, norm_range=(0.5, 1.0))
        sc = generate_synthetic(spec, seed=2)
        nrm = np.linalg.norm(sc.features, axis=2)
        assert np.all((0.5 - 1e-9 <= nrm) & (nrm <= 1.0 + 1e-9))

    def test_zero_perturbation_collapses_variants(self):
        spec = SyntheticSpec(K=4, d=3, M=3, perturbation=0.0)
        hidden = generate_synthetic(spec, seed=3, variant="hidden")
        exact = generate_synthetic(spec, seed=3, variant="exact")
        psi_h = build_psi_set(hidden.features, hidden.mu, hidden.bounds)
        psi_e = build_psi_set(exact.features, exact.mu, exact.bounds)
        for i in range(3):
            for a in range(4):
                np.testing.assert_allclose(
                    psi_h[i][a], psi_e[i][a], atol=1e-12
                )

    def test_generation_is_seed_deterministic(self):
        spec = desk_spec(m=4)
        a = generate_synthetic(spec, seed=11)
        b = generate_synthetic(spec, seed=11)
        assert a.to_json_dict() == b.to_json_dict()

    def test_contested_agents_tie_under_the_mixture(self):
        spec = desk_spec(m=40)
        sc = generate_synthetic(spec, seed=5)
        psi = build_psi_set(sc.features, sc.mu, sc.bounds)
        tied = 0
        for i in range(sc.M):
            vals = np.array([
                float(sc.rewards[a] @ psi[i][a]) for a in range(sc.K)
            ])
            order = np.sort(vals)[::-1]
            if order[0] - order[1] < 1e-9:
                tied += 1
        assert tied >= 5  # contested_frac = 0.35 over 40 agents

    def test_infeasible_norm_band_rejected(self):
        for p in (0.2, math.nan, -0.05):
            with pytest.raises(ConfigurationError):
                SyntheticSpec(norm_range=(0.9, 1.0), perturbation=p)

    def test_movielens_like_preset(self):
        sc = generate_synthetic(movielens_like_spec(m=6), seed=0)
        assert (sc.K, sc.d, sc.M) == (30, 3, 6)
        sc.validate()

    @pytest.mark.parametrize("overrides, named", [
        (dict(M=2.5), "M must be an integer >= 1, got 2.5"),
        (dict(M=0), "M must be an integer >= 1, got 0"),
        (dict(copies=2.5), "copies must be an integer >= 1, got 2.5"),
        (dict(copies=True), "copies must be an integer >= 1, got True"),
        (dict(copies=0), "copies must be an integer >= 1, got 0"),
        (dict(d=3.0), "d must be an integer >= 2, got 3.0"),
        (dict(d=1), "d must be an integer >= 2, got 1"),
        (dict(K=3.0), "K must be an integer >= 2, got 3.0"),
        (dict(K=1), "K must be an integer >= 2, got 1"),
    ], ids=["fractional-M", "zero-M", "fractional-copies", "bool-copies", "zero-copies",
            "float-d", "small-d", "float-K", "small-K"])
    def test_bad_size_rejected_by_name(self, overrides, named):
        """A size that is not an integer is refused at construction (M = 2.5
        failed later inside numpy; copies = True ran as one copy)."""
        with pytest.raises(ConfigurationError, match=f"^{re.escape(named)}$"):
            SyntheticSpec(**overrides)

    def test_numpy_integer_sizes_accepted(self):
        sizes = dict(K=np.int64(4), d=np.int64(3), M=np.int64(3), copies=np.int64(2))
        assert (generate_synthetic(SyntheticSpec(**sizes), seed=1).to_json_dict()
                == generate_synthetic(SyntheticSpec(K=4, d=3, M=3, copies=2), seed=1).to_json_dict())


class TestLoadFeatures:
    def test_round_trip(self, tmp_path):
        sc = generate_synthetic(desk_spec(m=3), seed=9)
        path = tmp_path / "s.json"
        sc.save(path)
        loaded = load_features(path)
        assert loaded.to_json_dict() == sc.to_json_dict()

    def test_bad_probability_row(self, tmp_path):
        sc = generate_synthetic(desk_spec(m=3), seed=9)
        doc = sc.to_json_dict()
        doc["agents"][1]["mu"][0][1] = doc["agents"][1]["mu"][0][1] - 0.1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_features(path)

    def test_nan_probability_rejected(self, tmp_path, capsys):
        """A NaN passes both `p < 0` and `|sum - 1| > tol`; the file must
        not validate and then fail to sample."""
        doc = generate_synthetic(desk_spec(m=3), seed=9).to_json_dict()
        doc["agents"][1]["mu"] = [[0, float("nan")]]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="NaN probability"):
            load_features(path)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "NaN probability" in capsys.readouterr().err

    def test_json_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 3,\n "K": }')
        with pytest.raises(ValidationError, match="line 2"):
            load_features(path)

    def test_shipped_sample_loads(self):
        sc = load_features(SAMPLE)
        assert (sc.K, sc.d, sc.M) == (30, 3, 100)

    def test_load_then_save_reproduces_the_file(self, tmp_path):
        path = tmp_path / "copy.json"
        load_features(SAMPLE).save(path)
        assert path.read_bytes() == SAMPLE.read_bytes()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8ad22d036f5b5a8bd59ea873b45c74cf71af376697cdadc60f90870b311e2075")

    def test_missing_feature_is_named(self, tmp_path, capsys):
        """Every arm must hold every context id 0..C-1, including contexts no
        agent's support reaches; the file, arm and context are named."""
        sc = generate_synthetic(desk_spec(m=3), seed=9)
        ctx = np.flatnonzero(sc.mu[2])[0]
        doc = sc.restrict(2).to_json_dict()
        del doc["features"]["3"][str(ctx)]
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc))
        message = f"{path}: arm 3: no feature for context {ctx}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_features(path)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert message in capsys.readouterr().err


def tiny_sweep(**overrides):
    kwargs = dict(
        source=SyntheticSpec(K=3, d=2, M=4, sigma=0.1, gap_range=(0.5, 0.7),
                             norm_range=(0.8, 1.0), best_reward_range=(0.78, 0.85),
                             perturbation=0.05),
        variants=("exact", "hidden"),
        agent_counts=(2, 4),
        trials=2,
        horizon=2**8,
        base_seed=7,
    )
    kwargs.update(overrides)
    return run_sweep(**kwargs)


class TestRunSweep:
    def test_rows_match_checkpoints(self):
        result = tiny_sweep(trials=1, variants=("hidden",), agent_counts=(2,))
        lines = list(sweep_csv_lines(result))
        assert len(lines) == 1 + len(result.rounds)

    def test_no_variants_gives_an_empty_result(self):
        """No cells, but the rounds a cell would report: the sweep takes them
        from its schedule, not from a run."""
        result = tiny_sweep(variants=())
        assert result.cells == {}
        assert result.rounds == checkpoint_rounds(build_schedule(1, 2, 3, 2**8))
        assert result.rounds[0] == 3 and 2**8 in result.rounds
        assert list(sweep_csv_lines(result)) == [CSV_HEADER]

    @pytest.mark.parametrize("overrides, named", [
        (dict(agent_counts=(3.9,)), "agent count M must be an integer >= 1, got 3.9"),
        (dict(agent_counts=(2, True)), "agent count M must be an integer >= 1, got True"),
        (dict(agent_counts=()), "agent_counts names no agent count M"),
        (dict(trials=True), "trials must be an integer >= 1, got True"),
        (dict(trials=2.5), "trials must be an integer >= 1, got 2.5"),
        (dict(trials=0), "trials must be an integer >= 1, got 0"),
        (dict(horizon=256.5), "horizon must be an integer >= 1, got 256.5"),
        (dict(workers=2.5), "workers must be an integer >= 1, got 2.5"),
        (dict(workers=0), "workers must be an integer >= 1, got 0"),
        (dict(workers=-1), "workers must be an integer >= 1, got -1"),
    ], ids=["fractional-M", "bool-M", "no-M", "bool-trials", "fractional-trials",
            "zero-trials", "fractional-horizon", "fractional-workers", "zero-workers",
            "negative-workers"])
    def test_bad_size_rejected_before_any_work(self, monkeypatch, overrides, named):
        """A size that is not an integer is refused by name, never truncated
        (M = 3.9 ran M = 3; trials = True wrote rows ending ``,True``)."""
        def no_work(*args, **kwargs):
            pytest.fail("the sweep started work")

        monkeypatch.setattr(harness, "generate_synthetic", no_work)
        monkeypatch.setattr(harness, "run_protocol", no_work)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(named)}$"):
            tiny_sweep(**overrides)

    @pytest.mark.parametrize("overrides, named", [
        (dict(variants=("hidden", "hidden")), "variant 'hidden' is repeated"),
        (dict(variants=("exact", "hidden", "exact")), "variant 'exact' is repeated"),
        (dict(agent_counts=(2, 2)), "agent count M 2 is repeated"),
        (dict(agent_counts=(2, 4, np.int64(4))), "agent count M 4 is repeated"),
        (dict(variants=("hidden", "hidden"), agent_counts=(2, 2)), "variant 'hidden' is repeated"),
    ])
    def test_repeated_cell_rejected_before_any_work(self, monkeypatch, overrides, named):
        """A repeated variant or agent count names one cell twice, which ran
        every trial of it again into the same result key."""
        def no_work(*args, **kwargs):
            pytest.fail("the sweep started work")

        monkeypatch.setattr(harness, "generate_synthetic", no_work)
        monkeypatch.setattr(harness, "run_protocol", no_work)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(named)}$"):
            tiny_sweep(**overrides)

    def test_numpy_integer_sizes_accepted(self):
        sizes = dict(trials=np.int64(1), agent_counts=(np.int64(2),), horizon=np.int64(2**8))
        result = tiny_sweep(**sizes)
        lines = list(sweep_csv_lines(result))
        assert lines == list(sweep_csv_lines(tiny_sweep(trials=1, agent_counts=(2,))))
        assert json.loads(json.dumps(sweep_summary(result)))["horizon"] == 2**8

    def test_curves_nondecreasing(self):
        result = tiny_sweep()
        for curves in result.cells.values():
            diffs = np.diff(curves, axis=1)
            assert np.all(diffs >= -1e-12)

    def test_csv_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(tiny_sweep(), p1)
        write_sweep_csv(tiny_sweep(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(tiny_sweep(workers=1), p1)
        write_sweep_csv(tiny_sweep(workers=2), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_scenario_generated_once_per_trial(self, monkeypatch):
        """Every (variant, M) cell of a trial runs on the one scenario the
        sweep generated for it, whether cells run serially or in workers."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["seed"])
            return generate_synthetic(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_synthetic", counted)
        results = []
        for workers in (1, 2):
            calls.clear()
            results.append(tiny_sweep(trials=3, workers=workers))
            assert calls == [(7, 1, t) for t in range(3)]
        serial, pooled = results
        assert serial.cells.keys() == pooled.cells.keys()
        assert serial.rounds == pooled.rounds
        for key, curves in serial.cells.items():
            np.testing.assert_array_equal(curves, pooled.cells[key])

    def test_json_summary_shape(self, tmp_path):
        path = tmp_path / "summary.json"
        write_sweep_json(tiny_sweep(), path)
        doc = json.loads(path.read_text())
        assert {c["variant"] for c in doc["cells"]} == {"exact", "hidden"}
        assert doc["trials"] == 2

    def test_csv_header(self):
        lines = list(sweep_csv_lines(tiny_sweep(trials=1)))
        assert lines[0] == "variant,M,round,mean_regret,stderr,trials"

    def test_fixed_scenario_source(self):
        sc = generate_synthetic(
            SyntheticSpec(K=3, d=2, M=4, sigma=0.1, gap_range=(0.5, 0.7),
                          norm_range=(0.8, 1.0), best_reward_range=(0.78, 0.85),
                          perturbation=0.05),
            seed=4,
        )
        result = tiny_sweep(source=sc, variants=("hidden",), agent_counts=(2, 4))
        assert set(result.cells) == {("hidden", 2), ("hidden", 4)}

    def test_fixed_scenario_too_small_for_agent_count(self):
        sc = generate_synthetic(
            SyntheticSpec(K=3, d=2, M=2, sigma=0.1, gap_range=(0.5, 0.7),
                          norm_range=(0.8, 1.0), best_reward_range=(0.78, 0.85),
                          perturbation=0.05),
            seed=4,
        )
        with pytest.raises(ValidationError):
            tiny_sweep(source=sc, variants=("hidden",), agent_counts=(4,))

import hashlib
import json
from pathlib import Path

import pytest

from fedpecd import cli, harness
from fedpecd.cli import main


def test_generate_validate_run_round_trip(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    rc = main([
        "generate", "--preset", "synthetic", "--agents", "4", "--arms", "3",
        "--sigma", "0.1", "--seed", "3", "--out", str(scenario),
    ])
    assert rc == 0

    rc = main(["validate", "--scenario", str(scenario)])
    assert rc == 0
    assert "ok:" in capsys.readouterr().out

    trace = tmp_path / "trace.jsonl"
    summary = tmp_path / "run.json"
    rc = main([
        "run", "--scenario", str(scenario), "--variant", "hidden",
        "--horizon", "512", "--seed", "5", "--meter",
        "--trace-out", str(trace), "--out-json", str(summary),
    ])
    assert rc == 0
    doc = json.loads(summary.read_text())
    assert doc["M"] == 4 and doc["horizon"] == 512
    assert doc["scalars_total"] == doc["scalars_up"] + doc["scalars_down"]
    lines = trace.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "run"
    assert json.loads(lines[-1])["type"] == "summary"


def test_sweep_writes_outputs(tmp_path):
    csv_path = tmp_path / "curves.csv"
    json_path = tmp_path / "curves.json"
    rc = main([
        "sweep", "--variants", "hidden", "--agents", "2,3", "--trials", "2",
        "--horizon", "256", "--seed", "1",
        "--out-csv", str(csv_path), "--out-json", str(json_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "variant,M,round,mean_regret,stderr,trials"
    assert all(line.startswith("hidden,") for line in lines[1:])
    doc = json.loads(json_path.read_text())
    assert doc["trials"] == 2


def test_generated_movielens_like_file_is_pinned(tmp_path):
    out = tmp_path / "ml.json"
    assert main(["generate", "--preset", "movielens-like", "--agents", "100",
                 "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6afa307f7addbf79d7e6917512cd981ce57602b0ff7825375a9ff07974a2f530")


def test_unwritable_output_path_exit_code(tmp_path, capsys, monkeypatch):
    """An output path in a missing directory is reported in one line with
    exit code 2, not as a traceback, before any generation, run or sweep
    starts.  An existing output file is left as it was, and the check leaves
    no new one behind."""
    scenario = tmp_path / "scenario.json"
    missing = tmp_path / "missing"
    small = ["--agents", "2", "--arms", "2", "--seed", "1"]
    assert main(["generate", *small, "--out", str(scenario)]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    for name in ("generate_synthetic", "run_protocol", "run_sweep"):
        monkeypatch.setattr(cli, name, never)
    run = ["run", "--scenario", str(scenario), "--horizon", "64"]
    sweep = ["sweep", "--variants", "hidden", "--agents", "2", "--trials", "1",
             "--horizon", "64"]
    assert main(["generate", *small, "--out", str(missing / "s.json")]) == 2
    assert main([*run, "--trace-out", str(missing / "t.jsonl")]) == 2
    assert main([*run, "--out-json", str(missing / "r.json")]) == 2
    assert main([*sweep, "--out-csv", str(missing / "c.csv")]) == 2
    assert main([*sweep, "--out-json", str(missing / "j.json")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 5
    for error, name in zip(errors, ("s.json", "t.jsonl", "r.json", "c.csv", "j.json")):
        assert error.startswith("error: ") and str(missing / name) in error
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    assert main([*run, "--out-json", str(kept), "--trace-out", str(missing / "t.jsonl")]) == 2
    assert kept.read_text() == "kept\n"
    fresh = tmp_path / "fresh.csv"
    assert main([*sweep, "--out-csv", str(fresh), "--out-json", str(missing / "j.json")]) == 2
    assert not fresh.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bad_worker_count_exit_code(capsys, monkeypatch, workers):
    """A worker count below 1 is refused in one line before any scenario is
    generated (it used to run serially)."""
    def never(*args, **kwargs):
        raise AssertionError("a scenario was generated")

    monkeypatch.setattr(harness, "generate_synthetic", never)
    sweep = ["sweep", "--variants", "hidden", "--agents", "2", "--trials", "1",
             "--horizon", "64", "--workers", workers]
    assert main(sweep) == 2
    assert capsys.readouterr().err == f"error: workers must be an integer >= 1, got {workers}\n"


def test_repeated_agent_count_exit_code(capsys, monkeypatch):
    """A repeated agent count would run its cell twice; it is refused in one
    line before any scenario is generated."""
    def never(*args, **kwargs):
        raise AssertionError("a scenario was generated")

    monkeypatch.setattr(harness, "generate_synthetic", never)
    sweep = ["sweep", "--variants", "hidden", "--agents", "10,10", "--trials", "1",
             "--horizon", "64"]
    assert main(sweep) == 2
    assert capsys.readouterr().err == "error: agent count M 10 is repeated\n"


def test_fractional_worker_count_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--workers", "2.5"])
    assert exc.value.code == 2
    assert "argument --workers: invalid int value: '2.5'" in capsys.readouterr().err


def test_validation_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", "--scenario", str(bad)]) == 2


def test_deeply_nested_scenario_file_exit_code(tmp_path, capsys):
    """json.load recurses once per nesting level; past the interpreter's
    limit the file is refused like any invalid one, not with a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", "--scenario", str(deep)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: {deep}: nested too deeply to parse\n"


def test_missing_scenario_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["validate", "--scenario", str(missing)]) == 2
    assert f"error: {missing}: No such file or directory" in capsys.readouterr().err


def test_malformed_agent_counts_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--agents", "3,x"])
    assert exc.value.code == 2
    assert "invalid agent_counts value: '3,x'" in capsys.readouterr().err


def test_non_utf8_scenario_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main(["validate", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text") and len(err.splitlines()) == 1


@pytest.mark.parametrize("perturbation", ["nan", "-0.05"])
def test_bad_perturbation_exit_code(tmp_path, capsys, perturbation):
    out = tmp_path / "x.json"
    assert main(["generate", "--preset", "desk", "--perturbation", perturbation,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: perturbation must fit the norm range")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["agents"][0].update(mu=[[0.5, 0.25], [1.5, 0.25], [2.5, 0.5]]),
     "agent 0: context id = 0.5 is not an integer"),
    (lambda doc: doc["agents"][2].update(mu=[[True, 1.0]]),
     "agent 2: context id = True is not an integer"),
    (lambda doc: doc.update(d=3.9), "d = 3.9 is not an integer"),
])
def test_non_integer_id_or_size_exit_code(tmp_path, capsys, edit, message):
    path = tmp_path / "scenario.json"
    assert main(["generate", "--preset", "desk", "--agents", "3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["agents"][1].update(mu=[[0, "1.0"]]),
     "agent 1: probability of context 0 = '1.0' is not a number"),
    (lambda doc: doc.update(sigma=True), "sigma = True is not a number"),
    (lambda doc: doc["features"]["0"].update({"00": doc["features"]["0"]["0"]}),
     "arm 0: context key '00' is not written as an id (\"0\", \"1\", \"2\", ...)"),
])
def test_non_number_or_repeated_id_exit_code(tmp_path, capsys, edit, message):
    path = tmp_path / "scenario.json"
    assert main(["generate", "--preset", "desk", "--agents", "3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_nan_norm_bound_exit_code(tmp_path, capsys):
    """A NaN s is refused by name, not only once a theta's norm falls
    outside [0, nan]."""
    path = tmp_path / "scenario.json"
    assert main(["generate", "--preset", "desk", "--agents", "3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["bounds"]["s"] = float("nan")
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: need s >= 0, got s=nan\n"


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.update(features=[]),
     "features is not an object {arm: {context: phi}}"),
    (lambda doc: doc["features"].update({"0": list(doc["features"]["0"].values())}),
     "arm 0: features are not an object {context: phi}"),
])
def test_non_object_feature_table_exit_code(tmp_path, capsys, edit, message):
    """The shipped movielens-like file with its feature table, or one arm's
    entry in it, given as a list is refused in one line, not a traceback."""
    doc = json.loads((Path(__file__).parent.parent / "data" / "movielens_like.json").read_text())
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"

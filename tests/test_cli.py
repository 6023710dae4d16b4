import hashlib
import json

import pytest

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
        "b5c793ed27007c35132d6bfdb4dcaabe9862deecf8e738c581b6ff29dcf039d9")


def test_validation_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", "--scenario", str(bad)]) == 2


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

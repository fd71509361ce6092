"""The two-sided benchmark regression guard."""

import importlib.util
import json
import os

import pytest

_GUARD = os.path.join(os.path.dirname(__file__), os.pardir,
                      "benchmarks", "check_simulator_regression.py")


@pytest.fixture()
def guard():
    spec = importlib.util.spec_from_file_location("check_guard", _GUARD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bench_json(path, mins, datetime="2026-01-01T00:00:00"):
    doc = {"datetime": datetime, "commit_info": {"id": "deadbeef"},
           "benchmarks": [{"fullname": name, "stats": {"min": timing}}
                          for name, timing in mins.items()]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def test_within_threshold_passes(guard, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"b::t_a": 0.010})
    cur = _bench_json(tmp_path / "cur.json", {"b::t_a": 0.011})
    assert guard.main([cur, "--baseline", base, "--no-history"]) == 0
    assert "OK " in capsys.readouterr().out


def test_regression_fails(guard, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"b::t_a": 0.010})
    cur = _bench_json(tmp_path / "cur.json", {"b::t_a": 0.013})  # 0.77x
    assert guard.main([cur, "--baseline", base, "--no-history"]) == 1
    assert "REG" in capsys.readouterr().out


def test_missing_benchmark_fails(guard, tmp_path):
    base = _bench_json(tmp_path / "base.json",
                       {"b::t_a": 0.010, "b::t_b": 0.010})
    cur = _bench_json(tmp_path / "cur.json", {"b::t_a": 0.010})
    assert guard.main([cur, "--baseline", base, "--no-history"]) == 1


def test_improvement_detected_and_baseline_emitted(guard, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"b::t_a": 0.010})
    cur = _bench_json(tmp_path / "cur.json", {"b::t_a": 0.008})  # 1.25x
    assert guard.main([cur, "--baseline", base, "--no-history"]) == 0
    assert "IMP" in capsys.readouterr().out
    updated = base + ".updated"
    assert os.path.exists(updated)
    assert json.load(open(updated)) == json.load(open(cur))


def test_update_baseline_in_place(guard, tmp_path):
    base = _bench_json(tmp_path / "base.json", {"b::t_a": 0.010})
    cur = _bench_json(tmp_path / "cur.json", {"b::t_a": 0.008})
    assert guard.main([cur, "--baseline", base, "--no-history",
                       "--update-baseline"]) == 0
    assert json.load(open(base)) == json.load(open(cur))
    assert not os.path.exists(base + ".updated")


def test_history_entry_schema(guard, tmp_path):
    base = _bench_json(tmp_path / "base.json",
                       {"b::t_a": 0.010, "b::t_b": 0.010})
    cur = _bench_json(tmp_path / "cur.json",
                      {"b::t_a": 0.008, "b::t_b": 0.010, "b::t_c": 0.005})
    history = tmp_path / "hist.jsonl"
    assert guard.main([cur, "--baseline", base,
                       "--history", str(history)]) == 0
    (entry,) = [json.loads(line) for line in history.read_text().splitlines()]
    assert entry["datetime"] == "2026-01-01T00:00:00"
    assert entry["commit"] == "deadbeef"
    assert entry["threshold"] == 0.15
    assert entry["improvements"] == ["b::t_a"]
    assert entry["new"] == ["b::t_c"]
    assert entry["regressions"] == []
    assert entry["benches"]["b::t_a"]["ratio"] == pytest.approx(1.25)
    assert entry["benches"]["b::t_c"]["ratio"] is None


def test_history_appends_regression_names(guard, tmp_path):
    base = _bench_json(tmp_path / "base.json", {"b::t_a": 0.010})
    cur = _bench_json(tmp_path / "cur.json", {"b::t_a": 0.020})
    history = tmp_path / "hist.jsonl"
    assert guard.main([cur, "--baseline", base,
                       "--history", str(history)]) == 1
    (entry,) = [json.loads(line) for line in history.read_text().splitlines()]
    assert entry["regressions"] == ["b::t_a"]

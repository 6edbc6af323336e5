"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench

They run small builtins only and take about 15 s.
"""

import json
import re
import time

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads(run.DIGESTS.read_text())["ops"]
KZ2 = run.Op("kz2", ("report", "kz2"))


def _op(op, seed=0, trace=False):
    return run.run_op(op, seed, time.monotonic() + 120, trace)


@pytest.fixture
def mini(monkeypatch, tmp_path):
    """A one-operation workload and a digest table that can be tampered with."""
    run.prepare("gallery", time.monotonic() + 60)
    table = tmp_path / "digests.json"
    table.write_text(json.dumps({"ops": EXPECTED}))
    monkeypatch.setitem(run.WORKLOADS, "mini", (KZ2,))
    monkeypatch.setitem(run.CAL_EXPONENT, "mini", 0.5)
    monkeypatch.setattr(run, "DIGESTS", table)
    monkeypatch.setattr(run, "SETUP_OPS", 3)
    return table


def _tamper(table, **entry):
    doc = json.loads(table.read_text())
    doc["ops"]["kz2"].update(entry)
    table.write_text(json.dumps(doc))


def test_judge_accepts_any_seed():
    # every seed is checked against the one recorded (seed-0) report
    assert run.judge(_op(KZ2, 0), 0, EXPECTED["kz2"]) is None
    assert run.judge(_op(KZ2, 12345), 12345, EXPECTED["kz2"]) is None


def test_judge_rejects_other_seed_field_or_form():
    res = _op(KZ2, 3)
    assert run.judge(res, 4, EXPECTED["kz2"]).startswith("mismatch: report carries")
    doc = json.loads(res["report"])
    res["report"] = (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
    assert run.judge(res, 3, EXPECTED["kz2"]).startswith("mismatch: report is not in")


def test_digest_mismatch_is_a_failure(mini):
    _tamper(mini, sha256="0" * 64)
    rec = run.run("mini", 0, 0, trace=False)
    assert rec["failed"] == rec["attempted"] >= 1
    assert rec["correct"] is False
    assert rec["metrics"]["ok_ratio"]["value"] == 0
    assert rec["failures"][0]["why"].startswith("mismatch")


def test_compare_at_count_change_is_a_failure(mini):
    counts = EXPECTED["kz2"]["compare_at"]
    _tamper(mini, compare_at={**counts, "items": counts["items"] + 1})
    rec = run.run("mini", 0, 0, trace=True)
    # only the traced pass is checked for counts
    assert [p["traced"] for p in rec["passes"]] == [False, True]
    assert rec["failed"] == 1 and rec["correct"] is False
    assert rec["failures"][0]["pass"] == 1
    assert "compare_at" in rec["failures"][0]["why"]


def test_time_metrics_are_scaled_by_host_speed(mini):
    rec = run.run("mini", 0, 0, trace=False)
    assert rec["calibration_samples"] >= run.CAL_SAMPLES and rec["host_speed"] > 0
    assert rec["scale"] == pytest.approx(rec["host_speed"] ** 0.5)
    assert set(rec["unscaled"]) == {"wall_s", "cpu_s", "setup_s"}
    for name, raw in rec["unscaled"].items():
        assert raw > 0
        assert rec["metrics"][name]["value"] == pytest.approx(raw * rec["scale"])


def test_verdict_only_entry():
    expected = EXPECTED["pair_groupoid"]
    report = {"checks": [{"check": c, "status": "fail"} for c in expected["fails"]]}
    res = {"timed_out": False, "error": None, "exit": 1,
           "report": json.dumps(report).encode()}
    # verdict only: neither the seed field nor the exact bytes are checked
    assert run.judge(res, 0, expected) is None
    report["checks"].pop()
    res["report"] = json.dumps(report).encode()
    assert run.judge(res, 0, expected).startswith("mismatch")
    # the seed commit raises instead of reporting: failed, but no wrong output
    res.update(error="ExactError: x", report=b"")
    assert run.judge(res, 0, expected).startswith("raised")


@pytest.mark.parametrize("name", ["kz2", "ks3_f3", "disconnected_groupoid"])
def test_tracing_leaves_reports_identical(name):
    op = run.Op(name, ("report", name))
    plain, traced = _op(op, 7), _op(op, 7, trace=True)
    assert plain["report"] and plain["report"] == traced["report"]
    assert plain["exit"] == traced["exit"] == 0
    assert run.judge(traced, 7, EXPECTED[name]) is None
    # layer totals are split at verify_model: loading is set-up, not wall_s
    setup, measured = traced["trace"]["setup"], traced["trace"]["run"]
    assert measured["totals"]["verify.verify_model"]["calls"] == 1
    assert setup["totals"]["presentation.load"]["calls"] == 1
    assert "presentation.load" not in measured["totals"]
    assert "verify.verify_model" not in setup["totals"]


def test_metric_names_are_declared(mini):
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        rec = run.run("mini", 0, 0, trace=trace)
        assert rec["correct"] and rec["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCH[key]}
        emitted = {k: m["unit"] for k, m in rec["metrics"].items()}
        assert emitted == declared
        assert all(pattern.fullmatch(k) for k in emitted)

"""Runner: scoring, the declared metric set, and a serve_steady smoke run."""

import json
from pathlib import Path

from bench.runner import (
    DEFAULT_SECONDS,
    END_TO_END,
    hermetic_env,
    load_expected,
    run_workload,
    summarize,
)
from bench.workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _main_report(digests):
    return {
        "ready_s": 1.0,
        "warmup_s": 0.5,
        "warmup_digest": "good",
        "ops_per_rep": 10,
        "reps": [{"seconds": 1.0, "digest": d} for d in digests],
        "peak_rss_mb": 100.0,
    }


def test_benchmark_json_declares_what_the_runner_emits():
    doc = _benchmark_json()
    assert doc["command"][:2] == ["python3", "-m"]
    assert doc["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [
        cls.why for cls in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    ] == list(END_TO_END)
    main = _main_report(["good", "good"])
    result = summarize("zoo_build", 1, main, [main], {"seed": 7})
    assert list(result["metrics"]) == [m["name"] for m in doc["end_to_end"]]
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (20, 0)


def test_forced_digest_mismatch_fails_every_op_of_the_rep():
    main = _main_report(["good", "bad", None, "good"])
    result = summarize("zoo_build", 1, main, [main], {"seed": 7})
    assert not result["correct"]
    assert result["attempted"] == 40
    assert result["failed"] == 20  # the mismatching and the raising rep


def test_committed_digest_is_the_reference_for_the_committed_seed():
    main = _main_report(["good", "good"])
    expected = {"seed": 7, "digests": {"zoo_build": "committed"}}
    assert summarize("zoo_build", 7, main, [main], expected)["failed"] == 20
    assert summarize("zoo_build", 8, main, [main], expected)["failed"] == 0


def test_hermetic_env(tmp_path):
    env = hermetic_env(tmp_path)
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == "src"
    assert env["REPRO_ZOO_CACHE"].startswith(str(tmp_path))
    assert env["TMPDIR"].startswith(str(tmp_path))
    assert env["OPENBLAS_NUM_THREADS"] == "1"


def test_serve_steady_smoke():
    result = run_workload("serve_steady", DEFAULT_SEED, seconds=1)
    assert result["correct"], result["details"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["details"]["reps"] == 1
    assert (
        result["details"]["digest"]
        == load_expected()["digests"]["serve_steady"]
    )
    assert list(result["metrics"]) == [
        m["name"] for m in _benchmark_json()["end_to_end"]
    ]
    assert all(m["value"] > 0 for m in result["metrics"].values())

"""Tests for the trtsim command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def _commands(parser=None, prefix=()):
    """``(command path, positional dests, option strings)`` of every
    leaf subcommand."""
    parser = parser or build_parser()
    subparsers = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    if not subparsers:
        return [(
            list(prefix),
            [a.dest for a in parser._actions if not a.option_strings],
            {s for a in parser._actions for s in a.option_strings},
        )]
    return [
        leaf
        for name, sub in subparsers[0].choices.items()
        for leaf in _commands(sub, prefix + (name,))
    ]


#: Subcommands whose first positional names a zoo model (``lint``
#: also takes a .plan path, ``analyze`` a list of models).
MODEL_COMMANDS = [
    path for path, positionals, _ in _commands()
    if positionals[:1] in (["model"], ["target"], ["models"])
]
#: (command path, positionals, flag, bad value, error wording) for every
#: option that names execution providers or zoo models.
FLAG_CASES = [
    (path, positionals, flag, value, wording)
    for path, positionals, options in _commands()
    for flag, value, wording in (
        ("--provider", "bogus", "unknown execution provider 'bogus'"),
        ("--providers", "bogus", "unknown execution provider 'bogus'"),
        ("--model", "no_such_model", "unknown model 'no_such_model'"),
        ("--models", "alexnet,no_such_model", "unknown model 'no_such_model'"),
        ("--int8-model", "no_such_model", "unknown model 'no_such_model'"),
        ("--fallback", "no_such_model", "unknown model 'no_such_model'"),
    )
    if flag in options
]


def _usage_error(argv, capsys):
    """Run ``main(argv)``; it must exit 2 with one error line."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip().splitlines()[-1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_device_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "alexnet", "--device", "TX2"])


class TestBadInputIsAUsageError:
    def test_the_sweeps_cover_the_model_and_provider_commands(self):
        assert {" ".join(p) for p in MODEL_COMMANDS} >= {
            "build", "run", "profile", "inspect", "lint", "store build",
            "faults", "metrics", "trace", "analyze",
        }
        assert {
            (" ".join(p), flag) for p, _, flag, _, _ in FLAG_CASES
        } >= {
            ("build", "--provider"), ("run", "--provider"),
            ("fleet", "--providers"), ("fleet", "--model"),
            ("accuracy", "--models"), ("colocate matrix", "--models"),
            ("faults", "--fallback"),
        }

    @pytest.mark.parametrize("command", MODEL_COMMANDS, ids=" ".join)
    def test_unknown_model(self, command, capsys):
        line = _usage_error(command + ["no_such_model"], capsys)
        assert line.startswith(f"trtsim {' '.join(command)}: error: ")
        assert "unknown model 'no_such_model'" in line

    @pytest.mark.parametrize(
        "command, positionals, flag, value, wording", FLAG_CASES,
        ids=[" ".join(case[0]) + " " + case[2] for case in FLAG_CASES],
    )
    def test_unknown_name_in_a_flag(
        self, command, positionals, flag, value, wording, capsys
    ):
        model = ["alexnet"] if positionals else []
        line = _usage_error(command + model + [flag, value], capsys)
        assert line.startswith(
            f"trtsim {' '.join(command)}: error: argument {flag}"
        )
        assert wording in line

    @pytest.mark.parametrize("command", ["faults", "metrics"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_deadline_must_be_finite_and_positive(
        self, command, value, capsys
    ):
        line = _usage_error(
            [command, "alexnet", "--deadline-ms", value], capsys
        )
        assert "--deadline-ms" in line

    @pytest.mark.parametrize(
        "argv, flag, wording",
        [
            (["faults", "alexnet", "--scenario", "bogus"], "--scenario",
             "unknown canned fault plan 'bogus'"),
            (["metrics", "alexnet", "--scenario", "bogus"], "--scenario",
             "unknown canned fault plan 'bogus'"),
            (["fleet", "--scenario", "bogus"], "--scenario",
             "unknown canned fleet plan 'bogus'"),
            (["faults", "alexnet", "--scenario-file", "missing.json"],
             "--scenario-file", "cannot read fault plan missing.json"),
        ],
        ids=["faults", "metrics", "fleet", "faults-file"],
    )
    def test_unknown_fault_plan(self, argv, flag, wording, capsys):
        line = _usage_error(argv, capsys)
        assert line.startswith(
            f"trtsim {argv[0]}: error: argument {flag}"
        )
        assert wording in line

    @pytest.mark.parametrize(
        "document",
        ["not json", '{"plan": []}', '{"scenarios": [{"kind": "bogus"}]}',
         '{"scenarios": [1]}'],
        ids=["not-json", "no-scenarios", "bad-kind", "not-an-object"],
    )
    def test_malformed_fault_plan_file(self, document, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(document)
        line = _usage_error(
            ["faults", "alexnet", "--scenario-file", str(path)], capsys
        )
        assert line.startswith("trtsim faults: error: argument --scenario-file")

    def test_fleet_scenario_none_still_parses(self):
        args = build_parser().parse_args(["fleet", "--scenario", "none"])
        assert args.scenario == "none"


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Xavier NX" in out and "Xavier AGX" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "ResNet-18" in out
        assert "Tiny-Yolov3" in out

    def test_build_and_save(self, capsys, tmp_path):
        plan = tmp_path / "e.plan"
        code = main(
            ["build", "mtcnn", "--device", "NX", "--seed", "3",
             "--no-pretrain", "-o", str(plan)]
        )
        assert code == 0
        assert plan.exists()
        out = capsys.readouterr().out
        assert "Engine" in out
        assert "dead_layer_removal" in out

    def test_run_cross_platform(self, capsys):
        code = main(
            ["run", "mtcnn", "--device", "AGX",
             "--compile-device", "NX", "--runs", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compiled on NX, run on AGX" in out

    def test_profile(self, capsys):
        assert main(["profile", "mtcnn", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Calls" in out

    def test_concurrency(self, capsys):
        assert main(["concurrency", "mtcnn", "--device", "NX"]) == 0
        out = capsys.readouterr().out
        assert "saturates at" in out

    def test_concurrency_with_batch(self, capsys):
        assert main(
            ["concurrency", "mtcnn", "--device", "NX", "--batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "micro-batch 4" in out


class TestBatchSweepCommand:
    def test_table(self, capsys):
        assert main(
            ["batch-sweep", "mtcnn", "--device", "NX",
             "--batches", "1,2,4"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch sweep" in out
        assert "agg FPS" in out
        assert "speedup" in out

    def test_json(self, capsys):
        import json

        assert main(
            ["batch-sweep", "mtcnn", "--device", "NX",
             "--batches", "1,8", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["batch"] for p in doc["points"]] == [1, 8]
        assert doc["points"][0]["speedup"] == 1.0
        assert doc["points"][1]["aggregate_fps"] > (
            doc["points"][0]["aggregate_fps"]
        )
        assert doc["saturation_batch"] in (1, 8)

    def test_trace(self, capsys, tmp_path):
        import json

        trace = tmp_path / "batch.trace.json"
        assert main(
            ["batch-sweep", "mtcnn", "--device", "NX",
             "--batches", "1,4", "--trace", str(trace)]
        ) == 0
        doc = json.loads(trace.read_text())
        batched = [
            e for e in doc["traceEvents"]
            if e.get("args", {}).get("batch") == 4
        ]
        assert batched  # batch-4 events carry the annotation
        assert not any(
            e.get("args", {}).get("batch") == 1
            for e in doc["traceEvents"]
        )  # batch-1 events stay unannotated (byte-identical)


class TestExtensionCommands:
    def test_exec(self, capsys):
        assert main(["exec", "mtcnn", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Engine" in out
        assert "per-kernel summary" in out

    def test_clocks(self, capsys):
        assert main(["clocks", "mtcnn", "--device", "AGX"]) == 0
        out = capsys.readouterr().out
        assert "DVFS ladder sweep" in out
        assert "best efficiency" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "mtcnn"]) == 0
        out = capsys.readouterr().out
        assert "kernel invocations" in out

    def test_inspect_json(self, capsys):
        import json

        assert main(["inspect", "mtcnn", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_layers"] > 0

    def test_trace(self, capsys, tmp_path):
        out_file = tmp_path / "t.json"
        assert main(
            ["trace", "mtcnn", "--runs", "2", "-o", str(out_file)]
        ) == 0
        assert out_file.exists()


class TestFaultsCommand:
    def test_canned_scenario_reports_slo_table(self, capsys):
        code = main(
            ["faults", "mtcnn", "--app", "adas", "--scenario",
             "flaky_kernels", "--frames", "6", "--events"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "supervised" in out and "unsupervised" in out
        assert "deadline-hit rate" in out
        assert "hit-rate gain" in out

    def test_scenario_file_and_trace_output(self, capsys, tmp_path):
        from repro.faults import FaultKind, FaultPlan, FaultScenario

        plan_file = tmp_path / "campaign.json"
        FaultPlan(
            scenarios=[
                FaultScenario(kind=FaultKind.KERNEL_HANG, probability=0.5)
            ],
            seed=2,
            name="file_campaign",
        ).save(plan_file)
        trace_file = tmp_path / "faults.trace.json"
        code = main(
            ["faults", "mtcnn", "--app", "adas",
             "--scenario-file", str(plan_file),
             "--frames", "6", "--trace", str(trace_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "file_campaign" in out
        assert trace_file.exists()

    def test_unknown_scenario_fails_loudly(self, capsys):
        line = _usage_error(["faults", "mtcnn", "--scenario", "volcano"], capsys)
        assert "unknown canned fault plan 'volcano'" in line


class TestStoreCommand:
    def test_build_miss_then_hit(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        args = ["store", "build", "mtcnn", "--device", "NX",
                "--no-pretrain", "--store", store_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "miss" in first
        assert main(args + ["--seed", "99"]) == 0
        second = capsys.readouterr().out
        assert "hit" in second
        assert "0 fresh measurements" in second

    def test_build_json_kernels_seed_independent(self, capsys, tmp_path):
        import json

        store_dir = str(tmp_path / "store")
        base = ["store", "build", "mtcnn", "--no-pretrain",
                "--store", store_dir, "--json"]
        assert main(base + ["--seed", "1"]) == 0
        doc1 = json.loads(capsys.readouterr().out)
        assert main(base + ["--seed", "2"]) == 0
        doc2 = json.loads(capsys.readouterr().out)
        assert doc1["outcome"] == "miss" and doc2["outcome"] == "hit"
        assert doc2["fresh_measurements"] == 0
        assert doc1["kernels"] == doc2["kernels"]

    def test_ls_and_stats(self, capsys, tmp_path):
        import json

        store_dir = str(tmp_path / "store")
        assert main(["store", "ls", "--store", store_dir]) == 0
        assert "empty" in capsys.readouterr().out
        main(["store", "build", "mtcnn", "--no-pretrain",
              "--store", store_dir])
        capsys.readouterr()
        assert main(["store", "ls", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "MTCNN" in out and "1 entries" in out
        assert main(["store", "stats", "--store", store_dir]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "trtsim.engine_store/1"
        assert doc["entries"] == 1

    def test_gc_evicts_over_budget(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        for model in ("mtcnn", "googlenet"):
            main(["store", "build", model, "--no-pretrain",
                  "--store", store_dir])
        capsys.readouterr()
        assert main(["store", "gc", "--store", store_dir,
                     "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 evicted" in out and "1 entries remain" in out

    def test_warm_selected_models(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(["store", "warm", "--models", "mtcnn",
                     "--no-pretrain", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "mtcnn" in out and "miss" in out

    def test_build_through_store_flag(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(["build", "mtcnn", "--no-pretrain",
                     "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "store miss" in out and "Engine" in out


class TestCaseInsensitiveDevice:
    def test_lowercase_device_accepted(self, capsys):
        assert main(["concurrency", "mtcnn", "--device", "nx"]) == 0
        assert "saturates at" in capsys.readouterr().out

    def test_mixed_case_device_accepted(self, capsys):
        assert main(["run", "mtcnn", "--device", "aGx", "--runs", "2"]) == 0

    def test_unknown_device_still_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mtcnn", "--device", "tx2"])


class TestCanonicalKeywordFlags:
    def test_run_accepts_clock_and_batch_size(self, capsys):
        code = main(
            ["run", "mtcnn", "--device", "NX", "--runs", "2",
             "--clock-mhz", "400", "--batch-size", "2"]
        )
        assert code == 0

    def test_concurrency_batch_alias(self, capsys):
        assert main(
            ["concurrency", "mtcnn", "--device", "NX",
             "--batch-size", "2", "--clock-mhz", "800"]
        ) == 0
        assert "micro-batch 2" in capsys.readouterr().out


class TestMetricsCommand:
    def test_prometheus_exposition(self, capsys):
        from repro.telemetry import iter_prometheus_lines

        code = main(
            ["metrics", "mtcnn", "--device", "nx", "--frames", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # iter_prometheus_lines skips comments, including the trailing
        # "# <summary>" line the command appends.
        parsed = iter_prometheus_lines(out)
        names = {name for name, _, _ in parsed}
        assert "trtsim_requests_total" in names
        assert "trtsim_inferences_total" in names

    def test_json_document(self, capsys):
        import json

        code = main(
            ["metrics", "mtcnn", "--device", "NX", "--frames", "4",
             "--streams", "2", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "trtsim.metrics/1"
        assert doc["report"]["schema"] == "trtsim.service_report/1"
        assert doc["report"]["totals"]["requests"] == 8
        counters = {c["name"] for c in doc["metrics"]["counters"]}
        assert "trtsim_requests_total" in counters

    def test_jsonl_snapshot(self, capsys, tmp_path):
        import json

        snapshot = tmp_path / "telemetry.jsonl"
        code = main(
            ["metrics", "mtcnn", "--device", "NX", "--frames", "3",
             "--jsonl", str(snapshot)]
        )
        assert code == 0
        lines = snapshot.read_text().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "serve.request" in kinds
        assert "exec.kernel" in kinds


class TestUnifiedTrace:
    def test_unified_trace_has_request_track(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "unified.json"
        code = main(
            ["trace", "mtcnn", "--device", "NX", "--unified",
             "--runs", "3", "-o", str(out_file)]
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"kernel", "memcpy", "request"} <= cats


class TestFleetCommand:
    FAST = [
        "--devices", "2xNX+1xAGX", "--model", "mtcnn",
        "--duration-s", "1.0", "--clock-mhz", "230",
        "--seed", "7",
    ]

    def test_single_run_summary_and_events(self, capsys, tmp_path):
        code = main(
            ["fleet", *self.FAST, "--scenario", "fleet_chaos",
             "--store", str(tmp_path / "store"), "--events"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attainment" in out
        assert "failovers" in out
        assert "event log:" in out
        assert "fault device_crash dev1" in out

    def test_json_report_is_deterministic(self, capsys, tmp_path):
        import json

        args = ["fleet", *self.FAST, "--scenario", "fleet_chaos",
                "--store", str(tmp_path / "store"), "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["schema"] == "trtsim.fleet_report/1"
        assert doc["requests"] > 0

    def test_compare_gate_passes_and_writes_report(
        self, capsys, tmp_path
    ):
        import json

        report = tmp_path / "fleet-report.json"
        code = main(
            ["fleet", *self.FAST, "--compare",
             "--scenario", "fleet_chaos",
             "--utilization", "0.8",
             "--store", str(tmp_path / "store"),
             "--min-gain", "1.5", "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit-rate gain" in out
        assert "gate:" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == "trtsim.fleet_comparison/1"
        assert doc["hit_rate_gain"] >= 1.5

    def test_compare_gate_fails_on_impossible_threshold(
        self, capsys, tmp_path
    ):
        code = main(
            ["fleet", *self.FAST, "--compare",
             "--scenario", "fleet_chaos",
             "--store", str(tmp_path / "store"),
             "--min-gain", "1000"]
        )
        assert code == 1

    def test_unknown_scenario_fails_loudly(self, capsys):
        line = _usage_error(["fleet", "--scenario", "no_such_plan"], capsys)
        assert "unknown canned fleet plan 'no_such_plan'" in line

    def test_policy_sweep_table(self, capsys, tmp_path):
        code = main(
            ["fleet", *self.FAST, "--policies",
             "--scenario", "fleet_chaos",
             "--store", str(tmp_path / "store")]
        )
        assert code == 0
        out = capsys.readouterr().out
        for policy in ("round-robin", "least-loaded", "latency-aware",
                       "engine-affinity"):
            assert policy in out


class TestColocateCommand:
    def test_matrix_table_and_report(self, capsys, tmp_path):
        import json

        report = tmp_path / "INTERFERENCE_matrix.json"
        code = main(
            ["colocate", "matrix",
             "--models", "alexnet,googlenet,mtcnn",
             "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alexnet" in out and "googlenet" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == "trtsim.interference/1"
        assert len(doc["pairings"]) == 3

    def test_pairings_ranked(self, capsys):
        assert main(
            ["colocate", "pairings",
             "--models", "alexnet,googlenet,mobilenet_v1"]
        ) == 0
        out = capsys.readouterr().out
        assert "best" in out and "worst" in out

    def test_advisor_gate_fails_on_impossible_threshold(self, capsys):
        code = main(
            ["colocate", "advisor",
             "--models", "alexnet,googlenet,mobilenet_v1,mtcnn",
             "--devices", "2xNX", "--duration-s", "1.0",
             "--min-gain", "1000"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "attainment gain" in out

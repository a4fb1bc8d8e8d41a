"""Smoke tests: the runnable examples must execute end to end.

The two quick examples run in-process; the longer application demos
are covered by tests/apps (same code paths, smaller workloads).
"""

import importlib.util
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_exist(self):
        present = {p.name for p in EXAMPLES.glob("*.py")}
        for required in (
            "quickstart.py",
            "traffic_intersection.py",
            "adas_pipeline.py",
            "nondeterminism_tour.py",
            "quantization_study.py",
        ):
            assert required in present

    def test_quickstart_runs(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "engine build" in out
        assert "top-1 error" in out
        assert "latency:" in out

    def test_quantization_study_runs(self, capsys):
        _load("quantization_study").main()
        out = capsys.readouterr().out
        assert "fp32" in out and "int8" in out

    def test_examples_have_docstrings(self):
        for path in EXAMPLES.glob("*.py"):
            text = path.read_text()
            assert text.startswith('"""'), path.name
            assert "Run:" in text, path.name

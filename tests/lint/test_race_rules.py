"""One seeded-race fixture per R-family concurrency rule, and the
headline acceptance check: our own serving stack analyzes clean.

Each fixture is a minimal Python source written to ``tmp_path`` and fed
to :func:`repro.lint.lint_races` — exactly how the analyzer consumes
real code, so the tests certify the AST pipeline end to end (parse,
lock modeling, held-set propagation, rule evaluation).
"""

from __future__ import annotations

import textwrap

from repro.lint import Baseline, lint_races


def analyze(tmp_path, source, name="fixture.py", **kwargs):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_races(paths=[path], **kwargs)


def rule_ids(report):
    return {d.rule_id for d in report.diagnostics}


# ----------------------------------------------------------------------
# R001 / R003: unguarded and inconsistently guarded writes
# ----------------------------------------------------------------------
def test_r001_unguarded_shared_write(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class Racy:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def guarded(self):
                with self._lock:
                    self.count += 1

            def unguarded(self):
                self.count += 1
        """,
    )
    ids = rule_ids(report)
    assert "R001" in ids, report.format_text()
    assert "R003" in ids, report.format_text()
    diag = next(d for d in report.diagnostics if d.rule_id == "R001")
    assert diag.path and diag.line


def test_r001_fully_guarded_class_is_clean(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class Safe:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def read(self):
                with self._lock:
                    return self.count
        """,
    )
    assert report.ok, report.format_text()


def test_private_helper_inherits_callers_lock(tmp_path):
    # The held-set fixpoint: _close is only ever called with the lock
    # held, so its writes are guarded even without a ``with`` of its own.
    report = analyze(
        tmp_path,
        """
        import threading

        class Queue:
            def __init__(self):
                self._lock = threading.Lock()
                self.pending = []

            def submit(self, item):
                with self._lock:
                    self.pending.append(item)
                    if len(self.pending) > 4:
                        return self._close()
                    return None

            def flush(self):
                with self._lock:
                    return self._close()

            def _close(self):
                batch = list(self.pending)
                self.pending.clear()
                return batch
        """,
    )
    assert report.ok, report.format_text()


# ----------------------------------------------------------------------
# R002: shared class with no lock at all
# ----------------------------------------------------------------------
def test_r002_shared_class_missing_lock(tmp_path):
    report = analyze(
        tmp_path,
        """
        class BatchingQueue:
            def __init__(self):
                self.items = []

            def submit(self, item):
                self.items.append(item)

            def drain(self):
                batch = list(self.items)
                self.items.clear()
                return batch
        """,
    )
    assert "R002" in rule_ids(report), report.format_text()


def test_r002_respects_shared_classes_override(tmp_path):
    source = """
    class Widget:
        def __init__(self):
            self.items = []

        def add(self, item):
            self.items.append(item)

        def clear(self):
            self.items.clear()
    """
    assert analyze(tmp_path, source).ok
    report = analyze(tmp_path, source, shared_classes={"Widget"})
    assert "R002" in rule_ids(report), report.format_text()


# ----------------------------------------------------------------------
# R004: lock-order violations and self-deadlock
# ----------------------------------------------------------------------
def test_r004_lock_order_cycle(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class TwoLocks:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()
                self.x = 0

            def one(self):
                with self.a:
                    with self.b:
                        self.x += 1

            def two(self):
                with self.b:
                    with self.a:
                        self.x -= 1
        """,
    )
    assert "R004" in rule_ids(report), report.format_text()


def test_r004_nonreentrant_reacquire(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class SelfDeadlock:
            def __init__(self):
                self._lock = threading.Lock()
                self.n = 0

            def outer(self):
                with self._lock:
                    self.inner()

            def inner(self):
                with self._lock:
                    self.n += 1
        """,
    )
    assert "R004" in rule_ids(report), report.format_text()


def test_r004_rlock_reacquire_is_fine(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class Reentrant:
            def __init__(self):
                self._lock = threading.RLock()
                self.n = 0

            def outer(self):
                with self._lock:
                    self.inner()

            def inner(self):
                with self._lock:
                    self.n += 1
        """,
    )
    assert "R004" not in rule_ids(report), report.format_text()


# ----------------------------------------------------------------------
# R005: module-global mutation
# ----------------------------------------------------------------------
def test_r005_unguarded_module_global(tmp_path):
    report = analyze(
        tmp_path,
        """
        COUNTER = 0

        def bump():
            global COUNTER
            COUNTER += 1
        """,
    )
    assert "R005" in rule_ids(report), report.format_text()


def test_r005_guarded_global_is_clean(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        COUNTER = 0
        _LOCK = threading.Lock()

        def bump():
            global COUNTER
            with _LOCK:
                COUNTER += 1
        """,
    )
    assert "R005" not in rule_ids(report), report.format_text()


# ----------------------------------------------------------------------
# R006: unsynchronized iteration
# ----------------------------------------------------------------------
def test_r006_unsynchronized_iteration(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.entries = {}

            def put(self, key, value):
                with self._lock:
                    self.entries[key] = value

            def total(self):
                return sum(v for v in self.entries.values())
        """,
    )
    assert "R006" in rule_ids(report), report.format_text()


def test_r006_snapshot_iteration_is_clean(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.entries = {}

            def put(self, key, value):
                with self._lock:
                    self.entries[key] = value

            def keys(self):
                with self._lock:
                    return list(self.entries)
        """,
    )
    assert "R006" not in rule_ids(report), report.format_text()


# ----------------------------------------------------------------------
# R007: check-then-act
# ----------------------------------------------------------------------
def test_r007_check_then_act(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self.data = {}

            def getter(self, key):
                with self._lock:
                    return self.data.get(key)

            def add(self, key, value):
                if key not in self.data:
                    self.data[key] = value
        """,
    )
    assert "R007" in rule_ids(report), report.format_text()


# ----------------------------------------------------------------------
# R008: lock reassignment
# ----------------------------------------------------------------------
def test_r008_lock_reassigned(tmp_path):
    report = analyze(
        tmp_path,
        """
        import threading

        class Resettable:
            def __init__(self):
                self._lock = threading.Lock()
                self.n = 0

            def bump(self):
                with self._lock:
                    self.n += 1

            def reset(self):
                self._lock = threading.Lock()
        """,
    )
    assert "R008" in rule_ids(report), report.format_text()


# ----------------------------------------------------------------------
# R999: unparseable source
# ----------------------------------------------------------------------
def test_unparseable_file_is_an_error(tmp_path):
    report = analyze(tmp_path, "def broken(:\n")
    assert "R999" in rule_ids(report), report.format_text()
    assert not report.ok


# ----------------------------------------------------------------------
# the acceptance check: our own stack analyzes clean
# ----------------------------------------------------------------------
def test_serving_stack_analyzes_clean():
    """ISSUE acceptance: after the day-one race fixes, the installed
    ``repro`` package carries zero R-findings — with an *empty*
    baseline, not a suppressed one."""
    report = lint_races()
    assert not report.diagnostics, report.format_text()


def test_checked_in_baseline_is_empty():
    from pathlib import Path

    import repro

    repo_root = Path(repro.__file__).resolve().parents[2]
    baseline = Baseline.load(repo_root / "analysis-baseline.json")
    assert len(baseline) == 0

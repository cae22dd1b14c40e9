"""The --since line filter of run.py, fed synthetic `git diff -U0 --no-prefix` output, the
time limit that _run passes to a suite, on synthetic test files, and main's exit status, on
synthetic mutants and KNOWN entries.

This file sits beside run.py, outside the tests/test_*.py glob that a mutant's
suite is built from, so no mutant run pays for it.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutants_run", Path(__file__).with_name("run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

MUTANTS = run.mutants()
EXACTNUM = (run.PACKAGE / "exactnum.py").read_text().splitlines()
LINE = EXACTNUM.index("    if den < 0:") + 1  # in _lowest_terms; the next line negates num and den


def diff(path: str, hunk: str) -> str:
    return f"diff --git {path} {path}\nindex 0000000..1111111 100644\n--- {path}\n+++ {path}\n{hunk}\n"


def spanning(*lines: int) -> list:
    return [m for m in MUTANTS if m[0] == "exactnum" and any(line in m[4] for line in lines)]


def test_one_changed_line_selects_the_mutants_spanning_it():
    picked = run.changed(MUTANTS, diff("src/spherectl/exactnum.py", f"@@ -{LINE} +{LINE} @@\n-    if den<0:\n"
                                                                    "+    if den < 0:"))
    assert picked == spanning(LINE)
    # the if statement, its comparison and the literal 0; not the negation on the next line
    assert {m[1:3] for m in picked} == {("if den < 0: num, den = -num, -den", "stmt"), ("den < 0", "cmp < -> <="),
                                        ("den < 0", "int")}


def test_a_pure_deletion_touches_the_lines_on_both_sides():
    picked = run.changed(MUTANTS, diff("src/spherectl/exactnum.py", f"@@ -{LINE + 1} +{LINE},0 @@\n-    pass"))
    assert picked == spanning(LINE, LINE + 1)
    assert ("num, den = -num, -den", "stmt") in {m[1:3] for m in picked}


@pytest.mark.parametrize("path", ["src/spherectl/__init__.py", "tests/exactnum.py", "src/spherectl/exactnum.pyc"])
def test_other_files_select_nothing(path):
    assert run.changed(MUTANTS, diff(path, f"@@ -{LINE} +{LINE} @@\n-x\n+y")) == []


def test_hunks_of_several_modules_add_up():
    made = (run.PACKAGE / "bundle.py").read_text().splitlines().index("    return BundleClass(n, k)") + 1
    text = (diff("src/spherectl/bundle.py", f"@@ -{made - 1},0 +{made} @@\n+    return BundleClass(n, k)")
            + diff("src/spherectl/exactnum.py", f"@@ -{LINE} +{LINE},2 @@\n-a\n+b\n+c"))
    picked = run.changed(MUTANTS, text)
    assert picked == [m for m in MUTANTS if m[0] == "bundle" and made in m[4]] + spanning(LINE, LINE + 1)
    assert ("bundle", "return BundleClass(n, k)", "stmt") in {m[:3] for m in picked}


def test_a_suite_past_its_limit_is_stopped(tmp_path):
    test = tmp_path / "test_sleeps.py"
    test.write_text("import time\n\n\ndef test_sleeps():\n    time.sleep(60)\n")
    start = time.monotonic()
    status, seconds = run._run([str(test)], 1)
    assert status == "timeout"
    assert 1 <= seconds < time.monotonic() - start < 10


def test_a_suite_with_no_limit_runs_to_the_end_on_its_copy(tmp_path):
    test = tmp_path / "test_passes.py"
    test.write_text("import spherectl\n\n\ndef test_copy():\n    assert 'spherectl-mutant-' in spherectl.__file__\n")
    assert run._run([str(test)], None)[0] == "survived"


@pytest.mark.parametrize("known, status, exit_status", [
    ({}, "killed", 0),
    ({("exactnum", "a", "int"): "why"}, "survived", 0),  # a known survivor
    ({}, "survived", 1),  # a live survivor
    ({("exactnum", "a", "int"): "why"}, "killed", 1),  # KILLED: a test now kills the entry
    ({("exactnum", "gone", "int"): "why"}, "killed", 1),  # STALE: the entry is no longer a mutant
])
def test_a_known_entry_that_is_stale_or_killed_fails_the_run(monkeypatch, known, status, exit_status):
    monkeypatch.setattr(run, "mutants", lambda: [("exactnum", "a", "int", 0, range(1, 2))])
    monkeypatch.setattr(run, "KNOWN", known)
    # the control passes; the one mutant ends with status
    monkeypatch.setattr(run, "_run", lambda files, limit, module=None, index=0: (
        "survived" if module is None else status, 1.0))
    assert run.main([]) == exit_status

"""Byte-identity of the CLI against a golden corpus.

tests/golden/cli_corpus.jsonl holds one JSON object per invocation of
`spherectl.cli.main`: its argv, the SPHERECTL_FORMAT value it ran under
(`env`, when set), its exit code, and the sha256 and byte length of its
stdout and stderr.  The corpus was generated once, before the closed-form
refactor of `moduli` and `space`, from:

  * every `spherectl` example in the README and in the CI workflow;
  * every argv the test suite passed to `cli.main` in one run;
  * the first 200 operations of the seed-11 `census_sweep`,
    `components_family` and `cli_cold` benchmark decks, stored as literal
    argv so that nothing here imports the benchmark.

tests/golden/cli_formats.jsonl holds entries of the same form, recorded the
same way before the output format was resolved in one place: the pretty
output of every command, SPHERECTL_FORMAT set to pretty, tsv and an unknown
value, the refusals that exit 2 (TSV outside census and family, the output
byte budget, the census class limit and the argument checks), the help
screens the corpus lacks and two usage errors for an unknown --format.

Five entries of source "fallback", appended to the corpus later and recorded
before `main` read well-formed argv from its option table, pin what argparse
alone reads: an abbreviation, a repeated option, a flag given =value,
--scal --no-scal, and --from -5 as a token of its own.

Both files are fixed references: a change that alters any output fails these
tests, and neither file is to be regenerated to make them pass.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from helpers import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
CORPUS = GOLDEN / "cli_corpus.jsonl"
FORMATS = GOLDEN / "cli_formats.jsonl"


def replay(entry: dict) -> dict:
    code, out, err = run(*entry["argv"])
    got = {"exit": code}
    for name, text in (("stdout", out), ("stderr", err)):
        data = text.encode()
        got[f"{name}_sha256"] = hashlib.sha256(data).hexdigest()
        got[f"{name}_len"] = len(data)
    return got


def replay_all(path: pathlib.Path, monkeypatch) -> tuple[int, list]:
    """Replay every entry of path; return the entry count and the mismatches."""
    # argparse wraps help and usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    mismatches = []
    for entry in entries:
        monkeypatch.delenv("SPHERECTL_FORMAT", raising=False)
        for name, value in entry.get("env", {}).items():
            monkeypatch.setenv(name, value)
        got = replay(entry)
        want = {key: entry[key] for key in got}
        if got != want:
            mismatches.append((entry["source"], entry["argv"][:8], want["exit"], got["exit"]))
    return len(entries), mismatches


def test_corpus_replays_byte_for_byte(monkeypatch):
    count, mismatches = replay_all(CORPUS, monkeypatch)
    assert count > 900
    assert mismatches == []


def test_format_pins_replay_byte_for_byte(monkeypatch):
    count, mismatches = replay_all(FORMATS, monkeypatch)
    assert count == 38
    assert mismatches == []

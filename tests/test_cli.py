from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from spherectl import bundle, classify, cli, exactnum, moduli, space
from spherectl.bundle import make_bundle
from spherectl.classify import census
from spherectl.cli import main
from spherectl.moduli import infinite_components_report
from helpers import child_env, fresh_interpreter, int_str_digits, record_calls, run, trace_events
from test_classify import census_reference
from test_golden import CORPUS, FORMATS as FORMAT_PINS


class TestInvariantsCommand:
    def test_milnor_sphere_dossier(self):
        code, out, err = run("invariants", "--n", "1", "--k", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == "1/28"
        assert payload["p1sq_W"] == "36/1"
        assert payload["sign_W"] == 1
        assert err == ""

    def test_reverse_orientation(self):
        code, out, _ = run("invariants", "--n", "1", "--k", "3", "--reverse-orientation")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == "27/28"
        assert payload["sign_W"] == -1

    def test_parity_violation_exit_2(self):
        code, out, err = run("invariants", "--n", "1", "--k", "2")
        assert code == 2
        assert out == ""
        assert "parity violation: k ≡ n (mod 2) required" in err

    def test_trivial_euler_exit_2(self):
        code, _, err = run("invariants", "--n", "0", "--k", "0")
        assert code == 2
        assert "Euler class must be non-trivial" in err


class TestClassifyCommand:
    def test_yes_exit_0(self):
        code, out, _ = run("classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115")
        assert code == 0
        payload = json.loads(out)
        assert (payload["answer"], payload["reason"]) == ("Yes", "MuInvariantEqual")

    def test_no_exit_1(self):
        code, out, _ = run("classify", "--n1", "2", "--k1", "2", "--n2", "3", "--k2", "1")
        assert code == 1
        assert json.loads(out)["reason"] == "CohomologyObstruction"

    def test_unknown_exit_3(self):
        code, out, _ = run("classify", "--n1", "5", "--k1", "1", "--n2", "5", "--k2", "3")
        assert code == 3
        assert json.loads(out)["reason"] == "OutsideKnownCriteria"

    def test_unoriented_flag(self):
        code, out, _ = run("classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "21", "--unoriented")
        assert code == 0
        assert json.loads(out)["answer"] == "Yes"

    @pytest.mark.parametrize("argv, code, reason", [
        (["--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115"], 0, "MuInvariantEqual"),
        (["--n1", "1", "--k1", "1", "--n2", "1", "--k2", "3"], 1, "MuInvariantDiffer"),
        (["--n1", "5", "--k1", "1", "--n2", "5", "--k2", "111"], 3, "OutsideKnownCriteria"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_exit_code_follows_the_verdict(self, argv, code, reason, fmt):
        got, out, _ = run("classify", *argv, "--format", fmt)
        assert got == code
        assert reason in out


class TestExitCodes:
    def test_table_matches_the_docstring(self):
        # the docstring lists the outcomes of each exit code: "    3  Unknown / Inconclusive / ..."
        listed = {}
        for line in cli.__doc__.splitlines():
            code, _, outcomes = line.strip().partition("  ")
            if code.isdigit():
                listed[int(code)] = outcomes.split(" / ")
        assert all(verdict in listed[code] for verdict, code in cli.EXIT_CODES.items())

    def test_every_verdict_has_an_exit_code(self):
        answers = {answer for answer, _ in classify._VERDICTS}
        assert set(cli.EXIT_CODES) == answers | {moduli.DISTINCT_COMPONENTS, moduli.INCONCLUSIVE}

    def test_components_exit_code_comes_from_the_table(self, monkeypatch):
        codes = {verdict: 10 + i for i, verdict in enumerate(cli.EXIT_CODES)}
        monkeypatch.setattr(cli, "EXIT_CODES", codes)
        for argv, verdict in [
            (("--n", "1", "--l", "3", "--pairs", "3"), moduli.DISTINCT_COMPONENTS),
            (("--n", "1", "--l", "3", "--pairs", "0"), moduli.INCONCLUSIVE),
            (("--n", "2", "--l", "-112", "--pairs", "2"), moduli.INCONCLUSIVE),
        ]:
            assert run("components", *argv)[0] == codes[verdict]


class TestCertifyCommand:
    def test_distinct_components(self):
        code, out, _ = run("certify", "--n", "1", "--k0", "1", "--k1", "113")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "DistinctComponents"
        assert payload["p1sq_X"] == "-51072/1"
        assert payload["ahat"] == "forced-zero"
        assert payload["curvature_classes"] == ["sec>=0", "Ric>0", "scal>0"]

    def test_no_scal_flag(self):
        code, out, _ = run("certify", "--n", "1", "--k0", "1", "--k1", "113", "--no-scal")
        assert code == 0
        assert json.loads(out)["curvature_classes"] == ["sec>=0", "Ric>0"]

    def test_quote_provenance(self):
        code, out, _ = run("certify", "--n", "1", "--k0", "1", "--k1", "113", "--quote-provenance")
        assert code == 0
        steps = json.loads(out)["provenance"]
        assert len(steps) == 7
        assert any("Lichnerowicz" in s for s in steps)

    def test_identical_pair_inconclusive_exit_3(self):
        code, out, _ = run("certify", "--n", "1", "--k0", "3", "--k1", "3")
        assert code == 3
        assert json.loads(out)["verdict"] == "Inconclusive"


class TestComponentsCommand:
    def test_banner_on_full_success(self):
        code, out, _ = run("components", "--n", "1", "--l", "3", "--pairs", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["banner"] == "infinitely many path components certified"
        assert payload["family"] == [3, 115, 227, 339]
        assert len(payload["certificates"]) == 6
        assert payload["curvature_classes"] == ["sec>=0", "Ric>0", "scal>0"]

    def test_zero_pairs_withholds_verdict(self):
        code, out, _ = run("components", "--n", "1", "--l", "3", "--pairs", "0")
        assert code == 3
        payload = json.loads(out)
        assert payload["banner"] is None
        assert payload["certificates"] == []


class TestCensusCommand:
    def test_sixteen_classes(self):
        code, out, _ = run("census", "--n", "1", "--from", "1", "--to", "223")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 16
        assert payload["skipped"] == 111
        assert payload["unknown_pairs_count"] == 0

    def test_unoriented_eleven_classes(self):
        code, out, _ = run("census", "--n", "1", "--from", "1", "--to", "223", "--unoriented")
        assert code == 0
        assert len(json.loads(out)["classes"]) == 11

    def test_tsv_format(self):
        code, out, _ = run("census", "--n", "1", "--from", "1", "--to", "223", "--format", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "representative\tmembers_count\tmu"
        assert len(lines) == 17


class TestRealizedMuCommand:
    def test_sixteen_values(self):
        code, out, _ = run("realized-mu")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 16
        assert payload["values"] == [
            "0/1", "1/28", "3/28", "3/14", "1/4", "2/7", "5/14", "13/28",
            "1/2", "15/28", "17/28", "5/7", "3/4", "11/14", "6/7", "27/28",
        ]

    def test_unoriented_eleven_values(self):
        code, out, _ = run("realized-mu", "--unoriented")
        payload = json.loads(out)
        assert payload["count"] == 11
        assert payload["values"] == [
            "0/1", "1/28", "3/28", "1/7", "3/14", "1/4", "2/7", "5/14",
            "11/28", "13/28", "1/2",
        ]


class TestFamilyCommand:
    def test_json_members(self):
        code, out, _ = run("family", "--n", "3", "--l", "1", "--count", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["step"] == 336
        assert [m["k"] for m in payload["members"]] == [1, 337]

    def test_tsv_format(self):
        code, out, _ = run("family", "--n", "1", "--l", "3", "--count", "3", "--format", "tsv")
        lines = out.strip().splitlines()
        assert lines == ["euler\tk", "1\t3", "1\t115", "1\t227"]


class TestOutputContract:
    def test_byte_identical_reruns(self):
        _, first, _ = run("census", "--n", "3", "--from", "1", "--to", "337")
        _, second, _ = run("census", "--n", "3", "--from", "1", "--to", "337")
        assert first == second

    def test_json_keys_sorted(self):
        _, out, _ = run("certify", "--n", "1", "--k0", "1", "--k1", "113")
        payload = json.loads(out)
        assert list(payload.keys()) == sorted(payload.keys())

    def test_no_floats_anywhere(self):
        _, out, _ = run("invariants", "--n", "2", "--k", "4")

        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        assert no_floats(json.loads(out))

    @pytest.mark.parametrize("argv", [
        ["invariants", "--n", "1", "--k", "3"],
        ["classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115"],
        ["certify", "--n", "1", "--k0", "1", "--k1", "113"],
        ["components", "--n", "1", "--l", "3", "--pairs", "3"],
        ["census", "--n", "3", "--from", "1", "--to", "337"],
        ["realized-mu"],
        ["family", "--n", "1", "--l", "3", "--count", "3"],
    ], ids=lambda argv: argv[0])
    def test_every_json_report_prints_through_one_writer(self, monkeypatch, argv):
        # in every format the command accepts, one _emit call writes all of stdout
        emit, written = cli._emit, []

        def recording_emit(*args, **kwargs):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                emit(*args, **kwargs)
            written.append(out.getvalue())
            sys.stdout.write(out.getvalue())

        monkeypatch.setattr(cli, "_emit", recording_emit)
        for fmt in ("json", "pretty", "tsv") if argv[0] in ("census", "family") else ("json", "pretty"):
            written.clear()
            code, out, err = run(*argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert written == [out] and out.endswith("\n")
            if fmt == "json":
                json.loads(out)

    def test_env_var_overrides_format(self, monkeypatch):
        monkeypatch.setenv("SPHERECTL_FORMAT", "pretty")
        code, out, _ = run("realized-mu")
        assert code == 0
        assert out.splitlines()[0] == "0/1"

    def test_explicit_format_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("SPHERECTL_FORMAT", "pretty")
        _, out, _ = run("realized-mu", "--format", "json")
        json.loads(out)

    NON_TSV_COMMANDS = [
        ["invariants", "--n", "1", "--k", "3"],
        ["classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115"],
        ["certify", "--n", "1", "--k0", "1", "--k1", "113"],
        ["components", "--n", "1", "--l", "3", "--pairs", "3"],
        ["realized-mu"],
    ]

    def test_tsv_rejected_outside_census_and_family(self, monkeypatch):
        for argv in self.NON_TSV_COMMANDS:
            monkeypatch.delenv("SPHERECTL_FORMAT", raising=False)
            code, out, err = run(*argv, "--format", "tsv")
            assert (code, out) == (2, ""), argv
            assert "census and family" in err
            monkeypatch.setenv("SPHERECTL_FORMAT", "tsv")
            code, out, err = run(*argv)
            assert (code, out) == (2, ""), argv
            assert "census and family" in err

    def test_tsv_from_env_var_accepted_by_census_and_family(self, monkeypatch):
        monkeypatch.setenv("SPHERECTL_FORMAT", "tsv")
        code, out, err = run("census", "--n", "2", "--from", "1", "--to", "9")
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["representative\tmembers_count\tmu", "2\t1\t-"]
        code, out, err = run("family", "--n", "3", "--l", "1", "--count", "2")
        assert (code, err) == (0, "")
        assert out == "euler\tk\n3\t1\n3\t337\n"

    def test_module_entry_point(self):
        code, out, _ = fresh_interpreter("classify", "--n1", "1", "--k1", "1", "--n2", "1", "--k2", "3")
        assert code == 1
        assert json.loads(out)["reason"] == "MuInvariantDiffer"

    def test_negative_parameters_parse(self):
        code, out, _ = run("invariants", "--n", "1", "--k", "-5")
        assert code == 0
        assert json.loads(out)["mu"] == "3/28"


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flags_do_not_leak_between_calls(self):
        code, out, _ = run("census", "--n", "1", "--from", "1", "--to", "223", "--unoriented")
        assert code == 0
        assert json.loads(out)["unoriented"] is True
        code, out, _ = run("census", "--n", "1", "--from", "1", "--to", "223")
        assert code == 0
        payload = json.loads(out)
        assert payload["unoriented"] is False
        assert len(payload["classes"]) == 16


# spellings that argparse alone reads (each declined by cli._recognize), and argv that the
# recognizer reads itself; the 5,000-digit k is past the digit limit that main lifts
RECOGNIZER_EDGES = [
    (["census", "--n", "1", "--fro", "1", "--to", "3"], False),
    (["census", "--n", "1", "--n", "2", "--from", "1", "--to", "9"], False),
    (["census", "--n", "1", "--from", "1", "--to", "3", "--unoriented=1"], False),
    (["certify", "--n", "1", "--k0", "1", "--k1", "113", "--scal", "--no-scal"], False),
    (["invariants", "--n", "1", "--k", "-1_000"], False),
    (["invariants", "--n", "1", "--k="], False),
    (["invariants", "--n", "1", "--k", "3", "--"], False),
    (["census", "-h"], False),
    (["census", "--n", "1", "--from", "-5", "--to", "5"], True),
    (["census", "--n", "1", "--from=-5", "--to", "5"], True),
    (["invariants", "--n", "1", "--k", "٣"], True),
    (["invariants", "--n", "1", "--k", "9" * 5000], True),
]
VALUES = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["json", "tsv", "pretty", "xml", "-", "", " 5", "5 ", "-5 ", "1_0", "-1_0", "٣", "-٣", "-²",
                     "0x1", "-1.5", "--n", "-h"]),
    st.text(max_size=3),
)
NOISE = st.one_of(VALUES, st.sampled_from(["--", "-h", "--help", "--fro", "--coun", "--no-unoriented", "--k=",
                                           "--unoriented=1", "--format=json", "--n=-1", "--scal", "--no-scal"]))


def recognized_as_argparse_reads_it(argv: list[str]) -> bool:
    """Whether cli._recognize reads argv, asserting that parse_args then succeeds with the
    same vars().  The digit limit is lifted, as main lifts it before the recognizer runs."""
    with int_str_digits(0):
        fast = cli._recognize(argv)
        if fast is not None:
            with contextlib.redirect_stderr(io.StringIO()):  # a SystemExit fails the test
                assert vars(fast) == vars(cli._build_parser().parse_args(argv))
    return fast is not None


@st.composite
def token_soups(draw):
    """A command and its options in any order, one in ten missing, each value a valid one
    or, one in six, from VALUES, given as --name=value or --name value, a flag or, one in
    four, its --no- form, and, one soup in four, up to two noise tokens."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for name, _, kind, _ in draw(st.permutations((*cli._COMMANDS[command][2], cli._FORMAT))):
        if draw(st.integers(0, 9)) == 0:
            continue
        if isinstance(kind, bool):
            argv.append(draw(st.sampled_from([name, name, name, f"--no-{name[2:]}"])))
            continue
        if draw(st.integers(0, 5)) == 0:
            value = draw(VALUES)
        else:
            value = draw(st.sampled_from(cli.FORMATS) if kind is cli.FORMATS else st.integers(-10**6, 10**6).map(str))
        argv += draw(st.sampled_from([[f"{name}={value}"], [name, value]]))
    if draw(st.integers(0, 3)) == 0:
        for index, token in draw(st.lists(st.tuples(st.integers(0, len(argv)), NOISE), max_size=2)):
            argv.insert(index, token)
    return argv


class TestRecognizer:
    """cli._recognize reads the argv it accepts as parse_args does, and leaves the rest to argparse."""

    @settings(max_examples=300, deadline=None)
    @given(token_soups())
    @example(["census", "--n", "1", "--fro", "1", "--to", "3"])
    @example(["census", "--n", "1", "--n", "2", "--from", "1", "--to", "9"])
    @example(["census", "--n", "1", "--from", "1", "--to", "3", "--unoriented=1"])
    @example(["certify", "--n", "1", "--k0", "1", "--k1", "3", "--scal", "--no-scal"])
    @example(["census", "--n", "1", "--from", "-5", "--to", "5"])
    @example(["census", "--n", "1", "--from=-5", "--to", "5"])
    @example(["invariants", "--n", "1", "--k", "-1_000"])
    @example(["invariants", "--n", "1", "--k", "٣"])
    @example(["invariants", "--n", "1", "--k="])
    @example(["--", "invariants", "--n", "1", "--k", "3"])
    @example(["invariants", "--n", "1", "--", "--k", "3"])
    @example(["-h"])
    @example(["invariants", "--n", "1", "--k", "-h"])
    @example(["invariants", "--n", "1", "--k", "9" * 5000])
    def test_accepted_argv_parses_the_same(self, argv):
        recognized_as_argparse_reads_it(argv)

    @pytest.mark.parametrize("argv, recognized", RECOGNIZER_EDGES)
    def test_edges(self, argv, recognized):
        assert recognized_as_argparse_reads_it(argv) == recognized

    def test_golden_argv_parse_the_same(self):
        """Every golden argv that argparse parses is recognized, bar the entries that pin the
        fallback, so the fast path is not vacuous; and every one that argparse rejects is not."""
        entries = [json.loads(line) for path in (CORPUS, FORMAT_PINS) for line in path.read_text().splitlines()]
        recognized = 0
        with int_str_digits(0), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for entry in entries:
                fast = cli._recognize(entry["argv"])
                try:
                    slow = cli._build_parser().parse_args(entry["argv"])
                except SystemExit:  # --help and usage errors
                    assert fast is None, entry["argv"]
                    continue
                if entry["source"] != "fallback":
                    assert fast is not None, entry["argv"]
                if fast is not None:
                    assert vars(fast) == vars(slow), entry["argv"]
                    recognized += 1
        assert recognized > 950


# one well-formed query of each command
CANONICAL_ARGV = [
    ["census", "--n", "1", "--from", "-300", "--to", "300", "--unoriented"],
    ["components", "--n=2", "--l=-1120", "--pairs=5", "--no-scal"],
    ["classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "21", "--unoriented", "--format", "pretty"],
    ["certify", "--n", "1", "--k0", "1", "--k1", "113", "--quote-provenance"],
    ["invariants", "--n", "1", "--k", "-5", "--reverse-orientation"],
    ["family", "--n", "3", "--l", "1", "--count", "4", "--format=tsv"],
    ["realized-mu", "--unoriented"],
]


class TestParserCost:
    """A well-formed query builds no argparse parser, and prints what argparse's reading prints."""

    @pytest.mark.parametrize("argv", CANONICAL_ARGV, ids=lambda argv: argv[0])
    def test_canonical_query_builds_no_parser(self, argv):
        with mock.patch.object(cli, "_build_parser", side_effect=AssertionError("parser built")):
            fast = run(*argv)
        with mock.patch.object(cli, "_recognize", return_value=None):
            slow = run(*argv)
        assert fast == slow
        assert fast[0] in (0, 1, 3) and fast[1]

    def test_console_script_argv_builds_no_parser(self, capsys, monkeypatch):
        """main() reads sys.argv[1:], as the console script calls it."""
        monkeypatch.setattr(sys, "argv", ["spherectl", *CANONICAL_ARGV[0]])
        with mock.patch.object(cli, "_build_parser", side_effect=AssertionError("parser built")):
            code = main()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["unoriented"] is True

    def test_declined_argv_builds_the_parser(self):
        with mock.patch.object(cli, "_build_parser", side_effect=AssertionError("parser built")):
            with pytest.raises(AssertionError, match="parser built"):
                run("census", "--n", "1", "--fro", "1", "--to", "3")


class TestCensusWindow:
    def test_reversed_window_exit_2(self):
        code, out, err = run("census", "--n", "1", "--from", "10", "--to", "1")
        assert code == 2
        assert out == ""
        assert "k_from <= k_to" in err

    def test_single_point_window(self):
        code, out, _ = run("census", "--n", "1", "--from", "2", "--to", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["skipped"] == 1
        assert payload["classes"] == []


POSITIVE_NOTE = (
    "The family k = l + 112n*j consists of pairwise distinct positive parameters, so "
    "k0^2 != k1^2 and every pair of members separates, not only the pairs sampled "
    "here; the enumerator is unbounded, so the certified components are infinite in "
    "number."
)


class TestComponentsNote:
    def test_positive_l_keeps_the_positive_parameter_note(self):
        code, out, _ = run("components", "--n", "1", "--l", "3", "--pairs", "3")
        assert code == 0
        assert json.loads(out)["note"] == POSITIVE_NOTE

    def test_negative_l_not_divisible_by_56n(self):
        # -110 is not a multiple of 56*2, so no two members have opposite k
        code, out, _ = run("components", "--n", "2", "--l", "-110", "--pairs", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["family"] == [-110, 114, 338, 562]
        note = payload["note"]
        assert "positive parameters" not in note
        assert "every pair of members separates" in note
        assert "unbounded" in note

    def test_opposite_members_fail_and_note_says_so(self):
        # k = -112 and k = 112 are members 0 and 1: i + j = 1 = -l/(56n)
        code, out, _ = run("components", "--n", "2", "--l", "-112", "--pairs", "2")
        assert code == 3
        payload = json.loads(out)
        assert payload["certified"] is False
        assert payload["banner"] is None
        assert [c["verdict"] for c in payload["certificates"]] == [
            "Inconclusive", "DistinctComponents", "DistinctComponents",
        ]
        note = payload["note"]
        assert "every pair of members separates" not in note
        assert "i + j = -l/(56n)" in note
        assert "finitely many pairs fail to separate" in note
        assert "unbounded" in note

    def test_zero_l_has_no_opposite_pair(self):
        code, out, _ = run("components", "--n", "2", "--l", "0", "--pairs", "2")
        assert code == 0
        assert "positive parameters" not in json.loads(out)["note"]


class TestHugeParameters:
    """Parameters past CPython's default 4300-digit int<->str limit parse and render."""

    K = 10**4999 + 7  # 5,000 digits, odd
    K_STR = "1" + "0" * 4998 + "7"

    @pytest.fixture(autouse=True)
    def default_limit(self):
        with int_str_digits(4300):
            yield

    @staticmethod
    def loads(out: str) -> dict:
        with int_str_digits(0):
            return json.loads(out)

    def test_invariants(self):
        code, out, err = run("invariants", "--n", "1", "--k", self.K_STR)
        assert (code, err) == (0, "")
        payload = self.loads(out)
        assert payload["k"] == self.K
        with int_str_digits(0):
            assert payload["p1sq_W"] == f"{4 * self.K * self.K}/1"

    def test_certify(self):
        k1 = self.K + 112
        k1_str = self.K_STR[:-3] + "119"
        code, out, err = run("certify", "--n", "1", "--k0", self.K_STR, "--k1", k1_str)
        assert (code, err) == (0, "")
        payload = self.loads(out)
        assert payload["verdict"] == "DistinctComponents"
        with int_str_digits(0):
            assert payload["p1sq_X"] == f"{4 * (self.K * self.K - k1 * k1)}/1"

    def test_components(self):
        code, out, err = run("components", "--n", "1", "--l", self.K_STR, "--pairs", "2")
        assert (code, err) == (0, "")
        payload = self.loads(out)
        assert payload["family"] == [self.K, self.K + 112, self.K + 224]
        assert [c["verdict"] for c in payload["certificates"]] == ["DistinctComponents"] * 3

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str digit limit")
    def test_limit_restored_after_main(self):
        run("components", "--n", "1", "--l", self.K_STR, "--pairs", "1")
        assert sys.get_int_max_str_digits() == 4300
        run("invariants", "--n", "1", "--k", "2")  # exit 2
        assert sys.get_int_max_str_digits() == 4300
        assert run("invariants", "--n", "1")[0] == 2  # argparse error
        assert sys.get_int_max_str_digits() == 4300


def assert_same_text(got: str, want: str) -> None:
    """assert got == want, reported at the first differing line: pytest's own report of two
    unequal texts or tuples diffs them whole (tuples only when CI is set), which takes minutes
    for reports of megabytes."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    first = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), None)
    assert first is None, f"line {first + 1}: {got_lines[first]!r} != {want_lines[first]!r}"
    assert len(got_lines) == len(want_lines)


@st.composite
def components_inputs(draw):
    n = draw(st.sampled_from((1, 2, 3, 5, 10)))
    l = draw(st.one_of(
        st.integers(min_value=-10**4, max_value=10**4),
        st.integers(min_value=-40, max_value=40).map(lambda m: 56 * n * m),
        st.integers(min_value=-10**1000, max_value=10**1000),
    ))
    l += (l - n) % 2  # k = n (mod 2); multiples of 56n stay put for even n
    return n, l, draw(st.integers(min_value=0, max_value=8))


def components_pretty_reference(n: int, l: int, pairs: int, quote: bool, scal: bool) -> tuple[int, str]:
    """The pretty printer of `components` as it was before it rendered closed-form
    rows: one line per certificate of the library report."""
    report = infinite_components_report(make_bundle(n, l), pairs, include_scal=scal)
    payload = report.to_dict(quote_provenance=quote)
    lines = []
    if report.banner:
        lines.append(report.banner)
        lines.append(f"curvature: {' '.join(payload['curvature_classes'])}")
    else:
        lines.append("verdict withheld" if report.certified is None else "certification failed")
    lines.append(f"family: {' '.join(str(k) for k in payload['family'])}")
    for cert in payload["certificates"]:
        lines.append(f"  k0={cert['k0']} k1={cert['k1']}: {cert['verdict']} (p1sq_X = {cert['p1sq_X']})")
    lines.append(payload["note"])
    return (0 if report.certified else 3), "".join(line + "\n" for line in lines)


class TestComponentsRenderer:
    """The per-report template renderer against the to_dict + json.dumps reference."""

    # no shrink phase, so that a failure is reported within seconds, not after shrinking large reports
    @settings(max_examples=150, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    @given(components_inputs(), st.booleans(), st.booleans())
    @example((2, -112, 2), False, True)
    @example((10, -1120, 8), True, False)
    @example((1, 3, 0), True, True)
    @example((1, 3, 60), True, True)
    @example((3, -10**60 + 1, 40), False, False)
    @example((2, -112 * 5, 40), False, True)  # l = -56n*5: pairs with i + j = 5 fail
    @example((4, -224 * 79, 40), True, True)  # i + j = 79 = 2*pairs - 1, the last pair
    @example((6, -336 * 80, 40), False, True)  # i + j = 80 is out of reach: certified
    @example((10, -560 * 50, 55), True, False)
    @example((5, 10**299 + 1, 8), True, True)  # 300 digits: member strings are built from big ints
    def test_json_matches_reference(self, inputs, quote, scal):
        n, l, pairs = inputs
        argv = ["components", "--n", str(n), "--l", str(l), "--pairs", str(pairs)]
        argv += ["--quote-provenance"] if quote else []
        argv += [] if scal else ["--no-scal"]
        code, out, _ = run(*argv)
        report = infinite_components_report(make_bundle(n, l), pairs, include_scal=scal)
        assert_same_text(out, json.dumps(report.to_dict(quote), indent=2, sort_keys=True) + "\n")
        assert code == (0 if report.certified else 3)

    # pretty output as the parent of the template renderer printed it; the last
    # line is the note, which for l <= 0 changed and is checked by TestComponentsNote
    @pytest.mark.parametrize("argv, code, lines, note", [
        (["--n", "1", "--l", "3", "--pairs", "2"], 0, [
            "infinitely many path components certified",
            "curvature: sec>=0 Ric>0 scal>0",
            "family: 3 115 227",
            "  k0=3 k1=115: DistinctComponents (p1sq_X = -52864/1)",
            "  k0=3 k1=227: DistinctComponents (p1sq_X = -206080/1)",
            "  k0=115 k1=227: DistinctComponents (p1sq_X = -153216/1)",
        ], POSITIVE_NOTE),
        (["--n", "3", "--l", "1", "--pairs", "1", "--no-scal", "--quote-provenance"], 0, [
            "infinitely many path components certified",
            "curvature: sec>=0 Ric>0",
            "family: 1 337",
            "  k0=1 k1=337: DistinctComponents (p1sq_X = -151424/1)",
        ], POSITIVE_NOTE),
        (["--n", "1", "--l", "3", "--pairs", "0"], 3, [
            "verdict withheld",
            "family: 3",
        ], POSITIVE_NOTE),
        (["--n", "2", "--l", "-112", "--pairs", "2"], 3, [
            "certification failed",
            "family: -112 112 336",
            "  k0=-112 k1=112: Inconclusive (p1sq_X = 0/1)",
            "  k0=-112 k1=336: DistinctComponents (p1sq_X = -200704/1)",
            "  k0=112 k1=336: DistinctComponents (p1sq_X = -200704/1)",
        ], None),
    ])
    def test_pretty_output_unchanged(self, argv, code, lines, note):
        got_code, out, _ = run("components", *argv, "--format", "pretty")
        assert got_code == code
        *body, last = out.splitlines()
        assert body == lines
        if note is not None:
            assert last == note

    @settings(max_examples=100, deadline=None)
    @given(components_inputs(), st.booleans(), st.booleans())
    @example((2, -112, 2), False, True)
    @example((2, -336, 9), True, True)
    @example((4, -448, 5), False, False)
    @example((1, 3, 50), False, True)
    @example((2, -112 * 30, 45), True, False)
    def test_pretty_matches_reference(self, inputs, quote, scal):
        n, l, pairs = inputs
        argv = ["components", "--n", str(n), "--l", str(l), "--pairs", str(pairs), "--format", "pretty"]
        argv += ["--quote-provenance"] if quote else []
        argv += [] if scal else ["--no-scal"]
        assert run(*argv)[:2] == components_pretty_reference(n, l, pairs, quote, scal)

    @pytest.mark.parametrize("argv", [
        pytest.param(["components", "--n", "1", "--l", "3", "--pairs", "40", "--format", "json"], id="json"),
        pytest.param(["components", "--n", "1", "--l", "3", "--pairs", "40", "--format", "pretty"], id="pretty"),
        pytest.param(["census", "--n", "1786", "--from", "1", "--to", "4000"], id="census-json"),
        *(pytest.param(["family", "--n", "1", "--l", "3", "--count", "2000", "--format", fmt], id=f"family-{fmt}")
          for fmt in ("json", "pretty", "tsv")),
    ])
    def test_rows_are_written_as_they_are_rendered(self, argv):
        # the report is written as it is rendered, so it is never held whole
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        with contextlib.redirect_stdout(Recorder()):
            assert main(argv) == 0
        sizes = [len(text) for text in writes]
        if argv[0] != "components":
            # no single write carries more than a sliver of the report
            assert max(sizes) * 50 < sum(sizes)
            return
        # components writes each family member's certificates in one call, member i holding
        # pairs - i of them, between the head and the tail: in JSON the head shares its write
        # with member 0 and the tail is 1 write, in pretty they are 1 write each of their own
        pairs, fmt = 40, argv[-1]
        head, tail, marker = {"json": (0, 1, '"k0": '), "pretty": (1, 1, "  k0=")}[fmt]
        assert len(writes) == {"json": pairs + 1, "pretty": pairs + 2}[fmt]
        assert [text.count(marker) for text in writes] == [0] * head + list(range(pairs, 0, -1)) + [0] * tail
        # so no write holds more than the head and member 0's certificates, about 2/(pairs+1) of the output
        assert max(sizes) * (pairs + 1) < 2 * sum(sizes)

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_cli_builds_at_most_one_certificate(self, monkeypatch, fmt):
        built = record_calls(monkeypatch, moduli.SeparationCertificate)
        code, out, _ = run("components", "--n", "1", "--l", "3", "--pairs", "30", "--format", fmt)
        assert code == 0
        assert out.count("DistinctComponents") == 30 * 31 // 2
        assert len(built) <= 1
        # the library report still builds every certificate
        built.clear()
        infinite_components_report(make_bundle(1, 3), 30)
        assert len(built) == 30 * 31 // 2

    @pytest.mark.parametrize("fmt, certificates", [("json", 1), ("pretty", 0)])
    def test_cli_cost_is_linear_in_pairs(self, monkeypatch, fmt, certificates):
        # components is O(pairs): it builds the base bundle, no BundleClass per member, no more
        # than the one sample certificate of the JSON output (of the base) with its one
        # Rational, and one row per member i < pairs, while it prints 150*151/2 certificates
        built = {cls.__name__: record_calls(monkeypatch, cls)
                 for cls in (bundle.BundleClass, moduli.SeparationCertificate, exactnum.Rational)}
        yielded = []
        components_rows = moduli._components_rows

        def counting_rows(*args, **kwargs):
            report, rows = components_rows(*args, **kwargs)
            return report, (yielded.append(row) or row for row in rows)

        monkeypatch.setattr(moduli, "_components_rows", counting_rows)
        code, out, _ = run("components", "--n", "3", "--l", "1", "--pairs", "150", "--format", fmt)
        assert code == 0
        assert out.count("DistinctComponents") == 150 * 151 // 2
        assert {name: len(calls) for name, calls in built.items()} == {
            "BundleClass": 1, "SeparationCertificate": certificates, "Rational": certificates}
        assert len(yielded) == 150

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_cli_bytecode_is_linear_in_pairs(self, fmt):
        # the CLI runs no Python code per certificate: the lines it executes grow with the
        # members, not with the pairs(pairs+1)/2 certificates, so 4 times the pairs costs
        # under 5 times the lines, where code run per certificate would cost about 16 times
        def lines_run(pairs: int) -> int:
            argv = ["components", "--n", "2", "--l", "-560", "--pairs", str(pairs), "--format", fmt]
            (code, out, _), count = trace_events(lambda: run(*argv), cli.__file__, "line")
            # -l/(56n) = 5, so the pairs (0, 5), (1, 4) and (2, 3) have p == 0
            assert code == 3 and out.count("Inconclusive") == 3
            return count

        assert lines_run(160) < 5 * lines_run(40)


@st.composite
def census_inputs(draw):
    n = draw(st.sampled_from((1, 2, 3, 7, 1786)))
    k_from = draw(st.one_of(st.integers(min_value=-500, max_value=500),
                            st.integers(min_value=-10**60, max_value=10**60)))
    return n, k_from, k_from + draw(st.integers(min_value=0, max_value=1500))


@st.composite
def family_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    l = draw(st.one_of(st.integers(min_value=-10**4, max_value=10**4),
                       st.integers(min_value=-10**300, max_value=10**300)))
    return n, l + (l - n) % 2, draw(st.integers(min_value=1, max_value=40))


def census_pretty_reference(payload: dict) -> str:
    """The pretty printer of `census` as it was before it rendered closed-form rows: one line per class of
    a report's to_dict() payload."""
    (k_from, k_to), classes = payload["range"], payload["classes"]
    lines = [f"n={payload['n']} range=[{k_from}, {k_to}] classes={len(classes)} skipped={payload['skipped']} "
             f"unknown_pairs={payload['unknown_pairs_count']}"]
    lines += [f"  k={c['representative']}: {c['members_count']} members, mu={c['mu'] or '-'}" for c in classes]
    return "".join(line + "\n" for line in lines)


class TestListRenderers:
    """census and family, printed row by row, against references that share no code
    with the renderers: the window-walking census of test_classify and the library
    family, as the CLI printed them before it streamed."""

    @settings(max_examples=100, deadline=None)
    @given(census_inputs(), st.booleans(), st.sampled_from(("json", "tsv", "pretty")))
    @example((1, 2, 2), False, "json")  # no class: one even k
    @example((1, 2, 2), True, "pretty")
    @example((2, 3, 3), True, "tsv")  # no class: one odd k
    @example((1, 5, 60), False, "pretty")  # n = 1 windows shorter than 112
    @example((1, -41, 30), True, "tsv")
    @example((1, 10**20 + 1, 10**20 + 100), True, "json")
    @example((1, -10**59 - 1, 10**59 + 1), True, "json")
    @example((7, 10**60 - 1, 10**60 + 700), False, "json")
    @example((1786, 1, 1500), False, "json")
    @example((1786, 1, 200_000), False, "pretty")  # the class limit, header line included
    # valid = 56n*q - 1, 56n*q and 56n*q + 1, where the first s residues switch from q + 1 to q
    # members, with k_to a valid k or one past it
    @example((2, -301, 144), False, "json")
    @example((2, -301, 147), True, "tsv")
    @example((2, -301, 149), False, "pretty")
    @example((3, 10**20 + 1, 10**20 + 334), True, "tsv")
    @example((3, 10**20 + 1, 10**20 + 335), False, "pretty")
    @example((3, 10**20 + 1, 10**20 + 338), True, "json")
    @example((7, -50, 732), False, "pretty")
    @example((7, -50, 733), True, "json")
    @example((7, -50, 736), False, "tsv")
    # an n > 1 run is written 32 classes to a write: 31, 32 and 33 classes, all of q + 1 = 1 member
    @example((2, 2, 62), False, "json")
    @example((2, 2, 64), True, "json")
    @example((2, 2, 66), False, "json")
    @example((2, 2, 62), True, "tsv")
    @example((2, 2, 64), False, "tsv")
    @example((2, 2, 66), True, "tsv")
    @example((2, 2, 62), False, "pretty")
    @example((2, 2, 64), True, "pretty")
    @example((2, 2, 66), False, "pretty")
    # valid = 168 + s at n = 3: the q + 1 -> q split after s = 31, 32 and 33 classes, inside, at and
    # just after the end of the first write
    @example((3, 1, 397), True, "json")
    @example((3, 1, 399), False, "json")
    @example((3, 1, 401), True, "json")
    @example((3, 1, 397), False, "tsv")
    @example((3, 1, 399), True, "tsv")
    @example((3, 1, 401), False, "tsv")
    @example((3, 1, 397), True, "pretty")
    @example((3, 1, 399), False, "pretty")
    @example((3, 1, 401), True, "pretty")
    def test_census_json_matches_reference(self, inputs, unoriented, fmt):
        n, k_from, k_to = inputs
        argv = ["census", "--n", str(n), "--from", str(k_from), "--to", str(k_to), "--format", fmt]
        code, out, _ = run(*argv, *["--unoriented"] * unoriented)
        if k_to - k_from < 10**6:
            payload, tsv, _ = census_reference(n, k_from, k_to, unoriented)
        else:  # too long to walk: the library report, which the closed-form tests check
            report = census(n, k_from, k_to, unoriented=unoriented)
            payload, tsv = report.to_dict(), report.to_tsv()
        expected = {"json": json.dumps(payload, indent=2, sort_keys=True) + "\n", "tsv": tsv + "\n",
                    "pretty": census_pretty_reference(payload)}[fmt]
        assert code == 0
        assert_same_text(out, expected)

    @pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
    @pytest.mark.parametrize("n, k_from, k_to", [(1, -1000, 1000), (3, -1000, 1000)])
    def test_cli_census_builds_no_class_or_bundle(self, monkeypatch, fmt, n, k_from, k_to):
        classes, bundles = (record_calls(monkeypatch, cls) for cls in (classify.CensusClass, bundle.BundleClass))
        # mu is a shared value of space._mu: a census builds one QmodZ per class whose mu the
        # process has not built yet, and a second census builds none
        space._mu.cache_clear()
        mus = record_calls(monkeypatch, exactnum.QmodZ)
        argv = ["census", "--n", str(n), "--from", str(k_from), "--to", str(k_to), "--format", fmt]
        code, out, _ = run(*argv)
        assert code == 0 and out
        assert classes == bundles == []
        assert len(set(mus)) == len(mus) == (16 if n == 1 else 0)
        mus.clear()
        assert run(*argv)[:2] == (code, out)
        assert classes == bundles == []
        assert mus == []
        # the library report builds one class object per class, and still no bundle
        report = census(n, k_from, k_to)
        assert (len(classes), bundles) == (len(report.classes), [])
        assert len(report.classes) == (16 if n == 1 else 168)

    @pytest.mark.parametrize("unoriented", [False, True])
    @pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_cli_census_events_do_not_grow_with_window(self, n, fmt, unoriented):
        # a census costs O(classes): a window of 10^9 periods of 112n runs exactly the Python
        # code that one of 2 periods runs, counted as sys.settrace events in every module; the
        # long window is stopped once it passes the short one's count, so a walk fails, not hangs
        def events_run(periods: int, limit: int | None = None) -> int:
            argv = ["census", "--n", str(n), "--from", "1", "--to", str(periods * 112 * n), "--format", fmt]
            argv += ["--unoriented"] if unoriented else []
            (code, out, _), count = trace_events(lambda: run(*argv), limit=limit)
            assert code == 0 and out
            return count

        events_run(2)  # warm the per-process caches, on the window that cannot hang
        short = events_run(2)
        assert events_run(10**9, short) == short

    @pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
    def test_cli_census_events_grow_less_than_the_classes(self, fmt):
        # an n > 1 census writes its classes as runs, joined 32 to a write, so it runs no Python step per
        # class: windows of 3 periods of 112n at n = 7 (392 classes) and n = 2 (112 classes) differ by
        # fewer sys.settrace events than classes, where a step per class costs several events each
        def events_run(n: int) -> int:
            argv = ["census", "--n", str(n), "--from", "1", "--to", str(3 * 112 * n), "--format", fmt]
            run(*argv)  # warm the per-process caches
            (code, out, _), count = trace_events(lambda: run(*argv))
            assert code == 0 and len(out.splitlines()) > 56 * n  # a line or more per class
            return count

        assert events_run(7) - events_run(2) < 56 * 7 - 56 * 2

    @pytest.mark.parametrize("unoriented", [False, True])
    @pytest.mark.parametrize("n, k_from, k_to", [(1, -1000, 1000), (3, -1000, 1000), (2, 3, 3)])
    def test_cli_json_census_calls_no_json_dumps(self, monkeypatch, n, k_from, k_to, unoriented):
        # the JSON head and tail are cut once per process, as the row pieces are, so a second
        # census, of classes or of none, runs no JSON encoder
        argv = ["census", "--n", str(n), "--from", str(k_from), "--to", str(k_to)] + ["--unoriented"] * unoriented
        code, out, _ = run(*argv)
        dumps = record_calls(monkeypatch, cli.json, "dumps")
        assert run(*argv) == (code, out, "")
        assert code == 0 and dumps == []

    @settings(max_examples=100, deadline=None)
    @given(family_inputs(), st.sampled_from(("json", "pretty", "tsv")))
    @example((1, 1, 1), "json")
    @example((2, -10**299 - 2, 40), "json")  # 300 digits, negative
    @example((3, 10**299 + 1, 40), "pretty")  # 300 digits, positive
    @example((5, -3, 7), "tsv")
    def test_family_matches_reference(self, inputs, fmt):
        n, l, count = inputs
        code, out, _ = run("family", "--n", str(n), "--l", str(l), "--count", str(count), "--format", fmt)
        members = classify.gz_family(make_bundle(n, l), count)
        if fmt == "json":
            payload = {"n": n, "l": l, "step": 112 * n, "members": [b.to_dict() for b in members]}
            expected = json.dumps(payload, indent=2, sort_keys=True)
        elif fmt == "pretty":
            expected = " ".join(str(b.pont) for b in members)
        else:
            expected = "\n".join(["euler\tk"] + [f"{b.euler}\t{b.pont}" for b in members])
        assert (code, out) == (0, expected + "\n")


class TestClosedPipe:
    # a reader that stops after 100 bytes of a long output, which fails at a write, and one that reads
    # nothing of a short output, which fails at _emit's flush and would fail again at exit but for
    # main pointing fd 1 at /dev/null
    @pytest.mark.parametrize("argv, read", [
        (["components", "--n", "1", "--l", "3", "--pairs", "200"], 100),
        (["classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115"], 0),
    ])
    def test_reader_closing_early_exits_141_quietly(self, argv, read):
        proc = subprocess.Popen(
            [sys.executable, "-m", "spherectl.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert b"Traceback" not in err
        assert code == 141  # 128 + SIGPIPE


class TestFailedWrite:
    """A write that fails for another reason than a closed pipe exits 74 (EX_IOERR), never a verdict's
    code, and a refusal whose message cannot be written still exits 2."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115"],  # Yes, exit 0 when written
        ["components", "--n", "1", "--l", "3", "--pairs", "300", "--format", "pretty"],
    ])
    def test_full_stdout_exits_74_with_one_line(self, argv):
        code, _, err = fresh_interpreter(*argv, redirect="1>/dev/full")
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert code == 74

    def test_refusal_with_stderr_closed_exits_2(self):
        assert fresh_interpreter("invariants", "--n", "0", "--k", "0", redirect="2>&-")[:2] == (2, "")


# One argv per way out of main, with its exit code when stdout takes every byte: every command
# writes through _emit, so one command stands for the others.
IO_PATHS = {
    "Yes": (["classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115"], 0),
    "No": (["classify", "--n1", "1", "--k1", "1", "--n2", "1", "--k2", "3"], 1),
    "Unknown": (["classify", "--n1", "5", "--k1", "1", "--n2", "5", "--k2", "111"], 3),
    "pretty census": (["census", "--n", "1", "--from", "1", "--to", "223", "--format", "pretty"], 0),
    "help": (["--help"], 0),
    "census help": (["census", "--help"], 0),
    "usage error": (["census", "--n", "1", "--from", "1"], 2),
    "refusal": (["invariants", "--n", "0", "--k", "0"], 2),
}
# the sh redirections of each I/O state, and whether stdout can take the output in it
IO_STATES = {
    "stdout closed": ("1>&-", False),
    "stdout full": ("1>/dev/full", False),
    "stderr closed": ("2>&-", True),
    "both closed": ("1>&- 2>&-", False),
}


@pytest.mark.parametrize("state", IO_STATES)
@pytest.mark.parametrize("path", IO_PATHS)
def test_exit_code_in_every_io_state(monkeypatch, path, state):
    """0, 1 or 3 only when stdout took every byte, else 74 (a closed pipe's 141 is TestClosedPipe's),
    with one line on stderr when there is a stderr; 2 for usage errors and refusals in every state."""
    (argv, code), (redirect, writable) = IO_PATHS[path], IO_STATES[state]
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage text to the terminal width
    got, out, err = fresh_interpreter(*argv, redirect=redirect)
    assert "Traceback" not in err
    if code == 2:
        assert (got, out) == (2, "")
    elif writable:
        assert (got, out) == run(*argv)[:2]
    else:
        lines = 0 if "2>&-" in redirect else 1  # the one stderr line, where there is a stderr
        assert got == 74
        assert len(err.splitlines()) == lines and err.endswith("\n" * lines)


def estimate(refusal: str) -> int:
    """The output size that a refusal over MAX_OUTPUT_BYTES states."""
    return int(refusal.split("output of about ")[1].split()[0])


def stated(argv: list[str]) -> int:
    """The output size that main states for argv when every output is over the limit."""
    with mock.patch.object(cli, "MAX_OUTPUT_BYTES", 0):
        code, _, err = run(*argv)
    assert code == 2
    return estimate(err)


class TestWorkLimits:
    """--pairs, --count and the classes of a census are bounded by module constants;
    over the limit is exit 2, checked before any work."""

    def test_limits_are_fixed(self):
        assert cli.MAX_PAIRS == 500
        assert cli.MAX_FAMILY_COUNT == 100_000

    def test_limits_shown_in_help(self):
        for command, limit in (("components", "500"), ("family", "100000")):
            code, out, _ = run(command, "--help")
            assert code == 0 and f"at most {limit}" in " ".join(out.split())

    def test_at_limit_accepted(self):
        code, out, _ = run("family", "--n", "1", "--l", "3", "--count", "100000", "--format", "tsv")
        assert code == 0
        assert len(out.splitlines()) == 100_001

    def test_components_over_limit(self):
        code, out, err = run("components", "--n", "1", "--l", "3", "--pairs", "501")
        assert (code, out) == (2, "")
        assert "--pairs 501 exceeds the limit of 500" in err

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(("components", "family")),
        st.integers(min_value=1, max_value=10**30),
        st.sampled_from(("json", "pretty", "tsv")),
    )
    def test_over_limit_exits_2_with_empty_stdout(self, command, excess, fmt):
        if command == "components":
            argv = ["components", "--n", "1", "--l", "3", "--pairs", str(cli.MAX_PAIRS + excess)]
        else:
            argv = ["family", "--n", "3", "--l", "1", "--count", str(cli.MAX_FAMILY_COUNT + excess)]
        code, out, err = run(*argv, "--format", fmt)
        assert (code, out) == (2, "")
        # components has no tsv output, which is rejected first
        expected = "census and family" if (command, fmt) == ("components", "tsv") else "exceeds the limit of"
        assert expected in err

    def test_census_limit_is_fixed_and_shown_in_help(self):
        assert cli.MAX_CENSUS_CLASSES == 100_000
        code, out, _ = run("census", "--help")
        assert code == 0 and "at most 100000" in " ".join(out.split())

    def test_census_at_and_over_limit(self):
        # n = 1786 is even and 112n = 200,032 exceeds the window: one class per even k
        code, out, _ = run("census", "--n", "1786", "--from", "1", "--to", "200000", "--format", "tsv")
        assert code == 0
        assert len(out.splitlines()) == 100_001
        code, out, err = run("census", "--n", "1786", "--from", "0", "--to", "200000")
        assert (code, out) == (2, "")
        assert "census of 100001 classes exceeds the limit of 100000" in err

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2 * cli.MAX_CENSUS_CLASSES // 112 + 2, max_value=10**30),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=2 * cli.MAX_CENSUS_CLASSES + 2, max_value=10**40),
        st.booleans(),
        st.sampled_from(("json", "pretty", "tsv")),
    )
    @example(10**6, 1, 224 * 10**6, False, "json")
    @example(5000, 1, 1_120_000, True, "tsv")
    def test_census_over_limit_exits_2_with_empty_stdout(self, n, k_from, length, unoriented, fmt):
        argv = ["census", "--n", str(n), "--from", str(k_from), "--to", str(k_from + length - 1)]
        argv += ["--format", fmt] + (["--unoriented"] if unoriented else [])
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert f"exceeds the limit of {cli.MAX_CENSUS_CLASSES}" in err

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=-3000, max_value=3000),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=700),
    )
    def test_census_count_is_the_number_of_classes(self, n, k_from, length, limit):
        # for n > 1 the O(1) count is exactly the class count of the library census
        k_to = k_from + length - 1
        argv = ["census", "--n", str(n), "--from", str(k_from), "--to", str(k_to)]
        with mock.patch.object(cli, "MAX_CENSUS_CLASSES", limit):
            code, out, _ = run(*argv)
        classes = len(census(n, k_from, k_to).classes)
        assert code == (2 if classes > limit else 0)
        assert (out == "") is (classes > limit)

    @pytest.mark.parametrize("n, k_from, k_to, message", [
        (0, 1, 10**6, "census requires n > 0"),
        (-5, 1, 10**9, "census requires n > 0"),
        (10**6, 10**9, 1, "k_from <= k_to"),
    ])
    def test_census_invalid_inputs_keep_their_own_message(self, n, k_from, k_to, message):
        code, out, err = run("census", "--n", str(n), "--from", str(k_from), "--to", str(k_to))
        assert (code, out) == (2, "")
        assert message in err

    def test_output_limit_is_fixed_and_shown_in_help(self):
        assert cli.MAX_OUTPUT_BYTES == 256 * 2**20
        code, out, _ = run("--help")
        assert code == 0 and f"at most {cli.MAX_OUTPUT_BYTES} bytes" in " ".join(out.split())

    @staticmethod
    def over_budget_argv(command: str, digits: int, sign: int, count: int, n: int) -> list[str]:
        # 3,000 to 4,000 digits at counts near their limits: at least 270 MB
        big = sign * (10**digits + 1)
        if command == "components":
            return ["components", "--n", "1", "--l", str(big), "--pairs", str(cli.MAX_PAIRS - count % 50)]
        if command == "family":
            return ["family", "--n", "1", "--l", str(big), "--count", str(cli.MAX_FAMILY_COUNT - count)]
        # 112n exceeds the window, so a census of 2m integers has m classes
        k_from = big - 1 + (big - 1 - n) % 2
        m = cli.MAX_CENSUS_CLASSES - count
        return ["census", "--n", str(n), "--from", str(k_from), "--to", str(k_from + 2 * m - 1)]

    @pytest.mark.parametrize("command, worker", [
        ("components", "_components_rows"), ("family", "_family_ks"), ("census", "_census_rows"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_output_limit_refused_before_any_work(self, monkeypatch, command, worker, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{worker} called for an output over the limit")

        # each worker on the module that owns it, where the CLI reads it
        owner = {"components": moduli, "family": bundle, "census": classify}[command]
        monkeypatch.setattr(owner, worker, refuse)
        assert run(*self.over_budget_argv(command, 3000, 1, 0, 1800), "--format", fmt)[:2] == (2, "")

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(("components", "family", "census")),
        st.integers(min_value=3000, max_value=4000),
        st.sampled_from((1, -1)),
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1800, max_value=10**6),
        st.sampled_from(("json", "pretty", "tsv")),
    )
    def test_over_output_limit_exits_2_with_empty_stdout(self, command, digits, sign, count, n, fmt):
        argv = self.over_budget_argv(command, digits, sign, count, n) + ["--format", fmt]
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        # components has no tsv output, which is rejected first
        expected = "census and family" if (command, fmt) == ("components", "tsv") else "bytes exceeds the limit of"
        assert expected in err

    @pytest.mark.parametrize("argv", [
        # these two print 226,819,487 and 231,541,956 bytes
        ["components", "--n", "2", "--l", "-78400", "--pairs", "500", "--quote-provenance"],
        ["components", "--n", "2", "--l", "-999999999888", "--pairs", "500", "--quote-provenance"],
        ["components", "--n", "1", "--l", str(10**12 - 1), "--pairs", "500", "--quote-provenance"],
        ["components", "--n", "1000", "--l", str(-10**12), "--pairs", "500", "--quote-provenance"],
        ["family", "--n", "1", "--l", str(-10**12 + 1), "--count", "100000"],
        ["census", "--n", "1786", "--from", str(-10**12), "--to", str(-10**12 + 199_999)],
    ])
    def test_output_limit_admits_small_parameters_at_the_count_limits(self, argv):
        # only the estimate is taken: with the limit just below it, the call is refused
        # without work, and its message gives the estimate
        assert stated(argv) <= cli.MAX_OUTPUT_BYTES

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(("components", "family", "census")),
        st.sampled_from((1, 2, 3, 10, 1000)),
        st.one_of(st.integers(min_value=-10**4, max_value=10**4),
                  st.integers(min_value=-10**300, max_value=10**300)),
        st.integers(min_value=0, max_value=3000),
        st.sampled_from(("json", "pretty", "tsv")),
        st.booleans(),
    )
    @example("components", 3, -1, 1, "pretty", False)  # the head and tail outweigh one certificate
    @example("census", 1, -5, 1, "tsv", False)  # the TSV header outweighs one class
    # the last of 90 members, 14971, has a digit more than l and l - 112 * 89: a search that finds an
    # estimate missing it shrinks for about 45 s, where this example fails at once
    @example("family", 1, 5003, 89, "json", False)
    def test_output_estimate_bounds_the_output(self, command, n, l, size, fmt, quote):
        # the estimate is at least the output, and never more than twice the output plus 64 KiB
        l += (l - n) % 2
        if command == "components":
            fmt = "json" if fmt == "tsv" else fmt
            argv = ["components", "--n", str(n), "--l", str(l), "--pairs", str(size % 60)]
            argv += ["--quote-provenance"] if quote else []
        elif command == "family":
            argv = ["family", "--n", str(n), "--l", str(l), "--count", str(size + 1)]
        else:
            argv = ["census", "--n", str(n), "--from", str(l), "--to", str(l + size)]
        argv += ["--format", fmt]
        code, out, _ = run(*argv)
        assert code != 2
        actual = len(out.encode())
        with mock.patch.object(cli, "MAX_OUTPUT_BYTES", 2 * actual + 2**16):
            assert run(*argv)[:2] == (code, out)
        with mock.patch.object(cli, "MAX_OUTPUT_BYTES", actual - 1):
            assert run(*argv)[:2] == (2, "")


class TestOutputEstimate:
    """A refusal over MAX_OUTPUT_BYTES states its estimate, which the renderers' own text of a
    sample sizes: at least the bytes written, and at most twice them plus 64 KiB."""

    @staticmethod
    def assert_bounds(argv: list[str]) -> None:
        written = len(run(*argv)[1].encode())
        assert written <= stated(argv) <= 2 * written + 2**16

    # -6719 + 112*3*20 = 1, so only the larger end bounds k; --pairs -5 prints no pair;
    # 896*585 and 897*585 straddle a digit of the bound; n = 98 prints 67,338,705 bytes;
    # the last member 5003 + 112*89 = 14971 has a digit more than both 5003 and |5003 - 112*89|
    @pytest.mark.parametrize("n, l, pairs, fmt, quote", [
        (3, -6719, 194, "json", False), (3, -6719, 194, "json", True), (3, -6719, 194, "pretty", False),
        (1, -6719, -5, "json", False), (3, 1, 194, "json", False), (1, -585, 1, "json", False),
        (1, -585, 1, "pretty", False), (98, -99999999998, 500, "json", False), (1, 5003, 89, "json", False),
    ])
    def test_components(self, n, l, pairs, fmt, quote):
        argv = ["components", "--n", str(n), "--l", str(l), "--pairs", str(pairs), "--format", fmt]
        self.assert_bounds(argv + ["--quote-provenance"] * quote)

    # 2^288 + 1 and 2^680 + 1 have bit lengths where the digit bound is sharp; of the
    # members 0 and 112000, only the last bounds k; at l = 5003 and count 90 the last
    # member, 14971, has a digit more than both l and |l - 112 * 89| = 4965
    @pytest.mark.parametrize("n, l, count, fmt", [
        (3, 1, 0, "json"), (3, 1, 0, "tsv"), (3, 1, 0, "pretty"), (1, 1, 4681, "json"),
        (1, -9999, 4681, "json"), (1, 2**288 + 1, 1, "json"), (1, 2**680 + 1, 1, "json"), (1000, 0, 2, "json"),
        (1, 5003, 90, "json"), (1, 5003, 90, "tsv"), (1, 5003, 90, "pretty"),
    ])
    def test_family(self, n, l, count, fmt):
        self.assert_bounds(["family", "--n", str(n), "--l", str(l), "--count", str(count), "--format", fmt])

    @pytest.mark.parametrize("k_from, k_to, fmt", [
        (-9, 502, "json"), (-9, 502, "tsv"), (-9, 502, "pretty"), (-9, 501, "json"),
    ])
    def test_census(self, k_from, k_to, fmt):
        self.assert_bounds(["census", "--n", "1", "--from", str(k_from), "--to", str(k_to), "--format", fmt])

    # at most 16 classes print at n = 1 (11 unoriented), however many of the 56 residues the window holds
    @pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
    @pytest.mark.parametrize("unoriented", [False, True])
    @pytest.mark.parametrize("k_from, k_to", [(1, 3), (-9, 502), (-1000, 1000), (1, 100000)])
    def test_an_n1_census_is_sized_by_the_classes_it_prints(self, k_from, k_to, unoriented, fmt):
        argv = ["census", "--n", "1", "--from", str(k_from), "--to", str(k_to), "--format", fmt]
        argv += ["--unoriented"] * unoriented
        written = len(run(*argv)[1].encode())
        assert written <= stated(argv) <= 2 * written

    @pytest.mark.parametrize("name, added, quote", [("GENERAL_N_DERIVATION", " and so on", False),
                                                    ("PROVENANCE_STEPS", ("one more step",), True)])
    def test_a_longer_text_lengthens_the_estimate(self, monkeypatch, name, added, quote):
        # each of the 30*31/2 certificates prints the text, so the estimate grows by its added bytes each
        argv = ["components", "--n", "3", "--l", "1", "--pairs", "30"] + ["--quote-provenance"] * quote
        before = stated(argv)
        monkeypatch.setattr(moduli, name, getattr(moduli, name) + added)
        self.assert_bounds(argv)
        assert stated(argv) - before >= len("".join(added)) * 30 * 31 // 2

    def test_a_longer_mu_lengthens_the_census_estimate(self, monkeypatch):
        # one n = 1 class printing a longer mu moves the estimate of every class row
        argv = ["census", "--n", "1", "--from", "1", "--to", "300", "--format", "tsv"]
        before, mu, rows = stated(argv), space._mu, len(run(*argv)[1].splitlines()) - 1
        long_x = space._MU_NUM[5]
        monkeypatch.setattr(space, "_mu", lambda x: "9" * 40 if x == long_x else mu(x))
        cli._census_text.cache_clear()
        try:
            assert stated(argv) - before >= (40 - max(len(str(mu(x))) for x in space._MU_NUM)) * rows
        finally:
            cli._census_text.cache_clear()

    def test_census_sizes_build_only_the_mu_a_census_prints(self, monkeypatch):
        # the estimate sizes the mu of odd k: a fresh process builds no other QmodZ for a census
        cli._census_text.cache_clear()
        space._mu.cache_clear()
        built = record_calls(monkeypatch, exactnum.QmodZ)
        for unoriented in (False, True):
            argv = ["census", "--n", "1", "--from", "1", "--to", "3"] + ["--unoriented"] * unoriented
            run(*argv)
        assert set(built) == {(space._MU_NUM[k % 112], 224) for k in range(1, 112, 2)} | {
            (space._MU_NUM_FOLDED[k % 112], 224) for k in range(1, 112, 2)}

    # windows whose size bound would fall short if an int of the head were bounded from the wrong
    # parameter: a long negative k_from with a short k_to, a window centred on 0, an n > 1 window of
    # 10^1000 (its unknown pairs print 2000 digits), a 41-digit n, and a 40,000-digit l with no pair
    @pytest.mark.parametrize("argv", [
        ["census", "--n", "3", "--from", str(-10**40 - 1), "--to", "5"],
        ["census", "--n", "3", "--from", str(-10**40 - 1), "--to", str(10**40 + 1), "--format", "tsv"],
        ["census", "--n", "2", "--from", str(10**1000 + 1), "--to", str(2 * 10**1000), "--format", "pretty"],
        ["family", "--n", str(10**40), "--l", "0", "--count", "1"],
        ["components", "--n", "1", "--l", "1" + "0" * 39999 + "1", "--pairs", "0"],
        ["components", "--n", "1", "--l", "1" + "0" * 39999 + "1", "--pairs", "0", "--format", "pretty"],
    ], ids=["census-wide-k", "census-around-0", "census-n2-1000-digits", "family-big-n", "components-json-no-pair",
            "components-pretty-no-pair"])
    def test_each_int_is_bounded_by_its_own_parameter(self, argv):
        self.assert_bounds(argv)

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_negative_n_keeps_its_refusals(self, fmt):
        # n < 0 has no certificate to measure, yet is refused as it was: over the output budget
        # before any work, else by the family enumeration
        for l, message in (("1", "family enumeration requires euler > 0"),
                           ("1" + "0" * 2999 + "1", "bytes exceeds the limit of")):
            code, out, err = run("components", "--n", "-1", "--l", l, "--pairs", "500", "--format", fmt)
            assert (code, out) == (2, "") and message in err

    @pytest.mark.parametrize("x, sharp", [
        (0, True), (1, True), (9, False), (10, True), (2**288 + 1, True), (2**680 + 1, False), (10**50 - 1, False),
        (10**50, True), (10**3000 + 1, True),
    ])
    def test_an_int_is_bounded_by_its_sign_and_digits(self, x, sharp):
        # from bit_length(), the bound on the text of x or -x is at most one byte over, and none when
        # sharp; only a negative int is charged a sign byte
        for signed in (-x, x):
            with mock.patch.object(cli, "MAX_OUTPUT_BYTES", 0), pytest.raises(ValueError) as refusal:
                cli._check_output_size((1, 0, signed))
            assert estimate(str(refusal.value)) == len(str(signed)) + (not sharp)

    def test_an_estimate_equal_to_the_limit_is_admitted(self):
        argv = ["family", "--n", "1", "--l", "1", "--count", "3"]
        with mock.patch.object(cli, "MAX_OUTPUT_BYTES", stated(argv)):
            assert run(*argv)[0] == 0

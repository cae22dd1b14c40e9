from __future__ import annotations

import json
import subprocess
import sys

import pytest

from spherectl import cli
from spherectl.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_milnor_sphere_dossier(self, capsys):
        code, out, err = run(capsys, "invariants", "--n", "1", "--k", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == "1/28"
        assert payload["p1sq_W"] == "36/1"
        assert payload["sign_W"] == 1
        assert err == ""

    def test_reverse_orientation(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "1", "--k", "3", "--reverse-orientation")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == "27/28"
        assert payload["sign_W"] == -1

    def test_parity_violation_exit_2(self, capsys):
        code, out, err = run(capsys, "invariants", "--n", "1", "--k", "2")
        assert code == 2
        assert out == ""
        assert "parity violation: k ≡ n (mod 2) required" in err

    def test_trivial_euler_exit_2(self, capsys):
        code, _, err = run(capsys, "invariants", "--n", "0", "--k", "0")
        assert code == 2
        assert "Euler class must be non-trivial" in err


class TestClassifyCommand:
    def test_yes_exit_0(self, capsys):
        code, out, _ = run(capsys, "classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115")
        assert code == 0
        payload = json.loads(out)
        assert (payload["answer"], payload["reason"]) == ("Yes", "MuInvariantEqual")

    def test_no_exit_1(self, capsys):
        code, out, _ = run(capsys, "classify", "--n1", "2", "--k1", "2", "--n2", "3", "--k2", "1")
        assert code == 1
        assert json.loads(out)["reason"] == "CohomologyObstruction"

    def test_unknown_exit_3(self, capsys):
        code, out, _ = run(capsys, "classify", "--n1", "5", "--k1", "1", "--n2", "5", "--k2", "3")
        assert code == 3
        assert json.loads(out)["reason"] == "OutsideKnownCriteria"

    def test_unoriented_flag(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "21", "--unoriented"
        )
        assert code == 0
        assert json.loads(out)["answer"] == "Yes"


class TestCertifyCommand:
    def test_distinct_components(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "1", "--k0", "1", "--k1", "113")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "DistinctComponents"
        assert payload["p1sq_X"] == "-51072/1"
        assert payload["ahat"] == "forced-zero"
        assert payload["curvature_classes"] == ["sec>=0", "Ric>0", "scal>0"]

    def test_no_scal_flag(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "1", "--k0", "1", "--k1", "113", "--no-scal")
        assert code == 0
        assert json.loads(out)["curvature_classes"] == ["sec>=0", "Ric>0"]

    def test_quote_provenance(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--n", "1", "--k0", "1", "--k1", "113", "--quote-provenance"
        )
        assert code == 0
        steps = json.loads(out)["provenance"]
        assert len(steps) == 7
        assert any("Lichnerowicz" in s for s in steps)

    def test_identical_pair_inconclusive_exit_3(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "1", "--k0", "3", "--k1", "3")
        assert code == 3
        assert json.loads(out)["verdict"] == "Inconclusive"


class TestComponentsCommand:
    def test_banner_on_full_success(self, capsys):
        code, out, _ = run(capsys, "components", "--n", "1", "--l", "3", "--pairs", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["banner"] == "infinitely many path components certified"
        assert payload["family"] == [3, 115, 227, 339]
        assert len(payload["certificates"]) == 6
        assert payload["curvature_classes"] == ["sec>=0", "Ric>0", "scal>0"]

    def test_zero_pairs_withholds_verdict(self, capsys):
        code, out, _ = run(capsys, "components", "--n", "1", "--l", "3", "--pairs", "0")
        assert code == 3
        payload = json.loads(out)
        assert payload["banner"] is None
        assert payload["certificates"] == []


class TestCensusCommand:
    def test_sixteen_classes(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1", "--from", "1", "--to", "223")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 16
        assert payload["skipped"] == 111
        assert payload["unknown_pairs_count"] == 0

    def test_unoriented_eleven_classes(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1", "--from", "1", "--to", "223", "--unoriented")
        assert code == 0
        assert len(json.loads(out)["classes"]) == 11

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1", "--from", "1", "--to", "223", "--format", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "representative\tmembers_count\tmu"
        assert len(lines) == 17


class TestRealizedMuCommand:
    def test_sixteen_values(self, capsys):
        code, out, _ = run(capsys, "realized-mu")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 16
        assert payload["values"] == [
            "0/1", "1/28", "3/28", "3/14", "1/4", "2/7", "5/14", "13/28",
            "1/2", "15/28", "17/28", "5/7", "3/4", "11/14", "6/7", "27/28",
        ]

    def test_unoriented_eleven_values(self, capsys):
        code, out, _ = run(capsys, "realized-mu", "--unoriented")
        payload = json.loads(out)
        assert payload["count"] == 11
        assert payload["values"] == [
            "0/1", "1/28", "3/28", "1/7", "3/14", "1/4", "2/7", "5/14",
            "11/28", "13/28", "1/2",
        ]


class TestFamilyCommand:
    def test_json_members(self, capsys):
        code, out, _ = run(capsys, "family", "--n", "3", "--l", "1", "--count", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["step"] == 336
        assert [m["k"] for m in payload["members"]] == [1, 337]

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, "family", "--n", "1", "--l", "3", "--count", "3", "--format", "tsv")
        lines = out.strip().splitlines()
        assert lines == ["euler\tk", "1\t3", "1\t115", "1\t227"]


class TestOutputContract:
    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "census", "--n", "3", "--from", "1", "--to", "337")
        _, second, _ = run(capsys, "census", "--n", "3", "--from", "1", "--to", "337")
        assert first == second

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run(capsys, "certify", "--n", "1", "--k0", "1", "--k1", "113")
        payload = json.loads(out)
        assert list(payload.keys()) == sorted(payload.keys())

    def test_no_floats_anywhere(self, capsys):
        _, out, _ = run(capsys, "invariants", "--n", "2", "--k", "4")

        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        assert no_floats(json.loads(out))

    def test_env_var_overrides_format(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHERECTL_FORMAT", "pretty")
        code, out, _ = run(capsys, "realized-mu")
        assert code == 0
        assert out.splitlines()[0] == "0/1"

    def test_explicit_format_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHERECTL_FORMAT", "pretty")
        _, out, _ = run(capsys, "realized-mu", "--format", "json")
        json.loads(out)

    def test_tsv_rejected_outside_census_and_family(self, capsys):
        code, _, err = run(capsys, "invariants", "--n", "1", "--k", "3", "--format", "tsv")
        assert code == 2
        assert "census and family" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spherectl.cli", "classify",
             "--n1", "1", "--k1", "1", "--n2", "1", "--k2", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["reason"] == "MuInvariantDiffer"

    def test_negative_parameters_parse(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "1", "--k", "-5")
        assert code == 0
        assert json.loads(out)["mu"] == "3/28"


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flags_do_not_leak_between_calls(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1", "--from", "1", "--to", "223", "--unoriented")
        assert code == 0
        assert json.loads(out)["unoriented"] is True
        code, out, _ = run(capsys, "census", "--n", "1", "--from", "1", "--to", "223")
        assert code == 0
        payload = json.loads(out)
        assert payload["unoriented"] is False
        assert len(payload["classes"]) == 16


class TestCensusWindow:
    def test_reversed_window_exit_2(self, capsys):
        code, out, err = run(capsys, "census", "--n", "1", "--from", "10", "--to", "1")
        assert code == 2
        assert out == ""
        assert "k_from <= k_to" in err

    def test_single_point_window(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1", "--from", "2", "--to", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["skipped"] == 1
        assert payload["classes"] == []

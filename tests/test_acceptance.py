"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Each test prints a single PASS line on success (run with -s or -v to see
them); a failed assertion is the FAIL line.
"""

from __future__ import annotations

import json
import random

from spherectl.bundle import BundleClass, NEGATIVE, POSITIVE, make_bundle
from spherectl.classify import (
    NO,
    Theta7Element,
    YES,
    census,
    gz_family,
    homeomorphic,
    oriented_diffeomorphic,
    theta7_add,
    theta7_neg,
)
from spherectl.exactnum import QmodZ, Rational, qmodz_add, qmodz_neg
from spherectl.moduli import (
    DISTINCT_COMPONENTS,
    deduce_p1sq_zero,
    index_forms_dim8,
    separation_certificate,
)
from spherectl.space import (
    cohomology,
    mu_invariant,
    p1_squared_W,
    realized_mu_set,
)
from helpers import run

EXPECTED_ORIENTED = [
    "0/1", "1/28", "3/28", "3/14", "1/4", "2/7", "5/14", "13/28",
    "1/2", "15/28", "17/28", "5/7", "3/4", "11/14", "6/7", "27/28",
]
EXPECTED_UNORIENTED = [
    "0/1", "1/28", "3/28", "1/7", "3/14", "1/4", "2/7", "5/14",
    "11/28", "13/28", "1/2",
]


def _cli_json(*argv: str) -> dict:
    code, out, _ = run(*argv)
    assert code == 0
    return json.loads(out)


def test_criterion_01_realized_mu_oriented():
    payload = _cli_json("realized-mu")
    assert payload["values"] == EXPECTED_ORIENTED
    assert payload["count"] == 16
    print("ACCEPTANCE 01 realized-mu reproduces the 16 oriented classes: PASS")


def test_criterion_02_realized_mu_unoriented():
    payload = _cli_json("realized-mu", "--unoriented")
    assert payload["values"] == EXPECTED_UNORIENTED
    assert payload["count"] == 11
    print("ACCEPTANCE 02 realized-mu --unoriented reproduces the 11 folded classes: PASS")


def test_criterion_03_census_windows():
    rng = random.Random(20260808)
    for _ in range(10):
        start = rng.randrange(-10**6, 10**6) * 2 + 1
        end = start + 222  # 112 consecutive odd k
        assert len(census(1, start, end).classes) == 16
        assert len(census(1, start, end, unoriented=True).classes) == 11
    payload = _cli_json("census", "--n", "1", "--from", "1", "--to", "223")
    assert len(payload["classes"]) == 16
    print("ACCEPTANCE 03 census: 16 oriented / 11 unoriented classes per 112-window: PASS")


def test_criterion_04_mu_cross_formula_consistency():
    for k in range(-223, 224, 2):
        h = (k + 1) // 2
        via_index = QmodZ(4 * k * k - 4, 896)
        via_closed_form = QmodZ(h * (h - 1) // 2, 28)
        assert via_index == via_closed_form == mu_invariant(make_bundle(1, k))
    print("ACCEPTANCE 04 mu index formula == closed form on odd k in [-223, 223]: PASS")


def test_criterion_05_mu_periodicity():
    for k in range(1, 1001, 2):
        assert mu_invariant(make_bundle(1, k)) == mu_invariant(make_bundle(1, k + 112))
    print("ACCEPTANCE 05 mu periodicity mod 112 on odd k in [1, 1000]: PASS")


def test_criterion_06_orientation_antisymmetry():
    rng = random.Random(20260808)
    for _ in range(100):
        k = rng.randrange(-10**5, 10**5) * 2 + 1
        b = make_bundle(1, k)
        assert mu_invariant(b, NEGATIVE) == qmodz_neg(mu_invariant(b, POSITIVE))
    print("ACCEPTANCE 06 orientation reversal negates mu on 100 sampled k: PASS")


def test_criterion_07_index_form_oracle():
    assert index_forms_dim8(Rational(4), Rational(7)) == (Rational(0), Rational(1))
    assert deduce_p1sq_zero(Rational(0), Rational(0)) == (Rational(0), Rational(0))
    rng = random.Random(20260808)
    for _ in range(100):
        p1sq = Rational(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        p2 = Rational(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert deduce_p1sq_zero(*index_forms_dim8(p1sq, p2)) == (p1sq, p2)
    print("ACCEPTANCE 07 index forms: HP^2 oracle and 100 exact round-trips: PASS")


def test_criterion_08_main_theorem_certificates():
    for l in (1, 3, 5, 7):
        family = gz_family(make_bundle(1, l), 5)
        pairs = [
            (family[i], family[j])
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        assert len(pairs) == 10
        for b0, b1 in pairs:
            cert = separation_certificate(b0, b1)
            assert cert.verdict == DISTINCT_COMPONENTS
            k0, k1 = b0.pont, b1.pont
            assert cert.contradiction_value == Rational(4 * (k0**2 - k1**2))
            assert cert.contradiction_value == Rational((2 * k0) ** 2 - (2 * k1) ** 2)
    print("ACCEPTANCE 08 all 10 pairwise certificates separate for l in {1,3,5,7}: PASS")


def test_criterion_09_general_euler_certificates():
    for n, l in ((2, 2), (3, 1), (10, 4)):
        family = gz_family(make_bundle(n, l), 4)
        assert [b.pont for b in family] == [l + 112 * n * j for j in range(4)]
        count = 0
        for i in range(4):
            for j in range(i + 1, 4):
                cert = separation_certificate(family[i], family[j])
                assert cert.verdict == DISTINCT_COMPONENTS
                k0, k1 = family[i].pont, family[j].pont
                assert cert.contradiction_value == Rational(4 * (k0**2 - k1**2), n)
                assert cert.contradiction_value.is_integer()
                count += 1
        assert count == 6
    print("ACCEPTANCE 09 general-n certificates separate with integral values: PASS")


def test_criterion_10_property_suite():
    # decider symmetry and reflexivity, including the reason tag
    sample = [make_bundle(n, k) for n, k in [(1, 1), (1, 3), (2, 2), (3, 1), (3, 337), (5, 1)]]
    for b1 in sample:
        assert oriented_diffeomorphic(b1, b1).answer == YES
        for b2 in sample:
            assert oriented_diffeomorphic(b1, b2) == oriented_diffeomorphic(b2, b1)
            assert homeomorphic(b1, b2) == homeomorphic(b2, b1)
            if oriented_diffeomorphic(b1, b2).answer == YES:
                assert homeomorphic(b1, b2).answer != NO

    # Gysin output never depends on k
    for n in (1, 2, 7):
        tables = {cohomology(BundleClass(n, n + 2 * j)).groups for j in (0, 1, 60)}
        assert len(tables) == 1

    # these unit-euler values are plain integers 4k^2
    for k in (1, 3, 9, 223):
        assert p1_squared_W(make_bundle(1, k)) == Rational(4 * k * k)

    # Theta_28 group laws are mu-compatible with Q/Z addition
    for r1 in range(28):
        for r2 in range(28):
            summed = theta7_add(Theta7Element.of(r1), Theta7Element.of(r2))
            assert summed.mu() == qmodz_add(QmodZ(r1, 28), QmodZ(r2, 28))
        neg = theta7_neg(Theta7Element.of(r1))
        assert neg.mu() == qmodz_neg(QmodZ(r1, 28))

    # family members stay valid bundles and certified-diffeomorphic to the base
    for n, l in ((1, 3), (3, 1)):
        base = make_bundle(n, l)
        for member in gz_family(base, 4):
            assert (member.pont - member.euler) % 2 == 0
            assert oriented_diffeomorphic(base, member).answer == YES

    # realized set is stable under a much longer sweep
    assert realized_mu_set(56) == realized_mu_set(5000)
    print("ACCEPTANCE 10 module invariants and properties hold as stated: PASS")

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from spherectl.bundle import BundleClass, NEGATIVE, POSITIVE, make_bundle
from spherectl.exactnum import QmodZ, Rational, qmodz_neg
from spherectl.space import (
    CohomologyTable,
    cohomology,
    dossier,
    fold_orientation,
    is_homotopy_sphere,
    mu_invariant,
    p1_squared_W,
    realized_mu_set,
    realized_mu_set_unoriented,
)


def mu_closed_form(k: int) -> QmodZ:
    """Independent oracle: mu = h(h-1)/2 mod 28 over 28 with k = 2h - 1."""
    assert k % 2 == 1
    h = (k + 1) // 2
    return QmodZ(h * (h - 1) // 2, 28)


def mu_index_formula(b: BundleClass, o=POSITIVE) -> QmodZ:
    """Reference: mu = (p1^2[W] - 4*sign(W)) / (2^7 * 7) in exact rationals."""
    p1sq_w = Rational(4 * b.pont * b.pont, abs(b.euler))
    sign_w = Rational(1)
    mu = QmodZ.from_rational((p1sq_w - Rational(4) * sign_w) / Rational(2**7 * 7))
    return mu if o.sign == 1 else qmodz_neg(mu)


# H^i(S^4; Z) = Z exactly in these degrees; 0 elsewhere.
BASE_DEGREES = frozenset((0, 4))


def gysin_group(n: int, degree: int) -> str:
    """Reference: H^degree of the sphere bundle, walked case by case through the
    Gysin sequence of S^3 -> M -> S^4,

        H^{i-4}(S^4) --e--> H^i(S^4) --> H^i(M) --> H^{i-3}(S^4) --e--> H^{i+1}(S^4),

    where cup product with the Euler class is multiplication by n whenever
    source and target are both nonzero.  H^i(M) is an extension of ker(e) by
    coker(e); ker(e) is free, so the extension splits.
    """
    if degree in BASE_DEGREES:
        if degree - 4 in BASE_DEGREES:
            # coker(Z --*n--> Z) = Z/|n|Z
            m = abs(n)
            cokernel = "0" if m == 1 else f"Z/{m}Z"
        else:
            cokernel = "Z"
    else:
        cokernel = "0"

    if degree - 3 in BASE_DEGREES:
        # ker(Z --*n--> Z) = 0 since n != 0; ker(Z --> 0) = Z
        kernel = "0" if degree + 1 in BASE_DEGREES else "Z"
    else:
        kernel = "0"

    assert cokernel == "0" or kernel == "0", "base S^4 never contributes two pieces in one degree"
    return kernel if cokernel == "0" else cokernel


class TestCohomology:
    def test_matches_gysin_case_walk(self):
        for n in [*range(1, 61), *range(-60, 0)]:
            for k in (n, n + 2, -n + 224):
                assert cohomology(make_bundle(n, k)).to_list() == [gysin_group(n, i) for i in range(8)]

    def test_homotopy_sphere_table(self):
        t = cohomology(make_bundle(1, 3))
        assert t.to_list() == ["Z", "0", "0", "0", "0", "0", "0", "Z"]

    def test_torsion_in_degree_four(self):
        assert cohomology(make_bundle(10, 2)).to_list()[4] == "Z/10Z"

    def test_negative_euler_uses_absolute_value(self):
        assert cohomology(make_bundle(-3, 1)).to_list()[4] == "Z/3Z"

    def test_depends_only_on_euler_magnitude(self):
        for n in (1, -1, 2, 5, -7, 12):
            tables = {cohomology(BundleClass(n, n + 2 * j)).groups for j in (-3, 0, 1, 50)}
            assert len(tables) == 1
        assert cohomology(make_bundle(3, 1)).to_list() == cohomology(make_bundle(-3, 7)).to_list()

    def test_table_rejects_what_no_sphere_bundle_has(self):
        sphere = ("Z", "0", "0", "0", "0", "0", "0", "Z")
        with pytest.raises(ValueError, match="degrees 0..7"):
            CohomologyTable(sphere[:7])
        for i in (0, 7):
            with pytest.raises(ValueError, match="must be Z"):
                CohomologyTable(sphere[:i] + ("0",) + sphere[i + 1:])
        for i in (1, 2, 3, 5, 6):
            with pytest.raises(ValueError, match=f"H\\^{i} must vanish"):
                CohomologyTable(sphere[:i] + ("Z",) + sphere[i + 1:])
        assert CohomologyTable(sphere[:4] + ("Z/2Z",) + sphere[5:]).groups[4] == "Z/2Z"


class TestP1SquaredW:
    def test_unit_euler_value(self):
        assert p1_squared_W(make_bundle(1, 1)) == Rational(4)

    def test_thom_class_oracle(self):
        # (2k/n)^2 * n evaluated independently of the implementation's expression
        n, k = 2, 4
        oracle = Rational(2 * k, n) * Rational(2 * k, n) * Rational(n)
        assert p1_squared_W(make_bundle(n, k)) == oracle == Rational(32)

    def test_unit_euler_is_integer_4k_squared(self):
        for k in range(-223, 224, 2):
            v = p1_squared_W(make_bundle(1, k))
            assert v.den == 1
            assert v.num == 4 * k * k

    def test_difference_matches_four_k_squared(self):
        k0, k1 = 3, 115
        diff = p1_squared_W(make_bundle(1, k0)) - p1_squared_W(make_bundle(1, k1))
        assert diff == Rational(4 * k0**2 - 4 * k1**2)


class TestMuInvariant:
    def test_standard_sphere(self):
        assert mu_invariant(make_bundle(1, 1)) == QmodZ(0, 1)

    def test_first_exotic_values(self):
        assert mu_invariant(make_bundle(1, 3)) == QmodZ(1, 28)
        assert mu_invariant(make_bundle(1, 5)) == QmodZ(3, 28)

    def test_index_formula_cross_check(self):
        # (4k^2 - 4)/896 computed with raw integers, no Rational machinery
        for k in (1, 3, 5, 7, 113, -9):
            got = mu_invariant(make_bundle(1, k))
            assert got == QmodZ(4 * k * k - 4, 896)

    def test_matches_closed_form_over_window(self):
        for k in range(-223, 224, 2):
            assert mu_invariant(make_bundle(1, k)) == mu_closed_form(k)

    def test_periodicity_mod_112(self):
        for k in range(1, 1001, 2):
            assert mu_invariant(make_bundle(1, k)) == mu_invariant(make_bundle(1, k + 112))

    def test_orientation_reversal_negates(self):
        for k in range(-99, 100, 2):
            b = make_bundle(1, k)
            assert mu_invariant(b, NEGATIVE) == qmodz_neg(mu_invariant(b, POSITIVE))

    def test_rejected_outside_homotopy_spheres(self):
        with pytest.raises(ValueError, match="euler"):
            mu_invariant(make_bundle(2, 2))

    def test_rejects_even_k(self):
        # unreachable through a validated bundle (parity forces k odd when
        # |euler| = 1); exercise the guard with a bare stand-in
        from types import SimpleNamespace

        with pytest.raises(ValueError, match="odd"):
            mu_invariant(SimpleNamespace(euler=1, pont=2))


class TestRealizedMuSets:
    def test_oriented_set_is_the_sixteen_classes(self):
        expected = {QmodZ(r, 28) for r in (0, 1, 3, 6, 7, 8, 10, 13, 14, 15, 17, 20, 21, 22, 24, 27)}
        got = realized_mu_set()
        assert got == expected
        assert len(got) == 16

    def test_one_fourteenth_not_realized(self):
        assert QmodZ(2, 28) not in realized_mu_set()

    def test_unoriented_set_is_the_eleven_classes(self):
        expected = {QmodZ(r, 28) for r in (0, 1, 3, 4, 6, 7, 8, 10, 11, 13, 14)}
        got = realized_mu_set_unoriented()
        assert got == expected
        assert len(got) == 11

    def test_folding_examples(self):
        assert fold_orientation(QmodZ(27, 28)) == QmodZ(1, 28)
        assert fold_orientation(QmodZ(14, 28)) == QmodZ(1, 2)

    def test_sweep_is_stable(self):
        assert realized_mu_set(56) == realized_mu_set(10001)


class TestDossier:
    def test_milnor_sphere_dossier(self):
        d = dossier(make_bundle(1, 3))
        assert d.is_homotopy_sphere
        assert d.sign_W == 1
        assert d.p1sq_W == Rational(36)
        assert d.mu == QmodZ(1, 28)
        assert d.cohomology.to_list() == ["Z", "0", "0", "0", "0", "0", "0", "Z"]

    def test_general_euler_dossier(self):
        d = dossier(make_bundle(2, 2))
        assert not d.is_homotopy_sphere
        assert d.cohomology.to_list()[4] == "Z/2Z"
        assert d.sign_W == 1
        assert d.p1sq_W == Rational(8)
        assert d.mu is None

    def test_reversed_orientation_dossier(self):
        d = dossier(make_bundle(1, 3), NEGATIVE)
        assert d.sign_W == -1
        assert d.mu == QmodZ(27, 28)

    def test_index_relation_holds_fieldwise(self):
        # mu == (p1sq_W - 4*sign_W)/896 in Q/Z, whichever orientation is chosen
        for o in (POSITIVE, NEGATIVE):
            for k in (1, 3, 5, 115, -7):
                d = dossier(make_bundle(1, k), o)
                lhs = QmodZ.from_rational(
                    (d.p1sq_W - Rational(4) * Rational(d.sign_W)) / Rational(896)
                )
                assert lhs == d.mu

    def test_to_dict_serialization(self):
        info = dossier(make_bundle(1, 3)).to_dict()
        assert info == {
            "euler": 1,
            "k": 3,
            "orientation": 1,
            "cohomology": ["Z", "0", "0", "0", "0", "0", "0", "Z"],
            "is_homotopy_sphere": True,
            "sign_W": 1,
            "p1sq_W": "36/1",
            "mu": "1/28",
        }

    @given(
        n=st.sampled_from([1, 2, 3, 5, 7, 10**9]),
        euler_sign=st.sampled_from([1, -1]),
        k=st.integers(min_value=-(10**60), max_value=10**60),
        o=st.sampled_from([POSITIVE, NEGATIVE]),
    )
    @example(n=3, euler_sign=-1, k=1, o=POSITIVE)  # negative n: p1_squared_W is negative
    @example(n=3, euler_sign=-1, k=1, o=NEGATIVE)
    def test_p1sq_W_matches_the_inline_formula(self, n, euler_sign, k, o):
        # the value dossier computed inline before it read p1_squared_W: p1^2[W]
        # in the sign(W) = +1 convention, negated by a reversed orientation
        b = make_bundle(euler_sign * n, k + (k - n) % 2)
        d = dossier(b, o)
        assert d.p1sq_W == Rational(o.sign * 4 * b.pont * b.pont, abs(b.euler))

    def test_is_homotopy_sphere_iff_unit_euler(self):
        assert is_homotopy_sphere(make_bundle(-1, 5))
        assert not is_homotopy_sphere(make_bundle(3, 5))


class TestMuNativeInts:
    @given(
        h=st.one_of(st.integers(min_value=-(10**4), max_value=10**4),
                    st.integers(min_value=-(10**1999), max_value=10**1999)),
        euler=st.sampled_from([1, -1]),
        o=st.sampled_from([POSITIVE, NEGATIVE]),
    )
    def test_matches_rational_index_formula(self, h, euler, o):
        b = make_bundle(euler, 2 * h + 1)
        assert mu_invariant(b, o) == mu_index_formula(b, o)

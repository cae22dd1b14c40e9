from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spherectl.exactnum import QmodZ, Rational, Residue, qmodz_add, qmodz_neg

nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0)
ints = st.integers(min_value=-10**6, max_value=10**6)


class TestRational:
    def test_reduces_to_lowest_terms(self):
        r = Rational(4, 28)
        assert (r.num, r.den) == (1, 7)

    def test_zero_is_zero_over_one(self):
        assert Rational(0, 17) == Rational(0, 1)
        assert Rational(0, -5).den == 1

    def test_negative_denominator_folds_into_numerator(self):
        r = Rational(3, -6)
        assert (r.num, r.den) == (-1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError, match="rational with zero denominator"):
            Rational(1, 0)

    def test_is_zero(self):
        assert Rational(0, -5).is_zero()
        assert not Rational(1, 3).is_zero()

    def test_division_by_zero_rejected(self):
        # the quotient's constructor raises: there is no separate division guard
        with pytest.raises(ZeroDivisionError, match="rational with zero denominator"):
            Rational(1, 2) / Rational(0)

    def test_division_by_numerator_one(self):
        assert Rational(3, 4) / Rational(1, 2) == Rational(3, 2)

    def test_strict_order_is_irreflexive(self):
        for q in (Rational(0), Rational(3, 4), Rational(-7, 2)):
            assert not q < q and q <= q

    def test_str_always_num_slash_den(self):
        assert str(Rational(36)) == "36/1"
        assert str(Rational(-51072)) == "-51072/1"
        assert str(Rational(7, 128)) == "7/128"

    @given(ints, nonzero_ints, st.integers(min_value=1, max_value=1000))
    def test_canonicalization_idempotent(self, p, q, t):
        assert Rational(p * t, q * t) == Rational(p, q)

    def test_cross_multiplication_check_1000_random_pairs(self):
        # independent big-integer oracle: stdlib Fraction
        rng = random.Random(20260808)
        for _ in range(1000):
            a = Rational(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
            b = Rational(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
            fa, fb = Fraction(a.num, a.den), Fraction(b.num, b.den)
            for got, want in (
                (a + b, fa + fb),
                (a - b, fa - fb),
                (a * b, fa * fb),
            ):
                assert got.num * want.denominator == want.numerator * got.den
            if b.num != 0:
                q = a / b
                want = fa / fb
                assert q.num * want.denominator == want.numerator * q.den

    @given(ints, nonzero_ints, ints, nonzero_ints)
    def test_ordering_matches_fraction(self, p1, q1, p2, q2):
        a, b = Rational(p1, q1), Rational(p2, q2)
        assert (a < b) == (Fraction(p1, q1) < Fraction(p2, q2))


class TestQmodZ:
    def test_add_reduces(self):
        assert qmodz_add(QmodZ(1, 28), QmodZ(3, 28)) == QmodZ(1, 7)

    def test_zero_is_identity(self):
        zero = QmodZ(0, 1)
        for x in (QmodZ(3, 28), QmodZ(1, 2), QmodZ(0, 1)):
            assert qmodz_add(zero, x) == x

    def test_inverse_pair_sums_to_zero(self):
        assert qmodz_add(QmodZ(1, 28), QmodZ(27, 28)) == QmodZ(0, 1)

    def test_neg_examples(self):
        assert qmodz_neg(QmodZ(1, 28)) == QmodZ(27, 28)
        assert qmodz_neg(QmodZ(0, 1)) == QmodZ(0, 1)
        assert qmodz_neg(QmodZ(14, 28)) == QmodZ(1, 2)

    def test_canonical_form_least_nonnegative(self):
        assert (QmodZ(-1, 28).num, QmodZ(-1, 28).den) == (27, 28)
        assert (QmodZ(29, 28).num, QmodZ(29, 28).den) == (1, 28)
        assert (QmodZ(56, 28).num, QmodZ(56, 28).den) == (0, 1)

    def test_from_rational_drops_integer_part(self):
        assert QmodZ.from_rational(Rational(32, 896)) == QmodZ(1, 28)
        assert QmodZ.from_rational(Rational(-5, 4)) == QmodZ(3, 4)

    @given(ints, nonzero_ints, st.integers(min_value=1, max_value=1000))
    def test_canonicalization_idempotent(self, p, q, t):
        assert QmodZ(p * t, q * t) == QmodZ(p, q)

    @given(ints, nonzero_ints, ints, nonzero_ints)
    def test_add_commutative(self, p1, q1, p2, q2):
        a, b = QmodZ(p1, q1), QmodZ(p2, q2)
        assert qmodz_add(a, b) == qmodz_add(b, a)

    @given(ints, nonzero_ints)
    def test_add_neg_is_zero(self, p, q):
        a = QmodZ(p, q)
        assert qmodz_add(a, qmodz_neg(a)) == QmodZ(0, 1)

    def test_str(self):
        assert str(QmodZ(3, 28)) == "3/28"
        assert str(QmodZ(0, 1)) == "0/1"

    def test_is_zero(self):
        assert QmodZ(56, 28).is_zero()
        assert not QmodZ(1, 28).is_zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError, match="Q/Z class with zero denominator"):
            QmodZ(1, 0)

    def test_integer_is_the_zero_class(self):
        assert QmodZ(5) == QmodZ(0, 1)
        assert QmodZ(5).is_zero()

    def test_strict_order_is_irreflexive(self):
        for q in (QmodZ(0, 1), QmodZ(3, 28), QmodZ(1, 2)):
            assert not q < q and q <= q


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge], ids=lambda op: op.__name__)
def test_order_is_only_within_one_class(op):
    """Rational and QmodZ order their own instances; across two classes, ints included,
    every comparison raises TypeError, as values of different classes never compare equal."""
    values = (Rational(1, 2), Rational(1), QmodZ(1, 2), QmodZ(0), Residue(1, 2), 1, 0)
    for a in values:
        for b in values:
            if type(a) is type(b):
                continue
            if isinstance(a, (Rational, QmodZ)) or isinstance(b, (Rational, QmodZ)):
                with pytest.raises(TypeError):
                    op(a, b)
    assert op(Rational(1, 2), Rational(1)) == op(Fraction(1, 2), 1)
    assert op(QmodZ(1, 2), QmodZ(0)) == op(Fraction(1, 2), 0)

class TestCanonicalFields:
    """Every pair with |num|, |den| <= 60 canonicalizes as Fraction does, zero to 0/1."""

    pairs = [(p, q) for p in range(-60, 61) for q in range(-60, 61) if q]

    def test_rational_fields_match_fraction(self):
        for p, q in self.pairs:
            f, r = Fraction(p, q), Rational(p, q)
            assert (r.num, r.den) == (f.numerator, f.denominator)

    def test_qmodz_fields_match_fraction_mod_one(self):
        for p, q in self.pairs:
            f, c = Fraction(p, q) % 1, QmodZ(p, q)
            assert (c.num, c.den) == (f.numerator, f.denominator)

    def test_equal_fields_equal_values_and_hashes(self):
        for cls in (Rational, QmodZ):
            for p, q in self.pairs:
                x = cls(p, q)
                assert x == cls(x.num, x.den) == cls(p * 7, q * 7)
                assert hash(x) == hash((x.num, x.den))
                assert x != (x.num, x.den)


class TestResidue:
    def test_normalizes_into_range(self):
        assert Residue(30, 28).value == 2
        assert Residue(-13, 28).value == 15

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            Residue(1, 0)
        with pytest.raises(ValueError):
            Residue(1, -5)

    def test_modulus_one_is_allowed(self):
        assert Residue(7, 1).value == 0
        assert Residue(-7, 1) == Residue(0, 1)

    def test_str(self):
        assert str(Residue(-13, 28)) == "15 mod 28"

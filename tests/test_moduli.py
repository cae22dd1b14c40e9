from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import record_calls
from spherectl import moduli
from spherectl.bundle import make_bundle
from spherectl.classify import gz_family
from spherectl.exactnum import Rational
from spherectl.moduli import (
    BANNER,
    CURVATURE_RIC,
    CURVATURE_SCAL,
    CURVATURE_SEC,
    DISTINCT_COMPONENTS,
    FORCED_ZERO,
    GluedManifoldInvariants,
    INCONCLUSIVE,
    deduce_p1sq_zero,
    index_forms_dim8,
    infinite_components_report,
    separation_certificate,
)
from spherectl.space import p1_squared_W

rationals = st.builds(
    Rational,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0),
)


class TestIndexForms:
    def test_quaternionic_projective_plane_oracle(self):
        # classical characteristic numbers of HP^2: p1^2 = 4, p2 = 7
        ahat, sign = index_forms_dim8(Rational(4), Rational(7))
        assert ahat == Rational(0)
        assert sign == Rational(1)

    def test_vanish_at_origin(self):
        assert index_forms_dim8(Rational(0), Rational(0)) == (Rational(0), Rational(0))

    def test_pure_p1sq_direction(self):
        ahat, sign = index_forms_dim8(Rational(45), Rational(0))
        assert sign == Rational(-1)
        assert ahat == Rational(315, 5760) == Rational(7, 128)

    def test_linearity_cross_check(self):
        # value at (49, 7) must equal value at (4, 7) plus value at (45, 0)
        a1, s1 = index_forms_dim8(Rational(4), Rational(7))
        a2, s2 = index_forms_dim8(Rational(45), Rational(0))
        a3, s3 = index_forms_dim8(Rational(49), Rational(7))
        assert a3 == a1 + a2
        assert s3 == s1 + s2


class TestDeduceP1sqZero:
    def test_homogeneous_system_forces_zero(self):
        assert deduce_p1sq_zero(Rational(0), Rational(0)) == (Rational(0), Rational(0))

    def test_inverts_projective_plane_oracle(self):
        assert deduce_p1sq_zero(Rational(0), Rational(1)) == (Rational(4), Rational(7))

    def test_round_trip_100_random_pairs(self):
        import random

        rng = random.Random(20260808)
        for _ in range(100):
            p1sq = Rational(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            p2 = Rational(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            ahat, sign = index_forms_dim8(p1sq, p2)
            assert deduce_p1sq_zero(ahat, sign) == (p1sq, p2)

    @given(rationals, rationals)
    def test_mutually_inverse(self, p1sq, p2):
        ahat, sign = index_forms_dim8(p1sq, p2)
        assert deduce_p1sq_zero(ahat, sign) == (p1sq, p2)
        p1sq_back, p2_back = deduce_p1sq_zero(p1sq, p2)
        assert index_forms_dim8(p1sq_back, p2_back) == (p1sq, p2)


class TestSeparationCertificate:
    def test_milnor_sphere_pair(self):
        cert = separation_certificate(make_bundle(1, 1), make_bundle(1, 113))
        assert cert.glued.sign_X == 0
        assert cert.glued.ahat_constraint == FORCED_ZERO
        assert cert.glued.p1sq_X == Rational(4 * (1 - 113**2)) == Rational(-51072)
        assert cert.verdict == DISTINCT_COMPONENTS
        assert cert.contradiction_value == Rational(-51072)
        assert cert.metric_labels == ("GZ(1)", "GZ(113)")

    def test_identical_pair_is_inconclusive(self):
        cert = separation_certificate(make_bundle(1, 3), make_bundle(1, 3))
        assert cert.glued.p1sq_X == Rational(0)
        assert cert.verdict == INCONCLUSIVE

    def test_general_euler_pair(self):
        cert = separation_certificate(make_bundle(3, 1), make_bundle(3, 337))
        assert cert.glued.p1sq_X == Rational(4 * (1 - 337**2), 3) == Rational(-151424)
        assert cert.glued.p1sq_X.is_integer()
        assert cert.verdict == DISTINCT_COMPONENTS
        assert cert.derivation_note is not None
        assert "derivation_note" in cert.to_dict()

    def test_unit_euler_pair_carries_no_derivation_flag(self):
        cert = separation_certificate(make_bundle(1, 1), make_bundle(1, 113))
        assert cert.derivation_note is None
        assert "derivation_note" not in cert.to_dict()

    def test_rejects_mismatched_euler(self):
        with pytest.raises(ValueError, match="equal Euler"):
            separation_certificate(make_bundle(1, 3), make_bundle(3, 3))

    def test_rejects_nonpositive_euler(self):
        with pytest.raises(ValueError, match="euler > 0"):
            separation_certificate(make_bundle(-1, 3), make_bundle(-1, 115))

    def test_glued_invariants_reject_unknown_ahat_constraint(self):
        with pytest.raises(ValueError, match="ahat_constraint"):
            GluedManifoldInvariants(0, Rational(4), "forced-zero")

    def test_sign_X_always_zero(self):
        for n, k0, k1 in [(1, 1, 3), (1, 3, 115), (2, 2, 226), (10, 4, 1124)]:
            assert separation_certificate(make_bundle(n, k0), make_bundle(n, k1)).glued.sign_X == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the certificate does not check that M_k0 and M_k1 "
                                           "are one manifold")
    def test_no_distinct_components_on_two_manifolds(self):
        # mu(1) = 0 and mu(3) = 1/28, so M_{1,1} and M_{1,3} differ; for (5, 1, 3), Ahat(X') = 0 for
        # the gluing by an orientation-reversing diffeomorphism, so the argument separates nothing
        for n, k0, k1 in [(1, 1, 3), (5, 1, 3)]:
            assert separation_certificate(make_bundle(n, k0), make_bundle(n, k1)).verdict != DISTINCT_COMPONENTS

    def test_antisymmetry_under_swap(self):
        b0, b1 = make_bundle(1, 3), make_bundle(1, 115)
        c01 = separation_certificate(b0, b1)
        c10 = separation_certificate(b1, b0)
        assert c01.contradiction_value == -c10.contradiction_value
        assert c01.verdict == c10.verdict

    def test_opposite_k_pair_is_inconclusive_never_false_claim(self):
        cert = separation_certificate(make_bundle(1, -3), make_bundle(1, 3))
        assert cert.glued.p1sq_X == Rational(0)
        assert cert.verdict == INCONCLUSIVE

    def test_unit_euler_specializes_to_even_squares(self):
        for k0, k1 in [(1, 113), (3, 115), (5, 117)]:
            cert = separation_certificate(make_bundle(1, k0), make_bundle(1, k1))
            assert cert.contradiction_value == Rational((2 * k0) ** 2 - (2 * k1) ** 2)

    def test_family_pairs_always_separate(self):
        for n, l in [(1, 3), (2, 2), (5, 7)]:
            fam = gz_family(make_bundle(n, l), 4)
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    assert separation_certificate(fam[i], fam[j]).verdict == DISTINCT_COMPONENTS

    def test_curvature_tags(self):
        cert = separation_certificate(make_bundle(1, 1), make_bundle(1, 113))
        assert cert.curvature_classes == (CURVATURE_SEC, CURVATURE_RIC, CURVATURE_SCAL)
        cert = separation_certificate(make_bundle(1, 1), make_bundle(1, 113), include_scal=False)
        assert cert.curvature_classes == (CURVATURE_SEC, CURVATURE_RIC)

    def test_to_dict(self):
        info = separation_certificate(make_bundle(1, 1), make_bundle(1, 113)).to_dict()
        assert info["n"] == 1
        assert info["k0"] == 1
        assert info["k1"] == 113
        assert info["sign_X"] == 0
        assert info["p1sq_X"] == "-51072/1"
        assert info["ahat"] == "forced-zero"
        assert info["verdict"] == "DistinctComponents"
        assert "provenance" not in info
        quoted = separation_certificate(make_bundle(1, 1), make_bundle(1, 113)).to_dict(
            quote_provenance=True
        )
        assert len(quoted["provenance"]) == 7


class TestInfiniteComponentsReport:
    def test_unit_euler_family_report(self):
        report = infinite_components_report(make_bundle(1, 3), pairs=3)
        assert [b.pont for b in report.family] == [3, 115, 227, 339]
        assert len(report.certificates) == 6
        assert report.certified is True
        assert report.banner == BANNER

    def test_general_euler_family_report(self):
        report = infinite_components_report(make_bundle(10, 2), pairs=2)
        assert [b.pont for b in report.family] == [2, 1122, 2242]
        assert len(report.certificates) == 3
        assert report.certified is True

    def test_degenerate_zero_pairs_withholds_verdict(self):
        report = infinite_components_report(make_bundle(1, 3), pairs=0)
        assert report.certificates == ()
        assert report.certified is None
        assert report.banner is None

    def test_certificates_ordered_lexicographically(self):
        report = infinite_components_report(make_bundle(1, 1), pairs=2)
        order = [(c.pair[0].pont, c.pair[1].pont) for c in report.certificates]
        assert order == sorted(order)

    def test_note_documents_unbounded_scheme(self):
        report = infinite_components_report(make_bundle(1, 3), pairs=1)
        assert "unbounded" in report.note


@st.composite
def same_euler_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    big = st.integers(min_value=-10**600, max_value=10**600)
    k0, k1 = (k + (k - n) % 2 for k in (draw(big), draw(big)))
    return make_bundle(n, k0), make_bundle(n, k1)


@st.composite
def family_bases(draw):
    """Bases (n, l) of families k = l + 112n*j, often with 56n | l."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 10)))
    l = draw(st.one_of(
        st.integers(min_value=-10**5, max_value=10**5),
        st.integers(min_value=-20, max_value=20).map(lambda m: 56 * n * m),
    ))
    return make_bundle(n, l + (l - n) % 2)


class TestCertificateCostModel:
    """Certificates are built on native ints and never re-derive the forced zero."""

    def test_no_index_form_inversion_per_certificate(self, monkeypatch):
        calls = record_calls(monkeypatch, moduli, "deduce_p1sq_zero")
        report = infinite_components_report(make_bundle(2, 2), pairs=20)
        separation_certificate(make_bundle(1, 1), make_bundle(1, 113))
        assert len(report.certificates) == 210
        assert calls == []

    def test_report_certificates_share_the_curvature_tags(self):
        report = infinite_components_report(make_bundle(1, 3), pairs=4, include_scal=False)
        assert all(c.curvature_classes is report.curvature_classes for c in report.certificates)

    @settings(max_examples=200, deadline=None)
    @given(same_euler_pairs())
    @example((make_bundle(2, 2), make_bundle(2, -2)))
    def test_p1sq_X_is_the_difference_of_p1_squared_W(self, pair):
        b0, b1 = pair
        cert = separation_certificate(b0, b1)
        assert cert.glued.p1sq_X == p1_squared_W(b0) - p1_squared_W(b1)
        assert cert.contradiction_value == cert.glued.p1sq_X
        assert cert.verdict == (DISTINCT_COMPONENTS if b0.pont**2 != b1.pont**2 else INCONCLUSIVE)

    @settings(max_examples=200, deadline=None)
    @given(family_bases(), st.integers(min_value=1, max_value=8))
    @example(make_bundle(2, -112), 2)
    @example(make_bundle(2, -112 * 20), 8)
    def test_certified_closed_form(self, base, pairs):
        n, l = base.euler, base.pont
        report = infinite_components_report(base, pairs)
        fails = l < 0 and l % (56 * n) == 0 and 1 <= -l // (56 * n) <= 2 * pairs - 1
        assert report.certified is (not fails)
        assert "unbounded" in report.note


class TestCertifiedOracle:
    """certified and banner, derived in closed form, against the certificates themselves."""

    @settings(max_examples=200, deadline=None)
    @given(family_bases(), st.integers(min_value=0, max_value=12), st.booleans())
    @example(make_bundle(2, -112), 2, True)
    @example(make_bundle(2, -112 * 23), 12, False)  # i + j = 23 = 2*pairs - 1, the last pair
    @example(make_bundle(2, -112 * 24), 12, True)  # i + j = 24 is out of reach
    def test_certified_is_every_certificate_separating(self, base, pairs, scal):
        report = infinite_components_report(base, pairs, include_scal=scal)
        if pairs == 0:
            assert report.certified is None
        else:
            assert report.certified is all(c.verdict == DISTINCT_COMPONENTS for c in report.certificates)
        assert (report.banner is not None) is bool(report.certified)
        assert report.banner in (None, BANNER)


class TestClosedFormRows:
    """_components_rows, which the CLI renders, against the library report."""

    @settings(max_examples=200, deadline=None)
    @given(family_bases(), st.integers(min_value=0, max_value=12), st.booleans())
    @example(make_bundle(2, -112), 2, True)
    @example(make_bundle(4, -224 * 15), 8, False)  # i + j = 15 = 2*pairs - 1
    @example(make_bundle(1, -(10**80) + 1), 5, True)
    @example(make_bundle(2, -112), 0, True)  # no member has a pair: no row
    @example(make_bundle(1, 3), 1, False)  # one row of one pair
    def test_rows_match_library_certificates(self, base, pairs, scal):
        (ks, certified, banner, note), rows = moduli._components_rows(base, pairs)
        ref = infinite_components_report(base, pairs, include_scal=scal)
        # every head field the CLI prints that is not one of its arguments
        assert list(ks) == [b.pont for b in ref.family]
        assert (certified, banner, note) == (ref.certified, ref.banner, ref.note)
        rows = list(rows)
        # one row per member i < pairs, holding its pairs - i pairs (i, j): never empty
        assert [i for i, _, _ in rows] == list(range(pairs))
        assert [len(ps) for _, ps, _ in rows] == [pairs - i for i in range(pairs)]
        assert all(ps for _, ps, _ in rows)
        got = [(make_bundle(base.euler, ks[i]), make_bundle(base.euler, ks[j]), Rational(int(p)),
                INCONCLUSIVE if j - i - 1 == zero else DISTINCT_COMPONENTS)
               for i, ps, zero in rows for j, p in enumerate(ps, i + 1)]
        assert got == [(*c.pair, c.glued.p1sq_X, c.verdict) for c in ref.certificates]


@st.composite
def q_table_bases(draw):
    """Bases (n, l) with n up to 1000 and l small, a multiple of 56n or up to 300 digits."""
    n = draw(st.integers(min_value=1, max_value=1000))
    l = draw(st.one_of(
        st.integers(min_value=-10**4, max_value=10**4),
        st.integers(min_value=-30, max_value=30).map(lambda m: 56 * n * m),
        st.integers(min_value=-10**300, max_value=10**300),
    ))
    return make_bundle(n, l + (l - n) % 2)


class TestQTable:
    """The rows' p = q[i] - q[j], q[j] = 896*l*j + 50176*n*j^2, against the exact
    Fraction 4*(k_i^2 - k_j^2)/n of the members k_j = l + 112n*j."""

    @settings(max_examples=300, deadline=None)
    @given(q_table_bases(), st.integers(min_value=0, max_value=12))
    @example(make_bundle(2, -112), 2)
    @example(make_bundle(1000, -56000 * 11), 12)  # i + j = 11: six pairs fail
    @example(make_bundle(998, -55888 * 24), 12)  # i + j = 24 is out of reach: certified
    @example(make_bundle(999, 10**299 + 1), 12)
    @example(make_bundle(7, -10**299 - 1), 1)
    @example(make_bundle(2, -112 * 5), 9)  # i + j = 5: the zero of row 2 is its first entry, j = i + 1
    @example(make_bundle(4, -224 * 8), 6)  # i + j = 8: the zero of row 2 is its last entry, j = pairs
    def test_q_differences_are_the_exact_gluing_numbers(self, base, pairs):
        n, l = base.euler, base.pont
        ks = [l + 112 * n * j for j in range(pairs + 1)]
        (_, certified, _, _), rows = moduli._components_rows(base, pairs)
        seen, every_p_nonzero = [], True
        for i, ps, zero in rows:
            # a row has at most one p == 0, at j = -l/(56n) - i: the CLI patches the verdict at
            # its closed-form index zero, and a row with no p == 0 has zero None
            assert ps.count("0") == (zero is not None)
            if zero is not None:
                assert ps[zero] == "0" and l % (56 * n) == 0
                assert zero + i + 1 == -l // (56 * n) - i
            for j, p in enumerate(ps, i + 1):
                exact = Fraction(4 * (ks[i] ** 2 - ks[j] ** 2), n)
                assert exact.denominator == 1
                # p is the canonical decimal text of the exact integer
                assert p == str(int(p)) and int(p) == exact
                assert (p == "0") is (ks[i] == -ks[j])
                seen.append((i, j))
                every_p_nonzero = every_p_nonzero and p != "0"
        assert seen == [(i, j) for i in range(pairs + 1) for j in range(i + 1, pairs + 1)]
        if pairs >= 1:
            assert certified is every_p_nonzero

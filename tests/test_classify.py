from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from spherectl import classify
from spherectl.bundle import BundleClass, make_bundle
from spherectl.classify import (
    CONGRUENCE_MOD_2N,
    CONGRUENCE_MOD_112N,
    COHOMOLOGY_OBSTRUCTION,
    DiffeoVerdict,
    MU_INVARIANT_DIFFER,
    MU_INVARIANT_EQUAL,
    NO,
    OUTSIDE_KNOWN_CRITERIA,
    TOPOLOGICAL_SPHERE,
    Theta7Element,
    UNKNOWN,
    YES,
    census,
    gz_family,
    homeomorphic,
    oriented_diffeomorphic,
    theta7_add,
    theta7_neg,
    unoriented_diffeomorphic,
)
from spherectl.exactnum import QmodZ, qmodz_add
from spherectl.space import fold_orientation, mu_invariant, realized_mu_set, realized_mu_set_unoriented
from test_space import mu_index_formula

# a small population covering homotopy spheres, torsion, negative euler
SAMPLE = [
    make_bundle(n, k)
    for n, k in [
        (1, 1), (1, 3), (1, 115), (1, -5), (-1, 3),
        (2, 2), (2, 6), (2, 226), (3, 1), (3, 337), (-3, 1), (5, 1), (5, 3),
    ]
]


class TestDiffeoVerdict:
    def test_answer_reason_pairing_enforced(self):
        DiffeoVerdict(YES, MU_INVARIANT_EQUAL)
        DiffeoVerdict(NO, COHOMOLOGY_OBSTRUCTION)
        DiffeoVerdict(UNKNOWN, OUTSIDE_KNOWN_CRITERIA)
        with pytest.raises(ValueError):
            DiffeoVerdict(NO, CONGRUENCE_MOD_2N)
        with pytest.raises(ValueError):
            DiffeoVerdict(YES, MU_INVARIANT_DIFFER)
        with pytest.raises(ValueError):
            DiffeoVerdict(UNKNOWN, MU_INVARIANT_EQUAL)


class TestHomeomorphic:
    def test_homotopy_spheres_always_homeomorphic(self):
        v = homeomorphic(make_bundle(1, 3), make_bundle(1, 11))
        assert (v.answer, v.reason) == (YES, TOPOLOGICAL_SPHERE)

    def test_cohomology_obstruction(self):
        v = homeomorphic(make_bundle(2, 2), make_bundle(3, 1))
        assert (v.answer, v.reason) == (NO, COHOMOLOGY_OBSTRUCTION)

    def test_congruence_mod_2n(self):
        v = homeomorphic(make_bundle(2, 2), make_bundle(2, 6))
        assert (v.answer, v.reason) == (YES, CONGRUENCE_MOD_2N)

    def test_outside_criteria(self):
        v = homeomorphic(make_bundle(4, 2), make_bundle(4, 4))
        assert (v.answer, v.reason) == (UNKNOWN, OUTSIDE_KNOWN_CRITERIA)


class TestOrientedDiffeomorphic:
    def test_mu_equal_pair(self):
        v = oriented_diffeomorphic(make_bundle(1, 3), make_bundle(1, 115))
        assert (v.answer, v.reason) == (YES, MU_INVARIANT_EQUAL)

    def test_congruence_mod_112n(self):
        v = oriented_diffeomorphic(make_bundle(3, 1), make_bundle(3, 337))
        assert (v.answer, v.reason) == (YES, CONGRUENCE_MOD_112N)

    def test_mu_differ_pair(self):
        v = oriented_diffeomorphic(make_bundle(1, 1), make_bundle(1, 3))
        assert (v.answer, v.reason) == (NO, MU_INVARIANT_DIFFER)

    def test_unknown_when_congruence_fails(self):
        v = oriented_diffeomorphic(make_bundle(5, 1), make_bundle(5, 3))
        assert (v.answer, v.reason) == (UNKNOWN, OUTSIDE_KNOWN_CRITERIA)

    def test_symmetric_and_reflexive(self):
        for b1 in SAMPLE:
            assert oriented_diffeomorphic(b1, b1).answer == YES
            assert homeomorphic(b1, b1).answer == YES
            for b2 in SAMPLE:
                assert oriented_diffeomorphic(b1, b2) == oriented_diffeomorphic(b2, b1)
                assert homeomorphic(b1, b2) == homeomorphic(b2, b1)
                assert unoriented_diffeomorphic(b1, b2) == unoriented_diffeomorphic(b2, b1)

    def test_yes_transitivity_for_spheres(self):
        a, b, c = make_bundle(1, 3), make_bundle(1, 115), make_bundle(1, 227)
        assert mu_invariant(a) == mu_invariant(b) == mu_invariant(c)
        assert oriented_diffeomorphic(a, c).answer == YES

    def test_oriented_yes_implies_homeomorphic_not_no(self):
        for b1 in SAMPLE:
            for b2 in SAMPLE:
                if oriented_diffeomorphic(b1, b2).answer == YES:
                    assert homeomorphic(b1, b2).answer != NO


class TestUnorientedDiffeomorphic:
    def test_folded_mu_equal(self):
        # mu values 1/28 (k=3) and 27/28 (k=21) fold to the same unoriented class
        assert mu_invariant(make_bundle(1, 21)) == QmodZ(27, 28)
        v = unoriented_diffeomorphic(make_bundle(1, 3), make_bundle(1, 21))
        assert (v.answer, v.reason) == (YES, MU_INVARIANT_EQUAL)
        assert oriented_diffeomorphic(make_bundle(1, 3), make_bundle(1, 21)).answer == NO

    def test_folded_mu_differ(self):
        v = unoriented_diffeomorphic(make_bundle(1, 1), make_bundle(1, 3))
        assert (v.answer, v.reason) == (NO, MU_INVARIANT_DIFFER)


def homeomorphic_reference(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """homeomorphic as it was written before the rule table."""
    n1, n2 = abs(b1.euler), abs(b2.euler)
    if n1 != n2:
        return DiffeoVerdict(NO, COHOMOLOGY_OBSTRUCTION)
    if n1 == 1:
        return DiffeoVerdict(YES, TOPOLOGICAL_SPHERE)
    if (b1.pont - b2.pont) % (2 * n1) == 0:
        return DiffeoVerdict(YES, CONGRUENCE_MOD_2N)
    return DiffeoVerdict(UNKNOWN, OUTSIDE_KNOWN_CRITERIA)


def oriented_diffeomorphic_reference(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """oriented_diffeomorphic as it was written before the rule table."""
    n1, n2 = abs(b1.euler), abs(b2.euler)
    if n1 != n2:
        return DiffeoVerdict(NO, COHOMOLOGY_OBSTRUCTION)
    if n1 == 1:
        if mu_invariant(b1) == mu_invariant(b2):
            return DiffeoVerdict(YES, MU_INVARIANT_EQUAL)
        return DiffeoVerdict(NO, MU_INVARIANT_DIFFER)
    if b1.euler == b2.euler and (b1.pont - b2.pont) % (112 * n1) == 0:
        return DiffeoVerdict(YES, CONGRUENCE_MOD_112N)
    return DiffeoVerdict(UNKNOWN, OUTSIDE_KNOWN_CRITERIA)


def unoriented_diffeomorphic_reference(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """unoriented_diffeomorphic as it was written before the rule table."""
    n1, n2 = abs(b1.euler), abs(b2.euler)
    if n1 != n2:
        return DiffeoVerdict(NO, COHOMOLOGY_OBSTRUCTION)
    if n1 == 1:
        if fold_orientation(mu_invariant(b1)) == fold_orientation(mu_invariant(b2)):
            return DiffeoVerdict(YES, MU_INVARIANT_EQUAL)
        return DiffeoVerdict(NO, MU_INVARIANT_DIFFER)
    if (b1.pont - b2.pont) % (112 * n1) == 0:
        return DiffeoVerdict(YES, CONGRUENCE_MOD_112N)
    return DiffeoVerdict(UNKNOWN, OUTSIDE_KNOWN_CRITERIA)


EULERS = (1, 2, 3, 5, 7)
BIG_K = st.integers(min_value=-(10**60), max_value=10**60)


@st.composite
def decider_pairs(draw):
    """A bundle and a partner: congruent mod 2n or mod 112n, unrelated, or of
    another |n|, with the partner's Euler coefficient of either sign."""
    n = draw(st.sampled_from(EULERS)) * draw(st.sampled_from((1, -1)))
    k = draw(BIG_K)
    k += (k - n) % 2
    j = draw(BIG_K)
    n2 = draw(st.sampled_from((n, -n)))
    partner = draw(st.sampled_from(("mod2n", "mod112n", "unrelated", "other_n")))
    if partner == "mod2n":
        k2 = k + 2 * n * j
    elif partner == "mod112n":
        k2 = k + 112 * n * j
    else:
        if partner == "other_n":
            n2 = draw(st.sampled_from([m for m in EULERS if m != abs(n)])) * draw(st.sampled_from((1, -1)))
        k2 = j + (j - n2) % 2
    return (n, k), (n2, k2)


class TestDecidersMatchReference:
    """The rule-table deciders against the hand-written ones they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(decider_pairs())
    @example(((3, 1), (-3, 1)))  # Yes by the 2n congruence, though the signs of n differ
    @example(((3, 1), (-3, 337)))  # unoriented Yes by the 112n congruence
    @example(((1, 3), (-1, 21)))
    @example(((2, 2), (2, 226)))
    @example(((5, 1), (7, 1)))
    def test_same_verdict_as_reference(self, pair):
        (n1, k1), (n2, k2) = pair
        b1, b2 = make_bundle(n1, k1), make_bundle(n2, k2)
        for decide, reference in (
            (homeomorphic, homeomorphic_reference),
            (oriented_diffeomorphic, oriented_diffeomorphic_reference),
            (unoriented_diffeomorphic, unoriented_diffeomorphic_reference),
        ):
            assert decide(b1, b2) == reference(b1, b2)
            assert decide(b2, b1) == reference(b2, b1)

    def test_deciders_build_no_qmodz(self, monkeypatch):
        # the sphere rules key on the integer mu table of space, not on QmodZ values
        built = []
        init = QmodZ.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(QmodZ, "__init__", counting_init)
        spheres = [make_bundle(n, k) for n in (1, -1) for k in (-5, 1, 3, 21, 115, 10**40 + 1)]
        for decide in (homeomorphic, oriented_diffeomorphic, unoriented_diffeomorphic):
            for b1 in spheres:
                for b2 in spheres:
                    decide(b1, b2)
        assert built == []
        mu_invariant(spheres[0])  # the wrapper does see a QmodZ being built
        assert len(built) == 1


class TestGzFamily:
    def test_unit_euler_family(self):
        members = gz_family(make_bundle(1, 3), 3)
        assert [b.pont for b in members] == [3, 115, 227]

    def test_general_euler_step(self):
        members = gz_family(make_bundle(3, 1), 2)
        assert [b.pont for b in members] == [1, 337]

    def test_members_all_valid_and_diffeomorphic_to_base(self):
        for n, l in [(1, 3), (1, 7), (2, 2), (3, 1), (10, 4)]:
            base = make_bundle(n, l)
            for member in gz_family(base, 5):
                assert (member.pont - member.euler) % 2 == 0
                assert oriented_diffeomorphic(base, member).answer == YES

    def test_requires_positive_euler(self):
        with pytest.raises(ValueError):
            gz_family(make_bundle(-1, 3), 2)

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            gz_family(make_bundle(1, 3), 0)


class TestTheta7:
    def test_group_law(self):
        assert theta7_add(Theta7Element.of(1), Theta7Element.of(3)) == Theta7Element.of(4)
        assert theta7_neg(Theta7Element.of(13)) == Theta7Element.of(15)

    def test_identity_and_order(self):
        zero = Theta7Element.of(0)
        g = Theta7Element.of(1)
        acc = zero
        for _ in range(28):
            acc = theta7_add(acc, g)
        assert acc == zero
        assert theta7_add(Theta7Element.of(13), theta7_neg(Theta7Element.of(13))) == zero

    def test_mu_compatibility_with_connected_sum(self):
        for r1 in range(28):
            for r2 in range(28):
                summed = theta7_add(Theta7Element.of(r1), Theta7Element.of(r2))
                assert summed.mu() == qmodz_add(QmodZ(r1, 28), QmodZ(r2, 28))

    def test_rejects_wrong_modulus(self):
        from spherectl.exactnum import Residue

        with pytest.raises(ValueError):
            Theta7Element(Residue(1, 27))


class TestCensus:
    def test_full_window_gives_sixteen_classes(self):
        report = census(1, 1, 223)
        assert len(report.classes) == 16
        assert report.skipped == 111
        assert report.unknown_pairs_count == 0
        assert {c.mu for c in report.classes} == realized_mu_set()

    def test_unoriented_window_gives_eleven_classes(self):
        report = census(1, 1, 223, unoriented=True)
        assert len(report.classes) == 11
        assert {c.mu for c in report.classes} == realized_mu_set_unoriented()

    def test_class_count_independent_of_window_start(self):
        for start in (-223, -1, 31, 1001):
            start = start if start % 2 == 1 else start + 1
            report = census(1, start, start + 222)
            assert len(report.classes) == 16

    def test_general_euler_congruence_classes(self):
        report = census(3, 1, 337)
        classes = {c.representative: c.members for c in report.classes}
        assert classes[1] == (1, 337)
        assert all(len(m) == 1 for rep, m in classes.items() if rep != 1)
        assert report.unknown_pairs_count > 0
        assert all(c.mu is None for c in report.classes)

    def test_members_within_class_certified_yes(self):
        report = census(3, 1, 337)
        for c in report.classes:
            for k in c.members:
                assert oriented_diffeomorphic(make_bundle(3, c.representative), make_bundle(3, k)).answer == YES

    def test_each_realized_mu_attained_twice_in_period(self):
        hits: dict[QmodZ, set[int]] = {}
        for h in range(56):
            hits.setdefault(mu_invariant(make_bundle(1, 2 * h - 1)), set()).add(h)
        assert all(len(hs) >= 2 for hs in hits.values())

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            census(0, 1, 10)

    def test_report_serialization(self):
        info = census(1, 1, 5).to_dict()
        assert info["n"] == 1
        assert info["range"] == [1, 5]
        assert info["skipped"] == 2
        assert [c["mu"] for c in info["classes"]] == ["0/1", "1/28", "3/28"]

    def test_tsv_has_one_row_per_class(self):
        tsv = census(1, 1, 223).to_tsv().splitlines()
        assert tsv[0] == "representative\tmembers_count\tmu"
        assert len(tsv) == 17


def census_reference(n: int, k_from: int, k_to: int, unoriented: bool = False) -> tuple[dict, str, list]:
    """The window-walking census that the closed form replaced: one mu per k.

    Returns what the closed form must reproduce: the to_dict() payload, the
    to_tsv() text and each class's members, all built the old way.
    """
    valid = [k for k in range(k_from, k_to + 1) if (k - n) % 2 == 0]
    skipped = (k_to - k_from + 1) - len(valid)
    groups: dict[object, list[int]] = {}
    mus: dict[object, QmodZ | None] = {}
    for k in valid:
        if n == 1:
            mu = mu_invariant(BundleClass(1, k))
            if unoriented:
                mu = fold_orientation(mu)
            key: object = mu
            mus[key] = mu
        else:
            key = k % (112 * n)
            mus[key] = None
        groups.setdefault(key, []).append(k)
    classes = [(members[0], tuple(members), mus[key])
               for key, members in sorted(groups.items(), key=lambda item: item[1][0])]
    if n == 1:
        unknown_pairs = 0
    else:
        within = sum(len(m) * (len(m) - 1) // 2 for _, m, _ in classes)
        unknown_pairs = len(valid) * (len(valid) - 1) // 2 - within
    payload = {
        "n": n,
        "range": [k_from, k_to],
        "unoriented": unoriented,
        "skipped": skipped,
        "classes": [{"representative": rep, "members_count": len(m), "mu": str(mu) if mu is not None else None}
                    for rep, m, mu in classes],
        "unknown_pairs_count": unknown_pairs,
    }
    lines = ["representative\tmembers_count\tmu"]
    lines += [f"{rep}\t{len(m)}\t{str(mu) if mu is not None else '-'}" for rep, m, mu in classes]
    return payload, "\n".join(lines), [m for _, m, _ in classes]


class TestCensusClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 5, 7]),
        k_from=st.integers(min_value=-2000, max_value=2000),
        length=st.one_of(st.integers(min_value=1, max_value=111), st.integers(min_value=112, max_value=2000)),
        unoriented=st.booleans(),
    )
    @example(n=1, k_from=2, length=1, unoriented=False)  # no valid k at all
    @example(n=2, k_from=1, length=1, unoriented=True)
    @example(n=1, k_from=-60, length=111, unoriented=True)  # straddles 0
    @example(n=7, k_from=-784, length=1569, unoriented=False)
    # windows straddling 0 whose valid count is 56n*q - 1, 56n*q and 56n*q + 1
    @example(n=2, k_from=-100, length=221, unoriented=False)
    @example(n=2, k_from=-100, length=223, unoriented=True)
    @example(n=2, k_from=-100, length=225, unoriented=False)
    @example(n=3, k_from=-301, length=669, unoriented=True)
    @example(n=3, k_from=-301, length=671, unoriented=False)
    @example(n=3, k_from=-301, length=673, unoriented=True)
    @example(n=5, k_from=-6, length=558, unoriented=False)
    @example(n=5, k_from=-6, length=560, unoriented=True)
    @example(n=5, k_from=-6, length=562, unoriented=False)
    @example(n=7, k_from=-400, length=1566, unoriented=True)
    @example(n=7, k_from=-400, length=1568, unoriented=False)
    @example(n=7, k_from=-400, length=1570, unoriented=True)
    # windows shorter than 112n: only the window's own k are visited
    @example(n=10**5, k_from=1, length=3, unoriented=False)
    @example(n=10**5, k_from=112 * 10**5 - 30, length=61, unoriented=True)  # straddles a step
    @example(n=10**12, k_from=-7, length=40, unoriented=False)
    @example(n=10**12, k_from=-(112 * 10**12) - 5, length=11, unoriented=True)
    def test_matches_window_walking_reference(self, n, k_from, length, unoriented):
        k_to = k_from + length - 1
        report = census(n, k_from, k_to, unoriented=unoriented)
        payload, tsv, members = census_reference(n, k_from, k_to, unoriented)
        assert report.to_dict() == payload
        assert report.to_tsv() == tsv
        assert [c.members for c in report.classes] == members

    @pytest.mark.parametrize("unoriented", [False, True])
    def test_cost_independent_of_window_length(self, monkeypatch, unoriented):
        lookups = []

        class CountingTable(tuple):
            def __getitem__(self, index):
                lookups.append(index)
                return tuple.__getitem__(self, index)

        for name in ("_MU_NUM", "_MU_NUM_FOLDED"):
            monkeypatch.setattr(classify, name, CountingTable(getattr(classify, name)))
        k_from = -123_456_789
        k_to = k_from + 10**12 - 1
        report = census(1, k_from, k_to, unoriented=unoriented)
        assert 0 < len(lookups) <= 56

        # each odd residue r mod 112 has floor((k_to - r)/112) - floor((k_from - 1 - r)/112) members
        want: dict[QmodZ, int] = {}
        for r in range(1, 112, 2):
            mu = mu_invariant(make_bundle(1, r))
            key = fold_orientation(mu) if unoriented else mu
            want[key] = want.get(key, 0) + (k_to - r) // 112 - (k_from - 1 - r) // 112
        assert {c.mu: c.members_count for c in report.classes} == want
        assert len(report.classes) == (11 if unoriented else 16)
        assert report.skipped == 10**12 // 2
        assert report.unknown_pairs_count == 0

    def test_counts_past_sys_maxsize(self):
        report = census(3, -(10**30), 10**30)
        assert len(report.classes) == 168
        assert sum(c.members_count for c in report.classes) == 10**30
        assert report.skipped == 10**30 + 1
        first = report.classes[0]
        assert first.representative == -(10**30) + 1
        assert first.to_dict()["members_count"] == (2 * 10**30 - 1) // 336 + 1

    def test_members_is_the_sorted_tuple(self):
        report = census(1, 1, 1000, unoriented=True)
        for c in report.classes:
            assert c.members == tuple(sorted(c.members))
            assert len(c.members) == c.members_count
            assert c.members[0] == c.representative

    def test_rejects_reversed_window(self):
        with pytest.raises(ValueError, match="k_from <= k_to"):
            census(1, 10, 1)

    @pytest.mark.parametrize("unoriented", [False, True])
    @pytest.mark.parametrize("k_from", [-111, 1, 10**20 + 2])
    def test_integer_key_is_the_rule_key(self, k_from, unoriented):
        # n = 1 census rows group the residues by the integer mu table the deciders key on;
        # over all 56 x 56 pairs of odd residues mod 112, two share a row exactly when their
        # mu from the Rational index formula (folded when unoriented) are equal, which is
        # when the decider says Yes, and a row's mu is that of its members and its count
        # that of the library class
        decide = unoriented_diffeomorphic if unoriented else oriented_diffeomorphic
        _, rows = classify._census_rows(1, k_from, k_from + 111, unoriented)
        row_of = {f % 112: i for i, (firsts, _, _) in enumerate(rows) for f in firsts}
        ref = {}
        for firsts, _, _ in rows:
            for f in firsts:
                mu = mu_index_formula(BundleClass(1, f))
                ref[f % 112] = fold_orientation(mu) if unoriented else mu
        assert sorted(row_of) == list(range(1, 112, 2))
        for r1 in row_of:
            for r2 in row_of:
                assert (row_of[r1] == row_of[r2]) == (ref[r1] == ref[r2])
                verdict = decide(BundleClass(1, r1), BundleClass(1, r2))
                assert (row_of[r1] == row_of[r2]) == (verdict.answer == YES)
        for firsts, _, mu in rows:
            assert all(mu == ref[f % 112] for f in firsts)
        assert len(rows) == (11 if unoriented else 16)
        # in this window and in one where residues have different member counts
        for k_to in (k_from + 111, k_from + 10**6 + 37):
            _, rows = classify._census_rows(1, k_from, k_to, unoriented)
            classes = census(1, k_from, k_to, unoriented).classes
            assert [(fs[0], count) for fs, count, _ in rows] == [(c.representative, c.members_count) for c in classes]

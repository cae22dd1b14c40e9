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
    def test_matches_window_walking_reference(self, n, k_from, length, unoriented):
        k_to = k_from + length - 1
        report = census(n, k_from, k_to, unoriented=unoriented)
        payload, tsv, members = census_reference(n, k_from, k_to, unoriented)
        assert report.to_dict() == payload
        assert report.to_tsv() == tsv
        assert [c.members for c in report.classes] == members

    @pytest.mark.parametrize("unoriented", [False, True])
    def test_cost_independent_of_window_length(self, monkeypatch, unoriented):
        calls = []

        def counting_mu(*args):
            calls.append(args)
            return mu_invariant(*args)

        monkeypatch.setattr(classify, "mu_invariant", counting_mu)
        k_from = -123_456_789
        k_to = k_from + 10**12 - 1
        report = census(1, k_from, k_to, unoriented=unoriented)
        assert len(calls) <= 56

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

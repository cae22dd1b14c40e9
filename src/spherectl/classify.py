"""Homeomorphism and diffeomorphism deciders, family enumeration, and the census.

The deciders are tri-valued on purpose.  The available criteria are a complete
invariant for homotopy spheres (mu) plus one-directional congruences for the
general case: k' == k (mod 2n) certifies homeomorphism and k' == k (mod 112n)
certifies orientation-preserving diffeomorphism.  A pair that meets no
criterion and triggers no obstruction stays Unknown; "criterion not met" is
never upgraded to "No".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .bundle import BundleClass
from .exactnum import QmodZ, Residue
from .space import fold_orientation, mu_invariant

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"

COHOMOLOGY_OBSTRUCTION = "CohomologyObstruction"
MU_INVARIANT_EQUAL = "MuInvariantEqual"
MU_INVARIANT_DIFFER = "MuInvariantDiffer"
CONGRUENCE_MOD_2N = "CongruenceMod2n"
CONGRUENCE_MOD_112N = "CongruenceMod112n"
TOPOLOGICAL_SPHERE = "TopologicalSphere"
OUTSIDE_KNOWN_CRITERIA = "OutsideKnownCriteria"

_ALLOWED_REASONS = {
    YES: frozenset((MU_INVARIANT_EQUAL, CONGRUENCE_MOD_2N, CONGRUENCE_MOD_112N, TOPOLOGICAL_SPHERE)),
    NO: frozenset((COHOMOLOGY_OBSTRUCTION, MU_INVARIANT_DIFFER)),
    UNKNOWN: frozenset((OUTSIDE_KNOWN_CRITERIA,)),
}


@dataclass(frozen=True)
class DiffeoVerdict:
    """Tri-valued classification answer with a machine-checkable reason tag."""

    answer: str
    reason: str

    def __post_init__(self) -> None:
        allowed = _ALLOWED_REASONS.get(self.answer)
        if allowed is None or self.reason not in allowed:
            raise ValueError(f"inconsistent verdict {self.answer}/{self.reason}")

    def to_dict(self) -> dict:
        return {"answer": self.answer, "reason": self.reason}


def homeomorphic(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """Decide whether the two total spaces are homeomorphic.

    Order of H^4 is a genuine obstruction; unit Euler class means both are
    topological 7-spheres; otherwise k' == k (mod 2n) is a sufficient
    congruence.  Euler coefficients are compared up to sign (the total space
    does not change under bundle orientation reversal).
    """
    n1, n2 = abs(b1.euler), abs(b2.euler)
    if n1 != n2:
        return DiffeoVerdict(NO, COHOMOLOGY_OBSTRUCTION)
    if n1 == 1:
        return DiffeoVerdict(YES, TOPOLOGICAL_SPHERE)
    if (b1.pont - b2.pont) % (2 * n1) == 0:
        return DiffeoVerdict(YES, CONGRUENCE_MOD_2N)
    return DiffeoVerdict(UNKNOWN, OUTSIDE_KNOWN_CRITERIA)


def oriented_diffeomorphic(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """Decide orientation-preserving diffeomorphism of the total spaces.

    For homotopy spheres mu is a complete invariant, so the answer is always
    Yes or No.  For |n| > 1 the congruence k' == k (mod 112n) is sufficient
    but not known to be necessary, so its failure leaves the pair Unknown.
    """
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


def unoriented_diffeomorphic(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """Decide diffeomorphism with orientations ignored.

    For homotopy spheres mu folded by negation is still complete.  For
    |n| > 1 the oriented congruence (applied after normalizing both Euler
    coefficients positive) is the only available certificate.
    """
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


def gz_family(b: BundleClass, count: int) -> list[BundleClass]:
    """The arithmetic family k, k + 112n, k + 2*112n, ... of length count.

    Every member is orientation-preserving diffeomorphic to the base: for
    n = 1 the mu-invariant has period 112 in k, and for n > 1 the step 112n
    is exactly the sufficient congruence.  The step is even, so parity is
    preserved and every member is a valid bundle.
    """
    if b.euler <= 0:
        raise ValueError("family enumeration requires euler > 0")
    if count < 1:
        raise ValueError("family length must be positive")
    step = 112 * b.euler
    return [BundleClass(b.euler, b.pont + j * step) for j in range(count)]


@dataclass(frozen=True)
class Theta7Element:
    """Element of the group of homotopy 7-spheres, cyclic of order 28."""

    value: Residue

    def __post_init__(self) -> None:
        if self.value.modulus != 28:
            raise ValueError("homotopy 7-sphere classes live in Z/28Z")

    @classmethod
    def of(cls, r: int) -> Theta7Element:
        return cls(Residue(r, 28))

    def mu(self) -> QmodZ:
        """The mu value r/28 in Q/Z carried by this class."""
        return QmodZ(self.value.value, 28)


def theta7_add(a: Theta7Element, b: Theta7Element) -> Theta7Element:
    """Group law: connected sum adds mu-invariants mod 28."""
    return Theta7Element(Residue(a.value.value + b.value.value, 28))


def theta7_neg(a: Theta7Element) -> Theta7Element:
    """Inverse: orientation reversal negates the class."""
    return Theta7Element(Residue(-a.value.value, 28))


@dataclass(frozen=True)
class CensusClass:
    """One diffeomorphism class found in a census window.

    The members are stored as one arithmetic progression of step 112n per
    residue class of k, so a class costs the same whatever the window length.
    """

    representative: int
    member_ranges: tuple[range, ...]
    mu: QmodZ | None
    members_count: int = field(init=False)

    def __post_init__(self) -> None:
        # floor arithmetic, since len() of a range overflows past sys.maxsize
        count = sum(max(0, -((r.start - r.stop) // r.step)) for r in self.member_ranges)
        object.__setattr__(self, "members_count", count)

    @property
    def members(self) -> tuple[int, ...]:
        """Every member, in increasing order (materialized on each access)."""
        return tuple(heapq.merge(*self.member_ranges))

    def to_dict(self) -> dict:
        return {
            "representative": self.representative,
            "members_count": self.members_count,
            "mu": str(self.mu) if self.mu is not None else None,
        }


@dataclass(frozen=True)
class CensusReport:
    """Partition of a parameter window into certified diffeomorphism classes.

    Pairs that the decider leaves Unknown are counted but never merged, so a
    class only ever contains bundles certified mutually diffeomorphic.
    """

    n: int
    k_from: int
    k_to: int
    unoriented: bool
    skipped: int
    classes: tuple[CensusClass, ...]
    unknown_pairs_count: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "range": [self.k_from, self.k_to],
            "unoriented": self.unoriented,
            "skipped": self.skipped,
            "classes": [c.to_dict() for c in self.classes],
            "unknown_pairs_count": self.unknown_pairs_count,
        }

    def to_tsv(self) -> str:
        lines = ["representative\tmembers_count\tmu"]
        for c in self.classes:
            mu = str(c.mu) if c.mu is not None else "-"
            lines.append(f"{c.representative}\t{c.members_count}\t{mu}")
        return "\n".join(lines)


def census(n: int, k_from: int, k_to: int, unoriented: bool = False) -> CensusReport:
    """Partition all valid k in the closed interval [k_from, k_to] into classes.

    Integers of the wrong parity are skipped and counted.  For n = 1 classes
    are keyed by the (optionally folded) mu value, which is complete, so no
    pair is left Unknown.  For n > 1 classes are keyed by k mod 112n; pairs in
    different classes carry no verdict and are reported as unknown.

    Cost model: O(112n), independent of the window length.  Both keys depend
    only on k mod 112n (mu(k) = (k^2 - 1)/224 mod 1 has period 112), so each
    residue r == n (mod 2) is visited once: its members in the window form
    range(first, k_to + 1, 112n), counted by floor arithmetic, and for n = 1
    mu_invariant is evaluated once per residue at its first member.
    """
    if n <= 0:
        raise ValueError("census requires n > 0")
    if k_to < k_from:
        raise ValueError(f"census window [{k_from}, {k_to}] is empty: requires k_from <= k_to")
    step = 112 * n
    groups: dict[object, list[range]] = {}
    for r in range(n % 2, step, 2):
        first = k_from + (r - k_from) % step
        if first > k_to:
            continue
        if n == 1:
            mu = mu_invariant(BundleClass(1, first))
            key: object = fold_orientation(mu) if unoriented else mu
        else:
            key = r
        groups.setdefault(key, []).append(range(first, k_to + 1, step))

    classes = sorted(
        (
            CensusClass(
                representative=min(m.start for m in ranges),
                member_ranges=tuple(ranges),
                mu=key if n == 1 else None,
            )
            for key, ranges in groups.items()
        ),
        key=lambda c: c.representative,
    )
    valid = sum(c.members_count for c in classes)
    skipped = (k_to - k_from + 1) - valid

    if n == 1:
        unknown_pairs = 0
    else:
        total = valid * (valid - 1) // 2
        within = sum(c.members_count * (c.members_count - 1) // 2 for c in classes)
        unknown_pairs = total - within

    return CensusReport(
        n=n,
        k_from=k_from,
        k_to=k_to,
        unoriented=unoriented,
        skipped=skipped,
        classes=tuple(classes),
        unknown_pairs_count=unknown_pairs,
    )

"""Homeomorphism and diffeomorphism deciders, family enumeration, and the census.

The deciders are tri-valued on purpose.  The available criteria are a complete
invariant for homotopy spheres (mu) plus one-directional congruences for the
general case: k' == k (mod 2n) certifies homeomorphism and k' == k (mod 112n)
certifies orientation-preserving diffeomorphism.  A pair that meets no
criterion and triggers no obstruction stays Unknown; "criterion not met" is
never upgraded to "No".

Each decider is one ordered table of rules (spheres_only, key, if_equal,
if_differ) read by _decide after the cohomology obstruction: the first rule in
scope whose outcome for key(b1) == key(b2) is not None decides, else Unknown.
A decider's verdicts are its table's outcomes plus the obstruction and
Unknown (_VERDICTS), so a new row needs no second edit.
The sphere rules and the census (_census_rows, shared by census and the CLI)
key homotopy spheres by the mu table of space, folded when unoriented.
"""

from __future__ import annotations

from bisect import bisect_left

from .bundle import BundleClass, _family_ks
from .exactnum import QmodZ, Residue, _Value, _decimal
from .space import _MU_NUM, _MU_NUM_FOLDED, _mu

__all__ = [
    "CensusClass", "CensusReport", "DiffeoVerdict", "Theta7Element", "census", "gz_family", "homeomorphic",
    "oriented_diffeomorphic", "theta7_add", "theta7_neg", "unoriented_diffeomorphic",
]

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


class DiffeoVerdict(_Value):
    """Tri-valued classification answer with a machine-checkable reason tag."""

    __slots__ = ("answer", "reason")

    def __init__(self, answer: str, reason: str) -> None:
        if (answer, reason) not in _VERDICTS:
            raise ValueError(f"inconsistent verdict {answer}/{reason}")
        self._set_answer(self, answer)
        self._set_reason(self, reason)

    def to_dict(self) -> dict:
        return {"answer": self.answer, "reason": self.reason}


_HOMEOMORPHIC = (
    (True, lambda b: 0, (YES, TOPOLOGICAL_SPHERE), None),
    (False, lambda b: b.pont % (2 * abs(b.euler)), (YES, CONGRUENCE_MOD_2N), None),
)
_ORIENTED = (
    (True, lambda b: _MU_NUM[b.pont % 112], (YES, MU_INVARIANT_EQUAL), (NO, MU_INVARIANT_DIFFER)),
    (False, lambda b: (b.euler, b.pont % (112 * abs(b.euler))), (YES, CONGRUENCE_MOD_112N), None),
)
_UNORIENTED = (
    (True, lambda b: _MU_NUM_FOLDED[b.pont % 112], (YES, MU_INVARIANT_EQUAL), (NO, MU_INVARIANT_DIFFER)),
    (False, lambda b: b.pont % (112 * abs(b.euler)), (YES, CONGRUENCE_MOD_112N), None),
)
# every (answer, reason) a decider can return: its table's outcomes, the obstruction and Unknown
_OBSTRUCTED, _UNDECIDED = (NO, COHOMOLOGY_OBSTRUCTION), (UNKNOWN, OUTSIDE_KNOWN_CRITERIA)
_VERDICTS = {_OBSTRUCTED, _UNDECIDED} | {
    outcome for rules in (_HOMEOMORPHIC, _ORIENTED, _UNORIENTED) for rule in rules for outcome in rule[2:] if outcome}


def _decide(rules: tuple, b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    n = abs(b1.euler)
    if n != abs(b2.euler):
        return DiffeoVerdict(*_OBSTRUCTED)
    for spheres_only, key, if_equal, if_differ in rules:
        if spheres_only and n != 1:
            continue
        outcome = if_equal if key(b1) == key(b2) else if_differ
        if outcome is not None:
            return DiffeoVerdict(*outcome)
    return DiffeoVerdict(*_UNDECIDED)


def homeomorphic(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """Decide whether the two total spaces are homeomorphic.

    Order of H^4 is a genuine obstruction; unit Euler class means both are
    topological 7-spheres; otherwise k' == k (mod 2n) is a sufficient
    congruence.  Euler coefficients are compared up to sign (the total space
    does not change under bundle orientation reversal).
    """
    return _decide(_HOMEOMORPHIC, b1, b2)


def oriented_diffeomorphic(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """Decide orientation-preserving diffeomorphism of the total spaces.

    For homotopy spheres mu is a complete invariant, so the answer is always
    Yes or No.  For |n| > 1 the congruence k' == k (mod 112n) is sufficient
    but not known to be necessary, so its failure leaves the pair Unknown.
    """
    return _decide(_ORIENTED, b1, b2)


def unoriented_diffeomorphic(b1: BundleClass, b2: BundleClass) -> DiffeoVerdict:
    """Decide diffeomorphism with orientations ignored.

    For homotopy spheres mu folded by negation is still complete.  For
    |n| > 1 the oriented congruence (applied after normalizing both Euler
    coefficients positive) is the only available certificate.
    """
    return _decide(_UNORIENTED, b1, b2)


def gz_family(b: BundleClass, count: int) -> list[BundleClass]:
    """The arithmetic family k, k + 112n, k + 2*112n, ... of length count.

    Every member is orientation-preserving diffeomorphic to the base: for
    n = 1 the mu-invariant has period 112 in k, and for n > 1 the step 112n
    is exactly the sufficient congruence.  The step is even, so parity is
    preserved and every member is a valid bundle.
    """
    return [BundleClass(b.euler, k) for k in _family_ks(b, count)]


class Theta7Element(_Value):
    """Element of the group of homotopy 7-spheres, cyclic of order 28."""

    __slots__ = ("value",)

    def __init__(self, value: Residue) -> None:
        if value.modulus != 28:
            raise ValueError("homotopy 7-sphere classes live in Z/28Z")
        self._set_value(self, value)

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


class CensusClass(_Value):
    """One diffeomorphism class found in a census window.

    The members are stored as one arithmetic progression of step 112n per
    residue class of k, so a class costs the same whatever the window length.
    members_count is derived from the ranges, not a constructor argument.
    """

    __slots__ = ("representative", "member_ranges", "mu", "members_count")
    __match_args__ = ("representative", "member_ranges", "mu")

    def __init__(self, representative: int, member_ranges: tuple[range, ...], mu: QmodZ | None) -> None:
        self._set_representative(self, representative)
        self._set_member_ranges(self, member_ranges)
        self._set_mu(self, mu)
        # floor arithmetic, since len() of a range overflows past sys.maxsize
        count = sum(max(0, -((r.start - r.stop) // r.step)) for r in member_ranges)
        self._set_members_count(self, count)

    @property
    def members(self) -> tuple[int, ...]:
        """Every member, in increasing order (materialized on each access)."""
        import heapq  # here, so that only a caller of members loads it
        return tuple(heapq.merge(*self.member_ranges))

    def to_dict(self) -> dict:
        return {
            "representative": self.representative,
            "members_count": self.members_count,
            "mu": str(self.mu) if self.mu is not None else None,
        }


class CensusReport(_Value):
    """Partition of a parameter window into certified diffeomorphism classes.

    Pairs that the decider leaves Unknown are counted but never merged, so a
    class only ever contains bundles certified mutually diffeomorphic.
    """

    __slots__ = ("n", "k_from", "k_to", "unoriented", "skipped", "classes", "unknown_pairs_count")

    def __init__(self, n: int, k_from: int, k_to: int, unoriented: bool, skipped: int,
                 classes: tuple[CensusClass, ...], unknown_pairs_count: int) -> None:
        self._set_n(self, n)
        self._set_k_from(self, k_from)
        self._set_k_to(self, k_to)
        self._set_unoriented(self, unoriented)
        self._set_skipped(self, skipped)
        self._set_classes(self, classes)
        self._set_unknown_pairs_count(self, unknown_pairs_count)

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
            lines.append(f"{_decimal(c.representative)}\t{_decimal(c.members_count)}\t{mu}")
        return "\n".join(lines)


def _census_firsts(n: int, k_from: int, k_to: int) -> range:
    """The first member of each residue class of k mod 112n in [k_from, k_to]: the
    k == n (mod 2) among the first min(window length, 112n) integers of the window.
    Empty for n <= 0 and for a reversed window."""
    return range(k_from + (n - k_from) % 2, min(k_to + 1, k_from + 112 * n), 2)


def _census_rows(
    n: int, k_from: int, k_to: int, unoriented: bool = False
) -> tuple[CensusReport, list[tuple[tuple[int, ...] | range, int, QmodZ | None]]]:
    """The census report with classes=(), and rows (firsts, count, mu) in the order of firsts[0]: a class for
    n = 1, and for n > 1 a run of classes, one per first member, of count members each (README "Census")."""
    if n <= 0:
        raise ValueError("census requires n > 0")
    if k_to < k_from:
        raise ValueError(f"census window [{k_from}, {k_to}] is empty: requires k_from <= k_to")
    # the k == n (mod 2) in the window: they step by 2, so the p-th is in the class of firsts[p % 56n]
    valid = (k_to - n) // 2 - (k_from - 1 - n) // 2
    # pairs in different classes are No for n = 1, where mu is complete, else Unknown;
    # for n > 1 the classes are the residues, s of them with q + 1 members and the rest q
    q, s = divmod(valid, 56 * n)
    unknown = 0 if n == 1 else valid * (valid - 1) // 2 - s * q * (q + 1) // 2 - (56 * n - s) * q * (q - 1) // 2
    head = CensusReport(n, k_from, k_to, unoriented, (k_to - k_from + 1) - valid, (), unknown)
    firsts = _census_firsts(n, k_from, k_to)
    if n > 1:  # two runs of one-residue classes: the first s residues, then the rest
        return head, [(firsts[:s], q + 1, None), (firsts[s:], q, None)]
    table = _MU_NUM_FOLDED if unoriented else _MU_NUM
    groups: dict[int, list[int]] = {}
    for first in firsts:
        groups.setdefault(table[first % 112], []).append(first)
    # the firsts ascend, so groups come in representative order, and the firsts below firsts[s] have q + 1 members
    return head, [(tuple(g), len(g) * q + bisect_left(g, firsts.start + 2 * s), _mu(x)) for x, g in groups.items()]


def census(n: int, k_from: int, k_to: int, unoriented: bool = False) -> CensusReport:
    """Partition all valid k in the closed interval [k_from, k_to] into classes.

    Integers of the wrong parity are skipped and counted.  For n = 1 classes
    are keyed by the (optionally folded) mu value, which is complete, so no
    pair is left Unknown.  For n > 1 classes are keyed by k mod 112n; pairs in
    different classes carry no verdict and are reported as unknown.

    Cost model: O(min(window length, 112n)): _census_rows visits each residue once.
    """
    head, rows = _census_rows(n, k_from, k_to, unoriented)
    step, stop = 112 * n, k_to + 1
    # an n > 1 row is a run of classes of one first member each, which zip(firsts) yields as 1-tuples
    classes = tuple(CensusClass(fs[0], tuple(range(f, stop, step) for f in fs), mu)
                    for firsts, _, mu in rows for fs in (zip(firsts) if mu is None else (firsts,)))
    return CensusReport(n, k_from, k_to, unoriented, head.skipped, classes, head.unknown_pairs_count)

"""Invariants of the total spaces of linear S^3-bundles over S^4.

For the bundle with Euler class n*u and p1 = 2k*u, let M = S(E) be the unit
sphere bundle (a closed 7-manifold) and W = D(E) the disk bundle it bounds.
This module computes:

  * the integral cohomology of M via the Gysin sequence of S^3 -> M -> S^4;
  * the relative Pontryagin number p1^2[W] via the Thom isomorphism;
  * the mu-invariant in Q/Z that classifies homotopy 7-spheres up to
    orientation-preserving diffeomorphism, computed from W through the
    dimension-8 index data (signature and p1^2).

Orientation convention: W is oriented so that the square of a generator of
H^4(W, M; Z) evaluates positively on the fundamental class, making
sign(W) = +1; M is oriented as its boundary.  An explicit Orientation value
of -1 reverses that choice, which negates sign(W), p1^2[W] and mu.
"""

from __future__ import annotations

import functools

from .bundle import BundleClass, Orientation, POSITIVE
from .exactnum import QmodZ, Rational, _Value, qmodz_neg

__all__ = [
    "CohomologyTable", "SpaceDossier", "cohomology", "dossier", "fold_orientation", "is_homotopy_sphere",
    "mu_invariant", "p1_squared_W", "realized_mu_set", "realized_mu_set_unoriented",
]


class CohomologyTable(_Value):
    """Integral cohomology of a closed oriented 7-manifold, degrees 0..7.

    Entries are "Z", "Z/mZ" (m >= 2), or "0"; trivial torsion Z/1Z is
    displayed as "0".
    """

    __slots__ = ("groups",)

    def __init__(self, groups: tuple[str, ...]) -> None:
        if len(groups) != 8:
            raise ValueError("cohomology table must list degrees 0..7")
        if groups[0] != "Z" or groups[7] != "Z":
            raise ValueError("H^0 and H^7 must be Z for a closed connected oriented 7-manifold")
        for i in (1, 2, 3, 5, 6):
            if groups[i] != "0":
                raise ValueError(f"H^{i} must vanish for sphere bundles over S^4")
        self._set_groups(self, groups)

    def to_list(self) -> list[str]:
        return list(self.groups)


def cohomology(b: BundleClass) -> CohomologyTable:
    """Integral cohomology of S(E): Z in degrees 0 and 7, Z/|n|Z in degree 4.

    From the Gysin sequence of S^3 -> M -> S^4,

        H^{i-4}(S^4) --e--> H^i(S^4) --> H^i(M) --> H^{i-3}(S^4) --e--> H^{i+1}(S^4),

    H^i(M) is an extension of ker(e) by coker(e), where cup product with the
    Euler class acts as multiplication by n.  Over S^4 the two pieces are
    never nonzero in one degree: coker is Z in degree 0 and
    coker(Z --*n--> Z) = Z/|n|Z in degree 4; ker is ker(Z --> 0) = Z in
    degree 7, while ker(Z --*n--> Z) = 0 in degree 3 since n != 0.  Depends
    only on |euler|, never on the Pontryagin parameter.
    """
    m = abs(b.euler)
    return CohomologyTable(("Z", "0", "0", "0", "0" if m == 1 else f"Z/{m}Z", "0", "0", "Z"))


def is_homotopy_sphere(b: BundleClass) -> bool:
    """The total space is a homotopy 7-sphere exactly when the Euler class generates."""
    return abs(b.euler) == 1


def p1_squared_W(b: BundleClass) -> Rational:
    """Relative Pontryagin number p1^2[W] = 4k^2/n of the disk bundle.

    p1(W) = 2k * pi^*(u) since TW is stably pi^*(E).  The Thom class t of
    H^4(W, M) restricts to the Euler class n*u, so the relative lift of p1 is
    x = (2k/n) * t; pairing x^2 against the fundamental class and using
    <t^2, [W, dW]> = n gives (2k/n)^2 * n = 4k^2/n, an exact rational for
    every admissible n.  Computed in the orientation inherited from the
    bundle; dossiers renormalize to the sign(W) = +1 convention.
    """
    return Rational(4 * b.pont * b.pont, b.euler)


# mu(k) = (k^2 - 1)/224 mod 1 has period 112 in k: the numerator of mu(k) is
# _MU_NUM[k % 112], and that of mu(k) folded with -mu(k) is _MU_NUM_FOLDED[k % 112]
_MU_NUM = tuple((r * r - 1) % 224 for r in range(112))
_MU_NUM_FOLDED = tuple(min(x, -x % 224) for x in _MU_NUM)
# mu = x/224 mod 1 for a numerator x of either table, built on first use and shared
# (QmodZ is immutable): a process that runs many censuses builds each value once
_mu = functools.cache(lambda x: QmodZ(x, 224))


def mu_invariant(b: BundleClass, o: Orientation = POSITIVE) -> QmodZ:
    """Eells-Kuiper invariant of the total space, an element of Z/28Z in Q/Z.

    Defined only for homotopy spheres (|euler| = 1).  In the orientation
    normalized so that sign(W) = +1,

        mu = (p1^2[W] - 4*sign(W)) / (2^7 * 7)  mod Z,

    with p1^2[W] = 4k^2 under that normalization: mu = (k^2 - 1)/224 mod 1, of
    period 112 in k (_MU_NUM).  Reversing the orientation negates the class.
    """
    if abs(b.euler) != 1:
        raise ValueError("mu-invariant is only defined for |euler| = 1")
    if b.pont % 2 == 0:
        raise ValueError("mu-invariant requires odd k")
    return QmodZ(o.sign * _MU_NUM[b.pont % 112], 224)


def fold_orientation(q: QmodZ) -> QmodZ:
    """Identify q with -q, keeping the representative of smaller value."""
    return min(q, qmodz_neg(q))


def realized_mu_set(h_limit: int = 56) -> frozenset[QmodZ]:
    """All mu values attained by sphere bundles with unit Euler class.

    Writing k = 2h - 1, the invariant is h(h-1)/2 mod 28 over 28, which is
    periodic in h with period 56, so one period realizes every value; h_limit
    is exposed only so the stability of the sweep can be checked.
    """
    return frozenset(mu_invariant(BundleClass(1, 2 * h - 1)) for h in range(h_limit))


def realized_mu_set_unoriented() -> frozenset[QmodZ]:
    """The realized mu values after folding each class with its negative."""
    return frozenset(fold_orientation(q) for q in realized_mu_set())


class SpaceDossier(_Value):
    """Full invariant report for a sphere bundle M and its disk bundle W."""

    __slots__ = ("bundle", "orientation", "cohomology", "is_homotopy_sphere", "sign_W", "p1sq_W", "mu")

    def __init__(
        self,
        bundle: BundleClass,
        orientation: Orientation,
        cohomology: CohomologyTable,
        is_homotopy_sphere: bool,
        sign_W: int,
        p1sq_W: Rational,
        mu: QmodZ | None,
    ) -> None:
        self._set_bundle(self, bundle)
        self._set_orientation(self, orientation)
        self._set_cohomology(self, cohomology)
        self._set_is_homotopy_sphere(self, is_homotopy_sphere)
        self._set_sign_W(self, sign_W)
        self._set_p1sq_W(self, p1sq_W)
        self._set_mu(self, mu)

    def to_dict(self) -> dict:
        return {
            "euler": self.bundle.euler,
            "k": self.bundle.pont,
            "orientation": self.orientation.sign,
            "cohomology": self.cohomology.to_list(),
            "is_homotopy_sphere": self.is_homotopy_sphere,
            "sign_W": self.sign_W,
            "p1sq_W": str(self.p1sq_W),
            "mu": str(self.mu) if self.mu is not None else None,
        }


def dossier(b: BundleClass, o: Orientation = POSITIVE) -> SpaceDossier:
    """Assemble every invariant of (M, W) for the given orientation.

    All fields are reported in the sign(W) = +1 convention when o = +1 and in
    the reversed orientation when o = -1, so the index relation
    mu == (p1sq_W - 4*sign_W)/896 holds field-by-field whenever mu is present.
    """
    sphere = is_homotopy_sphere(b)
    return SpaceDossier(b, o, cohomology(b), sphere, o.sign,
                        -p1_squared_W(b) if o.sign * b.euler < 0 else p1_squared_W(b),
                        mu_invariant(b, o) if sphere else None)

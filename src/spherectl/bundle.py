"""Oriented rank-4 real vector bundles over S^4, keyed by their classifying data.

A bundle class is determined by the pair (Euler class, first Pontryagin class)
in H^4(S^4; Z).  With u the fixed generator, we store the Euler coefficient n
(e = n*u) and the half-Pontryagin coefficient k (p1 = 2k*u).  Realizable pairs
are exactly those with n != 0 (nontrivial Euler class) and k == n (mod 2),
which is the classical congruence p1 == 2e (mod 4).
"""

from __future__ import annotations

from .exactnum import _Value

__all__ = [
    "BundleClass", "InvalidBundleError", "NEGATIVE", "Orientation", "POSITIVE",
    "from_milnor_params", "make_bundle", "reverse_bundle_orientation",
]


class InvalidBundleError(ValueError):
    """No oriented rank-4 bundle over S^4 realizes the given parameters."""


class BundleClass(_Value):
    """Isomorphism class with Euler class euler*u and p1 = 2*pont*u."""

    __slots__ = ("euler", "pont")

    def __init__(self, euler: int, pont: int) -> None:
        if euler == 0:
            raise InvalidBundleError("Euler class must be non-trivial")
        if (pont - euler) % 2 != 0:
            raise InvalidBundleError("parity violation: k ≡ n (mod 2) required")
        self._set_euler(self, euler)
        self._set_pont(self, pont)

    def to_dict(self) -> dict:
        return {"euler": self.euler, "k": self.pont}


class Orientation(_Value):
    """One of the two orientations of a total space, as a sign."""

    __slots__ = ("sign",)

    def __init__(self, sign: int = 1) -> None:
        if sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        self._set_sign(self, sign)


POSITIVE = Orientation(1)
NEGATIVE = Orientation(-1)


def make_bundle(n: int, k: int) -> BundleClass:
    """Validate and build the bundle class with e = n*u, p1 = 2k*u."""
    return BundleClass(n, k)


def reverse_bundle_orientation(b: BundleClass) -> BundleClass:
    """Reverse the bundle orientation: the Euler class changes sign, p1 does not."""
    return BundleClass(-b.euler, b.pont)


def from_milnor_params(m: int, n: int) -> BundleClass:
    """Convert classical (m, n) sphere-bundle parameters to (euler, pont) = (n, n + 2m).

    The parity constraint holds automatically: n + 2m == n (mod 2).
    """
    return BundleClass(n, n + 2 * m)


def _family_ks(b: BundleClass, count: int) -> range:
    """The k of the members of classify.gz_family(b, count), as a range of O(1) size."""
    if b.euler <= 0:
        raise ValueError("family enumeration requires euler > 0")
    if count < 1:
        raise ValueError("family length must be positive")
    step = 112 * b.euler
    return range(b.pont, b.pont + count * step, step)

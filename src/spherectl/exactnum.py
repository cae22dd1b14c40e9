"""Exact arithmetic substrate: reduced rationals, classes in Q/Z, residues.

Everything here is a Python int under the hood, so values never overflow and
every computation downstream is bit-exact.  All three types canonicalize on
construction, which makes equality a plain field-by-field comparison, and all
values are immutable, so they can be shared freely between threads.
"""

from __future__ import annotations

import sys
from functools import total_ordering
from math import gcd
from operator import attrgetter

__all__ = ["QmodZ", "Rational", "Residue", "qmodz_add", "qmodz_neg"]


def _decimal(n: int) -> str:
    """str(n) for an int of any size: past CPython's int<->str digit limit (absent before 3.10.7), which this
    reads and never sets, the digits of |n| above and below the limit's power of ten, joined."""
    try:
        return str(n)
    except ValueError:
        digits = sys.get_int_max_str_digits()
        high, low = divmod(abs(n), 10**digits)
        return "-" * (n < 0) + _decimal(high) + str(low).zfill(digits)


class _Value:
    """Base of the immutable value types, with semantics read off __slots__.

    The slots are the fields.  Instances compare equal exactly when they are
    of the same class with equal field tuples, hash as that tuple, and print
    as Name(field=value, ...).  __match_args__ names the constructor's
    arguments in order (all fields unless a subclass says otherwise), and
    pickling calls the constructor again with them.  __setattr__ refuses every
    write, so each field is set once, in __init__, as cls._set_<field>(self,
    value): the setter of the field's slot, derived once per class here.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = fields = cls.__slots__
        get = attrgetter(*fields)
        cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = fields
        for f in fields:
            setattr(cls, f"_set_{f}", cls.__dict__[f].__set__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        def text(v: object) -> str:  # repr(v), but an int (not a bool) through _decimal, also in a tuple or range
            if isinstance(v, tuple):
                return f"({', '.join(map(text, v))}{',' * (len(v) == 1)})"
            if isinstance(v, range):
                return f"range({text(v.start)}, {text(v.stop)}{f', {text(v.step)}' * (v.step != 1)})"
            return _decimal(v) if type(v) is int else repr(v)
        body = ", ".join(f"{f}={text(getattr(self, f))}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)


def _lowest_terms(num: int, den: int, what: str) -> tuple[int, int]:
    """num/den in lowest terms with den > 0: the one canonical form of both types."""
    if den == 0:
        raise ZeroDivisionError(f"{what} with zero denominator")
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return num, den


@total_ordering
class Rational(_Value):
    """A rational number num/den in lowest terms with den > 0.

    Zero is stored as 0/1, as gcd(0, d) = d.  Any integer pair is accepted by
    the constructor and reduced (negative denominators fold into the numerator).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        num, den = _lowest_terms(num, den, "rational")
        self._set_num(self, num)
        self._set_den(self, den)

    def __add__(self, other: Rational) -> Rational:
        return Rational(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: Rational) -> Rational:
        return Rational(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: Rational) -> Rational:
        return Rational(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: Rational) -> Rational:
        return Rational(self.num * other.den, self.den * other.num)

    def __neg__(self) -> Rational:
        return Rational(-self.num, self.den)

    def __lt__(self, other: Rational) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # denominators are positive, so cross-multiplication preserves order
        return self.num * other.den < other.num * self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def is_integer(self) -> bool:
        return self.den == 1

    def __str__(self) -> str:
        return f"{_decimal(self.num)}/{_decimal(self.den)}"


@total_ordering
class QmodZ(_Value):
    """A class in Q/Z stored as its least nonnegative representative.

    Invariant: 0 <= num < den and gcd(num, den) = 1; the zero class is 0/1
    (a reduced fraction is an integer exactly when den = 1).  The constructor
    accepts any integer pair and canonicalizes, so QmodZ(q.num + t * q.den, q.den) == q.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        num, den = _lowest_terms(num, den, "Q/Z class")
        self._set_num(self, num % den)
        self._set_den(self, den)

    @classmethod
    def from_rational(cls, r: Rational) -> QmodZ:
        return cls(r.num, r.den)

    __lt__ = Rational.__lt__
    is_zero = Rational.is_zero
    __str__ = Rational.__str__


def qmodz_add(a: QmodZ, b: QmodZ) -> QmodZ:
    """Sum in Q/Z, reduced to the canonical representative."""
    return QmodZ(a.num * b.den + b.num * a.den, a.den * b.den)


def qmodz_neg(a: QmodZ) -> QmodZ:
    """Additive inverse in Q/Z; fixes the zero class and 2-torsion."""
    return QmodZ(-a.num, a.den)


class Residue(_Value):
    """A residue class modulo a positive integer, normalized to [0, modulus)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        self._set_value(self, value % modulus)
        self._set_modulus(self, modulus)

    def __str__(self) -> str:
        return f"{_decimal(self.value)} mod {_decimal(self.modulus)}"

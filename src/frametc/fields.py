"""Exact coefficient fields.

Two kinds of field are supported and both are exact:

* characteristic 0, the rationals, realized as Python ints; a
  `fractions.Fraction` enters only with a non-integral input such as a
  table's ``"p/q"`` constant (``coerce`` turns integral ones into ints);
* prime characteristic p, realized as Python ints in ``range(p)``.

Zero and one are ``0`` and ``1`` in every field, and a coefficient is zero
exactly when it is falsy.

No floating point is used anywhere in this package.  A field is addressed in
text form as ``char=0`` or ``char=P`` (the form the CLI's ``--field`` flag
takes) and in JSON form as ``{"char": P}``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

Coeff = Union[int, Fraction]


class FieldError(ValueError):
    """Invalid field description (non-prime characteristic, bad syntax)."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """An exact field, given by its characteristic.

    Instances are immutable and interned (see :func:`field_of`); identity
    comparison is fine but ``==`` also works across separately-built values.
    """

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        if characteristic != 0 and not _is_prime(characteristic):
            raise FieldError(
                f"characteristic must be 0 or a prime, got {characteristic}"
            )
        object.__setattr__(self, "characteristic", characteristic)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Field instances are immutable")

    # -- basic properties ---------------------------------------------------

    def __repr__(self) -> str:
        return f"Field(char={self.characteristic})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self) -> int:
        return hash(("Field", self.characteristic))

    # -- element arithmetic -------------------------------------------------
    #
    # Elements are int or Fraction (char 0) or int in range(p) (char p).

    def coerce(self, x: Coeff) -> Coeff:
        # Only ints and Fractions are field elements; floats are never
        # accepted, by design (exact arithmetic throughout).
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"coefficients must be int or Fraction, got {x!r}")
        p = self.characteristic
        if p == 0:
            if isinstance(x, Fraction) and x.denominator == 1:
                return x.numerator
            return x
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {p}")
            return (x.numerator * pow(x.denominator, -1, p)) % p
        return x % p

    def add(self, a: Coeff, b: Coeff) -> Coeff:
        p = self.characteristic
        return a + b if p == 0 else (a + b) % p

    def sub(self, a: Coeff, b: Coeff) -> Coeff:
        p = self.characteristic
        return a - b if p == 0 else (a - b) % p

    def mul(self, a: Coeff, b: Coeff) -> Coeff:
        p = self.characteristic
        return a * b if p == 0 else (a * b) % p

    def neg(self, a: Coeff) -> Coeff:
        p = self.characteristic
        return -a if p == 0 else (-a) % p

    def invert(self, a: Coeff) -> Coeff:
        p = self.characteristic
        if p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / a
        return pow(a, -1, p)

    def sign_to_coeff(self, exponent: int) -> Coeff:
        """(-1)**exponent as a field element."""
        return self.neg(1) if exponent % 2 else 1

    # -- text form ------------------------------------------------------------

    def token(self) -> str:
        return f"char={self.characteristic}"


@lru_cache(maxsize=None)
def field_of(characteristic: int) -> Field:
    """Interned field of the given characteristic."""
    return Field(characteristic)


QQ = field_of(0)
F2 = field_of(2)


def parse_field(text: str) -> Field:
    """Parse ``char=P`` (also accepts a bare integer or ``charP``)."""
    t = text.strip().lower()
    if t.startswith("char="):
        t = t[5:]
    elif t.startswith("char"):
        t = t[4:]
    try:
        p = int(t)
    except ValueError:
        raise FieldError(f"cannot parse field {text!r}; expected e.g. char=0 or char=2")
    return field_of(p)


def field_from_json(obj) -> Field:
    if isinstance(obj, dict) and "char" in obj and isinstance(obj["char"], int):
        return field_of(obj["char"])
    if isinstance(obj, str):
        return parse_field(obj)
    raise FieldError(f"cannot parse field from {obj!r}; expected {{'char': P}}")

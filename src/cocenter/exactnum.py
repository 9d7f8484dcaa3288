"""Exact scalar arithmetic: Q, Q(sqrt p), p-adic valuations and norms.

All p-adic numbers handled by this package are rational, so valuations and
norms are exact integer computations.  Normalized quantities (half powers of
the p-adic norm) live in Q(sqrt p), represented as `RootP` pairs.
`json_field` reads one typed field of a loaded JSON payload for the readers
at the trust boundary, `measures.measure_from_jsonable` and
`saturation.CurveWitness.from_jsonable`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class ResourceGuardError(RuntimeError):
    """A finite enumeration would exceed its configured size guard."""


class LevelError(ValueError):
    """An operation would leave the fixed congruence level."""


#: default ceiling for finite group enumerations
DEFAULT_GROUP_ORDER_GUARD = 10**6

INFINITY = math.inf


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def padic_valuation(x, p: int):
    """v_p(x) for rational x; +inf for x = 0.

    Satisfies x = p**v * u with u a p-adic unit.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def int_valuation(x: int, p: int) -> int:
    """v_p(x) for a nonzero integer x and a prime p, which is not checked."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class RootP:
    """Element a + b*sqrt(p) of Q(sqrt p), p prime.

    Since sqrt(p) is irrational the representation is unique, so equality is
    componentwise.  Pure rationals are the b = 0 elements and lie in every
    Q(sqrt p), so a binary operation takes the prime of its operand with
    b != 0; operations accept int/Fraction on either side and act on the
    components directly.  Results are built by `_wrap`, which trusts its
    Fraction components and prime; the public constructor validates.
    """

    __slots__ = ("a", "b", "p")

    def __init__(self, a, b, p: int):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.p = p

    @classmethod
    def _wrap(cls, a: Fraction, b: Fraction, p: int) -> "RootP":
        """a + b sqrt(p) for Fractions a, b and a prime p, not re-checked."""
        out = object.__new__(cls)
        out.a, out.b, out.p = a, b, p
        return out

    @classmethod
    def rational(cls, a, p: int) -> "RootP":
        return cls(a, 0, p)

    def _prime(self, other: "RootP") -> int:
        """The prime of the result of an operation with another RootP."""
        if other.b == 0:
            return self.p
        if self.b != 0 and other.p != self.p:
            raise DomainError("mixed sqrt fields")
        return other.p

    def __add__(self, other):
        if isinstance(other, RootP):
            return RootP._wrap(self.a + other.a, self.b + other.b, self._prime(other))
        if isinstance(other, (int, Fraction)):
            return RootP._wrap(self.a + other, self.b, self.p)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RootP._wrap(-self.a, -self.b, self.p)

    def __sub__(self, other):
        if isinstance(other, RootP):
            return RootP._wrap(self.a - other.a, self.b - other.b, self._prime(other))
        if isinstance(other, (int, Fraction)):
            return RootP._wrap(self.a - other, self.b, self.p)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return RootP._wrap(other - self.a, -self.b, self.p)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RootP):
            p = self._prime(other)
            return RootP._wrap(self.a * other.a + p * self.b * other.b,
                               self.a * other.b + self.b * other.a, p)
        if isinstance(other, (int, Fraction)):
            return RootP._wrap(self.a * other, self.b * other, self.p)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "RootP":
        # (a + b sqrt p)(a - b sqrt p) = a^2 - p b^2, nonzero unless a = b = 0
        norm = self.a * self.a - self.p * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt p)")
        return RootP._wrap(self.a / norm, -self.b / norm, self.p)

    def __truediv__(self, other):
        if isinstance(other, RootP):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return RootP._wrap(self.a / other, self.b / other, self.p)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = RootP._wrap(Fraction(1), Fraction(0), self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, RootP):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.p == other.p and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.p))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __str__(self):
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}√{self.p}"

    def __repr__(self):
        return f"RootP({self.a!r}, {self.b!r}, {self.p})"

    @classmethod
    def parse(cls, s: str, p: int | None = None) -> "RootP":
        """Inverse of str(); accepts 'a+b√p' and plain rationals."""
        m = re.fullmatch(r"(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)√(\d+)", s)
        if m:
            a = Fraction(m.group(1))
            b = Fraction(m.group(3))
            if m.group(2) == "-":
                b = -b
            q = int(m.group(4))
            if p is not None and q != p:
                raise DomainError(f"expected sqrt({p}), got sqrt({q})")
            return cls(a, b, q)
        if p is None:
            raise DomainError(f"cannot parse {s!r} without a prime")
        return cls(Fraction(s), 0, p)


def padic_norm_halfpower(x, p: int, k: int) -> RootP:
    """|x|_p^(k/2) = p**(-k*v_p(x)/2) as an exact element of Q(sqrt p).

    Pure rational when k*v_p(x) is even, a rational multiple of sqrt(p)
    when odd.  Rejects x = 0.
    """
    x = Fraction(x)
    if x == 0:
        raise DomainError("|0| has no nonzero power")
    return p_power_norm_halfpower(padic_valuation(x, p), p, k)


def p_power_norm_halfpower(v: int, p: int, k: int) -> RootP:
    """|p^v|_p^(k/2) = p**(-k*v/2) for a prime p, which is not checked: the
    half-power of a known p-exponent, without taking a valuation."""
    e = -k * v
    if e % 2 == 0:
        return RootP._wrap(Fraction(p) ** (e // 2), Fraction(0), p)
    return RootP._wrap(Fraction(0), Fraction(p) ** ((e - 1) // 2), p)


def json_field(obj, key: str, kind=object):
    """obj[key] from a loaded payload, refused with DomainError when obj is
    not an object, the key is missing or the value is not of the given kind
    (an int that is not a bool, for kind=int)."""
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError(f"payload {obj!r} has no field {key!r}")
    value = obj[key]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise DomainError(f"field {key!r} is {value!r}, not of type {kind.__name__}")
    return value

"""Certified curve-witness saturation for Q-constructible sets.

A point belongs to the saturation operator's image when a punctured
rational curve through it lands in the set.  The search side below is a
bounded enumeration (degree and coefficient height limits, and at most
`guard` curves, the same `--guard` that bounds every other enumeration)
and is allowed to miss witnesses; the verification side is exact and
depends on nothing from the search but the witness itself, so everything
returned is sound.  Non-membership is never claimed.  Both sides take
rational roots by trial division, and the guard bounds that too.

A constructible set is one boolean tree whose leaves are polynomial
equations and inequations, and there is one evaluation step: the generic
step along a curve, which composes each leaf read with the curve and folds
the tree from whether the composites vanish identically.  Membership of a
point is that step at the constant curve t -> point.

Ground field: Q (the construction needs an infinite field).  Polynomial
arithmetic is exact over Fraction; rational roots come from divisor
enumeration on primitive integer polynomials.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD, DomainError, ResourceGuardError, json_field)

#: rounds of the fixpoint iteration
MAX_ROUNDS = 8


# ---------------------------------------------------------------------------
# univariate polynomials as coefficient lists (index = degree)


def poly_trim(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in itertools.chain(enumerate(a), enumerate(b)):
        out[i] += c
    return poly_trim(out)


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_eval(a, t: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * t + c
    return out


def rational_roots(a, guard: int = DEFAULT_GROUP_ORDER_GUARD):
    """All rational roots of a nonzero polynomial, exactly.

    Clears denominators to a primitive integer polynomial, strips the root
    at zero, then tries every divisor ratio of trailing and leading
    coefficients.  The divisors come by trial division up to the square
    root of each; a range isqrt|a_0| + isqrt|a_n| beyond `guard` is
    refused with ResourceGuardError before any division.
    """
    a = poly_trim(a)
    if not a:
        raise DomainError("the zero polynomial has every root")
    low = next(i for i, c in enumerate(a) if c)
    roots = {Fraction(0)} if low else set()
    a = a[low:]
    if len(a) == 1:
        return roots  # a nonzero constant times t^low: no divisor search
    denom = math.lcm(*(c.denominator for c in a))
    ints = [int(c * denom) for c in a]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    span = math.isqrt(abs(ints[0])) + math.isqrt(abs(ints[-1]))
    if span > guard:
        raise ResourceGuardError(f"divisor search over {span} candidates exceeds guard {guard}")

    def divisors(x):
        small = [d for d in range(1, math.isqrt(abs(x)) + 1) if x % d == 0]
        return set(small) | {abs(x) // d for d in small}

    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if poly_eval(a, cand) == 0:
                    roots.add(cand)
    return roots


# ---------------------------------------------------------------------------
# multivariate polynomials and constructible sets


class MPoly:
    """Sparse multivariate polynomial over Q: {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        cleaned = {}
        for expo, c in (terms or {}).items():
            if len(expo) != nvars:
                raise DomainError(f"exponent {tuple(expo)} does not have {nvars} entries")
            c = Fraction(c)
            if c:
                cleaned[tuple(expo)] = c
        self.terms = cleaned

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        return cls(nvars, {tuple(int(j == i) for j in range(nvars)): 1})

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.nvars, out)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + other * -1

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise DomainError("variable count mismatch")
            return other
        return MPoly.constant(self.nvars, other)

    def compose_curve(self, curve):
        """Univariate coefficients of p(f_1(t), ..., f_n(t))."""
        out = []
        for e, c in self.terms.items():
            term = [c]
            for f, k in zip(curve, e):
                for _ in range(k):
                    term = poly_mul(term, f)
            out = poly_add(out, term)
        return out

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.terms})"


@dataclass(frozen=True)
class ConstructibleSet:
    """Boolean combination of polynomial (in)equations over Q^n, as a tree.

    A leaf has op "eq" (poly = 0) or "ne" (poly != 0) and holds its poly;
    an inner node has op "and", "or" or "not" and holds its children.
    Membership of a rational point is decided exactly.
    """

    op: str
    children: tuple = ()
    poly: MPoly | None = None

    @property
    def nvars(self) -> int:
        return self.poly.nvars if self.poly is not None else self.children[0].nvars

    # tree builders
    @classmethod
    def equation(cls, poly: MPoly) -> "ConstructibleSet":
        return cls("eq", poly=poly)

    @classmethod
    def inequation(cls, poly: MPoly) -> "ConstructibleSet":
        return cls("ne", poly=poly)

    def _join(self, op, other):
        if other.nvars != self.nvars:
            raise DomainError(f"cannot combine sets in {self.nvars} and {other.nvars} variables")
        return ConstructibleSet(op, (self, other))

    def __and__(self, other):
        return self._join("and", other)

    def __or__(self, other):
        return self._join("or", other)

    def __invert__(self):
        return ConstructibleSet("not", (self,))

    @classmethod
    def single_point(cls, point) -> "ConstructibleSet":
        n = len(point)
        coords = [MPoly.variable(n, i) - MPoly.constant(n, c) for i, c in enumerate(point)]
        return functools.reduce(operator.and_, map(cls.equation, coords))

    @classmethod
    def finite_set(cls, points) -> "ConstructibleSet":
        return functools.reduce(operator.or_, map(cls.single_point, points))

    def fold(self, vanishes) -> bool:
        """Truth value of the tree, given vanishes(poly) for the leaves.

        Children are read left to right and reading stops as soon as the
        value is fixed, so only the leaves read can change it.
        """
        if self.poly is not None:
            return vanishes(self.poly) == (self.op == "eq")
        values = (child.fold(vanishes) for child in self.children)
        if self.op == "not":
            return not next(values)
        return all(values) if self.op == "and" else any(values)

    def contains(self, point) -> bool:
        """The generic step at the constant curve t -> point, where each
        composite is the constant value of its leaf."""
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.nvars:
            raise DomainError(f"point {point} does not have {self.nvars} coordinates")
        curve = [(x,) for x in point]
        return self.fold(lambda poly: not poly.compose_curve(curve))

    def _padded(self, before: tuple, after: tuple) -> "ConstructibleSet":
        """The same tree with every exponent padded by zeros on both sides."""
        if self.poly is None:
            children = tuple(child._padded(before, after) for child in self.children)
            return ConstructibleSet(self.op, children)
        terms = {before + e + after: c for e, c in self.poly.terms.items()}
        return ConstructibleSet(self.op, poly=MPoly(len(before) + self.nvars + len(after), terms))

    def product(self, other: "ConstructibleSet") -> "ConstructibleSet":
        """The product set inside Q^(m+n)."""
        return self._padded((), (0,) * other.nvars) & other._padded((0,) * self.nvars, ())


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class CurveWitness:
    """Polynomial curve f: V -> Q^n with puncture x0, V = A^1 minus excluded.

    Certifies f(V') inside the target set, V' = V minus the puncture; the
    certified member of the saturation is f(x0).
    """

    components: tuple  # one coefficient tuple per coordinate
    puncture: Fraction
    excluded: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        comps = tuple(tuple(Fraction(c) for c in comp) for comp in self.components)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "puncture", Fraction(self.puncture))
        object.__setattr__(self, "excluded", frozenset(Fraction(x) for x in self.excluded))

    @property
    def nvars(self):
        return len(self.components)

    def value_at(self, t) -> tuple:
        return tuple(poly_eval(comp, Fraction(t)) for comp in self.components)

    def certified_point(self) -> tuple:
        return self.value_at(self.puncture)

    def to_jsonable(self):
        return {
            "components": [[str(c) for c in comp] for comp in self.components],
            "puncture": str(self.puncture),
            "excluded": sorted(str(x) for x in self.excluded),
        }

    @classmethod
    def from_jsonable(cls, data):
        """Inverse of `to_jsonable`, checked at the trust boundary: the
        components must be a list of lists of strings, the puncture a string
        and the excluded points a list of strings, each string parsing as a
        rational; anything else is refused with DomainError."""
        components = json_field(data, "components", list)
        puncture = json_field(data, "puncture", str)
        excluded = json_field(data, "excluded", list)
        if not all(isinstance(comp, list) and all(isinstance(c, str) for c in comp)
                   for comp in components):
            raise DomainError(f"field 'components' is {components!r}, not lists of strings")
        if not all(isinstance(x, str) for x in excluded):
            raise DomainError(f"field 'excluded' is {excluded!r}, not a list of strings")
        try:
            return cls(components, puncture, excluded)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"witness {data!r} does not parse: {exc}") from None


def _failures(w: CurveWitness, target: ConstructibleSet, guard: int):
    """The exceptional points of w's domain that map off the target, or
    None when the generic step fails; `guard` bounds each root search.

    Generic step: each leaf the fold reads, composed with the curve, either
    vanishes identically or not, which fixes its truth value away from the
    rational roots of the composite; the tree must fold true.  Only the
    leaves read can change the value, so the exceptional points are those
    roots, less the excluded points and the puncture, each rechecked
    pointwise.
    """
    if w.nvars != target.nvars:
        raise DomainError("dimension mismatch")
    roots = set()

    def vanishes(poly):
        h = poly.compose_curve(w.components)
        if h:
            roots.update(rational_roots(h, guard))
        return not h

    if not target.fold(vanishes):
        return None
    exceptional = roots - w.excluded - {w.puncture}
    return {t for t in exceptional if not target.contains(w.value_at(t))}


def verify_witness(w: CurveWitness, target: ConstructibleSet,
                   guard: int = DEFAULT_GROUP_ORDER_GUARD) -> bool:
    """Exact certificate check that uses nothing from a search but w: the
    generic step holds and no exceptional point of w's domain maps off the
    target.  A root search past `guard` divisor candidates is refused."""
    return _failures(w, target, guard) == set()


# ---------------------------------------------------------------------------
# bounded search


def _height_ladder(height: int):
    """Small rationals ordered by height: 0, -1, 1, -2, -1/2, 1/2, 2, ..."""
    out = [Fraction(0)]
    for h in range(1, height + 1):
        for num in range(-h, h + 1):
            for den in range(1, h + 1):
                c = Fraction(num, den)
                if max(abs(num), den) == h and c not in out:
                    out.append(c)
    return out


def _curves(point, degree_bound: int, height_bound: int):
    """The constant curve at point, then f_i(t) = point_i + sum c_ik t^k
    for k <= degree_bound, the c_ik from the height ladder, not all zero."""
    yield tuple((x,) for x in point)
    ladder = _height_ladder(height_bound)
    for degree in range(1, degree_bound + 1):
        rows = itertools.product(ladder, repeat=degree)
        for coeff_rows in itertools.product(rows, repeat=len(point)):
            if any(any(row) for row in coeff_rows):
                yield tuple((x,) + row for x, row in zip(point, coeff_rows))


def sat_prime_member(target: ConstructibleSet, point, degree_bound: int = 2,
                     height_bound: int = 2, guard: int = DEFAULT_GROUP_ORDER_GUARD):
    """Bounded search for a curve witness certifying point in sat'(target).

    Curves pass through the point at the puncture t = 0, the constant curve
    first, which certifies a point of the target itself; the exceptional
    points mapping off the target are excluded from the curve's domain,
    which the construction permits (any cofinite open part of the line is a
    valid domain).  Returns a witness, re-verified by `verify_witness`, or
    None; None never proves non-membership.  More than `guard` non-constant
    curves, or a root search past `guard` divisor candidates, are refused
    with ResourceGuardError.
    """
    point = tuple(Fraction(x) for x in point)
    for tried, components in enumerate(_curves(point, degree_bound, height_bound)):
        if tried > guard:
            raise ResourceGuardError(f"witness search exceeds guard {guard}")
        failures = _failures(CurveWitness(components, 0), target, guard)
        if failures is None:
            continue
        witness = CurveWitness(components, 0, failures)
        if not verify_witness(witness, target, guard):
            raise RuntimeError(f"the curve {witness.to_jsonable()} fails verification")
        return witness
    return None


def product_rule_check(a: ConstructibleSet, b: ConstructibleSet, point_a, point_b,
                       degree_bound=2, height_bound=2, guard=DEFAULT_GROUP_ORDER_GUARD):
    """Both directions of sat'(A x B) = sat'(A) x sat'(B) at a sample point.

    Combines per-factor witnesses into a product witness on a common
    punctured domain, and projects the product witness back to the factors;
    every step is re-verified.  Returns (ok, combined_witness).
    """
    wa = sat_prime_member(a, point_a, degree_bound, height_bound, guard)
    wb = sat_prime_member(b, point_b, degree_bound, height_bound, guard)
    if wa is None or wb is None:
        return False, None
    # common domain: both searches puncture at t = 0 already
    if wa.puncture != 0 or wb.puncture != 0:
        raise RuntimeError("a factor witness is not punctured at t = 0")
    combined = CurveWitness(wa.components + wb.components, 0, wa.excluded | wb.excluded)
    prod = a.product(b)
    if not verify_witness(combined, prod, guard):
        return False, None
    # projections of the product witness certify the factors
    proj_a = CurveWitness(combined.components[: a.nvars], 0, combined.excluded)
    proj_b = CurveWitness(combined.components[a.nvars :], 0, combined.excluded)
    if not (verify_witness(proj_a, a, guard) and verify_witness(proj_b, b, guard)):
        return False, None
    return True, combined


def sat_fixpoint(target: ConstructibleSet, cloud, degree_bound=2, height_bound=2,
                 guard=DEFAULT_GROUP_ORDER_GUARD):
    """Certified points of the cloud in the saturation, iterated to a fixpoint.

    Each round augments the membership oracle with the points certified so
    far and re-runs the bounded witness search; the loop stops on the first
    round that adds nothing, and refuses to run more than MAX_ROUNDS
    rounds.  Returns (certified dict point -> witness, rounds executed).
    """
    cloud = [tuple(Fraction(x) for x in pt) for pt in cloud]
    certified = {}
    for rounds in range(1, MAX_ROUNDS + 1):
        augmented = target
        if certified:
            augmented = target | ConstructibleSet.finite_set(sorted(certified))
        before = len(certified)
        for pt in cloud:
            if pt in certified:
                continue
            w = sat_prime_member(augmented, pt, degree_bound, height_bound, guard)
            if w is not None:
                certified[pt] = w
        if len(certified) == before:
            return certified, rounds
    raise ResourceGuardError("saturation iteration cap exceeded")

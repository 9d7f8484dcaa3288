"""Certified curve-witness saturation for Q-constructible sets.

A point belongs to the saturation operator's image when a punctured
rational curve through it lands in the set.  The search side below is a
bounded enumeration (degree and coefficient height limits) and is allowed
to miss witnesses; the verification side is exact and depends on nothing
from the search but the witness itself, so everything returned is sound.
Non-membership is never claimed.

A constructible set is one boolean tree whose leaves are polynomial
equations and inequations.  One fold evaluates the tree from a truth value
per leaf: membership of a point reads each leaf at the point, and the
generic step of verification reads it off the leaf composed with the curve.

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

from cocenter.exactnum import DomainError, ResourceGuardError, json_field

#: curves tried by one witness search, and rounds of the fixpoint iteration
SEARCH_CAP = 400000
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


def poly_pow(a, k: int):
    out = [Fraction(1)]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def rational_roots(a):
    """All rational roots of a nonzero polynomial, exactly.

    Clears denominators to a primitive integer polynomial, strips the root
    at zero, then tries every divisor ratio of trailing and leading
    coefficients.
    """
    a = poly_trim(a)
    if not a:
        raise DomainError("the zero polynomial has every root")
    low = next(i for i, c in enumerate(a) if c)
    roots = {Fraction(0)} if low else set()
    a = a[low:]
    denom = math.lcm(*(c.denominator for c in a))
    ints = [int(c * denom) for c in a]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]

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

    def evaluate(self, point) -> Fraction:
        out = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                term *= Fraction(x) ** k
            out += term
        return out

    def compose_curve(self, curve):
        """Univariate coefficients of p(f_1(t), ..., f_n(t))."""
        out = []
        for e, c in self.terms.items():
            term = [Fraction(c)]
            for f, k in zip(curve, e):
                if k:
                    term = poly_mul(term, poly_pow(f, k))
            out = poly_add(out, term)
        return out

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.terms})"


@dataclass(frozen=True)
class Node:
    """Boolean tree over polynomial conditions.

    A leaf has op "eq" (poly = 0) or "ne" (poly != 0) and holds its poly;
    an inner node has op "and", "or" or "not" and holds its children.
    """

    op: str
    children: tuple = ()
    poly: MPoly | None = None

    def holds(self, vanishes: bool) -> bool:
        """Truth of this leaf when its poly does or does not vanish."""
        return vanishes == (self.op == "eq")

    def fold(self, truth) -> bool:
        """Truth value of the tree, given truth(leaf) for every leaf."""
        if self.poly is not None:
            return truth(self)
        if self.op == "not":
            return not self.children[0].fold(truth)
        if self.op == "and":
            return all(c.fold(truth) for c in self.children)
        return any(c.fold(truth) for c in self.children)

    def leaves(self):
        """The leaves of the tree, left to right."""
        if self.poly is not None:
            yield self
        for c in self.children:
            yield from c.leaves()

    def map_leaves(self, f) -> "Node":
        """The same tree with every leaf replaced by f(leaf)."""
        if self.poly is not None:
            return f(self)
        return Node(self.op, tuple(c.map_leaves(f) for c in self.children))


class ConstructibleSet:
    """Boolean combination of polynomial (in)equations over Q^n.

    Membership of a rational point is decided exactly by evaluation.
    """

    def __init__(self, nvars: int, root: Node):
        self.nvars = nvars
        self.root = root

    # tree builders
    @classmethod
    def equation(cls, poly: MPoly) -> "ConstructibleSet":
        return cls(poly.nvars, Node("eq", poly=poly))

    @classmethod
    def inequation(cls, poly: MPoly) -> "ConstructibleSet":
        return cls(poly.nvars, Node("ne", poly=poly))

    def _join(self, op, other):
        if other.nvars != self.nvars:
            raise DomainError(f"cannot combine sets in {self.nvars} and {other.nvars} variables")
        return ConstructibleSet(self.nvars, Node(op, (self.root, other.root)))

    def __and__(self, other):
        return self._join("and", other)

    def __or__(self, other):
        return self._join("or", other)

    def __invert__(self):
        return ConstructibleSet(self.nvars, Node("not", (self.root,)))

    @classmethod
    def single_point(cls, point) -> "ConstructibleSet":
        n = len(point)
        coords = [MPoly.variable(n, i) - MPoly.constant(n, c) for i, c in enumerate(point)]
        return functools.reduce(operator.and_, map(cls.equation, coords))

    @classmethod
    def finite_set(cls, points) -> "ConstructibleSet":
        return functools.reduce(operator.or_, map(cls.single_point, points))

    def contains(self, point) -> bool:
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.nvars:
            raise DomainError(f"point {point} does not have {self.nvars} coordinates")
        return self.root.fold(lambda leaf: leaf.holds(leaf.poly.evaluate(point) == 0))

    def atoms(self):
        """The leaf conditions of the tree, left to right."""
        return list(self.root.leaves())

    def product(self, other: "ConstructibleSet") -> "ConstructibleSet":
        """The product set inside Q^(m+n)."""
        n_total = self.nvars + other.nvars

        def pad(leaf, before, after):
            terms = {before + e + after: c for e, c in leaf.poly.terms.items()}
            return Node(leaf.op, poly=MPoly(n_total, terms))

        left = self.root.map_leaves(lambda leaf: pad(leaf, (), (0,) * other.nvars))
        right = other.root.map_leaves(lambda leaf: pad(leaf, (0,) * self.nvars, ()))
        return ConstructibleSet(n_total, Node("and", (left, right)))


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
        object.__setattr__(
            self, "excluded", frozenset(Fraction(x) for x in self.excluded)
        )

    @property
    def nvars(self):
        return len(self.components)

    def value_at(self, t) -> tuple:
        t = Fraction(t)
        return tuple(poly_eval(list(comp), t) for comp in self.components)

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


def _composed_atoms(curve, target: ConstructibleSet):
    """Every atom of the target composed with the curve, as a dict from the
    id of the atom's leaf to the composite h(t), and the set of rational
    roots of the composites that do not vanish identically.  Away from
    those roots each atom's truth value is fixed by whether h vanishes."""
    composed = {id(atom): atom.poly.compose_curve(curve) for atom in target.atoms()}
    roots = set().union(*(rational_roots(h) for h in composed.values() if h))
    return composed, roots


def verify_witness(w: CurveWitness, target: ConstructibleSet) -> bool:
    """Exact certificate check that uses nothing from a search but w.

    Generic step: each atom composed with the curve is either identically
    zero or not, which fixes a truth value away from finitely many t; the
    boolean tree must evaluate true generically.  Exceptional step: every
    rational root of a non-vanishing composite that is not excluded and not
    the puncture is rechecked pointwise.
    """
    if w.nvars != target.nvars:
        raise DomainError("dimension mismatch")
    composed, roots = _composed_atoms(w.components, target)
    if not target.root.fold(lambda leaf: leaf.holds(not composed[id(leaf)])):
        return False
    exceptional = roots - w.excluded - {w.puncture}
    return all(target.contains(w.value_at(t)) for t in exceptional)


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


def sat_prime_member(
    target: ConstructibleSet,
    point,
    degree_bound: int = 2,
    height_bound: int = 2,
):
    """Bounded search for a curve witness certifying point in sat'(target).

    Curves are f_i(t) = point_i + sum c_ik t^k with the puncture at t = 0;
    exceptional roots failing the pointwise check are excluded into the
    curve's domain, which the construction permits (any cofinite open part
    of the line is a valid domain).  Returns a verified witness or None;
    None never proves non-membership.  At most SEARCH_CAP curves are tried.
    """
    point = tuple(Fraction(x) for x in point)
    if target.contains(point):
        witness = CurveWitness(tuple((x,) for x in point), 0)
        if not verify_witness(witness, target):
            raise RuntimeError(f"the constant curve at {point} fails verification")
        return witness
    ladder = _height_ladder(height_bound)
    tried = 0
    for degree in range(1, degree_bound + 1):
        for coeff_rows in itertools.product(
            itertools.product(ladder, repeat=degree), repeat=target.nvars
        ):
            if all(all(c == 0 for c in row) for row in coeff_rows):
                continue
            tried += 1
            if tried > SEARCH_CAP:
                raise ResourceGuardError("witness search exceeded its cap")
            curve = CurveWitness(tuple((x,) + row for x, row in zip(point, coeff_rows)), 0)
            _, roots = _composed_atoms(curve.components, target)
            failing = {t for t in roots if t != 0 and not target.contains(curve.value_at(t))}
            candidate = CurveWitness(curve.components, 0, failing)
            if verify_witness(candidate, target):
                return candidate
    return None


def product_rule_check(
    a: ConstructibleSet,
    b: ConstructibleSet,
    point_a,
    point_b,
    degree_bound=2,
    height_bound=2,
):
    """Both directions of sat'(A x B) = sat'(A) x sat'(B) at a sample point.

    Combines per-factor witnesses into a product witness on a common
    punctured domain, and projects the product witness back to the factors;
    every step is re-verified.  Returns (ok, combined_witness).
    """
    wa = sat_prime_member(a, point_a, degree_bound, height_bound)
    wb = sat_prime_member(b, point_b, degree_bound, height_bound)
    if wa is None or wb is None:
        return False, None
    # common domain: both searches puncture at t = 0 already
    if wa.puncture != 0 or wb.puncture != 0:
        raise RuntimeError("a factor witness is not punctured at t = 0")
    combined = CurveWitness(
        wa.components + wb.components, 0, wa.excluded | wb.excluded
    )
    prod = a.product(b)
    if not verify_witness(combined, prod):
        return False, None
    # projections of the product witness certify the factors
    proj_a = CurveWitness(combined.components[: a.nvars], 0, combined.excluded)
    proj_b = CurveWitness(combined.components[a.nvars :], 0, combined.excluded)
    if not (verify_witness(proj_a, a) and verify_witness(proj_b, b)):
        return False, None
    return True, combined


def sat_fixpoint(
    target: ConstructibleSet,
    cloud,
    degree_bound=2,
    height_bound=2,
):
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
            w = sat_prime_member(augmented, pt, degree_bound, height_bound)
            if w is not None:
                certified[pt] = w
        if len(certified) == before:
            return certified, rounds
    raise ResourceGuardError("saturation iteration cap exceeded")

"""Certified curve-witness saturation for Q-constructible sets.

A point belongs to the saturation operator's image when a punctured
rational curve through it lands in the set.  The search side below is a
bounded enumeration (degree and coefficient height limits) and is allowed
to miss witnesses; the verification side is exact and independent of the
search, so everything returned is sound.  Non-membership is never claimed.

Ground field: Q (the construction needs an infinite field).  Polynomial
arithmetic is exact over Fraction; rational roots come from divisor
enumeration on primitive integer polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from cocenter.exactnum import DomainError, ResourceGuardError

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
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
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
    roots = set()
    low = 0
    while a[low] == 0:
        roots.add(Fraction(0))
        low += 1
    a = a[low:]
    if len(a) == 1:
        return roots
    from math import gcd

    denom_lcm = 1
    for c in a:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]

    def divisors(x):
        x = abs(x)
        out = set()
        d = 1
        while d * d <= x:
            if x % d == 0:
                out.add(d)
                out.add(x // d)
            d += 1
        return out

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
            c = Fraction(c)
            if c:
                cleaned[tuple(expo)] = c
        self.terms = cleaned

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

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
class Atom:
    """p = 0 (equation) or p != 0 (inequation)."""

    poly: MPoly
    is_equation: bool


@dataclass(frozen=True)
class Node:
    op: str  # "and" | "or" | "not" | "atom"
    children: tuple = ()
    atom: Atom | None = None


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
        return cls(poly.nvars, Node("atom", atom=Atom(poly, True)))

    @classmethod
    def inequation(cls, poly: MPoly) -> "ConstructibleSet":
        return cls(poly.nvars, Node("atom", atom=Atom(poly, False)))

    def __and__(self, other):
        return ConstructibleSet(self.nvars, Node("and", (self.root, other.root)))

    def __or__(self, other):
        return ConstructibleSet(self.nvars, Node("or", (self.root, other.root)))

    def __invert__(self):
        return ConstructibleSet(self.nvars, Node("not", (self.root,)))

    @classmethod
    def single_point(cls, point) -> "ConstructibleSet":
        nvars = len(point)
        out = None
        for i, c in enumerate(point):
            eq = cls.equation(MPoly.variable(nvars, i) - MPoly.constant(nvars, c))
            out = eq if out is None else out & eq
        return out

    @classmethod
    def finite_set(cls, points) -> "ConstructibleSet":
        out = None
        for pt in points:
            s = cls.single_point(pt)
            out = s if out is None else out | s
        return out

    def contains(self, point) -> bool:
        point = tuple(Fraction(x) for x in point)

        def walk(node):
            if node.op == "atom":
                value = node.atom.poly.evaluate(point)
                return (value == 0) if node.atom.is_equation else (value != 0)
            if node.op == "not":
                return not walk(node.children[0])
            if node.op == "and":
                return all(walk(c) for c in node.children)
            return any(walk(c) for c in node.children)

        return walk(self.root)

    def atoms(self):
        out = []

        def walk(node):
            if node.op == "atom":
                out.append(node.atom)
            else:
                for c in node.children:
                    walk(c)

        walk(self.root)
        return out

    def product(self, other: "ConstructibleSet") -> "ConstructibleSet":
        """The product set inside Q^(m+n)."""
        n_total = self.nvars + other.nvars

        def shift(node, offset):
            if node.op == "atom":
                terms = {}
                for e, c in node.atom.poly.terms.items():
                    padded = (0,) * offset + tuple(e) + (0,) * (n_total - offset - len(e))
                    terms[padded] = c
                return Node("atom", atom=Atom(MPoly(n_total, terms), node.atom.is_equation))
            return Node(node.op, tuple(shift(c, offset) for c in node.children), None)

        return ConstructibleSet(
            n_total, Node("and", (shift(self.root, 0), shift(other.root, self.nvars)))
        )


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
        return cls(
            tuple(tuple(Fraction(c) for c in comp) for comp in data["components"]),
            Fraction(data["puncture"]),
            frozenset(Fraction(x) for x in data["excluded"]),
        )


def verify_witness(w: CurveWitness, target: ConstructibleSet) -> bool:
    """Exact certificate check, independent of any search.

    Generic step: each atom composed with the curve is either identically
    zero or not, which fixes a truth value away from finitely many t; the
    boolean tree must evaluate true generically.  Exceptional step: every
    rational root of a non-vanishing composite that is not excluded and not
    the puncture is rechecked pointwise.
    """
    if w.nvars != target.nvars:
        raise DomainError("dimension mismatch")
    curve = [list(comp) for comp in w.components]
    composed = {}
    exceptional = set()
    for atom in target.atoms():
        key = id(atom)
        h = atom.poly.compose_curve(curve)
        composed[key] = poly_trim(h)
        if composed[key]:
            exceptional |= rational_roots(composed[key])

    def generic(node):
        if node.op == "atom":
            vanishes = not composed[id(node.atom)]
            return vanishes if node.atom.is_equation else not vanishes
        if node.op == "not":
            return not generic(node.children[0])
        if node.op == "and":
            return all(generic(c) for c in node.children)
        return any(generic(c) for c in node.children)

    if not generic(target.root):
        return False
    for t in exceptional:
        if t == w.puncture or t in w.excluded:
            continue
        if not target.contains(w.value_at(t)):
            return False
    return True


# ---------------------------------------------------------------------------
# bounded search


def _height_ladder(height: int):
    """Small rationals ordered by height: 0, 1, -1, 2, -2, 1/2, ..."""
    out = [Fraction(0)]
    seen = {Fraction(0)}
    for h in range(1, height + 1):
        for num in range(-h, h + 1):
            for den in range(1, h + 1):
                if max(abs(num), den) != h:
                    continue
                c = Fraction(num, den)
                if c not in seen:
                    seen.add(c)
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
    nvars = target.nvars
    if len(point) != nvars:
        raise DomainError("dimension mismatch")
    if target.contains(point):
        witness = CurveWitness(tuple((x,) for x in point), 0)
        if not verify_witness(witness, target):
            raise RuntimeError(f"the constant curve at {point} fails verification")
        return witness
    ladder = _height_ladder(height_bound)
    tried = 0
    for degree in range(1, degree_bound + 1):
        for coeff_rows in itertools.product(
            itertools.product(ladder, repeat=degree), repeat=nvars
        ):
            if all(all(c == 0 for c in row) for row in coeff_rows):
                continue
            tried += 1
            if tried > SEARCH_CAP:
                raise ResourceGuardError("witness search exceeded its cap")
            comps = tuple(
                (point[i],) + tuple(coeff_rows[i]) for i in range(nvars)
            )
            candidate = CurveWitness(comps, 0, _failing_roots(comps, target))
            if verify_witness(candidate, target):
                return candidate
    return None


def _failing_roots(components, target: ConstructibleSet):
    """Rational roots t != 0 of the atoms composed with the curve at which
    the curve leaves the target; excluding them does not change the
    generic truth value."""
    curve = [list(comp) for comp in components]
    bad = set()
    for atom in target.atoms():
        h = poly_trim(atom.poly.compose_curve(curve))
        if h:
            for t in rational_roots(h):
                if t != 0 and not target.contains(tuple(poly_eval(c, t) for c in curve)):
                    bad.add(t)
    return bad


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
    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise ResourceGuardError("saturation iteration cap exceeded")
        augmented = target
        if certified:
            augmented = target | ConstructibleSet.finite_set(sorted(certified))
        added = 0
        for pt in cloud:
            if pt in certified:
                continue
            w = sat_prime_member(augmented, pt, degree_bound, height_bound)
            if w is not None:
                certified[pt] = w
                added += 1
        if added == 0:
            return certified, rounds

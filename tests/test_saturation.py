import itertools
import random
from fractions import Fraction

import pytest

from cocenter.exactnum import DomainError, ResourceGuardError
from cocenter.saturation import (
    ConstructibleSet,
    CurveWitness,
    MPoly,
    poly_mul,
    product_rule_check,
    rational_roots,
    sat_fixpoint,
    sat_prime_member,
    verify_witness,
)
from tests.oracles import contains_by_terms, mpoly_value


def var(n, i):
    return MPoly.variable(n, i)


def test_rational_roots_exact():
    # (2t - 1)(t + 3)(3t - 2)
    poly = poly_mul(poly_mul([-1, 2], [3, 1]), [-2, 3])
    assert rational_roots(poly) == {Fraction(1, 2), Fraction(-3), Fraction(2, 3)}
    assert rational_roots([0, 0, 1]) == {Fraction(0)}
    assert rational_roots([1, 0, 1]) == set()
    # t^2 (6t - 4)(t/3 + 1): not primitive, fractional, double root at 0
    poly = poly_mul(poly_mul([0, 0, 1], [-4, 6]), [1, Fraction(1, 3)])
    assert rational_roots(poly) == {Fraction(0), Fraction(2, 3), Fraction(-3)}


def test_rational_roots_is_bounded_by_its_guard():
    """Trial division runs up to isqrt|a_0| + isqrt|a_n| candidates, and a
    range past the guard is refused before it starts: 10^7 + 1 candidates
    exceed the default guard of 10^6, 10^5 + 1 do not.  A nonzero constant,
    after the root at zero, needs no search at any guard."""
    with pytest.raises(ResourceGuardError, match="exceeds guard 1000000"):
        rational_roots([10**14 + 1, 0, 1])
    assert rational_roots([10**10 + 1, 0, 1]) == set()
    assert rational_roots([0, 0, 7], guard=0) == {Fraction(0)}
    # t^2 - 4 tries isqrt 4 + isqrt 1 = 3 candidates
    with pytest.raises(ResourceGuardError, match="guard 2"):
        rational_roots([-4, 0, 1], guard=2)
    assert rational_roots([-4, 0, 1], guard=3) == {Fraction(2), Fraction(-2)}


def test_mismatched_variable_counts_are_refused():
    x, y2 = var(1, 0), var(2, 1)
    with pytest.raises(DomainError, match="cannot combine"):
        ConstructibleSet.inequation(x) & ConstructibleSet.equation(y2)
    with pytest.raises(DomainError, match="cannot combine"):
        ConstructibleSet.inequation(x) | ConstructibleSet.equation(y2)
    with pytest.raises(DomainError, match="coordinates"):
        ConstructibleSet.inequation(x).contains((1, 5))
    with pytest.raises(DomainError, match="entries"):
        MPoly(2, {(1,): 3})


def test_constructible_membership():
    x1, x2 = var(2, 0), var(2, 1)
    parabola_off_point = ConstructibleSet.equation(x2 - x1 * x1) & ~ConstructibleSet.equation(
        x1 - MPoly.constant(2, 1)
    )
    assert parabola_off_point.contains((2, 4))
    assert not parabola_off_point.contains((1, 1))
    assert not parabola_off_point.contains((1, 2))


def _random_set(rng, n, depth, leaves):
    """A seeded random set in n variables built with &, |, ~, product and
    finite_set over small integer points; the poly of each leaf built here
    is appended to leaves.  Leaves are products of factors x_i - a with a
    in [-1, 2], so the points of that grid often lie on their zero sets."""
    if depth and n > 1 and rng.random() < 0.25:
        k = rng.randint(1, n - 1)
        return _random_set(rng, k, depth - 1, leaves).product(
            _random_set(rng, n - k, depth - 1, leaves))
    if depth and rng.random() < 0.7:
        op = rng.choice("&|~")
        left = _random_set(rng, n, depth - 1, leaves)
        if op == "~":
            return ~left
        right = _random_set(rng, n, depth - 1, leaves)
        return left & right if op == "&" else left | right
    if rng.random() < 0.2:
        points = [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        return ConstructibleSet.finite_set(points)
    poly = MPoly.constant(n, rng.choice((1, -2, Fraction(1, 3))))
    for _ in range(rng.randint(1, 2)):
        poly = poly * (var(n, rng.randrange(n)) - MPoly.constant(n, rng.randint(-1, 2)))
    leaves.append(poly)
    return rng.choice((ConstructibleSet.equation, ConstructibleSet.inequation))(poly)


def test_membership_matches_the_term_by_term_oracle():
    """`contains`, the generic step at a constant curve with a fold that
    stops early, agrees with evaluating every leaf term by term on seeded
    random trees, at every point of a small grid and at a few fractions,
    many of them on the zero set of a leaf."""
    rng = random.Random(43)
    answers, on_zero_sets = set(), 0
    for _ in range(40):
        n = rng.randint(1, 3)
        leaves = []
        target = _random_set(rng, n, 3, leaves)
        grid = list(itertools.product(range(-1, 3), repeat=n))
        points = grid + [tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(n))
                         for _ in range(4)]
        for point in points:
            got = target.contains(point)
            assert got == contains_by_terms(target, point), (target, point)
            answers.add(got)
            on_zero_sets += any(mpoly_value(poly, point) == 0 for poly in leaves)
    assert answers == {True, False} and on_zero_sets > 100


def test_verify_witness_punctured_line():
    x = var(1, 0)
    target = ConstructibleSet.inequation(x)
    assert verify_witness(CurveWitness(((0, 1),), 0), target)
    # the same curve fails against the single point {0}
    assert not verify_witness(CurveWitness(((0, 1),), 0), ConstructibleSet.equation(x))


def test_verify_witness_axes_complement():
    x1, x2 = var(2, 0), var(2, 1)
    target = ConstructibleSet.inequation(x1 * x2)
    line = CurveWitness(((0, 1), (0, -1)), 0)
    assert verify_witness(line, target)
    # a line inside an axis does not certify anything
    axis_line = CurveWitness(((0, 1), (0, 0)), 0)
    assert not verify_witness(axis_line, target)


def test_verify_witness_respects_excluded_points():
    x = var(1, 0)
    target = ConstructibleSet.inequation(x) & ConstructibleSet.inequation(
        x - MPoly.constant(1, 1)
    )
    bare = CurveWitness(((0, 1),), 0)
    assert not verify_witness(bare, target)  # t = 1 lands outside
    assert verify_witness(CurveWitness(((0, 1),), 0, frozenset([Fraction(1)])), target)


def test_member_search_constant_witness_inside_the_set():
    x = var(1, 0)
    target = ConstructibleSet.inequation(x)
    w = sat_prime_member(target, (5,), 2, 2)
    assert w is not None and w.components == ((Fraction(5),),)


def test_member_search_on_boundary_cases():
    x = var(1, 0)
    cofinite = ConstructibleSet.inequation(x * (x - MPoly.constant(1, 2)))
    for point in ((0,), (2,)):
        w = sat_prime_member(cofinite, point, 1, 2)
        assert w is not None
        assert verify_witness(w, cofinite)
        assert w.certified_point() == tuple(map(Fraction, point))
    finite = ConstructibleSet.equation(x * (x - MPoly.constant(1, 2)))
    assert sat_prime_member(finite, (1,), 2, 2) is None


def test_member_search_axes_complement_degree_one():
    x1, x2 = var(2, 0), var(2, 1)
    target = ConstructibleSet.inequation(x1 * x2)
    w = sat_prime_member(target, (0, 0), 1, 2)
    assert w is not None and verify_witness(w, target)


def test_member_search_parabola_needs_degree_two():
    x1, x2 = var(2, 0), var(2, 1)
    target = ConstructibleSet.equation(x2 - x1 * x1) & ConstructibleSet.inequation(
        x1 - MPoly.constant(2, 1)
    )
    assert sat_prime_member(target, (1, 1), 1, 3) is None
    w = sat_prime_member(target, (1, 1), 2, 2)
    assert w is not None and verify_witness(w, target)
    assert w.certified_point() == (1, 1)


def test_witness_serialization_round_trip():
    w = CurveWitness(((Fraction(1, 2), 1), (0, -2)), Fraction(0), frozenset([Fraction(3, 2)]))
    assert CurveWitness.from_jsonable(w.to_jsonable()) == w


def test_witness_from_jsonable_refuses_malformed_payloads():
    """A string of digits is not a list of coordinates, JSON floats are not
    exact, and a missing object, field or puncture is a DomainError, not a
    KeyError or TypeError; a payload with no excluded points round-trips."""
    w = CurveWitness(((Fraction(-3, 4), 2), (0,)), Fraction(-5, 2))
    assert CurveWitness.from_jsonable(w.to_jsonable()) == w
    for payload in (
        {"components": "12", "puncture": "0", "excluded": []},
        {"components": [[1.5]], "puncture": "0", "excluded": []},
        {},
        [{"components": [["1"]], "puncture": "0", "excluded": []}],
        {"components": [["1"]], "puncture": None, "excluded": []},
    ):
        with pytest.raises(DomainError):
            CurveWitness.from_jsonable(payload)


def test_product_rule():
    x = var(1, 0)
    punctured = ConstructibleSet.inequation(x)
    ok, combined = product_rule_check(punctured, punctured, (0,), (0,))
    assert ok and combined is not None
    # saturated finite factor: the product gains nothing off the factor
    finite = ConstructibleSet.equation(x)
    ok2, _ = product_rule_check(finite, punctured, (1,), (0,))
    assert not ok2
    ok3, _ = product_rule_check(finite, punctured, (0,), (0,))
    assert ok3


def test_product_rule_randomized_cubics():
    rng = random.Random(19)
    x = var(1, 0)
    for _ in range(6):
        a = Fraction(rng.randint(1, 4))
        b = Fraction(rng.randint(-4, -1))
        seta = ConstructibleSet.inequation(x - MPoly.constant(1, a))
        setb = ConstructibleSet.inequation((x - MPoly.constant(1, b)) * x)
        ok, _ = product_rule_check(seta, setb, (a,), (b,), 3, 2)
        assert ok


def test_soundness_every_returned_witness_reverifies():
    rng = random.Random(3)
    x1, x2 = var(2, 0), var(2, 1)
    target = ConstructibleSet.inequation(x1 * x2 - MPoly.constant(2, 1))
    for _ in range(25):
        point = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        w = sat_prime_member(target, point, 1, 1)
        assert w is not None
        assert verify_witness(w, target)
        assert w.certified_point() == point


def test_monotonicity_on_shared_witnesses():
    x = var(1, 0)
    small = ConstructibleSet.inequation(x) & ConstructibleSet.inequation(
        x - MPoly.constant(1, 1)
    )
    big = ConstructibleSet.inequation(x)
    w = sat_prime_member(small, (0,), 1, 2)
    assert w is not None
    assert verify_witness(w, big)  # a witness for the smaller set certifies the bigger


def test_fixpoint_rounds_and_certificates():
    x = var(1, 0)
    doubly = ConstructibleSet.inequation(x) & ConstructibleSet.inequation(
        x - MPoly.constant(1, 1)
    )
    certified, rounds = sat_fixpoint(doubly, [(0,), (1,), (7,)], 1, 2)
    assert set(certified) == {(Fraction(0),), (Fraction(1),), (Fraction(7),)}
    assert rounds == 2
    for point, witness in certified.items():
        assert verify_witness(witness, doubly | ConstructibleSet.finite_set(sorted(certified)))
    saturated = ConstructibleSet.equation(x)
    certified0, rounds0 = sat_fixpoint(saturated, [(0,), (3,)], 2, 2)
    assert set(certified0) == {(Fraction(0),)}
    assert rounds0 == 2


def test_open_dense_complement_100_random_points():
    rng = random.Random(11)
    for n in (2, 3):
        xs = [var(n, i) for i in range(n)]
        poly = xs[0]
        for y in xs[1:]:
            poly = poly * y
        target = ConstructibleSet.inequation(poly - MPoly.constant(n, 1))
        for _ in range(50):
            point = tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n))
            w = sat_prime_member(target, point, 1, 1)
            assert w is not None and verify_witness(w, target)


def test_fixpoint_refuses_more_rounds_than_its_cap(monkeypatch):
    """The doubly punctured line needs two rounds on the cloud {0, 1}: the
    first certifies both points and the second adds nothing.  With the cap
    at one round the iteration is refused."""
    x = var(1, 0)
    doubly = ConstructibleSet.inequation(x) & ConstructibleSet.inequation(
        x - MPoly.constant(1, 1)
    )
    monkeypatch.setattr("cocenter.saturation.MAX_ROUNDS", 1)
    with pytest.raises(ResourceGuardError, match="iteration cap exceeded"):
        sat_fixpoint(doubly, [(0,), (1,)])


def test_witness_search_is_bounded_by_its_guard():
    """Degree 2 at height 2 has 6 + 48 non-constant curves through a point
    of the line, all tried when none certifies it: a guard of 54 lets the
    search end with None, 53 refuses it.  A point of the target needs only
    the constant curve, whatever the guard."""
    finite = ConstructibleSet.equation(var(1, 0))
    assert sat_prime_member(finite, (1,), 2, 2, guard=54) is None
    with pytest.raises(ResourceGuardError, match="guard 53"):
        sat_prime_member(finite, (1,), 2, 2, guard=53)
    assert sat_prime_member(finite, (0,), 2, 2, guard=0) is not None

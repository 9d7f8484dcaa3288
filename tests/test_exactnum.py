import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocenter.exactnum import (
    DomainError,
    RootP,
    p_power_norm_halfpower,
    padic_norm_halfpower,
    padic_valuation,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
nonzero_rationals = rationals.filter(lambda x: x != 0)
small_primes = st.sampled_from([2, 3, 5, 7])


def test_valuation_examples():
    assert padic_valuation(Fraction(3, 4), 2) == -2
    assert padic_valuation(1, 7) == 0
    assert padic_valuation(0, 5) == math.inf


def test_valuation_requires_prime():
    with pytest.raises(DomainError):
        padic_valuation(1, 6)


@given(nonzero_rationals, nonzero_rationals, small_primes)
def test_valuation_multiplicative(x, y, p):
    assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)


def test_norm_halfpower_examples():
    assert padic_norm_halfpower(2, 2, 1) == RootP(0, Fraction(1, 2), 2)
    assert padic_norm_halfpower(1, 3, 11) == 1
    assert padic_norm_halfpower(Fraction(3, 4), 2, 2) == 4


def test_norm_halfpower_rejects_zero():
    with pytest.raises(DomainError):
        padic_norm_halfpower(0, 2, 1)


def test_p_power_halfpower_matches_the_valuation_path():
    """The half-power of a known p-exponent e is |p^e|_p^(k/2), the same
    element of the same Q(sqrt p) as `padic_norm_halfpower` of p^e."""
    for p in (2, 3, 5):
        for e in range(-6, 7):
            for k in (1, 2):
                got = p_power_norm_halfpower(e, p, k)
                want = padic_norm_halfpower(Fraction(p) ** e, p, k)
                assert (got.a, got.b, got.p) == (want.a, want.b, want.p), (p, e, k)


@given(nonzero_rationals, small_primes, st.integers(-4, 4))
def test_norm_halfpower_square(x, p, k):
    # squaring a half power gives the plain norm power
    half = padic_norm_halfpower(x, p, k)
    assert half * half == padic_norm_halfpower(x, p, 2 * k)


root_elements = st.builds(
    lambda a, b: RootP(a, b, 2),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)


@given(root_elements, root_elements, root_elements)
def test_rootp_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(root_elements)
def test_rootp_conjugate_norm(x):
    conj = RootP(x.a, -x.b, x.p)
    assert x * conj == x.a * x.a - 2 * x.b * x.b


@given(root_elements.filter(lambda x: bool(x)))
def test_rootp_inverse(x):
    assert x * x.inverse() == 1


@given(root_elements)
def test_rootp_string_round_trip(x):
    assert RootP.parse(str(x)) == x


def test_rootp_equality_is_componentwise():
    assert RootP(1, 1, 2) != RootP(1, 0, 2)
    assert RootP(Fraction(3, 2), 0, 2) == Fraction(3, 2)
    assert RootP(0, 0, 2) == 0


def test_rootp_mixed_field_results_take_the_irrational_prime():
    """A rational lies in every Q(sqrt p): an operation with one irrational
    operand answers in that operand's field, in both operand orders; two
    irrational operands of different fields are refused."""
    rational, root2 = RootP(1, 0, 3), RootP(0, 1, 2)
    expected = {
        "+": (RootP(1, 1, 2), RootP(1, 1, 2)),
        "-": (RootP(1, -1, 2), RootP(-1, 1, 2)),
        "*": (RootP(0, 1, 2), RootP(0, 1, 2)),
        "/": (RootP(0, Fraction(1, 2), 2), RootP(0, 1, 2)),
    }
    ops = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
           "*": lambda x, y: x * y, "/": lambda x, y: x / y}
    for name, op in ops.items():
        for got, want in zip((op(rational, root2), op(root2, rational)), expected[name]):
            assert got == want, (name, got)
        with pytest.raises(DomainError):
            op(RootP(1, 1, 3), root2)


def _outcome(op, x, y):
    """(a, b, p, hash) of op(x, y) with Fraction components, or the
    exception class it raises."""
    try:
        out = op(x, y)
    except ZeroDivisionError:
        return ZeroDivisionError
    assert type(out) is RootP and type(out.a) is Fraction and type(out.b) is Fraction
    return out.a, out.b, out.p, hash(out)


def test_rootp_rational_operands_match_the_coerced_operand():
    """+, -, * and / with an int or Fraction r, on either side, give what
    the same operation with RootP.rational(r, p) gives, components, prime
    and hash alike: on seeded random a, b and r, on r = 0 and on an int r,
    including zero elements.  The public constructor still refuses a
    composite p, and division by a rational 0 raises ZeroDivisionError."""
    rng = random.Random(24)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)

    def rational():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 30))

    compared = 0
    for trial in range(300):
        p = rng.choice((2, 3, 5, 7))
        x = RootP(0, 0, p) if trial % 25 == 0 else RootP(rational(), rational(), p)
        for r in (rational(), rng.randint(-9, 9), 0, Fraction(0)):
            coerced = RootP.rational(r, p)
            for op in ops:
                assert _outcome(op, x, r) == _outcome(op, x, coerced), (op, x, r)
                assert _outcome(op, r, x) == _outcome(op, coerced, x), (op, r, x)
                compared += 2
    assert compared == 300 * 4 * 4 * 2
    with pytest.raises(DomainError):
        RootP(1, 0, 4)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            RootP(1, 1, 2) / zero

import copy
import itertools
import operator
import random
from fractions import Fraction

import pytest

from cocenter.exactnum import DomainError, ResourceGuardError
from cocenter.groups import BlockParabolic, iwasawa_decompose, iwasawa_int
from cocenter.matrices import (
    FFMatrix,
    PrimeContext,
    QMat,
    block_gln_generators,
    coset_canonical_rep,
    det_int,
    enumerate_gln_fq,
    enumerate_glnzm,
    gln_fq_order,
    gln_generators,
    glnzm_order,
    gln_zp_membership,
    hermite_padic,
    mat_mul,
)
from cocenter.measures import double_coset_measure

from tests.oracles import (
    congruence_equiv,
    det_by_fraction_elimination,
    enumerate_glnzm_by_determinant,
    enumerate_transversal_K0_mod_Km,
    ff_sub,
    hermite_by_fraction_column_ops,
    in_level_subgroup,
    rank_by_minors,
)


def random_invertible(n, rng, denominators=(1, 2, 3)):
    while True:
        m = QMat(
            [
                [Fraction(rng.randint(-6, 6), rng.choice(denominators)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        if m.det() != 0:
            return m


def test_gln_zp_membership_examples():
    assert gln_zp_membership(QMat.identity(2), 2)
    assert not gln_zp_membership(QMat.diagonal([2, 1]), 2)
    assert not gln_zp_membership(QMat([[1, Fraction(1, 2)], [0, 1]]), 2)


def test_congruence_examples():
    ctx = PrimeContext(3, 2)
    g = QMat([[1, 2], [5, 2]])
    assert congruence_equiv(g, g, ctx)
    bumped = g * QMat([[1, 9], [0, 1]])
    assert congruence_equiv(g, bumped, ctx)
    assert not congruence_equiv(QMat.diagonal([3, 1]), QMat.identity(2), ctx)


def test_congruence_is_equivalence_and_right_invariant():
    ctx = PrimeContext(2, 1)
    rng = random.Random(1)
    mats = [random_invertible(2, rng) for _ in range(6)]
    for x in mats:
        assert congruence_equiv(x, x, ctx)
    for x in mats:
        for y in mats:
            assert congruence_equiv(x, y, ctx) == congruence_equiv(y, x, ctx)
            for z in mats:
                if congruence_equiv(x, y, ctx) and congruence_equiv(y, z, ctx):
                    assert congruence_equiv(x, z, ctx)
    # right multiplication by level elements
    k = QMat([[3, 2], [4, 1]])
    assert in_level_subgroup(k, ctx)
    for x in mats:
        assert congruence_equiv(x, x * k, ctx)


def test_det_matches_fraction_elimination_oracle():
    """The Bareiss kernel behind QMat.det against Fraction elimination on
    integral, p-power and mixed denominators, singular matrices and
    matrices whose elimination must swap rows."""
    rng = random.Random(41)
    zeros = nonzeros = swapped = 0
    for n in range(1, 6):
        for denominators in ((1,), (1, 2, 4, 8), (1, 2, 3, 5, 6, 9)):
            for _ in range(12):
                rows = [
                    [Fraction(rng.randint(-7, 7), rng.choice(denominators)) for _ in range(n)]
                    for _ in range(n)
                ]
                # the last row a combination of the others (a zero row when n = 1)
                coeffs = [rng.randint(-2, 2) for _ in rows[:-1]]
                singular = rows[:-1] + [
                    [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
                ]
                # a triangular matrix with its rows permuted: zero leading pivots
                triangular = [[x if j >= i else Fraction(0) for j, x in enumerate(row)]
                              for i, row in enumerate(rows)]
                for i in range(n):
                    triangular[i][i] = triangular[i][i] or Fraction(1)
                permuted = rng.sample(triangular, n)
                if n > 1 and permuted == triangular:
                    permuted = permuted[1:] + permuted[:1]
                swapped += permuted[0][0] == 0
                for case in (rows, singular, permuted):
                    want = det_by_fraction_elimination(case)
                    assert QMat(case).det() == want
                    zeros += want == 0
                    nonzeros += want != 0
                assert det_by_fraction_elimination(singular) == 0
                assert det_by_fraction_elimination(permuted) != 0
    assert zeros and nonzeros and swapped


def test_det_int_matches_fraction_elimination_oracle():
    """`det_int` itself against Fraction elimination for n = 0 to 6, on
    list rows and on tuple rows: random integer matrices, a singular one and
    one with a zero first column at every size, and for every elimination
    depth k < n - 1 a nonsingular one whose leading principal minors are
    nonzero up to order k and zero at order k + 1, so that step k meets a
    zero leading entry (at k = n - 2, the (0, 0) entry of the final 2 x 2).
    The input rows are never changed."""
    rng = random.Random(34)

    def draw(n):
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]

    def leading_minors(rows):
        return [det_by_fraction_elimination([row[:j] for row in rows[:j]])
                for j in range(1, len(rows) + 1)]

    checked = 0
    for n in range(7):
        cases = [draw(n) for _ in range(8)]
        if n:
            # the last row a combination of the others (a zero row when n = 1)
            rows = draw(n)
            coeffs = [rng.randint(-2, 2) for _ in rows[:-1]]
            singular = rows[:-1] + [[sum(c * row[j] for c, row in zip(coeffs, rows))
                                     for j in range(n)]]
            assert det_by_fraction_elimination(singular) == 0
            cases += [singular, [[0] + row[1:] for row in draw(n)]]
        for k in range(n - 1):
            while True:
                # row k agrees with a combination of rows 0 .. k-1 on columns 0 .. k
                rows = draw(n)
                coeffs = [rng.randint(-2, 2) for _ in range(k)]
                rows[k][:k + 1] = [sum(c * row[j] for c, row in zip(coeffs, rows))
                                   for j in range(k + 1)]
                minors = leading_minors(rows)
                if all(minors[:k]) and minors[k] == 0 and minors[-1]:
                    break
            cases.append(rows)
        for rows in cases:
            want = det_by_fraction_elimination(rows)
            for form in (rows, tuple(map(tuple, rows))):
                before = copy.deepcopy(form)
                got = det_int(form)
                assert type(got) is int and got == want, (form, got, want)
                assert form == before
                checked += 1
    assert checked == 2 * (8 * 7 + 2 * 6 + sum(range(6)))


def test_hermite_postconditions():
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(25):
            g = random_invertible(2, rng)
            h, k = hermite_padic(g, p)
            assert h * k == g
            assert gln_zp_membership(k, p)
            for i in range(2):
                for j in range(2):
                    if i > j:
                        assert h[i, j] == 0


def _hermite_cases(n, p, rng):
    """(kind, rows): a Z[1/p] label p^e A, denominators prime to p, mixed
    denominators, an integral matrix of unit determinant, and a singular
    matrix (its last row a combination of the others)."""
    prime_to_p = [d for d in range(1, 12) if d % p]

    def draw(denominators, spread=0):
        return [[Fraction(rng.randint(-9, 9) * p ** rng.randint(0, spread),
                          rng.choice(denominators)) for _ in range(n)] for _ in range(n)]

    label = [[x * Fraction(p) ** rng.randint(-3, 3) for x in row] for row in draw((1,), 2)]
    unit = draw((1,))
    while det_by_fraction_elimination(unit) % p == 0:
        unit = draw((1,))
    rows = draw((1, p, p * p, 7, 3 * p), 1)
    coeffs = [rng.randint(-2, 2) for _ in rows[:-1]]
    singular = rows[:-1] + [[sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]]
    return [("label", label), ("prime to p", draw(prime_to_p, 1)), ("mixed", rows),
            ("unit", unit), ("singular", singular)]


def test_hermite_matches_fraction_column_oracle():
    """hermite_padic equals the Fraction column-operation oracle entry for
    entry, for n = 1..4 and p = 2, 3, 5, on Z[1/p] labels, denominators
    prime to p, mixed denominators and p-integral input of unit
    determinant (where H = 1 and k = g); singular input raises."""
    rng = random.Random(53)
    seen = set()
    for p in (2, 3, 5):
        for n in range(1, 5):
            for _ in range(10):
                for kind, rows in _hermite_cases(n, p, rng):
                    g = QMat(rows)
                    if det_by_fraction_elimination(rows) == 0:
                        with pytest.raises(DomainError):
                            hermite_padic(g, p)
                        with pytest.raises(DomainError):
                            hermite_by_fraction_column_ops(g, p)
                        seen.add("singular")
                        continue
                    h, k = hermite_padic(g, p)
                    want_h, want_k = hermite_by_fraction_column_ops(g, p)
                    assert (h.rows, k.rows) == (want_h.rows, want_k.rows), (kind, g, p)
                    assert all(type(x) is Fraction for x in h.entries() + k.entries())
                    if kind == "unit":
                        assert h == QMat.identity(n) and k == g
                    seen.add(kind)
    assert seen == {"label", "prime to p", "mixed", "unit", "singular"}


def test_lower_iwasawa_split_matches_the_reversed_oracle():
    """The lower orientation reverses rows and columns around the Hermite
    split; both factors equal the reversed oracle's, entry for entry."""
    rng = random.Random(61)
    for p in (2, 3, 5):
        for n in range(1, 5):
            lower = BlockParabolic(n, (1,) * n, "lower")
            for _ in range(6):
                for kind, rows in _hermite_cases(n, p, rng):
                    if det_by_fraction_elimination(rows) == 0:
                        continue
                    g = QMat(rows)
                    q, k = iwasawa_decompose(g, lower, p)
                    want_q, want_k = hermite_by_fraction_column_ops(
                        QMat([row[::-1] for row in rows[::-1]]), p
                    )
                    assert q.rows == tuple(row[::-1] for row in want_q.rows[::-1]), (kind, g)
                    assert k.rows == tuple(row[::-1] for row in want_k.rows[::-1]), (kind, g)
                    assert q * k == g and lower.contains(q)


def test_unit_determinant_split_is_the_identity_and_the_matrix():
    """An integer matrix A with p not dividing det A splits as (1, A)
    through groups.iwasawa_int, equal entry for entry to the Fraction
    column oracle, in both orientations, for n = 2..4 and p = 2, 3, 5."""
    rng = random.Random(71)
    for p in (2, 3, 5):
        for n in range(2, 5):
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(10):
                a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                while det_by_fraction_elimination(a) % p == 0:
                    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                for orientation in ("upper", "lower"):
                    flip = (lambda rows: rows) if orientation == "upper" else (
                        lambda rows: [row[::-1] for row in rows[::-1]])
                    h, k = iwasawa_int(a, BlockParabolic(n, (1,) * n, orientation), p)
                    want_h, want_k = hermite_by_fraction_column_ops(QMat(flip(a)), p)
                    assert (h, k) == (identity, a)
                    assert (h, k) == ([list(r) for r in flip(want_h.rows)],
                                      [list(r) for r in flip(want_k.rows)]), (orientation, a)


def test_products_match_schoolbook_fractions():
    """QMat products, sums and differences against entrywise Fraction
    arithmetic, with mixed denominators and zero entries; every entry of
    the result is a Fraction."""
    rng = random.Random(67)

    def draw(n):
        return [[rng.choice((Fraction(0), Fraction(rng.randint(-9, 9), rng.choice(
            (1, 2, 3, 4, 6, 9, 25))))) for _ in range(n)] for _ in range(n)]

    for n in range(1, 5):
        for _ in range(25):
            a, b = draw(n), draw(n)
            prod = [[sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
                    for i in range(n)]
            for got, want in (
                (QMat(a) * QMat(b), prod),
                (QMat(a) + QMat(b), [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                (QMat(a) - QMat(b), [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
            ):
                assert got.rows == tuple(map(tuple, want))
                assert all(type(x) is Fraction for x in got.entries())
        zero = QMat([[0] * n for _ in range(n)])
        assert zero * QMat(draw(n)) == zero
        with pytest.raises(DomainError):
            QMat.identity(n) * QMat.identity(n + 1)


def test_canonical_rep_idempotent_and_constant_on_cosets():
    ctx = PrimeContext(2, 2)
    rng = random.Random(3)
    for _ in range(15):
        g = random_invertible(2, rng)
        rep = coset_canonical_rep(g, ctx)
        assert congruence_equiv(g, rep, ctx)
        assert coset_canonical_rep(rep, ctx) == rep
        k = QMat([[5, 4], [8, 1]])
        assert in_level_subgroup(k, ctx)
        assert coset_canonical_rep(g * k, ctx) == rep


def test_canonical_rep_checks_the_integrality_of_its_lift(monkeypatch):
    # a Hermite split whose cofactor is not p-integral must not pass
    def broken_split(g, p):
        return QMat.identity(2), QMat.diagonal([Fraction(1, 2), 1])

    monkeypatch.setattr("cocenter.matrices.hermite_padic", broken_split)
    with pytest.raises(RuntimeError):
        coset_canonical_rep(QMat.identity(2), PrimeContext(2, 1))


def test_double_coset_measure_checks_its_coset_count(monkeypatch):
    monkeypatch.setattr(
        "cocenter.measures.glnzm_order", lambda n, p, m: glnzm_order(n, p, m) + 1
    )
    with pytest.raises(RuntimeError):
        double_coset_measure(2, PrimeContext(2, 1), (1, 0))


def test_transversal_sizes():
    assert len(enumerate_transversal_K0_mod_Km(2, PrimeContext(2, 1))) == 6
    assert len(enumerate_transversal_K0_mod_Km(2, PrimeContext(3, 1))) == 48
    assert len(enumerate_transversal_K0_mod_Km(1, PrimeContext(2, 1))) == 1


def test_transversal_complete_and_pairwise_inequivalent():
    ctx = PrimeContext(2, 1)
    transversal = enumerate_transversal_K0_mod_Km(2, ctx)
    for i, a in enumerate(transversal):
        for b in transversal[i + 1 :]:
            assert not congruence_equiv(a, b, ctx)
    rng = random.Random(11)
    for _ in range(10):
        # random integral matrices with unit determinant
        while True:
            g = QMat([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
            if g.det() != 0 and gln_zp_membership(g, 2):
                break
        hits = [t for t in transversal if congruence_equiv(g, t, ctx)]
        assert len(hits) == 1


def test_enumerate_gln_fq_counts():
    assert len(enumerate_gln_fq(2, 2)) == 6
    assert len(enumerate_gln_fq(3, 2)) == 168
    assert len(enumerate_gln_fq(1, 3)) == 2
    assert gln_fq_order(3, 2) == (8 - 1) * (8 - 2) * (8 - 4)


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_gln_fq(3, 3, guard=100)
    with pytest.raises(ResourceGuardError):
        enumerate_transversal_K0_mod_Km(2, PrimeContext(2, 3), guard=10)


def test_ffmatrix_rank_and_inverse():
    m = FFMatrix([[1, 2], [2, 4]], 5)
    assert m.rank() == 1
    g = FFMatrix([[1, 2], [3, 4]], 5)
    assert g.rank() == 2
    assert g * g.inverse() == FFMatrix.identity(2, 5)


def test_ffmatrix_refuses_non_integer_entries():
    """Entries are integers: a Fraction of denominator 1 is read as its
    numerator, and 1/2 or 1.5 is refused rather than truncated to 0 or 1
    (1/2 is 2 in F_3, which no truncation gives)."""
    assert FFMatrix([[Fraction(4, 2), 0], [0, 1]], 3) == FFMatrix([[2, 0], [0, 1]], 3)
    assert FFMatrix([[Fraction(-7), 0], [0, 1]], 3).rows == ((2, 0), (0, 1))
    for bad in (Fraction(1, 2), 1.5):
        with pytest.raises(DomainError, match="is not an integer"):
            FFMatrix([[bad, 0], [0, 1]], 3)


def _random_rows_of_every_rank(n, rng, entry):
    """Square rows of each rank 0..n as a product of n x k and k x n
    factors, then with a zero first column and with rows shuffled, so that
    elimination meets zero leading pivots."""
    out = []
    for k in range(n + 1):
        left = [[entry() for _ in range(k)] for _ in range(n)]
        right = [[entry() for _ in range(n)] for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                for i in range(n)]
        out.append(rows)
        out.append([[0] + row[1:] for row in rows])
        out.append(rng.sample(rows, n))
    return out


def test_ffmatrix_rank_matches_largest_nonzero_minor():
    rng = random.Random(23)
    seen = set()
    for q in (2, 3, 5):
        for n in range(1, 5):
            for _ in range(6):
                for rows in _random_rows_of_every_rank(n, rng, lambda: rng.randrange(q)):
                    want = rank_by_minors(rows, lambda d: d % q)
                    assert FFMatrix(rows, q).rank() == want
                    seen.add((n, want))
    assert all((n, k) in seen for n in range(1, 5) for k in range(n + 1))


def test_inverse_is_two_sided_and_refuses_singular_input():
    rng = random.Random(29)
    for n in range(1, 5):
        for _ in range(6):
            for rows in _random_rows_of_every_rank(
                n, rng, lambda: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
            ):
                g = QMat(rows)
                if det_by_fraction_elimination(rows) == 0:
                    with pytest.raises(DomainError):
                        g.inverse()
                    continue
                assert g * g.inverse() == QMat.identity(n) == g.inverse() * g
            for q in (2, 3, 5):
                for rows in _random_rows_of_every_rank(n, rng, lambda: rng.randrange(q)):
                    g = FFMatrix(rows, q)
                    if det_by_fraction_elimination(rows) % q == 0:
                        with pytest.raises(DomainError):
                            g.inverse()
                        continue
                    one = FFMatrix.identity(n, q)
                    assert g * g.inverse() == one == g.inverse() * g


def test_enumerate_gln_fq_is_the_level_one_enumeration():
    """`enumerate_glnzm`, which picks each row outside the span of the rows
    above it, lists the integer matrices mod p^m of determinant prime to
    p, the determinant taken by Fraction elimination, in lexicographic
    order; at level one `enumerate_gln_fq` lists the same matrices."""
    for n, p, m in ((2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1), (3, 3, 1)):
        want = enumerate_glnzm_by_determinant(n, p, m)
        assert len(want) == glnzm_order(n, p, m)
        assert enumerate_glnzm(n, PrimeContext(p, m)) == want
        if m == 1:
            got = enumerate_gln_fq(n, p)
            assert [g.rows for g in got] == want
            assert all(g == FFMatrix(g.rows, p) for g in got)


def test_ffmatrix_product_and_difference_entrywise():
    rng = random.Random(7)
    for n, q in ((1, 2), (2, 5), (3, 3)):
        for _ in range(20):
            a = [[rng.randrange(-2 * q, 2 * q) for _ in range(n)] for _ in range(n)]
            b = [[rng.randrange(-2 * q, 2 * q) for _ in range(n)] for _ in range(n)]
            prod = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            diff = [[a[i][j] - b[i][j] for j in range(n)] for i in range(n)]
            for got, want in (
                (FFMatrix(a, q) * FFMatrix(b, q), FFMatrix(prod, q)),
                (ff_sub(FFMatrix(a, q), FFMatrix(b, q)), FFMatrix(diff, q)),
            ):
                assert got == want and hash(got) == hash(want)
                assert (got.n, got.q, got.rows) == (want.n, want.q, want.rows)


def test_mat_mul_matches_entrywise_products():
    """`mat_mul` of seeded integer rows, negative entries included, against
    a triple loop: n = 1 to 4, a with 1 to 5 rows, b with 1 to 5 columns,
    and the modulus 0, a prime and prime powers."""
    rng = random.Random(40)
    for n in range(1, 5):
        for modulus in (0, 5, 8, 9, 25):
            for _ in range(6):
                r, c = rng.randint(1, 5), rng.randint(1, 5)
                a = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(r)]
                b = [[rng.randint(-30, 30) for _ in range(c)] for _ in range(n)]
                want = [[0] * c for _ in range(r)]
                for i in range(r):
                    for j in range(c):
                        for k in range(n):
                            want[i][j] += a[i][k] * b[k][j]
                        if modulus:
                            want[i][j] %= modulus
                got = mat_mul(a, tuple(zip(*b)), modulus)
                assert got == tuple(map(tuple, want))
                if modulus:
                    assert all(0 <= x < modulus for row in got for x in row)
                else:
                    assert got == mat_mul(a, tuple(zip(*b)))


def test_ffmatrix_arithmetic_refuses_mixed_shapes():
    a = FFMatrix([[1, 2], [0, 1]], 5)
    for other in (FFMatrix.identity(3, 5), FFMatrix([[1, 1], [0, 1]], 3)):
        with pytest.raises(DomainError):
            a * other
        with pytest.raises(DomainError):
            other * a
        with pytest.raises(DomainError):
            ff_sub(a, other)


def _left_multiplication_closure(n, gens, modulus):
    """Every product of the given integer rows, applied on the left of the
    identity modulo modulus, as row tuples."""
    identity = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        cols = tuple(zip(*frontier.pop()))
        for g in gens:
            y = tuple(tuple(sum(map(operator.mul, row, col)) % modulus for col in cols)
                      for row in g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def test_generators_generate_gln():
    """The identity closed under left multiplication by `gln_generators`
    is all of GL_n(Z/p^k); (1, 2, 3) and (2, 2, 3) have a non-cyclic unit
    group.  On the Levis (2,1), (1,2) and (2,2), `block_gln_generators`
    give the whole block diagonal subgroup."""
    for n, p, k in ((1, 3, 1), (1, 2, 3), (2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 2, 3),
                    (3, 2, 1), (3, 3, 1), (4, 2, 1)):
        reached = _left_multiplication_closure(n, gln_generators(n, p, k), p**k)
        assert reached == set(enumerate_glnzm(n, PrimeContext(p, k))), (n, p, k)
    for blocks in ((2, 1), (1, 2), (2, 2)):
        n = sum(blocks)
        for p, k in ((2, 1), (3, 1), (2, 2)):
            ranges = BlockParabolic(n, blocks).block_ranges
            want = set()
            for parts in itertools.product(*(enumerate_glnzm(b, PrimeContext(p, k))
                                             for b in blocks)):
                rows = [[0] * n for _ in range(n)]
                for (lo, hi), part in zip(ranges, parts):
                    for i in range(lo, hi):
                        rows[i][lo:hi] = part[i - lo]
                want.add(tuple(map(tuple, rows)))
            reached = _left_multiplication_closure(n, block_gln_generators(blocks, p, k), p**k)
            assert reached == want, (blocks, p, k)


"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every comparison is exact (tolerance zero) in Q or Q(sqrt p).  Shared heavy
objects (bases, transversal tables) are session fixtures.  Criterion 8's
second clause is the separation statement the restriction map supports:
the split-torus orbital grid and the unramified character family annihilate
exactly the kernel of normalized restriction to the Levi.  Both families
factor through restriction (characters by adjunction with induction,
orbital integrals by descent), so they cannot see more than restriction
does; the clause checks that they see no less.  The test also names the
three directions of that kernel on the GL_2(Q_2) level basis.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from cocenter.characters import (
    InducedModel,
    UnramifiedCharacter,
    character_pairing,
    induced_character_values,
    trace_induced,
)
from cocenter.exactnum import RootP, padic_valuation
from cocenter.groups import BlockParabolic, compositions, discriminant_square_identity
from cocenter.matrices import PrimeContext, QMat
from cocenter.measures import (
    ParabolicTransversal,
    double_coset_measure,
    label_matrix,
    normalize_on_levi,
    res_normalized,
    res_unnormalized,
)
from cocenter.oracles import constant_term_oracle_gl2
from cocenter.orbital import (
    descent_values,
    gamma_grid,
    joint_kernel_dimension,
    orbital_integral,
    separation_rank,
)
from cocenter.saturation import (
    ConstructibleSet,
    MPoly,
    product_rule_check,
    sat_prime_member,
    verify_witness,
)
from cocenter.unipotent import (
    check_heart_independence,
    count_unipotent_elements,
    heart,
    partitions_of,
)

from tests.oracles import matrix_items, perturbed_reps, restriction_over_transversal

CHARACTER_PARAMS = [
    (Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(1), Fraction(3)),
    (Fraction(1, 2), Fraction(3), Fraction(1)),
    (Fraction(3), Fraction(5), Fraction(1, 7)),
]


def _chars(blocks):
    return [
        UnramifiedCharacter(tuple(blocks), tuple(z[: len(blocks)]))
        for z in CHARACTER_PARAMS
    ]


def report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status} in {elapsed:.1f}s{suffix}")


@pytest.fixture(scope="module")
def gl3_setup(ctx2, unit_gl3, level_basis_gl3):
    return ctx2, unit_gl3, level_basis_gl3


def random_levi_element(parab, rng):
    n = parab.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for lo, hi in parab.block_ranges:
        while True:
            block = [
                [Fraction(rng.randint(-9, 9)) for _ in range(hi - lo)]
                for _ in range(hi - lo)
            ]
            if QMat(block).det() != 0:
                break
        for i in range(hi - lo):
            for j in range(hi - lo):
                rows[lo + i][lo + j] = block[i][j]
    return QMat(rows)


def test_criterion_1_discriminant_square_identity():
    """Exact discriminant square identity, 200 random Levi points per block
    parabolic of GL_2 .. GL_4, all compositions, both orientations."""
    start = time.time()
    rng = random.Random(2024)
    checked = 0
    ok = True
    for n in (2, 3, 4):
        for blocks in compositions(n):
            for orientation in ("upper", "lower"):
                parab = BlockParabolic(n, blocks, orientation)
                for _ in range(200):
                    m = random_levi_element(parab, rng)
                    if not discriminant_square_identity(parab, m):
                        ok = False
                    checked += 1
    elapsed = time.time() - start
    report(1, "discriminant-square-identity", ok, elapsed, f"{checked} points")
    assert ok
    assert elapsed < 5.0


def test_criterion_2_induced_character_identity(ctx2, borel2, transversal_gl2, level_basis_gl2, gl3_setup):
    """Trace of the induced action equals the character pairing of the
    restriction, level basis x four characters, plus the rank-three smoke
    case with the unit measure."""
    start = time.time()
    model = InducedModel(borel2, ctx2, transversal_gl2)
    ok = True
    rows = 0
    for h in level_basis_gl2:
        res_plain = res_unnormalized(h, borel2, transversal_gl2)
        for trace, pairing, trace_n, pairing_n in induced_character_values(
                h, _chars((1, 1)), borel2, model, res_plain):
            ok = ok and trace == pairing and trace_n == pairing_n
            rows += 1
    ctx3, unit3, _ = gl3_setup
    parab3 = BlockParabolic(3, (2, 1), "upper")
    model3 = InducedModel(parab3, ctx3)
    ((trace, pairing, trace_n, pairing_n),) = induced_character_values(
        unit3, [UnramifiedCharacter((2, 1), (Fraction(3), Fraction(1, 2)))], parab3, model3
    )
    ok = ok and trace == pairing and trace_n == pairing_n
    rows += 1
    elapsed = time.time() - start
    report(2, "induced-character-identity", ok, elapsed, f"{rows} identities")
    assert ok
    assert elapsed < 120.0


def test_criterion_3_parabolic_independence(ctx2, borel2, level_basis_gl2, gl3_setup):
    """Normalized restriction through opposite parabolics agrees under every
    character pairing and every orbital pairing on the 25-point grid, for
    the rank-two and rank-three level bases."""
    start = time.time()
    ok = True
    pairings = 0
    # rank two: the Levi is the torus, so equality is literal
    grid2 = gamma_grid(2, 2, (-2, 2))
    assert len(grid2) == 25
    low2 = borel2.opposite()
    for h in level_basis_gl2:
        up = res_normalized(h, borel2)
        lowm = res_normalized(h, low2)
        for chi in _chars((1, 1)):
            ok = ok and character_pairing(chi, up) == character_pairing(chi, lowm)
            pairings += 1
        for gam in grid2:
            ok = ok and orbital_integral(up, gam).value == orbital_integral(lowm, gam).value
            pairings += 1
        ok = ok and up == lowm
        # transversal independence: the defining sum over a perturbed
        # transversal gives the same class
        tv = ParabolicTransversal(borel2, ctx2)
        alt = restriction_over_transversal(h, borel2, perturbed_reps(tv))
        ok = ok and normalize_on_levi(alt, borel2) == up
    ctx3, _, basis3 = gl3_setup
    grid3 = gamma_grid(2, 3, (-2, 2))
    for blocks in ((2, 1), (1, 2), (1, 1, 1)):
        parab = BlockParabolic(3, blocks, "upper")
        chars = _chars(blocks)
        for h in basis3:
            up = res_normalized(h, parab)
            lowm = res_normalized(h, parab.opposite())
            for chi in chars:
                ok = ok and character_pairing(chi, up) == character_pairing(chi, lowm)
                pairings += 1
            for gam in grid3:
                ok = ok and orbital_integral(up, gam).value == orbital_integral(lowm, gam).value
                pairings += 1
    elapsed = time.time() - start
    report(3, "normalized-restriction-parabolic-independence", ok, elapsed,
           f"{pairings} pairings")
    assert ok
    assert elapsed < 300.0


def test_criterion_4_descent(ctx2, borel2, level_basis_gl2):
    """Orbital descent through both parabolics on the basis x grid product,
    with the corrupted normalization failing somewhere."""
    start = time.time()
    grid = gamma_grid(2, 2, (-2, 2))
    ok = True
    mutation_failed_somewhere = False
    checks = 0
    for h in level_basis_gl2:
        sides = [(parab, res_normalized(h, parab)) for parab in (borel2, borel2.opposite())]
        on_g, plain = descent_values(h, grid, sides)
        _, mutated = descent_values(h, grid, sides, mutate_normalization=True)
        for good_side, bad_side in zip(plain, mutated):
            for lhs, (factor, value), (bad_factor, bad_value) in zip(on_g, good_side, bad_side):
                ok = ok and lhs == factor * value
                checks += 1
                if lhs != bad_factor * bad_value:
                    mutation_failed_somewhere = True
    ok = ok and mutation_failed_somewhere
    elapsed = time.time() - start
    report(4, "orbital-descent", ok, elapsed, f"{checks} grid points")
    assert ok
    assert elapsed < 300.0


def test_criterion_5_constant_term_oracle():
    """Normalized restriction of the diagonal double coset indicator equals
    the independent left-coset/direct-integration oracle for p in {2, 3}."""
    start = time.time()
    ok = True
    for p in (2, 3):
        ctx = PrimeContext(p, 1)
        borel = BlockParabolic(2, (1, 1), "upper")
        h = double_coset_measure(2, ctx, (1, 0))
        got = res_normalized(h, borel)
        expected = constant_term_oracle_gl2(ctx, normalized=True)
        ok = ok and got == expected
        got_plain = res_unnormalized(h, borel)
        ok = ok and got_plain == constant_term_oracle_gl2(ctx, normalized=False)
    elapsed = time.time() - start
    report(5, "constant-term-oracle", ok, elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_6_finite_field_suite():
    """Induced class histograms and hearts agree between the two opposite
    parabolics for every Levi and every class, all configured fields; the
    unipotent count of the rank-two groups is q^2."""
    start = time.time()
    ok = True
    cases = 0
    for q in (2, 3, 5):
        ok = ok and count_unipotent_elements(2, q) == q * q
    for n, q in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        for blocks in compositions(n):
            options = [list(partitions_of(b)) for b in blocks]
            for combo in itertools.product(*options):
                good, upper, lower = check_heart_independence(n, blocks, combo, q)
                ok = ok and good and len(heart(upper)) == 1
                cases += 1
    elapsed = time.time() - start
    report(6, "induced-unipotent-classes", ok, elapsed, f"{cases} inductions")
    assert ok
    assert elapsed < 600.0


def test_criterion_7_saturation_suite():
    """Product rule, open dense cover, cofinite/finite boundary behavior;
    every emitted membership re-verified independently of the search."""
    start = time.time()
    ok = True
    x = MPoly.variable(1, 0)
    punctured = ConstructibleSet.inequation(x)
    okp, combined = product_rule_check(punctured, punctured, (0,), (0,))
    ok = ok and okp and combined is not None

    x1, x2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    axes = ConstructibleSet.inequation(x1 * x2)
    w = sat_prime_member(axes, (0, 0), 1, 2)
    ok = ok and w is not None and verify_witness(w, axes)

    rng = random.Random(5)
    y = [MPoly.variable(3, i) for i in range(3)]
    dense = ConstructibleSet.inequation(y[0] * y[1] * y[2] - MPoly.constant(3, 1))
    for _ in range(100):
        point = tuple(Fraction(rng.randint(-7, 7), rng.choice((1, 2))) for _ in range(3))
        w = sat_prime_member(dense, point, 1, 1)
        ok = ok and w is not None and verify_witness(w, dense)
        ok = ok and w.certified_point() == point

    cofinite = ConstructibleSet.inequation(x * (x - MPoly.constant(1, 5)))
    for point in ((0,), (5,)):
        w = sat_prime_member(cofinite, point, 1, 2)
        ok = ok and w is not None and verify_witness(w, cofinite)
    finite = ConstructibleSet.equation(x * (x - MPoly.constant(1, 5)))
    ok = ok and sat_prime_member(finite, (3,), 2, 2) is None
    ok = ok and sat_prime_member(finite, (0,), 2, 2) is not None

    elapsed = time.time() - start
    report(7, "saturation-operator", ok, elapsed)
    assert ok
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def separation_matrices(ctx2, borel2, transversal_gl2, level_basis_gl2):
    grid = gamma_grid(2, 2, (-2, 2))
    chars = [
        UnramifiedCharacter((1, 1), z)
        for z in [(1, 1), (2, 1), (1, 2), (Fraction(1, 2), 3), (3, Fraction(2, 7)), (5, 1)]
    ]
    omat = [[orbital_integral(h, gam).value for gam in grid] for h in level_basis_gl2]
    model = InducedModel(borel2, ctx2, transversal_gl2)
    xmat = [
        [trace_induced(h, chi, model, normalized=True) for chi in chars]
        for h in level_basis_gl2
    ]
    return omat, xmat


def test_criterion_8a_separation_rank_agreement(separation_matrices):
    """The split orbital grid and the unramified character family cut the
    level basis down to the same rank."""
    start = time.time()
    omat, xmat = separation_matrices
    ro, rx = separation_rank(omat), separation_rank(xmat)
    ok = ro == rx
    elapsed = time.time() - start
    report("8a", "separation-rank-agreement", ok, elapsed, f"rank {ro} = {rx}")
    assert ok


def _left_product(coeffs, mat):
    """The row vector coeffs * mat over Q(sqrt p)."""
    return [sum(c * row[j] for c, row in zip(coeffs, mat)) for j in range(len(mat[0]))]


def _orbit_kind(h, p):
    """Name a rank-two orbit indicator by the trace and determinant of its
    representatives (constant on the orbit at level one)."""
    kinds = set()
    for rep, _ in matrix_items(h):
        t, v = rep.trace() % p, padic_valuation(rep.det(), p)
        if v == 0 and t:
            kinds.add("elliptic-mod-p")
        elif v == 0:
            kinds.add("unit" if rep == QMat.identity(2) else "transvection")
        elif v == 1 and not t:
            kinds.add("ramified-elliptic")
        else:
            kinds.add("split")
    assert len(kinds) == 1, kinds
    return kinds.pop()


def test_criterion_8b_no_joint_annihilated_combination(
    separation_matrices, ctx2, borel2, transversal_gl2, level_basis_gl2
):
    """No basis combination is annihilated by both pairing families unless
    its normalized restriction to the Levi vanishes, and conversely.

    The restriction matrix is read off `res_normalized` coset by coset,
    independently of the induced-trace path.  The three kernels (orbital and
    character families jointly, restriction alone, all three stacked) have
    the same dimension, hence coincide.  On the five-orbit GL_2(Q_2) level
    basis that dimension is 5 - 2 = 3: GL_2(F_2) = S_3 contributes three
    classes and the diagonal double coset two, and the restrictions span
    only the unit coset of the torus and the symmetric pair
    [diag(1,2)] + [diag(2,1)].  The kernel is spanned by the class of
    order three (elliptic mod p), the even-trace class of the double coset
    (Eisenstein characteristic polynomial: ramified elliptic, nilpotent
    reduction), and the unit coset minus the transvection class (both
    restrict to 3 [1])."""
    start = time.time()
    omat, xmat = separation_matrices
    restricted = [res_normalized(h, borel2, transversal_gl2) for h in level_basis_gl2]
    columns = sorted({key for r in restricted for key in r.support},
                     key=lambda key: label_matrix(key).entries())
    zero = RootP.rational(0, ctx2.p)
    rmat = [[r.support.get(key, zero) for key in columns]
            for r in restricted]
    dim_families = joint_kernel_dimension([omat, xmat])
    dim_res = joint_kernel_dimension([rmat])
    dim_all = joint_kernel_dimension([omat, xmat, rmat])
    kinds = [_orbit_kind(h, ctx2.p) for h in level_basis_gl2]
    assert sorted(kinds) == sorted(
        ["unit", "transvection", "elliptic-mod-p", "ramified-elliptic", "split"]
    )

    def indicator(*signed):
        coeffs = [0] * len(kinds)
        for sign, kind in signed:
            coeffs[kinds.index(kind)] = sign
        return coeffs

    witnesses = {
        "elliptic-mod-p": indicator((1, "elliptic-mod-p")),
        "ramified-elliptic": indicator((1, "ramified-elliptic")),
        "unit-minus-transvection": indicator((1, "unit"), (-1, "transvection")),
    }
    annihilated = {
        name: all(not x for mat in (omat, xmat, rmat) for x in _left_product(w, mat))
        for name, w in witnesses.items()
    }
    ok = dim_families == dim_res == dim_all == 3 and all(annihilated.values())
    elapsed = time.time() - start
    report("8b", "no-jointly-annihilated-combination", ok, elapsed,
           f"joint kernel = kernel of res, dimensions {dim_families} = {dim_res} = {dim_all}")
    assert dim_families == dim_res == dim_all, (
        f"joint kernel of the orbital grid and character family (dimension "
        f"{dim_families}) differs from the kernel of restriction (dimension "
        f"{dim_res}); their intersection has dimension {dim_all}"
    )
    assert dim_res == 3
    assert all(annihilated.values()), annihilated

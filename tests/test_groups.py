import itertools
import random
from fractions import Fraction

import pytest

from cocenter.exactnum import DomainError
from cocenter.groups import (
    BlockParabolic,
    SubgroupSpec,
    compositions,
    discriminant_delta,
    discriminant_square_identity,
    iwasawa_decompose,
    jordan_type,
    modulus_lambda,
)
from cocenter.matrices import (
    FFMatrix, PrimeContext, QMat, det_int, enumerate_gln_fq, gauss_jordan, gln_zp_membership,
)
from cocenter.measures import Ambient, HeckeMeasure, ad_pullback, unit_measure

from tests.oracles import (
    ChevalleyPoint,
    assemble_from_blocks,
    charpoly,
    chevalley_map,
    det_by_fraction_elimination,
    full_ad_det,
    full_ad_minus_one_det,
    is_regular,
)
from tests.test_matrices import random_invertible


def random_levi_element(parab, rng):
    n = parab.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for lo, hi in parab.block_ranges:
        while True:
            block = [[Fraction(rng.randint(-5, 5)) for _ in range(hi - lo)] for _ in range(hi - lo)]
            if QMat(block).det() != 0:
                break
        for i in range(hi - lo):
            for j in range(hi - lo):
                rows[lo + i][lo + j] = block[i][j]
    return QMat(rows)


def test_chevalley_examples():
    assert chevalley_map(QMat.identity(2)) == ChevalleyPoint((2, 1))
    assert chevalley_map(QMat.diagonal([5, 1])) == ChevalleyPoint((6, 5))


def test_chevalley_conjugation_invariant():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(10):
            g = random_invertible(n, rng)
            x = random_invertible(n, rng)
            assert chevalley_map(x * g * x.inverse()) == chevalley_map(g)


def test_chevalley_rejects_singular():
    with pytest.raises(DomainError):
        chevalley_map(QMat([[1, 1], [1, 1]]))


def test_block_parabolic_refuses_non_int_blocks():
    """Blocks must be ints, not bools, floats or strings: each is refused
    instead of truncated to a composition; ints in a list are kept."""
    for n, blocks in ((3, (1.5, 2.5)), (2, (True, True)), (2, (1, True)), (2, (2.0,)),
                      (2, ("1", "1")), (2, (Fraction(2),))):
        with pytest.raises(DomainError, match="ints"):
            BlockParabolic(n, blocks)
    assert BlockParabolic(3, [2, 1]).blocks == (2, 1)


def test_delta_torus_example():
    torus = SubgroupSpec.torus(2)
    assert discriminant_delta(torus, QMat.diagonal([2, 1])) == Fraction(-1, 2)
    assert discriminant_delta(torus, QMat.diagonal([3, 3])) == 0


def test_torus_is_the_levi_of_the_borel(monkeypatch):
    """The torus spec of GL_n is the Levi spec of its Borel, and its
    discriminant reads the spec's own parabolic: with `BlockParabolic`
    made to raise, the value still matches the full adjoint oracle."""
    for n in (1, 2, 3, 4):
        assert SubgroupSpec.torus(n) == SubgroupSpec.levi(BlockParabolic(n, (1,) * n))
    torus, t = SubgroupSpec.torus(4), QMat.diagonal([2, 3, 5, 7])
    off_diagonal = [(i, j) for i in range(4) for j in range(4) if i != j]

    def refuse(*args):
        raise AssertionError("discriminant_delta built a BlockParabolic")

    monkeypatch.setattr("cocenter.groups.BlockParabolic", refuse)
    assert discriminant_delta(torus, t) == full_ad_minus_one_det(t, off_diagonal)


def test_delta_borel_matches_full_ad_oracle():
    borel = BlockParabolic(2, (1, 1), "upper")
    spec = SubgroupSpec.parabolic(borel)
    rng = random.Random(9)
    for _ in range(20):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        g = QMat.diagonal([a, b])
        got = discriminant_delta(spec, g)
        assert got == Fraction(a, b) - 1
        assert got == full_ad_minus_one_det(g, borel.positions("G/P"))


def _levi_families(parab, rng):
    """Levi elements of parab: rational blocks, integer blocks, scalar
    blocks with two equal scalars, and triangular blocks that share the
    eigenvalue 2."""
    sizes = parab.blocks
    rational = [random_invertible(k, rng, (1, 2, 3, 4)) for k in sizes]
    scalars = [rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-5, 3))) for _ in sizes]
    scalars[-1] = scalars[0]
    scalar = [QMat.diagonal([c] * k) for c, k in zip(scalars, sizes)]
    shared = [
        QMat([[2 if i == j == 0 else rng.randint(1, 4) if j >= i else 0 for j in range(k)]
              for i in range(k)])
        for k in sizes
    ]
    points = [assemble_from_blocks(b, parab) for b in (rational, scalar, shared)]
    return points[:1] + [random_levi_element(parab, rng)] + points[1:]


def _radical_element(parab, rng):
    n = parab.n
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j in parab.positions("U"):
        rows[i][j] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    return QMat(rows)


def test_delta_matches_oracle_on_levi_elements():
    """Every composition of GL_2 .. GL_5, both orientations: the block
    determinant path (diagonal blocks and one Sylvester operator per block
    pair) on Levi elements (rational, integer, scalar and shared-eigenvalue
    blocks), and the same path on non-Levi elements of P, where it reads
    only their diagonal blocks, against full adjoint determinants.  The
    upper and lower parabolics share their Levi, so they share its points."""
    rng = random.Random(47)
    zero_seen = 0
    for n in (2, 3, 4, 5):
        for blocks in compositions(n):
            upper = BlockParabolic(n, blocks, "upper")
            levi = SubgroupSpec.levi(upper)
            points = _levi_families(upper, rng)
            for m in points:
                d_m = discriminant_delta(levi, m)
                assert d_m == full_ad_minus_one_det(m, upper.positions("G/M"))
                zero_seen += d_m == 0
            for parab in (upper, upper.opposite()):
                par = SubgroupSpec.parabolic(parab)
                g = points[0] * _radical_element(parab, rng)
                for x in points + [g]:
                    assert discriminant_delta(par, x) == full_ad_minus_one_det(
                        x, parab.positions("G/P")
                    )
                    assert modulus_lambda(parab, x) == full_ad_det(x, parab.positions("P"))
                if parab.positions("U"):
                    assert not parab.levi_contains(g)
                    with pytest.raises(DomainError):
                        discriminant_delta(levi, g)
        torus = SubgroupSpec.torus(n)
        for entries in (
            [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(n)],
            [Fraction(3, 2)] * 2 + [Fraction(rng.randint(1, 9)) for _ in range(n - 2)],
        ):
            t = QMat.diagonal(entries)
            off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
            assert discriminant_delta(torus, t) == full_ad_minus_one_det(t, off_diagonal)
    assert zero_seen


def test_discriminants_and_modulus_ignore_scalars():
    """Ad(c g) = Ad(g): Delta_P, Delta_M and lambda_P at c g equal their
    values at g and the full adjoint determinants, for seeded rational c of
    both signs, on Levi points whose blocks have different denominators,
    for every composition of GL_2 .. GL_4 in both orientations."""
    rng = random.Random(83)
    for n in (2, 3, 4):
        for blocks in compositions(n):
            upper = BlockParabolic(n, blocks)
            for _ in range(2):
                dens = rng.sample((1, 2, 3, 5, 7), len(blocks))
                m = assemble_from_blocks(
                    [random_invertible(k, rng, (d,)) for k, d in zip(blocks, dens)], upper)
                for sign in (1, -1):
                    c = Fraction(sign * rng.randint(1, 9), rng.randint(1, 9))
                    scaled = m.scale(c)
                    for parab in (upper, upper.opposite()):
                        for spec, outside in ((SubgroupSpec.parabolic(parab), "G/P"),
                                              (SubgroupSpec.levi(parab), "G/M")):
                            assert discriminant_delta(spec, scaled) == discriminant_delta(
                                spec, m) == full_ad_minus_one_det(scaled, parab.positions(outside))
                        assert modulus_lambda(parab, scaled) == modulus_lambda(
                            parab, m) == full_ad_det(scaled, parab.positions("P"))


def test_singular_elements_are_refused_on_every_composition():
    """A singular g in H is refused with "singular matrix" by the
    discriminant of the Levi and of the parabolic, by the modulus and by
    is_regular, on every composition of GL_2 .. GL_4 in both orientations,
    the one-block (n,) included, whichever block is singular; so is a
    diagonal g with a zero entry on the torus."""
    checked = 0
    for n in (2, 3, 4):
        for blocks in compositions(n):
            for singular in range(len(blocks)):
                # the singular block is all ones (rank one), or 0 when it is 1 x 1
                mats = [QMat([[int(k > 1)] * k] * k) if a == singular else QMat.diagonal([2] * k)
                        for a, k in enumerate(blocks)]
                g = assemble_from_blocks(mats, BlockParabolic(n, blocks))
                for orientation in ("upper", "lower"):
                    parab = BlockParabolic(n, blocks, orientation)
                    levi, par = SubgroupSpec.levi(parab), SubgroupSpec.parabolic(parab)
                    for call in (lambda: discriminant_delta(levi, g),
                                 lambda: discriminant_delta(par, g),
                                 lambda: modulus_lambda(parab, g),
                                 lambda: is_regular(levi, g),
                                 lambda: is_regular(par, g)):
                        with pytest.raises(DomainError, match="singular matrix"):
                            call()
                        checked += 1
        with pytest.raises(DomainError, match="singular matrix"):
            discriminant_delta(SubgroupSpec.torus(n), QMat.diagonal([0] + [1] * (n - 1)))
    assert checked == 5 * 2 * (3 + 8 + 20)


def test_elements_of_another_size_are_refused():
    """Every membership entry point refuses a 3 x 3 element on GL_2 and a
    2 x 2 element on GL_3: a size-blind test read the top-left block of
    the larger one and indexed past the rows of the smaller one.  The
    entries are units at p = 2, so no level check refuses them first."""
    ctx = PrimeContext(2, 1)
    for n, g in ((2, QMat.diagonal([3, 5, 7])), (3, QMat.diagonal([3, 5]))):
        parab, ambient = BlockParabolic(n, (n - 1, 1)), Ambient.general_linear(n)
        h = unit_measure(ambient, ctx)
        specs = (SubgroupSpec.levi(parab), SubgroupSpec.parabolic(parab), SubgroupSpec.torus(n))
        calls = [lambda: HeckeMeasure.from_pairs(ambient, ctx, [(g, 1)]),
                 lambda: h.coefficient(g),
                 lambda: modulus_lambda(parab, g),
                 lambda: discriminant_square_identity(parab, g)]
        calls += [lambda spec=spec: discriminant_delta(spec, g) for spec in specs]
        for call in calls:
            with pytest.raises(DomainError, match="not in the"):
                call()
        with pytest.raises(DomainError, match="outside the Levi"):
            ad_pullback(h, g)


def test_charpoly_matches_principal_minors():
    """Berkowitz coefficients against sums of principal minors, and the
    Chevalley coordinates of rational matrices against the same sums."""
    rng = random.Random(53)
    for n in range(1, 6):
        for _ in range(10):
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            chi = charpoly(a)
            assert chi[0] == 1 and len(chi) == n + 1
            assert all(type(c) is int for c in chi)
            for k in range(1, n + 1):
                e_k = sum(
                    det_by_fraction_elimination([[a[i][j] for j in sub] for i in sub])
                    for sub in itertools.combinations(range(n), k)
                )
                assert chi[k] == (-1) ** k * e_k
        g = random_invertible(n, rng, (1, 2, 3, 4))
        minor_sums = [
            sum(
                det_by_fraction_elimination([[g[i, j] for j in sub] for i in sub])
                for sub in itertools.combinations(range(n), k)
            )
            for k in range(1, n + 1)
        ]
        assert chevalley_map(g) == ChevalleyPoint(minor_sums)


def test_modulus_examples_and_oracle():
    borel = BlockParabolic(2, (1, 1), "upper")
    assert modulus_lambda(borel, QMat.diagonal([3, 5])) == Fraction(3, 5)
    u = QMat([[1, 4], [0, 1]])
    assert modulus_lambda(borel, u) == 1
    rng = random.Random(21)
    parab = BlockParabolic(3, (2, 1), "upper")
    for _ in range(8):
        m = random_levi_element(parab, rng)
        assert modulus_lambda(parab, m) == full_ad_det(m, parab.positions("P"))
        # the opposite parabolic inverts the modulus on the shared Levi
        assert modulus_lambda(parab.opposite(), m) == 1 / modulus_lambda(parab, m)


def test_regularity_and_transitivity():
    torus = SubgroupSpec.torus(2)
    assert is_regular(torus, QMat.diagonal([2, 1]))
    assert not is_regular(torus, QMat.identity(2))
    torus = SubgroupSpec.torus(3)
    # Delta_{T,G} = Delta_{T,M} * Delta_{M,G} restricted to the torus
    rng = random.Random(2)
    parab = BlockParabolic(3, (2, 1), "upper")
    levi = SubgroupSpec.levi(parab)
    for _ in range(12):
        t = QMat.diagonal([rng.randint(1, 9) for _ in range(3)])
        lhs = discriminant_delta(torus, t)
        inner = full_ad_minus_one_det(
            t, [(i, j) for i, j in parab.positions("M") if i != j]
        )
        outer = discriminant_delta(levi, t)
        assert lhs == inner * outer


def test_regular_locus_matches_between_levi_and_parabolic():
    rng = random.Random(17)
    parab = BlockParabolic(3, (2, 1), "upper")
    for _ in range(12):
        m = random_levi_element(parab, rng)
        assert is_regular(SubgroupSpec.levi(parab), m) == is_regular(
            SubgroupSpec.parabolic(parab), m
        )


def test_discriminant_square_identity_central_and_generic():
    borel = BlockParabolic(2, (1, 1), "upper")
    assert discriminant_square_identity(borel, QMat.diagonal([4, 4]))
    assert discriminant_square_identity(borel, QMat.diagonal([7, 2]))
    rng = random.Random(31)
    parab = BlockParabolic(3, (2, 1), "upper")
    for _ in range(200):
        m = random_levi_element(parab, rng)
        assert discriminant_square_identity(parab, m)


def test_iwasawa_examples_and_postconditions():
    borel = BlockParabolic(2, (1, 1), "upper")
    g = QMat([[1, 0], [Fraction(1, 2), 1]])
    q, k = iwasawa_decompose(g, borel, 2)
    assert q * k == g and borel.contains(q) and gln_zp_membership(k, 2)
    d = QMat.diagonal([2, 1])
    q, k = iwasawa_decompose(d, borel, 2)
    assert q * k == d and borel.contains(q) and gln_zp_membership(k, 2)
    rng = random.Random(8)
    for n, blocks in ((2, (1, 1)), (3, (2, 1)), (3, (1, 1, 1))):
        for orientation in ("upper", "lower"):
            parab = BlockParabolic(n, blocks, orientation)
            for p in (2, 3):
                for _ in range(10):
                    g = random_invertible(n, rng)
                    q, k = iwasawa_decompose(g, parab, p)
                    assert q * k == g
                    assert parab.contains(q)
                    assert gln_zp_membership(k, p)


def test_jordan_type_examples():
    assert jordan_type(FFMatrix.identity(3, 2)) == (1, 1, 1)
    block = FFMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 2)
    assert jordan_type(block) == (3,)
    # in characteristic 2 the transposition is unipotent
    assert jordan_type(FFMatrix([[0, 1], [1, 0]], 2)) == (2,)
    with pytest.raises(DomainError):
        jordan_type(FFMatrix([[0, 1], [1, 0]], 3))


def test_jordan_type_refusal_stages(monkeypatch):
    """Over F_5 each refusal of jordan_type has an example refused at its
    own stage: diag(1,1,2) by its trace, diag(3,4) (trace 2,
    det(u - 1) = 6 = 1) by the determinant before any rank, and
    diag(1,3,4) (trace 3, det(u - 1) = 0, u - 1 not nilpotent) by the
    rank sequence.  A conjugate of the Jordan form of each type of
    GL_3(F_5) passes all three; for the regular one det(u - 1) is a
    nonzero integer that vanishes only modulo 5."""
    calls = []

    def counting_det(a):
        calls.append("det")
        return det_int(a)

    def counting_rank(*args):
        calls.append("rank")
        return gauss_jordan(*args)

    monkeypatch.setattr("cocenter.groups.det_int", counting_det)
    monkeypatch.setattr("cocenter.groups.gauss_jordan", counting_rank)
    for diagonal, stages in (((1, 1, 2), []),
                             ((3, 4), ["det"]),
                             ((1, 3, 4), ["det", "rank", "rank"])):
        calls.clear()
        n = len(diagonal)
        with pytest.raises(DomainError):
            jordan_type(FFMatrix([[x * (i == j) for j in range(n)]
                                  for i, x in enumerate(diagonal)], 5))
        assert calls == stages, diagonal
    g = FFMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]], 5)
    for superdiagonal, lam in (((0, 0), (1, 1, 1)), ((1, 0), (2, 1)), ((1, 1), (3,))):
        jordan = FFMatrix([[int(i == j) + (superdiagonal[i] if j == i + 1 else 0)
                            for j in range(3)] for i in range(3)], 5)
        u = g * jordan * g.inverse()
        assert jordan_type(u) == lam, lam
    assert det_int([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(u.rows)]) != 0


def test_jordan_type_constant_on_conjugacy_orbits():
    """Rank-sequence classification agrees with orbit enumeration in
    GL_3(F_2): the type is constant on each conjugation orbit and the
    orbits of distinct unipotents with equal type coincide."""
    group = enumerate_gln_fq(3, 2)
    unipotents = []
    for g in group:
        try:
            unipotents.append((g, jordan_type(g)))
        except DomainError:
            continue
    by_type = {}
    for g, lam in unipotents:
        by_type.setdefault(lam, set()).add(g)
    for lam, members in by_type.items():
        seed = next(iter(members))
        orbit = {x * seed * x.inverse() for x in group}
        assert orbit == members


def test_compositions():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]

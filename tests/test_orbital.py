import random
from fractions import Fraction
from math import gcd

import pytest

from cocenter.exactnum import DomainError, ResourceGuardError, RootP, padic_norm_halfpower
from cocenter.groups import (
    BlockParabolic,
    SubgroupSpec,
    compositions,
    discriminant_delta,
)
from cocenter.matrices import PrimeContext, QMat
from cocenter.measures import (
    Ambient,
    HeckeMeasure,
    ad_pullback,
    ad_symmetrized_basis,
    res_normalized,
    unit_measure,
)
from cocenter.orbital import (
    RegularElement,
    _unipotent_test,
    descent_check,
    descent_factor,
    descent_values,
    gamma_grid,
    joint_kernel_dimension,
    orbital_integral,
    orbital_single_coset_gl2,
    separation_rank,
)

from tests.oracles import (
    _ball_volume_gl2,
    _inverse_gl2,
    _meets_unipotent,
    chevalley_map,
    gl2_level_basis,
    grid_scan_orbital_gl2,
    matrix_items,
    orbital_by_balls_gl2,
    orbital_by_fraction_split,
    orbital_by_quotient_sum,
    rank_by_minors,
    realification,
)


def test_regular_element_validation():
    with pytest.raises(DomainError):
        RegularElement((2, 2))
    with pytest.raises(DomainError):
        RegularElement((0, 1))
    g = RegularElement((Fraction(1, 2), 3))
    assert g.valuations(2) == (-1, 0)


def test_unit_orbital_value(unit_gl2):
    """Frozen from the independent lattice count: the adjusted density of
    the unit at diag(1,3) is |Delta| * (two unit-volume orbit pieces)."""
    got = orbital_integral(unit_gl2, RegularElement((1, 3)))
    assert got.value == Fraction(1, 2)
    assert got.orbit_count == 1
    assert "mass 1" in got.normalization


def test_unit_orbital_matches_grid_scan(unit_gl2):
    for gamma in (RegularElement((1, 3)), RegularElement((3, 5)), RegularElement((1, 7))):
        assert orbital_integral(unit_gl2, gamma).value == grid_scan_orbital_gl2(
            unit_gl2, gamma
        )


def test_orbital_zero_on_determinant_mismatch(unit_gl2):
    assert orbital_integral(unit_gl2, RegularElement((2, 3))).value == 0
    assert orbital_integral(unit_gl2, RegularElement((Fraction(1, 2), 3))).value == 0


def test_orbital_matches_grid_scan_on_basis(level_basis_gl2):
    grid = gamma_grid(2, 2, (-1, 1))
    for h in level_basis_gl2:
        for gamma in grid:
            assert orbital_integral(h, gamma).value == grid_scan_orbital_gl2(h, gamma)


def _assert_fast_equals_slow(h, grid):
    """The flagged one-test path equals the quotient sum of the oracle at
    every grid point; returns how many values are nonzero."""
    assert h.biinvariant
    nonzero = 0
    for gamma in grid:
        fast = orbital_integral(h, gamma).value
        assert fast == orbital_by_quotient_sum(h, gamma), (h, gamma.entries)
        nonzero += fast != 0
    return nonzero


def test_fast_path_equals_quotient_sum(ctx2, level_basis_gl2):
    """On G, and on the Levi restrictions, which carry the flag: GL_2 at
    p = 2 and 3 through both Borels, and the K_0 orbit indicators of
    GL_3(Q_2) through (2, 1) and (1, 2) in both orientations."""
    for h in level_basis_gl2:
        _assert_fast_equals_slow(h, gamma_grid(2, 2, (-1, 1))[::4])
    for p in (2, 3):
        ctx = PrimeContext(p, 1)
        for h in gl2_level_basis(ctx):
            for orientation in ("upper", "lower"):
                r = res_normalized(h, BlockParabolic(2, (1, 1), orientation))
                _assert_fast_equals_slow(r, gamma_grid(p, 2, (-1, 1))[::2])
    unit3 = unit_measure(Ambient.general_linear(3), ctx2)
    nonzero = 0
    for h in ad_symmetrized_basis([rep for rep, _ in unit3.items()], ctx2):
        for blocks in ((2, 1), (1, 2)):
            for orientation in ("upper", "lower"):
                r = res_normalized(h, BlockParabolic(3, blocks, orientation))
                nonzero += _assert_fast_equals_slow(r, gamma_grid(2, 3, (-1, 1)))
    assert nonzero > 0


def test_label_test_matches_the_ball_oracle_gl2():
    """The label test equals one ball volume per coset on the GL_2 level
    bases at (p, m) = (2, 1), (3, 1) and (2, 2), on the default grid."""
    for p, m in ((2, 1), (3, 1), (2, 2)):
        ctx = PrimeContext(p, m)
        for h in gl2_level_basis(ctx):
            for gamma in gamma_grid(p, 2):
                assert orbital_integral(h, gamma).value == orbital_by_balls_gl2(h, gamma), (
                    p, m, gamma.entries)


def _signed_ratio_grid(p, n, rng):
    """25 seeded regular diagonals (+-u_i / w_i) p^(v_i), u_i and w_i
    units below 40, (v_1, v_2) running over [-2, 2]^2 and the other v_i
    drawn from [-2, 2]: numerators and denominators other than 1, of both
    signs, with numerators that carry p."""
    units = [u for u in range(1, 40) if u % p]
    points = []
    for v1 in range(-2, 3):
        for v2 in range(-2, 3):
            while True:
                vals = (v1, v2) + tuple(rng.randint(-2, 2) for _ in range(n - 2))
                entries = tuple(Fraction(rng.choice((-1, 1)) * rng.choice(units), rng.choice(units))
                                * Fraction(p) ** v for v in vals)
                if len(set(entries)) == n:
                    points.append(RegularElement(entries))
                    break
    return points


def test_label_test_matches_the_valuation_oracle(level_basis_gl3):
    """The label test that `orbital_integral` builds once per gamma, one
    remainder per diagonal entry, equals the two-valuation oracle
    `_meets_unipotent` on every label of the level bases of GL_2(Q_2),
    GL_2(Q_3) and GL_2(Q_2) at m = 2 and of the K_0 and diag(2,1,1) orbit
    indicators of GL_3(Q_2), and of their restrictions through every block
    parabolic in both orientations, at every point of `gamma_grid` and of a
    seeded grid of signed unit ratios times p^v, v in [-2, 2].  Labels pass
    at points whose numerators carry p, so the divisor's p^(v_p(u_i)) is
    exercised."""
    rng = random.Random(45)
    cases = [(PrimeContext(p, m), gl2_level_basis(PrimeContext(p, m)), 2)
             for p, m in ((2, 1), (3, 1), (2, 2))]
    cases.append((PrimeContext(2, 1), level_basis_gl3, 3))
    compared = passed_with_p = 0
    for ctx, basis, n in cases:
        measures = list(basis)
        for blocks in compositions(n):
            if len(blocks) > 1:
                for orientation in ("upper", "lower"):
                    parab = BlockParabolic(n, blocks, orientation)
                    measures += [res_normalized(h, parab) for h in basis]
        labels = {label for h in measures for label in h.support}
        for gamma in gamma_grid(ctx.p, n) + _signed_ratio_grid(ctx.p, n, rng):
            ratios = [g.as_integer_ratio() for g in gamma.entries]
            meets = _unipotent_test(ratios, ctx)
            p_in_numerator = any(u % ctx.p == 0 for u, _ in ratios)
            for label in labels:
                got = meets(label)
                assert got == _meets_unipotent(label, ratios, ctx), (ctx, gamma.entries, label)
                compared += 1
                passed_with_p += got and p_in_numerator
    # 50 points per case; 108 labels pass where a numerator carries p
    assert (compared, passed_with_p) == (99_600, 108)


def test_gl3_orbital_formula_and_descent(level_basis_gl3):
    """GL_3(Q_2): the label test against the Fraction-split oracle on the
    K_0 and diag(2,1,1) orbit indicators, the values at diag(1,3,5) of a
    brute-force integration over a grid of U, and descent through all six
    block parabolics, which a corrupted normalization breaks.  The oracle's
    grid points include diag(2, 3, 5), where gamma^-1 x has p-adic
    fractions above the diagonal on passing labels."""
    grid = gamma_grid(2, 3)
    for h in level_basis_gl3:
        for gamma in grid[2::3]:
            assert orbital_integral(h, gamma).value == orbital_by_fraction_split(h, gamma), (
                h, gamma.entries)
    k0_basis = level_basis_gl3[:6]
    frozen = [Fraction(105, 16), 0, Fraction(21, 8), 0, 0, Fraction(21, 16)]
    gamma = RegularElement((1, 3, 5))
    assert [orbital_integral(h, gamma).value for h in k0_basis] == frozen
    checks, caught = 0, False
    for blocks in ((2, 1), (1, 2), (1, 1, 1)):
        for orientation in ("upper", "lower"):
            parab = BlockParabolic(3, blocks, orientation)
            for h in k0_basis:
                rm = res_normalized(h, parab)
                for gamma in grid:
                    ok, lhs, rhs = descent_check(h, gamma, parab, rm)
                    assert ok, (blocks, orientation, gamma.entries, str(lhs), str(rhs))
                    checks += 1
                    caught |= not descent_check(h, gamma, parab, rm, True)[0]
    assert checks == 900 and caught


def _off_grid_points(p, n, rng, count):
    """Seeded regular diagonals off `gamma_grid`: entries (u / w) p^v with
    w > 1 prime to p, u prime to p and to w and v in {-1, 0, 1}, so some
    numerators are divisible by p, and in every other point one entry
    moved to another plus p^k times a p-adic unit, 1 <= k <= 4, so that
    pair is congruent modulo p^k."""
    dens = [w for w in range(2, 12) if w % p]
    grid = {gamma.entries for gamma in gamma_grid(p, n)}

    def entry():
        w = rng.choice(dens)
        u = rng.choice([u for u in range(1, 6 * p) if u % p and gcd(u, w) == 1])
        return Fraction(u, w) * Fraction(p) ** rng.choice((-1, 0, 0, 0, 1, 1))

    points = []
    while len(points) < count:
        entries = [entry() for _ in range(n)]
        if len(points) % 2 == 0:
            i, j = rng.sample(range(n), 2)
            entries[j] = entries[i] + Fraction(p) ** rng.randint(1, 4) * Fraction(
                rng.choice(dens), rng.choice(dens))
        if len(set(entries)) == n and 0 not in entries and tuple(entries) not in grid:
            points.append(RegularElement(tuple(entries)))
    return points


def test_orbital_off_the_grid_matches_the_fraction_split_oracle(level_basis_gl3):
    """The integer root valuations and label test against the Fraction-split
    oracle, whose constants come from full adjoint determinants, at seeded
    points away from `gamma_grid`: denominators prime to p, numerators
    divisible by p and pairs of entries congruent modulo p^k.  On the GL_2
    level bases at p = 2 and 3, on G and through both Borels, and on the
    GL_3(Q_2) level basis through (2, 1) and (1, 2) in both orientations.
    Each measure is also checked translated by the central p^-1 at
    p^-1 gamma, where every denominator is divisible by p.  Every Levi
    meets nonzero values, translated or not."""
    rng = random.Random(3203)
    cases = []
    for p in (2, 3):
        basis = gl2_level_basis(PrimeContext(p, 1))
        borels = [BlockParabolic(2, (1, 1), o) for o in ("upper", "lower")]
        measures = basis + [res_normalized(h, q) for h in basis for q in borels]
        cases.append((measures, _off_grid_points(p, 2, rng, 12)))
    parabs = [BlockParabolic(3, b, o) for b in ((2, 1), (1, 2)) for o in ("upper", "lower")]
    measures = [res_normalized(h, q) for h in level_basis_gl3 for q in parabs]
    cases.append((measures, _off_grid_points(2, 3, rng, 12)))
    for measures, points in cases:
        p, n = measures[0].ctx.p, measures[0].ambient.n
        z = QMat.diagonal([Fraction(1, p)] * n)
        nonzero = {}
        for m in measures:
            zm = HeckeMeasure.from_pairs(m.ambient, m.ctx, [(z * rep, c) for rep, c in matrix_items(m)],
                                         biinvariant=True)
            for gamma in points:
                zgamma = RegularElement(tuple(x / p for x in gamma.entries))
                for translated, mm, g in ((False, m, gamma), (True, zm, zgamma)):
                    got = orbital_integral(mm, g).value
                    assert got == orbital_by_fraction_split(mm, g), (mm, g.entries)
                    key = (m.ambient, translated)
                    nonzero[key] = nonzero.get(key, 0) + (got != 0)
        assert len(nonzero) == 4 and all(nonzero.values()), (p, n, nonzero)


def test_descent_check_refuses_a_restriction_to_another_levi(ctx2):
    """A Borel restriction handed to the descent check of P(2,1) is
    refused, not reported as a failed identity."""
    unit3 = unit_measure(Ambient.general_linear(3), ctx2)
    p21 = BlockParabolic(3, (2, 1), "upper")
    borel_res = res_normalized(unit3, BlockParabolic(3, (1, 1, 1), "upper"))
    gamma = RegularElement((1, 3, 5))
    assert descent_check(unit3, gamma, p21, res_normalized(unit3, p21))[0]
    with pytest.raises(DomainError, match="Levi"):
        descent_check(unit3, gamma, p21, borel_res)


def test_descent_values_is_descent_check_at_each_point(ctx2, borel2, level_basis_gl2,
                                                      level_basis_gl3):
    """`descent_values` agrees with `descent_check` at every point of the
    GL_2(Q_2) level basis x `gamma_grid(2, 2)` through both Borels, and of
    the GL_3(Q_2) level basis x `gamma_grid(2, 3)` through P(2,1) and its
    opposite; the identity holds at each, the mutated normalization fails
    somewhere, and a restriction to another Levi is refused in any side."""
    p21 = BlockParabolic(3, (2, 1), "upper")
    caught = False
    for basis, parab in ((level_basis_gl2, borel2), (level_basis_gl3, p21)):
        grid = gamma_grid(2, parab.n)
        for h in basis:
            sides = [(q, res_normalized(h, q)) for q in (parab, parab.opposite())]
            for mutate in (False, True):
                on_g, per_side = descent_values(h, grid, sides, mutate)
                for (q, rm), values in zip(sides, per_side):
                    assert len(values) == len(on_g) == len(grid)
                    for gamma, lhs, (factor, value) in zip(grid, on_g, values):
                        ok, want_lhs, want_rhs = descent_check(h, gamma, q, rm, mutate)
                        assert (lhs, factor * value) == (want_lhs, want_rhs), gamma.entries
                        assert ok == (lhs == factor * value) and (ok or mutate)
                        caught |= not ok
    assert caught
    unit3 = unit_measure(Ambient.general_linear(3), ctx2)
    good = res_normalized(unit3, p21)
    borel_res = res_normalized(unit3, BlockParabolic(3, (1, 1, 1), "upper"))
    gamma = [RegularElement((1, 3, 5))]
    (lhs,), per_side = descent_values(unit3, gamma, [(p21, good), (p21.opposite(), good)])
    assert [lhs == factor * value for ((factor, value),) in per_side] == [True, True]
    for sides in ([(p21, borel_res), (p21, good)], [(p21, good), (p21, borel_res)]):
        with pytest.raises(DomainError, match="Levi"):
            descent_values(unit3, gamma, sides)


def test_unflagged_measures_are_refused(ctx2, borel2, unit_gl2):
    """An orbital integral or a descent check of a measure without the
    invariance flag is refused, on G and on a (2,1) Levi, both as h and as
    its restriction; the flagged measures pass."""
    plain = HeckeMeasure(unit_gl2.ambient, ctx2, unit_gl2.support)
    gamma = RegularElement((1, 3))
    rm = res_normalized(unit_gl2, borel2)
    assert descent_check(unit_gl2, gamma, borel2, rm)[0]
    p21 = BlockParabolic(3, (2, 1), "upper")
    unit3 = unit_measure(Ambient.general_linear(3), ctx2)
    rm3 = res_normalized(unit3, p21)
    plain3 = HeckeMeasure(unit3.ambient, ctx2, unit3.support)
    plain_m = HeckeMeasure(rm3.ambient, ctx2, rm3.support)
    gamma3 = RegularElement((1, 3, 5))
    assert descent_check(unit3, gamma3, p21, rm3)[0]
    refused = (
        lambda: orbital_integral(plain, gamma),
        lambda: descent_check(plain, gamma, borel2, rm),
        lambda: orbital_integral(plain_m, gamma3),
        lambda: orbital_integral(plain3, gamma3),
        lambda: descent_check(plain3, gamma3, p21, rm3),
        lambda: descent_check(unit3, gamma3, p21, plain_m),
    )
    for call in refused:
        with pytest.raises(DomainError, match="flagged"):
            call()


def test_descent_factor_is_the_levi_discriminant_norm():
    """|Delta_{M,G}(gamma)|^(k/2) read off gamma's diagonal equals the norm
    of `discriminant_delta` on the Levi, k = 1 and 2, for every block
    parabolic of GL_2 to GL_4 in both orientations: on the gamma grids and
    on seeded points with non-unit entries, some pairs of them congruent
    modulo a high power of p."""
    rng = random.Random(29)
    checked = 0
    for p in (2, 3):
        units = [u for u in (1, 5, 7, 11, 13) if u % p]
        for n in (2, 3, 4):
            points = gamma_grid(p, n) if n < 4 else []
            while len(points) < 40:
                entries = [Fraction(rng.choice(units), rng.choice(units))
                           * Fraction(p) ** rng.randint(-2, 2) for _ in range(n)]
                entries[1] = entries[0] * (1 + Fraction(p) ** rng.randint(1, 4))
                if len(set(entries)) == n:
                    points.append(RegularElement(tuple(entries)))
            for blocks in compositions(n):
                for orientation in ("upper", "lower"):
                    parab = BlockParabolic(n, blocks, orientation)
                    for gamma in points:
                        g = QMat.diagonal(gamma.entries)
                        delta = discriminant_delta(SubgroupSpec.levi(parab), g)
                        for k, mutate in ((1, False), (2, True)):
                            assert descent_factor(gamma, parab, p, mutate) == padic_norm_halfpower(
                                delta, p, k), (p, blocks, orientation, gamma.entries, k)
                            checked += 1
    assert checked == 2 * 40 * 2 * 2 * (2 + 4 + 8)


def test_orbital_conjugation_invariance(level_basis_gl2):
    k = QMat([[1, 1], [0, 1]])
    w = QMat([[0, 1], [1, 0]])
    for h in level_basis_gl2:
        for gamma in (RegularElement((1, 3)), RegularElement((2, 1))):
            base = orbital_integral(h, gamma).value
            assert orbital_integral(ad_pullback(h, k), gamma).value == base
            assert orbital_integral(ad_pullback(h, w), gamma).value == base


def test_weyl_symmetry(level_basis_gl2):
    a, b = Fraction(3), Fraction(10)
    for h in level_basis_gl2:
        assert (
            orbital_integral(h, RegularElement((a, b))).value
            == orbital_integral(h, RegularElement((b, a))).value
        )


def test_support_locality(ctx2, level_basis_gl2):
    """Vanishing whenever the conjugation invariants of gamma avoid the
    invariant windows of every support coset."""
    for h in level_basis_gl2:
        dets = {padic_det_valuation(rep) for rep, _ in matrix_items(h)}
        for gamma in gamma_grid(2, 2, (-2, 2)):
            gdet = sum(gamma.valuations(2))
            if gdet not in dets:
                assert orbital_integral(h, gamma).value == 0


def padic_det_valuation(rep):
    from cocenter.exactnum import padic_valuation

    return padic_valuation(rep.det(), 2)


def test_stable_orbital_collapses(level_basis_gl2):
    """A split regular class of GL_n is a single rational orbit, so the
    orbital integral is already the stable one."""
    gamma = RegularElement((1, 3))
    for h in level_basis_gl2:
        assert orbital_integral(h, gamma).orbit_count == 1


def test_single_rational_orbit_fact():
    """Matrices over Q with the characteristic polynomial of a split
    regular gamma are conjugate to it over Q: rational eigenvectors give
    the conjugator directly."""
    gamma = QMat.diagonal([1, 3])
    target = chevalley_map(gamma)
    found = 0
    for a in range(-4, 9):
        d = 4 - a
        need = a * d - 3  # b * c
        for b in range(-6, 7):
            if b == 0 or need % b:
                continue
            x = QMat([[a, b], [need // b, d]])
            if chevalley_map_or_none(x) != target:
                continue
            found += 1
            conj = eigenvector_conjugator(x, (Fraction(1), Fraction(3)))
            assert conj.inverse() * x * conj == gamma
    assert found > 20


def chevalley_map_or_none(x):
    try:
        return chevalley_map(x)
    except DomainError:
        return None


def eigenvector_conjugator(x, eigenvalues):
    cols = []
    for lam in eigenvalues:
        shifted = x - QMat.identity(2).scale(lam)
        a, b = shifted[0, 0], shifted[0, 1]
        if a == 0 and b == 0:
            a, b = shifted[1, 0], shifted[1, 1]
        cols.append((b, -a))
    return QMat([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])


def test_descent_both_orientations(ctx2, borel2, level_basis_gl2):
    grid = gamma_grid(2, 2, (-1, 1))
    low = borel2.opposite()
    mutation_caught = False
    for h in level_basis_gl2:
        for parab in (borel2, low):
            rm = res_normalized(h, parab)
            for gamma in grid:
                ok, lhs, rhs = descent_check(h, gamma, parab, rm)
                assert ok, (parab.orientation, gamma.entries, str(lhs), str(rhs))
                bad, _, _ = descent_check(h, gamma, parab, rm, mutate_normalization=True)
                if not bad:
                    mutation_caught = True
    assert mutation_caught


def test_levi_orbital_on_gl3_blocks():
    """Orbital integrals on a (2,1) Levi factor through the blocks, by the
    quotient-sum oracle, which takes an unflagged coset measure."""
    ctx = PrimeContext(2, 1)
    parab = BlockParabolic(3, (2, 1), "upper")
    levi = Ambient.levi(parab)
    m_rep = QMat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    h = HeckeMeasure.delta(levi, ctx, m_rep)
    gamma = RegularElement((1, 3, 5))
    got = orbital_by_quotient_sum(h, gamma)
    block = QMat([[1, 1], [0, 1]])
    expected = orbital_single_coset_gl2(block, (Fraction(1), Fraction(3)), ctx)
    g1, g2 = Fraction(1), Fraction(3)
    from cocenter.exactnum import padic_valuation

    jac = Fraction(2) ** (-padic_valuation((g1 / g2 - 1) * (g2 / g1 - 1), 2))
    assert got == expected * jac
    # third eigenvalue in the wrong unit class kills the integral
    gamma_off = RegularElement((1, 3, 2))
    assert orbital_by_quotient_sum(h, gamma_off) == 0


def test_guard_reaches_the_conjugation_quotient(monkeypatch, ctx2, borel2, unit_gl2):
    """The quotient sum of a GL_2 coset runs over GL_2(Z/2), of order 6, at
    level 1; a smaller guard refuses it on every call, on a coset of G and
    on the GL_2 block of a (2,1) Levi coset, since no quotient or value is
    kept between calls.  A flagged measure takes one label test per coset
    and enumerates nothing, in the orbital integral and in descent_check."""
    gamma = RegularElement((1, 3))
    value = orbital_integral(unit_gl2, gamma).value
    assert orbital_by_quotient_sum(unit_gl2, gamma) == value
    assert orbital_by_quotient_sum(unit_gl2, gamma, guard=6) == value
    one = orbital_single_coset_gl2(QMat.identity(2), gamma.entries, ctx2)
    for _ in range(2):
        assert orbital_single_coset_gl2(QMat.identity(2), gamma.entries, ctx2, guard=6) == one
        with pytest.raises(ResourceGuardError):
            orbital_single_coset_gl2(QMat.identity(2), gamma.entries, ctx2, guard=5)
    block, sub = QMat([[1, 1], [0, 1]]), (Fraction(1), Fraction(3))
    orbital_single_coset_gl2(block, sub, ctx2, guard=6)
    with pytest.raises(ResourceGuardError):
        orbital_single_coset_gl2(block, sub, ctx2, guard=5)
    # the flagged path enumerates nothing
    rm = res_normalized(unit_gl2, borel2)

    def refuse(*args):
        raise AssertionError("the flagged path enumerated a quotient")

    monkeypatch.setattr("cocenter.orbital.enumerate_glnzm", refuse)
    assert orbital_integral(unit_gl2, gamma).value == value
    assert descent_check(unit_gl2, gamma, borel2, rm)[0]


def test_ball_volume_refuses_a_singular_inverse(monkeypatch, ctx2):
    """A y^-1 with zero first column leaves the unipotent entry free; the
    mod-p check rules that out first, so valuations are forced high here."""
    monkeypatch.setattr("tests.oracles.padic_valuation", lambda x, p: 1)
    with pytest.raises(RuntimeError):
        _ball_volume_gl2(QMat([[0, 1], [0, 1]]), (Fraction(1), Fraction(3)), ctx2)


def test_adjugate_inverse_matches_gauss_jordan():
    """The 2 x 2 adjugate inverse behind the ball volumes equals
    QMat.inverse, and refuses singular input as it does."""
    rng = random.Random(71)
    for _ in range(200):
        y = QMat([[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 9))) for _ in range(2)]
                  for _ in range(2)])
        if y.det() == 0:
            for invert in (_inverse_gl2, QMat.inverse):
                with pytest.raises(DomainError):
                    invert(y)
            continue
        assert _inverse_gl2(y).rows == y.inverse().rows
    with pytest.raises(DomainError):
        _inverse_gl2(QMat([[1, 2], [2, 4]]))


def test_vanishing_on_window_persists_under_refinement(level_basis_gl2):
    """Density restatement: when the orbital integrals vanish on a whole
    valuation window of the grid, they vanish at every refinement point of
    that window (other unit multipliers), since the restricted density is
    locally constant."""
    refinement_units = [
        (Fraction(1), Fraction(5)),
        (Fraction(3), Fraction(7)),
        (Fraction(1, 3), Fraction(5)),
        (Fraction(7), Fraction(1, 5)),
    ]
    for h in level_basis_gl2:
        for v1 in range(-1, 2):
            for v2 in range(-1, 2):
                base = RegularElement((Fraction(2) ** v1, 3 * Fraction(2) ** v2))
                if orbital_integral(h, base).value != 0:
                    continue
                for u1, u2 in refinement_units:
                    refined = RegularElement((u1 * Fraction(2) ** v1, u2 * Fraction(2) ** v2))
                    assert orbital_integral(h, refined).value == 0


def test_separation_rank_basics(unit_gl2, level_basis_gl2):
    grid = gamma_grid(2, 2, (-1, 1))
    row = [[orbital_integral(unit_gl2, g).value for g in grid]]
    assert separation_rank(row) == 1
    double = [row[0], [x * 2 for x in row[0]]]
    assert separation_rank(double) == 1
    omat = [[orbital_integral(h, g).value for g in grid] for h in level_basis_gl2]
    assert separation_rank(omat) == 2
    assert joint_kernel_dimension([omat]) == len(level_basis_gl2) - 2


def test_separation_rank_is_half_the_rank_of_the_realification():
    """Over Q(sqrt p) against the rational realification, whose rank is
    read off minors: random rows, a row combining the others with
    Q(sqrt p) coefficients, and a zero first column."""
    rng = random.Random(31)
    seen = set()
    for p in (2, 3):
        zero = RootP.rational(0, p)
        for nrows in range(1, 4):
            for ncols in range(1, 4):
                for _ in range(4):
                    rows = [
                        [RootP(rng.randint(-3, 3), rng.randint(-2, 2), p) for _ in range(ncols)]
                        for _ in range(nrows)
                    ]
                    coeffs = [RootP(rng.randint(-2, 2), rng.randint(-2, 2), p) for _ in rows[:-1]]
                    combined = [sum((c * row[j] for c, row in zip(coeffs, rows)), zero)
                                for j in range(ncols)]
                    for case in (rows, rows[:-1] + [combined], [[zero] + r[1:] for r in rows]):
                        got = separation_rank(case)
                        assert 2 * got == rank_by_minors(realification(case, p))
                        seen.add((nrows, ncols, got))
    assert separation_rank([]) == 0
    assert {(1, 3, 0), (3, 3, 2), (3, 3, 3)} <= seen

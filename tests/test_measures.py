import json
import random
import time
from fractions import Fraction
from itertools import accumulate, permutations, product
from operator import mul

import pytest

from cocenter.characters import InducedModel, trace_measure
from cocenter.exactnum import DomainError, LevelError, ResourceGuardError
from cocenter.groups import BlockParabolic, compositions, iwasawa_decompose
from cocenter.matrices import (
    FFMatrix, PrimeContext, QMat, block_gln_generators, coset_canonical_rep, enumerate_gln_fq,
    enumerate_glnzm, gln_generators, glnzm_order,
)
from cocenter.measures import (
    Ambient,
    HeckeMeasure,
    ParabolicTransversal,
    ad_orbits,
    ad_pullback,
    ad_symmetrized_basis,
    canonical_rep,
    coset_meets_parabolic,
    double_coset_labels,
    double_coset_measure,
    hermite_reps_with_divisors,
    is_ad_invariant,
    label_matrix,
    levi_measure,
    measure_from_jsonable,
    measure_to_jsonable,
    normalize_on_levi,
    parabolic_double_coset_count,
    res_normalized,
    res_unnormalized,
    unit_measure,
)
from cocenter.oracles import constant_term_oracle_gl2
from cocenter.orbital import RegularElement, orbital_integral

from tests.oracles import (
    ad_orbits_by_all_conjugators,
    ad_orbits_by_qmat_closure,
    ad_pullback_by_qmat,
    canonical_rep_by_blocks,
    double_coset_measure_by_from_pairs,
    gl2_level_basis,
    hermite_forms_by_smith_filter,
    k0_quotient_generators,
    levi_generators,
    levi_project,
    matrix_items,
    meets_parabolic_oracle_integral,
    normalize_by_modulus_lambda,
    orbital_by_quotient_sum,
    perturbed_reps,
    restriction_by_qmat_split,
    restriction_over_transversal,
    trace_measure_by_qmat_products,
    unit_measure_by_from_pairs,
)


def test_unit_measure_shapes(ctx2, unit_gl2):
    assert len(unit_gl2) == 6
    assert unit_gl2.total_mass() == 1
    assert all(c == Fraction(1, 6) for _, c in unit_gl2.items())
    u1 = unit_measure(Ambient.general_linear(1), ctx2)
    assert len(u1) == 1 and u1.total_mass() == 1


def test_ad_pullback_examples(ctx2, unit_gl2):
    assert ad_pullback(unit_gl2, QMat.identity(2)) == unit_gl2
    km = QMat([[3, 2], [2, 1]])  # in K_1 for p = 2
    assert ad_pullback(unit_gl2, km) == unit_gl2
    rng = random.Random(4)
    h = double_coset_measure(2, ctx2, (1, 0))
    for _ in range(5):
        while True:
            k = QMat([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            if k.det() != 0 and k.det().numerator % 2 and all(
                x.denominator == 1 for x in k.entries()
            ):
                break
        assert ad_pullback(h, k).total_mass() == h.total_mass()
    with pytest.raises(LevelError):
        ad_pullback(unit_gl2, QMat.diagonal([2, 1]))


def test_coset_meets_parabolic_examples(ctx2, borel2):
    ident = label_matrix(canonical_rep(Ambient.general_linear(2), QMat.identity(2), ctx2))
    found = coset_meets_parabolic(ident, borel2, ctx2)
    assert found is not None and borel2.contains(found)
    diag = label_matrix(canonical_rep(Ambient.general_linear(2), QMat.diagonal([2, 1]), ctx2))
    assert coset_meets_parabolic(diag, borel2, ctx2) is not None
    lower = label_matrix(canonical_rep(Ambient.general_linear(2), QMat([[1, 0], [1, 1]]), ctx2))
    assert coset_meets_parabolic(lower, borel2, ctx2) is None
    # permutation coset misses the Borel at level one
    w = label_matrix(canonical_rep(Ambient.general_linear(2), QMat([[0, 1], [1, 0]]), ctx2))
    assert coset_meets_parabolic(w, borel2, ctx2) is None


def test_coset_meets_agrees_with_exhaustive_scan(ctx2, borel2, unit_gl2):
    for rep, _ in matrix_items(unit_gl2):
        fast = coset_meets_parabolic(rep, borel2, ctx2)
        slow = meets_parabolic_oracle_integral(rep, borel2, ctx2)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert borel2.contains(fast)


def test_restrict_and_pushforward_unit(ctx2, borel2, unit_gl2):
    # K_0 cosets meeting B biject with the mod 2 Borel: |B(F_2)| = 2
    meeting = [rep for rep, _ in matrix_items(unit_gl2)
               if coset_meets_parabolic(rep, borel2, ctx2) is not None]
    assert len(meeting) == 2
    # |P\G/K_1| = 3 terms, each unit_T / 3
    assert res_unnormalized(unit_gl2, borel2) == unit_measure(Ambient.levi(borel2), ctx2)
    # the radical coset meets B and projects to the identity coset of M
    found = coset_meets_parabolic(QMat([[1, 1], [0, 1]]), borel2, ctx2)
    assert found is not None and borel2.contains(found)
    on_m = HeckeMeasure.delta(Ambient.levi(borel2), ctx2, levi_project(borel2, found))
    assert on_m.coefficient(QMat.identity(2)) == 1


def test_coset_invariants_raise_instead_of_asserting(monkeypatch, ctx2, borel2):
    """The invariants of the orbit-cover proof of ParabolicTransversal and
    of ad_orbits raise RuntimeError, so that python -O keeps them."""
    full = enumerate_glnzm(2, ctx2)
    # the zero matrix is block triangular, so it joins every orbit
    with monkeypatch.context() as patch:
        patch.setattr("cocenter.measures.enumerate_glnzm",
                      lambda n, ctx, guard: full + [((0, 0), (0, 0))])
        with pytest.raises(RuntimeError, match="overlap"):
            ParabolicTransversal(borel2, ctx2)
    # a repeated element is counted twice but covered once
    with monkeypatch.context() as patch:
        patch.setattr("cocenter.measures.enumerate_glnzm", lambda n, ctx, guard: full + full[:1])
        with pytest.raises(RuntimeError, match="cover"):
            ParabolicTransversal(borel2, ctx2)
    # one transvection of GL_2(F_2) without the other two of its class
    with pytest.raises(RuntimeError, match="out of the given cosets"):
        ad_orbits([canonical_rep(Ambient.general_linear(2), QMat([[1, 1], [0, 1]]), ctx2)], ctx2)


def test_transversal_counts_and_cover(ctx2, borel2, transversal_gl2):
    assert len(transversal_gl2) == 3
    p31 = BlockParabolic(3, (2, 1), "upper")
    assert len(ParabolicTransversal(p31, ctx2)) == 7
    p3_borel = BlockParabolic(3, (1, 1, 1), "upper")
    assert len(ParabolicTransversal(p3_borel, ctx2)) == 21


def test_res_unit_is_levi_unit(ctx2, borel2, unit_gl2, transversal_gl2):
    assert res_unnormalized(unit_gl2, borel2, transversal_gl2) == unit_measure(
        Ambient.levi(borel2), ctx2
    )
    assert res_normalized(unit_gl2, borel2, transversal_gl2) == unit_measure(
        Ambient.levi(borel2), ctx2
    )


def test_res_zero_measure(ctx2, borel2, transversal_gl2):
    zero = HeckeMeasure(Ambient.general_linear(2), ctx2, {}, biinvariant=True)
    assert len(res_unnormalized(zero, borel2, transversal_gl2)) == 0


def test_res_of_elliptic_orbit_is_empty(ctx2, borel2, level_basis_gl2):
    """Orbit measures on cosets with no conjugate meeting the parabolic
    restrict to the empty measure, not an error.  At level one over Q_2
    there are two: the order-three class in K_0, elliptic mod p
    (irreducible reduction of the characteristic polynomial), and the
    even-trace class of the diagonal double coset, ramified elliptic
    (Eisenstein characteristic polynomial, nilpotent reduction)."""
    empties = [
        h for h in level_basis_gl2
        if len(res_unnormalized(h, borel2)) == 0 and len(h) > 0
    ]
    assert len(empties) == 2  # order-3 classes in K_0; nilpotent-mod-2 cosets


def test_res_requires_invariance(ctx2, borel2, unit_gl2):
    h = HeckeMeasure(unit_gl2.ambient, ctx2, unit_gl2.support, biinvariant=False)
    with pytest.raises(Exception):
        res_unnormalized(h, borel2)


def test_res_diagonal_double_coset_matches_oracle():
    """Unnormalized and normalized restriction of the diag(p,1) double coset
    against the direct-integration oracle, p in {2, 3, 5} at level 1 and
    levels 2 and 3 at p = 2, level 2 at p = 3."""
    for p, m in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)):
        ctx = PrimeContext(p, m)
        borel = BlockParabolic(2, (1, 1), "upper")
        h = double_coset_measure(2, ctx, (1, 0))
        assert res_unnormalized(h, borel) == constant_term_oracle_gl2(ctx, False)
        assert res_normalized(h, borel) == constant_term_oracle_gl2(ctx, True)


def test_constant_term_oracle_inverts_each_rep_once(monkeypatch):
    """The oracle inverts each of the p + 1 coset reps once for its
    pairwise certificate and once for the fiber volumes, not once per
    torus point: at most 2(p + 1) inverses at p = 3."""
    calls = []
    inverse = QMat.inverse
    monkeypatch.setattr(QMat, "inverse", lambda g: calls.append(g) or inverse(g))
    constant_term_oracle_gl2(PrimeContext(3, 1))
    assert 0 < len(calls) <= 2 * (3 + 1)


def test_res_normalized_equal_through_opposite_parabolics(ctx2, borel2, level_basis_gl2):
    """The Levi here is the torus, which is abelian, so the restriction is
    an honest measure and parabolic independence is literal equality."""
    low = borel2.opposite()
    for h in level_basis_gl2:
        up_m = res_normalized(h, borel2)
        low_m = res_normalized(h, low)
        assert up_m == low_m


def test_res_unnormalized_depends_on_parabolic(ctx2, borel2):
    h = double_coset_measure(2, ctx2, (1, 0))
    assert res_unnormalized(h, borel2) != res_unnormalized(h, borel2.opposite())


def test_mass_bookkeeping_against_trace_route(ctx2, borel2, transversal_gl2, level_basis_gl2):
    """Total restricted mass recomputed through an independent code path:
    the trace of the measure acting on the induced module of the trivial
    character equals the pairing of the trivial character with the
    restriction, which is exactly the restricted mass."""
    from cocenter.characters import InducedModel, UnramifiedCharacter, trace_induced

    model = InducedModel(borel2, ctx2, transversal_gl2)
    trivial = UnramifiedCharacter((1, 1), (1, 1))
    for h in level_basis_gl2:
        got = res_unnormalized(h, borel2, transversal_gl2).total_mass()
        assert got == trace_induced(h, trivial, model)
    # the restricted-mass to input-mass ratio is NOT constant: the orbit
    # measure of mod-p elliptic cosets restricts to zero
    hearts = {str(res_unnormalized(h, borel2, transversal_gl2).total_mass() / h.total_mass())
              for h in level_basis_gl2}
    assert len(hearts) > 1


def _assert_res_matches_oracle(h, parab, reps):
    """Key for key against the transversal sum, and in the same support
    order as the QMat split of each coset."""
    plain = restriction_over_transversal(h, parab, reps)
    got = res_unnormalized(h, parab)
    assert (got.ambient, got.support, got.biinvariant) == (plain.ambient, plain.support, True)
    assert list(got.items()) == list(restriction_by_qmat_split(h, parab).items())
    assert res_normalized(h, parab) == normalize_on_levi(plain, parab)


def test_res_matches_transversal_oracle():
    """The one-step restriction equals the conjugate-restrict-push sum over
    a transversal of P\\G/K_m, original and perturbed, on the GL_2 level
    bases and the diagonal double coset for p in {2, 3}, both Borels."""
    for p in (2, 3):
        ctx = PrimeContext(p, 1)
        measures = gl2_level_basis(ctx) + [double_coset_measure(2, ctx, (1, 0))]
        for parab in (BlockParabolic(2, (1, 1), "upper"), BlockParabolic(2, (1, 1), "lower")):
            tv = ParabolicTransversal(parab, ctx)
            assert parabolic_double_coset_count(parab, ctx) == len(tv)
            for reps in (tv.reps, perturbed_reps(tv)):
                for h in measures:
                    _assert_res_matches_oracle(h, parab, reps)
    ctx4 = PrimeContext(2, 2)
    borel = BlockParabolic(2, (1, 1), "upper")
    tv = ParabolicTransversal(borel, ctx4)
    # P^1(Z/4) has p^(m-1) (p + 1) = 6 points
    assert parabolic_double_coset_count(borel, ctx4) == len(tv) == 6
    _assert_res_matches_oracle(unit_measure(Ambient.general_linear(2), ctx4), borel, tv.reps)


def test_res_matches_transversal_oracle_gl3(ctx2):
    """The same comparison for the six K_0 orbit indicators of GL_3(Q_2)
    through every block parabolic of GL_3, both orientations."""
    unit3 = unit_measure(Ambient.general_linear(3), ctx2)
    basis = ad_symmetrized_basis([rep for rep, _ in unit3.items()], ctx2)
    assert len(basis) == 6
    for blocks in compositions(3):
        if len(blocks) == 1:
            continue
        for orientation in ("upper", "lower"):
            parab = BlockParabolic(3, blocks, orientation)
            tv = ParabolicTransversal(parab, ctx2)
            assert parabolic_double_coset_count(parab, ctx2) == len(tv)
            for h in basis:
                _assert_res_matches_oracle(h, parab, tv.reps)


def _levi_elements(ambient, ctx):
    """M(Z/p^m) for the Levi M of the ambient as block diagonal integer
    rows, built block by block from `enumerate_glnzm` with a guard of
    5 * 10^4 per block."""
    n, levi = ambient.n, ambient.parab
    out = []
    for parts in product(*[enumerate_glnzm(k, ctx, 5 * 10**4) for k in levi.blocks]):
        rows = [[0] * n for _ in range(n)]
        for (lo, _), part in zip(levi.block_ranges, parts):
            for i, row in enumerate(part):
                rows[lo + i][lo:lo + len(row)] = row
        out.append(tuple(map(tuple, rows)))
    return out


def _orbit_count(parab, elements, modulus):
    """The number of orbits of the elements that lie in P acting on all the
    elements by left multiplication mod the modulus, by sweeping them;
    every orbit is checked to be free and new."""
    sub = [q for q in elements if parab.vanishes(q, "G/P")]
    seen, orbits = set(), 0
    for g in elements:
        if g in seen:
            continue
        cols = tuple(zip(*g))
        orbit = {tuple([tuple([sum(map(mul, row, col)) % modulus for col in cols]) for row in q])
                 for q in sub}
        assert len(orbit) == len(sub) and not orbit & seen
        seen |= orbit
        orbits += 1
    assert len(seen) == len(elements)
    return orbits


def test_double_coset_count_on_a_levi_is_the_orbit_count():
    """|(P meet M)\\M/(M meet K_m)| equals the brute-force count of the
    (P meet M)(Z/p^m)-orbits on M(Z/p^m) for M = G, (2, 1) and (1, 2) in
    GL_3 and (2, 2) and (3, 1) in GL_4, every P refining M in both
    orientations, at p = 2, 3 with m = 1 and at p = 2 with m = 2 where the
    guard allows (no GL_3(Z/4) block): 80 counts.  On G the count does not
    depend on passing the ambient."""
    ambients = [Ambient.general_linear(3)] + [
        Ambient.levi(BlockParabolic(sum(blocks), blocks))
        for blocks in ((2, 1), (1, 2), (2, 2), (3, 1))]
    checked = 0
    for ctx in (PrimeContext(2, 1), PrimeContext(3, 1), PrimeContext(2, 2)):
        for ambient in ambients:
            try:
                elements = _levi_elements(ambient, ctx)
            except ResourceGuardError:
                assert ctx.m == 2 and 3 in ambient.parab.blocks
                continue
            n, ends = ambient.n, set(accumulate(ambient.parab.blocks))
            for blocks in compositions(n):
                if not ends <= set(accumulate(blocks)):
                    continue
                for orientation in ("upper", "lower"):
                    parab = BlockParabolic(n, blocks, orientation)
                    want = _orbit_count(parab, elements, ctx.modulus)
                    assert parabolic_double_coset_count(parab, ctx, ambient) == want, parab
                    if ambient.is_group:
                        assert parabolic_double_coset_count(parab, ctx) == want
                    checked += 1
    assert checked == 80


def test_integer_restriction_on_level_two_and_denominators():
    """The same comparison where labels are not K_0 labels: the GL_2(Q_2)
    level basis at m = 2, the central translates p^-1 h of the GL_2 level
    bases at p = 2, 3 (labels x = A / p, so p^e = p), and the K_0 orbit of
    [[1, 1/2], [0, 1]] plus the unit measure.  There two integer Levi
    labels, (diag(2, 2), 2) and (1, 1), name the identity coset, and their
    coefficients must merge."""
    borel = BlockParabolic(2, (1, 1), "upper")
    ctx4 = PrimeContext(2, 2)
    cases = [(ctx4, gl2_level_basis(ctx4))]
    for p in (2, 3):
        ctx = PrimeContext(p, 1)
        center = QMat.diagonal([Fraction(1, p)] * 2)
        translate = [(h, [(center * rep, c) for rep, c in matrix_items(h)])
                     for h in gl2_level_basis(ctx)]
        cases.append((ctx, [HeckeMeasure.from_pairs(h.ambient, ctx, pairs, True)
                            for h, pairs in translate]))
    ctx2 = PrimeContext(2, 1)
    x = canonical_rep(Ambient.general_linear(2), QMat([[1, Fraction(1, 2)], [0, 1]]), ctx2)
    orbit = ad_symmetrized_basis(ad_orbits_by_all_conjugators([x], ctx2)[0], ctx2)[0]
    merged = orbit + unit_measure(Ambient.general_linear(2), ctx2)
    cases.append((ctx2, [orbit, merged]))
    for ctx, measures in cases:
        for parab in (borel, borel.opposite()):
            reps = ParabolicTransversal(parab, ctx).reps
            for h in measures:
                _assert_res_matches_oracle(h, parab, reps)
    identity = QMat.identity(2)
    assert res_unnormalized(orbit, borel).coefficient(identity) == 6
    assert res_unnormalized(merged, borel).coefficient(identity) == 7


def test_restriction_splits_no_qmat(monkeypatch, ctx2, level_basis_gl2):
    """Restriction canonicalizes on integer labels only: with the QMat
    split, the QMat canonicalization, `coset_meets_parabolic` and
    `from_pairs` made to raise, `res_normalized` still returns the
    oracle's answer."""
    borel = BlockParabolic(2, (1, 1), "upper")
    basis = level_basis_gl2 + [double_coset_measure(2, ctx2, (1, 0))]
    parabs = (borel, borel.opposite())
    want = [normalize_on_levi(restriction_by_qmat_split(h, parab), parab)
            for parab in parabs for h in basis]

    def refuse(*args, **kwargs):
        raise AssertionError("restriction called a QMat path")

    for target in ("cocenter.matrices.coset_canonical_rep",
                   "cocenter.groups.iwasawa_decompose", "cocenter.measures.iwasawa_decompose",
                   "cocenter.measures.canonical_rep", "cocenter.measures.coset_meets_parabolic",
                   "cocenter.measures.HeckeMeasure.from_pairs"):
        monkeypatch.setattr(target, refuse)
    got = [res_normalized(h, parab) for parab in parabs for h in basis]
    assert got == want


def test_support_labels_are_split_once(monkeypatch, ctx2):
    """No support key is a QMat, and no label is split again: with
    `iwasawa_mod`, the split that labels a QMat, made to raise, the
    GL_2(Q_2) and GL_3(Q_2) level bases are built, and their orbits,
    restrictions through every block parabolic and induced traces are
    taken, and all match the QMat oracles.  The traces on GL_3, whose
    oracle is slow, run on the K_0 orbits through the upper (2, 1) and
    the lower (1, 2) parabolic."""
    def refuse(*args, **kwargs):
        raise AssertionError("a support label was split again")

    parabs = {n: [BlockParabolic(n, blocks, orientation) for blocks in compositions(n)
                  if len(blocks) > 1 for orientation in ("upper", "lower")] for n in (2, 3)}
    with monkeypatch.context() as patch:
        for target in ("cocenter.groups.iwasawa_mod", "cocenter.measures.iwasawa_mod",
                       "cocenter.characters.iwasawa_mod"):
            patch.setattr(target, refuse)
        labels = {n: [unit_labels(n, ctx2), double_coset_labels(n, ctx2, (1,) + (0,) * (n - 1))]
                  for n in (2, 3)}
        orbits = {n: [ad_orbits(x, ctx2) for x in labels[n]] for n in (2, 3)}
        bases = {n: [h for x in labels[n] for h in ad_symmetrized_basis(x, ctx2)] for n in (2, 3)}
        restricted = {parab: [res_unnormalized(h, parab) for h in bases[n]]
                      for n in (2, 3) for parab in parabs[n]}
        traced = []
        for parab, basis in [(p, bases[2]) for p in parabs[2]] + [
                (BlockParabolic(3, (2, 1)), bases[3][:6]),
                (BlockParabolic(3, (1, 2), "lower"), bases[3][:6])]:
            model = InducedModel(parab, ctx2)
            traced += [(h, trace_measure(h, model), model) for h in basis]
    measures = [h for n in (2, 3) for h in bases[n]] + [r for rs in restricted.values() for r in rs]
    measures += [t for _, t, _ in traced]
    assert all(type(x) is tuple and len(x) == 3 for h in measures for x in h.support)
    for n in (2, 3):
        assert orbits[n] == [ad_orbits_by_qmat_closure(x, ctx2) for x in labels[n]]
        for parab in parabs[n]:
            assert restricted[parab] == [restriction_by_qmat_split(h, parab) for h in bases[n]]
    for h, got, model in traced:
        assert got == trace_measure_by_qmat_products(h, model), model.parab


def test_levi_label_divides_p_out_of_the_point():
    """A Levi point (y, p^e) with p dividing p^e and every entry of H(y)
    gets the label `canonical_rep` gives y / p^e, its mass merges with
    that of the same coset given in lowest terms, and the measure holding
    it round-trips byte for byte through `measure_to_jsonable` and
    `measure_from_jsonable`."""
    cases = [
        (PrimeContext(2, 1), BlockParabolic(2, (1, 1)), ((2, 0), (0, 2)), 2, ((1, 0), (0, 1)), 1),
        (PrimeContext(2, 2), BlockParabolic(2, (1, 1)), ((8, 0), (0, 12)), 4, ((2, 0), (0, 3)), 1),
        (PrimeContext(3, 1), BlockParabolic(3, (2, 1)), ((9, 3, 0), (0, 9, 0), (0, 0, 3)), 9,
         ((3, 1, 0), (0, 3, 0), (0, 0, 1)), 3),
    ]
    for ctx, parab, y, pe, low, low_pe in cases:
        on_m = Ambient.levi(parab)
        h = levi_measure(parab, ctx, [((y, pe), 1), ((low, low_pe), 2)])
        (label,) = h.support
        assert label == canonical_rep(on_m, QMat.over(y, pe), ctx)
        assert label == canonical_rep(on_m, QMat.over(low, low_pe), ctx)
        assert label[0] < pe and h.coefficient(QMat.over(y, pe)) == 3
        blob = json.dumps(measure_to_jsonable(h), sort_keys=True)
        back = measure_from_jsonable(json.loads(blob))
        assert back == h and json.dumps(measure_to_jsonable(back), sort_keys=True) == blob


def test_restriction_refuses_a_parabolic_of_another_size(ctx2, unit_gl2, unit_gl3):
    """A measure on GL_2 through a parabolic of GL_3 is refused up front,
    also when it is zero, and so is its trace through a GL_3 model.  So is
    a measure on the Levi M of (2, 1) through (1, 2), in either orientation,
    whose blocks do not refine M's, and the count and twist of that pair."""
    borel3 = BlockParabolic(3, (1, 1, 1), "upper")
    zero = HeckeMeasure(unit_gl2.ambient, ctx2, {}, biinvariant=True)
    model3 = InducedModel(borel3, ctx2)
    for h in (zero, unit_gl2):
        with pytest.raises(DomainError, match="GL_2"):
            res_unnormalized(h, borel3)
        with pytest.raises(DomainError, match="GL_2"):
            trace_measure(h, model3)
    on_m = res_unnormalized(unit_gl3, BlockParabolic(3, (2, 1)))
    zero_m = HeckeMeasure(on_m.ambient, ctx2, {}, biinvariant=True)
    assert len(on_m) > 0
    for orientation in ("upper", "lower"):
        across = BlockParabolic(3, (1, 2), orientation)
        for h in (zero_m, on_m):
            for res in (res_unnormalized, res_normalized):
                with pytest.raises(DomainError, match="do not refine"):
                    res(h, across)
        with pytest.raises(DomainError, match="do not refine"):
            parabolic_double_coset_count(across, ctx2, on_m.ambient)
        h_across = res_unnormalized(unit_gl3, across)
        with pytest.raises(DomainError, match="do not refine"):
            normalize_on_levi(h_across, across, on_m.ambient)


def test_normalization_refuses_a_measure_on_another_levi(ctx2):
    """The |lambda_P|^(1/2) twist of P(2,1) applied to a Borel restriction
    would twist by the wrong modulus; it is refused."""
    unit3 = unit_measure(Ambient.general_linear(3), ctx2)
    borel3 = BlockParabolic(3, (1, 1, 1), "upper")
    plain = res_unnormalized(unit3, borel3)
    # the opposite Borel has the same Levi
    assert normalize_on_levi(plain, borel3.opposite()) == res_normalized(unit3, borel3)
    with pytest.raises(DomainError, match="Levi"):
        normalize_on_levi(plain, BlockParabolic(3, (2, 1), "upper"))


def test_res_transversal_independence(ctx2, borel2, transversal_gl2, level_basis_gl2):
    """On an abelian Levi the restriction is a measure, so changing the
    transversal must not change the defining sum at all.  A transversal
    handed to res must belong to its parabolic and level."""
    alt = perturbed_reps(transversal_gl2)
    for h in level_basis_gl2:
        assert restriction_over_transversal(
            h, borel2, transversal_gl2.reps
        ) == restriction_over_transversal(h, borel2, alt)
    h = level_basis_gl2[0]
    with pytest.raises(DomainError):
        res_unnormalized(h, borel2.opposite(), transversal_gl2)
    with pytest.raises(DomainError):
        res_normalized(h, borel2, ParabolicTransversal(borel2, PrimeContext(2, 2)))


def test_ad_symmetrized_basis_dimensions(ctx2, level_basis_gl2):
    sizes = sorted(len(h) for h in level_basis_gl2)
    assert sizes == [1, 2, 3, 6, 12]
    for h in level_basis_gl2:
        assert is_ad_invariant(h)


def test_no_cosets_give_no_orbits(ctx2):
    """An empty list of cosets has no orbits and no orbit indicators."""
    assert ad_orbits([], ctx2) == ad_symmetrized_basis([], ctx2) == []


def test_ad_orbits_match_conjugation_by_all_of_k0():
    """The generator closure gives the orbits of exhaustive conjugation by
    K_0 / K_level, in the same order and with the same representatives,
    also on labels scaled by 1/p, whose denominators are p, and on the
    spread-2 cosets of K_0 diag(4, 1) K_0 at p = 2, where the action
    factors through K_0 / K_3."""
    cases = []
    for m in (1, 2):
        ctx = PrimeContext(2, m)
        cases.append((unit_labels(2, ctx), ctx))
        cases.append((double_coset_labels(2, ctx, (1, 0)), ctx))
    for p, n in ((3, 2), (2, 3)):
        ctx = PrimeContext(p, 1)
        cases.append((unit_labels(n, ctx), ctx))
    ctx = PrimeContext(2, 1)
    half = QMat.diagonal([Fraction(1, 2)] * 2)
    g2 = Ambient.general_linear(2)
    for labels in (unit_labels(2, ctx), double_coset_labels(2, ctx, (1, 0))):
        cases.append(([canonical_rep(g2, half * label_matrix(x), ctx) for x in labels], ctx))
    cases.append((double_coset_labels(2, ctx, (2, 0)), ctx))
    for labels, ctx in cases:
        assert ad_orbits(labels, ctx) == ad_orbits_by_all_conjugators(labels, ctx)


def test_ad_orbits_match_the_qmat_closure():
    """Integer labels give the orbits of the QMat closure they replace,
    entry for entry and in the same order: on the 1176 cosets of
    K_0 diag(2,1,1) K_0 in GL_3(Q_2), at level 2 on GL_2(Q_2), and on
    K_0 diag(9, 3) K_0 in GL_2(Q_3)."""
    ctx2 = PrimeContext(2, 1)
    cases = [(double_coset_labels(3, ctx2, (1, 0, 0)), ctx2)]
    ctx = PrimeContext(2, 2)
    cases.append((double_coset_labels(2, ctx, (1, 0)), ctx))
    ctx = PrimeContext(3, 1)
    cases.append((double_coset_labels(2, ctx, (2, 1)), ctx))
    for labels, ctx in cases:
        got = ad_orbits(labels, ctx)
        assert got == ad_orbits_by_qmat_closure(labels, ctx)
        assert sum(map(len, got)) == len(labels)


def test_gl3_q3_level_one_orbits_are_the_classes_of_gl3_f3():
    """The level-one K_0 orbit basis of GL_3(Q_3) has 24 indicators, one
    per conjugacy class of GL_3(F_3), and each orbit reduced mod 3 is the
    class of its first label, swept by conjugating it by every element of
    GL_3(F_3) with FFMatrix products: no generators, closure or Hermite
    split."""
    ctx = PrimeContext(3, 1)
    basis = ad_symmetrized_basis(unit_labels(3, ctx), ctx)
    assert len(basis) == 24
    assert sum(len(h) for h in basis) == glnzm_order(3, 3, 1)
    conjugators = [(g, g.inverse()) for g in enumerate_gln_fq(3, 3)]
    for h in basis:
        assert h.biinvariant and all(c == 1 for _, c in h.items())
        orbit = [FFMatrix(rep.rows, 3) for rep, _ in matrix_items(h)]
        assert {g * orbit[0] * ginv for g, ginv in conjugators} == set(orbit)


def unit_labels(n, ctx):
    return [rep for rep, _ in unit_measure(Ambient.general_linear(n), ctx).items()]


def test_labels_keyed_as_built_match_from_pairs():
    """`double_coset_measure` and `unit_measure` key their labels as built;
    canonicalizing every label again through `from_pairs` gives the same
    measure, key for key and in the same order, label and coefficient."""
    cases = [(2, PrimeContext(2, 1), (1, 0)), (2, PrimeContext(2, 2), (1, 0)),
             (2, PrimeContext(3, 1), (2, 0)), (2, PrimeContext(2, 1), (0, 0)),
             (3, PrimeContext(2, 1), (1, 0, 0))]
    for n, ctx, d in cases:
        got, want = double_coset_measure(n, ctx, d), double_coset_measure_by_from_pairs(n, ctx, d)
        assert got.biinvariant and want.biinvariant
        assert list(got.support.items()) == list(want.support.items()), (n, ctx, d)
    for blocks, ctx in (((2,), PrimeContext(2, 2)), ((3,), PrimeContext(2, 1)),
                        ((2, 1), PrimeContext(3, 1)), ((1, 1, 1), PrimeContext(2, 1))):
        ambient = Ambient(BlockParabolic(sum(blocks), blocks))
        got, want = unit_measure(ambient, ctx), unit_measure_by_from_pairs(ambient, ctx)
        assert got.biinvariant and want.biinvariant
        assert list(got.support.items()) == list(want.support.items()), (blocks, ctx)


def test_double_coset_measure_counts(ctx2):
    h2 = double_coset_measure(2, ctx2, (1, 0))
    assert len(h2) == 18  # (p + 1) left cosets, each [K_0 : K_1] = 6 level cosets
    assert is_ad_invariant(h2)
    h3 = double_coset_measure(2, PrimeContext(3, 1), (1, 0))
    assert len(h3) == 4 * 48


def test_double_coset_counts_beyond_adjacent_divisors():
    """K_0 diag(p^a, p^b) K_0 has (p + 1) p^(a - b - 1) left K_0 cosets
    (a > b), each split into |GL_2(Z/p)| level cosets; when a - b >= 2 some
    Hermite forms, like [[p, 1], [0, p]], have a diagonal that does not
    permute the divisors."""
    expected = {2: (36, 72, 18), 3: (576, 1728, 192)}
    for p, counts in expected.items():
        ctx = PrimeContext(p, 1)
        for (a, b), count in zip(((2, 0), (3, 0), (2, 1)), counts):
            assert count == (p + 1) * p ** (a - b - 1) * glnzm_order(2, p, 1)
            h = double_coset_measure(2, ctx, (a, b))
            assert len(h) == count
            if p == 2:
                assert is_ad_invariant(h)


def test_double_coset_hermite_forms_match_smith_filter():
    """The K_0 orbit of diag(p^divisors) gives, in the same order, the
    Hermite forms a box enumeration keeps by their Smith exponents,
    including divisors out of order, equal divisors and gaps of 2 and 3."""
    cases = [(2, p, d) for p in (2, 3, 5)
             for d in ((1, 0), (0, 1), (2, 0), (2, 1), (1, 1), (0, 0))]
    cases += [(2, p, (3, 0)) for p in (2, 3)]
    cases += [(3, p, d) for p in (2, 3) for d in ((1, 0, 0), (1, 1, 0), (0, 0, 1))]
    cases.append((4, 2, (1, 0, 0, 0)))
    for n, p, d in cases:
        got = hermite_reps_with_divisors(n, p, d)
        assert got == [h.rows for h in hermite_forms_by_smith_filter(n, p, d)], (n, p, d)
    for n, d in ((2, (1, -1)), (2, (1, 0, 0)), (3, (1, 0))):
        with pytest.raises(DomainError, match="nonnegative divisor exponents"):
            hermite_reps_with_divisors(n, 2, d)


def test_double_coset_measure_respects_guard():
    """K_0 diag(2^10, 1) K_0 has 3 * 2^9 left K_0 cosets; a guard of 100
    stops their enumeration."""
    with pytest.raises(ResourceGuardError):
        double_coset_measure(2, PrimeContext(2, 1), (10, 0), guard=100)


def test_flagged_empty_payload_builds_no_conjugation_map():
    """An empty support is invariant before any generator is built, so a
    flagged empty payload on GL_40 loads in well under a second; building
    and inverting its 40 * 39 generators first grows like n^5."""
    blob = {"ambient": {"group": "G", "n": 40}, "level": {"p": 2, "m": 1},
            "biinvariant": True, "support": []}
    start = time.perf_counter()
    h = measure_from_jsonable(blob)
    assert time.perf_counter() - start < 1.0
    assert len(h) == 0 and h.biinvariant and h.ambient.n == 40


def test_measure_from_jsonable_rejects_forged_flag(ctx2):
    """A forged flag is refused on G and on M, where it would change the
    orbital integral, and a payload on P is refused outright."""
    forged = HeckeMeasure.delta(Ambient.general_linear(2), ctx2, QMat([[1, 1], [0, 1]]))
    assert not is_ad_invariant(forged)
    blob = measure_to_jsonable(forged)
    blob["biinvariant"] = True
    with pytest.raises(DomainError):
        measure_from_jsonable(json.loads(json.dumps(blob)))
    blob["biinvariant"] = False
    assert measure_from_jsonable(blob) == forged
    levi = Ambient.levi(BlockParabolic(3, (2, 1), "upper"))
    forged_m = HeckeMeasure.delta(levi, ctx2, QMat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert not is_ad_invariant(forged_m)
    flagged = HeckeMeasure(levi, ctx2, forged_m.support, biinvariant=True)
    gamma = RegularElement((1, 3, 5))
    assert orbital_integral(flagged, gamma).value == Fraction(3, 2)
    assert orbital_by_quotient_sum(forged_m, gamma) == Fraction(1, 2)
    blob = measure_to_jsonable(flagged)
    with pytest.raises(DomainError):
        measure_from_jsonable(json.loads(json.dumps(blob)))
    blob["biinvariant"] = False
    assert measure_from_jsonable(blob) == forged_m
    blob["ambient"] = {"group": "P", "n": 3, "blocks": [2, 1], "orientation": "upper"}
    with pytest.raises(DomainError):
        measure_from_jsonable(blob)


def test_measure_from_jsonable_refuses_malformed_payloads(ctx2):
    """The loader refuses a group other than G or M, an M with one block, a
    rep without n^2 entries, an entry or coefficient that does not parse, a
    level coset named twice, a biinvariant flag that is not a bool, and a
    missing or ill-typed field (n, p, m and the blocks must be ints, not
    bools, and every rep entry a string), rather than reading the first as
    M, the second as G, dropping extra entries, leaking a
    ZeroDivisionError, ValueError, KeyError or TypeError, adding up the
    repeated coset, keeping a truthy string, truncating a float block or
    reading the float 0.1 as 3602879701896397/36028797018963968 and true
    as 1."""
    good = measure_to_jsonable(unit_measure(Ambient.general_linear(2), ctx2))
    assert measure_from_jsonable(good).biinvariant
    bad_group = [{"group": g, "n": 2, "blocks": [1, 1], "orientation": "upper"}
                 for g in ("P", "T", "K")]
    for ambient in bad_group:
        blob = json.loads(json.dumps(good))
        blob["ambient"] = ambient
        with pytest.raises(DomainError, match="G or M"):
            measure_from_jsonable(blob)
    blob = json.loads(json.dumps(good))
    blob["ambient"] = {"group": "M", "n": 2, "blocks": [2]}
    with pytest.raises(DomainError, match="two blocks"):
        measure_from_jsonable(blob)
    for rep in (good["support"][0]["rep"] + ["0"], good["support"][0]["rep"][:3]):
        blob = json.loads(json.dumps(good))
        blob["support"][0]["rep"] = rep
        with pytest.raises(DomainError, match="entries"):
            measure_from_jsonable(blob)
    for field, bad in (("rep", ["1/0", "0", "0", "1"]), ("rep", ["x", "0", "0", "1"]),
                       ("coeff", "1/0"), ("coeff", "x")):
        blob = json.loads(json.dumps(good))
        blob["support"][0][field] = bad
        with pytest.raises(DomainError, match="does not parse"):
            measure_from_jsonable(blob)
    blob = json.loads(json.dumps(good))
    blob["support"].append(blob["support"][0])
    blob["biinvariant"] = False  # else the invariance check would catch it
    with pytest.raises(DomainError, match="twice"):
        measure_from_jsonable(blob)
    for flag in ("no", "yes", 1, None):
        blob = json.loads(json.dumps(good))
        blob["biinvariant"] = flag
        with pytest.raises(DomainError, match="not a bool"):
            measure_from_jsonable(blob)
    # ill-typed or missing fields: each used to escape as ValueError, KeyError
    # or TypeError, be truncated to an int, or be refused for the wrong reason
    m_ambient = {"group": "M", "n": 2, "blocks": [1, 1]}
    edits = [
        lambda b: b.update(ambient=dict(m_ambient, blocks=["x", 1])),
        lambda b: b.update(ambient=dict(m_ambient, blocks=[1.7, 1.2])),
        lambda b: b.update(ambient=dict(m_ambient, blocks=[True, True])),
        lambda b: b.update(ambient=dict(m_ambient, blocks="11")),
        lambda b: b["ambient"].update(n="2"),
        lambda b: b["ambient"].update(n=2.0),
        lambda b: b["ambient"].update(n=True),
        lambda b: b.update(ambient=["G", 2]),
        lambda b: b.pop("ambient"),
        lambda b: b["ambient"].pop("group"),
        lambda b: b.pop("support"),
        lambda b: b.update(support={"rep": []}),
        lambda b: b.pop("level"),
        lambda b: b["level"].pop("m"),
        lambda b: b["level"].update(m="1"),
        lambda b: b["level"].update(p=2.0),
        lambda b: b["level"].update(p=True),
        lambda b: b["support"][0].pop("coeff"),
        lambda b: b["support"][0].pop("rep"),
        lambda b: b["support"][0].update(rep=4),
        lambda b: b["support"][0].update(rep=[0.1, "0", "0", "1"]),
        lambda b: b["support"][0].update(rep=[True, "0", "0", "1"]),
        lambda b: b["support"][0].update(rep=[1, "0", "0", "1"]),
        lambda b: b["support"].append([1, 0, 0, 1]),
    ]
    for edit in edits:
        blob = json.loads(json.dumps(good))
        edit(blob)
        with pytest.raises(DomainError, match="field"):
            measure_from_jsonable(blob)
    with pytest.raises(DomainError, match="field"):
        measure_from_jsonable([good])


def _with_the_diag_221_orbits(level_basis_gl3):
    """The 16 orbit indicators of K_0, K_0 diag(2,1,1) K_0 and
    K_0 diag(2,2,1) K_0 in GL_3(Q_2)."""
    ctx2 = level_basis_gl3[0].ctx
    return level_basis_gl3 + ad_symmetrized_basis(double_coset_labels(3, ctx2, (1, 1, 0)), ctx2)


def _stage_mismatches(basis):
    """(checked, mismatches) of res^M_{B meet M}(res^G_P h) == res^G_B h
    for h in the basis on GL_n, M the Levi of every block parabolic P
    strictly between the Borel B and G, with P and B both upper or both
    lower, unnormalized and normalized."""
    n = basis[0].ambient.n
    checked, bad = 0, []
    for orientation in ("upper", "lower"):
        borel = BlockParabolic(n, (1,) * n, orientation)
        parabs = [BlockParabolic(n, blocks, orientation) for blocks in compositions(n)
                  if 1 < len(blocks) < n]
        for res in (res_unnormalized, res_normalized):
            for h in basis:
                direct = res(h, borel)
                for parab in parabs:
                    checked += 1
                    if res(res(h, parab), borel) != direct:
                        bad.append((res.__name__, parab, h))
    return checked, bad


def test_restriction_in_stages(level_basis_gl3):
    """Restriction is transitive: res^M_{B meet M}(res^G_P h) == res^G_B h
    for every block parabolic P strictly between B and G, M its Levi, in
    both orientations, plain and normalized, on the 16 orbit indicators of
    K_0, K_0 diag(2,1,1) K_0 and K_0 diag(2,2,1) K_0 in GL_3(Q_2), the 24 of
    the GL_3(Q_3) level-one basis and the 14 of the GL_4(Q_2) one.  On M
    the count is |M(Z/p^m)| / |(B meet M)(Z/p^m)| and the twist takes only
    B's block pairs inside one block of M; the double cosets off K_0 are
    there because on K_0 every twist is 1."""
    ctx2, ctx3 = PrimeContext(2, 1), PrimeContext(3, 1)
    gl3_q2 = _with_the_diag_221_orbits(level_basis_gl3)
    bases = [gl3_q2, ad_symmetrized_basis(unit_labels(3, ctx3), ctx3),
             ad_symmetrized_basis(unit_labels(4, ctx2), ctx2)]
    assert [len(basis) for basis in bases] == [16, 24, 14]
    for basis, checked in zip(bases, (128, 192, 336)):
        assert _stage_mismatches(basis) == (checked, [])


def test_restriction_from_a_levi_matches_the_qmat_split(level_basis_gl3):
    """From the Levi M of (2, 1) and of (1, 2) on to the torus through the
    upper and the lower Borel, `res_unnormalized` equals the QMat split
    oracle scaled by M's count, key for key and in support order, on the
    restrictions of the 16 GL_3(Q_2) orbit indicators: 64 cases."""
    basis = _with_the_diag_221_orbits(level_basis_gl3)
    checked = 0
    for blocks in ((2, 1), (1, 2)):
        for h in basis:
            h_m = res_unnormalized(h, BlockParabolic(3, blocks))
            for borel in (BlockParabolic(3, (1, 1, 1)), BlockParabolic(3, (1, 1, 1), "lower")):
                got = res_unnormalized(h_m, borel)
                assert list(got.items()) == list(restriction_by_qmat_split(h_m, borel).items())
                checked += 1
    assert checked == 64


def test_restrictions_carry_the_levi_flag(ctx2):
    """res_P of an invariant measure is flagged on M, and the flag holds:
    is_ad_invariant checks it on block diagonal generators of M meet K_0,
    on GL_2 and on GL_3 through every block parabolic."""
    unit3 = unit_measure(Ambient.general_linear(3), ctx2)
    cases = [(h, BlockParabolic(2, (1, 1), o)) for h in gl2_level_basis(ctx2)
             for o in ("upper", "lower")]
    cases += [(unit3, BlockParabolic(3, blocks, o)) for blocks in compositions(3)
              if len(blocks) > 1 for o in ("upper", "lower")]
    for h, parab in cases:
        for r in (res_unnormalized(h, parab), res_normalized(h, parab)):
            assert r.biinvariant and r.ambient == Ambient.levi(parab)
            assert is_ad_invariant(r)
    assert unit_measure(Ambient.levi(BlockParabolic(3, (2, 1))), ctx2).biinvariant
    # G is the one-block Levi, whatever the orientation
    assert Ambient.levi(BlockParabolic(3, (3,), "lower")) == Ambient.general_linear(3)
    # an Ambient built directly normalizes its orientation as well
    lower = Ambient(BlockParabolic(3, (2, 1), "lower"))
    assert lower == Ambient.levi(BlockParabolic(3, (2, 1))) and lower.parab.orientation == "upper"
    units = unit_measure(lower, ctx2) + unit_measure(Ambient.levi(BlockParabolic(3, (2, 1))), ctx2)
    assert units.total_mass() == 2
    parab = BlockParabolic(3, (1, 2))
    gens = k0_quotient_generators(Ambient.levi(parab), 2, 1)
    assert gens and all(parab.levi_contains(g) for g in gens)
    h = res_unnormalized(unit3, parab)
    assert all(ad_pullback(h, g) == h for g in gens)
    with pytest.raises(DomainError):
        ad_pullback(h, QMat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def _conjugation_cases(level_basis_gl3):
    """(measure, conjugators) pairs: the GL_2 level bases at (p, m) = (2, 1),
    (3, 1), (2, 2) and the GL_3(Q_2) basis, unflagged single cosets with
    denominators, and the restrictions of all of them to every Levi of
    their group; conjugators are the block generators at level m + 1
    (transvections and units), a cyclic permutation of each block and
    diag(1/u, 1, ...) with u a unit other than 1 (1/3 at p = 2)."""
    bases = [gl2_level_basis(PrimeContext(p, m)) for p, m in ((2, 1), (3, 1), (2, 2))]
    bases.append(level_basis_gl3)
    on_g = [h for basis in bases for h in basis]
    on_m = [res_unnormalized(h, BlockParabolic(h.ambient.n, blocks))
            for h in on_g for blocks in compositions(h.ambient.n) if len(blocks) > 1]
    half, ctx2, ctx3 = Fraction(1, 2), PrimeContext(2, 1), PrimeContext(3, 1)
    singles = [
        (Ambient.general_linear(2), ctx2, QMat([[1, half], [0, 1]])),
        (Ambient.general_linear(2), ctx3, QMat([[3, 1], [Fraction(1, 3), 2]])),
        (Ambient.general_linear(3), ctx2, QMat([[1, half, 0], [0, 1, 1], [2, 0, 4]])),
        (Ambient.levi(BlockParabolic(3, (2, 1))), ctx2,
         QMat([[2, 1, 0], [0, half, 0], [0, 0, 3]])),
        (Ambient.levi(BlockParabolic(3, (1, 2))), PrimeContext(2, 2),
         QMat([[4, 0, 0], [0, 1, 3], [0, half, 1]])),
    ]
    measures = on_g + on_m + [HeckeMeasure.delta(a, ctx, x) for a, ctx, x in singles]
    cases = []
    for h in measures:
        parab, p, n = h.ambient.parab, h.ctx.p, h.ambient.n
        gens = k0_quotient_generators(h.ambient, p, h.ctx.m + 1)
        for lo, hi in parab.block_ranges:
            if hi - lo > 1:
                cycle = [lo + (i - lo + 1) % (hi - lo) if lo <= i < hi else i for i in range(n)]
                gens.append(QMat([[int(j == cycle[i]) for j in range(n)] for i in range(n)]))
        unit = Fraction(1, 3 if p == 2 else 2)
        gens.append(QMat.diagonal([unit] + [1] * (n - 1)))
        cases.append((h, gens))
    return cases


def test_ad_pullback_matches_the_qmat_conjugation(level_basis_gl3):
    """The label map of `ad_pullback` moves every label where the QMat
    product g x g^-1, labelled by `from_pairs`, puts it: key for key, in
    support order, with the same flag, on G and on every Levi of GL_2 and
    GL_3, for flagged and unflagged measures and conjugators with a unit
    denominator.  `is_ad_invariant`, which runs the same map, holds
    exactly on the flagged ones."""
    count = 0
    for h, gens in _conjugation_cases(level_basis_gl3):
        for g in gens:
            got, want = ad_pullback(h, g), ad_pullback_by_qmat(h, g)
            assert got.ambient == want.ambient and got.biinvariant == want.biinvariant
            assert list(got.items()) == list(want.items()), (h, g)
            count += 1
        assert is_ad_invariant(h) == h.biinvariant
    assert count == 702


def test_normalize_on_levi_matches_modulus_lambda(level_basis_gl3):
    """The twist read off each label's Hermite diagonal equals
    |modulus_lambda|^(1/2) of its `label_matrix`, key for key, at every
    block parabolic of GL_2 and GL_3 in both orientations, on the
    restrictions of the level bases and on Levi points with denominators."""
    ctx2, half = PrimeContext(2, 1), Fraction(1, 2)
    bases = [gl2_level_basis(PrimeContext(p, m)) for p, m in ((2, 1), (3, 1), (2, 2))]
    bases.append(level_basis_gl3)
    points = [QMat.diagonal([4, half, 3]), QMat([[2, 1, 0], [0, half, 0], [0, 0, 8]]),
              QMat([[half, 0, 0], [0, 1, 1], [0, 2, Fraction(1, 4)]])]
    checked = 0
    for h in [h for basis in bases for h in basis]:
        n = h.ambient.n
        for blocks in compositions(n):
            if len(blocks) == 1:
                continue
            levi = Ambient.levi(BlockParabolic(n, blocks))
            h_ms = [res_unnormalized(h, BlockParabolic(n, blocks))]
            if n == 3 and h is level_basis_gl3[0]:
                h_ms.append(HeckeMeasure.from_pairs(levi, ctx2, [
                    (x, 1) for x in points if levi.parab.levi_contains(x)]))
            for h_m in h_ms:
                for orientation in ("upper", "lower"):
                    parab = BlockParabolic(n, blocks, orientation)
                    got, want = normalize_on_levi(h_m, parab), normalize_by_modulus_lambda(h_m, parab)
                    assert list(got.items()) == list(want.items()), (h_m, parab)
                    checked += len(got)
    assert checked > 0


def _ad_weyl_on_torus(h, perm):
    """Ad(w) of a measure on the diagonal torus for the permutation perm:
    w x w^-1 permutes the diagonals of H and kbar in each label."""
    n = len(perm)

    def diagonal(entries):
        return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))

    return HeckeMeasure(h.ambient, h.ctx, {
        (pe, diagonal([hx[i][i] for i in perm]), diagonal([kbar[i][i] for i in perm])): c
        for (pe, hx, kbar), c in h.items()}, h.biinvariant)


def test_normalized_borel_restriction_is_weyl_invariant(level_basis_gl3):
    """Parabolic independence as an identity of measures on T: h is K_0
    invariant, so res of h through wBw^-1 is Ad(w) of res_B h, and
    normalized restrictions through Borels with the same Levi agree, so
    the normalized res_B h equals Ad(w) of itself for every w in S_n.
    Literally, on the 52 measures of the GL_2 bases at (p, m) = (2, 1),
    (3, 1), (2, 2) and the GL_3(Q_2) basis.  The unnormalized restriction
    fails on 11 of them.  Ad(w) on labels agrees with `canonical_rep` of
    w x w^-1."""
    bases = [gl2_level_basis(PrimeContext(p, m)) for p, m in ((2, 1), (3, 1), (2, 2))]
    bases.append(level_basis_gl3)
    measures = [h for basis in bases for h in basis]
    assert len(measures) == 52
    unnormalized_fails = 0
    for h in measures:
        n = h.ambient.n
        borel = BlockParabolic(n, (1,) * n)
        torus = Ambient.levi(borel)
        plain, twisted = res_unnormalized(h, borel), res_normalized(h, borel)
        perms = list(permutations(range(n)))
        for perm in perms:
            moved = _ad_weyl_on_torus(twisted, perm)
            w = QMat([[int(j == perm[i]) for j in range(n)] for i in range(n)])
            assert list(moved.support) == [canonical_rep(torus, w * label_matrix(x) * w.inverse(),
                                                         h.ctx) for x in twisted.support]
            assert moved == twisted, (h, perm)
        unnormalized_fails += any(_ad_weyl_on_torus(plain, perm) != plain for perm in perms)
    assert unnormalized_fails == 11


def test_restriction_through_p_and_its_opposite(level_basis_gl3):
    """Parabolic independence through P and P^- for the maximal block
    parabolics P = (2, 1) and (1, 2) of GL_3(Q_2).  At m = 1, normalized
    res_P h equals res_{P^-} h literally on the 11 orbit indicators of K_0
    and K_0 diag(2,1,1) K_0, and the unnormalized restriction differs on 4
    of them for each Levi.  At m = 2, on the 60 orbit indicators of K_0,
    where every twist is 1, the paper claims equality only in the cocenter
    of M: 4 of them differ literally for each Levi, and every difference
    dies under res^M_{B meet M} through the upper and the lower Borel."""
    for blocks in ((2, 1), (1, 2)):
        parab = BlockParabolic(3, blocks)
        assert all(res_normalized(h, parab) == res_normalized(h, parab.opposite())
                   for h in level_basis_gl3)
        assert sum(res_unnormalized(h, parab) != res_unnormalized(h, parab.opposite())
                   for h in level_basis_gl3) == 4
    ctx = PrimeContext(2, 2)
    basis = ad_symmetrized_basis(unit_labels(3, ctx), ctx)
    assert len(basis) == 60
    borels = [BlockParabolic(3, (1, 1, 1), orientation) for orientation in ("upper", "lower")]
    for blocks in ((2, 1), (1, 2)):
        parab = BlockParabolic(3, blocks)
        literal = 0
        for h in basis:
            upper, lower = res_normalized(h, parab), res_normalized(h, parab.opposite())
            literal += upper != lower
            for borel in borels:
                assert res_normalized(upper, borel) == res_normalized(lower, borel), (blocks, h)
        assert literal == 4


def test_block_generators_embed_the_block_generators():
    """One block gives gln_generators; several give each block's generators
    on its diagonal block of the identity, as levi_generators over F_q."""
    for n, p, k in ((2, 2, 1), (3, 3, 2), (1, 5, 1)):
        assert block_gln_generators((n,), p, k) == gln_generators(n, p, k)
    for blocks in ((2, 1), (1, 2), (1, 1, 1), (2, 2)):
        n, q = sum(blocks), 3
        parab = BlockParabolic(n, blocks)
        rows = block_gln_generators(blocks, q)
        expected = []
        for (lo, hi), size in zip(parab.block_ranges, blocks):
            for g in gln_generators(size, q):
                full = QMat.identity(n).rows
                expected.append([[g[i - lo][j - lo] if lo <= i < hi and lo <= j < hi
                                  else int(full[i][j]) for j in range(n)] for i in range(n)])
        assert rows == expected
        assert [g.rows for g in levi_generators(parab, q)] == [
            tuple(tuple(r) for r in g) for g in rows
        ]


def test_canonical_rep_one_split_matches_oracle():
    """On M the one-split canonical representative equals, entry for entry,
    the block-by-block oracle.  Each label of the GL_2(Q_2), GL_2(Q_3) and
    GL_3(Q_2) level bases gives one input through every block parabolic in
    both orientations: the Levi projection of the P part q of its Iwasawa
    split, moved off its canonical form by an element of K_m meet M."""
    cases = []
    for p in (2, 3):
        ctx = PrimeContext(p, 1)
        cases.append((gl2_level_basis(ctx), ctx))
    ctx = PrimeContext(2, 1)
    cases.append((ad_symmetrized_basis(unit_labels(3, ctx), ctx), ctx))
    compared = 0
    for basis, ctx in cases:
        labels = [rep for h in basis for rep, _ in matrix_items(h)]
        n, pm = labels[0].n, ctx.modulus
        assert len(labels) == len({x.entries() for x in labels})
        for blocks in compositions(n):
            if len(blocks) == 1:
                continue
            for orientation in ("upper", "lower"):
                parab = BlockParabolic(n, blocks, orientation)
                # identity plus p^m on every position of M
                kappa = QMat([[int(i == j) + pm * ((i, j) in parab.positions("M"))
                               for j in range(n)] for i in range(n)])
                on_m = Ambient.levi(parab)
                for g in labels:
                    x = levi_project(parab, iwasawa_decompose(g, parab, ctx.p)[0]) * kappa
                    got = canonical_rep(on_m, x, ctx)
                    assert label_matrix(got).rows == canonical_rep_by_blocks(on_m, x, ctx).rows, (
                        parab, x)
                    compared += 1
    # 24 and 240 GL_2 labels through 2 Borels, 168 GL_3 labels through 6 parabolics
    assert compared == 2 * 24 + 2 * 240 + 6 * 168


def test_every_constructor_keeps_labels_canonical(ctx2, borel2, unit_gl2, level_basis_gl2):
    """Orbital integrals read values off a label, so every constructor keys
    each level coset by the label `canonical_rep` gives it, whose
    `label_matrix` is the canonical representative, also when it is fed
    other representatives."""
    g2 = Ambient.general_linear(2)
    levi = Ambient.levi(BlockParabolic(3, (2, 1), "upper"))
    raw = [QMat([[3, 5], [2, 7]]), QMat([[Fraction(1, 2), 3], [4, 6]])]
    assert all(coset_canonical_rep(x, ctx2) != x for x in raw)
    h = level_basis_gl2[-1]
    payload = {
        "ambient": {"group": "G", "n": 2},
        "level": {"p": 2, "m": 1},
        "biinvariant": False,
        "support": [{"rep": [str(v) for v in x.entries()], "coeff": "1"} for x in raw],
    }
    measures = [
        HeckeMeasure.from_pairs(g2, ctx2, [(x, 1) for x in raw]),
        HeckeMeasure.from_pairs(levi, ctx2, [(QMat([[3, 1, 0], [2, 5, 0], [0, 0, 7]]), 1)]),
        unit_gl2,
        unit_measure(levi, ctx2),
        double_coset_measure(2, ctx2, (2, 0)),
        *level_basis_gl2,
        ad_pullback(h, QMat([[1, 1], [0, 1]])),
        res_unnormalized(h, borel2),
        res_normalized(h, borel2.opposite()),
        normalize_on_levi(res_unnormalized(h, borel2), borel2),
        trace_measure(h, InducedModel(borel2, ctx2)),
        h.scale(3),
        h + level_basis_gl2[0],
        measure_from_jsonable(payload),
    ]
    for m in measures:
        assert len(m) > 0, m
        for label in m.support:
            rep = label_matrix(label)
            assert coset_canonical_rep(rep, ctx2) == rep, (m, rep)
            assert canonical_rep(m.ambient, rep, ctx2) == label, (m, label)


def test_sum_of_invariant_measures_restricts_termwise(ctx2, borel2, level_basis_gl2):
    """The sum of two conjugation-invariant measures keeps the flag, so its
    restriction is defined and is the sum of the restrictions."""
    for h1, h2 in zip(level_basis_gl2, level_basis_gl2[1:]):
        total = h1 + h2
        assert total.biinvariant
        for parab in (borel2, borel2.opposite()):
            assert res_normalized(total, parab) == (
                res_normalized(h1, parab) + res_normalized(h2, parab))
    assert not (level_basis_gl2[0] + HeckeMeasure.delta(Ambient.general_linear(2), ctx2,
                                                        QMat.identity(2))).biinvariant


def test_support_round_trips_through_the_constructor(ctx2, borel2, unit_gl2, level_basis_gl2):
    """The constructor takes the mapping that `support` holds, so a measure
    rebuilt from its support is the measure itself, and dropping the first
    support entry removes exactly that level coset."""
    for h in [unit_gl2, *level_basis_gl2, res_normalized(level_basis_gl2[-1], borel2)]:
        assert HeckeMeasure(h.ambient, h.ctx, dict(h.support), h.biinvariant) == h
        first, *rest = h.support
        dropped = HeckeMeasure(h.ambient, h.ctx, dict(list(h.support.items())[1:]), h.biinvariant)
        assert list(dropped.support) == rest
        assert dropped.coefficient(label_matrix(first)) == 0
        assert all(dropped.coefficient(label_matrix(x)) == h.coefficient(label_matrix(x))
                   for x in rest)


def test_serialization_round_trip(ctx2, borel2, level_basis_gl2):
    for h in level_basis_gl2[:2]:
        blob = json.dumps(measure_to_jsonable(h), sort_keys=True)
        assert measure_from_jsonable(json.loads(blob)) == h
    r = res_normalized(level_basis_gl2[-1], borel2)
    blob = json.dumps(measure_to_jsonable(r), sort_keys=True)
    assert measure_from_jsonable(json.loads(blob)) == r
    # serialization is canonical: dumping twice is byte-identical
    assert blob == json.dumps(measure_to_jsonable(measure_from_jsonable(json.loads(blob))), sort_keys=True)

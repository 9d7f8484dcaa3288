import copy
import random
from fractions import Fraction

import pytest

from cocenter.characters import (
    InducedModel,
    UnramifiedCharacter,
    character_pairing,
    induced_character_values,
    trace_induced,
    trace_measure,
    verify_induced_character_identity,
)
from cocenter.cli import RunConfig, run_characters
from cocenter.exactnum import DomainError, ResourceGuardError, RootP
from cocenter.groups import BlockParabolic, compositions
from cocenter.matrices import PrimeContext, QMat, hermite_int, integer_form, mat_mod
from cocenter.measures import (
    Ambient,
    HeckeMeasure,
    ParabolicTransversal,
    ad_symmetrized_basis,
    double_coset_measure,
    label_matrix,
    normalize_on_levi,
    res_normalized,
    res_unnormalized,
    unit_measure,
)
from tests.oracles import (
    character_by_block_determinants,
    character_pairing_by_label,
    gl2_level_basis,
    hecke_action_matrix,
    locate_by_fraction_split,
    matrix_items,
    trace_measure_by_qmat_products,
)

CHAR_PARAMS = [(1, 1), (2, 1), (Fraction(1, 2), 3), (3, 5)]


@pytest.fixture(scope="module")
def model2(borel2, ctx2, transversal_gl2):
    return InducedModel(borel2, ctx2, transversal_gl2)


def test_character_pairing_examples(ctx2, borel2):
    levi = Ambient.levi(borel2)
    unit_t = unit_measure(levi, ctx2)
    trivial = UnramifiedCharacter((1, 1), (1, 1))
    assert character_pairing(trivial, unit_t) == 1
    chi = UnramifiedCharacter((1, 1), (5, 7))
    delta = HeckeMeasure.delta(levi, ctx2, QMat.diagonal([2, 1]))
    assert character_pairing(chi, delta) == 5
    assert character_pairing(chi, unit_t) == unit_t.total_mass()
    with pytest.raises(DomainError):
        character_pairing(UnramifiedCharacter((2,), (3,)), unit_t)


def test_action_matrix_of_unit_is_stochastic(ctx2, unit_gl2, model2):
    trivial = UnramifiedCharacter((1, 1), (1, 1))
    mat = hecke_action_matrix(unit_gl2, trivial, model2)
    for row in mat:
        assert sum((x.a for x in row), Fraction(0)) == 1
        assert all(x.b == 0 for x in row)


def test_zero_measure_zero_trace(ctx2, model2):
    zero = HeckeMeasure(Ambient.general_linear(2), ctx2, {}, biinvariant=True)
    chi = UnramifiedCharacter((1, 1), (2, 3))
    assert trace_induced(zero, chi, model2) == 0


def test_dimension_matches_double_coset_count(ctx2, model2, transversal_gl2):
    assert model2.dim == len(transversal_gl2) == 3


def test_trace_identity_on_basis(ctx2, borel2, model2, level_basis_gl2, transversal_gl2):
    for h in level_basis_gl2:
        res_plain = res_unnormalized(h, borel2, transversal_gl2)
        for params in CHAR_PARAMS:
            chi = UnramifiedCharacter((1, 1), params)
            ok, details = verify_induced_character_identity(
                h, chi, borel2, model2, res_plain
            )
            assert ok, details


def test_character_family_is_the_one_character_check(monkeypatch, borel2, model2,
                                                     level_basis_gl2):
    """On the GL_2(Q_2) level basis, `induced_character_values` gives for
    each of the four default characters the details of
    `verify_induced_character_identity`, and the default `characters` CLI
    run builds one trace measure per basis measure, for all characters."""
    chars = [UnramifiedCharacter((1, 1), params) for params in CHAR_PARAMS]
    keys = ("trace", "pairing", "trace_normalized", "pairing_normalized")
    for h in level_basis_gl2:
        values = induced_character_values(h, chars, borel2, model2)
        assert len(values) == len(chars)
        for chi, got in zip(chars, values):
            ok, details = verify_induced_character_identity(h, chi, borel2, model2)
            assert ok and got == tuple(details[k] for k in keys), (chi.params, got, details)
    calls = []

    def counting_trace(h, model):
        calls.append(id(h))
        return trace_measure(h, model)

    monkeypatch.setattr("cocenter.characters.trace_measure", counting_trace)
    run_characters(RunConfig().validate())
    assert len(calls) == len(set(calls)) == len(level_basis_gl2) == 5


def test_trace_identity_diag_double_coset_both_routes(ctx2, borel2, model2):
    h = double_coset_measure(2, ctx2, (1, 0))
    chi = UnramifiedCharacter((1, 1), (2, 7))
    lhs = trace_induced(h, chi, model2)
    rhs = character_pairing(chi, res_unnormalized(h, borel2))
    assert lhs == rhs
    assert lhs != 0


def test_corrupted_restriction_detected(ctx2, borel2, model2, level_basis_gl2):
    h = max(level_basis_gl2, key=len)
    res_plain = res_unnormalized(h, borel2)
    key = next(iter(res_plain.support))
    support = dict(res_plain.support)
    support[key] = support[key] * 2
    corrupted = HeckeMeasure(res_plain.ambient, ctx2, support)
    chi = UnramifiedCharacter((1, 1), (2, 1))
    ok, _ = verify_induced_character_identity(h, chi, borel2, model2, corrupted)
    assert not ok


def test_identity_check_refuses_a_model_of_another_parabolic(ctx2, borel2, model2,
                                                            level_basis_gl2):
    h = level_basis_gl2[1]
    chi = UnramifiedCharacter((1, 1), (2, 1))
    assert verify_induced_character_identity(h, chi, borel2, model2)[0]
    with pytest.raises(DomainError):
        verify_induced_character_identity(h, chi, borel2, InducedModel(borel2.opposite(), ctx2))


def test_identity_check_refuses_a_restriction_to_another_levi(monkeypatch, ctx2):
    """A Borel restriction handed in as res_m for P(2,1) is refused before
    the trace measure is built."""
    unit3 = unit_measure(Ambient.general_linear(3), ctx2)
    p21 = BlockParabolic(3, (2, 1), "upper")
    borel_res = res_unnormalized(unit3, BlockParabolic(3, (1, 1, 1), "upper"))
    chi = UnramifiedCharacter((2, 1), (2, 1))
    model = InducedModel(p21, ctx2)
    assert verify_induced_character_identity(unit3, chi, p21, model)[0]

    def refuse(*args):
        raise AssertionError("trace measure built for a refused input")

    monkeypatch.setattr("cocenter.characters.trace_measure", refuse)
    with pytest.raises(DomainError, match="Levi"):
        verify_induced_character_identity(unit3, chi, p21, model, borel_res)


def test_trace_linear_in_the_measure(ctx2, model2, level_basis_gl2):
    h1, h2 = level_basis_gl2[0], level_basis_gl2[-1]
    combo = h1.scale(Fraction(2, 3)) + h2.scale(-5)
    chi = UnramifiedCharacter((1, 1), (3, Fraction(1, 2)))
    lhs = trace_induced(combo, chi, model2)
    rhs = trace_induced(h1, chi, model2) * Fraction(2, 3) + trace_induced(
        h2, chi, model2
    ) * (-5)
    assert lhs == rhs


def test_normalized_trace_independent_of_parabolic(ctx2, borel2, model2, level_basis_gl2):
    low = borel2.opposite()
    model_low = InducedModel(low, ctx2, ParabolicTransversal(low, ctx2))
    for h in level_basis_gl2:
        for params in CHAR_PARAMS[1:]:
            chi = UnramifiedCharacter((1, 1), params)
            assert trace_induced(h, chi, model2, normalized=True) == trace_induced(
                h, chi, model_low, normalized=True
            )


def test_unnormalized_trace_depends_on_parabolic(ctx2, borel2):
    h = double_coset_measure(2, ctx2, (1, 0))
    low = borel2.opposite()
    model_up = InducedModel(borel2, ctx2)
    model_low = InducedModel(low, ctx2)
    chi = UnramifiedCharacter((1, 1), (2, 1))
    assert trace_induced(h, chi, model_up) != trace_induced(h, chi, model_low)


def test_gl3_levi_unit_smoke():
    ctx = PrimeContext(2, 1)
    parab = BlockParabolic(3, (2, 1), "upper")
    u3 = unit_measure(Ambient.general_linear(3), ctx)
    model = InducedModel(parab, ctx)
    chi = UnramifiedCharacter((2, 1), (3, Fraction(1, 2)))
    ok, details = verify_induced_character_identity(u3, chi, parab, model)
    assert ok, details


def test_trace_induced_matches_action_matrix_oracle(ctx2, borel2, level_basis_gl2):
    """The trace read off the trace measure equals the trace of the full
    action matrix on the GL_2(Q_2) level basis, plain and normalized,
    through both Borels."""
    for parab in (borel2, borel2.opposite()):
        model = InducedModel(parab, ctx2)
        for h in level_basis_gl2:
            for params in CHAR_PARAMS:
                chi = UnramifiedCharacter((1, 1), params)
                for normalized in (False, True):
                    mat = hecke_action_matrix(h, chi, model, normalized)
                    diagonal = sum((mat[i][i] for i in range(model.dim)), RootP.rational(0, 2))
                    assert trace_induced(h, chi, model, normalized) == diagonal


def test_trace_measure_equals_restriction():
    """T(h) = res_P h as measures on M, not only after pairing with
    characters: the GL_2 level bases for p in {2, 3} through both Borels
    (38 cases) and the GL_3(Q_2) unit measure through (2,1), both
    orientations."""
    cases = 0
    for p in (2, 3):
        ctx = PrimeContext(p, 1)
        basis = gl2_level_basis(ctx)
        for parab in (BlockParabolic(2, (1, 1), "upper"), BlockParabolic(2, (1, 1), "lower")):
            model = InducedModel(parab, ctx)
            for h in basis:
                assert trace_measure(h, model) == res_unnormalized(h, parab)
                cases += 1
    assert cases == 38
    ctx = PrimeContext(2, 1)
    unit3 = unit_measure(Ambient.general_linear(3), ctx)
    for orientation in ("upper", "lower"):
        parab = BlockParabolic(3, (2, 1), orientation)
        assert trace_measure(unit3, InducedModel(parab, ctx)) == res_unnormalized(unit3, parab)


def test_trace_measure_equals_restriction_gl2_level_two():
    """GL_2(Q_2) at level m = 2: the 96 K_0 cosets fall into 14 K_0 orbits.
    On that orbit basis T(h) = res_B h through both Borels, the
    restrictions add up to 96 unit_measure(T), and the upper and lower
    normalized restrictions pair alike with every character."""
    ctx = PrimeContext(2, 2)
    labels = [rep for rep, _ in unit_measure(Ambient.general_linear(2), ctx).items()]
    basis = ad_symmetrized_basis(labels, ctx)
    assert (len(labels), len(basis)) == (96, 14)
    upper = BlockParabolic(2, (1, 1), "upper")
    lower = upper.opposite()
    for parab in (upper, lower):
        model = InducedModel(parab, ctx)
        total = HeckeMeasure(Ambient.levi(parab), ctx)
        for h in basis:
            res = res_unnormalized(h, parab)
            assert trace_measure(h, model) == res
            total = total + res
        assert total == unit_measure(Ambient.levi(parab), ctx).scale(96)
    chars = [UnramifiedCharacter((1, 1), params) for params in CHAR_PARAMS]
    for h in basis:
        res_up, res_low = res_normalized(h, upper), res_normalized(h, lower)
        for chi in chars:
            assert character_pairing(chi, res_up) == character_pairing(chi, res_low)


def test_character_reads_the_hermite_diagonal_of_a_label():
    """chi at a Levi label equals chi at its `label_matrix` read off block
    determinants, on every label of the restrictions and traces of the
    GL_2 level bases at (p, m) = (2, 1), (3, 1), (2, 2), and of the
    GL_3(Q_2) K_0 orbits through (2, 1) and (1, 2), and of their
    translates by 1/p and by p, whose labels have p^e = p and, on the
    Levi, H divisible by p."""
    borel = BlockParabolic(2, (1, 1))
    cases = []
    for ctx in (PrimeContext(2, 1), PrimeContext(3, 1), PrimeContext(2, 2)):
        cases += [(InducedModel(parab, ctx), gl2_level_basis(ctx))
                  for parab in (borel, borel.opposite())]
    ctx = PrimeContext(2, 1)
    basis3 = ad_symmetrized_basis(list(unit_measure(Ambient.general_linear(3), ctx).support), ctx)
    cases += [(InducedModel(BlockParabolic(3, blocks), ctx), basis3) for blocks in ((2, 1), (1, 2))]
    compared = 0
    for model, basis in cases:
        parab, p = model.parab, model.ctx.p
        n = parab.n
        chi = UnramifiedCharacter(parab.blocks, (2, Fraction(-1, 3), 5)[:len(parab.blocks)])
        for scale in (Fraction(1, p), 1, p):
            center = QMat.diagonal([scale] * n)
            for h in basis:
                moved = HeckeMeasure.from_pairs(h.ambient, h.ctx, [
                    (center * rep, c) for rep, c in matrix_items(h)], True)
                for m in (res_unnormalized(moved, parab), trace_measure(moved, model)):
                    for label in m.support:
                        want = character_by_block_determinants(chi, parab, label_matrix(label), p)
                        assert chi.value(parab, label, p) == want, (parab, label)
                        compared += 1
    assert compared == 552


def test_identity_check_splits_each_product_once(monkeypatch):
    """One identity check splits no support label again, and each product
    g_i H of a transversal rep and a distinct Hermite part H once through
    P, for the plain and the normalized trace together: the integer
    Hermite core runs dim * |distinct H| times through `groups`, fewer
    than the dim * |supp h| products g_i x.  The restriction is passed in,
    and `measures.levi_measure` splits the Levi points of T(h) outside
    `groups`, so neither is counted."""
    ctx = PrimeContext(3, 1)
    borel = BlockParabolic(2, (1, 1), "upper")
    model = InducedModel(borel, ctx)
    h = gl2_level_basis(ctx)[-1]
    res_m = res_unnormalized(h, borel)
    parts = {tuple(map(tuple, hermite_int(integer_form(rep.rows)[0], ctx.p)[0]))
             for rep, _ in matrix_items(h)}
    calls = []

    def counting_core(a, p):
        calls.append(p)
        return hermite_int(a, p)

    monkeypatch.setattr("cocenter.groups.hermite_int", counting_core)
    ok, details = verify_induced_character_identity(
        h, UnramifiedCharacter((1, 1), (2, 5)), borel, model, res_m
    )
    assert ok, details
    assert 0 < len(calls) == model.dim * len(parts) < model.dim * len(h)


def _split_models():
    """(model, basis) for the GL_2 level bases at (p, m) = (2, 1), (3, 1)
    and (2, 2) through both Borels, and the GL_3(Q_2) orbit basis through
    all six block parabolics."""
    cases = []
    for p, m in ((2, 1), (3, 1), (2, 2)):
        ctx = PrimeContext(p, m)
        basis = gl2_level_basis(ctx)
        borel = BlockParabolic(2, (1, 1), "upper")
        cases += [(InducedModel(parab, ctx), basis) for parab in (borel, borel.opposite())]
    ctx = PrimeContext(2, 1)
    unit3 = unit_measure(Ambient.general_linear(3), ctx)
    basis = ad_symmetrized_basis([rep for rep, _ in unit3.items()], ctx)
    for blocks in compositions(3):
        if len(blocks) > 1:
            for orientation in ("upper", "lower"):
                cases.append((InducedModel(BlockParabolic(3, blocks, orientation), ctx), basis))
    return cases


def _random_y(n, p, rng):
    """A nonsingular rational matrix whose common denominator has a factor
    prime to p, with p-power factors mixed in."""
    prime_to_p = [d for d in (3, 5, 7, 9) if d % p]
    while True:
        y = QMat([[Fraction(rng.randint(-9, 9) * p ** rng.randint(0, 2),
                            rng.choice((1, p, p * p) + tuple(prime_to_p)))
                   for _ in range(n)] for _ in range(n)])
        d = integer_form(y.rows)[1]
        if y.det() != 0 and any(d % q == 0 for q in prime_to_p):
            return y


def test_integer_split_matches_the_fraction_oracle():
    """locate_with_parabolic_part equals its Fraction oracle, index and
    parabolic part entry for entry, on every g_i x of the GL_2 level bases
    at (p, m) = (2, 1), (3, 1), (2, 2) through both Borels and of the
    GL_3(Q_2) orbit basis through all six block parabolics, and on 20
    seeded random y per model whose denominators have factors prime to p
    (the level bases have p-power denominators only)."""
    rng = random.Random(97)
    compared = 0
    for model, basis in _split_models():
        p, n = model.ctx.p, model.parab.n
        labels = [rep for h in basis for rep, _ in matrix_items(h)]
        inputs = [g_i * x for g_i in model.transversal.reps for x in labels]
        inputs += [_random_y(n, p, rng) for _ in range(20)]
        for y in inputs:
            l, qa, q2, pe = model.locate_with_parabolic_part(*integer_form(y.rows))
            want_l, want_q = locate_by_fraction_split(model, y)
            q_part = (QMat(qa) * QMat(q2)).scale(Fraction(1, pe))
            assert (l, q_part.rows) == (want_l, want_q.rows), (model.parab, model.ctx, y)
            compared += 1
    # 12 models: 20 random inputs each, and 18,432 products of the bases
    assert compared == 12 * 20 + 18_432


def test_trace_measure_matches_the_qmat_oracle():
    """trace_measure equals its QMat oracle key for key, label and
    coefficient alike, on every basis measure of every `_split_models` case
    and on the translate of the last one by the central element 1/p, whose
    labels have denominator p; the lower (2,1) and (1,2) cases have lower
    triangular Q(A), so their 2 x 2 Levi points are re-canonicalized."""
    compared = 0
    for model, basis in _split_models():
        center = QMat.diagonal([Fraction(1, model.ctx.p)] * model.parab.n)
        last = basis[-1]
        shifted = HeckeMeasure.from_pairs(last.ambient, last.ctx,
                                          [(center * rep, c) for rep, c in matrix_items(last)],
                                          True)
        for h in basis + [shifted]:
            got, want = trace_measure(h, model), trace_measure_by_qmat_products(h, model)
            assert (got.ambient, got.support) == (want.ambient, want.support), (model.parab, h)
            compared += 1
    # bases of 5, 14 and 22 measures on GL_2 and 6 on GL_3, and 12 translates
    assert compared == 2 * (5 + 14 + 22) + 6 * 6 + 12


def test_one_split_runs_the_integer_core_once(monkeypatch):
    """One locate call runs the integer Hermite core exactly once, in both
    orientations."""
    calls = []

    def counting_core(a, p):
        calls.append(p)
        return hermite_int(a, p)

    monkeypatch.setattr("cocenter.groups.hermite_int", counting_core)
    ctx = PrimeContext(3, 1)
    rng = random.Random(5)
    for orientation in ("upper", "lower"):
        model = InducedModel(BlockParabolic(2, (1, 1), orientation), ctx)
        for _ in range(5):
            before = len(calls)
            model.locate_with_parabolic_part(*integer_form(_random_y(2, 3, rng).rows))
            assert len(calls) == before + 1


def test_induced_model_validates_its_inputs(ctx2, borel2, transversal_gl2, unit_gl2):
    """A transversal of another parabolic or level is refused, and so is a
    measure of another level; the guard bounds the transversal
    enumeration, and a split whose transversal lookup disagrees with its
    reps raises instead of returning."""
    with pytest.raises(DomainError):
        InducedModel(borel2.opposite(), ctx2, transversal_gl2)
    with pytest.raises(DomainError):
        InducedModel(borel2, PrimeContext(2, 2), transversal_gl2)
    with pytest.raises(DomainError):
        trace_measure(unit_gl2, InducedModel(borel2, PrimeContext(2, 2)))
    ctx3 = PrimeContext(3, 1)
    assert InducedModel(borel2, ctx3, guard=48).dim == 4
    with pytest.raises(ResourceGuardError):
        InducedModel(borel2, ctx3, guard=47)
    corrupted = ParabolicTransversal(borel2, ctx2)
    corrupted.lookup = {key: (idx + 1) % len(corrupted) for key, idx in corrupted.lookup.items()}
    with pytest.raises(DomainError):
        InducedModel(borel2, ctx2, corrupted).locate_with_parabolic_part([[1, 0], [0, 1]], 1)


def test_trace_measure_refuses_a_corrupted_lookup(ctx2, borel2, unit_gl2):
    """A transversal whose lookup names the wrong double coset makes
    trace_measure raise, as it makes the one-product split raise."""
    corrupted = ParabolicTransversal(borel2, ctx2)
    corrupted.lookup = {key: (idx + 1) % len(corrupted) for key, idx in corrupted.lookup.items()}
    with pytest.raises(DomainError, match="misses"):
        trace_measure(unit_gl2, InducedModel(borel2, ctx2, corrupted))


def test_character_pairing_matches_the_sum_over_labels(level_basis_gl3):
    """character_pairing, which values chi once per tuple of block
    valuations, equals `character_pairing_by_label`, chi valued at every
    label by block determinants, on the plain and normalized restrictions
    and trace measures of the GL_2(Q_2) and GL_2(Q_3) level bases through
    the upper Borel and of the GL_3(Q_2) level basis through (2,1), (1,2)
    and (1,1,1), for one fixed and two seeded characters per Levi, with
    negative and fractional Satake parameters.  An empty measure of other
    blocks is still refused."""
    rng = random.Random(35)
    cases = [(BlockParabolic(2, (1, 1)), gl2_level_basis(PrimeContext(p, 1))) for p in (2, 3)]
    cases += [(BlockParabolic(3, blocks), level_basis_gl3) for blocks in ((2, 1), (1, 2), (1, 1, 1))]
    compared = 0
    for parab, basis in cases:
        model = InducedModel(parab, basis[0].ctx)
        k = len(parab.blocks)
        chars = [UnramifiedCharacter(parab.blocks, (-2, Fraction(1, 3), Fraction(-5, 2))[:k])]
        chars += [UnramifiedCharacter(parab.blocks, [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)])
            for _ in range(2)]
        for h in basis:
            for plain in (res_unnormalized(h, parab), trace_measure(h, model)):
                for m in (plain, normalize_on_levi(plain, parab)):
                    for chi in chars:
                        assert character_pairing(chi, m) == character_pairing_by_label(chi, m), (
                            parab, chi.params, m)
                        compared += 1
    # bases of 5, 14 and 3 x 11 measures, 4 measures and 3 characters each
    assert compared == 12 * (5 + 14 + 3 * 11)
    empty = HeckeMeasure(Ambient.levi(BlockParabolic(2, (1, 1))), PrimeContext(2, 1))
    with pytest.raises(DomainError, match="block mismatch"):
        character_pairing(UnramifiedCharacter((2,), (3,)), empty)


def test_residue_table_locates_every_residue():
    """`InducedModel.located` holds every residue r of GL_n(Z/p^m), the
    keys of the transversal's lookup, as (l, q2) with l = lookup[r], q2 in
    P mod p^m and q2 g_l = r mod p^m: through both Borels of GL_2(Q_3) and
    of GL_2(Q_2) at m = 2, and through (2,1) and (1,2) of GL_3(Q_2).  A
    lookup corrupted at one residue alone, for each residue of GL_2(Z/2)
    and GL_2(Z/3) in turn, is refused when the model is built."""
    borel = BlockParabolic(2, (1, 1))
    models = [InducedModel(parab, ctx) for ctx in (PrimeContext(3, 1), PrimeContext(2, 2))
              for parab in (borel, borel.opposite())]
    models += [InducedModel(BlockParabolic(3, blocks), PrimeContext(2, 1))
               for blocks in ((2, 1), (1, 2))]
    checked = 0
    for model in models:
        transversal, ctx = model.transversal, model.ctx
        assert model.located.keys() == transversal.lookup.keys()
        for r, (l, q2) in model.located.items():
            assert l == transversal.lookup[r]
            assert model.parab.vanishes(q2, "G/P"), (model.parab, r)
            assert mat_mod(QMat(q2) * transversal.reps[l], ctx.modulus, ctx.p) == r
            checked += 1
    # |GL_2(Z/3)| = 48 and |GL_2(Z/4)| = 96 twice each, |GL_3(Z/2)| = 168 twice
    assert checked == 2 * (48 + 96 + 168)
    refused = 0
    for ctx in (PrimeContext(2, 1), PrimeContext(3, 1)):
        transversal = ParabolicTransversal(borel, ctx)
        for r, idx in transversal.lookup.items():
            corrupted = copy.copy(transversal)
            corrupted.lookup = {**transversal.lookup, r: (idx + 1) % len(transversal)}
            with pytest.raises(DomainError, match="misses"):
                InducedModel(borel, ctx, corrupted)
            refused += 1
    assert refused == 6 + 48

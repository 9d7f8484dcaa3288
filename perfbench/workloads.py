"""The benchmark's workloads: inputs made from a seed, and rounds of checks.

Each workload has a `setup(seed, timed, small=False)` that builds its inputs
and a `round(inputs, rnd, corrupt=False)` that runs one whole round of
operations, recording every check in `rnd` (a `harness.Round`).  Only the
calls into the program are timed, inside `timed()` in a set-up and
`rnd.timed()` in a round; the benchmark's own random draws and reference
values (`independent`) are made outside them.  `small=True` gives the
reduced inputs of the benchmark's tests, and `corrupt=True` applies the one
deliberate corruption of a program answer that each workload's checks must
catch.

The program is called through its modules (`measures.res_normalized`, not a
name imported from it) so that a traced run sees every call.
"""

import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from typing import Callable

from cocenter import characters, groups, matrices, measures, oracles, orbital, unipotent
from cocenter.characters import InducedModel, UnramifiedCharacter
from cocenter.exactnum import DomainError
from cocenter.groups import BlockParabolic, SubgroupSpec
from cocenter.matrices import PrimeContext
from cocenter.measures import Ambient, HeckeMeasure
from cocenter.orbital import RegularElement

import independent


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    round: Callable
    #: the length of one round on the machine the benchmark was set on; a
    #: run of S seconds makes S // round_s rounds, at least one
    round_s: float


def _characters(rng, blocks, count):
    """Unramified characters with seeded nonzero rational Satake parameters."""
    def param():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    return [UnramifiedCharacter(tuple(blocks), tuple(param() for _ in blocks))
            for _ in range(count)]


def _grid(rng, p, n):
    """25 regular diagonal points (u_1 p^v_1, u_2 p^v_2[, u_3]), v in [-2, 2]^2.

    The units are drawn once per seed and are pairwise distinct, so every
    point is regular inside every Levi block, and the points that share a
    block's eigenvalues are the same for every seed.
    """
    units = rng.sample([u for u in range(1, 40) if u % p], n)
    out = []
    for v1 in range(-2, 3):
        for v2 in range(-2, 3):
            powers = (v1, v2) + (0,) * (n - 2)
            out.append(RegularElement(tuple(
                Fraction(u) * Fraction(p) ** v for u, v in zip(units, powers))))
    return out


def _drop_one_coset(h):
    """h without the mass on one of its cosets."""
    support = dict(list(h.support.items())[1:])
    return HeckeMeasure(h.ambient, h.ctx, support, h.biinvariant)


def _sum(ms):
    total = ms[0]
    for h in ms[1:]:
        total = total + h
    return total


# ---------------------------------------------------------------------------
# gl3-restriction: GL_3(Q_2), level 1, the six K_0 conjugation-orbit
# indicators restricted through every block parabolic and its opposite


def setup_gl3(seed, timed=nullcontext, small=False):
    rng = random.Random(seed)
    order = independent.gl_order(3, 2)
    with timed():
        ctx = PrimeContext(2, 1)
        unit = measures.unit_measure(Ambient.general_linear(3), ctx)
        labels = [rep for rep, _ in unit.items()]
        basis = measures.ad_symmetrized_basis(labels, ctx)
    shapes = []
    for blocks in ((2, 1),) if small else ((2, 1), (1, 2), (1, 1, 1)):
        with timed():
            upper = BlockParabolic(3, blocks, "upper")
            sides = [(parab, measures.ParabolicTransversal(parab, ctx))
                     for parab in (upper, upper.opposite())]
            # the indicators sum to 1_{K_0}, whose restriction is |GL_3(F_2)| units
            target = measures.unit_measure(Ambient.levi(upper), ctx).scale(order)
        shapes.append(SimpleNamespace(
            blocks=blocks, sides=sides, target=target,
            chars=_characters(rng, blocks, 4)))
    grid = _grid(rng, 2, 3)
    ops = 2 + sum(2 + len(basis) * (len(s.chars) + len(grid)) for s in shapes)
    return SimpleNamespace(ops=ops, labels=labels, basis=basis, shapes=shapes, grid=grid)


def round_gl3(inp, rnd, corrupt=False):
    rnd.check(len(inp.labels) == independent.gl_order(3, 2), "|K_0 / K_1| = |GL_3(F_2)|")
    rnd.check(len(inp.basis) == independent.gl_class_number(3, 2),
              "K_0 orbits = classes of GL_3(F_2)")
    for shape in inp.shapes:
        restricted = []
        for parab, transversal in shape.sides:
            res = []
            for h in inp.basis:
                with rnd.timed():
                    res.append(measures.res_normalized(h, parab, transversal))
            if corrupt and not restricted:
                res[0] = _drop_one_coset(res[0])
            with rnd.timed():
                total = _sum(res)
            rnd.check(total == shape.target,
                      f"sum of restrictions through {parab} = 168 unit_measure(M)")
            restricted.append(res)
        for up, low in zip(*restricted):
            for chi in shape.chars:
                with rnd.timed():
                    ok = (characters.character_pairing(chi, up)
                          == characters.character_pairing(chi, low))
                rnd.check(ok, f"{shape.blocks}: opposite parabolics, character {chi.params}")
            for gamma in inp.grid:
                with rnd.timed():
                    ok = (orbital.orbital_integral(up, gamma).value
                          == orbital.orbital_integral(low, gamma).value)
                rnd.check(ok, f"{shape.blocks}: opposite parabolics, orbital at {gamma.entries}")


# ---------------------------------------------------------------------------
# gl2-induction-descent: GL_2(Q_3), level 1, the orbit indicators on K_0 and
# K_0 diag(3,1) K_0 through both Borels


def setup_gl2(seed, timed=nullcontext, small=False):
    rng = random.Random(seed)
    order = independent.gl_order(2, 3)
    with timed():
        ctx = PrimeContext(3, 1)
        unit = measures.unit_measure(Ambient.general_linear(2), ctx)
        k0_labels = [rep for rep, _ in unit.items()]
        dc_labels = measures.double_coset_labels(2, ctx, (1, 0))
        k0_basis = measures.ad_symmetrized_basis(k0_labels, ctx)
        basis = k0_basis + measures.ad_symmetrized_basis(dc_labels, ctx)
        borel = BlockParabolic(2, (1, 1), "upper")
        sides = [(parab, InducedModel(parab, ctx, measures.ParabolicTransversal(parab, ctx)))
                 for parab in (borel, borel.opposite())]
        target = measures.unit_measure(Ambient.levi(borel), ctx).scale(order)
        constant_terms = []
        for p in (2, 3):
            c = PrimeContext(p, 1)
            constant_terms.append(SimpleNamespace(
                h=measures.double_coset_measure(2, c, (1, 0)),
                transversal=measures.ParabolicTransversal(borel, c),
                plain=oracles.constant_term_oracle_gl2(c, normalized=False),
                normalized=oracles.constant_term_oracle_gl2(c, normalized=True)))
    chars = _characters(rng, (1, 1), 1 if small else 4)
    grid = _grid(rng, 3, 2)
    ops = 3 + 2 * (1 + len(basis) * (len(chars) + len(grid))) + 2 * len(constant_terms)
    return SimpleNamespace(
        ops=ops, k0_labels=k0_labels, dc_labels=dc_labels, k0_basis=k0_basis, basis=basis,
        borel=borel, sides=sides, target=target, constant_terms=constant_terms,
        chars=chars, grid=grid)


def round_gl2(inp, rnd, corrupt=False):
    order = independent.gl_order(2, 3)
    rnd.check(len(inp.k0_labels) == order, "|K_0 / K_1| = |GL_2(F_3)|")
    rnd.check(len(inp.dc_labels) == 4 * order, "K_0 diag(3,1) K_0 = 4 K_0 cosets")
    rnd.check(len(inp.k0_basis) == independent.gl_class_number(2, 3),
              "K_0 orbits = classes of GL_2(F_3)")
    for parab, model in inp.sides:
        res = []
        for h in inp.basis:
            with rnd.timed():
                res.append(measures.res_unnormalized(h, parab, model.transversal))
        with rnd.timed():
            total = _sum(res[:len(inp.k0_basis)])
        rnd.check(total == inp.target,
                  f"sum of K_0 restrictions through {parab} = 48 unit_measure(T)")
        for h, r in zip(inp.basis, res):
            for chi in inp.chars:
                with rnd.timed():
                    ok, _ = characters.verify_induced_character_identity(h, chi, parab, model, r)
                rnd.check(ok, f"trace = pairing through {parab}, character {chi.params}")
        for h in inp.basis:
            with rnd.timed():
                r = measures.res_normalized(h, parab, model.transversal)
            for gamma in inp.grid:
                with rnd.timed():
                    ok, _, _ = orbital.descent_check(h, gamma, parab, r,
                                                     mutate_normalization=corrupt)
                rnd.check(ok, f"descent through {parab} at {gamma.entries}")
    for ct in inp.constant_terms:
        with rnd.timed():
            normalized = measures.res_normalized(ct.h, inp.borel, ct.transversal)
        with rnd.timed():
            plain = measures.res_unnormalized(ct.h, inp.borel, ct.transversal)
        p = ct.h.ctx.p
        rnd.check(normalized == ct.normalized, f"constant term oracle, normalized, p = {p}")
        rnd.check(plain == ct.plain, f"constant term oracle, plain, p = {p}")


# ---------------------------------------------------------------------------
# ff-induced-classes: every Levi and every unipotent class of GL_n(F_q),
# both orientations


FIELDS = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3))


def setup_ff(seed, timed=nullcontext, small=False):
    rng = random.Random(seed)
    fields = ((2, 2), (2, 3), (3, 2)) if small else FIELDS
    with timed():
        elements = {(n, q): matrices.enumerate_gln_fq(n, q) for n, q in fields}
        cases = [
            (n, q, blocks, combo)
            for n, q in fields
            for blocks in groups.compositions(n)
            for combo in product(*(list(unipotent.partitions_of(b)) for b in blocks))
        ]
    # the answers may not depend on the order the cases run in
    rng.shuffle(cases)
    return SimpleNamespace(ops=2 * len(fields) + 2 * len(cases), elements=elements, cases=cases)


def _is_unipotent(g):
    try:
        groups.jordan_type(g)
    except DomainError:
        return False
    return True


def round_ff(inp, rnd, corrupt=False):
    for (n, q), elements in inp.elements.items():
        count = 0
        for start in range(0, len(elements), 100):
            with rnd.timed():
                count += sum(1 for g in elements[start:start + 100] if _is_unipotent(g))
        rnd.check(count == independent.unipotent_count(n, q),
                  f"unipotent elements of GL_{n}(F_{q}) by Jordan type")
    for n, q, blocks, combo in inp.cases:
        with rnd.timed():
            ok, upper, lower = unipotent.check_heart_independence(n, blocks, combo, q)
            hearts = unipotent.heart(upper), unipotent.heart(lower)
        lower_heart = hearts[0] and independent.strictly_dominated(hearts[0][0])
        if corrupt and lower_heart:
            hearts = ((lower_heart,), hearts[1])
        case = f"GL_{n}(F_{q}), blocks {blocks}, classes {combo}"
        rnd.check(ok and hearts[0] == hearts[1], f"{case}: orientations agree")
        expected = (independent.partwise_sum(combo),)
        rnd.check(hearts[0] == expected and hearts[1] == expected,
                  f"{case}: heart = part-wise sum {expected[0]}")
        if all(b == 1 for b in blocks):
            # C * U = U for the trivial class of the torus: every unipotent
            rnd.check(upper.total == lower.total == independent.unipotent_count(n, q),
                      f"{case}: induced from the torus = all unipotents")


# ---------------------------------------------------------------------------
# discriminant-identity: Delta_P^2 = +-Delta_M lambda_P at seeded random Levi
# points of every block parabolic of GL_2 .. GL_4, both orientations


def _random_levi_rows(parab, rng):
    """The rows of a random element of the Levi of parab: nonsingular blocks
    with entries in [-9, 9], zeros elsewhere."""
    n = parab.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for lo, hi in parab.block_ranges:
        size = hi - lo
        while True:
            block = [[Fraction(rng.randint(-9, 9)) for _ in range(size)] for _ in range(size)]
            if independent.det(block) != 0:
                break
        for i in range(size):
            for j in range(size):
                rows[lo + i][lo + j] = block[i][j]
    return rows


def setup_disc(seed, timed=nullcontext, small=False):
    rng = random.Random(seed)
    with timed():
        parabs = [BlockParabolic(n, blocks, orientation)
                  for n in (2, 3, 4)
                  for blocks in groups.compositions(n)
                  for orientation in ("upper", "lower")]
    drawn = [(parab, _random_levi_rows(parab, rng))
             for parab in parabs for _ in range(10 if small else 200)]
    with timed():
        points = [(parab, matrices.QMat(rows)) for parab, rows in drawn]
    every = 5 if small else 40
    # (-1)^dim U with dim U = sum_{i<j} n_i n_j, and at every `every`-th point
    # the full adjoint determinants, all made apart from the program
    references = []
    for k, (parab, rows) in enumerate(drawn):
        blocks = parab.blocks
        dim_radical = sum(a * b for i, a in enumerate(blocks) for b in blocks[i + 1:])
        full = (independent.discriminants(parab.n, blocks, parab.orientation, rows)[:3]
                if k % every == 0 else None)
        references.append((-1 if dim_radical % 2 else 1, full))
    return SimpleNamespace(ops=len(points) + len(points[::every]), points=points,
                           references=references)


def round_disc(inp, rnd, corrupt=False):
    for (parab, m), (sign, full) in zip(inp.points, inp.references):
        with rnd.timed():
            d_p = groups.discriminant_delta(SubgroupSpec.parabolic(parab), m)
            d_m = groups.discriminant_delta(SubgroupSpec.levi(parab), m)
            lam = groups.modulus_lambda(parab, m)
        if corrupt and full is not None:
            lam = -lam
        rnd.check(d_p * d_p == sign * d_m * lam, f"Delta_P^2 = +-Delta_M lambda_P for {parab}")
        if full is not None:
            rnd.check((d_p, d_m, lam) == full, f"full adjoint determinants for {parab}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gl3-restriction", setup_gl3, round_gl3, 18),
        Workload("gl2-induction-descent", setup_gl2, round_gl2, 12),
        Workload("ff-induced-classes", setup_ff, round_ff, 7),
        Workload("discriminant-identity", setup_disc, round_disc, 4),
    )
}

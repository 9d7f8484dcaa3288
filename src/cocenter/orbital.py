"""Split-torus orbital integrals on GL_n and on its Levi subgroups, exactly.

On each Levi block the Iwasawa frame T U K_0 leaves an integral over the
upper unipotent U: u^-1 gamma u = gamma n is a triangular change of
variable with Jacobian prod_{i<j} |1 - gamma_j / gamma_i|, and the n with
gamma n in x K_m form one coset of U meet K_m or none.  That coset is
read off the label (p^e, H, kbar) of x = (H / p^e) lift(kbar): gamma^-1
x K_m meets U exactly when kbar is upper triangular and x_ii / gamma_i =
H_ii kbar_ii / (p^e gamma_i) lies in 1 + p^m Z_p.
Only measures flagged invariant under conjugation by the maximal compact
subgroup (K_0 on G, M meet K_0 on a Levi) are integrated: all conjugates
of a label contribute equally, so each label is tested once and weighted
by the order of the finite quotient.  Restrictions of invariant measures
keep the flag, so orbital integrals on G and on M run the same code.
Every other factor is p to a sum of v_p(1 - gamma_j / gamma_i) =
v_p(u_i w_j - u_j w_i) - v_p(u_i w_j), gamma_i = u_i / w_i, on integers;
the Jacobian cancels the roots i < j of |Delta_{T, M}|, so one exponent,
over i > j in one block, is left.  No truncation and no sampling occur.

Normalizations (Kottwitz, "Harmonic analysis on reductive p-adic groups
and Lie algebras", 2005), recorded on every value: Haar on each ambient
group gives its level subgroup mass 1; Haar on the diagonal torus gives
its level subgroup mass 1; the value is the orbit density times
|Delta_{T, GL_k}| on each block.  Only split diagonal tori are
implemented; for GL_n these see a single rational orbit per stable class,
which every value records.

`descent_values` is the one checker of orbital descent; the `orbital` CLI
suite and the acceptance criteria run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    RootP,
    int_valuation,
    p_power_norm_halfpower,
    padic_valuation,
)
from cocenter.groups import BlockParabolic
from cocenter.matrices import PrimeContext, QMat, enumerate_glnzm, gauss_jordan, glnzm_order
from cocenter.measures import Ambient, HeckeMeasure, canonical_rep, conjugation_level
from cocenter.measures import label_conjugation, require_levi


@dataclass(frozen=True)
class RegularElement:
    """Diagonal element with pairwise distinct nonzero rational eigenvalues."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(Fraction(x) for x in self.entries)
        object.__setattr__(self, "entries", entries)
        if any(x == 0 for x in entries):
            raise DomainError("eigenvalues must be nonzero")
        if len(set(entries)) != len(entries):
            raise DomainError("eigenvalues must be pairwise distinct (regular)")

    @property
    def n(self):
        return len(self.entries)

    def valuations(self, p: int):
        return tuple(padic_valuation(x, p) for x in self.entries)


@dataclass(frozen=True)
class OrbitalValue:
    value: RootP
    p: int
    m: int
    #: number of rational orbits summed; 1 for split tori in GL_n
    orbit_count: int = 1

    @property
    def normalization(self):
        return (
            f"Haar(G): K_{self.m} has mass 1; Haar(T): T meet K_{self.m} has mass 1"
        )


def _meets_unipotent(label, ratios, ctx: PrimeContext) -> bool:
    """[gamma^-1 x K_m meets U] for the label (p^e, H, kbar) of x, U the
    upper unipotent, gamma_i = u_i / w_i given as the integer ratios
    (u_i, w_i): kbar is upper triangular and x_ii / gamma_i is in 1 + p^m Z_p.

    With x = (H / p^e) lift(kbar), gamma^-1 H is upper triangular, so the
    coset meets the Borel B exactly when lift(kbar) is upper triangular.
    The coset then meets B in gamma^-1 x (B meet K_m), which meets U iff
    the diagonal of gamma^-1 x lies in T meet K_m.  With x_ii = a / b,
    a = H_ii kbar_ii and b = p^e, that is v_p(a w_i - b u_i) - v_p(b u_i)
    >= m unless a w_i = b u_i, on integers.
    """
    b, h, kbar = label
    if any(kbar[i][j] for i in range(len(h)) for j in range(i)):
        return False
    p, m = ctx.p, ctx.m
    for i, (u, w) in enumerate(ratios):
        diff = h[i][i] * kbar[i][i] * w - b * u
        if diff and int_valuation(diff, p) - int_valuation(b * u, p) < m:
            return False
    return True


def _root_valuation(ratios, positions, p: int) -> int:
    """Sum of v_p(1 - gamma_j / gamma_i) = v_p(u_i w_j - u_j w_i) - v_p(u_i w_j)
    over the positions (i, j), gamma_i = u_i / w_i given as integer ratios."""
    terms = [(ratios[i][0] * ratios[j][1], ratios[j][0] * ratios[i][1]) for i, j in positions]
    return sum(int_valuation(a - b, p) - int_valuation(a, p) for a, b in terms)


def _level_constant(blocks, ctx: PrimeContext, v: int) -> Fraction:
    """p^(v - m dim U_M) |M(Z/p^m)| / [T meet K_0 : T meet K_m] for the
    Levi M = GL_(b_1) x ... of the blocks, U_M its upper unipotent.  At v
    the valuation of the roots i < j in one block it is E_M(gamma): the
    quotient order over the torus index weighs the conjugates of one
    label, and p^(-m dim U_M) is the volume of U_M meet K_m, pulled back
    along u -> n of Jacobian prod_{i<j} |1 - gamma_j / gamma_i| = p^-v."""
    p, m = ctx.p, ctx.m
    e = v - m * sum(k * (k - 1) // 2 for k in blocks)
    order = prod(glnzm_order(k, p, m) for k in blocks) * p ** max(e, 0)
    return Fraction(order, (p**m - p ** (m - 1)) ** sum(blocks) * p ** max(-e, 0))


def orbital_single_coset_gl2(
    y: QMat, gamma, ctx: PrimeContext, guard: int = DEFAULT_GROUP_ORDER_GUARD
) -> Fraction:
    """Orbital density of the unit mass coset measure mu|_(y K_m) at gamma,
    on GL_k for any k = y.n, without the |Delta| factor.

    Sums the label test over the conjugates k y k^-1, whose labels
    `label_conjugation` moves, k running over K_0 modulo the
    `conjugation_level` of y: E_k(gamma) * hits / |K_0 / K_level|.  Exact for
    arbitrary (not necessarily invariant) cosets.  The guard bounds the
    quotient, which is enumerated on every call.  It is the quotient-sum
    reference that the tests compare `orbital_integral` against.
    """
    x = canonical_rep(Ambient.general_linear(y.n), y, ctx)
    quotient = enumerate_glnzm(y.n, PrimeContext(ctx.p, conjugation_level([x], ctx)), guard)
    ratios = [g.as_integer_ratio() for g in gamma]
    hits = sum(_meets_unipotent(label_conjugation(k, ctx)(x), ratios, ctx) for k in quotient)
    v = _root_valuation(ratios, [(i, j) for i in range(y.n) for j in range(i + 1, y.n)], ctx.p)
    return _level_constant((y.n,), ctx, v) * Fraction(hits, len(quotient))


def orbital_integral(h: HeckeMeasure, gamma: RegularElement) -> OrbitalValue:
    """Orbital integral of h at a regular diagonal gamma, on any Levi ambient.

    O_gamma(h) = |Delta_{T, M}(gamma)| E_M(gamma) * sum of c_x over the
    labels x that pass `_meets_unipotent`, each Levi block of a label on M
    being the label of that block.  h must carry the flag of invariance
    under conjugation by the ambient's maximal compact subgroup, so each
    label is tested once; an unflagged measure is refused.  |Delta_{T, M}|
    is the product of |1 - gamma_j / gamma_i| over i != j in one block of M
    and the Jacobian in E_M cancels its roots i < j: the constant is
    `_level_constant` at minus the valuation of the roots i > j, built only
    when some label passes.  The passing c_x are summed by component into
    one exact element of Q(sqrt p).
    """
    ctx, ambient = h.ctx, h.ambient
    if gamma.n != ambient.n:
        raise DomainError("size mismatch")
    if not h.biinvariant:
        raise DomainError("orbital integrals take measures flagged conjugation-invariant")
    ratios = [g.as_integer_ratio() for g in gamma.entries]
    hits = [c for label, c in h.items() if _meets_unipotent(label, ratios, ctx)]
    if not hits:
        return OrbitalValue(RootP._wrap(Fraction(0), Fraction(0), ctx.p), ctx.p, ctx.m)
    lower = [(i, j) for i, j in ambient.parab.positions("M") if i > j]
    const = _level_constant(ambient.parab.blocks, ctx, -_root_valuation(ratios, lower, ctx.p))
    a, b = sum(c.a for c in hits), sum(c.b for c in hits)
    return OrbitalValue(RootP._wrap(a * const, b * const, ctx.p), ctx.p, ctx.m)


def descent_values(h: HeckeMeasure, grid, sides, mutate_normalization: bool = False):
    """(on_g, per_side): on_g[g] = O_gamma(h) and, for each (parab, res_m)
    of `sides`, per_side[s][g] = (|Delta_{M,G}(gamma)|^(1/2), O_gamma(res_m))
    at gamma = grid[g].  Descent holds at gamma when O_gamma(h) is their
    product, for res_m = res_normalized(h, parab).  O_gamma(h) is integrated
    once per gamma for all sides; a res_m on another Levi, or an unflagged
    measure, is refused.  The mutation flag takes the full norm instead of
    the half power, which must break descent somewhere on a valuation grid.
    """
    for parab, res_m in sides:
        require_levi(res_m, parab)
    on_g = [orbital_integral(h, gamma).value for gamma in grid]
    p = h.ctx.p
    return on_g, [[(descent_factor(gamma, parab, p, mutate_normalization),
                    orbital_integral(res_m, gamma).value) for gamma in grid]
                  for parab, res_m in sides]


def descent_check(h: HeckeMeasure, gamma: RegularElement, parab: BlockParabolic,
                  res_m: HeckeMeasure, mutate_normalization: bool = False):
    """`descent_values` at one gamma through one parabolic, as (ok, lhs, rhs)."""
    (lhs,), (((factor, value),),) = descent_values(h, (gamma,), ((parab, res_m),),
                                                   mutate_normalization)
    rhs = factor * value
    return lhs == rhs, lhs, rhs


def descent_factor(gamma, parab: BlockParabolic, p: int, mutate_normalization=False):
    """|Delta_{M,G}(gamma)|^(1/2), the factor of the descent identity; the
    mutation flag takes the full norm instead.  Up to sign Delta_{M,G}(gamma)
    is the product of (1 - gamma_j / gamma_i) over the positions of G/M, so
    its norm is that of p to the `_root_valuation` there."""
    v = _root_valuation([g.as_integer_ratio() for g in gamma.entries], parab.positions("G/M"), p)
    return p_power_norm_halfpower(v, p, 2 if mutate_normalization else 1)


def gamma_grid(p: int, n: int, val_range=(-2, 2)):
    """Regular diagonal grid: eigenvalue i is unit_i * p^(v_i).

    For n = 2 the grid runs over all valuation pairs in the window; for
    n = 3 the third eigenvalue is pinned at a unit so the grid size matches
    the rank two case.  Distinct unit multipliers keep every point regular.
    """
    if n not in (2, 3):
        raise DomainError("grids are provided for n in {2, 3}")
    units = [u for u in (1, 3, 5, 7, 11) if u % p != 0]
    window = range(val_range[0], val_range[1] + 1)
    return [
        RegularElement(
            tuple(Fraction(u) * Fraction(p) ** v for u, v in zip(units, (v1, v2, 0)[:n]))
        )
        for v1 in window
        for v2 in window
    ]


def separation_rank(values) -> int:
    """Rank over Q(sqrt p) of a pairing matrix given as nested lists."""
    rows = [list(r) for r in values]
    return gauss_jordan(rows, len(rows[0]) if rows else 0, RootP.inverse, lambda x: x)


def joint_kernel_dimension(matrices) -> int:
    """Dimension of the common left kernel of stacked pairing matrices."""
    stacked = []
    nrows = len(matrices[0])
    for i in range(nrows):
        row = []
        for m in matrices:
            row.extend(m[i])
        stacked.append(row)
    return nrows - separation_rank(stacked)

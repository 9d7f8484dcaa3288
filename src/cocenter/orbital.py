"""Split-torus orbital integrals on GL_2 and on Levi subgroups, exactly.

The orbital integral of a level coset measure against a regular diagonal
gamma is a finite sum of volumes of balls in the unipotent coordinate: in
the Iwasawa frame T U K_0, the conjugate u(x)^-1 gamma u(x) is upper
triangular with off entry x (gamma_1 - gamma_2), and membership in a level
coset is an intersection of balls in that entry, computed exactly from
valuations.  Conjugation by the maximal compact subgroup (K_0 on G, M meet
K_0 on a Levi) is folded in exactly.  A measure flagged invariant under it
has all conjugates contributing equally, so each coset takes one ball
volume per GL_2 block times the order of the finite quotient; any other
measure sums its cosets over that quotient.  Restrictions of invariant
measures keep the flag, so orbital integrals on G and on M run the same
block loop.  No truncation and no sampling occur anywhere.

Normalizations, recorded on every value: Haar on each ambient group gives
its level subgroup mass 1; Haar on the diagonal torus gives its level
subgroup mass 1.  Only split diagonal tori are implemented; for GL_n these
see a single rational orbit per stable class, which every value records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    RootP,
    padic_norm_halfpower,
    padic_valuation,
)
from cocenter.groups import BlockParabolic, SubgroupSpec, discriminant_delta
from cocenter.matrices import (
    PrimeContext, QMat, enumerate_transversal_K0_mod_Km, gauss_jordan, glnzm_order,
    integer_form,
)
from cocenter.measures import HeckeMeasure, label_spread


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

    def matrix(self) -> QMat:
        return QMat.diagonal(self.entries)

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


def _torus_unit_index(ctx: PrimeContext) -> int:
    """[T meet K_0 : T meet K_m] for the rank two diagonal torus."""
    phi = ctx.p**ctx.m - ctx.p ** (ctx.m - 1)
    return phi * phi


def _inverse_gl2(y: QMat) -> QMat:
    """y^-1 for 2 x 2 y = A / den, read off the integer form:
    den * adj(A) / det A, with adj(A) = (d, -b; -c, a)."""
    ((a, b), (c, d)), den = integer_form(y.rows)
    det = a * d - b * c
    if det == 0:
        raise DomainError("singular matrix")
    return QMat._wrap(((Fraction(den * d, det), Fraction(-den * b, det)),
                       (Fraction(-den * c, det), Fraction(den * a, det))))


def _ball_volume_gl2(yinv: QMat, gamma, ctx: PrimeContext) -> Fraction:
    """vol{x in Q_p : u(x)^-1 gamma u(x) in y K_m}, with vol(Z_p) = 1,
    given yinv = y^-1.

    The conjugate is [[g1, e],[0, g2]] with e = x (g1 - g2); each matrix
    entry of y^-1 * conjugate imposes a ball condition on e, and the
    intersection of balls in an ultrametric line is a ball or empty.
    """
    p, m = ctx.p, ctx.m
    g1, g2 = gamma
    # z0 = y^-1 diag(g1, g2); w = y^-1 E_12 (only column 2 is nonzero)
    balls = []  # (center, radius) meaning v(e - center) >= radius
    for i in range(2):
        for j in range(2):
            alpha = yinv[i, 0] * (g1 if j == 0 else 0) + yinv[i, 1] * (0 if j == 0 else g2)
            alpha = alpha - (1 if i == j else 0)
            beta = yinv[i, 0] if j == 1 else Fraction(0)
            if beta == 0:
                if alpha != 0 and padic_valuation(alpha, p) < m:
                    return Fraction(0)
                continue
            center = -alpha / beta
            radius = m - padic_valuation(beta, p)
            balls.append((center, radius))
    if not balls:
        raise RuntimeError(f"{yinv} is singular: it leaves the unipotent entry free")
    r_star = max(r for _, r in balls)
    c_star = next(c for c, r in balls if r == r_star)
    for c, r in balls:
        diff = c_star - c
        if diff != 0 and padic_valuation(diff, p) < r:
            return Fraction(0)
    # back to the unipotent coordinate x = e / (g1 - g2)
    shift = padic_valuation(g1 - g2, p)
    return Fraction(p) ** (shift - r_star)


def orbital_single_coset_gl2(
    y: QMat, gamma, ctx: PrimeContext, guard: int = DEFAULT_GROUP_ORDER_GUARD
) -> Fraction:
    """Orbital integral of the unit mass coset measure mu|_(y K_m) at gamma.

    Sums the ball volumes over the finite conjugation quotient K_0 / K_m',
    where m' = m + spread(y) is the level at which conjugation acts on the
    coset; exact for arbitrary (not necessarily invariant) cosets.  The
    guard bounds the quotient, which is enumerated on every call.
    """
    p, m = ctx.p, ctx.m
    level = m + label_spread(y, p)
    yinv = _inverse_gl2(y)
    total = Fraction(0)
    for k in enumerate_transversal_K0_mod_Km(2, PrimeContext(p, level), guard):
        # (k y k^-1)^-1 = k y^-1 k^-1
        total += _ball_volume_gl2(k * yinv * _inverse_gl2(k), gamma, ctx)
    # mass of a K_level coset inside K_0 under the level-m reference measure
    return total * Fraction(1, p ** (4 * (level - m))) / _torus_unit_index(ctx)


def _rank2_jacobian(gamma, p: int) -> Fraction:
    """|Delta_{T, GL_2}(gamma)|_p, the density factor of the etale pullback
    from the conjugation cover; the map this package calls the orbital
    integral is the density of that pullback, not the bare orbit volume."""
    g1, g2 = gamma
    delta = (g1 / g2 - 1) * (g2 / g1 - 1)
    return Fraction(p) ** (-padic_valuation(delta, p))


def _orbital_gl1(rep: QMat, gamma_i: Fraction, ctx: PrimeContext) -> Fraction:
    """Density of the unit coset measure on GL_1 at gamma_i: 1 or 0."""
    ratio = gamma_i / rep[0, 0]
    diff = ratio - 1
    if diff == 0 or padic_valuation(diff, ctx.p) >= ctx.m:
        return Fraction(1)
    return Fraction(0)


def orbital_integral(
    h: HeckeMeasure, gamma: RegularElement, guard: int = DEFAULT_GROUP_ORDER_GUARD
) -> OrbitalValue:
    """Orbital integral of h at a regular diagonal gamma.

    Any Levi ambient with blocks of size <= 2 is supported: G = GL_1 and
    GL_2 as one block, and the Levi subgroups of GL_3 needed downstream.
    The integral factors block by block.  A flagged measure is
    invariant under conjugation by the ambient's maximal compact subgroup,
    so a GL_2 block takes one ball volume per coset; an unflagged one sums
    over the conjugation quotient, which the guard bounds.  Values are
    exact elements of Q(sqrt p).
    """
    ctx, ambient = h.ctx, h.ambient
    if gamma.n != ambient.n:
        raise DomainError("size mismatch")
    ranges = ambient.parab.block_ranges
    if any(hi - lo > 2 for lo, hi in ranges):
        raise DomainError("orbital integrals are certified only on blocks of size <= 2")
    subs = [gamma.entries[lo:hi] for lo, hi in ranges]
    # per GL_2 block: the jacobian, and for a flagged measure the quotient
    # order over the torus index, since all conjugates contribute equally
    weight = 1
    if h.biinvariant:
        weight = Fraction(glnzm_order(2, ctx.p, ctx.m), _torus_unit_index(ctx))
    const = Fraction(1)
    for sub in subs:
        if len(sub) == 2:
            const *= weight * _rank2_jacobian(sub, ctx.p)
    out = RootP.rational(0, ctx.p)
    for rep, c in h.items():
        factor = None
        for (lo, hi), sub in zip(ranges, subs):
            block = QMat._wrap(tuple([row[lo:hi] for row in rep.rows[lo:hi]]))
            if len(sub) == 1:
                value = _orbital_gl1(block, sub[0], ctx)
            elif h.biinvariant:
                value = _ball_volume_gl2(_inverse_gl2(block), sub, ctx)
            else:
                value = orbital_single_coset_gl2(block, sub, ctx, guard)
            if not value:
                break
            factor = value if factor is None else factor * value
        else:
            out = out + c * factor
    return OrbitalValue(out * const, ctx.p, ctx.m)


def descent_check(
    h: HeckeMeasure,
    gamma: RegularElement,
    parab: BlockParabolic,
    res_m: HeckeMeasure,
    mutate_normalization: bool = False,
    guard: int = DEFAULT_GROUP_ORDER_GUARD,
):
    """O_gamma(h) = |Delta_{M,G}(gamma)|^(1/2) * O_gamma(res_normalized h).

    res_m must be the normalized restriction of h through parab.  The
    mutation flag replaces the half power by the full norm, which must
    break the identity somewhere on a valuation grid.
    """
    lhs = orbital_integral(h, gamma, guard).value
    delta = discriminant_delta(SubgroupSpec.levi(parab), gamma.matrix())
    power = 2 if mutate_normalization else 1
    factor = padic_norm_halfpower(delta, h.ctx.p, power)
    rhs = factor * orbital_integral(res_m, gamma, guard).value
    return lhs == rhs, lhs, rhs


def gamma_grid(p: int, n: int, val_range=(-2, 2)):
    """Regular diagonal grid: eigenvalue i is unit_i * p^(v_i).

    For n = 2 the grid runs over all valuation pairs in the window; for
    n = 3 the third eigenvalue is pinned at a unit so the grid size matches
    the rank two case.  Distinct unit multipliers keep every point regular.
    """
    units = [u for u in (1, 3, 5, 7, 11) if u % p != 0]
    lo, hi = val_range
    out = []
    if n == 2:
        for v1 in range(lo, hi + 1):
            for v2 in range(lo, hi + 1):
                out.append(
                    RegularElement(
                        (Fraction(units[0]) * Fraction(p) ** v1,
                         Fraction(units[1]) * Fraction(p) ** v2)
                    )
                )
    elif n == 3:
        for v1 in range(lo, hi + 1):
            for v2 in range(lo, hi + 1):
                out.append(
                    RegularElement(
                        (Fraction(units[0]) * Fraction(p) ** v1,
                         Fraction(units[1]) * Fraction(p) ** v2,
                         Fraction(units[2]))
                    )
                )
    else:
        raise DomainError("grids are provided for n in {2, 3}")
    return out


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

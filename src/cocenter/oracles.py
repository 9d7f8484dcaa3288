"""Independent brute-force oracles for the restriction machinery.

The constant term oracle recomputes the restriction of the first diagonal
double coset indicator without touching transversals, conjugation pullback,
coset intersection or pushforward code: it decomposes the double coset into
its p + 1 left cosets by hand, integrates the indicator fiberwise over the
unipotent coordinate against an explicit Iwasawa coordinate measure, and
assembles the Levi measure directly.  Agreement with the level-m machinery
is an acceptance requirement, not an assumption.
"""

from __future__ import annotations

from fractions import Fraction

from cocenter.exactnum import DomainError, padic_norm_halfpower, padic_valuation
from cocenter.groups import BlockParabolic
from cocenter.matrices import PrimeContext, QMat, gln_zp_membership, glnzm_order
from cocenter.measures import Ambient, HeckeMeasure


def left_coset_reps_diag_p(p: int):
    """The p + 1 left K_0 cosets of K_0 diag(p,1) K_0, with certificates.

    Column lattices of index p in Z_p^2 biject with the p + 1 points of the
    projective line over F_p; the representatives are checked pairwise
    inequivalent and individually inside the double coset.
    """
    reps = [QMat([[p, j], [0, 1]]) for j in range(p)] + [QMat([[1, 0], [0, p]])]
    for r in reps:
        # inside K_0 diag(p,1) K_0: integral, v(det) = 1, nonzero mod p
        if not all(padic_valuation(x, p) >= 0 for x in r.entries()):
            raise RuntimeError(f"{r} is not integral")
        if padic_valuation(r.det(), p) != 1:
            raise RuntimeError(f"det {r} does not have valuation 1")
        if not any(padic_valuation(x, p) == 0 for x in r.entries()):
            raise RuntimeError(f"{r} vanishes mod {p}")
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            if gln_zp_membership(a.inverse() * b, p):
                raise RuntimeError(f"{a} and {b} lie in one left K_0 coset")
    return reps


def _fiber_volume(t1: Fraction, t2: Fraction, rep: QMat, p: int) -> Fraction:
    """vol{xi : diag(t1,t2) u(xi) in rep K_0}, with vol(Z_p) = 1.

    Membership asks rep^-1 diag(t1,t2) u(xi) to be integral with unit
    determinant; each entry is affine in xi, giving an intersection of
    ultrametric balls.
    """
    if padic_valuation(t1 * t2, p) != padic_valuation(rep.det(), p):
        return Fraction(0)
    rinv = rep.inverse()
    # entries of rinv * [[t1, t1 xi], [0, t2]]
    balls = []
    for i in range(2):
        const0 = rinv[i, 0] * t1
        const1 = rinv[i, 1] * t2
        slope = rinv[i, 0] * t1  # coefficient of xi in column 2
        if padic_valuation(const0, p) < 0 and const0 != 0:
            return Fraction(0)
        if slope == 0:
            if const1 != 0 and padic_valuation(const1, p) < 0:
                return Fraction(0)
            continue
        # v(const1 + slope * xi) >= 0
        balls.append((-const1 / slope, -padic_valuation(slope, p)))
    if not balls:
        return Fraction(1)
    radius = max(r for _, r in balls)
    center = next(c for c, r in balls if r == radius)
    for c, r in balls:
        diff = center - c
        if diff != 0 and padic_valuation(diff, p) < r:
            return Fraction(0)
    return Fraction(p) ** (-radius)


def constant_term_oracle_gl2(ctx: PrimeContext, normalized: bool = False) -> HeckeMeasure:
    """Direct-integration restriction of the diag(p,1) double coset indicator.

    Returns the measure on the diagonal torus whose coefficient at the
    coset of t is [K_0 : K_m] / [B meet K_0 : B meet K_m] times the
    unipotent fiber volume of the indicator at t (in units where the level
    part of the unipotent group has mass 1), optionally twisted by
    |lambda_B|^(1/2).
    """
    p, m = ctx.p, ctx.m
    reps = left_coset_reps_diag_p(p)
    parab = BlockParabolic(2, (1, 1), "upper")
    ambient = Ambient.levi(parab)
    # index of the mod p^m Borel inside the mod p^m group
    phi = p**m - p ** (m - 1)
    borel_order = phi * phi * p**m
    scale = Fraction(glnzm_order(2, p, m), borel_order) * p**m
    units = [u for u in range(1, p**m) if u % p != 0]
    pairs = []
    for va, vb in ((1, 0), (0, 1)):
        for u1 in units:
            for u2 in units:
                t1 = Fraction(u1) * Fraction(p) ** va
                t2 = Fraction(u2) * Fraction(p) ** vb
                vol = Fraction(0)
                for rep in reps:
                    vol += _fiber_volume(t1, t2, rep, p)
                if vol == 0:
                    continue
                coeff = scale * vol
                if normalized:
                    coeff = padic_norm_halfpower(t1 / t2, p, 1) * coeff
                pairs.append((QMat.diagonal([t1, t2]), coeff))
    if not pairs:
        raise DomainError("empty constant term")
    return HeckeMeasure.from_pairs(ambient, ctx, pairs)

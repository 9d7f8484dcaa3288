"""Level-m coset measures on Levi subgroups and the parabolic restriction map.

Measures live on the Levi M of a block composition of n; G = GL_n is the
Levi of the one-block composition (n,).  A measure is a finite linear
combination of reference-Haar restrictions to level cosets:
h = sum c_x * mu|_{x K}, where K = K_m meet M is the principal congruence
subgroup of the ambient (K_m itself on G) and mu gives each level coset
mass 1.  Restriction from an ambient M (G is the one-block M) to the Levi
L of a parabolic P refining M's blocks is a three step recipe: conjugate
over a transversal of (P meet M)\\M/(M meet K_m) inside M meet K_0,
restrict each conjugate to P coset by coset, push to L along the block
projection, and sum.  It is only taken of measures invariant under
conjugation by M meet K_0, so every conjugate is the measure itself, and
the sum collapses:

    res_P h = |M(Z/p^m)| / |(P meet M)(Z/p^m)| * sum of c_x delta[proj_L(x K_m meet P)],

over the support cosets that meet P.  The normalized variant twists by
|lambda_P|^(1/2) of P meet M, so both satisfy restriction in stages.
K_m = (K_m meet U-)(K_m meet L)(K_m meet U) exactly, which makes the block
projection carry level cosets of P to level cosets of L.

A measure stores each level coset once, as a dict from its label to its
nonzero coefficient: x K_m = (H / p^e) lift(kbar) K_m is labelled by its
Iwasawa split (p^e, H, kbar), H the column Hermite form of p^e x and kbar
its cofactor mod p^m as integer rows, e least.  A label is made once
(`canonical_rep`, `levi_measure`, or as built), never split again, and
conjugated and twisted as it is; `label_matrix` gives its QMat for JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    LevelError,
    RootP,
    int_valuation,
    json_field,
    p_power_norm_halfpower,
)
from cocenter.groups import BlockParabolic, iwasawa_decompose, iwasawa_int, iwasawa_mod
from cocenter.matrices import (
    PrimeContext,
    QMat,
    block_gln_generators,
    conjugation_closure,
    enumerate_glnzm,
    gln_zp_membership,
    gln_generators,
    glnzm_order,
    hermite_int,
    integer_form,
    mat_mod,
    mat_mul,
    product_map,
)


@dataclass(frozen=True)
class Ambient:
    """The group a measure lives on: the Levi M of a block composition of n.

    G = GL_n is the Levi of the one-block composition (n,), whose parabolic
    is G itself.  Upper and lower parabolics with the same blocks share the
    same Levi, so construction normalizes the orientation to upper.
    """

    parab: BlockParabolic

    def __post_init__(self):
        if self.parab.orientation != "upper":
            object.__setattr__(self, "parab", BlockParabolic(self.parab.n, self.parab.blocks))

    @classmethod
    def general_linear(cls, n: int) -> "Ambient":
        return cls(BlockParabolic(n, (n,)))

    @classmethod
    def levi(cls, parab: BlockParabolic) -> "Ambient":
        return cls(parab)

    @property
    def n(self) -> int:
        return self.parab.n

    @property
    def is_group(self) -> bool:
        """True on G = GL_n, the Levi of the one-block composition."""
        return len(self.parab.blocks) == 1


def canonical_rep(ambient: Ambient, g: QMat, ctx: PrimeContext):
    """The label (p^e, H, kbar) of the level coset of g inside the ambient.

    For y, y' in the ambient subgroup, y' in y K_m already implies
    y^-1 y' lies in the ambient, so coset equality agrees with equality of
    the ambient-level cosets.  One `iwasawa_mod` split of g = A / d gives
    it on every Levi, as the Hermite form of a block diagonal A is block
    diagonal; e is least as d is the lcm of the denominators of g.
    """
    if not ambient.parab.levi_contains(g):
        raise DomainError("element not in the Levi")
    h, kbar, pe = iwasawa_mod(*integer_form(g.rows), ambient.parab, ctx)
    return pe, tuple(map(tuple, h)), kbar


def label_matrix(label) -> QMat:
    """The canonical QMat H lift(kbar) / p^e of the label (p^e, H, kbar)."""
    pe, h, kbar = label
    return QMat.over(mat_mul(h, tuple(zip(*kbar))), pe)


def coset_meets_parabolic(rep: QMat, parab: BlockParabolic, ctx: PrimeContext):
    """A representative of (rep K_m) meet P, or None when the coset misses P.

    Decision by reduction modulo p^m: after an Iwasawa splitting rep = q k,
    the coset meets P exactly when k mod p^m is block triangular, and then
    q times the integral lift of k mod p^m is such a representative.  This
    is the QMat form of the test; `res_unnormalized` makes the same test on
    integer labels.
    """
    q, k = iwasawa_decompose(rep, parab, ctx.p)
    kbar = mat_mod(k, ctx.modulus, ctx.p)
    if not parab.vanishes(kbar, "G/P"):
        return None
    return q * QMat(kbar)


class HeckeMeasure:
    """Finitely supported level-m coset measure with Q(sqrt p) coefficients.

    support maps the label (p^e, H, kbar) of each level coset to its
    nonzero coefficient; zero coefficients are dropped.  `from_pairs`,
    `coefficient` and `measure_from_jsonable` label QMats by
    `canonical_rep`; the other constructors build labels or reuse those of
    existing measures, and __init__ trusts them.  The biinvariant flag
    asserts invariance under conjugation pullback by the maximal compact
    subgroup of the ambient: K_0 on G, M meet K_0 on M; a sum keeps it
    when both terms carry it.  `is_ad_invariant` verifies it on quotient
    generators.
    """

    __slots__ = ("ambient", "ctx", "support", "biinvariant")

    def __init__(self, ambient: Ambient, ctx: PrimeContext, support=None, biinvariant=False):
        self.ambient = ambient
        self.ctx = ctx
        self.support = {}
        for rep, coeff in (support or {}).items():
            coeff = _as_rootp(coeff, ctx.p)
            if coeff:
                self.support[rep] = coeff
        self.biinvariant = biinvariant

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_pairs(cls, ambient, ctx, pairs, biinvariant=False) -> "HeckeMeasure":
        acc = {}
        for g, coeff in pairs:
            rep = canonical_rep(ambient, g, ctx)
            coeff = _as_rootp(coeff, ctx.p)
            acc[rep] = acc[rep] + coeff if rep in acc else coeff
        return cls(ambient, ctx, acc, biinvariant)

    @classmethod
    def delta(cls, ambient, ctx, g, coeff=1) -> "HeckeMeasure":
        return cls.from_pairs(ambient, ctx, [(g, coeff)])

    def items(self):
        return self.support.items()

    def coefficient(self, g: QMat) -> RootP:
        rep = canonical_rep(self.ambient, g, self.ctx)
        return self.support.get(rep) or RootP.rational(0, self.ctx.p)

    def total_mass(self) -> RootP:
        return sum(self.support.values(), RootP.rational(0, self.ctx.p))

    def scale(self, factor) -> "HeckeMeasure":
        factor = _as_rootp(factor, self.ctx.p)
        return HeckeMeasure(
            self.ambient,
            self.ctx,
            {rep: c * factor for rep, c in self.support.items()},
            self.biinvariant,
        )

    def __add__(self, other: "HeckeMeasure") -> "HeckeMeasure":
        if self.ambient != other.ambient or self.ctx != other.ctx:
            raise DomainError("ambient mismatch")
        acc = dict(self.support)
        for rep, c in other.support.items():
            acc[rep] = acc[rep] + c if rep in acc else c
        return HeckeMeasure(self.ambient, self.ctx, acc, self.biinvariant and other.biinvariant)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeMeasure)
            and self.ambient == other.ambient
            and self.ctx == other.ctx
            and self.support == other.support
        )

    def __len__(self):
        return len(self.support)

    def __repr__(self):
        blocks, ctx = self.ambient.parab.blocks, self.ctx
        return f"HeckeMeasure(blocks={blocks}, p={ctx.p}, m={ctx.m}, {len(self)} cosets)"


def _as_rootp(coeff, p: int) -> RootP:
    if isinstance(coeff, RootP):
        return coeff
    return RootP(Fraction(coeff), 0, p)


# ---------------------------------------------------------------------------
# basic constructions


def unit_measure(ambient: Ambient, ctx: PrimeContext, guard=DEFAULT_GROUP_ORDER_GUARD):
    """Unit mass spread uniformly over the K_0 part of the ambient group,
    keyed by the labels (1, 1, kbar), 1 the identity rows."""
    n, levi = ambient.n, ambient.parab
    one = tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])
    labels = [(1, one, rows) for rows in enumerate_glnzm(n, ctx, guard)
              if levi.vanishes(rows, "G/M")]
    coeff = RootP.rational(Fraction(1, len(labels)), ctx.p)
    return HeckeMeasure(ambient, ctx, dict.fromkeys(labels, coeff), True)


# ---------------------------------------------------------------------------
# transversal of P \ G / K_m


class ParabolicTransversal:
    """Representatives of P\\G/K_m chosen inside K_0.

    Since G = P K_0, double cosets biject with orbits of the mod p^m
    parabolic acting on GL_n(Z/p^m) by left multiplication; the orbit
    partition is computed exhaustively, which is also the covering proof.
    """

    def __init__(self, parab: BlockParabolic, ctx: PrimeContext, guard=DEFAULT_GROUP_ORDER_GUARD):
        self.parab = parab
        self.ctx = ctx
        all_elements = enumerate_glnzm(parab.n, ctx, guard)
        pbar = [rows for rows in all_elements if parab.vanishes(rows, "G/P")]
        modulus = ctx.modulus
        lookup = {}
        reps = []
        for rows in all_elements:
            if rows in lookup:
                continue
            cols = tuple(zip(*rows))
            orbit = {mat_mul(q, cols, modulus) for q in pbar}
            idx = len(reps)
            reps.append(QMat(rows))
            for member in orbit:
                if member in lookup:
                    raise RuntimeError(f"P-orbits {lookup[member]} and {idx} overlap")
                lookup[member] = idx
        if len(lookup) != len(all_elements):
            raise RuntimeError(f"P-orbits cover {len(lookup)} of {len(all_elements)} elements")
        self.reps = reps
        self.lookup = lookup

    def __len__(self):
        return len(self.reps)


def _refined_levi(parab: BlockParabolic, ambient) -> BlockParabolic:
    """The ambient's blocks (G's when None); DomainError unless each block of parab lies in one."""
    levi = (ambient or Ambient.general_linear(parab.n)).parab
    if levi.n != parab.n or len(set(zip(parab.block_index, levi.block_index))) > len(parab.blocks):
        raise DomainError(f"blocks {parab.blocks} do not refine the Levi {levi.blocks}")
    return levi


def parabolic_double_coset_count(parab: BlockParabolic, ctx: PrimeContext, ambient=None) -> int:
    """|(P meet M)\\M/(M meet K_m)| = |M(Z/p^m)| / |(P meet M)(Z/p^m)|, M the
    Levi of the ambient (G when None), which P must refine: M is
    (P meet M)(M meet K_0), so the double cosets are the free orbits of
    (P meet M)(Z/p^m) on M(Z/p^m).  2 dim(U meet M) = sum_M k^2 - sum_P k^2."""
    p, m, levi = ctx.p, ctx.m, _refined_levi(parab, ambient)
    order_p = p ** (m * (sum(k * k for k in levi.blocks) - sum(k * k for k in parab.blocks)) // 2)
    for size in parab.blocks:
        order_p *= glnzm_order(size, p, m)
    return prod(glnzm_order(k, p, m) for k in levi.blocks) // order_p


def res_unnormalized(
    h: HeckeMeasure, parab: BlockParabolic, transversal: ParabolicTransversal | None = None
) -> HeckeMeasure:
    """Parabolic restriction from the ambient M of h to the Levi L of P.

    A level coset x K_m meets P in at most one level coset of P, so c_x
    moves unchanged to its Levi projection.  Requires the
    conjugation-invariance flag: each term g of the transversal sum
    restricts the pullback of h by g in M meet K_0, which is h itself.  The
    result carries the flag on L: L meet K_0 lies in P meet K_0, and both
    the restriction to P and P -> L commute with conjugation by it.  A
    transversal is not needed; one that is passed must belong to the same
    parabolic and level.  P must refine M's blocks.

    On labels x = (H / p^e) lift(kbar), block diagonal in M: each distinct
    H is split once through P, H = Q k (`iwasawa_int`), so x = (Q / p^e)
    lift(k kbar) up to K_m.  x K_m meets P iff k kbar mod p^m is block
    triangular, and then the block diagonal y of Q lift(k kbar) gives the
    Levi point y / p^e, which `levi_measure` labels on L.  When k = 1, as
    for every K_0 label (H = 1), k kbar is kbar and no product is formed.
    """
    if parab.n != h.ambient.n:
        raise DomainError(f"measure on GL_{h.ambient.n}, parabolic of GL_{parab.n}")
    count = parabolic_double_coset_count(parab, h.ctx, h.ambient)
    if not h.biinvariant:
        raise DomainError("restriction needs a conjugation-invariant measure")
    ctx = h.ctx
    if transversal is not None and (transversal.parab != parab or transversal.ctx != ctx):
        raise DomainError("transversal of another parabolic or level")
    modulus, n = ctx.modulus, parab.n
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    splits = {}
    points = []
    for (pe, hx, kbar), c in h.items():
        if hx not in splits:
            q, k = iwasawa_int(hx, parab, ctx.p)
            splits[hx] = q, None if k == one else k
        q, k = splits[hx]
        moved = kbar if k is None else mat_mul(k, tuple(zip(*kbar)), modulus)
        if parab.vanishes(moved, "G/P"):
            points.append(((parab.levi_product(q, moved), pe), c))
    return levi_measure(parab, ctx, points, True).scale(count)


def levi_measure(parab: BlockParabolic, ctx: PrimeContext, points, biinvariant=False):
    """The measure on the Levi M of parab with mass c at (y / p^e)(M meet K_m)
    for each ((y, p^e), c) in points, y block diagonal integer rows, merged
    on the labels (p^e, H(y), k(y) mod p^m) that `canonical_rep` gives:
    `hermite_int`(y) = (H(y), k(y)) is block diagonal as y is, and p is
    divided out of p^e and H(y) while it divides both.
    """
    p, modulus = ctx.p, ctx.modulus
    support = {}
    for (y, pe), c in points:
        hy, ky = hermite_int(y, p)
        while pe > 1 and not any(x % p for row in hy for x in row):
            hy, pe = [[x // p for x in row] for row in hy], pe // p
        key = pe, tuple(map(tuple, hy)), tuple([tuple([x % modulus for x in row]) for row in ky])
        support[key] = support[key] + c if key in support else c
    return HeckeMeasure(Ambient.levi(parab), ctx, support, biinvariant)


def require_levi(h_m: HeckeMeasure, parab: BlockParabolic) -> None:
    """Refuse a measure that does not live on the Levi of parab."""
    if h_m.ambient != Ambient.levi(parab):
        raise DomainError(f"measure on another Levi than that of {parab.blocks} in GL_{parab.n}")


def block_valuations(parab: BlockParabolic, label, p: int):
    """v_p(det m_a) for each block a of the Levi label (p^e, H, kbar) of m:
    the exponents of H's diagonal in block a, less e per row."""
    pe, h, _ = label
    e = int_valuation(pe, p)
    return [sum(int_valuation(h[i][i], p) for i in range(lo, hi)) - e * (hi - lo)
            for lo, hi in parab.block_ranges]


def normalize_on_levi(h_m: HeckeMeasure, parab: BlockParabolic, ambient=None) -> HeckeMeasure:
    """Twist a measure on the Levi L of parab by |lambda_P|^(1/2) coset by
    coset, lambda_P the modulus of P meet M, M the ambient (G when None)
    that P refines.  Well defined because lambda_P is a character whose
    p-adic norm is 1 on the level subgroup of L.  v_p(lambda_P(y)) is the
    sum of n_b v_a - n_a v_b over the block pairs (a, b) of the radical
    inside one block of M, v the `block_valuations` of y's label."""
    require_levi(h_m, parab)
    outer = dict(zip(parab.block_index, _refined_levi(parab, ambient).block_index))
    p, sizes = h_m.ctx.p, parab.blocks
    pairs = [(a, b) for a, b in parab.block_pairs("U") if outer[a] == outer[b]]
    out = {}
    for x, c in h_m.items():
        v = block_valuations(parab, x, p)
        power = sum(sizes[b] * v[a] - sizes[a] * v[b] for a, b in pairs)
        out[x] = c * p_power_norm_halfpower(power, p, 1)
    return HeckeMeasure(h_m.ambient, h_m.ctx, out, h_m.biinvariant)


def res_normalized(
    h: HeckeMeasure, parab: BlockParabolic, transversal: ParabolicTransversal | None = None
) -> HeckeMeasure:
    """Normalized restriction: res followed by the |lambda_P|^(1/2) twist."""
    return normalize_on_levi(res_unnormalized(h, parab, transversal), parab, h.ambient)


# ---------------------------------------------------------------------------
# conjugation on labels, invariance and symmetrized bases


def ad_pullback(h: HeckeMeasure, g: QMat) -> HeckeMeasure:
    """Conjugation pullback: mass c at x K_m moves to (g x g^-1) K_m.

    Acts on measures on G by g in K_0 and on M by g in M meet K_0, through
    `label_conjugation`.  Only such g keep K_m cosets at level m (K_m is
    normal in K_0); other g would silently refine the level and are refused.
    """
    if not h.ambient.parab.levi_contains(g):
        raise DomainError("conjugator outside the Levi")
    if not gln_zp_membership(g, h.ctx.p):
        raise LevelError("conjugator outside GL_n(Z_p) would change the level")
    conjugate = label_conjugation(integer_form(g.rows)[0], h.ctx)
    return HeckeMeasure(h.ambient, h.ctx, {conjugate(x): c for x, c in h.items()}, h.biinvariant)


def label_spread(rep: QMat, p: int) -> int:
    return int(-(rep.min_valuation(p) + rep.inverse().min_valuation(p)))


def conjugation_level(labels, ctx: PrimeContext) -> int:
    """m plus the largest spread -(v_min(x) + v_min(x^-1)) of the labels,
    that of H, read once per distinct H: conjugation by K_0 acts on their
    cosets through the quotient by the subgroup of that level."""
    return ctx.m + max((label_spread(QMat(h), ctx.p) for h in {h for _, h, _ in labels}),
                       default=0)


def is_ad_invariant(h: HeckeMeasure) -> bool:
    """Exact conjugation invariance under the maximal compact subgroup of
    the ambient (K_0 on G, M meet K_0 on M): the `label_conjugation` of each
    of its generators modulo the `conjugation_level` keeps every coefficient.
    The empty measure is invariant before any generator is built."""
    if not h.support:
        return True
    ctx = h.ctx
    gens = block_gln_generators(h.ambient.parab.blocks, ctx.p, conjugation_level(h.support, ctx))
    maps = [label_conjugation(a, ctx) for a in gens]
    return all(h.support.get(conjugate(x)) == c for conjugate in maps for x, c in h.items())


def _hermite_of_product(g, h, p: int):
    """`hermite_int`(g H) for integer rows g and H: the Hermite form H' of
    the coset g H K_0 and the cofactor k with g H = H' k."""
    h2, k = hermite_int(mat_mul(g, tuple(zip(*h))), p)
    return tuple(map(tuple, h2)), k


def label_conjugation(a, ctx: PrimeContext):
    """x -> g x g^-1 on labels (p^e, H, kbar), for g = A / d in the maximal
    compact subgroup of the ambient, A the integer rows a and d prime to p.
    With (H', k) = `hermite_int`(A H), g x g^-1 = (H' / p^e) k lift(kbar)
    A^-1 lies in (H' / p^e) lift(k kbar A^-1 mod p^m) K_m; a block diagonal
    A keeps H' and k block diagonal.  H' and the `product_map` of k and
    A^-1 are built once per H, in a table that lives as long as the map."""
    p, modulus, n = ctx.p, ctx.modulus, len(a)
    ainv = mat_mod(QMat(a).inverse(), modulus, p)
    table = {}

    def conjugate(label):
        pe, h, kbar = label
        if h not in table:
            h2, k = _hermite_of_product(a, h, p)
            table[h] = h2, product_map(k, ainv, modulus)
        h2, move = table[h]
        return pe, h2, tuple(zip(*[iter(move(sum(kbar, ())))] * n))

    return conjugate


def ad_orbits(labels, ctx: PrimeContext):
    """Orbits of the level cosets with the given labels on G under
    conjugation by K_0: the `conjugation_closure` of one label under the
    `label_conjugation` of generators modulo the `conjugation_level`,
    sorted by the entries of `label_matrix`."""
    if not labels:
        return []
    keys = dict.fromkeys(labels)
    gens = gln_generators(len(labels[0][1]), ctx.p, conjugation_level(keys, ctx))
    maps = [label_conjugation(g, ctx) for g in gens]
    orbits = []
    seen = set()
    for key in keys:
        if key in seen:
            continue
        orbit = conjugation_closure([key], maps)
        if not orbit <= keys.keys():
            raise RuntimeError(f"conjugation took the coset {key} out of the given cosets")
        seen |= orbit
        # one p^e per orbit, so integer numerators sort as the entries do
        orbits.append(sorted(orbit, key=lambda x: mat_mul(x[1], tuple(zip(*x[2])))))
    return orbits


def ad_symmetrized_basis(labels, ctx: PrimeContext):
    """Indicator measures of the conjugation orbits of the given cosets."""
    one = RootP.rational(1, ctx.p)
    return [HeckeMeasure(Ambient.general_linear(len(orbit[0][1])), ctx,
                         dict.fromkeys(orbit, one), True)
            for orbit in ad_orbits(labels, ctx)]


# ---------------------------------------------------------------------------
# double cosets K_0 d K_0, as the K_0 orbit of d K_0


def hermite_reps_with_divisors(n: int, p: int, divisors, guard=DEFAULT_GROUP_ORDER_GUARD):
    """Hermite forms (integer rows) of the left K_0 cosets in K_0 d K_0, d = diag(p^divisors).

    The left coset k d K_0 (k in K_0) is the coset of k d k^-1, so the
    cosets form the orbit of d K_0 under conjugation by K_0, labelled by
    their Hermite forms; g sends H to the H' of `hermite_int`(g H), as in
    `label_conjugation`.  k d K_0 depends only on k modulo K_0 meet d K_0 d^-1,
    which contains K_s, s = max(divisors) - min(divisors), so generators of
    GL_n(Z/p^s) reach the whole orbit.  Sorted as the forms of a box
    enumeration: diagonal exponents descending, then the entries above the
    diagonal, row-major.
    """
    divisors = tuple(divisors)
    if len(divisors) != n or any(a < 0 for a in divisors):
        raise DomainError(f"need {n} nonnegative divisor exponents, not {divisors}")
    d = tuple(tuple(p**a if i == j else 0 for j in range(n)) for i, a in enumerate(divisors))
    level = max(1, max(divisors) - min(divisors))
    maps = [lambda h, g=g: _hermite_of_product(g, h, p)[0] for g in gln_generators(n, p, level)]
    return sorted(conjugation_closure([d], maps, guard),
                  key=lambda h: ([-h[i][i] for i in range(n)],
                                 [h[i][j] for i in range(n) for j in range(i + 1, n)]))


def double_coset_measure(n: int, ctx: PrimeContext, divisors, guard=DEFAULT_GROUP_ORDER_GUARD):
    """Indicator (coefficient 1 per level coset) of K_0 diag(p^divisors) K_0,
    keyed by the labels (1, H, kappa), H a Hermite form and kappa in
    GL_n(Z/p^m)."""
    hermites = hermite_reps_with_divisors(n, ctx.p, divisors, guard)
    kappas = enumerate_glnzm(n, ctx, guard)
    one = RootP.rational(1, ctx.p)
    out = {}
    for h in hermites:
        for kappa in kappas:
            out[(1, h, kappa)] = one
    expected = len(hermites) * glnzm_order(n, ctx.p, ctx.m)
    if len(out) != expected:
        raise RuntimeError(f"{len(out)} level cosets in K_0 diag(p^{divisors}) K_0, not {expected}")
    return HeckeMeasure(Ambient.general_linear(n), ctx, out, True)


def double_coset_labels(n: int, ctx: PrimeContext, divisors, guard=DEFAULT_GROUP_ORDER_GUARD):
    return list(double_coset_measure(n, ctx, divisors, guard).support)


# ---------------------------------------------------------------------------
# serialization


def measure_to_jsonable(h: HeckeMeasure) -> dict:
    amb = {"group": "G", "n": h.ambient.n}
    if not h.ambient.is_group:
        amb.update(group="M", blocks=list(h.ambient.parab.blocks))
    rows = []
    for label, c in h.items():
        rows.append({"rep": [str(x) for x in label_matrix(label).entries()], "coeff": str(c)})
    rows.sort(key=lambda r: r["rep"])
    return {
        "ambient": amb,
        "level": {"p": h.ctx.p, "m": h.ctx.m},
        "biinvariant": h.biinvariant,
        "support": rows,
    }


def measure_from_jsonable(data: dict) -> HeckeMeasure:
    """Inverse of `measure_to_jsonable`, checked at the trust boundary: every
    field must be present with its JSON type (n, p, m and each block an
    int, not a bool), the group must be G or M with at least two blocks,
    each rep must have n^2 entries, every entry and coefficient must be a
    string that parses, no level coset may be named twice, and the
    biinvariant flag must be a bool, and when true `is_ad_invariant` must
    confirm it."""
    amb = json_field(data, "ambient", dict)
    group, n = json_field(amb, "group"), json_field(amb, "n", int)
    if group == "G":
        ambient = Ambient.general_linear(n)
    elif group == "M":
        blocks = tuple(json_field(amb, "blocks", list))
        if any(type(b) is not int for b in blocks):
            raise DomainError(f"field 'blocks' is {list(blocks)!r}, not a list of ints")
        ambient = Ambient(BlockParabolic(n, blocks))
        if ambient.is_group:
            raise DomainError("an M ambient needs at least two blocks; one block is G")
    else:
        raise DomainError(f"measures live on G or M, not on {group!r}")
    biinvariant = data.get("biinvariant", False)
    if not isinstance(biinvariant, bool):
        raise DomainError(f"biinvariant flag {biinvariant!r} is not a bool")
    level = json_field(data, "level", dict)
    ctx = PrimeContext(json_field(level, "p", int), json_field(level, "m", int))
    support = {}
    for row in json_field(data, "support", list):
        raw, coeff = json_field(row, "rep", list), json_field(row, "coeff")
        if any(type(x) is not str for x in raw):
            raise DomainError(f"field 'rep' is {raw!r}, not a list of strings")
        if len(raw) != n * n:
            raise DomainError(f"rep with {len(raw)} entries, not {n * n}")
        try:
            entries = [Fraction(x) for x in raw]
            coeff = RootP.parse(coeff, ctx.p)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"support row {row!r} does not parse: {exc}") from None
        mat = QMat([entries[i * n : (i + 1) * n] for i in range(n)])
        label = canonical_rep(ambient, mat, ctx)
        if label in support:
            raise DomainError(f"support names the level coset of {mat.entries()} twice")
        support[label] = coeff
    h = HeckeMeasure(ambient, ctx, support, biinvariant)
    if h.biinvariant and not is_ad_invariant(h):
        raise DomainError("biinvariant flag set on a measure that is not conjugation-invariant")
    return h

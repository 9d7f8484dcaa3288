"""Level-m coset measures on Levi subgroups and the parabolic restriction map.

Measures live on the Levi M of a block composition of n; G = GL_n is the
Levi of the one-block composition (n,).  A measure is a finite linear
combination of reference-Haar restrictions to level cosets:
h = sum c_x * mu|_{x K}, where K = K_m meet M is the principal congruence
subgroup of the ambient (K_m itself on G) and mu gives each level coset
mass 1.  The restriction map to a Levi is defined by a three step recipe:
conjugate over a transversal of P\\G/K_m chosen inside K_0, restrict each
conjugate to P coset by coset, push to M along the block projection, and
sum.  Restriction is only taken of measures invariant under
conjugation by K_0, so every conjugate equals the measure itself and the
sum collapses to one pass from G to M:

    res_P h = |P\\G/K_m| * sum of c_x delta[proj_M(x K_m meet P)],

over the support cosets that meet P, with |P\\G/K_m| =
|GL_n(Z/p^m)| / |P(Z/p^m)| in closed form.  Its normalized variant twists
by |lambda_P|^(1/2).  K_m has the exact factorization
(K_m meet U-)(K_m meet M)(K_m meet U), which makes the block projection
carry level cosets of P to level cosets of M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    LevelError,
    RootP,
    padic_norm_halfpower,
    padic_valuation,
)
from cocenter.groups import BlockParabolic, iwasawa_decompose, modulus_lambda
from cocenter.matrices import (
    PrimeContext,
    QMat,
    block_gln_generators,
    coset_canonical_rep,
    enumerate_glnzm,
    gln_zp_membership,
    glnzm_order,
    lift_mod,
    mat_mod,
)
from cocenter.unipotent import conjugation_closure


@dataclass(frozen=True)
class Ambient:
    """The group a measure lives on: the Levi M of a block composition of n.

    G = GL_n is the Levi of the one-block composition (n,), whose parabolic
    is G itself.  Upper and lower parabolics with the same blocks share the
    same Levi, so the parabolic is kept with its orientation normalized to
    upper.
    """

    parab: BlockParabolic

    @classmethod
    def general_linear(cls, n: int) -> "Ambient":
        return cls.levi(BlockParabolic(n, (n,)))

    @classmethod
    def levi(cls, parab: BlockParabolic) -> "Ambient":
        # normalize orientation away: the Levi ignores it
        return cls(BlockParabolic(parab.n, parab.blocks, "upper"))

    @property
    def n(self) -> int:
        return self.parab.n

    @property
    def is_group(self) -> bool:
        """True on G = GL_n, the Levi of the one-block composition."""
        return len(self.parab.blocks) == 1


def canonical_rep(ambient: Ambient, g: QMat, ctx: PrimeContext) -> QMat:
    """Canonical representative of the level coset of g inside the ambient.

    For y, y' in the ambient subgroup, y' in y K_m already implies
    y^-1 y' lies in the ambient, so coset equality agrees with equality of
    the ambient-level cosets; canonicalization only has to be deterministic
    and constant on K_m cosets.  Every Levi takes the same split: the
    Hermite form of a block diagonal g is block diagonal, so the coset
    representative on G of an element of M already lies in M.
    """
    if not ambient.parab.levi_contains(g):
        raise DomainError("element not in the Levi")
    return coset_canonical_rep(g, ctx)


def coset_meets_parabolic(rep: QMat, parab: BlockParabolic, ctx: PrimeContext):
    """A representative of (rep K_m) meet P, or None when the coset misses P.

    Decision by reduction modulo p^m: after an Iwasawa splitting rep = q k,
    the coset meets P exactly when k mod p^m is block triangular, and then
    q times the integral lift of k mod p^m is such a representative.
    """
    q, k = iwasawa_decompose(rep, parab, ctx.p)
    kbar = mat_mod(k, ctx.modulus, ctx.p)
    n = parab.n
    for i in range(n):
        for j in range(n):
            if not parab.in_parabolic(i, j) and kbar[i][j] != 0:
                return None
    return q * lift_mod(kbar, n)


class HeckeMeasure:
    """Finitely supported level-m coset measure with Q(sqrt p) coefficients.

    support maps the canonical representative (as an entry tuple) to a pair
    (representative, coefficient); zero coefficients are dropped.  The
    biinvariant flag asserts invariance under conjugation pullback by the
    maximal compact subgroup of the ambient: K_0 on G, M meet K_0 on M.
    `is_ad_invariant` verifies it on quotient generators.
    """

    __slots__ = ("ambient", "ctx", "support", "biinvariant")

    def __init__(self, ambient: Ambient, ctx: PrimeContext, support=None, biinvariant=False):
        self.ambient = ambient
        self.ctx = ctx
        cleaned = {}
        for key, (rep, coeff) in (support or {}).items():
            coeff = _as_rootp(coeff, ctx.p)
            if coeff:
                cleaned[key] = (rep, coeff)
        self.support = cleaned
        self.biinvariant = biinvariant

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, ambient: Ambient, ctx: PrimeContext) -> "HeckeMeasure":
        return cls(ambient, ctx, {})

    @classmethod
    def from_pairs(cls, ambient, ctx, pairs, biinvariant=False) -> "HeckeMeasure":
        acc = {}
        for g, coeff in pairs:
            rep = canonical_rep(ambient, g, ctx)
            key = rep.entries()
            coeff = _as_rootp(coeff, ctx.p)
            if key in acc:
                coeff = acc[key][1] + coeff
            acc[key] = (rep, coeff)
        return cls(ambient, ctx, acc, biinvariant)

    @classmethod
    def delta(cls, ambient, ctx, g, coeff=1) -> "HeckeMeasure":
        return cls.from_pairs(ambient, ctx, [(g, coeff)])

    def items(self):
        return self.support.values()

    def coefficient(self, g: QMat) -> RootP:
        rep = canonical_rep(self.ambient, g, self.ctx)
        entry = self.support.get(rep.entries())
        return entry[1] if entry else RootP.rational(0, self.ctx.p)

    def total_mass(self) -> RootP:
        out = RootP.rational(0, self.ctx.p)
        for _, c in self.items():
            out = out + c
        return out

    def scale(self, factor) -> "HeckeMeasure":
        factor = _as_rootp(factor, self.ctx.p)
        return HeckeMeasure(
            self.ambient,
            self.ctx,
            {k: (rep, c * factor) for k, (rep, c) in self.support.items()},
            self.biinvariant,
        )

    def __add__(self, other: "HeckeMeasure") -> "HeckeMeasure":
        if self.ambient != other.ambient or self.ctx != other.ctx:
            raise DomainError("ambient mismatch")
        acc = dict(self.support)
        for k, (rep, c) in other.support.items():
            if k in acc:
                acc[k] = (rep, acc[k][1] + c)
            else:
                acc[k] = (rep, c)
        return HeckeMeasure(self.ambient, self.ctx, acc, False)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeMeasure)
            and self.ambient == other.ambient
            and self.ctx == other.ctx
            and {k: c for k, (_, c) in self.support.items()}
            == {k: c for k, (_, c) in other.support.items()}
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
    """Unit mass spread uniformly over the K_0 part of the ambient group."""
    n = ambient.n
    zeros = ambient.parab.positions("G/M")
    elements = [rows for rows in enumerate_glnzm(n, ctx, guard)
                if not any(rows[i][j] for i, j in zeros)]
    coeff = Fraction(1, len(elements))
    return HeckeMeasure.from_pairs(
        ambient, ctx, [(lift_mod(rows, n), coeff) for rows in elements], True
    )


def ad_pullback(h: HeckeMeasure, g: QMat) -> HeckeMeasure:
    """Conjugation pullback: mass c at x K_m moves to (g x g^-1) K_m.

    Acts on measures on G by g in K_0 and on measures on M by g in
    M meet K_0.  Only such g keep K_m cosets at level m (K_m is normal in
    K_0); other g would silently refine the level, so they are rejected.
    """
    if not h.ambient.parab.levi_contains(g):
        raise DomainError("conjugator outside the Levi")
    if not gln_zp_membership(g, h.ctx.p):
        raise LevelError("conjugator outside GL_n(Z_p) would change the level")
    ginv = g.inverse()
    return HeckeMeasure.from_pairs(
        h.ambient, h.ctx, [(g * rep * ginv, c) for rep, c in h.items()], h.biinvariant
    )


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
        n = parab.n
        all_elements = enumerate_glnzm(n, ctx, guard)
        zeros = parab.positions("G/P")
        pbar = [rows for rows in all_elements if not any(rows[i][j] for i, j in zeros)]
        modulus = ctx.modulus
        lookup = {}
        reps = []
        for rows in all_elements:
            if rows in lookup:
                continue
            mat = lift_mod(rows, n)
            orbit = set()
            for q in pbar:
                prod = tuple(
                    tuple(
                        sum(q[i][k] * rows[k][j] for k in range(n)) % modulus
                        for j in range(n)
                    )
                    for i in range(n)
                )
                orbit.add(prod)
            idx = len(reps)
            reps.append(mat)
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

    def locate(self, k: QMat) -> int:
        """Index of the double coset containing k in K_0."""
        return self.lookup[mat_mod(k, self.ctx.modulus, self.ctx.p)]


def parabolic_double_coset_count(parab: BlockParabolic, ctx: PrimeContext) -> int:
    """|P\\G/K_m| = |GL_n(Z/p^m)| / |P(Z/p^m)|.

    G = P K_0, so the double cosets are the orbits of P(Z/p^m) acting on
    GL_n(Z/p^m) by left multiplication, and that action is free.
    """
    p, m = ctx.p, ctx.m
    order_p = p ** (m * len(parab.positions("U")))
    for size in parab.blocks:
        order_p *= glnzm_order(size, p, m)
    return glnzm_order(parab.n, p, m) // order_p


def res_unnormalized(
    h: HeckeMeasure, parab: BlockParabolic, transversal: ParabolicTransversal | None = None
) -> HeckeMeasure:
    """Parabolic restriction to the Levi in one pass from G to M.

    A level coset x K_m meets P in at most one level coset of P, so c_x
    moves unchanged to its Levi projection.  Requires the
    conjugation-invariance flag: each term g of the transversal sum
    restricts the pullback of h by g in K_0, which is h itself.  The result
    carries the flag on M: M meet K_0 lies in P meet K_0, and both the
    restriction to P and the projection P -> M commute with conjugation by
    it.  A transversal is not needed; one that is passed must belong to the
    same parabolic and level.
    """
    if not h.ambient.is_group:
        raise DomainError("restriction starts from measures on G")
    if not h.biinvariant:
        raise DomainError("restriction needs a conjugation-invariant measure")
    if transversal is not None and (transversal.parab != parab or transversal.ctx != h.ctx):
        raise DomainError("transversal of another parabolic or level")
    pairs = []
    for rep, c in h.items():
        found = coset_meets_parabolic(rep, parab, h.ctx)
        if found is not None:
            pairs.append((parab.levi_project(found), c))
    levi = HeckeMeasure.from_pairs(Ambient.levi(parab), h.ctx, pairs, True)
    return levi.scale(parabolic_double_coset_count(parab, h.ctx))


def normalize_on_levi(h_m: HeckeMeasure, parab: BlockParabolic) -> HeckeMeasure:
    """Twist an M-measure by |lambda_P|^(1/2) coset by coset.

    Well defined because lambda_P is a character whose p-adic norm is 1 on
    the level subgroup of M.
    """
    ctx = h_m.ctx
    out = {}
    for key, (rep, c) in h_m.support.items():
        factor = padic_norm_halfpower(modulus_lambda(parab, rep), ctx.p, 1)
        out[key] = (rep, c * factor)
    return HeckeMeasure(h_m.ambient, ctx, out, h_m.biinvariant)


def res_normalized(
    h: HeckeMeasure, parab: BlockParabolic, transversal: ParabolicTransversal | None = None
) -> HeckeMeasure:
    """Normalized restriction: res followed by the |lambda_P|^(1/2) twist."""
    return normalize_on_levi(res_unnormalized(h, parab, transversal), parab)


# ---------------------------------------------------------------------------
# conjugation invariance and symmetrized bases


def k0_quotient_generators(ambient: Ambient, p: int, k: int):
    """Integral matrices generating the maximal compact subgroup of a Levi
    ambient (the block diagonal part of GL_n(Z_p)) modulo level k."""
    return [QMat(rows) for rows in block_gln_generators(ambient.parab.blocks, p, k)]


def label_spread(rep: QMat, p: int) -> int:
    return int(-(rep.min_valuation(p) + rep.inverse().min_valuation(p)))


def measure_spread(h: HeckeMeasure) -> int:
    """max over the support of -(v_min(x) + v_min(x^-1)); 0 for integral
    cosets.  Conjugation by the level-(m + spread) subgroup fixes every
    support coset, so the K_0 conjugation action factors through a finite
    quotient at that level."""
    return max((label_spread(rep, h.ctx.p) for rep, _ in h.items()), default=0)


def is_ad_invariant(h: HeckeMeasure, gens=None) -> bool:
    """Exact conjugation invariance under the maximal compact subgroup of
    the ambient (K_0 on G, M meet K_0 on M), decided on generators of the
    finite quotient through which the action factors."""
    level = h.ctx.m + measure_spread(h)
    if gens is None:
        gens = k0_quotient_generators(h.ambient, h.ctx.p, level)
    return all(ad_pullback(h, g) == h for g in gens)


def ad_orbits(reps, ctx: PrimeContext):
    """Orbits of level cosets on G under conjugation by K_0.

    Each orbit is the conjugation closure of one canonical representative
    under generators of the finite quotient through which the action
    factors; exact, no sampling.
    """
    if not reps:
        return []
    ambient = Ambient.general_linear(reps[0].n)
    level = ctx.m + max(label_spread(r, ctx.p) for r in reps)
    gens = k0_quotient_generators(ambient, ctx.p, level)
    rep_of = {}
    for r in reps:
        rc = canonical_rep(ambient, r, ctx)
        rep_of[rc.entries()] = rc
    orbits = []
    seen = set()
    for key, rc in rep_of.items():
        if key in seen:
            continue
        orbit = sorted(
            conjugation_closure([rc], gens, land=lambda g: canonical_rep(ambient, g, ctx)),
            key=QMat.entries,
        )
        if any(x.entries() not in rep_of for x in orbit):
            raise RuntimeError(f"conjugation took {rc} out of the given cosets")
        seen.update(x.entries() for x in orbit)
        orbits.append(orbit)
    return orbits


def ad_symmetrized_basis(reps, ctx: PrimeContext):
    """Indicator measures of the conjugation orbits of the given cosets."""
    ambient = Ambient.general_linear(reps[0].n)
    out = []
    for orbit in ad_orbits(reps, ctx):
        h = HeckeMeasure.from_pairs(ambient, ctx, [(r, 1) for r in orbit], biinvariant=True)
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# double cosets K_0 d K_0


def smith_valuations(g: QMat, p: int):
    """Elementary divisor valuations of the column lattice of g.

    v_k(minors of size k) is the valuation of the k-th determinantal
    divisor; successive differences give the Smith form exponents.
    """
    import itertools as _it

    n = g.n
    minors_val = [0]
    for k in range(1, n + 1):
        best = None
        for rows in _it.combinations(range(n), k):
            for cols in _it.combinations(range(n), k):
                sub = QMat([[g[i, j] for j in cols] for i in rows])
                d = sub.det()
                if d == 0:
                    continue
                v = padic_valuation(d, p)
                if best is None or v < best:
                    best = v
        if best is None:
            raise DomainError("singular matrix")
        minors_val.append(best)
    return tuple(
        minors_val[k] - minors_val[k - 1] for k in range(1, n + 1)
    )


def hermite_reps_with_divisors(n: int, p: int, divisors):
    """All Hermite forms whose lattice has the given elementary divisors.

    These are exactly the representatives of the left K_0 cosets inside the
    double coset K_0 diag(p^divisors) K_0.  A Hermite diagonal need not
    permute the divisors ([[p, 1], [0, p]] lies in K_0 diag(p^2, 1) K_0), so
    every diagonal with exponents at most max(divisors) and the right sum is
    tried, and the Smith exponents decide membership.
    """
    import itertools as _it

    divisors = tuple(divisors)
    if any(d < 0 for d in divisors):
        raise DomainError("only nonnegative divisor exponents are enumerated")
    target = tuple(sorted(divisors))
    total = sum(divisors)
    out = []
    for diag in _it.product(range(max(divisors), -1, -1), repeat=n):
        if sum(diag) != total:
            continue
        # row i entries right of the pivot are reduced mod p^(a_i)
        ranges = [list(range(p ** diag[i])) for i in range(n)]
        uppers = _it.product(*[
            _it.product(ranges[i], repeat=n - 1 - i) for i in range(n)
        ])
        for rows_choice in uppers:
            mat = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                mat[i][i] = Fraction(p) ** diag[i]
                for idx, j in enumerate(range(i + 1, n)):
                    mat[i][j] = Fraction(rows_choice[i][idx])
            h = QMat(mat)
            if smith_valuations(h, p) == target:
                out.append(h)
    return out


def double_coset_measure(n: int, ctx: PrimeContext, divisors, guard=DEFAULT_GROUP_ORDER_GUARD):
    """Indicator (coefficient 1 per level coset) of K_0 diag(p^divisors) K_0."""
    hermites = hermite_reps_with_divisors(n, ctx.p, divisors)
    kappas = [lift_mod(rows, n) for rows in enumerate_glnzm(n, ctx, guard)]
    ambient = Ambient.general_linear(n)
    pairs = [(h * k, 1) for h in hermites for k in kappas]
    out = HeckeMeasure.from_pairs(ambient, ctx, pairs, biinvariant=True)
    expected = len(hermites) * glnzm_order(n, ctx.p, ctx.m)
    if len(out) != expected:
        raise RuntimeError(f"{len(out)} level cosets in K_0 diag(p^{divisors}) K_0, not {expected}")
    return out


def double_coset_labels(n: int, ctx: PrimeContext, divisors, guard=DEFAULT_GROUP_ORDER_GUARD):
    return [rep for rep, _ in double_coset_measure(n, ctx, divisors, guard).items()]


# ---------------------------------------------------------------------------
# serialization


def measure_to_jsonable(h: HeckeMeasure) -> dict:
    amb = {"group": "G", "n": h.ambient.n}
    if not h.ambient.is_group:
        amb.update(group="M", blocks=list(h.ambient.parab.blocks))
    rows = []
    for rep, c in h.items():
        rows.append({"rep": [str(x) for x in rep.entries()], "coeff": str(c)})
    rows.sort(key=lambda r: r["rep"])
    return {
        "ambient": amb,
        "level": {"p": h.ctx.p, "m": h.ctx.m},
        "biinvariant": h.biinvariant,
        "support": rows,
    }


def measure_from_jsonable(data: dict) -> HeckeMeasure:
    """Inverse of `measure_to_jsonable`, checked at the trust boundary: the
    group must be G or M with at least two blocks, each rep must have n^2
    entries, every entry and coefficient must parse, no level coset may be
    named twice, and the biinvariant flag must be a bool, and when true
    `is_ad_invariant` must confirm it."""
    amb = data["ambient"]
    n = amb["n"]
    if amb["group"] == "G":
        ambient = Ambient.general_linear(n)
    elif amb["group"] == "M":
        ambient = Ambient.levi(BlockParabolic(n, tuple(amb["blocks"])))
        if ambient.is_group:
            raise DomainError("an M ambient needs at least two blocks; one block is G")
    else:
        raise DomainError(f"measures live on G or M, not on {amb['group']!r}")
    biinvariant = data.get("biinvariant", False)
    if not isinstance(biinvariant, bool):
        raise DomainError(f"biinvariant flag {biinvariant!r} is not a bool")
    ctx = PrimeContext(data["level"]["p"], data["level"]["m"])
    support = {}
    for row in data["support"]:
        if len(row["rep"]) != n * n:
            raise DomainError(f"rep with {len(row['rep'])} entries, not {n * n}")
        try:
            entries = [Fraction(x) for x in row["rep"]]
            coeff = RootP.parse(row["coeff"], ctx.p)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"support row {row!r} does not parse: {exc}") from None
        mat = QMat([entries[i * n : (i + 1) * n] for i in range(n)])
        rep = canonical_rep(ambient, mat, ctx)
        if rep.entries() in support:
            raise DomainError(f"support names the level coset of {rep.entries()} twice")
        support[rep.entries()] = (rep, coeff)
    h = HeckeMeasure(ambient, ctx, support, biinvariant)
    if h.biinvariant and not is_ad_invariant(h):
        raise DomainError("biinvariant flag set on a measure that is not conjugation-invariant")
    return h

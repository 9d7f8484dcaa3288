"""Finite level models of parabolically induced representations.

Only one dimensional unramified characters of the Levi are modeled: they
make every trace exactly computable while fully exercising the coset
bookkeeping.  The induced representation at level m acts on functions
supported on the double cosets P g K_m.  Its trace is chi paired with the
trace measure T(h) on M, read off the split of each product g_i x; this
equals the character pairing of the parabolic restriction, and both sides
are computed through independent code paths and compared in Q(sqrt p).
Each label x = (H / p^e) lift(kbar) is already the split of x on G, so
only each product g_i H of a transversal rep and a distinct Hermite part
is split, once, through P: g_i H = Q k' (`groups.iwasawa_int`, on the
integer Hermite core `matrices.hermite_int`).  Then g_i x = (Q / p^e)
lift(k' kbar) up to K_m, so each product costs one residue product
k' kbar modulo p^m and one read of the model's residue table, which holds
the double coset and the parabolic part of every residue of GL_n(Z/p^m),
each checked once when the model is built.  Kept terms merge as integer
Levi points, which `measures.levi_measure` labels on M.  Characters read
their values off the label's Hermite diagonal, and a pairing values chi
once per distinct tuple of block valuations.  The QMat forms of the split,
of T(h) and of the pairing are the oracles in tests/oracles.py.
`induced_character_values` is the one checker of the identity; the
`characters` CLI suite and the acceptance criteria run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cocenter.exactnum import DEFAULT_GROUP_ORDER_GUARD, DomainError, RootP
from cocenter.groups import BlockParabolic, iwasawa_int, iwasawa_mod
from cocenter.matrices import PrimeContext, integer_form, mat_mod, mat_mul
from cocenter.measures import HeckeMeasure, ParabolicTransversal, block_valuations, levi_measure
from cocenter.measures import normalize_on_levi, require_levi, res_unnormalized


@dataclass(frozen=True)
class UnramifiedCharacter:
    """chi(m) = prod_i z_i^(v_p(det m_i)) over the Levi blocks of m.

    Trivial on the maximal compact of M; the Satake parameters z_i are
    nonzero rationals.
    """

    blocks: tuple
    params: tuple

    def __post_init__(self):
        params = tuple(Fraction(z) for z in self.params)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(params) != len(self.blocks):
            raise DomainError("one Satake parameter per block")
        if any(z == 0 for z in params):
            raise DomainError("Satake parameters must be nonzero")

    def value(self, parab: BlockParabolic, label, p: int) -> Fraction:
        """chi at the Levi label (p^e, H, kbar), with v_p(det m_i) read off
        H's diagonal by `measures.block_valuations`."""
        if parab.blocks != self.blocks:
            raise DomainError("block mismatch")
        return self.at_valuations(block_valuations(parab, label, p))

    def at_valuations(self, valuations) -> Fraction:
        """prod_i z_i^(v_i) for the block valuations v_i = v_p(det m_i)."""
        out = Fraction(1)
        for z, v in zip(self.params, valuations):
            out *= z**v
        return out


def character_pairing(chi: UnramifiedCharacter, h: HeckeMeasure) -> RootP:
    """Integral of chi against a measure on M: sum of c_x chi(x).

    chi(x) depends on x only through the `block_valuations` of its label,
    so the c_x are summed by that tuple first and chi is valued once per
    distinct tuple.  The blocks must match, so a measure on G pairs only
    with a one-block character z^v(det)."""
    parab, p = h.ambient.parab, h.ctx.p
    if parab.blocks != chi.blocks:
        raise DomainError("block mismatch")
    mass = {}
    for label, c in h.items():
        v = tuple(block_valuations(parab, label, p))
        mass[v] = mass[v] + c if v in mass else c
    out = RootP._wrap(Fraction(0), Fraction(0), p)
    for v, c in mass.items():
        out = out + c * chi.at_valuations(v)
    return out


class InducedModel:
    """The level-m invariants of a principal series style induced module.

    Basis functions are indexed by the double cosets P g K_m; for a one
    dimensional inflated character the dimension equals the number of
    double cosets.  A transversal that is passed must belong to the same
    parabolic and level; otherwise one is enumerated under the guard.

    `located` maps every residue r of GL_n(Z/p^m) (every key of the
    transversal's lookup) to (l, q2): l = lookup[r] and q2 = r g_l^-1 mod
    p^m as tuple rows.  So P g_l K_m is the double coset of every k in K_0
    with k = r mod p^m, and k lies in q2 g_l K_m.  Each q2 is checked to
    lie in P mod p^m when the model is built, once per residue, so a
    lookup that names a double coset missing r is refused here and no
    split reads an unchecked entry.
    """

    def __init__(self, parab: BlockParabolic, ctx: PrimeContext, transversal=None,
                 guard=DEFAULT_GROUP_ORDER_GUARD):
        if transversal is None:
            transversal = ParabolicTransversal(parab, ctx, guard)
        elif transversal.parab != parab or transversal.ctx != ctx:
            raise DomainError("transversal of another parabolic or level")
        self.parab = parab
        self.ctx = ctx
        self.transversal = transversal
        # the integer rows of each representative g_l in K_0
        self.rep_rows = [integer_form(g.rows)[0] for g in transversal.reps]
        modulus = ctx.modulus
        inverse_cols = [tuple(zip(*mat_mod(g.inverse(), modulus, ctx.p)))
                        for g in transversal.reps]
        located = {}
        for r, idx in transversal.lookup.items():
            q2 = mat_mul(r, inverse_cols[idx], modulus)
            if not parab.vanishes(q2, "G/P"):
                raise DomainError("transversal lookup names a double coset that k misses")
            located[r] = (idx, q2)
        self.located = located

    @property
    def dim(self) -> int:
        return len(self.transversal)

    def locate_with_parabolic_part(self, a, d: int):
        """Write y = A / d as (q q2) g_l kappa with q q2 in P(Q), kappa level trivial.

        Returns (l, Q(A), q2, p^e), all on integers, with q q2 =
        Q(A) q2 / p^e: for d = p^e d', d' prime to p, one split
        A = Q(A) k(A) by `iwasawa_mod` gives q = Q(A) / p^e and
        k = k(A) / d', and the `located` entry of k mod p^m = k(A) d'^-1
        mod p^m gives l and q2.  The product Q(A) q2 is left to the caller,
        which forms it only for the terms it keeps.
        """
        h, kbar, pe = iwasawa_mod(a, d, self.parab, self.ctx)
        idx, q2 = self.located[kbar]
        return idx, h, q2, pe


def trace_measure(h: HeckeMeasure, model: InducedModel) -> HeckeMeasure:
    """The M-measure T(h) = sum_i sum_x c_x delta[proj_M q_ix] of the trace.

    Split g_i x = q_ix g_l kappa for each transversal rep g_i and support
    point x; the terms l = i make the trace of h on the induction of any
    character of M/(M meet K_m).  Each is well defined up to M meet K_m,
    because g_i lies in K_0, which normalizes K_m.

    All on integers: the labels (p^e, H, kbar) are grouped by H, and one
    split through P of each product g_i H of a rep and a distinct H gives
    g_i H = Q k.  Then g_i x = (Q / p^e) k lift(kbar) up to K_m, which is
    the split `locate_with_parabolic_part` makes of g_i x up to K_m, by
    uniqueness of the Hermite form.  So each product costs the residue
    product k kbar mod p^m and one read of the model's `located` table,
    whose parabolic check ran once per residue when the model was built.
    Kept terms merge by their integer Levi point Q q2 / p^e, and
    `levi_measure` labels those on M.  The labels grouped by H are the only
    table this call builds, and it lives for this call.
    """
    if model.parab.n != h.ambient.n:
        raise DomainError(f"measure on GL_{h.ambient.n}, induced model of GL_{model.parab.n}")
    if not h.ambient.is_group:
        raise DomainError("the induced module is acted on by measures on G")
    if not h.biinvariant:
        raise DomainError("trace needs a conjugation-invariant measure")
    if h.ctx != model.ctx:
        raise DomainError("measure and induced model at different levels")
    parab, ctx, located = model.parab, model.ctx, model.located
    modulus = ctx.modulus
    # the labels by Hermite part H: (columns of H, [(columns of kbar, p^e, c)])
    parts = {}
    for (pe, hx, kbar), c in h.items():
        if hx not in parts:
            parts[hx] = (tuple(zip(*hx)), [])
        parts[hx][1].append((tuple(zip(*kbar)), pe, c))
    kept = {}
    for i, g_i in enumerate(model.rep_rows):
        for hx_cols, labels in parts.values():
            q, k = iwasawa_int(mat_mul(g_i, hx_cols), parab, ctx.p)
            for cols, pe, c in labels:
                l, q2 = located[mat_mul(k, cols, modulus)]
                if l == i:
                    key = (parab.levi_product(q, q2), pe)
                    kept[key] = kept[key] + c if key in kept else c
    return levi_measure(parab, ctx, kept.items())


def trace_induced(
    h: HeckeMeasure, chi: UnramifiedCharacter, model: InducedModel, normalized=False
) -> RootP:
    """Trace of h on the induction of chi (times |lambda_P|^(1/2) when
    normalized): chi paired with T(h), as Ad(u) is unipotent on Lie P."""
    t = trace_measure(h, model)
    if normalized:
        t = normalize_on_levi(t, model.parab)
    return character_pairing(chi, t)


def induced_character_values(h: HeckeMeasure, chars, parab: BlockParabolic,
                             model: InducedModel | None = None, res_m: HeckeMeasure | None = None):
    """Both forms of the induced character identity, for each character of
    `chars` against one trace measure T(h): (trace, pairing,
    trace_normalized, pairing_normalized), the identity holding when the
    first two and the last two agree.  Normalized means chi times
    |lambda_P|^(1/2) on the trace side, the normalized restriction on the
    other.  A model of another parabolic, or a res_m on another Levi, is
    refused.
    """
    model = model or InducedModel(parab, h.ctx)
    if model.parab != parab:
        raise DomainError("induced model of another parabolic")
    if res_m is None:
        res_m = res_unnormalized(h, parab)
    require_levi(res_m, parab)
    t = trace_measure(h, model)
    sides = (t, res_m, normalize_on_levi(t, parab), normalize_on_levi(res_m, parab))
    return [tuple(character_pairing(chi, x) for x in sides) for chi in chars]


def verify_induced_character_identity(h: HeckeMeasure, chi: UnramifiedCharacter,
                                      parab: BlockParabolic, model: InducedModel | None = None,
                                      res_m: HeckeMeasure | None = None):
    """`induced_character_values` for the one character chi, as (ok, details)."""
    values = induced_character_values(h, (chi,), parab, model, res_m)[0]
    details = dict(zip(("trace", "pairing", "trace_normalized", "pairing_normalized"), values))
    return values[0] == values[1] and values[2] == values[3], details

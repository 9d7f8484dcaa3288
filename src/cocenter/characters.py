"""Finite level models of parabolically induced representations.

Only one dimensional unramified characters of the Levi are modeled: they
make every trace exactly computable while fully exercising the coset
bookkeeping.  The induced representation at level m acts on functions
supported on the double cosets P g K_m.  Its trace is chi paired with the
trace measure T(h) on M, read off the split of each product g_i x; this
equals the character pairing of the parabolic restriction, and both sides
are computed through independent code paths and compared in Q(sqrt p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cocenter.exactnum import DEFAULT_GROUP_ORDER_GUARD, DomainError, RootP, padic_valuation
from cocenter.groups import BlockParabolic, iwasawa_decompose
from cocenter.matrices import PrimeContext, QMat, lift_mod, mat_mod
from cocenter.measures import Ambient, HeckeMeasure, ParabolicTransversal, normalize_on_levi
from cocenter.measures import res_unnormalized


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

    def value(self, parab: BlockParabolic, g: QMat, p: int) -> Fraction:
        """chi on the Levi part of g in P (inflation through P -> M)."""
        if parab.blocks != self.blocks:
            raise DomainError("block mismatch")
        out = Fraction(1)
        for z, block in zip(self.params, parab.levi_blocks(g)):
            v = padic_valuation(block.det(), p)
            out *= z**v
        return out


def character_pairing(chi: UnramifiedCharacter, h: HeckeMeasure) -> RootP:
    """Integral of chi against a measure on M: sum of c_x chi(x).

    The blocks must match, so a measure on G pairs only with a one-block
    character z^v(det)."""
    parab = h.ambient.parab
    if parab.blocks != chi.blocks:
        raise DomainError("block mismatch")
    out = RootP.rational(0, h.ctx.p)
    for rep, c in h.items():
        out = out + c * chi.value(parab, rep, h.ctx.p)
    return out


class InducedModel:
    """The level-m invariants of a principal series style induced module.

    Basis functions are indexed by the double cosets P g K_m; for a one
    dimensional inflated character the dimension equals the number of
    double cosets.  A transversal that is passed must belong to the same
    parabolic and level; otherwise one is enumerated under the guard.
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
        self.rep_inverses = [g.inverse() for g in transversal.reps]

    @property
    def dim(self) -> int:
        return len(self.transversal)

    def locate_with_parabolic_part(self, y: QMat):
        """Write y = (q q2) g_l kappa with q q2 in P(Q), kappa level trivial.

        Returns (l, q q2).  The parabolic part is assembled from the Iwasawa
        split of y and an integral lift matching the stored representative
        mod p^m.
        """
        parab, ctx = self.parab, self.ctx
        q, k = iwasawa_decompose(y, parab, ctx.p)
        idx = self.transversal.locate(k)
        prod = mat_mod(k * self.rep_inverses[idx], ctx.modulus, ctx.p)
        if any(prod[i][j] != 0 for i, j in parab.positions("G/P")):
            raise DomainError("transversal lookup names a double coset that k misses")
        return idx, q * lift_mod(prod, parab.n)


def trace_measure(h: HeckeMeasure, model: InducedModel) -> HeckeMeasure:
    """The M-measure T(h) = sum_i sum_x c_x delta[proj_M q_ix] of the trace.

    Split g_i x = q_ix g_l kappa for each transversal rep g_i and support
    point x; the terms l = i make the trace of h on the induction of any
    character of M/(M meet K_m).  Each is well defined up to M meet K_m,
    because g_i lies in K_0, which normalizes K_m.
    """
    if not h.ambient.is_group:
        raise DomainError("the induced module is acted on by measures on G")
    if not h.biinvariant:
        raise DomainError("trace needs a conjugation-invariant measure")
    if h.ctx != model.ctx:
        raise DomainError("measure and induced model at different levels")
    parab = model.parab
    pairs = []
    for i, g_i in enumerate(model.transversal.reps):
        for rep, c in h.items():
            l, q_part = model.locate_with_parabolic_part(g_i * rep)
            if l == i:
                pairs.append((parab.levi_project(q_part), c))
    return HeckeMeasure.from_pairs(Ambient.levi(parab), model.ctx, pairs)


def trace_induced(
    h: HeckeMeasure, chi: UnramifiedCharacter, model: InducedModel, normalized=False
) -> RootP:
    """Trace of h on the induction of chi (times |lambda_P|^(1/2) when
    normalized): chi paired with T(h), as Ad(u) is unipotent on Lie P."""
    t = trace_measure(h, model)
    if normalized:
        t = normalize_on_levi(t, model.parab)
    return character_pairing(chi, t)


def verify_induced_character_identity(
    h: HeckeMeasure,
    chi: UnramifiedCharacter,
    parab: BlockParabolic,
    model: InducedModel | None = None,
    res_m: HeckeMeasure | None = None,
):
    """Both forms of the induced character identity, as exact equalities.

    Unnormalized: trace of the induction of chi equals the pairing of chi
    with the plain restriction.  Normalized: trace of the induction of
    chi * |lambda_P|^(1/2) equals the pairing with the normalized
    restriction.  Both traces pair with one trace measure.  Returns (ok,
    details).
    """
    model = model or InducedModel(parab, h.ctx)
    if res_m is None:
        res_m = res_unnormalized(h, parab)
    t = trace_measure(h, model)
    lhs_plain = character_pairing(chi, t)
    rhs_plain = character_pairing(chi, res_m)
    lhs_norm = character_pairing(chi, normalize_on_levi(t, model.parab))
    rhs_norm = character_pairing(chi, normalize_on_levi(res_m, parab))
    ok = lhs_plain == rhs_plain and lhs_norm == rhs_norm
    return ok, {
        "trace": lhs_plain,
        "pairing": rhs_plain,
        "trace_normalized": lhs_norm,
        "pairing_normalized": rhs_norm,
    }

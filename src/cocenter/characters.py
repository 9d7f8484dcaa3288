"""Finite level models of parabolically induced representations.

Only one dimensional unramified characters of the Levi are modeled: they
make every trace exactly computable while fully exercising the coset
bookkeeping.  The induced representation at level m acts on functions
supported on the double cosets P g K_m, and the trace of a measure equals
the character pairing of its parabolic restriction; both sides are computed
through independent code paths and compared in Q(sqrt p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cocenter.exactnum import DomainError, RootP, padic_norm_halfpower, padic_valuation
from cocenter.groups import BlockParabolic, iwasawa_decompose, modulus_lambda
from cocenter.matrices import PrimeContext, QMat, lift_mod, mat_mod
from cocenter.measures import HeckeMeasure, ParabolicTransversal, res_unnormalized


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
    """Integral of chi against a measure on M: sum of c_x chi(x)."""
    if h.ambient.kind != "M":
        raise DomainError("character pairing lives on the Levi")
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
    double cosets.
    """

    def __init__(self, parab: BlockParabolic, ctx: PrimeContext, transversal=None):
        self.parab = parab
        self.ctx = ctx
        self.transversal = transversal or ParabolicTransversal(parab, ctx)

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
        g_l = self.transversal.reps[idx]
        prod = mat_mod(k * g_l.inverse(), ctx.modulus, ctx.p)
        n = parab.n
        assert all(
            prod[i][j] == 0 for i in range(n) for j in range(n) if not parab.in_parabolic(i, j)
        )
        q2 = lift_mod(prod, n)
        return idx, q * q2


def hecke_action_matrix(
    h: HeckeMeasure, chi: UnramifiedCharacter, model: InducedModel, normalized=False
):
    """Matrix of the h action on the level invariants of the induced module.

    Entry (i, l) accumulates c_x tau(q) over support points x with
    g_i x in P g_l K_m, where tau is the inflated character, times the
    |lambda_P|^(1/2) twist in the normalized model.
    """
    if h.ambient.kind != "G":
        raise DomainError("the induced module is acted on by measures on G")
    if not h.biinvariant:
        raise DomainError("trace needs a conjugation-invariant measure")
    ctx, parab = model.ctx, model.parab
    dim = model.dim
    zero = RootP.rational(0, ctx.p)
    matrix = [[zero for _ in range(dim)] for _ in range(dim)]
    for i, g_i in enumerate(model.transversal.reps):
        for rep, c in h.items():
            l, q_part = model.locate_with_parabolic_part(g_i * rep)
            weight = RootP.rational(chi.value(parab, q_part, ctx.p), ctx.p)
            if normalized:
                weight = weight * padic_norm_halfpower(
                    modulus_lambda(parab, q_part), ctx.p, 1
                )
            matrix[i][l] = matrix[i][l] + c * weight
    return matrix


def trace_induced(
    h: HeckeMeasure, chi: UnramifiedCharacter, model: InducedModel, normalized=False
) -> RootP:
    m = hecke_action_matrix(h, chi, model, normalized)
    out = RootP.rational(0, model.ctx.p)
    for i in range(len(m)):
        out = out + m[i][i]
    return out


def verify_induced_character_identity(
    h: HeckeMeasure,
    chi: UnramifiedCharacter,
    parab: BlockParabolic,
    model: InducedModel | None = None,
    res_m: HeckeMeasure | None = None,
    res_m_normalized: HeckeMeasure | None = None,
):
    """Both forms of the induced character identity, as exact equalities.

    Unnormalized: trace of the induction of chi equals the pairing of chi
    with the plain restriction.  Normalized: trace of the induction of
    chi * |lambda_P|^(1/2) equals the pairing with the normalized
    restriction.  Returns (ok, details).
    """
    model = model or InducedModel(parab, h.ctx)
    if res_m is None:
        res_m = res_unnormalized(h, parab)
    if res_m_normalized is None:
        from cocenter.measures import normalize_on_levi

        res_m_normalized = normalize_on_levi(res_m, parab)
    lhs_plain = trace_induced(h, chi, model, normalized=False)
    rhs_plain = character_pairing(chi, res_m)
    lhs_norm = trace_induced(h, chi, model, normalized=True)
    rhs_norm = character_pairing(chi, res_m_normalized)
    ok = lhs_plain == rhs_plain and lhs_norm == rhs_norm
    return ok, {
        "trace": lhs_plain,
        "pairing": rhs_plain,
        "trace_normalized": lhs_norm,
        "pairing_normalized": rhs_norm,
    }

"""Block parabolics of GL_n: discriminants, modulus character, decompositions.

Lie algebras are realized as matrix-entry coordinate spaces and the adjoint
action is an explicit rational matrix on them, so every discriminant and
modulus value is independently checkable by brute force.  Only GL_n is
instantiated; the subgroup spec covers the diagonal torus, Levi subgroups
of block parabolics, and the parabolics themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from cocenter.exactnum import DomainError
from cocenter.matrices import FFMatrix, QMat, hermite_padic


@dataclass(frozen=True)
class BlockParabolic:
    """A composition of n plus an orientation.

    Determines the block triangular parabolic P, its block diagonal Levi M,
    the strictly block triangular unipotent radical U, and the opposite
    radical U-; upper and lower parabolics with the same blocks share M.
    """

    n: int
    blocks: tuple
    orientation: str = "upper"

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise DomainError("blocks must be positive")
        if sum(blocks) != self.n:
            raise DomainError(f"blocks {blocks} do not sum to {self.n}")
        if self.orientation not in ("upper", "lower"):
            raise DomainError("orientation must be 'upper' or 'lower'")

    def opposite(self) -> "BlockParabolic":
        o = "lower" if self.orientation == "upper" else "upper"
        return BlockParabolic(self.n, self.blocks, o)

    @cached_property
    def block_index(self):
        """block_index[i] = which block row/column i belongs to."""
        out = []
        for b, size in enumerate(self.blocks):
            out.extend([b] * size)
        return tuple(out)

    @cached_property
    def block_ranges(self):
        out, start = [], 0
        for size in self.blocks:
            out.append((start, start + size))
            start += size
        return tuple(out)

    def in_levi(self, i: int, j: int) -> bool:
        bi = self.block_index
        return bi[i] == bi[j]

    def in_parabolic(self, i: int, j: int) -> bool:
        bi = self.block_index
        if self.orientation == "upper":
            return bi[i] <= bi[j]
        return bi[i] >= bi[j]

    def dim_radical(self) -> int:
        return len(self.positions("U"))

    @cached_property
    def _position_table(self):
        table = {key: [] for key in ("P", "M", "U", "G/P", "G/M")}
        for i in range(self.n):
            for j in range(self.n):
                in_m = self.in_levi(i, j)
                in_p = self.in_parabolic(i, j)
                if in_p:
                    table["P"].append((i, j))
                else:
                    table["G/P"].append((i, j))
                if in_m:
                    table["M"].append((i, j))
                else:
                    table["G/M"].append((i, j))
                if in_p and not in_m:
                    table["U"].append((i, j))
        return table

    def positions(self, pattern: str):
        """Coordinate positions of Lie P / Lie M / Lie U / complement spaces."""
        return self._position_table[pattern]

    def contains(self, g: QMat) -> bool:
        return all(
            g[i, j] == 0
            for i in range(self.n)
            for j in range(self.n)
            if not self.in_parabolic(i, j)
        )

    def levi_contains(self, g: QMat) -> bool:
        return all(
            g[i, j] == 0 for i in range(self.n) for j in range(self.n) if not self.in_levi(i, j)
        )

    def levi_project(self, g: QMat) -> QMat:
        """Projection P -> M killing the unipotent radical (diagonal blocks)."""
        return QMat(
            [
                [g[i, j] if self.in_levi(i, j) else 0 for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def levi_blocks(self, g: QMat):
        out = []
        for lo, hi in self.block_ranges:
            out.append(QMat([[g[i, j] for j in range(lo, hi)] for i in range(lo, hi)]))
        return out

    @classmethod
    def assemble_from_blocks(cls, blocks_mats, parab: "BlockParabolic") -> QMat:
        n = parab.n
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (lo, hi), b in zip(parab.block_ranges, blocks_mats):
            for i in range(lo, hi):
                for j in range(lo, hi):
                    rows[i][j] = b[i - lo, j - lo]
        return QMat(rows)


@dataclass(frozen=True)
class SubgroupSpec:
    """One of: the diagonal torus, a Levi subgroup, or a block parabolic."""

    kind: str  # "T" | "M" | "P"
    parab: BlockParabolic | None = None

    def __post_init__(self):
        if self.kind not in ("T", "M", "P"):
            raise DomainError("kind must be T, M or P")
        if self.kind in ("M", "P") and self.parab is None:
            raise DomainError("M/P specs need a BlockParabolic")

    @classmethod
    def torus(cls) -> "SubgroupSpec":
        return cls("T")

    @classmethod
    def levi(cls, parab: BlockParabolic) -> "SubgroupSpec":
        return cls("M", parab)

    @classmethod
    def parabolic(cls, parab: BlockParabolic) -> "SubgroupSpec":
        return cls("P", parab)

    def contains(self, g: QMat) -> bool:
        if self.kind == "T":
            return all(
                g[i, j] == 0 for i in range(g.n) for j in range(g.n) if i != j
            )
        if self.kind == "M":
            return self.parab.levi_contains(g)
        return self.parab.contains(g)

    def complement_positions(self, n: int):
        """Coordinates of Lie G / Lie H."""
        if self.kind == "T":
            return [(i, j) for i in range(n) for j in range(n) if i != j]
        if self.kind == "M":
            return self.parab.positions("G/M")
        return self.parab.positions("G/P")


def _list_det(rows) -> Fraction:
    """Determinant of a list-of-lists of Fractions, in place."""
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            if rows[r][c] != 0:
                f = rows[r][c] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def _conj_action_det(g: QMat, ginv: QMat, positions, subtract_identity: bool) -> Fraction:
    """det of (the projected X -> g X g^-1, optionally minus identity) on
    the given coordinates; g and its inverse are both supplied."""
    grows, irows = g.rows, ginv.rows
    mat = []
    for r, (i, j) in enumerate(positions):
        row = [grows[i][k] * irows[l][j] for (k, l) in positions]
        if subtract_identity:
            row[r] = row[r] - 1
        mat.append(row)
    return _list_det(mat)


def _is_diagonal_block_element(spec: SubgroupSpec, g: QMat) -> bool:
    # fast path applies when conjugation by g preserves every coordinate
    # block Hom(block_b, block_a) of the complement, i.e. g in M (or T)
    if spec.kind == "T":
        return True
    return spec.parab.levi_contains(g)


def _det_on_positions(g: QMat, positions) -> Fraction:
    """det of the projected conjugation action on the given coordinates."""
    if not positions:
        return Fraction(1)
    return _conj_action_det(g, g.inverse(), positions, False)


def _blockwise_inverse(g: QMat, ranges) -> QMat:
    """Inverse of a block diagonal matrix, block by block."""
    n = g.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for lo, hi in ranges:
        block = QMat([[g[i, j] for j in range(lo, hi)] for i in range(lo, hi)]).inverse()
        for i in range(hi - lo):
            for j in range(hi - lo):
                rows[lo + i][lo + j] = block[i, j]
    return QMat(rows)


def discriminant_delta(spec: SubgroupSpec, g: QMat) -> Fraction:
    """det(Ad g^-1 - 1) on the complementary coordinates of Lie G / Lie H."""
    if not spec.contains(g):
        raise DomainError("element not in the subgroup")
    n = g.n
    positions = spec.complement_positions(n)
    if not positions:
        return Fraction(1)
    # the adjoint of g^-1 is computed, so (g^-1, g) plays the (g, g^-1) role
    if _is_diagonal_block_element(spec, g):
        if spec.kind == "T":
            # every off-diagonal position is its own eigencoordinate
            det = Fraction(1)
            for (i, j) in positions:
                det *= g[j, j] / g[i, i] - 1
                if det == 0:
                    return det
            return det
        ranges = spec.parab.block_ranges
        ginv = _blockwise_inverse(g, ranges)
        bi = spec.parab.block_index
        groups = {}
        for (i, j) in positions:
            groups.setdefault((bi[i], bi[j]), []).append((i, j))
        det = Fraction(1)
        for pos_group in groups.values():
            det *= _conj_action_det(ginv, g, pos_group, True)
            if det == 0:
                return det
        return det
    ginv = g.inverse()
    return _conj_action_det(ginv, g, positions, True)


def modulus_lambda(parab: BlockParabolic, g: QMat) -> Fraction:
    """det of Ad g on Lie P; the algebraic avatar of the modulus character."""
    if not parab.contains(g):
        raise DomainError("element not in the parabolic")
    if parab.levi_contains(g):
        # conjugation on each Hom(V_b, V_a) radical block is a Kronecker
        # product, whose determinant is det(g_a)^(n_b) / det(g_b)^(n_a);
        # the Levi part contributes 1
        blocks = parab.levi_blocks(g)
        dets = [b.det() for b in blocks]
        sizes = parab.blocks
        bi = parab.block_index
        pairs = {(bi[i], bi[j]) for (i, j) in parab.positions("U")}
        lam = Fraction(1)
        for a, b in pairs:
            lam *= dets[a] ** sizes[b] / dets[b] ** sizes[a]
        return lam
    return _det_on_positions(g, parab.positions("P"))


def is_regular(spec: SubgroupSpec, g: QMat) -> bool:
    """Relative regularity of g in H: the discriminant does not vanish."""
    return discriminant_delta(spec, g) != 0


def discriminant_square_identity(parab: BlockParabolic, m: QMat) -> bool:
    """Delta_P^2 = (-1)^dim(U) * Delta_M * lambda_P on Levi elements.

    Exists as a test hook: the identity must hold for every m in M(Q).
    """
    if not parab.levi_contains(m):
        raise DomainError("element not in the Levi")
    d_p = discriminant_delta(SubgroupSpec.parabolic(parab), m)
    d_m = discriminant_delta(SubgroupSpec.levi(parab), m)
    lam = modulus_lambda(parab, m)
    sign = -1 if parab.dim_radical() % 2 else 1
    return d_p * d_p == sign * d_m * lam


class ChevalleyPoint:
    """Conjugation-invariant coordinates: elementary symmetric functions of
    the eigenvalues, i.e. sums of principal minors of the matrix."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    def __eq__(self, other):
        return isinstance(other, ChevalleyPoint) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"ChevalleyPoint{self.coeffs}"


def chevalley_map(g: QMat) -> ChevalleyPoint:
    """Characteristic-polynomial coordinates (e_1, ..., e_n) of g."""
    if not g.is_invertible():
        raise DomainError("singular matrix")
    n = g.n
    coeffs = []
    for k in range(1, n + 1):
        e_k = Fraction(0)
        for subset in itertools.combinations(range(n), k):
            minor = QMat([[g[i, j] for j in subset] for i in subset])
            e_k += minor.det()
        coeffs.append(e_k)
    return ChevalleyPoint(coeffs)


def _reverse_indices(g: QMat) -> QMat:
    """w0 g w0 for the longest permutation w0: rows and columns reversed."""
    return QMat([row[::-1] for row in g.rows[::-1]])


def iwasawa_decompose(g: QMat, parab: BlockParabolic, p: int):
    """g = q * k with q in P(Q) and k in GL_n(Z_p) meet GL_n(Q).

    Upper parabolics come straight from the p-adic Hermite form (a fully
    triangular q lies in every block upper parabolic); the lower case is
    conjugated through the longest permutation.
    """
    if g.n != parab.n:
        raise DomainError("size mismatch")
    if parab.orientation == "upper":
        q, k = hermite_padic(g, p)
        return q, k
    h, k = hermite_padic(_reverse_indices(g), p)
    return _reverse_indices(h), _reverse_indices(k)


def jordan_type(u: FFMatrix):
    """Partition of n listing the Jordan block sizes of a unipotent u.

    Computed from the rank sequence of N^k, N = u - 1: the conjugate
    partition has parts rank(N^(k-1)) - rank(N^k), taken until the rank
    reaches 0.  Once rank(N^k) = rank(N^(k+1)), N maps the image of N^k
    onto itself, so a rank that stops falling above 0 means N is not
    nilpotent; for most non-unipotent u that shows at the first rank.
    """
    nil = u - FFMatrix.identity(u.n, u.q)
    conj = []
    rank, power = u.n, nil
    while rank:
        drop = rank - power.rank()
        if drop == 0:
            raise DomainError("matrix is not unipotent")
        conj.append(drop)
        rank -= drop
        if rank:
            power = power * nil
    # conjugate back to the block-size partition
    parts = []
    for k in range(1, (conj[0] if conj else 0) + 1):
        size = sum(1 for c in conj if c >= k)
        if size:
            parts.append(size)
    return tuple(sorted(parts, reverse=True))


def compositions(n: int):
    """All compositions of n, i.e. Levi block shapes of GL_n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest

"""Block parabolics of GL_n: discriminants, modulus character, decompositions.

Lie algebras are realized as matrix-entry coordinate spaces.  Discriminants
and the modulus come from integer determinants alone: of the diagonal
blocks, and of one Sylvester operator X -> X A_b - A_a X per block pair;
on all of P that is exact, because U acts unipotently on Lie P and on
Lie G / Lie P.  Full adjoint matrices are the oracle in tests/oracles.py.
The Iwasawa split G = P K_0 runs on integer forms too: `iwasawa_int` is
the one integer Hermite core, `matrices.hermite_int`, with rows and columns
reversed for a lower parabolic, and `iwasawa_mod` reduces its cofactor
modulo p^m to label level cosets (`measures.canonical_rep`).  Only GL_n is
instantiated.  Membership in a block parabolic, its Levi or the diagonal
torus (the Levi of the Borel) is one test, `BlockParabolic.vanishes`: the
n x n rows vanish on the positions outside the subgroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from cocenter.exactnum import DomainError, int_valuation
from cocenter.matrices import (
    FFMatrix, PrimeContext, QMat, det_int, gauss_jordan, hermite_int, integer_form, mat_mul,
    rational_split,
)


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
        blocks = tuple(self.blocks)
        if any(isinstance(b, bool) or not isinstance(b, int) for b in blocks):
            raise DomainError(f"blocks {blocks!r} must be ints")
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

    @cached_property
    def _position_table(self):
        bi, sign = self.block_index, 1 if self.orientation == "upper" else -1
        table = {key: [] for key in ("P", "M", "U", "G/P", "G/M")}
        for i, j in itertools.product(range(self.n), repeat=2):
            in_m, in_p = bi[i] == bi[j], sign * (bi[j] - bi[i]) >= 0
            table["P" if in_p else "G/P"].append((i, j))
            table["M" if in_m else "G/M"].append((i, j))
            if in_p and not in_m:
                table["U"].append((i, j))
        return table

    def positions(self, pattern: str):
        """Coordinate positions of Lie P / Lie M / Lie U / complement spaces."""
        return self._position_table[pattern]

    @cached_property
    def _pair_table(self):
        bi = self.block_index
        return {key: sorted({(bi[i], bi[j]) for i, j in pos})
                for key, pos in self._position_table.items()}

    def block_pairs(self, pattern: str):
        """Block pairs (a, b) whose Hom(V_b, V_a) tile the given positions."""
        return self._pair_table[pattern]

    def vanishes(self, rows, pattern: str) -> bool:
        """True when square rows (a QMat's, or integer residues mod p^m)
        are n x n and zero on `positions(pattern)`; rows of another size
        are False.  P is where "G/P" vanishes, M where "G/M" does."""
        if len(rows) != self.n:
            return False
        return not any(rows[i][j] for i, j in self.positions(pattern))

    def contains(self, g: QMat) -> bool:
        return self.vanishes(g.rows, "G/P")

    def levi_contains(self, g: QMat) -> bool:
        return self.vanishes(g.rows, "G/M")

    def levi_product(self, a, b):
        """Integer rows of the Levi projection of the product of integer
        rows a and b: only its block diagonal entries are formed."""
        bi, cols = self.block_index, tuple(zip(*b))
        return tuple([tuple([sum(map(mul, row, col)) if bi[i] == bi[j] else 0
                             for j, col in enumerate(cols)])
                      for i, row in enumerate(a)])


@dataclass(frozen=True)
class SubgroupSpec:
    """A Levi subgroup or a block parabolic: the elements that vanish on
    the positions `outside` of parab, "G/M" for its Levi M and "G/P" for P.
    The diagonal torus of GL_n is the Levi of the Borel."""

    parab: BlockParabolic
    outside: str

    def __post_init__(self):
        if self.outside not in ("G/M", "G/P"):
            raise DomainError("outside must be 'G/M' or 'G/P'")

    @classmethod
    def torus(cls, n: int) -> "SubgroupSpec":
        return cls.levi(BlockParabolic(n, (1,) * n))

    @classmethod
    def levi(cls, parab: BlockParabolic) -> "SubgroupSpec":
        return cls(parab, "G/M")

    @classmethod
    def parabolic(cls, parab: BlockParabolic) -> "SubgroupSpec":
        return cls(parab, "G/P")

    def contains(self, g: QMat) -> bool:
        return self.parab.vanishes(g.rows, self.outside)


def _integer_blocks(parab: BlockParabolic, g: QMat):
    """The integer diagonal blocks A_a of g, g_a = A_a / d over one common
    denominator d, and their determinants; callers drop d because
    Ad(c g) = Ad(g).  A singular block is refused, so every composition
    refuses the same singular g."""
    ranges = parab.block_ranges
    ints = integer_form([row[lo:hi] for lo, hi in ranges for row in g.rows[lo:hi]])[0]
    blocks = [ints[lo:hi] for lo, hi in ranges]
    dets = [det_int(x) for x in blocks]
    if 0 in dets:
        raise DomainError("singular matrix")
    return blocks, dets


def _levi_delta(parab: BlockParabolic, g: QMat, pairs) -> Fraction:
    """det(Ad g^-1 - 1) on the blocks Hom(V_b, V_a) of Lie G, (a, b) in
    pairs, for g in M.

    There the operator is X -> g_a^-1 X g_b - X = g_a^-1 (X g_b - g_a X).
    With g = A / d, X -> X A_b - A_a X is the Sylvester operator, of
    determinant prod (mu_j - lambda_i) over the eigenvalues lambda of A_a
    and mu of A_b; scaling it by 1 / d and then by g_a^-1 = d A_a^-1 on the
    n_a n_b-dimensional block divides that determinant by det(A_a)^(n_b).
    """
    blocks, dets = _integer_blocks(parab, g)
    return Fraction(prod(det_int(_sylvester(blocks[a], blocks[b])) for a, b in pairs),
                    prod(dets[a] ** len(blocks[b]) for a, b in pairs))


def _sylvester(x, y):
    """Rows of X -> X y - x X on n_a x n_b matrices X, with X[j][l] at
    column j n_b + l: row (i, k) is column k of y on segment i, less
    x[i][j] at slot k of each segment j."""
    n_b, out = len(y), []
    for i, x_i in enumerate(x):
        for k, col in enumerate(zip(*y)):
            row = [0] * (len(x) * n_b)
            row[i * n_b:(i + 1) * n_b] = col
            for j, x_ij in enumerate(x_i):
                row[j * n_b + k] -= x_ij
            out.append(row)
    return out


def discriminant_delta(spec: SubgroupSpec, g: QMat) -> Fraction:
    """det(Ad g^-1 - 1) on the complementary coordinates of Lie G / Lie H.

    On H = P, the blocks Hom(V_b, V_a) with |a - b| <= k span a P-stable
    filtration of Lie G / Lie P on whose graded pieces U acts trivially, so
    the value reads only the diagonal blocks of g, as on the Levi.
    """
    if not spec.contains(g):
        raise DomainError("element not in the subgroup")
    return _levi_delta(spec.parab, g, spec.parab.block_pairs(spec.outside))


def modulus_lambda(parab: BlockParabolic, g: QMat) -> Fraction:
    """det of Ad g on Lie P; the algebraic avatar of the modulus character.

    U acts unipotently on Lie P and the Levi part contributes 1, so only
    the radical blocks Hom(V_b, V_a) count: there conjugation is a Kronecker
    product of determinant det(g_a)^(n_b) / det(g_b)^(n_a), which is
    det(A_a)^(n_b) / det(A_b)^(n_a) for g = A / d.
    """
    if not parab.contains(g):
        raise DomainError("element not in the parabolic")
    blocks, dets = _integer_blocks(parab, g)
    pairs = parab.block_pairs("U")
    return Fraction(prod(dets[a] ** len(blocks[b]) for a, b in pairs),
                    prod(dets[b] ** len(blocks[a]) for a, b in pairs))


def discriminant_square_identity(parab: BlockParabolic, m: QMat) -> bool:
    """Delta_P^2 = (-1)^dim(U) * Delta_M * lambda_P on Levi elements.

    Exists as a test hook: the identity must hold for every m in M(Q).
    """
    if not parab.levi_contains(m):
        raise DomainError("element not in the Levi")
    d_p = discriminant_delta(SubgroupSpec.parabolic(parab), m)
    d_m = discriminant_delta(SubgroupSpec.levi(parab), m)
    lam = modulus_lambda(parab, m)
    sign = -1 if len(parab.positions("U")) % 2 else 1
    return d_p * d_p == sign * d_m * lam


def iwasawa_int(a, parab: BlockParabolic, p: int):
    """Integer Iwasawa split A = Q(A) k(A) of a nonsingular integer matrix:
    Q(A) integral in P, k(A) in GL_n(Z_(p)).

    Upper parabolics take the Hermite split of `hermite_int` as it is (a
    fully triangular Q(A) lies in every block upper parabolic); the lower
    case conjugates through the longest permutation w0, reversing the rows
    and columns of A and of both factors.
    """
    if parab.orientation == "upper":
        return hermite_int(a, p)
    h, k = hermite_int([row[::-1] for row in a[::-1]], p)
    return [row[::-1] for row in h[::-1]], [row[::-1] for row in k[::-1]]


def iwasawa_mod(a, d: int, parab: BlockParabolic, ctx: PrimeContext):
    """(Q(A), kbar, p^e) for x = A / d, d = p^e d' with d' prime to p: one
    split A = Q(A) k(A) by `iwasawa_int` gives x = (Q(A) / p^e)(k(A) / d'),
    and kbar the rows of k(A) d'^-1 mod p^m; `measures.canonical_rep`
    labels cosets by it."""
    p, modulus = ctx.p, ctx.modulus
    h, k = iwasawa_int(a, parab, p)
    pe = p ** int_valuation(d, p)
    unit_inv = pow(d // pe, -1, modulus)
    return h, tuple([tuple([x * unit_inv % modulus for x in row]) for row in k]), pe


def iwasawa_decompose(g: QMat, parab: BlockParabolic, p: int):
    """g = q * k with q in P(Q) and k in GL_n(Z_p) meet GL_n(Q): the
    integer split of g = A / d by `iwasawa_int`, scaled back by
    `rational_split`."""
    if g.n != parab.n:
        raise DomainError("size mismatch")
    a, d = integer_form(g.rows)
    return rational_split(*iwasawa_int(a, parab, p), d, p)


def conjugate_partition(lam):
    """The transposed partition of a partition lam with descending parts."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > k) for k in range(lam[0]))


def jordan_type(u: FFMatrix):
    """Partition of n listing the Jordan block sizes of a unipotent u.

    Computed from the rank sequence of N^k, N = u - 1: the conjugate
    partition has parts rank(N^(k-1)) - rank(N^k), taken until the rank
    reaches 0.  Once rank(N^k) = rank(N^(k+1)), N maps the image of N^k
    onto itself, so a rank that stops falling above 0 means N is not
    nilpotent.  Every unipotent has trace n, so u is refused at once when
    its trace is not n modulo q; that decides most non-unipotent u.  A
    nilpotent N is singular, so u is refused next when det(N) is nonzero
    over F_q, read as the integer determinant of N's reduced entries
    modulo q; that decides most of the others before any rank is taken.

    Everything runs on integer rows of residues modulo q, read from u once:
    each rank is `matrices.gauss_jordan` over F_q on a shallow copy of the
    power's rows, and each next power is one `matrices.mat_mul` reduced
    modulo q, with no `FFMatrix` built.
    """
    rows, q = u.rows, u.q
    n = len(rows)
    if sum(row[i] for i, row in enumerate(rows)) % q != n % q:
        raise DomainError("matrix is not unipotent")
    nil = [[(x - (i == j)) % q for j, x in enumerate(row)] for i, row in enumerate(rows)]
    if det_int(nil) % q:
        raise DomainError("matrix is not unipotent")
    cols = tuple(zip(*nil))
    conj = []
    rank, power = n, nil
    while rank:
        drop = rank - gauss_jordan(list(power), n, lambda x: pow(x, -1, q), q.__rmod__)
        if drop == 0:
            raise DomainError("matrix is not unipotent")
        conj.append(drop)
        rank -= drop
        if rank:
            power = mat_mul(power, cols, q)
    # the drops do not increase, so they form the conjugate partition
    return conjugate_partition(conj)


def compositions(n: int):
    """All compositions of n, i.e. Levi block shapes of GL_n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest

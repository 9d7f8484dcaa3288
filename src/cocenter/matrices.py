"""Exact matrices over Q and F_q, p-adic integrality, finite enumerations.

`QMat` is an immutable matrix with Fraction entries; group elements are the
invertible ones.  Rational matrices stand in for p-adic ones: every element
this package constructs is rational, and p-adic valuations are exact on Q.
Products run on integer forms, (A / d)(B / e) = AB / (de), with one
Fraction built per entry.  One integer product kernel, `mat_mul`, forms
every product of integer rows, over Z or modulo p^m: QMat and FFMatrix
products, labels, transversal residues, induced-trace residues and the
powers in `groups.jordan_type`.  `product_map` precomputes x -> L x R on
flat entry tuples, and `conjugation_closure` closes a set under such
maps; `measures` uses them for the K_0 orbits of labels.

Two elimination kernels serve every field: `det_int` takes determinants by
Bareiss's fraction-free elimination on integer forms, each step forming
only the trailing block, down to a 2 x 2 closed by one exact division, and
inverses over Q are its cofactors, (A / d)^-1 = d adj(A) / det(A); and
`gauss_jordan` does all other elimination over a field (inverses over F_q,
ranks over F_q and Q(sqrt p)), given the field's inverse and canonical
form.

The p-adic column Hermite form computed here is the workhorse behind coset
canonicalization and Iwasawa decomposition: for invertible rational g there
is a unique upper triangular H with p-power diagonal and reduced entries
above it such that g = H * k with k integral of unit determinant.  One
integer core, `hermite_int`, computes it on the integer form
g = A / (p^e d'), d' prime to p: column operations on A modulo p^N,
N = v_p(det A) + 1, give H(A), and exact integer back substitution gives
k(A) = H(A)^-1 A.  Every split goes through it: `hermite_padic` and
`groups.iwasawa_decompose` wrap it with `rational_split`; coset labels
come from `groups.iwasawa_mod` and `measures.levi_measure`, and
restriction, induced traces, `measures.ad_orbits` and the double coset
orbits split integer Hermite parts H and products g H, all without
leaving the integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, itemgetter, mul, sub

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    ResourceGuardError,
    int_valuation,
    is_prime,
    padic_valuation,
)


@dataclass(frozen=True)
class PrimeContext:
    """Prime p and congruence level m >= 1.

    The level subgroup K_m = ker(GL_n(Z_p) -> GL_n(Z/p^m)) is torsion free,
    pro-p and normal in K_0 = GL_n(Z_p); m >= 1 is required throughout.
    """

    p: int
    m: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.m < 1:
            raise DomainError("level exponent must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.m


class QMat:
    """Immutable n x n matrix over Q."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple([tuple([x if isinstance(x, Fraction) else Fraction(x) for x in row])
                      for row in rows])
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DomainError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _wrap(cls, rows) -> "QMat":
        """Wrap a square tuple of tuples of Fractions without re-checking it."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", len(rows))
        object.__setattr__(out, "rows", rows)
        return out

    @classmethod
    def over(cls, rows, d: int) -> "QMat":
        """The QMat rows / d, for square integer rows and a positive int d."""
        return cls._wrap(tuple([tuple([Fraction(x, d) for x in row]) for row in rows]))

    def __setattr__(self, *a):
        raise AttributeError("QMat is immutable")

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "QMat":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other: "QMat") -> "QMat":
        # (A / d)(B / e) = AB / (de): one integer product, one Fraction per entry
        if self.n != other.n:
            raise DomainError("size mismatch")
        a, d = integer_form(self.rows)
        b, e = integer_form(other.rows)
        return QMat.over(mat_mul(a, tuple(zip(*b))), d * e)

    def _entrywise(self, op, other: "QMat") -> "QMat":
        if self.n != other.n:
            raise DomainError("size mismatch")
        return QMat._wrap(tuple([tuple(map(op, a, b)) for a, b in zip(self.rows, other.rows)]))

    def __add__(self, other: "QMat") -> "QMat":
        return self._entrywise(add, other)

    def __sub__(self, other: "QMat") -> "QMat":
        return self._entrywise(sub, other)

    def scale(self, c) -> "QMat":
        c = Fraction(c)
        return QMat._wrap(tuple([tuple([c * x for x in row]) for row in self.rows]))

    def det(self) -> Fraction:
        return det_rational(self.rows)

    def inverse(self) -> "QMat":
        """(A / d)^-1 = d adj(A) / det(A) on the integer form: one `det_int`
        for det(A) and one for each (n - 1)-minor, entry (j, i) of the
        inverse being d (-1)^(i + j) det(A without row i and column j) /
        det(A).  That is O(n^5) integer work, cheap at the n <= 5 this
        package runs."""
        a, d = integer_form(self.rows)
        det = det_int(a)
        if det == 0:
            raise DomainError("singular matrix")
        n = self.n
        minors = [[det_int([row[:j] + row[j + 1:] for row in a[:i] + a[i + 1:]])
                   for j in range(n)] for i in range(n)]
        return QMat._wrap(tuple([tuple([Fraction((-1) ** (i + j) * d * minors[i][j], det)
                                        for i in range(n)]) for j in range(n)]))

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.n))

    def entries(self):
        return tuple(x for row in self.rows for x in row)

    def min_valuation(self, p: int):
        return min(padic_valuation(x, p) for x in self.entries())

    def __eq__(self, other):
        return isinstance(other, QMat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "QMat(%s)" % (list(list(map(str, r)) for r in self.rows),)


def mat_mul(a, cols, modulus: int = 0):
    """Integer rows of a times the matrix whose integer columns are cols,
    reduced modulo modulus unless it is 0: the one integer product kernel.
    It takes columns, not rows, so that a caller that multiplies by one
    matrix many times transposes it once."""
    if modulus:
        return tuple([tuple([sum(map(mul, row, col)) % modulus for col in cols]) for row in a])
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def integer_form(rows):
    """(A, d) with rows = A / d, A integral and d the lcm of the denominators."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    d = lcm(*[den for row in ratios for _, den in row])
    return [[num * (d // den) for num, den in row] for row in ratios], d


def det_rational(rows) -> Fraction:
    """Determinant of square rational rows: Bareiss on the integer form."""
    a, d = integer_form(rows)
    return Fraction(det_int(a), d ** len(a))


def det_int(a) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination on the shrinking trailing block: each step forms only the
    entries right of and below its pivot, (piv x - f y) // prev, an exact
    division by the previous pivot (Sylvester's identity), and the last
    2 x 2 [[w, x], [y, z]] closes as (w z - x y) // prev, which needs no
    pivot.  Rows, lists or tuples, are never mutated; a swap, made only for
    a zero leading entry, builds a new list."""
    n = len(a)
    if n < 2:
        return a[0][0] if n else 1
    m, sign, prev = a, 1, 1
    while n > 2:
        if m[0][0] == 0:
            swap = next((r for r in range(1, n) if m[r][0]), None)
            if swap is None:
                return 0
            m = [m[swap], *m[1:swap], m[0], *m[swap + 1:]]
            sign = -sign
        piv, top = m[0][0], m[0][1:]
        m = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in m[1:]]
        prev, n = piv, n - 1
    (w, x), (y, z) = m
    return sign * ((w * z - x * y) // prev)


def gauss_jordan(rows, ncols: int, inverse, reduce) -> int:
    """Reduce a list of row lists over a field, in place, to reduced row
    echelon form, pivoting only in the first ncols columns; returns the rank.

    `inverse` inverts a nonzero entry and `reduce` maps every computed entry
    to its canonical form, in which zero is the only falsy value.  Only the
    outer list changes: each row is replaced by a new list, never mutated,
    so rows that the caller keeps, lists or tuples, may be passed in a
    shallow copy of the outer list.
    """
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = inverse(rows[rank][c])
        top = rows[rank] = [reduce(x * inv) for x in rows[rank]]
        for r, row in enumerate(rows):
            f = row[c]
            if f and r != rank:
                rows[r] = [reduce(x - f * y) for x, y in zip(row, top)]
        rank += 1
    return rank


def gln_zp_membership(g: QMat, p: int) -> bool:
    """Membership in K_0 = GL_n(Z_p): integral entries, unit determinant."""
    det = g.det()
    if det == 0:
        raise DomainError("singular matrix")
    if any(padic_valuation(x, p) < 0 for x in g.entries()):
        return False
    return padic_valuation(det, p) == 0


# ---------------------------------------------------------------------------
# p-adic Hermite form


def hermite_padic(g: QMat, p: int):
    """Column Hermite form of g over Z_(p).

    Returns (H, k) with g = H * k, k in GL_n(Z_(p)) (integral at p, unit
    determinant), H upper triangular with H[i][i] = p^(a_i) and H[i][j]
    (j > i) reduced modulo p^(a_i) Z_(p).  H is the canonical basis of the
    column lattice of g, so it depends only on the coset g * GL_n(Z_p).

    The integer form g = A / d goes through `hermite_int`, and
    `rational_split` scales its factors back.
    """
    a, d = integer_form(g.rows)
    return rational_split(*hermite_int(a, p), d, p)


def hermite_int(a, p: int):
    """(H(A), k(A)) for a nonsingular integer matrix A = H(A) k(A): the
    one integer Hermite core behind `hermite_padic`, `groups.iwasawa_int`
    (restriction and induced traces; through `groups.iwasawa_mod`,
    `measures.canonical_rep`), `measures.levi_measure`, `measures.label_conjugation`
    and `measures.hermite_reps_with_divisors`.

    H(A) is the column Hermite form of A over Z_(p): diagonal p^(a_i),
    least non-negative residues modulo p^(a_i) above it.  It comes from
    column operations modulo p^N, N = v_p(det A) + 1 (Domich-Kannan-
    Trotter): a matrix congruent to A, A + p^N X = A (1 + p^N A^-1 X), spans
    the same Z_(p)-lattice, because A^-1 has valuation > -N and so the
    factor lies in GL_n(Z_(p)); the same holds at every step.  Each pivot
    is the first entry of least valuation in its row, found by one pass
    that stops at the first unit.  k(A) = H(A)^-1 A lies in GL_n(Z_(p))
    and in M_n(Z[1/p]), so it is integral and back substitution divides
    exactly; it runs as row updates, one per nonzero entry of H above the
    diagonal, and one exact division of each row by its pivot.  When p
    does not divide det A, A lies in GL_n(Z_(p)) and spans the standard
    lattice, so (H(A), k(A)) = (1, A) with no elimination.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    det = det_int(a)
    if det == 0:
        raise DomainError("singular matrix")
    n = len(a)
    if det % p:
        return [[int(i == j) for j in range(n)] for i in range(n)], [list(row) for row in a]
    big = p ** (int_valuation(det, p) + 1)
    cols = [[x % big for x in col] for col in zip(*a)]
    for i in range(n - 1, -1, -1):
        # pivot: the first entry of least valuation in row i, columns 0..i;
        # no entry has a valuation below 0, so the first unit ends the search
        piv, least = None, None
        for c in range(i + 1):
            x = cols[c][i]
            if x:
                v = int_valuation(x, p)
                if least is None or v < least:
                    piv, least = c, v
                    if not v:
                        break
        cols[piv], cols[i] = cols[i], cols[piv]
        top = cols[i][i]
        scale = p**least
        inv = pow(top // scale, -1, big)
        col_i = cols[i] = [x * inv % big for x in cols[i]]
        for c in range(i):
            f = cols[c][i] // scale
            if f:
                cols[c] = [(x - f * y) % big for x, y in zip(cols[c], col_i)]
    # reduce above the diagonal, bottom pivot rows first
    for i in range(n - 1, -1, -1):
        col_i, piv = cols[i], cols[i][i]
        for j in range(i + 1, n):
            f = cols[j][i] // piv
            if f:
                cols[j] = [(x - f * y) % big for x, y in zip(cols[j], col_i)]
    h = [list(row) for row in zip(*cols)]
    # back substitution: k(A) = H(A)^-1 A, bottom row first, as row updates
    # that skip the zero entries of H above its diagonal
    k = [None] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        for t in range(i + 1, n):
            f = h[i][t]
            if f:
                row = [x - f * y for x, y in zip(row, k[t])]
        piv = h[i][i]
        k[i] = [x // piv for x in row]
    return h, k


def rational_split(h, k, d: int, p: int):
    """The split (H, k) of g = A / d, with d = p^e d' and d' prime to p,
    from an integer split A = H(A) k(A) with k(A) in GL_n(Z_(p)): H(A) / p^e
    and k(A) / d', as QMats.  For the Hermite split this is the form of g
    itself, by its uniqueness."""
    pe = p ** int_valuation(d, p)
    unit = d // pe
    return QMat.over(h, pe), QMat.over(k, unit)


def coset_canonical_rep(g: QMat, ctx: PrimeContext) -> QMat:
    """Canonical representative of the left coset g K_m.

    Composes the Hermite form (canonical in g K_0) with the least residues
    of its cofactor modulo p^m; idempotent, and constant exactly on K_m
    cosets.
    """
    h, k = hermite_padic(g, ctx.p)
    if k.min_valuation(ctx.p) < 0:
        raise RuntimeError(f"Hermite cofactor of {g} is not p-integral")
    return h * QMat(mat_mod(k, ctx.modulus, ctx.p))


# ---------------------------------------------------------------------------
# matrices over Z/N and over F_q


def mat_mod(g: QMat, modulus: int, p: int):
    """Entrywise reduction to Z/modulus; requires p-integral entries."""
    out = []
    for row in g.rows:
        r = []
        for x in row:
            if x.denominator % p == 0:
                raise DomainError("entry not p-integral")
            r.append((x.numerator * pow(x.denominator, -1, modulus)) % modulus)
        out.append(tuple(r))
    return tuple(out)


def enumerate_glnzm(n: int, ctx: PrimeContext, guard: int = DEFAULT_GROUP_ORDER_GUARD):
    """All of GL_n(Z/p^m) as integer-entry tuples, in lexicographic order;
    guarded.  A matrix is invertible mod p^m exactly when its reduction mod
    p is, that is, when no row lies mod p in the span of the rows above it;
    so the rows are chosen one at a time, in order, outside that span."""
    size = glnzm_order(n, ctx.p, ctx.m)
    if size > guard:
        raise ResourceGuardError(f"|GL_{n}(Z/{ctx.modulus})| = {size} exceeds guard {guard}")
    p, modulus = ctx.p, ctx.modulus
    rows = [(row, tuple(x % p for x in row))
            for row in itertools.product(range(modulus), repeat=n)]
    out = []

    def extend(prefix, span):
        # span: the F_p span of the residues of the rows in prefix
        for row, residue in rows:
            if residue in span:
                continue
            if len(prefix) == n - 1:
                out.append(prefix + (row,))
            else:
                extend(prefix + (row,), {tuple([(a + c * b) % p for a, b in zip(s, residue)])
                                         for s in span for c in range(p)})

    extend((), {(0,) * n})
    if len(out) != size:
        raise RuntimeError(
            f"enumerated {len(out)} elements of GL_{n}(Z/{modulus}), expected {size}"
        )
    return out


def gln_generators(n: int, p: int, k: int = 1):
    """Integer rows of generators of GL_n(Z/p^k), hence of GL_n(Z_p) modulo
    its level-k subgroup: for n > 1 the transvection e_12(1) and the
    permutation matrix c of the n-cycle (1 2 ... n), which is the
    transposition (1 2) at n = 2, then diag(u, 1, ..., 1) for u running
    over the `unit_group_generators` of (Z/p^k)^*.

    They generate: c sends the basis vector e_b to e_(b-1), indices mod n,
    so conjugating e_12(1) by the powers of c gives e_12(1), e_23(1), ...,
    e_(n-1)n(1) and e_n1(1); at n = 2 these are e_12(1) and e_21(1).  For
    n > 2 the commutator [e_ij(1), e_jk(1)] is e_ik(1) when i, j, k are
    distinct, and it reaches every e_ij(1): e_ik = [e_i(k-1), e_(k-1)k] for
    i < k by induction on k - i; e_nk = [e_n1, e_1k] and e_i1 = [e_in, e_n1]
    for 1 < i, k < n; then e_ik = [e_i1, e_1k] for i > k > 1.  Since
    e_ij(t) = e_ij(1)^t, all elementary transvections are reached, and
    they generate SL_n over the local ring Z/p^k; the scalings, whose
    determinants generate (Z/p^k)^*, complete SL_n to GL_n.  The group is
    finite, so products of the generators alone, without their inverses,
    already reach all of it.  At odd n, det c = 1, so the scaling by -1
    stays among the unit generators at p = 2, k >= 3.
    """
    def permutation(images):
        return [[int(b == images[a]) for b in range(n)] for a in range(n)]

    def scaling(u):
        return [[u if a == b == 0 else int(a == b) for b in range(n)] for a in range(n)]

    gens = []
    if n > 1:
        transvection = permutation(range(n))
        transvection[0][1] = 1
        gens += [transvection, permutation([*range(1, n), 0])]
    return gens + [scaling(u) for u in unit_group_generators(p, k)]


def block_gln_generators(blocks, p: int, k: int = 1):
    """Integer rows of generators of the block diagonal subgroup
    GL_(b_1) x ... x GL_(b_r) of GL_n(Z/p^k), n = b_1 + ... + b_r: the
    `gln_generators` of each block, placed on its diagonal block of the
    identity.  One block of size n gives `gln_generators(n, p, k)`."""
    n, lo, out = sum(blocks), 0, []
    for size in blocks:
        for g in gln_generators(size, p, k):
            rows = [[int(a == b) for b in range(n)] for a in range(n)]
            for i in range(size):
                rows[lo + i][lo : lo + size] = g[i]
            out.append(rows)
        lo += size
    return out


def unit_group_generators(p: int, k: int):
    """Generators of (Z/p^k)^*: 3 and -1 for p = 2, the least primitive root
    modulo p^k for odd p."""
    if k == 1 and p == 2:
        return []
    if p == 2:
        return [3, p**k - 1] if k >= 3 else [3]
    mod, order = p**k, (p - 1) * p ** (k - 1)
    primes = [r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
    return [next(g for g in range(2, mod)
                 if g % p and all(pow(g, order // r, mod) != 1 for r in primes))]


def glnzm_order(n: int, p: int, m: int) -> int:
    return gln_fq_order(n, p) * p ** ((m - 1) * n * n)


def gln_fq_order(n: int, q: int) -> int:
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def _integer_entry(x) -> int:
    """x as an int: an int, or a Fraction whose denominator is 1.  Anything
    else is refused, not truncated: 1/2 is 2 in F_3, not int(1/2) = 0."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    if not isinstance(x, int):
        raise DomainError(f"entry {x!r} is not an integer")
    return x


class FFMatrix:
    """Immutable n x n matrix over F_q, q prime, built from integer
    entries (see `_integer_entry`)."""

    __slots__ = ("n", "q", "rows")

    def __init__(self, rows, q: int):
        if not is_prime(q):
            raise DomainError(f"{q} is not prime")
        rows = tuple(tuple(_integer_entry(x) % q for x in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DomainError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("FFMatrix is immutable")

    @classmethod
    def identity(cls, n: int, q: int) -> "FFMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], q)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    @classmethod
    def _reduced(cls, rows, q: int) -> "FFMatrix":
        """Wrap square rows of entries already in [0, q), q already prime."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", len(rows))
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "rows", rows)
        return out

    def __mul__(self, other: "FFMatrix") -> "FFMatrix":
        # both factors are valid, so the product needs no re-validation
        if self.n != other.n or self.q != other.q:
            raise DomainError(
                f"{self.n} x {self.n} over F_{self.q} against "
                f"{other.n} x {other.n} over F_{other.q}"
            )
        return FFMatrix._reduced(mat_mul(self.rows, tuple(zip(*other.rows)), self.q), self.q)

    def entries(self):
        """The entries in row-major order, as one flat tuple."""
        return tuple(x for row in self.rows for x in row)

    def _gauss_jordan(self, rows) -> int:
        q = self.q
        return gauss_jordan(rows, self.n, lambda x: pow(x, -1, q), q.__rmod__)

    def rank(self) -> int:
        return self._gauss_jordan([list(r) for r in self.rows])

    def inverse(self) -> "FFMatrix":
        n = self.n
        m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        if self._gauss_jordan(m) < n:
            raise DomainError("singular matrix")
        return FFMatrix._reduced(tuple(tuple(row[n:]) for row in m), self.q)

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and self.q == other.q
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.q, self.rows))

    def __repr__(self):
        return f"FFMatrix({[list(r) for r in self.rows]}, q={self.q})"


def enumerate_gln_fq(n: int, q: int, guard: int = DEFAULT_GROUP_ORDER_GUARD):
    """All invertible n x n matrices over F_q, each exactly once; guarded."""
    return [FFMatrix._reduced(rows, q) for rows in enumerate_glnzm(n, PrimeContext(q, 1), guard)]


def product_map(left, right, modulus: int):
    """x -> left x right modulo modulus, on the flat row-major entries of x,
    for integer rows left and right and entries of x already reduced.

    Entry (a, b) of the product is sum over (c, d) of
    left[a][c] x[c, d] right[d][b].  Every entry whose linear form is one
    entry x[c, d] with coefficient 1 is read by a single `itemgetter` over
    those source indices, so a permutation matrix and its inverse give a
    pure reindexing; only the other entries are rewritten, each as a sum
    of its nonzero terms.
    """
    n = len(left)
    sources, sums = [], []
    for a in range(n):
        for b in range(n):
            terms = [(c * n + d, left[a][c] * right[d][b] % modulus)
                     for c in range(n) for d in range(n)]
            terms = [(k, coef) for k, coef in terms if coef]
            if len(terms) == 1 and terms[0][1] == 1:
                sources.append(terms[0][0])
            else:
                sources.append(a * n + b)
                sums.append((a * n + b, terms))
    # itemgetter of one index returns the entry, not a tuple: at n = 1
    # the only index is 0, so read the slice x[:1]
    read = itemgetter(*sources) if n > 1 else itemgetter(slice(1))

    def apply(x):
        y = list(read(x))
        for k, terms in sums:
            y[k] = sum([x[i] * coef for i, coef in terms]) % modulus
        return tuple(y)

    return apply


def conjugation_closure(seeds, maps, guard=DEFAULT_GROUP_ORDER_GUARD):
    """Closure of a set of elements under the given conjugation maps (and
    hence under the group their generators generate).

    Each map sends an element to the representative, kept in the set, of
    its conjugate by one generator: the integer label (p^e, H, kbar) of a
    conjugated level coset (`measures.ad_orbits`), or the Hermite form of a
    conjugated K_0 coset (`measures.hermite_reps_with_divisors`).  Callers
    build the maps once, before the closure runs, from the few generators
    of `gln_generators`; each element meets each map once, so the
    closure costs its size times the number of maps.  Conjugating by the
    inverses adds nothing: the closure is finite and conjugation by g maps
    it into itself injectively, hence onto itself, so it is already closed
    under conjugation by g^-1.
    """
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        if len(seen) > guard:
            raise ResourceGuardError("conjugation closure exceeds guard")
        cur = frontier.pop()
        for conjugate in maps:
            nxt = conjugate(cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen

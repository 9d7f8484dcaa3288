"""Brute-force oracles used only by the test suite.

Each oracle recomputes a quantity through a code path disjoint from the one
it checks: Fraction elimination instead of the integer determinant kernel,
full adjoint matrices instead of block and Sylvester determinants, column
operations on Fractions instead of the integer Hermite kernel, exhaustive
mod p^m scans instead of Iwasawa reductions, cell-by-cell integration and
GL_2 ball intersections instead of the orbital test read off canonical
labels, the label test summed over the conjugation quotient of each Levi
block, with |Delta| from `discriminant_delta`, instead of one test per
label of an invariant measure and one integer p-exponent read off gamma's
integer ratios (the Jacobian cancelling the roots i < j of |Delta_{T,M}|),
a Fraction split of gamma^-1 x with |Delta_{T,M}| and the Jacobian each
from the full adjoint matrix on its positions instead of that test and
that exponent, minors instead
of Gauss-Jordan ranks, the transversal sum instead of its one-step
collapse, the full action matrix of the induced module instead of the trace
measure, a Jordan type per swept element of all of C * U, closed under
conjugation, with powers of u - 1 by plain triple loops, instead of one
per element of rep * U and class sizes read off centralizer orders,
conjugation by all of K_0 / K_level instead of a closure under
generators, QMat conjugates
canonicalized one by one instead of integer labels moved by tables of
Hermite splits, a box of Hermite matrices
filtered by Smith exponents instead of the K_0 orbit of the diagonal,
block-by-block canonicalization on M instead of one split of the whole
matrix, Fraction splits and QMat inverses instead of integer residues in
the induced module, one QMat product and one Levi point per kept term
instead of integer products merged by their Levi projection in the trace
measure, `from_pairs` canonicalization instead of double coset labels
keyed as built, a QMat Iwasawa split, `coset_meets_parabolic` and
`from_pairs` per support coset instead of integer labels in restriction,
block determinants of a QMat on P instead of a label's Hermite diagonal
in characters, QMat conjugates g x g^-1 labelled by `from_pairs` instead
of labels moved by one Hermite split of each product g H in
`ad_pullback` (the transversal recipe of restriction conjugates through
this oracle, so it shares no code with the label map), and
`modulus_lambda` of each label's QMat instead of the Hermite diagonal in
the modulus twist, every elementary transvection instead of the library's
generators of the compact subgroup, and a determinant filter over all
matrices mod p^m instead of rows chosen outside the span of the rows
above them, and each leaf of a constructible set evaluated term by term,
every node read, instead of the generic step at a constant curve.
Oracles read a measure's labels as the QMats of `label_matrix`
(`matrix_items`).

The module also holds the QMat helpers that only the tests use: the
characteristic polynomial and Chevalley coordinates of a matrix, the level
subgroup test and a QMat transversal of K_0 / K_m, relative regularity,
and the Levi projection and diagonal blocks of an element of P; and the
FFMatrix helpers they use: the difference `ff_sub`, the generators of
GL_n(F_q) and of a Levi, and the sparse `conjugation_map` of a generator.
"""

from fractions import Fraction
from itertools import combinations, product
from math import prod
from operator import mul

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    LevelError,
    ResourceGuardError,
    RootP,
    padic_norm_halfpower,
    padic_valuation,
)
from cocenter.groups import BlockParabolic, SubgroupSpec, discriminant_delta, modulus_lambda
from cocenter.matrices import (
    FFMatrix,
    PrimeContext,
    QMat,
    block_gln_generators,
    conjugation_closure,
    coset_canonical_rep,
    enumerate_glnzm,
    gln_zp_membership,
    glnzm_order,
    gln_fq_order,
    gln_generators,
    integer_form,
    mat_mod,
    product_map,
    unit_group_generators,
)
from cocenter.measures import (
    Ambient,
    HeckeMeasure,
    ad_symmetrized_basis,
    canonical_rep,
    coset_meets_parabolic,
    double_coset_labels,
    hermite_reps_with_divisors,
    label_matrix,
    label_spread,
    parabolic_double_coset_count,
    unit_measure,
)
from cocenter.orbital import orbital_single_coset_gl2
from cocenter.unipotent import jordan_block_matrix, radical_elements


def charpoly(a):
    """Coefficients [1, c_(n-1), ..., c_0] of det(x - a), highest first.

    Berkowitz's division-free recursion: bordering the leading k x k block
    M by column c, row r and corner e multiplies the polynomial by the lower
    triangular Toeplitz matrix with first column (1, -e, -rc, -rMc, ...).
    """
    poly = [1]
    for k in range(len(a)):
        lead = [row[:k] for row in a[:k]]
        r, v = a[k][:k], [row[k] for row in a[:k]]
        col = [1, -a[k][k]]
        for _ in range(k):
            col.append(-sum(map(mul, r, v)))
            v = [sum(map(mul, row, v)) for row in lead]
        poly = [sum(col[i - j] * poly[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return poly


def in_level_subgroup(g: QMat, ctx: PrimeContext) -> bool:
    """g in K_m, i.e. every entry of g - 1 has valuation >= m."""
    n = g.n
    for i in range(n):
        for j in range(n):
            x = g[i, j] - (1 if i == j else 0)
            if x != 0 and padic_valuation(x, ctx.p) < ctx.m:
                return False
    return True


def congruence_equiv(x: QMat, y: QMat, ctx: PrimeContext) -> bool:
    """Same left K_m coset: x^-1 y in K_m."""
    return in_level_subgroup(x.inverse() * y, ctx)


def enumerate_transversal_K0_mod_Km(
    n: int, ctx: PrimeContext, guard: int = DEFAULT_GROUP_ORDER_GUARD
):
    """Exact transversal of K_0 / K_m, one integral QMat per coset."""
    return [QMat(rows) for rows in enumerate_glnzm(n, ctx, guard)]


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
    """Characteristic-polynomial coordinates (e_1, ..., e_n) of g: for
    g = A / d, e_k = (-1)^k c_(n-k) / d^k with det(x - A) = sum c_i x^i."""
    a, d = integer_form(g.rows)
    chi = charpoly(a)
    if chi[-1] == 0:
        raise DomainError("singular matrix")
    return ChevalleyPoint(Fraction((-1) ** k * c, d**k) for k, c in enumerate(chi[1:], 1))


def is_regular(spec: SubgroupSpec, g: QMat) -> bool:
    """Relative regularity of g in H: the discriminant does not vanish."""
    return discriminant_delta(spec, g) != 0


def levi_project(parab: BlockParabolic, g: QMat) -> QMat:
    """Projection P -> M killing the unipotent radical (diagonal blocks)."""
    bi = parab.block_index
    return QMat([[x if bi[i] == bi[j] else 0 for j, x in enumerate(row)]
                 for i, row in enumerate(g.rows)])


def levi_blocks(parab: BlockParabolic, g: QMat):
    return [QMat([row[lo:hi] for row in g.rows[lo:hi]]) for lo, hi in parab.block_ranges]


def gl2_level_basis(ctx):
    """Conjugation-orbit indicators on K_0 and on K_0 diag(p,1) K_0 in GL_2."""
    k0_labels = [rep for rep, _ in unit_measure(Ambient.general_linear(2), ctx).items()]
    d_labels = double_coset_labels(2, ctx, (1, 0))
    return ad_symmetrized_basis(k0_labels, ctx) + ad_symmetrized_basis(d_labels, ctx)


def k0_quotient_generators(ambient, p, k):
    """QMat generators of the maximal compact subgroup of a Levi ambient
    (the block diagonal part of GL_n(Z_p)) modulo level k, built here and
    not from the library's generator list: block by block, every
    elementary transvection e_ij(1) inside the block, then diag(u) at its
    first entry for u among the `unit_group_generators` of (Z/p^k)^*."""
    n = ambient.n
    out = []
    for lo, hi in ambient.parab.block_ranges:
        entries = [(i, j, 1) for i in range(lo, hi) for j in range(lo, hi) if i != j]
        entries += [(lo, lo, u) for u in unit_group_generators(p, k)]
        for i, j, x in entries:
            rows = [[int(a == b) for b in range(n)] for a in range(n)]
            rows[i][j] = x
            out.append(QMat(rows))
    return out


def matrix_items(h):
    """(label_matrix(x), c) for each label x of h and its coefficient c,
    in support order."""
    return [(label_matrix(x), c) for x, c in h.items()]


def ad_orbits_by_all_conjugators(labels, ctx):
    """Conjugation orbits of the level cosets with the given labels, in the
    order and form of `ad_orbits`: each orbit conjugates one coset by every
    element of K_0 / K_level, level = m + spread of the coset, with no
    generators and no closure, and its sorted QMats are labelled by
    `canonical_rep` at the end."""
    quotients = {}
    orbits, seen = [], set()
    for r in labels:
        x = coset_canonical_rep(label_matrix(r), ctx)
        if x.entries() in seen:
            continue
        level = ctx.m + label_spread(x, ctx.p)
        if level not in quotients:
            quotient = enumerate_transversal_K0_mod_Km(x.n, PrimeContext(ctx.p, level))
            quotients[level] = [(k, k.inverse()) for k in quotient]
        orbit = {coset_canonical_rep(k * x * kinv, ctx) for k, kinv in quotients[level]}
        seen.update(y.entries() for y in orbit)
        group = Ambient.general_linear(x.n)
        orbits.append([canonical_rep(group, y, ctx) for y in sorted(orbit, key=QMat.entries)])
    return orbits


def ad_orbits_by_qmat_closure(labels, ctx):
    """`measures.ad_orbits` on QMats: the same closure, but under every
    elementary generator of `k0_quotient_generators` rather than the
    library's generator list, and every conjugate is the QMat product
    g x g^-1 of the `label_matrix` x, labelled again by `canonical_rep`,
    with no table of Hermite splits."""
    if not labels:
        return []
    ambient = Ambient.general_linear(len(labels[0][1]))
    level = ctx.m + max(label_spread(label_matrix(r), ctx.p) for r in labels)
    maps = [lambda x, g=g, ginv=g.inverse(): canonical_rep(ambient, g * label_matrix(x) * ginv, ctx)
            for g in k0_quotient_generators(ambient, ctx.p, level)]
    given = set(labels)
    orbits = []
    seen = set()
    for r in labels:
        if r in seen:
            continue
        orbit = sorted(conjugation_closure([r], maps), key=lambda x: label_matrix(x).entries())
        if any(x not in given for x in orbit):
            raise RuntimeError(f"conjugation took {r} out of the given cosets")
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def unit_measure_by_from_pairs(ambient, ctx):
    """`measures.unit_measure` with every label lift(kbar) canonicalized
    again by `HeckeMeasure.from_pairs`."""
    zeros = ambient.parab.positions("G/M")
    reps = [k for k in enumerate_transversal_K0_mod_Km(ambient.n, ctx)
            if not any(k[i, j] for i, j in zeros)]
    coeff = Fraction(1, len(reps))
    return HeckeMeasure.from_pairs(ambient, ctx, [(k, coeff) for k in reps], biinvariant=True)


def double_coset_measure_by_from_pairs(n, ctx, divisors):
    """`measures.double_coset_measure` with every label H lift(kbar)
    canonicalized again by `HeckeMeasure.from_pairs`."""
    kappas = enumerate_transversal_K0_mod_Km(n, ctx)
    pairs = [(QMat(h) * k, 1) for h in hermite_reps_with_divisors(n, ctx.p, divisors)
             for k in kappas]
    return HeckeMeasure.from_pairs(Ambient.general_linear(n), ctx, pairs, biinvariant=True)


def smith_valuations(g: QMat, p: int):
    """Elementary divisor exponents of the column lattice of g: successive
    differences of the least valuations of the k x k minors."""
    n = g.n
    minors_val = [0]
    for k in range(1, n + 1):
        vals = [padic_valuation(d, p)
                for rows in combinations(range(n), k) for cols in combinations(range(n), k)
                if (d := det_by_fraction_elimination([[g[i, j] for j in cols] for i in rows]))]
        if not vals:
            raise DomainError("singular matrix")
        minors_val.append(min(vals))
    return tuple(minors_val[k] - minors_val[k - 1] for k in range(1, n + 1))


def hermite_forms_by_smith_filter(n, p, divisors):
    """Hermite forms of the left K_0 cosets in K_0 diag(p^divisors) K_0, in
    the order of `hermite_reps_with_divisors`: every upper triangular matrix
    with diagonal p^(a_i), a_i <= max(divisors) summing to sum(divisors),
    and row i reduced modulo p^(a_i) right of the pivot, kept when its Smith
    exponents are the divisors.  A Hermite diagonal need not permute the
    divisors ([[p, 1], [0, p]] lies in K_0 diag(p^2, 1) K_0), so the whole
    box is tried."""
    target = tuple(sorted(divisors))
    out = []
    for diag in product(range(max(divisors), -1, -1), repeat=n):
        if sum(diag) != sum(divisors):
            continue
        uppers = product(*[product(range(p ** diag[i]), repeat=n - 1 - i) for i in range(n)])
        for choice in uppers:
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                mat[i][i] = p ** diag[i]
                mat[i][i + 1:] = choice[i]
            h = QMat(mat)
            if smith_valuations(h, p) == target:
                out.append(h)
    return out


def assemble_from_blocks(blocks_mats, parab) -> QMat:
    """The block diagonal element of the Levi of parab with the given blocks."""
    n = parab.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (lo, hi), b in zip(parab.block_ranges, blocks_mats):
        for i in range(lo, hi):
            for j in range(lo, hi):
                rows[i][j] = b[i - lo, j - lo]
    return QMat(rows)


def canonical_rep_by_blocks(ambient, g: QMat, ctx):
    """`canonical_rep` on M the long way: each diagonal block takes its own
    coset representative and the blocks are reassembled."""
    parab = ambient.parab
    if not parab.levi_contains(g):
        raise DomainError("element not in the Levi")
    blocks = [coset_canonical_rep(b, ctx) for b in levi_blocks(parab, g)]
    return assemble_from_blocks(blocks, parab)


def enumerate_glnzm_by_determinant(n, p, m):
    """GL_n(Z/p^m) as integer-entry tuples in lexicographic order: every
    one of the p^(m n^2) matrices mod p^m whose determinant, taken by
    Fraction elimination, is prime to p."""
    out = []
    for flat in product(range(p**m), repeat=n * n):
        rows = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if det_by_fraction_elimination(rows) % p:
            out.append(rows)
    return out


def det_by_fraction_elimination(rows) -> Fraction:
    """Determinant of square rational rows by Gaussian elimination over Q,
    with row swaps; no integer form and no Bareiss division."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def _reduce_mod_ppower(t: Fraction, a: int, p: int):
    """Canonical representative of t modulo p^a Z_(p).

    Returns r = p^w * (unit-part mod p^(a-w)) with w = v_p(t), an element of
    p^w * {0, ..., p^(a-w)-1}; r = 0 when v_p(t) >= a.
    """
    if t == 0:
        return Fraction(0)
    w = padic_valuation(t, p)
    if w >= a:
        return Fraction(0)
    u = t / Fraction(p) ** w  # unit: numerator and denominator prime to p
    mod = p ** (a - w)
    num = u.numerator % mod
    den_inv = pow(u.denominator, -1, mod)
    return Fraction(p) ** w * ((num * den_inv) % mod)


def hermite_by_fraction_column_ops(g: QMat, p: int):
    """(H, k) of `hermite_padic` by column operations on the Fraction
    entries of g, with valuation pivots: no integer form, no modulus.

    g = H * k with k in GL_n(Z_(p)), H upper triangular with H[i][i] =
    p^(a_i) and H[i][j] (j > i) reduced modulo p^(a_i) Z_(p); a singular g
    raises DomainError.
    """
    n = g.n
    h = [list(row) for row in g.rows]
    # k accumulates the inverse of the column operations: g = H * k throughout
    k = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def swap_cols(a, b):
        for r in range(n):
            h[r][a], h[r][b] = h[r][b], h[r][a]
        k[a], k[b] = k[b], k[a]  # inverse op: swap rows of k

    def add_col(dst, src, f):
        # col_dst += f * col_src  ==>  row_src of k -= f * row_dst
        for r in range(n):
            h[r][dst] += f * h[r][src]
        k[src] = [x - f * y for x, y in zip(k[src], k[dst])]

    def scale_col(c, f):
        for r in range(n):
            h[r][c] *= f
        k[c] = [x / f for x in k[c]]

    for i in range(n - 1, -1, -1):
        piv, piv_v = None, None
        for c in range(i + 1):
            x = h[i][c]
            if x == 0:
                continue
            v = padic_valuation(x, p)
            if piv_v is None or v < piv_v:
                piv, piv_v = c, v
        if piv is None:
            raise DomainError("singular matrix")
        if piv != i:
            swap_cols(piv, i)
        for c in range(i):
            if h[i][c] != 0:
                add_col(c, i, -h[i][c] / h[i][i])
        scale_col(i, Fraction(p) ** piv_v / h[i][i])

    # reduce above-diagonal entries, bottom pivot rows first
    for i in range(n - 1, -1, -1):
        a_i = padic_valuation(h[i][i], p)
        for j in range(i + 1, n):
            r = _reduce_mod_ppower(h[i][j], a_i, p)
            if r != h[i][j]:
                add_col(j, i, (r - h[i][j]) / h[i][i])
    return QMat(h), QMat(k)


def rank_by_minors(rows, is_nonzero=bool):
    """Largest k such that some k x k minor of the rows, taken by
    det_by_fraction_elimination, passes is_nonzero; 0 for a zero matrix."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                if is_nonzero(det_by_fraction_elimination([[rows[i][j] for j in cs] for i in rs])):
                    return k
    return 0


def realification(values, p):
    """The rational matrix of Q(sqrt p)-entries, a + b sqrt p becoming the
    block [[a, p b], [b, a]] of multiplication on the basis (1, sqrt p)."""
    out = []
    for row in values:
        out.append([y for x in row for y in (x.a, p * x.b)])
        out.append([y for x in row for y in (x.b, x.a)])
    return out


def matrix_unit(n, k, l):
    return QMat([[1 if (i, j) == (k, l) else 0 for j in range(n)] for i in range(n)])


def _sparse_product(a, b):
    """Rows of the product of the row lists a and b, summing only the
    nonzero terms."""
    return [
        [sum((x * b[t][j] for t, x in enumerate(row) if x), Fraction(0)) for j in range(len(b))]
        for row in a
    ]


def _conjugation_matrix(left: QMat, right: QMat, positions):
    """Column c: the image left E right of the matrix unit at positions[c],
    read at the positions, from explicit matrix products."""
    cols = []
    for (k, l) in positions:
        unit = matrix_unit(left.n, k, l).rows
        image = _sparse_product(_sparse_product(left.rows, unit), right.rows)
        cols.append([image[i][j] for (i, j) in positions])
    return [list(row) for row in zip(*cols)]


def full_ad_minus_one_det(g: QMat, positions):
    """det of (Ad g^-1 - 1) on the span of the given coordinate positions,
    computed from explicit matrix products g^-1 E g, no entry formulas."""
    mat = _conjugation_matrix(g.inverse(), g, positions)
    for r, row in enumerate(mat):
        row[r] -= 1
    return det_by_fraction_elimination(mat)


def full_ad_det(g: QMat, positions):
    """det of Ad g on the span of the positions, via matrix products."""
    return det_by_fraction_elimination(_conjugation_matrix(g, g.inverse(), positions))


def meets_parabolic_oracle_integral(rep: QMat, parab, ctx):
    """Exhaustive decision for an integral coset: scan every block
    triangular matrix mod p^m for a match."""
    n = rep.n
    target = mat_mod(rep, ctx.modulus, ctx.p)
    for rows in enumerate_glnzm(n, ctx):
        if any(rows[i][j] != 0 for i, j in parab.positions("G/P")):
            continue
        if rows == target:
            return QMat(rows)
    return None


def grid_scan_orbital_gl2(h, gamma, use_value=True):
    """Orbital integral by exhaustive cell scan of the unipotent coordinate.

    Resolution and depth bounds are derived from support valuations, which
    makes every cell provably constant; only conjugation-invariant measures
    are handled (the conjugation integral then drops out).
    """
    assert h.biinvariant
    p, m = h.ctx.p, h.ctx.m
    g1, g2 = gamma.entries
    vdiff = padic_valuation(g1 - g2, p)
    items = matrix_items(h)
    vmins = [rep.min_valuation(p) for rep, _ in items]
    vinvs = [rep.inverse().min_valuation(p) for rep, _ in items]
    depth = max(0, vdiff - min(vmins))
    resolution = max(m - min(vinvs) + vdiff, -depth + 1)
    torus_units = (p**m - p ** (m - 1)) ** 2
    total = Fraction(0)
    for t in range(p ** (depth + resolution)):
        xi = Fraction(t, p**depth)
        y = QMat([[g1, xi * (g1 - g2)], [0, g2]])
        for rep, c in items:
            if congruence_equiv(rep, y, h.ctx):
                total += c.a * Fraction(p) ** (-resolution)
                break
    bare = Fraction(glnzm_order(2, p, m), torus_units) * total
    if not use_value:
        return bare
    delta = (g1 / g2 - 1) * (g2 / g1 - 1)
    return bare * Fraction(p) ** (-padic_valuation(delta, p))


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


def orbital_by_balls_gl2(h, gamma):
    """Orbital integral of a conjugation-invariant measure on GL_2 as one
    ball volume per coset: |Delta(gamma)| * |GL_2(Z/p^m)| / [T meet K_0 :
    T meet K_m] * sum of c_y vol{x : u(x)^-1 gamma u(x) in y K_m}."""
    assert h.biinvariant and h.ambient.n == 2
    p, m = h.ctx.p, h.ctx.m
    g1, g2 = gamma.entries
    total = RootP.rational(0, p)
    for rep, c in matrix_items(h):
        total = total + c * _ball_volume_gl2(_inverse_gl2(rep), gamma.entries, h.ctx)
    delta = (g1 / g2 - 1) * (g2 / g1 - 1)
    weight = Fraction(glnzm_order(2, p, m), (p**m - p ** (m - 1)) ** 2)
    return total * weight * Fraction(p) ** -padic_valuation(delta, p)


def orbital_by_fraction_split(h, gamma):
    """Orbital integral of a conjugation-invariant measure on any Levi.

    A label x counts when gamma^-1 x K_m meets U, decided without assuming
    x canonical: split gamma^-1 x = H k by Fraction column operations and
    ask that H be unipotent (it need not be 1: entries above its diagonal
    may be p-adic fractions) and k mod p^m upper unitriangular.  Every
    constant is taken on the whole Levi from explicit adjoint matrices:
    |Delta_{T,M}(gamma)| / |det(Ad gamma^-1 - 1 on Lie U meet M)| *
    |M(Z/p^m)| / ([T meet K_0 : T meet K_m] * p^(m dim(U meet M)))."""
    assert h.biinvariant
    p, m, n = h.ctx.p, h.ctx.m, gamma.n
    g = QMat.diagonal(gamma.entries)
    off = [(i, j) for i, j in h.ambient.parab.positions("M") if i != j]
    upper = [(i, j) for i, j in off if i < j]
    norm = Fraction(p) ** -padic_valuation(full_ad_minus_one_det(g, off), p)
    jacobian = Fraction(p) ** -padic_valuation(full_ad_minus_one_det(g, upper), p)
    levi_order = 1
    for size in h.ambient.parab.blocks:
        levi_order *= glnzm_order(size, p, m)
    torus_index = (p**m - p ** (m - 1)) ** n
    const = norm / jacobian * Fraction(levi_order, torus_index * p ** (m * len(upper)))
    total = RootP.rational(0, p)
    for rep, c in matrix_items(h):
        hh, k = hermite_by_fraction_column_ops(g.inverse() * rep, p)
        kbar = mat_mod(k, h.ctx.modulus, p)
        if all(hh[i, i] == 1 for i in range(n)) and all(
                kbar[i][j] == (i == j) for i in range(n) for j in range(i + 1)):
            total = total + c
    return total * const


def orbital_by_quotient_sum(h, gamma, guard=DEFAULT_GROUP_ORDER_GUARD):
    """Orbital integral of any measure on any Levi, flagged or not: per
    label x, c_x times the product over the Levi blocks of `label_matrix` x
    of `orbital_single_coset_gl2`, which sums the label test over the
    conjugation quotient of the block, times |Delta_{T, M}(gamma)|, taken
    as |Delta_{T, G}(gamma) / Delta_{M, G}(gamma)| from `discriminant_delta`.
    The guard bounds each quotient."""
    p, parab = h.ctx.p, h.ambient.parab
    g = QMat.diagonal(gamma.entries)
    delta = (discriminant_delta(SubgroupSpec.torus(g.n), g)
             / discriminant_delta(SubgroupSpec.levi(parab), g))
    subs = [gamma.entries[lo:hi] for lo, hi in parab.block_ranges]
    total = RootP.rational(0, p)
    for rep, c in matrix_items(h):
        total = total + c * prod(orbital_single_coset_gl2(block, sub, h.ctx, guard)
                                 for block, sub in zip(levi_blocks(parab, rep), subs))
    return total * padic_norm_halfpower(delta, p, 2)


def perturbed_reps(transversal):
    """A different valid transversal of the same double cosets P\\G/K_m.

    Each representative g is replaced by q g kappa with q a unipotent of
    P meet K_0 and kappa in K_m, staying inside K_0 and inside the same
    double coset.
    """
    n = transversal.parab.n
    radical = transversal.parab.positions("U")
    q_rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if radical:
        q_rows[radical[0][0]][radical[0][1]] = Fraction(1)
    q = QMat(q_rows)
    bump_rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    bump_rows[n - 1][0] += transversal.ctx.modulus
    if n == 1:
        bump_rows[0][0] = Fraction(1 + transversal.ctx.modulus)
    kappa = QMat(bump_rows)
    return [q * g * kappa for g in transversal.reps]


def ad_pullback_by_qmat(h, g):
    """`measures.ad_pullback` on QMats: each `label_matrix` x becomes the
    product g x g^-1, labelled again by `from_pairs`, with no Hermite split
    of g H and no residue product."""
    if not h.ambient.parab.levi_contains(g):
        raise DomainError("conjugator outside the Levi")
    if not gln_zp_membership(g, h.ctx.p):
        raise LevelError("conjugator outside GL_n(Z_p) would change the level")
    ginv = g.inverse()
    return HeckeMeasure.from_pairs(
        h.ambient, h.ctx, [(g * rep * ginv, c) for rep, c in matrix_items(h)], h.biinvariant)


def normalize_by_modulus_lambda(h_m, parab):
    """`measures.normalize_on_levi` through `groups.modulus_lambda` of each
    `label_matrix`: block determinants instead of the label's Hermite
    diagonal."""
    p = h_m.ctx.p
    out = {x: c * padic_norm_halfpower(modulus_lambda(parab, label_matrix(x)), p, 1)
           for x, c in h_m.items()}
    return HeckeMeasure(h_m.ambient, h_m.ctx, out, h_m.biinvariant)


def restriction_over_transversal(h, parab, reps):
    """Unnormalized restriction by its defining recipe: conjugate h by each
    transversal representative in K_0 (`ad_pullback_by_qmat`), restrict
    each conjugate to P coset by coset, push to M along the block
    projection, and sum."""
    pairs = []
    for g in reps:
        for rep, c in matrix_items(ad_pullback_by_qmat(h, g)):
            found = coset_meets_parabolic(rep, parab, h.ctx)
            if found is not None:
                pairs.append((levi_project(parab, found), c))
    return HeckeMeasure.from_pairs(Ambient.levi(parab), h.ctx, pairs)


def restriction_by_qmat_split(h, parab):
    """`measures.res_unnormalized` on QMats: each support coset goes
    through `coset_meets_parabolic`, its QMat Levi projection through
    `HeckeMeasure.from_pairs`, in support order, and the sum is scaled by
    |(P meet M)\\M/(M meet K_m)|, M the ambient of h (G or a Levi)."""
    pairs = []
    for rep, c in matrix_items(h):
        found = coset_meets_parabolic(rep, parab, h.ctx)
        if found is not None:
            pairs.append((levi_project(parab, found), c))
    levi = HeckeMeasure.from_pairs(Ambient.levi(parab), h.ctx, pairs, True)
    return levi.scale(parabolic_double_coset_count(parab, h.ctx, h.ambient))


def character_by_block_determinants(chi, parab, g: QMat, p):
    """chi at g in P, inflated through P -> M: the product of z_i^(v_p(d_i))
    over the determinants d_i of the diagonal blocks of g, each taken by
    Fraction elimination."""
    out = Fraction(1)
    for z, block in zip(chi.params, levi_blocks(parab, g)):
        out *= z ** padic_valuation(det_by_fraction_elimination(block.rows), p)
    return out


def character_pairing_by_label(chi, h):
    """`characters.character_pairing` as the sum of c_x chi(x) over the
    labels x of h, chi valued at every label's matrix by
    `character_by_block_determinants`, with no grouping by valuations."""
    parab, p = h.ambient.parab, h.ctx.p
    if parab.blocks != chi.blocks:
        raise DomainError("block mismatch")
    out = RootP.rational(0, p)
    for x, c in matrix_items(h):
        out = out + c * character_by_block_determinants(chi, parab, x, p)
    return out


def hecke_action_matrix(h, chi, model, normalized=False):
    """Matrix of the h action on the level invariants of the induced module.

    Entry (i, l) accumulates c_x tau(q) over support points x with
    g_i x in P g_l K_m, where tau is the inflated character
    (`character_by_block_determinants`), times the |lambda_P|^(1/2) twist
    in the normalized model.
    """
    if not h.ambient.is_group:
        raise DomainError("the induced module is acted on by measures on G")
    if not h.biinvariant:
        raise DomainError("trace needs a conjugation-invariant measure")
    ctx, parab = model.ctx, model.parab
    dim = model.dim
    zero = RootP.rational(0, ctx.p)
    matrix = [[zero for _ in range(dim)] for _ in range(dim)]
    for i, g_i in enumerate(model.transversal.reps):
        for rep, c in matrix_items(h):
            l, q_part = locate_by_fraction_split(model, g_i * rep)
            weight = RootP.rational(
                character_by_block_determinants(chi, parab, q_part, ctx.p), ctx.p)
            if normalized:
                weight = weight * padic_norm_halfpower(
                    modulus_lambda(parab, q_part), ctx.p, 1
                )
            matrix[i][l] = matrix[i][l] + c * weight
    return matrix


def _reverse_indices(g: QMat) -> QMat:
    """w0 g w0 for the longest permutation w0: rows and columns reversed."""
    return QMat([row[::-1] for row in g.rows[::-1]])


def locate_by_fraction_split(model, y: QMat):
    """(l, q q2) of `InducedModel.locate_with_parabolic_part` on Fraction
    matrices, with no integer form and no integer Hermite kernel.

    The split y = q k comes from `hermite_by_fraction_column_ops`,
    conjugated by w0 for a lower parabolic; k mod p^m names the double
    coset l, and q2 is the integral lift of k g_l^-1 mod p^m, taken with
    QMat.inverse.
    """
    parab, ctx = model.parab, model.ctx
    if parab.orientation == "upper":
        q, k = hermite_by_fraction_column_ops(y, ctx.p)
    else:
        q, k = (_reverse_indices(x)
                for x in hermite_by_fraction_column_ops(_reverse_indices(y), ctx.p))
    idx = model.transversal.lookup[mat_mod(k, ctx.modulus, ctx.p)]
    prod = mat_mod(k * model.transversal.reps[idx].inverse(), ctx.modulus, ctx.p)
    if any(prod[i][j] for i, j in parab.positions("G/P")):
        raise DomainError("transversal lookup names a double coset that k misses")
    return idx, q * QMat(prod)


def trace_measure_by_qmat_products(h, model):
    """`characters.trace_measure` on QMats: each product g_i x is a QMat,
    split by `locate_by_fraction_split`, and every kept term (l = i) goes
    to `HeckeMeasure.from_pairs` as its own Levi projection, unmerged."""
    parab = model.parab
    pairs = []
    for i, g_i in enumerate(model.transversal.reps):
        for rep, c in matrix_items(h):
            l, q_part = locate_by_fraction_split(model, g_i * rep)
            if l == i:
                pairs.append((levi_project(parab, q_part), c))
    return HeckeMeasure.from_pairs(Ambient.levi(parab), model.ctx, pairs)


def ff_sub(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    """a - b over F_q, entrywise; DomainError unless both are n x n over
    the same F_q."""
    if (a.n, a.q) != (b.n, b.q):
        raise DomainError(f"{a.n} x {a.n} over F_{a.q} against {b.n} x {b.n} over F_{b.q}")
    return FFMatrix([[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)], a.q)


def jordan_type_all_powers(u):
    """Jordan type of a unipotent u from all n powers of u - 1 and their
    n + 1 ranks; raises DomainError when (u - 1)^n is not zero.  The
    powers are plain triple loops mod q, not the library's product kernel."""
    n, q = u.n, u.q
    nil = [[(u[i, j] - (i == j)) % q for j in range(n)] for i in range(n)]
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(n):
        last = powers[-1]
        powers.append([[sum(last[i][k] * nil[k][j] for k in range(n)) % q
                        for j in range(n)] for i in range(n)])
    if any(x != 0 for row in powers[n] for x in row):
        raise DomainError("matrix is not unipotent")
    ranks = [FFMatrix(m, q).rank() for m in powers]
    conj = []
    for k in range(1, n + 1):
        d = ranks[k - 1] - ranks[k]
        if d == 0:
            break
        conj.append(d)
    parts = []
    for k in range(1, (conj[0] if conj else 0) + 1):
        size = sum(1 for c in conj if c >= k)
        if size:
            parts.append(size)
    return tuple(sorted(parts, reverse=True))


def gl_generators(n: int, q: int):
    """The `gln_generators` of GL_n(F_q) as FFMatrices: e_12(1), the
    n-cycle's permutation matrix and scalings by generators of F_q^*."""
    return [FFMatrix(rows, q) for rows in gln_generators(n, q)]


def conjugation_map(g: FFMatrix):
    """x -> g x g^-1 on the flat row-major entries of x over F_q, as a
    `product_map` built from g and g^-1 alone, with no assumption on their
    shape."""
    return product_map(g.rows, g.inverse().rows, g.q)


def levi_generators(parab: BlockParabolic, q: int):
    """Generators of M(F_q) = product of block general linear groups."""
    return [FFMatrix(rows, q) for rows in block_gln_generators(parab.blocks, q)]


def build_class(parab: BlockParabolic, block_partitions, q: int,
                guard=DEFAULT_GROUP_ORDER_GUARD):
    """The M(F_q) conjugacy class of the block Jordan representative."""
    if len(block_partitions) != len(parab.blocks):
        raise DomainError("one partition per Levi block")
    for size, partition in zip(parab.blocks, block_partitions):
        if sum(partition) != size:
            raise DomainError(f"partition {partition} does not fit block of size {size}")
    order = 1
    for size in parab.blocks:
        order *= gln_fq_order(size, q)
    if order > guard:
        raise ResourceGuardError(f"|M(F_{q})| = {order} exceeds guard {guard}")
    parts = [part for partition in block_partitions for part in partition]
    rep = jordan_block_matrix(parts, q)
    maps = [conjugation_map(g) for g in levi_generators(parab, q)]
    n = parab.n
    return {FFMatrix([x[i:i + n] for i in range(0, n * n, n)], q)
            for x in conjugation_closure([rep.entries()], maps, guard)}


def closure_both_ways(seeds, gens):
    """Closure of a set of matrices under conjugation by every generator
    and by every generator's inverse."""
    pairs = [(g, g.inverse()) for g in gens]
    pairs += [(ginv, g) for g, ginv in pairs]
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g, ginv in pairs:
            nxt = g * cur * ginv
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def induced_classes_by_element(parab, block_partitions, q):
    """(classes, total) of the G(F_q) sweep of C * U, element by element.

    The Levi class and the sweep are closed under the generators and their
    inverses, and every swept element is given its own Jordan type.
    """
    n = parab.n
    rows = [[0] * n for _ in range(n)]
    for (lo, hi), partition in zip(parab.block_ranges, block_partitions):
        block = jordan_block_matrix(partition, q)
        for i in range(hi - lo):
            for j in range(hi - lo):
                rows[lo + i][lo + j] = block[i, j]
    levi_class = closure_both_ways([FFMatrix(rows, q)], levi_generators(parab, q))
    seeds = {c * u for c in levi_class for u in radical_elements(parab, q)}
    swept = closure_both_ways(seeds, gl_generators(n, q))
    histogram = {}
    for element in swept:
        lam = jordan_type_all_powers(element)
        histogram[lam] = histogram.get(lam, 0) + 1
    return tuple(sorted(histogram.items())), len(swept)


def mpoly_value(poly, point) -> Fraction:
    """p(point) for an MPoly, summed term by term."""
    out = Fraction(0)
    for e, c in poly.terms.items():
        term = c
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        out += term
    return out


def contains_by_terms(s, point) -> bool:
    """Membership of a point in a ConstructibleSet: every node is read and
    every leaf's poly evaluated by `mpoly_value`."""
    if s.poly is not None:
        return (mpoly_value(s.poly, point) == 0) == (s.op == "eq")
    values = [contains_by_terms(child, point) for child in s.children]
    if s.op == "not":
        return not values[0]
    return all(values) if s.op == "and" else any(values)

"""Reference values the workloads check the program against.

Nothing here calls the program: group orders and class numbers come from
closed formulas, discriminants and the modulus character from full adjoint
matrices built by explicit matrix products and a determinant written out
here, and induced unipotent classes from the part-wise sum rule.
"""

from fractions import Fraction


def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def gl_class_number(n, q):
    """Number of conjugacy classes of GL_n(F_q), for n in {2, 3}."""
    if n == 2:
        return q * q - 1
    if n == 3:
        return q**3 - q
    raise ValueError("class numbers are tabulated for n in {2, 3}")


def unipotent_count(n, q):
    """Steinberg: GL_n(F_q) has q^(n(n-1)) unipotent elements."""
    return q ** (n * (n - 1))


def partwise_sum(partitions):
    """The partition whose i-th part is the sum of the i-th parts.

    Inducing the unipotent class of type (lambda_1, ..., lambda_k) from a
    Levi GL_{n_1} x ... x GL_{n_k} of GL_n gives the class of this type.
    """
    length = max(len(lam) for lam in partitions)
    return tuple(
        sum(lam[i] for lam in partitions if i < len(lam)) for i in range(length)
    )


def strictly_dominated(lam):
    """A partition strictly below lam in dominance order, or None for 1^n."""
    if lam[0] == 1:
        return None
    return tuple(sorted(lam[1:] + (lam[0] - 1, 1), reverse=True))


def det(rows):
    """Determinant of a square list of rationals by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def inverse(a):
    """Inverse by Gauss-Jordan elimination on [a | 1]."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def coordinates(n, blocks, orientation):
    """Matrix positions of Lie P, Lie M and of the complements Lie G / Lie P
    and Lie G / Lie M, for the block parabolic with the given orientation."""
    block = [b for b, size in enumerate(blocks) for _ in range(size)]
    upper = orientation == "upper"
    out = {"P": [], "M": [], "G/P": [], "G/M": []}
    for i in range(n):
        for j in range(n):
            in_p = block[i] <= block[j] if upper else block[i] >= block[j]
            out["P" if in_p else "G/P"].append((i, j))
            out["M" if block[i] == block[j] else "G/M"].append((i, j))
    return out


def _adjoint_det(g, ginv, positions, minus_one):
    """det of X -> g X g^-1 (minus 1 if asked) on the span of the matrix
    units at the given positions, each image taken by two full products."""
    n = len(g)
    columns = []
    for (k, l) in positions:
        unit = [[Fraction(int((i, j) == (k, l))) for j in range(n)] for i in range(n)]
        image = matmul(matmul(g, unit), ginv)
        columns.append([image[i][j] for (i, j) in positions])
    size = len(positions)
    return det([
        [columns[c][r] - (1 if minus_one and r == c else 0) for c in range(size)]
        for r in range(size)
    ])


def discriminants(n, blocks, orientation, g):
    """(Delta_P(g), Delta_M(g), lambda_P(g), (-1)^dim U) for g in M.

    Delta_H(g) = det(Ad g^-1 - 1) on Lie G / Lie H and lambda_P(g) =
    det(Ad g) on Lie P, with the complement coordinates taken literally.
    """
    coords = coordinates(n, blocks, orientation)
    ginv = inverse(g)
    delta_p = _adjoint_det(ginv, g, coords["G/P"], True)
    delta_m = _adjoint_det(ginv, g, coords["G/M"], True)
    lam = _adjoint_det(g, ginv, coords["P"], False)
    dim_radical = len(coords["P"]) - len(coords["M"])
    return delta_p, delta_m, lam, -1 if dim_radical % 2 else 1

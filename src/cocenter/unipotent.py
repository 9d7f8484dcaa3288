"""Induced unipotent classes over F_q, by counting.

For a unipotent class C of a Levi M of GL_n(F_q), the induced set is the
union of all G conjugates of C * U.  The ground field here is finite (the
natural setting is an infinite field), so Zariski density in the closure is
replaced by dominance maximality of the Jordan type: nilpotent orbit
closures of GL_n are governed by the dominance order on partitions.
Output carries that bridge explicitly.

The sweep runs over rep * U alone, for rep the block Jordan representative
of C: M normalizes U, so C * U is the union of the M conjugates of rep * U
and meets the same G(F_q) conjugacy classes.  A unipotent class of GL_n(F_q)
is fixed by its Jordan type lam, so the sweep takes one Jordan type per
element of rep * U and reads the size of each class it meets as
|GL_n(F_q)| / |C_G(u_lam)|, with the centralizer order in closed form
(`centralizer_order`).  No class is enumerated.  The formula is not taken
on faith: the tests compare every histogram with a sweep of all of C * U
that closes it under conjugation and takes a Jordan type per element, and
the class sizes with Jordan type histograms of all of GL_n(F_q) and with
Steinberg's count q^(n^2 - n) of unipotent elements.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    ResourceGuardError,
)
from cocenter.groups import BlockParabolic, conjugate_partition, jordan_type
from cocenter.matrices import FFMatrix, enumerate_gln_fq, gln_fq_order
# only the traced benchmark's span reads this name here (ROADMAP item 7)
from cocenter.matrices import conjugation_closure  # noqa: F401


def dominates(lam, mu) -> bool:
    """Dominance order: partial sums of lam bound those of mu."""
    if sum(lam) != sum(mu):
        raise DomainError("dominance compares partitions of the same n")
    total_l = total_m = 0
    for k in range(max(len(lam), len(mu))):
        total_l += lam[k] if k < len(lam) else 0
        total_m += mu[k] if k < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def partitions_of(n: int):
    """All partitions of n, descending parts."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def jordan_block_matrix(partition, q: int) -> FFMatrix:
    """Block diagonal unipotent with upper Jordan blocks of the given sizes."""
    n = sum(partition)
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for part in partition:
        for i in range(part):
            rows[pos + i][pos + i] = 1
            if i + 1 < part:
                rows[pos + i][pos + i + 1] = 1
        pos += part
    return FFMatrix(rows, q)


def radical_elements(parab: BlockParabolic, q: int):
    """All of U(F_q): free entries on the radical positions."""
    n = parab.n
    positions = parab.positions("U")
    out = []
    for values in itertools.product(range(q), repeat=len(positions)):
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        for (i, j), v in zip(positions, values):
            rows[i][j] = v
        out.append(FFMatrix(rows, q))
    return out


@dataclass(frozen=True)
class InducedSet:
    """G(F_q) sweep of C * U: Jordan class histogram plus provenance.

    The finite-field analog used downstream: dominance-maximal Jordan type
    in place of Zariski density of a class in the closure of the induced
    set.
    """

    n: int
    q: int
    blocks: tuple
    block_partitions: tuple
    orientation: str
    classes: tuple  # sorted ((partition, count), ...)
    total: int

    def partitions_present(self):
        return tuple(partition for partition, _ in self.classes)


def centralizer_order(lam, q: int) -> int:
    """|C_G(u)| for u unipotent of Jordan type lam in G = GL_n(F_q).

    With lam' the conjugate partition and m_i the number of parts of lam
    equal to i, |C_G(u)| = q^(sum lam'_i^2 - sum m_i^2) prod |GL_{m_i}(F_q)|
    (Macdonald, Symmetric Functions and Hall Polynomials, ch. II and IV).
    """
    mults = Counter(lam).values()
    exponent = sum(c * c for c in conjugate_partition(lam)) - sum(m * m for m in mults)
    return q**exponent * prod(gln_fq_order(m, q) for m in mults)


def induced_set(parab: BlockParabolic, block_partitions, q: int,
                guard=DEFAULT_GROUP_ORDER_GUARD) -> InducedSet:
    """Union of G conjugates of C * U, tallied by Jordan type.

    Only rep * U is swept, for rep the block Jordan representative of C.
    For m in M, m rep m^-1 U = m (rep U) m^-1, since M normalizes U;
    so G (C U) = G (rep U), with the same classes and the same total.

    Each element of rep * U is given its Jordan type lam.  The G(F_q)
    conjugacy class of type lam is met, and counts in full:
    |GL_n(F_q)| / `centralizer_order`(lam, q) elements.  `total` is the
    sum of the sizes of the classes met.  The guard bounds |U(F_q)|, the
    one enumeration that runs.
    """
    size = q ** len(parab.positions("U"))
    if size > guard:
        raise ResourceGuardError(f"|U(F_{q})| = {size} exceeds guard {guard}")
    if len(block_partitions) != len(parab.blocks):
        raise DomainError("one partition per Levi block")
    for block, partition in zip(parab.blocks, block_partitions):
        if sum(partition) != block:
            raise DomainError(f"partition {partition} does not fit block of size {block}")
    parts = [part for partition in block_partitions for part in partition]
    rep = jordan_block_matrix(parts, q)
    met = {jordan_type(rep * urad) for urad in radical_elements(parab, q)}
    order = gln_fq_order(parab.n, q)
    histogram = {lam: order // centralizer_order(lam, q) for lam in met}
    return InducedSet(
        parab.n,
        q,
        parab.blocks,
        tuple(tuple(partition) for partition in block_partitions),
        parab.orientation,
        tuple(sorted(histogram.items())),
        sum(histogram.values()),
    )


def heart(induced: InducedSet):
    """Classes whose Jordan type dominates every type present; possibly empty.

    Never guesses: when the types present have no common dominating member,
    the result is the empty set.
    """
    present = induced.partitions_present()
    return tuple(
        lam for lam in present if all(dominates(lam, mu) for mu in present)
    )


def check_heart_independence(n: int, blocks, block_partitions, q: int,
                             guard=DEFAULT_GROUP_ORDER_GUARD):
    """Upper and lower inductions from the same Levi class compared whole:
    one `induced_set` per orientation.

    Returns (ok, upper_set, lower_set); ok demands the full class histogram
    and the heart to coincide.
    """
    upper = induced_set(BlockParabolic(n, blocks, "upper"), block_partitions, q, guard)
    lower = induced_set(BlockParabolic(n, blocks, "lower"), block_partitions, q, guard)
    ok = (
        upper.classes == lower.classes
        and upper.total == lower.total
        and heart(upper) == heart(lower)
    )
    return ok, upper, lower


def count_unipotent_elements(n: int, q: int, guard=DEFAULT_GROUP_ORDER_GUARD) -> int:
    """Exhaustive count of unipotent elements of GL_n(F_q)."""
    count = 0
    for g in enumerate_gln_fq(n, q, guard):
        try:
            jordan_type(g)
        except DomainError:
            continue
        count += 1
    return count


def partwise_sum(block_partitions):
    """lam^1 + ... + lam^k, summed part by part (missing parts are 0): the
    Jordan type that Lusztig-Spaltenstein predict for the heart induced
    from the Levi class of the block partitions; regression data only,
    asserted against the sweep, never trusted on its own."""
    width = max(len(lam) for lam in block_partitions)
    return tuple(sum(lam[i] for lam in block_partitions if i < len(lam)) for i in range(width))

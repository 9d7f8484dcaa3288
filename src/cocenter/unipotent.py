"""Induced unipotent classes over F_q, by exhaustive conjugation.

For a unipotent class C of a Levi M of GL_n(F_q), the induced set is the
union of all G conjugates of C * U.  The ground field here is finite (the
natural setting is an infinite field), so Zariski density in the closure is
replaced by dominance maximality of the Jordan type: nilpotent orbit
closures of GL_n are governed by the dominance order on partitions.
Output carries that bridge explicitly, and every number is the result of a
finite enumeration, never of a formula taken on faith.

The sweep starts from rep * U alone, for rep the block Jordan
representative of C: M normalizes U, so C * U is the union of the M
conjugates of rep * U and meets the same G(F_q) conjugacy classes.  It is
tallied class by class: each G(F_q) conjugacy class met by rep * U is
enumerated once, and its size is counted under the Jordan type of one
representative, since the Jordan type is constant on a class.  The closed
classes are kept in a `ClassTable`, which one heart check shares between
its upper and its lower sweep, so each class is closed once per check.
Closures conjugate by the generators only, not by their inverses (see
`matrices.conjugation_closure`); the K_0 conjugation orbits of level
cosets that `measures.ad_orbits` builds are closures of the same kind.
`conjugation_closure` and `product_map` live in `matrices`, and
`conjugate_partition` in `groups`; this module re-imports them, and
within the library only `cli` imports this module.

Over F_q the closures run on flat row-major entry tuples, not on
`FFMatrix` objects: each generator g of `matrices.gln_generators` (one
transvection, one permutation matrix and the unit scalings) becomes a
`conjugation_map`, built once per heart check (once per `ClassTable`)
from g and g^-1.  It reads every entry of g x g^-1 that is a single
entry of x by one index map and computes only the others: the
permutation is a pure index map, the transvection recomputes 2n - 1 of
the n^2 entries and a scaling 2n - 2.  Matrices are rebuilt only where a
closure hands its elements on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    ResourceGuardError,
)
from cocenter.groups import BlockParabolic, conjugate_partition, jordan_type
from cocenter.matrices import (
    FFMatrix,
    conjugation_closure,
    enumerate_gln_fq,
    gln_fq_order,
    gln_generators,
    product_map,
)


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


def gl_generators(n: int, q: int):
    """The `gln_generators` of GL_n(F_q) as FFMatrices: e_12(1), the
    n-cycle's permutation matrix and scalings by generators of F_q^*."""
    return [FFMatrix(rows, q) for rows in gln_generators(n, q)]


def conjugation_map(g: FFMatrix):
    """x -> g x g^-1 on the flat row-major entries of x over F_q, as a
    `product_map` built from g and g^-1 alone, with no assumption on their
    shape."""
    return product_map(g.rows, g.inverse().rows, g.q)


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


class ClassTable:
    """The G(F_q) conjugacy classes of GL_n(F_q) closed so far, each an
    orbit set of flat entry tuples with the Jordan type of the element that
    seeded it, and the generator `conjugation_map`s that close them.

    G(F_q) conjugacy classes are disjoint and do not depend on the sweep
    that meets them, so a class closed by one sweep is the class that any
    other sweep of the same GL_n(F_q) would close from any of its members.
    A table lives for one call of `induced_set` or of
    `check_heart_independence`; it is never kept across calls.
    """

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q
        self.closed = []  # [(orbit, partition), ...]

    @cached_property
    def maps(self):
        """Built at the first closure, so that a table costs nothing until
        a sweep has passed the checks of `induced_set`."""
        return [conjugation_map(g) for g in gl_generators(self.n, self.q)]

    def index_of(self, seed: FFMatrix, guard=DEFAULT_GROUP_ORDER_GUARD) -> int:
        """Index in `closed` of the class of seed; a seed that no closed
        class contains is closed, under the guard, and appended."""
        entries = seed.entries()
        for k, (orbit, _) in enumerate(self.closed):
            if entries in orbit:
                return k
        orbit = conjugation_closure([entries], self.maps, guard)
        self.closed.append((orbit, jordan_type(seed)))
        return len(self.closed) - 1


def induced_set(parab: BlockParabolic, block_partitions, q: int,
                guard=DEFAULT_GROUP_ORDER_GUARD, *, classes=None) -> InducedSet:
    """Exhaustive union of G conjugates of C * U, tallied by Jordan type.

    Only rep * U is swept, for rep the block Jordan representative of C.
    For m in M, m rep m^-1 U = m (rep U) m^-1, since M normalizes U;
    so G (C U) = G (rep U), with the same classes and the same total.

    Swept one G conjugacy class at a time: each element of rep * U finds
    its class in the `ClassTable` `classes` (a fresh one by default), and
    only an element that no closed class contains seeds a closure.  Each
    class the sweep meets counts once, in full, under the Jordan type of
    its seed, and `total` is the sum of their sizes: classes in the table
    that this sweep does not meet count nothing, so a table shared with
    other sweeps of the same GL_n(F_q) changes no number.  A table lives
    for one call: the default one for this sweep, the one that
    `check_heart_independence` passes for its two sweeps.  The guard on
    |GL_n(F_q)| bounds the sweep.
    """
    if gln_fq_order(parab.n, q) > guard:
        raise ResourceGuardError("|GL_n(F_q)| exceeds guard")
    if len(block_partitions) != len(parab.blocks):
        raise DomainError("one partition per Levi block")
    for size, partition in zip(parab.blocks, block_partitions):
        if sum(partition) != size:
            raise DomainError(f"partition {partition} does not fit block of size {size}")
    if classes is None:
        classes = ClassTable(parab.n, q)
    elif (classes.n, classes.q) != (parab.n, q):
        raise DomainError(f"a class table of GL_{classes.n}(F_{classes.q}) "
                          f"cannot serve GL_{parab.n}(F_{q})")
    parts = [part for partition in block_partitions for part in partition]
    rep = jordan_block_matrix(parts, q)
    met = {classes.index_of(rep * urad, guard) for urad in radical_elements(parab, q)}
    histogram = {}
    for k in met:
        orbit, lam = classes.closed[k]
        histogram[lam] = histogram.get(lam, 0) + len(orbit)
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
    """Upper and lower inductions from the same Levi class compared whole.

    Both sweeps share one `ClassTable`, built for this call and dropped
    with it: they sweep the same GL_n(F_q), whose conjugacy classes do not
    depend on the parabolic, so a class met by both is closed once, and
    each sweep still counts only the classes it meets.

    Returns (ok, upper_set, lower_set); ok demands the full class histogram
    and the heart to coincide.
    """
    classes = ClassTable(n, q)
    upper = induced_set(BlockParabolic(n, blocks, "upper"), block_partitions, q, guard,
                        classes=classes)
    lower = induced_set(BlockParabolic(n, blocks, "lower"), block_partitions, q, guard,
                        classes=classes)
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


def richardson_prediction(blocks):
    """Transpose of the sorted block sizes; regression data only, asserted
    against the exhaustive computation, never trusted on its own."""
    return conjugate_partition(tuple(sorted(blocks, reverse=True)))

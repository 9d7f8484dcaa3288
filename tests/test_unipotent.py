import itertools
from collections import Counter

import pytest

from cocenter.exactnum import DEFAULT_GROUP_ORDER_GUARD, DomainError, ResourceGuardError
from cocenter.groups import BlockParabolic, compositions, jordan_type
from cocenter.matrices import FFMatrix, conjugation_closure, enumerate_gln_fq, gln_fq_order
from cocenter.unipotent import (
    InducedSet,
    centralizer_order,
    check_heart_independence,
    conjugate_partition,
    count_unipotent_elements,
    dominates,
    heart,
    induced_set,
    partitions_of,
    partwise_sum,
    radical_elements,
)
from tests.oracles import (
    build_class,
    conjugation_map,
    gl_generators,
    induced_classes_by_element,
    jordan_type_all_powers,
    levi_generators,
)

# (n, q) of the groups GL_n(F_q) checked against the element-by-element oracles
ORACLE_CASES = ((2, 2), (2, 3), (2, 5), (3, 2))


def test_dominance_order():
    assert dominates((3,), (2, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((1, 1, 1), (2, 1))
    assert dominates((2, 2), (2, 1, 1))
    assert not dominates((3, 1), (2, 2)) == False  # (3,1) dominates (2,2)
    with pytest.raises(DomainError):
        dominates((2,), (1, 1, 1))


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition((2, 2)) == (2, 2)
    assert conjugate_partition(()) == ()


def test_partitions_of():
    assert sorted(partitions_of(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )


def test_build_class_trivial_and_regular():
    borel = BlockParabolic(2, (1, 1), "upper")
    assert build_class(borel, [(1,), (1,)], 2) == {FFMatrix.identity(2, 2)}
    full = BlockParabolic(2, (2,), "upper")
    cls = build_class(full, [(2,)], 2)
    assert len(cls) == 3
    assert all(jordan_type(u) == (2,) for u in cls)


def test_regular_class_where_2_is_no_primitive_root():
    """The scalings generate all of F_q^*, also where 2 does not (q = 7,
    17): the regular unipotent class of GL_2(F_q) has q^2 - 1 elements."""
    for q in (7, 17):
        assert len(build_class(BlockParabolic(2, (2,), "upper"), [(2,)], q)) == q * q - 1
        assert induced_set(BlockParabolic(2, (2,), "upper"), [(2,)], q).total == q * q - 1


def test_class_sizes_sum_to_unipotent_count():
    full = BlockParabolic(2, (2,), "upper")
    for q in (2, 3, 5):
        total = 0
        for partition in partitions_of(2):
            total += len(build_class(full, [partition], q))
        assert total == q * q
        assert count_unipotent_elements(2, q) == q * q


def test_induced_set_gl2_borel():
    borel = BlockParabolic(2, (1, 1), "upper")
    ind = induced_set(borel, [(1,), (1,)], 2)
    assert dict(ind.classes) == {(1, 1): 1, (2,): 3}
    assert ind.total == 4
    assert heart(ind) == ((2,),)
    assert "dominance-maximal" in InducedSet.__doc__


def test_induced_set_gl3_levi21():
    parab = BlockParabolic(3, (2, 1), "upper")
    ind = induced_set(parab, [(1, 1), (1,)], 2)
    assert set(ind.partitions_present()) == {(1, 1, 1), (2, 1)}
    assert heart(ind) == ((2, 1),)
    lower = induced_set(parab.opposite(), [(1, 1), (1,)], 2)
    assert ind.classes == lower.classes and ind.total == lower.total


def test_induced_set_is_conjugation_stable():
    parab = BlockParabolic(2, (1, 1), "upper")
    # rebuild the raw element set and check stability under generators
    seeds = {c * u for c in build_class(parab, [(1,), (1,)], 3) for u in radical_elements(parab, 3)}
    maps = [conjugation_map(g) for g in gl_generators(2, 3)]
    swept = {FFMatrix([x[:2], x[2:]], 3)
             for x in conjugation_closure({s.entries() for s in seeds}, maps)}
    for g in gl_generators(2, 3):
        assert {g * x * g.inverse() for x in swept} == swept


def test_conjugation_maps_match_products():
    """Each sparse conjugation map equals g x g^-1 taken by matrix products,
    on every element x of the group, for the generators of G and of every
    Levi; over F_3 the 3-cycle of GL_3 is a pure index map."""
    for n, q in ORACLE_CASES + ((3, 3),):
        gens = gl_generators(n, q)
        for blocks in compositions(n):
            gens += levi_generators(BlockParabolic(n, blocks, "upper"), q)
        elements = enumerate_gln_fq(n, q)
        for g in gens:
            conjugate, ginv = conjugation_map(g), g.inverse()
            for x in elements:
                assert conjugate(x.entries()) == (g * x * ginv).entries(), (g, x)


def test_heart_single_class_and_trivial_cases():
    parab = BlockParabolic(2, (2,), "upper")
    ind = induced_set(parab, [(2,)], 3)
    assert heart(ind) == ((2,),)  # a single class is its own heart


def test_heart_empty_when_no_maximum():
    fake = InducedSet(4, 2, (4,), ((2, 2),), "upper",
                      (((2, 1, 1), 5), ((2, 2), 7), ((3, 1), 1)), 13)
    # (3,1) dominates both others here, so the heart is (3,1); build a true
    # antichain to exercise emptiness
    assert heart(fake) == ((3, 1),)
    antichain = InducedSet(6, 2, (6,), ((3, 3),), "upper",
                           (((3, 1, 1, 1), 2), ((2, 2, 2), 3)), 5)
    assert heart(antichain) == ()


def test_richardson_pattern_all_levis_gl2_gl3():
    for n, q in ((2, 2), (2, 3), (3, 2)):
        from cocenter.groups import compositions

        for blocks in compositions(n):
            parab = BlockParabolic(n, blocks, "upper")
            trivial = [tuple([1] * b) for b in blocks]
            ind = induced_set(parab, trivial, q)
            ht = heart(ind)
            assert ht == (partwise_sum(trivial),), (blocks, ht)


def test_heart_independence_all_cases_small():
    for n, q in ((2, 2), (2, 3)):
        from cocenter.groups import compositions

        for blocks in compositions(n):
            options = [list(partitions_of(b)) for b in blocks]
            for combo in itertools.product(*options):
                ok, upper, lower = check_heart_independence(n, blocks, combo, q)
                assert ok


def _levi_classes(n):
    """(blocks, combo) for every class of every Levi of GL_n."""
    for blocks in compositions(n):
        for combo in itertools.product(*(list(partitions_of(b)) for b in blocks)):
            yield blocks, combo


def test_heart_check_takes_one_jordan_type_per_radical_element(monkeypatch):
    """One heart check takes one Jordan type per element of U(F_q) in each
    orientation and closes no class: on GL_3(F_3), Borel, trivial Levi
    classes, 2 * 3^3 Jordan types, and both sweeps meet all three
    unipotent classes."""
    calls, closures = [], []

    def counting_jordan_type(u):
        calls.append(u)
        return jordan_type(u)

    def counting_closure(*args, **kwargs):
        closures.append(args[0])
        return conjugation_closure(*args, **kwargs)

    monkeypatch.setattr("cocenter.unipotent.jordan_type", counting_jordan_type)
    monkeypatch.setattr("cocenter.unipotent.conjugation_closure", counting_closure)
    ok, upper, lower = check_heart_independence(3, (1, 1, 1), ((1,), (1,), (1,)), 3)
    assert ok and upper.partitions_present() == ((1, 1, 1), (2, 1), (3,))
    assert len(calls) == 54 and not closures


def test_class_sizes_from_centralizer_orders():
    """|GL_n(F_q)| / `centralizer_order`(lam, q) is a whole number for every
    partition lam of n, and these class sizes add up to Steinberg's count
    q^(n^2 - n) of unipotent elements, for n <= 5 and q in {2, 3, 5}; for
    n <= 3 and q in {2, 3}, each is the number of elements of GL_n(F_q) of
    Jordan type lam."""
    for n in range(1, 6):
        for q in (2, 3, 5):
            order = gln_fq_order(n, q)
            sizes = {}
            for lam in partitions_of(n):
                assert order % centralizer_order(lam, q) == 0, (n, q, lam)
                sizes[lam] = order // centralizer_order(lam, q)
            assert sum(sizes.values()) == q ** (n * n - n), (n, q)
            if n <= 3 and q <= 3:
                histogram = Counter()
                for g in enumerate_gln_fq(n, q):
                    try:
                        histogram[jordan_type(g)] += 1
                    except DomainError:
                        pass
                assert histogram == sizes, (n, q)


def test_heart_is_partwise_sum_beyond_the_group_order_guard():
    """Lusztig-Spaltenstein on every class of every proper Levi of GL_4(F_3)
    and GL_5(F_2), under the default guard, which |GL_n(F_q)| exceeds and
    |U(F_q)| does not: upper and lower inductions agree whole, and the
    heart is the part-wise sum of the Levi partitions."""
    for n, q, count in ((4, 3, 17), (5, 2, 52)):
        assert gln_fq_order(n, q) > DEFAULT_GROUP_ORDER_GUARD
        cases = [(blocks, combo) for blocks, combo in _levi_classes(n) if blocks != (n,)]
        for blocks, combo in cases:
            ok, upper, _ = check_heart_independence(n, blocks, combo, q)
            assert ok and heart(upper) == (partwise_sum(combo),), (n, q, blocks, combo)
        assert len(cases) == count


def test_different_levis_can_differ():
    """Changing the Levi class (not the parabolic) changes the induced set:
    the comparison is sensitive to what it should be sensitive to."""
    ind_a = induced_set(BlockParabolic(3, (1, 2), "upper"), [(1,), (2,)], 2)
    ind_b = induced_set(BlockParabolic(3, (2, 1), "upper"), [(1, 1), (1,)], 2)
    assert heart(ind_a) != heart(ind_b)


def test_resource_guard():
    with pytest.raises(ResourceGuardError):
        induced_set(BlockParabolic(3, (2, 1), "upper"), [(1, 1), (1,)], 5, guard=10)


def test_induced_set_refuses_misfit_partitions():
    """One partition per Levi block, each of its block's size: a list of
    another length, or a partition of another size, is refused even where
    the parts still add up to n."""
    parab = BlockParabolic(3, (2, 1), "upper")
    for combo in ([(2, 1)], [(1, 1), (1,), (1,)]):
        with pytest.raises(DomainError, match="one partition per Levi block"):
            induced_set(parab, combo, 2)
    with pytest.raises(DomainError, match=r"partition \(1,\) does not fit block of size 2"):
        induced_set(parab, [(1,), (2,)], 2)


def test_induced_set_matches_element_sweep_oracle():
    """Class-by-class tallies of the rep * U sweep equal a Jordan type
    taken per swept element of all of C * U, with closures that also
    conjugate by inverses, on every Levi class of every parabolic, both
    orientations, also on GL_3(F_3); on GL_4(F_2), the Borel alone."""
    cases = [(n, q, blocks, combo) for n, q in ORACLE_CASES + ((3, 3),)
             for blocks, combo in _levi_classes(n)]
    cases.append((4, 2, (1, 1, 1, 1), ((1,),) * 4))
    for n, q, blocks, combo in cases:
        for orientation in ("upper", "lower"):
            parab = BlockParabolic(n, blocks, orientation)
            ind = induced_set(parab, combo, q)
            expected = induced_classes_by_element(parab, combo, q)
            assert (ind.classes, ind.total) == expected, (n, q, blocks, combo, orientation)


def test_jordan_type_matches_all_powers_oracle():
    """The trace refusal and the early-exit rank sequence agree with all n
    powers on every group element, and refuse exactly the non-unipotent
    ones; on GL_3(F_3) the trace decides most elements."""
    for n, q in ORACLE_CASES + ((3, 3),):
        for g in enumerate_gln_fq(n, q):
            try:
                expected = jordan_type_all_powers(g)
            except DomainError:
                with pytest.raises(DomainError):
                    jordan_type(g)
            else:
                assert jordan_type(g) == expected, g


def test_gl4_f2_heart_is_partwise_sum():
    """Lusztig-Spaltenstein for GL_4(F_2), on every class of every Levi:
    upper and lower inductions agree whole, and the heart is the class whose
    partition is the part-wise sum of the Levi partitions."""
    cases = 0
    for blocks in compositions(4):
        for combo in itertools.product(*(list(partitions_of(b)) for b in blocks)):
            ok, upper, _ = check_heart_independence(4, blocks, combo, 2)
            assert ok, (blocks, combo)
            assert heart(upper) == (partwise_sum(combo),), (blocks, combo)
            cases += 1
    assert cases == 22

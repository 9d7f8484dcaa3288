"""Induced unipotent classes over small finite fields, exhaustively.

For a unipotent class C of a Levi M, sweeping C * U through all of G gives
a union of unipotent classes whose Jordan histogram does not depend on the
choice between the two opposite parabolics, and whose dominance-maximal
member (the heart) recovers the transposed block shape for trivial C.
"""

from cocenter.groups import BlockParabolic, compositions
from cocenter.unipotent import (
    check_heart_independence,
    count_unipotent_elements,
    heart,
    induced_set,
    partitions_of,
    partwise_sum,
)

print("unipotent element counts in rank two:")
for q in (2, 3, 5):
    print(f"   GL_2(F_{q}): {count_unipotent_elements(2, q)} (= {q}^2)")

print("\ninduction from the torus of GL_2(F_2):")
ind = induced_set(BlockParabolic(2, (1, 1), "upper"), [(1,), (1,)], 2)
for partition, count in ind.classes:
    print(f"   class {partition}: {count} elements")
print("   heart:", heart(ind))

print("\nGL_3(F_2), Levi (2,1), trivial class, both orientations:")
ok, upper, lower = check_heart_independence(3, (2, 1), [(1, 1), (1,)], 2)
print("   histograms equal:", upper.classes == lower.classes)
print("   heart:", heart(upper), " independent:", ok)

print("\nRichardson pattern (trivial classes) across all Levis of GL_3(F_3):")
for blocks in compositions(3):
    trivial = [tuple([1] * b) for b in blocks]
    ind = induced_set(BlockParabolic(3, blocks, "upper"), trivial, 3)
    print(f"   blocks {blocks}: heart {heart(ind)}"
          f"  transposed shape {partwise_sum(trivial)}")

print("\nnontrivial classes, every Levi of GL_3(F_2):")
import itertools

for blocks in compositions(3):
    options = [list(partitions_of(b)) for b in blocks]
    for combo in itertools.product(*options):
        ok, upper, _ = check_heart_independence(3, blocks, combo, 2)
        print(f"   blocks {blocks} classes {combo}: heart {heart(upper)}"
              f" independent {ok}")

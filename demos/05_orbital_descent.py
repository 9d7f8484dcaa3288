"""Split orbital integrals and descent to the Levi.

The orbital integral of a level measure at a regular diagonal element is a
finite exact computation (ball volumes in the unipotent coordinate).  Its
value on the group equals the discriminant half power times the orbital
integral of the normalized restriction on the torus: the descent identity,
checked here point by point on a valuation grid, together with the failure
of the deliberately corrupted normalization.
"""

from cocenter.exactnum import RootP
from cocenter.groups import BlockParabolic
from cocenter.matrices import PrimeContext
from cocenter.measures import (
    Ambient,
    ad_symmetrized_basis,
    double_coset_labels,
    label_matrix,
    res_normalized,
    unit_measure,
)
from cocenter.orbital import (
    RegularElement,
    descent_check,
    gamma_grid,
    joint_kernel_dimension,
    orbital_integral,
    separation_rank,
)

ctx = PrimeContext(2, 1)
borel = BlockParabolic(2, (1, 1), "upper")
unit = unit_measure(Ambient.general_linear(2), ctx)

gamma = RegularElement((1, 3))
value = orbital_integral(unit, gamma)
print("O_gamma(unit) at gamma = diag(1,3):", value.value)
print("normalization:", value.normalization)

print("\nvanishing off the determinant window:",
      orbital_integral(unit, RegularElement((2, 3))).value)

# descent across the full grid
labels = [rep for rep, _ in unit.items()]
basis = ad_symmetrized_basis(labels, ctx) + ad_symmetrized_basis(
    double_coset_labels(2, ctx, (1, 0)), ctx
)
grid = gamma_grid(2, 2, (-2, 2))
holds = broken = 0
for h in basis:
    rm = res_normalized(h, borel)
    for gam in grid:
        ok, _, _ = descent_check(h, gam, borel, rm)
        holds += ok
        bad, _, _ = descent_check(h, gam, borel, rm, mutate_normalization=True)
        broken += not bad
print(f"\ndescent identity: {holds}/{len(basis) * len(grid)} grid points hold")
print(f"corrupted normalization fails on {broken} grid points (must be > 0)")

# the separation probe: orbital data vs character data
from cocenter.characters import InducedModel, UnramifiedCharacter, trace_induced

model = InducedModel(borel, ctx)
chars = [UnramifiedCharacter((1, 1), z) for z in [(1, 1), (2, 1), (1, 2), (3, 5)]]
omat = [[orbital_integral(h, gam).value for gam in grid] for h in basis]
xmat = [[trace_induced(h, chi, model, normalized=True) for chi in chars] for h in basis]
restricted = [res_normalized(h, borel) for h in basis]
columns = sorted({key for r in restricted for key in r.support},
                 key=lambda key: label_matrix(key).entries())
zero = RootP.rational(0, ctx.p)
rmat = [[r.support.get(k, zero) for k in columns] for r in restricted]
print("\nrank under orbital pairings:  ", separation_rank(omat))
print("rank under character pairings:", separation_rank(xmat))
print("joint kernel of both families:", joint_kernel_dimension([omat, xmat]))
print("kernel of restriction:        ", joint_kernel_dimension([rmat]))
print("all three stacked:            ", joint_kernel_dimension([omat, xmat, rmat]))
print("(the common kernel is the kernel of restriction to the torus, since both")
print(" families factor through it: the class elliptic mod p, the ramified")
print(" elliptic class of the double coset, and unit coset minus transvections)")

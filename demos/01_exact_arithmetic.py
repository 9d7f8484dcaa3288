"""Scalars and cosets: everything in this package is exact.

p-adic numbers never appear as truncated expansions; every element is a
rational number, valuations are integer computations, and the normalized
quantities live in Q(sqrt p) as coefficient pairs.
"""

from fractions import Fraction

from cocenter.exactnum import RootP, padic_norm_halfpower, padic_valuation
from cocenter.matrices import (
    PrimeContext,
    QMat,
    coset_canonical_rep,
    enumerate_glnzm,
    hermite_padic,
)
from cocenter.measures import Ambient, canonical_rep

# --- valuations ------------------------------------------------------------

print("v_2(3/4) =", padic_valuation(Fraction(3, 4), 2))
print("v_3(18)  =", padic_valuation(18, 3))

# half powers of the norm are where sqrt(p) enters
half = padic_norm_halfpower(2, 2, 1)  # |2|_2^(1/2)
print("|2|_2^(1/2) =", half)
print("squared back:", half * half)

# Q(sqrt 2) is an honest field
x = RootP(Fraction(3, 2), Fraction(-1, 4), 2)
print("x =", x, " x * x^-1 =", x * x.inverse())

# --- lattices and cosets ----------------------------------------------------

# the column Hermite form over Z_(2) is the canonical basis of the lattice
g = QMat([[Fraction(1, 2), 3], [1, Fraction(5, 4)]])
H, k = hermite_padic(g, 2)
print("\nHermite form of g:")
for row in H.rows:
    print("   ", [str(x) for x in row])
print("g = H * k with k integral of unit determinant:", H * k == g)

# level cosets g K_m get canonical representatives; equivalent inputs agree
ctx = PrimeContext(2, 2)
rep = coset_canonical_rep(g, ctx)
level_elt = QMat([[5, 4], [8, 13]])  # congruent to 1 mod 4
gl2 = Ambient.general_linear(2)
assert canonical_rep(gl2, level_elt, ctx) == canonical_rep(gl2, QMat.identity(2), ctx)
print("canonical rep stable under the level subgroup:",
      coset_canonical_rep(g * level_elt, ctx) == rep)

# the finite quotient K_0 / K_m is enumerated exactly
print("\n|GL_2(Z/2)| =", len(enumerate_glnzm(2, PrimeContext(2, 1))))
print("|GL_2(Z/4)| =", len(enumerate_glnzm(2, PrimeContext(2, 2))))

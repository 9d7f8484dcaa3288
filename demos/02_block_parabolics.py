"""Block parabolics of GL_n: discriminants, modulus, decompositions.

The discriminant of a Levi element against the ambient group and the
modulus character of the parabolic satisfy an exact square identity that
drives all later normalizations; here it is checked on random points.
"""

import random
from fractions import Fraction

from cocenter.groups import (
    BlockParabolic,
    SubgroupSpec,
    discriminant_delta,
    discriminant_square_identity,
    iwasawa_decompose,
    modulus_lambda,
)
from cocenter.matrices import QMat, gln_zp_membership

borel = BlockParabolic(2, (1, 1), "upper")
torus = SubgroupSpec.torus(2)

g = QMat.diagonal([2, 1])
print("Delta_{T,G}(diag(2,1)) =", discriminant_delta(torus, g))
print("lambda_B(diag(3,5))    =", modulus_lambda(borel, QMat.diagonal([3, 5])))
# on GL_2 the Chevalley coordinates (e_1, e_2) are the trace and determinant
print("chevalley(diag(2,1))   =", f"ChevalleyPoint({g.trace()!r}, {g.det()!r})")

# the square identity, on a random sample in a rank-three Levi
parab = BlockParabolic(3, (2, 1), "upper")
rng = random.Random(0)
ok = 0
for _ in range(50):
    while True:
        a = QMat([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
        if a.det() != 0:
            break
    m = QMat(
        [
            [a[0, 0], a[0, 1], 0],
            [a[1, 0], a[1, 1], 0],
            [0, 0, rng.choice([1, 2, 3, 5])],
        ]
    )
    ok += discriminant_square_identity(parab, m)
print(f"square identity holds on {ok}/50 random Levi points")

# Iwasawa decomposition produces a parabolic times an integral factor
x = QMat([[Fraction(1, 2), 1], [3, Fraction(2, 3)]])
q, k = iwasawa_decompose(x, borel, 2)
print("\nIwasawa of a rational matrix at p = 2:")
print("   parabolic part:", [[str(v) for v in row] for row in q.rows])
print("   integral part in GL_2(Z_2):", gln_zp_membership(k, 2))
print("   product recovers the input:", q * k == x)

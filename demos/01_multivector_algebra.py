"""Tour of the conformal algebra kernel: blades, products, null vectors.

Run:  python3 demos/01_multivector_algebra.py
"""

import random

from cgacollide import mbasis, null_inf, null_zero, point

# ----------------------------------------------------------------------
# Basis blades are addressed by subsets of {1..5}.  Slots 4 and 5 hold the
# null vectors e0 (origin) and einf (infinity).
# ----------------------------------------------------------------------
e1, e2, e3 = mbasis({1}), mbasis({2}), mbasis({3})
print("e1        :", e1)
print("e1^e2     :", mbasis({1, 2}))
print("scalar 1  :", mbasis())

e0, einf = null_zero(), null_inf()
print("\nnull vectors:")
print("e0        :", e0)
print("einf      :", einf)

# Both null vectors square to zero, and contract to -1 against each other.
print("\ne0 * e0   scalar part:", (e0 * e0).scalar)
print("einf*einf scalar part:", (einf * einf).scalar)
print("e0 | einf            :", (e0 | einf).scalar)

# ----------------------------------------------------------------------
# The three products.  On vectors the geometric product splits into the
# inner (symmetric, metric) and outer (antisymmetric, extending) parts.
# ----------------------------------------------------------------------
print("\ne1 | e1 =", (e1 | e1).scalar, "   e1 | e2 =", (e1 | e2).scalar)
print("e1 ^ e1 =", e1 ^ e1)
print("e1 * e2 =", e1 * e2)

x = 2.0 * e1 + 1.0 * e3
y = -1.0 * e2 + 0.5 * e1
print("\nx * y == x|y + x^y :", x * y == (x | y) + (x ^ y))

# ----------------------------------------------------------------------
# The point embedding turns Euclidean distance into an inner product:
# the scalar part of P | Q is -0.5 * |p - q|^2.
# ----------------------------------------------------------------------
def squared_distance(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


p = (70.0, 90.0, 130.0)
q = (70.0, 30.0, 130.0)
print("\npoint(p) =", point(p))
ip = (point(p) | point(q)).scalar
print("P | Q                  :", ip)
print("-2 * (P | Q)           :", -2.0 * ip)
print("|p - q|^2 directly     :", squared_distance(p, q))

# The identity holds to ~1e-9 relative even at 10-meter coordinates.
rng = random.Random(0)
worst = 0.0
for _ in range(10_000):
    a = tuple(rng.uniform(-1e4, 1e4) for _ in range(3))
    b = tuple(rng.uniform(-1e4, 1e4) for _ in range(3))
    got = 2.0 * abs((point(a) | point(b)).scalar)
    want = squared_distance(a, b)
    worst = max(worst, abs(got - want) / max(1.0, want))
print("\nworst relative deviation over 10000 random pairs:", worst)

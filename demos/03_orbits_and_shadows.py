"""The bookkeeping behind the proof: expansion orbits and Hölder shadows.

Raising the triangle inequality to the 2r-th power and expanding turns
it into 'left cross terms <= right cross terms'. Both sides fold into
symmetric orbits; each right orbit k also casts a per-level shadow
(e_i(2r-k)/2r, e_i k/2r) through Hölder's inequality, and those shadows
are the currency the certificate spends.
"""

import numpy as np

from gradenorm import (
    GradingSignature,
    ScalarProfile,
    holder_shadow_bound_check,
    lhs_orbits,
    pure_terms_cancel,
    scalar_norm,
    shadow,
)
from gradenorm.expansion import rhs_table

sig = GradingSignature(5)

print("=" * 72)
print("Left-hand orbits for r = 5 (level, split, coefficient, middle?)")
print("=" * 72)
for o in lhs_orbits(sig):
    tag = "middle" if o.is_middle else "pair"
    print(f"  (i={o.level}, s={o.split})  coeff {o.coefficient:>4}  {tag}")

print()
print("Right-hand orbits:")
for o in rhs_table(sig):
    tag = "middle" if o["is_middle"] else "pair"
    print(f"  k={o['k']}  coeff {o['coefficient']:>4}  {tag}")

print()
print("=" * 72)
print("Coefficient ledger: folded orbits + pure terms = full binomial rows")
print("=" * 72)
total = sum(o.coefficient if o.is_middle else 2 * o.coefficient for o in lhs_orbits(sig))
total += 2 * sig.r
rows = sum(2**e for e in sig.exponents)
print(f"  sum over orbits and pure terms = {total}")
print(f"  sum of 2^(e_i)                 = {rows}")
print(f"  pure terms cancel cleanly      = {pure_terms_cancel(sig)}")

print()
print("=" * 72)
print("Shadows of the k = 3 orbit (these appear in the length-5 proof)")
print("=" * 72)
for i in (1, 2, 3):
    pair = shadow(sig, 3, i).exponents
    print(f"  level {i}: ({pair.hi}, {pair.lo})")

print()
print("=" * 72)
print("The Hölder bound those shadows satisfy, numerically")
print("=" * 72)
rng = np.random.default_rng(3)
for k in range(1, 6):
    worst = -np.inf
    for _ in range(5000):
        a = ScalarProfile(sig, 10.0 ** rng.uniform(-2, 2, size=5))
        b = ScalarProfile(sig, 10.0 ** rng.uniform(-2, 2, size=5))
        rhs = scalar_norm(a) ** (10 - k) * scalar_norm(b) ** k
        worst = max(worst, holder_shadow_bound_check(sig, k, a, b) / max(1.0, rhs))
    print(f"  k={k}: worst relative slack over 5k random profile pairs = {worst:.3e}")
print("  (never above zero beyond rounding: the shadow sums stay below A^(2r-k) B^k)")

"""Simple random walk on the hypercube: distance law, mixing, Ehrenfest hits.

Everything here is exact (transition-matrix iteration or closed forms);
the only randomness is one sampled walk at the end for texture.
"""

import math

from trapclock.core import RngStream
from trapclock.hypercube import (
    distance_distribution,
    ehrenfest_hitting_linear_solve,
    ehrenfest_hitting_prob,
    mixing_constant_estimate,
    no_backtrack_prob,
    sample_walk,
)

N = 16

print(f"distance-from-start law after k steps, N = {N}:")
for k in (1, 4, 16, 64, 256):
    dist = distance_distribution(N, k)
    mean = sum(d * p for d, p in enumerate(dist))
    print(f"  k = {k:3d}: mean distance {mean:6.3f}  (N/2 = {N / 2})")
print()

c = mixing_constant_estimate(N)
print(f"steps per coordinate to reach total variation 1e-6: about {c:.2f}")
print()

# Ehrenfest projection: probability the distance process hits m before k,
# started from l. The closed form and the linear system must agree.
print("Ehrenfest hitting probabilities P_l[T_m < T_k]:")
for (k, l, m) in ((0, 3, 8), (2, 5, 12), (0, 8, 16)):
    exact = ehrenfest_hitting_prob(k, l, m, N)
    solved = ehrenfest_hitting_linear_solve(k, l, m, N)
    print(f"  k={k:2d} l={l:2d} m={m:2d}: exact {exact:.6f}  solve {solved:.6f}  "
          f"diff {abs(exact - solved):.1e}")
print()

print("no-backtrack probability vs the exp(-nu^2/N) floor:")
for nu in (2, 4, 6, 8):
    p = no_backtrack_prob(N, nu)
    print(f"  nu = {nu}: {p:.4f} >= {math.exp(-nu * nu / N):.4f}")
print()

walk = sample_walk(N, 12, RngStream(2, 0))
print(f"a sampled 12-step walk flips coordinates {walk.flips.tolist()}")

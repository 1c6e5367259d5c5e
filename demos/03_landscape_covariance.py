"""Energy landscape correlation: covariance of p-spin energies is overlap^p.

Draws fresh disorder many times, evaluates the energies of a fixed pair of
configurations at each Hamming distance, and compares the Monte Carlo
covariance with (1 - 2d/N)^p. Also shows the hashed REM energies, which
never materialize a 2^N table.
"""

import math

import numpy as np

from trapclock.core import RngStream
from trapclock.hamiltonian import PSpinDisorder, RemDisorder
from trapclock.hypercube import SpinConfig

N, p, draws = 10, 3, 4000

print(f"p-spin covariance at N = {N}, p = {p}, {draws} disorder draws:")
base = SpinConfig.all_plus(N)
for d in (0, 1, 2, 5, 10):
    other = base
    for i in range(d):
        other = other.flip(i)
    prods = np.empty(draws)
    for r in range(draws):
        dis = PSpinDisorder(N, p, RngStream(300, r))
        prods[r] = dis.energy(base) * dis.energy(other)
    est = prods.mean()
    se = prods.std(ddof=1) / math.sqrt(draws)
    pred = (1.0 - 2.0 * d / N) ** p
    print(f"  d = {d:2d}: cov {est:+.4f} +- {se:.4f}   overlap^p {pred:+.4f}")
print()

# REM: energies are independent across configurations. The hashed generator
# returns the same value on repeated queries without storing anything.
rem = RemDisorder.from_seed(9, N)
e1 = rem.energy(base)
e2 = rem.energy(base.flip(0))
print(f"REM energies at N = {N}: E(sigma) = {e1:+.4f}, E(flip sigma) = {e2:+.4f}")
print(f"repeat query identical: {rem.energy(base) == e1}")

vals = np.array([rem.energy(SpinConfig(N, bits)) for bits in range(1 << N)])
print(f"all {1 << N} REM energies: mean {vals.mean():+.4f}, var {vals.var():.4f} "
      f"(standard normal target)")

#!/usr/bin/env python3
"""How fast does the tracking error vanish with the step size?

The construction is exact in continuous time; the only error is the Euler
discretization.  Halving dt should shrink the sup tracking error at a rate
between strong order 1/2 and weak order 1.  Noise is counter-based, keyed by
(seed, path index, step), so every number below reproduces bit-for-bit, and
any one path can be replayed on its own.

Run:  python demos/04_convergence_and_determinism.py
"""

import numpy as np

from detcouple import constant, simulate_ensemble, sphere
from detcouple.sde import block_gaussians, noise_stream
from detcouple.verify import convergence_study

print(__doc__)

spec = sphere(2)

rep = convergence_study(spec, constant(np.pi / 2), [1e-2, 3e-3, 1e-3, 3e-4], 50, 11, T=1.0)
print(f"{'dt':>8}  {'mean sup error':>15}")
for dt, err in zip(rep.details["dt"], rep.details["mean_sup_err"]):
    print(f"{dt:>8.0e}  {err:>15.5f}")
print(f"log-log slope: {rep.details['slope']:.3f}  "
      f"(strictly decreasing: {rep.details['strictly_decreasing']})\n")

print("replay determinism:")
ens = simulate_ensemble(spec, constant(np.pi / 2), 1e-3, 0.5, 99, n_paths=5, record_paths=True)
one = simulate_ensemble(spec, constant(np.pi / 2), 1e-3, 0.5, 99, n_paths=1,
                        first_path_index=3, record_paths=True)
print(f"  path 3 run alone equals path 3 of the ensemble: "
      f"{np.array_equal(one.d_emp[0], ens.d_emp[3])}")

z1 = block_gaussians([noise_stream(99, 3)], 2, 6)             # steps 0 and 1 of path 3
z2 = block_gaussians([noise_stream(99, 3, counter=2)], 1, 6)  # step 1 alone: 6 normals use 2 Philox blocks
print(f"  same (seed, path, counter) regenerates identical increments: "
      f"{np.array_equal(z1[1], z2[0])}")

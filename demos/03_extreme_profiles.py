#!/usr/bin/env python3
"""The fastest and slowest admissible distance profiles, simulated.

Saturating an endpoint of the admissibility band gives closed-form extreme
profiles: on the sphere the pair can contract together exponentially fast or
repel to antipodality; in hyperbolic space even the extremes grow linearly
for large times (the reachable envelope pinches to slope n-1).

Run:  python demos/03_extreme_profiles.py
"""

import numpy as np

from detcouple import (envelope, hyperbolic, hyperbolic_lower, hyperbolic_upper,
                       simulate_ensemble, sphere, sphere_contracting, sphere_repulsive)

print(__doc__)

S2, H3 = sphere(2), hyperbolic(3)
dt, T, paths, seed = 1e-3, 1.0, 100, 7

for spec, builders, rho0 in ((S2, (sphere_contracting, sphere_repulsive), np.pi / 2),
                             (H3, (hyperbolic_lower, hyperbolic_upper), 1.0)):
    print(f"--- {spec.kind.value}, n = {spec.n}, rho0 = {rho0:.4f}")
    for build in builders:
        prof = build(spec, rho0)
        res = simulate_ensemble(spec, prof, dt, T, seed, paths, record_distances=True)
        lo, hi = envelope(spec, rho0, res.times)
        inside = np.all(res.mean_d_emp >= lo - 0.05) and np.all(res.mean_d_emp <= hi + 0.05)
        print(f"  {prof.kind.value:<22} rho(T) = {res.target[-1]:.4f}  "
              f"mean sup tracking error = {res.mean_sup_err:.4f}  "
              f"ensemble mean inside envelope: {inside}")
    print()

print("hyperbolic linear growth: envelope endpoints divided by t")
for t in (5.0, 10.0, 30.0):
    lo, hi = envelope(H3, 1.0, t)
    print(f"  t = {t:>4.0f}:  lo/t = {lo/t:.4f},  hi/t = {hi/t:.4f}   (limit n-1 = 2)")

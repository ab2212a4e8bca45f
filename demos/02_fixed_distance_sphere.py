#!/usr/bin/env python3
"""Two Brownian motions on the 2-sphere that never change their distance.

The coupling drives the second motion with dW = J dB + K dC, where J
reflects the span of the current pair and scales the transverse directions;
the martingale part of the distance cancels exactly.  As an independent
cross-check we also carry both start points by a single Brownian rotation
(an isometry, so the distance is constant by construction) and compare the
marginal statistics of the two ensembles.

Run:  python demos/02_fixed_distance_sphere.py
"""

import numpy as np

from detcouple import constant, mean_decay_check, oracle_check, simulate_ensemble, sphere

print(__doc__)

spec = sphere(2)
rho0 = np.pi / 2
dt, T, paths, seed = 1e-4, 1.0, 100, 42

print(f"simulating {paths} coupled pairs, dt = {dt:g}, T = {T:g} ...")
res = simulate_ensemble(spec, constant(rho0), dt, T, seed, paths)
print(f"  sup |d(X,Y) - pi/2| per path: mean {res.mean_sup_err:.4f}, "
      f"max {res.max_sup_err:.4f}")

enf = simulate_ensemble(spec, constant(rho0), dt, T, seed, paths, enforce_distance=True)
print(f"  with exact re-projection onto the target distance: "
      f"max error {enf.max_sup_err:.2e}")

print("\nrotation-coupling oracle (same rotation applied to both points):")
marg = simulate_ensemble(spec, constant(rho0), 1e-3, T, seed + 2, 2000)
constancy, agreement = oracle_check(marg, seed + 1)
print(f"  distance deviation over 2000 paths: {constancy.statistic:.2e} "
      f"(isometry, roundoff only)")

# Both ensembles are genuine sphere Brownian motions, so the mean of X(1)
# contracts to exp(-n/2) times the start point (n = 2 here).  Each step of the
# SDE's integrator contracts it by its own exact factor, which differs from
# exp(-n dt/2) at order dt^2.
d = agreement.details
exact = np.linalg.norm(mean_decay_check(marg)[0].details["exact_mean"])
print(f"\nmarginal mean decay at t = 1: |E X| = {d['mean_norm_sde']:.4f} (coupled SDE), "
      f"{d['mean_norm_oracle']:.4f} (rotation); exact for the SDE's steps {exact:.4f}, "
      f"dt -> 0 limit e^-1 = {np.exp(-1):.4f}")
print(f"  difference {agreement.statistic:.4f} within 3 mutual standard errors "
      f"{agreement.tolerance:.4f}: {'pass' if agreement.passed else 'FAIL'}")

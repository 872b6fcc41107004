"""Integrate a one-soliton profile and compare against its closed form.

The traveling wave moves at sinh(kappa)/kappa sites per unit time while the
spectrum of the Jacobi operator stays pinned; both are checked here with
tight tolerances.
"""
import math

import numpy as np

from todalab import IntegratorConfig, SolitonSpec, soliton_state
from todalab.integrators import drift, integrate
from todalab.solitons import soliton_Lnorm, soliton_flaschka, soliton_speed
from todalab.state import jacobi_norm, toda_rhs, trace_invariants

spec = SolitonSpec(kappa=1.0)
x = soliton_state(spec, 201)
print(f"kappa = {spec.kappa}: speed {soliton_speed(spec):.6f} sites/time,"
      f" |L| = {soliton_Lnorm(spec):.6f} (= cosh kappa)")
print(f"measured |L| at t=0: {jacobi_norm(x):.12f}")

traj = integrate(x, toda_rhs, 10.0,
                 IntegratorConfig(method="rk-adaptive", tolerance=1e-10),
                 sample_dt=0.5)

sites = traj.sites
err_a = err_b = 0.0
for i, t in enumerate(traj.times):
    ref_a, ref_b = soliton_flaschka(spec, sites, t)
    err_a = max(err_a, float(np.max(np.abs(traj.a[i] - ref_a))))
    err_b = max(err_b, float(np.max(np.abs(traj.b[i] - ref_b))))

print(f"\nafter t = 10:")
print(f"  max |a - analytic| = {err_a:.3g}")
print(f"  max |b - analytic| = {err_b:.3g}")
print(f"  spectral norm drift = {drift(traj.energy_series(jacobi_norm)):.3g}")
print(f"  trace invariant drift (powers <= 4) = {drift(traj.energy_series(trace_invariants)):.3g}")

# where did the peak go?
for i in (0, traj.n_samples - 1):
    peak = sites[int(np.argmax(traj.a[i]))]
    print(f"  t = {traj.times[i]:5.2f}: peak site {peak:+d}")
print(f"expected drift in 10 time units: {10.0 * soliton_speed(spec):.1f} sites")

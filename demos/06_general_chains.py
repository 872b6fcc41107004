"""Beyond the integrable case: any confining nearest-neighbor chain.

In relative coordinates (r, p) a chain with confining interaction V keeps
finite-energy data bounded forever, and its sensitivities obey a cone with
a constant measured from sup |V'| along the run.  The lattice flow is the
special case V(x) = e^{-x} + x - 1.
"""
import math

import numpy as np

from todalab import IntegratorConfig, evolve_tangent, optimal_mu, verify_light_cone
from todalab.ghs import (PotentialSpec, confinement_bound, factorial_tail_envelope,
                         ghs_energy, ghs_envelope, ghs_rhs,
                         ghs_stability_diagnostics)
from todalab.integrators import drift, integrate
from todalab.state import GHSState, toda_rhs

mu, _ = optimal_mu()
cfg = IntegratorConfig(method="rk4-fixed", step=0.02)

n = 121
sites = np.arange(n) - n // 2
x = GHSState(np.zeros(n), np.exp(-((sites / 3.0) ** 2)), -(n // 2), (0.0, 0.0))

for pot in (PotentialSpec(family="quartic", beta=0.1), PotentialSpec(family="toda")):
    e = ghs_energy(x, pot)
    m_e = confinement_bound(pot, e)
    print(f"\n{pot.family} potential: energy {e:.4f}, confinement radius {m_e:.4f}")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, cfg, sample_dt=0.25)
    stab = ghs_stability_diagnostics(traj, pot)
    print(f"  energy drift {drift(traj.energy_series(lambda s: ghs_energy(s, pot))):.2g}")
    print(f"  |p|_2 max {stab.p_l2_max:.4f} <= {stab.p_l2_bound:.4f}")
    print(f"  |r|_inf max {stab.r_inf_max:.4f} <= {stab.M_E:.4f}")
    print(f"  all bounds hold: {stab.ok}")

    grid = evolve_tangent(x, (0, "p"), 2.0, cfg, flow="ghs", spec=pot,
                          sample_dt=0.25)
    rep = verify_light_cone(grid, ghs_envelope(mu, traj, pot))
    print(f"  cone: {rep.n_violations} violations,"
          f" speed bound {rep.bound_speed:.1f}")

# the toda-family chain IS the lattice, in other coordinates
pot = PotentialSpec(family="toda")
traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, cfg, sample_dt=0.25)
mapped = traj.to_lattice_trajectory()
direct = integrate(mapped.state(0), toda_rhs, 3.0, cfg, sample_dt=0.25)
gap = max(float(np.max(np.abs(mapped.a - direct.a))),
          float(np.max(np.abs(mapped.b - direct.b))))
print(f"\nchain run mapped through a = e^(-r/2)/2, b = -p/2 matches the"
      f" lattice run to {gap:.2g}")

# short-time iterate envelope: factorial tail in the distance
print("\nfactorial-tail envelope at t = 1 (C = 1):")
for d in (0, 2, 4, 8):
    print(f"  distance {d}: {factorial_tail_envelope(1.0, d, 1.0):.3g}")

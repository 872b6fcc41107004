"""Bounded forcing: the lattice stops being integrable, the cone survives.

A cosine potential of the log off-diagonal adds a bounded term to the
b-equation.  The operator norm may now grow, but no faster than w0 per unit
time, and the sensitivity cone still holds with constants measured along
the run.
"""
import numpy as np

from todalab import (IntegratorConfig, PerturbationSpec, evolve_tangent,
                     optimal_mu, perturbed_envelope, random_localized_state,
                     timedep_envelope, verify_light_cone)
from todalab.integrators import integrate
from todalab.perturbed import monitor_trajectory, perturbed_rhs

mu, _ = optimal_mu()
cfg = IntegratorConfig(method="rk4-fixed", step=0.02)
x = random_localized_state(161, seed=42)
spec = PerturbationSpec(family="cosine", w0=0.1)
print(f"forcing: cosine, w0 = {spec.w0} (|W'| <= {spec.dw_sup}, |W''| <= {spec.d2w_sup})")

traj = integrate(x, lambda s: perturbed_rhs(s, spec), 3.0, cfg, sample_dt=0.25)
mon = monitor_trajectory(traj)
print(f"monitors on t <= {mon.horizon}: C1 = {mon.C1:.4f}, C2 = {mon.C2:.4f}")

line = mon.Lnorm0 + spec.dw_sup * traj.times
print(f"|L(t)| <= |L(0)| + w0 t holds with max excess "
      f"{float(np.max(traj.norm_series() - line)):.3g}")

grid = evolve_tangent(x, (0, "b"), 3.0, cfg, flow="perturbed",
                      spec=spec, sample_dt=0.25)

rep_w = verify_light_cone(grid, perturbed_envelope(mu, mon.C1, mon.C2, spec.d2w_sup))
print(f"\nmeasured-constant cone: {rep_w.n_violations} violations,"
      f" speed bound {rep_w.bound_speed:.1f}")

a_star = min(float(np.abs(traj.a).min()), x.background[0])
rep_t = verify_light_cone(grid, timedep_envelope(mu, mon.Lnorm0, spec.dw_sup,
                                                 spec.d2w_sup, a_star))
print(f"growing-radius cone (a* = {a_star:.4f}): {rep_t.n_violations} violations")

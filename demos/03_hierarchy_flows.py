"""Higher commuting flows: reduction, conservation, and a wider cone.

Order 0 reproduces the plain lattice field bit for bit.  Order r moves
information up to r+1 sites per step, so its cone uses a distance divided
by floor(r/2)+1 and a velocity from comparison-matrix row sums.
"""
import numpy as np

from todalab import (HierarchySpec, IntegratorConfig, hierarchy_envelope,
                     evolve_tangent, optimal_mu, random_localized_state,
                     velocity_hierarchy, verify_light_cone)
from todalab.hierarchy import (hierarchy_hamiltonian, hierarchy_rhs, kvm_rhs)
from todalab.integrators import integrate
from todalab.state import jacobi_norm, toda_rhs

mu, _ = optimal_mu()
x = random_localized_state(161, seed=42)

# order 0 is the lattice field itself
da0, db0 = hierarchy_rhs(x, HierarchySpec(0, (1.0,)))
da, db = toda_rhs(x)
print("order-0 reduction gap:",
      max(float(np.max(np.abs(da0 - da))), float(np.max(np.abs(db0 - db)))))

# order 1: conserved quantity along the run
spec = HierarchySpec(1, (1.0, 0.0))
traj = integrate(x, lambda s: hierarchy_rhs(s, spec), 3.0,
                 IntegratorConfig(method="rk4-fixed", step=0.02), sample_dt=0.25)
h0 = hierarchy_hamiltonian(traj.state(0), spec)
drift = max(abs(hierarchy_hamiltonian(traj.state(i), spec) - h0)
            for i in range(traj.n_samples))
print(f"order-1 invariant: value {h0:.6f}, drift over t<=3: {drift:.3g}")

# its cone, with both velocity estimates
lnorm = jacobi_norm(x)
v_sharp = velocity_hierarchy(mu, lnorm, spec, "matrix-norm")
v_crude = velocity_hierarchy(mu, lnorm, spec, "lemma44")
print(f"cone speeds: matrix-norm {v_sharp:.1f}, lemma44 {v_crude:.1f}")

grid = evolve_tangent(x, (0, "b"), 2.0,
                      IntegratorConfig(method="rk4-fixed", step=0.02),
                      flow="hierarchy", spec=spec, sample_dt=0.25)
report = verify_light_cone(grid, hierarchy_envelope(mu, lnorm, spec))
print(f"order-1 cone: {report.n_violations} violations,"
      f" max observed/bound = {report.max_ratio:.3g}")

# the constrained b = 0 flow has a closed-form field at order 1
from todalab.state import LatticeState
y = LatticeState(x.a.copy(), np.zeros_like(x.b), x.offset, (0.5, 0.0))
da_kvm = kvm_rhs(y, spec)
a_up = np.concatenate((y.a[1:], [0.5]))
a_dn = np.concatenate(([0.5], y.a[:-1]))
closed = y.a * (a_up ** 2 - a_dn ** 2)
print("constrained-flow closed form gap:", float(np.max(np.abs(da_kvm - closed))))

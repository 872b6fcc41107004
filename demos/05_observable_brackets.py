"""Brackets of local observables decay with the distance between supports.

The modified bracket of coordinate observables is nonzero only for adjacent
sites; once one observable rides the flow, the bracket spreads, but its
magnitude at distance d stays under C e^{-mu(d - v t)}.
"""
import math

import numpy as np

from todalab import (IntegratorConfig, SolitonSpec, evolve_tangent, jacobi_norm, optimal_mu,
                     soliton_state, velocity_toda)
from todalab.observables import (basic_observables, bracket_bound_constant,
                                 check_bracket_bound, evolved_bracket,
                                 hamiltonian_window_observable, poisson_bracket,
                                 required_bracket_seeds)
from todalab.state import toda_rhs

mu, _ = optimal_mu()
x = soliton_state(SolitonSpec(kappa=1.0), 201)

# static bracket: adjacency only
a0, b0 = basic_observables(0)
print("static bracket of a_n with b_0:")
for n in (-2, -1, 0, 1):
    an, _ = basic_observables(n)
    print(f"  n = {n:+d}: {poisson_bracket(an, b0, x):+.6f}")

# the windowed energy generates the flow
H = hamiltonian_window_observable(range(-20, 21))
da, db = toda_rhs(x)
i0 = -x.offset
print(f"\ngenerator identity at site 0:"
      f" bracket {poisson_bracket(a0, H, x):+.9f} vs field {da[i0]:+.9f}")

# evolved brackets: seed sensitivity grids at what b_0 touches
cfg = IntegratorConfig(method="rk4-fixed", step=0.02)
grids = {s: evolve_tangent(x, s, 4.0, cfg, sample_dt=0.5)
         for s in required_bracket_seeds(b0, x)}
times = next(iter(grids.values())).times

print(f"\n|evolved bracket| of a_n(t) with b_0, constant"
      f" C = {bracket_bound_constant(mu):.4f}:")
header = "   t | " + " ".join(f"n={n:+3d}" for n in (0, 5, 10, 15, 20))
print(header)
for t in (0.0, 1.0, 2.0, 4.0):
    vals = []
    for n in (0, 5, 10, 15, 20):
        an, _ = basic_observables(n)
        vals.append(abs(evolved_bracket(an, b0, x, t, grids)))
    print(f"{t:4.1f} | " + " ".join(f"{v:5.0e}" for v in vals))

As = [basic_observables(n)[0] for n in range(-25, 26)]
v = velocity_toda(mu, jacobi_norm(x))
worst = max(rep.max_ratio for rep in check_bracket_bound(As, b0, x, times, mu, v, grids))
print(f"\nbound check over 51 pairs: worst observed/bound = {worst:.3g}")

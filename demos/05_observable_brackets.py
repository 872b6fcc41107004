"""Brackets of local observables decay with the distance between supports.

The modified bracket of coordinate observables is nonzero only for adjacent
sites; once one observable rides the flow, the bracket spreads, but its
magnitude at distance d stays under C e^{-mu(d - v t)}.  evolved_brackets
reads {a_n o flow_t, b_0} at every sample and site as one array, the array
that check_bracket_bound compares with the bound.
"""
import numpy as np

from todalab import (IntegratorConfig, SolitonSpec, evolve_tangent, jacobi_norm, optimal_mu,
                     soliton_state, velocity_toda)
from todalab.observables import (basic_observables, bracket_bound_constant,
                                 check_bracket_bound, evolved_brackets,
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

# one (T, S) block of {a_n o flow_t, b_0} over the sampled times and the sites
sites = (0, 5, 10, 15, 20)
block = np.abs(evolved_brackets(0, sites, x, grids))
print(f"\n|evolved bracket| of a_n(t) with b_0, constant"
      f" C = {bracket_bound_constant(mu):.4f}:")
print("   t | " + " ".join(f"n={n:+3d}" for n in sites))
for t, row in zip(times, block):
    if t in (0.0, 1.0, 2.0, 4.0):
        print(f"{t:4.1f} | " + " ".join(f"{v:5.0e}" for v in row))

v = velocity_toda(mu, jacobi_norm(x))
rep = check_bracket_bound(0, range(-25, 26), x, mu, v, grids)
print(f"\nbound check over 51 pairs: worst observed/bound = {rep.max_ratio:.3g}")

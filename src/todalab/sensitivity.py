"""Variational (tangent) flows: exact derivatives of the lattice state with
respect to one initial coordinate.

The tangent system is integrated alongside the base flow, so a single run
yields the whole column d(state at time t) / d(z_m) over the window.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ghs import PotentialSpec, ghs_rhs
from .hierarchy import HierarchySpec, hierarchy_rhs
# every solve goes through _solve_blocks; solve_vector is bound here only
# because perfbench/test_smoke.py reads sensitivity.solve_vector
from .integrators import (EdgeMargin, IntegratorConfig, Trajectory, _solve_blocks,
                          sample_times, solve_vector, write_csv)
from .perturbed import PerturbationSpec, perturbed_rhs
from .state import toda_rhs


def make_flow(name: str, spec=None):
    """The named flow's field with its one spec bound: field(state) -> (f1,
    f2), and field(state, d1, d2) -> (f1, f2, g1, g2), the field and its
    linearization along (d1, d2) in one pass.  toda takes no spec, hierarchy
    a HierarchySpec (the weights c), perturbed a PerturbationSpec (W) and ghs
    a PotentialSpec (V); a missing spec, or one of another type, is a
    ValueError naming the flow and the spec type.  The field functions are
    looked up when make_flow is called, so a run sees any rebinding of them."""
    table = {
        "toda": (type(None), toda_rhs),
        "hierarchy": (HierarchySpec, hierarchy_rhs),
        "perturbed": (PerturbationSpec, perturbed_rhs),
        "ghs": (PotentialSpec, ghs_rhs),
    }
    if name not in table:
        raise ValueError(f"unknown flow {name!r}; pick one of {tuple(table)}")
    kind, rhs = table[name]
    if not isinstance(spec, kind):
        want = "no spec" if kind is type(None) else f"a {kind.__name__}"
        got = "none" if spec is None else f"a {type(spec).__name__}"
        raise ValueError(f"{name} flow takes {want}, got {got}")
    return rhs if spec is None else lambda st, *tangent: rhs(st, spec, *tangent)


def _seed_vectors(x, seed):
    """The unit tangent (d1, d2) of the window state x at the seed (site,
    coord), coord one of x.coords."""
    m, coord = seed
    i = m - x.offset
    if not 0 <= i < x.n_sites:
        raise ValueError(f"seed site {m} outside window")
    if coord not in x.coords:
        raise ValueError(f"seed coordinate must be one of {x.coords}, got {coord!r}")
    d = np.zeros((2, x.n_sites))
    d[x.coords.index(coord), i] = 1.0
    return d[0], d[1]


@dataclass
class SensitivityGrid(EdgeMargin):
    """d(state)/dz over the window and the sampled horizon, plus the base
    run, whose times and offset the grid's are."""

    da: np.ndarray            # (T, N); d r / dz for the chain flow
    db: np.ndarray            # (T, N); d p / dz for the chain flow
    base: Trajectory
    seed_site: int
    seed_coord: str
    flow: str

    @property
    def times(self) -> np.ndarray:
        return self.base.times

    @property
    def offset(self) -> int:
        return self.base.offset

    @property
    def n_sites(self) -> int:
        return self.da.shape[1]

    @property
    def distances(self) -> np.ndarray:
        return np.abs(self.sites - self.seed_site)

    def observed(self, kind: str = "ab", rows=slice(None)) -> np.ndarray:
        """Pointwise magnitude compared against envelopes, at the samples
        rows (every sample by default).

        "ab":    max(|da|, |db|)
        "log-a": max(2 |da / a(t)|, |db|), the derivative of ln(a^2) paired
                 with the b-derivative (used by the time-dependent bound).
        """
        da, db = self.da[rows], self.db[rows]
        if kind == "ab":
            return np.maximum(np.abs(da), np.abs(db))
        if kind == "log-a":
            return np.maximum(2.0 * np.abs(da / self.base.a[rows]), np.abs(db))
        raise ValueError(f"unknown observed kind {kind!r}")

    def _deviations(self, rows):
        """Tangent and base deviations: both must stay clear of the edge."""
        return (self.da[rows], self.db[rows]) + self.base._deviations(rows)

    def to_csv(self, path):
        write_csv(path, ["d" + c for c in self.base.state_type.coords], self.times,
                  self.offset, self.da, self.db)


def evolve_tangent(x, seed, t_final: float, cfg: IntegratorConfig | None = None,
                   flow: str = "toda", spec=None, *, sample_dt: float) -> SensitivityGrid:
    """Integrate base + tangent from a unit seed at (site, coordinate) under
    make_flow(flow, spec), sampled at sample_times(t_final, sample_dt)."""
    base, (da, db) = _solve_blocks(x, make_flow(flow, spec), _seed_vectors(x, seed),
                                   sample_times(t_final, sample_dt),
                                   cfg or IntegratorConfig())
    return SensitivityGrid(da, db, base, int(seed[0]), str(seed[1]), flow)

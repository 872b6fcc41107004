"""Variational (tangent) flows: exact derivatives of the lattice state with
respect to one initial coordinate.

The tangent system is integrated alongside the base flow, so a single run
yields the whole column d(state at time t) / d(z_m) over the window.  An
independent central finite-difference oracle cross-validates the variational
route; the two must agree wherever the signal is resolvable (use the same
fixed-step integrator for both when comparing, so that discretization error
cancels instead of polluting the difference).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ghs import PotentialSpec, ghs_rhs
from .hierarchy import HierarchySpec, hierarchy_rhs
# every solve goes through _solve_blocks; solve_vector is bound here only
# because perfbench/test_smoke.py reads sensitivity.solve_vector
from .integrators import (EdgeMargin, IntegratorConfig, Trajectory, _solve_blocks,
                          integrate, sample_times, solve_vector, write_csv)
from .perturbed import PerturbationSpec, perturbed_rhs
from .state import LatticeState, _step_dn, _step_up, toda_rhs


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
    m, coord = seed
    names = x.coords
    da = np.zeros(x.n_sites)
    db = np.zeros(x.n_sites)
    i = m - x.offset
    if not 0 <= i < x.n_sites:
        raise ValueError(f"seed site {m} outside window")
    if coord == names[0]:
        da[i] = 1.0
    elif coord == names[1]:
        db[i] = 1.0
    elif coord == "btilde" and names == ("a", "b"):
        # difference seed d/d(b_{k+1}) - d/d(b_k)
        if i + 1 >= x.n_sites:
            raise ValueError(f"btilde seed at site {m} needs site {m + 1} in the window")
        db[i + 1] = 1.0
        db[i] = -1.0
    else:
        raise ValueError(f"seed coordinate must be one of {names} (or 'btilde'), got {coord!r}")
    return da, db


class _OnBase:
    """times and offset of a grid are those of its base run."""

    @property
    def times(self) -> np.ndarray:
        return self.base.times

    @property
    def offset(self) -> int:
        return self.base.offset


@dataclass
class SensitivityGrid(_OnBase, EdgeMargin):
    """d(state)/dz over the window and the sampled horizon, plus the base run."""

    da: np.ndarray            # (T, N); d r / dz for the chain flow
    db: np.ndarray            # (T, N); d p / dz for the chain flow
    base: Trajectory
    seed_site: int
    seed_coord: str
    flow: str
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def n_sites(self) -> int:
        return self.da.shape[1]

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.n_sites)

    @property
    def distances(self) -> np.ndarray:
        return np.abs(self.sites - self.seed_site)

    def observed(self, kind: str = "ab") -> np.ndarray:
        """Pointwise magnitude compared against envelopes.

        "ab":    max(|da|, |db|)
        "log-a": max(2 |da / a(t)|, |db|), the derivative of ln(a^2) paired
                 with the b-derivative (used by the time-dependent bound).
        """
        if kind == "ab":
            return np.maximum(np.abs(self.da), np.abs(self.db))
        if kind == "log-a":
            return np.maximum(2.0 * np.abs(self.da / self.base.a), np.abs(self.db))
        raise ValueError(f"unknown observed kind {kind!r}")

    def _deviations(self):
        """Tangent and base deviations: both must stay clear of the edge."""
        return (self.da, self.db) + self.base._deviations()

    def time_index(self, t: float) -> int:
        """Index of the sample at time t, to within 1e-9."""
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9:
            raise ValueError(f"time {t} not on the sample grid")
        return i

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


def _signed_runs(x, rhs, steps, t_final, cfg, sample_dt):
    """Runs of rhs from x + s_1 d_1 + s_2 d_2 + ... for every choice of signs
    s_k = +-1, where steps lists the offsets d_k = (d_k1, d_k2).  Returns the
    sum of (s_1 s_2 ...) * run as a (2, T, N) array of both coordinates, and
    the mean run."""
    x1, x2 = x.arrays
    combos = list(itertools.product((1.0, -1.0), repeat=len(steps)))
    signed = mean = 0.0
    for signs in combos:
        start = type(x)(x1 + sum(s * d1 for s, (d1, _) in zip(signs, steps)),
                        x2 + sum(s * d2 for s, (_, d2) in zip(signs, steps)),
                        x.offset, x.background)
        tr = integrate(start, rhs, t_final, cfg, sample_dt=sample_dt)
        ys = np.stack((tr.x1, tr.x2))
        signed = signed + math.prod(signs) * ys
        mean = mean + ys / len(combos)
    return signed, replace(tr, x1=mean[0], x2=mean[1])


def finite_difference_oracle(x, seed, t_final: float,
                             cfg: IntegratorConfig | None = None,
                             flow: str = "toda", spec=None, *,
                             sample_dt: float) -> SensitivityGrid:
    """Central-difference estimate of the same grid: (flow(x + h e) - flow(x - h e)) / 2h,
    h = 1e-5 max(1, |z0|) with z0 the seeded coordinate's start value.

    Truncation error scales like h^2; meta records h and that scale.  The
    'btilde' seed differentiates along e_{b,k+1} - e_{b,k}.
    """
    cfg = cfg or IntegratorConfig()
    rhs = make_flow(flow, spec)
    da0, db0 = _seed_vectors(x, seed)
    z0 = x.arrays[0 if seed[1] == x.coords[0] else 1]
    h = 1e-5 * max(1.0, abs(float(z0[seed[0] - x.offset])))
    diff, mid = _signed_runs(x, rhs, [(h * da0, h * db0)], t_final, cfg, sample_dt)
    return SensitivityGrid(diff[0] / (2.0 * h), diff[1] / (2.0 * h), mid, int(seed[0]),
                           str(seed[1]), flow, {"fd_h": h, "fd_error_scale": h * h})


# -- second derivatives (Toda flow only) -------------------------------------

@dataclass
class SecondTangentGrid(_OnBase):
    """w = d^2(state at t) / dz1 dz2 for the Toda flow, with both first
    tangents and the base run carried along."""

    w_a: np.ndarray
    w_b: np.ndarray
    u1_a: np.ndarray
    u1_b: np.ndarray
    u2_a: np.ndarray
    u2_b: np.ndarray
    base: Trajectory
    seed1: tuple
    seed2: tuple


def _toda_second_fields(s: LatticeState, u1a, u1b, u2a, u2b, wa, wb):
    """The Toda field, its linearizations along u1 and u2, and d/dt of w,
    Df(x) w + D^2 f(x)[u1, u2]: eight arrays.  toda_rhs gives the field and
    each linearization; D^2 f[u1, u2] adds u1a (u2b_{n+1} - u2b_n) +
    u2a (u1b_{n+1} - u1b_n) to da and 4 ((u1a u2a)_n - (u1a u2a)_{n-1}) to db."""
    fa, fb, g1a, g1b = toda_rhs(s, u1a, u1b)
    g2a, g2b = toda_rhs(s, u2a, u2b)[2:]
    gwa, gwb = toda_rhs(s, wa, wb)[2:]
    return (fa, fb, g1a, g1b, g2a, g2b,
            gwa + u1a * _step_up(u2b, 0.0) + u2a * _step_up(u1b, 0.0),
            gwb + 4.0 * _step_dn(u1a * u2a, 0.0))


def evolve_second_tangent(x: LatticeState, z_seed, second, t_final: float,
                          cfg: IntegratorConfig | None = None, *,
                          sample_dt: float) -> SecondTangentGrid:
    """Second variational flow d^2/dz1 dz2 of the Toda evolution.

    z_seed and second are (site, coord) pairs; (k, "btilde") is the
    adjacent-difference direction e_{b,k+1} - e_{b,k}.
    """
    if not isinstance(x, LatticeState):
        raise TypeError("second tangent flow is implemented for the Toda flow only")
    zeros = np.zeros(x.n_sites)
    blocks = (*_seed_vectors(x, z_seed), *_seed_vectors(x, second), zeros, zeros)
    base, (u1a, u1b, u2a, u2b, wa, wb) = _solve_blocks(
        x, _toda_second_fields, blocks, sample_times(t_final, sample_dt),
        cfg or IntegratorConfig())
    return SecondTangentGrid(w_a=wa, w_b=wb, u1_a=u1a, u1_b=u1b, u2_a=u2a, u2_b=u2b,
                             base=base, seed1=tuple(z_seed), seed2=tuple(second))


def second_finite_difference(x: LatticeState, z_seed, second, t_final: float,
                             cfg: IntegratorConfig | None = None, *, sample_dt: float):
    """Nested central differences for d^2/dz1 dz2 of the Toda flow: four runs

        (F(+h,+h) - F(+h,-h) - F(-h,+h) + F(-h,-h)) / (4 h^2),  h = 1e-4.

    Returns (times, wa, wb).  Use a fixed-step config so the four runs share
    one discretization.
    """
    cfg = cfg or IntegratorConfig(method="rk4-fixed")
    h = 1e-4
    e1a, e1b = _seed_vectors(x, z_seed)
    e2a, e2b = _seed_vectors(x, second)
    acc, mid = _signed_runs(x, toda_rhs, [(h * e1a, h * e1b), (h * e2a, h * e2b)],
                            t_final, cfg, sample_dt)
    acc /= 4.0 * h * h
    return mid.times, acc[0], acc[1]

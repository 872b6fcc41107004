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

from .ghs import ghs_rhs
from .hierarchy import HierarchySpec, hierarchy_rhs
# every solve goes through _solve_blocks; solve_vector is bound here only
# because perfbench/test_smoke.py reads sensitivity.solve_vector
from .integrators import (EdgeMargin, IntegratorConfig, Trajectory, _solve_blocks,
                          integrate, sample_times, solve_vector, write_csv)
from .perturbed import PerturbationSpec, perturbed_rhs
from .state import LatticeState, toda_rhs


def make_flow(name: str, hierarchy: HierarchySpec | None = None,
              perturbation: PerturbationSpec | None = None, potential=None):
    """The named flow's field with its specs bound: field(state) -> (f1, f2),
    and field(state, d1, d2) -> (f1, f2, g1, g2), the field and its
    linearization along (d1, d2) in one pass.  The field functions are
    looked up when make_flow is called, so a run sees any rebinding of them."""
    given = {"hierarchy": hierarchy, "perturbation": perturbation, "potential": potential}
    table = {
        "toda": ((), toda_rhs),
        "hierarchy": (("hierarchy",), hierarchy_rhs),
        "perturbed": (("perturbation",), perturbed_rhs),
        "ghs": (("potential",), ghs_rhs),
    }
    if name not in table:
        raise ValueError(f"unknown flow {name!r}; pick one of {tuple(table)}")
    needs, rhs = table[name]
    missing = [key for key in needs if given[key] is None]
    if missing:
        raise ValueError(f"{name} flow needs {' and '.join(missing)}")
    specs = [given[key] for key in needs]
    return lambda st, *tangent: rhs(st, *specs, *tangent)


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


@dataclass
class SensitivityGrid(EdgeMargin):
    """d(state)/dz over the window and the sampled horizon, plus the base run."""

    times: np.ndarray
    da: np.ndarray            # (T, N); d r / dz for the chain flow
    db: np.ndarray            # (T, N); d p / dz for the chain flow
    base: Trajectory
    offset: int
    seed_site: int
    seed_coord: str
    flow: str
    guard: int = 10
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

    def time_index(self, t: float, tol: float = 1e-9) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise ValueError(f"time {t} not on the sample grid")
        return i

    def to_csv(self, path):
        write_csv(path, ["d" + c for c in self.base.state_type.coords], self.times,
                  self.offset, self.da, self.db)


def _grid(seed, flow, base, da, db, meta=None) -> SensitivityGrid:
    return SensitivityGrid(times=base.times, da=da, db=db, base=base, offset=base.offset,
                           seed_site=int(seed[0]), seed_coord=str(seed[1]),
                           flow=flow, guard=base.guard, meta=meta or {})


def evolve_tangent(x, seed, t_final: float, cfg: IntegratorConfig | None = None,
                   flow: str = "toda", *,
                   hierarchy: HierarchySpec | None = None,
                   perturbation: PerturbationSpec | None = None,
                   potential=None,
                   sample_dt: float | None = None, n_samples: int | None = None,
                   guard: int = 10) -> SensitivityGrid:
    """Integrate base + tangent from a unit seed at (site, coordinate)."""
    rhs = make_flow(flow, hierarchy, perturbation, potential)
    base, (da, db) = _solve_blocks(x, rhs, _seed_vectors(x, seed),
                                   sample_times(t_final, sample_dt, n_samples),
                                   cfg or IntegratorConfig(), guard)
    return _grid(seed, flow, base, da, db)


def _signed_runs(x, rhs, steps, t_final, cfg, sample_dt, n_samples, guard=10):
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
        tr = integrate(start, rhs, t_final, cfg, sample_dt=sample_dt, n_samples=n_samples,
                       guard=guard)
        ys = np.stack((tr.x1, tr.x2))
        signed = signed + math.prod(signs) * ys
        mean = mean + ys / len(combos)
    return signed, replace(tr, x1=mean[0], x2=mean[1])


def finite_difference_oracle(x, seed, t_final: float,
                             cfg: IntegratorConfig | None = None,
                             flow: str = "toda", *, h: float | None = None,
                             hierarchy: HierarchySpec | None = None,
                             perturbation: PerturbationSpec | None = None,
                             potential=None,
                             sample_dt: float | None = None,
                             n_samples: int | None = None,
                             guard: int = 10) -> SensitivityGrid:
    """Central-difference estimate of the same grid: (flow(x + h e) - flow(x - h e)) / 2h.

    Truncation error scales like h^2; meta records h and that scale.  The
    'btilde' seed differentiates along e_{b,k+1} - e_{b,k}.
    """
    cfg = cfg or IntegratorConfig()
    rhs = make_flow(flow, hierarchy, perturbation, potential)
    da0, db0 = _seed_vectors(x, seed)
    if h is None:
        z0 = x.arrays[0 if seed[1] == x.coords[0] else 1]
        h = 1e-5 * max(1.0, abs(float(z0[seed[0] - x.offset])))
    diff, mid = _signed_runs(x, rhs, [(h * da0, h * db0)], t_final, cfg,
                             sample_dt, n_samples, guard)
    return _grid(seed, flow, mid, diff[0] / (2.0 * h), diff[1] / (2.0 * h),
                 {"fd_h": h, "fd_error_scale": h * h})


# -- second derivatives (Toda flow only) -------------------------------------

@dataclass
class SecondTangentGrid:
    """w = d^2(state at t) / dz1 dz2 for the Toda flow, with both first
    tangents and the base run carried along."""

    times: np.ndarray
    w_a: np.ndarray
    w_b: np.ndarray
    u1_a: np.ndarray
    u1_b: np.ndarray
    u2_a: np.ndarray
    u2_b: np.ndarray
    base: Trajectory
    offset: int
    seed1: tuple
    seed2: tuple
    guard: int = 10

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.w_a.shape[1])

    def observed(self) -> np.ndarray:
        return np.maximum(np.abs(self.w_a), np.abs(self.w_b))


def _toda_second_fields(s: LatticeState, u1a, u1b, u2a, u2b, wa, wb):
    """d/dt of w along the Toda flow: Df(x) w + D^2 f(x)[u1, u2]."""
    a = s.a
    a_bg, b_bg = s.background

    def up(v, fill=0.0):
        return np.concatenate((v[1:], [fill]))

    def dn(v, fill=0.0):
        return np.concatenate(([fill], v[:-1]))

    b_up = up(s.b, b_bg)
    a_dn = dn(a, a_bg)
    dwa = wa * (b_up - s.b) + a * (up(wb) - wb) \
        + u1a * (up(u2b) - u2b) + u2a * (up(u1b) - u1b)
    dwb = 4.0 * (a * wa - a_dn * dn(wa)) \
        + 4.0 * (u1a * u2a - dn(u1a) * dn(u2a))
    return dwa, dwb


def evolve_second_tangent(x: LatticeState, z_seed, k, t_final: float,
                          cfg: IntegratorConfig | None = None, *,
                          sample_dt: float | None = None,
                          n_samples: int | None = None,
                          guard: int = 10) -> SecondTangentGrid:
    """Second variational flow d^2/dz db̃_k of the Toda evolution.

    z_seed is (site, "a"|"b"); k selects the adjacent-difference direction
    e_{b,k+1} - e_{b,k} unless given as an explicit (site, coord) pair.
    """
    if not isinstance(x, LatticeState):
        raise TypeError("second tangent flow is implemented for the Toda flow only")
    second = k if isinstance(k, tuple) else (int(k), "btilde")
    zeros = np.zeros(x.n_sites)
    blocks = (*_seed_vectors(x, z_seed), *_seed_vectors(x, second), zeros, zeros)

    def fields(s, u1a, u1b, u2a, u2b, wa, wb):
        return (*toda_rhs(s, u1a, u1b), *toda_rhs(s, u2a, u2b)[2:],
                *_toda_second_fields(s, u1a, u1b, u2a, u2b, wa, wb))

    base, (u1a, u1b, u2a, u2b, wa, wb) = _solve_blocks(
        x, fields, blocks, sample_times(t_final, sample_dt, n_samples),
        cfg or IntegratorConfig(), guard)
    return SecondTangentGrid(times=base.times, w_a=wa, w_b=wb,
                             u1_a=u1a, u1_b=u1b, u2_a=u2a, u2_b=u2b, base=base,
                             offset=x.offset, seed1=tuple(z_seed), seed2=second,
                             guard=guard)


def second_finite_difference(x: LatticeState, z_seed, second, t_final: float,
                             h: float = 1e-4,
                             cfg: IntegratorConfig | None = None, *,
                             sample_dt: float | None = None,
                             n_samples: int | None = None):
    """Nested central differences for d^2/dz1 dz2 of the Toda flow: four runs

        (F(+h,+h) - F(+h,-h) - F(-h,+h) + F(-h,-h)) / (4 h^2).

    Returns (times, wa, wb).  Use a fixed-step config so the four runs share
    one discretization.
    """
    cfg = cfg or IntegratorConfig(method="rk4-fixed")
    e1a, e1b = _seed_vectors(x, z_seed)
    e2a, e2b = _seed_vectors(x, second if isinstance(second, tuple) else (int(second), "btilde"))
    acc, mid = _signed_runs(x, toda_rhs, [(h * e1a, h * e1b), (h * e2a, h * e2b)],
                            t_final, cfg, sample_dt, n_samples)
    acc /= 4.0 * h * h
    return mid.times, acc[0], acc[1]

"""Time integration and trajectory bookkeeping.

Two integrators behind one config:

* "rk-adaptive": dormand-prince 8(5,3) via scipy, rtol = atol = tolerance.
  Use for accuracy-critical runs.
* "rk4-fixed": hand-rolled classical RK4 with a deterministic number of
  equal substeps per sample interval.  Use when byte-identical reruns
  matter (CSV determinism) or when finite differences of whole
  trajectories must share a step sequence.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .state import (BACKGROUND, GHSState, LatticeState, _relative_ab,
                    hamiltonian_ab, jacobi_norm, trace_invariants)

_METHODS = ("rk-adaptive", "rk4-fixed")


@dataclass
class IntegratorConfig:
    method: str = "rk-adaptive"
    tolerance: float = 1e-10       # adaptive: rtol and atol
    step: float = 0.01             # fixed: substep ceiling
    max_step: float = math.inf     # adaptive: optional step cap

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {_METHODS}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not self.step > 0:
            raise ValueError("step must be positive")


def solve_vector(fun, y0: np.ndarray, times: np.ndarray,
                 cfg: IntegratorConfig) -> np.ndarray:
    """Integrate dy/dt = fun(t, y) through the given sample times.

    Returns array of shape (len(times), len(y0)); row 0 is y0.
    """
    times = np.asarray(times, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("need at least one sample time")
    if times.size == 1:
        return y0[np.newaxis, :].copy()
    if cfg.method == "rk4-fixed":
        out = np.empty((times.size, y0.size))
        y = y0.copy()
        out[0] = y
        for i in range(times.size - 1):
            t0, t1 = times[i], times[i + 1]
            span = t1 - t0
            nsub = max(1, math.ceil(abs(span) / cfg.step))
            h = span / nsub
            t = t0
            for _ in range(nsub):
                k1 = fun(t, y)
                k2 = fun(t + 0.5 * h, y + (0.5 * h) * k1)
                k3 = fun(t + 0.5 * h, y + (0.5 * h) * k2)
                k4 = fun(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += h
            out[i + 1] = y
        return out
    sol = solve_ivp(fun, (times[0], times[-1]), y0, method="DOP853",
                    t_eval=times, rtol=cfg.tolerance, atol=cfg.tolerance,
                    max_step=cfg.max_step, dense_output=False)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol.y.T


def sample_times(t_final: float, sample_dt: float | None = None,
                 n_samples: int | None = None) -> np.ndarray:
    if not t_final > 0:
        raise ValueError("t_final must be positive")
    if sample_dt is not None:
        if not 0 < sample_dt <= t_final:
            raise ValueError("sample_dt must lie in (0, t_final]")
        n = int(round(t_final / sample_dt))
        return np.linspace(0.0, n * sample_dt, n + 1)
    if n_samples is None:
        n_samples = 51
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    return np.linspace(0.0, t_final, n_samples)


class EdgeMargin:
    """Edge bookkeeping of a sampled window run.  A subclass has guard and
    significance, and _deviations() gives (T, N) arrays that vanish where
    the run sits at the background."""

    @property
    def boundary_margin(self) -> int:
        """Distance from the window edge of the nearest significant
        deviation, minimized over samples; N when nothing moves.  A
        non-finite entry counts as significant."""
        dev = functools.reduce(np.maximum, map(np.abs, self._deviations()))
        n = dev.shape[1]
        cols = np.flatnonzero(np.any(~(dev <= self.significance), axis=0))
        return min(int(cols[0]), int(n - 1 - cols[-1])) if cols.size else n

    @property
    def clean(self) -> bool:
        return self.boundary_margin >= self.guard


def write_csv(path, coords, times, offset: int, x1: np.ndarray, x2: np.ndarray):
    """Rows t,n,<coord 1>,<coord 2> of (T, N) arrays with %.17g floats
    (byte-stable for identical data)."""
    with open(path, "w") as fh:
        fh.write("t,n,%s,%s\n" % tuple(coords))
        for i, t in enumerate(times):
            for j in range(x1.shape[1]):
                fh.write("%.17g,%d,%.17g,%.17g\n" % (t, offset + j, x1[i, j], x2[i, j]))


def _drift(series) -> float:
    """Largest deviation of a sampled series (scalar or array per sample)
    from its first sample."""
    return float(np.max(np.abs(series - series[0])))


@dataclass
class Trajectory(EdgeMargin):
    """Sampled run of a window flow: times plus the two coordinate arrays of
    shape (T, N), in the coords order of the run's state type.  They read by
    coordinate name: traj.a and traj.b for a LatticeState run, traj.r and
    traj.p for a GHSState run."""

    times: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    offset: int
    background: tuple
    guard: int = 10
    significance: float = 1e-10
    state_type: type = LatticeState

    def __getattr__(self, name):
        coords = self.state_type.coords
        if name not in coords:
            raise AttributeError(f"{self.state_type.__name__} run has no attribute {name!r}")
        return self.x1 if name == coords[0] else self.x2

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def n_sites(self) -> int:
        return self.x1.shape[1]

    def state(self, i: int):
        return self.state_type(self.x1[i].copy(), self.x2[i].copy(), self.offset,
                               self.background)

    def _deviations(self):
        bg1, bg2 = self.background
        return self.x1 - bg1, self.x2 - bg2

    def energy_series(self, energy=hamiltonian_ab) -> np.ndarray:
        return np.array([energy(self.state(i)) for i in range(self.n_samples)])

    def energy_drift(self, energy=hamiltonian_ab) -> float:
        return _drift(self.energy_series(energy))

    def norm_series(self) -> np.ndarray:
        return self.energy_series(jacobi_norm)

    def norm_drift(self) -> float:
        return _drift(self.norm_series())

    def trace_drift(self, jmax: int = 4) -> float:
        return _drift(self.energy_series(lambda s: trace_invariants(s, jmax)))

    def to_lattice_trajectory(self) -> "Trajectory":
        """A chain run mapped sample by sample through a = (1/2) e^{-r/2},
        b = -p/2: the lattice run when the potential is the Toda one."""
        a, b, background = _relative_ab(self.r, self.p, self.background)
        return Trajectory(self.times.copy(), a, b, self.offset, background, self.guard)

    def to_csv(self, path):
        write_csv(path, self.state_type.coords, self.times, self.offset, self.x1, self.x2)

    @classmethod
    def from_csv(cls, path, background=None, guard: int = 10) -> "Trajectory":
        raw = np.loadtxt(path, delimiter=",", skiprows=1)
        times = np.unique(raw[:, 0])
        sites = np.unique(raw[:, 1].astype(int))
        nt, ns = times.size, sites.size
        if raw.shape[0] != nt * ns:
            raise ValueError("ragged trajectory csv")
        a = raw[:, 2].reshape(nt, ns)
        b = raw[:, 3].reshape(nt, ns)
        return cls(times, a, b, int(sites[0]), background or BACKGROUND, guard)


def integrate(s: LatticeState | GHSState, rhs, t_final: float,
              cfg: IntegratorConfig | None = None, *,
              sample_dt: float | None = None, n_samples: int | None = None,
              guard: int = 10) -> Trajectory:
    """Evolve a window state under the vector field rhs(state) -> (d1, d2).

    Returns a Trajectory of the state's type: its state(i) rebuilds that
    type, and its arrays read by the state's coords (traj.r and traj.p for
    a GHSState).
    """
    cfg = cfg or IntegratorConfig()
    times = sample_times(t_final, sample_dt, n_samples)
    n = s.n_sites
    state = type(s)

    def fun(_t, y):
        return np.concatenate(rhs(state(y[:n], y[n:], s.offset, s.background)))

    ys = solve_vector(fun, np.concatenate(s.arrays), times, cfg)
    return Trajectory(times, ys[:, :n].copy(), ys[:, n:].copy(),
                      s.offset, s.background, guard, state_type=state)

"""Time integration and trajectory bookkeeping.

Two integrators behind one config:

* "rk-adaptive": dormand-prince 8(5,3) via scipy, rtol = atol = tolerance.
  Use for accuracy-critical runs.
* "rk4-fixed": hand-rolled classical RK4 with a deterministic number of
  equal substeps per sample interval.  Use when byte-identical reruns
  matter (CSV determinism) or when finite differences of whole
  trajectories must share a step sequence.

Every CSV artifact goes through write_csv: %.17g floats, the same bytes
for the same arrays.  Where os.fork exists it formats a file in two
processes, a forked helper writing the later rows, and the file is complete
when the call returns; a failed helper makes the call raise OSError.
"""
from __future__ import annotations

import functools
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .state import (GHSState, LatticeState, _relative_ab,
                    hamiltonian_ab, jacobi_norm, trace_invariants)

_METHODS = ("rk-adaptive", "rk4-fixed")


@dataclass
class IntegratorConfig:
    method: str = "rk-adaptive"
    tolerance: float = 1e-10       # adaptive: rtol and atol
    step: float = 0.01             # fixed: substep ceiling

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
                    dense_output=False)
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
    """Edge bookkeeping of a sampled window run.  A subclass has guard, and
    _deviations() gives (T, N) arrays that vanish where the run sits at the
    background; a deviation above significance counts as movement."""

    significance = 1e-10

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


def _write_rows(fh, sites, times, x1, x2):
    """Rows t,n,<x1>,<x2> of the samples given, in order.  Each sample is one
    write, and each distinct value in it (told apart by its bits, so -0.0 is
    not 0.0) is formatted once."""
    n = len(sites)
    for t, row1, row2 in zip(times, x1, x2):
        bits = np.concatenate((row1, row2)).view(np.int64)
        values, inverse = np.unique(bits, return_inverse=True)
        text = ["%.17g" % v for v in values.view(np.float64).tolist()]
        cells = [text[k] for k in inverse.tolist()]
        head = "%.17g," % t
        fh.write("".join([f"{head}{site},{c1},{c2}\n"
                          for site, c1, c2 in zip(sites, cells[:n], cells[n:])]))


def _split_row(x1, x2) -> int:
    """Row k that best halves the formatting work of _write_rows between
    rows :k and rows k:.  A row costs one %.17g per distinct value and, per
    cell, about an eighth of one (timed on N = 1001 rows)."""
    bits = np.concatenate((x1, x2), axis=1).view(np.int64)
    bits.sort(axis=1)
    distinct = 1 + np.count_nonzero(bits[:, 1:] != bits[:, :-1], axis=1)
    work = np.concatenate(([0.0], np.cumsum(distinct + bits.shape[1] / 8.0)))
    return int(np.argmin(np.abs(work - 0.5 * work[-1])))


def _fork_rows(tail, sites, times, x1, x2) -> int:
    """Fork a helper that writes these rows into the binary file tail and
    exits 0, or prints its traceback to stderr and exits 1; return its pid.
    The helper leaves only through os._exit, so it never runs the caller's
    cleanup or flushes a buffer it inherited."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with open(tail.fileno(), "w", closefd=False) as out:
            _write_rows(out, sites, times, x1, x2)
        status = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def write_csv(path, coords, times, offset: int, x1: np.ndarray, x2: np.ndarray):
    """Rows t,n,<coord 1>,<coord 2> of (T, N) float arrays with %.17g floats
    (byte-stable for identical data), written by _write_rows.

    Where os.fork exists the rows are formatted by two processes: a forked
    helper writes the later rows, which hold about half of the formatting
    work, into a temporary file while this process writes the earlier ones,
    then their bytes are appended.  The bytes are those of one process
    writing every row, and the file is complete when the call returns.  A
    helper that fails prints its traceback to stderr and makes the call
    raise OSError naming path; the helper is reaped in every case.
    """
    sites = ["%d" % (offset + j) for j in range(x1.shape[1])]
    k = _split_row(x1, x2) if hasattr(os, "fork") else 0
    with open(path, "w") as fh:
        fh.write("t,n,%s,%s\n" % tuple(coords))
        if not 0 < k < len(times):
            _write_rows(fh, sites, times, x1, x2)
            return
        fh.flush()
        with tempfile.TemporaryFile() as tail:
            pid = _fork_rows(tail, sites, times[k:], x1[k:], x2[k:])
            try:
                _write_rows(fh, sites, times[:k], x1[:k], x2[:k])
            finally:
                status = os.waitpid(pid, 0)[1]
            if status:
                raise OSError(f"{path}: the helper writing rows {k}.. exited with "
                              f"{os.waitstatus_to_exitcode(status)}; its traceback "
                              f"is on stderr")
            fh.flush()
            tail.seek(0)
            shutil.copyfileobj(tail, fh.buffer)


def _plain(value):
    """value with numpy values made plain and each non-finite float None."""
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def write_json(path, value):
    """Write an artifact as strict JSON: sorted keys, indent 2, a final
    newline, and a non-finite float (a NaN fit, an infinite ratio) as null."""
    with open(path, "w") as fh:
        json.dump(_plain(value), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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
        """energy(state(i)) at every sample.  energy sees only the state, so
        it is evaluated once per run of consecutive samples that are equal
        bit for bit (a NaN payload or the sign of a zero makes a new sample)
        and its value repeated over the run."""
        bits1, bits2 = self.x1.view(np.int64), self.x2.view(np.int64)
        new = np.ones(self.n_samples, dtype=bool)
        new[1:] = (np.any(bits1[1:] != bits1[:-1], axis=1)
                   | np.any(bits2[1:] != bits2[:-1], axis=1))
        starts = np.flatnonzero(new)
        values = np.array([energy(self.state(i)) for i in starts])
        return np.repeat(values, np.diff(starts, append=self.n_samples), axis=0)

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
        """Read a run written by to_csv; the header's coords pick the state
        type, and background defaults to that type's default."""
        with open(path) as fh:
            header = fh.readline().strip()
        types = {"t,n,%s,%s" % t.coords: t for t in (LatticeState, GHSState)}
        if header not in types:
            raise ValueError(f"unknown trajectory csv header {header!r}; "
                             f"expected one of {tuple(types)}")
        state_type = types[header]
        raw = np.loadtxt(path, delimiter=",", skiprows=1)
        times = np.unique(raw[:, 0])
        sites = np.unique(raw[:, 1].astype(int))
        nt, ns = times.size, sites.size
        if raw.shape[0] != nt * ns:
            raise ValueError("ragged trajectory csv")
        return cls(times, raw[:, 2].reshape(nt, ns), raw[:, 3].reshape(nt, ns),
                   int(sites[0]), background or state_type.background, guard,
                   state_type=state_type)


def _solve_blocks(x, rhs, blocks, times, cfg, guard):
    """Integrate the window state x together with the (N,) blocks, where
    rhs(state, *blocks) gives the derivatives of the state's two arrays
    and of every block.  Returns the base run, a Trajectory of x's type, and
    the (T, N) series of each block."""
    n = x.n_sites
    state = type(x)
    k = 2 + len(blocks)

    def fun(_t, y):
        rows = y.reshape(k, n)
        return np.concatenate(rhs(state(rows[0], rows[1], x.offset, x.background),
                                  *rows[2:]))

    ys = solve_vector(fun, np.concatenate(x.arrays + tuple(blocks)), times, cfg)
    out = [ys[:, i * n:(i + 1) * n].copy() for i in range(k)]
    base = Trajectory(times, out[0], out[1], x.offset, x.background, guard,
                      state_type=state)
    return base, out[2:]


def integrate(s: LatticeState | GHSState, rhs, t_final: float,
              cfg: IntegratorConfig | None = None, *,
              sample_dt: float | None = None, n_samples: int | None = None,
              guard: int = 10) -> Trajectory:
    """Evolve a window state under the vector field rhs(state) -> (d1, d2).

    Returns a Trajectory of the state's type: its state(i) rebuilds that
    type, and its arrays read by the state's coords (traj.r and traj.p for
    a GHSState).
    """
    return _solve_blocks(s, rhs, (), sample_times(t_final, sample_dt, n_samples),
                         cfg or IntegratorConfig(), guard)[0]

"""Time integration and trajectory bookkeeping.

Two integrators behind one config:

* "rk-adaptive": dormand-prince 8(5,3) via scipy, rtol = atol = tolerance.
  Use for accuracy-critical runs.
* "rk4-fixed": hand-rolled classical RK4 with a deterministic number of
  equal substeps per sample interval.  Use when byte-identical reruns
  matter (CSV determinism) or when finite differences of whole
  trajectories must share a step sequence.

Every window solve goes through _solve_blocks.  Its stages hand the field
unchecked states over views of the solver's vector; the sampled output is
checked once, after the solve, and a ValueError names the time and site of
the first sample that no state may hold.  The start state was validated
when it was built, and its field is checked once before the solve, since
DOP853 never returns from a NaN first step.

Every CSV artifact goes through write_csv: %.17g floats, the same bytes
for the same arrays.  A file gets one line template, its sample's rows
with the site labels baked in.  Each sample reuses the previous sample's
text outside its span, the rows from the first to the last whose bits
changed, and fills the template's slice of the span alone; outside a
light cone a tangent stays exactly 0, so most rows of a grid never change
again.  A sample equal bit for bit to the previous one has an empty span,
and the first sample's span is every row.  Each sample then fills in its
time.  The cells of the spans go in blocks of 32k, and each distinct value
of a block is formatted once, all in one _format17 call: numpy arithmetic
that gives '%.17g' % v byte for byte from a double-double table of 10^k,
built on the first write, and Dekker's exact product.  The few values it
cannot decide (zeros, non-finite values, near-ties, digits off by a power
of ten) it hands to '%.17g' itself, and the tests hold it to '%.17g' over
10^6 random bit patterns.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
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
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
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
    out = sol.y.T
    # the start itself, not the dense output of the first step at its left
    # end, which is NaN where that step's coefficients overflowed
    out[0] = y0
    return out


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


_HEAD = "\0"


def _row_template(offset: int, n: int) -> tuple[str, list]:
    """(template, starts): the text of one sample's rows t,n,<x1>,<x2> over
    sites offset .. offset + n - 1, with _HEAD where each row's time goes,
    the site labels baked in, and %s for each cell, site by site and x1
    before x2; starts[j] is where row j begins, and starts[n] its length."""
    rows = [f"{_HEAD}{offset + j},%s,%s\n" for j in range(n)]
    return "".join(rows), [0, *itertools.accumulate(map(len, rows))]


_POW10_K = range(-300, 350)    # 10^k for every k that 16 - exponent reaches
_TIE = 1e-6                    # closer than this to a rounding tie: use %.17g
_SPLIT = 134217729.0           # 2^27 + 1, Veltkamp's splitting constant
_BLOCK_CELLS = 32768           # cells per np.unique call of _span_cells

# The %g text of one value laid out in fixed slots: a sign, "0.000" for
# exponents -4 .. -1, 17 digits each followed by a slot for the point, the
# exponent "e+000" and a closing comma.  A keep mask picks the slots used.
_SLOTS = b"-0.000" + b"d." * 16 + b"de+000,"


def _layout(x: int, n: int) -> list:
    """The slots of _SLOTS kept for a decimal exponent x and n significant
    digits, sign and exponent sign aside, as %.17g lays them out."""
    keep = [False] * len(_SLOTS)
    if -4 <= x < 0:
        keep[1:2 - x] = [True] * (1 - x)        # "0." and -1 - x zeros
        point, digits = -1, n
    elif 0 <= x < 17:
        point, digits = x, max(n, x + 1)
    else:
        point, digits = 0, n
        keep[39:44] = [True, True, abs(x) >= 100, True, True]
    keep[6:6 + 2 * digits:2] = [True] * digits
    if n > point + 1 > 0:
        keep[7 + 2 * point] = True
    keep[-1] = True
    return keep


@functools.cache
def _pow10():
    """(hi_head, hi_tail, lo, b): 10^k = (hi + lo) 2^b for k in _POW10_K,
    hi in [1, 2) the nearest double and lo the nearest double to the rest,
    from exact fractions; hi is split in halves of 26 bits for Dekker's
    product.  Built on the first write, not at import."""
    from fractions import Fraction     # only a write needs it
    hi, lo, b = [], [], []
    for k in _POW10_K:
        power = Fraction(10) ** k
        e = power.numerator.bit_length() - power.denominator.bit_length()
        if power < Fraction(2) ** e:
            e -= 1
        scaled = power / Fraction(2) ** e
        hi.append(float(scaled))
        lo.append(float(scaled - Fraction(hi[-1])))
        b.append(e)
    hi = np.array(hi)
    c = _SPLIT * hi
    head = c - (c - hi)
    return head, hi - head, np.array(lo), np.array(b)


@functools.cache
def _text_tables():
    """(lut, layouts): lut[i] is the ASCII of i, 0 .. 999, in three digits
    and a pad byte, as one uint32; layouts holds the _layout of every
    exponent class (-4 .. 16, two-digit, three-digit exponents) and every
    n = 1 .. 17, then a last row that keeps only the comma."""
    lut = np.frombuffer("".join(map("{:03d} ".format, range(1000))).encode(), np.uint32)
    layouts = [_layout(x, n) for x in [*range(-4, 17), 17, 100] for n in range(1, 18)]
    layouts.append([False] * (len(_SLOTS) - 1) + [True])
    return lut, np.array(layouts)


def _ascii3(lut, i):
    """(..., 3) uint8 ASCII digits of the integers i, 0 .. 999."""
    return np.take(lut, i).view(np.uint8).reshape(*np.shape(i), 4)[..., :3]


def _scaled17(m, e, x):
    """floor(y) as int64 and y - floor(y) for y = m 2^e 10^(16 - x), m a
    float64 integer below 2^53: Dekker's exact product of m and hi plus
    m lo, off by less than 1e-14 when y < 2^57."""
    hi_head, hi_tail, lo, b = (t[16 - x - _POW10_K.start] for t in _pow10())
    c = _SPLIT * m
    m_head = c - (c - m)
    m_tail = m - m_head
    p = m * (hi_head + hi_tail)
    err = (((m_head * hi_head - p) + m_head * hi_tail) + m_tail * hi_head) + m_tail * hi_tail
    shift = b + e
    rest = np.ldexp(err + m * lo, shift)
    whole = np.floor(rest)
    return np.ldexp(p, shift).astype(np.int64) + whole.astype(np.int64), rest - whole


def _decimal17(v):
    """(ok, digits, x) for a float64 array v: where ok, v rounds to 17
    significant digits as digits 10^(x - 16), digits in [10^16, 10^17).

    |v| = m 2^e, with m the 53-bit integer mantissa, and x = floor(log10 |v|)
    set y = m 2^e 10^(16 - x), which _scaled17 gives to within 1e-14; digits
    is its nearest integer, once x is corrected where y fell outside
    [10^16, 10^17 - 1/2).  A y computed just above 10^16 may lie just
    below it, where it still rounds to 10^16 at x.  ok is False, and digits
    10^16, where this cannot decide: zero, a non-finite value, y within _TIE
    of a rounding tie, or y outside that range after the correction."""
    ok = np.isfinite(v) & (v != 0)
    mag = np.where(ok, np.abs(v), 1.0)
    frac, exp2 = np.frexp(mag)
    m, e = np.ldexp(frac, 53), exp2.astype(np.int64) - 53
    x = np.floor(np.log10(mag)).astype(np.int64)
    floor_y, rest = _scaled17(m, e, x)
    up, down = floor_y + (rest > 0.5) >= 10**17, floor_y < 10**16
    redo = np.flatnonzero(up | down)
    if redo.size:
        x[redo] += up[redo].astype(np.int64) - down[redo]
        floor_y[redo], rest[redo] = _scaled17(m[redo], e[redo], x[redo])
    digits = floor_y + (rest > 0.5)
    ok &= (np.abs(rest - 0.5) >= _TIE) & (floor_y >= 10**16) & (digits < 10**17)
    digits[~ok] = 10**16
    return ok, digits, x


def _format17(values) -> list[str]:
    """'%.17g' % v for each float64 v, byte for byte, in numpy passes.

    _decimal17 gives each value's 17 digits and exponent, the digits fill
    the slots of _SLOTS, a _layout row picks the ones kept, and np.compress
    joins them.  A value _decimal17 cannot decide is formatted by '%.17g'
    itself."""
    v = np.asarray(values, dtype=np.float64)
    ok, digits, x = _decimal17(v)
    lut, layouts = _text_tables()
    groups = np.empty((v.size, 6), dtype=np.int64)
    for i, power in enumerate((10**15, 10**12, 10**9, 10**6, 10**3, 1)):
        groups[:, i] = digits // power % 1000
    chars = np.empty((v.size, len(_SLOTS)), dtype=np.uint8)
    chars[:] = np.frombuffer(_SLOTS, np.uint8)
    chars[:, 6:39:2] = _ascii3(lut, groups).reshape(v.size, 18)[:, 1:]
    chars[:, 40] = np.where(x < 0, ord("-"), ord("+"))
    chars[:, 41:44] = _ascii3(lut, np.abs(x))
    n = 17 - np.argmax(chars[:, 38:5:-2] != ord("0"), axis=1)
    form = np.where((x >= -4) & (x < 17), x + 4, np.where(np.abs(x) < 100, 21, 22))
    keep = layouts[np.where(ok, 17 * form + n - 1, -1)]
    keep[:, 0] = np.signbit(v) & ok
    text = np.compress(keep.ravel(), chars.ravel()).tobytes().decode("ascii").split(",")
    slow = np.flatnonzero(~ok)
    for i, value in zip(slow.tolist(), v[slow].tolist()):
        text[i] = "%.17g" % value
    return text[:-1]


def _changed_rows(x1, x2) -> np.ndarray:
    """(T, N) bool of (T, N) arrays: True in every row of the first sample
    and in each row whose bits differ from the previous sample's (a NaN
    payload or the sign of a zero is a change)."""
    bits1, bits2 = x1.view(np.int64), x2.view(np.int64)
    changed = np.ones(x1.shape, dtype=bool)
    np.not_equal(bits1[1:], bits1[:-1], out=changed[1:])
    changed[1:] |= bits2[1:] != bits2[:-1]
    return changed


def _span_cells(x1, x2, lo, end):
    """Blocks of the text of the cells of sites lo[i] .. end[i] - 1 of each
    sample i of (T, N) arrays, sample by sample, site by site, x1 before
    x2.  A block holds _BLOCK_CELLS cells (the last one fewer), and each
    distinct value of a block (told apart by its bits, so -0.0 is not 0.0)
    is formatted once, all in one _format17 call."""
    rows = end - lo
    # the flat (T, N) index of each row: sample i's rows start at i N + lo[i]
    first = np.arange(rows.size) * x1.shape[1] + lo - (np.cumsum(rows) - rows)
    flat = np.arange(rows.sum()) + np.repeat(first, rows)
    bits = np.empty((flat.size, 2), dtype=np.int64)
    bits[:, 0], bits[:, 1] = np.take(x1.view(np.int64), flat), np.take(x2.view(np.int64), flat)
    bits = bits.ravel()
    for c in range(0, bits.size, _BLOCK_CELLS):
        values, inverse = np.unique(bits[c:c + _BLOCK_CELLS], return_inverse=True)
        yield np.array(_format17(values.view(np.float64)), dtype=object)[inverse].tolist()


def _write_rows(fh, offset, times, x1, x2):
    """Rows of the samples given, in order, one write per sample.  Sample i
    keeps the text of sample i - 1 outside its span: the rows from the first
    to the last whose bits differ from sample i - 1's (every row of sample
    0, none of a sample equal to the previous one).  The _row_template
    slice of the span is filled with _span_cells and spliced in between
    the previous text's first row of the span and its row after the span,
    found by their labels.  Each sample then swaps in its own time."""
    n = x1.shape[1]
    template, starts = _row_template(offset, n)
    changed = _changed_rows(x1, x2)
    new = changed.any(axis=1)
    lo, end = np.zeros((2, new.size), dtype=np.int64)
    lo[new] = np.argmax(changed[new], axis=1)
    end[new] = n - np.argmax(changed[new, ::-1], axis=1)
    cells = itertools.chain.from_iterable(_span_cells(x1, x2, lo, end))
    body = ""
    for t, a, b in zip(times, lo.tolist(), end.tolist()):
        if b > a:
            # a cell's text has one character or more where the template has
            # %s, so in the previous text row j starts at starts[j] - 2 j or
            # later, and starts[n] - starts[j] - 2 (n - j) or more before its end
            head = body.find(f"{_HEAD}{offset + a},", starts[a] - 2 * a) if a else 0
            tail = len(body)
            if b < n:
                row = f"{_HEAD}{offset + b},"
                tail = body.rfind(row, head, tail - starts[n] + starts[b] + 2 * (n - b) + len(row))
            span = template[starts[a]:starts[b]] % tuple(itertools.islice(cells, 2 * (b - a)))
            body = body[:head] + span + body[tail:]
        fh.write(body.replace(_HEAD, "%.17g," % t))


def write_csv(path, coords, times, offset: int, x1: np.ndarray, x2: np.ndarray):
    """Rows t,n,<coord 1>,<coord 2> of (T, N) float arrays with %.17g floats
    (byte-stable for identical data), written by _write_rows: each sample
    formats only its span, the rows from the first to the last whose bits
    differ from the previous sample's, and reuses the previous sample's
    text of the rows before and after it."""
    with open(path, "w") as fh:
        fh.write("t,n,%s,%s\n" % tuple(coords))
        _write_rows(fh, offset, times, x1, x2)


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
        starts = np.flatnonzero(_changed_rows(self.x1, self.x2).any(axis=1))
        values = np.array([energy(self.state(i)) for i in starts])
        return np.repeat(values, np.diff(starts, append=self.n_samples), axis=0)

    def energy_drift(self, energy=hamiltonian_ab) -> float:
        return _drift(self.energy_series(energy))

    def norm_series(self) -> np.ndarray:
        return self.energy_series(jacobi_norm)

    def norm_drift(self) -> float:
        return _drift(self.norm_series())

    def trace_drift(self) -> float:
        """Drift of tr(L^j), j = 1 .. 4 (state.trace_invariants)."""
        return _drift(self.energy_series(trace_invariants))

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
    the (T, N) series of each block.

    Each rhs evaluation sees a state over views of the solver's vector,
    unchecked, and its blocks as views too, so a field must not write into
    its arguments.  A ValueError names the first non-finite entry of the
    field at the start, before the solve, or the first sample that no state
    may hold, after it."""
    n = x.n_sites
    k = 2 + len(blocks)

    def fun(_t, y):
        rows = y.reshape(k, n)
        return np.concatenate(rhs(x._over(rows[0], rows[1]), *rows[2:]))

    y0 = np.concatenate(x.arrays + tuple(blocks))
    bad = np.flatnonzero(~np.isfinite(fun(times[0], y0)))
    if bad.size:
        block, i = divmod(int(bad[0]), n)
        what = f"d{x.coords[block]}/dt" if block < 2 else f"tangent block {block - 2}"
        raise ValueError(f"{type(x).__name__}: non-finite start field, {what} at site {x.offset + i}")
    ys = solve_vector(fun, y0, times, cfg)
    out = [ys[:, i * n:(i + 1) * n].copy() for i in range(k)]
    type(x).check_samples(times, out[0], out[1], x.offset)
    base = Trajectory(times, out[0], out[1], x.offset, x.background, guard,
                      state_type=type(x))
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

"""Time integration and trajectory bookkeeping.

Two integrators behind one config:

* "rk-adaptive": dormand-prince 8(5,3), rtol = atol = tolerance.  The
  stepper is dop853.py's, which takes the steps and gives the bits of
  scipy's solve_ivp(method="DOP853") without importing scipy.integrate.
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

Every pass over the (T, N) arrays of a run or a grid after its solve (the
sample check, the edge margin, the drift series, the verdicts and the CSV
writer) walks them in blocks of ROW_BLOCK samples, given by row_blocks.  Each block's values
are elementwise or exact maxima of the whole-array ones, so the results
are the same bits, and a run holds its solver output plus a few blocks.

Every CSV artifact goes through write_csv: %.17g floats, the same bytes
for the same arrays.  A file keeps a list of row texts, each site's row
without its time.  Each sample keeps the previous sample's rows outside
its span, the rows from the first to the last whose bits changed, and
builds the rows of the span alone; outside a light cone a tangent stays
exactly 0, so most rows of a grid never change again.  A sample equal bit
for bit to the previous one has an empty span, and the first sample's
span is every row.  Each sample then writes its rows, its time at the
head of each.  The cells of the spans go in blocks of 8k, each gathered
as it fills, and each distinct value of a block is formatted once, all
in one _format17 call: numpy arithmetic that gives '%.17g' % v byte for
byte from a double-double table of 10^k, built on the first write, and
Dekker's exact product.  The few values it cannot decide (zeros,
non-finite values, near-ties, digits off by a power of ten) it hands to
'%.17g' itself, and the tests hold it to '%.17g' over 10^6 random bit
patterns.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .dop853 import dop853
from .state import GHSState, LatticeState, _relative_ab, hamiltonian_ab

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
    out = dop853(fun, y0, times, cfg.tolerance)
    # the start itself, not the dense output of the first step at its left
    # end, which is NaN where that step's coefficients overflowed
    out[0] = y0
    return out


def sample_times(t_final: float, sample_dt: float) -> np.ndarray:
    """The sample times of a window solve: 0, sample_dt, ..., n sample_dt
    = t_final.  t_final must be a whole number n >= 1 of sample_dt, to a
    relative 1e-9, so that the last sample is taken at t_final."""
    if not 0 < t_final < math.inf:
        raise ValueError("t_final: must be positive and finite")
    if not 0 < sample_dt <= t_final:
        raise ValueError("sample_dt: must lie in (0, t_final]")
    ratio = t_final / sample_dt
    if ratio == math.inf:
        raise ValueError(f"t_final: t_final / sample_dt overflows at t_final = {t_final:g}, "
                         f"sample_dt = {sample_dt:g}")
    n = round(ratio)
    if abs(n * sample_dt - t_final) > 1e-9 * t_final:
        raise ValueError(f"t_final: must be a whole number of sample_dt = {sample_dt:g}, got {t_final:g}")
    return np.linspace(0.0, n * sample_dt, n + 1)


ROW_BLOCK = 16                 # samples per block of a pass over a (T, N) array


def row_blocks(n_samples: int) -> list:
    """Slices of ROW_BLOCK consecutive samples, in time order, that cover
    0 .. n_samples; the last one may be shorter."""
    return [slice(i, min(i + ROW_BLOCK, n_samples)) for i in range(0, n_samples, ROW_BLOCK)]


class EdgeMargin:
    """Edge bookkeeping of a sampled window run.  A subclass gives its
    times, offset and n_sites, and _deviations(rows), the samples in the
    slice rows of (T, N) arrays that vanish where the run sits at the
    background; a deviation above significance counts as movement."""

    significance = 1e-10

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.n_sites)

    @property
    def boundary_margin(self) -> int:
        """Distance from the window edge of the nearest significant
        deviation, minimized over samples; N when nothing moves.  A
        non-finite entry counts as significant."""
        n = self.n_sites
        moved = np.zeros(n, dtype=bool)
        for rows in row_blocks(self.n_samples):
            dev = functools.reduce(np.maximum, map(np.abs, self._deviations(rows)))
            moved |= np.any(~(dev <= self.significance), axis=0)
        cols = np.flatnonzero(moved)
        return min(int(cols[0]), int(n - 1 - cols[-1])) if cols.size else n

    def clean(self, guard: int) -> bool:
        """Whether the run kept guard sites from the window edge."""
        return self.boundary_margin >= guard


_POW10_K = range(-300, 350)    # 10^k for every k that 16 - exponent reaches
_TIE = 1e-6                    # closer than this to a rounding tie: use %.17g
_SPLIT = 134217729.0           # 2^27 + 1, Veltkamp's splitting constant
_BLOCK_CELLS = 8192            # cells per np.unique call of _span_cells

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


def _changed_rows(x1, x2, rows) -> np.ndarray:
    """(len(rows), N) bool of the samples in the slice rows of (T, N)
    arrays: True in every row of the first sample and in each row whose
    bits differ from the previous sample's (a NaN payload or the sign of a
    zero is a change)."""
    bits1, bits2 = x1.view(np.int64), x2.view(np.int64)
    i, end = max(rows.start, 1), rows.stop      # the samples that have a previous one
    changed = np.ones((end - rows.start, x1.shape[1]), dtype=bool)
    np.not_equal(bits1[i:end], bits1[i - 1:end - 1], out=changed[i - rows.start:])
    changed[i - rows.start:] |= bits2[i:end] != bits2[i - 1:end - 1]
    return changed


def _span_cells(x1, x2, lo, end):
    """Blocks of the text of the cells of sites lo[i] .. end[i] - 1 of each
    sample i of (T, N) arrays, sample by sample, site by site, x1 before
    x2.  A block holds _BLOCK_CELLS cells (the last one fewer), gathered
    from the samples as it fills, and each distinct value of a block (told
    apart by its bits, so -0.0 is not 0.0) is formatted once, all in one
    _format17 call."""
    bits1, bits2 = x1.view(np.int64), x2.view(np.int64)
    bits = np.empty(0, dtype=np.int64)      # cells gathered and not yet formatted
    last = lo.size - 1
    for i, (a, b) in enumerate(zip(lo.tolist(), end.tolist())):
        if a < b:
            bits = np.concatenate((bits, np.stack((bits1[i, a:b], bits2[i, a:b]), axis=1).ravel()))
        full = bits.size if i == last else bits.size - bits.size % _BLOCK_CELLS
        for c in range(0, full, _BLOCK_CELLS):
            values, inverse = np.unique(bits[c:c + _BLOCK_CELLS], return_inverse=True)
            yield np.array(_format17(values.view(np.float64)), dtype=object)[inverse].tolist()
        bits = bits[full:]


def _write_rows(fh, offset, times, x1, x2):
    """Rows of the samples given, in order, one write per sample.  rows
    holds the text of each site's row without its time; sample i replaces
    its span, the rows from the first to the last whose bits differ from
    sample i - 1's (every row of sample 0, none of a sample equal to the
    previous one), with each row's label and its two _span_cells texts, and
    writes rows with its own time at the head of each."""
    n = x1.shape[1]
    if not n:                       # a window of no sites has no rows
        return
    labels = [str(offset + j) for j in range(n)]
    lo, end = np.zeros((2, x1.shape[0]), dtype=np.int64)
    for rows in row_blocks(x1.shape[0]):
        changed = _changed_rows(x1, x2, rows)
        new = changed.any(axis=1)
        lo[rows][new] = np.argmax(changed[new], axis=1)
        end[rows][new] = n - np.argmax(changed[new, ::-1], axis=1)
    cells = itertools.chain.from_iterable(_span_cells(x1, x2, lo, end))
    rows = [""] * n
    for t, a, b in zip(times, lo.tolist(), end.tolist()):
        span = itertools.islice(cells, 2 * (b - a))
        rows[a:b] = map(",".join, zip(labels[a:b], span, span))
        head = "%.17g," % t
        fh.write(head + ("\n" + head).join(rows) + "\n")


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


def drift(series) -> float:
    """Largest deviation of a sampled series (scalar or array per sample)
    from its first sample: the drift of a Trajectory.energy_series."""
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
    state_type: type = LatticeState

    def __getattr__(self, name):
        coords = self.state_type.coords
        if name not in coords:
            raise AttributeError(f"{self.state_type.__name__} run has no attribute {name!r}")
        return self.x1 if name == coords[0] else self.x2

    @property
    def n_sites(self) -> int:
        return self.x1.shape[1]

    def state(self, i: int):
        return self.state_type(self.x1[i].copy(), self.x2[i].copy(), self.offset,
                               self.background)

    def _deviations(self, rows):
        bg1, bg2 = self.background
        return self.x1[rows] - bg1, self.x2[rows] - bg2

    @functools.cached_property
    def distinct_samples(self) -> np.ndarray:
        """The first sample of each run of consecutive samples that are equal
        bit for bit (a NaN payload or the sign of a zero makes a new sample),
        found once per run: every series read off the run shares it."""
        return np.flatnonzero(np.concatenate([_changed_rows(self.x1, self.x2, rows).any(axis=1)
                                              for rows in row_blocks(self.n_samples)]))

    def energy_series(self, energy=hamiltonian_ab) -> np.ndarray:
        """energy(state(i)) at every sample.  energy sees only the state, so
        it is evaluated once per run of distinct_samples and its value
        repeated over the run."""
        starts = self.distinct_samples
        values = np.array([energy(self.state(i)) for i in starts])
        return np.repeat(values, np.diff(starts, append=self.n_samples), axis=0)

    def to_lattice_trajectory(self) -> "Trajectory":
        """A chain run mapped sample by sample through a = (1/2) e^{-r/2},
        b = -p/2: the lattice run when the potential is the Toda one, checked
        as a solve's samples are (an a_n may overflow to inf or reach 0)."""
        a, b, background = _relative_ab(self.r, self.p, self.background)
        LatticeState.check_samples(self.times, a, b, self.offset)
        return Trajectory(self.times.copy(), a, b, self.offset, background)

    def to_csv(self, path):
        write_csv(path, self.state_type.coords, self.times, self.offset, self.x1, self.x2)


def _solve_blocks(x, rhs, blocks, times, cfg):
    """Integrate the window state x together with the (N,) blocks, where
    rhs(state, *blocks) gives the derivatives of the state's two arrays
    and of every block.  Returns the base run, a Trajectory of x's type, and
    the (T, N) series of each block, all views of the one solver output.

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
    out = [ys[:, i * n:(i + 1) * n] for i in range(k)]
    for rows in row_blocks(times.size):
        type(x).check_samples(times[rows], out[0][rows], out[1][rows], x.offset)
    base = Trajectory(times, out[0], out[1], x.offset, x.background, type(x))
    return base, out[2:]


def integrate(s: LatticeState | GHSState, rhs, t_final: float,
              cfg: IntegratorConfig | None = None, *, sample_dt: float) -> Trajectory:
    """Evolve a window state under the vector field rhs(state) -> (d1, d2),
    sampled at sample_times(t_final, sample_dt).

    Returns a Trajectory of the state's type: its state(i) rebuilds that
    type, and its arrays read by the state's coords (traj.r and traj.p for
    a GHSState).
    """
    return _solve_blocks(s, rhs, (), sample_times(t_final, sample_dt),
                         cfg or IntegratorConfig())[0]

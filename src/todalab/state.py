"""Lattice states in Flaschka form and the associated Jacobi operator.

The doubly infinite lattice is truncated to a finite window of sites
[offset, offset + N).  Sites outside the window are frozen at the background
pair (a_bg, b_bg).  The truncation is trustworthy only while the dynamics
stays clear of the window edges; Trajectory.boundary_margin (see
integrators.py) quantifies that.

A state is validated when it is built, and a solve's start state is such a
state.  The solve then checks its sampled output once, with check_samples
over the (T, N) arrays, not each stage: the states the vector field sees at
the solver's stages are unchecked views of the solver's vector (_over), so
a field must not write into its arguments.  Both checks read one list of
the values no state may hold, _faults (a non-finite coordinate; for a
LatticeState also a_n = 0), and name the first site that holds one.

Coordinates: a_n = (1/2) exp(-(q_{n+1} - q_n)/2), b_n = -p_n / 2.  The
a_n must stay away from zero because the physical coordinates live on a
log scale; the flow preserves the sign of each a_n.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

BACKGROUND = (0.5, 0.0)


class _WindowState:
    """Shared body of the window states: the two coordinate arrays named in
    coords over sites offset .. offset + N - 1, with the background pair
    frozen outside the window.  Subclasses are dataclasses with fields
    (<coord 1>, <coord 2>, offset, background)."""

    def __post_init__(self):
        c1, c2 = self.coords
        x1 = np.asarray(getattr(self, c1), dtype=float)
        x2 = np.asarray(getattr(self, c2), dtype=float)
        setattr(self, c1, x1)
        setattr(self, c2, x2)
        if x1.ndim != 1 or x1.shape != x2.shape:
            raise ValueError(f"{c1} and {c2} must be 1-d arrays of equal length")
        if x1.size < 3:
            raise ValueError("window too small: need at least 3 sites")
        fault = self._first_fault(x1, x2)
        if fault:
            (j,), what = fault
            raise ValueError(f"{type(self).__name__}: {what} at site {self.offset + j}")

    @property
    def arrays(self) -> tuple:
        """The two coordinate arrays, in coords order."""
        c1, c2 = self.coords
        return getattr(self, c1), getattr(self, c2)

    @property
    def n_sites(self) -> int:
        return getattr(self, self.coords[0]).size

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.n_sites)

    def site_index(self, n: int) -> int:
        i = n - self.offset
        if not 0 <= i < self.n_sites:
            raise IndexError(f"site {n} outside window [{self.offset}, {self.offset + self.n_sites})")
        return i

    def _over(self, x1, x2):
        """A state of this type, offset and background over the arrays x1
        and x2 as they are: no copy and no check."""
        st = object.__new__(type(self))
        c1, c2 = self.coords
        vars(st).update(vars(self), **{c1: x1, c2: x2})
        return st

    @classmethod
    def _faults(cls, x1, x2) -> list:
        """(what, mask) for each way the arrays x1, x2, one state's or a
        run's samples, can hold a value that no state of this type may hold."""
        c1, c2 = cls.coords
        return [(f"non-finite {c1}", ~np.isfinite(x1)), (f"non-finite {c2}", ~np.isfinite(x2))]

    @classmethod
    def _first_fault(cls, x1, x2):
        """(index, what is wrong) of the first entry, in C order, at which the
        arrays x1, x2 hold a value no state of this type may hold, if any."""
        faults = cls._faults(x1, x2)
        bad = np.logical_or.reduce([mask for _, mask in faults])
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            return i, " and ".join(name for name, mask in faults if mask[i])

    @classmethod
    def check_samples(cls, times, x1, x2, offset: int):
        """Raise ValueError naming the first sample of a run (earliest time,
        then lowest site) at which the (T, N) arrays x1, x2 hold a value no
        state of this type may hold, and what is wrong there."""
        fault = cls._first_fault(x1, x2)
        if fault:
            (i, j), what = fault
            raise ValueError(f"{cls.__name__} run: {what} at t={times[i]:.17g}, site {offset + j}")


@dataclass
class LatticeState(_WindowState):
    """Window of (a_n, b_n) pairs over sites offset .. offset + N - 1."""

    coords = ("a", "b")

    a: np.ndarray
    b: np.ndarray
    offset: int = 0
    background: tuple = BACKGROUND

    def __post_init__(self):
        super().__post_init__()
        a_bg = float(self.background[0])
        if a_bg == 0.0 or not math.isfinite(a_bg) or not math.isfinite(self.background[1]):
            raise ValueError("background a must be finite and nonzero")

    @classmethod
    def _faults(cls, a, b) -> list:
        return super()._faults(a, b) + [("a_n = 0", a == 0.0)]


@dataclass
class GHSState(_WindowState):
    """Relative-coordinate state (r_n = q_{n+1} - q_n, p_n) for chain systems.

    Finite-energy data decays to the background at the window edges; the
    default background is the origin.
    """

    coords = ("r", "p")

    r: np.ndarray
    p: np.ndarray
    offset: int = 0
    background: tuple = (0.0, 0.0)


def centered_offset(n_sites: int) -> int:
    """The offset of a window of n_sites centered on site 0: its sites run
    from -(n_sites // 2) to n_sites - 1 - n_sites // 2."""
    return -(n_sites // 2)


def background_state(n_sites: int, offset: int | None = None,
                     background: tuple = BACKGROUND) -> LatticeState:
    """Pure-background window; offset defaults to centering site 0."""
    if offset is None:
        offset = centered_offset(n_sites)
    a = np.full(n_sites, float(background[0]))
    b = np.full(n_sites, float(background[1]))
    return LatticeState(a, b, offset, background)


def random_localized_state(n_sites: int, offset: int | None = None, *,
                           amp_a: float = 0.3, amp_b: float = 0.2,
                           width: float = 8.0, seed: int = 42,
                           background: tuple = BACKGROUND) -> LatticeState:
    """Background plus a random bump with Gaussian envelope around site 0.

    |amp_a| < 1 keeps every a_n strictly positive.  Deterministic for a
    given seed.
    """
    if not 0 <= amp_a < 1:
        raise ValueError("amp_a must lie in [0, 1)")
    s = background_state(n_sites, offset, background)
    rng = np.random.default_rng(seed)
    env = np.exp(-((s.sites / width) ** 2))
    a_bg, b_bg = s.background
    s.a = a_bg * (1.0 + amp_a * env * rng.uniform(-1.0, 1.0, n_sites))
    s.b = b_bg + amp_b * env * rng.uniform(-1.0, 1.0, n_sites)
    return LatticeState(s.a, s.b, s.offset, s.background)


def _step_up(v: np.ndarray, edge) -> np.ndarray:
    """v_{n+1} - v_n over the window, with edge as the value above it.
    Filled by slices: each entry is the one subtraction it names."""
    out = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=out[:-1])
    out[-1] = edge - v[-1]
    return out


def _step_dn(v: np.ndarray, edge) -> np.ndarray:
    """v_n - v_{n-1} over the window, with edge as the value below it."""
    out = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=out[1:])
    out[0] = v[0] - edge
    return out


def toda_rhs(s: LatticeState, da: np.ndarray | None = None, db: np.ndarray | None = None):
    """Toda vector field: da_n = a_n (b_{n+1} - b_n), db_n = 2 (a_n^2 - a_{n-1}^2).

    Neighbors outside the window are the frozen background, so a window
    state is a fixed point iff b == b_bg everywhere and a^2 == a_bg^2.
    With a tangent (da, db), returns (f_a, f_b, g_a, g_b): the field and its
    linearization along the tangent, which vanishes outside the window.
    """
    a, b = s.a, s.b
    a_bg, b_bg = s.background
    b_step = _step_up(b, b_bg)
    fields = a * b_step, 2.0 * _step_dn(a * a, a_bg * a_bg)
    if da is None:
        return fields
    # below the window the product a * da is a_bg * 0.0, sign of zero included
    return (*fields, da * b_step + a * _step_up(db, 0.0), 4.0 * _step_dn(a * da, a_bg * 0.0))


def site_energy(a, b):
    """The energy of each site, 2 b_n^2 + 4 a_n^2 - 2 ln(2 |a_n|) - 1.  It
    vanishes on the background (1/2, 0)."""
    return 2.0 * b * b + 4.0 * a * a - 2.0 * np.log(2.0 * np.abs(a)) - 1.0


def hamiltonian_ab(s: LatticeState) -> float:
    """Total energy in (a, b) coordinates, the window sum of site_energy:
    the energy relative to the background for the default vacuum."""
    return float(np.sum(site_energy(s.a, s.b)))


def _relative_ab(r, p, background):
    """a = (1/2) e^{-r/2}, b = -p/2 on arrays of any shape, and on the
    background pair; an a that overflows is inf, with no warning."""
    r_bg, p_bg = background
    with np.errstate(over="ignore"):
        a = 0.5 * np.exp(-r / 2.0)
    return a, -p / 2.0, (0.5 * math.exp(-r_bg / 2.0), -p_bg / 2.0)


def _padded(s: LatticeState, pad: int):
    """(a, b) with pad background sites added at each end of the window."""
    a_bg, b_bg = s.background
    a_pad, b_pad = np.full(pad, float(a_bg)), np.full(pad, float(b_bg))
    return np.concatenate((a_pad, s.a, a_pad)), np.concatenate((b_pad, s.b, b_pad))


def _band_poly(a: np.ndarray, b: np.ndarray, coeffs,
               da: np.ndarray | None = None, db: np.ndarray | None = None):
    """Every diagonal of the polynomial p(L) = sum_k coeffs[k] L^k of the
    window matrix with diagonal b and off-diagonal a[:-1], and its
    directional derivative dp(L) along (da, db) if given.

    Returns (Q, dQ) of shape (2K + 1, N), K = len(coeffs) - 1, with
    Q[K + d, i] = p(L)_{i, i+d}; dQ is None without a tangent.  Horner's rule
    from the top coefficient: each step multiplies by L from the left,

        (L Q)_{i, i+d} = a_i Q_{i+1, i+d} + a_{i-1} Q_{i-1, i+d} + b_i Q_{i, i+d},

    as three slice-adds into zeros, then adds the next coefficient to the
    diagonal; the derivative step is its product rule.  After s steps Q has
    bandwidth s, so each step reads only the diagonals -s .. s.  The window
    matrix couples nothing past its ends, so entries within K sites of
    either end differ from those of the background-extended L; callers that
    want the latter pad the window first.  The zero start and the order of
    the adds fix the rounding, and with it the bytes of fixed-step
    artifacts: every entry is a sum that starts at +0.0, so it is never -0.0
    and adding a zero coefficient leaves its bits; a monomial gives the bits
    of repeated multiplication by L.
    """
    k = len(coeffs) - 1
    Q = np.zeros((2 * k + 1, a.size))
    Q[k] = coeffs[k]
    dQ = None if da is None else np.zeros_like(Q)
    for s in range(k):
        lo, hi = k - s, k + s + 1            # rows of the diagonals -s .. s
        p, q = Q[lo:hi], np.zeros_like(Q)
        q[lo + 1:hi + 1, :-1] += a[:-1] * p[:, 1:]
        q[lo - 1:hi - 1, 1:] += a[:-1] * p[:, :-1]
        q[lo:hi] += b * p
        q[k] += coeffs[k - 1 - s]
        if dQ is not None:
            dp, dq = dQ[lo:hi], np.zeros_like(Q)
            dq[lo + 1:hi + 1, :-1] += da[:-1] * p[:, 1:] + a[:-1] * dp[:, 1:]
            dq[lo - 1:hi - 1, 1:] += da[:-1] * p[:, :-1] + a[:-1] * dp[:, :-1]
            dq[lo:hi] += db * p + b * dp
            dQ = dq
        Q = q
    return Q, dQ


def jacobi_norm(s: LatticeState) -> float:
    """Spectral norm of the windowed Jacobi operator.

    Sandwiched by max(max |a_n| over interior couplings, max |b_n|) from
    below and 2 max|a| + max|b| from above.
    """
    from scipy.linalg import eigvalsh_tridiagonal     # only a norm needs it
    ev = eigvalsh_tridiagonal(s.b, s.a[:-1])
    return float(max(abs(ev[0]), abs(ev[-1])))


def jacobi_norm_within(a, b, bound) -> np.ndarray:
    """Per row i of the (T, N) arrays a and b: whether every eigenvalue of
    the window's Jacobi matrix (diagonal b[i], off-diagonal a[i, :-1]) lies
    in [-bound[i], bound[i]], i.e. whether jacobi_norm <= bound[i].

    Answered by Sturm counts (LAPACK stebz) of the eigenvalues in (bound, G]
    for the matrix and for its negative, G being twice a Gershgorin bound
    above the spectrum, so an eigenvalue exactly at the bound passes.  An
    empty interval costs O(N) and no bisection; a row whose bound clears
    the Gershgorin bound needs no count at all.
    """
    from scipy.linalg import eigvalsh_tridiagonal
    bound = np.asarray(bound, dtype=float)
    abs_a = np.abs(a[:, :-1])
    gersh = np.abs(b)
    gersh[:, 1:] += abs_a
    gersh[:, :-1] += abs_a
    gersh = gersh.max(axis=1)
    out = bound >= gersh
    for i in np.flatnonzero(~out & (bound >= 0.0)):
        upper = (bound[i], 2.0 * gersh[i])
        out[i] = not any(eigvalsh_tridiagonal(d, a[i, :-1], select="v", select_range=upper).size
                         for d in (b[i], -b[i]))
    return out


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(L^j), j = 1 .. 4, of the window matrix with diagonal b and
    off-diagonal a[:-1] (the one jacobi_norm diagonalizes): sums of the
    diagonals _band_poly gives for its monomials."""
    return np.array([np.sum(_band_poly(a, b, (0.0,) * j + (1.0,))[0][j]) for j in range(1, 5)])


@functools.lru_cache(maxsize=16)
def _background_traces(n_sites: int, a_bg: float, b_bg: float) -> np.ndarray:
    """_traces of the pure-background window of n_sites, which depend on
    nothing else: made once per size and background, and read-only."""
    out = _traces(np.full(n_sites, a_bg), np.full(n_sites, b_bg))
    out.flags.writeable = False
    return out


def trace_invariants(s: LatticeState) -> np.ndarray:
    """tr(L^j) - tr(L_bg^j), j = 1 .. 4, L_bg the pure-background window of
    equal size, so a background state reads 0.0.  Conserved while the run
    stays boundary-clean."""
    a_bg, b_bg = s.background
    return _traces(s.a, s.b) - _background_traces(s.n_sites, float(a_bg), float(b_bg))

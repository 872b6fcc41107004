"""Lattice states in Flaschka form and the associated Jacobi operator.

The doubly infinite lattice is truncated to a finite window of sites
[offset, offset + N).  Sites outside the window are frozen at the background
pair (a_bg, b_bg).  The truncation is trustworthy only while the dynamics
stays clear of the window edges; Trajectory.boundary_margin (see
integrators.py) quantifies that.

Coordinates: a_n = (1/2) exp(-(q_{n+1} - q_n)/2), b_n = -p_n / 2.  The
a_n must stay away from zero because the physical coordinates live on a
log scale; the flow preserves the sign of each a_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

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
        if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
            raise ValueError(f"non-finite entry in {type(self).__name__}")

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

    def copy(self):
        x1, x2 = self.arrays
        return type(self)(x1.copy(), x2.copy(), self.offset, self.background)


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
        if (self.a == 0.0).any():
            raise ValueError("a_n must be nonzero (log-scale coordinate)")
        a_bg = float(self.background[0])
        if a_bg == 0.0 or not math.isfinite(a_bg) or not math.isfinite(self.background[1]):
            raise ValueError("background a must be finite and nonzero")


@dataclass
class PQState(_WindowState):
    """Position/momentum window (q_n, p_n), n = offset .. offset + M - 1."""

    coords = ("q", "p")

    q: np.ndarray
    p: np.ndarray
    offset: int = 0
    background: tuple = (0.0, 0.0)

    def __post_init__(self):
        super().__post_init__()
        if self.q.size < 4:
            raise ValueError("need at least 4 sites")


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


def background_state(n_sites: int, offset: int | None = None,
                     background: tuple = BACKGROUND) -> LatticeState:
    """Pure-background window; offset defaults to centering site 0."""
    if offset is None:
        offset = -(n_sites // 2)
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


def toda_rhs(s: LatticeState, da: np.ndarray | None = None, db: np.ndarray | None = None):
    """Toda vector field: da_n = a_n (b_{n+1} - b_n), db_n = 2 (a_n^2 - a_{n-1}^2).

    Neighbors outside the window are the frozen background, so a window
    state is a fixed point iff b == b_bg everywhere and a^2 == a_bg^2.
    With a tangent (da, db), returns (f_a, f_b, g_a, g_b): the field and its
    linearization along the tangent, which vanishes outside the window.
    """
    a, b = s.a, s.b
    a_bg, b_bg = s.background
    b_step = np.concatenate((b[1:], [b_bg])) - b
    a_dn = np.concatenate(([a_bg], a[:-1]))
    fields = a * b_step, 2.0 * (a * a - a_dn * a_dn)
    if da is None:
        return fields
    db_up = np.concatenate((db[1:], [0.0]))
    da_dn = np.concatenate(([0.0], da[:-1]))
    return (*fields, da * b_step + a * (db_up - db), 4.0 * (a * da - a_dn * da_dn))


def hamiltonian_ab(s: LatticeState) -> float:
    """Total energy in (a, b) coordinates, window sum of

        2 b_n^2 + 4 a_n^2 - 2 ln(2 |a_n|) - 1.

    The per-site value vanishes on the background (1/2, 0), so this is the
    energy relative to the background for the default vacuum.
    """
    a, b = s.a, s.b
    return float(np.sum(2.0 * b * b + 4.0 * a * a - 2.0 * np.log(2.0 * np.abs(a)) - 1.0))


def flaschka_forward(pq: PQState, background: tuple = BACKGROUND) -> LatticeState:
    """Map (q, p) to (a, b).  Drops the last site: a needs the forward difference.

    Raises on exponent overflow, naming the offending site.
    """
    q, p = pq.q, pq.p
    expo = -(q[1:] - q[:-1]) / 2.0
    bad = np.flatnonzero(expo > 700.0)
    if bad.size:
        n = pq.offset + int(bad[0])
        raise OverflowError(f"flaschka_forward: exp overflow at site {n} (collapsed pair distance)")
    a = 0.5 * np.exp(expo)
    b = -p[:-1] / 2.0
    return LatticeState(a, b, pq.offset, background)


def flaschka_inverse(s: LatticeState) -> GHSState:
    """Map (a, b) to relative coordinates (r_n = q_{n+1} - q_n, p_n).

    Positions q are recoverable from r only up to an overall constant.
    Requires a_n > 0 (the physical branch of the coordinate change).
    """
    if np.any(s.a <= 0.0):
        raise ValueError("flaschka_inverse needs a_n > 0")
    a_bg, b_bg = s.background
    if a_bg <= 0.0:
        raise ValueError("flaschka_inverse needs background a > 0")
    r = -np.log(4.0 * s.a * s.a)
    p = -2.0 * s.b
    r_bg = -math.log(4.0 * a_bg * a_bg)
    return GHSState(r, p, s.offset, (r_bg, -2.0 * b_bg))


def _relative_ab(r, p, background):
    """a = (1/2) e^{-r/2}, b = -p/2 on arrays of any shape, and on the
    background pair."""
    r_bg, p_bg = background
    return 0.5 * np.exp(-r / 2.0), -p / 2.0, (0.5 * math.exp(-r_bg / 2.0), -p_bg / 2.0)


def relative_to_lattice(g: GHSState) -> LatticeState:
    """Inverse of flaschka_inverse: a = (1/2) e^{-r/2}, b = -p/2."""
    a, b, background = _relative_ab(g.r, g.p, g.background)
    return LatticeState(a, b, g.offset, background)


def _padded(s: LatticeState, pad: int):
    """(a, b) with pad background sites added at each end of the window."""
    a_bg, b_bg = s.background
    a_pad, b_pad = np.full(pad, float(a_bg)), np.full(pad, float(b_bg))
    return np.concatenate((a_pad, s.a, a_pad)), np.concatenate((b_pad, s.b, b_pad))


def jacobi_matrix(s: LatticeState, pad: int = 0) -> np.ndarray:
    """Dense symmetric tridiagonal matrix: diagonal b, off-diagonal a.

    pad > 0 extends the window with background sites on both ends.
    """
    a, b = _padded(s, pad)
    n = b.size
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = b
    m[idx[:-1], idx[:-1] + 1] = a[:-1]
    m[idx[:-1] + 1, idx[:-1]] = a[:-1]
    return m


def jacobi_norm(s: LatticeState, pad: int = 0) -> float:
    """Spectral norm of the windowed Jacobi operator.

    Sandwiched by max(max |a_n| over interior couplings, max |b_n|) from
    below and 2 max|a| + max|b| from above.
    """
    a, b = _padded(s, pad)
    if b.size == 1:
        return abs(float(b[0]))
    ev = eigvalsh_tridiagonal(b, a[:-1])
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


def trace_invariants(s: LatticeState, jmax: int = 4) -> np.ndarray:
    """tr(L^j) - tr(L_bg^j) for j = 1 .. jmax on the same window.

    L_bg is the pure-background window of equal size.  Conserved along the
    flow while the run stays boundary-clean.
    """
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    ev = eigvalsh_tridiagonal(s.b, s.a[:-1])
    a_bg, b_bg = s.background
    n = s.n_sites
    # free tridiagonal eigenvalues: b_bg + 2 a_bg cos(k pi / (n+1))
    ev_bg = b_bg + 2.0 * a_bg * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    out = np.empty(jmax)
    for j in range(1, jmax + 1):
        out[j - 1] = np.sum(ev ** j) - np.sum(ev_bg ** j)
    return out

"""The commuting family of lattice flows built from powers of the Jacobi operator.

For order r with weights c = (c_0, ..., c_r), c_0 = 1, the vector field is

    da_n = a_n (g_{n+1} - g_n)          g_n = sum_j c_{r-j} <delta_n, L^{j+1} delta_n>
    db_n = h_n - h_{n-1}                h_n = sum_j c_{r-j} 2 a_n <delta_{n+1}, L^{j+1} delta_n>

r = 0 is the plain Toda flow.  The matrix elements are local: the diagonal
entry of L^j at site n only involves coordinates within distance j, which
is what makes the banded computation below exact on a padded window.

Every power of L here comes from one kernel, _band_powers, which returns the
diagonals of L^0 .. L^jmax (and their derivative along a tangent) as an
array indexed (j, diagonal, site): P[j, jmax + d, i] = (L^j)_{i, i+d}.  The
fields, the Hamiltonian and the single matrix elements g_tilde and h_tilde
all read from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import LatticeState, _padded


@dataclass
class HierarchySpec:
    """Flow order r >= 0 and the full weight list c = (c_0, ..., c_r)."""

    r: int = 0
    c: tuple = (1.0,)

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("order r must be >= 0")
        self.c = tuple(float(x) for x in self.c)
        if len(self.c) != self.r + 1:
            raise ValueError(f"need r + 1 = {self.r + 1} weights, got {len(self.c)}")
        if self.c[0] != 1.0:
            raise ValueError("leading weight c_0 must be 1")

    @property
    def min_window(self) -> int:
        """Fewest window sites the order-r field accepts: 2r + 5."""
        return 2 * self.r + 5

    @property
    def ceiling_divisor(self) -> int:
        # propagation distance is measured in blocks of floor(r/2) + 1 sites
        return self.r // 2 + 1


def free_moment(j: int) -> float:
    """<delta_n, L^j delta_n> on the free background (1/2, 0).

    Zero for odd j, C(j, j/2) / 2^j for even j.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if j % 2:
        return 0.0
    return math.comb(j, j // 2) / 2.0 ** j


def path_counts(j: int):
    """(eta, xi) = walk counts entering the order-j comparison matrix.

    eta counts length-(j+1) walks with steps in {+1, 0, -1} returning to the
    start; xi counts those ending one step up.  Exact integers.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    m = j + 1
    eta = sum(math.comb(m, k) * math.comb(k, k // 2) for k in range(0, m + 1, 2))
    xi = sum(math.comb(m, k) * math.comb(k, (k + 1) // 2) for k in range(1, m + 1, 2))
    return eta, xi


def _band_powers(a: np.ndarray, b: np.ndarray, jmax: int,
                 da: np.ndarray | None = None, db: np.ndarray | None = None):
    """Every diagonal of L^j, j = 0 .. jmax, on a padded window, and the
    directional derivative d(L^j) along (da, db) if given.

    Returns (P, dP) of shape (jmax + 1, 2 jmax + 1, N) with
    P[j, jmax + d, i] = (L^j)_{i, i+d}; dP is None without a tangent.  One
    step multiplies by L from the left,

        (L^{j+1})_{i, i+d} = a_i (L^j)_{i+1, i+d} + a_{i-1} (L^j)_{i-1, i+d} + b_i (L^j)_{i, i+d},

    as three slice-adds; the derivative step is its product rule.  L^j has
    bandwidth j, so each step reads only the diagonals -j .. j and writes
    one more on each side; the others stay exactly zero.  Entries within
    jmax sites of either end are garbage, so callers pad the window first.
    The zero start and the order of the adds fix the rounding, and with it
    the bytes of fixed-step artifacts: for finite input the skipped terms
    are products with zero, which cannot change a sum that starts at +0.0.
    """
    P = np.zeros((jmax + 1, 2 * jmax + 1, a.size))
    P[0, jmax] = 1.0
    dP = None if da is None else np.zeros_like(P)
    for j in range(jmax):
        lo, hi = jmax - j, jmax + j + 1      # rows of the diagonals of L^j
        p, q = P[j, lo:hi], P[j + 1]
        q[lo + 1:hi + 1, :-1] += a[:-1] * p[:, 1:]
        q[lo - 1:hi - 1, 1:] += a[:-1] * p[:, :-1]
        q[lo:hi] += b * p
        if dP is not None:
            dp, dq = dP[j, lo:hi], dP[j + 1]
            dq[lo + 1:hi + 1, :-1] += da[:-1] * p[:, 1:] + a[:-1] * dp[:, 1:]
            dq[lo - 1:hi - 1, 1:] += da[:-1] * p[:, :-1] + a[:-1] * dp[:, :-1]
            dq[lo:hi] += db * p + b * dp
    return P, dP


def hierarchy_fields(s: LatticeState, spec: HierarchySpec,
                     da: np.ndarray | None = None, db: np.ndarray | None = None):
    """(g, h) over extended sites offset-1 .. offset+N, plus tangents if seeded.

    Index 0 of the returned arrays is site offset - 1.  With (da, db) given,
    also returns the directional derivatives (dg, dh) along that tangent.
    """
    pad = spec.r + 3
    a, b = _padded(s, pad)
    dae = dbe = None
    if da is not None:
        z = np.zeros(pad)                # the tangent vanishes outside the window
        dae, dbe = np.concatenate((z, da, z)), np.concatenate((z, db, z))
    P, dP = _band_powers(a, b, spec.r + 1, dae, dbe)
    n = s.n_sites
    sl = slice(pad - 1, pad + n + 1)     # sites offset-1 .. offset+N
    g = np.zeros(n + 2)
    h = np.zeros(n + 2)
    dg = np.zeros(n + 2) if da is not None else None
    dh = np.zeros(n + 2) if da is not None else None
    mid = spec.r + 1                     # row of diagonal 0 in P[j]
    for j in range(spec.r + 1):
        w = spec.c[spec.r - j]
        if w == 0.0:
            continue
        upper = P[j + 1, mid + 1, sl]
        g += w * P[j + 1, mid, sl]
        h += w * 2.0 * a[sl] * upper
        if da is not None:
            dg += w * dP[j + 1, mid, sl]
            dh += w * 2.0 * (dae[sl] * upper + a[sl] * dP[j + 1, mid + 1, sl])
    if da is None:
        return g, h
    return g, h, dg, dh


def hierarchy_rhs(s: LatticeState, spec: HierarchySpec,
                  da: np.ndarray | None = None, db: np.ndarray | None = None):
    """Order-r vector field on the window; neighbors beyond the edge are
    background.  The window must hold at least 2r + 5 sites.  With a tangent
    (da, db), returns (f_a, f_b, g_a, g_b): the field and its linearization
    along the tangent from one banded table, by exact forward-mode
    differentiation of the matrix elements.
    """
    if s.n_sites < spec.min_window:
        raise ValueError(f"window of {s.n_sites} sites too small for order {spec.r}: "
                         f"need >= {spec.min_window}")
    g, h, *tangent = hierarchy_fields(s, spec, da, db)
    g_step = g[2:] - g[1:-1]
    fields = s.a * g_step, h[1:-1] - h[:-2]
    if not tangent:
        return fields
    dg, dh = tangent
    return (*fields, da * g_step + s.a * (dg[2:] - dg[1:-1]), dh[1:-1] - dh[:-2])


def _check_margin(s: LatticeState, what: str, n: int, lo: int, hi: int):
    first, last = s.offset, s.offset + s.n_sites - 1
    if lo < first or hi > last:
        raise ValueError(
            f"{what} at site {n} needs sites {lo}..{hi} but the window is "
            f"[{first}, {last}]; pass padded=True to substitute background values")


def _local_powers(s: LatticeState, n: int, jmax: int, radius: int):
    """(a, P): a and the band powers of L up to jmax on sites n-radius ..
    n+radius of the background-padded window; index radius is site n."""
    last = s.offset + s.n_sites - 1
    pad = max(0, s.offset - (n - radius), n + radius - last)
    a, b = _padded(s, pad)
    seg = slice(n - s.offset + pad - radius, n - s.offset + pad + radius + 1)
    return a[seg], _band_powers(a[seg], b[seg], jmax)[0]


def g_tilde(s: LatticeState, j: int, n: int, padded: bool = False) -> float:
    """<delta_n, L^j delta_n>.  The value only involves sites n-j .. n+j;
    errors if the window lacks them unless padded=True (background fill)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if not padded:
        _check_margin(s, f"diagonal matrix element of L^{j}", n, n - j, n + j)
    _, P = _local_powers(s, n, j, j + 1)
    return float(P[j, j, j + 1])


def h_tilde(s: LatticeState, j: int, n: int, padded: bool = False) -> float:
    """2 a_n <delta_{n+1}, L^j delta_n>.  Needs sites n-j .. n+j+1."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if not padded:
        _check_margin(s, f"off-diagonal matrix element of L^{j}", n, n - j, n + j + 1)
    # powers up to j + 1, so that diagonal -1 exists even for j = 0
    a, P = _local_powers(s, n, j + 1, j + 2)
    return float(2.0 * a[j + 2] * P[j, j, j + 3])


def hierarchy_hamiltonian(s: LatticeState, spec: HierarchySpec) -> float:
    """Conserved energy of the order-r flow:

        H_r = 4/(r+2) sum_k sum_j c_{r-j} (<delta_k, L^{j+2} delta_k> - free_moment(j+2))

    The sum runs over every site whose matrix elements can differ from the
    frozen background, i.e. r+2 sites beyond each window edge.  With that
    range the r = 0 value collapses to the per-site display
    sum(2 b^2 + 4 a^2 - 1) by summation by parts, with no boundary remainder.
    """
    reach = spec.r + 2                   # L^{j+2} couples at most r+2 sites out
    pad = 2 * reach + 1                  # evaluate cleanly at the outermost ones
    a, b = _padded(s, pad)
    P, _ = _band_powers(a, b, reach)
    n = s.n_sites
    sl = slice(pad - reach, pad + n + reach)
    acc = np.zeros(n + 2 * reach)
    for j in range(spec.r + 1):
        w = spec.c[spec.r - j]
        if w == 0.0:
            continue
        acc += w * (P[j + 2, reach, sl] - free_moment(j + 2))
    return float(4.0 / reach * np.sum(acc))


def kvm_rhs(s: LatticeState, spec: HierarchySpec):
    """Even-order flow restricted to b == 0 (the Kac-van Moerbeke reduction).

    Requires b identically zero (state and background) and weights that kill
    every odd power of L: c_{r-j} = 0 for even j.  Returns da only; the
    computed db is asserted to vanish.
    """
    if np.any(s.b != 0.0) or s.background[1] != 0.0:
        raise ValueError("kvm_rhs needs b == 0 everywhere (background included)")
    for j in range(0, spec.r + 1, 2):
        if spec.c[spec.r - j] != 0.0:
            raise ValueError(
                f"not an even-order flow: weight c_{spec.r - j} multiplies an odd power of L")
    da, db = hierarchy_rhs(s, spec)
    worst = float(np.max(np.abs(db))) if db.size else 0.0
    if worst > 1e-12:
        raise AssertionError(f"b-field failed to vanish on the b=0 slice (max {worst:.3e})")
    return da

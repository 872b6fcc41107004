"""The commuting family of lattice flows built from powers of the Jacobi operator.

For order r with weights c = (c_0, ..., c_r), c_0 = 1, the vector field is

    da_n = a_n (g_{n+1} - g_n)          g_n = sum_j c_{r-j} <delta_n, L^{j+1} delta_n>
    db_n = h_n - h_{n-1}                h_n = sum_j c_{r-j} 2 a_n <delta_{n+1}, L^{j+1} delta_n>

r = 0 is the plain Toda flow.  The matrix elements are local: the diagonal
entry of L^j at site n only involves coordinates within distance j, which
is what makes the banded computation below exact on a padded window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import LatticeState


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


def _shift(x: np.ndarray, s: int, fill: float = 0.0) -> np.ndarray:
    """y[i] = x[i + s], vacated entries filled."""
    if s == 0:
        return x
    y = np.full_like(x, fill)
    if s > 0:
        y[:-s] = x[s:]
    else:
        y[-s:] = x[:s]  # s < 0: y[i] = x[i + s] for i >= -s
    return y


def _band_powers(a: np.ndarray, b: np.ndarray, jmax: int,
                 da: np.ndarray | None = None, db: np.ndarray | None = None):
    """Diagonals of L^j (and optionally the directional derivative d(L^j))
    for j = 0 .. jmax over an extended window.

    Returns (powers, dpowers): powers[j] maps diagonal index d to the array
    (L^j)_{i, i+d}.  Entries within jmax sites of either end are garbage;
    callers must pad the window before calling.
    """
    want_d = da is not None
    a_dn = _shift(a, -1, a[0])          # a_{i-1}; callers pad, so edge fill is moot
    powers = [{0: np.ones_like(a)}]
    dpowers = [{0: np.zeros_like(a)}] if want_d else None
    if want_d:
        da_dn = _shift(da, -1, 0.0)
    for _j in range(jmax):
        prev = powers[-1]
        new = {}
        for d in range(-len(powers), len(powers) + 1):
            hi = prev.get(d - 1)
            lo = prev.get(d + 1)
            mid = prev.get(d)
            acc = np.zeros_like(a)
            if hi is not None:
                acc += a * _shift(hi, 1)
            if lo is not None:
                acc += a_dn * _shift(lo, -1)
            if mid is not None:
                acc += b * mid
            new[d] = acc
        powers.append(new)
        if want_d:
            dprev = dpowers[-1]
            dnew = {}
            for d in range(-len(powers) + 1, len(powers)):
                hi, lo, mid = prev.get(d - 1), prev.get(d + 1), prev.get(d)
                dhi, dlo, dmid = dprev.get(d - 1), dprev.get(d + 1), dprev.get(d)
                acc = np.zeros_like(a)
                if hi is not None:
                    acc += da * _shift(hi, 1) + a * _shift(dhi, 1)
                if lo is not None:
                    acc += da_dn * _shift(lo, -1) + a_dn * _shift(dlo, -1)
                if mid is not None:
                    acc += db * mid + b * dmid
                dnew[d] = acc
            dpowers.append(dnew)
    return powers, dpowers


def _extended(s: LatticeState, pad: int, da=None, db=None):
    a_bg, b_bg = s.background
    a = np.concatenate((np.full(pad, a_bg), s.a, np.full(pad, a_bg)))
    b = np.concatenate((np.full(pad, b_bg), s.b, np.full(pad, b_bg)))
    if da is None:
        return a, b, None, None
    z = np.zeros(pad)
    return a, b, np.concatenate((z, da, z)), np.concatenate((z, db, z))


def hierarchy_fields(s: LatticeState, spec: HierarchySpec,
                     da: np.ndarray | None = None, db: np.ndarray | None = None):
    """(g, h) over extended sites offset-1 .. offset+N, plus tangents if seeded.

    Index 0 of the returned arrays is site offset - 1.  With (da, db) given,
    also returns the directional derivatives (dg, dh) along that tangent.
    """
    pad = spec.r + 3
    a, b, dae, dbe = _extended(s, pad, da, db)
    powers, dpowers = _band_powers(a, b, spec.r + 1, dae, dbe)
    n = s.n_sites
    sl = slice(pad - 1, pad + n + 1)     # sites offset-1 .. offset+N
    g = np.zeros(n + 2)
    h = np.zeros(n + 2)
    dg = np.zeros(n + 2) if da is not None else None
    dh = np.zeros(n + 2) if da is not None else None
    for j in range(spec.r + 1):
        w = spec.c[spec.r - j]
        if w == 0.0:
            continue
        pj = powers[j + 1]
        g += w * pj[0][sl]
        h += w * 2.0 * a[sl] * pj[1][sl]
        if da is not None:
            dpj = dpowers[j + 1]
            dg += w * dpj[0][sl]
            dh += w * 2.0 * (dae[sl] * pj[1][sl] + a[sl] * dpj[1][sl])
    if da is None:
        return g, h
    return g, h, dg, dh


def hierarchy_rhs(s: LatticeState, spec: HierarchySpec):
    """Order-r vector field on the window; neighbors beyond the edge are
    background.  The window must comfortably contain the interaction range.
    """
    need = 2 * spec.r + 5
    if s.n_sites < need:
        raise ValueError(f"window of {s.n_sites} sites too small for order {spec.r}: need >= {need}")
    g, h = hierarchy_fields(s, spec)
    da = s.a * (g[2:] - g[1:-1])
    db = h[1:-1] - h[:-2]
    return da, db


def hierarchy_tangent_fields(s: LatticeState, spec: HierarchySpec,
                             da: np.ndarray, db: np.ndarray):
    """Linearization of hierarchy_rhs along (da, db), by exact forward-mode
    differentiation of the banded matrix elements."""
    g, h, dg, dh = hierarchy_fields(s, spec, da, db)
    dda = da * (g[2:] - g[1:-1]) + s.a * (dg[2:] - dg[1:-1])
    ddb = dh[1:-1] - dh[:-2]
    return dda, ddb


def _local_segment(s: LatticeState, n: int, radius: int):
    """(a, b) on sites n-radius .. n+radius, background-filled outside the window."""
    lo, hi = n - radius, n + radius
    first, last = s.offset, s.offset + s.n_sites - 1
    a_bg, b_bg = s.background
    a = np.full(2 * radius + 1, a_bg)
    b = np.full(2 * radius + 1, b_bg)
    src_lo, src_hi = max(lo, first), min(hi, last)
    if src_lo <= src_hi:
        a[src_lo - lo: src_hi - lo + 1] = s.a[src_lo - first: src_hi - first + 1]
        b[src_lo - lo: src_hi - lo + 1] = s.b[src_lo - first: src_hi - first + 1]
    return a, b


def _check_margin(s: LatticeState, what: str, n: int, lo: int, hi: int):
    first, last = s.offset, s.offset + s.n_sites - 1
    if lo < first or hi > last:
        raise ValueError(
            f"{what} at site {n} needs sites {lo}..{hi} but the window is "
            f"[{first}, {last}]; pass padded=True to substitute background values")


def _apply_power(a: np.ndarray, b: np.ndarray, v: np.ndarray, j: int) -> np.ndarray:
    # v -> L^j v on a segment; the support grows by one site per application
    a_dn = _shift(a, -1, a[0])
    for _ in range(j):
        v = a * _shift(v, 1) + a_dn * _shift(v, -1) + b * v
    return v


def g_tilde(s: LatticeState, j: int, n: int, padded: bool = False) -> float:
    """<delta_n, L^j delta_n>.  The value only involves sites n-j .. n+j;
    errors if the window lacks them unless padded=True (background fill)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if not padded:
        _check_margin(s, f"diagonal matrix element of L^{j}", n, n - j, n + j)
    radius = j + 1
    a, b = _local_segment(s, n, radius)
    v = np.zeros(2 * radius + 1)
    v[radius] = 1.0
    return float(_apply_power(a, b, v, j)[radius])


def h_tilde(s: LatticeState, j: int, n: int, padded: bool = False) -> float:
    """2 a_n <delta_{n+1}, L^j delta_n>.  Needs sites n-j .. n+j+1."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if not padded:
        _check_margin(s, f"off-diagonal matrix element of L^{j}", n, n - j, n + j + 1)
    radius = j + 2
    a, b = _local_segment(s, n, radius)
    v = np.zeros(2 * radius + 1)
    v[radius] = 1.0
    return float(2.0 * a[radius] * _apply_power(a, b, v, j)[radius + 1])


def hierarchy_hamiltonian(s: LatticeState, spec: HierarchySpec) -> float:
    """Conserved energy of the order-r flow:

        H_r = 4/(r+2) sum_k sum_j c_{r-j} (<delta_k, L^{j+2} delta_k> - free_moment(r+2))

    The sum runs over every site whose matrix elements can differ from the
    frozen background, i.e. r+2 sites beyond each window edge.  With that
    range the r = 0 value collapses to the per-site display
    sum(2 b^2 + 4 a^2 - 1) by summation by parts, with no boundary remainder.
    """
    reach = spec.r + 2                   # L^{j+2} couples at most r+2 sites out
    pad = 2 * reach + 1                  # evaluate cleanly at the outermost ones
    a, b, _, _ = _extended(s, pad, None, None)
    powers, _ = _band_powers(a, b, reach)
    n = s.n_sites
    sl = slice(pad - reach, pad + n + reach)
    lam = free_moment(reach)
    acc = np.zeros(n + 2 * reach)
    for j in range(spec.r + 1):
        w = spec.c[spec.r - j]
        if w == 0.0:
            continue
        acc += w * (powers[j + 2][0][sl] - free_moment(j + 2))
    acc += float(np.dot(spec.c, [free_moment(j + 2) - lam for j in range(spec.r, -1, -1)]))
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

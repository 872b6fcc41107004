"""The commuting family of lattice flows built from powers of the Jacobi operator.

For order r with weights c = (c_0, ..., c_r), c_0 = 1, the vector field is

    da_n = a_n (g_{n+1} - g_n)          g_n = sum_j c_{r-j} <delta_n, L^{j+1} delta_n>
    db_n = h_n - h_{n-1}                h_n = sum_j c_{r-j} 2 a_n <delta_{n+1}, L^{j+1} delta_n>

r = 0 is the plain Toda flow.  The matrix elements are local: the diagonal
entry of L^j at site n only involves coordinates within distance j, which
is what makes the banded computation exact on a padded window.

One kernel, state._band_poly, gives every polynomial of L here by Horner's rule.
g is the diagonal and h is 2 a_n times the upper diagonal of the one
polynomial p_r(L) = sum_j c_{r-j} L^{j+1}; the Hamiltonian reads the
diagonal of sum_j c_{r-j} L^{j+2}.  The single matrix elements of L^j,
j >= 1, are the g and h of the pure order-(j-1) flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import LatticeState, _band_poly, _padded


@dataclass
class HierarchySpec:
    """Flow order r >= 0 and the full weight list c = (c_0, ..., c_r)."""

    r: int = 0
    c: tuple = (1.0,)

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("order r must be >= 0")
        if any(isinstance(x, bool) for x in self.c):     # a JSON true or false is no weight
            raise ValueError(f"c: expected numbers, got {self.c!r}")
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


def hierarchy_fields(s: LatticeState, spec: HierarchySpec,
                     da: np.ndarray | None = None, db: np.ndarray | None = None):
    """(g, h) over extended sites offset-1 .. offset+N, plus tangents if seeded.

    g and h are the diagonal and 2 a_n times the upper diagonal of the one
    polynomial p_r(L) = sum_j c_{r-j} L^{j+1}.  Index 0 of the returned
    arrays is site offset - 1.  With (da, db) given, also returns the
    directional derivatives (dg, dh) along that tangent.
    """
    pad = spec.r + 3
    a, b = _padded(s, pad)
    dae = dbe = None
    if da is not None:
        z = np.zeros(pad)                # the tangent vanishes outside the window
        dae, dbe = np.concatenate((z, da, z)), np.concatenate((z, db, z))
    Q, dQ = _band_poly(a, b, (0.0,) + spec.c[::-1], dae, dbe)
    sl = slice(pad - 1, pad + s.n_sites + 1)   # sites offset-1 .. offset+N
    mid = spec.r + 1                     # row of diagonal 0
    upper = Q[mid + 1, sl]
    g, h = Q[mid, sl], 2.0 * a[sl] * upper
    if da is None:
        return g, h
    return g, h, dQ[mid, sl], 2.0 * (dae[sl] * upper + a[sl] * dQ[mid + 1, sl])


def hierarchy_rhs(s: LatticeState, spec: HierarchySpec,
                  da: np.ndarray | None = None, db: np.ndarray | None = None):
    """Order-r vector field on the window; neighbors beyond the edge are
    background.  The window must hold at least 2r + 5 sites.  With a tangent
    (da, db), returns (f_a, f_b, g_a, g_b): the field and its linearization
    along the tangent from one banded polynomial, by exact forward-mode
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
    Q, _ = _band_poly(a, b, (0.0, 0.0) + spec.c[::-1])
    free = sum(spec.c[spec.r - j] * free_moment(j + 2) for j in range(spec.r + 1))
    diag = Q[reach, pad - reach:pad + s.n_sites + reach]
    return float(4.0 / reach * np.sum(diag - free))


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

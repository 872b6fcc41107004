"""Bounded perturbations of the Toda flow.

A perturbing potential W >= 0 with bounded first and second derivatives acts
through the variable u_n = ln(4 a_n^2), adding

    R_n = (W'(u_n) - W'(u_{n-1})) / 2

to the b-equation while the a-equation keeps its integrable form.  The flow
is no longer isospectral; what survives is the a-priori growth estimate
||L(t)|| <= ||L(0)|| + ||W'||_inf |t| and (as long as the run stays in a
delta-bounded set) the propagation bounds with perturbation-corrected
constants.  W is one of two families, cosine or rational (PerturbationSpec),
whose derivative norms have closed forms.  The monitors below measure the
two state-dependent numbers the bounds need: C1 (sup-norm of the
trajectory) and C2 (sup of 1/|a_n(t)|), and ||L(0)||, where the a-priori
line starts.  That line, checked at every sample, is the one gate of the
CLI's perturbed scenario: a run inside it is checked against both cones,
however its sampled sup-norm moves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import row_blocks
from .state import LatticeState, _step_dn, hamiltonian_ab, jacobi_norm, toda_rhs

_FAMILIES = ("cosine", "rational")


@dataclass
class PerturbationSpec:
    """Forcing family and amplitude; the derivative norms are closed forms.

    cosine:   W(u) = w0 (1 - cos u)        ||W'|| = ||W''|| = w0
    rational: W(u) = w0 u^2 / (1 + u^2)    ||W'|| = (3 sqrt(3)/8) w0, ||W''|| = 2 w0
    """

    family: str = "cosine"
    w0: float = 0.1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {_FAMILIES}")
        if not self.w0 >= 0:
            raise ValueError("w0 must be >= 0")

    def W(self, u):
        if self.family == "cosine":
            return self.w0 * (1.0 - np.cos(u))
        u2 = np.square(u)
        return self.w0 * u2 / (1.0 + u2)

    def dW(self, u):
        if self.family == "cosine":
            return self.w0 * np.sin(u)
        return 2.0 * self.w0 * u / np.square(1.0 + np.square(u))

    def d2W(self, u):
        if self.family == "cosine":
            return self.w0 * np.cos(u)
        u2 = np.square(u)
        return 2.0 * self.w0 * (1.0 - 3.0 * u2) / (1.0 + u2) ** 3

    @property
    def dw_sup(self) -> float:
        return self.w0 if self.family == "cosine" else 0.375 * math.sqrt(3.0) * self.w0

    @property
    def d2w_sup(self) -> float:
        return self.w0 if self.family == "cosine" else 2.0 * self.w0

    @property
    def vanishes(self) -> bool:
        return self.w0 == 0.0


def _forcing(s: LatticeState, pspec: PerturbationSpec, u: np.ndarray) -> np.ndarray:
    """R_n = (W'(u_n) - W'(u_{n-1})) / 2, given u = ln(4 a^2)."""
    a_bg = s.background[0]
    wp_bg = float(pspec.dW(math.log(4.0 * a_bg * a_bg)))
    return 0.5 * _step_dn(pspec.dW(u), wp_bg)


def perturbed_energy(s: LatticeState, pspec: PerturbationSpec) -> float:
    """The perturbed flow's energy: hamiltonian_ab plus sum_n W(u_n)."""
    u = np.log(4.0 * s.a * s.a)
    return hamiltonian_ab(s) + float(np.sum(pspec.W(u)))


def perturbed_rhs(s: LatticeState, pspec: PerturbationSpec,
                  da: np.ndarray | None = None, db: np.ndarray | None = None):
    """Toda field plus the W-forcing R_n on b.  With a tangent (da, db),
    returns (f_a, f_b, g_a, g_b), the linearization of R_n added to g_b;
    R_n and its linearization share one u = ln(4 a^2).  w0 = 0 leaves the
    Toda fields bit for bit."""
    fields = toda_rhs(s, da, db)
    if pspec.vanishes:
        return fields
    u = np.log(4.0 * s.a * s.a)
    f1, f2, *tangent = fields
    forced = (f1, f2 + _forcing(s, pspec, u))
    if not tangent:
        return forced
    g1, g2 = tangent
    term = pspec.d2W(u) * da / s.a
    return (*forced, g1, g2 + _step_dn(term, 0.0))


@dataclass
class TrajectoryMonitors:
    """Horizon-limited constants entering the perturbed propagation bounds.

    C1 bounds sup_t max(||a(t)||_inf, ||b(t)||_inf), C2 bounds
    sup_t sup_n 1/|a_n(t)|, both measured on the sampled horizon only (the
    true suprema over all t are not computable from a run).  Lnorm0 is
    ||L(0)||, the spectral norm of the first sample.
    """

    C1: float
    C2: float
    Lnorm0: float
    horizon: float


def monitor_trajectory(traj) -> TrajectoryMonitors:
    """Measure C1, C2 and ||L(0)|| (one eigensolve) along a sampled run."""
    a_bg, b_bg = traj.background
    block_max, block_min_a = [], []
    for rows in row_blocks(traj.n_samples):
        abs_a = np.abs(traj.a[rows])
        block_max += [abs_a.max(), np.abs(traj.b[rows]).max()]
        block_min_a.append(abs_a.min())
    c1 = max(float(np.max(block_max)), abs(a_bg), abs(b_bg))
    min_a = min(float(np.min(block_min_a)), abs(a_bg))
    c2 = math.inf if min_a == 0.0 else 1.0 / min_a
    return TrajectoryMonitors(C1=c1, C2=c2, Lnorm0=jacobi_norm(traj.state(0)),
                              horizon=float(traj.times[-1]))

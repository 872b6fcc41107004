"""General nearest-neighbor chains in relative coordinates.

For an interaction potential V with V(0) = V'(0) = 0, V''(0) > 0 and
V(x) -> inf as |x| -> inf, the chain

    dr_n = p_{n+1} - p_n
    dp_n = V'(r_n) - V'(r_{n-1})

conserves H = sum_n (p_n^2 / 2 + V(r_n)) and keeps finite-energy data
bounded: ||p(t)||_2 <= sqrt(2E), ||r(t)||_inf <= M_E with V(+-M_E) = E,
and ||r(t)||_2 <= sqrt(E) / c where c x^2 <= V(x) on [-M_E, M_E].
The Toda potential V(x) = e^{-x} + x - 1 turns this into the Flaschka flow
under a = (1/2) e^{-r/2}, b = -p/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .bounds import Envelope, mu_profile
from .integrators import Trajectory
from .state import GHSState

_FAMILIES = ("toda", "quartic", "custom")


@dataclass
class PotentialSpec:
    """Confining interaction potential.

    toda:    V(x) = e^{-x} + x - 1
    quartic: V(x) = x^2/2 + beta x^4/4, beta >= 0
    custom:  caller supplies v, dv, d2v; V(0)=V'(0)=0 and V''(0)>0 are
             spot-checked numerically.
    """

    family: str = "toda"
    beta: float = 0.0
    v: object = None
    dv: object = None
    d2v: object = None
    confining: bool = True

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {_FAMILIES}")
        if self.family == "quartic" and self.beta < 0:
            raise ValueError("quartic needs beta >= 0")
        if self.family == "custom":
            if not (callable(self.v) and callable(self.dv) and callable(self.d2v)):
                raise ValueError("custom family needs callables v, dv, d2v")
            if abs(float(self.v(0.0))) > 1e-12 or abs(float(self.dv(0.0))) > 1e-12:
                raise ValueError("potential must satisfy V(0) = V'(0) = 0")
            if not float(self.d2v(0.0)) > 0:
                raise ValueError("potential must satisfy V''(0) > 0")

    def V(self, x):
        if self.family == "toda":
            return np.exp(-np.asarray(x, dtype=float)) + np.asarray(x) - 1.0
        if self.family == "quartic":
            x = np.asarray(x, dtype=float)
            return 0.5 * x * x + 0.25 * self.beta * x ** 4
        return self.v(x)

    def dV(self, x):
        if self.family == "toda":
            return 1.0 - np.exp(-np.asarray(x, dtype=float))
        if self.family == "quartic":
            x = np.asarray(x, dtype=float)
            return x + self.beta * x ** 3
        return self.dv(x)

    def d2V(self, x):
        if self.family == "toda":
            return np.exp(-np.asarray(x, dtype=float))
        if self.family == "quartic":
            x = np.asarray(x, dtype=float)
            return 1.0 + 3.0 * self.beta * x * x
        return self.d2v(x)


def ghs_rhs(s: GHSState, pot: PotentialSpec,
            dr: np.ndarray | None = None, dp: np.ndarray | None = None):
    """dr_n = p_{n+1} - p_n, dp_n = V'(r_n) - V'(r_{n-1}); neighbors beyond
    the window sit at the background.  With a tangent (dr, dp), returns
    (f_r, f_p, g_r, g_p), g being the linearized chain

        d(dr)_n = dp_{n+1} - dp_n,   d(dp)_n = V''(r_n) dr_n - V''(r_{n-1}) dr_{n-1}.
    """
    r, p = s.r, s.p
    r_bg, p_bg = s.background
    p_up = np.concatenate((p[1:], [p_bg]))
    vp = np.asarray(pot.dV(r), dtype=float)
    vp_dn = np.concatenate(([float(pot.dV(r_bg))], vp[:-1]))
    fields = p_up - p, vp - vp_dn
    if dr is None:
        return fields
    dp_up = np.concatenate((dp[1:], [0.0]))
    term = np.asarray(pot.d2V(r), dtype=float) * dr
    term_dn = np.concatenate(([0.0], term[:-1]))
    return (*fields, dp_up - dp, term - term_dn)


def ghs_energy(s: GHSState, pot: PotentialSpec) -> float:
    """H = sum_n (p_n^2 / 2 + V(r_n)) over the window."""
    return float(np.sum(0.5 * s.p * s.p + pot.V(s.r)))


def confinement_bound(pot: PotentialSpec, energy: float, tol: float = 1e-10) -> float:
    """M_E: the largest |x| with V(x) <= E, by bisection on each side.

    The quartic family has the closed form sqrt((sqrt(1 + 4 beta E) - 1)/beta).
    """
    if energy < 0:
        raise ValueError("energy must be >= 0")
    if energy == 0.0:
        return 0.0
    if pot.family == "quartic":
        if pot.beta == 0.0:
            return math.sqrt(2.0 * energy)
        return math.sqrt((math.sqrt(1.0 + 4.0 * pot.beta * energy) - 1.0) / pot.beta)

    def side_root(sign: float) -> float:
        hi = 1.0
        while float(pot.V(sign * hi)) < energy:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError("potential does not reach the energy level: not confining?")
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if float(pot.V(sign * mid)) < energy:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return max(side_root(1.0), side_root(-1.0))


def quadratic_floor(pot: PotentialSpec, bound: float, samples: int = 2001) -> float:
    """Largest c with c x^2 <= V(x) on [-bound, bound], estimated by sampling
    plus the x -> 0 limit V''(0)/2.  A pragmatic stand-in for the existence
    constant in the stability argument; reported as sampled."""
    if bound <= 0:
        return 0.5 * float(pot.d2V(0.0))
    x = np.linspace(-bound, bound, samples)
    x = x[np.abs(x) > 1e-9 * bound]
    ratios = np.asarray(pot.V(x), dtype=float) / (x * x)
    return float(min(ratios.min(), 0.5 * float(pot.d2V(0.0))))


@dataclass
class StabilityReport:
    energy: float
    M_E: float
    c_floor: float
    p_l2_max: float
    p_l2_bound: float
    r_inf_max: float
    r_l2_max: float
    r_l2_bound: float
    q_inf_max: float
    q_inf_bound_final: float
    ok: bool


def ghs_stability_diagnostics(traj: Trajectory, pot: PotentialSpec) -> StabilityReport:
    """Check the three finite-energy stability bounds at every sample, plus
    the position bound ||q(t)||_inf <= ||q(0)||_inf + sqrt(2E) |t| with q
    reconstructed by trapezoidal p-integration (q_first fixed to 0)."""
    if not pot.confining:
        raise ValueError("stability diagnostics need a confining potential")
    e = ghs_energy(traj.state(0), pot)
    m_e = confinement_bound(pot, e)
    c = quadratic_floor(pot, m_e)
    p_l2 = np.sqrt(np.sum(traj.p ** 2, axis=1))
    r_inf = np.abs(traj.r).max(axis=1)
    r_l2 = np.sqrt(np.sum(traj.r ** 2, axis=1))
    p_bound = math.sqrt(2.0 * e)
    r2_bound = math.sqrt(e) / c if c > 0 else math.inf

    # cumulative trapezoid of p gives q(t) - q(0); q(0) from partial sums of r(0)
    q0 = np.concatenate(([0.0], np.cumsum(traj.r[0])))
    dt = np.diff(traj.times)[:, np.newaxis]
    increments = 0.5 * dt * (traj.p[1:] + traj.p[:-1])
    qp = q0[:-1] + np.vstack((np.zeros(traj.n_sites), np.cumsum(increments, axis=0)))
    q_inf = np.abs(qp).max(axis=1)
    q_bound = np.abs(q0[:-1]).max() + p_bound * traj.times

    ok = bool(np.all(p_l2 <= p_bound + 1e-12) and np.all(r_inf <= m_e + 1e-12)
              and np.all(r_l2 <= r2_bound + 1e-12) and np.all(q_inf <= q_bound + 1e-9))
    return StabilityReport(energy=e, M_E=m_e, c_floor=c,
                           p_l2_max=float(p_l2.max()), p_l2_bound=p_bound,
                           r_inf_max=float(r_inf.max()),
                           r_l2_max=float(r_l2.max()), r_l2_bound=r2_bound,
                           q_inf_max=float(q_inf.max()),
                           q_inf_bound_final=float(q_bound[-1]), ok=ok)


def ghs_cone_constant(traj: Trajectory, pot: PotentialSpec) -> float:
    """C = max(sup_{t,n} |V'(r_n(t))|^(1/2), 1), measured on the horizon."""
    sup_vp = float(np.abs(np.asarray(pot.dV(traj.r))).max())
    return max(math.sqrt(sup_vp), 1.0)


def ghs_velocity(mu: float, traj: Trajectory, pot: PotentialSpec) -> float:
    """Cone speed 2 C f(mu) for the chain sensitivity bounds."""
    return 2.0 * ghs_cone_constant(traj, pot) * mu_profile(mu)


def factorial_tail_envelope(c: float, dist, t):
    """The iterate bound C sum_{k >= d} (2 C t)^k / k!, evaluated stably as
    C e^x P(d, x) with P the regularized lower incomplete gamma function
    (P(0, x) = 1 recovers C e^x at distance zero)."""
    dist = np.asarray(dist, dtype=float)
    x = 2.0 * c * abs(float(t))
    safe = np.where(dist > 0, dist, 1.0)
    tail = np.where(dist > 0, gammainc(safe, x), 1.0)
    return c * math.exp(x) * tail


def ghs_envelope(mu: float, traj: Trajectory, pot: PotentialSpec,
                 scale: float = 1.0) -> Envelope:
    """C e^{-mu(|n-m| - v|t|)} for chain sensitivities, with C and v measured
    on the run traj."""
    c = ghs_cone_constant(traj, pot)
    return Envelope(family="ghs", mu=mu, prefactor=scale * c,
                    speed=ghs_velocity(mu, traj, pot),
                    params={"C": c, "mu": mu, "scale": scale})

"""General nearest-neighbor chains in relative coordinates.

For an interaction potential V with V(0) = V'(0) = 0, V''(0) > 0 and
V(x) -> inf as |x| -> inf, the chain

    dr_n = p_{n+1} - p_n
    dp_n = V'(r_n) - V'(r_{n-1})

conserves H = sum_n (p_n^2 / 2 + V(r_n)) and keeps finite-energy data
bounded: ||p(t)||_2 <= sqrt(2E), ||r(t)||_inf <= M_E with V(+-M_E) = E,
and ||r(t)||_2 <= sqrt(E) / c where c x^2 <= V(x) on [-M_E, M_E].
PotentialSpec offers two such potentials, toda and quartic.  The Toda
potential V(x) = e^{-x} + x - 1 turns this into the Flaschka flow under
a = (1/2) e^{-r/2}, b = -p/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import Envelope, mu_profile
from .integrators import Trajectory, row_blocks
from .state import GHSState, _step_dn, _step_up

_FAMILIES = ("toda", "quartic")


@dataclass
class PotentialSpec:
    """Confining interaction potential.

    toda:    V(x) = e^{-x} + x - 1, which takes no beta
    quartic: V(x) = x^2/2 + beta x^4/4, beta >= 0
    """

    family: str = "toda"
    beta: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {_FAMILIES}")
        if self.family == "toda" and self.beta != 0:
            raise ValueError(f"the toda family takes no beta, got {self.beta!r}")
        if self.family == "quartic" and self.beta < 0:
            raise ValueError("quartic needs beta >= 0")

    def V(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "toda":
            return np.exp(-x) + x - 1.0
        return 0.5 * x * x + 0.25 * self.beta * x ** 4

    def dV(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "toda":
            return 1.0 - np.exp(-x)
        return x + self.beta * x ** 3

    def d2V(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "toda":
            return np.exp(-x)
        return 1.0 + 3.0 * self.beta * x * x


def ghs_rhs(s: GHSState, pot: PotentialSpec,
            dr: np.ndarray | None = None, dp: np.ndarray | None = None):
    """dr_n = p_{n+1} - p_n, dp_n = V'(r_n) - V'(r_{n-1}); neighbors beyond
    the window sit at the background.  With a tangent (dr, dp), returns
    (f_r, f_p, g_r, g_p), g being the linearized chain

        d(dr)_n = dp_{n+1} - dp_n,   d(dp)_n = V''(r_n) dr_n - V''(r_{n-1}) dr_{n-1}.
    """
    r, p = s.r, s.p
    r_bg, p_bg = s.background
    fields = _step_up(p, p_bg), _step_dn(np.asarray(pot.dV(r), dtype=float), float(pot.dV(r_bg)))
    if dr is None:
        return fields
    return (*fields, _step_up(dp, 0.0), _step_dn(np.asarray(pot.d2V(r), dtype=float) * dr, 0.0))


def ghs_energy(s: GHSState, pot: PotentialSpec) -> float:
    """H = sum_n (p_n^2 / 2 + V(r_n)) over the window."""
    return float(np.sum(0.5 * s.p * s.p + pot.V(s.r)))


def confinement_bound(pot: PotentialSpec, energy: float) -> float:
    """M_E: the largest |x| with V(x) <= E.  The quartic family has the
    closed form sqrt((sqrt(1 + 4 beta E) - 1)/beta); the toda family is
    bisected on each side down to a bracket of width 1e-10.
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
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if float(pot.V(sign * mid)) < energy:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return max(side_root(1.0), side_root(-1.0))


def quadratic_floor(pot: PotentialSpec, bound: float) -> float:
    """Largest c with c x^2 <= V(x) on [-bound, bound]: the least of V/x^2
    at the two ends and its x -> 0 limit V''(0)/2.  Exact for both families,
    since V/x^2 = 1/2 + beta x^2/4 (quartic) rises with |x| and
    V/x^2 = int_0^1 (1 - s) e^{-s x} ds (toda) falls with x."""
    ends = [pot.V(x) / (x * x) for x in (-bound, bound)] if bound > 0 else []
    return float(min(ends + [0.5 * float(pot.d2V(0.0))]))


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
    ok: bool


def ghs_stability_diagnostics(traj: Trajectory, pot: PotentialSpec) -> StabilityReport:
    """Check the three finite-energy stability bounds at every sample, a row
    block at a time.  The position bound ||q(t) - q(0)||_inf <= sqrt(2E) |t|
    needs no check of its own: |dq_n/dt| = |p_n| <= ||p||_2, so it follows
    from the momentum bound ||p(t)||_2 <= sqrt(2E)."""
    e = ghs_energy(traj.state(0), pot)
    m_e = confinement_bound(pot, e)
    c = quadratic_floor(pot, m_e)
    p_l2, r_inf, r_l2 = np.empty((3, traj.n_samples))
    p_bound = math.sqrt(2.0 * e)
    r2_bound = math.sqrt(e) / c if c > 0 else math.inf
    for rows in row_blocks(traj.n_samples):
        p, r = traj.p[rows], traj.r[rows]
        p_l2[rows] = np.sqrt(np.sum(p ** 2, axis=1))
        r_inf[rows] = np.abs(r).max(axis=1)
        r_l2[rows] = np.sqrt(np.sum(r ** 2, axis=1))
    ok = bool(np.all(p_l2 <= p_bound + 1e-12) and np.all(r_inf <= m_e + 1e-12)
              and np.all(r_l2 <= r2_bound + 1e-12))
    return StabilityReport(energy=e, M_E=m_e, c_floor=c,
                           p_l2_max=float(p_l2.max()), p_l2_bound=p_bound,
                           r_inf_max=float(r_inf.max()),
                           r_l2_max=float(r_l2.max()), r_l2_bound=r2_bound, ok=ok)


def ghs_cone_constant(traj: Trajectory, pot: PotentialSpec) -> float:
    """C = max(sup_{t,n} |V'(r_n(t))|^(1/2), 1), measured on the horizon,
    one row block of the run at a time."""
    sup_vp = float(np.max([np.abs(np.asarray(pot.dV(traj.r[rows]))).max()
                           for rows in row_blocks(traj.n_samples)]))
    return max(math.sqrt(sup_vp), 1.0)


def ghs_velocity(mu: float, c: float) -> float:
    """Cone speed 2 C f(mu) for the chain sensitivity bounds, C the cone
    constant (ghs_cone_constant)."""
    return 2.0 * c * mu_profile(mu)


def factorial_tail_envelope(c: float, dist, t):
    """The iterate bound C sum_{k >= d} x^k / k!, x = 2 C |t|, summed in log
    form so that no term under- or overflows before the end: the log terms
    k log x - lgamma(k + 1), k = 0..K, accumulated by logaddexp from K
    down.  Beyond max(d, 2x) each term is at most half the one before, so
    the 60 more terms up to K leave out less than 2^-60 of the tail.  At
    t = 0 the sum is 1 at distance 0 and 0 beyond; at distance 0 it is
    e^x, +inf once that overflows."""
    dist = np.asarray(dist, dtype=float)
    k_from = np.maximum(np.ceil(dist), 0.0).astype(int)
    x = 2.0 * c * abs(float(t))
    if x == 0.0:
        return c * np.where(k_from == 0, 1.0, 0.0)
    k = np.arange(max(int(k_from.max(initial=0)), math.ceil(2.0 * x)) + 61)
    terms = k * math.log(x) - np.array([math.lgamma(j + 1.0) for j in range(k.size)])
    log_tail = np.logaddexp.accumulate(terms[::-1])[::-1]
    with np.errstate(over="ignore"):
        return c * np.exp(log_tail[k_from])


def ghs_envelope(mu: float, traj: Trajectory, pot: PotentialSpec) -> Envelope:
    """C e^{-mu(|n-m| - v|t|)} for chain sensitivities, with C and v measured
    on the run traj, which is read once."""
    c = ghs_cone_constant(traj, pot)
    return Envelope(family="ghs", mu=mu, prefactor=c, speed=ghs_velocity(mu, c),
                    params={"C": c, "mu": mu})

"""Bounded perturbations of the Toda flow.

A perturbing potential W >= 0 with bounded first and second derivatives acts
through the variable u_n = ln(4 a_n^2), adding

    R_n = (W'(u_n) - W'(u_{n-1})) / 2

to the b-equation while the a-equation keeps its integrable form.  The flow
is no longer isospectral; what survives is the a-priori growth estimate
||L(t)|| <= ||L(0)|| + ||W'||_inf |t| and (as long as the run stays in a
delta-bounded set) the propagation bounds with perturbation-corrected
constants.  The monitors below measure the two state-dependent numbers the
bounds need: C1 (sup-norm of the trajectory) and C2 (sup of 1/|a_n(t)|).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import C_epsilon, G_mu, compare, velocity_toda
from .state import LatticeState, hamiltonian_ab, jacobi_norm, toda_rhs

_FAMILIES = ("cosine", "rational", "custom")


@dataclass
class PerturbationSpec:
    """Potential family with explicit derivative norms.

    cosine:   W(u) = w0 (1 - cos u)        ||W'|| = ||W''|| = w0
    rational: W(u) = w0 u^2 / (1 + u^2)    ||W'|| = (3 sqrt(3)/8) w0, ||W''|| = 2 w0
    custom:   caller supplies w, dw, d2w and both norms
    """

    family: str = "cosine"
    w0: float = 0.1
    w: object = None
    dw: object = None
    d2w: object = None
    w1_norm: float | None = None
    w2_norm: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {_FAMILIES}")
        if self.family == "custom":
            if not (callable(self.w) and callable(self.dw) and callable(self.d2w)):
                raise ValueError("custom family needs callables w, dw, d2w")
            if self.w1_norm is None or self.w2_norm is None:
                raise ValueError("custom family must declare w1_norm and w2_norm")
        elif not self.w0 >= 0:
            raise ValueError("w0 must be >= 0")

    def W(self, u):
        if self.family == "cosine":
            return self.w0 * (1.0 - np.cos(u))
        if self.family == "rational":
            u2 = np.square(u)
            return self.w0 * u2 / (1.0 + u2)
        return self.w(u)

    def dW(self, u):
        if self.family == "cosine":
            return self.w0 * np.sin(u)
        if self.family == "rational":
            return 2.0 * self.w0 * u / np.square(1.0 + np.square(u))
        return self.dw(u)

    def d2W(self, u):
        if self.family == "cosine":
            return self.w0 * np.cos(u)
        if self.family == "rational":
            u2 = np.square(u)
            return 2.0 * self.w0 * (1.0 - 3.0 * u2) / (1.0 + u2) ** 3
        return self.d2w(u)

    @property
    def dw_sup(self) -> float:
        if self.family == "cosine":
            return self.w0
        if self.family == "rational":
            return 0.375 * math.sqrt(3.0) * self.w0
        return float(self.w1_norm)

    @property
    def d2w_sup(self) -> float:
        if self.family == "cosine":
            return self.w0
        if self.family == "rational":
            return 2.0 * self.w0
        return float(self.w2_norm)

    @property
    def vanishes(self) -> bool:
        return self.family != "custom" and self.w0 == 0.0


def _forcing(s: LatticeState, pspec: PerturbationSpec, u: np.ndarray) -> np.ndarray:
    """R_n of forcing_field, given u = ln(4 a^2)."""
    wp = pspec.dW(u)
    a_bg = s.background[0]
    wp_bg = float(pspec.dW(math.log(4.0 * a_bg * a_bg)))
    wp_dn = np.concatenate(([wp_bg], wp[:-1]))
    return 0.5 * (wp - wp_dn)


def forcing_field(s: LatticeState, pspec: PerturbationSpec) -> np.ndarray:
    """R_n = (W'(u_n) - W'(u_{n-1})) / 2 with u = ln(4 a^2)."""
    return _forcing(s, pspec, np.log(4.0 * s.a * s.a))


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
    return (*forced, g1, g2 + (term - np.concatenate(([0.0], term[:-1]))))


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
    unbounded: bool


def monitor_trajectory(traj) -> TrajectoryMonitors:
    """Measure C1, C2 and ||L(0)|| (one eigensolve) along a sampled run.

    A run is flagged unbounded-looking when max(|a|, |b|) grows strictly
    monotonically across the final fifth of the samples; flagged runs must
    not be used for bound verification.
    """
    a_bg, b_bg = traj.background
    abs_a = np.abs(traj.a)
    sup_field = np.maximum(abs_a.max(axis=1), np.abs(traj.b).max(axis=1))
    c1 = max(float(sup_field.max()), abs(a_bg), abs(b_bg))
    min_a = min(float(abs_a.min()), abs(a_bg))
    c2 = math.inf if min_a == 0.0 else 1.0 / min_a
    tail = sup_field[-max(4, traj.n_samples // 5):]
    unbounded = bool(np.all(np.diff(tail) > 0.0))
    return TrajectoryMonitors(C1=c1, C2=c2, Lnorm0=jacobi_norm(traj.state(0)),
                              horizon=float(traj.times[-1]), unbounded=unbounded)


@dataclass
class InterpolationFit:
    """Least-squares envelope certificate for the interpolated bound

        C G_mu(|n - m|) e^{(mu+eps) v |t|} (1 + D (e^{delta |t|} - 1)).

    C and v are explicit; D and delta have no computable closed form, so they
    are fitted: D(delta) is chosen as the smallest value making the envelope
    majorize the data (hence envelope_valid is true by construction whenever
    the fit succeeds), and delta minimizes the log-scale residual.
    r2_spatial gauges whether the late-time spatial profile actually decays
    like G_mu on a log scale.
    """

    mu: float
    eps: float
    C: float
    v: float
    vstar: float
    D: float
    delta: float
    r2_spatial: float
    envelope_valid: bool

    def value(self, dist, t):
        dist = np.asarray(dist, dtype=float)
        return self.C * G_mu(self.mu, dist) * np.exp((self.mu + self.eps) * self.v * np.abs(t)) \
            * (1.0 + self.D * np.expm1(self.delta * np.abs(t)))


def interpolation_envelope(grid, monitors: TrajectoryMonitors, mu: float,
                           eps: float) -> InterpolationFit:
    """Fit (D, delta) of the interpolated envelope to a sensitivity grid.

    The leading constant is C = (8/sqrt(17)) C_eps(eps) and the cone rate is
    the unperturbed velocity at decay mu + eps for the initial operator norm;
    vstar (the rate bound along the perturbed orbit, via ||L|| <= 3 C1) is
    reported for reference.
    """
    c = (8.0 / math.sqrt(17.0)) * C_epsilon(eps)
    v = velocity_toda(mu + eps, monitors.Lnorm0)
    vstar = velocity_toda(mu + eps, 3.0 * monitors.C1)

    obs = grid.observed()
    dist = grid.distances.astype(float)
    times = grid.times
    base = c * G_mu(mu, dist)[np.newaxis, :] * \
        np.exp((mu + eps) * v * np.abs(times))[:, np.newaxis]
    s = (obs / base).max(axis=1)          # per-time excess over the D = 0 envelope
    excess = np.maximum(s - 1.0, 0.0)

    if not np.any(excess > 0.0):
        d_fit, delta_fit = 0.0, 0.0
    else:
        mask = times > 0.0
        tpos, epos = times[mask], excess[mask]
        spos = np.maximum(s[mask], 1.0)
        best = None
        for delta in np.geomspace(1e-3, 50.0, 200):
            growth = np.expm1(delta * tpos)
            d_req = float(np.max(epos / growth))
            resid = np.log1p(d_req * growth) - np.log(spos)
            score = float(np.sum(resid * resid))
            if best is None or score < best[0]:
                best = (score, d_req, delta)
        _, d_fit, delta_fit = best

    fit = InterpolationFit(mu=mu, eps=eps, C=c, v=v, vstar=vstar, D=d_fit, delta=delta_fit,
                           r2_spatial=_spatial_log_r2(obs, dist, mu), envelope_valid=False)
    bad, _ = compare(obs, fit.value(dist[np.newaxis, :], times[:, np.newaxis]) * (1.0 + 1e-12))
    fit.envelope_valid = not bad.any()
    return fit


def _spatial_log_r2(obs: np.ndarray, dist: np.ndarray, mu: float) -> float:
    """R^2 of log(observed) against log(G_mu(distance)) at the final sample.

    The regression covers the strictly decaying tail only: per-distance peaks
    inside [1e-12, 1e-3 * max], d >= 1.  Inside the cone the profile is flat
    and oscillatory and says nothing about spatial decay; below 1e-12 it is
    integrator noise.
    """
    profile = obs[-1]
    # one value per distance: the larger of the two sides
    ds = np.unique(dist[dist >= 1.0])
    peaks = np.array([profile[dist == d].max() for d in ds])
    band = (peaks >= 1e-12) & (peaks <= 1e-3 * profile.max())
    if band.sum() < 3:
        return float("nan")
    y = np.log(peaks[band])
    x = np.log(G_mu(mu, ds[band]))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")

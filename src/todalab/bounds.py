"""Propagation-bound constants, envelopes, and the light-cone verifier.

Every explicit constant and velocity of the sensitivity bounds lives here:

* velocity_toda:      v = (1 + sqrt(17)) ||L(0)|| (e^{mu+1} + 1/mu)
* optimal_mu:         the decay rate minimizing that velocity
* velocity_perturbed: the same with perturbation-corrected comparison matrix
* velocity_hierarchy: order-r comparison-matrix and crude-count variants
* velocity_timedep:   cone *radius* for data that is merely bounded
* G_mu machinery:     the summable weight used by the interpolated bounds
* h_growth, second_derivative_envelope: the mixed second-derivative bound

compare is the one comparison behind every verdict; verify_light_cone applies
it pointwise to observed sensitivity magnitudes against an envelope and
reports violations, the empirical front speed, and boundary hygiene.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .hierarchy import HierarchySpec, path_counts
from .integrators import write_json

SQRT17 = math.sqrt(17.0)
MAX_VIOLATIONS_STORED = 200


def mu_profile(mu: float) -> float:
    """The rate factor f(mu) = e^{mu+1} + 1/mu multiplying every velocity."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    return math.exp(mu + 1.0) + 1.0 / mu


def velocity_toda(mu: float, Lnorm: float = 1.0) -> float:
    """Cone speed (1 + sqrt(17)) ||L(0)||_2 f(mu) of the Toda sensitivity bound."""
    return (1.0 + SQRT17) * Lnorm * mu_profile(mu)


def optimal_mu(tol: float = 1e-12, max_iter: int = 200):
    """(mu0, f(mu0)) minimizing the velocity: the stationarity condition is
    e^{mu+1} = 1/mu^2, solved by safeguarded Newton iteration."""
    lo, hi = 0.1, 1.0
    mu = 0.5
    for _ in range(max_iter):
        phi = mu * mu * math.exp(mu + 1.0) - 1.0
        if phi > 0.0:
            hi = mu
        else:
            lo = mu
        dphi = (2.0 * mu + mu * mu) * math.exp(mu + 1.0)
        nxt = mu - phi / dphi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - mu) <= tol:
            mu = nxt
            break
        mu = nxt
    return mu, mu_profile(mu)


def perturbed_alpha(C1: float, C2: float, w2_norm: float) -> float:
    """alpha = 4 + C2 ||W''|| / C1, the entry driving the perturbed constants."""
    if not (C1 > 0 and C2 > 0):
        raise ValueError("C1 and C2 must be positive")
    return 4.0 + C2 * w2_norm / C1


def velocity_perturbed(mu: float, C1: float, C2: float, w2_norm: float) -> float:
    """v^w = (1 + sqrt(17 + 4 C2 ||W''|| / C1)) C1 f(mu)."""
    alpha = perturbed_alpha(C1, C2, w2_norm)
    return (1.0 + math.sqrt(1.0 + 4.0 * alpha)) * C1 * mu_profile(mu)


def perturbed_prefactor(C1: float, C2: float, w2_norm: float) -> float:
    """2 alpha / sqrt(1 + 4 alpha); equals 8/sqrt(17) when the perturbation
    vanishes and dominates the seed-direction-dependent constants otherwise."""
    alpha = perturbed_alpha(C1, C2, w2_norm)
    return 2.0 * alpha / math.sqrt(1.0 + 4.0 * alpha)


def hierarchy_comparison_matrix(spec: HierarchySpec, Lnorm: float) -> np.ndarray:
    """D(r) = sum_j |c_{r-j}| ||L||^j (j+2) [[2 eta, 2 eta], [4 xi, 4 xi]]
    with (eta, xi) the order-j walk counts."""
    m = np.zeros((2, 2))
    for j in range(spec.r + 1):
        w = abs(spec.c[spec.r - j])
        if w == 0.0:
            continue
        eta, xi = path_counts(j)
        scale = w * Lnorm ** j * (j + 2)
        m += scale * np.array([[2.0 * eta, 2.0 * eta], [4.0 * xi, 4.0 * xi]])
    return m

_HIERARCHY_MODES = ("matrix-norm", "lemma44")


def velocity_hierarchy(mu: float, Lnorm: float, spec: HierarchySpec,
                       mode: str = "matrix-norm") -> float:
    """Order-r cone speed v_r.

    matrix-norm: ||D(r)||_inf ||L(0)||_2 f(mu), the sharper exact-count form.
    lemma44:     8 f(mu) sum_j |c_{r-j}| ||L||^{j+1} (j+2) 3^j, the crude
                 count xi <= 3^j; always >= matrix-norm, equal at r = 0.
    """
    if mode == "matrix-norm":
        m = hierarchy_comparison_matrix(spec, Lnorm)
        return float(np.abs(m).sum(axis=1).max()) * Lnorm * mu_profile(mu)
    if mode == "lemma44":
        tot = sum(abs(spec.c[spec.r - j]) * Lnorm ** (j + 1) * (j + 2) * 3 ** j
                  for j in range(spec.r + 1))
        return 8.0 * mu_profile(mu) * tot
    raise ValueError(f"unknown mode {mode!r}; pick one of {_HIERARCHY_MODES}")


def velocity_timedep(t, mu: float, Lnorm0: float, w1_norm: float,
                     w2_norm: float):
    """Cone *radius* (not speed) at time t for merely bounded data:

        radius(t) = f(mu) * 2 [ (1 + L0^2 + ||W''||/4) t + L0 ||W'|| t^2 + ||W'||^2 t^3 / 3 ]

    from integrating the growing norm bound ||L(s)|| <= L0 + ||W'|| s.
    """
    t = np.abs(np.asarray(t, dtype=float))
    h = 2.0 * ((1.0 + Lnorm0 ** 2 + 0.25 * w2_norm) * t
               + Lnorm0 * w1_norm * t ** 2
               + (w1_norm ** 2) * t ** 3 / 3.0)
    return mu_profile(mu) * h


# -- summable-weight machinery ------------------------------------------------

def G_mu(mu: float, k):
    """G_mu(k) = e^{-mu |k|} / (1 + |k|)^2."""
    k = np.abs(np.asarray(k, dtype=float))
    return np.exp(-mu * k) / (1.0 + k) ** 2


def gamma_const() -> float:
    """Convolution constant: 4 sum_k (1 + |k|)^{-2} = 4 (pi^2/3 - 1)."""
    return 4.0 * (math.pi ** 2 / 3.0 - 1.0)


def C_epsilon(eps: float) -> float:
    """sup_x (1 + |x|)^2 e^{-eps |x|}: (4/eps^2) e^{eps-2} for eps <= 2, else 1."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps >= 2.0:
        return 1.0
    return 4.0 / (eps * eps) * math.exp(eps - 2.0)


def check_G_convolution(mu: float, span: int = 50, factor: int = 10) -> dict:
    """Verify sum_l G(d - l) G(l) <= gamma G(d) for d = 0..span, truncating
    the sum at factor * span sites beyond each end."""
    if span < 1:
        raise ValueError("span must be >= 1")
    r = factor * span
    l = np.arange(-r, span + r + 1)
    gl = G_mu(mu, l)
    worst = 0.0
    for d in range(span + 1):
        ratio = float(np.sum(G_mu(mu, d - l) * gl) / G_mu(mu, d))
        worst = max(worst, ratio)
    gamma = gamma_const()
    return {"mu": mu, "span": span, "truncation_range": r,
            "max_ratio": worst, "gamma": gamma, "ok": worst <= gamma}


# -- mixed second derivative --------------------------------------------------

def h_growth(t, mu: float, v: float, Lnorm: float):
    """The time factor of the mixed second-derivative bound:

        h(t) = (e^{2 mu v beta |t|} - 1)/beta,  beta = ||L(0)|| lam_+ / (2 mu v) - 1

    (h(t) = 2 mu v |t| in the beta -> 0 limit), with lam_+ the top eigenvalue
    of the doubled comparison matrix.  h(0) = 0; for beta < 0, h <= 1/|beta|.
    """
    lam_plus = 1.0 + math.sqrt(1.0 + 4.0 * (math.exp(2.0 * mu) + 1.0) ** 2)
    beta = Lnorm * lam_plus / (2.0 * mu * v) - 1.0
    x = 2.0 * mu * v * np.abs(np.asarray(t, dtype=float))
    if abs(beta) < 1e-13:
        return x if x.ndim else float(x)
    out = np.expm1(beta * x) / beta
    return out if out.ndim else float(out)


def second_derivative_envelope(mu: float, Lnorm: float, v: float | None = None):
    """(C, envelope) of the bound on |d^2 F_n(t) / dz db̃_k| for seeds at
    sites l (z) and k:

        envelope(dl, dk, t) = C e^{-mu (dl + dk)} e^{2 mu v |t|} h(t).

    C collects the eigen-decomposition of the doubled comparison matrix.
    """
    if v is None:
        v = velocity_toda(mu, Lnorm)
    e2 = math.exp(2.0 * mu) + 1.0
    lam_p = 1.0 + math.sqrt(1.0 + 4.0 * e2 * e2)
    lam_m = 1.0 - math.sqrt(1.0 + 4.0 * e2 * e2)
    y1 = (2.0 * (math.exp(mu) + 1.0) - lam_m) / (lam_p - lam_m)
    y2 = (lam_p - 2.0 * (math.exp(mu) + 1.0)) / (lam_p - lam_m)
    vp_inf = max(abs(lam_p), 4.0 * e2)
    vm_inf = max(abs(lam_m), 4.0 * e2)
    c_mu = (64.0 / 17.0) * math.exp(mu)
    c = c_mu / (2.0 * mu * v) * (abs(y1) * vp_inf + abs(y2) * vm_inf)

    def envelope(dl, dk, t):
        dl = np.abs(np.asarray(dl, dtype=float))
        dk = np.abs(np.asarray(dk, dtype=float))
        return c * np.exp(-mu * (dl + dk)) * np.exp(2.0 * mu * v * np.abs(t)) \
            * h_growth(t, mu, v, Lnorm)

    return c, envelope


# -- envelopes and the verifier ----------------------------------------------

@dataclass
class Envelope:
    """prefactor * exp(-mu (ceil(dist / ceiling) - radius(t))) with radius(t)
    either speed * |t| or a supplied radius function."""

    family: str
    mu: float
    prefactor: float
    speed: float | None = None
    radius_fn: object = None
    ceiling: int = 1
    observed_kind: str = "ab"
    params: dict = field(default_factory=dict)

    def radius(self, t):
        if self.radius_fn is not None:
            return np.asarray(self.radius_fn(t), dtype=float)
        return self.speed * np.abs(np.asarray(t, dtype=float))

    def value(self, dist, t):
        dist = np.asarray(dist, dtype=float)
        if self.ceiling > 1:
            dist = np.ceil(dist / self.ceiling)
        # exp overflows to +inf only beyond the cone radius, where +inf is the
        # exact "no constraint" value: obs <= inf and obs / inf == 0 both hold
        with np.errstate(over="ignore"):
            return self.prefactor * np.exp(-self.mu * (dist - self.radius(t)))


def toda_envelope(mu: float, Lnorm: float, scale: float = 1.0) -> Envelope:
    """(8/sqrt(17)) e^{-mu(|n-m| - v|t|)} with the Toda velocity."""
    return Envelope(family="toda", mu=mu, prefactor=scale * 8.0 / SQRT17,
                    speed=velocity_toda(mu, Lnorm),
                    params={"Lnorm": Lnorm, "scale": scale})


def hierarchy_envelope(mu: float, Lnorm: float, spec: HierarchySpec,
                       mode: str = "matrix-norm", scale: float = 1.0) -> Envelope:
    """Prefactor-1 envelope with block distance ceil(|n-m| / (floor(r/2)+1))."""
    return Envelope(family="hierarchy", mu=mu, prefactor=scale * 1.0,
                    speed=velocity_hierarchy(mu, Lnorm, spec, mode),
                    ceiling=spec.ceiling_divisor,
                    params={"r": spec.r, "c": list(spec.c), "mode": mode,
                            "Lnorm": Lnorm, "scale": scale})


def perturbed_envelope(mu: float, C1: float, C2: float, w2_norm: float,
                       scale: float = 1.0) -> Envelope:
    return Envelope(family="perturbed", mu=mu,
                    prefactor=scale * perturbed_prefactor(C1, C2, w2_norm),
                    speed=velocity_perturbed(mu, C1, C2, w2_norm),
                    params={"C1": C1, "C2": C2, "w2_norm": w2_norm,
                            "alpha": perturbed_alpha(C1, C2, w2_norm),
                            "scale": scale})


def timedep_envelope(mu: float, Lnorm0: float, w1_norm: float, w2_norm: float,
                     a_star: float, scale: float = 1.0) -> Envelope:
    """max(1, 2/a*) e^{-mu(|n-m| - radius(t))} against the log-a observable,
    for bounded data with inf_n |a_n(0)| = a*."""
    if not a_star > 0:
        raise ValueError("a_star must be positive")
    return Envelope(family="timedep", mu=mu,
                    prefactor=scale * max(1.0, 2.0 / a_star),
                    radius_fn=lambda t: velocity_timedep(t, mu, Lnorm0, w1_norm, w2_norm),
                    observed_kind="log-a",
                    params={"Lnorm0": Lnorm0, "w1_norm": w1_norm,
                            "w2_norm": w2_norm, "a_star": a_star, "scale": scale})


def fit_front_speed(times: np.ndarray, dists: np.ndarray, obs: np.ndarray,
                    threshold: float = 1e-8):
    """Least-squares slope of (first crossing time of threshold, distance).

    Crossing times are log-interpolated between samples.  None when fewer
    than two distances ever cross.
    """
    pts_t, pts_d = [], []
    for d in np.unique(dists[dists >= 1]):
        series = obs[:, dists == d].max(axis=1)
        idx = np.flatnonzero(series > threshold)
        if idx.size == 0 or idx[0] == 0:
            continue
        i = int(idx[0])
        y0, y1 = series[i - 1], series[i]
        if y0 <= 0.0:
            t_cross = times[i]
        else:
            w = (math.log(threshold) - math.log(y0)) / (math.log(y1) - math.log(y0))
            t_cross = times[i - 1] + w * (times[i] - times[i - 1])
        pts_t.append(t_cross)
        pts_d.append(float(d))
    if len(pts_t) < 2:
        return None
    slope = np.polyfit(np.array(pts_t), np.array(pts_d), 1)[0]
    return float(slope)


@dataclass
class LightConeReport:
    """Outcome of one envelope-vs-observation comparison.

    On a clean grid, violations lists every (n, t) whose observation exceeds
    the envelope or is not finite (empty iff the bound holds pointwise); the
    stored list is capped but the
    count is exact.  On a contaminated grid no verdict is issued: violations
    stays empty and clean is False.
    """

    family: str
    mu: float
    prefactor: float
    bound_speed: float | None
    clean: bool
    boundary_margin: int
    guard: int
    n_violations: int
    violations: list
    violations_truncated: bool
    max_ratio: float
    empirical_front_speed: float | None
    front_threshold: float
    seed_site: int
    seed_coord: str
    flow: str
    n_sites: int
    n_samples: int
    params: dict

    @property
    def ok(self) -> bool:
        return self.clean and self.n_violations == 0

    def to_json(self, path):
        """The report as strict JSON, through integrators.write_json."""
        write_json(path, asdict(self))


def compare(observed, bound):
    """(violation mask, max_ratio) of observed <= bound.  A non-finite
    observation is a violation, +inf against a bound that overflowed to +inf
    included; the ratio is taken over the positive finite observations only,
    so 0 against a bound that underflowed to 0 is no excess, and a positive
    one against it (or overflowing it) is +inf."""
    finite = np.isfinite(observed)
    seen = finite & (observed > 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.divide(observed, bound, out=np.zeros_like(observed), where=seen)
    return ~finite | ~(observed <= bound), float(np.max(ratio, initial=0.0))


def verify_light_cone(grid, envelope: Envelope, threshold: float = 1e-8) -> LightConeReport:
    """Pointwise comparison of grid.observed() against the envelope; the
    first MAX_VIOLATIONS_STORED violations are stored."""
    obs = grid.observed(envelope.observed_kind)
    dist = grid.distances
    times = grid.times
    env = envelope.value(dist[np.newaxis, :], times[:, np.newaxis])
    margin = grid.boundary_margin
    clean = bool(margin >= grid.guard)

    bad, max_ratio = compare(obs, env)
    bad = np.argwhere(bad & clean)          # no verdict on a contaminated grid
    n_viol = int(bad.shape[0])
    violations = [{"n": int(grid.sites[isite]), "t": float(times[it]),
                   "observed": float(obs[it, isite]), "bound": float(env[it, isite])}
                  for it, isite in bad[:MAX_VIOLATIONS_STORED]]
    speed = fit_front_speed(times, dist, obs, threshold)
    bound_speed = envelope.speed
    if bound_speed is None and times[-1] > 0:
        # radius-function envelope: report the average edge rate
        bound_speed = float(envelope.radius(times[-1]) / times[-1])
    return LightConeReport(
        family=envelope.family, mu=envelope.mu, prefactor=envelope.prefactor,
        bound_speed=bound_speed, clean=clean, boundary_margin=int(margin),
        guard=int(grid.guard), n_violations=n_viol, violations=violations,
        violations_truncated=bool(n_viol > len(violations)),
        max_ratio=max_ratio,
        empirical_front_speed=speed, front_threshold=threshold,
        seed_site=int(grid.seed_site), seed_coord=str(grid.seed_coord),
        flow=str(grid.flow), n_sites=int(grid.da.shape[1]),
        n_samples=int(times.size), params=dict(envelope.params))

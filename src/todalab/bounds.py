"""Propagation-bound constants, envelopes, and the light-cone verifier.

The explicit constants and velocities of the light-cone bounds:

* velocity_toda:      v = (1 + sqrt(17)) ||L(0)|| (e^{mu+1} + 1/mu)
* optimal_mu:         the decay rate minimizing it, mu0 = 2 W0(e^{-1/2}/2)
* velocity_perturbed: the same with perturbation-corrected comparison matrix
* velocity_hierarchy: order-r comparison-matrix and crude-count variants
* velocity_timedep:   cone *radius* for data that is merely bounded

Envelope.value is the one evaluator of the cone P e^{-mu(d - v|t|)}: the
light-cone envelopes and the bracket bound (observables.check_bracket_bound)
both call it.  Each envelope factory takes only the paper's inputs and
returns the paper's prefactor P.  compare is the one comparison behind every
verdict; verify_light_cone applies it pointwise to observed sensitivity
magnitudes against an envelope and reports violations, the empirical front
speed, and boundary hygiene.  It reads the grid a row block of samples at a
time (integrators.row_blocks): the observations, the envelope and the
comparison of one block are made and dropped before the next, the violations
are taken in time order, and fit_front_speed keeps per distance only its
first crossing, so a verdict holds a few blocks on top of the grid.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .hierarchy import HierarchySpec, path_counts
from .integrators import row_blocks, write_json

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


def optimal_mu():
    """(mu0, f(mu0)) minimizing the velocity.  The stationarity condition
    mu^2 e^{mu+1} = 1 reads (mu/2) e^{mu/2} = e^{-1/2}/2, so
    mu0 = 2 W0(e^{-1/2}/2) with W0 the principal Lambert W branch.  mu0 is
    the double that scipy.special.lambertw gives, written out because the
    package imports no scipy.special; the tests recompute it."""
    mu = 0.4776700622632156
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


def toda_envelope(mu: float, Lnorm: float) -> Envelope:
    """(8/sqrt(17)) e^{-mu(|n-m| - v|t|)} with the Toda velocity."""
    return Envelope(family="toda", mu=mu, prefactor=8.0 / SQRT17,
                    speed=velocity_toda(mu, Lnorm), params={"Lnorm": Lnorm})


def bracket_envelope(mu: float, Lnorm: float) -> Envelope:
    """e^{-mu(|n-m| - v|t|)} with the Toda velocity, times C ||a||_inf in check_bracket_bound."""
    return Envelope(family="bracket", mu=mu, prefactor=1.0, speed=velocity_toda(mu, Lnorm))


def hierarchy_envelope(mu: float, Lnorm: float, spec: HierarchySpec) -> Envelope:
    """Prefactor-1 envelope with block distance ceil(|n-m| / (floor(r/2)+1))
    and the matrix-norm velocity."""
    return Envelope(family="hierarchy", mu=mu, prefactor=1.0,
                    speed=velocity_hierarchy(mu, Lnorm, spec),
                    ceiling=spec.ceiling_divisor,
                    params={"r": spec.r, "c": list(spec.c), "mode": "matrix-norm",
                            "Lnorm": Lnorm})


def perturbed_envelope(mu: float, C1: float, C2: float, w2_norm: float) -> Envelope:
    return Envelope(family="perturbed", mu=mu,
                    prefactor=perturbed_prefactor(C1, C2, w2_norm),
                    speed=velocity_perturbed(mu, C1, C2, w2_norm),
                    params={"C1": C1, "C2": C2, "w2_norm": w2_norm,
                            "alpha": perturbed_alpha(C1, C2, w2_norm)})


def timedep_envelope(mu: float, Lnorm0: float, w1_norm: float, w2_norm: float,
                     a_star: float) -> Envelope:
    """max(1, 2/a*) e^{-mu(|n-m| - radius(t))} against the log-a observable,
    for bounded data with inf_n |a_n(0)| = a*."""
    if not a_star > 0:
        raise ValueError("a_star must be positive")
    return Envelope(family="timedep", mu=mu, prefactor=max(1.0, 2.0 / a_star),
                    radius_fn=lambda t: velocity_timedep(t, mu, Lnorm0, w1_norm, w2_norm),
                    observed_kind="log-a",
                    params={"Lnorm0": Lnorm0, "w1_norm": w1_norm,
                            "w2_norm": w2_norm, "a_star": a_star})


def _distance_groups(dists: np.ndarray):
    """(ds, order, starts): each distance d >= 1 of dists, ascending; the
    sites at those distances, ordered by distance; and the index in order
    at which each distance's sites start."""
    near = np.flatnonzero(dists >= 1)
    order = near[np.argsort(dists[near], kind="stable")]
    ds, starts = np.unique(dists[order], return_index=True)
    return ds, order, starts


def fit_front_speed(times: np.ndarray, dists: np.ndarray, blocks, threshold: float = 1e-8):
    """Least-squares slope of (first crossing time of threshold, distance),
    each distance d >= 1 crossing on the maximum of the observations over
    the sites at that distance.

    blocks are the observations at the sample times in row blocks, (rows,
    N) arrays in time order, read one at a time.  Per distance only the
    first sample above threshold and the sample before it are kept.
    Crossing times are log-interpolated between these samples; where the
    sample before the crossing is not positive (0 or NaN), the crossing
    sample's own time is taken.  A distance above threshold from the first
    sample has no crossing.  None when the crossings take fewer than two
    distinct times (fewer than two distances cross, or all at once).
    """
    ds, order, starts = _distance_groups(dists)
    first = np.full(ds.size, -1)        # the crossing sample; -1 while there is none
    before, at, last = np.full((3, ds.size), np.nan)    # last: the previous block's last row
    done = 0                            # samples read
    for block in blocks:
        peaks = np.maximum.reduceat(block[:, order], starts, axis=-1)
        above = peaks > threshold
        k = np.flatnonzero((first < 0) & above.any(axis=0))
        i = np.argmax(above[:, k], axis=0)
        first[k] = done + i
        before[k] = np.where(i > 0, peaks[i - 1, k], last[k])
        at[k] = peaks[i, k]
        last, done = peaks[-1], done + peaks.shape[0]
    pts_t, pts_d = [], []
    for d, i, y0, y1 in zip(ds, first.tolist(), before, at):
        if i <= 0:
            continue
        if not y0 > 0.0:
            t_cross = times[i]
        else:
            w = (math.log(threshold) - math.log(y0)) / (math.log(y1) - math.log(y0))
            t_cross = times[i - 1] + w * (times[i] - times[i - 1])
        pts_t.append(t_cross)
        pts_d.append(float(d))
    if len(set(pts_t)) < 2:
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


def verify_light_cone(grid, envelope: Envelope, threshold: float = 1e-8,
                      guard: int = 10) -> LightConeReport:
    """Pointwise comparison of grid.observed() against the envelope, a row
    block of samples at a time; every violation is counted, and the first
    MAX_VIOLATIONS_STORED, in time order, are stored.  A grid that came
    closer than guard sites to the window edge gets no verdict."""
    dist, times, sites = grid.distances, grid.times, grid.sites
    margin = grid.boundary_margin
    clean = bool(margin >= guard)
    n_viol, violations, ratios = 0, [], []

    def compared():
        """Each block's observations, once compared; fit_front_speed reads
        the same blocks, so each is observed once."""
        nonlocal n_viol, violations
        for rows in row_blocks(times.size):
            obs = grid.observed(envelope.observed_kind, rows)
            env = envelope.value(dist[np.newaxis, :], times[rows, np.newaxis])
            bad, ratio = compare(obs, env)
            ratios.append(ratio)
            if clean:                       # no verdict on a contaminated grid
                bad = np.argwhere(bad)
                n_viol += bad.shape[0]
                violations += [{"n": int(sites[isite]), "t": float(times[rows.start + it]),
                                "observed": float(obs[it, isite]), "bound": float(env[it, isite])}
                               for it, isite in bad[:MAX_VIOLATIONS_STORED - len(violations)]]
            yield obs

    speed = fit_front_speed(times, dist, compared(), threshold)
    max_ratio = float(np.max(ratios, initial=0.0))
    bound_speed = envelope.speed
    if bound_speed is None and times[-1] > 0:
        # radius-function envelope: report the average edge rate
        bound_speed = float(envelope.radius(times[-1]) / times[-1])
    return LightConeReport(
        family=envelope.family, mu=envelope.mu, prefactor=envelope.prefactor,
        bound_speed=bound_speed, clean=clean, boundary_margin=int(margin),
        guard=int(guard), n_violations=n_viol, violations=violations,
        violations_truncated=bool(n_viol > len(violations)),
        max_ratio=max_ratio,
        empirical_front_speed=speed, front_threshold=threshold,
        seed_site=int(grid.seed_site), seed_coord=str(grid.seed_coord),
        flow=str(grid.flow), n_sites=int(grid.n_sites),
        n_samples=int(times.size), params=dict(envelope.params))

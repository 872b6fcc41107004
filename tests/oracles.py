"""Reference oracles the tests check the package against: dense and closed
forms, the difference seed btilde and finite differences, the second
variational flow of the Toda lattice and the mixed second-derivative bound,
and the summable weight G_mu of the interpolated bounds with its constant
C_epsilon, which no run gives a verdict on, the reader of a run's CSV, the sampled
quadratic floor of a chain potential, and the whole-grid bodies of the
passes that the package makes a row block at a time.  No CLI run and no demo calls them, so they live beside the tests,
and tests/test_reach.py keeps the package free of such code."""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from todalab.bounds import (MAX_VIOLATIONS_STORED, Envelope, LightConeReport, _distance_groups,
                            compare, velocity_toda)
from todalab.ghs import (StabilityReport, confinement_bound, ghs_energy,
                         quadratic_floor)
from todalab.integrators import (IntegratorConfig, Trajectory, _solve_blocks, integrate,
                                 sample_times)
from todalab.perturbed import TrajectoryMonitors
from todalab.sensitivity import SensitivityGrid, _seed_vectors, evolve_tangent, make_flow
from todalab.solitons import SolitonSpec, _phase
from todalab.state import (GHSState, LatticeState, _padded, _relative_ab, _step_dn, _step_up,
                           jacobi_norm, toda_rhs)


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


def relative_to_lattice(g: GHSState) -> LatticeState:
    """Inverse of flaschka_inverse: a = (1/2) e^{-r/2}, b = -p/2.  On
    r = q_{n+1} - q_n it is the Flaschka map of positions q."""
    a, b, background = _relative_ab(g.r, g.p, g.background)
    return LatticeState(a, b, g.offset, background)


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


def seed_vectors(x, seed):
    """sensitivity._seed_vectors, plus the difference seed (k, "btilde") of
    a lattice state: the direction e_{b,k+1} - e_{b,k}."""
    m, coord = seed
    if coord != "btilde" or x.coords != ("a", "b"):
        return _seed_vectors(x, seed)
    da, db = _seed_vectors(x, (m, "b"))
    if m + 1 - x.offset >= x.n_sites:
        raise ValueError(f"btilde seed at site {m} needs site {m + 1} in the window")
    db[m + 1 - x.offset] = 1.0
    db[m - x.offset] = -1.0
    return da, db


def trajectory_from_csv(path, background=None) -> Trajectory:
    """Read a run written by Trajectory.to_csv; the header's coords pick the
    state type, and background defaults to that type's default."""
    with open(path) as fh:
        header = fh.readline().strip()
    types = {"t,n,%s,%s" % t.coords: t for t in (LatticeState, GHSState)}
    if header not in types:
        raise ValueError(f"unknown trajectory csv header {header!r}; "
                         f"expected one of {tuple(types)}")
    state_type = types[header]
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    times = np.unique(raw[:, 0])
    sites = np.unique(raw[:, 1].astype(int))
    nt, ns = times.size, sites.size
    if raw.shape[0] != nt * ns:
        raise ValueError("ragged trajectory csv")
    return Trajectory(times, raw[:, 2].reshape(nt, ns), raw[:, 3].reshape(nt, ns),
                      int(sites[0]), background or state_type.background, state_type)


def soliton_pq(spec: SolitonSpec, n, t: float = 0.0):
    """(q_n(t), p_n(t)) with the constant fixed by q -> 0 as n -> +inf."""
    from scipy.special import expit
    u = _phase(spec, n, t)
    u_prev = _phase(spec, np.asarray(n, dtype=float) - 1.0, t)
    lf = np.logaddexp(0.0, u)
    lf_prev = np.logaddexp(0.0, u_prev)
    q = -(lf - lf_prev)
    p = -spec.sign * 2.0 * math.sinh(spec.kappa) * (expit(u) - expit(u_prev))
    return q, p


# -- finite differences --------------------------------------------------------

def central_difference(field, s, d1, d2, h=1e-6):
    """(field(s + h d) - field(s - h d)) / 2h for each array field returns,
    along the tangent d = (d1, d2) of the window state s."""
    x1, x2 = s.arrays
    up = field(type(s)(x1 + h * d1, x2 + h * d2, s.offset, s.background))
    dn = field(type(s)(x1 - h * d1, x2 - h * d2, s.offset, s.background))
    return tuple((u - v) / (2.0 * h) for u, v in zip(up, dn))


def _signed_runs(x, rhs, steps, t_final, cfg, sample_dt):
    """Runs of rhs from x + s_1 d_1 + s_2 d_2 + ... for every choice of signs
    s_k = +-1, where steps lists the offsets d_k = (d_k1, d_k2).  Returns the
    sum of (s_1 s_2 ...) * run as a (2, T, N) array of both coordinates, and
    the mean run."""
    x1, x2 = x.arrays
    combos = list(itertools.product((1.0, -1.0), repeat=len(steps)))
    signed = mean = 0.0
    for signs in combos:
        start = type(x)(x1 + sum(s * d1 for s, (d1, _) in zip(signs, steps)),
                        x2 + sum(s * d2 for s, (_, d2) in zip(signs, steps)),
                        x.offset, x.background)
        tr = integrate(start, rhs, t_final, cfg, sample_dt=sample_dt)
        ys = np.stack((tr.x1, tr.x2))
        signed = signed + math.prod(signs) * ys
        mean = mean + ys / len(combos)
    return signed, replace(tr, x1=mean[0], x2=mean[1])


@dataclass
class FDGrid(SensitivityGrid):
    """A finite-difference grid, with its step and error scale in meta."""

    meta: dict = field(default_factory=dict)


def finite_difference_oracle(x, seed, t_final: float,
                             cfg: IntegratorConfig | None = None,
                             flow: str = "toda", spec=None, *,
                             sample_dt: float) -> FDGrid:
    """Central-difference estimate of evolve_tangent's grid:
    (flow(x + h e) - flow(x - h e)) / 2h, h = 1e-5 max(1, |z0|) with z0 the
    seeded coordinate's start value.

    Truncation error scales like h^2; meta records h and that scale.  The
    'btilde' seed differentiates along e_{b,k+1} - e_{b,k}.
    """
    cfg = cfg or IntegratorConfig()
    rhs = make_flow(flow, spec)
    da0, db0 = seed_vectors(x, seed)
    z0 = x.arrays[0 if seed[1] == x.coords[0] else 1]
    h = 1e-5 * max(1.0, abs(float(z0[seed[0] - x.offset])))
    diff, mid = _signed_runs(x, rhs, [(h * da0, h * db0)], t_final, cfg, sample_dt)
    return FDGrid(diff[0] / (2.0 * h), diff[1] / (2.0 * h), mid, int(seed[0]),
                  str(seed[1]), flow, {"fd_h": h, "fd_error_scale": h * h})


# -- second derivatives (Toda flow only) ---------------------------------------

@dataclass
class SecondTangentGrid:
    """w = d^2(state at t) / dz1 dz2 for the Toda flow, with both first
    tangents and the base run carried along."""

    w_a: np.ndarray
    w_b: np.ndarray
    u1_a: np.ndarray
    u1_b: np.ndarray
    u2_a: np.ndarray
    u2_b: np.ndarray
    base: Trajectory
    seed1: tuple
    seed2: tuple

    @property
    def times(self) -> np.ndarray:
        return self.base.times

    @property
    def offset(self) -> int:
        return self.base.offset


def _toda_second_fields(s: LatticeState, u1a, u1b, u2a, u2b, wa, wb):
    """The Toda field, its linearizations along u1 and u2, and d/dt of w,
    Df(x) w + D^2 f(x)[u1, u2]: eight arrays.  toda_rhs gives the field and
    each linearization; D^2 f[u1, u2] adds u1a (u2b_{n+1} - u2b_n) +
    u2a (u1b_{n+1} - u1b_n) to da and 4 ((u1a u2a)_n - (u1a u2a)_{n-1}) to db."""
    fa, fb, g1a, g1b = toda_rhs(s, u1a, u1b)
    g2a, g2b = toda_rhs(s, u2a, u2b)[2:]
    gwa, gwb = toda_rhs(s, wa, wb)[2:]
    return (fa, fb, g1a, g1b, g2a, g2b,
            gwa + u1a * _step_up(u2b, 0.0) + u2a * _step_up(u1b, 0.0),
            gwb + 4.0 * _step_dn(u1a * u2a, 0.0))


def evolve_second_tangent(x: LatticeState, z_seed, second, t_final: float,
                          cfg: IntegratorConfig | None = None, *,
                          sample_dt: float) -> SecondTangentGrid:
    """Second variational flow d^2/dz1 dz2 of the Toda evolution.

    z_seed and second are (site, coord) pairs; (k, "btilde") is the
    adjacent-difference direction e_{b,k+1} - e_{b,k}.
    """
    if not isinstance(x, LatticeState):
        raise TypeError("second tangent flow is implemented for the Toda flow only")
    zeros = np.zeros(x.n_sites)
    blocks = (*seed_vectors(x, z_seed), *seed_vectors(x, second), zeros, zeros)
    base, (u1a, u1b, u2a, u2b, wa, wb) = _solve_blocks(
        x, _toda_second_fields, blocks, sample_times(t_final, sample_dt),
        cfg or IntegratorConfig())
    return SecondTangentGrid(w_a=wa, w_b=wb, u1_a=u1a, u1_b=u1b, u2_a=u2a, u2_b=u2b,
                             base=base, seed1=tuple(z_seed), seed2=tuple(second))


def second_finite_difference(x: LatticeState, z_seed, second, t_final: float,
                             cfg: IntegratorConfig | None = None, *, sample_dt: float):
    """Nested central differences for d^2/dz1 dz2 of the Toda flow: four runs

        (F(+h,+h) - F(+h,-h) - F(-h,+h) + F(-h,-h)) / (4 h^2),  h = 1e-4.

    Returns (times, wa, wb).  Use a fixed-step config so the four runs share
    one discretization.
    """
    cfg = cfg or IntegratorConfig(method="rk4-fixed")
    h = 1e-4
    e1a, e1b = seed_vectors(x, z_seed)
    e2a, e2b = seed_vectors(x, second)
    acc, mid = _signed_runs(x, toda_rhs, [(h * e1a, h * e1b), (h * e2a, h * e2b)],
                            t_final, cfg, sample_dt)
    acc /= 4.0 * h * h
    return mid.times, acc[0], acc[1]


def _doubled_eigenvalues(mu: float) -> tuple[float, float]:
    """(lam_+, lam_-) = 1 +- sqrt(1 + 4 (e^{2 mu} + 1)^2), the eigenvalues of
    the doubled comparison matrix of the mixed second-derivative bound."""
    root = math.sqrt(1.0 + 4.0 * (math.exp(2.0 * mu) + 1.0) ** 2)
    return 1.0 + root, 1.0 - root


def h_growth(t, mu: float, v: float, Lnorm: float):
    """The time factor of the mixed second-derivative bound:

        h(t) = (e^{2 mu v beta |t|} - 1)/beta,  beta = ||L(0)|| lam_+ / (2 mu v) - 1

    (h(t) = 2 mu v |t| in the beta -> 0 limit), with lam_+ the top eigenvalue
    of the doubled comparison matrix.  h(0) = 0; for beta < 0, h <= 1/|beta|.
    """
    beta = Lnorm * _doubled_eigenvalues(mu)[0] / (2.0 * mu * v) - 1.0
    x = 2.0 * mu * v * np.abs(np.asarray(t, dtype=float))
    if abs(beta) < 1e-13:
        return x if x.ndim else float(x)
    out = np.expm1(beta * x) / beta
    return out if out.ndim else float(out)


def second_derivative_envelope(mu: float, Lnorm: float, v: float | None = None):
    """(C, envelope) of the bound on |d^2 F_n(t) / dz db̃_k| for seeds at
    sites l (z) and k:

        envelope(dl, dk, t) = C e^{-mu (|dl| + |dk| - 2 v |t|)} h(t):

    h(t) times the cone of speed 2v at distance |dl| + |dk|.  C collects the
    eigen-decomposition of the doubled comparison matrix.
    """
    if v is None:
        v = velocity_toda(mu, Lnorm)
    e2 = math.exp(2.0 * mu) + 1.0
    lam_p, lam_m = _doubled_eigenvalues(mu)
    y1 = (2.0 * (math.exp(mu) + 1.0) - lam_m) / (lam_p - lam_m)
    y2 = (lam_p - 2.0 * (math.exp(mu) + 1.0)) / (lam_p - lam_m)
    vp_inf = max(abs(lam_p), 4.0 * e2)
    vm_inf = max(abs(lam_m), 4.0 * e2)
    c_mu = (64.0 / 17.0) * math.exp(mu)
    c = c_mu / (2.0 * mu * v) * (abs(y1) * vp_inf + abs(y2) * vm_inf)
    cone = Envelope(family="second-derivative", mu=mu, prefactor=c, speed=2.0 * v)

    def envelope(dl, dk, t):
        return cone.value(np.abs(dl) + np.abs(dk), t) * h_growth(t, mu, v, Lnorm)

    return c, envelope


# -- the summable weight of the interpolated bounds ----------------------------
# The paper's interpolated bounds weigh distance by G_mu; no run gives a
# verdict on them, since a fitted D majorizes any finite grid.

def G_mu(mu: float, k):
    """G_mu(k) = e^{-mu |k|} / (1 + |k|)^2."""
    k = np.abs(np.asarray(k, dtype=float))
    return np.exp(-mu * k) / (1.0 + k) ** 2


def C_epsilon(eps: float) -> float:
    """sup_x (1 + |x|)^2 e^{-eps |x|}: (4/eps^2) e^{eps-2} for eps <= 2, else 1."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps >= 2.0:
        return 1.0
    return 4.0 / (eps * eps) * math.exp(eps - 2.0)


def gamma_const() -> float:
    """Convolution constant: 4 sum_k (1 + |k|)^{-2} = 4 (pi^2/3 - 1)."""
    return 4.0 * (math.pi ** 2 / 3.0 - 1.0)


def check_G_convolution(mu: float) -> dict:
    """Verify sum_l G(d - l) G(l) <= gamma G(d) for d = 0..50, truncating
    the sum at 500 sites beyond each end."""
    span = 50
    r = 10 * span
    l = np.arange(-r, span + r + 1)
    gl = G_mu(mu, l)
    worst = 0.0
    for d in range(span + 1):
        ratio = float(np.sum(G_mu(mu, d - l) * gl) / G_mu(mu, d))
        worst = max(worst, ratio)
    gamma = gamma_const()
    return {"mu": mu, "span": span, "truncation_range": r,
            "max_ratio": worst, "gamma": gamma, "ok": worst <= gamma}


# -- exact oracles of whole tangent grids --------------------------------------

def bessel_tangent(seed, sites, t):
    """(da, db) of the Toda tangent flow on the exact background (1/2, 0)
    from a unit seed at site m, the harmonic chain's solution, k = n - m:
    a b-seed gives db = J_{2|k|}(2t) and da = -J_{2k+1}(2t)/2 for k >= 0,
    J_{-2k-1}(2t)/2 for k < 0; an a-seed gives da = J_{2|k|}(2t) and
    db = -2 J_{2k-1}(2t) for k >= 1, 2 J_{1-2k}(2t) for k <= 0."""
    from scipy.special import jv
    m, coord = seed
    k = sites - m
    even = jv(2 * np.abs(k), 2.0 * t)
    if coord == "b":
        return np.where(k >= 0, -0.5 * jv(2 * k + 1, 2.0 * t), 0.5 * jv(-2 * k - 1, 2.0 * t)), even
    return even, np.where(k >= 1, -2.0 * jv(2 * k - 1, 2.0 * t), 2.0 * jv(1 - 2 * k, 2.0 * t))


def poisson_matrix(a):
    """The bracket {a_n, b_{n+1}} = a_n/4, {a_n, b_n} = -a_n/4 as a matrix
    over the window's coordinates (a_0 .. a_{N-1}, b_0 .. b_{N-1})."""
    n = a.size
    i = np.arange(n)
    P = np.zeros((2 * n, 2 * n))
    P[i, n + i] = -0.25 * a
    P[i[:-1], n + i[:-1] + 1] = 0.25 * a[:-1]
    return P - P.T


def poisson_error(x, cfg, flow="toda", spec=None, t=2.0):
    """|Phi(t) Pi(x(0)) Phi(t)^T - Pi(x(t))| entrywise, with the Jacobian
    Phi(t) = dx(t)/dx(0) built from one tangent grid per seed, and the same
    with Pi(x(0)) in place of Pi(x(t)): a flow that preserves the bracket
    makes the first vanish, and the second tells that it is not trivially
    small."""
    columns = []
    for coord in "ab":
        for m in range(x.offset, x.offset + x.n_sites):
            g = evolve_tangent(x, (m, coord), t, cfg, flow, spec, sample_dt=t)
            columns.append(np.concatenate((g.da[-1], g.db[-1])))
    phi = np.array(columns).T
    moved = phi @ poisson_matrix(x.a) @ phi.T
    return np.abs(moved - poisson_matrix(g.base.a[-1])), np.abs(moved - poisson_matrix(x.a))


# -- whole-grid passes ---------------------------------------------------------
# The package walks a grid in row blocks (integrators.row_blocks); these are
# the bodies that read every (T, N) array at once, which it must equal bit
# for bit.

def whole_boundary_margin(run) -> int:
    """EdgeMargin.boundary_margin over every sample at once."""
    dev = functools.reduce(np.maximum, map(np.abs, run._deviations(slice(None))))
    n = dev.shape[1]
    cols = np.flatnonzero(np.any(~(dev <= run.significance), axis=0))
    return min(int(cols[0]), int(n - 1 - cols[-1])) if cols.size else n


def _distance_peaks(dists: np.ndarray, obs: np.ndarray):
    """(ds, peaks): each distance d >= 1 of dists, ascending, and the maximum
    of obs over the sites at that distance along obs's last axis, so that
    peaks[..., k] is obs[..., dists == ds[k]].max(axis=-1), in one pass over
    the sites.  max is exact, and a NaN propagates as it does there."""
    ds, order, starts = _distance_groups(dists)
    return ds, np.maximum.reduceat(obs[..., order], starts, axis=-1)


def whole_fit_front_speed(times, dists, obs, threshold=1e-8):
    """bounds.fit_front_speed from the whole (T, D) table of peaks that
    _distance_peaks gives."""
    pts_t, pts_d = [], []
    ds, peaks = _distance_peaks(dists, obs)
    for d, series in zip(ds, peaks.T):
        idx = np.flatnonzero(series > threshold)
        if idx.size == 0 or idx[0] == 0:
            continue
        i = int(idx[0])
        y0, y1 = series[i - 1], series[i]
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


def whole_verify_light_cone(grid, envelope: Envelope, threshold: float = 1e-8,
                            guard: int = 10) -> LightConeReport:
    """bounds.verify_light_cone with the observations, the envelope and the
    comparison of every sample at once."""
    obs = grid.observed(envelope.observed_kind)
    dist = grid.distances
    times = grid.times
    env = envelope.value(dist[np.newaxis, :], times[:, np.newaxis])
    margin = whole_boundary_margin(grid)
    clean = bool(margin >= guard)

    bad, max_ratio = compare(obs, env)
    bad = np.argwhere(bad & clean)          # no verdict on a contaminated grid
    n_viol = int(bad.shape[0])
    violations = [{"n": int(grid.sites[isite]), "t": float(times[it]),
                   "observed": float(obs[it, isite]), "bound": float(env[it, isite])}
                  for it, isite in bad[:MAX_VIOLATIONS_STORED]]
    speed = whole_fit_front_speed(times, dist, obs, threshold)
    bound_speed = envelope.speed
    if bound_speed is None and times[-1] > 0:
        bound_speed = float(envelope.radius(times[-1]) / times[-1])
    return LightConeReport(
        family=envelope.family, mu=envelope.mu, prefactor=envelope.prefactor,
        bound_speed=bound_speed, clean=clean, boundary_margin=int(margin),
        guard=int(guard), n_violations=n_viol, violations=violations,
        violations_truncated=bool(n_viol > len(violations)),
        max_ratio=max_ratio,
        empirical_front_speed=speed, front_threshold=threshold,
        seed_site=int(grid.seed_site), seed_coord=str(grid.seed_coord),
        flow=str(grid.flow), n_sites=int(grid.da.shape[1]),
        n_samples=int(times.size), params=dict(envelope.params))


def whole_monitor_trajectory(traj) -> TrajectoryMonitors:
    """perturbed.monitor_trajectory over every sample at once."""
    a_bg, b_bg = traj.background
    abs_a = np.abs(traj.a)
    sup_field = np.maximum(abs_a.max(axis=1), np.abs(traj.b).max(axis=1))
    c1 = max(float(sup_field.max()), abs(a_bg), abs(b_bg))
    min_a = min(float(abs_a.min()), abs(a_bg))
    c2 = math.inf if min_a == 0.0 else 1.0 / min_a
    return TrajectoryMonitors(C1=c1, C2=c2, Lnorm0=jacobi_norm(traj.state(0)),
                              horizon=float(traj.times[-1]))


def sampled_quadratic_floor(pot, bound: float) -> float:
    """ghs.quadratic_floor as the least of V(x)/x^2 at 2001 equally spaced
    points of [-bound, bound] and its x -> 0 limit V''(0)/2."""
    if bound <= 0:
        return 0.5 * float(pot.d2V(0.0))
    x = np.linspace(-bound, bound, 2001)
    x = x[np.abs(x) > 1e-9 * bound]
    ratios = np.asarray(pot.V(x), dtype=float) / (x * x)
    return float(min(ratios.min(), 0.5 * float(pot.d2V(0.0))))


def whole_ghs_stability_diagnostics(traj, pot) -> StabilityReport:
    """ghs.ghs_stability_diagnostics over every sample at once."""
    e = ghs_energy(traj.state(0), pot)
    m_e = confinement_bound(pot, e)
    c = quadratic_floor(pot, m_e)
    p_l2 = np.sqrt(np.sum(traj.p ** 2, axis=1))
    r_inf = np.abs(traj.r).max(axis=1)
    r_l2 = np.sqrt(np.sum(traj.r ** 2, axis=1))
    p_bound = math.sqrt(2.0 * e)
    r2_bound = math.sqrt(e) / c if c > 0 else math.inf
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


def whole_ghs_cone_constant(traj, pot) -> float:
    """ghs.ghs_cone_constant over every sample at once."""
    sup_vp = float(np.abs(np.asarray(pot.dV(traj.r))).max())
    return max(math.sqrt(sup_vp), 1.0)

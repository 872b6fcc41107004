"""Command-line driver: configured experiments, parallel sweeps, reports.

    todalab run -c config.json [--out DIR]
    todalab sweep -c config.json --axis kappa --values 0.5,1,2 [--out DIR]
    todalab print-default-config

Exit codes: 0 all checks passed, 1 a verification failed (first violating
(n, t) is printed), 2 configuration error (message names the field; seed
sites, and for observables the bracket sites, must lie in the window; guard
is at least 1; t_final is a whole number of sample_dt; an order-r hierarchy
run needs a window of at least 2r + 5 sites).

Every run writes summary.json (schema 1) plus scenario artifacts: trajectory
and sensitivity CSVs and light-cone report JSONs.  Every JSON artifact goes
through integrators.write_json, strict JSON with a non-finite value as null.
With the fixed-step integrator the output is byte-identical across reruns of
the same config.

The light-cone scenarios (toda-lightcone, hierarchy, timedep, perturbed, ghs)
are specs for one body, _cone_scenario: a base state, a flow with its specs,
the drift of its conserved quantity and an envelope function.  Each flow is
one field function; given a tangent it also returns the linearization along
it, from the same pass.  sensitivity.make_flow binds the flow's specs to it,
and the body makes one solve per seed of the base state with that seed's
tangent.  The first seed's base rows are the base run: that run is
trajectory.csv, its drift is gated at 100 x tolerance, and the envelope
function builds the envelopes from it.  Each seed's tangent run is then
checked against every envelope.  interpolation takes its base run the same
way; it and soliton-validate gate their base run's drift like the cone body,
and every gated summary records its gate as drift_tolerance.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import (LightConeReport, hierarchy_envelope, optimal_mu,
                     perturbed_envelope, timedep_envelope, toda_envelope,
                     velocity_hierarchy, verify_light_cone)
from .ghs import (PotentialSpec, ghs_energy, ghs_envelope,
                  ghs_stability_diagnostics)
from .hierarchy import HierarchySpec, hierarchy_hamiltonian
from .integrators import IntegratorConfig, _drift, integrate, write_json
from .observables import (basic_observables, check_bracket_bound,
                          hamiltonian_window_observable, poisson_bracket,
                          required_bracket_seeds)
from .perturbed import (PerturbationSpec, interpolation_envelope,
                        monitor_trajectory, perturbed_energy)
from .sensitivity import evolve_tangent
from .solitons import (SolitonSpec, soliton_Lnorm, soliton_flaschka,
                       soliton_speed, soliton_state)
from .state import (GHSState, LatticeState, background_state, jacobi_norm,
                    jacobi_norm_within, random_localized_state, toda_rhs)

BASES = ("auto", "background", "soliton", "random")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def default_config() -> dict:
    return {
        "scenario": "toda-lightcone",
        "window": 201,
        "guard": 10,
        "t_final": 5.0,
        "sample_dt": 0.1,
        "seeds": [[0, "b"]],
        "mu": "optimal",
        "eps": 0.5,
        "base": "auto",
        "seed": 42,
        "envelope_scale": 1.0,
        "front_threshold": 1e-8,
        "obs_range": 40,
        "integrator": {"method": "rk-adaptive", "tolerance": 1e-10, "step": 0.01},
        "soliton": {"kappa": 1.0, "sign": 1, "delta": 0.0},
        "hierarchy": {"r": 1, "c": [1, 0]},
        "perturbation": {"family": "cosine", "w0": 0.1},
        "potential": {"family": "quartic", "beta": 0.1},
    }


@dataclass
class ExperimentConfig:
    scenario: str
    window: int = 201
    guard: int = 10
    t_final: float = 5.0
    sample_dt: float = 0.1
    seeds: tuple = ((0, "b"),)
    mu: object = "optimal"
    eps: float = 0.5
    base: str = "auto"
    seed: int = 42
    envelope_scale: float = 1.0
    front_threshold: float = 1e-8
    obs_range: int = 40
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    soliton: SolitonSpec | None = None
    hierarchy: HierarchySpec | None = None
    perturbation: PerturbationSpec | None = None
    potential: PotentialSpec | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: unknown value {self.scenario!r}; "
                              f"pick one of {tuple(SCENARIOS)}")
        if not self.guard >= 1:
            raise ConfigError(f"guard: must be >= 1, got {self.guard}")
        if self.window < 2 * self.guard + 10:
            raise ConfigError(f"window: must be >= 2*guard + 10 = {2 * self.guard + 10}, got {self.window}")
        spec = self.hierarchy
        if self.scenario == "hierarchy" and spec is not None and self.window < spec.min_window:
            raise ConfigError(f"hierarchy.r: order {spec.r} needs window >= 2r + 5 = "
                              f"{spec.min_window}, got {self.window}")
        if not self.t_final > 0:
            raise ConfigError("t_final: must be positive")
        if not 0 < self.sample_dt <= self.t_final:
            raise ConfigError("sample_dt: must lie in (0, t_final]")
        # the last sample is taken at t_final, where the verdicts read the run
        steps = round(self.t_final / self.sample_dt)
        if abs(steps * self.sample_dt - self.t_final) > 1e-9 * self.t_final:
            raise ConfigError(f"t_final: must be a whole number of sample_dt = {self.sample_dt:g}, "
                              f"got {self.t_final:g}")
        if self.base not in BASES:
            raise ConfigError(f"base: unknown value {self.base!r}; pick one of {BASES}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one (site, coord) pair")
        if not self.obs_range >= 0:
            raise ConfigError("obs_range: must be >= 0")
        coords = GHSState.coords if self.scenario == "ghs" else LatticeState.coords
        alias = dict(zip(LatticeState.coords, coords))    # ghs seeds may say a, b
        lo = -(self.window // 2)                          # the window's sites: lo..hi
        hi = lo + self.window - 1
        norm = []
        for i, pair in enumerate(self.seeds):
            try:
                site, coord = pair
                site = int(site)
            except (TypeError, ValueError):
                raise ConfigError(f"seeds[{i}]: expected [site, coord] pair") from None
            coord = alias.get(coord, coord)
            if coord not in coords:
                raise ConfigError(f"seeds[{i}]: coord must be one of {coords}, got {coord!r}")
            if not lo <= site <= hi:
                raise ConfigError(f"seeds[{i}]: site {site} outside the window [{lo}, {hi}]")
            # observables brackets b_m with a_n, |n - m| <= obs_range, from the
            # grids seeded at m - 1 and m
            first, last = site - max(self.obs_range, 1), site + self.obs_range
            if self.scenario == "observables" and (first < lo or last > hi):
                raise ConfigError(f"seeds[{i}], obs_range: the brackets of b_{site} read sites "
                                  f"{first}..{last}, outside the window [{lo}, {hi}]")
            norm.append((site, coord))
        self.seeds = tuple(norm)
        if self.mu != "optimal":
            try:
                self.mu = float(self.mu)
            except (TypeError, ValueError):
                raise ConfigError("mu: must be a positive number or \"optimal\"") from None
            if not self.mu > 0:
                raise ConfigError("mu: must be positive")
        if not self.eps > 0:
            raise ConfigError("eps: must be positive")
        if not self.envelope_scale > 0:
            raise ConfigError("envelope_scale: must be positive")

    def resolved_mu(self) -> float:
        return optimal_mu()[0] if self.mu == "optimal" else float(self.mu)

    def resolved_base(self) -> str:
        return SCENARIOS[self.scenario].auto_base if self.base == "auto" else self.base


def _build_block(cls, block: dict, path: str, required: tuple = ()):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in required:
        if key not in block:
            raise ConfigError(f"{path}.{key}: required")
    try:
        return cls(**block)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from None


# spec blocks: type and required keys
_BLOCKS = {"soliton": (SolitonSpec, ("kappa",)), "hierarchy": (HierarchySpec, ()),
           "perturbation": (PerturbationSpec, ()), "potential": (PotentialSpec, ())}


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    known = set(default_config()) | {"scenario"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    if "scenario" not in raw:
        raise ConfigError("scenario: required")
    kwargs = {key: value for key, value in raw.items()
              if key != "integrator" and key not in _BLOCKS}
    for keys, cast, kind in ((("window", "guard", "seed", "obs_range"), int, "an integer"),
                             (("t_final", "sample_dt", "eps", "envelope_scale",
                               "front_threshold"), float, "a number")):
        for key in keys:
            if key in kwargs:
                try:
                    kwargs[key] = cast(kwargs[key])
                except (TypeError, ValueError):
                    raise ConfigError(f"{key}: expected {kind}") from None
    if "integrator" in raw:
        kwargs["integrator"] = _build_block(IntegratorConfig, raw["integrator"], "integrator")
    for name, (cls, required) in _BLOCKS.items():
        if name in raw:
            block = dict(raw[name]) if isinstance(raw[name], dict) else raw[name]
            if name == "hierarchy" and isinstance(block, dict) and "c" in block:
                block["c"] = tuple(block["c"])
            kwargs[name] = _build_block(cls, block, name, required)
    cfg = ExperimentConfig(**kwargs)
    for name in SCENARIOS[cfg.scenario].blocks:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name}: required for scenario {cfg.scenario}")
    if cfg.resolved_base() == "soliton" and cfg.soliton is None:
        raise ConfigError("soliton: required when base is \"soliton\"")
    return cfg


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    return raw


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_config(path))


# -- scenario runners ---------------------------------------------------------

def _base_lattice(cfg: ExperimentConfig) -> LatticeState:
    base = cfg.resolved_base()
    if base == "soliton":
        return soliton_state(cfg.soliton, cfg.window)
    if base == "random":
        return random_localized_state(cfg.window, seed=cfg.seed)
    return background_state(cfg.window)


def _grid_csv_name(seed) -> str:
    site, coord = seed
    tag = f"m{site}" if site >= 0 else f"m_minus{-site}"
    return f"sensitivity_{tag}_{coord}.csv"


def _seed_runs(cfg, out, x, **flow):
    """One tangent run per seed, as the base run and then (seed, grid) per
    seed.  The base run is the first seed's grid.base, written as
    trajectory.csv, so the flow is integrated once per seed and not once
    more alone.  The caller drops each grid before asking for the next, and
    may stop after the base run."""
    for i, seed in enumerate(cfg.seeds):
        grid = evolve_tangent(x, seed, cfg.t_final, cfg.integrator,
                              sample_dt=cfg.sample_dt, guard=cfg.guard, **flow)
        if i == 0:
            grid.base.to_csv(out / "trajectory.csv")
            yield grid.base
        yield seed, grid
        del grid        # freed before the next tangent run, to keep peak RSS down


def _seed_loop(out, runs, checks):
    """Per (seed, grid) of runs: the grid's CSV, then each check of the grid;
    a light-cone report is also written as JSON.  Returns one tuple of check
    results per seed."""
    rows = []
    for seed, grid in runs:
        grid.to_csv(out / _grid_csv_name(seed))
        rows.append(tuple(check(grid) for check in checks))
        for rep in rows[-1]:
            if isinstance(rep, LightConeReport):
                rep.to_json(out / f"lightcone_{rep.family}_{seed[0]}_{seed[1]}.json")
        del grid
    return rows


def _drift_tolerance(cfg) -> float:
    """The gate on the conserved-quantity drift of a base run."""
    return 100.0 * cfg.integrator.tolerance


def _cone_check(cfg, envelope):
    return lambda grid: verify_light_cone(grid, envelope, threshold=cfg.front_threshold)


def _cone_scenario(cfg, out, x, drift_of, envelopes, flow, **specs):
    """Shared body of the light-cone scenarios.  The base run of the flow
    from x (the first seed's, see _seed_runs) is written as trajectory.csv,
    gates its conserved-quantity drift drift_of(run) at 100 x tolerance, and
    is handed to envelopes(run), which returns (envelopes, summary entries,
    the scenario's own gate); no envelopes means the run is excluded and the
    entries are the final summary.  Each seed's tangent grid is then checked
    against every envelope."""
    runs = _seed_runs(cfg, out, x, flow=flow, **specs)
    run = next(runs)
    drift, drift_tol = drift_of(run), _drift_tolerance(cfg)
    envs, summary, gate = envelopes(run)
    summary.update(conserved_drift=drift, drift_tolerance=drift_tol)
    base_clean = run.clean
    del run             # not held across the seed loop, to keep peak RSS down
    if not envs:
        return summary, False, None
    rows = _seed_loop(out, runs, [_cone_check(cfg, env) for env in envs])
    reports = [rep for row in rows for rep in row]
    first_violation = next((r.violations[0] for r in reports if r.violations), None)
    clean = base_clean and all(r.clean for r in reports)
    n_viol = sum(r.n_violations for r in reports)
    # the front speed and the bound speed are those of the first envelope
    summary.update({
        "clean": clean,
        "violations": n_viol,
        "empirical_front_speed": next((row[0].empirical_front_speed for row in rows
                                       if row[0].empirical_front_speed is not None), None),
        "bound_speed": reports[0].bound_speed,
        "boundary_margin": min(r.boundary_margin for r in reports),
    })
    return summary, clean and n_viol == 0 and gate and drift <= drift_tol, first_violation


def _run_toda_lightcone(cfg: ExperimentConfig, out: Path):
    mu, x = cfg.resolved_mu(), _base_lattice(cfg)
    norms = []          # the base run's norm series

    def drift_of(run):
        norms.append(run.norm_series())
        return _drift(norms[0])

    def envelopes(run):
        # sample 0 of the run is x, so this is jacobi_norm(x), bit for bit
        lnorm = float(norms[0][0])
        extra = {"mu": mu, "Lnorm": lnorm, "base": cfg.resolved_base()}
        return [toda_envelope(mu, lnorm, cfg.envelope_scale)], extra, True

    return _cone_scenario(cfg, out, x, drift_of, envelopes, "toda")


def _run_hierarchy(cfg: ExperimentConfig, out: Path):
    mu, x, hspec = cfg.resolved_mu(), _base_lattice(cfg), cfg.hierarchy
    lnorm = jacobi_norm(x)
    env = hierarchy_envelope(mu, lnorm, hspec, "matrix-norm", cfg.envelope_scale)
    extra = {"mu": mu, "Lnorm": lnorm, "r": hspec.r, "c": list(hspec.c),
             "bound_speed_lemma44": velocity_hierarchy(mu, lnorm, hspec, "lemma44"),
             "base": cfg.resolved_base()}
    return _cone_scenario(cfg, out, x,
                          lambda run: run.energy_drift(lambda s: hierarchy_hamiltonian(s, hspec)),
                          lambda run: ([env], extra, True), "hierarchy", hierarchy=hspec)


def _run_soliton_validate(cfg: ExperimentConfig, out: Path):
    spec = cfg.soliton
    traj = integrate(soliton_state(spec, cfg.window), toda_rhs, cfg.t_final, cfg.integrator,
                     sample_dt=cfg.sample_dt, guard=cfg.guard)
    traj.to_csv(out / "trajectory.csv")
    sites = np.arange(traj.offset, traj.offset + traj.n_sites)
    err_a = err_b = 0.0
    for i, t in enumerate(traj.times):
        a_ref, b_ref = soliton_flaschka(spec, sites, t)
        err_a = max(err_a, float(np.max(np.abs(traj.a[i] - a_ref))))
        err_b = max(err_b, float(np.max(np.abs(traj.b[i] - b_ref))))
    norms = traj.norm_series()
    norm_drift = _drift(norms)
    trace_drift = traj.trace_drift(4)
    norm_err = abs(float(norms[0]) - soliton_Lnorm(spec))
    # trace of L^4 amplifies state error by roughly (1 + ||L||)^4
    drift_tol = _drift_tolerance(cfg)
    trace_tol = drift_tol * (1.0 + soliton_Lnorm(spec)) ** 4
    ok = (err_a <= 1e-6 and err_b <= 1e-6 and norm_drift <= drift_tol
          and trace_drift <= trace_tol and traj.clean)
    summary = {
        "clean": traj.clean,
        "violations": 0 if ok else 1,
        "empirical_front_speed": None,
        "bound_speed": None,
        "conserved_drift": max(norm_drift, trace_drift),
        "drift_tolerance": drift_tol,
        "trace_tolerance": trace_tol,
        "kappa": spec.kappa,
        "max_error_a": err_a,
        "max_error_b": err_b,
        "norm_drift": norm_drift,
        "trace_drift": trace_drift,
        "Lnorm_vs_analytic": norm_err,
        "soliton_speed": soliton_speed(spec),
    }
    return summary, ok, None


def _a_star(x) -> float:
    """inf_n |a_n(0)| over the window and the background."""
    return min(float(np.min(np.abs(x.a))), abs(x.background[0]))


def _perturbed_monitors(cfg: ExperimentConfig, run, skipped: str):
    """Monitors of the perturbed base run (C1, C2, ||L(0)||) and the
    summary entries that perturbed and interpolation share; these are the
    final summary when the run looks unbounded."""
    pspec = cfg.perturbation
    mon = monitor_trajectory(run)
    summary = {"mu": cfg.resolved_mu(), "base": cfg.resolved_base(),
               "family": pspec.family, "w0": pspec.w0,
               "C1": mon.C1, "C2": mon.C2, "unbounded": mon.unbounded}
    if mon.unbounded:
        summary.update({"clean": run.clean, "violations": 0,
                        "empirical_front_speed": None, "bound_speed": None,
                        "excluded": f"unbounded-looking run; {skipped} skipped"})
    return mon, summary


def _run_perturbed(cfg: ExperimentConfig, out: Path):
    pspec, x = cfg.perturbation, _base_lattice(cfg)

    def envelopes(run):
        mon, summary = _perturbed_monitors(cfg, run, "bound checks")
        if mon.unbounded:
            return [], summary, False
        # a-priori operator norm growth along the run, checked by counting
        # the eigenvalues beyond the line rather than solving for the norm
        line = mon.Lnorm0 + pspec.dw_sup * run.times
        norm_ok = bool(np.all(jacobi_norm_within(run.a, run.b, line + 1e-9)))
        mu, a_star = summary["mu"], _a_star(x)
        env_w = perturbed_envelope(mu, mon.C1, mon.C2, pspec.d2w_sup, cfg.envelope_scale)
        env_t = timedep_envelope(mu, mon.Lnorm0, pspec.dw_sup, pspec.d2w_sup,
                                 a_star, cfg.envelope_scale)
        summary.update({"norm_growth_ok": norm_ok, "a_star": a_star,
                        "timedep_radius_final": float(env_t.radius(cfg.t_final))})
        return [env_w, env_t], summary, norm_ok

    return _cone_scenario(cfg, out, x,
                          lambda run: run.energy_drift(lambda s: perturbed_energy(s, pspec)),
                          envelopes, "perturbed", perturbation=pspec)


def _run_interpolation(cfg: ExperimentConfig, out: Path):
    runs = _seed_runs(cfg, out, _base_lattice(cfg), flow="perturbed",
                      perturbation=cfg.perturbation)
    run = next(runs)
    mon, summary = _perturbed_monitors(cfg, run, "fit")
    drift = run.energy_drift(lambda s: perturbed_energy(s, cfg.perturbation))
    drift_tol = _drift_tolerance(cfg)
    summary.update(eps=cfg.eps, conserved_drift=drift, drift_tolerance=drift_tol)
    del run
    if mon.unbounded:
        return summary, False, None

    def fit(grid):
        return interpolation_envelope(grid, mon, summary["mu"], cfg.eps)

    rows = _seed_loop(out, runs, (fit, lambda grid: grid.clean))
    fits, cleans = zip(*rows)
    clean = all(cleans)
    worst_r2 = float(np.min([f.r2_spatial for f in fits]))  # a NaN fit gives NaN
    valid = all(f.envelope_valid for f in fits)
    ok = clean and valid and worst_r2 >= 0.99 and drift <= drift_tol
    f0 = fits[0]
    summary.update({
        "clean": clean, "violations": 0 if valid else 1,
        "empirical_front_speed": None, "bound_speed": f0.v,
        "C": f0.C, "v": f0.v, "vstar": f0.vstar, "D": f0.D, "delta": f0.delta,
        "r2_spatial": worst_r2, "envelope_valid": valid,
    })
    write_json(out / "interpolation_fit.json",
               [{k: getattr(f, k) for k in ("mu", "eps", "C", "v", "vstar", "D", "delta",
                                           "r2_spatial", "envelope_valid")} for f in fits])
    return summary, ok, None


def _run_timedep(cfg: ExperimentConfig, out: Path):
    mu, x, pspec = cfg.resolved_mu(), _base_lattice(cfg), cfg.perturbation
    lnorm0, a_star = jacobi_norm(x), _a_star(x)
    env = timedep_envelope(mu, lnorm0, pspec.dw_sup, pspec.d2w_sup, a_star,
                           cfg.envelope_scale)
    extra = {"mu": mu, "base": cfg.resolved_base(), "family": pspec.family, "w0": pspec.w0,
             "a_star": a_star, "Lnorm0": lnorm0,
             "radius_final": float(env.radius(cfg.t_final))}
    return _cone_scenario(cfg, out, x,
                          lambda run: run.energy_drift(lambda s: perturbed_energy(s, pspec)),
                          lambda run: ([env], extra, True), "perturbed", perturbation=pspec)


def _run_observables(cfg: ExperimentConfig, out: Path):
    mu = cfg.resolved_mu()
    x = _base_lattice(cfg)
    m_list = sorted({site for site, _ in cfg.seeds})
    times = np.round(np.arange(0.0, cfg.t_final + 0.5 * cfg.sample_dt, cfg.sample_dt), 12)
    reach = cfg.obs_range
    n_viol = 0
    worst_ratio = 0.0
    first_violation = None
    clean = True
    for m in m_list:
        _, b_m = basic_observables(m)
        grids = {seed: evolve_tangent(x, seed, cfg.t_final, cfg.integrator, "toda",
                                      sample_dt=cfg.sample_dt, guard=cfg.guard)
                 for seed in sorted(required_bracket_seeds(b_m, x))}
        clean = clean and all(grid.clean for grid in grids.values())
        sites = range(m - reach, m + reach + 1)
        reports = check_bracket_bound([basic_observables(n)[0] for n in sites],
                                      b_m, x, times, mu, grids)
        for n, rep in zip(sites, reports):
            n_viol += rep.n_violations
            worst_ratio = max(worst_ratio, rep.max_ratio)
            if rep.violations and first_violation is None:
                first_violation = {"n": n, **rep.violations[0]}
    # generator identity at the base point
    h_obs = hamiltonian_window_observable(range(-3, 4))
    a_0, b_0 = basic_observables(0)
    gen_err = 0.0
    dt = 1e-6
    # the Toda flow a step dt forward and backward, for a two-sided difference
    fixed = IntegratorConfig(method="rk4-fixed", step=dt / 4.0)
    plus = integrate(x, toda_rhs, dt, fixed, n_samples=2).state(1)
    minus = integrate(x, lambda s: tuple(-f for f in toda_rhs(s)), dt, fixed,
                      n_samples=2).state(1)
    for obs in (a_0, b_0):
        bracket = poisson_bracket(obs, h_obs, x)
        fd = (obs.eval(plus) - obs.eval(minus)) / (2.0 * dt)
        # bracket convention: d/dt (obs o flow_t) = {obs, H}
        scale = max(1.0, abs(bracket))
        gen_err = max(gen_err, abs(fd - bracket) / scale)
    ok = clean and n_viol == 0 and gen_err <= 1e-5
    summary = {
        "mu": mu, "clean": clean, "violations": n_viol,
        "empirical_front_speed": None,
        "bound_speed": reports[0].velocity,
        "conserved_drift": None,
        "pairs_checked": len(m_list) * (2 * reach + 1),
        "max_ratio": worst_ratio,
        "generator_rel_error": gen_err,
    }
    return summary, ok, first_violation


def _run_ghs(cfg: ExperimentConfig, out: Path):
    mu, pot, n = cfg.resolved_mu(), cfg.potential, cfg.window
    offset = -(n // 2)
    sites = np.arange(offset, offset + n)
    x = GHSState(np.zeros(n), np.exp(-((sites / 3.0) ** 2)), offset)

    def envelopes(run):
        stab = ghs_stability_diagnostics(run, pot)
        return ([ghs_envelope(mu, run, pot, cfg.envelope_scale)],
                {"mu": mu, "family": pot.family, "beta": pot.beta,
                 "energy": stab.energy, "M_E": stab.M_E, "stability_ok": stab.ok},
                stab.ok)

    return _cone_scenario(cfg, out, x,
                          lambda run: run.energy_drift(lambda s: ghs_energy(s, pot)),
                          envelopes, "ghs", potential=pot)


@dataclass(frozen=True)
class Scenario:
    """A scenario's runner, what base "auto" resolves to, and the config
    blocks it requires."""

    run: object
    auto_base: str
    blocks: tuple = ()


# "auto" bases: cone checks on the exact background are the cleanest,
# perturbed flows need spatially localized data, bracket checks need a state
# with structure
SCENARIOS = {
    "toda-lightcone": Scenario(_run_toda_lightcone, "background"),
    "soliton-validate": Scenario(_run_soliton_validate, "soliton", ("soliton",)),
    "hierarchy": Scenario(_run_hierarchy, "background", ("hierarchy",)),
    "perturbed": Scenario(_run_perturbed, "random", ("perturbation",)),
    "interpolation": Scenario(_run_interpolation, "random", ("perturbation",)),
    "timedep": Scenario(_run_timedep, "random", ("perturbation",)),
    "observables": Scenario(_run_observables, "soliton"),
    "ghs": Scenario(_run_ghs, "background", ("potential",)),
}


def run_config(cfg: ExperimentConfig, outdir) -> int:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary, ok, first_violation = SCENARIOS[cfg.scenario].run(cfg, outdir)
    summary = {"schema": 1, "scenario": cfg.scenario, "seed": cfg.seed,
               "exit": 0 if ok else 1, **summary}
    write_json(outdir / "summary.json", summary)
    if ok:
        print(f"{cfg.scenario}: ok (artifacts in {outdir})")
        return 0
    if first_violation is not None:
        print(f"{cfg.scenario}: FAILED; first violation at "
              f"(n={first_violation.get('n')}, t={first_violation.get('t')}): "
              f"observed {first_violation.get('observed'):.6g} > "
              f"bound {first_violation.get('bound'):.6g}", file=sys.stderr)
    else:
        print(f"{cfg.scenario}: FAILED (see {outdir}/summary.json)", file=sys.stderr)
    return 1


# -- sweeps --------------------------------------------------------------------

_AXIS_ALIASES = {
    "kappa": "soliton.kappa",
    "w0": "perturbation.w0",
    "beta": "potential.beta",
    "r": "hierarchy.r",
}


def _apply_axis(raw: dict, axis: str, value):
    path = _AXIS_ALIASES.get(axis, axis).split(".")
    node = raw
    for part in path[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"--axis {axis}: config has no block {part!r}")
        node = node[part]
    leaf = path[-1]
    if leaf == "r":
        r = int(value)
        node["r"] = r
        node["c"] = [1.0] + [0.0] * r
    else:
        node[leaf] = value
    return raw


def _parse_values(text: str):
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vals.append(float(part))
        except ValueError:
            raise ConfigError(f"--values: {part!r} is not a number") from None
    return vals


def _sweep_job(raw_cfg: dict, outdir: str):
    cfg = config_from_dict(raw_cfg)
    code = run_config(cfg, outdir)
    with open(Path(outdir) / "summary.json") as fh:
        return code, json.load(fh)


def run_sweep(config_path, axis: str, values_text: str, outdir, workers: int | None = None) -> int:
    if workers is not None and workers < 1:
        raise ConfigError(f"--workers: must be a positive integer, got {workers}")
    base_raw = _read_config(config_path)
    values = _parse_values(values_text)
    if not values:
        raise ConfigError("--values: need at least one value")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for v in values:
        raw = _apply_axis(copy.deepcopy(base_raw), axis, v)
        config_from_dict(raw)          # validate up front: config errors exit 2
        jobs.append((raw, str(outdir / f"{axis.replace('.', '_')}={v:g}")))
    if workers is None:
        workers = min(len(jobs), os.cpu_count() or 1, 4)
    results = []
    worst = 0
    with ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(_sweep_job, raw, sub) for raw, sub in jobs]
        for v, fut in zip(values, futures):
            try:
                code, summary = fut.result()
                results.append({"value": v, "exit": code, "summary": summary})
                worst = max(worst, code)
            except Exception as err:  # job crash: preserve partials, fail overall
                results.append({"value": v, "exit": 1, "error": str(err)})
                worst = max(worst, 1)
    aggregate = {"schema": 1, "axis": axis, "values": values, "results": results}
    write_json(outdir / "sweep.json", aggregate)
    print(f"sweep over {axis}: {len(values)} jobs, worst exit {worst} "
          f"(aggregate in {outdir / 'sweep.json'})")
    return worst


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="todalab",
        description="Sensitivity light cones for the Toda lattice, its "
                    "hierarchy, and bounded perturbations.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("--out", default="out")
    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value, in parallel")
    p_sweep.add_argument("-c", "--config", required=True)
    p_sweep.add_argument("--axis", required=True,
                         help="config field to vary (kappa, w0, beta, r, mu, "
                              "window, t_final, or a dotted path)")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--out", default="sweep-out")
    p_sweep.add_argument("--workers", type=int, default=None)
    sub.add_parser("print-default-config", help="write the default config JSON to stdout")
    args = parser.parse_args(argv)

    if args.command == "print-default-config":
        json.dump(default_config(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            return run_config(cfg, args.out)
        return run_sweep(args.config, args.axis, args.values, args.out, args.workers)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

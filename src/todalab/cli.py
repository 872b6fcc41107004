"""Command-line driver: configured experiments, parallel sweeps, reports.

    todalab run -c config.json [--out DIR]
    todalab sweep -c config.json --axis kappa --values 0.5,1,2 [--out DIR]
    todalab print-default-config

Exit codes: 0 all checks passed, 1 a verification failed (first violating
(n, t) is printed), 2 configuration error (message names the field; every
key, at the top level and in a block, is a known field, and a toda potential
takes no beta; seed sites, and for observables the bracket sites, must lie
in the window; guard is at least 1; t_final is a whole number of sample_dt
and t_final / sample_dt is finite; an order-r hierarchy run needs a window
of at least 2r + 5 sites; a number field, at the top level or in a block,
takes its declared type, and a JSON true or false is no number; integer
fields, hierarchy.r and the values of sweep --axis r among them, take no
fractional part, every number is finite, and so is f(mu), hierarchy.c is a
list, front_threshold is positive, the config file is UTF-8 JSON that json
can read, seed is at least 0, seeds are distinct, sweep values name distinct
output directories, and --out, and each sweep job's directory below it, is
or can be made a directory, before any job runs).  Each
top-level key's type and default are its ExperimentConfig field's, each
block's type and printed example its _BLOCKS row's.

Every run writes summary.json (schema 1) plus scenario artifacts: trajectory
and sensitivity CSVs and light-cone report JSONs.  Every JSON artifact goes
through integrators.write_json, strict JSON with a non-finite value as null.
With the fixed-step integrator the output is byte-identical across reruns of
the same config.

Each scenario is one row of SCENARIOS: its "auto" base and required config
blocks, then either its own runner (observables) or the parts of a tangent
scenario (toda-lightcone, hierarchy, perturbed, ghs): a base-state builder,
a flow name and its verdicts.  One body, _run_tangent, runs them all: one
solve per seed; the first seed's base rows are the base run, written as
trajectory.csv, off which verdicts reads each grid's checks, the summary
entries and the gates: the conserved-quantity drift, at most 100 x
tolerance (drift_tolerance), and for the ||L||-based velocities (toda,
hierarchy, perturbed) ||L(t)|| <= ||L(0)|| + slope t + drift_tolerance at
every sample, slope ||W'|| for perturbed and 0 otherwise.  _cone_tally sums
up every grid's reports.  toda-lightcone on a soliton base also gates its
base run on the closed form: the largest error in a and b.

guard is a setting of the verdicts, not of the solves: every light-cone
check and every clean(guard) of a run or grid reads cfg.guard.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bounds import (bracket_envelope, hierarchy_envelope, mu_profile, optimal_mu,
                     perturbed_envelope, timedep_envelope, toda_envelope, velocity_hierarchy,
                     verify_light_cone)
from .ghs import (PotentialSpec, ghs_energy, ghs_envelope,
                  ghs_stability_diagnostics)
from .hierarchy import HierarchySpec, hierarchy_hamiltonian
from .integrators import IntegratorConfig, drift, row_blocks, sample_times, write_json
from .observables import (basic_observables, check_bracket_bound,
                          hamiltonian_window_observable, poisson_bracket,
                          required_bracket_seeds)
from .perturbed import PerturbationSpec, monitor_trajectory, perturbed_energy
from .sensitivity import evolve_tangent
from .solitons import (SolitonSpec, soliton_Lnorm, soliton_flaschka,
                       soliton_speed, soliton_state)
from .state import (GHSState, LatticeState, background_state, bump_chain, centered_offset,
                    jacobi_norm, jacobi_norm_within, random_localized_state, toda_rhs,
                    trace_invariants)

BASES = ("auto", "background", "soliton", "random")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class ExperimentConfig:
    """One field per top-level config key, whose default an omitted key takes."""
    scenario: str = "toda-lightcone"
    window: int = 201
    guard: int = 10
    t_final: float = 5.0
    sample_dt: float = 0.1
    seeds: tuple = ((0, "b"),)
    mu: object = "optimal"
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
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIOS:
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
        # t_final finite and a whole number of sample_dt, so that the last
        # sample is taken at t_final, where the verdicts read the run
        try:
            sample_times(self.t_final, self.sample_dt)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if not self.seed >= 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.base not in BASES:
            raise ConfigError(f"base: unknown value {self.base!r}; pick one of {BASES}")
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ConfigError("seeds: need a list of at least one (site, coord) pair")
        if not self.obs_range >= 0:
            raise ConfigError("obs_range: must be >= 0")
        coords = GHSState.coords if self.scenario == "ghs" else LatticeState.coords
        alias = dict(zip(LatticeState.coords, coords))    # ghs seeds may say a, b
        lo = centered_offset(self.window)                 # the window's sites: lo..hi
        hi = lo + self.window - 1
        norm = []
        for i, pair in enumerate(self.seeds):
            try:
                site, coord = pair
                site = _integer(site)
            except (TypeError, ValueError):
                raise ConfigError(f"seeds[{i}]: expected [site, coord] pair") from None
            if coord not in coords + tuple(alias):
                raise ConfigError(f"seeds[{i}]: coord must be one of {coords}, got {coord!r}")
            coord = alias.get(coord, coord)
            if not lo <= site <= hi:
                raise ConfigError(f"seeds[{i}]: site {site} outside the window [{lo}, {hi}]")
            # observables brackets b_m with a_n, |n - m| <= obs_range, from the
            # grids seeded at m - 1 and m
            first, last = site - max(self.obs_range, 1), site + self.obs_range
            if self.scenario == "observables" and (first < lo or last > hi):
                raise ConfigError(f"seeds[{i}], obs_range: the brackets of b_{site} read sites "
                                  f"{first}..{last}, outside the window [{lo}, {hi}]")
            if (site, coord) in norm:
                raise ConfigError(f"seeds[{i}]: ({site}, {coord!r}) repeats "
                                  f"seeds[{norm.index((site, coord))}]")
            norm.append((site, coord))
        self.seeds = tuple(norm)
        if self.mu != "optimal":
            try:
                self.mu = _float(self.mu)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError("mu: must be a positive number or \"optimal\"") from None
            if not 0 < self.mu < math.inf:
                raise ConfigError("mu: must be positive and finite")
        # every velocity carries f(mu) = e^{mu+1} + 1/mu
        mu = self.resolved_mu()
        try:
            mu_profile(mu)
        except OverflowError:
            raise ConfigError(f"mu: f(mu) overflows at mu = {mu:g}") from None
        if not 0 < self.envelope_scale < math.inf:
            raise ConfigError("envelope_scale: must be positive and finite")
        if not self.front_threshold > 0:
            raise ConfigError(f"front_threshold: must be positive, got {self.front_threshold:g}")

    def resolved_mu(self) -> float:
        return optimal_mu()[0] if self.mu == "optimal" else float(self.mu)

    def resolved_base(self) -> str:
        return SCENARIOS[self.scenario].auto_base if self.base == "auto" else self.base


def _float(value) -> float:
    """float(value), refusing a bool: a JSON true or false is no number."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _integer(value) -> int:
    """int(value), refusing a bool and, rather than truncating it, a fraction."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _cast(value, cast, kind: str, path: str):
    """cast(value), or a ConfigError naming path and the kind expected."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: expected {kind}, got {value!r}") from None


# a number type's cast and the kind its error names
_NUMBERS = {"int": (_integer, "an integer"), "float": (_float, "a number")}


def _number(value, declared: str, path: str):
    """value cast to the number type declared, "int" or "float", and
    finite: a string such as "inf" passes the check of the raw config."""
    cast, kind = _NUMBERS[declared]
    value = _cast(value, cast, kind, path)
    _refuse_non_finite(value, path)
    return value


def _refuse_non_finite(value, path: str):
    """Raise a ConfigError naming, by its path, the first number in value,
    a config entry with its nested objects and lists, that is not a finite
    float: NaN, an infinity, or an integer beyond the float range."""
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _refuse_non_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _refuse_non_finite(item, f"{path}[{i}]")


def _build_block(cls, block: dict, path: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    # each field's declared type, a string, as annotations are postponed
    declared = {f.name: f.type for f in fields(cls)}
    for key, value in block.items():
        if key not in declared:
            raise ConfigError(f"{path}.{key}: unknown field")
        # a string or an object is iterable too, and gives a weight per character or key
        if declared[key] == "tuple" and not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}.{key}: expected a list, got {value!r}")
    for f in fields(cls):          # a field with no default is a required key
        if f.default is MISSING and f.default_factory is MISSING and f.name not in block:
            raise ConfigError(f"{path}.{f.name}: required")
    block = {key: _number(value, declared[key], f"{path}.{key}") if declared[key] in _NUMBERS
             else value for key, value in block.items()}
    try:
        return cls(**block)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from None


# config blocks: type, and for a spec block the example print-default-config
# prints (the integrator prints its default)
_BLOCKS = {"integrator": (IntegratorConfig, None),
           "soliton": (SolitonSpec, {"kappa": 1.0, "sign": 1, "delta": 0.0}),
           "hierarchy": (HierarchySpec, {"r": 1, "c": [1, 0]}),
           "perturbation": (PerturbationSpec, {"family": "cosine", "w0": 0.1}),
           "potential": (PotentialSpec, {"family": "quartic", "beta": 0.1})}


def default_config() -> dict:
    """What print-default-config prints: each ExperimentConfig field's
    default, the seeds as lists, and each spec block's example."""
    raw = asdict(ExperimentConfig())
    raw["seeds"] = [list(seed) for seed in raw["seeds"]]
    raw.update(copy.deepcopy({name: ex for name, (_, ex) in _BLOCKS.items() if ex}))
    return raw


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    declared = {f.name: f.type for f in fields(ExperimentConfig)}
    for key in raw:
        if key not in declared:
            raise ConfigError(f"{key}: unknown field")
    if "scenario" not in raw:
        raise ConfigError("scenario: required")
    for key, value in raw.items():
        if key not in ("t_final", "mu"):    # ExperimentConfig names these itself
            _refuse_non_finite(value, key)
    # an omitted key takes its default; a number, as in a block, its declared type
    kwargs = {key: raw[key] for key in declared if key in raw}     # in field order
    for key, value in kwargs.items():
        if key == "t_final":        # ExperimentConfig names a non-finite one itself
            kwargs[key] = _cast(value, _float, "a number", key)
        elif declared[key] in _NUMBERS:
            kwargs[key] = _number(value, declared[key], key)
        elif key in _BLOCKS:
            kwargs[key] = _build_block(_BLOCKS[key][0], value, key)
    cfg = ExperimentConfig(**kwargs)
    for name in SCENARIOS[cfg.scenario].blocks:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name}: required for scenario {cfg.scenario}")
    if cfg.resolved_base() == "soliton" and cfg.soliton is None:
        raise ConfigError("soliton: required when base is \"soliton\"")
    return cfg


def _read_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from None
    except ValueError as err:      # not UTF-8, or an integer past the int-string limit
        raise ConfigError(f"cannot parse config: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    return raw


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_config(path))


# -- scenarios -----------------------------------------------------------------

def _base_lattice(cfg: ExperimentConfig) -> LatticeState:
    base = cfg.resolved_base()
    if base == "soliton":
        return soliton_state(cfg.soliton, cfg.window)
    if base == "random":
        return random_localized_state(cfg.window, seed=cfg.seed)
    return background_state(cfg.window)


def _drift_tolerance(cfg) -> float:
    """The gate on the conserved-quantity drift of a base run."""
    return 100.0 * cfg.integrator.tolerance


def _conserved(cfg, series):
    """(summary entries, gate) of the drift of a base run's conserved
    quantity, sampled as series: at most _drift_tolerance."""
    conserved, drift_tol = drift(series), _drift_tolerance(cfg)
    return {"conserved_drift": conserved, "drift_tolerance": drift_tol}, conserved <= drift_tol


def _norm_line(cfg, run, lnorm, slope=0.0):
    """(summary entries, gate) of the premise of every ||L||-based velocity,
    ||L(t)|| <= lnorm + slope t + drift_tolerance at every sample, lnorm
    being ||L(0)||; norm_line_failed_at is the first time outside, or None."""
    line = lnorm + slope * run.times + _drift_tolerance(cfg)
    outside = np.flatnonzero(~_within_line(run, line))
    failed_at = float(run.times[outside[0]]) if outside.size else None
    return {"norm_growth_ok": not outside.size, "norm_line_failed_at": failed_at}, not outside.size


def _within_line(run, line):
    """Per sample i, whether ||L|| <= line[i], a line that never falls: one
    count at the first of each run of equal samples, where the line is
    lowest, repeated over the run; a background run makes one count."""
    starts = run.distinct_samples
    within = np.concatenate([jacobi_norm_within(run.a[i], run.b[i], line[i])
                             for i in (starts[rows] for rows in row_blocks(starts.size))])
    return np.repeat(within, np.diff(starts, append=run.n_samples))


def _run_tangent(cfg: ExperimentConfig, out: Path):
    """The body of every tangent scenario (see the module docstring).  Each
    grid is freed before the next solve, to keep peak RSS down."""
    row = SCENARIOS[cfg.scenario]
    x = row.state(cfg)
    spec = getattr(cfg, row.blocks[0]) if row.blocks else None

    def solve(seed):
        return evolve_tangent(x, seed, cfg.t_final, cfg.integrator, flow=row.flow, spec=spec,
                              sample_dt=cfg.sample_dt)

    grid = solve(cfg.seeds[0])
    grid.base.to_csv(out / "trajectory.csv")
    checks, parts = row.verdicts(cfg, x, grid.base)
    summary = {key: value for entries, _ in parts for key, value in entries.items()}
    rows = []
    for i, seed in enumerate(cfg.seeds):
        grid = solve(seed) if i else grid
        grid.to_csv(out / f"sensitivity_m{seed[0]}_{seed[1]}.csv".replace("-", "_minus"))
        rows.append(tuple(check(grid) for check in checks))
        for rep in rows[-1]:
            rep.to_json(out / f"lightcone_{rep.family}_{seed[0]}_{seed[1]}.json")
        del grid
    entries, ok, first_violation = _cone_tally(rows)
    summary.update(entries)
    return summary, ok and all(gate for _, gate in parts), first_violation


def _scaled(cfg: ExperimentConfig, env):
    """env, its prefactor times envelope_scale and the scale in its params: every cone."""
    scale = cfg.envelope_scale
    return replace(env, prefactor=scale * env.prefactor, params={**env.params, "scale": scale})


def _cones(cfg: ExperimentConfig, *envelopes) -> list:
    """One light-cone check per envelope, _scaled."""
    return [lambda grid, env=env: verify_light_cone(grid, env, threshold=cfg.front_threshold,
                                                    guard=cfg.guard)
            for env in (_scaled(cfg, e) for e in envelopes)]


def _cone_tally(rows):
    """(summary entries, ok, first violation) of the light-cone reports,
    rows holding one tuple of them per seed: every grid clean and no
    violation; the front speed and the bound speed are those of the first
    envelope."""
    reports = [rep for row in rows for rep in row]
    clean = all(r.clean for r in reports)
    n_viol = sum(r.n_violations for r in reports)
    # the front speed is the first one measured, if any was
    fronts = [r[0].empirical_front_speed for r in rows if r[0].empirical_front_speed is not None]
    return ({"clean": clean, "violations": n_viol, "bound_speed": reports[0].bound_speed,
             "boundary_margin": min(r.boundary_margin for r in reports),
             **{"empirical_front_speed": front for front in fronts[:1]}},
            clean and n_viol == 0, next((r.violations[0] for r in reports if r.violations), None))


def _toda_verdicts(cfg, x, run):
    """The Toda cone, gated on the norm line and on the drift of the trace
    invariants over (1 + ||L(0)||)^4, about the factor by which tr L^4
    amplifies state error; on a soliton base, on its closed form too."""
    mu, lnorm, base = cfg.resolved_mu(), jacobi_norm(x), cfg.resolved_base()
    parts = [({"mu": mu, "Lnorm": lnorm, "base": base}, True), _norm_line(cfg, run, lnorm),
             _conserved(cfg, run.energy_series(trace_invariants) / (1.0 + lnorm) ** 4)]
    if base == "soliton":     # the largest errors in a and b, at most 1e-6
        spec = cfg.soliton
        a_ref, b_ref = soliton_flaschka(spec, run.sites, run.times[:, np.newaxis])
        err_a = float(np.max(np.abs(run.a - a_ref)))
        err_b = float(np.max(np.abs(run.b - b_ref)))
        parts.append(({"kappa": spec.kappa, "max_error_a": err_a, "max_error_b": err_b,
                       "Lnorm_vs_analytic": abs(lnorm - soliton_Lnorm(spec)),
                       "soliton_speed": soliton_speed(spec)}, err_a <= 1e-6 and err_b <= 1e-6))
    return _cones(cfg, toda_envelope(mu, lnorm)), parts


def _hierarchy_verdicts(cfg, x, run):
    mu, lnorm, hspec = cfg.resolved_mu(), jacobi_norm(x), cfg.hierarchy
    return (_cones(cfg, hierarchy_envelope(mu, lnorm, hspec)),
            [({"mu": mu, "Lnorm": lnorm, "r": hspec.r, "c": list(hspec.c),
               "bound_speed_lemma44": velocity_hierarchy(mu, lnorm, hspec, "lemma44"),
               "base": cfg.resolved_base()}, True), _norm_line(cfg, run, lnorm),
             _conserved(cfg, run.energy_series(lambda s: hierarchy_hamiltonian(s, hspec)))])


def _perturbed_verdicts(cfg, x, run):
    """The two cones of the base run, one with the monitors (C1, C2) and
    one with the growing radius from ||L(0)|| and a*.  unbounded is not
    norm_growth_ok, kept because perfbench's reference pins both."""
    mu, lnorm, pspec = cfg.resolved_mu(), jacobi_norm(x), cfg.perturbation
    mon = monitor_trajectory(run)
    line = _norm_line(cfg, run, lnorm, pspec.dw_sup)
    env_w = perturbed_envelope(mu, mon.C1, mon.C2, pspec.d2w_sup)
    a_star = min(float(np.min(np.abs(x.a))), abs(x.background[0]))    # inf_n |a_n(0)|
    env_t = timedep_envelope(mu, lnorm, pspec.dw_sup, pspec.d2w_sup, a_star)
    return (_cones(cfg, env_w, env_t),
            [({"mu": mu, "base": cfg.resolved_base(), "family": pspec.family, "w0": pspec.w0,
               "C1": mon.C1, "C2": mon.C2, "unbounded": not line[1], "a_star": a_star,
               "timedep_radius_final": float(env_t.radius(cfg.t_final))}, True), line,
             _conserved(cfg, run.energy_series(lambda s: perturbed_energy(s, pspec)))])


def _ghs_verdicts(cfg, x, run):
    mu, pot = cfg.resolved_mu(), cfg.potential
    stab = ghs_stability_diagnostics(run, pot)
    return (_cones(cfg, ghs_envelope(mu, run, pot)),
            [({"mu": mu, "family": pot.family, "beta": pot.beta,
               "energy": stab.energy, "M_E": stab.M_E, "stability_ok": stab.ok}, stab.ok),
             _conserved(cfg, run.energy_series(lambda s: ghs_energy(s, pot)))])


def _run_observables(cfg: ExperimentConfig, out: Path):
    mu = cfg.resolved_mu()
    x = _base_lattice(cfg)
    cone = _scaled(cfg, bracket_envelope(mu, jacobi_norm(x)))     # one norm for every bound
    m_list = sorted({site for site, _ in cfg.seeds})
    reach = cfg.obs_range
    n_viol = 0
    worst_ratio = 0.0
    first_violation = None
    clean = True
    grids = {}
    for m in m_list:
        _, b_m = basic_observables(m)
        # m_list is sorted, so only the previous site's grids can be shared
        grids = {seed: grids[seed] if seed in grids else
                 evolve_tangent(x, seed, cfg.t_final, cfg.integrator, "toda",
                                sample_dt=cfg.sample_dt)
                 for seed in sorted(required_bracket_seeds(b_m, x))}
        clean = clean and all(grid.clean(cfg.guard) for grid in grids.values())
        rep = check_bracket_bound(m, range(m - reach, m + reach + 1), x, cone, grids)
        n_viol += rep.n_violations
        worst_ratio = max(worst_ratio, rep.max_ratio)
        if rep.violations and first_violation is None:
            first_violation = rep.violations[0]
    # generator identity at the base point: {a_0, H} and {b_0, H} are the
    # Toda field at site 0, by the convention d/dt (obs o flow_t) = {obs, H}
    h_obs = hamiltonian_window_observable(range(-3, 4))
    gen_err = 0.0
    for obs, field in zip(basic_observables(0), toda_rhs(x)):
        bracket = poisson_bracket(obs, h_obs, x)
        value = float(field[x.site_index(0)])
        gen_err = max(gen_err, abs(value - bracket) / max(1.0, abs(bracket)))
    ok = clean and n_viol == 0 and gen_err <= 1e-5
    summary = {
        "mu": mu, "clean": clean, "violations": n_viol,
        "bound_speed": cone.speed,
        "pairs_checked": len(m_list) * (2 * reach + 1),
        "max_ratio": worst_ratio,
        "generator_rel_error": gen_err,
    }
    return summary, ok, first_violation


@dataclass(frozen=True)
class Scenario:
    """A row of SCENARIOS: what base "auto" resolves to, the config blocks
    the scenario requires, and its runner run(cfg, out) -> (summary, ok,
    first violation), _run_tangent for every row but observables.  For
    _run_tangent, also: state(cfg), the base state x; flow, a make_flow
    name, whose one spec is the block blocks[0] (none for toda);
    verdicts(cfg, x, run) -> (per-grid light-cone checks, [(summary
    entries, gate), ...]), _conserved's among them.  A row reaches cli's
    names through a def, when it is called."""

    auto_base: str
    blocks: tuple = ()
    run: object = _run_tangent
    state: object = _base_lattice
    flow: str = ""
    verdicts: object = None


# "auto" bases: cone checks on the exact background are the cleanest,
# perturbed flows need spatially localized data, bracket checks need a state
# with structure
SCENARIOS = {
    "toda-lightcone": Scenario("background", flow="toda", verdicts=_toda_verdicts),
    "hierarchy": Scenario("background", ("hierarchy",), flow="hierarchy",
                          verdicts=_hierarchy_verdicts),
    "perturbed": Scenario("random", ("perturbation",), flow="perturbed",
                          verdicts=_perturbed_verdicts),
    "observables": Scenario("soliton", run=_run_observables),
    "ghs": Scenario("background", ("potential",), state=lambda cfg: bump_chain(cfg.window),
                    flow="ghs", verdicts=_ghs_verdicts),
}


def _make_out(outdir) -> Path:
    """outdir, made with its parents, or a config error naming --out."""
    try:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out: {err}") from None
    return Path(outdir)


def run_config(cfg: ExperimentConfig, outdir) -> int:
    outdir = _make_out(outdir)
    summary, ok, first_violation = SCENARIOS[cfg.scenario].run(cfg, outdir)
    # every schema-1 summary has these keys, null where the runner sets none
    summary = {"schema": 1, "scenario": cfg.scenario, "seed": cfg.seed, "exit": 0 if ok else 1,
               **dict.fromkeys(("empirical_front_speed", "bound_speed", "conserved_drift")),
               **summary}
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
        r = _cast(value, _integer, "an integer order", f"--axis {axis}")
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


def run_sweep(config_path, axis: str, values_text: str, outdir) -> int:
    from concurrent.futures import ProcessPoolExecutor     # only a sweep needs it
    base_raw = _read_config(config_path)
    values = _parse_values(values_text)
    if not values:
        raise ConfigError("--values: need at least one value")
    outdir = Path(outdir)
    jobs, taken = [], {}
    for v in values:
        raw = _apply_axis(copy.deepcopy(base_raw), axis, v)
        config_from_dict(raw)          # validate up front: config errors exit 2
        name = f"{axis.replace('.', '_')}={v:g}"
        if name in taken:
            raise ConfigError(f"--values: {taken[name]!r} and {v!r} would both write {name}")
        taken[name] = v
        jobs.append((raw, str(outdir / name)))
    for sub in [outdir] + [sub for _, sub in jobs]:     # before any job runs
        _make_out(sub)
    results = []
    worst = 0
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1, 4)) as ex:
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
    sub.add_parser("print-default-config", help="write the default config JSON to stdout")
    args = parser.parse_args(argv)

    if args.command == "print-default-config":
        print(json.dumps(default_config(), indent=2, sort_keys=True))
        return 0
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            return run_config(cfg, args.out)
        return run_sweep(args.config, args.axis, args.values, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

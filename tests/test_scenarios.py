"""Every CLI scenario end to end at a small fixed-step size, and
toda-lightcone on a soliton base too, where its base run is checked against
the closed form.

Each run must exit 0, write the expected artifact files, and reproduce the
frozen summary values: non-floats exactly, floats within 1e-9 relative.

    PYTHONPATH=src python tests/test_scenarios.py --freeze   # rewrite the fixture
"""
import importlib.util
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import trajectory_from_csv
from todalab import cli as cli_module
from todalab.bounds import velocity_toda
from todalab.cli import config_from_dict, default_config, run_config
from todalab import integrators as integrators_module
from todalab.integrators import Trajectory, drift, integrate
from todalab.sensitivity import make_flow
from todalab.solitons import soliton_Lnorm, soliton_flaschka, soliton_state
from todalab import state as state_module
from todalab.state import toda_rhs, trace_invariants

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "scenario_summaries.json"
SCENARIOS = ("toda-lightcone", "hierarchy", "perturbed", "observables", "ghs")
# the config keys of each case: every scenario at its "auto" base, and
# toda-lightcone on a soliton base, the one base with a closed form, and on
# a random one, the two bases whose base run moves
CASES = {**{name: {"scenario": name} for name in SCENARIOS},
         "toda-lightcone-soliton": {"scenario": "toda-lightcone", "base": "soliton"},
         "toda-lightcone-random": {"scenario": "toda-lightcone", "base": "random"}}
REL = 1e-9


def small_config(case: str) -> dict:
    raw = default_config()
    raw.update(window=121, t_final=1.0, sample_dt=0.25,
               obs_range=3, seeds=[[0, "b"], [3, "a"]],
               integrator={"method": "rk4-fixed", "step": 0.02}, **CASES[case])
    return raw


def strict_json(path: Path):
    """The parsed artifact; a NaN or Infinity token fails the test."""
    def reject(token):
        raise ValueError(f"{path.name}: non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def run_scenario(case: str, outdir: Path, **overrides):
    raw = small_config(case)
    raw.update(overrides)
    code = run_config(config_from_dict(raw), outdir)
    files = sorted(p.name for p in outdir.iterdir())
    artifacts = {p.name: strict_json(p) for p in outdir.glob("*.json")}
    return code, files, artifacts["summary.json"]


def mismatch(want, got, where="summary"):
    """First difference between the frozen and the produced value, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: {got if not isinstance(got, dict) else sorted(got)!r} keys, " \
                f"want {sorted(want)}"
        return next((bad for k in want
                     if (bad := mismatch(want[k], got[k], f"{where}.{k}"))), None)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: {got!r} != {want!r}"
        return next((bad for i, (w, g) in enumerate(zip(want, got))
                     if (bad := mismatch(w, g, f"{where}[{i}]"))), None)
    if isinstance(want, float) and type(got) is float:
        if (math.isnan(want) and math.isnan(got)) or math.isclose(got, want, rel_tol=REL):
            return None
        return f"{where}: {got!r} != {want!r} (rel {REL})"
    if type(got) is not type(want) or got != want:
        return f"{where}: {got!r} != {want!r}"
    return None


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_scenario_matches_frozen_summary(case, frozen, tmp_path):
    code, files, summary = run_scenario(case, tmp_path / case)
    want = frozen[case]
    assert code == 0
    assert files == want["files"]
    bad = mismatch(want["summary"], summary)
    assert bad is None, bad


CONE_FLOWS = {"toda-lightcone": "toda", "hierarchy": "hierarchy", "perturbed": "perturbed",
              "ghs": "ghs"}
# the config block each tangent scenario's flow reads: its one spec
FLOW_SPECS = {"toda-lightcone": None, "hierarchy": "hierarchy", "perturbed": "perturbation",
              "ghs": "potential"}
CONE_SCENARIOS = tuple(CONE_FLOWS)
THREE_SEEDS = [[0, "b"], [3, "a"], [-2, "b"]]


def spy_solves(monkeypatch):
    """The argument lists of the CLI's evolve_tangent calls, and the list
    that gets one entry per solve_vector call in any todalab module."""
    tangents, solves = [], []
    evolve, solve = cli_module.evolve_tangent, integrators_module.solve_vector

    def spied(*args, **kwargs):
        tangents.append((args, kwargs))
        return evolve(*args, **kwargs)

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(cli_module, "evolve_tangent", spied)
    for name, module in list(sys.modules.items()):
        if name.startswith("todalab") and getattr(module, "solve_vector", None) is solve:
            monkeypatch.setattr(module, "solve_vector", counted)
    return tangents, solves


def standalone_base_run(tangent_call, integrator):
    """The base flow of an evolve_tangent call integrated alone from the
    same state, over the same samples."""
    (x, _seed, t_final, _cfg), kwargs = tangent_call
    return integrate(x, make_flow(kwargs["flow"], kwargs["spec"]), t_final, integrator,
                     sample_dt=kwargs["sample_dt"])


@pytest.mark.parametrize("scenario", CONE_SCENARIOS)
def test_cone_scenario_integrates_its_base_flow_once(scenario, tmp_path, monkeypatch):
    """The drift is measured once, on the one base run, and that run (the
    first seed's base rows) is the trajectory.csv: under rk4-fixed the same
    bytes as a standalone run of the flow."""
    raw = small_config(scenario)
    raw.update(base="random", seeds=THREE_SEEDS)
    cfg = config_from_dict(raw)
    drifts = []
    series = Trajectory.energy_series

    def counted(self, *args):
        drifts.append(self)
        return series(self, *args)

    monkeypatch.setattr(Trajectory, "energy_series", counted)
    tangents, _ = spy_solves(monkeypatch)
    assert run_config(cfg, tmp_path / "run") == 0
    assert len(drifts) == 1
    assert tangents[0][1]["flow"] == CONE_FLOWS[scenario]
    monkeypatch.undo()
    standalone_base_run(tangents[0], cfg.integrator).to_csv(tmp_path / "alone.csv")
    assert (tmp_path / "run" / "trajectory.csv").read_bytes() == \
        (tmp_path / "alone.csv").read_bytes()


@pytest.mark.parametrize("scenario", CONE_SCENARIOS)
def test_one_solve_per_seed(scenario, tmp_path, monkeypatch):
    """K seeds cost K solves, one evolve_tangent each: the base run comes
    from the first seed's solve, not from a solve of its own.  Each solve
    carries the one spec its flow reads, and no verdict setting such as
    the guard."""
    raw = small_config(scenario)
    raw["seeds"] = THREE_SEEDS
    cfg = config_from_dict(raw)
    tangents, solves = spy_solves(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert [args[1] for args, _ in tangents] == list(cfg.seeds)
    assert len(solves) == 3
    # the config holds every spec block; each solve gets only its flow's
    assert None not in (cfg.hierarchy, cfg.perturbation, cfg.potential)
    block = FLOW_SPECS[scenario]
    spec = getattr(cfg, block) if block else None
    assert all(kwargs.keys() == {"flow", "spec", "sample_dt"} and kwargs["spec"] is spec
               for _, kwargs in tangents)


def test_observables_solves_each_bracket_seed_once(tmp_path, monkeypatch):
    """b_m reads the grids seeded at (m - 1, a) and (m, a), so adjacent seed
    sites share one: it is solved once and kept for the next site."""
    raw = small_config("observables")
    raw["seeds"] = [[0, "b"], [1, "b"]]
    tangents, _ = spy_solves(monkeypatch)
    assert run_config(config_from_dict(raw), tmp_path) == 0
    assert [args[1] for args, _ in tangents] == [(-1, "a"), (0, "a"), (1, "a")]


def test_generator_identity_reads_the_toda_field(tmp_path, monkeypatch):
    """{a_0, H} and {b_0, H} are compared with the Toda field at site 0 and
    make no solve of their own: with no integrator to build or call, the
    run passes and the identity holds to the bracket's rounding."""
    cfg = config_from_dict(small_config("observables"))
    monkeypatch.setattr(cli_module, "IntegratorConfig", None)
    assert run_config(cfg, tmp_path) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["generator_rel_error"] < 1e-14


def test_a_field_off_by_a_thousandth_fails_the_generator_identity(tmp_path, monkeypatch):
    field = cli_module.toda_rhs
    monkeypatch.setattr(cli_module, "toda_rhs", lambda s: tuple(1.001 * f for f in field(s)))
    code, _, summary = run_scenario("observables", tmp_path)
    assert code == 1 and summary["exit"] == 1
    assert summary["generator_rel_error"] > 1e-5 and summary["violations"] == 0


SCHEMA_KEYS = {"schema", "scenario", "seed", "exit", "clean", "violations",
               "empirical_front_speed", "bound_speed", "conserved_drift"}


@pytest.mark.parametrize("case", CASES)
def test_every_summary_carries_the_schema_keys(case, tmp_path):
    _, _, summary = run_scenario(case, tmp_path)
    assert SCHEMA_KEYS <= set(summary), SCHEMA_KEYS - set(summary)


def test_scenario_lists_agree():
    """This suite, tools/compare_runs.py and the CLI's table name the same
    scenarios, the suite and the tool run the same cases, and each tangent
    scenario's row runs the flow named here."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("compare_runs", tool)
    compare_runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_runs)
    assert set(SCENARIOS) == set(compare_runs.SCENARIOS) == set(cli_module.SCENARIOS)
    assert CASES == compare_runs.CASES
    cones = {name: row.flow for name, row in cli_module.SCENARIOS.items()
             if row.run is cli_module._run_tangent}
    assert cones == CONE_FLOWS


@pytest.mark.parametrize("name,scenario", [
    ("hierarchy_hamiltonian", "hierarchy"), ("perturbed_energy", "perturbed"),
    ("ghs_energy", "ghs"), ("verify_light_cone", "toda-lightcone"),
    ("ghs_stability_diagnostics", "ghs"), ("monitor_trajectory", "perturbed")])
def test_rows_look_names_up_when_called(name, scenario, tmp_path, monkeypatch):
    """A row reaches the function through cli's globals at run time, so a
    rebinding made after the table was built sees the call."""
    calls, original = [], getattr(cli_module, name)

    def spied(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_module, name, spied)
    code, _, _ = run_scenario(scenario, tmp_path)
    assert code == 0
    assert calls


ADAPTIVE_BOUND = 100.0     # x tolerance: the scale of the drift gate


@pytest.mark.parametrize("scenario", CONE_SCENARIOS)
def test_adaptive_base_run_matches_a_tighter_standalone_run(scenario, tmp_path, monkeypatch):
    """Under rk-adaptive the base rows follow the step control of the first
    seed's joint solve, so trajectory.csv moves within the tolerance.  It
    must match the base flow integrated alone at a 100 x tighter tolerance
    to within ADAPTIVE_BOUND x tolerance in every entry."""
    raw = default_config()
    raw.update(scenario=scenario, base="random", seeds=[[0, "b"], [3, "a"]])
    cfg = config_from_dict(raw)
    assert cfg.integrator.method == "rk-adaptive"
    tangents, _ = spy_solves(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    monkeypatch.undo()
    run = trajectory_from_csv(tmp_path / "trajectory.csv")
    tight = replace(cfg.integrator, tolerance=cfg.integrator.tolerance / 100.0)
    ref = standalone_base_run(tangents[0], tight)
    assert run.times.tobytes() == ref.times.tobytes()
    err = max(np.abs(run.x1 - ref.x1).max(), np.abs(run.x2 - ref.x2).max())
    assert err <= ADAPTIVE_BOUND * cfg.integrator.tolerance


# the envelope families of each tangent scenario's light-cone reports
CONE_FAMILIES = {"toda-lightcone": ("toda",), "hierarchy": ("hierarchy",),
                 "perturbed": ("perturbed", "timedep"), "ghs": ("ghs",)}


def run_files(scenario, seeds) -> list:
    """The files of a tangent scenario's run with these seeds: per seed, its
    grid's CSV and one report per cone, plus the summary and the base run."""
    names = ["summary.json", "trajectory.csv"]
    for site, coord in seeds:
        names += [f"lightcone_{family}_{site}_{coord}.json" for family in CONE_FAMILIES[scenario]]
        names.append(f"sensitivity_m{site}_{coord}.csv".replace("-", "_minus"))
    return sorted(names)


@pytest.mark.parametrize("seed", [6, 17, 22, 25, 26, 34, 39])
def test_short_run_inside_the_norm_line_passes(seed, tmp_path):
    """The a-priori line is the one perturbed gate: these base states, whose
    sampled sup-norm rises over the last samples at N=121, t=1, lie inside
    it, so each run passes and writes both cones' reports per seed."""
    code, files, summary = run_scenario(
        "perturbed", tmp_path, base="random", seed=seed, sample_dt=0.1,
        seeds=[[0, "b"], [0, "a"]], integrator={"method": "rk4-fixed", "step": 0.01})
    assert code == 0
    assert files == run_files("perturbed", [(0, "b"), (0, "a")])
    assert summary["norm_growth_ok"] is True and summary["unbounded"] is False
    assert summary["norm_line_failed_at"] is None


@pytest.mark.parametrize("scenario", ["toda-lightcone", "hierarchy", "perturbed"])
def test_a_failed_norm_line_fails_the_run_and_writes_every_report(scenario, tmp_path,
                                                                  monkeypatch, capsys):
    """The norm line is the premise of every ||L||-based velocity: a run
    whose count puts the third distinct sample (t = 0.5) and every later
    one outside it exits 1, with norm_growth_ok false and that time as
    norm_line_failed_at, after every seed's grid went through every cone
    and every report was written."""
    monkeypatch.setattr(cli_module, "jacobi_norm_within",
                        lambda a, b, bound: np.arange(len(bound)) < 2)
    _, solves = spy_solves(monkeypatch)
    code, files, summary = run_scenario(scenario, tmp_path, base="random", seeds=THREE_SEEDS)
    assert code == 1 and summary["exit"] == 1
    assert summary["norm_growth_ok"] is False and summary["norm_line_failed_at"] == 0.5
    if scenario == "perturbed":
        assert summary["unbounded"] is True
    assert files == run_files(scenario, THREE_SEEDS)
    assert summary["violations"] == 0 and summary["bound_speed"] is not None
    assert summary["conserved_drift"] <= summary["drift_tolerance"]
    assert len(solves) == 3
    assert f"{scenario}: FAILED (see" in capsys.readouterr().err


def test_the_norm_line_names_the_first_sample_outside_it(monkeypatch):
    """A window whose diagonal shifts by s over runs of equal samples has
    ||L|| = s + cos(pi/8): with slope 0.1 the run of s = 0.02 from t = 0.4
    lies inside the line, the run of s = 0.08 from t = 0.7 starts outside
    it.  One count per run of equal samples finds t = 0.7."""
    times = np.linspace(0.0, 1.0, 11)
    shift = np.repeat([0.0, 0.02, 0.08], [4, 3, 4])
    run = Trajectory(times, np.full((11, 7), 0.5), shift[:, None] * np.ones((11, 7)), -3,
                     (0.5, 0.0))
    cfg = config_from_dict(small_config("perturbed"))
    lnorm = state_module.jacobi_norm(run.state(0))
    assert lnorm == pytest.approx(math.cos(math.pi / 8.0), abs=1e-15)
    counted, count = [], cli_module.jacobi_norm_within
    monkeypatch.setattr(cli_module, "jacobi_norm_within",
                        lambda a, b, bound: counted.append(len(bound)) or count(a, b, bound))
    assert cli_module._norm_line(cfg, run, lnorm, 0.1) == (
        {"norm_growth_ok": False, "norm_line_failed_at": float(times[7])}, False)
    assert counted == [3]
    assert cli_module._norm_line(cfg, run, lnorm, 0.2) == (
        {"norm_growth_ok": True, "norm_line_failed_at": None}, True)


@pytest.mark.parametrize("keys", [
    {"scenario": "toda-lightcone", "base": "random"},
    {"scenario": "toda-lightcone", "base": "soliton"},
    {"scenario": "hierarchy", "base": "random", "hierarchy": {"r": 1, "c": [1, 0]}},
    {"scenario": "hierarchy", "base": "random", "hierarchy": {"r": 3, "c": [1, 0, 0, 0]}}],
    ids=["toda-random", "toda-soliton", "hierarchy-r1", "hierarchy-r3"])
def test_norm_line_counts_agree_with_the_eigensolve(keys, tmp_path, monkeypatch):
    """The oracle of the norm line: on every sample of the base run, the
    count of the first of its run of equal samples says what
    jacobi_norm(run.state(i)) <= line[i] says, at the run's own line and
    at a line cut through the middle of the widest gap between the sampled
    norms, which some samples clear and some do not."""
    lines, within = [], cli_module._within_line
    monkeypatch.setattr(cli_module, "_within_line",
                        lambda run, line: lines.append((run, line)) or within(run, line))
    raw = {**default_config(), **keys, "window": 121, "t_final": 2.0}
    assert run_config(config_from_dict(raw), tmp_path) == 0
    [(run, line)] = lines
    norms = np.array([state_module.jacobi_norm(run.state(i)) for i in range(run.n_samples)])
    assert np.array_equal(within(run, line), norms <= line) and np.all(norms <= line)
    ranked = np.sort(norms)
    k = int(np.argmax(np.diff(ranked)))
    cut = np.full(run.n_samples, 0.5 * (ranked[k] + ranked[k + 1]))
    assert 0 < np.count_nonzero(norms <= cut) < run.n_samples
    assert np.array_equal(within(run, cut), norms <= cut)


@pytest.mark.parametrize("scenario", ["toda-lightcone", "hierarchy"])
def test_a_background_run_makes_one_count(scenario, tmp_path, monkeypatch):
    """On the background the base run never moves, so the norm line takes
    one count, of one sample, for the whole run."""
    counted, count = [], cli_module.jacobi_norm_within
    monkeypatch.setattr(cli_module, "jacobi_norm_within",
                        lambda a, b, bound: counted.append(len(bound)) or count(a, b, bound))
    cfg = config_from_dict({**default_config(), "scenario": scenario})
    assert cfg.resolved_base() == "background"
    assert run_config(cfg, tmp_path) == 0
    assert counted == [1]


@pytest.mark.parametrize("tolerance,gate,code", [(1e-12, 1e-10, 0), (1e-15, 1e-13, 1)])
def test_ghs_drift_gate_follows_tolerance(tolerance, gate, code, tmp_path):
    raw = small_config("ghs")
    raw["integrator"]["tolerance"] = tolerance
    assert run_config(config_from_dict(raw), tmp_path) == code
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["drift_tolerance"] == gate
    assert (summary["conserved_drift"] <= gate) == (code == 0)


def kappa2_soliton() -> dict:
    """toda-lightcone on a kappa 2 soliton, every other key at its default:
    its trace drift, 3.3e-7, is far above drift_tolerance, but not once
    divided by (1 + ||L(0)||)^4, about 513."""
    raw = {**default_config(), **CASES["toda-lightcone-soliton"]}
    raw["soliton"] = {**raw["soliton"], "kappa": 2.0}
    return raw


@pytest.mark.parametrize("raw", [*map(small_config, CASES), kappa2_soliton()],
                         ids=[*CASES, "toda-lightcone-soliton-kappa2"])
def test_a_passing_run_records_a_drift_inside_its_gate(raw, tmp_path):
    """conserved_drift is the drift the gate drift_tolerance reads, so a run
    that exits 0 never records one above it (observables records none), and
    an ||L||-based run records its norm line as held."""
    code = run_config(config_from_dict(raw), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert code == 0
    if raw["scenario"] == "observables":
        assert summary["conserved_drift"] is None
    else:
        assert summary["conserved_drift"] <= summary["drift_tolerance"]
    if raw["scenario"] in ("toda-lightcone", "hierarchy", "perturbed"):
        assert summary["norm_growth_ok"] is True and summary["norm_line_failed_at"] is None


def count_jacobi_norm(monkeypatch) -> list:
    """The states jacobi_norm is called on, in every todalab module."""
    norms, original = [], state_module.jacobi_norm

    def counted_norm(s, *args):
        norms.append(s)
        return original(s, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("todalab") and getattr(module, "jacobi_norm", None) is original:
            monkeypatch.setattr(module, "jacobi_norm", counted_norm)
    return norms


def test_background_cone_takes_one_norm(tmp_path, monkeypatch):
    """On the background the base run never moves: one norm, of x, for the
    bound, the norm line and the drift scale."""
    cfg = config_from_dict({**default_config(), "scenario": "toda-lightcone"})
    assert cfg.resolved_base() == "background"
    norms = count_jacobi_norm(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert len(norms) == 1


@pytest.mark.parametrize("keys", [CASES["toda-lightcone-soliton"], CASES["toda-lightcone-random"],
                                  {"scenario": "hierarchy", "base": "random"}],
                         ids=["toda-soliton", "toda-random", "hierarchy-random"])
def test_one_norm_per_run(keys, tmp_path, monkeypatch):
    """A run whose base moves takes one norm too, of x, the sample 0 of its
    51: the line is checked by counts, and the drift is the trace
    invariants' (toda) or the Hamiltonian's (hierarchy)."""
    cfg = config_from_dict({**default_config(), **keys})
    norms = count_jacobi_norm(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert round(cfg.t_final / cfg.sample_dt) + 1 == 51
    [x] = norms
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["Lnorm"] == state_module.jacobi_norm(x)


SOLITON_KEYS = {"kappa", "max_error_a", "max_error_b", "Lnorm_vs_analytic", "soliton_speed"}


def test_soliton_base_checks_read_the_same_numbers_as_a_standalone_run(tmp_path):
    """Under rk4-fixed the base rows equal a base-only run bit for bit, so
    the closed-form check gives what it gives on a standalone integrate
    run of the same config."""
    cfg = config_from_dict(small_config("toda-lightcone-soliton"))
    assert run_config(cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    spec = cfg.soliton
    run = integrate(soliton_state(spec, cfg.window), toda_rhs, cfg.t_final, cfg.integrator,
                    sample_dt=cfg.sample_dt)
    a_ref, b_ref = soliton_flaschka(spec, run.sites, run.times[:, np.newaxis])
    lnorm = state_module.jacobi_norm(run.state(0))
    want = {"max_error_a": float(np.max(np.abs(run.a - a_ref))),
            "max_error_b": float(np.max(np.abs(run.b - b_ref))),
            "conserved_drift": drift(run.energy_series(trace_invariants) / (1.0 + lnorm) ** 4),
            "Lnorm_vs_analytic": abs(lnorm - soliton_Lnorm(spec))}
    assert {key: summary[key] for key in want} == want
    assert SOLITON_KEYS <= set(summary)


@pytest.mark.parametrize("base", ["background", "random"])
def test_no_closed_form_check_off_a_soliton_base(base, tmp_path):
    _, _, summary = run_scenario("toda-lightcone", tmp_path, base=base)
    assert not SOLITON_KEYS & set(summary)


def test_observables_computes_each_fact_about_x_and_b_once(tmp_path, monkeypatch):
    """One jacobi_norm for the run, and no base state rebuilt from a run:
    the bracket checks read the grids' columns, and the generator identity
    reads x itself."""
    cfg = config_from_dict(small_config("observables"))
    norms, states = count_jacobi_norm(monkeypatch), []
    state = Trajectory.state

    def counted_state(self, i):
        states.append(i)
        return state(self, i)

    monkeypatch.setattr(Trajectory, "state", counted_state)
    assert run_config(cfg, tmp_path) == 0
    assert len(norms) == 1
    assert states == []


def test_observables_takes_one_norm_for_every_bracket_bound(tmp_path, monkeypatch):
    """The five b_m seeds of the brackets-soliton benchmark config share one
    base state, so one jacobi_norm gives the velocity of all five
    check_bracket_bound calls, one per site m."""
    raw = {**default_config(), "scenario": "observables", "base": "soliton",
           "window": 81, "t_final": 1.0, "sample_dt": 0.1, "obs_range": 3,
           "seeds": [[m, "b"] for m in (-20, -10, 0, 10, 20)],
           "integrator": {"method": "rk4-fixed", "step": 0.02}}
    cfg = config_from_dict(raw)
    norms, speeds = count_jacobi_norm(monkeypatch), []
    check = cli_module.check_bracket_bound
    monkeypatch.setattr(cli_module, "check_bracket_bound",
                        lambda *args: speeds.append(args[3].speed) or check(*args))
    assert run_config(cfg, tmp_path) == 0
    [x] = norms
    assert speeds == [velocity_toda(cfg.resolved_mu(), state_module.jacobi_norm(x))] * 5


@pytest.mark.parametrize("scenario", ["perturbed"])
def test_perturbed_monitors_take_one_norm(scenario, tmp_path, monkeypatch):
    """||L(0)|| is the one eigensolve of the run, jacobi_norm(x), taken by
    the verdicts as in every lattice scenario: monitor_trajectory makes
    none, the norm-growth gate counts eigenvalues instead of solving for the
    norm at every sample, and both time-dependent cone reports start their
    radius from that norm, bit for bit."""
    cfg = config_from_dict(small_config(scenario))
    norms, inside = count_jacobi_norm(monkeypatch), []
    monitor = cli_module.monitor_trajectory

    def spied(run):
        before = len(norms)
        mon = monitor(run)
        inside.append(len(norms) - before)
        return mon

    monkeypatch.setattr(cli_module, "monitor_trajectory", spied)
    assert run_config(cfg, tmp_path) == 0
    assert inside == [0]
    [x] = norms
    reports = sorted(tmp_path.glob("lightcone_timedep_*.json"))
    assert [p.name for p in reports] == ["lightcone_timedep_0_b.json", "lightcone_timedep_3_a.json"]
    lnorm = state_module.jacobi_norm(x)
    assert [strict_json(p)["params"]["Lnorm0"] for p in reports] == [lnorm, lnorm]


@pytest.mark.parametrize("scenario", ["perturbed"])
def test_perturbed_base_run_drift_is_gated(scenario, tmp_path):
    """perturbed gates the drift of its base run, whose step is too coarse."""
    raw = small_config(scenario)
    raw["integrator"]["step"] = 0.05
    assert run_config(config_from_dict(raw), tmp_path) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["drift_tolerance"] == 1e-8
    assert summary["conserved_drift"] > summary["drift_tolerance"]


def _shifted_soliton(monkeypatch):
    """The closed form a soliton base run is checked against, at a kappa
    10% larger."""
    flaschka = cli_module.soliton_flaschka
    monkeypatch.setattr(cli_module, "soliton_flaschka",
                        lambda spec, *args: flaschka(replace(spec, kappa=1.1 * spec.kappa), *args))


# how each case is made to fail: the rest by envelope_scale 1e-9
FORCED_FAILURES = {"toda-lightcone-soliton": _shifted_soliton}


@pytest.mark.parametrize("case", CASES)
def test_every_scenario_can_fail(case, tmp_path, monkeypatch, capsys):
    """Each case exits 1 when its check is made to fail: each scenario with
    its envelope at envelope_scale 1e-9, naming the first violation's site
    and time, and the soliton base by a shifted closed form, with its cone
    intact."""
    if case in FORCED_FAILURES:
        FORCED_FAILURES[case](monkeypatch)
        code, _, summary = run_scenario(case, tmp_path)
        assert summary["violations"] == 0
        assert max(summary["max_error_a"], summary["max_error_b"]) > 1e-6
        assert "toda-lightcone: FAILED (see" in capsys.readouterr().err
    else:
        code, _, summary = run_scenario(case, tmp_path, envelope_scale=1e-9)
        assert summary["violations"] > 0
        assert re.search(r"first violation at \(n=-?\d+, t=", capsys.readouterr().err)
    assert code == 1 and summary["exit"] == 1


def refrozen(old: dict, new: dict) -> list:
    """`case.key: old -> new` for the file list ("files") and each
    summary key whose JSON text new changes from old, over the cases
    of either side; a side without the case or the key reads
    `absent`."""
    lines = []
    for case in sorted(old.keys() | new.keys()):
        was, now = ({"files": e["files"], **e["summary"]} if e else {}
                    for e in (old.get(case), new.get(case)))
        for key in sorted(set(was) | set(now), key=lambda k: (k != "files", k)):
            before, after = (json.dumps(d[key]) if key in d else "absent" for d in (was, now))
            if before != after:
                lines.append(f"{case}.{key}: {before} -> {after}")
    return lines


def test_refreeze_lists_each_changed_key():
    old = {"a": {"files": ["x.csv"], "summary": {"k": 1.5, "same": None, "gone": 1}},
           "c": {"files": ["z.json"], "summary": {"k": None}}}
    new = {"a": {"files": ["x.csv", "y.json"], "summary": {"k": 2.5, "same": None, "new": "s"}},
           "b": {"files": [], "summary": {"k": 1}}}
    assert refrozen(old, new) == [
        'a.files: ["x.csv"] -> ["x.csv", "y.json"]', "a.gone: 1 -> absent", "a.k: 1.5 -> 2.5",
        'a.new: absent -> "s"', "b.files: absent -> []", "b.k: absent -> 1",
        'c.files: ["z.json"] -> absent', "c.k: null -> absent"]
    assert refrozen(new, new) == []


def freeze(tmpdir: Path):
    out = {}
    for case in CASES:
        code, files, summary = run_scenario(case, tmpdir / case)
        assert code == 0, case
        out[case] = {"files": files, "summary": summary}
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    print("\n".join(refrozen(old, out)) or "no change")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--freeze"]:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        freeze(Path(tmp))

"""Every CLI scenario end to end at a small fixed-step size.

Each run must exit 0, write the expected artifact files, and reproduce the
frozen summary values: non-floats exactly, floats within 1e-9 relative.

    PYTHONPATH=src python tests/test_scenarios.py --freeze   # rewrite the fixture
"""
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from todalab import cli as cli_module
from todalab.cli import config_from_dict, default_config, run_config
from todalab import integrators as integrators_module
from todalab.integrators import Trajectory, integrate
from todalab.perturbed import interpolation_envelope
from todalab.sensitivity import make_flow
from todalab import state as state_module

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "scenario_summaries.json"
SCENARIOS = ("toda-lightcone", "soliton-validate", "hierarchy", "perturbed",
             "interpolation", "timedep", "observables", "ghs")
REL = 1e-9


def small_config(scenario: str) -> dict:
    raw = default_config()
    raw.update(scenario=scenario, window=121, t_final=1.0, sample_dt=0.25,
               obs_range=3, seeds=[[0, "b"], [3, "a"]],
               integrator={"method": "rk4-fixed", "step": 0.02})
    return raw


def strict_json(path: Path):
    """The parsed artifact; a NaN or Infinity token fails the test."""
    def reject(token):
        raise ValueError(f"{path.name}: non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def run_scenario(scenario: str, outdir: Path, **overrides):
    raw = small_config(scenario)
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


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_matches_frozen_summary(scenario, frozen, tmp_path):
    code, files, summary = run_scenario(scenario, tmp_path / scenario)
    want = frozen[scenario]
    assert code == 0
    assert files == want["files"]
    bad = mismatch(want["summary"], summary)
    assert bad is None, bad


CONE_FLOWS = {"toda-lightcone": "toda", "hierarchy": "hierarchy", "perturbed": "perturbed",
              "timedep": "perturbed", "ghs": "ghs"}
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
    specs = dict(kwargs)
    name, sample_dt, guard = specs.pop("flow"), specs.pop("sample_dt"), specs.pop("guard")
    return integrate(x, make_flow(name, **specs), t_final, integrator,
                     sample_dt=sample_dt, guard=guard)


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


@pytest.mark.parametrize("scenario", CONE_SCENARIOS + ("interpolation",))
def test_one_solve_per_seed(scenario, tmp_path, monkeypatch):
    """K seeds cost K solves, one evolve_tangent each: the base run comes
    from the first seed's solve, not from a solve of its own."""
    raw = small_config(scenario)
    raw["seeds"] = THREE_SEEDS
    cfg = config_from_dict(raw)
    tangents, solves = spy_solves(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert [args[1] for args, _ in tangents] == list(cfg.seeds)
    assert len(solves) == 3


ADAPTIVE_BOUND = 100.0     # x tolerance: the scale of the drift gate


@pytest.mark.parametrize("scenario", CONE_SCENARIOS + ("interpolation",))
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
    run = Trajectory.from_csv(tmp_path / "trajectory.csv")
    tight = replace(cfg.integrator, tolerance=cfg.integrator.tolerance / 100.0)
    ref = standalone_base_run(tangents[0], tight)
    assert run.times.tobytes() == ref.times.tobytes()
    err = max(np.abs(run.x1 - ref.x1).max(), np.abs(run.x2 - ref.x2).max())
    assert err <= ADAPTIVE_BOUND * cfg.integrator.tolerance


@pytest.mark.parametrize("scenario", ["perturbed", "interpolation"])
def test_excluded_run_writes_only_summary_and_trajectory(scenario, tmp_path, monkeypatch):
    """An unbounded-looking base run fails the scenario before any grid is
    written or checked: the artifacts are summary.json and trajectory.csv."""
    monitor = cli_module.monitor_trajectory
    monkeypatch.setattr(cli_module, "monitor_trajectory",
                        lambda run: replace(monitor(run), unbounded=True))
    _, solves = spy_solves(monkeypatch)
    code, files, summary = run_scenario(scenario, tmp_path)
    assert code == 1
    assert files == ["summary.json", "trajectory.csv"]
    assert summary["unbounded"] is True
    assert "unbounded-looking run" in summary["excluded"]
    assert summary["violations"] == 0
    assert len(solves) == 1


@pytest.mark.parametrize("tolerance,gate,code", [(1e-12, 1e-10, 0), (1e-15, 1e-13, 1)])
def test_ghs_drift_gate_follows_tolerance(tolerance, gate, code, tmp_path):
    raw = small_config("ghs")
    raw["integrator"]["tolerance"] = tolerance
    assert run_config(config_from_dict(raw), tmp_path) == code
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["drift_tolerance"] == gate
    assert (summary["conserved_drift"] <= gate) == (code == 0)


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
    """On the background the base run never moves: one norm for the whole
    drift series, whose sample 0 also gives the bound."""
    cfg = config_from_dict({**default_config(), "scenario": "toda-lightcone"})
    assert cfg.resolved_base() == "background"
    norms = count_jacobi_norm(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert len(norms) == 1


def test_soliton_validate_takes_one_norm_per_distinct_sample(tmp_path, monkeypatch):
    """The drift series solves each of the 51 samples once, and the
    analytic comparison reads its sample 0."""
    cfg = config_from_dict({**default_config(), "scenario": "soliton-validate"})
    norms = count_jacobi_norm(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert len(norms) == round(cfg.t_final / cfg.sample_dt) + 1 == 51


def test_observables_computes_each_fact_about_x_and_b_once(tmp_path, monkeypatch):
    """Per m: one jacobi_norm, and one base state per sample for all of the
    bracket checks; the generator identity adds two states in all."""
    cfg = config_from_dict(small_config("observables"))
    norms, states = count_jacobi_norm(monkeypatch), []
    state = Trajectory.state

    def counted_state(self, i):
        states.append(i)
        return state(self, i)

    monkeypatch.setattr(Trajectory, "state", counted_state)
    assert run_config(cfg, tmp_path) == 0
    n_m = len({site for site, _ in cfg.seeds})
    n_samples = round(cfg.t_final / cfg.sample_dt) + 1
    assert len(norms) == n_m
    assert len(states) <= n_m * (n_samples + 2)


@pytest.mark.parametrize("scenario", ["perturbed", "interpolation"])
def test_perturbed_monitors_take_one_norm(scenario, tmp_path, monkeypatch):
    """||L(0)|| is the one eigensolve of the monitors; the norm-growth gate
    counts eigenvalues instead of solving for the norm at every sample."""
    cfg = config_from_dict(small_config(scenario))
    norms = count_jacobi_norm(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert len(norms) == 1


@pytest.mark.parametrize("scenario", ["perturbed", "interpolation"])
def test_perturbed_base_run_drift_is_gated(scenario, tmp_path):
    """perturbed and interpolation gate the drift of the same base run alike."""
    raw = small_config(scenario)
    raw["integrator"]["step"] = 0.05
    assert run_config(config_from_dict(raw), tmp_path) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["drift_tolerance"] == 1e-8
    assert summary["conserved_drift"] > summary["drift_tolerance"]


def test_non_finite_fit_is_written_as_null(tmp_path):
    """One step of 0.01 leaves too few decaying sites for the spatial fit:
    r2_spatial is NaN, written as null in both artifacts, and fails the run."""
    code, _, summary = run_scenario("interpolation", tmp_path, t_final=0.01,
                                    sample_dt=0.01)
    assert code == 1
    assert summary["r2_spatial"] is None
    assert all(fit["r2_spatial"] is None
               for fit in strict_json(tmp_path / "interpolation_fit.json"))


@pytest.mark.parametrize("nan_seed", [0, 1], ids=["nan-first", "nan-last"])
def test_nan_spatial_fit_fails_interpolation_in_either_order(nan_seed, tmp_path,
                                                            monkeypatch):
    """The r2 gate sees a NaN fit wherever it falls among the seeds."""
    fits = []

    def fit(*args):
        f = interpolation_envelope(*args)
        fits.append(replace(f, r2_spatial=math.nan) if len(fits) == nan_seed else f)
        return fits[-1]

    monkeypatch.setattr(cli_module, "interpolation_envelope", fit)
    code, _, summary = run_scenario("interpolation", tmp_path)
    assert len(fits) == 2
    assert code == 1
    assert summary["r2_spatial"] is None


def freeze(tmpdir: Path):
    out = {}
    for scenario in SCENARIOS:
        code, files, summary = run_scenario(scenario, tmpdir / scenario)
        assert code == 0, scenario
        out[scenario] = {"files": files, "summary": summary}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--freeze"]:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        freeze(Path(tmp))

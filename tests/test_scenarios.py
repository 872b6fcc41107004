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

import pytest

from todalab import cli as cli_module
from todalab.cli import _base_lattice, config_from_dict, default_config, run_config
from todalab.integrators import Trajectory, integrate
from todalab.perturbed import interpolation_envelope
from todalab import state as state_module
from todalab.state import toda_rhs

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


def test_cone_scenario_integrates_its_base_flow_once(tmp_path, monkeypatch):
    """The drift is measured once, on the one base run, and that run is the
    trajectory.csv: the same bytes as a standalone run of the flow."""
    raw = small_config("toda-lightcone")
    raw.update(base="random", seeds=[[0, "b"], [3, "a"], [-2, "b"]])
    cfg = config_from_dict(raw)
    drifts = []
    series = Trajectory.energy_series

    def counted(self, *args):
        drifts.append(self)
        return series(self, *args)

    monkeypatch.setattr(Trajectory, "energy_series", counted)
    assert run_config(cfg, tmp_path / "run") == 0
    assert len(drifts) == 1
    monkeypatch.undo()
    integrate(_base_lattice(cfg), toda_rhs, cfg.t_final, cfg.integrator,
              sample_dt=cfg.sample_dt, guard=cfg.guard).to_csv(tmp_path / "alone.csv")
    assert (tmp_path / "run" / "trajectory.csv").read_bytes() == \
        (tmp_path / "alone.csv").read_bytes()


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


def test_background_cone_takes_two_norms(tmp_path, monkeypatch):
    """On the background the base run never moves: one norm for the bound
    and one for the whole drift series."""
    cfg = config_from_dict({**default_config(), "scenario": "toda-lightcone"})
    assert cfg.resolved_base() == "background"
    norms = count_jacobi_norm(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert len(norms) <= 2


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

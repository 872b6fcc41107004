"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import copy
import inspect
import json
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
from workloads import SCENARIOS, WORKLOADS, check_against_reference, load_reference

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# every workload at tiny size: each scenario alone, then the whole suite
TINY = [w.tiny() for w in WORKLOADS.values()]


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _namespaces():
    """Every attribute of every package module and of the classes they define."""
    out = {}
    for mod in tracing.package_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    out[(obj.__qualname__, cattr)] = cobj
    return out


def _units(section):
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec[section]}


def test_every_metric_is_emitted_with_its_unit(cli, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    w = WORKLOADS["paper-suite"].tiny()
    values, failures, samples = run.end_to_end(cli, w, 1, 0.5, tmp_path)
    line = run.result_line(values, run.END_TO_END, failures)
    assert run.END_TO_END == _units("end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {k: u for k, (u, _b) in _units("end_to_end").items()}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["attempted"] == len(w.scenarios) * len(samples["run_s"])

    values, failures, _, _ = run.per_layer(cli, w, 1, tmp_path)
    line = run.result_line(values, tracing.metric_units(), failures)
    assert tracing.metric_units() == _units("per_layer")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {k: u for k, (u, _b) in _units("per_layer").items()}
    assert line["correct"] and line["attempted"] == 2 * len(w.scenarios)


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_self_times_sum_to_traced_wall_time(cli, tmp_path, w):
    values, failures, samples, tr = run.per_layer(cli, w, 3, tmp_path)
    assert failures == [None] * (2 * len(w.scenarios))
    total_self = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total_self == pytest.approx(samples["traced_run_s"][0], rel=0.03)
    assert values["sensitivity.evolve_tangent.calls"] == w.grids
    assert values["cli.run_config.wall_s"] > 0
    path = tmp_path / "trace.csv.gz"
    tr.write(path)
    assert path.stat().st_size > 0


def test_wrappers_are_installed_everywhere_and_removed(cli):
    import todalab.integrators
    import todalab.sensitivity
    import todalab.state
    before = _namespaces()
    tr = tracing.Tracer()
    with tr:
        assert cli.evolve_tangent is not before[("todalab.sensitivity", "evolve_tangent")]
        assert todalab.sensitivity.perturbed_rhs is not before[("todalab.perturbed", "perturbed_rhs")]
        assert sys.modules["todalab.perturbed"].toda_rhs is not before[("todalab.state", "toda_rhs")]
        assert todalab.integrators.solve_vector is todalab.sensitivity.solve_vector
        assert todalab.state.LatticeState.__init__ is not before[("LatticeState", "__init__")]
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_injected_failure_shows_in_ok_frac(cli, tmp_path, monkeypatch):
    w = TINY[0]
    original = cli.run_config
    calls = []

    def flaky(cfg, outdir):
        calls.append(outdir)
        if len(calls) % 2 == 0:
            raise RuntimeError("injected")
        return original(cfg, outdir)

    monkeypatch.setattr(cli, "run_config", flaky)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(run, "warm_up", lambda *args: None)
    values, failures, _ = run.end_to_end(cli, w, 1, 1.0, tmp_path)
    line = run.result_line(values, run.END_TO_END, failures)
    assert line["attempted"] >= 2
    assert line["failed"] == line["attempted"] // 2
    assert not line["correct"]
    assert values["ok_frac"] == pytest.approx(1.0 - line["failed"] / line["attempted"])
    assert list(tmp_path.iterdir()) == []           # every run's artifacts deleted


def test_reference_check_rejects_changed_artifacts():
    ref = load_reference()
    fixed, adaptive = SCENARIOS["perturbed-fixed"], SCENARIOS["toda-lightcone-bg"]
    assert check_against_reference(fixed, ref[fixed.name], ref[fixed.name]) is None

    snap = copy.deepcopy(ref[fixed.name])
    snap["trajectory.csv"]["sha256"] = "0" * 64
    assert "sha256" in check_against_reference(fixed, snap, ref[fixed.name])

    snap = copy.deepcopy(ref[adaptive.name])
    speed = snap["summary.json"]["json"]["empirical_front_speed"]
    snap["summary.json"]["json"]["empirical_front_speed"] = speed * (1 + 1e-7)
    snap["summary.json"]["json"]["new_field"] = 1
    assert check_against_reference(adaptive, snap, ref[adaptive.name]) is None
    snap["summary.json"]["json"]["empirical_front_speed"] = speed * (1 + 1e-4)
    assert "empirical_front_speed" in check_against_reference(adaptive, snap, ref[adaptive.name])

    snap = copy.deepcopy(ref[adaptive.name])
    snap["summary.json"]["json"]["boundary_margin"] -= 1
    assert "boundary_margin" in check_against_reference(adaptive, snap, ref[adaptive.name])

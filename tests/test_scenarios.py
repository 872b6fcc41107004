"""Every CLI scenario end to end at a small fixed-step size.

Each run must exit 0, write the expected artifact files, and reproduce the
frozen summary values: non-floats exactly, floats within 1e-9 relative.

    PYTHONPATH=src python tests/test_scenarios.py --freeze   # rewrite the fixture
"""
import json
import math
import sys
from pathlib import Path

import pytest

from todalab.cli import config_from_dict, default_config, run_config

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


def run_scenario(scenario: str, outdir: Path):
    code = run_config(config_from_dict(small_config(scenario)), outdir)
    files = sorted(p.name for p in outdir.iterdir())
    summary = json.loads((outdir / "summary.json").read_text())
    return code, files, summary


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

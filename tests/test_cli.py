import filecmp
import json
import subprocess
import sys

import pytest

from todalab.cli import (ConfigError, _apply_axis, _parse_values,
                         config_from_dict, default_config, load_config, main)


def small_run_config(**overrides):
    raw = default_config()
    raw.update(window=61, t_final=1.0, sample_dt=0.25,
               integrator={"method": "rk4-fixed", "step": 0.02})
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def _hierarchy_overrides(r):
    """A hierarchy run of order r on a window of 41 sites, which holds r <= 18."""
    return {"scenario": "hierarchy", "window": 41, "hierarchy": {"r": r, "c": [1.0] + [0.0] * r}}


def test_default_config_is_valid():
    cfg = config_from_dict(default_config())
    assert cfg.scenario == "toda-lightcone"
    assert cfg.resolved_base() == "background"
    mu, _ = __import__("todalab").optimal_mu()
    assert cfg.resolved_mu() == pytest.approx(mu)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.update(turbo=True), "turbo: unknown field"),
    (lambda r: r.update(window=12), "window: must be >= 2*guard + 10"),
    (lambda r: r.update(window="wide"), "window: expected an integer"),
    (lambda r: r.update(sample_dt=99.0), "sample_dt: must lie in (0, t_final]"),
    (lambda r: r.update(scenario="warp"), "scenario: unknown value 'warp'"),
    (lambda r: r.update(base="vacuum"), "base: unknown value 'vacuum'"),
    (lambda r: r.update(seeds=[[0, "x"]]), "seeds[0]: coord must be one of"),
    (lambda r: r.update(mu=-1.0), "mu: must be positive"),
    (lambda r: r.update(t_final=0.0), "t_final: must be positive"),
    # a guard below 1 turns the edge check off
    (lambda r: r.update(guard=-5, window=41, t_final=30.0), "guard: must be >= 1, got -5"),
    (lambda r: r.update(guard=0), "guard: must be >= 1, got 0"),
    (lambda r: r.update(_hierarchy_overrides(20)),
     "hierarchy.r: order 20 needs window >= 2r + 5 = 45, got 41"),
    # the last sample must fall on t_final, where the verdicts read the run
    (lambda r: r.update(t_final=1.0, sample_dt=0.35),
     "t_final: must be a whole number of sample_dt = 0.35, got 1"),
    (lambda r: r.update(t_final=5.0 + 1e-6), "t_final: must be a whole number of sample_dt = 0.1"),
])
def test_config_errors_name_the_field(mutate, fragment):
    raw = default_config()
    mutate(raw)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    print(exc.value)
    assert fragment in str(exc.value)


def test_hierarchy_weight_count_checked():
    raw = default_config()
    raw["scenario"] = "hierarchy"
    raw["hierarchy"] = {"r": 2, "c": [1.0, 0.5]}
    with pytest.raises(ConfigError, match=r"need r \+ 1 = 3 weights, got 2"):
        config_from_dict(raw)


def test_soliton_block_requirements():
    raw = default_config()
    raw["scenario"] = "soliton-validate"
    raw["soliton"] = {"sign": 1}
    with pytest.raises(ConfigError, match="soliton.kappa: required"):
        config_from_dict(raw)
    raw2 = default_config()
    raw2["base"] = "soliton"
    del raw2["soliton"]
    with pytest.raises(ConfigError, match='required when base is "soliton"'):
        config_from_dict(raw2)


def test_load_config_bad_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"scenario": "toda-lightcone",}')
    with pytest.raises(ConfigError, match="invalid JSON at line 1 column 31"):
        load_config(str(p))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/cfg.json")


def test_print_default_config_roundtrips(capsys):
    assert main(["print-default-config"]) == 0
    out = capsys.readouterr().out
    raw = json.loads(out)
    cfg = config_from_dict(raw)
    assert cfg.window == raw["window"]


def test_run_small_experiment(tmp_path, capsys):
    cfg = write_config(tmp_path, small_run_config())
    out = tmp_path / "out"
    code = main(["run", "-c", cfg, "--out", str(out)])
    assert code == 0
    assert "toda-lightcone: ok" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["exit"] == 0
    assert summary["clean"] is True
    assert summary["violations"] == 0
    assert summary["bound_speed"] > 0
    assert (out / "trajectory.csv").exists()
    assert (out / "sensitivity_m0_b.csv").exists()
    assert (out / "lightcone_toda_0_b.json").exists()


def test_run_forced_violation_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, small_run_config(envelope_scale=1e-9))
    out = tmp_path / "out"
    code = main(["run", "-c", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "first violation at" in captured.err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit"] == 1
    assert summary["violations"] > 0


def test_run_config_error_exits_2(tmp_path, capsys):
    raw = small_run_config(scenario="soliton-validate")
    raw["soliton"] = {"sign": 1}
    cfg = write_config(tmp_path, raw)
    code = main(["run", "-c", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: soliton.kappa: required" in captured.err


@pytest.mark.parametrize("overrides,fragment", [
    ({"window": 41, "seeds": [[500, "b"]]},
     "seeds[0]: site 500 outside the window [-20, 20]"),
    ({"scenario": "observables", "window": 41, "seeds": [[20, "b"]]},
     "seeds[0], obs_range: the brackets of b_20 read sites -20..60, outside the window"),
    ({"scenario": "observables", "window": 41, "seeds": [[-18, "b"]], "obs_range": 5},
     "seeds[0], obs_range: the brackets of b_-18 read sites -23..-13, outside the window"),
    ({"scenario": "observables", "window": 41, "seeds": [[-20, "b"]], "obs_range": 0},
     "seeds[0], obs_range: the brackets of b_-20 read sites -21..-20, outside the window"),
])
def test_seed_outside_window_exits_2_and_writes_nothing(tmp_path, capsys, overrides,
                                                        fragment):
    cfg = write_config(tmp_path, small_run_config(**overrides))
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "--out", str(out)]) == 2
    assert f"config error: {fragment}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"guard": 1}, _hierarchy_overrides(18), {"t_final": 0.3, "sample_dt": 0.1},
    {"t_final": 20.0, "sample_dt": 0.1}, {"t_final": 3.0, "sample_dt": 0.05},
], ids=["guard-1", "hierarchy-window", "t_final-0.3", "t_final-20", "t_final-3"])
def test_config_at_the_edge_of_the_new_checks_loads(overrides):
    config_from_dict(small_run_config(**overrides))


def test_sweep_over_r_rejects_an_order_the_window_cannot_hold(tmp_path, capsys):
    cfg = write_config(tmp_path, small_run_config(**_hierarchy_overrides(1)))
    out = tmp_path / "s"
    code = main(["sweep", "-c", cfg, "--axis", "r", "--values", "1,20", "--out", str(out)])
    assert code == 2
    assert "config error: hierarchy.r: order 20 needs window >= 2r + 5" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


def test_integrator_max_step_is_not_a_setting(tmp_path, capsys):
    raw = small_run_config()
    raw["integrator"] = {"method": "rk-adaptive", "max_step": 0.1}
    cfg = write_config(tmp_path, raw)
    assert main(["run", "-c", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: integrator:" in err and "max_step" in err


def test_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, small_run_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "-c", cfg, "--out", str(out1)]) == 0
    assert main(["run", "-c", cfg, "--out", str(out2)]) == 0
    for name in ("summary.json", "trajectory.csv", "sensitivity_m0_b.csv"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_parse_values():
    assert _parse_values("0.5, 1.0,2") == [0.5, 1.0, 2.0]
    with pytest.raises(ConfigError, match="'abc' is not a number"):
        _parse_values("0.5,abc")


def test_apply_axis_aliases_and_paths():
    raw = {"soliton": {"kappa": 1.0}, "hierarchy": {"r": 1, "c": [1.0, 0.0]},
           "mu": "optimal", "integrator": {"step": 0.02}}
    _apply_axis(raw, "kappa", 2.0)
    assert raw["soliton"]["kappa"] == 2.0
    _apply_axis(raw, "mu", 0.6)
    assert raw["mu"] == 0.6
    _apply_axis(raw, "integrator.step", 0.01)
    assert raw["integrator"]["step"] == 0.01
    # the order axis resets the weight vector to match
    _apply_axis(raw, "r", 3)
    assert raw["hierarchy"] == {"r": 3, "c": [1.0, 0.0, 0.0, 0.0]}
    with pytest.raises(ConfigError, match="no block"):
        _apply_axis(raw, "nothing.here", 1.0)


def test_sweep_kappa(tmp_path, capsys):
    # window 81 keeps the wide kappa = 0.5 profile off the guard zone, and the
    # finer step keeps the kappa = 1.5 norm drift under the gate
    raw = small_run_config(base="soliton", window=81,
                           integrator={"method": "rk4-fixed", "step": 0.01})
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "sweep"
    code = main(["sweep", "-c", cfg, "--axis", "kappa",
                 "--values", "0.5,1.0,1.5", "--out", str(out), "--workers", "3"])
    assert code == 0
    agg = json.loads((out / "sweep.json").read_text())
    assert agg["schema"] == 1
    assert agg["axis"] == "kappa"
    assert agg["values"] == [0.5, 1.0, 1.5]
    assert [r["exit"] for r in agg["results"]] == [0, 0, 0]
    for v in ("0.5", "1", "1.5"):
        assert (out / f"kappa={v}" / "summary.json").exists()
    # cone speed scales with the operator norm cosh(kappa)
    speeds = [r["summary"]["bound_speed"] for r in agg["results"]]
    print(speeds)
    assert speeds[0] < speeds[1] < speeds[2]


def test_sweep_empty_values_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, small_run_config())
    code = main(["sweep", "-c", cfg, "--axis", "kappa", "--values", " , ",
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "need at least one value" in capsys.readouterr().err


def test_sweep_validates_before_launching(tmp_path, capsys):
    raw = small_run_config()
    raw.pop("soliton", None)
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "s"
    code = main(["sweep", "-c", cfg, "--axis", "kappa",
                 "--values", "0.5", "--out", str(out)])
    assert code == 2          # kappa axis needs a soliton block in the config
    assert not (out / "sweep.json").exists()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "todalab", "print-default-config"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scenario"] == "toda-lightcone"


@pytest.mark.parametrize("content,fragment", [
    (None, "cannot read config"),
    ("[1]", "top level: expected an object"),
])
def test_sweep_unreadable_config_exits_2(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "s"
    code = main(["sweep", "-c", str(cfg), "--axis", "mu", "--values", "0.5",
                 "--out", str(out)])
    assert code == 2
    assert f"config error: {fragment}" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_nonpositive_workers_exits_2(tmp_path, capsys, workers):
    cfg = write_config(tmp_path, small_run_config(base="soliton"))
    out = tmp_path / "s"
    code = main(["sweep", "-c", cfg, "--axis", "kappa", "--values", "1.0",
                 "--out", str(out), "--workers", workers])
    assert code == 2
    assert "config error: --workers" in capsys.readouterr().err
    assert not out.exists()

import filecmp
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from todalab.bounds import toda_envelope
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
    # malformed values that used to escape as a traceback or be truncated
    (lambda r: r.update(scenario="hierarchy", hierarchy={"r": 0, "c": 1}),
     "hierarchy.c: expected a list, got 1"),
    (lambda r: r.update(seeds=5), "seeds: need a list of at least one (site, coord) pair"),
    (lambda r: r.update(seeds=[[0, ["b"]]]), "seeds[0]: coord must be one of ('a', 'b'), got ['b']"),
    (lambda r: r.update(seeds=[[0.5, "b"]]), "seeds[0]: expected [site, coord] pair"),
    (lambda r: r.update(scenario=["x"]), "scenario: unknown value ['x']"),
    (lambda r: r.update(json.loads('{"t_final": 1e400}')), "t_final: must be positive and finite"),
    (lambda r: r.update(base="random", seed=-1), "seed: must be >= 0, got -1"),
    (lambda r: r.update(window=201.7), "window: expected an integer, got 201.7"),
    (lambda r: r.update(scenario="hierarchy", hierarchy={"r": 1.5, "c": [1, 0]}),
     "hierarchy.r: expected an integer, got 1.5"),
    # a non-finite number anywhere used to pass (an infinite envelope_scale
    # makes every check pass), hang the solve or end in a traceback
    (lambda r: r.update(json.loads('{"envelope_scale": 1e400}')),
     "envelope_scale: must be finite, got inf"),
    (lambda r: r["integrator"].update(json.loads('{"tolerance": 1e400}')),
     "integrator.tolerance: must be finite, got inf"),
    (lambda r: r["perturbation"].update(w0=math.inf), "perturbation.w0: must be finite, got inf"),
    (lambda r: r["potential"].update(family="quartic", beta=math.inf),
     "potential.beta: must be finite, got inf"),
    (lambda r: r["hierarchy"].update(r=2, c=[1, 0, math.inf]), "hierarchy.c[2]: must be finite, got inf"),
    (lambda r: r["soliton"].update(kappa=math.inf), "soliton.kappa: must be finite, got inf"),
    (lambda r: r.update(seeds=[[math.nan, "b"]]), "seeds[0][0]: must be finite, got nan"),
    (lambda r: r["perturbation"].update(w0=10 ** 400), "perturbation.w0: must be finite, got 1000"),
    # a repeated seed was solved twice, each run writing over the other's files
    (lambda r: r.update(seeds=[[0, "b"], [1, "a"], [0, "b"]]), "seeds[2]: (0, 'b') repeats seeds[0]"),
    (lambda r: r.update(scenario="ghs", seeds=[[0, "a"], [0, "r"]]),
     "seeds[1]: (0, 'r') repeats seeds[0]"),
    # f(mu) = e^{mu+1} + 1/mu overflowing ended in an OverflowError traceback
    (lambda r: r.update(mu=1000), "mu: f(mu) overflows at mu = 1000"),
    # a front threshold of 0 fits the first nonzero sample, and a negative one
    # gave a null front speed with exit 0
    (lambda r: r.update(front_threshold=0), "front_threshold: must be positive, got 0"),
    (lambda r: r.update(front_threshold=-1), "front_threshold: must be positive, got -1"),
    # an overflowing sample count ended in an OverflowError traceback
    (lambda r: r.update(t_final=1e300, sample_dt=1e-300), "t_final: t_final / sample_dt overflows"),
    # a block key that no run reads was accepted and silently ignored
    (lambda r: r.update(perturbation={"family": "cosine", "w0": 0.1, "w1_norm": 5}),
     "perturbation.w1_norm: unknown field"),
    (lambda r: r.update(potential={"family": "quartic", "beta": 0.1, "v": 3}),
     "potential.v: unknown field"),
    (lambda r: r.update(potential={"family": "toda", "beta": 0.5}),
     "potential: the toda family takes no beta, got 0.5"),
    # the custom families took callables, which no JSON config can give
    (lambda r: r.update(perturbation={"family": "custom"}), "perturbation: unknown family 'custom'"),
    (lambda r: r.update(potential={"family": "custom"}), "potential: unknown family 'custom'"),
    # a block's number was not cast, so the error named the block, not the key
    (lambda r: r["perturbation"].update(w0="small"), "perturbation.w0: expected a number, got 'small'"),
    (lambda r: r["soliton"].update(kappa=[1]), "soliton.kappa: expected a number, got [1]"),
    (lambda r: r["soliton"].update(sign=0.5), "soliton.sign: expected an integer, got 0.5"),
    (lambda r: r["integrator"].update(tolerance="tight"),
     "integrator.tolerance: expected a number, got 'tight'"),
    (lambda r: r["potential"].update(beta=None), "potential.beta: expected a number, got None"),
    # a number given as a string passed the finiteness check of the raw config
    (lambda r: r["soliton"].update(delta="-inf"), "soliton.delta: must be finite, got -inf"),
    # a JSON true or false was taken as the number 1 or 0: a bool is an int
    (lambda r: r["perturbation"].update(w0=False), "perturbation.w0: expected a number, got False"),
    (lambda r: r["integrator"].update(tolerance=True),
     "integrator.tolerance: expected a number, got True"),
    (lambda r: r.update(t_final=True), "t_final: expected a number, got True"),
    (lambda r: r.update(seed=False), "seed: expected an integer, got False"),
    (lambda r: r.update(window=True), "window: expected an integer, got True"),
    (lambda r: r.update(mu=True), 'mu: must be a positive number or "optimal"'),
    (lambda r: r.update(envelope_scale=True), "envelope_scale: expected a number, got True"),
    (lambda r: r["soliton"].update(kappa=True), "soliton.kappa: expected a number, got True"),
    (lambda r: r["soliton"].update(sign=True), "soliton.sign: expected an integer, got True"),
    (lambda r: r.update(seeds=[[True, "b"]]), "seeds[0]: expected [site, coord]"),
    (lambda r: r["hierarchy"].update(c=[1, True]), "hierarchy: c: expected numbers, got [1, True]"),
    # c was iterated, so "10" and {"1": 0, "0": 1} each gave the weights (1, 0)
    (lambda r: r["hierarchy"].update(c="10"), "hierarchy.c: expected a list, got '10'"),
    (lambda r: r["hierarchy"].update(c={"1": 0, "0": 1}),
     "hierarchy.c: expected a list, got {'1': 0, '0': 1}"),
])
def test_config_errors_name_the_field(mutate, fragment):
    raw = default_config()
    mutate(raw)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    print(exc.value)
    assert fragment in str(exc.value)


# what print-default-config prints; tools/compare_runs.py takes its base
# config from these bytes
PRINTED_DEFAULTS = {
    "scenario": "toda-lightcone", "window": 201, "guard": 10, "t_final": 5.0,
    "sample_dt": 0.1, "seeds": [[0, "b"]], "mu": "optimal", "base": "auto",
    "seed": 42, "envelope_scale": 1.0, "front_threshold": 1e-8, "obs_range": 40,
    "integrator": {"method": "rk-adaptive", "tolerance": 1e-10, "step": 0.01},
    "soliton": {"kappa": 1.0, "sign": 1, "delta": 0.0},
    "hierarchy": {"r": 1, "c": [1, 0]},
    "perturbation": {"family": "cosine", "w0": 0.1},
    "potential": {"family": "quartic", "beta": 0.1},
}


@pytest.mark.parametrize("key", sorted(set(default_config()) - {
    "scenario", "soliton", "hierarchy", "perturbation", "potential"}))
def test_omitted_key_takes_the_printed_default(key, capsys):
    """A config that omits a top-level key equals one that gives the value
    print-default-config prints, of the same type."""
    main(["print-default-config"])
    printed = json.loads(capsys.readouterr().out)
    given = config_from_dict(printed)
    omitted = config_from_dict({k: v for k, v in printed.items() if k != key})
    assert omitted == given
    assert type(getattr(omitted, key)) is type(getattr(given, key))


def test_block_numbers_take_their_declared_type():
    """A block's number is cast to its field's declared type, as a top-level
    number takes the type of its default: numeric strings included."""
    cfg = config_from_dict({**default_config(), "scenario": "ghs", "sample_dt": "0.1",
                            "soliton": {"kappa": "1", "sign": "-1"},
                            "perturbation": {"family": "cosine", "w0": "0.1"},
                            "potential": {"family": "quartic", "beta": 1},
                            "integrator": {"tolerance": "1e-10", "step": 1}})
    assert cfg.sample_dt == 0.1
    assert (cfg.soliton.kappa, cfg.soliton.sign) == (1.0, -1)
    assert type(cfg.soliton.kappa) is float and type(cfg.soliton.sign) is int
    assert cfg.perturbation.w0 == 0.1 and cfg.potential.beta == 1.0
    assert type(cfg.potential.beta) is float
    assert (cfg.integrator.tolerance, cfg.integrator.step) == (1e-10, 1.0)
    assert type(cfg.integrator.step) is float


def test_integral_floats_are_integers():
    """sweep --axis window passes floats, so an integral float is taken as
    the integer it equals."""
    cfg = config_from_dict({**default_config(), "window": 201.0, "seeds": [[1.0, "b"]],
                            "hierarchy": {"r": 1.0, "c": [1, 0]}})
    assert cfg.window == 201 and type(cfg.window) is int
    assert cfg.seeds == ((1, "b"),) and type(cfg.seeds[0][0]) is int
    assert cfg.hierarchy.r == 1 and type(cfg.hierarchy.r) is int


def test_hierarchy_weight_count_checked():
    raw = default_config()
    raw["scenario"] = "hierarchy"
    raw["hierarchy"] = {"r": 2, "c": [1.0, 0.5]}
    with pytest.raises(ConfigError, match=r"need r \+ 1 = 3 weights, got 2"):
        config_from_dict(raw)


def test_soliton_block_requirements():
    raw = default_config()
    raw["base"] = "soliton"
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


@pytest.mark.parametrize("content,fragment", [
    (b'{"scenario": "toda-lightcone", "window": 41, "t_final": 0.5, "seed": %s}' % (b"1" * 5000),
     "cannot parse config: Exceeds the limit (4300 digits)"),
    (b'{"scenario": "toda-lightcone", "base": "\xff"}',
     "cannot parse config: 'utf-8' codec can't decode byte 0xff"),
], ids=["5000-digit-seed", "not-utf8"])
def test_a_config_json_cannot_parse_exits_2(tmp_path, capsys, content, fragment):
    """json raises a plain ValueError for an integer literal of more than
    4300 digits and a UnicodeDecodeError for a file that is not UTF-8; both
    ended in a traceback with exit 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["run", "-c", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {fragment}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_print_default_config_roundtrips(capsys):
    assert main(["print-default-config"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(PRINTED_DEFAULTS, indent=2, sort_keys=True) + "\n"
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


def test_two_sample_run_reports_no_front_speed(tmp_path):
    """At t_final = sample_dt every distance first crosses at the one sample
    after t = 0, so the crossings share one time: the run exits 0 with no
    warning (polyfit's RankWarning is gone) and no front speed."""
    raw = small_run_config(t_final=0.5, sample_dt=0.5, integrator=default_config()["integrator"])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "-c", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["empirical_front_speed"] is None and summary["violations"] == 0


def test_cone_reports_carry_the_envelope_scale(tmp_path):
    """The envelope factories return the paper's prefactor; the CLI
    multiplies it by envelope_scale and records the scale in the report's
    params."""
    out = tmp_path / "out"
    assert main(["run", "-c", write_config(tmp_path, small_run_config(envelope_scale=0.75)),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    report = json.loads((out / "lightcone_toda_0_b.json").read_text())
    assert report["prefactor"] == 0.75 * toda_envelope(summary["mu"], summary["Lnorm"]).prefactor
    assert report["params"] == {"Lnorm": summary["Lnorm"], "scale": 0.75}


@pytest.mark.parametrize("overrides,fragment", [
    ({"eps": 0.5}, "eps: unknown field"),
    ({"scenario": "interpolation"}, "scenario: unknown value 'interpolation'"),
    ({"scenario": "timedep"}, "scenario: unknown value 'timedep'"),
    ({"scenario": "soliton-validate"},
     "scenario: unknown value 'soliton-validate'; pick one of ('toda-lightcone', "
     "'hierarchy', 'perturbed', 'observables', 'ghs')"),
], ids=["eps", "interpolation", "timedep", "soliton-validate"])
def test_a_removed_key_or_scenario_exits_2(overrides, fragment, tmp_path, capsys):
    """The interpolation scenario, whose fitted envelope majorized any
    grid, and its eps key are gone, and so are timedep, whose cone perturbed
    checks on the same runs, and soliton-validate, whose closed-form check
    toda-lightcone makes on a soliton base: a config naming any of them is
    refused, and the error names the known scenarios."""
    out = tmp_path / "out"
    assert main(["run", "-c", write_config(tmp_path, small_run_config(**overrides)),
                 "--out", str(out)]) == 2
    assert f"config error: {fragment}" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_error_exits_2(tmp_path, capsys):
    raw = small_run_config(base="soliton")
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


@pytest.mark.parametrize("values,fragment", [
    ("1,20", "hierarchy.r: order 20 needs window >= 2r + 5"),
    # a fractional order ran the truncated one, and nan or inf ended in a traceback
    ("1.5", "--axis r: expected an integer order, got 1.5"),
    ("nan", "--axis r: expected an integer order, got nan"),
    ("inf", "--axis r: expected an integer order, got inf"),
], ids=["20", "1.5", "nan", "inf"])
def test_sweep_over_r_rejects_an_order_the_window_cannot_hold(values, fragment, tmp_path, capsys):
    cfg = write_config(tmp_path, small_run_config(**_hierarchy_overrides(1)))
    out = tmp_path / "s"
    code = main(["sweep", "-c", cfg, "--axis", "r", "--values", values, "--out", str(out)])
    assert code == 2
    assert f"config error: {fragment}" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


def test_integrator_max_step_is_not_a_setting(tmp_path, capsys):
    raw = small_run_config()
    raw["integrator"] = {"method": "rk-adaptive", "max_step": 0.1}
    cfg = write_config(tmp_path, raw)
    assert main(["run", "-c", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: integrator.max_step: unknown field" in err


def test_potential_confining_is_not_a_setting(tmp_path, capsys):
    """A potential that does not confine is found by confinement_bound, so
    there is no flag to declare one: the key is a config error."""
    raw = small_run_config(scenario="ghs")
    raw["potential"] = {"family": "quartic", "beta": 0.1, "confining": False}
    cfg = write_config(tmp_path, raw)
    assert main(["run", "-c", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: potential.confining: unknown field" in err
    assert not (tmp_path / "out").exists()


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
                 "--values", "0.5,1.0,1.5", "--out", str(out)])
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


def test_sweep_rejects_values_that_share_a_directory(tmp_path, capsys):
    """1 and 1.0000001 both print as kappa=1: two jobs would write one
    directory, so the sweep is a config error before any job runs."""
    cfg = write_config(tmp_path, small_run_config(base="soliton"))
    out = tmp_path / "s"
    code = main(["sweep", "-c", cfg, "--axis", "kappa", "--values", "1,1.0000001",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: --values: 1.0 and 1.0000001 would both write kappa=1" in err
    assert not out.exists()


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
    # the checkout's package, installed or not
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "todalab", "print-default-config"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scenario"] == "toda-lightcone"


def test_the_cli_starts_without_scipy_integrate_optimize_or_special(tmp_path):
    """A fresh interpreter that imports the CLI and parses every scenario's
    default config, the set-up of each `todalab run` and of perfbench's
    set-up child, loads no scipy module: scipy.integrate, scipy.optimize
    and scipy.special took two thirds of that set-up, and scipy.linalg,
    loaded where a norm is taken, most of the rest.  A toda-lightcone run
    under rk-adaptive loads none of the first three, nor do the two runs
    that build a soliton's closed form, observables and toda-lightcone on
    a soliton base."""
    code = """if True:
        import json, sys
        import todalab.cli as cli
        heavy = ("scipy.integrate", "scipy.optimize", "scipy.special")
        loaded, codes = [], []
        for name in cli.SCENARIOS:
            path = f"{sys.argv[1]}/{name}.json"
            with open(path, "w") as fh:
                json.dump({**cli.default_config(), "scenario": name}, fh)
            cli.load_config(path)
        loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        cfg = cli.config_from_dict({**cli.default_config(), "window": 41, "t_final": 0.5})
        codes.append(cli.run_config(cfg, f"{sys.argv[1]}/run"))
        loaded.append([m for m in heavy if m in sys.modules])
        for i, raw in enumerate([{"scenario": "observables", "obs_range": 5},
                                 {"scenario": "toda-lightcone", "base": "soliton"}]):
            soliton = cli.config_from_dict({**cli.default_config(), "window": 81,
                                            "t_final": 0.5, **raw})
            assert soliton.resolved_base() == "soliton"
            codes.append(cli.run_config(soliton, f"{sys.argv[1]}/soliton{i}"))
        loaded.append([m for m in heavy if m in sys.modules])
        print(json.dumps([codes, cfg.integrator.method, loaded]))
    """
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], "rk-adaptive", [[], [], []]]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("below,error", [("", "File exists"), ("sub", "Not a directory")],
                         ids=["file", "below-a-file"])
def test_an_out_that_cannot_be_a_directory_exits_2(command, below, error, tmp_path, capsys,
                                                    monkeypatch):
    """An --out that names a file, or a path below one, ended in a
    FileExistsError or NotADirectoryError traceback with exit 1; it is a
    config error, found before any solve."""
    monkeypatch.setattr("todalab.cli.evolve_tangent", None)      # any solve fails
    cfg = write_config(tmp_path, small_run_config())
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / below if below else afile
    args = ["--axis", "mu", "--values", "0.5"] if command == "sweep" else []
    assert main([command, "-c", cfg, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: --out: [Errno" in err and f"{error}: '{out}'" in err
    assert afile.read_text() == "kept"


def test_a_job_directory_that_cannot_be_made_exits_2(tmp_path, capsys, monkeypatch):
    """A file where a job's directory goes failed that job alone, recorded
    in sweep.json with exit 1, the code of a failed verification; every
    job's directory is made before any job runs, so it is a config error
    naming --out, and no job runs."""
    monkeypatch.setattr("todalab.cli.evolve_tangent", None)      # any solve fails
    cfg = write_config(tmp_path, small_run_config())
    out = tmp_path / "s"
    out.mkdir()
    (out / "mu=0.5").write_text("kept")
    code = main(["sweep", "-c", cfg, "--axis", "mu", "--values", "0.25,0.5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: --out: [Errno 17] File exists: '{out / 'mu=0.5'}'" in err
    assert (out / "mu=0.5").read_text() == "kept"
    assert not (out / "sweep.json").exists()


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


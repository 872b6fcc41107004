"""The difference helpers of tools/compare_runs.py, without running a tree."""
import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def test_json_diff_nan_matches_nan():
    old = {"r2": math.nan, "fits": [{"D": math.nan}]}
    assert list(compare_runs.json_diff(old, json.loads(json.dumps(old)))) == []


def test_json_diff_lists_changed_added_and_removed_keys():
    old = {"a": 1, "b": {"c": 2.0, "gone": True}, "same": [1, 2]}
    new = {"a": 1, "b": {"c": 2.5, "new": None}, "same": [1, 2]}
    assert list(compare_runs.json_diff(old, new)) == [
        "b.c: 2.0 -> 2.5", "b.gone: removed (was True)", "b.new: added (None)"]
    # an int and an equal float are different JSON values
    assert list(compare_runs.json_diff({"n": 1}, {"n": 1.0})) == ["n: 1 -> 1.0"]


def test_file_diff_counts_differing_rows(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("t,n\n0,1\n1,2\n2,3\n")
    new.write_text("t,n\n0,1\n1,9\n2,3\n3,4\n")
    assert compare_runs.file_diff(old, old) == []
    # one changed row and one added row
    assert compare_runs.file_diff(old, new) == ["2 of 4 rows differ"]


def test_file_diff_of_json_names_the_keys(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text('{"ok": true, "v": 1.5}')
    new.write_text('{"ok": true, "v": 1.25}')
    assert compare_runs.file_diff(old, new) == ["v: 1.5 -> 1.25"]


def test_is_strict_json_rejects_nan_and_infinity(tmp_path):
    path = tmp_path / "a.json"
    for text, strict in (('{"x": null, "y": [1, 2.5]}', True), ('{"x": NaN}', False),
                         ('{"x": Infinity}', False), ('[-Infinity]', False)):
        path.write_text(text)
        assert compare_runs.is_strict_json(path) is strict, text


def test_tally_counts_differences_per_integrator():
    labels = ["perturbed rk-adaptive seeds=1", "ghs rk-adaptive seeds=3",
              "ghs rk-adaptive seeds=3"]
    configs = len(compare_runs.SCENARIOS) * len(compare_runs.SEEDS)
    assert compare_runs.tally(labels) == [f"rk-adaptive: {configs} configs, 3 differences",
                                          f"rk4-fixed: {configs} configs, 0 differences"]
    assert compare_runs.tally([]) == [f"rk-adaptive: {configs} configs, 0 differences",
                                      f"rk4-fixed: {configs} configs, 0 differences"]
    assert configs == 16


def test_extra_configs_are_labelled_and_tallied_under_their_integrator():
    base = {"integrator": {"method": "rk-adaptive", "tolerance": 1e-10}}
    fixed = {"scenario": "perturbed", "integrator": {"method": "rk4-fixed", "step": 0.01}}
    assert compare_runs.config_method(fixed, base) == "rk4-fixed"
    assert compare_runs.config_method({"scenario": "hierarchy"}, base) == "rk-adaptive"
    with pytest.raises(SystemExit, match="'euler'"):
        compare_runs.config_method({"integrator": {"method": "euler"}}, base)

    labels = [compare_runs.run_label("ghs", "rk4-fixed", 3),
              compare_runs.run_label("bench configs/rk4-fixed.json", "rk-adaptive")]
    assert labels == ["ghs rk4-fixed seeds=3", "bench configs/rk4-fixed.json rk-adaptive"]
    assert [compare_runs.label_method(label) for label in labels] == ["rk4-fixed", "rk-adaptive"]
    assert compare_runs.tally([labels[1], labels[1]],
                              ["rk-adaptive", "rk-adaptive", "rk4-fixed"]) == [
        "rk-adaptive: 18 configs, 2 differences", "rk4-fixed: 17 configs, 0 differences"]

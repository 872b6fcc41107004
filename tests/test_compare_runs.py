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
        "b.c: 2.0 -> 2.5 (rel 2.0e-01)", "b.gone: removed (was True)", "b.new: added (None)"]
    # an int and an equal float are different JSON values
    assert list(compare_runs.json_diff({"n": 1}, {"n": 1.0})) == ["n: 1 -> 1.0"]


def test_file_diff_counts_differing_rows(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("t,n\n0,1\n1,2\n2,3\n")
    new.write_text("t,n\n0,1\n1,9\n2,3\n3,4\n")
    assert compare_runs.file_diff(old, old) == []
    # one changed row and one added row
    assert compare_runs.file_diff(old, new) == [
        "2 of 4 rows differ; differing cells: 1, largest absolute difference: 7"]


def test_file_diff_counts_cells_and_the_largest_difference(tmp_path):
    """Cells are compared in the rows both files hold: a changed number
    gives its absolute difference, a changed header cell or a cell one row
    lacks counts without one, and a NaN against a number makes it NaN."""
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("t,n,a,b\n0,-1,0.5,1e-300\n0,0,0.25,-0\n0,1,2,3\n")
    new.write_text("t,n,a,c\n0,-1,0.5,-1e-300\n0,0,0.125,0\n0,1,2\n")
    assert compare_runs.file_diff(old, new) == [
        "4 of 4 rows differ; differing cells: 5, largest absolute difference: 0.125"]
    cells, largest = compare_runs.cell_diff([b"0,1,2"], [b"0,1,nan"])
    assert cells == 1 and math.isnan(largest)
    assert compare_runs.cell_diff([b"0,1,inf"], [b"0,1,2"]) == (1, math.inf)
    assert compare_runs.cell_diff([b"x"], [b"x"]) == (0, 0.0)


def test_file_diff_of_json_names_the_keys(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text('{"ok": true, "v": 1.5}')
    new.write_text('{"ok": true, "v": 1.25}')
    assert compare_runs.file_diff(old, new) == ["v: 1.5 -> 1.25 (rel 1.7e-01)"]


def test_is_strict_json_rejects_nan_and_infinity(tmp_path):
    path = tmp_path / "a.json"
    for text, strict in (('{"x": null, "y": [1, 2.5]}', True), ('{"x": NaN}', False),
                         ('{"x": Infinity}', False), ('[-Infinity]', False)):
        path.write_text(text)
        assert compare_runs.is_strict_json(path) is strict, text


def test_tally_counts_differences_per_integrator():
    labels = ["perturbed rk-adaptive seeds=1", "ghs rk-adaptive seeds=3",
              "ghs rk-adaptive seeds=3"]
    configs = len(compare_runs.CASES) * len(compare_runs.SEEDS)
    assert compare_runs.tally(labels) == [f"rk-adaptive: {configs} configs, 3 differences",
                                          f"rk4-fixed: {configs} configs, 0 differences"]
    assert compare_runs.tally([]) == [f"rk-adaptive: {configs} configs, 0 differences",
                                      f"rk4-fixed: {configs} configs, 0 differences"]
    assert configs == 14


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
        "rk-adaptive: 16 configs, 2 differences", "rk4-fixed: 15 configs, 0 differences"]


def test_benchmark_configs_join_the_scenario_configs():
    """The benchmark's four scenario configs run by default after the 28
    scenario configs, each under its own integrator."""
    bench = compare_runs.bench_configs()
    assert [name for name, _ in bench] == ["bench toda-lightcone-bg", "bench hierarchy-r3",
                                           "bench brackets-soliton", "bench perturbed-fixed"]
    assert dict(bench)["bench perturbed-fixed"]["seed"] == 42
    base = {"integrator": {"method": "rk-adaptive"}}
    methods = [compare_runs.config_method(config, base) for _, config in bench]
    assert compare_runs.tally([], methods) == ["rk-adaptive: 17 configs, 0 differences",
                                               "rk4-fixed: 15 configs, 0 differences"]


def test_shared_base_drops_the_keys_only_the_parent_prints():
    """A key the change no longer prints leaves the base, which keeps the
    parent's values of the rest; a key only the change prints is not added,
    so each tree gives an omitted key its own default."""
    parent = {"scenario": "toda-lightcone", "mu": "optimal", "eps": 0.5, "gone": None}
    change = {"scenario": "ghs", "mu": 0.3, "added": 1}
    assert compare_runs.shared_base(parent, change) == (
        {"scenario": "toda-lightcone", "mu": "optimal"}, ["eps", "gone"])
    assert compare_runs.shared_base(parent, parent) == (parent, [])


def test_src_lines_counts_the_package_as_wc_does(tmp_path):
    """The report's last line counts each tree's src/todalab/*.py as wc -l
    does: newlines, so a last line without one is not counted; files
    outside the package and other suffixes are not counted."""
    package = tmp_path / "src" / "todalab"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\nno newline")
    (package / "notes.txt").write_text("1\n2\n")
    (tmp_path / "src" / "setup.py").write_text("1\n")
    assert compare_runs.src_lines(tmp_path / "src") == 3
    repo_src = Path(compare_runs.__file__).resolve().parents[1] / "src"
    assert compare_runs.src_lines(repo_src) == sum(
        len(p.read_bytes().splitlines()) for p in (repo_src / "todalab").glob("*.py"))

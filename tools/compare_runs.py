"""Run every CLI scenario from two source trees and report what differs.

    python3 tools/compare_runs.py PARENT_SRC CHANGE_SRC [CONFIG.json ...]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts, for
example an export of the parent commit made with

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent   # PARENT_SRC=/tmp/parent/src

Each of the 5 scenarios, and `toda-lightcone` on the soliton base too, whose
base run it checks against the closed form, runs at the parent's
`default_config()` under rk-adaptive and rk4-fixed, with 1 and 3 seeds, once
from each tree (`python3 -m todalab run`, one process at a time, artifacts
in a temporary directory): 24 configs.  A top-level key that the parent prints and the
change does not is dropped from that base config, and the report names it
first: the change would refuse it as an unknown field, and the parent gives
an omitted key the default it prints.  Then the benchmark's 4 scenario configs run, as
`SCENARIOS[name].run_config(DEFAULT_SEED)` of perfbench/workloads.py (read,
never written, from the checkout holding this tool) gives them; they reach
sizes the defaults do not (N=1001, t=20).  Each extra CONFIG.json runs last.
A benchmark or extra config runs once from each tree as it is, under its
own integrator (the parent's default when it names none).  The report lists
differing exit codes and stderr, artifact files present in one tree only,
and files whose bytes differ: for a JSON file every differing key, with the
relative difference of a moved float, and for a CSV file the number of
differing rows and cells and the largest absolute difference of the
differing cells' values.  It also lists every JSON artifact, in either
tree, that is not strict JSON (holds a NaN or Infinity token).
It ends with one tally per integrator, for example `rk4-fixed: 13 configs,
0 differences`, the benchmark and extra configs counted under theirs, and
with the line count of each tree's package, `wc -l src/todalab/*.py`, as
`src lines: 3402 -> 3360`.  Exit
status 0 when every run matches byte for byte and every JSON artifact is
strict, 1 otherwise.
"""
from __future__ import annotations

import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("toda-lightcone", "hierarchy", "perturbed", "observables", "ghs")
# the config keys of each case: every scenario at its "auto" base, and
# toda-lightcone on a soliton base, the one base with a closed form
CASES = {**{name: {"scenario": name} for name in SCENARIOS},
         "toda-lightcone-soliton": {"scenario": "toda-lightcone", "base": "soliton"}}
INTEGRATORS = {"rk-adaptive": {"method": "rk-adaptive", "tolerance": 1e-10},
               "rk4-fixed": {"method": "rk4-fixed", "step": 0.01}}
# seed sites 0 and 1 are adjacent, so observables reuses the grid they share
SEEDS = {1: [[0, "b"]], 3: [[0, "b"], [0, "a"], [1, "b"]]}
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _todalab(src, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    return subprocess.run([sys.executable, "-m", "todalab", *args], env=env,
                          capture_output=True, text=True)


def _run(src, config: dict, workdir: Path):
    """Exit code, stderr (the output directory written as OUT) and the
    output directory of one run."""
    workdir.mkdir(parents=True)
    cfg_path, out = workdir / "config.json", workdir / "out"
    cfg_path.write_text(json.dumps(config))
    proc = _todalab(src, "run", "-c", str(cfg_path), "--out", str(out))
    return proc.returncode, proc.stderr.replace(str(out), "OUT"), out


def json_diff(old, new, where=""):
    """One line per differing, added or removed key of two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            path = f"{where}.{key}" if where else key
            if key not in new:
                yield f"{path}: removed (was {old[key]!r})"
            elif key not in old:
                yield f"{path}: added ({new[key]!r})"
            else:
                yield from json_diff(old[key], new[key], path)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from json_diff(o, n, f"{where}[{i}]")
    elif type(old) is not type(new) or (old != new and not (old != old and new != new)):
        yield f"{where}: {old!r} -> {new!r}" + relative_difference(old, new)


def relative_difference(old, new) -> str:
    """' (rel 1.7e-01)' for two finite floats that differ: |new - old| over
    the larger magnitude; empty for any other pair."""
    if type(old) is float and type(new) is float and math.isfinite(old) and math.isfinite(new):
        return f" (rel {abs(new - old) / max(abs(old), abs(new)):.1e})"
    return ""


def is_strict_json(path: Path) -> bool:
    """Whether the file parses as JSON without NaN or Infinity tokens."""
    def reject(token):
        raise ValueError(token)
    try:
        json.loads(path.read_text(), parse_constant=reject)
    except ValueError:
        return False
    return True


def file_diff(old: Path, new: Path):
    """Lines describing how two artifact files differ; none when byte-equal."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return []
    if old.suffix == ".json":
        return list(json_diff(json.loads(a), json.loads(b))) or ["bytes differ"]
    rows_a, rows_b = a.splitlines(), b.splitlines()
    changed = sum(x != y for x, y in zip(rows_a, rows_b)) + abs(len(rows_a) - len(rows_b))
    cells, largest = cell_diff(rows_a, rows_b)
    return [f"{changed} of {len(rows_a)} rows differ; differing cells: {cells}, "
            f"largest absolute difference: {largest:.6g}"]


def cell_diff(rows_a, rows_b):
    """(differing cells, largest absolute difference of their values) over
    the CSV rows both files hold, cell by cell.  A cell in one row only, or
    whose text is not a number (a header), counts but has no difference; a
    NaN against anything else makes the largest difference NaN."""
    cells, diffs = 0, []
    for x, y in zip(rows_a, rows_b):
        for u, v in itertools.zip_longest(x.split(b","), y.split(b",")):
            if u != v:
                cells += 1
                try:
                    diffs.append(abs(float(u) - float(v)))
                except (TypeError, ValueError):
                    pass
    return cells, math.nan if any(d != d for d in diffs) else max(diffs, default=0.0)


def run_label(name, method, n_seeds=None) -> str:
    """The label of one config's runs: the case (or config file) name,
    the integrator method and, for a case, the seed count."""
    return f"{name} {method}" + ("" if n_seeds is None else f" seeds={n_seeds}")


def label_method(label) -> str:
    """The integrator method a run_label names: its last word that is one."""
    return next(word for word in reversed(label.split()) if word in INTEGRATORS)


def config_method(config: dict, base: dict) -> str:
    """The integrator method a config runs under; base is the default config."""
    method = config.get("integrator", {}).get("method", base["integrator"]["method"])
    if method not in INTEGRATORS:
        raise SystemExit(f"integrator method {method!r} is not one of {tuple(INTEGRATORS)}")
    return method


def compare_run(parent_src, change_src, config: dict, workdir: Path):
    """Lines describing how one config's runs from the two trees differ."""
    code_p, err_p, out_p = _run(parent_src, config, workdir / "parent")
    code_c, err_c, out_c = _run(change_src, config, workdir / "change")
    if code_p != code_c:
        yield f"exit {code_p} -> {code_c}"
    if err_p != err_c:
        yield f"stderr {err_p.strip()!r} -> {err_c.strip()!r}"
    files_p = {p.name for p in out_p.iterdir()} if out_p.is_dir() else set()
    files_c = {p.name for p in out_c.iterdir()} if out_c.is_dir() else set()
    for name in sorted(files_p - files_c):
        yield f"{name}: only in parent"
    for name in sorted(files_c - files_p):
        yield f"{name}: only in change"
    for name in sorted(files_p & files_c):
        for line in file_diff(out_p / name, out_c / name):
            yield f"{name}: {line}"
    for tree, out, files in (("parent", out_p, files_p), ("change", out_c, files_c)):
        for name in sorted(files):
            if name.endswith(".json") and not is_strict_json(out / name):
                yield f"{name}: not strict JSON in {tree}"


def default_config(src) -> dict:
    """The default config of the todalab in src."""
    proc = _todalab(src, "print-default-config")
    if proc.returncode:
        raise SystemExit(f"cannot run todalab from {src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def shared_base(parent: dict, change: dict):
    """(base, dropped): the parent's default config without the top-level
    keys that the change's default config lacks, and those keys, sorted."""
    dropped = sorted(parent.keys() - change.keys())
    return {key: value for key, value in parent.items() if key in change}, dropped


def bench_configs() -> list:
    """(name, config) of each benchmark scenario, at the benchmark's
    default seed, as perfbench/workloads.py builds them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    # registered before it runs, as its dataclasses look their module up
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(f"bench {name}", scenario.run_config(workloads.DEFAULT_SEED))
            for name, scenario in workloads.SCENARIOS.items()]


def compare(parent_src, change_src, workdir: Path, base: dict, extra=()):
    """Yield (run label, difference) pairs over every case, integrator and
    seed count of the default config base, then over the extra configs,
    given as (name, config, integrator method)."""
    runs = [(run_label(case, method, n_seeds),
             {**base, **keys, "integrator": integrator, "seeds": seeds})
            for case, keys in CASES.items()
            for method, integrator in INTEGRATORS.items()
            for n_seeds, seeds in SEEDS.items()]
    runs += [(run_label(name, method), config) for name, config, method in extra]
    for i, (label, config) in enumerate(runs):
        for line in compare_run(parent_src, change_src, config, workdir / str(i)):
            yield label, line


def tally(labels, extra_methods=()) -> list:
    """One line per integrator: how many configs ran under it, the case
    grid's and the extra configs' (given by their methods), and how many of
    the differences, given by their run labels, came from those configs."""
    configs = dict.fromkeys(INTEGRATORS, len(CASES) * len(SEEDS))
    for method in extra_methods:
        configs[method] += 1
    found = dict.fromkeys(INTEGRATORS, 0)
    for label in labels:
        found[label_method(label)] += 1
    return [f"{method}: {configs[method]} configs, {n} differences"
            for method, n in found.items()]


def src_lines(src) -> int:
    """The lines of the package in the src directory src, as `wc -l
    todalab/*.py` counts them: its newline characters."""
    return sum(path.read_bytes().count(b"\n") for path in (Path(src) / "todalab").glob("*.py"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, dropped = shared_base(default_config(argv[0]), default_config(argv[1]))
    for key in dropped:
        print(f"base config: {key} dropped (the change does not print it)", flush=True)
    named = bench_configs() + [(path, json.loads(Path(path).read_text())) for path in argv[2:]]
    extra = [(name, config, config_method(config, base)) for name, config in named]
    labels = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, line in compare(argv[0], argv[1], Path(tmp), base, extra):
            labels.append(label)
            print(f"{label}: {line}", flush=True)
    runs = len(CASES) * len(INTEGRATORS) * len(SEEDS) + len(extra)
    print(f"{runs} configs run from each tree, {len(labels)} differences")
    print("\n".join(tally(labels, [method for _, _, method in extra])))
    print(f"src lines: {src_lines(argv[0])} -> {src_lines(argv[1])}")
    return 1 if labels else 0


if __name__ == "__main__":
    sys.exit(main())

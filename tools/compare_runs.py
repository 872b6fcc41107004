"""Run every CLI scenario from two source trees and report what differs.

    python3 tools/compare_runs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts, for
example an export of the parent commit made with

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent   # PARENT_SRC=/tmp/parent/src

Each of the 8 scenarios runs at the parent's `default_config()` under
rk-adaptive and rk4-fixed, with 1 and 3 seeds, once from each tree
(`python3 -m todalab run`, one process at a time, artifacts in a temporary
directory).  The report lists differing exit codes and stderr, artifact files
present in one tree only, and files whose bytes differ: for a JSON file every
differing key, for a CSV file the number of differing rows.  It also lists
every JSON artifact, in either tree, that is not strict JSON (holds a NaN or
Infinity token).  It ends with one tally per integrator, for example
`rk4-fixed: 16 configs, 0 differences`.  Exit status 0 when every run matches byte for byte and
every JSON artifact is strict, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("toda-lightcone", "soliton-validate", "hierarchy", "perturbed",
             "interpolation", "timedep", "observables", "ghs")
INTEGRATORS = {"rk-adaptive": {"method": "rk-adaptive", "tolerance": 1e-10},
               "rk4-fixed": {"method": "rk4-fixed", "step": 0.01}}
# seed sites 0 and 1 are adjacent, so observables reuses the grid they share
SEEDS = {1: [[0, "b"]], 3: [[0, "b"], [0, "a"], [1, "b"]]}


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
        yield f"{where}: {old!r} -> {new!r}"


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
    return [f"{changed} of {len(rows_a)} rows differ"]


def compare(parent_src, change_src, workdir: Path):
    """Yield (run label, difference) pairs over every scenario, integrator
    and seed count."""
    proc = _todalab(parent_src, "print-default-config")
    if proc.returncode:
        raise SystemExit(f"cannot run todalab from {parent_src}: {proc.stderr.strip()}")
    base = json.loads(proc.stdout)
    for scenario in SCENARIOS:
        for method, integrator in INTEGRATORS.items():
            for n_seeds, seeds in SEEDS.items():
                label = f"{scenario} {method} seeds={n_seeds}"
                config = {**base, "scenario": scenario, "integrator": integrator,
                          "seeds": seeds}
                sub = workdir / f"{scenario}-{method}-{n_seeds}"
                code_p, err_p, out_p = _run(parent_src, config, sub / "parent")
                code_c, err_c, out_c = _run(change_src, config, sub / "change")
                if code_p != code_c:
                    yield label, f"exit {code_p} -> {code_c}"
                if err_p != err_c:
                    yield label, f"stderr {err_p.strip()!r} -> {err_c.strip()!r}"
                files_p = {p.name for p in out_p.iterdir()} if out_p.is_dir() else set()
                files_c = {p.name for p in out_c.iterdir()} if out_c.is_dir() else set()
                for name in sorted(files_p - files_c):
                    yield label, f"{name}: only in parent"
                for name in sorted(files_c - files_p):
                    yield label, f"{name}: only in change"
                for name in sorted(files_p & files_c):
                    for line in file_diff(out_p / name, out_c / name):
                        yield label, f"{name}: {line}"
                for tree, out, files in (("parent", out_p, files_p), ("change", out_c, files_c)):
                    for name in sorted(files):
                        if name.endswith(".json") and not is_strict_json(out / name):
                            yield label, f"{name}: not strict JSON in {tree}"


def tally(labels) -> list:
    """One line per integrator: how many configs ran under it and how many of
    the differences, given by their run labels, came from those configs."""
    found = dict.fromkeys(INTEGRATORS, 0)
    for label in labels:
        found[label.split()[1]] += 1
    configs = len(SCENARIOS) * len(SEEDS)
    return [f"{method}: {configs} configs, {n} differences" for method, n in found.items()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    labels = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, line in compare(argv[0], argv[1], Path(tmp)):
            labels.append(label)
            print(f"{label}: {line}", flush=True)
    runs = len(SCENARIOS) * len(INTEGRATORS) * len(SEEDS)
    print(f"{runs} configs run from each tree, {len(labels)} differences")
    print("\n".join(tally(labels)))
    return 1 if labels else 0


if __name__ == "__main__":
    sys.exit(main())

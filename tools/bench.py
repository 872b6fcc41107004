"""Time todalab's layers at fixed sizes and write the numbers as one JSON file.

    python3 tools/bench.py BENCH_<n>.json

The layer timed so far is the tangent field, todalab.make_flow(name,
spec)(state, da, db), the one call every tangent solve makes at each stage:

- toda;
- perturbed, cosine family, w0 = 0.1;
- hierarchy of order r in {0, 1, 3, 5}, weights c = (1, 0, ..., 0);
- ghs, quartic family, beta = 0.1.

Each lattice field runs on random_localized_state(N), the ghs field on
bump_chain(N), the start state of the ghs scenario, each along a fixed
random tangent, at the window sizes N in SIZES (201, 1001 and 4001).  A
case is timed in ROUNDS rounds of the same number of evaluations, that
number doubled from 1 until one round takes at least ROUND_S seconds; it
reports the microseconds per evaluation of its fastest and slowest round.
The file also records the commit of the checkout, the Python and numpy
versions and the number of CPUs, since the times mean nothing without them.

The tool reads todalab through its public names only, from the src
directory of the checkout that holds it, and needs nothing but numpy and the
standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import timeit
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (201, 1001, 4001)
ROUNDS = 5
ROUND_S = 0.01
SCHEMA = 1


def field_cases():
    """(case name, flow name, spec, state builder) of every tangent field
    timed; a builder maps the window size N to the state."""
    from todalab import (HierarchySpec, PerturbationSpec, PotentialSpec, bump_chain,
                         random_localized_state)

    cases = [("toda", "toda", None, random_localized_state),
             ("perturbed-cosine", "perturbed", PerturbationSpec("cosine", 0.1),
              random_localized_state)]
    cases += [(f"hierarchy-r{r}", "hierarchy", HierarchySpec(r, (1.0,) + (0.0,) * r),
               random_localized_state) for r in (0, 1, 3, 5)]
    cases.append(("ghs-quartic", "ghs", PotentialSpec("quartic", 0.1), bump_chain))
    return cases


def time_per_eval(call):
    """(evaluations per round, [seconds per evaluation of each round]): the
    count doubles from 1 until a round takes ROUND_S, and then ROUNDS rounds
    of it are timed."""
    timer = timeit.Timer(call)
    number = 1
    while timer.timeit(number) < ROUND_S:
        number *= 2
    return number, [timer.timeit(number) / number for _ in range(ROUNDS)]


def bench_fields():
    """One result row per tangent field case and window size."""
    from todalab import make_flow

    rows = []
    for name, flow, spec, build in field_cases():
        field = make_flow(flow, spec)
        for n in SIZES:
            state = build(n)
            da, db = 1e-3 * np.random.default_rng(0).normal(size=(2, n))
            number, per_eval = time_per_eval(lambda: field(state, da, db))
            rows.append({"layer": "tangent_field", "case": name, "flow": flow,
                         "spec": None if spec is None else asdict(spec),
                         "state": build.__name__, "n_sites": n,
                         "evals_per_round": number, "rounds": ROUNDS,
                         "us_per_eval": {"min": 1e6 * min(per_eval), "max": 1e6 * max(per_eval)}})
    return rows


def commit() -> str | None:
    """The checkout's commit, suffixed -dirty when its files differ from
    it, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    results = bench_fields()
    report = {"schema": SCHEMA, "commit": commit(), "python": platform.python_version(),
              "numpy": np.__version__, "nproc": os.cpu_count(), "round_s": ROUND_S,
              "results": results}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for row in results:
        us = row["us_per_eval"]
        print(f"{row['case']:>18} N={row['n_sites']:<5} {us['min']:10.1f} .. {us['max']:10.1f} us/eval")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))       # the checkout's package, uninstalled
    sys.exit(main())

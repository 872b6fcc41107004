"""Scenario benchmark for todalab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  One run of a workload makes its
scenarios' `todalab.cli.run_config` calls in order; one caller makes one
call at a time (a closed loop) in this process, each into a fresh temporary
directory under perfbench/out/work that is deleted once the call's
artifacts are checked.

--trace 0 repeats the run for S seconds and reports the end-to-end metrics.
--trace 1 makes one untraced and one traced run and reports the per-layer
metrics; the spans go to perfbench/out/trace-NAME-seedN.csv.gz.

stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The lines before it record the environment and every sample.
Exits 2 without a result when the todalab sources are missing.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

from tracer import Tracer, metric_units
from workloads import WORKLOADS, Checker, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_LAUNCHES = 6       # half before the timed loop, half after it

END_TO_END = {
    "run_s": ("s", "lower"),
    "cells_per_s": ("cells/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

# A fresh interpreter imports the CLI and parses the workload's config files,
# as `todalab run -c FILE` does before any work.  It prints the monotonic
# clock, which Linux shares between processes.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import todalab.cli
for path in sys.argv[2:]:
    todalab.cli.load_config(path)
print(time.monotonic())
"""


class MissingSources(RuntimeError):
    pass


def import_cli(root: Path = ROOT):
    """Import todalab.cli from root/src, never from an installed copy."""
    pkg = root / "src" / "todalab"
    if not (pkg / "cli.py").is_file():
        raise MissingSources(f"todalab sources not found under {root / 'src'}")
    sys.path.insert(0, str(root / "src"))
    import todalab.cli
    if Path(todalab.cli.__file__).resolve().parent != pkg.resolve():
        raise MissingSources(f"imported {todalab.cli.__file__}, not the checkout's sources")
    return todalab.cli


def one_run(cli, cfg, check, workdir: Path, tracer: Tracer | None = None):
    """(seconds in run_config, failure reason or None).  Raising counts as
    a failure; the artifacts are deleted either way."""
    gc.collect()
    outdir = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))
    dt = 0.0
    try:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_config(cfg, outdir)
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.remove()
        return dt, check(code, outdir)
    except Exception as err:
        traceback.print_exc()
        return dt, f"{type(err).__name__}: {err}"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def one_pass(cli, plan, workdir: Path, tracer: Tracer | None = None):
    """One run of a workload: each (scenario, config, check) of the plan in
    order.  Returns the seconds spent in each run_config call and the
    failure reason or None of each."""
    times, failures = [], []
    for _scenario, cfg, check in plan:
        dt, failure = one_run(cli, cfg, check, workdir, tracer)
        times.append(dt)
        failures.append(failure)
    return times, failures


def make_plan(cli, workload, seed: int, reference: dict | None):
    return [(s, cli.config_from_dict(s.run_config(seed)), Checker(s, seed, reference))
            for s in workload.scenarios]


def measure_setup(raw_configs: list, workdir: Path, launches: int,
                  warm: bool = True) -> list:
    """Seconds from interpreter launch to parsed configs, per launch.
    With `warm`, one untimed launch first warms the file cache and, where
    Python writes bytecode, the bytecode cache of a fresh checkout."""
    paths = [workdir / f"setup-config-{i}.json" for i in range(len(raw_configs))]
    for path, raw in zip(paths, raw_configs):
        path.write_text(json.dumps(raw))
    times = []
    try:
        for i in range(launches + warm):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"),
                 *map(str, paths)],
                capture_output=True, text=True, timeout=120, check=True)
            if i or not warm:
                times.append(float(proc.stdout.split()[-1]) - t0)
    finally:
        for path in paths:
            path.unlink()
    return times


def warm_up(cli, workload, seed: int, workdir: Path):
    """One untimed run of the workload at tiny sizes, so that first-call
    costs (lazy imports, caches of numpy and scipy) fall outside the
    timed window.  Its outcome is printed, not counted."""
    tiny = workload.tiny()
    _times, failures = one_pass(cli, make_plan(cli, tiny, seed, None), workdir)
    for scenario, failure in zip(tiny.scenarios, failures):
        if failure is not None:
            print(f"warm-up {scenario.name} failed: {failure}", file=sys.stderr)


def timed_runs(cli, plan, workdir: Path, seconds: float):
    """Closed loop: run until the next run would end after `seconds`.
    Returns each run's per-scenario times and every call's failure."""
    passes, failures, laps = [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        times, fails = one_pass(cli, plan, workdir)
        passes.append(times)
        failures.extend(fails)
        now = time.perf_counter()
        laps.append(now - lap)
        if now - start + statistics.median(laps) > seconds:
            return passes, failures


def end_to_end(cli, workload, seed, seconds, workdir, reference=None):
    plan = make_plan(cli, workload, seed, reference)
    # Half the set-up launches before the timed loop and half after it, so
    # their median spans the window's changes in machine speed.
    raws = [s.run_config(seed) for s in workload.scenarios]
    setup = measure_setup(raws, workdir, SETUP_LAUNCHES // 2)
    warm_up(cli, workload, seed, workdir)
    passes, failures = timed_runs(cli, plan, workdir, seconds)
    setup += measure_setup(raws, workdir, SETUP_LAUNCHES - SETUP_LAUNCHES // 2,
                           warm=False)
    durations = [sum(times) for times in passes]
    run_s = statistics.median(durations)
    values = {
        "run_s": run_s,
        "cells_per_s": workload.cells / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": failures.count(None) / len(failures),
    }
    samples = {"run_s": durations, "setup_s": setup,
               "scenario_run_s": {s.name: [times[i] for times in passes]
                                  for i, s in enumerate(workload.scenarios)}}
    return values, failures, samples


def per_layer(cli, workload, seed, workdir, reference=None):
    plan = make_plan(cli, workload, seed, reference)
    plain, plain_failures = one_pass(cli, plan, workdir)
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traced, traced_failures = one_pass(cli, plan, workdir, tracer)
    for w in caught:
        print(f"warning during traced run: {w.category.__name__}: {w.message}",
              file=sys.stderr)
    plain_s, traced_s = sum(plain), sum(traced)
    values = tracer.metrics()
    values["cli.warnings"] = len(caught)
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    samples = {"run_s": [plain_s], "traced_run_s": [traced_s],
               "spans": len(tracer.spans)}
    return values, plain_failures + traced_failures, samples, tracer


# -- environment -----------------------------------------------------------

def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _filesystem(path: Path) -> str:
    best = ("", "unknown")
    with contextlib.suppress(OSError):
        with open("/proc/self/mounts") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                inside = str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best[0]):
                    best = (mount, fstype)
    return f"{best[1]} on {best[0] or '?'}"


def environment(workdir: Path) -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"commit": _git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": nproc, "cpu": _cpu_model(),
            "artifact_fs": _filesystem(workdir.resolve())}


# -- entry point -------------------------------------------------------------

def result_line(values: dict, units: dict, failures: list) -> dict:
    failed = sum(f is not None for f in failures)
    return {"correct": failed == 0, "attempted": len(failures), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name][0]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        cli = import_cli()
    except MissingSources as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"environment": environment(workdir),
                      "workload": {"name": workload.name, "seed": args.seed,
                                   **workload.sizes()}}))
    if args.trace:
        values, failures, samples, tracer = per_layer(cli, workload, args.seed,
                                                      workdir, reference)
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.csv.gz")
        units = metric_units()
    else:
        values, failures, samples = end_to_end(cli, workload, args.seed,
                                               args.seconds, workdir, reference)
        units = END_TO_END
    for i, failure in enumerate(failures):
        if failure is not None:
            print(f"run_config call {i} failed its check: {failure}", file=sys.stderr)
    print(json.dumps({"samples": samples}))
    print(json.dumps(result_line(values, units, failures)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the correctness check of each run.

A scenario is one `todalab run` config; its size decides which layer
dominates.  A workload is a sequence of scenarios that one run makes in
order; see README.md for why each one is in the set.  Only the
`perturbed-fixed` scenario has random input (its base state), so only
workloads that contain it depend on the benchmark seed; the other scenarios
are deterministic by design and every seed runs the same inputs.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 42
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Adaptive runs may legitimately change their step sequence (batched seeds,
# new kernels).  Tightening the integrator tolerance tenfold moves the
# report floats by at most 2e-6 relative (the empirical front speed), so
# floats must agree within 1e5 times the integrator tolerance.
ADAPTIVE_RTOL_PER_TOL = 1e5


@dataclass(frozen=True)
class Scenario:
    name: str
    config: dict          # a todalab run config; "seed" is added when seeded
    grids: int            # tangent grids the scenario produces
    seeded: bool          # True when the benchmark seed changes the inputs

    def run_config(self, seed: int) -> dict:
        cfg = json.loads(json.dumps(self.config))
        if self.seeded:
            cfg["seed"] = seed % 2**32     # numpy generators need seed >= 0
        return cfg

    @property
    def samples(self) -> int:
        return int(round(self.config["t_final"] / self.config["sample_dt"])) + 1

    @property
    def cells(self) -> int:
        """Tangent-grid cells produced and verified per run."""
        return self.grids * self.config["window"] * self.samples

    @property
    def byte_exact(self) -> bool:
        """Fixed-step runs reproduce their artifacts byte for byte."""
        return self.config["integrator"]["method"] == "rk4-fixed"

    def tiny(self) -> "Scenario":
        """The same scenario at a size that runs in a fraction of a second."""
        if self.name.startswith("tiny-"):
            return self
        config = {**self.config, "t_final": 1.0, "sample_dt": 0.1,
                  **TINY_SIZES[self.name]}
        return replace(self, name=f"tiny-{self.name}", config=config)

    def sizes(self) -> dict:
        c = self.config
        return {"name": self.name, "scenario": c["scenario"], "window": c["window"],
                "t_final": c["t_final"], "sample_dt": c["sample_dt"],
                "samples": self.samples, "grids": self.grids,
                "cells": self.cells, "integrator": c["integrator"],
                "seeded": self.seeded}


ADAPTIVE = {"method": "rk-adaptive", "tolerance": 1e-10}


SCENARIOS = {s.name: s for s in (
    Scenario("toda-lightcone-bg", {
        "scenario": "toda-lightcone", "base": "background", "window": 1001,
        "t_final": 20.0, "sample_dt": 0.1, "seeds": [[0, "b"], [0, "a"]],
        "integrator": ADAPTIVE}, grids=2, seeded=False),
    Scenario("hierarchy-r3", {
        "scenario": "hierarchy", "base": "background", "window": 401,
        "t_final": 10.0, "sample_dt": 0.05,
        "seeds": [[0, "b"], [0, "a"], [5, "b"]],
        "hierarchy": {"r": 3, "c": [1, 0, 0, 0]},
        "integrator": ADAPTIVE}, grids=3, seeded=False),
    Scenario("brackets-soliton", {
        "scenario": "observables", "base": "soliton", "soliton": {"kappa": 1.0},
        "window": 201, "t_final": 5.0, "sample_dt": 0.1,
        "seeds": [[-20, "b"], [-10, "b"], [0, "b"], [10, "b"], [20, "b"]],
        "obs_range": 40, "integrator": ADAPTIVE}, grids=10, seeded=False),
    Scenario("perturbed-fixed", {
        "scenario": "perturbed", "base": "random",
        "perturbation": {"family": "cosine", "w0": 0.1}, "window": 1001,
        "t_final": 10.0, "sample_dt": 0.1, "seeds": [[0, "b"], [0, "a"]],
        "integrator": {"method": "rk4-fixed", "step": 0.01}},
        grids=2, seeded=True),
)}

# window (and other size) overrides of Scenario.tiny
TINY_SIZES = {
    "toda-lightcone-bg": {"window": 61},
    "hierarchy-r3": {"window": 61, "sample_dt": 0.05},
    "brackets-soliton": {"window": 81, "obs_range": 3},
    "perturbed-fixed": {"window": 121},
}


@dataclass(frozen=True)
class Workload:
    """Scenarios that one run of the workload makes, in order."""
    name: str
    scenarios: tuple

    @property
    def seeded(self) -> bool:
        return any(s.seeded for s in self.scenarios)

    @property
    def grids(self) -> int:
        return sum(s.grids for s in self.scenarios)

    @property
    def cells(self) -> int:
        return sum(s.cells for s in self.scenarios)

    def tiny(self) -> "Workload":
        if self.name.startswith("tiny-"):
            return self
        return Workload(f"tiny-{self.name}", tuple(s.tiny() for s in self.scenarios))

    def sizes(self) -> dict:
        return {"scenarios": [s.sizes() for s in self.scenarios],
                "grids": self.grids, "cells": self.cells, "seeded": self.seeded}


# BENCHMARK.json names `toda-lightcone-bg` and `paper-suite`.  The other
# single-scenario workloads are for tracing one scenario alone; their run
# times swing too much on a shared machine to be bounded (see README.md).
WORKLOADS = {w.name: w for w in (
    *(Workload(s.name, (s,)) for s in SCENARIOS.values()),
    Workload("paper-suite", tuple(SCENARIOS.values())),
)}


def snapshot(outdir) -> dict:
    """File name -> {"sha256", "lines", and "json" for JSON artifacts}."""
    out = {}
    for path in sorted(Path(outdir).iterdir()):
        data = path.read_bytes()
        entry = {"sha256": hashlib.sha256(data).hexdigest(),
                 "lines": data.count(b"\n")}
        if path.suffix == ".json":
            entry["json"] = json.loads(data)
        out[path.name] = entry
    return out


def _compare(ref, got, rtol, where):
    """First mismatch between reference and output JSON values, or None.

    Keys absent from the reference are ignored, so artifacts may gain
    fields.  Integers, booleans and strings must match exactly; floats
    within rtol relative (absolute below 1).
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object"
        for key, val in ref.items():
            if key not in got:
                return f"{where}.{key}: missing"
            bad = _compare(val, got[key], rtol, f"{where}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: expected a list of {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            bad = _compare(r, g, rtol, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(got - ref) <= rtol * max(1.0, abs(ref)):
            return None
        return f"{where}: {got!r} != reference {ref!r}"
    if type(got) is not type(ref) or got != ref:
        return f"{where}: {got!r} != reference {ref!r}"
    return None


def check_against_reference(scenario: Scenario, snap: dict, ref: dict):
    """Reason the run's artifacts differ from the frozen reference, or None.

    Fixed-step runs: every CSV is byte-identical and every JSON value equals
    the reference exactly.  Adaptive runs: `violations`, `clean`,
    `boundary_margin` and every other non-float value are exact, floats agree
    within ADAPTIVE_RTOL_PER_TOL times the integrator tolerance, and each CSV
    has the reference's number of rows.
    """
    if sorted(snap) != sorted(ref):
        return f"artifact set {sorted(snap)} != reference {sorted(ref)}"
    rtol = 0.0 if scenario.byte_exact else \
        ADAPTIVE_RTOL_PER_TOL * scenario.config["integrator"]["tolerance"]
    for name, want in ref.items():
        got = snap[name]
        if "json" in want:
            bad = _compare(want["json"], got["json"], rtol, name)
            if bad:
                return bad
        elif scenario.byte_exact and got["sha256"] != want["sha256"]:
            return f"{name}: sha256 differs from the reference"
        elif got["lines"] != want["lines"]:
            return f"{name}: {got['lines']} lines, reference has {want['lines']}"
    return None


class Checker:
    """Checks one scenario's runs within one benchmark process.

    Every run must exit 0, which already requires zero violations, a clean
    boundary and the drift gate.  When the inputs equal the reference inputs
    (a scenario that ignores the seed, or the default seed), the artifacts
    must match the frozen reference.  Byte-exact scenarios on other seeds
    must reproduce the first run's artifacts byte for byte.
    """

    def __init__(self, scenario: Scenario, seed: int, reference: dict | None):
        self.scenario = scenario
        self.reference = None
        if reference is not None and (not scenario.seeded or seed == DEFAULT_SEED):
            self.reference = reference[scenario.name]
        self._first = None

    def __call__(self, code: int, outdir) -> str | None:
        if code != 0:
            return f"run_config exited {code}"
        snap = snapshot(outdir)
        if self.reference is not None:
            return check_against_reference(self.scenario, snap, self.reference)
        if self.scenario.byte_exact:
            hashes = {k: v["sha256"] for k, v in snap.items()}
            if self._first is None:
                self._first = hashes
            elif hashes != self._first:
                return "artifacts differ from this seed's first run"
        return None


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)

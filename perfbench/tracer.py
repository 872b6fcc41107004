"""Per-layer tracing of todalab from outside the package.

`Tracer.install` replaces every public function, method and property of the
layer modules with a wrapper that records a span (name, layer, start, end,
parent).  A function is replaced in every `todalab` namespace that binds it,
because `from x import f` copies the binding: `todalab.cli.evolve_tangent`,
`todalab.sensitivity.perturbed_rhs` and `todalab.perturbed.toda_rhs` are all
wrapped.  Methods and properties are replaced on their class, and a public
class's `__init__` is traced under the class name, so
`state.LatticeState` counts validated states.  `Tracer.remove` puts every
original object back.

Spans stay in memory during the run; `write` saves them afterwards.  A
span's self time is its duration minus the durations of its direct
children.
"""
from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import os
import sys
import time

PACKAGE = "todalab"
LAYERS = ("cli", "state", "integrators", "sensitivity", "bounds", "hierarchy",
          "perturbed", "observables", "solitons")

# function-level metrics: span name -> statistics reported for it
FUNCTIONS = {
    "state.jacobi_norm": ("calls", "us_per_call", "distinct_frac"),
    "state.LatticeState": ("calls", "self_s"),
    "integrators.solve_vector": ("calls", "wall_s", "rhs_evals"),
    "integrators.Trajectory.norm_series": ("calls", "wall_s"),
    "integrators.Trajectory.to_csv": ("wall_s", "bytes"),
    "sensitivity.evolve_tangent": ("calls", "wall_s"),
    "sensitivity.SensitivityGrid.to_csv": ("wall_s", "bytes"),
    "hierarchy.hierarchy_fields": ("calls", "us_per_call"),
    "hierarchy.hierarchy_hamiltonian": ("calls", "us_per_call"),
    "perturbed.perturbed_rhs": ("calls", "us_per_call"),
    "perturbed.perturbed_tangent_rhs": ("calls", "us_per_call"),
    "perturbed.monitor_trajectory": ("wall_s",),
    "bounds.verify_light_cone": ("calls", "wall_s"),
    "observables.check_bracket_bound": ("calls", "wall_s"),
    "observables.evolved_bracket": ("calls",),
    "cli.run_config": ("wall_s",),
}

UNITS = {"calls": "count", "self_s": "s", "wall_s": "s", "us_per_call": "us",
         "distinct_frac": "ratio", "rhs_evals": "count", "bytes": "bytes"}
BETTER = {"distinct_frac": "higher"}


def metric_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
    for name, stats in FUNCTIONS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = (UNITS[stat], BETTER.get(stat, "lower"))
    out["cli.warnings"] = ("count", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


def package_modules():
    """The imported modules of the traced package."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Installs span-recording wrappers into the imported todalab package."""

    def __init__(self):
        self.spans = []            # [name, layer, start, end, parent index]
        self.rhs_evals = 0
        self.csv_bytes = {}        # span name -> bytes written
        self._stack = []
        self._states = set()
        self._jacobi_calls = 0
        self._restore = []         # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = after = None
        if name == "integrators.solve_vector":
            before = self._count_rhs
        elif name == "state.jacobi_norm":
            before = self._note_state
        elif name.endswith(".to_csv"):
            after = functools.partial(self._note_csv, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(args)
            return result
        return traced

    def _count_rhs(self, args):
        fun = args[0]

        def counted(t, y):
            self.rhs_evals += 1
            return fun(t, y)
        return (counted,) + tuple(args[1:])

    def _note_state(self, args):
        s = args[0]
        key = hashlib.blake2b(s.a.tobytes() + s.b.tobytes()
                              + repr((s.offset, s.background, args[1:])).encode(),
                              digest_size=16).digest()
        self._states.add(key)
        self._jacobi_calls += 1
        return args

    def _note_csv(self, name, args):
        self.csv_bytes[name] = self.csv_bytes.get(name, 0) + os.path.getsize(args[1])

    def _targets(self):
        """(owner, attribute, replacement) for every traced object."""
        functions = {}      # id(original) -> wrapper
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
                elif inspect.isclass(obj):
                    targets.extend(self._class_targets(layer, obj))
        for mod in package_modules():
            for attr, obj in vars(mod).items():
                if id(obj) in functions:
                    targets.append((mod, attr, functions[id(obj)]))
        return targets

    def _class_targets(self, layer, cls):
        prefix = f"{layer}.{cls.__name__}"
        for attr, obj in vars(cls).items():
            if attr == "__init__" and inspect.isfunction(obj):
                yield cls, attr, self._wrap(prefix, layer, obj)
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(obj):
                yield cls, attr, self._wrap(f"{prefix}.{attr}", layer, obj)
            elif isinstance(obj, property) and obj.fget is not None:
                yield cls, attr, property(self._wrap(f"{prefix}.{attr}", layer, obj.fget),
                                          obj.fset, obj.fdel, obj.__doc__)
            elif isinstance(obj, (classmethod, staticmethod)):
                yield cls, attr, type(obj)(self._wrap(f"{prefix}.{attr}", layer, obj.__func__))

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attr, new in self._targets():
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _name, _layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_n, _l, start, end, _p) in enumerate(self.spans)]

    def metrics(self) -> dict:
        """Per-layer roll-ups and function-level statistics, without the
        run-level `cli.warnings` and `trace.overhead_frac`."""
        selfs = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        per_fn = {name: [0, 0.0, 0.0] for name in FUNCTIONS}   # calls, wall, self
        for (name, layer, start, end, _p), own in zip(self.spans, selfs):
            out[f"{layer}.self_s"] += own
            out[f"{layer}.calls"] += 1
            acc = per_fn.get(name)
            if acc is not None:
                acc[0] += 1
                acc[1] += end - start
                acc[2] += own
        for name, stats in FUNCTIONS.items():
            calls, wall, own = per_fn[name]
            values = {"calls": calls, "wall_s": wall, "self_s": own,
                      "us_per_call": 1e6 * wall / calls if calls else 0.0,
                      "bytes": self.csv_bytes.get(name, 0),
                      "rhs_evals": self.rhs_evals,
                      "distinct_frac": (len(self._states) / self._jacobi_calls
                                        if self._jacobi_calls else 0.0)}
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        return out

    def write(self, path):
        """Save the spans as gzip CSV: id, parent, layer, name, start_s,
        end_s, self_s, with times relative to the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,layer,name,start_s,end_s,self_s\n")
            for i, ((name, layer, start, end, parent), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(f"{i},{parent},{layer},{name},{start - t0:.9f},"
                         f"{end - t0:.9f},{own:.9f}\n")

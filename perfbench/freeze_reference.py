"""Freeze the reference artifacts every benchmark run is checked against.

    python3 perfbench/freeze_reference.py

Runs each scenario once at the default seed and writes perfbench/reference.json
(per artifact: sha256, line count, and the parsed JSON of JSON artifacts).
Refreeze only when a change is meant to alter the scenarios' results, and
say so in the change.
"""
from __future__ import annotations

import json
import sys
import tempfile

from run import OUT, import_cli
from workloads import DEFAULT_SEED, REFERENCE, SCENARIOS, snapshot


def main() -> int:
    cli = import_cli()
    OUT.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, scenario in SCENARIOS.items():
        cfg = cli.config_from_dict(scenario.run_config(DEFAULT_SEED))
        with tempfile.TemporaryDirectory(dir=OUT) as outdir:
            if cli.run_config(cfg, outdir) != 0:
                print(f"{name}: run failed; reference not written", file=sys.stderr)
                return 1
            reference[name] = snapshot(outdir)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

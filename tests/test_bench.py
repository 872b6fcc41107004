"""tools/bench.py at a tiny window: it runs and writes its schema."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

CASES = ["toda", "perturbed-cosine", "hierarchy-r0", "hierarchy-r1", "hierarchy-r3",
         "hierarchy-r5", "ghs-quartic"]


def test_bench_times_every_tangent_field_at_a_tiny_window(tmp_path, monkeypatch):
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench, "SIZES", (21,))
    assert bench.main([str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"schema", "commit", "python", "numpy", "nproc", "round_s", "results"}
    assert report["schema"] == 1 and report["nproc"] >= 1
    assert [row["case"] for row in report["results"]] == CASES
    for row in report["results"]:
        assert set(row) == {"layer", "case", "flow", "spec", "state", "n_sites",
                            "evals_per_round", "rounds", "us_per_eval"}
        assert (row["layer"], row["n_sites"], row["rounds"]) == ("tangent_field", 21, 5)
        assert row["state"] == ("bump_chain" if row["flow"] == "ghs" else "random_localized_state")
        assert row["evals_per_round"] >= 1
        assert 0.0 < row["us_per_eval"]["min"] <= row["us_per_eval"]["max"]
    specs = {row["case"]: row["spec"] for row in report["results"]}
    assert specs["toda"] is None
    assert specs["perturbed-cosine"] == {"family": "cosine", "w0": 0.1}
    assert specs["hierarchy-r3"] == {"r": 3, "c": [1.0, 0.0, 0.0, 0.0]}
    assert specs["ghs-quartic"] == {"family": "quartic", "beta": 0.1}

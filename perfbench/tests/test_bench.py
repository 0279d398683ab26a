"""Checks on the benchmark itself, on reduced-size variants so they stay fast.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

REPEATING = (
    "fourier.cells",
    "capset.pairs",
    "capset.PointSet.elements",
    "spectrum.members",
    "linalg.rank.rows",
    "jsonio.bytes",
)


def test_counts_repeat_exactly():
    first = run.run_workload("dense-n14", 7, 0, True, n=7)
    second = run.run_workload("dense-n14", 7, 0, True, n=7)
    assert first.correct and second.correct, first.problems + second.problems
    for name in REPEATING:
        assert first.per_layer[name] > 0, name
        assert first.per_layer[name] == second.per_layer[name], name
    calls = [k for k in first.per_layer if k.endswith(".calls")]
    assert {k: first.per_layer[k] for k in calls} == {k: second.per_layer[k] for k in calls}
    assert first.digests == second.digests


def test_unreached_required_span_fails_the_run(monkeypatch):
    dense = run.WORKLOADS["dense-n14"]
    strict = dataclasses.replace(dense, required=dense.required + ("capset.exhaustive_max_capset",))
    monkeypatch.setitem(run.WORKLOADS, "dense-n14", strict)
    res = run.run_workload("dense-n14", 7, 0, True, n=6)
    assert not res.correct
    assert res.failed >= 1
    assert any("capset.exhaustive_max_capset recorded no calls" in p for p in res.problems)


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    import tricap  # noqa: F401

    monkeypatch.setattr(tracer, "WRAPPED", {"capset": ("no_such_function",)})
    with pytest.raises(tracer.CoverageError, match="no longer exists"):
        tracer.Tracer().install()


def test_digest_mismatch_marks_the_step_failed():
    steps = run.dense_steps(7, n=6)
    digests = {f"{i:02d}:{s.label}": "x" for i, s in enumerate(steps)}
    digests.update({"file:A.txt": "x", "file:T.tbl": "x"})
    p = run.Pass(procs=[], digests=dict(digests), problems={})
    run.compare_digests(p, steps, digests, "golden")
    assert p.problems == {}
    digests["02:fourier.cubesum"] = "y"
    run.compare_digests(p, steps, digests, "golden")
    assert list(p.problems) == [2]


def test_self_time_subtracts_direct_children():
    spans = [
        ["fourier.plancherel_check", 0, 100, -1, {}],
        ["fourier.transform_point_set", 10, 70, 0, {"n": 2, "bytes": 144}],
        ["capset.PointSet", 20, 30, 1, {"n": 2, "elements": 3}],
    ]
    out = tracer.aggregate([spans])
    assert out["fourier.plancherel_check.self_s"] == pytest.approx(40e-9)
    assert out["fourier.transform_point_set.self_s"] == pytest.approx(50e-9)
    assert out["capset.PointSet.self_s"] == pytest.approx(10e-9)
    assert out["fourier.cells"] == 2 * 9
    assert out["capset.PointSet.elements"] == 3


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(p == "perfbench" or p.startswith("perfbench/") for p in spec["paths"])

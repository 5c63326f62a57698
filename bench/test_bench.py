"""Checks of the benchmark itself, at reduced size.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from spans import Tracer

SMALL = 15  # records: the least synth_corpus accepts, three per domain


def _repeat(name: str, seed: int, work: Path, traced: bool):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.write_inputs(workload, seed, work / f"in-{seed}", size=SMALL)
    tracer = Tracer(traced=traced)
    tracer.install()
    try:
        result = workloads.run_repeat(workload, seed, inputs, work / "out", tracer)
    finally:
        tracer.close()
    return result, tracer


def test_golden_report_reproduced(tmp_path):
    ok, _ = workloads.check_golden(tmp_path)
    assert ok


@pytest.mark.parametrize("name", ["pipeline-small", "train-mix"])
def test_traced_counters_repeat_exactly_and_output_matches_untraced(tmp_path, name):
    plain, _ = _repeat(name, 3, tmp_path, traced=False)
    first, tracer1 = _repeat(name, 3, tmp_path, traced=True)
    second, tracer2 = _repeat(name, 3, tmp_path, traced=True)
    assert first.failed == second.failed == plain.failed == 0
    assert first.digest == second.digest == plain.digest
    counters = tracer1.exact_counters()
    assert counters == tracer2.exact_counters()
    assert counters["textcore.encode.calls"] > 0
    decode_steps = {i for i, s in enumerate(tracer1.spans) if s.name == "generator.decode_step"}
    assert not any(s.parent in decode_steps for s in tracer1.by_name("textcore.encode"))
    if name == "train-mix":
        assert counters["numerics.backward.calls"] == first.attempted
        assert counters["similarity.calls"] == 0
    else:
        assert counters["numerics.backward.calls"] == 0
        assert counters["generator.decode_steps"] > 0
    assert not tracer1.unmeasured


def test_second_seed_changes_report_and_repeats_itself(tmp_path):
    digests = {}
    for seed in (0, 1):
        runs = [_repeat("pipeline-small", seed, tmp_path, traced=False)[0] for _ in range(2)]
        assert runs[0].digest == runs[1].digest
        assert all(r.failed == 0 for r in runs)
        digests[seed] = runs[0].digest
    assert digests[0] != digests[1]


def test_missing_layer_is_unmeasured_not_zero(tmp_path, monkeypatch):
    monkeypatch.setitem(spans.LAYER_TARGETS, "similarity",
                        ["claimforge.pipeline.run:no_such_function"])
    _, tracer = _repeat("pipeline-small", 0, tmp_path, traced=True)
    metrics = tracer.layer_metrics()
    assert "similarity" in tracer.unmeasured
    assert "similarity.calls" not in metrics and "similarity.s" not in metrics
    assert metrics["textcore.encode.calls"] > 0


def test_patches_are_removed_after_close():
    import claimforge.pipeline.run as pipeline_run
    from claimforge.textcore.vocab import Vocabulary

    before = (pipeline_run.similarity, Vocabulary.__dict__["build"])
    tracer = Tracer(traced=True)
    tracer.install()
    assert pipeline_run.similarity is not before[0]
    tracer.close()
    assert (pipeline_run.similarity, Vocabulary.__dict__["build"]) == before


def test_fails_without_the_program(tmp_path):
    root = Path(workloads.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

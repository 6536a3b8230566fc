"""Fast tests of the benchmark itself: every workload at tiny size, the traced
census, the correctness gate catching a corrupted answer, the clean-up of
every child process, and the refusal to run without the program.

Run with ``python3 -m pytest gbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import wl_ingest
import wl_query
import wl_serve
import harness
from harness import Tally
from repro import GSketch, SketchEngine

TINY = {"ingest-rmat": "gtgraph-tiny", "query-api": "dblp-tiny", "serve-mixed": "gtgraph-tiny"}
ROOT = Path(__file__).resolve().parents[2]


def _check_result(result: dict, traced: bool) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.declared_metrics(traced)
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert np.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_at_tiny_size(workload):
    outcome = run.run(workload, seed=3, seconds=1.0, traced=False, sizes=TINY)
    _check_result(outcome["result"], traced=False)
    metrics = outcome["result"]["metrics"]
    assert metrics["success_frac"]["value"] == 1.0
    assert metrics["keys_per_s"]["value"] > 0
    assert outcome["report"]["seed"] == 3
    assert outcome["report"]["machine"]["cores"] >= 1


def test_traced_census_prints_every_layer_metric():
    outcome = run.run("query-api", seed=2, seconds=2.0, traced=True, sizes=TINY)
    _check_result(outcome["result"], traced=True)
    for name in run.WORKLOADS:
        spans = ROOT / ".bench_out" / f"spans-{name}-2.jsonl"
        assert spans.exists()
        spans.unlink()


def test_same_seed_gives_same_inputs():
    first = wl_query.run(5, 0.2, dataset="dblp-tiny")
    second = wl_query.run(5, 0.2, dataset="dblp-tiny")
    assert first.metrics["avg_rel_error"] == second.metrics["avg_rel_error"]


def test_corrupted_query_answer_fails_the_gate(monkeypatch):
    real_query = SketchEngine.query
    calls = {"n": 0}

    def corrupt(self, queries):
        estimates = real_query(self, queries)
        calls["n"] += 1
        if calls["n"] % 7 == 0 and isinstance(estimates, list):
            bad = estimates[0]
            estimates[0] = type(bad)(
                value=np.nextafter(bad.value, np.inf),
                interval=bad.interval,
                provenance=bad.provenance,
            )
        return estimates

    monkeypatch.setattr(SketchEngine, "query", corrupt)
    result = wl_query.run(1, 0.5, dataset="dblp-tiny")
    assert result.tally.failed > 0
    assert result.metrics["success_frac"] < 1.0


def test_lost_ingest_fails_the_gate(monkeypatch):
    real_ingest = GSketch.ingest_batch
    calls = {"n": 0}

    def lossy(self, batch):
        calls["n"] += 1
        if calls["n"] == 2:  # the warm pass or the first timed pass, whatever the speed
            batch = batch.slice(1, len(batch))  # drop one element, report the full count
            real_ingest(self, batch)
            return len(batch) + 1
        return real_ingest(self, batch)

    monkeypatch.setattr(GSketch, "ingest_batch", lossy)
    result = wl_ingest.run(1, 0.5, dataset="gtgraph-tiny")
    assert result.tally.failed > 0
    assert not any("returned" in error for error in result.tally.errors)


def test_corrupted_wire_read_fails_the_replay(monkeypatch):
    real_verify = wl_serve._verify

    def corrupt_then_verify(snapshot, record, reads, frames, sweep, tally):
        slot, index, begin, end, generation, values = record.reads[-1]
        values = (values[0] + 1.0,) + tuple(values[1:])
        record.reads[-1] = (slot, index, begin, end, generation, values)
        return real_verify(snapshot, record, reads, frames, sweep, tally)

    monkeypatch.setattr(wl_serve, "_verify", corrupt_then_verify)
    result = wl_serve.run(1, 0.5, dataset="gtgraph-tiny")
    assert result.tally.failed == 1
    assert result.metrics["success_frac"] < 1.0


def test_generation_going_back_fails_the_gate():
    record = wl_serve.LoadRecord()
    record.reads = [(0, 0, 0.0, 1.0, 5, (1.0,)), (0, 0, 1.0, 2.0, 4, (1.0,))]
    tally = Tally()
    by_generation = wl_serve._reads_by_generation(record, tally)
    assert tally.failed == 1 and list(by_generation) == [5]


def test_stop_children_leaves_no_process_behind():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()  # what the shared-memory shard backend starts
    subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert harness.child_pids()
    harness.stop_children(grace_s=2.0)
    assert harness.child_pids() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "gbench", tmp_path / "gbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "gbench/run.py", "--workload", "ingest-rmat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)

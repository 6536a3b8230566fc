"""The repository benchmark: one workload per run, one JSON result line.

Usage (from the root of a checkout)::

    python3 gbench/run.py --workload ingest-rmat --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the workload's end-to-end metrics with nothing but
the benchmark's own clocks around whole operations.  ``--trace 1`` is the
layer census: it runs every workload with spans around calls into each
layer's public functions and prints every per-layer metric; the named
workload gets the full run length, the others a short one.  Every run
prints a report line (machine, seed, run length, sample counts) and then,
as its last line, ``{"correct", "attempted", "failed", "metrics"}``.
The metric names and units come from ``BENCHMARK.json``.  See
``gbench/README.md`` for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402

import repro  # noqa: E402,F401  (fail fast, before any output, without the program)
from repro.observability import metrics as observability  # noqa: E402

WORKLOADS = ("ingest-rmat", "query-api", "serve-mixed")
#: Share of ``--seconds`` the other workloads get in a ``--trace 1`` census.
CENSUS_SHARE = 0.25


def _runner(name: str):
    if name == "ingest-rmat":
        import wl_ingest

        return wl_ingest.run
    if name == "query-api":
        import wl_query

        return wl_query.run
    import wl_serve

    return wl_serve.run


def declared_metrics(traced: bool) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, traced: bool, sizes: dict = None) -> dict:
    """Run one workload (or, traced, the census) and build the result line."""
    if observability.enabled():
        raise RuntimeError("the observability registry must stay off in timed runs")
    sizes = sizes or {}
    stolen = harness.steal_seconds()
    names = [workload] + [w for w in WORKLOADS if w != workload] if traced else [workload]
    tally = harness.Tally()
    values: dict = {}
    reports: dict = {}
    for name in names:
        length = seconds if name == workload else max(2.0, seconds * CENSUS_SHARE)
        kwargs = {"dataset": sizes[name]} if name in sizes else {}
        result = _runner(name)(seed, length, traced=traced, **kwargs)
        tally.merge(result.tally)
        values.update(result.metrics)
        reports[name] = {**result.report, "seconds": length, "errors": result.tally.errors}
        if result.tracer is not None:
            result.tracer.write(harness.ROOT / ".bench_out" / f"spans-{name}-{seed}.jsonl")
    units = declared_metrics(traced)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": harness.machine(),
        "steal_s": harness.steal_seconds() - stolen,
        "runs": reports,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return {"report": report, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    # A SIGTERM unwinds like an exception, so every ``finally`` below runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        harness.stop_children()
    print(json.dumps(outcome["report"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

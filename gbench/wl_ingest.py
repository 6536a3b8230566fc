"""``ingest-rmat``: repeated columnar ingest passes over an R-MAT stream.

The stream is columnarised once during set-up; the timed loop hands
8,192-element :class:`~repro.graph.batch.EdgeBatch` slices to
``SketchEngine.ingest_batch`` on the default in-process gSketch backend.
The work sits in ``graph.batch`` hashing, ``core.batch_router`` and
``sketches.countmin``; ``queries`` and ``serving`` are not touched while
timing.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from harness import (
    MEMORY_BYTES,
    SpreadSetups,
    Tally,
    OpSamples,
    Tracer,
    WorkloadResult,
    median,
    own_peak_rss_mb,
    rng_for,
)
from repro import GSketch, GSketchConfig, SketchEngine
from repro.core.batch_router import BatchRouter
from repro.api.engine import DEFAULT_SAMPLE_SIZE
from repro.core.router import OUTLIER_PARTITION
from repro.datasets import load_dataset
from repro.graph.sampling import reservoir_sample, uniform_edge_sample
from repro.queries.evaluation import summarize_errors

DATASET = "gtgraph-small"
BATCH = 8_192
SETUP_REPEATS = 5
#: Set-ups timed for ``setup_s``, spread over an untraced run's timed loop.
SPREAD_SETUPS = 8
CHECK_KEYS = 2_000
ACCURACY_QUERIES = 10_000


def _build(stream, config: GSketchConfig) -> SketchEngine:
    """The set-up under test: reservoir sample plus partition build."""
    return SketchEngine.builder().config(config).dataset(stream).build()


def _timed_passes(
    engine, slices, seconds: float, tally: Tally, setups: SpreadSetups = None
) -> "tuple[OpSamples, int]":
    """Whole passes until ``seconds`` have elapsed; one sample per batch.

    With ``setups``, a due set-up runs between passes, outside every sample.
    """
    samples = OpSamples()
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        for batch in slices:
            begin = time.perf_counter()
            ingested = engine.ingest_batch(batch)
            samples.add(begin, time.perf_counter(), len(batch))
            tally.record(ingested == len(batch), f"ingest_batch returned {ingested}")
        passes += 1
        if time.perf_counter() >= deadline:
            return samples, passes
        if setups is not None:
            setups.poll()


def _traced_passes(
    engine, probe: GSketch, slices, seconds: float, tally: Tally, tracer: Tracer
) -> "tuple[OpSamples, int]":
    """The same passes with a span around each call, then the layer replay.

    The replay runs the layers ``GSketch.ingest_batch`` is made of — hash,
    route, per-partition apply — and the whole ``GSketch.ingest_batch``, on
    a separately built probe sketch with identical partitioning, so the
    engine under test keeps an exact pass count for the correctness check.
    """
    router = BatchRouter(probe.router)
    sketches = {index: sketch for index, sketch in enumerate(probe.partitions)}
    sketches[OUTLIER_PARTITION] = probe.outlier_sketch
    samples = OpSamples()
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        for batch in slices:
            n = len(batch)
            begin = time.perf_counter()
            with tracer.span("api.engine.ingest_batch", n) as op:
                ingested = engine.ingest_batch(batch)
            samples.add(begin, time.perf_counter(), n)
            tally.record(ingested == n, f"ingest_batch returned {ingested}")
            with tracer.span("graph.batch.hashed_keys", n, op):
                batch.hashed_keys()
            with tracer.span("core.batch_router.route", n, op):
                routed = router.route(batch)
            with tracer.span("sketches.countmin.update_batch", n, op):
                for group in routed.groups:
                    sketches[group.partition].update_batch(group.keys, group.counts)
            with tracer.span("core.gsketch.ingest_batch", n, op):
                probe.ingest_batch(batch)
        passes += 1
        if time.perf_counter() >= deadline:
            return samples, passes


def _check(engine, stream, config, passes: int, seed: int, tally: Tally) -> Dict[str, float]:
    """Exact pass accounting plus point estimates against a one-shot engine.

    Count-Min counters are linear in the stream, so after ``passes`` whole
    passes every counter — and hence every point estimate — is exactly
    ``passes`` times the one-pass value.
    """
    estimator = engine.estimator
    expected_total = passes * stream.total_frequency()
    tally.record(
        estimator.total_frequency == expected_total,
        f"total_frequency {estimator.total_frequency} != {expected_total}",
    )
    reference = _build(stream, config)
    reference.ingest(stream)
    population = sorted(stream.distinct_edges())
    picks = rng_for(seed, "ingest-check").integers(0, len(population), CHECK_KEYS)
    keys = [population[int(i)] for i in picks]
    got = np.asarray(estimator.query_edges(keys))
    want = passes * np.asarray(reference.estimator.query_edges(keys))
    matches = got.view(np.uint64) == want.view(np.uint64)
    for key, ok in zip(keys, matches.tolist()):
        tally.record(ok, f"estimate of {key} is not {passes}x the one-pass estimate")

    queries = uniform_edge_sample(
        stream, ACCURACY_QUERIES, seed=rng_for(seed, "ingest-accuracy"), distinct=False
    )
    truth = stream.edge_frequencies()
    estimates = np.asarray(estimator.query_edges(queries)) / passes
    accuracy = summarize_errors(estimates, [truth[key] for key in queries])
    return {
        "avg_rel_error": accuracy.average_relative_error,
        "effective_query_frac": accuracy.effective_fraction,
    }


def _setup(seed: int, dataset: str):
    stream = load_dataset(dataset, seed=seed).stream
    columns = stream.to_batch()
    slices = [columns.slice(start, start + BATCH) for start in range(0, len(columns), BATCH)]
    config = GSketchConfig.from_memory_bytes(MEMORY_BYTES)
    begin = time.perf_counter()
    engine = _build(stream, config)
    return stream, slices, config, engine, time.perf_counter() - begin


def run(seed: int, seconds: float, traced: bool = False, dataset: str = DATASET) -> WorkloadResult:
    tally = Tally()
    stream, slices, config, engine, first_setup_s = _setup(seed, dataset)
    for batch in slices:  # warm pass: first touch of the counter tables
        engine.ingest_batch(batch)
    warm_passes = 1

    if not traced:
        setups = SpreadSetups(lambda: _build(stream, config), SPREAD_SETUPS, seconds)
        samples, passes = _timed_passes(engine, slices, seconds, tally, setups)
        setup_times = [first_setup_s] + setups.finish()
        accuracy = _check(engine, stream, config, warm_passes + passes, seed, tally)
        latency = samples.latency()
        metrics = {
            "setup_s": median(setup_times),
            "rss_mb": own_peak_rss_mb(),
            "success_frac": tally.success_frac,
            "keys_per_s": samples.rate(),
            "op_p50_ms": latency["p50_ms"],
            **accuracy,
        }
        report = {
            "op": "ingest_batch(8192)",
            "latency": latency,
            "passes": passes,
            "setup_s": setup_times,
        }
        return WorkloadResult(metrics, tally, report)

    # Traced: an untraced half for the overhead baseline, then a traced half.
    samples, passes = _timed_passes(engine, slices, seconds / 2, tally)
    untraced_eps = samples.rate()
    latency = samples.latency()
    tracer = Tracer()
    sample_times, build_times = [], []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        sample = reservoir_sample(
            stream, min(DEFAULT_SAMPLE_SIZE, len(stream)), seed=config.seed
        )
        sampled = time.perf_counter()
        probe = GSketch.build(sample, config, stream_size_hint=len(stream))
        sample_times.append(sampled - begin)
        build_times.append(time.perf_counter() - sampled)
    traced_samples, traced_passes = _traced_passes(
        engine, probe, slices, seconds / 2, tally, tracer
    )
    traced_eps = traced_samples.rate()
    _check(engine, stream, config, warm_passes + passes + traced_passes, seed, tally)
    estimator = engine.estimator

    engine_ns = tracer.ns_per_item("api.engine.ingest_batch")
    gsketch_ns = tracer.ns_per_item("core.gsketch.ingest_batch")
    metrics = {
        "graph.batch.hash_ns_per_elem": tracer.ns_per_item("graph.batch.hashed_keys"),
        "core.batch_router.route_ns_per_elem": tracer.ns_per_item("core.batch_router.route"),
        "sketches.countmin.apply_ns_per_elem": tracer.ns_per_item(
            "sketches.countmin.update_batch"
        ),
        "core.gsketch.ingest_ns_per_elem": gsketch_ns,
        "api.engine.ingest_self_ns_per_elem": engine_ns - gsketch_ns,
        "core.gsketch.outlier_elem_frac": estimator.outlier_elements
        / estimator.elements_processed,
        "graph.sampling.reservoir_s": median(sample_times),
        "core.partitioner.build_s": median(build_times),
        "api.engine.ingest_batch_p90_ms": latency["p90_ms"],
        "api.engine.ingest_batch_p99_ms": latency["p99_ms"],
        "api.engine.ingest_batch_samples": latency["samples"],
        "trace.ingest-rmat.overhead_frac": 1.0 - traced_eps / untraced_eps,
        **_sharded_layer(sample, stream, config, slices, seconds / 4),
    }
    report = {
        "op": "ingest_batch(8192)",
        "untraced_keys_per_s": untraced_eps,
        "traced_keys_per_s": traced_eps,
        "latency": latency,
    }
    return WorkloadResult(metrics, tally, report, tracer)


def _sharded_layer(sample, stream, config, slices, seconds: float) -> Dict[str, float]:
    """The same batches through one shared-memory shard (reported, not gated)."""
    engine = (
        SketchEngine.builder()
        .config(config)
        .sample(sample)
        .stream_size_hint(len(stream))
        .sharded(1, "shared")
        .build()
    )
    try:
        for batch in slices:
            engine.ingest_batch(batch)
        engine.frozen()  # drains the shard pipeline
        elements = 0
        wall = time.perf_counter()
        cpu = time.process_time()
        deadline = wall + seconds
        while time.perf_counter() < deadline:
            for batch in slices:
                elements += engine.ingest_batch(batch)
            engine.frozen()
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
    finally:
        engine.close()
    return {
        "distributed.shared_memory.ingest_eps": elements / wall,
        "distributed.coordinator.cpu_frac": cpu / wall,
    }

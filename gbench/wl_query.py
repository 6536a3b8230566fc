"""``query-api``: the typed query API over a frozen, fully ingested engine.

10,000 edge queries are sampled by the paper's Section 6.3 protocol
(uniformly over stream elements) from a ``dblp-small`` stream and issued as
``engine.query([...])`` blocks of 512 :class:`~repro.EdgeQuery` objects.
The path is ``api.engine`` Estimates and Provenance over ``core``
confidence routing and the compiled ``queries.plan``; the hot-edge cache
and ``serving`` are bypassed.  Answers are scored against the stream's
exact edge frequencies (Eq. 13 and Eq. 14).
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    MEMORY_BYTES,
    SpreadSetups,
    Tally,
    OpSamples,
    Tracer,
    WorkloadResult,
    bit_equal,
    median,
    own_peak_rss_mb,
    rng_for,
)
from repro import EdgeQuery, GlobalSketch, GSketchConfig, SketchEngine
from repro.datasets import load_dataset
from repro.graph.batch import EdgeBatch
from repro.graph.sampling import uniform_edge_sample
from repro.queries.evaluation import summarize_errors

DATASET = "dblp-small"
QUERIES = 10_000
BLOCK = 512
#: Set-ups timed for ``setup_s``, spread over an untraced run's timed loop.
SPREAD_SETUPS = 8


def _values(estimates) -> np.ndarray:
    return np.fromiter((e.value for e in estimates), dtype=np.float64, count=len(estimates))


def _build(stream, config: GSketchConfig) -> SketchEngine:
    """The set-up under test: build plus full ingest."""
    engine = SketchEngine.builder().config(config).dataset(stream).build()
    engine.ingest(stream)
    return engine


def _timed_passes(engine, blocks, expected, seconds: float, tally: Tally, setups=None):
    """Whole passes over the query set; every block checked bit-exact.

    With ``setups``, a due set-up runs between passes, outside every sample.
    """
    samples = OpSamples()
    deadline = time.perf_counter() + seconds
    while True:
        for block, want in zip(blocks, expected):
            begin = time.perf_counter()
            estimates = engine.query(block)
            samples.add(begin, time.perf_counter(), len(block))
            tally.record(bit_equal(_values(estimates), want), "Estimate.value != query_edges")
        if time.perf_counter() >= deadline:
            return samples
        if setups is not None:
            setups.poll()


def _traced_passes(engine, blocks, key_blocks, expected, seconds: float, tally, tracer):
    """Spans around each API call, then a replay of the layers beneath it."""
    estimator = engine.estimator
    plan = estimator.compile_plan()
    samples = OpSamples()
    deadline = time.perf_counter() + seconds
    while True:
        for block, edge_keys, want in zip(blocks, key_blocks, expected):
            n = len(block)
            begin = time.perf_counter()
            with tracer.span("api.engine.query", n) as op:
                estimates = engine.query(block)
            samples.add(begin, time.perf_counter(), n)
            tally.record(bit_equal(_values(estimates), want), "Estimate.value != query_edges")
            with tracer.span("core.gsketch.confidence_batch_with_partitions", n, op):
                estimator.confidence_batch_with_partitions(edge_keys)
            with tracer.span("queries.plan.query_edges", n, op):
                plan.query_edges(edge_keys)
            with tracer.span("graph.batch.columnize", n, op):
                batch = EdgeBatch.from_edge_keys(edge_keys)
                hashed = batch.hashed_keys()
            with tracer.span("queries.plan.route_sources", n, op):
                slots, _partitions = plan.route_sources(batch.sources)
            with tracer.span("queries.plan.estimate_keys", n, op):
                plan.estimate_keys(hashed, slots)
        if time.perf_counter() >= deadline:
            return samples


def run(seed: int, seconds: float, traced: bool = False, dataset: str = DATASET) -> WorkloadResult:
    tally = Tally()
    stream = load_dataset(dataset, seed=seed).stream
    config = GSketchConfig.from_memory_bytes(MEMORY_BYTES)
    begin = time.perf_counter()
    engine = _build(stream, config)
    first_setup_s = time.perf_counter() - begin
    engine.frozen()

    edge_keys = uniform_edge_sample(
        stream, QUERIES, seed=rng_for(seed, "query-keys"), distinct=False
    )
    key_blocks = [edge_keys[i : i + BLOCK] for i in range(0, len(edge_keys), BLOCK)]
    blocks = [[EdgeQuery(source, target) for source, target in keys] for keys in key_blocks]
    expected = [np.asarray(engine.estimator.query_edges(keys)) for keys in key_blocks]

    # Warm pass, which also yields the answers the accuracy is scored on.
    answers = [engine.query(block) for block in blocks]
    for estimates, want in zip(answers, expected):
        tally.record(bit_equal(_values(estimates), want), "Estimate.value != query_edges")
    estimates = [estimate for block in answers for estimate in block]
    truth = stream.edge_frequencies()
    truths = [truth[key] for key in edge_keys]
    accuracy = summarize_errors(_values(estimates), truths)

    if not traced:
        setups = SpreadSetups(lambda: _build(stream, config), SPREAD_SETUPS, seconds)
        samples = _timed_passes(engine, blocks, expected, seconds, tally, setups)
        setup_times = [first_setup_s] + setups.finish()
        latency = samples.latency()
        metrics = {
            "setup_s": median(setup_times),
            "rss_mb": own_peak_rss_mb(),
            "success_frac": tally.success_frac,
            "keys_per_s": samples.rate(),
            "op_p50_ms": latency["p50_ms"],
            "avg_rel_error": accuracy.average_relative_error,
            "effective_query_frac": accuracy.effective_fraction,
        }
        report = {
            "op": f"engine.query({BLOCK} EdgeQuery)",
            "latency": latency,
            "setup_s": setup_times,
        }
        return WorkloadResult(metrics, tally, report)

    samples = _timed_passes(engine, blocks, expected, seconds / 2, tally)
    untraced_kps = samples.rate()
    latency = samples.latency()
    tracer = Tracer()
    traced_kps = _traced_passes(
        engine, blocks, key_blocks, expected, seconds / 2, tally, tracer
    ).rate()

    baseline = GlobalSketch(config)
    baseline.ingest_batch(stream.to_batch())
    global_accuracy = summarize_errors(baseline.query_edges(edge_keys), truths)

    api_ns = tracer.ns_per_item("api.engine.query")
    confidence_ns = tracer.ns_per_item("core.gsketch.confidence_batch_with_partitions")
    metrics = {
        "api.engine.query_ns_per_key": api_ns,
        "api.engine.query_self_ns_per_key": api_ns - confidence_ns,
        "core.gsketch.confidence_ns_per_key": confidence_ns,
        "queries.plan.query_edges_ns_per_key": tracer.ns_per_item("queries.plan.query_edges"),
        "graph.batch.columnize_ns_per_key": tracer.ns_per_item("graph.batch.columnize"),
        "queries.plan.route_ns_per_key": tracer.ns_per_item("queries.plan.route_sources"),
        "queries.plan.gather_ns_per_key": tracer.ns_per_item("queries.plan.estimate_keys"),
        "core.gsketch.outlier_query_frac": sum(bool(e.provenance.outlier) for e in estimates)
        / len(estimates),
        "core.global_sketch.avg_rel_error": global_accuracy.average_relative_error,
        "api.engine.query_block_p90_ms": latency["p90_ms"],
        "api.engine.query_block_p99_ms": latency["p99_ms"],
        "api.engine.query_block_samples": latency["samples"],
        "trace.query-api.overhead_frac": 1.0 - traced_kps / untraced_kps,
    }
    report = {
        "op": f"engine.query({BLOCK} EdgeQuery)",
        "untraced_keys_per_s": untraced_kps,
        "traced_keys_per_s": traced_kps,
        "latency": latency,
    }
    return WorkloadResult(metrics, tally, report, tracer)

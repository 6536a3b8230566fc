"""The unified estimator API: Protocol conformance, the SketchEngine facade,
typed query/result objects, and the versioned snapshot format.

The central suite here is the parametrized lifecycle test: the *same*
build → ingest → query → snapshot → restore scenario runs against all four
backends purely through the :class:`repro.api.Estimator` Protocol surface.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import repro.api as api
from repro.api import (
    BACKEND_CLASSES,
    EdgeQuery,
    EngineError,
    Estimator,
    SketchEngine,
    SnapshotError,
    SubgraphQuery,
    WindowQuery,
    load_snapshot,
)
from repro import faults
from repro.api.results import Estimate, Provenance
from repro.core.config import GSketchConfig
from repro.core.estimator import ConfidenceInterval
from repro.core.global_sketch import GlobalSketch
from repro.core.router import OUTLIER_PARTITION
from repro.graph.batch import EdgeBatch, label_column

#: Every backend, as "build a fresh engine from (stream, sample, config)".
BACKEND_BUILDERS = {
    "gsketch": lambda stream, sample, config: (
        SketchEngine.builder()
        .config(config)
        .sample(sample)
        .stream_size_hint(len(stream))
        .build()
    ),
    "global": lambda stream, sample, config: SketchEngine.builder().config(config).build(),
    "sharded": lambda stream, sample, config: (
        SketchEngine.builder()
        .config(config)
        .sample(sample)
        .stream_size_hint(len(stream))
        .sharded(3)
        .build()
    ),
    "windowed": lambda stream, sample, config: (
        SketchEngine.builder().config(config).windowed(2_000.0, sample_size=800).build()
    ),
}


def query_keys(stream, count: int = 50):
    """Deterministic query block: frequent edges plus a guaranteed outlier."""
    keys = sorted(stream.distinct_edges())[:count]
    keys.append(("never-seen-source", "never-seen-target"))
    return keys


# ---------------------------------------------------------------------- #
# The one scenario, all four backends, through the Protocol
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", sorted(BACKEND_BUILDERS))
def test_lifecycle_roundtrip_through_protocol(
    backend, zipf_stream, zipf_sample, small_config, tmp_path
):
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    assert engine.backend == backend
    estimator = engine.estimator
    assert isinstance(estimator, Estimator)

    # -- ingest in two blocks through the facade ----------------------- #
    half = len(zipf_stream) // 2
    ingested = engine.ingest(zipf_stream.prefix(half))
    ingested += engine.ingest(zipf_stream.suffix(half))
    assert ingested == len(zipf_stream)
    assert engine.elements_processed == len(zipf_stream)

    # -- batch queries are aligned and self-consistent ------------------ #
    keys = query_keys(zipf_stream)
    estimates = estimator.query_edges(keys)
    assert len(estimates) == len(keys)
    intervals = estimator.confidence_batch(keys)
    assert [interval.estimate for interval in intervals] == estimates
    assert all(interval.lower <= interval.upper for interval in intervals)

    subgraph = SubgraphQuery.from_edges(keys[:10])
    assert estimator.query_subgraph(subgraph) == pytest.approx(sum(estimates[:10]))

    # -- snapshot → restore answers bit-identically --------------------- #
    path = tmp_path / f"{backend}.snap"
    engine.save(path)
    restored = SketchEngine.load(path)
    assert restored.backend == backend
    assert isinstance(restored.estimator, BACKEND_CLASSES[backend])
    assert restored.estimator.query_edges(keys) == estimates
    assert restored.estimator.confidence_batch(keys) == intervals
    assert restored.elements_processed == engine.elements_processed
    assert restored.estimator.query_subgraph(subgraph) == estimator.query_subgraph(subgraph)
    engine.close()
    restored.close()


@pytest.mark.parametrize("backend", sorted(BACKEND_BUILDERS))
def test_restored_engine_continues_ingesting_identically(
    backend, zipf_stream, zipf_sample, small_config, tmp_path
):
    """A restore is a true resume: ingesting the tail into the original and
    into the restored engine produces bit-identical answers (including the
    windowed backend's reservoir RNG state)."""
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    half = len(zipf_stream) // 2
    engine.ingest(zipf_stream.prefix(half))
    path = tmp_path / f"{backend}-mid.snap"
    engine.save(path)
    restored = SketchEngine.load(path)

    tail = zipf_stream.suffix(half)
    engine.ingest(tail)
    restored.ingest(tail)

    keys = query_keys(zipf_stream)
    assert restored.estimator.query_edges(keys) == engine.estimator.query_edges(keys)
    assert restored.elements_processed == engine.elements_processed
    engine.close()
    restored.close()


# ---------------------------------------------------------------------- #
# Backend parity details
# ---------------------------------------------------------------------- #
def test_sharded_subgraph_and_confidence_match_gsketch_bit_exactly(
    zipf_stream, zipf_sample, small_config
):
    gsketch_engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    sharded_engine = BACKEND_BUILDERS["sharded"](zipf_stream, zipf_sample, small_config)
    gsketch_engine.ingest(zipf_stream)
    sharded_engine.ingest(zipf_stream)

    keys = query_keys(zipf_stream, count=120)
    subgraph = SubgraphQuery.from_edges(keys[:12])
    assert sharded_engine.estimator.query_subgraph(subgraph) == gsketch_engine.estimator.query_subgraph(subgraph)
    assert sharded_engine.estimator.confidence_batch(keys) == gsketch_engine.estimator.confidence_batch(keys)
    assert sharded_engine.estimator.confidence(keys[0]) == gsketch_engine.estimator.confidence(keys[0])
    sharded_engine.close()


def test_global_query_edges_matches_scalar_path(zipf_stream, small_config):
    baseline = GlobalSketch(small_config)
    baseline.process(zipf_stream)
    keys = query_keys(zipf_stream, count=200)
    assert baseline.query_edges(keys) == [baseline.query_edge(key) for key in keys]
    intervals = baseline.confidence_batch(keys)
    assert intervals == [baseline.confidence(key) for key in keys]


def test_windowed_lifetime_batch_queries_match_scalar(zipf_stream, small_config):
    engine = SketchEngine.builder().config(small_config).windowed(1_500.0, sample_size=500).build()
    engine.ingest(zipf_stream)
    windowed = engine.estimator
    assert windowed.num_windows >= 2
    keys = query_keys(zipf_stream, count=40)
    assert windowed.query_edges(keys) == [windowed.query_edge_lifetime(key) for key in keys]
    intervals = windowed.confidence_batch(keys)
    assert [interval.estimate for interval in intervals] == windowed.query_edges(keys)
    assert all(interval.failure_probability <= 1.0 for interval in intervals)


# ---------------------------------------------------------------------- #
# Typed results and dispatch
# ---------------------------------------------------------------------- #
def test_estimates_carry_partition_provenance(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    known = sorted(zipf_stream.distinct_edges())[0]
    unknown = ("never-seen-source", "x")

    estimate = engine.query(EdgeQuery(*known))
    assert estimate.provenance.backend == "gsketch"
    assert estimate.provenance.partition is not None
    assert estimate.interval is not None
    assert estimate.value == estimate.interval.estimate
    assert float(estimate) == estimate.value

    outlier = engine.query(unknown)  # bare key shorthand
    assert outlier.provenance.outlier is True
    assert outlier.provenance.partition == OUTLIER_PARTITION

    # Mixed-type key blocks must not coerce labels: the int-labelled edge
    # keeps its real partition even when routed alongside a string label.
    mixed = engine.query([known, unknown])
    assert mixed[0].provenance.partition == estimate.provenance.partition
    assert mixed[0].provenance.outlier is False
    assert mixed[1].provenance.outlier is True

    document = estimate.to_dict()
    assert document["backend"] == "gsketch"
    assert "interval" in document and document["interval"]["lower"] >= 0.0


def test_sharded_estimates_carry_shard_provenance(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["sharded"](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    estimate = engine.query(EdgeQuery(*sorted(zipf_stream.distinct_edges())[0]))
    assert estimate.provenance.backend == "sharded"
    assert estimate.provenance.shard is not None
    assert 0 <= estimate.provenance.shard < engine.estimator.num_shards
    engine.close()


def test_window_query_dispatch(zipf_stream, small_config):
    engine = SketchEngine.builder().config(small_config).windowed(2_000.0).build()
    engine.ingest(zipf_stream)
    key = sorted(zipf_stream.distinct_edges())[0]

    whole = engine.query(WindowQuery(key[0], key[1], 0.0, float(len(zipf_stream))))
    assert whole.value == pytest.approx(engine.estimator.query_edge_lifetime(key))
    assert whole.provenance.backend == "windowed"

    # EdgeQuery with an attached window lifts to the same path.
    lifted = engine.query(EdgeQuery(key[0], key[1], window=(0.0, float(len(zipf_stream)))))
    assert lifted.value == whole.value

    with pytest.raises(ValueError):
        WindowQuery(key[0], key[1], 5.0, 5.0)


def test_window_query_rejected_on_non_windowed_backend(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    with pytest.raises(EngineError):
        engine.query(WindowQuery("a", "b", 0.0, 1.0))


def test_query_batch_mixed_shapes(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    keys = sorted(zipf_stream.distinct_edges())[:4]
    queries = [
        EdgeQuery(*keys[0]),
        keys[1],
        SubgraphQuery.from_edges(keys),
        EdgeQuery(*keys[2]),
    ]
    estimates = engine.query(queries)
    assert len(estimates) == len(queries)
    assert estimates[0].value == engine.estimator.query_edge(keys[0])
    assert estimates[2].value == pytest.approx(
        sum(engine.estimator.query_edges(keys))
    )
    # batched edge answers agree with the one-at-a-time path
    assert [estimates[0].value, estimates[1].value, estimates[3].value] == [
        engine.query(EdgeQuery(*key)).value for key in (keys[0], keys[1], keys[2])
    ]


def test_deprecated_shims_warn_and_stay_bit_exact(
    zipf_stream, zipf_sample, small_config
):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    keys = sorted(zipf_stream.distinct_edges())[:6]
    expected = engine.query(keys)

    with pytest.warns(DeprecationWarning, match="estimate_edges is deprecated"):
        via_estimate = engine.estimate_edges(keys)
    with pytest.warns(DeprecationWarning, match="query_many is deprecated"):
        via_many = engine.query_many(keys)

    assert [e.value for e in via_estimate] == [e.value for e in expected]
    assert [e.value for e in via_many] == [e.value for e in expected]
    assert [e.provenance.partition for e in via_estimate] == [
        e.provenance.partition for e in expected
    ]


# ---------------------------------------------------------------------- #
# Columnar materialization: engine.query == per-key typed objects
# ---------------------------------------------------------------------- #
def reference_estimates(engine, keys):
    """Estimates built key by key from each backend's oracle path.

    The partitioned backends answer from the pre-plan routed path
    (``confidence_batch_direct``) with provenance and degraded-serving
    widening applied per key; the Global Sketch and the windowed backend
    answer from their scalar ``confidence`` paths (windowed: summed over the
    windows, failure union bound clamped at 1).
    """
    estimator = engine.estimator
    backend = engine.backend
    generation = getattr(estimator, "ingest_generation", None)
    if backend in ("gsketch", "sharded"):
        intervals, partitions = estimator.confidence_batch_direct(keys)
    elif backend == "global":
        intervals, partitions = [estimator.confidence(key) for key in keys], None
    else:
        windows = [estimator.estimator_for_window(w) for w in estimator.window_indices()]
        intervals, partitions = [], None
        for key in keys:
            parts = [window.confidence(key) for window in windows]
            intervals.append(
                ConfidenceInterval(
                    sum((part.estimate for part in parts), 0.0),
                    sum((part.additive_bound for part in parts), 0.0),
                    min(sum((part.failure_probability for part in parts), 0.0), 1.0),
                )
            )
    if partitions is None:
        provenance = Provenance(backend=backend, generation=generation)
        return [Estimate(i.estimate, i, provenance) for i in intervals]
    dead = set(getattr(estimator, "dead_shards", ()))
    estimates = []
    for interval, partition in zip(intervals, partitions):
        shard = estimator.plan.shard_of(partition) if backend == "sharded" else None
        degraded = shard in dead
        if degraded:
            interval = ConfidenceInterval(
                interval.estimate,
                interval.additive_bound,
                min(interval.failure_probability + math.exp(-estimator.config.depth), 1.0),
                upper_slack=estimator.supervisor.lost_frequency(shard),
            )
        provenance = Provenance(
            backend=backend,
            partition=partition,
            shard=shard,
            outlier=partition == OUTLIER_PARTITION,
            degraded=degraded,
            generation=generation,
        )
        estimates.append(Estimate(interval.estimate, interval, provenance))
    return estimates


def assert_same_estimates(got, want):
    assert got == want
    assert [repr(e) for e in got] == [repr(e) for e in want]
    assert [e.to_dict() for e in got] == [e.to_dict() for e in want]


@pytest.mark.parametrize("backend", sorted(BACKEND_BUILDERS))
def test_query_block_equals_per_key_reference(
    backend, zipf_stream, zipf_sample, small_config
):
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    keys = query_keys(zipf_stream, count=300)
    # Integer labels only (exact-int columns), then with a string-labelled
    # outlier key (object columns).
    for block in (keys[:-1], keys):
        got = engine.query([EdgeQuery(*key) for key in block])
        assert_same_estimates(got, reference_estimates(engine, block))
        # Bare keys take the mixed-block path and agree.
        assert engine.query(list(block)) == got
    engine.close()


def test_windowed_query_block_clamps_failure_union_bound(zipf_stream):
    """Depth 1 over several windows pushes the union bound past 1."""
    config = GSketchConfig(total_cells=8_000, depth=1, seed=7)
    engine = SketchEngine.builder().config(config).windowed(1_000.0, sample_size=400).build()
    engine.ingest(zipf_stream)
    keys = query_keys(zipf_stream, count=100)
    got = engine.query([EdgeQuery(*key) for key in keys])
    assert all(e.interval.failure_probability == 1.0 for e in got)
    assert_same_estimates(got, reference_estimates(engine, keys))


def test_degraded_sharded_query_block_equals_per_key_reference(
    zipf_stream, zipf_sample, small_config
):
    spec = faults.FaultSpec(
        site=faults.SITE_CRASH_BEFORE_APPLY, at_hit=1, shard=1, persistent=True
    )
    faults.install(faults.FaultPlan([spec]))
    try:
        engine = (
            SketchEngine.builder()
            .config(small_config)
            .sample(zipf_sample)
            .stream_size_hint(len(zipf_stream))
            .sharded(3, "processes")
            .recovery(max_restarts=1, backoff_seconds=0.01, degraded_serving=True)
            .build()
        )
        try:
            engine.ingest(zipf_stream, batch_size=512)
            assert engine.estimator.dead_shards == (1,)
            keys = query_keys(zipf_stream, count=300)
            got = engine.query([EdgeQuery(*key) for key in keys])
            assert any(e.provenance.degraded for e in got)
            assert any(e.interval.upper_slack > 0.0 for e in got)
            assert not all(e.provenance.degraded for e in got)
            assert_same_estimates(got, reference_estimates(engine, keys))
        finally:
            engine.close()
    finally:
        faults.clear()


@pytest.mark.parametrize("backend", sorted(BACKEND_BUILDERS))
def test_empty_query_block(backend, zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream.prefix(500))
    assert engine.query([]) == []
    assert engine.estimator.confidence_batch([]) == []
    engine.close()


@pytest.mark.parametrize("backend", ["gsketch", "windowed"])
def test_mixed_query_block_matches_single_queries(
    backend, zipf_stream, zipf_sample, small_config
):
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    keys = query_keys(zipf_stream, count=6)
    queries = [
        EdgeQuery(*keys[0]),
        keys[1],
        SubgraphQuery.from_edges(keys[:4]),
        EdgeQuery(*keys[2]),
        keys[-1],
    ]
    if backend == "windowed":
        queries.insert(2, EdgeQuery(*keys[3], window=(0.0, float(len(zipf_stream)))))
    got = engine.query(queries)
    assert got == [engine.query(query) for query in queries]
    # The lifetime edge queries among them share one batched pass.
    edges = [
        (position, query if isinstance(query, tuple) else query.key)
        for position, query in enumerate(queries)
        if isinstance(query, tuple) or (isinstance(query, EdgeQuery) and query.window is None)
    ]
    assert_same_estimates(
        [got[position] for position, _ in edges],
        reference_estimates(engine, [key for _, key in edges]),
    )
    engine.close()


def test_returned_estimates_stay_frozen(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    keys = query_keys(zipf_stream, count=20)
    estimates = engine.query([EdgeQuery(*key) for key in keys])
    estimate = estimates[0]
    with pytest.raises(FrozenInstanceError):
        estimate.value = 1.0
    with pytest.raises(FrozenInstanceError):
        estimate.interval.estimate = 1.0
    with pytest.raises(FrozenInstanceError):
        estimate.provenance.partition = 0
    # Keys answered by one partition share one (immutable) provenance record.
    by_partition = {}
    for e in estimates:
        assert by_partition.setdefault(e.provenance.partition, e.provenance) == e.provenance


def label_column_reference(values):
    """``label_column`` as it was before its exact-``int`` fast path."""
    if values and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values
    ):
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            pass
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


@pytest.mark.parametrize(
    "labels, dtype",
    [
        ([3, 1, 4, 1, 5], np.int64),
        ([np.int64(3), np.int64(1), np.int64(4)], np.int64),
        ([3, np.int64(1), np.int32(4)], np.int64),
        ([True, False, True], object),
        ([1, True, 2], object),
        (["a", "b", "c"], object),
        ([1, "b", 3], object),
        ([1.0, 2.0, 3.0], object),
        ([2**63, 1, 2], object),
        ([1, 2, 2**64 + 5], object),
        ([], object),
    ],
)
def test_label_column_keeps_dtype_and_hashing(labels, dtype):
    column = label_column(labels)
    reference = label_column_reference(labels)
    assert column.dtype == dtype == reference.dtype
    assert column.tolist() == reference.tolist()
    targets = list(range(len(labels)))
    batch = EdgeBatch.from_labels(labels, targets)
    want = EdgeBatch.from_arrays(
        reference, label_column_reference(targets), np.zeros(len(labels))
    )
    assert np.array_equal(batch.hashed_keys(), want.hashed_keys())
    keys = list(zip(labels, targets))
    assert np.array_equal(EdgeBatch.from_edge_keys(keys).hashed_keys(), want.hashed_keys())


# ---------------------------------------------------------------------- #
# Builder validation
# ---------------------------------------------------------------------- #
def test_builder_requires_config():
    with pytest.raises(EngineError, match="config"):
        SketchEngine.builder().build()


def test_builder_config_kwargs(zipf_sample):
    engine = (
        SketchEngine.builder()
        .config(total_cells=4_000, depth=3, seed=11)
        .sample(zipf_sample)
        .build()
    )
    assert engine.backend == "gsketch"
    assert engine.estimator.config.depth == 3
    with pytest.raises(EngineError):
        SketchEngine.builder().config(GSketchConfig(total_cells=100), depth=3)


def test_builder_variant_conflicts(zipf_sample, small_config):
    with pytest.raises(EngineError, match="mutually exclusive"):
        (
            SketchEngine.builder()
            .config(small_config)
            .sample(zipf_sample)
            .sharded(2)
            .windowed(10.0)
            .build()
        )
    with pytest.raises(EngineError, match="sample"):
        SketchEngine.builder().config(small_config).sharded(2).build()
    with pytest.raises(EngineError, match="sample"):
        SketchEngine.builder().config(small_config).workload(zipf_sample).build()
    with pytest.raises(EngineError, match="workload"):
        (
            SketchEngine.builder()
            .config(small_config)
            .workload(zipf_sample)
            .windowed(10.0)
            .build()
        )


def test_builder_derives_sample_from_dataset(zipf_stream, small_config):
    engine = (
        SketchEngine.builder()
        .config(small_config)
        .dataset(zipf_stream)
        .sample_size(1_000)
        .build()
    )
    assert engine.backend == "gsketch"
    assert engine.estimator.num_partitions >= 1
    # The hint defaults to the dataset length (Theorem-1 extrapolation).
    assert engine.estimator.stats is not None


def test_builder_workload_partitioning(zipf_stream, zipf_sample, small_config):
    workload = zipf_stream.prefix(800)
    engine = (
        SketchEngine.builder()
        .config(small_config)
        .sample(zipf_sample)
        .workload(workload)
        .build()
    )
    assert engine.backend == "gsketch"
    assert engine.estimator.workload_weights is not None


# ---------------------------------------------------------------------- #
# Snapshot format
# ---------------------------------------------------------------------- #
def test_snapshot_rejects_foreign_and_versioned_files(tmp_path, zipf_sample, small_config):
    garbage = tmp_path / "garbage.snap"
    with open(garbage, "wb") as handle:
        pickle.dump({"format": "something-else"}, handle)
    with pytest.raises(SnapshotError, match="not a"):
        load_snapshot(garbage)

    not_pickle = tmp_path / "notes.txt"
    not_pickle.write_text("these are not the bytes you are looking for")
    with pytest.raises(SnapshotError, match="not a readable"):
        load_snapshot(not_pickle)
    truncated = tmp_path / "empty.snap"
    truncated.write_bytes(b"")
    with pytest.raises(SnapshotError):
        load_snapshot(truncated)

    engine = SketchEngine.builder().config(small_config).sample(zipf_sample).build()
    path = engine.save(tmp_path / "ok.snap")
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    payload["version"] = 999
    future = tmp_path / "future.snap"
    with open(future, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(SnapshotError, match="version"):
        load_snapshot(future)

    payload["version"] = api.SNAPSHOT_VERSION
    payload["backend"] = "quantum"
    unknown = tmp_path / "unknown.snap"
    with open(unknown, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(SnapshotError, match="backend"):
        load_snapshot(unknown)


def test_api_exports_import_cleanly():
    for name in api.__all__:
        assert getattr(api, name) is not None, name

"""``serve-mixed``: wire reads against live wire ingest on a fresh server.

Set-up saves an engine holding the first half of a ``gtgraph-small`` stream
as a snapshot; a child process (:mod:`serve_child`) loads and serves it.
One load-generator process opens two connections:

* the reader connection runs a closed loop of 4 outstanding
  ``query_edges`` requests of 128 keys, drawn uniformly from all distinct
  edges of the stream (callers wait for answers);
* the writer connection runs an open loop: a 512-edge ``ingest`` frame
  from the second half of the stream every 100 ms, each timed from its
  scheduled send (stream producers do not wait).

Only this workload goes through ``serving.wire``, ``serving.coalesce``,
``serving.server`` and the plan's hot cache and refresh: every ingest
bumps the generation, which empties the hot cache and forces a plan
refresh.
"""

from __future__ import annotations

import asyncio
import json
import select
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from harness import (
    BIN_S,
    MEMORY_BYTES,
    ROOT,
    Tally,
    Tracer,
    WorkloadResult,
    bit_equal,
    latency_summary,
    median,
    proc_cpu_seconds,
    rng_for,
    scratch_dir,
)
from repro import EdgeBatch, GSketchConfig, SketchEngine, StreamEdge
from repro.datasets import load_dataset
from repro.queries.evaluation import summarize_errors
from repro.serving import ServingError, connect
from repro.serving import wire

DATASET = "gtgraph-small"
READ_KEYS = 128
READERS = 4
WRITE_EDGES = 512
WRITE_PERIOD_S = 0.1
WARMUP_S = 1.0
SWEEP_KEYS = 512
SPAWNS = 3
ACCURACY_QUERIES = 10_000
READ_BLOCKS = 4_096
REFRESH_REPEATS = 20
CODEC_REPEATS = 500
CHILD_TIMEOUT_S = 60.0


class ServerChild:
    """A server process owned by the benchmark, driven over its stdin/stdout."""

    def __init__(self, snapshot: Path) -> None:
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_child.py")), str(snapshot)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - began
        self.port = int(self.ready["port"])

    def _read(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("the server child exited or stopped answering")
        return json.loads(line)

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        final = self.command("stop")
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


@dataclass
class KeySet:
    """Edge keys in wire form, with the columns the replica is queried with."""

    pairs: List[tuple]
    sources: np.ndarray
    hashed: np.ndarray

    @classmethod
    def of(cls, pairs: List[tuple]) -> "KeySet":
        batch = EdgeBatch.from_edge_keys(pairs)
        return cls(pairs, batch.sources, batch.hashed_keys())

    def block(self, index: int, size: int) -> List[tuple]:
        return self.pairs[index * size : (index + 1) * size]


def _plan_answers(engine: SketchEngine, sources: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """The replica's answers through its compiled plan (route, then gather)."""
    plan = engine.estimator.compile_plan()
    slots, _partitions = plan.route_sources(sources)
    return plan.estimate_keys(hashed, slots)


@dataclass
class Probe:
    """Server counters, server CPU and client CPU at one instant."""

    at: float
    stats: dict
    server_cpu_s: float
    client_cpu_s: float


@dataclass
class LoadRecord:
    # (slot, block index, start, end, generation or None, values or None)
    reads: List[tuple] = field(default_factory=list)
    # (frame number, due, sent, acked, generation or None, ok)
    writes: List[tuple] = field(default_factory=list)
    # (block start, values or None)
    sweep: List[tuple] = field(default_factory=list)
    probes: List[Probe] = field(default_factory=list)
    window: "tuple[float, float]" = (0.0, 0.0)
    trace_from: float = float("inf")


async def _probe(child: ServerChild) -> Probe:
    stats = await asyncio.get_running_loop().run_in_executor(None, child.command, "stats")
    return Probe(
        at=time.perf_counter(),
        stats=stats,
        server_cpu_s=proc_cpu_seconds(child.proc.pid),
        client_cpu_s=time.process_time(),
    )


async def _load(
    child: ServerChild,
    reads: KeySet,
    frames: List[list],
    sweep: KeySet,
    seconds: float,
    tracer: Optional[Tracer],
) -> LoadRecord:
    record = LoadRecord()
    reader = await connect("127.0.0.1", child.port)
    writer = await connect("127.0.0.1", child.port)
    loop = asyncio.get_running_loop()
    start = time.perf_counter()
    window_start = start + WARMUP_S
    window_end = window_start + seconds
    record.window = (window_start, window_end)
    if tracer is not None:
        record.trace_from = window_start + seconds / 2
    stopping = False
    cursor = 0

    async def read_slot(slot: int) -> None:
        nonlocal cursor
        while not stopping:
            index = cursor
            cursor = (cursor + 1) % READ_BLOCKS
            begin = time.perf_counter()
            try:
                if begin >= record.trace_from:
                    with tracer.span("serving.client.query_edges", READ_KEYS):
                        result = await reader.query_edges(reads.block(index, READ_KEYS))
                else:
                    result = await reader.query_edges(reads.block(index, READ_KEYS))
            except ServingError:
                record.reads.append((slot, index, begin, time.perf_counter(), None, None))
                continue
            record.reads.append(
                (slot, index, begin, time.perf_counter(), result.generation, result.values)
            )

    async def send(number: int, due: float) -> None:
        sent = time.perf_counter()
        frame = frames[number % len(frames)]
        try:
            ingested, generation = await writer.ingest(frame)
        except ServingError:
            record.writes.append((number, due, sent, time.perf_counter(), None, False))
            return
        record.writes.append(
            (number, due, sent, time.perf_counter(), generation, ingested == len(frame))
        )

    async def write_loop() -> List[asyncio.Task]:
        sends = []
        number = 0
        while True:
            due = start + number * WRITE_PERIOD_S
            if due >= window_end:
                return sends
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sends.append(loop.create_task(send(number, due)))
            number += 1

    try:
        slots = [loop.create_task(read_slot(slot)) for slot in range(READERS)]
        writes = loop.create_task(write_loop())
        await asyncio.sleep(window_start - time.perf_counter())
        record.probes.append(await _probe(child))
        await asyncio.sleep(window_end - time.perf_counter())
        record.probes.append(await _probe(child))
        stopping = True
        await asyncio.gather(*slots)
        await asyncio.gather(*await writes)
        for begin in range(0, len(sweep.pairs), SWEEP_KEYS):
            try:
                result = await reader.query_edges(sweep.pairs[begin : begin + SWEEP_KEYS])
                record.sweep.append((begin, result.values))
            except ServingError:
                record.sweep.append((begin, None))
    finally:
        await reader.close()
        await writer.close()
    return record


def _reads_by_generation(record: LoadRecord, tally: Tally) -> Dict[int, List[tuple]]:
    """Group answered reads by generation, failing any that went back in time."""
    last_generation: Dict[int, int] = {}
    by_generation: Dict[int, List[tuple]] = defaultdict(list)
    for slot, index, _begin, _end, generation, values in record.reads:
        if generation is None:
            tally.record(False, "a read was refused or failed")
            continue
        if generation < last_generation.get(slot, -1):
            tally.record(False, f"reader {slot} saw generation go back to {generation}")
            continue
        last_generation[slot] = generation
        by_generation[generation].append((index, values))
    return by_generation


def _verify(
    snapshot: Path,
    record: LoadRecord,
    reads: KeySet,
    frames: List[list],
    sweep: KeySet,
    tally: Tally,
) -> SketchEngine:
    """Replay the acknowledged frames on an in-process replica of the server.

    Every read must equal the replica's answer at the generation the read
    reported, every reader slot must see non-decreasing generations, and the
    quiesced sweep must equal the replica after the last acknowledged frame.
    Returns the replica (at its final state).
    """
    by_generation = _reads_by_generation(record, tally)
    replica = SketchEngine.load(snapshot)
    estimator = replica.estimator

    def check_reads_at(generation: int) -> None:
        entries = by_generation.pop(generation, [])
        if not entries:
            return
        blocks = np.array([index for index, _values in entries])
        rows = (blocks[:, None] * READ_KEYS + np.arange(READ_KEYS)).ravel()
        want = _plan_answers(replica, reads.sources[rows], reads.hashed[rows])
        for row, (_index, values) in zip(want.reshape(len(entries), READ_KEYS), entries):
            tally.record(bit_equal(values, row), f"read at generation {generation} differs")

    check_reads_at(int(estimator.ingest_generation))
    acked = sorted((w for w in record.writes if w[5]), key=lambda w: w[4])
    for number, _due, _sent, _acked, generation, _ok in acked:
        replica.ingest_batch(_frame_batch(frames[number % len(frames)]))
        applied = int(estimator.ingest_generation)
        tally.record(
            applied == generation, f"frame {number} acked at {generation}, replayed at {applied}"
        )
        check_reads_at(applied)
    for number, *_rest, ok in record.writes:
        if not ok:
            tally.record(False, f"ingest frame {number} was not acknowledged")
    for generation, entries in by_generation.items():
        tally.record(
            False, f"{len(entries)} reads at generation {generation} never replayed", len(entries)
        )

    final = _plan_answers(replica, sweep.sources, sweep.hashed)
    for begin, values in record.sweep:
        block = final[begin : begin + SWEEP_KEYS]
        tally.record(values is not None and bit_equal(values, block), f"sweep at {begin} differs")
    return replica


def _frame_batch(frame: list) -> EdgeBatch:
    """The server's own conversion of an ingest frame."""
    return EdgeBatch.from_edges(
        [StreamEdge(s, t, float(ts), float(f)) for s, t, ts, f in frame]
    )


def _accuracy(first_half, frames, record: LoadRecord, sweep: KeySet, seed: int):
    """Eq. 13/14 of the swept answers over the stream the server absorbed."""
    served = [(edge.key, edge.frequency) for edge in first_half]
    for number, *_rest, ok in sorted(record.writes, key=lambda w: w[0]):
        if ok:
            served.extend(((s, t), f) for s, t, _ts, f in frames[number % len(frames)])
    truth: Dict[tuple, float] = defaultdict(float)
    for key, frequency in served:
        truth[key] += frequency
    picks = rng_for(seed, "serve-accuracy").integers(0, len(served), ACCURACY_QUERIES)
    queries = [served[int(i)][0] for i in picks]
    swept = {}
    for begin, values in record.sweep:
        if values is not None:
            swept.update(zip(sweep.pairs[begin : begin + SWEEP_KEYS], values))
    estimates = [swept.get(key, float("nan")) for key in queries]
    return summarize_errors(estimates, [truth[key] for key in queries])


def _codec_us_per_key(read_block: list, values: tuple) -> float:
    """Encode and decode one 128-key request and its response."""
    request = {"op": wire.OP_QUERY_EDGES, "edges": wire.edges_to_wire(read_block), "id": 1}
    response = {"id": 1, "status": wire.STATUS_OK, "generation": 1, "values": list(values)}
    begin = time.perf_counter()
    for _ in range(CODEC_REPEATS):
        for payload in (request, response):
            wire.decode_body(wire.encode_frame(payload)[4:])
    return (time.perf_counter() - begin) / (CODEC_REPEATS * len(read_block)) * 1e6


def _refresh_ms(replica: SketchEngine, frame: list) -> float:
    """``compile_plan()`` right after a 512-edge ingest (the refresh each frame forces)."""
    samples = []
    for _ in range(REFRESH_REPEATS):
        replica.ingest_batch(_frame_batch(frame))
        begin = time.perf_counter()
        replica.estimator.compile_plan()
        samples.append(time.perf_counter() - begin)
    return median(samples) * 1e3


def run(seed: int, seconds: float, traced: bool = False, dataset: str = DATASET) -> WorkloadResult:
    tally = Tally()
    stream = load_dataset(dataset, seed=seed).stream
    half = len(stream) // 2
    first_half = stream.prefix(half)
    config = GSketchConfig.from_memory_bytes(MEMORY_BYTES)
    engine = SketchEngine.builder().config(config).dataset(stream).build()
    engine.ingest(first_half)
    workdir = scratch_dir("serve-mixed")
    try:
        snapshot = engine.save(workdir / "first-half.snap")
        del engine
        return _serve_and_measure(seed, seconds, traced, stream, first_half, snapshot, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _serve_and_measure(seed, seconds, traced, stream, first_half, snapshot, tally):
    half = len(first_half)
    second = stream.edges()[half:]
    frames = [
        [[e.source, e.target, e.timestamp, e.frequency] for e in second[i : i + WRITE_EDGES]]
        for i in range(0, len(second) - WRITE_EDGES + 1, WRITE_EDGES)
    ]
    sweep = KeySet.of(sorted(stream.distinct_edges()))
    picks = rng_for(seed, "serve-reads").integers(0, len(sweep.pairs), READ_BLOCKS * READ_KEYS)
    reads = KeySet.of([sweep.pairs[i] for i in picks.tolist()])
    tracer = Tracer() if traced else None

    children = []
    try:
        for _ in range(SPAWNS):  # only the last one serves the load
            if children:
                children[-1].stop()
            children.append(ServerChild(snapshot))
        child = children[-1]
        record = asyncio.run(_load(child, reads, frames, sweep, seconds, tracer))
        final = child.stop()
    finally:
        for spawned in children:
            spawned.kill()

    replica = _verify(snapshot, record, reads, frames, sweep, tally)
    accuracy = _accuracy(first_half, frames, record, sweep, seed)
    window_start, window_end = record.window

    def read_window(lo: float, hi: float) -> "tuple[Dict[str, float], float]":
        """Latency of the reads inside ``[lo, hi]`` and their keys per second,
        the lower quartile over whole one-second bins."""
        inside = [
            (begin, end)
            for _slot, _index, begin, end, generation, _values in record.reads
            if generation is not None and begin >= lo and end <= hi
        ]
        whole = int((hi - lo) // BIN_S)
        latency = latency_summary(
            [end - begin for begin, end in inside], [begin for begin, _e in inside]
        )
        if whole == 0:  # a window shorter than one bin (tiny test runs)
            return latency, len(inside) * READ_KEYS / (hi - lo)
        bins = np.bincount([int((end - lo) // BIN_S) for _b, end in inside], minlength=whole)
        return latency, float(np.percentile(bins[:whole], 25)) * READ_KEYS / BIN_S

    latency, keys_per_s = read_window(window_start, window_end)
    keys = latency["samples"] * READ_KEYS
    window_writes = [w for w in record.writes if w[1] >= window_start]
    acks = [acked - due for _n, due, _s, acked, _g, ok in window_writes if ok]
    late = [sent - due for _n, due, sent, _a, _g, _ok in window_writes]
    report = {
        "op": f"query_edges({READ_KEYS}) x{READERS} outstanding, ingest({WRITE_EDGES}) every "
        f"{WRITE_PERIOD_S * 1e3:.0f} ms",
        "latency": latency,
        "ingest_ack_p50_ms": median(acks) * 1e3,
        "ingest_acks": len(acks),
        "server_final": final,
        "setup_s": [c.setup_s for c in children],
    }
    if not traced:
        metrics = {
            "setup_s": median([c.setup_s for c in children]),
            "rss_mb": float(final["peak_rss_mb"]),
            "success_frac": tally.success_frac,
            "keys_per_s": keys_per_s,
            "op_p50_ms": latency["p50_ms"],
            "avg_rel_error": accuracy.average_relative_error,
            "effective_query_frac": accuracy.effective_fraction,
        }
        return WorkloadResult(metrics, tally, report)

    begin_probe, end_probe = record.probes
    server_cpu = end_probe.server_cpu_s - begin_probe.server_cpu_s
    client_cpu = end_probe.client_cpu_s - begin_probe.client_cpu_s
    probe_wall = end_probe.at - begin_probe.at

    def delta(*path: str) -> float:
        lo, hi = begin_probe.stats, end_probe.stats
        for part in path:
            lo, hi = lo[part], hi[part]
        return float(hi - lo)

    batches = delta("server", "coalescer", "batches")
    hits, misses = delta("hot_cache", "hits"), delta("hot_cache", "misses")
    middle = window_start + seconds / 2
    _untraced, untraced_kps = read_window(window_start, middle)
    _traced, traced_kps = read_window(middle, window_end)
    generations = {
        generation
        for _slot, _index, begin, end, generation, _values in record.reads
        if generation is not None and begin >= window_start and end <= window_end
    }
    metrics = {
        "serving.server.cpu_us_per_key": server_cpu / keys * 1e6,
        "serving.client.cpu_us_per_key": client_cpu / keys * 1e6,
        "serving.wire.codec_us_per_key": _codec_us_per_key(reads.block(0, READ_KEYS), record.sweep[0][1]),
        "serving.server.busy_frac": server_cpu / probe_wall,
        "serving.coalesce.mean_batch_keys": delta("server", "coalescer", "coalesced_keys")
        / batches,
        "serving.coalesce.batches": batches,
        "serving.coalesce.shed": delta("server", "coalescer", "rejected")
        + delta("server", "coalescer", "expired"),
        "queries.plan.hot_cache_hit_frac": hits / (hits + misses),
        "queries.plan.refresh_ms": _refresh_ms(replica, frames[0]),
        "api.snapshot.load_s": median([c.ready["load_s"] for c in children]),
        "loadgen.writer_late_p50_ms": median(late) * 1e3,
        "serve.generations_observed": float(len(generations)),
        "serving.server.ingest_ack_p50_ms": median(acks) * 1e3,
        "serving.server.ingest_ack_samples": len(acks),
        "serving.client.keys_per_s": keys_per_s,
        "serving.client.read_p50_ms": latency["p50_ms"],
        "serving.client.read_p90_ms": latency["p90_ms"],
        "serving.client.read_p99_ms": latency["p99_ms"],
        "serving.client.read_samples": latency["samples"],
        "trace.serve-mixed.overhead_frac": 1.0 - traced_kps / untraced_kps,
    }
    return WorkloadResult(metrics, tally, report, tracer)

"""Shared plumbing for the gSketch benchmark: timing summaries, the in-memory
span tracer, correctness tallies, process probes and the machine record.

Nothing here imports :mod:`repro`; the workload modules do, after
:mod:`run` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

#: The checkout root: the benchmark lives in ``<root>/gbench``.
ROOT = Path(__file__).resolve().parent.parent

#: The space budget every workload runs under (256 kB of counters).
MEMORY_BYTES = 256_000

#: Width of the time bins throughput is taken over.
BIN_S = 1.0


# ---------------------------------------------------------------------- #
# Timing summaries
# ---------------------------------------------------------------------- #
def latency_summary(
    durations_s: Sequence[float], begins: Sequence[float], bin_s: float = BIN_S
) -> Dict[str, float]:
    """Latency in milliseconds with the sample and bin counts behind it.

    ``p50_ms`` is the median latency that held in three seconds out of four:
    the upper quartile, over whole one-second bins, of each bin's median.
    The core's speed drifts in spells of seconds, and a plain median flips
    between the fast and the slow spell; the quartile over bins does not.
    ``p90_ms`` and ``p99_ms`` are taken over all samples.
    """
    samples = np.asarray(durations_s, dtype=np.float64) * 1e3
    if samples.size == 0:
        raise ValueError("no latency samples were recorded")
    bins = _bin_of(begins, bin_s)
    per_bin = [samples[bins == b] for b in range(int(bins.max()) + 1)]
    whole = [chunk for chunk in per_bin[:-1] if chunk.size] or per_bin
    return {
        "p50_ms": float(np.percentile([np.median(chunk) for chunk in whole], 75)),
        "p90_ms": float(np.percentile(samples, 90)),
        "p99_ms": float(np.percentile(samples, 99)),
        "samples": int(samples.size),
        "bins": len(whole),
    }


def _bin_of(begins: Sequence[float], bin_s: float) -> np.ndarray:
    begins = np.asarray(begins, dtype=np.float64)
    return ((begins - begins.min()) // bin_s).astype(np.int64)


def binned_rate(
    begins: Sequence[float], amounts: Sequence[float], durations: Sequence[float],
    bin_s: float = BIN_S,
) -> float:
    """The rate sustained in three seconds out of four.

    Work done per second spent in the calls, per one-second bin; the lower
    quartile over whole bins, so a slow or fast spell shorter than a quarter
    of the run does not move it.
    """
    bins = _bin_of(begins, bin_s)
    work = np.bincount(bins, weights=np.asarray(amounts, dtype=np.float64))
    busy = np.bincount(bins, weights=np.asarray(durations, dtype=np.float64))
    full = busy > 0
    if full.size > 1:
        full[-1] = False  # the last bin is cut short by the deadline
    return float(np.percentile(work[full] / busy[full], 25))


@dataclass
class OpSamples:
    """Begin time, duration and size (keys or elements) of each timed call."""

    begins: List[float] = field(default_factory=list)
    durations: List[float] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)

    def add(self, begin: float, end: float, size: int) -> None:
        self.begins.append(begin)
        self.durations.append(end - begin)
        self.sizes.append(size)

    def rate(self) -> float:
        """Keys (or elements) per second, as a median over time bins."""
        return binned_rate(self.begins, self.sizes, self.durations)

    def latency(self) -> Dict[str, float]:
        return latency_summary(self.durations, self.begins)


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


class SpreadSetups:
    """Times a set-up ``count`` times, spread evenly over the next ``seconds``.

    The core's speed changes in spells of seconds, so set-ups run back to
    back all land in one spell; spread over the timed loop, their median is
    the run's.  The loop calls :meth:`poll` between operations; the set-up
    time is not inside any timed operation.
    """

    def __init__(self, setup: Callable[[], object], count: int, seconds: float) -> None:
        self.setup = setup
        start = time.perf_counter()
        self.due = [start + (i + 0.5) * seconds / count for i in range(count)]
        self.times: List[float] = []

    def _run(self) -> None:
        self.due.pop(0)
        begin = time.perf_counter()
        self.setup()
        self.times.append(time.perf_counter() - begin)

    def poll(self) -> None:
        if self.due and time.perf_counter() >= self.due[0]:
            self._run()

    def finish(self) -> List[float]:
        """Run any set-up the loop ended before, and return every time."""
        while self.due:
            self._run()
        return self.times


# ---------------------------------------------------------------------- #
# Tracing: spans recorded from the benchmark's own code
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory spans around calls into the program's layers.

    Each span is ``(id, parent, name, start_ns, end_ns, count)``; spans of
    one operation share the parent id of that operation's span.  Spans are
    kept in memory and written out once, at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, count: int = 0, parent: int = 0) -> Iterator[int]:
        span_id = self._next_id
        self._next_id += 1
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            self.spans.append(
                (span_id, parent, name, start, time.perf_counter_ns(), count)
            )

    def total(self, name: str) -> "tuple[int, int]":
        """``(total duration in ns, total count)`` over every span named ``name``."""
        duration = count = 0
        for _id, _parent, span_name, start, end, span_count in self.spans:
            if span_name == name:
                duration += end - start
                count += span_count
        return duration, count

    def ns_per_item(self, name: str) -> float:
        duration, count = self.total(name)
        if count == 0:
            raise ValueError(f"no spans named {name!r} carried a count")
        return duration / count

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------- #
# Correctness tally
# ---------------------------------------------------------------------- #
@dataclass
class Tally:
    """Operations attempted and failed; a failed check counts as a failure."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.errors) < 20:
                self.errors.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(0, 20 - len(self.errors))])

    @property
    def success_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def bit_equal(left: Sequence[float], right: Sequence[float]) -> bool:
    """Element-wise identity of two float64 columns, bit for bit."""
    a = np.ascontiguousarray(left, dtype=np.float64)
    b = np.ascontiguousarray(right, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


# ---------------------------------------------------------------------- #
# Process probes
# ---------------------------------------------------------------------- #
def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` from ``/proc/<pid>/stat``."""
    raw = Path(f"/proc/{pid}/stat").read_text()
    fields = raw[raw.rindex(")") + 2 :].split()
    # Fields 14 and 15 of stat(5); the slice starts at field 3.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def child_pids() -> List[int]:
    """Every process whose parent is this one, zombies included."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            raw = (entry / "stat").read_text()
        except OSError:
            continue  # it ended while we looked
        if int(raw[raw.rindex(")") + 2 :].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The shared-memory shard backend starts multiprocessing's resource
    tracker, which otherwise outlives this process until it sees the exit;
    it is stopped the way multiprocessing stops it, by closing its pipe and
    waiting.  Anything else still running gets SIGTERM, then SIGKILL after
    ``grace_s``, and is reaped.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, ChildProcessError):
        pass
    pending = child_pids()
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid  # already reaped elsewhere
            if done:
                pending.remove(pid)
        if pending and time.monotonic() >= deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in pending:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            return
        if pending:
            time.sleep(0.01)


# ---------------------------------------------------------------------- #
# Machine record
# ---------------------------------------------------------------------- #
def git_sha(root: Path = ROOT) -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine's cores, in total so far."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine() -> Dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """An independent, reproducible stream per (seed, purpose)."""
    tag = int.from_bytes(purpose.encode("utf-8")[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([seed, tag])


def scratch_dir(name: str) -> Path:
    """A per-process scratch directory inside the checkout."""
    path = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class WorkloadResult:
    """What one workload run hands back to :mod:`run`."""

    metrics: Dict[str, float]
    tally: Tally
    report: Dict[str, object]
    tracer: Optional[Tracer] = None

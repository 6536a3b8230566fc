"""The server process of the ``serve-mixed`` workload.

Loads a snapshot, serves it with ``ServingConfig(allow_ingest=True)`` (every
other knob at its default, no reader pool) and prints one JSON line when it
is listening.  It then reads commands from stdin, one per line:

* ``stats`` — print the server's coalescer and request counters and the
  hot-cache counters, read on the event loop (a consistent view);
* ``stop`` (or end of input) — print the same document plus the peak RSS,
  drain and exit.

Usage: ``python3 gbench/serve_child.py SNAPSHOT``
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import proc_peak_rss_mb  # noqa: E402
from repro import ServingConfig, SketchEngine, SketchServer  # noqa: E402


def _emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def _stats(server: SketchServer, engine: SketchEngine) -> dict:
    return {
        "server": server.stats(),
        "hot_cache": engine.estimator.telemetry_snapshot()["hot_cache"],
        "generation": int(engine.estimator.ingest_generation),
    }


async def _serve(engine: SketchEngine, load_s: float) -> None:
    server = SketchServer(engine, "127.0.0.1", 0, ServingConfig(allow_ingest=True))
    await server.start()
    _emit({"ready": True, "port": server.address[1], "load_s": load_s})
    loop = asyncio.get_running_loop()
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command != "stats":
                break
            _emit(_stats(server, engine))
        final = _stats(server, engine)
        final["peak_rss_mb"] = proc_peak_rss_mb(os.getpid())
    finally:
        await server.shutdown()
    _emit(final)


def main(argv: list) -> int:
    begin = time.perf_counter()
    engine = SketchEngine.load(argv[0])
    load_s = time.perf_counter() - begin
    try:
        asyncio.run(_serve(engine, load_s))
    finally:
        engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

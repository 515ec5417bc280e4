"""One repetition of `dao run` in a fresh Python process.

Runs `dao.cli.main` in-process on the workload files in `--dir` (its own
fresh copy), with the latency twin installed and, with `--trace 1`,
every layer traced. Writes `result.json` (and `spans.jsonl` when traced)
into that directory. When a backend or a traced name the twin or the
tracer wraps is gone, `result.json` holds only `bench_error` and the
exit code is 2. `--spawn` is the wall-clock time at which the
parent started this process, so set-up time includes interpreter start
and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dao.cli  # noqa: E402


class SessionClock:
    """Times every `run_session` call `cmd_run` makes, and splits embed
    calls into index builds (before the first session) and queries."""

    def __init__(self, stats):
        self.stats = stats
        self.first_wall: float | None = None
        self.index_embeds = 0
        self.latencies_ms: list[float] = []
        self.first = 0.0
        self._lock = threading.Lock()
        run_session = dao.cli.run_session

        def timed(sentence, *args, **kwargs):
            with self._lock:
                if self.first_wall is None:
                    self.first_wall = time.time()
                    self.first = time.perf_counter()
                    self.index_embeds = self.stats.snapshot()["calls"].get("embed", 0)
            start = time.perf_counter()
            result = run_session(sentence, *args, **kwargs)
            elapsed_ms = 1000.0 * (time.perf_counter() - start)
            with self._lock:
                self.latencies_ms.append(elapsed_ms)
            return result

        dao.cli.run_session = timed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--delays", required=True, help='JSON {"chat","scorer","embed"} in ms')
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from spans import Tracer
        from twin import CallStats, install

        stats = CallStats()
        install(json.loads(args.delays), stats)
        clock = SessionClock(stats)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
    except (ImportError, AttributeError) as exc:
        error = {"bench_error": f"cannot wrap the engine, a wrapped name is gone: {exc!r}"}
        (args.dir / "result.json").write_text(json.dumps(error) + "\n", encoding="utf-8")
        return 2
    os.chdir(args.dir)
    run_args = ["run", "-c", "config.json", "--input", "inputs.jsonl", "--out", "out"]
    if tracer:
        rc = tracer.call("cli.main", dao.cli.main, (run_args,), {})
    else:
        rc = dao.cli.main(run_args)
    end = time.perf_counter()
    end_wall = time.time()
    calls = stats.snapshot()
    session_s = end - clock.first if clock.first_wall is not None else 0.0
    result = {
        "rc": rc,
        "setup_s": (clock.first_wall or end_wall) - args.spawn,
        "process_s": end_wall - args.spawn,
        "session_s": session_s,
        "latencies_ms": clock.latencies_ms,
        "calls": calls["calls"],
        "seconds": calls["seconds"],
        "index_embeds": clock.index_embeds,
        "peak_in_flight": calls["peak_in_flight"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path("result.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(Path("spans.jsonl"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

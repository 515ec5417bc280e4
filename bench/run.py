"""The dao-ee benchmark: `dao run` end to end on a seeded workload.

    python3 bench/run.py --workload offline-large --seed 1 --seconds 45 --trace 0

Generates the workload from `--seed`, then runs repetitions until
`--seconds` have passed, at least three and at least 200 sentences.
Each repetition is a fresh Python process on a fresh copy of the
workload files, so set-up is a cold start. Every repetition's predictions must equal the generator's
designed outcome, and its `predictions.jsonl` and `transcripts.jsonl`
must be byte-identical to the other repetitions'.

`--workload all` measures every workload in turn.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
untraced and traced repetitions and reports the per-layer metrics read
from the traced ones' spans, plus the tracing overhead.

Prints one line per metric (name, value, unit) and, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1
when any output is wrong or any sentence failed, 2 when the checkout
cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

MIN_REPS = 3
# p95 needs at least ten samples beyond it.
MIN_SAMPLES = 200
# One BLAS thread per process: on a small shared machine, idle BLAS
# threads spin on the other core and make every timing depend on the
# neighbours' load. Outputs do not depend on it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# No repetition starts once this much of a run has passed, so a run ends
# well inside three minutes even on a slow machine.
START_DEADLINE_S = 100.0
REP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    n_reference: int
    dimension: int
    n_inputs: int
    workers: int
    delays_ms: dict


NO_DELAY = {"chat": 0.0, "scorer": 0.0, "embed": 0.0}
# Chat, the longest, stands in for generation. The sleeps are most of a
# served sentence (about 100 of 115 ms), so the host's CPU speed, which
# drifts on a shared machine, moves the served figures little.
SERVED_DELAY = {"chat": 8.0, "scorer": 2.0, "embed": 0.5}

WORKLOADS = {
    # CPU layers do the work: top-K over ~ACE05-train-sized index at D384.
    # Not in BENCHMARK.json: on a small shared host its timings drift by
    # more than any usable bound between runs (see README); run it by hand
    # for before/after numbers of the CPU layers.
    "offline-large": Workload(20000, 384, 40, 1, NO_DELAY),
    # Sequential model calls set latency; top-K over 2k x D64 is cheap.
    "served-seq": Workload(2000, 64, 40, 1, SERVED_DELAY),
    # The same, two sessions sharing one scorer, embedder and index.
    "served-par2": Workload(2000, 64, 40, 2, SERVED_DELAY),
}

END_TO_END = {
    "setup_s": "s",
    "sentences_per_s": "1/s",
    "sentence_p50_ms": "ms",
    "sentence_p95_ms": "ms",
    "model_calls_per_sentence": "count",
    "peak_rss_mb": "MiB",
    "completed_share": "fraction",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_rep(workload: Workload, source: Path, rep_dir: Path, trace: bool) -> dict:
    """One repetition in a fresh process on a fresh copy of `source`."""
    shutil.copytree(source, rep_dir)
    cmd = [
        sys.executable, str(WORKER), "--dir", str(rep_dir),
        "--delays", json.dumps(workload.delays_ms), "--trace", str(int(trace)),
    ]
    spawn = time.time()
    proc = subprocess.run(cmd + ["--spawn", repr(spawn)], capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S, cwd=ROOT, env={**os.environ, **BLAS_ENV})
    result_path = rep_dir / "result.json"
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
    if "bench_error" in result:
        raise BenchError(result["bench_error"])
    if proc.returncode != 0 or not result:
        sys.stderr.write(proc.stderr[-4000:])
        return {"rc": proc.returncode or 2, "latencies_ms": [], "traced": trace}
    result["traced"] = trace
    out = rep_dir / "out"
    if result["rc"] == 0:
        result["predictions_sha256"] = _sha256(out / "predictions.jsonl")
        result["transcripts_sha256"] = _sha256(out / "transcripts.jsonl")
        result["predictions"] = _rows(out / "predictions.jsonl")
    else:
        sys.stderr.write(proc.stderr[-4000:])
    if trace and result["rc"] == 0:
        import spans

        result["transcripts"] = _rows(out / "transcripts.jsonl")
        result["transcript_kb"] = (out / "transcripts.jsonl").stat().st_size / 1024.0
        span_rows = spans.read_spans(rep_dir / "spans.jsonl")
        missing = spans.missing_calls(span_rows)
        if missing:
            raise BenchError(f"traced run recorded no call to: {', '.join(missing)}")
        result["layers"] = spans.span_metrics(span_rows, len(result["latencies_ms"]))
    return result


def check(reps: list[dict], expected: list[dict]) -> list[str]:
    """Problems with the outputs; empty when every repetition is right."""
    problems = []
    want = [(row["id"], row["events"]) for row in expected]
    digests = set()
    for i, rep in enumerate(reps):
        if rep["rc"] != 0:
            problems.append(f"repetition {i}: dao run exited {rep['rc']}")
            continue
        got = [(row["id"], row["events"]) for row in rep["predictions"]]
        wrong = [g[0] for g, w in zip(got, want) if g != w] + ["(count)"] * (len(got) != len(want))
        if wrong:
            problems.append(f"repetition {i}: predictions differ for {', '.join(wrong[:5])}")
        digests.add((rep["predictions_sha256"], rep["transcripts_sha256"]))
    if len(digests) > 1:
        problems.append(f"artifacts differ across repetitions: {sorted(digests)}")
    return problems


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps: list[dict], n_inputs: int) -> dict[str, float]:
    latencies = [ms for rep in reps for ms in rep["latencies_ms"]]
    attempted = n_inputs * len(reps)

    def calls(rep: dict) -> int:
        c = rep["calls"]
        return sum(c.values()) - rep["index_embeds"]

    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "sentences_per_s": statistics.median(n_inputs / rep["session_s"] for rep in reps),
        "sentence_p50_ms": _quantile(latencies, 50),
        "sentence_p95_ms": _quantile(latencies, 95),
        "model_calls_per_sentence": statistics.median(calls(rep) / n_inputs for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "completed_share": len(latencies) / attempted,
    }


def _transcript_counts(rows: list[dict], n_inputs: int) -> dict[str, float]:
    """Rounds, EAE debates and round-cap outcomes, read from the transcript."""
    rounds = sum(1 for r in rows if r["stage"].endswith(".retrieval")
                 and r["text"].startswith("retrieved "))
    eae = sum(1 for r in rows if r["stage"] == "eae.retrieval" and r["round"] == 0
              and r["text"].startswith("retrieved "))
    adjudicated = {r["id"] for r in rows if r["stage"].endswith(".adjudication")
                   and r["text"].startswith("round cap reached; adopting")}
    closed = {r["id"] for r in rows if r["stage"].endswith(".adjudication")
              and r["text"].startswith("round cap reached with no acceptable answer")}
    return {
        "debate.rounds_per_sentence": rounds / n_inputs,
        "debate.eae_debates_per_sentence": eae / n_inputs,
        "debate.adjudicated_share": len(adjudicated) / n_inputs,
        "debate.fail_closed_share": len(closed) / n_inputs,
    }


def per_layer(reps: list[dict], n_inputs: int) -> dict[str, float]:
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    layers = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    layers.update(_transcript_counts(traced[0]["transcripts"], n_inputs))
    layers["backends.peak_in_flight"] = float(max(rep["peak_in_flight"] for rep in traced))
    layers["cli.transcript_kb"] = traced[0]["transcript_kb"]
    layers["trace.overhead_share"] = (
        statistics.median(rep["process_s"] for rep in traced)
        / statistics.median(rep["process_s"] for rep in plain) - 1.0
    )
    return dict(sorted(layers.items()))


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_share"):
        return "fraction"
    if "ms" in name.rsplit(".", 1)[1].split("_"):
        return "ms"
    return {"debate.packet_chars": "chars", "cli.transcript_kb": "KiB"}.get(name, "count")


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, min_reps: int = MIN_REPS, min_samples: int = MIN_SAMPLES
            ) -> tuple[dict, list[str], list[dict]]:
    """Generate the workload, run the repetitions, return (metrics,
    problems, repetitions)."""
    import generate

    source = work / "workload"
    mix = generate.generate(source, seed=seed, n_reference=workload.n_reference,
                            n_inputs=workload.n_inputs, dimension=workload.dimension,
                            workers=workload.workers)
    expected = _rows(source / "expected.jsonl")
    print(f"workload={name} seed={seed} workers={workload.workers} "
          f"reference={workload.n_reference}xD{workload.dimension} inputs={workload.n_inputs} "
          f"delays_ms={json.dumps(workload.delays_ms, sort_keys=True)} "
          f"event_share={mix['event_share']:.2f} shapes={json.dumps(mix['shape_share'], sort_keys=True)}")
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        samples = len(reps) * workload.n_inputs
        if trace:
            enough = len(reps) % 2 == 0 and len(reps) >= 2 and elapsed >= seconds
        else:
            enough = len(reps) >= min_reps and samples >= min_samples and elapsed >= seconds
        deadline = elapsed > START_DEADLINE_S and len(reps) >= (2 if trace else 1)
        if enough or deadline:
            break
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(workload, source, work / f"rep-{len(reps)}", traced)
        shutil.rmtree(work / f"rep-{len(reps)}", ignore_errors=True)
        reps.append(rep)
        if rep["rc"] != 0:
            break
    problems = check(reps, expected)
    if problems:
        return {}, problems, reps
    metrics = per_layer(reps, workload.n_inputs) if trace else end_to_end(reps, workload.n_inputs)
    digest = reps[0]
    print(f"repetitions={len(reps)} sentences={sum(len(r['latencies_ms']) for r in reps)} "
          f"predictions_sha256={digest['predictions_sha256'][:16]} "
          f"transcripts_sha256={digest['transcripts_sha256'][:16]}")
    return metrics, problems, reps


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload, print its metrics and the JSON line; the exit code."""
    workload = WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        metrics, problems, reps = measure(name, workload, seed, seconds, trace, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = sum(len(rep["latencies_ms"]) for rep in reps)
    attempted = workload.n_inputs * len(reps)
    units = {metric: layer_unit(metric) for metric in metrics} if trace else END_TO_END
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    for metric, value in metrics.items():
        note = f" (samples={samples})" if metric.startswith("sentence_p") else ""
        print(f"{metric} {value:.6g} {units[metric]}{note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - samples,
        "metrics": {m: {"value": value, "unit": units[m]} for m, value in metrics.items()},
    }))
    return 0 if not problems and samples == attempted else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "dao" / "cli.py", ROOT / "tests" / "fixtures" / "ontology_ace.jsonl"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"bench: cannot benchmark this checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    sys.exit(main())

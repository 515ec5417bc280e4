"""Generator determinism, the latency twin's delay, and a tiny smoke run
of every workload."""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

import generate
import run
from dao.backends import ChatMessage, KeyedScorer, scripted_chat
from dao.corpus import load_corpus
from dao.replay import ReplayBundle
from twin import CallStats, TwinChat, TwinScorer

TINY = {"n_reference": 200, "n_inputs": 20}


def _generate(path, seed):
    return generate.generate(path, seed=seed, n_reference=120, n_inputs=20, dimension=64,
                             workers=1)


def test_generator_is_deterministic_per_seed(tmp_path):
    first = _generate(tmp_path / "a", 7)
    _generate(tmp_path / "b", 7)
    _generate(tmp_path / "c", 8)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert (tmp_path / "a" / "inputs.jsonl").read_bytes() != (tmp_path / "c" / "inputs.jsonl").read_bytes()
    assert first["shape_share"] == dict(generate.SHAPES)
    assert first["event_share"] == pytest.approx(0.6)


def test_generated_files_load_through_the_engine(tmp_path):
    _generate(tmp_path, 3)
    assert len(load_corpus(tmp_path / "reference.jsonl")) == 120
    inputs = load_corpus(tmp_path / "inputs.jsonl")
    assert len({entry.sentence.text for entry in inputs}) == 20
    bundle = ReplayBundle.load(tmp_path / "bundle.json")
    assert set(bundle.sessions) == {entry.sentence.id for entry in inputs}
    expected = [json.loads(line) for line in (tmp_path / "expected.jsonl").read_text().splitlines()]
    shapes = [row["shape"] for row in expected]
    assert {s: shapes.count(s) / 20 for s, _ in generate.SHAPES} == dict(generate.SHAPES)


def test_twin_sleeps_its_delay_and_counts():
    stats = CallStats()
    chat = TwinChat(scripted_chat([("*", "ok")]), "chat.judge", 0.05, stats)
    start = time.perf_counter()
    assert chat.complete([ChatMessage("user", "hi")]) == "ok"
    assert time.perf_counter() - start >= 0.05
    snap = stats.snapshot()
    assert snap["calls"] == {"chat.judge": 1}
    assert snap["seconds"]["chat.judge"] >= 0.05


def test_twin_delays_overlap_across_threads():
    stats = CallStats()
    scorer = TwinScorer(KeyedScorer(), "scorer", 0.2, stats)
    barrier = threading.Barrier(2)

    def call():
        barrier.wait()
        scorer.negative_log_likelihood("p", "a b")

    threads = [threading.Thread(target=call) for _ in range(2)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    elapsed = time.perf_counter() - start
    assert not any(thread.is_alive() for thread in threads)
    assert elapsed < 0.35  # two 0.2 s delays overlapped, not 0.4 s in series
    assert stats.snapshot()["peak_in_flight"] == 2
    assert stats.snapshot()["calls"] == {"scorer": 2}


def test_check_flags_a_wrong_prediction():
    expected = [{"id": "in-0000", "events": []}]
    good = {"rc": 0, "predictions": [{"id": "in-0000", "events": []}],
            "predictions_sha256": "p", "transcripts_sha256": "t"}
    bad = dict(good, predictions=[{"id": "in-0000", "events": [{"type": "Life:Die"}]}])
    assert run.check([good, good], expected) == []
    assert run.check([good, bad], expected)
    assert run.check([good, dict(good, transcripts_sha256="x")], expected)
    assert run.check([dict(good, rc=2)], expected)


def test_a_missing_traced_name_cannot_be_benchmarked(tmp_path, monkeypatch):
    # A worker whose engine lost a traced function, as after a rename.
    wrapper = tmp_path / "renamed.py"
    wrapper.write_text(
        "import runpy, sys\n"
        f"sys.path[:0] = [{str(run.HERE)!r}, {str(run.ROOT / 'src')!r}]\n"
        "import dao.cli, dao.drag\n"
        "del dao.drag.select_diverse\n"
        f"runpy.run_path({str(run.WORKER)!r}, run_name='__main__')\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(run, "WORKER", wrapper)
    _generate(tmp_path / "workload", 4)
    workload = dataclasses.replace(run.WORKLOADS["served-seq"], **TINY)
    with pytest.raises(run.BenchError, match="select_diverse"):
        run.run_rep(workload, tmp_path / "workload", tmp_path / "rep", True)


def _spec_names(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_smoke_run(tmp_path, name):
    workload = dataclasses.replace(run.WORKLOADS[name], **TINY)
    metrics, problems, reps = run.measure(name, workload, 1, 0, False, tmp_path, min_reps=1,
                                          min_samples=0)
    assert problems == []
    assert {k: run.END_TO_END[k] for k in metrics} == _spec_names("end_to_end")
    assert metrics["completed_share"] == 1.0
    assert all(value > 0 for value in metrics.values())


def test_tiny_traced_run_reports_every_layer(tmp_path):
    workload = dataclasses.replace(run.WORKLOADS["served-par2"], **TINY)
    metrics, problems, reps = run.measure("served-par2", workload, 2, 0, True, tmp_path)
    assert problems == []
    assert [rep["traced"] for rep in reps] == [False, True]
    assert {k: run.layer_unit(k) for k in metrics} == _spec_names("per_layer")
    assert metrics["backends.peak_in_flight"] == 2
    assert metrics["debate.adjudicated_share"] == pytest.approx(0.1)
    assert metrics["debate.fail_closed_share"] == pytest.approx(0.1)

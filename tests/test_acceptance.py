"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import io
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
from synthetic import SyntheticSpec, gen_clustered_points, gen_risks
from dao.adacp import accept, calibrate, decay_threshold
from dao.backends import HashEmbedder
from dao.cli import _write_transcript, main
from dao.corpus import EmbeddedIndex, build_index, l2_normalize
from dao.debate import SessionConfig, run_session
from dao.drag import (
    cluster_candidates,
    decay_radius,
    select_diverse,
)
from dao.evalkit import head_f1, trigger_f1, type_overlap_f1
from dao.replay import ReplayBundle

FIXTURES = Path(__file__).parent / "fixtures"


def _report(criterion: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: PASS")


def test_criterion_1_quantile_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    deltas = (0.05, 0.1, 0.2, 0.5)
    instances = 0
    for i in range(1000):
        n = int(rng.integers(1, 201))
        if i % 3 == 0:
            risks = list(np.round(rng.lognormal(0.0, 1.0, n), 2))  # many ties
        else:
            risks = list(rng.lognormal(0.0, 1.0, n))
        delta = deltas[i % len(deltas)]
        assert calibrate(risks, delta) == helpers.oracle_quantile(risks, delta)
        instances += 1
    elapsed = time.monotonic() - started
    assert instances == 1000
    assert elapsed < 5.0
    _report(f"criterion 1: quantile oracle equality on {instances} instances in {elapsed:.2f}s")


def test_criterion_2_coverage_guarantee():
    started = time.monotonic()
    trials = 10_000
    covered = 0
    for seed in range(trials):
        calib, test = gen_risks(SyntheticSpec(seed=seed, n_calib=99, n_test=1))
        threshold = calibrate(calib, 0.1)
        covered += accept(test[0], threshold)
    coverage = covered / trials
    elapsed = time.monotonic() - started
    assert coverage >= 0.88
    assert elapsed < 30.0
    _report(f"criterion 2: coverage {coverage:.4f} >= 0.88 over {trials} trials in {elapsed:.1f}s")


def test_criterion_3_decay_schedules():
    radius = 1.35
    radii = [radius]
    for _ in range(2):
        radius = decay_radius(radius, 0.9)
        radii.append(radius)
    assert radii[0] == 1.35
    assert radii[1] == 1.215
    # (1.35*0.9)*0.9 rounds one ULP away from the decimal literal 1.0935;
    # equality holds to full floating-point precision.
    assert abs(radii[2] - 1.0935) <= math.ulp(1.0935)

    threshold = 1.0
    values = [threshold]
    for _ in range(2):
        threshold = decay_threshold(threshold, 0.5)
        values.append(threshold)
    assert values == [1.0, 0.5, 0.25]
    eae = 3.0
    assert decay_threshold(eae, 0.5) == 1.5
    _report(f"criterion 3: radius schedule {radii}, threshold schedule {values}")


def _random_candidates(rng, n, dim=32):
    emb = HashEmbedder(dim)
    query = l2_normalize(emb.embed(f"query {rng.integers(0, 1 << 30)}"))
    candidates = []
    for i in range(n):
        vector = l2_normalize(emb.embed(f"candidate {rng.integers(0, 1 << 30)} token {i}"))
        candidates.append((1.0 - query @ vector, i, vector))
    candidates.sort()
    from dao.corpus import ReferenceEntry, Sentence

    entries = []
    for distance, i, vector in candidates:
        positive = bool(rng.integers(0, 2))
        from dao.corpus import EventMention

        events = (EventMention(event_type="Conflict:Attack", trigger="x"),) if positive else ()
        entry = ReferenceEntry(
            sentence=Sentence.from_text(f"r{i:03d}", f"candidate sentence {i} ."),
            events=events,
        )
        entries.append(entry)
    return EmbeddedIndex(tuple(entries), np.vstack([vector for _, _, vector in candidates]))


def test_criterion_4_cluster_separation():
    started = time.monotonic()
    rng = np.random.default_rng(77)
    radii = (1.35, 1.215, 1.0935, 0.9, 0.7)
    for trial in range(500):
        candidates = _random_candidates(rng, int(rng.integers(5, 30)))
        radius = radii[trial % len(radii)]
        clusters = cluster_candidates(candidates, radius)
        vectors = candidates.vectors
        leaders = [c[0] for c in clusters]
        for a, b in itertools.combinations(leaders, 2):
            assert 1.0 - vectors[a] @ vectors[b] > radius
        covered = 0
        for cluster in clusters:
            for member in cluster:
                covered += 1
                assert 1.0 - vectors[member] @ vectors[cluster[0]] <= radius
        assert covered == len(candidates)
    # Planted-partition recovery.
    for seed in range(10):
        spec = SyntheticSpec(
            seed=seed, n_points=24, n_planted_clusters=3, intra_spread=0.1, inter_separation=0.9
        )
        points, labels = gen_clustered_points(spec)
        from dao.corpus import ReferenceEntry, Sentence

        candidates = EmbeddedIndex(
            tuple(
                ReferenceEntry(sentence=Sentence.from_text(f"p{i}", f"point {i} ."), events=())
                for i in range(len(points))
            ),
            np.vstack(points),
        )
        clusters = cluster_candidates(candidates, 0.4)
        assert len(clusters) == 3
        mapping = {}
        for cluster_label, cluster in enumerate(clusters):
            for member in cluster:
                planted = labels[int(candidates.entries[member].sentence.id[1:])]
                assert mapping.setdefault(cluster_label, planted) == planted
    elapsed = time.monotonic() - started
    assert elapsed < 20.0
    _report(f"criterion 4: separation + coverage on 500 sets, planted recovery, in {elapsed:.1f}s")


def test_criterion_5_diversity_selection():
    rng = np.random.default_rng(99)
    for trial in range(100):
        candidates = _random_candidates(rng, int(rng.integers(8, 40)))
        clusters = cluster_candidates(candidates, float(rng.uniform(0.5, 1.3)))
        selected = select_diverse(candidates, clusters, 10)
        assert len(selected) <= 10
        assert len(selected) == min(10, len(clusters))
        owners = []
        for entry in selected:
            owner = [
                i
                for i, cluster in enumerate(clusters)
                if any(candidates.entries[m].sentence.id == entry.sentence.id for m in cluster)
            ]
            owners.extend(owner)
        assert len(owners) == len(set(owners))
        positives = sum(1 for e in selected if e.events)
        negatives = len(selected) - positives
        cluster_pos = sum(
            1 for c in clusters if any(candidates.entries[m].events for m in c)
        )
        cluster_neg = sum(
            1 for c in clusters if any(not candidates.entries[m].events for m in c)
        )
        # Quota exceeded only by backfill, i.e. when the other kind has
        # run out of distinct clusters to draw from.
        if positives > 5:
            assert negatives <= cluster_neg
            assert negatives < 5 or cluster_neg <= 5
        if negatives > 5:
            assert positives <= cluster_pos
            assert positives < 5 or cluster_pos <= 5
    _report("criterion 5: diversity selection respects clusters, quota, and cap on 100 fixtures")


def _run_replay(bundle_path, sentence_id, corpus_entries, ontology, pool):
    bundle = ReplayBundle.load(bundle_path)
    embedder = bundle.embedder()
    train = [e for e in corpus_entries if e.split == "train"]
    index = build_index(train, embedder)
    sentence = next(e.sentence for e in corpus_entries if e.sentence.id == sentence_id)
    team = bundle.team_for(sentence_id)
    config = SessionConfig(team=team, scorer=bundle.scorer(), embedder=embedder)
    return team, run_session(sentence, ontology, index, config, pool)


def test_criterion_6_replay_revision(ontology, corpus_entries, pool):
    team, result = _run_replay(
        FIXTURES / "replay_table3a.json", "test-001", corpus_entries, ontology, pool
    )
    assert [
        (record.event_type, record.trigger) for record in result.records
    ] == [("Personnel:End-Position", "formerly")]
    opinion = next(
        e for e in result.transcript if e.stage == "ed.opinion" and e.role == "debater_A"
    )
    assert '["Personnel:Start-Position", "holding"]' in opinion.text
    revision = next(
        e
        for e in result.transcript
        if e.stage == "ed.cross_examination" and e.role == "debater_A" and e.round_index == 1
    )
    assert '["Personnel:End-Position", "formerly"]' in revision.text
    packets = [e.text for e in result.transcript if e.text.startswith("Reference information:")]
    assert any(
        "his successor as house majority whip and his former deputy" in packet
        for packet in packets
    )
    _report("criterion 6: replay outputs the revised answer after retrieval")


def test_criterion_7_replay_rejection(ontology, corpus_entries, pool):
    team, result = _run_replay(
        FIXTURES / "replay_table3b.json", "test-002", corpus_entries, ontology, pool
    )
    assert result.records == []
    assert result.risk_log and all(not record.accepted for record in result.risk_log)
    _report("criterion 7: replay rejects the miscalibrated answer and emits nothing")


def test_criterion_8_state_machine_invariants(ontology, train_index, embedder, pool):
    sessions = 0
    for seed in range(50):
        scenario = helpers.build_scenario(seed, ontology)
        outputs = []
        for _ in range(2):
            config = scenario.build_config(embedder)
            result = run_session(scenario.sentence, ontology, train_index, config, pool)
            outputs.append((config, result))
        (config, result), (_, second) = outputs
        rows = []
        for session in (result, second):
            out = io.StringIO()
            _write_transcript(out, session.sentence.id, session.transcript)
            rows.append(out.getvalue())
        assert rows[0] == rows[1]
        for task in ("ed", "eae"):
            rounds = {e.round_index for e in result.transcript if e.stage == f"{task}.retrieval"}
            assert len(rounds) <= 3
        packets = [e.text for e in result.transcript if e.text.startswith("Reference information:")]
        judge_prompts = {
            (e.stage.split(".")[0], e.round_index): e.prompt
            for e in result.transcript
            if e.role == "judge" and e.prompt
        }
        for packet in packets:
            for prompt in judge_prompts.values():
                assert packet not in prompt
        for record in result.risk_log:
            if not record.accepted:
                prompt = judge_prompts.get((record.task, record.round_index))
                if prompt is not None:
                    assert record.answer_text not in prompt
        if scenario.flow == "no_event":
            assert not any(e.stage.startswith("eae.") for e in result.transcript)
            for binding in config.team.debaters:
                assert all(
                    "argument" not in prompt.lower() or "Argument Extraction task" not in prompt
                    for prompt, _ in binding.backend.calls
                )
        sessions += 1
    assert sessions == 50
    _report("criterion 8: state-machine invariants hold on 50 scripted sessions, twice each")


def test_criterion_9_metrics():
    preds = [("s1", "Conflict:Attack", "war")]
    golds = [("s1", "Conflict:Attack", "war"), ("s1", "Life:Die", "kill")]
    score = trigger_f1(preds, golds)
    assert score.precision == 1.0
    assert score.recall == 0.5
    assert score.f1 == pytest.approx(2 / 3, abs=1e-12)

    text = (
        "Powell said that talks were now underway with the South Korean, Japanese, Russian "
        "and Australian as well as other governments ."
    )
    span = "the South Korean, Japanese, Russian and Australian as well as other governments"
    # The span's head is "governments": head F1 matches it to that gold token.
    assert head_f1([("s1", "E", span)], [("s1", "E", "governments")], {"s1": text}).tp == 1

    # Greedy equals brute force on every <=4x4 instance from the span pool.
    text = "a b c d e f g h i j k l"
    spans = ["a b c", "b c d", "c d e", "a b c d e", "e f g", "h i j"]

    def optimal(pairs):
        best = 0

        def recurse(i, used_p, used_g, count):
            nonlocal best
            best = max(best, count)
            if i == len(pairs):
                return
            recurse(i + 1, used_p, used_g, count)
            pi, gi = pairs[i]
            if pi not in used_p and gi not in used_g:
                recurse(i + 1, used_p | {pi}, used_g | {gi}, count + 1)

        recurse(0, frozenset(), frozenset(), 0)
        return best

    checked = 0
    for chosen in itertools.islice(itertools.combinations(spans, 4), 15):
        preds = [("s1", "T:T", s) for s in chosen]
        golds = [("s1", "T:T", s) for s in chosen[::-1][:4]]
        result = type_overlap_f1(preds, golds, {"s1": text})
        pairs = []
        for pi, (_, _, ps) in enumerate(preds):
            p0 = text.find(ps)
            for gi, (_, _, gs) in enumerate(golds):
                g0 = text.find(gs)
                if min(p0 + len(ps), g0 + len(gs)) - max(p0, g0) >= 1:
                    pairs.append((pi, gi))
        assert result.tp == optimal(pairs)
        checked += 1
    assert checked == 15
    _report("criterion 9: metric fixtures and greedy-vs-optimal matching agree")


def test_criterion_10_end_to_end_smoke(tmp_path):
    started = time.monotonic()
    paths = helpers.build_replay_run(
        tmp_path, 20, FIXTURES, thresholds={"ed": None, "eae": None}
    )
    assert main(["calibrate", "-c", str(paths["config"])]) == 0
    out_dir = tmp_path / "run"
    assert (
        main(
            [
                "run",
                "-c",
                str(paths["config"]),
                "--input",
                str(paths["input"]),
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    report_path = tmp_path / "scores.json"
    assert (
        main(
            [
                "eval",
                "--pred",
                str(out_dir / "predictions.jsonl"),
                "--gold",
                str(paths["input"]),
                "--task",
                "ed",
                "--metric",
                "exact",
                "--report",
                str(report_path),
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert set(report) >= {"task", "metric", "precision", "recall", "f1", "tp", "fp", "fn"}
    assert report["f1"] == 1.0
    predictions = [
        json.loads(line)
        for line in (out_dir / "predictions.jsonl").read_text().splitlines()
        if line.strip()
    ]
    assert len(predictions) == 20
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(f"criterion 10: calibrate + run + eval over 20 sentences in {elapsed:.1f}s, F1=1.0")

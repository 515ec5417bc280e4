import itertools
import math

import numpy as np
import pytest

import dao.drag
import helpers
from hypothesis import assume, given, settings, strategies as st
from dao.backends import HashEmbedder
from dao.corpus import EmbeddedIndex, build_index, l2_normalize
from dao.debate import run_session
from dao.drag import (
    DragConfig,
    cluster_candidates,
    decay_radius,
    gather_event_info,
    retrieve_topk,
    select_diverse,
)
from dao.errors import DimensionMismatch


def _entry(entry_id, text="placeholder text .", positive=True):
    """Minimal reference entry stand-in for pure clustering tests."""
    from dao.corpus import EventMention, ReferenceEntry, Sentence

    events = (
        (EventMention(event_type="Conflict:Attack", trigger="placeholder"),)
        if positive
        else ()
    )
    sentence = Sentence.from_text(entry_id, text if "placeholder" in text else text)
    return ReferenceEntry(
        sentence=sentence,
        events=events,
        split="train",
    )


def _topk(vectors, positives=None):
    """A top-K set over `vectors` in the given row order; row i is entry
    `s{i:03d}`, positive unless `positives` says otherwise."""
    positives = [True] * len(vectors) if positives is None else positives
    return EmbeddedIndex(
        entries=tuple(_entry(f"s{i:03d}", positive=p) for i, p in enumerate(positives)),
        vectors=np.vstack([l2_normalize(np.asarray(v, dtype=float)) for v in vectors]),
    )


# -- retrieve_topk


def test_self_retrieval_is_first_with_zero_distance(train_index):
    query = train_index.vectors[5]
    candidates = retrieve_topk(train_index, query, 10)
    assert candidates.entries[0] is train_index.entries[5]
    assert abs(1.0 - query @ candidates.vectors[0]) <= 1e-9


def test_k_exceeding_corpus_returns_all_sorted(corpus_entries, embedder):
    index = build_index(list(corpus_entries), embedder)
    assert len(index) == 40
    query = l2_normalize(embedder.embed("Soldiers on patrol ."))
    candidates = retrieve_topk(index, query, 128)
    assert len(candidates) == 40
    distances = [1.0 - vector @ query for vector in candidates.vectors]
    assert distances == sorted(distances)


def test_order_matches_brute_force_oracle():
    angles = [0.3, 1.2, 0.7]
    vectors = [np.array([math.cos(a), math.sin(a), 0.0, 0.0]) for a in angles]
    entries = tuple(_entry(f"s{i}") for i in range(3))
    index = EmbeddedIndex(entries=entries, vectors=np.vstack(vectors))
    query = np.array([1.0, 0.0, 0.0, 0.0])
    candidates = retrieve_topk(index, query, 3)
    oracle = sorted(
        range(3), key=lambda i: (1.0 - float(np.dot(query, vectors[i])), entries[i].sentence.id)
    )
    assert [e.sentence.id for e in candidates.entries] == [f"s{i}" for i in oracle]
    for entry, vector in zip(candidates.entries, candidates.vectors):
        expected = 1.0 - float(np.dot(query, vectors[entries.index(entry)]))
        assert abs(1.0 - query @ vector - expected) <= 1e-9


def test_topk_equals_full_sort_when_ties_straddle_the_cut():
    # Six distinct directions, each held by several entries whose ids are
    # shuffled, so most cuts fall inside a run of equal distances.
    rng = np.random.default_rng(0)
    directions = [l2_normalize(rng.normal(size=8)) for _ in range(6)]
    picks = rng.integers(6, size=40)
    names = [f"s{i:02d}" for i in rng.permutation(40)]
    entries = tuple(_entry(name) for name in names)
    vectors = np.vstack([directions[p] for p in picks])
    index = EmbeddedIndex(entries=entries, vectors=vectors)
    query = l2_normalize(rng.normal(size=8))
    distances = 1.0 - vectors @ query
    oracle = sorted(range(40), key=lambda i: (distances[i], names[i]))
    for k in range(1, 42):
        got = [e.sentence.id for e in retrieve_topk(index, query, k).entries]
        assert got == [names[i] for i in oracle[:k]]


def test_dimension_mismatch_rejected(train_index):
    with pytest.raises(DimensionMismatch):
        retrieve_topk(train_index, np.ones(train_index.dimension + 1), 5)


def test_tie_broken_by_entry_id():
    vector = l2_normalize(np.ones(4))
    entries = tuple(_entry(name) for name in ("sB", "sA"))
    index = EmbeddedIndex(entries=entries, vectors=np.vstack([vector, vector]))
    candidates = retrieve_topk(index, vector, 2)
    assert [e.sentence.id for e in candidates.entries] == ["sA", "sB"]


def test_topk_is_itself_an_index(train_index):
    # Retrieving from a top-K gives it back row for row, and clustering
    # and selection take it as they take any index.
    for row in range(len(train_index)):
        query = train_index.vectors[row]
        for k in (5, 16, 30):
            top = retrieve_topk(train_index, query, k)
            again = retrieve_topk(top, query, k)
            assert [e.sentence.id for e in again.entries] == [e.sentence.id for e in top.entries]
            assert np.array_equal(again.vectors, top.vectors)
            clusters = cluster_candidates(top, 0.8)
            assert sorted(np.concatenate(clusters).tolist()) == list(range(len(top)))
            selected = select_diverse(top, clusters, 5)
            assert 1 <= len(selected) <= 5 and set(selected) <= set(top.entries)


# -- cluster_candidates


def test_identical_vectors_form_one_cluster():
    candidates = _topk([np.ones(8)] * 5)
    clusters = cluster_candidates(candidates, 0.5)
    assert len(clusters) == 1
    assert len(clusters[0]) == 5


def test_far_apart_vectors_stay_singletons():
    candidates = _topk(np.eye(4))
    clusters = cluster_candidates(candidates, 0.5)  # orthogonal: distance 1.0 > 0.5
    assert len(clusters) == 4


def test_empty_input_empty_output():
    assert cluster_candidates(EmbeddedIndex((), np.zeros((0, 4))), 0.7) == []


def _hash_candidates(texts, query_text, dim=32):
    """The texts as a top-K set in (distance, id) order, and its rows'
    distances to the query text."""
    emb = HashEmbedder(dim)
    query = l2_normalize(emb.embed(query_text))
    vectors = [l2_normalize(emb.embed(text)) for text in texts]
    rows = sorted(range(len(texts)), key=lambda i: (1.0 - vectors[i] @ query, f"s{i:03d}"))
    candidates = EmbeddedIndex(
        entries=tuple(_entry(f"s{i:03d}") for i in rows),
        vectors=np.vstack([vectors[i] for i in rows]),
    )
    return candidates, 1.0 - candidates.vectors @ query


def test_leader_separation_against_pairwise_oracle():
    texts = [f"sample sentence number {i} about topic {i % 4}" for i in range(10)]
    candidates, _ = _hash_candidates(texts, "sample sentence about a topic")
    vectors = candidates.vectors
    radius = 0.8
    clusters = cluster_candidates(candidates, radius)
    for a, b in itertools.combinations([c[0] for c in clusters], 2):
        assert 1.0 - vectors[a] @ vectors[b] > radius
    # Coverage: every candidate in exactly one cluster, within radius of its leader.
    seen = []
    for cluster in clusters:
        for member in cluster:
            seen.append(candidates.entries[member].sentence.id)
            assert 1.0 - vectors[member] @ vectors[cluster[0]] <= radius
    assert sorted(seen) == sorted(e.sentence.id for e in candidates.entries)


def test_leader_is_closest_to_query_in_cluster():
    texts = [f"short text {i}" for i in range(12)]
    candidates, distances = _hash_candidates(texts, "short text")
    for cluster in cluster_candidates(candidates, 0.9):
        assert distances[cluster[0]] == min(distances[m] for m in cluster)


def test_monotone_refinement_on_seeded_sets():
    # Not adversarially universal (cosine distance is not a metric), but
    # holds on this seeded fixture family; radii follow the decay schedule.
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(5, 25))
        texts = [f"trial {trial} sentence {i} token {rng.integers(0, 9)}" for i in range(n)]
        candidates, _ = _hash_candidates(texts, f"trial {trial} sentence")
        radius = 1.35
        previous = len(cluster_candidates(candidates, radius))
        for _ in range(3):
            radius = decay_radius(radius, 0.9)
            current = len(cluster_candidates(candidates, radius))
            assert current >= previous
            previous = current


# -- array clustering and top-K against their oracles

_NAMES = [f"s{i:03d}" for i in range(64)]
_ENTRIES = tuple(_entry(name) for name in _NAMES)


@st.composite
def _unit_rows(draw, max_rows=24):
    """Unit rows drawn from a few base directions, so exact duplicates occur."""
    dim = draw(st.sampled_from([2, 3, 8]))
    component = st.floats(-1.0, 1.0, allow_subnormal=False)
    bases = draw(st.lists(st.lists(component, min_size=dim, max_size=dim), min_size=1, max_size=8))
    bases = [np.asarray(b) for b in bases]
    assume(all(np.linalg.norm(b) > 1e-3 for b in bases))
    picks = draw(st.lists(st.integers(0, len(bases) - 1), min_size=1, max_size=max_rows))
    return np.vstack([l2_normalize(bases[i]) for i in picks])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_unit_rows(), st.floats(0.01, 2.0))
def test_array_clustering_equals_the_sequential_scan(vectors, radius):
    # Where a distance is within rounding of the radius, the matrix-vector
    # product and a per-pair dot product may round to opposite sides.
    distances = 1.0 - vectors @ vectors.T
    assume(np.all(np.abs(distances - radius) > 1e-9))
    candidates = EmbeddedIndex(_ENTRIES[: len(vectors)], vectors)
    clusters = cluster_candidates(candidates, radius)
    assert [cluster.tolist() for cluster in clusters] == helpers.leader_clusters(vectors, radius)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_unit_rows(max_rows=40), st.data())
def test_topk_equals_the_full_sort(vectors, data):
    n = len(vectors)
    names = data.draw(st.permutations(_NAMES[:n]))
    query = vectors[data.draw(st.integers(0, n - 1))]
    index = EmbeddedIndex(entries=tuple(_entry(name) for name in names), vectors=vectors)
    k = data.draw(st.integers(1, n + 2))
    distances = 1.0 - vectors @ query
    oracle = sorted(range(n), key=lambda i: (distances[i], names[i]))[:k]
    candidates = retrieve_topk(index, query, k)
    assert [e.sentence.id for e in candidates.entries] == [names[i] for i in oracle]
    assert np.array_equal(candidates.vectors, vectors[oracle])


# -- select_diverse


def _quota_walk_oracle(candidates, clusters, m, quota):
    """Independent re-derivation of the documented greedy walk."""
    remaining = {True: quota[0], False: quota[1]}
    picked, used = [], set()
    for i, cluster in enumerate(clusters):
        if len(picked) == m:
            break
        members = sorted(cluster)  # position order is (distance, id) order
        for member in members:
            positive = bool(candidates.entries[member].events)
            if remaining[positive] > 0:
                remaining[positive] -= 1
                picked.append(member)
                used.add(i)
                break
    for i, cluster in enumerate(clusters):
        if len(picked) == m:
            break
        if i in used:
            continue
        members = sorted(cluster)
        picked.append(members[0])
    return sorted(
        (candidates.entries[p].sentence.id for p in picked),
        key=lambda entry_id: entry_id,
    )


def _singleton_clusters(n_positive, n_negative):
    n = n_positive + n_negative
    candidates = _topk(np.eye(40)[:n], [i < n_positive for i in range(n)])
    return candidates, cluster_candidates(candidates, 0.001)


def test_balanced_selection_from_abundant_clusters():
    candidates, clusters = _singleton_clusters(6, 6)  # 12 singleton clusters, alternating handled by quota
    selected = select_diverse(candidates, clusters, 10)
    assert len(selected) == 10
    positives = sum(1 for e in selected if e.events)
    assert positives == 5
    assert len({e.sentence.id for e in selected}) == 10
    oracle = _quota_walk_oracle(candidates, clusters, 10, (5, 5))
    assert sorted(e.sentence.id for e in selected) == oracle


def test_backfill_when_one_polarity_missing():
    candidates, clusters = _singleton_clusters(12, 0)
    selected = select_diverse(candidates, clusters, 10)
    assert len(selected) == 10
    assert all(e.events for e in selected)


def test_odd_m_gives_the_extra_slot_to_positives():
    candidates, clusters = _singleton_clusters(4, 4)
    selected = select_diverse(candidates, clusters, 3)
    assert [bool(e.events) for e in selected] == [True, True, False]
    assert sorted(e.sentence.id for e in selected) == _quota_walk_oracle(
        candidates, clusters, 3, (2, 1)
    )


def test_fewer_clusters_than_m():
    candidates, clusters = _singleton_clusters(2, 1)
    selected = select_diverse(candidates, clusters, 10)
    assert len(selected) == 3


def test_selected_examples_sorted_by_distance(train_index):
    query = train_index.vectors[0]
    candidates = retrieve_topk(train_index, query, 128)
    clusters = cluster_candidates(candidates, 0.8)
    selected = select_diverse(candidates, clusters, 10)
    ids = [e.sentence.id for e in selected]
    by_distance = {
        e.sentence.id: 1.0 - query @ v for e, v in zip(candidates.entries, candidates.vectors)
    }
    distances = [by_distance[i] for i in ids]
    assert distances == sorted(distances)


# -- decay_radius


def test_decay_radius_first_step_exact():
    assert decay_radius(1.35, 0.9) == 1.215


def test_decay_radius_identity():
    assert decay_radius(0.77, 1.0) == 0.77


def test_decay_radius_two_steps_geometric():
    value = decay_radius(decay_radius(1.35, 0.9), 0.9)
    assert value == 1.35 * 0.9 * 0.9
    assert value == pytest.approx(1.0935, rel=1e-12)


# -- gather_event_info


def test_definitions_for_mentioned_types(ontology, train_index):
    event_types = [
        "Personnel:Start-Position",
        "Personnel:End-Position",
        "Personnel:Start-Position",
    ]
    candidates = retrieve_topk(train_index, train_index.vectors[0], 128)
    result = gather_event_info(event_types, ontology, candidates, 1.35, DragConfig())
    assert [d.type_id for d in result.definitions] == [
        "Personnel:Start-Position",
        "Personnel:End-Position",
    ]
    assert 1 <= len(result.examples) <= 10


def test_no_event_opinions_still_retrieve(ontology, train_index):
    event_types = []
    candidates = retrieve_topk(train_index, train_index.vectors[3], 128)
    result = gather_event_info(event_types, ontology, candidates, 1.35, DragConfig())
    assert result.definitions == ()
    assert len(result.examples) >= 1


def test_unknown_types_recorded_not_fatal(ontology, train_index):
    event_types = ["Made:Up"]
    candidates = retrieve_topk(train_index, train_index.vectors[0], 128)
    result = gather_event_info(event_types, ontology, candidates, 1.35, DragConfig())
    assert result.unknown_types == ("Made:Up",)


def test_decayed_radius_tightens_leaders(ontology, train_index, embedder):
    query = l2_normalize(embedder.embed("The court fined the firm ."))
    candidates = retrieve_topk(train_index, query, 128)
    for radius in (1.35, decay_radius(1.35, 0.9)):
        clusters = cluster_candidates(candidates, radius)
        for a, b in itertools.combinations([c[0] for c in clusters], 2):
            assert 1.0 - candidates.vectors[a] @ candidates.vectors[b] > radius


def test_event_type_filter_narrows_examples(ontology, train_index):
    event_types = ["Personnel:End-Position"]
    result = gather_event_info(
        event_types,
        ontology,
        retrieve_topk(train_index, train_index.vectors[0], 128),
        0.2,
        DragConfig(),
        event_type_filter="Personnel:End-Position",
    )
    for example in result.examples:
        assert any(
            e.event_type == "Personnel:End-Position" for e in example.events
        )


def test_filter_falls_back_when_type_absent(ontology, train_index):
    event_types = ["Justice:Pardon"]
    result = gather_event_info(
        event_types,
        ontology,
        retrieve_topk(train_index, train_index.vectors[0], 128),
        1.35,
        DragConfig(),
        event_type_filter="Justice:Pardon",
    )
    assert len(result.examples) >= 1


def test_retrieval_deterministic(ontology, train_index):
    event_types = ["Life:Die"]
    results = []
    for _ in range(2):
        candidates = retrieve_topk(train_index, train_index.vectors[7], 128)
        results.append(gather_event_info(event_types, ontology, candidates, 1.215, DragConfig()))
    first, second = results
    assert [e.sentence.id for e in first.examples] == [e.sentence.id for e in second.examples]
    assert first.definitions == second.definitions


def test_topk_runs_once_per_sentence(ontology, train_index, embedder, monkeypatch, pool):
    real = dao.drag.retrieve_topk
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dao.drag, "retrieve_topk", counting)
    scenario = helpers.build_scenario(1, ontology)  # agree_round2, then an EAE debate
    result = run_session(scenario.sentence, ontology, train_index, scenario.build_config(embedder), pool)
    ed_rounds = {e.round_index for e in result.transcript if e.stage == "ed.judgement"}
    assert len(ed_rounds) >= 2
    assert any(e.stage.startswith("eae.") for e in result.transcript)
    assert len(calls) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        DragConfig(max_examples=200, top_k=128)
    with pytest.raises(ValueError):
        DragConfig(radius_decay=0.0)

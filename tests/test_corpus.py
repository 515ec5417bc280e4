import dataclasses
import json
import random
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
from dao.backends import HashEmbedder
from dao.corpus import (
    INDEX_SLICES,
    Sentence,
    build_index,
    l2_normalize,
    load_corpus,
)
from dao.errors import DimensionMismatch, FormatError, ZeroVector


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _numbered_entries(corpus_entries, n):
    """`n` distinct entries: the fixture corpus's, cycled, each sentence
    with its position appended as one more token."""
    entries = []
    for i in range(n):
        entry = corpus_entries[i % len(corpus_entries)]
        sentence = Sentence.from_text(f"{entry.sentence.id}-{i}", f"{entry.sentence.text} {i}")
        entries.append(dataclasses.replace(entry, sentence=sentence))
    return entries


def _slice_of(row, n):
    """The slice `build_index` embeds `row` of `n` entries in."""
    slices = min(INDEX_SLICES, n)
    return next(k for k in range(slices) if row < n * (k + 1) // slices)


def test_polarity_never_read_from_file(tmp_path):
    _write_jsonl(
        tmp_path / "c.jsonl",
        [{"id": "s1", "text": "Nothing happened .", "events": [], "polarity": "positive"}],
    )
    (entry,) = load_corpus(tmp_path / "c.jsonl")
    assert entry.events == ()


def test_trigger_not_in_text_rejected(tmp_path):
    _write_jsonl(
        tmp_path / "c.jsonl",
        [
            {
                "id": "s1",
                "text": "The general was killed .",
                "events": [{"type": "Life:Die", "trigger": "died", "arguments": []}],
            }
        ],
    )
    with pytest.raises(FormatError) as raised:
        load_corpus(tmp_path / "c.jsonl")
    assert str(raised.value) == f"{tmp_path / 'c.jsonl'}: line 1: s1: trigger 'died' not found in sentence text"


def test_argument_span_not_in_text_rejected(tmp_path):
    _write_jsonl(
        tmp_path / "c.jsonl",
        [
            {
                "id": "s1",
                "text": "The general was killed .",
                "events": [
                    {
                        "type": "Life:Die",
                        "trigger": "killed",
                        "arguments": [{"role": "Victim", "content": "the colonel"}],
                    }
                ],
            }
        ],
    )
    with pytest.raises(FormatError) as raised:
        load_corpus(tmp_path / "c.jsonl")
    message = f"{tmp_path / 'c.jsonl'}: line 1: s1: argument content 'the colonel' not found in sentence text"
    assert str(raised.value) == message


def test_span_inside_a_token_rejected(tmp_path):
    # "ill" is a substring of "killed" but not whole tokens of the sentence.
    _write_jsonl(
        tmp_path / "c.jsonl",
        [{"id": "s1", "text": "The general was killed .", "events": [{"type": "Life:Die", "trigger": "ill"}]}],
    )
    with pytest.raises(FormatError) as raised:
        load_corpus(tmp_path / "c.jsonl")
    assert str(raised.value) == f"{tmp_path / 'c.jsonl'}: line 1: s1: trigger 'ill' not found in sentence text"


@pytest.mark.parametrize(
    "event, message",
    [
        ({"type": "Life:Die", "trigger": ""}, "s1: trigger is empty"),
        (
            {"type": "Life:Die", "trigger": "killed", "arguments": [{"role": "Victim", "content": ""}]},
            "s1: argument content is empty",
        ),
    ],
)
def test_empty_span_rejected(tmp_path, event, message):
    # An empty string is in every text, so only an explicit check rejects it.
    _write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"id": "s0", "text": "Nothing happened ."},
            {"id": "s1", "text": "The general was killed .", "events": [event]},
        ],
    )
    with pytest.raises(FormatError) as raised:
        load_corpus(tmp_path / "c.jsonl")
    assert str(raised.value) == f"{tmp_path / 'c.jsonl'}: line 2: {message}"


_TYPED_ROW = {
    "id": "s1",
    "text": "The general was killed .",
    "split": "train",
    "events": [{"type": "Life:Die", "trigger": "killed", "arguments": [{"role": "Victim", "content": "general"}]}],
}


def _typed_row(path, value):
    """`_TYPED_ROW` with the field at `path` (keys and list indexes) set to `value`."""
    row = json.loads(json.dumps(_TYPED_ROW))
    *parents, last = path
    target = row
    for key in parents:
        target = target[key]
    target[last] = value
    return row


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("id",), 5, "id must be a string, got 5"),
        (("text",), ["The"], "text must be a string, got ['The']"),
        (("split",), 7, "split must be a string, got 7"),
        (("events",), {"type": "Life:Die"}, "events must be an array, got {'type': 'Life:Die'}"),
        (("events", 0, "type"), 9, "type must be a string, got 9"),
        (("events", 0, "trigger"), None, "trigger must be a string, got None"),
        (("events", 0, "arguments"), "Victim", "arguments must be an array, got 'Victim'"),
        (("events", 0, "arguments", 0, "role"), 3, "role must be a string, got 3"),
        (("events", 0, "arguments", 0, "content"), 1.5, "content must be a string, got 1.5"),
        (("events",), ["x"], "events must be an array of objects, got ['x']"),
        (("events", 0, "arguments"), [7], "arguments must be an array of objects, got [7]"),
    ],
    ids=[
        "id", "text", "split", "events", "type", "trigger", "arguments", "role", "content", "event_entry", "argument_entry"
    ],
)
def test_value_of_the_wrong_type_rejected(tmp_path, path, value, message):
    _write_jsonl(tmp_path / "c.jsonl", [{"id": "s0", "text": "Nothing happened ."}, _typed_row(path, value)])
    with pytest.raises(FormatError) as raised:
        load_corpus(tmp_path / "c.jsonl")
    assert str(raised.value) == f"{tmp_path / 'c.jsonl'}: line 2: {message}"


def test_row_of_wrong_types_rejected(tmp_path):
    # Each field of this row has the wrong type; the first one checked is named.
    row = {
        "id": 5,
        "text": "The general was killed .",
        "split": 7,
        "events": [{"type": 9, "trigger": "killed", "arguments": [{"role": 3, "content": "general"}]}],
    }
    _write_jsonl(tmp_path / "c.jsonl", [row])
    with pytest.raises(FormatError) as raised:
        load_corpus(tmp_path / "c.jsonl")
    assert str(raised.value) == f"{tmp_path / 'c.jsonl'}: line 1: id must be a string, got 5"


def test_double_spaced_text_rejected(tmp_path):
    _write_jsonl(tmp_path / "c.jsonl", [{"id": "s1", "text": "Two  spaces .", "events": []}])
    with pytest.raises(FormatError):
        load_corpus(tmp_path / "c.jsonl")


@pytest.mark.parametrize("record", [["s1", "Nothing happened ."], "s1", 5, None])
def test_record_that_is_not_an_object_rejected(tmp_path, record):
    _write_jsonl(tmp_path / "c.jsonl", [{"id": "s0", "text": "Nothing happened ."}, record])
    with pytest.raises(FormatError) as raised:
        load_corpus(tmp_path / "c.jsonl")
    assert str(raised.value) == f"{tmp_path / 'c.jsonl'}: line 2: record is not a JSON object"


def test_tokens_reconstruct_text(corpus_entries):
    for entry in corpus_entries:
        text = entry.sentence.text
        assert " ".join(text.split()) == text


def test_corpus_records_have_no_instance_dict(corpus_entries):
    entry = next(e for e in corpus_entries if e.events)
    for record in (entry, entry.sentence, entry.events[0]):
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert not hasattr(entry.sentence, "tokens")


def test_build_index_shape(tmp_path):
    _write_jsonl(
        tmp_path / "c.jsonl",
        [{"id": f"s{i}", "text": f"Sentence number {i} .", "events": []} for i in range(3)],
    )
    entries = load_corpus(tmp_path / "c.jsonl")
    index = build_index(entries, HashEmbedder(8))
    assert index.vectors.shape == (3, 8)
    norms = np.linalg.norm(index.vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)


def test_build_index_empty_entries():
    index = build_index([], HashEmbedder(16))
    assert len(index) == 0
    assert index.dimension == 16


def test_build_index_holds_its_rows_once(tmp_path):
    _write_jsonl(
        tmp_path / "c.jsonl",
        [{"id": f"s{i}", "text": f"Reference sentence number {i} .", "events": []} for i in range(400)],
    )
    entries = load_corpus(tmp_path / "c.jsonl")
    embedder = HashEmbedder(512)
    build_index(entries, embedder)  # fill the trigram memo before tracing
    tracemalloc.start()
    try:
        index = build_index(entries, embedder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The index's own bytes plus the rows in flight, not a second copy.
    assert peak / index.vectors.nbytes < 1.5


def test_build_index_twice_gives_the_same_bytes(corpus_entries):
    embedder = HashEmbedder(64)
    first = build_index(corpus_entries, embedder).vectors
    second = build_index(corpus_entries, embedder).vectors
    assert first.tobytes() == second.tobytes()
    assert first.tobytes() == build_index(corpus_entries, HashEmbedder(64)).vectors.tobytes()


class _ZeroEmbedder:
    def dimension(self):
        return 8

    def embed(self, text):
        return np.zeros(8)


class _WrongDimEmbedder:
    def dimension(self):
        return 8

    def embed(self, text):
        return np.ones(9)


def test_zero_vector_backend_rejected(corpus_entries):
    with pytest.raises(ZeroVector):
        build_index(corpus_entries[:1], _ZeroEmbedder())


def test_zero_vector_error_names_the_entry(corpus_entries):
    entries = corpus_entries[:3]
    embedder = _FaultyEmbedder({entries[1].sentence.text: np.zeros(8)}, slow=None)
    with pytest.raises(ZeroVector) as info:
        build_index(entries, embedder)
    assert str(info.value).startswith(f"{entries[1].sentence.id}:")


def test_dimension_mismatch_rejected(corpus_entries):
    with pytest.raises(DimensionMismatch):
        build_index(corpus_entries[:1], _WrongDimEmbedder())


def test_normalization_idempotent(embedder, corpus_entries):
    for entry in corpus_entries[:10]:
        vec = l2_normalize(embedder.embed(entry.sentence.text))
        again = l2_normalize(vec)
        assert np.max(np.abs(again - vec)) <= 1e-9


def test_index_build_deterministic(train_entries, embedder):
    a = build_index(train_entries, embedder)
    b = build_index(train_entries, embedder)
    assert np.array_equal(a.vectors, b.vectors)


class _BarrierEmbedder:
    """Every embed call waits until `INDEX_SLICES` calls are in flight."""

    def __init__(self):
        self.inner = HashEmbedder(8)
        self.barrier = threading.Barrier(INDEX_SLICES, timeout=5)

    def dimension(self):
        return 8

    def embed(self, text):
        self.barrier.wait()
        return self.inner.embed(text)


def test_build_index_overlaps_embed_calls(corpus_entries):
    entries = _numbered_entries(corpus_entries, INDEX_SLICES)
    index = build_index(entries, _BarrierEmbedder())
    assert index.vectors.shape == (INDEX_SLICES, 8)


def test_build_index_keeps_at_most_index_slices_embeds_in_flight(corpus_entries, embedder):
    entries = _numbered_entries(corpus_entries, 5 * INDEX_SLICES)
    embed = helpers.InFlight(embedder.embed)
    index = build_index(entries, SimpleNamespace(dimension=embedder.dimension, embed=embed))
    assert 2 <= embed.peak <= INDEX_SLICES
    assert np.array_equal(index.vectors, build_index(entries, embedder).vectors)


class _JitterEmbedder:
    """The hash embedder behind a seeded sleep per text, so slices finish
    in an order unrelated to entry order."""

    def __init__(self, inner):
        self.inner = inner

    def dimension(self):
        return self.inner.dimension()

    def embed(self, text):
        time.sleep(random.Random(text).uniform(0.0, 0.004))
        return self.inner.embed(text)


@pytest.mark.parametrize(
    "n", [INDEX_SLICES - 3, 5 * INDEX_SLICES], ids=["fewer_rows_than_slices", "five_rows_per_slice"]
)
def test_build_index_rows_in_entry_order(corpus_entries, embedder, n):
    entries = _numbered_entries(corpus_entries, n)
    oracle = np.vstack([l2_normalize(embedder.embed(e.sentence.text)) for e in entries])
    index = build_index(entries, _JitterEmbedder(embedder))
    assert index.entries == tuple(entries)
    assert np.array_equal(index.vectors, oracle)


def test_build_index_rows_under_a_short_switch_interval(corpus_entries, embedder):
    # `INDEX_SLICES` threads write disjoint row ranges of one array and switch often.
    entries = _numbered_entries(corpus_entries, 5 * INDEX_SLICES)
    oracle = np.vstack([l2_normalize(embedder.embed(e.sentence.text)) for e in entries])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        vectors = build_index(entries, HashEmbedder(embedder.dimension())).vectors
    finally:
        sys.setswitchinterval(interval)
    assert vectors.tobytes() == oracle.tobytes()


class _FaultyEmbedder:
    """Returns `faults[text]` (a zero or a wrong-length vector) for some
    texts. The earlier entry's fault answers last, so in time the later
    entry fails first."""

    def __init__(self, faults, slow):
        self.inner = HashEmbedder(8)
        self.faults = faults
        self.slow = slow

    def dimension(self):
        return 8

    def embed(self, text):
        if text == self.slow:
            time.sleep(0.2)
        return self.faults.get(text, self.inner.embed(text))


@pytest.mark.parametrize(
    "early, late, expected",
    [
        (np.ones(9), np.ones(9), DimensionMismatch),
        (np.zeros(8), np.ones(9), ZeroVector),
        (np.ones(9), np.zeros(8), DimensionMismatch),
    ],
)
def test_build_index_raises_first_failure_in_entry_order(corpus_entries, early, late, expected):
    entries = corpus_entries[:16]
    first, second = entries[2], entries[13]
    assert _slice_of(2, len(entries)) < _slice_of(13, len(entries))
    threads = threading.active_count()
    embedder = _FaultyEmbedder(
        {first.sentence.text: early, second.sentence.text: late}, slow=first.sentence.text
    )
    with pytest.raises(expected) as info:
        build_index(entries, embedder)
    if expected is DimensionMismatch:
        assert str(info.value).startswith(f"{first.sentence.id}:")
    assert threading.active_count() == threads


def test_sentence_requires_nonempty_text():
    with pytest.raises(ValueError):
        Sentence.from_text("s1", "")


class _CountingEmbedder:
    """Every embed but the first text's waits a while; the first text's
    vector has the wrong length. Counts the calls."""

    def __init__(self, bad):
        self.inner = HashEmbedder(8)
        self.bad = bad
        self.calls = 0
        self.lock = threading.Lock()

    def dimension(self):
        return 8

    def embed(self, text):
        with self.lock:
            self.calls += 1
        if text == self.bad:
            return np.ones(9)
        time.sleep(0.2)
        return self.inner.embed(text)


def test_build_index_stops_later_slices_after_a_failure(corpus_entries):
    entries = _numbered_entries(corpus_entries, 5 * INDEX_SLICES)
    embedder = _CountingEmbedder(bad=entries[0].sentence.text)
    threads = threading.active_count()
    with pytest.raises(DimensionMismatch) as info:
        build_index(entries, embedder)
    assert str(info.value).startswith(f"{entries[0].sentence.id}:")
    # The failing call, and at most the one call each other slice had in flight.
    assert embedder.calls <= INDEX_SLICES
    assert threading.active_count() == threads

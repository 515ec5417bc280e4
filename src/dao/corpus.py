"""Annotated reference corpus and the embedded index searched by retrieval.

Corpus rows are JSONL: `{"id", "text", "split", "events": [{"type",
"trigger", "arguments": [{"role", "content"}]}]}`. Each row becomes a
`ReferenceEntry` holding its sentence, events and split; the entry's
polarity is derived from its events, never read from the file.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .backends import EmbeddingBackend
from .errors import DimensionMismatch, FormatError, SpanNotInSentence, ZeroVector

# Embed calls `build_index` keeps in flight at once: a live embedding
# endpoint pays one round trip per reference sentence, and these overlap.
# The useful width is about the embed latency over the GIL-held CPU per
# embed: 0.59 ms / ~35 µs ≈ 17 on a 2-core host. Building a 2,000 x D64
# index behind a 0.5 ms embed delay took a median 163 ms at 8, 136 ms at
# 16 and no less at 32.
INDEX_SLICES = 16

T = TypeVar("T")


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True, slots=True)
class Sentence:
    id: str
    text: str

    @classmethod
    def from_text(cls, sentence_id: str, text: str) -> "Sentence":
        """Build a sentence from non-empty, single-spaced text: its
        whitespace tokens joined by single spaces must give the text back."""
        if not text:
            raise ValueError(f"{sentence_id}: text must be non-empty")
        if " ".join(text.split()) != text:
            raise ValueError(
                f"{sentence_id}: text is not single-spaced; tokens do not reconstruct it"
            )
        return cls(id=sentence_id, text=text)


@dataclass(frozen=True, slots=True)
class EventMention:
    event_type: str
    trigger: str
    arguments: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class ReferenceEntry:
    """An annotated sentence; with no events it is a negative example."""

    sentence: Sentence
    events: tuple[EventMention, ...] = ()
    split: str = "train"

    @property
    def polarity(self) -> Polarity:
        return Polarity.POSITIVE if self.events else Polarity.NEGATIVE


@dataclass(frozen=True)
class EmbeddedIndex:
    """Reference entries plus one unit-norm vector per entry."""

    entries: tuple[ReferenceEntry, ...]
    vectors: np.ndarray  # shape (n, dimension), rows L2-normalized
    dimension: int

    def __len__(self) -> int:
        return len(self.entries)


def l2_normalize(vector: np.ndarray, name: str = "") -> np.ndarray:
    """Return the unit-norm copy of `vector`; zero vectors are an error,
    whose message starts with `name` when one is given."""
    vector = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        prefix = f"{name}: " if name else ""
        raise ZeroVector(f"{prefix}cannot normalize a zero vector")
    return vector / norm


def _check_span(sentence: Sentence, span: str, what: str) -> None:
    if span not in sentence.text:
        raise SpanNotInSentence(f"{sentence.id}: {what} {span!r} not found in sentence text")


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """`parse` applied to every record of a JSON Lines file; blank lines
    are skipped. A line that is not UTF-8, invalid JSON, a record that is
    not an object, and a KeyError, TypeError, AttributeError or ValueError
    out of `parse` are a FormatError naming the line."""
    parsed: list[T] = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(line_no, f"not UTF-8: {exc}") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(line_no, f"invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise FormatError(line_no, "record is not a JSON object")
            try:
                parsed.append(parse(record))
            except KeyError as exc:
                raise FormatError(line_no, f"missing key {exc}") from None
            except (TypeError, AttributeError, ValueError) as exc:
                raise FormatError(line_no, str(exc)) from None
    return parsed


def load_corpus(path: str | Path) -> list[ReferenceEntry]:
    """Load reference entries from a JSONL corpus file.

    Every trigger and argument content must occur verbatim in the
    sentence text. Rows without events are negative examples.
    """
    return read_jsonl(path, _reference_entry)


def _reference_entry(record: dict) -> ReferenceEntry:
    sentence = Sentence.from_text(record["id"], record["text"])
    events = tuple(
        EventMention(
            event_type=event["type"],
            trigger=event["trigger"],
            arguments=tuple((arg["role"], arg["content"]) for arg in event.get("arguments", ())),
        )
        for event in record.get("events", ())
    )
    for event in events:
        _check_span(sentence, event.trigger, "trigger")
        for _, content in event.arguments:
            _check_span(sentence, content, "argument content")
    return ReferenceEntry(sentence=sentence, events=events, split=record.get("split", "train"))


def build_index(entries: list[ReferenceEntry], embedder: EmbeddingBackend) -> EmbeddedIndex:
    """Embed every entry's sentence and L2-normalize the vectors.

    The index is one (n, dimension) float64 array, allocated once. The
    entries are cut into at most `INDEX_SLICES` contiguous slices,
    embedded at once on a thread pool that lives for this call only; each
    slice embeds its entries in order and writes each normalized row into
    its own row range, so the vectors are bitwise those of a one-by-one
    build and deterministic embedders yield bitwise-identical indexes
    across builds. Normalization happens here regardless of what the
    backend returns. Once a slice fails, every later slice stops before
    its next embed, while earlier slices run on; a failing slice is raised
    only after every earlier slice has finished. The error raised is the
    first failure in entry order, and no pool thread outlives the call.
    """
    dim = embedder.dimension()
    if not entries:
        return EmbeddedIndex(entries=(), vectors=np.zeros((0, dim)), dimension=dim)

    vectors = np.empty((len(entries), dim), dtype=np.float64)
    slices = min(INDEX_SLICES, len(entries))
    first_failed = slices  # the lowest slice that has failed so far
    lock = threading.Lock()

    def embed_slice(k: int, lo: int, hi: int) -> None:
        nonlocal first_failed
        try:
            for row in range(lo, hi):
                if first_failed < k:
                    # An earlier slice's error is raised; the array is not returned.
                    break
                entry = entries[row]
                vector = np.asarray(embedder.embed(entry.sentence.text), dtype=np.float64)
                if vector.ndim != 1 or vector.shape[0] != dim:
                    raise DimensionMismatch(
                        f"{entry.sentence.id}: embedding has shape {vector.shape}, expected ({dim},)"
                    )
                vectors[row] = l2_normalize(vector, entry.sentence.id)
        except Exception:
            with lock:
                first_failed = min(first_failed, k)
            raise

    bounds = [len(entries) * i // slices for i in range(slices + 1)]
    with ThreadPoolExecutor(max_workers=slices) as pool:
        futures = [
            pool.submit(embed_slice, k, lo, hi)
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        for future in futures:
            future.result()
    return EmbeddedIndex(entries=tuple(entries), vectors=vectors, dimension=dim)

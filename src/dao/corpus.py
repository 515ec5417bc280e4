"""The JSON Lines inputs: the event ontology, the annotated reference
corpus, and the embedded index searched by retrieval.

Ontology rows are `{"type", "definition", "typical_triggers", "roles"}`;
the ontology is a mapping from each type to its `EventDefinition`, in
file order. Every sentence row, of the corpus, `--input`, predictions
and `dao eval`'s files, is `{"id", "text", "split", "events": [{"type",
"trigger", "arguments": [{"role", "content"}]}]}`: `parse_event_row`
reads one into a `ReferenceEntry`, type-checking every field, and
`event_row` writes one. `load_corpus` also rejects text that is not
single-spaced and a trigger or argument that is empty or not whole
tokens of its sentence. `read_keyed` rejects every bad row of every
JSON Lines input, naming the file and the line.

The row reader interns `split`, `type` and `role`, whose values come
from a split name or the ontology, so the reference rows that a run
holds throughout share one string per distinct value of them; `id`,
`text`, `trigger` and `content` are open vocabulary, words of their own
sentence, and stay one copy per row.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

import numpy as np

from .backends import EmbeddingBackend
from .errors import DimensionMismatch, FormatError, ZeroVector

# Calls `in_slices` keeps in flight at once, for `build_index`'s embeds
# and `dao calibrate`'s scoring requests: a live endpoint pays one round
# trip per reference sentence or calibration pair, and these overlap.
# The useful width is about the embed latency over the GIL-held CPU per
# embed: 0.59 ms / ~35 µs ≈ 17 on a 2-core host. Building a 2,000 x D64
# index behind a 0.5 ms embed delay took a median 163 ms at 8, 136 ms at
# 16 and no less at 32.
INDEX_SLICES = 16

T = TypeVar("T")


@dataclass(frozen=True)
class EventDefinition:
    """One event type's guideline entry."""

    type_id: str
    definition_text: str
    typical_triggers: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.type_id:
            raise ValueError("event type id must be non-empty")
        if not self.definition_text:
            raise ValueError(f"{self.type_id}: definition text must be non-empty")
        if len(set(self.roles)) != len(self.roles):
            raise ValueError(f"{self.type_id}: duplicate role names")


# An event ontology: each type's definition, keyed by type in file order.
Ontology = Mapping[str, EventDefinition]


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
    """One event: a (type, trigger) and its filled argument rows. It is a
    gold annotation, a debater's answer, an answer the judge agrees on and
    an output record alike; None stands for no event."""

    event_type: str
    trigger: str
    arguments: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class ReferenceEntry:
    """An annotated sentence; with no events it is a negative example."""

    sentence: Sentence
    events: tuple[EventMention, ...] = ()
    split: str = "train"


@dataclass(frozen=True)
class EmbeddedIndex:
    """The reference index, or a sentence's top-K of it: entries plus
    their unit-norm vectors, row for row."""

    entries: tuple[ReferenceEntry, ...]
    vectors: np.ndarray  # shape (n, dimension), rows L2-normalized

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

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
    if not span:
        raise ValueError(f"{sentence.id}: {what} is empty")
    if f" {span} " not in f" {sentence.text} ":
        raise ValueError(f"{sentence.id}: {what} {span!r} not found in sentence text")


def read_keyed(path: str | Path, key: str, name: str, parse: Callable[[dict], T]) -> dict[str, T]:
    """`parse` applied to every record of a JSON Lines file, keyed by its
    `key` field, as a dict in file order; blank lines are skipped. A line
    that is not UTF-8, invalid JSON, a record that is not an object, a row
    whose key an earlier row has (a duplicate `name`), and a KeyError,
    TypeError, AttributeError or ValueError out of `parse` are a FormatError
    naming the file and the line: row checks raise ValueError, so that this
    is the one place a row fails."""
    rows: dict[str, T] = {}
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(path, line_no, f"not UTF-8: {exc}") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(path, line_no, f"invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise FormatError(path, line_no, "record is not a JSON object")
            try:
                row = parse(record)
                if record[key] in rows:
                    raise ValueError(f"duplicate {name} {record[key]!r}")
                rows[record[key]] = row
            except KeyError as exc:
                raise FormatError(path, line_no, f"missing key {exc}") from None
            except (TypeError, AttributeError, ValueError) as exc:
                raise FormatError(path, line_no, str(exc)) from None
    return rows


def load_ontology(path: str | Path) -> Ontology:
    """The event definitions of a JSONL file, keyed by type in file order.

    Each row needs string `type` and `definition`; `typical_triggers` and
    `roles` are arrays of strings, empty when left out. Unknown keys are
    ignored, and no type may repeat."""
    return read_keyed(path, "type", "event type", _event_definition)


def _event_definition(record: dict) -> EventDefinition:
    return EventDefinition(
        type_id=_string(record, "type"),
        definition_text=_string(record, "definition"),
        typical_triggers=_strings(record, "typical_triggers"),
        roles=_strings(record, "roles"),
    )


def _string(record: dict, field: str, default: str | None = None) -> str:
    """`record[field]`, or `default` when one is given and the field is
    left out; a value that is not a string is a ValueError."""
    value = record[field] if default is None else record.get(field, default)
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def _array(record: dict, field: str) -> list[dict]:
    """`record[field]`, empty when left out; a value that is not an array
    of objects is a ValueError."""
    values = record.get(field, [])
    if not isinstance(values, list):
        raise ValueError(f"{field} must be an array, got {values!r}")
    if not all(isinstance(v, dict) for v in values):
        raise ValueError(f"{field} must be an array of objects, got {values!r}")
    return values


def _strings(record: dict, field: str) -> tuple[str, ...]:
    values = record.get(field, [])
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"{field} must be an array of strings, got {values!r}")
    return tuple(values)


def load_corpus(path: str | Path) -> list[ReferenceEntry]:
    """Load reference entries from a JSONL corpus file: text must be
    single-spaced, triggers and argument contents non-empty whole tokens
    of it, and ids unique; rows without events are negative examples."""
    return list(read_keyed(path, "id", "sentence id", _reference_entry).values())


def _reference_entry(record: dict) -> ReferenceEntry:
    entry = parse_event_row(record)
    sentence = Sentence.from_text(entry.sentence.id, entry.sentence.text)
    for event in entry.events:
        _check_span(sentence, event.trigger, "trigger")
        for _, content in event.arguments:
            _check_span(sentence, content, "argument content")
    return entry


def parse_event_row(record: dict) -> ReferenceEntry:
    """A sentence row's entry: `id`, `text`, `split` (default "train"),
    `type`, `trigger`, `role` and `content` must be strings, `events` and
    `arguments` arrays of objects (empty when left out); spans are not
    checked. `split`, `type` and `role` are interned."""
    sentence = Sentence(_string(record, "id"), _string(record, "text"))
    split = sys.intern(_string(record, "split", "train"))
    events = tuple(
        EventMention(
            event_type=sys.intern(_string(event, "type")),
            trigger=_string(event, "trigger"),
            arguments=tuple(
                (sys.intern(_string(arg, "role")), _string(arg, "content"))
                for arg in _array(event, "arguments")
            ),
        )
        for event in _array(record, "events")
    )
    return ReferenceEntry(sentence=sentence, events=events, split=split)


def event_row(sentence: Sentence, events: Iterable[EventMention]) -> dict:
    """The row of `sentence` and its `events`, as `parse_event_row` reads it."""
    return {
        "id": sentence.id,
        "text": sentence.text,
        "events": [
            {
                "type": event.event_type,
                "trigger": event.trigger,
                "arguments": [{"role": role, "content": content} for role, content in event.arguments],
            }
            for event in events
        ],
    }


def embed_sentence(embedder: EmbeddingBackend, sentence: Sentence, dim: int) -> np.ndarray:
    """The unit-norm float64 embedding of `sentence`'s text, as the index
    rows and the session's query hold it. A vector whose shape is not
    (`dim`,) is a DimensionMismatch, and a zero vector a ZeroVector,
    each naming the sentence."""
    vector = np.asarray(embedder.embed(sentence.text), dtype=np.float64)
    if vector.ndim != 1 or vector.shape[0] != dim:
        raise DimensionMismatch(f"{sentence.id}: embedding has shape {vector.shape}, expected ({dim},)")
    return l2_normalize(vector, sentence.id)


def in_slices(call: Callable[[int], T], n: int) -> list[T]:
    """`[call(0), ..., call(n - 1)]`, with at most `INDEX_SLICES` calls in
    flight.

    The indexes are cut into at most `INDEX_SLICES` contiguous slices, run
    at once on a thread pool that lives for this call only; each slice
    calls its indexes in order, and each result lands at its own index.
    Once a slice fails, every later slice stops before its next call,
    while earlier slices run on; a failing slice is raised only after
    every earlier slice has finished. The error raised is the first
    failure in index order, and no pool thread outlives the call.
    """
    results: list = [None] * n
    slices = min(INDEX_SLICES, n)
    if not slices:
        return results
    first_failed = slices  # the lowest slice that has failed so far
    lock = threading.Lock()

    def run_slice(k: int, lo: int, hi: int) -> None:
        nonlocal first_failed
        try:
            for i in range(lo, hi):
                if first_failed < k:
                    break  # an earlier slice's error is raised instead
                results[i] = call(i)
        except Exception:
            with lock:
                first_failed = min(first_failed, k)
            raise

    bounds = [n * i // slices for i in range(slices + 1)]
    with ThreadPoolExecutor(max_workers=slices) as pool:
        futures = [pool.submit(run_slice, k, lo, hi) for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        for future in futures:
            future.result()
    return results


def build_index(entries: list[ReferenceEntry], embedder: EmbeddingBackend) -> EmbeddedIndex:
    """The index of `entries`: each sentence's `embed_sentence` vector,
    embedded `in_slices` and written in place into one (n, dimension)
    float64 array, allocated once. The vectors are bitwise those of a
    one-by-one build, whatever the backend returns; the error raised is
    the first failure in entry order.
    """
    dim = embedder.dimension()
    vectors = np.empty((len(entries), dim), dtype=np.float64)

    def embed_row(row: int) -> None:
        vectors[row] = embed_sentence(embedder, entries[row].sentence, dim)

    in_slices(embed_row, len(entries))
    return EmbeddedIndex(entries=tuple(entries), vectors=vectors)

"""Diversity-constrained retrieval over the embedded reference index.

Candidates nearest to the query are grouped by greedy leader clustering
under a radius that shrinks every round; a cluster is a list of
candidates whose first member is its leader. At most one entry per
cluster is selected, ceil(m/2) positive and m//2 negative examples
when the clusters have them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .corpus import EmbeddedIndex, Polarity, ReferenceEntry
from .errors import DimensionMismatch
from .ontology import EventDefinition, EventOntology, EventTypeId


@dataclass(frozen=True)
class DragConfig:
    top_k: int = 128
    max_examples: int = 10
    initial_radius: float = 1.35
    radius_decay: float = 0.9

    def __post_init__(self):
        if self.top_k < 1 or self.max_examples < 1:
            raise ValueError("top_k and max_examples must be positive")
        if self.max_examples > self.top_k:
            raise ValueError("max_examples cannot exceed top_k")
        if self.initial_radius <= 0:
            raise ValueError("initial_radius must be positive")
        if not 0.0 < self.radius_decay <= 1.0:
            raise ValueError("radius_decay must be in (0, 1]")


@dataclass(frozen=True)
class Candidate:
    entry: ReferenceEntry
    distance: float
    vector: np.ndarray


@dataclass(frozen=True)
class RetrievalResult:
    examples: tuple[ReferenceEntry, ...]
    definitions: tuple[EventDefinition, ...]
    unknown_types: tuple[str, ...] = ()


class Opinion(Protocol):
    """Anything carrying an event type mention (possibly None)."""

    event_type: str | None


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - u.v for unit vectors; ranges over [0, 2]."""
    return 1.0 - float(np.dot(u, v))


def check_query(index: EmbeddedIndex, query: np.ndarray) -> np.ndarray:
    """`query` as a float64 vector; DimensionMismatch unless it has the
    index's dimension."""
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.shape[0] != index.dimension:
        raise DimensionMismatch(
            f"query has shape {query.shape}, index dimension is {index.dimension}"
        )
    return query


def retrieve_topk(index: EmbeddedIndex, query: np.ndarray, k: int) -> list[Candidate]:
    """The min(k, |index|) entries nearest to the unit query vector.

    Sorted by cosine distance ascending, ties broken by entry id.
    """
    query = check_query(index, query)
    if not index.entries:
        return []
    distances = 1.0 - index.vectors @ query
    k = min(k, len(distances))
    # Every entry tied with the k-th distance stays in the slice, so the
    # exact sort below can break those ties by entry id.
    kth = distances[np.argpartition(distances, k - 1)[k - 1]]
    nearest = np.flatnonzero(distances <= kth)
    order = sorted(nearest, key=lambda i: (distances[i], index.entries[i].sentence.id))
    return [
        Candidate(entry=index.entries[i], distance=float(distances[i]), vector=index.vectors[i])
        for i in order[:k]
    ]


def cluster_candidates(candidates: Sequence[Candidate], radius: float) -> list[list[Candidate]]:
    """Greedy leader clustering over candidates sorted by query distance.

    Scanning in order, a candidate joins the first cluster whose leader
    (its first member) lies within `radius` (cosine distance <= radius)
    and otherwise founds a new cluster. Leaders are therefore pairwise
    more than `radius` apart, and each leader is its cluster's closest
    member to the query.
    """
    clusters: list[list[Candidate]] = []
    for candidate in candidates:
        for cluster in clusters:
            if cosine_distance(candidate.vector, cluster[0].vector) <= radius:
                cluster.append(candidate)
                break
        else:
            clusters.append([candidate])
    return clusters


def select_diverse(clusters: Sequence[Sequence[Candidate]], m: int) -> list[ReferenceEntry]:
    """Pick at most `m` entries, one per cluster, balancing polarity.

    The quota is ceil(m/2) positive and m//2 negative entries. Walks
    clusters by leader distance ascending and takes each cluster's
    closest member whose polarity quota is still open; if one polarity is
    exhausted in the corpus, remaining slots are backfilled with the
    other from clusters not yet used. The result is sorted by distance to
    the query.

    Each cluster must already be ordered by (distance, entry id), so its
    first open member is its closest; `cluster_candidates` builds them
    that way from `retrieve_topk`'s order.
    """
    remaining = {Polarity.POSITIVE: m - m // 2, Polarity.NEGATIVE: m // 2}
    picked: list[Candidate] = []
    used: set[int] = set()
    for i, cluster in enumerate(clusters):
        if len(picked) == m:
            break
        for member in cluster:
            if remaining[member.entry.polarity] > 0:
                remaining[member.entry.polarity] -= 1
                picked.append(member)
                used.add(i)
                break
    if len(picked) < m:
        for i, cluster in enumerate(clusters):
            if len(picked) == m:
                break
            if i in used:
                continue
            picked.append(cluster[0])
            used.add(i)
    picked.sort(key=lambda c: (c.distance, c.entry.sentence.id))
    return [candidate.entry for candidate in picked]


def decay_radius(radius: float, decay: float) -> float:
    """The next round's cluster radius: decay * radius, decay in (0, 1]."""
    return decay * radius


def _entry_mentions_type(entry: ReferenceEntry, event_type: EventTypeId) -> bool:
    return any(event.event_type == event_type for event in entry.events)


def gather_event_info(
    opinions: Sequence[Opinion],
    ontology: EventOntology,
    candidates: Sequence[Candidate],
    radius: float,
    config: DragConfig,
    event_type_filter: EventTypeId | None = None,
) -> RetrievalResult:
    """Assemble the per-round retrieval packet.

    Definitions cover every distinct event type mentioned in the current
    opinions (unknown types are recorded, not fatal). Examples come from
    the sentence's top-K `candidates`, leader clustering at `radius`, and
    diversity selection. During argument extraction, `event_type_filter`
    narrows candidates to entries mentioning the identified type before
    clustering; if that leaves nothing, the unfiltered list is used.
    """
    definitions: list[EventDefinition] = []
    unknown: list[str] = []
    seen: set[str] = set()
    for opinion in opinions:
        type_id = opinion.event_type
        if type_id is None or type_id in seen:
            continue
        seen.add(type_id)
        if type_id in ontology:
            definitions.append(ontology.lookup(type_id))
        else:
            unknown.append(type_id)

    if event_type_filter is not None:
        filtered = [c for c in candidates if _entry_mentions_type(c.entry, event_type_filter)]
        if filtered:
            candidates = filtered
    clusters = cluster_candidates(candidates, radius)
    examples = select_diverse(clusters, config.max_examples)
    return RetrievalResult(
        examples=tuple(examples),
        definitions=tuple(definitions),
        unknown_types=tuple(unknown),
    )

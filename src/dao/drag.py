"""Diversity-constrained retrieval over the embedded reference index.

The entries nearest to the query form one top-K `EmbeddedIndex` per
sentence. Its rows are grouped by greedy leader clustering under a radius
that shrinks every round; a cluster is an array of row positions whose
first is its leader. At most one entry per cluster is selected, ceil(m/2)
positive examples (entries with events) and m//2 negative ones when the
clusters have them. An argument-extraction debate retrieves from the
top-K rows that mention its event type, found once per sentence by
`positions_by_type`, or from all of them when none does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import EmbeddedIndex, EventDefinition, Ontology, ReferenceEntry
from .errors import DimensionMismatch


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
class RetrievalResult:
    examples: tuple[ReferenceEntry, ...]
    definitions: tuple[EventDefinition, ...]
    unknown_types: tuple[str, ...] = ()


def retrieve_topk(index: EmbeddedIndex, query: np.ndarray, k: int) -> EmbeddedIndex:
    """The min(k, |index|) entries nearest to the unit query vector, as
    an index of their own rows.

    Sorted by cosine distance (1 - u.v) ascending, ties broken by entry id.
    A query without the index's dimension is a DimensionMismatch.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.shape[0] != index.dimension:
        raise DimensionMismatch(f"query has shape {query.shape}, index dimension is {index.dimension}")
    distances = 1.0 - index.vectors @ query
    k = min(k, len(distances))
    if k == 0:
        return EmbeddedIndex((), index.vectors[:0])
    # Every entry tied with the k-th distance stays in the slice, so the
    # exact sort below can break those ties by entry id.
    kth = distances[np.argpartition(distances, k - 1)[k - 1]]
    nearest = np.flatnonzero(distances <= kth)
    ids = [index.entries[i].sentence.id for i in nearest.tolist()]
    order = nearest[np.lexsort((ids, distances[nearest]))[:k]]
    return EmbeddedIndex(tuple(index.entries[i] for i in order.tolist()), index.vectors[order])


def cluster_candidates(candidates: EmbeddedIndex, radius: float) -> list[np.ndarray]:
    """Greedy leader clustering over a top-K set, as row positions.

    Scanning in order, a row joins the first cluster whose leader (its
    first member) lies within `radius` (cosine distance <= radius) and
    otherwise founds a new cluster. Leaders are therefore pairwise more
    than `radius` apart, and each leader is its cluster's closest member
    to the query. One matrix-vector product per leader finds its members;
    it spans all rows, which is cheaper than copying the unassigned ones.
    """
    clusters: list[np.ndarray] = []
    unassigned = np.arange(len(candidates))
    while unassigned.size:
        products = candidates.vectors @ candidates.vectors[unassigned[0]]
        member = 1.0 - products[unassigned] <= radius
        member[0] = True
        clusters.append(unassigned[member])
        unassigned = unassigned[~member]
    return clusters


def select_diverse(candidates: EmbeddedIndex, clusters: Sequence[np.ndarray], m: int) -> list[ReferenceEntry]:
    """Pick at most `m` entries, one per cluster, balancing positive
    examples (entries with events) against negative ones.

    The quota is ceil(m/2) positive and m//2 negative entries. Walks
    clusters by leader distance ascending and takes each cluster's
    closest member whose quota is still open; if one kind is exhausted in
    the corpus, remaining slots are backfilled with the other from
    clusters not yet used. The result is sorted by distance to the query.

    `clusters` hold positions in `candidates`, each ascending, as
    `cluster_candidates` builds them; position order is (distance, entry
    id) order, so a cluster's first open member is its closest.
    """
    remaining = {True: m - m // 2, False: m // 2}  # keyed on "has events"
    picked: list[int] = []
    used: set[int] = set()
    for i, cluster in enumerate(clusters):
        if len(picked) == m:
            break
        for position in cluster.tolist():
            positive = bool(candidates.entries[position].events)
            if remaining[positive] > 0:
                remaining[positive] -= 1
                picked.append(position)
                used.add(i)
                break
    for i, cluster in enumerate(clusters):
        if len(picked) < m and i not in used:
            picked.append(int(cluster[0]))
    return [candidates.entries[position] for position in sorted(picked)]


def decay_radius(radius: float, decay: float) -> float:
    """The next round's cluster radius: decay * radius, decay in (0, 1]."""
    return decay * radius


def positions_by_type(candidates: EmbeddedIndex) -> dict[str, list[int]]:
    """Each event type's positions in `candidates`, ascending: the rows
    whose entry mentions it, found in one pass over the rows."""
    positions: dict[str, list[int]] = {}
    for position, entry in enumerate(candidates.entries):
        for event in entry.events:
            rows = positions.setdefault(event.event_type, [])
            if not rows or rows[-1] != position:
                rows.append(position)
    return positions


def narrow(candidates: EmbeddedIndex, positions: Sequence[int]) -> EmbeddedIndex:
    """The rows of `candidates` at `positions`, in that order, or all of
    them when `positions` is empty."""
    if not positions:
        return candidates
    return EmbeddedIndex(tuple(candidates.entries[i] for i in positions), candidates.vectors[positions])


def with_definitions(
    examples: Sequence[ReferenceEntry], event_types: Sequence[str], ontology: Ontology
) -> RetrievalResult:
    """The retrieval packet of `examples` and `ontology`'s definitions for
    every distinct type in `event_types`, the live answers' event types;
    a type the ontology lacks is recorded in `unknown_types`, not fatal."""
    definitions: list[EventDefinition] = []
    unknown: list[str] = []
    for type_id in dict.fromkeys(event_types):
        if type_id in ontology:
            definitions.append(ontology[type_id])
        else:
            unknown.append(type_id)
    return RetrievalResult(examples=tuple(examples), definitions=tuple(definitions), unknown_types=tuple(unknown))


def gather_event_info(
    event_types: Sequence[str],
    ontology: Ontology,
    candidates: EmbeddedIndex,
    radius: float,
    config: DragConfig,
) -> RetrievalResult:
    """Assemble one round's retrieval packet: examples from `candidates`,
    a sentence's top-K or its rows of one event type, by leader clustering
    at `radius` and diversity selection, with the definitions of
    `event_types`."""
    clusters = cluster_candidates(candidates, radius)
    return with_definitions(select_diverse(candidates, clusters, config.max_examples), event_types, ontology)

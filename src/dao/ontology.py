"""Event schema: type ids, definitions, typical triggers, and role lists.

The ontology is loaded once from a JSON Lines file and is immutable
afterwards; agents and the retriever only ever read from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import read_jsonl
from .errors import DuplicateType, UnknownEventType

# Event type ids are plain "Parent:Subtype" strings compared by equality.
EventTypeId = str


@dataclass(frozen=True)
class EventDefinition:
    """One event type's guideline entry."""

    type_id: EventTypeId
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


@dataclass(frozen=True)
class EventOntology:
    """Immutable map from event type id to its definition."""

    definitions: dict[EventTypeId, EventDefinition] = field(default_factory=dict)

    def lookup(self, type_id: EventTypeId) -> EventDefinition:
        try:
            return self.definitions[type_id]
        except KeyError:
            raise UnknownEventType(type_id) from None

    def __contains__(self, type_id: EventTypeId) -> bool:
        return type_id in self.definitions

    def __len__(self) -> int:
        return len(self.definitions)

    def type_ids(self) -> list[EventTypeId]:
        """All known type ids in file order."""
        return list(self.definitions)


def load_ontology(path: str | Path) -> EventOntology:
    """Load an ontology from a JSONL file, one definition object per line.

    Each record needs `type` and `definition`; `typical_triggers` and
    `roles` default to empty lists. Unknown keys are ignored. Duplicate
    type ids and malformed records are errors.
    """
    definitions: dict[EventTypeId, EventDefinition] = {}
    for definition in read_jsonl(path, _definition):
        if definition.type_id in definitions:
            raise DuplicateType(definition.type_id)
        definitions[definition.type_id] = definition
    return EventOntology(definitions)


def _definition(record: dict) -> EventDefinition:
    return EventDefinition(
        type_id=record["type"],
        definition_text=record["definition"],
        typical_triggers=tuple(record.get("typical_triggers", ())),
        roles=tuple(record.get("roles", ())),
    )

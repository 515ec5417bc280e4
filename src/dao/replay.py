"""Scripted replay bundles: canned agent replies plus scorer keys.

A bundle makes a full extraction run hermetic: chat backends replay
per-session scripts, scoring uses the keyed deterministic scorer, and
embeddings come from the trigram hash embedder. Bundle JSON shape:

    {
      "embedder": {"dimension": 64},
      "scorer": {"keys": [["<matcher>", "<key phrase>"], ...],
                 "match_cost": ..., "miss_cost": ..., "scale": ...},
      "sessions": {"<sentence id>": {"debaters": [[["*", "reply"], ...], ...],
                                     "critic": [...], "judge": [...]}}
    }

Scorer costs left out keep the `KeyedScorer` defaults, which scores an
answer against every key whose matcher applies to the prompt. A chat
script is an array of ("*", reply) string pairs, whose replies the
scripted chat backend returns in order, whatever the prompt; a missing
critic or judge script is empty. `load` checks the whole bundle, and
that it scripts every input sentence of the run, before any work, so a
run never meets a malformed or missing script or an unknown key midway:
a key that the shape above does not name is rejected, never ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .backends import HashEmbedder, KeyedScorer, ScriptedChatBackend
from .debate import AgentTeam, DebaterBinding, debater_name
from .errors import InvalidConfig

# The embedding dimension when a bundle, or a live config, leaves it out.
DEFAULT_DIMENSION = 64


# Ordered (matcher, value) string pairs: a chat script, or the scorer's keys.
Script = tuple[tuple[str, str], ...]
# A session's replies in call order: (each debater's, the critic's, the judge's).
Replies = tuple[str, ...]
Agents = tuple[tuple[Replies, ...], Replies, Replies]


@dataclass
class ReplayBundle:
    dimension: int
    scorer_keys: Script
    scorer_costs: dict[str, float]
    sessions: dict[str, Agents]

    @classmethod
    def load(cls, path: str | Path, ids: Iterable[str] = ()) -> "ReplayBundle":
        """The bundle in the JSON file at `path`, for a run whose input
        sentences have the ids `ids`. A file that is not UTF-8 JSON,
        a bundle, `embedder`, `scorer`, `sessions` or session entry that is
        not a JSON object, an unknown key in any of them but `sessions`, an
        embedding dimension that is not an integer of at least 8,
        `scorer.keys` or a script that is not an array of pairs of strings,
        a chat-script matcher other than `"*"`, a `debaters` that is not an
        array of at least two scripts, or a scorer cost that is not a finite
        number of at least 0 raises `InvalidConfig` naming the bundle and
        the field; so does an id of `ids` that has no session."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise InvalidConfig(f"{path}: not valid JSON: {exc}") from None

        def check(ok: bool, name: str, value: object, what: str) -> None:
            if not ok:
                raise InvalidConfig(f"{path}: {name} must be {what}, got {value!r}")

        def section(name: str, value: object, keys: set[str] | None) -> dict:
            check(isinstance(value, dict), name, value, "a JSON object")
            if keys is not None and (unknown := sorted(value.keys() - keys)):
                where = "" if name == "top level" else f"{name}."
                raise InvalidConfig(f"{path}: unknown key {where}{unknown[0]}")
            return value

        def pairs(name: str, value: object) -> Script:
            check(isinstance(value, list), name, value, "a JSON array")
            for i, pair in enumerate(value):
                ok = isinstance(pair, list) and len(pair) == 2 and all(isinstance(s, str) for s in pair)
                check(ok, f"{name}[{i}]", pair, "a pair of strings")
            return tuple(tuple(pair) for pair in value)

        def chat(name: str, value: object) -> Replies:
            script = pairs(name, value)
            for i, (matcher, _) in enumerate(script):
                check(matcher == "*", f"{name}[{i}][0]", matcher, '"*"')
            return tuple(reply for _, reply in script)

        def agents(name: str, value: object) -> Agents:
            entry = section(name, value, {"debaters", "critic", "judge"})
            debaters = entry.get("debaters", [])
            check(isinstance(debaters, list), f"{name}.debaters", debaters, "a JSON array")
            check(len(debaters) >= 2, f"{name}.debaters", len(debaters), "an array of at least two scripts")
            return (
                tuple(chat(f"{name}.debaters[{i}]", script) for i, script in enumerate(debaters)),
                chat(f"{name}.critic", entry.get("critic", [])),
                chat(f"{name}.judge", entry.get("judge", [])),
            )

        data = section("top level", data, {"embedder", "scorer", "sessions"})
        embedder = section("embedder", data.get("embedder", {}), {"dimension"})
        dimension = embedder.get("dimension", DEFAULT_DIMENSION)
        # JSON booleans load as bool, which `type(...) is int` turns away.
        at_least_8 = type(dimension) is int and dimension >= 8
        check(at_least_8, "embedder.dimension", dimension, "an integer of at least 8")
        scorer = section("scorer", data.get("scorer", {}), {"keys", "match_cost", "miss_cost", "scale"})
        keys = pairs("scorer.keys", scorer.get("keys", []))
        costs = {name: cost for name, cost in scorer.items() if name != "keys"}
        for name, cost in costs.items():
            finite = type(cost) in (int, float) and 0 <= cost < math.inf
            check(finite, f"scorer.{name}", cost, "a finite number of at least 0")
        sessions = section("sessions", data.get("sessions", {}), None)
        scripts = {sid: agents(f"sessions[{sid!r}]", entry) for sid, entry in sessions.items()}
        for sid in ids:
            if sid not in scripts:
                raise InvalidConfig(f"{path}: no scripts for input sentence {sid!r}")
        return cls(
            dimension=dimension,
            scorer_keys=keys,
            scorer_costs={name: float(cost) for name, cost in costs.items()},
            sessions=scripts,
        )

    def embedder(self) -> HashEmbedder:
        return HashEmbedder(self.dimension)

    def scorer(self) -> KeyedScorer:
        return KeyedScorer(keys=list(self.scorer_keys), **self.scorer_costs)

    def most_debaters(self) -> int:
        """The longest debater list among the bundle's sessions, and at
        least one."""
        return max((len(agents[0]) for agents in self.sessions.values()), default=1)

    def team_for(self, sentence_id: str) -> AgentTeam:
        """Fresh scripted backends for one session. `load` checked that
        every input sentence of the run has scripts, so any other id is a
        caller's bug and raises `KeyError`."""
        debaters, critic, judge = self.sessions[sentence_id]
        return AgentTeam(
            debaters=tuple(
                DebaterBinding(name=debater_name(i), backend=ScriptedChatBackend(replies))
                for i, replies in enumerate(debaters)
            ),
            critic=ScriptedChatBackend(critic),
            judge=ScriptedChatBackend(judge),
        )

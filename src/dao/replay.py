"""Scripted replay bundles: canned agent replies plus scorer keys.

A bundle makes a full extraction run hermetic: chat backends replay
per-session scripts, scoring uses the keyed deterministic scorer, and
embeddings come from the trigram hash embedder. Bundle JSON shape:

    {
      "embedder": {"dimension": 64},
      "scorer": {"keys": [["<matcher>", "<key phrase>"], ...],
                 "match_cost": ..., "miss_cost": ..., "scale": ...},
      "default": {"debaters": [[["*", "reply"], ...], ...],
                  "critic": [...], "judge": [...]},
      "sessions": {"<sentence id>": {...same shape as default...}}
    }

Scorer costs left out keep the `KeyedScorer` defaults. A script is an
array of (matcher, reply) string pairs as consumed by the scripted chat
backend; a missing critic or judge script is empty. A session uses its
own entry under `sessions`, falling back to `default`. `load` checks the
whole bundle before any work, so a run never meets a malformed script
midway; other keys of an agents entry are not read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .backends import HashEmbedder, KeyedScorer, scripted_chat
from .debate import AgentTeam, DebaterBinding, debater_name
from .errors import InvalidConfig, ScriptNoMatch

# The embedding dimension when a bundle, or a live config, leaves it out.
DEFAULT_DIMENSION = 64


# Ordered (matcher, reply) pairs: a chat script, or the scorer's keys.
Script = tuple[tuple[str, str], ...]
# A session's scripts: (debater scripts, critic script, judge script).
Agents = tuple[tuple[Script, ...], Script, Script]


@dataclass
class ReplayBundle:
    dimension: int
    scorer_keys: Script
    scorer_costs: dict[str, float]
    default_agents: Agents | None
    sessions: dict[str, Agents]

    @classmethod
    def load(cls, path: str | Path) -> "ReplayBundle":
        """The bundle in the JSON file at `path`. A file that is not UTF-8 JSON,
        a bundle, `embedder`, `scorer`, `default`, `sessions` or session
        entry that is not a JSON object, an embedding dimension that is not
        an integer of at least 8, `scorer.keys` or a script that is not an
        array of pairs of strings, a `debaters` that is not an array of at
        least two scripts, or a scorer cost that is not a finite number of
        at least 0 raises `InvalidConfig` naming the bundle and the field."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise InvalidConfig(f"{path}: not valid JSON: {exc}") from None

        def check(ok: bool, name: str, value: object, what: str) -> None:
            if not ok:
                raise InvalidConfig(f"{path}: {name} must be {what}, got {value!r}")

        def section(name: str, value: object) -> dict:
            check(isinstance(value, dict), name, value, "a JSON object")
            return value

        def pairs(name: str, value: object) -> Script:
            check(isinstance(value, list), name, value, "a JSON array")
            for i, pair in enumerate(value):
                ok = isinstance(pair, list) and len(pair) == 2 and all(isinstance(s, str) for s in pair)
                check(ok, f"{name}[{i}]", pair, "a pair of strings")
            return tuple(tuple(pair) for pair in value)

        def agents(name: str, value: object) -> Agents:
            entry = section(name, value)
            debaters = entry.get("debaters", [])
            check(isinstance(debaters, list), f"{name}.debaters", debaters, "a JSON array")
            check(len(debaters) >= 2, f"{name}.debaters", len(debaters), "an array of at least two scripts")
            return (
                tuple(pairs(f"{name}.debaters[{i}]", script) for i, script in enumerate(debaters)),
                pairs(f"{name}.critic", entry.get("critic", [])),
                pairs(f"{name}.judge", entry.get("judge", [])),
            )

        data = section("top level", data)
        embedder = section("embedder", data.get("embedder", {}))
        dimension = embedder.get("dimension", DEFAULT_DIMENSION)
        # JSON booleans load as bool, which `type(...) is int` turns away.
        at_least_8 = type(dimension) is int and dimension >= 8
        check(at_least_8, "embedder.dimension", dimension, "an integer of at least 8")
        scorer = section("scorer", data.get("scorer", {}))
        keys = pairs("scorer.keys", scorer.get("keys", []))
        costs = {name: scorer[name] for name in ("match_cost", "miss_cost", "scale") if name in scorer}
        for name, cost in costs.items():
            finite = type(cost) in (int, float) and 0 <= cost < math.inf
            check(finite, f"scorer.{name}", cost, "a finite number of at least 0")
        default = data.get("default")
        default_agents = None if default is None else agents("default", default)
        sessions = section("sessions", data.get("sessions", {}))
        return cls(
            dimension=dimension,
            scorer_keys=keys,
            scorer_costs={name: float(cost) for name, cost in costs.items()},
            default_agents=default_agents,
            sessions={sid: agents(f"sessions[{sid!r}]", entry) for sid, entry in sessions.items()},
        )

    def embedder(self) -> HashEmbedder:
        return HashEmbedder(self.dimension)

    def scorer(self) -> KeyedScorer:
        return KeyedScorer(keys=list(self.scorer_keys), **self.scorer_costs)

    def most_debaters(self) -> int:
        """The longest debater list among the bundle's scripts, and at
        least one."""
        scripts = [self.default_agents, *self.sessions.values()]
        return max((len(agents[0]) for agents in scripts if agents), default=1)

    def team_for(self, sentence_id: str) -> AgentTeam:
        """Fresh scripted backends for one session."""
        agents = self.sessions.get(sentence_id, self.default_agents)
        if agents is None:
            raise ScriptNoMatch(f"replay bundle has no scripts for sentence {sentence_id!r}")
        debaters, critic, judge = agents
        return AgentTeam(
            debaters=tuple(
                DebaterBinding(name=debater_name(i), backend=scripted_chat(script))
                for i, script in enumerate(debaters)
            ),
            critic=scripted_chat(critic),
            judge=scripted_chat(judge),
        )

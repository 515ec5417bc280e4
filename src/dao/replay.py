"""Scripted replay bundles: canned agent replies plus scorer keys.

A bundle makes a full extraction run hermetic: chat backends replay
per-session scripts, scoring uses the keyed deterministic scorer, and
embeddings come from the trigram hash embedder. Bundle JSON shape:

    {
      "embedder": {"dimension": 64},
      "scorer": {"keys": [["<matcher>", "<key phrase>"], ...],
                 "match_cost": ..., "miss_cost": ..., "scale": ...},
      "default": {"debaters": [[["*", "reply"], ...], ...],
                  "critic": [...], "judge": [...], "summarizer": [...]},
      "sessions": {"<sentence id>": {...same shape as default...}}
    }

Scorer costs left out keep the `KeyedScorer` defaults. Scripts are
ordered (matcher, reply) pairs as consumed by the scripted chat backend;
a session uses its own entry under `sessions`, falling back to
`default`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .backends import HashEmbedder, KeyedScorer, scripted_chat
from .debate import AgentTeam, DebaterBinding, debater_name
from .errors import FormatError, InvalidTeam, ScriptNoMatch

# The embedding dimension when a bundle, or a live config, leaves it out.
DEFAULT_DIMENSION = 64


def _as_script(raw: object) -> list[tuple[str, str]]:
    if not isinstance(raw, list) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in raw
    ):
        raise InvalidTeam("a script must be a list of [matcher, reply] pairs")
    return [(str(matcher), str(reply)) for matcher, reply in raw]


@dataclass
class ReplayBundle:
    dimension: int
    scorer_keys: list[tuple[str, str]]
    scorer_costs: dict[str, float]
    default_agents: dict | None
    sessions: dict[str, dict]

    @classmethod
    def load(cls, path: str | Path) -> "ReplayBundle":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(exc.lineno, f"replay bundle is not valid JSON: {exc}") from None
        scorer = data.get("scorer", {})
        return cls(
            dimension=int(data.get("embedder", {}).get("dimension", DEFAULT_DIMENSION)),
            scorer_keys=[(str(m), str(k)) for m, k in scorer.get("keys", [])],
            scorer_costs={
                name: float(scorer[name])
                for name in ("match_cost", "miss_cost", "scale")
                if name in scorer
            },
            default_agents=data.get("default"),
            sessions=dict(data.get("sessions", {})),
        )

    def embedder(self) -> HashEmbedder:
        return HashEmbedder(self.dimension)

    def scorer(self) -> KeyedScorer:
        return KeyedScorer(keys=list(self.scorer_keys), **self.scorer_costs)

    def most_debaters(self) -> int:
        """The longest debater list among the bundle's scripts, and at
        least one."""
        scripts = [self.default_agents, *self.sessions.values()]
        return max([1] + [len(agents.get("debaters", ())) for agents in scripts if agents])

    def team_for(self, sentence_id: str) -> AgentTeam:
        """Fresh scripted backends for one session."""
        agents = self.sessions.get(sentence_id, self.default_agents)
        if agents is None:
            raise ScriptNoMatch(f"replay bundle has no scripts for sentence {sentence_id!r}")
        debater_scripts = [_as_script(script) for script in agents.get("debaters", [])]
        if len(debater_scripts) < 2:
            raise InvalidTeam(f"replay scripts for {sentence_id!r} need at least two debaters")
        debaters = tuple(
            DebaterBinding(name=debater_name(i), backend=scripted_chat(script))
            for i, script in enumerate(debater_scripts)
        )
        summarizer_script = agents.get("summarizer")
        return AgentTeam(
            debaters=debaters,
            critic=scripted_chat(_as_script(agents.get("critic", []))),
            judge=scripted_chat(_as_script(agents.get("judge", []))),
            summarizer=scripted_chat(_as_script(summarizer_script))
            if summarizer_script is not None
            else None,
        )

"""Shared builders for scripted debate sessions and replay-mode runs."""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from dao.backends import KeyedScorer, scripted_chat
from dao.corpus import Sentence
from dao.debate import (
    AgentTeam,
    DebaterBinding,
    SessionConfig,
    canonical_argument_rows,
    serialize_argument_table,
)


def make_team(debater_scripts, critic_script, judge_script) -> AgentTeam:
    debaters = tuple(
        DebaterBinding(name="ABCDEFGH"[i], backend=scripted_chat(script))
        for i, script in enumerate(debater_scripts)
    )
    return AgentTeam(
        debaters=debaters,
        critic=scripted_chat(critic_script),
        judge=scripted_chat(judge_script),
    )


def oracle_quantile(risks, delta):
    """The conformal quantile by its definition: the ceil((n + 1)(1 - delta))-th
    smallest risk, in exact arithmetic, or infinity past the last."""
    ordered = sorted(risks)
    index = math.ceil((len(ordered) + 1) * (1 - Fraction(delta)))
    return math.inf if index > len(ordered) else ordered[index - 1]


def leader_clusters(vectors, radius):
    """The sequential leader scan, by its definition: each row in turn
    joins the first cluster whose leader (first member) lies within
    `radius` of it (1 - u.v <= radius), or else leads a new cluster.
    Clusters as lists of row positions."""
    clusters = []
    for i, vector in enumerate(vectors):
        for cluster in clusters:
            if 1.0 - float(np.dot(vector, vectors[cluster[0]])) <= radius:
                cluster.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def passthrough_scorer() -> KeyedScorer:
    """Scorer under which every desk-scale answer passes the default gates."""
    return KeyedScorer(keys=[], match_cost=0.005, miss_cost=0.005)


def rejecting_scorer() -> KeyedScorer:
    """Scorer with no keys at full miss cost: extraction answers fail the
    detection gate (>= 2 tokens -> risk >= 2 > 1)."""
    return KeyedScorer(keys=[])


class RecordingScorer:
    """Wraps a scorer and keeps every (prompt, completion, nll) it is
    asked for, in call order."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, str, float]] = []
        self._lock = threading.Lock()

    def negative_log_likelihood(self, prompt: str, completion: str) -> float:
        nll = self.inner.negative_log_likelihood(prompt, completion)
        with self._lock:
            self.calls.append((prompt, completion, nll))
        return nll


class InFlight:
    """Wraps a backend call and keeps the most calls ever in flight at
    once; each call is held `hold` seconds, so calls that may overlap do."""

    def __init__(self, call, hold: float = 0.002):
        self.call, self.hold = call, hold
        self.now = self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, *args):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        try:
            time.sleep(self.hold)
            return self.call(*args)
        finally:
            with self._lock:
                self.now -= 1


def ed_table(event_type: str, trigger: str) -> str:
    return (
        "| event type | event trigger |\n| --- | --- |\n"
        f"| {event_type} | {trigger} |"
    )


def eae_table(event_type: str, rows) -> str:
    return serialize_argument_table(event_type, rows)


# ---------------------------------------------------------------------------
# Randomized scripted scenarios for state-machine invariant checks

_FLOWS = (
    "immediate_agree",
    "agree_round2",
    "no_event",
    "cap_disagree",
    "all_rejected",
    "gated_then_pass",
)

_SUBJECTS = ("the committee", "a spokesman", "the minister", "local crews", "the board")
_OBJECTS = ("the harbor", "the contract", "the outpost", "the charter", "the festival")


@dataclass
class Scenario:
    name: str
    sentence: Sentence
    flow: str
    eae_flow: str
    debater_scripts: list[list[tuple[str, str]]]
    critic_script: list[tuple[str, str]]
    judge_script: list[tuple[str, str]]
    scorer_kind: str
    expects_event: bool

    def build_config(self, embedder) -> SessionConfig:
        if self.scorer_kind == "reject_all":
            scorer = rejecting_scorer()
        elif self.scorer_kind.startswith("keyed:"):
            key = self.scorer_kind.split(":", 1)[1]
            scorer = KeyedScorer(keys=[("*", key)])
        else:
            scorer = passthrough_scorer()
        return SessionConfig(
            team=make_team(self.debater_scripts, self.critic_script, self.judge_script),
            scorer=RecordingScorer(scorer),
            embedder=embedder,
        )


def build_replay_run(
    tmp_path: Path,
    n_sentences: int,
    fixtures_dir: Path,
    thresholds: dict | None = None,
    workers: int = 1,
) -> dict[str, Path]:
    """Write an input corpus, a matching replay bundle, and a run config.

    Every generated sentence resolves to an immediately-agreed meeting
    event, so runs are fast and outputs are predictable.
    """
    tmp_path.mkdir(parents=True, exist_ok=True)
    input_rows = []
    sessions = {}
    for i in range(n_sentences):
        sentence_id = f"gen-{i:03d}"
        text = f"Delegation {i} met the envoys at the summit hall {i} ."
        entity = f"Delegation {i}"
        input_rows.append(
            {
                "id": sentence_id,
                "text": text,
                "split": "test",
                "events": [
                    {
                        "type": "Contact:Meet",
                        "trigger": "met",
                        "arguments": [{"role": "Entity", "content": entity}],
                    }
                ],
            }
        )
        answer = '["Contact:Meet", "met"]'
        table = serialize_argument_table(
            "Contact:Meet", canonical_argument_rows(("Entity", "Place"), {"Entity": entity})
        )
        sessions[sentence_id] = {
            "debaters": [
                [
                    ["*", f"A: {answer}"],
                    ["*", f"A: I defend {answer} ."],
                    ["*", f"A: {table}"],
                    ["*", f"A: keeping my table .\n{table}"],
                ],
                [
                    ["*", f"B: {answer}"],
                    ["*", f"B: I agree with {answer} ."],
                    ["*", f"B: {table}"],
                    ["*", f"B: keeping my table .\n{table}"],
                ],
            ],
            "critic": [["*", "The answers align with the definitions ."]] * 4,
            "judge": [
                ["*", ed_table("Contact:Meet", "met")],
                ["*", table],
            ],
        }
    input_path = tmp_path / "input.jsonl"
    input_path.write_text(
        "".join(json.dumps(row) + "\n" for row in input_rows), encoding="utf-8"
    )
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(
        json.dumps(
            {
                "embedder": {"dimension": 64},
                "scorer": {"keys": [], "match_cost": 0.005, "miss_cost": 0.005},
                "sessions": sessions,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    config_path = tmp_path / "config.json"
    config = {
        "workers": workers,
        "ontology": str(fixtures_dir / "ontology_ace.jsonl"),
        "reference_corpus": str(fixtures_dir / "corpus_small.jsonl"),
        "reference_split": "train",
        "adacp": {
            "delta": 0.1,
            "beta": 0.5,
            "initial_threshold": thresholds if thresholds is not None else {"ed": 1.0, "eae": 3.0},
        },
        "backends": {"replay_bundle": str(bundle_path)},
    }
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"input": input_path, "bundle": bundle_path, "config": config_path}


def build_scenario(seed: int, ontology) -> Scenario:
    rng = np.random.default_rng(seed)
    flow = _FLOWS[seed % len(_FLOWS)]
    eae_flow = "agree_round1" if seed % 2 == 0 else "disagree_cap"
    subject = _SUBJECTS[int(rng.integers(len(_SUBJECTS)))]
    obj = _OBJECTS[int(rng.integers(len(_OBJECTS)))]
    trigger = ("attacked", "met", "resigned", "fined")[int(rng.integers(4))]
    event_type = {
        "attacked": "Conflict:Attack",
        "met": "Contact:Meet",
        "resigned": "Personnel:End-Position",
        "fined": "Justice:Fine",
    }[trigger]
    text = f"Report {seed} says {subject} {trigger} {obj} on Monday ."
    sentence = Sentence.from_text(f"scenario-{seed}", text)
    good = f'["{event_type}", "{trigger}"]'
    other = '["Life:Die", "fell"]'
    roles = ontology[event_type].roles
    filled = {roles[0]: subject}
    agreed_rows = canonical_argument_rows(roles, filled)
    eae_answer_table = serialize_argument_table(event_type, agreed_rows)

    def debater(name: str, ed_replies: list[str], eae_replies: list[str]):
        replies = ed_replies + eae_replies
        return [("*", f"{name}: {reply}") for reply in replies]

    eae_opinions = [eae_answer_table, f"I keep my table .\n{eae_answer_table}",
                    f"Still my table .\n{eae_answer_table}", f"Final table .\n{eae_answer_table}"]

    if flow == "immediate_agree":
        a_ed = [good, f"I defend {good} ."]
        b_ed = [good, f"I agree with {good} ."]
        ed_judge = [ed_table(event_type, trigger)]
        scorer_kind, expects_event = "pass", True
    elif flow == "agree_round2":
        a_ed = [other, f"I defend {other} .", f"I now update to {good} ."]
        b_ed = [good, f"I keep {good} .", f"I keep {good} ."]
        ed_judge = ["No agreement, debate continues", ed_table(event_type, trigger)]
        scorer_kind, expects_event = "pass", True
    elif flow == "no_event":
        a_ed = ["[]", "There is no event , [] .", "No event here , [] ."]
        b_ed = ["[]", "Nothing to extract , [] .", "Still nothing , [] ."]
        ed_judge = ["No event"]
        scorer_kind, expects_event = "pass", False
    elif flow == "cap_disagree":
        a_ed = [good, f"I keep {good} .", f"I keep {good} .", f"I keep {good} ."]
        b_ed = [other, f"I keep {other} .", f"I keep {other} .", f"I keep {other} ."]
        ed_judge = ["No agreement, debate continues"] * 3
        scorer_kind, expects_event = "pass", True
    elif flow == "all_rejected":
        a_ed = [good] + [f"I insist on {good} ."] * 3
        b_ed = [other] + [f"I insist on {other} ."] * 3
        ed_judge = []
        scorer_kind, expects_event = "reject_all", False
    else:  # gated_then_pass
        a_ed = [other, f"I revise my answer to {good} ."]
        b_ed = [good, f"I stand by {good} ."]
        ed_judge = [ed_table(event_type, trigger)]
        scorer_kind, expects_event = f"keyed:{good}", True

    eae_judge: list[str] = []
    if expects_event:
        if eae_flow == "agree_round1":
            eae_judge = [eae_answer_table]
        else:
            eae_judge = ["Disagreement observed, debate continues"] * 3
    n_eae = 4 if expects_event else 0
    scripts = [
        debater("A", a_ed, eae_opinions[:n_eae]),
        debater("B", b_ed, eae_opinions[:n_eae]),
    ]
    critic = [("*", "The answers are assessed against the definitions .")] * 8
    judge = [("*", reply) for reply in ed_judge + eae_judge]
    return Scenario(
        name=f"{flow}/{eae_flow}",
        sentence=sentence,
        flow=flow,
        eae_flow=eae_flow,
        debater_scripts=scripts,
        critic_script=critic,
        judge_script=judge,
        scorer_kind=scorer_kind,
        expects_event=expects_event,
    )

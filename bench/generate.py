"""Seeded workload generator: reference corpus, inputs, replay bundle, and
the designed outcome of every input sentence.

Sentences are templated from the event ontology (types, typical triggers
and role lists) and a small fixed vocabulary. Every input sentence gets a
debate shape, and its replay script plus scorer keys are written so that
the engine reaches exactly the shape's designed outcome. The same seed
always yields byte-identical files.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONTOLOGY = ROOT / "tests" / "fixtures" / "ontology_ace.jsonl"

# Debate shapes and their exact share of the inputs; the input count must
# be a multiple of 20 so every share is a whole number of sentences.
#
# How many events a sentence holds follows the fixture corpus
# (tests/fixtures/corpus_small.jsonl: 16 of 40 sentences without events,
# 23 with one, 1 with two): 0.4 without (no_event + fail_closed), 0.55
# with one, 0.05 with two (the fixture's 1 in 40, rounded up to one
# sentence per 20 so the path runs). How the debate reaches that outcome
# is measured nowhere in the repo, so that split is a coverage mix, not
# traffic: each path off the plain round-1 agreement (revised,
# fail_closed, adjudicated, identical) gets 0.1, two sentences per 20,
# and round-1 agreement keeps the rest.
SHAPES = (
    ("no_event", 0.3),  # no event, agreed in round 1
    ("one_event", 0.25),  # one event agreed in round 1, then one EAE round
    ("revised", 0.1),  # a debater revises after a "No agreement" round
    ("fail_closed", 0.1),  # gate rejects every answer until the round cap
    ("adjudicated", 0.1),  # round cap; the lowest-risk gated answer is adopted
    ("two_events", 0.05),  # two agreed events chain two EAE debates
    ("identical", 0.1),  # debaters reply identically; identical scorer requests
)
SHAPES_WITH_EVENTS = {"one_event", "revised", "adjudicated", "two_events", "identical"}

# The scorer's per-token costs. A matched detection answer (2 tokens)
# scores 0.02, under every round's threshold (1, 0.5, 0.25); one wrong
# token scores above 1 and is rejected. Argument tables score 0.01 per
# matched token, so a table with one wrong cell still passes round 1's
# threshold of 3.
MATCH_COST = 0.01
MISS_COST = 1.0

GROUPS = (
    "the committee", "a spokesman", "the minister", "local crews", "the board",
    "the rebels", "the police", "the company", "the court", "the general",
    "the union", "the mayor", "two soldiers", "the bank", "the ministry",
    "a reporter", "the senator", "the army", "the prosecutors", "the farmers",
    "the delegation", "a local firm", "the governor", "the envoys", "three suspects",
    "the coalition", "the airline", "the regulators", "the villagers", "the cabinet",
)
NAMES = (
    "Baghdad", "Paris", "Cairo", "Lagos", "Kyiv", "Manila", "Lima", "Oslo",
    "Quito", "Dhaka", "Hanoi", "Accra", "Riga", "Sofia", "Tunis", "Boston",
    "Denver", "Madrid", "Nairobi", "Seoul", "Ankara", "Havana", "Tbilisi", "Minsk",
)
LINKS = ("with", "near", "for", "against", "from", "beside")
TAILS = (
    "on Monday", "last week", "before dawn", "after the vote", "during the summit",
    "late on Friday", "in early spring", "after months of talks", "this morning",
    "on Sunday night", "in the afternoon", "after the storm",
)
QUIET_VERBS = ("visited", "described", "praised", "studied", "toured", "mentioned")


def load_ontology_rows(path: Path = ONTOLOGY) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def shape_counts(n_inputs: int) -> dict[str, int]:
    if n_inputs <= 0 or n_inputs % 20:
        raise ValueError(f"input count must be a positive multiple of 20, got {n_inputs}")
    return {shape: round(share * n_inputs) for shape, share in SHAPES}


def _answer(event_type: str, trigger: str) -> str:
    return f'["{event_type}", "{trigger}"]'


def _table(event_type: str, rows: list[tuple[str, str | None]]) -> str:
    lines = ["| event type | argument role | argument content |", "| --- | --- | --- |"]
    for role, content in rows:
        lines.append(f"| {event_type} | {role} | {content if content is not None else 'None'} |")
    return "\n".join(lines)


def _ed_table(events: list[dict]) -> str:
    rows = "\n".join(f"| {e['type']} | {e['trigger']} |" for e in events)
    return "| event type | event trigger |\n| --- | --- |\n" + rows


class _Templater:
    """Builds event and no-event sentences from the ontology."""

    def __init__(self, rng: random.Random, ontology: list[dict]):
        self.rng = rng
        self.ontology = ontology

    def event(self) -> tuple[list[str], dict]:
        """Tokens of one event clause plus its annotation. All filled roles
        but the last hold a group phrase; the last holds a one-token name."""
        rng = self.rng
        row = rng.choice(self.ontology)
        trigger = rng.choice(row["typical_triggers"])
        roles = row["roles"][: rng.randint(1, min(3, len(row["roles"])))]
        groups = rng.sample(GROUPS, len(roles) - 1)
        contents = groups + [rng.choice(NAMES)]
        tokens = [contents[0], trigger]
        for content in contents[1:]:
            tokens += [rng.choice(LINKS), content]
        event = {
            "type": row["type"],
            "trigger": trigger,
            "arguments": [{"role": r, "content": c} for r, c in zip(roles, contents)],
        }
        return tokens, event

    def quiet(self, word: str | None = None) -> list[str]:
        """Tokens of a clause that mentions no event (optionally carrying a
        trigger-like word the debaters will latch onto)."""
        rng = self.rng
        obj = f"the {word} report" if word else rng.choice(GROUPS)
        return [rng.choice(GROUPS), rng.choice(QUIET_VERBS), obj, "in", rng.choice(NAMES)]

    def tail(self) -> list[str]:
        return [self.rng.choice(TAILS), "."]


def _rows(event: dict, roles: list[str]) -> list[tuple[str, str | None]]:
    filled = {a["role"]: a["content"] for a in event["arguments"]}
    return [(role, filled.get(role)) for role in roles]


def _keep(name: str | None, answer: str) -> str:
    return f"{name}: I keep {answer} ." if name else f"I keep {answer} ."


def _script(replies: list[str]) -> list[list[str]]:
    return [["*", reply] for reply in replies]


def _eae_turns(name: str, event: dict, roles: list[str], drop_last: bool = False) -> list[str]:
    """A debater's opinion and cross-examination replies in one EAE debate.
    With `drop_last`, the last filled role is left empty (one wrong cell)."""
    rows = _rows(event, roles)
    if drop_last:
        last = max(i for i, (_, content) in enumerate(rows) if content is not None)
        rows[last] = (rows[last][0], None)
    table = _table(event["type"], rows)
    prefix = f"{name}: " if name else ""
    return [f"{prefix}Here is the argument table .\n{table}", f"{prefix}I keep my table .\n{table}"]


def _session(shape: str, text: str, events: list[dict], roles_of: dict, rng: random.Random,
             ontology: list[dict]) -> tuple[dict, list[list[str]]]:
    """Replay scripts and scorer keys for one input sentence."""
    ed_key = f'Consider the sentence: "{text}"'
    keys: list[list[str]] = []
    critic_ed = "The answers are consistent with the definitions and the examples ."
    critic_eae = "The argument rows look consistent with the sentence ."
    disagree = "No agreement, debate continues"

    def eae_keys() -> None:
        for e in events:
            matcher = (
                f"Give a sentence: **{text}**, it contains an event mention. "
                f"The event type is **{e['type']}**"
            )
            keys.append([matcher, _table(e["type"], _rows(e, roles_of[e["type"]]))])

    def eae_parts(drop_b: bool = False) -> tuple[list[str], list[str], list[str], list[str]]:
        a, b, critic, judge = [], [], [], []
        for e in events:
            roles = roles_of[e["type"]]
            a += _eae_turns("A", e, roles)
            b += _eae_turns("B", e, roles, drop_last=drop_b)
            critic.append(critic_eae)
            judge.append(_table(e["type"], _rows(e, roles)))
        return a, b, critic, judge

    if shape == "no_event":
        debaters = [[f"{n}: []", f"{n}: I find no event mention here , so []"] for n in "AB"]
        return {
            "debaters": [_script(d) for d in debaters],
            "critic": _script(["Neither debater identifies an event mention ."]),
            "judge": _script(["No event"]),
        }, keys

    if shape == "fail_closed":
        # The debaters name an event the scorer has no key for, so every
        # answer is rejected in every round and the session fails closed.
        answer = _answer(events[0]["type"], events[0]["trigger"])
        debaters = [
            [f"{n}: {answer}"] + [_keep(n, answer)] * 3
            for n in "AB"
        ]
        return {
            "debaters": [_script(d) for d in debaters],
            "critic": _script(["The definition does not fit this sentence ."] * 3),
            "judge": [],
        }, keys

    first = events[0]
    answer = _answer(first["type"], first["trigger"])
    keys.append([ed_key, answer])
    eae_keys()

    if shape == "identical":
        _, _, critic, judge = eae_parts()
        same = [answer, _keep(None, answer)]
        for e in events:
            same += _eae_turns("", e, roles_of[e["type"]])
        return {
            "debaters": [_script(same), _script(same)],
            "critic": _script([critic_ed] + critic),
            "judge": _script([_ed_table(events)] + judge),
        }, keys

    if shape in ("one_event", "two_events"):
        a_eae, b_eae, critic, judge = eae_parts(drop_b=shape == "one_event")
        a = [f"A: {answer}", _keep("A", answer)] + a_eae
        b = [f"B: {answer}", _keep("B", answer)] + b_eae
        return {
            "debaters": [_script(a), _script(b)],
            "critic": _script([critic_ed] + critic),
            "judge": _script([_ed_table(events)] + judge),
        }, keys

    if shape == "revised":
        # A opens with the wrong type, is gated out twice, and updates in
        # round 2 once the packet has been seen.
        wrong_type = rng.choice([r["type"] for r in ontology if r["type"] != first["type"]])
        wrong = _answer(wrong_type, first["trigger"])
        a_eae, b_eae, critic, judge = eae_parts()
        a = [f"A: {wrong}", f"A: I stand by {wrong} for now .",
             f"A: The retrieved examples point elsewhere , I update to {answer} ."] + a_eae
        b = [f"B: {answer}", _keep("B", answer), _keep("B", answer)] + b_eae
        return {
            "debaters": [_script(a), _script(b)],
            "critic": _script(["The first answer conflicts with the definition .", critic_ed] + critic),
            "judge": _script([disagree, _ed_table(events)] + judge),
        }, keys

    if shape == "adjudicated":
        # A holds a gated-in answer, B holds "no event", the judge never
        # agrees; at the round cap A's answer is adopted.
        a_eae, b_eae, critic, judge = eae_parts()
        a = [f"A: {answer}"] + [_keep("A", answer)] * 3 + a_eae
        b = ["B: []"] + ["B: I still see no event , so []"] * 3 + b_eae
        return {
            "debaters": [_script(a), _script(b)],
            "critic": _script(["The debaters disagree on whether an event occurs ."] * 3 + critic),
            "judge": _script([disagree] * 3 + judge),
        }, keys

    raise ValueError(f"unknown shape {shape!r}")


def _input_sentence(shape: str, t: _Templater) -> tuple[str, list[dict]]:
    """(text, the events the debaters discuss) for one shape."""
    if shape == "no_event":
        return " ".join(t.quiet() + t.tail()), []
    if shape == "fail_closed":
        # The text mentions a trigger word but no event; the debaters' answer
        # is this (wrong) event, so gold and outcome are empty.
        row = t.rng.choice(t.ontology)
        trigger = t.rng.choice(row["typical_triggers"])
        text = " ".join(t.quiet(trigger) + t.tail())
        return text, [{"type": row["type"], "trigger": trigger, "arguments": []}]
    if shape == "two_events":
        tokens1, e1 = t.event()
        tokens2, e2 = t.event()
        while e2["type"] == e1["type"]:
            tokens2, e2 = t.event()
        return " ".join(tokens1 + ["and"] + tokens2 + t.tail()), [e1, e2]
    tokens, event = t.event()
    return " ".join(tokens + t.tail()), [event]


def generate(out_dir: Path, *, seed: int, n_reference: int, n_inputs: int, dimension: int,
             workers: int, ontology_path: Path = ONTOLOGY) -> dict:
    """Write one workload's files into `out_dir` and return its mix: each
    shape's share and the share of sentences with events."""
    counts = shape_counts(n_inputs)
    rng = random.Random(seed)
    ontology = load_ontology_rows(ontology_path)
    roles_of = {row["type"]: row["roles"] for row in ontology}
    t = _Templater(rng, ontology)
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(ontology_path, out_dir / "ontology.jsonl")

    with open(out_dir / "reference.jsonl", "w", encoding="utf-8") as fh:
        for i in range(n_reference):
            if rng.random() < 0.6:  # the fixture corpus's event share
                tokens, event = t.event()
                text, events = " ".join(tokens + t.tail()), [event]
            else:
                text, events = " ".join(t.quiet() + t.tail()), []
            row = {"id": f"ref-{i:06d}", "text": text, "split": "train", "events": events}
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    shapes = [shape for shape, _ in SHAPES for _ in range(counts[shape])]
    rng.shuffle(shapes)
    seen: set[str] = set()
    inputs, expected, sessions, keys = [], [], {}, []
    for i, shape in enumerate(shapes):
        while True:
            text, events = _input_sentence(shape, t)
            if text not in seen:
                seen.add(text)
                break
        sentence_id = f"in-{i:04d}"
        session, session_keys = _session(shape, text, events, roles_of, rng, ontology)
        sessions[sentence_id] = session
        keys += session_keys
        outcome = events if shape in SHAPES_WITH_EVENTS else []
        inputs.append({"id": sentence_id, "text": text, "split": "test", "events": outcome})
        expected.append({
            "id": sentence_id,
            "shape": shape,
            "text": text,
            "events": [
                {
                    "type": e["type"],
                    "trigger": e["trigger"],
                    "arguments": [
                        {"role": role, "content": content}
                        for role, content in _rows(e, roles_of[e["type"]])
                        if content is not None
                    ],
                }
                for e in outcome
            ],
        })

    def write_jsonl(name: str, rows: list[dict]) -> None:
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    write_jsonl("inputs.jsonl", inputs)
    write_jsonl("expected.jsonl", expected)
    bundle = {
        "embedder": {"dimension": dimension},
        "scorer": {"keys": keys, "match_cost": MATCH_COST, "miss_cost": MISS_COST, "scale": 1.0},
        "sessions": sessions,
    }
    (out_dir / "bundle.json").write_text(json.dumps(bundle, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    config = {
        "ontology": "ontology.jsonl",
        "reference_corpus": "reference.jsonl",
        "workers": workers,
        "backends": {"replay_bundle": "bundle.json"},
    }
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return {
        "shape_share": {shape: counts[shape] / n_inputs for shape, _ in SHAPES},
        "event_share": sum(counts[s] for s in SHAPES_WITH_EVENTS) / n_inputs,
    }

"""The debate state machine.

A session runs a trigger-detection debate first and, on agreement,
chains one argument-extraction debate per agreed (type, trigger). Each
round renders opinions, broadcasts a retrieval packet to debaters and
critic (never the judge), gates answers through the conformal threshold,
runs cross-examination, and asks the judge for a verdict; the retrieval
radius and the acceptance threshold tighten from round to round. Both
debates run the same round code; what differs between them (prompt,
answer format, gate exemptions, agreed answers) belongs to their task
object, `Detection` or `ArgumentExtraction`, which also builds
calibration's (prompt, gold answer) pairs. A debate's outcome is its
agreed answers: `()` when the judge finds no event or, at the round cap,
no answer passes the gate.

Within a stage the debaters' calls, and the scoring of distinct answers,
run at once: the session's own thread makes the first call and the run's
call pool the others. The critic's call runs with the debaters'
cross-examination calls and sees the same answers, and the judge waits
for both. The sentence's one top-K scan is submitted to the call pool
once the query is embedded, so it runs while the first opinions are out,
and the first retrieval awaits it. Transcript entries are written in
debater order, the critic's last, once a stage's calls are back, so a
transcript does not depend on which call finished first.
"""

from __future__ import annotations

import hashlib
import logging
import re
from concurrent.futures import Executor, Future, wait
from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Callable, ClassVar, Mapping, Sequence, TypeVar

import numpy as np

from . import drag
from .adacp import AdaCPConfig, accept, decay_threshold, risk_score
from .backends import ChatBackend, ChatMessage, EmbeddingBackend, ScoringBackend
from .corpus import EmbeddedIndex, EventMention, ReferenceEntry, Sentence, l2_normalize
from .drag import Candidate, DragConfig, RetrievalResult, decay_radius, gather_event_info
from .errors import BackendError, HeaderMismatch, InvalidTeam, NoTableFound, ParseFailure
from .ontology import EventOntology
from .prompts import render_prompt

logger = logging.getLogger(__name__)

ED_JUDGE_HEADER = ("event type", "event trigger")
EAE_HEADER = ("event type", "argument role", "argument content")
# Debate rounds before the engine adjudicates, when a config leaves it out.
DEFAULT_MAX_ROUNDS = 3

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Structured answers


@dataclass(frozen=True)
class TriggerAnswer:
    """A detection answer: (type, trigger), or (None, None) for no event."""

    event_type: str | None = None
    trigger: str | None = None

    def __post_init__(self):
        if (self.event_type is None) != (self.trigger is None):
            raise ValueError("event_type and trigger must both be set or both be None")

    @property
    def is_no_event(self) -> bool:
        return self.event_type is None


@dataclass(frozen=True)
class ArgumentAnswer:
    """An argument-extraction answer: one (role, content) row per role."""

    event_type: str
    rows: tuple[tuple[str, str | None], ...] = ()

    @property
    def is_empty(self) -> bool:
        return all(content is None for _, content in self.rows)


def serialize_trigger_answer(answer: TriggerAnswer | None) -> str:
    if answer is None or answer.is_no_event:
        return "[]"
    return f'["{answer.event_type}", "{answer.trigger}"]'


def serialize_argument_table(event_type: str, rows: Sequence[tuple[str, str | None]]) -> str:
    lines = ["| event type | argument role | argument content |", "| --- | --- | --- |"]
    for role, content in rows:
        lines.append(f"| {event_type} | {role} | {content if content is not None else 'None'} |")
    return "\n".join(lines)


def canonical_argument_rows(
    roles: Sequence[str], filled: Mapping[str, str | None]
) -> tuple[tuple[str, str | None], ...]:
    """All roles in ontology order, None where nothing was extracted."""
    return tuple((role, filled.get(role)) for role in roles)


# ---------------------------------------------------------------------------
# Parsing agent output

_ANSWER_PAIR = re.compile(r'\[\s*"([^"\[\]]+)"\s*,\s*"([^"\[\]]+)"\s*\]')
_ANSWER_EMPTY = re.compile(r"\[\s*\]")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def parse_debater_ed(text: str) -> TriggerAnswer:
    """Parse a detection answer out of free-form debater text.

    The last well-formed two-element quoted list wins; a later bare `[]`
    means no event. Role prefixes and surrounding prose are tolerated.
    """
    best_pos = -1
    best: TriggerAnswer | None = None
    for match in _ANSWER_PAIR.finditer(text):
        best_pos, best = match.start(), TriggerAnswer(
            match.group(1).strip(), match.group(2).strip()
        )
    for match in _ANSWER_EMPTY.finditer(text):
        if match.start() > best_pos:
            best_pos, best = match.start(), TriggerAnswer()
    if best is None:
        raise ParseFailure(f"no answer pattern in reply sha256:{_digest(text)}")
    return best


def _strip_emphasis(cell: str) -> str:
    return cell.strip().strip("*`").strip()


_SEPARATOR_CELL = re.compile(r":?-+:?")


def _find_pipe_tables(text: str) -> list[list[list[str]]]:
    """Consecutive pipe-delimited lines, split into cell lists."""
    tables: list[list[list[str]]] = []
    current: list[list[str]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.count("|") >= 2:
            inner = stripped.strip("|")
            current.append([_strip_emphasis(cell) for cell in inner.split("|")])
        elif current:
            tables.append(current)
            current = []
    if current:
        tables.append(current)
    return tables


def parse_table(text: str, expected_header: Sequence[str]) -> list[tuple[str | None, ...]]:
    """Body rows of the first pipe table whose header matches.

    Header comparison is case-insensitive on trimmed cells. Separator
    rows are skipped, rows of the wrong width are dropped with a warning,
    and a cell spelled "None" becomes None.
    """
    tables = _find_pipe_tables(text)
    if not tables:
        raise NoTableFound(f"no pipe-delimited table in reply sha256:{_digest(text)}")
    wanted = [header.strip().lower() for header in expected_header]
    for table in tables:
        header = [cell.lower() for cell in table[0]]
        if header != wanted:
            continue
        rows: list[tuple[str | None, ...]] = []
        for cells in table[1:]:
            if all(_SEPARATOR_CELL.fullmatch(cell) for cell in cells if cell) and any(
                "-" in cell for cell in cells
            ):
                continue
            if len(cells) != len(wanted):
                logger.warning("dropping table row with %d cells, expected %d", len(cells), len(wanted))
                continue
            rows.append(tuple(None if cell.lower() == "none" else cell for cell in cells))
        return rows
    raise HeaderMismatch(f"no table with header {list(expected_header)!r}")


def parse_judge(text: str, task: Task) -> tuple[Answer, ...] | None:
    """The answers the judge's reply agrees on, `()` for no event, or None
    for another round; sentinels take precedence over tables.

    Unparseable replies degrade to another round with a warning rather
    than aborting the session.
    """
    lowered = text.lower()
    if "no agreement" in lowered or "disagreement observed" in lowered:
        return None
    if "no event" in lowered:
        return ()
    try:
        return task.agreement(parse_table(text, task.judge_header))
    except ParseFailure as exc:
        logger.warning("judge reply unparseable (%s); debate continues", exc)
        return None


# ---------------------------------------------------------------------------
# Debate tasks: what differs between detection and argument extraction

Answer = TriggerAnswer | ArgumentAnswer


@dataclass(frozen=True)
class Detection:
    """The trigger-detection debate."""

    task: ClassVar[str] = "ed"
    event_type: ClassVar[None] = None
    judge_header: ClassVar[tuple[str, ...]] = ED_JUDGE_HEADER

    def prompt(self, sentence: Sentence, ontology: EventOntology, role_label: str = "Debater") -> str:
        """The task prompt; also the scoring context of its answers, so
        calibration and in-debate risks share one anchor."""
        type_list = "Event type list: " + ", ".join(ontology.type_ids()) + "."
        rendered = render_prompt("debater_ed", {"SENT": sentence.text, "ROLE": role_label})
        return f"{type_list}\n\n{rendered}"

    def reminder(self, name: str) -> str:
        return (
            f'State your final answer in the format **{name}: ["event type", '
            f'"trigger token"]**, or **{name}: []**.'
        )

    def parse(self, text: str) -> TriggerAnswer:
        return parse_debater_ed(text)

    def serialize(self, answer: TriggerAnswer | None) -> str:
        return serialize_trigger_answer(answer)

    def exempt(self, answer: TriggerAnswer | None) -> bool:
        """Abstentions and no-event answers bypass the gate."""
        return answer is None or answer.is_no_event

    def agreement(self, rows: Sequence[tuple[str | None, ...]]) -> tuple[TriggerAnswer, ...]:
        """The distinct agreed (type, trigger) rows; rows with an empty
        cell are skipped, and a table with none left is a ParseFailure."""
        answers: list[TriggerAnswer] = []
        for event_type, trigger in dict.fromkeys(rows):
            if event_type is None or trigger is None:
                logger.warning("judge table row with empty cell skipped")
                continue
            answers.append(TriggerAnswer(event_type, trigger))
        if not answers:
            raise ParseFailure("judge agreement table had no usable rows")
        return tuple(answers)

    def example(self, entry: ReferenceEntry) -> str:
        answers = (
            serialize_trigger_answer(TriggerAnswer(e.event_type, e.trigger))
            for e in entry.events
        )
        return "; ".join(answers) or "[]"


@dataclass(frozen=True)
class ArgumentExtraction:
    """The argument-extraction debate for one agreed (type, trigger)."""

    task: ClassVar[str] = "eae"
    judge_header: ClassVar[tuple[str, ...]] = EAE_HEADER
    event_type: str
    trigger: str
    roles: tuple[str, ...]

    def prompt(self, sentence: Sentence, ontology: EventOntology, role_label: str = "Debater") -> str:
        """The task prompt; also the scoring context of its answers."""
        return render_prompt(
            "debater_eae",
            {
                "SENT": sentence.text,
                "event type": self.event_type,
                "trigger": self.trigger,
                "role list": ", ".join(self.roles),
            },
        )

    def reminder(self, name: str) -> str:
        return (
            "State your final answer as a table. The header of the table is "
            "| event type | argument role | argument content |."
        )

    def parse(self, text: str) -> ArgumentAnswer:
        rows = parse_table(text, EAE_HEADER)
        return ArgumentAnswer(self.event_type, self._clean([row[1:] for row in rows]))

    def serialize(self, answer: ArgumentAnswer | None) -> str:
        filled = dict(answer.rows) if answer is not None else {}
        return serialize_argument_table(self.event_type, canonical_argument_rows(self.roles, filled))

    def exempt(self, answer: ArgumentAnswer | None) -> bool:
        """Abstentions and empty tables bypass the gate."""
        return answer is None or answer.is_empty

    def agreement(self, rows: Sequence[tuple[str | None, ...]]) -> tuple[ArgumentAnswer]:
        return (ArgumentAnswer(self.event_type, self._clean([row[1:] for row in rows])),)

    def example(self, entry: ReferenceEntry) -> str:
        for event in entry.events:
            if event.event_type == self.event_type:
                filled = dict(event.arguments)
                return "\n" + serialize_argument_table(event.event_type, tuple(filled.items()))
        return "[]"

    def _clean(
        self, rows: Sequence[tuple[str | None, str | None]]
    ) -> tuple[tuple[str, str | None], ...]:
        """Keep the first row per known role, in ontology order; unknown
        roles are dropped."""
        known = set(self.roles)
        seen: dict[str, str | None] = {}
        for role, content in rows:
            if role in known:
                seen.setdefault(role, content)
            elif role is not None:
                logger.warning("dropping row for unknown argument role %r", role)
        return tuple((role, seen[role]) for role in self.roles if role in seen)


Task = Detection | ArgumentExtraction


def calibration_pairs(
    task: str, entries: Sequence[ReferenceEntry], ontology: EventOntology
) -> list[tuple[str, str]]:
    """(prompt, gold answer) pairs for one task ("ed" or "eae") over
    annotated entries, in the text the in-debate gate scores."""
    pairs: list[tuple[str, str]] = []
    detection = Detection()
    for entry in entries:
        sentence, events = entry.sentence, entry.events
        if task == "ed":
            prompt = detection.prompt(sentence, ontology)
            golds = [TriggerAnswer(e.event_type, e.trigger) for e in events] or [TriggerAnswer()]
            pairs.extend((prompt, detection.serialize(gold)) for gold in golds)
            continue
        for event in events:
            if event.event_type not in ontology:
                skipped = "%s: type %r not in ontology; skipped for calibration"
                logger.warning(skipped, sentence.id, event.event_type)
                continue
            roles = ontology.lookup(event.event_type).roles
            extraction = ArgumentExtraction(event.event_type, event.trigger, roles)
            gold = ArgumentAnswer(event.event_type, event.arguments)
            pairs.append((extraction.prompt(sentence, ontology), extraction.serialize(gold)))
    return pairs


# ---------------------------------------------------------------------------
# Session wiring


@dataclass
class DebaterBinding:
    name: str
    backend: ChatBackend
    temperature: float = 0.0


def debater_name(index: int) -> str:
    """The name of the debater at `index` when none is given: A to Z, then
    the index itself, so names are distinct for any team size."""
    return chr(ord("A") + index) if index < 26 else str(index)


@dataclass
class AgentTeam:
    """A session's chat agents. `summarizer` takes only None, stores nothing
    and reads None: the frozen benchmark harness (`bench/twin.py`) still
    passes it, and the benchmark change that drops that binding deletes it."""

    debaters: tuple[DebaterBinding, ...]
    critic: ChatBackend
    judge: ChatBackend
    summarizer: InitVar[None] = None

    def __post_init__(self, summarizer: None):
        if summarizer is not None:
            raise InvalidTeam("the LLM summarizer was removed")
        if len(self.debaters) < 2:
            raise InvalidTeam("a debate needs at least two debaters")
        names: set[str] = set()
        for binding in self.debaters:
            if binding.name in names:
                raise InvalidTeam(f"two debaters are named {binding.name!r}")
            names.add(binding.name)


@dataclass
class SessionConfig:
    team: AgentTeam
    scorer: ScoringBackend
    embedder: EmbeddingBackend
    drag: DragConfig = field(default_factory=DragConfig)
    adacp: AdaCPConfig = field(default_factory=AdaCPConfig)
    max_rounds: int = DEFAULT_MAX_ROUNDS


@dataclass(frozen=True)
class TranscriptEntry:
    round_index: int
    stage: str
    role: str
    prompt: str
    text: str


@dataclass(frozen=True)
class RiskRecord:
    task: str
    round_index: int
    debater: str
    answer_text: str
    risk: float
    accepted: bool


@dataclass
class DebateState:
    """Mutable per-debate state; one instance per task per session.

    Answers are scored in `risk_base` (the task prompt) plus
    `packet_text` (the round's retrieval packet) against `threshold`, the
    one in force; it decays when a later round starts, so round-cap
    adjudication applies the last round's threshold.
    """

    ctx: Task
    risk_base: str
    radius: float
    threshold: float
    round_index: int = 0
    live_opinions: dict[int, Answer | None] = field(default_factory=dict)
    gated_out: set[int] = field(default_factory=set)
    packet_text: str = ""


@dataclass
class SessionResult:
    sentence: Sentence
    records: list[EventMention]
    transcript: list[TranscriptEntry]
    risk_log: list[RiskRecord]


def render_packet(result: RetrievalResult, ctx: Task) -> str:
    """Render the retrieval packet broadcast to debaters and the critic."""
    lines = ["Reference information:"]
    if result.definitions:
        lines.append("Event definitions:")
        for definition in result.definitions:
            triggers = ", ".join(definition.typical_triggers) or "(none listed)"
            roles = ", ".join(definition.roles) or "(none)"
            lines.append(
                f"- {definition.type_id}: {definition.definition_text} "
                f"Typical triggers: {triggers}. Argument roles: {roles}."
            )
    if result.examples:
        lines.append("Examples:")
        for entry in result.examples:
            lines.append(f'- Sentence: "{entry.sentence.text}" Answer: {ctx.example(entry)}')
    return "\n".join(lines)


class _Session:
    """Holds the immutable context of one sentence's debates, the pool
    their concurrent calls run on, the sentence's top-K scan and the risks
    scored so far."""

    def __init__(
        self,
        sentence: Sentence,
        ontology: EventOntology,
        config: SessionConfig,
        pool: Executor,
    ):
        self.sentence = sentence
        self.ontology = ontology
        self.config = config
        self.pool = pool
        # The top-K scan, submitted once the query is embedded; all of the
        # sentence's debates retrieve from its result.
        self.candidates: Future[list[Candidate]] | None = None
        self.transcript: list[TranscriptEntry] = []
        self.risk_log: list[RiskRecord] = []
        # (scoring prompt, packet, serialized answer) -> risk
        self.risks: dict[tuple[str, str, str], float] = {}

    # -- transcript and call helpers

    def _note(self, round_index: int, stage: str, role: str, text: str, prompt: str = "") -> None:
        self.transcript.append(TranscriptEntry(round_index, stage, role, prompt, text))

    def _fan_out(self, calls: Sequence[Callable[[], T]]) -> list[T]:
        """Run independent calls at once, the first on this thread and the
        others on the run's pool; their results in call order. All calls
        have returned before the first failure, in call order, is raised,
        so a failed stage leaves no call running."""
        pending = [self.pool.submit(call) for call in calls[1:]]
        try:
            results = [call() for call in calls[:1]]
        finally:
            wait(pending)
        return results + [future.result() for future in pending]

    # -- prompt assembly

    def _ce_prompt(self, state: DebateState, index: int, gated: bool) -> str:
        ctx, answers = state.ctx, state.live_opinions
        binding = self.config.team.debaters[index]
        parts = [ctx.prompt(self.sentence, self.ontology, binding.name)]
        parts.append(f"Your current answer: {ctx.serialize(answers.get(index))}")
        for j, other in enumerate(self.config.team.debaters):
            if j != index:
                parts.append(
                    f"Debater {other.name}'s current answer: {ctx.serialize(answers.get(j))}"
                )
        parts.append(state.packet_text)
        parts.append(render_prompt("debater_revise" if gated else "debater_ce", {}))
        parts.append(ctx.reminder(binding.name))
        return "\n\n".join(parts)

    def _critic_prompt(self, state: DebateState) -> str:
        ctx, answers = state.ctx, state.live_opinions
        parts = [render_prompt(f"critic_{ctx.task}", {"SENT": self.sentence.text})]
        for j, binding in enumerate(self.config.team.debaters):
            parts.append(f"Debater {binding.name}'s current answer: {ctx.serialize(answers.get(j))}")
        parts.append(state.packet_text)
        return "\n\n".join(parts)

    def _judge_prompt(self, ctx: Task, statements: dict[int, str], critic_text: str) -> str:
        parts = []
        for j, binding in enumerate(self.config.team.debaters):
            if j in statements:
                parts.append(f"Debater {binding.name}'s statement: {statements[j]}")
        parts.append(f"Critic's assessment: {critic_text}")
        parts.append(render_prompt(f"judge_{ctx.task}", {}))
        return "\n\n".join(parts)

    # -- the round state machine

    def run_round(self, state: DebateState) -> tuple[Answer, ...] | None:
        """One debate round: the judge's agreed answers, `()` for no event,
        or None for another round. Decays radius and threshold before every
        round after the first, and advances the round counter at its end."""
        team = self.config.team
        ctx = state.ctx
        rnd = state.round_index
        stage = lambda name: f"{ctx.task}.{name}"  # noqa: E731
        if rnd > 0:
            state.radius = decay_radius(state.radius, self.config.drag.radius_decay)
            state.threshold = decay_threshold(state.threshold, self.config.adacp.beta)

        # (1) Opinions: rendered fresh in the first round, carried from the
        # previous cross-examination afterwards. The sentence's top-K scan,
        # already submitted, runs while the first debate's are out.
        if rnd == 0:
            self._ask_debaters(
                state,
                "opinion",
                [ctx.prompt(self.sentence, self.ontology, binding.name) for binding in team.debaters],
                "reply unparseable; treated as abstention",
            )

        # (2) Retrieval, broadcast to debaters and critic but never the judge.
        opinions = [a for a in state.live_opinions.values() if a is not None]
        packet = gather_event_info(
            opinions,
            self.ontology,
            self.candidates.result(),
            state.radius,
            self.config.drag,
            event_type_filter=ctx.event_type,
        )
        state.packet_text = render_packet(packet, ctx)
        notes = [
            state.packet_text,
            f"retrieved {len(packet.examples)} example(s) at radius {state.radius!r}",
        ]
        if packet.unknown_types:
            notes.append("no definition for: " + ", ".join(packet.unknown_types))
        for text in notes:
            self._note(rnd, stage("retrieval"), "engine", text)

        # (3) Gate every extraction answer against the current threshold.
        state.gated_out = set()
        for i, scored in self._score(state, self._scorable(state)).items():
            if not self._log_gate(state, *scored):
                state.gated_out.add(i)

        # (4) Cross-examination, simultaneous: every prompt, the critic's
        # too, shows the answers as they stood after the gate. Survivors
        # defend or update, gated debaters revise, and the critic flags
        # likely mistakes; revised answers are re-gated before they may
        # reach the judge.
        critic_prompt = self._critic_prompt(state)
        *replies, critic_reply = self._ask_debaters(
            state,
            "cross_examination",
            [self._ce_prompt(state, i, i in state.gated_out) for i in range(len(team.debaters))],
            "statement restates no parseable answer; previous answer kept",
            also=[partial(team.critic.complete, [ChatMessage("user", critic_prompt)])],
        )
        self._note(rnd, stage("cross_examination"), "critic", critic_reply, critic_prompt)
        statements = {i: reply for i, reply in enumerate(replies) if i not in state.gated_out}

        # (5) Judgement on this round's admissible statements only.
        if statements:
            judge_prompt = self._judge_prompt(ctx, statements, critic_reply)
            reply = team.judge.complete([ChatMessage("user", judge_prompt)])
            self._note(rnd, stage("judgement"), "judge", reply, judge_prompt)
            agreed = parse_judge(reply, ctx)
        else:
            self._note(
                rnd, stage("judgement"), "engine", "no admissible statements; debate continues"
            )
            agreed = None

        state.round_index += 1
        return agreed

    def _ask_debaters(
        self,
        state: DebateState,
        stage: str,
        prompts: Sequence[str],
        unparsed: str,
        also: Sequence[Callable[[], object]] = (),
    ) -> list:
        """Send every debater its prompt at once; the replies, in debater
        order, then the results of the calls in `also`, which run in the
        same fan-out and are not noted here.

        A parsed reply becomes the debater's live answer; an unparseable one
        keeps it (an abstention before the first answer) and is noted with
        `unparsed`. A gated-out debater's new answer is re-gated, all
        re-gates scored at once, and leaves `gated_out` when it passes or
        is exempt. Once every call is back, each debater's exchange, note
        and gate verdict are written in debater order.
        """
        ctx, rnd, debaters = state.ctx, state.round_index, self.config.team.debaters
        replies = self._fan_out(
            [
                partial(b.backend.complete, [ChatMessage("user", p)], temperature=b.temperature)
                for b, p in zip(debaters, prompts)
            ]
            + list(also)
        )
        parsed: list[Answer | None] = []
        for reply in replies[: len(debaters)]:
            try:
                parsed.append(ctx.parse(reply))
            except ParseFailure as exc:
                # The message only: a record kept by a handler would keep
                # `exc`'s traceback and, through this frame, the session.
                logger.warning("debater reply unparseable: %s", str(exc))
                parsed.append(None)
        for i, answer in enumerate(parsed):
            state.live_opinions[i] = state.live_opinions.get(i) if answer is None else answer
        revised = {i: a for i, a in self._scorable(state).items() if i in state.gated_out}
        regated = self._score(state, revised)
        for i, binding in enumerate(debaters):
            self._note(rnd, f"{ctx.task}.{stage}", f"debater_{binding.name}", replies[i], prompts[i])
            if parsed[i] is None:
                self._note(rnd, f"{ctx.task}.{stage}", "engine", f"debater_{binding.name} {unparsed}")
            if i not in regated or self._log_gate(state, *regated[i]):
                state.gated_out.discard(i)
        return replies

    def _scorable(self, state: DebateState) -> dict[int, Answer]:
        """The live answers, by debater, that the gate scores: all but
        abstentions and no-event answers."""
        return {
            i: answer
            for i, answer in state.live_opinions.items()
            if not state.ctx.exempt(answer)
        }

    def _score(
        self, state: DebateState, answers: Mapping[int, Answer]
    ) -> dict[int, tuple[RiskRecord, str]]:
        """Score answers, by debater, in the round's context against the
        threshold in force; each one's record and note text.

        Requests this session has not sent before go to the scorer at once;
        a repeated request reuses its risk, since the scorer is a frozen
        model. The gate, the re-gate and adjudication all score here, so
        they score in the same context.
        """
        keys = {
            i: (state.risk_base, state.packet_text, state.ctx.serialize(answer))
            for i, answer in answers.items()
        }
        new = list(dict.fromkeys(key for key in keys.values() if key not in self.risks))
        risks = self._fan_out([partial(risk_score, self.config.scorer, *key) for key in new])
        self.risks.update(zip(new, risks))
        scored = {}
        for i, key in keys.items():
            name, serialized, risk = self.config.team.debaters[i].name, key[-1], self.risks[key]
            ok = accept(risk, state.threshold)
            note = (
                f"debater_{name} answer {serialized!r} risk={risk:.6f} "
                f"threshold={state.threshold:.6f} accepted={ok}"
            )
            record = RiskRecord(state.ctx.task, state.round_index, name, serialized, risk, ok)
            scored[i] = (record, note)
        return scored

    def _log_gate(self, state: DebateState, record: RiskRecord, note: str) -> bool:
        """Log one gate verdict; whether the answer passed."""
        self.risk_log.append(record)
        self._note(
            state.round_index,
            f"{state.ctx.task}.gate",
            "scorer",
            note,
            prompt=f"{state.risk_base}\n\n{state.packet_text}",
        )
        return record.accepted

    def run_debate(self, ctx: Task) -> tuple[Answer, ...]:
        """Run one task's debate to its agreed answers, `()` for no event,
        by the judge or, at the round cap, by adjudication."""
        state = DebateState(
            ctx=ctx,
            risk_base=ctx.prompt(self.sentence, self.ontology),
            radius=self.config.drag.initial_radius,
            threshold=float(self.config.adacp.initial_threshold[ctx.task]),
        )
        while state.round_index < self.config.max_rounds:
            agreed = self.run_round(state)
            if agreed is not None:
                return agreed
        return self._adjudicate(state)

    def _adjudicate(self, state: DebateState) -> tuple[Answer, ...]:
        """Round cap reached without agreement: adopt the lowest-risk answer
        that passes the final round's gate, otherwise fail closed."""
        ctx, rnd = state.ctx, state.round_index
        best: tuple[float, int] | None = None
        for i, (record, note) in self._score(state, self._scorable(state)).items():
            self._note(rnd, f"{ctx.task}.adjudication", "scorer", note)
            if record.accepted and (best is None or record.risk < best[0]):
                best = (record.risk, i)
        if best is None:
            self._note(
                rnd,
                f"{ctx.task}.adjudication",
                "engine",
                "round cap reached with no acceptable answer; emitting empty result",
            )
            return ()
        answer = state.live_opinions[best[1]]
        self._note(
            rnd,
            f"{ctx.task}.adjudication",
            "engine",
            f"round cap reached; adopting lowest-risk answer {ctx.serialize(answer)!r}",
        )
        return (answer,)

    # -- summarization

    def _summarize(
        self,
        ed_answer: TriggerAnswer,
        argument_rows: tuple[tuple[str, str | None], ...],
    ) -> EventMention:
        record = EventMention(
            event_type=ed_answer.event_type,
            trigger=ed_answer.trigger,
            arguments=tuple(
                (role, content) for role, content in argument_rows if content is not None
            ),
        )
        self._note(
            0,
            "session.summary",
            "summarizer",
            serialize_argument_table(record.event_type, record.arguments)
            + f"\ntrigger: {record.trigger}",
        )
        return record


def run_session(
    sentence: Sentence,
    ontology: EventOntology,
    index: EmbeddedIndex,
    config: SessionConfig,
    pool: Executor,
) -> SessionResult:
    """Run detection and, when an event is found, argument extraction.

    Only the sentence text ever enters a prompt; gold annotations are
    never available to this code path. A no-event outcome skips argument
    extraction entirely. The session makes one call of each stage on its
    own thread and sends the others to `pool`, the run's call pool; with
    a free pool thread per debater, no call waits for a thread.
    """
    session = _Session(sentence, ontology, config, pool)
    try:
        query_vector = l2_normalize(np.asarray(config.embedder.embed(sentence.text)), sentence.id)
        drag.check_query(index, query_vector)
        session._note(
            0,
            "session.embed",
            "embedder",
            f"query embedded, dim={config.embedder.dimension()}",
            prompt=sentence.text,
        )
        # One top-K scan per sentence: every debate queries with the
        # sentence embedding; only radius and type filter vary.
        session.candidates = pool.submit(drag.retrieve_topk, index, query_vector, config.drag.top_k)
        records: list[EventMention] = []
        for answer in session.run_debate(Detection()):
            rows: tuple[tuple[str, str | None], ...] = ()
            if answer.event_type not in ontology:
                session._note(
                    0,
                    "session.summary",
                    "engine",
                    f"agreed type {answer.event_type!r} unknown to the ontology; "
                    "emitting record without arguments",
                )
            elif roles := ontology.lookup(answer.event_type).roles:
                extraction = ArgumentExtraction(answer.event_type, answer.trigger, roles)
                if extracted := session.run_debate(extraction):
                    rows = extracted[0].rows
            records.append(session._summarize(answer, rows))
    except BackendError as exc:
        # Abort the session but keep everything recorded so far inspectable,
        # once the scan, if it was submitted, has finished.
        if session.candidates is not None:
            wait([session.candidates])
        exc.transcript = session.transcript  # type: ignore[attr-defined]
        exc.sentence_id = sentence.id  # type: ignore[attr-defined]
        raise
    return SessionResult(
        sentence=sentence,
        records=records,
        transcript=session.transcript,
        risk_log=session.risk_log,
    )

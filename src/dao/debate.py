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

One type carries an event through every step: a `corpus.EventMention` is
a gold annotation, a debater's answer, an answer the judge agrees on and
an output record alike, and `None` is no event. A detection answer holds
a (type, trigger); an argument-extraction answer holds its filled rows
too, so answers from any source compare with `==`.

A session is a generator, `_Session.steps()`: it yields each stage's
model calls as one batch, never an empty one, and is sent back their
results in call order. The first round's batch holds the query embed
with the one top-K scan, and the debaters' opinions; then come the gate
scores, the cross-examination replies with the critic's (which sees the
same answers), the re-gates, the judge's call and, at the round cap, the
adjudication scores. `run_session`, its one driver, runs each batch with
`fan_out` on the run's call pool. Transcript entries are written in
debater order, the critic's last, once a batch is back, so a transcript
depends on the batch order, never on which call finished first.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Executor, wait
from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Any, Callable, ClassVar, Generator, Mapping, Sequence, TypeVar

from . import drag
from .adacp import AdaCPConfig, accept, decay_threshold, risk_score
from .backends import ChatBackend, EmbeddingBackend, ScoringBackend, sha256_prefix
from .corpus import EmbeddedIndex, EventMention, Ontology, ReferenceEntry, Sentence, embed_sentence
from .drag import DragConfig, RetrievalResult, decay_radius, gather_event_info
from .errors import DaoError, InvalidTeam, ParseFailure
from .prompts import render_prompt

logger = logging.getLogger(__name__)

ED_JUDGE_HEADER = ("event type", "event trigger")
EAE_HEADER = ("event type", "argument role", "argument content")
# Debate rounds before the engine adjudicates, when a config leaves it out.
DEFAULT_MAX_ROUNDS = 3

T = TypeVar("T")
# Yields batches of independent calls, is sent their results in call order.
Steps = Generator[list[Callable[[], Any]], list, T]


# ---------------------------------------------------------------------------
# Serialized answers


def serialize_trigger_answer(answer: EventMention | None) -> str:
    if answer is None:
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


def parse_debater_ed(text: str) -> EventMention | None:
    """Parse a detection answer out of free-form debater text.

    The last well-formed two-element quoted list wins; a later bare `[]`
    means no event (None). Role prefixes and surrounding prose are tolerated.
    """
    found: list[tuple[int, EventMention | None]] = [
        (m.start(), EventMention(m.group(1).strip(), m.group(2).strip())) for m in _ANSWER_PAIR.finditer(text)
    ]
    found += [(m.start(), None) for m in _ANSWER_EMPTY.finditer(text)]
    if not found:
        raise ParseFailure(f"no answer pattern in reply sha256:{sha256_prefix(text, 12)}")
    return max(found, key=lambda match: match[0])[1]


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
    and a cell spelled "None" becomes None. Text with no pipe table, or
    with none under the expected header, raises `ParseFailure`.
    """
    tables = _find_pipe_tables(text)
    if not tables:
        raise ParseFailure(f"no pipe-delimited table in reply sha256:{sha256_prefix(text, 12)}")
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
    raise ParseFailure(f"no table with header {list(expected_header)!r}")


def parse_judge(text: str, task: Task) -> tuple[EventMention, ...] | None:
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


@dataclass(frozen=True)
class Detection:
    """The trigger-detection debate."""

    task: ClassVar[str] = "ed"
    event_type: ClassVar[None] = None
    judge_header: ClassVar[tuple[str, ...]] = ED_JUDGE_HEADER

    def prompt(self, sentence: Sentence, ontology: Ontology, role_label: str = "Debater") -> str:
        """The task prompt, opening with `ontology`'s types in file order;
        also the scoring context of its answers, so calibration and
        in-debate risks share one anchor."""
        type_list = "Event type list: " + ", ".join(ontology) + "."
        rendered = render_prompt("debater_ed", {"SENT": sentence.text, "ROLE": role_label})
        return f"{type_list}\n\n{rendered}"

    def reminder(self, name: str) -> str:
        return (
            f'State your final answer in the format **{name}: ["event type", '
            f'"trigger token"]**, or **{name}: []**.'
        )

    def parse(self, text: str) -> EventMention | None:
        return parse_debater_ed(text)

    def serialize(self, answer: EventMention | None) -> str:
        return serialize_trigger_answer(answer)

    def exempt(self, answer: EventMention | None) -> bool:
        """Abstentions and no-event answers bypass the gate."""
        return answer is None

    def agreement(self, rows: Sequence[tuple[str | None, ...]]) -> tuple[EventMention, ...]:
        """The distinct agreed (type, trigger) rows; rows with an empty
        cell are skipped, and a table with none left is a ParseFailure."""
        answers: list[EventMention] = []
        for event_type, trigger in dict.fromkeys(rows):
            if event_type is None or trigger is None:
                logger.warning("judge table row with empty cell skipped")
                continue
            answers.append(EventMention(event_type, trigger))
        if not answers:
            raise ParseFailure("judge agreement table had no usable rows")
        return tuple(answers)

    def example(self, entry: ReferenceEntry) -> str:
        return "; ".join(map(serialize_trigger_answer, entry.events)) or "[]"


@dataclass(frozen=True)
class ArgumentExtraction:
    """The argument-extraction debate for one agreed (type, trigger)."""

    task: ClassVar[str] = "eae"
    judge_header: ClassVar[tuple[str, ...]] = EAE_HEADER
    event_type: str
    trigger: str
    roles: tuple[str, ...]

    def prompt(self, sentence: Sentence, ontology: Ontology, role_label: str = "Debater") -> str:
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

    def parse(self, text: str) -> EventMention:
        return self.agreement(parse_table(text, EAE_HEADER))[0]

    def serialize(self, answer: EventMention | None) -> str:
        filled = dict(answer.arguments) if answer is not None else {}
        return serialize_argument_table(self.event_type, canonical_argument_rows(self.roles, filled))

    def exempt(self, answer: EventMention | None) -> bool:
        """Abstentions and tables with no filled role bypass the gate."""
        return answer is None or not answer.arguments

    def agreement(self, rows: Sequence[tuple[str | None, ...]]) -> tuple[EventMention]:
        """The table's filled rows as one answer for this (type, trigger)."""
        return (EventMention(self.event_type, self.trigger, self._clean([row[1:] for row in rows])),)

    def example(self, entry: ReferenceEntry) -> str:
        for event in entry.events:
            if event.event_type == self.event_type:
                filled = dict(event.arguments)
                return "\n" + serialize_argument_table(event.event_type, tuple(filled.items()))
        return "[]"

    def _clean(self, rows: Sequence[tuple[str | None, str | None]]) -> tuple[tuple[str, str], ...]:
        """Keep the first row per known role, in ontology order, then drop
        the roles whose content is None; unknown roles are dropped."""
        known = set(self.roles)
        seen: dict[str, str | None] = {}
        for role, content in rows:
            if role in known:
                seen.setdefault(role, content)
            elif role is not None:
                logger.warning("dropping row for unknown argument role %r", role)
        return tuple((role, content) for role in self.roles if (content := seen.get(role)) is not None)


Task = Detection | ArgumentExtraction


def calibration_pairs(
    task: str, entries: Sequence[ReferenceEntry], ontology: Ontology
) -> list[tuple[str, str]]:
    """(prompt, gold answer) pairs for one task ("ed" or "eae") over
    annotated entries; an "eae" event whose type `ontology` lacks is
    skipped. Each prompt is the task prompt: `DebateState.context` starts
    with it and adds the round's retrieval packet, which calibration has
    none of."""
    pairs: list[tuple[str, str]] = []
    detection = Detection()
    for entry in entries:
        sentence, events = entry.sentence, entry.events
        if task == "ed":
            prompt = detection.prompt(sentence, ontology)
            pairs.extend((prompt, detection.serialize(gold)) for gold in events or [None])
            continue
        for event in events:
            if event.event_type not in ontology:
                skipped = "%s: type %r not in ontology; skipped for calibration"
                logger.warning(skipped, sentence.id, event.event_type)
                continue
            roles = ontology[event.event_type].roles
            extraction = ArgumentExtraction(event.event_type, event.trigger, roles)
            pairs.append((extraction.prompt(sentence, ontology), extraction.serialize(event)))
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
    """One gate verdict: a debater's serialized answer, its risk in the
    round's context and the threshold it was judged against. Its `str` is
    the transcript's gate and adjudication note."""

    task: str
    round_index: int
    debater: str
    answer_text: str
    risk: float
    threshold: float
    accepted: bool

    def __str__(self) -> str:
        return (
            f"debater_{self.debater} answer {self.answer_text!r} risk={self.risk:.6f} "
            f"threshold={self.threshold:.6f} accepted={self.accepted}"
        )


@dataclass
class DebateState:
    """Mutable per-debate state; one instance per task per session.

    Answers are scored in `context` against `threshold`, the one in
    force; it decays when a later round starts, so round-cap adjudication
    applies the last round's threshold.
    """

    ctx: Task
    task_prompt: str
    radius: float
    threshold: float
    round_index: int = 0
    live_opinions: dict[int, EventMention | None] = field(default_factory=dict)
    gated_out: set[int] = field(default_factory=set)
    packet_text: str = ""

    @property
    def context(self) -> str:
        """The round's scoring context: the task prompt, a blank line, then
        the round's retrieval packet. It is the exact prompt the scorer
        receives and the prompt of the round's gate notes."""
        return f"{self.task_prompt}\n\n{self.packet_text}"


@dataclass
class SessionResult:
    """A session's outcome. A session that a fault of its backend calls
    ended holds it in `error`, no records, and the transcript and risks
    written before it."""

    sentence: Sentence
    records: list[EventMention]
    transcript: list[TranscriptEntry]
    risk_log: list[RiskRecord]
    error: DaoError | None = None


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


def fan_out(pool: Executor, calls: Sequence[Callable[[], T]]) -> list[T]:
    """Run independent calls at once, the first on this thread and the
    others on `pool`; their results in call order. All calls have returned
    before the first failure, in call order, is raised, so a failed batch
    leaves no call running."""
    pending = [pool.submit(call) for call in calls[1:]]
    try:
        results = [call() for call in calls[:1]]
    finally:
        wait(pending)
    return results + [future.result() for future in pending]


def _chat(backend: ChatBackend, prompt: str, temperature: float = 0.0) -> Callable[[], str]:
    """A call of `backend` with `prompt` as the one user message."""
    return partial(backend.complete, prompt, temperature=temperature)


@dataclass
class _Session:
    """Holds the immutable context of one sentence's debates, the index
    they retrieve from, the sentence's top-K candidates once scanned and
    the risks scored so far; `steps()` runs its debates."""

    sentence: Sentence
    ontology: Ontology
    index: EmbeddedIndex
    config: SessionConfig
    candidates: EmbeddedIndex | None = None
    transcript: list[TranscriptEntry] = field(default_factory=list)
    risk_log: list[RiskRecord] = field(default_factory=list)
    # (scoring context, serialized answer) -> risk
    risks: dict[tuple[str, str], float] = field(default_factory=dict)

    def _embed_and_scan(self) -> EmbeddedIndex:
        """The top-K candidates that all of the sentence's debates retrieve from."""
        query = embed_sentence(self.config.embedder, self.sentence, self.index.dimension)
        return drag.retrieve_topk(self.index, query, self.config.drag.top_k)

    # -- transcript and call helpers

    def _note(self, round_index: int, stage: str, role: str, text: str, prompt: str = "") -> None:
        self.transcript.append(TranscriptEntry(round_index, stage, role, prompt, text))

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
        ctx, answers, debaters = state.ctx, state.live_opinions, self.config.team.debaters
        *others, last = [f"Debater {binding.name}" for binding in debaters]
        names = f"{', '.join(others)} and {last}"
        parts = [render_prompt(f"critic_{ctx.task}", {"SENT": self.sentence.text, "debaters": names})]
        for j, binding in enumerate(debaters):
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

    def run_round(self, state: DebateState) -> Steps[tuple[EventMention, ...] | None]:
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
        # previous cross-examination afterwards. The first debate's batch
        # embeds the sentence and scans the index, first, so that call runs
        # on the session's own thread.
        if rnd == 0:
            prompts = [ctx.prompt(self.sentence, self.ontology, b.name) for b in team.debaters]
            scan = [self._embed_and_scan] if self.candidates is None else []
            replies = yield scan + self._debater_calls(prompts)
            if scan:
                self.candidates = replies.pop(0)
                note = f"query embedded, dim={self.config.embedder.dimension()}"
                self._note(0, "session.embed", "embedder", note, self.sentence.text)
            unparsed = "reply unparseable; treated as abstention"
            yield from self._take_replies(state, "opinion", prompts, replies, unparsed)

        # (2) Retrieval, broadcast to debaters and critic but never the judge.
        packet = gather_event_info(
            [a.event_type for a in state.live_opinions.values() if a is not None],
            self.ontology,
            self.candidates,
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
        for i, record in (yield from self._score(state, self._scorable(state))).items():
            if not self._log_gate(state, record):
                state.gated_out.add(i)

        # (4) Cross-examination, simultaneous: every prompt, the critic's
        # too, shows the answers as they stood after the gate. Survivors
        # defend or update, gated debaters revise, and the critic flags
        # likely mistakes; revised and updated answers are re-gated before
        # they may reach the judge.
        prompts = [self._ce_prompt(state, i, i in state.gated_out) for i in range(len(team.debaters))]
        critic_prompt = self._critic_prompt(state)
        calls = self._debater_calls(prompts) + [_chat(team.critic, critic_prompt)]
        *replies, critic_reply = yield calls
        kept = "statement restates no parseable answer; previous answer kept"
        yield from self._take_replies(state, "cross_examination", prompts, replies, kept)
        self._note(rnd, stage("cross_examination"), "critic", critic_reply, critic_prompt)
        statements = {i: reply for i, reply in enumerate(replies) if i not in state.gated_out}

        # (5) Judgement on this round's admissible statements only.
        if statements:
            judge_prompt = self._judge_prompt(ctx, statements, critic_reply)
            (reply,) = yield [_chat(team.judge, judge_prompt)]
            self._note(rnd, stage("judgement"), "judge", reply, judge_prompt)
            agreed = parse_judge(reply, ctx)
        else:
            self._note(
                rnd, stage("judgement"), "engine", "no admissible statements; debate continues"
            )
            agreed = None

        state.round_index += 1
        return agreed

    def _debater_calls(self, prompts: Sequence[str]) -> list[Callable[[], str]]:
        """Each debater's call with its prompt, in debater order."""
        return [_chat(b.backend, p, b.temperature) for b, p in zip(self.config.team.debaters, prompts)]

    def _take_replies(
        self, state: DebateState, stage: str, prompts: Sequence[str], replies: Sequence[str], unparsed: str
    ) -> Steps[None]:
        """Take the debaters' replies to `prompts`, in debater order.

        A parsed reply becomes the debater's live answer, a parsed `[]`
        too; an unparseable one keeps it (an abstention, None, before the
        first answer) and is noted with `unparsed`. A gated-out debater's
        answer, and any other that differs from the one held, is re-gated,
        all in one batch; it leaves `gated_out` if it passes or is exempt,
        and joins it if not. Each debater's exchange, note and gate
        verdict are written in debater order.
        """
        ctx, rnd, debaters = state.ctx, state.round_index, self.config.team.debaters
        held = dict(state.live_opinions)
        failed: set[int] = set()
        for i, reply in enumerate(replies):
            try:
                state.live_opinions[i] = ctx.parse(reply)
            except ParseFailure as exc:
                # The message only: a record kept by a handler would keep
                # `exc`'s traceback and, through this frame, the session.
                logger.warning("debater reply unparseable: %s", str(exc))
                failed.add(i)
                state.live_opinions.setdefault(i, None)
        revised = {i: a for i, a in self._scorable(state).items() if i in state.gated_out or held.get(i, a) != a}
        regated = yield from self._score(state, revised)
        for i, binding in enumerate(debaters):
            self._note(rnd, f"{ctx.task}.{stage}", f"debater_{binding.name}", replies[i], prompts[i])
            if i in failed:
                self._note(rnd, f"{ctx.task}.{stage}", "engine", f"debater_{binding.name} {unparsed}")
            if i not in regated or self._log_gate(state, regated[i]):
                state.gated_out.discard(i)
            else:
                state.gated_out.add(i)

    def _scorable(self, state: DebateState) -> dict[int, EventMention]:
        """The live answers, by debater, that the gate scores: all but
        abstentions and no-event answers."""
        return {
            i: answer
            for i, answer in state.live_opinions.items()
            if not state.ctx.exempt(answer)
        }

    def _score(self, state: DebateState, answers: Mapping[int, EventMention]) -> Steps[dict[int, RiskRecord]]:
        """Score answers, by debater, in `state.context` against the
        threshold in force; each one's `RiskRecord`, which the caller logs.

        Requests this session has not sent before go to the scorer in one batch,
        if there are any; a repeated request reuses its risk, since the
        scorer is a frozen model. The gate, the re-gate and adjudication all
        score here, so they score in the same context.
        """
        context = state.context
        keys = {i: (context, state.ctx.serialize(answer)) for i, answer in answers.items()}
        new = list(dict.fromkeys(key for key in keys.values() if key not in self.risks))
        risks = (yield [partial(risk_score, self.config.scorer, *key) for key in new]) if new else []
        self.risks.update(zip(new, risks))
        records = {}
        for i, key in keys.items():
            name, risk = self.config.team.debaters[i].name, self.risks[key]
            ok = accept(risk, state.threshold)
            records[i] = RiskRecord(state.ctx.task, state.round_index, name, key[1], risk, state.threshold, ok)
        return records

    def _log_gate(self, state: DebateState, record: RiskRecord) -> bool:
        """Log one gate verdict; whether the answer passed."""
        self.risk_log.append(record)
        self._note(record.round_index, f"{record.task}.gate", "scorer", str(record), state.context)
        return record.accepted

    def run_debate(self, ctx: Task) -> Steps[tuple[EventMention, ...]]:
        """Run one task's debate to its agreed answers, `()` for no event,
        by the judge or, at the round cap, by adjudication."""
        state = DebateState(
            ctx=ctx,
            task_prompt=ctx.prompt(self.sentence, self.ontology),
            radius=self.config.drag.initial_radius,
            threshold=float(self.config.adacp.initial_threshold[ctx.task]),
        )
        while state.round_index < self.config.max_rounds:
            agreed = yield from self.run_round(state)
            if agreed is not None:
                return agreed
        return (yield from self._adjudicate(state))

    def _adjudicate(self, state: DebateState) -> Steps[tuple[EventMention, ...]]:
        """Round cap reached without agreement: note every answer's verdict,
        then adopt the first lowest-risk answer that passes the final
        round's gate, otherwise fail closed."""
        ctx, rnd, stage = state.ctx, state.round_index, f"{state.ctx.task}.adjudication"
        records = yield from self._score(state, self._scorable(state))
        for record in records.values():
            self._note(rnd, stage, "scorer", str(record))
        accepted = [i for i, record in records.items() if record.accepted]
        if not accepted:
            self._note(rnd, stage, "engine", "round cap reached with no acceptable answer; emitting empty result")
            return ()
        answer = state.live_opinions[min(accepted, key=lambda i: records[i].risk)]
        note = f"round cap reached; adopting lowest-risk answer {ctx.serialize(answer)!r}"
        self._note(rnd, stage, "engine", note)
        return (answer,)

    def steps(self) -> Steps[list[EventMention]]:
        """Run detection and, when an event is found, argument extraction;
        the session's records.

        Only the sentence text ever enters a prompt; gold annotations are
        never available to this code path. A no-event outcome skips
        argument extraction entirely, as does an agreed type that the
        ontology lacks or that has no roles; its record carries no
        arguments.
        """
        records: list[EventMention] = []
        for record in (yield from self.run_debate(Detection())):
            if record.event_type not in self.ontology:
                unknown = f"agreed type {record.event_type!r} unknown to the ontology; "
                self._note(0, "session.summary", "engine", unknown + "emitting record without arguments")
            elif roles := self.ontology[record.event_type].roles:
                extraction = ArgumentExtraction(record.event_type, record.trigger, roles)
                if extracted := (yield from self.run_debate(extraction)):
                    record = extracted[0]
            table = serialize_argument_table(record.event_type, record.arguments)
            self._note(0, "session.summary", "summarizer", f"{table}\ntrigger: {record.trigger}")
            records.append(record)
        return records


def run_session(
    sentence: Sentence, ontology: Ontology, index: EmbeddedIndex, config: SessionConfig, pool: Executor
) -> SessionResult:
    """Drive one sentence's `_Session.steps()`, each batch fanned out on
    `pool`, the run's call pool; with a free pool thread per debater, no
    call waits for one.

    A `DaoError` here is a fault of this sentence's backend calls, such as
    a failed model call or query embed: it ends the session and is
    returned, not raised, as the result's `error`, with the transcript and
    risks written before it. A failed batch has no call left running when
    its error is returned. Any other exception is a programming error and
    propagates.
    """
    session = _Session(sentence, ontology, index, config)
    steps, results = session.steps(), None
    try:
        while True:
            results = fan_out(pool, steps.send(results))
    except StopIteration as done:
        return SessionResult(sentence, done.value, session.transcript, session.risk_log)
    except DaoError as exc:
        return SessionResult(sentence, [], session.transcript, session.risk_log, exc)

"""Operator entry point: calibrate thresholds, run extraction, evaluate.

Usage:
    dao calibrate -c config.json
    dao run -c config.json --input test.jsonl --out runs/exp1/
    dao eval --pred p.jsonl --gold g.jsonl --task ed|eae --metric exact|head|types

Exit codes: 0 ok, 1 usage error, 2 runtime (backend, I/O or config) failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable

from .adacp import AdaCPConfig, calibrate, risk_score
from .backends import (
    EmbeddingBackend,
    HttpChatBackend,
    HttpEmbeddingBackend,
    HttpScoringBackend,
    HttpTransport,
    ScoringBackend,
    sha256_prefix,
)
from .corpus import (
    ReferenceEntry, build_index, event_row, in_slices, load_corpus, load_ontology, parse_event_row, read_keyed
)
from .debate import (
    DEFAULT_MAX_ROUNDS,
    AgentTeam,
    DebaterBinding,
    SessionConfig,
    SessionResult,
    TranscriptEntry,
    calibration_pairs,
    debater_name,
    run_session,
)
from .drag import DragConfig
from .errors import DaoError, EmptyCalibrationSet, InvalidConfig
from .evalkit import PRF, Item, head_f1, trigger_f1, type_overlap_f1
from .replay import DEFAULT_DIMENSION, ReplayBundle

# timeout, max_attempts and backoff, as the HTTP clients default them.
_RETRY_DEFAULTS = {f.name: f.default for f in dataclasses.fields(HttpTransport) if f.kw_only}

_KEY_ENV = {"api_key_env": "DAO_API_KEY"}


def _debater(index: int, spec: dict) -> dict:
    """The settings of the debater at `index`: `spec` over the defaults,
    where an empty `model` means the chat section's."""
    return {"name": debater_name(index), "model": "", "temperature": DebaterBinding.temperature, **spec}


_DEFAULT_BACKENDS = {
    "replay_bundle": None,
    "chat": {"endpoint": "", "model": "", **_KEY_ENV, **_RETRY_DEFAULTS},
    "debaters": [_debater(0, {}), _debater(1, {})],
    "embedding": {"endpoint": "", "model": "", "dimension": DEFAULT_DIMENSION, **_KEY_ENV},
    "scoring": {"endpoint": ""},
}

# The JSON values a setting takes, by the type of its default, and their
# name; a `null` default is an unset path.
_TAKES = {
    dict: (dict, "be a JSON object"),
    list: (list, "be a JSON array"),
    bool: (bool, "be true or false"),
    int: (int, "be an integer"),
    float: ((int, float), "be a number"),
    str: (str, "be a string"),
    type(None): ((str, type(None)), "be a string or null"),
}


def _check(value, default, path: str = "") -> None:
    """Raise `InvalidConfig` unless `value` has the shape of `default`, the
    part of `RunConfig().to_dict()` at the dotted `path`: an object holds
    only its default's keys, an array entries shaped like its default's
    first, and a scalar its default's type, where a number is finite and
    may be an integer but never a boolean."""
    if path.startswith("adacp.initial_threshold.") and (value is None or value == math.inf):
        return  # `dao calibrate` fills it in, and may write +Infinity
    kind = type(default)
    types, what = _TAKES[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        if path == "adacp.initial_threshold":
            what = "map task names to thresholds"
        got = f"not {type(value).__name__}" if kind in (dict, list) else f"got {value!r}"
        raise InvalidConfig(f"{path or 'a config'} must {what}, {got}")
    if isinstance(value, float) and not math.isfinite(value):  # json.load reads NaN and ±Infinity
        raise InvalidConfig(f"{path} must be a finite number, got {value!r}")
    if kind is list:
        for i, item in enumerate(value):
            _check(item, default[0], f"{path}[{i}]")
    elif kind is dict:
        for key, item in value.items():
            name = f"{path}.{key}" if path else key
            if key not in default:
                raise InvalidConfig(f"unknown key {name}")
            _check(item, default[key], name)


@dataclasses.dataclass
class RunConfig:
    """Run settings; the defaults are the engine's standard operating point."""

    max_rounds: int = DEFAULT_MAX_ROUNDS
    workers: int = 1
    ontology: str = "ontology.jsonl"
    reference_corpus: str = "reference.jsonl"
    reference_split: str = "train"
    drag: DragConfig = dataclasses.field(default_factory=DragConfig)
    adacp: AdaCPConfig = dataclasses.field(default_factory=AdaCPConfig)
    backends: dict = dataclasses.field(default_factory=lambda: json.loads(json.dumps(_DEFAULT_BACKENDS)))

    def __post_init__(self):
        chat = self.backends["chat"]
        for name, bad, rule in (
            ("max_rounds", self.max_rounds < 1, "be at least 1"),
            ("workers", self.workers < 1, "be at least 1"),
            ("backends.chat.max_attempts", chat["max_attempts"] < 1, "be at least 1"),
            ("backends.chat.timeout", chat["timeout"] <= 0, "be positive"),
            ("backends.chat.backoff", chat["backoff"] < 0, "not be negative"),
        ):
            if bad:
                raise ValueError(f"{name} must {rule}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Every setting `data` makes, checked by `_check`; unset ones keep
        their defaults. Each object-valued `backends` section is merged over
        its default, so a partial section keeps the defaults it leaves out."""
        defaults = cls().to_dict()
        _check(data, defaults)
        backends = defaults["backends"]
        for key, value in data.get("backends", {}).items():
            backends[key] = {**backends[key], **value} if isinstance(value, dict) else value
        drag, adacp = DragConfig(**data.get("drag", {})), AdaCPConfig(**data.get("adacp", {}))
        return cls(**{**data, "drag": drag, "adacp": adacp, "backends": backends})

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        """The config in the JSON file at `path`. A file that is not JSON,
        or that `from_dict` rejects, raises `InvalidConfig` naming it."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:
                raise InvalidConfig(f"{path}: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _backends(
    config: RunConfig, ids: Iterable[str] = ()
) -> tuple[EmbeddingBackend, ScoringBackend, Callable[[str], AgentTeam], int]:
    """The embedder, the scorer, `team_for(sentence_id)` and the most
    debaters any team of the run has, for a run of the input sentences
    `ids`.

    The replay bundle that `backends.replay_bundle` names gives the offline
    twins and fresh scripted agents per sentence, and must script each of
    `ids`; without one, one team of the HTTP clients in `config.backends`
    serves every sentence.
    """
    backends = config.backends
    if backends["replay_bundle"]:
        bundle = ReplayBundle.load(backends["replay_bundle"], ids)
        return bundle.embedder(), bundle.scorer(), bundle.team_for, bundle.most_debaters()
    chat, emb = backends["chat"], backends["embedding"]
    retry = {name: chat[name] for name in _RETRY_DEFAULTS}

    def client(model: str) -> HttpChatBackend:
        return HttpChatBackend(chat["endpoint"], model=model, api_key_env=chat["api_key_env"], **retry)

    shared = client(chat["model"])
    debaters = [_debater(i, spec) for i, spec in enumerate(backends["debaters"])]
    team = AgentTeam(
        debaters=tuple(
            DebaterBinding(spec["name"], client(spec["model"] or chat["model"]), spec["temperature"])
            for spec in debaters
        ),
        critic=shared,
        judge=shared,
    )
    embedder = HttpEmbeddingBackend(
        emb["endpoint"], model=emb["model"], dim=emb["dimension"], api_key_env=emb["api_key_env"], **retry
    )
    scorer = HttpScoringBackend(backends["scoring"]["endpoint"], **retry)
    return embedder, scorer, lambda _: team, len(team.debaters)


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = RunConfig.load(args.config)
    ontology = load_ontology(config.ontology)
    _, scorer, _, _ = _backends(config)
    rows = [e for e in load_corpus(config.reference_corpus) if e.split == "calib"]
    thresholds = dict(config.adacp.initial_threshold)
    # An empty set fails before the first scorer call: an input fault costs no backend call.
    pairs = {
        task: calibration_pairs(task, rows, ontology) for task in ("ed", "eae") if thresholds.get(task) is None
    }
    for task, task_pairs in pairs.items():
        if not task_pairs:
            raise EmptyCalibrationSet(
                f"no calibration pairs for task {task!r}; provide a calib split or an override"
            )
    for task in ("ed", "eae"):
        if task not in pairs:
            print(f"task={task} threshold fixed at {thresholds[task]} (calibration skipped)")
            continue
        task_pairs = pairs[task]
        # The scorer's round trips overlap, as the index build's embeds do.
        risks = in_slices(lambda i: risk_score(scorer, *task_pairs[i]), len(task_pairs))
        thresholds[task] = calibrate(risks, config.adacp.delta)
        print(f"task={task} n={len(risks)} delta={config.adacp.delta} q0={thresholds[task]}")
    config.adacp = dataclasses.replace(config.adacp, initial_threshold=thresholds)
    config.save(args.config)
    print(f"thresholds written to {args.config}")
    return 0


# ---------------------------------------------------------------------------
# run


def _write_transcript(fh, sentence_id: str, transcript: list[TranscriptEntry]) -> None:
    """One sentence's `transcripts.jsonl` rows; an aborted run writes the
    failed sentence's rows in the same form."""
    for entry in transcript:
        row = {
            "id": sentence_id,
            "round": entry.round_index,
            "stage": entry.stage,
            "role": entry.role,
            "prompt_digest": sha256_prefix(entry.prompt, 16) if entry.prompt else "",
            "text": entry.text,
        }
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_prediction(fh, result: SessionResult) -> None:
    """One sentence's `predictions.jsonl` row."""
    fh.write(json.dumps(event_row(result.sentence, result.records), sort_keys=True) + "\n")


def _histograms(by_round: dict[tuple[str, int], list[float]], bins: int = 20) -> dict:
    """Histogram of the risks observed per (task, round): 20 equal-width
    bins over [0, max risk seen in that round]."""
    out = []
    for (task, round_index), risks in sorted(by_round.items()):
        top = max(risks)
        if top <= 0.0:
            top = 1.0
        width = top / bins
        counts = [0] * bins
        for risk in risks:
            slot = min(int(risk / width), bins - 1)
            counts[slot] += 1
        out.append(
            {
                "task": task,
                "round": round_index,
                "bin_edges": [width * i for i in range(bins + 1)],
                "counts": counts,
            }
        )
    return {"bins": bins, "rounds": out}


def cmd_run(args: argparse.Namespace) -> int:
    """Debate every input sentence and write the run's artifacts.

    After the index build, sessions run on `workers` threads, at most
    2 × `workers` sentences ahead of the oldest one not yet written. A
    sentence's `predictions.jsonl` and `transcripts.jsonl` rows are written
    in input order once it and all before it have finished, and its result
    is dropped. A completed run then writes `risk_histogram.json`. A
    failed session stops the run when its turn to be written comes: the
    earlier sentences' rows are kept, its own transcript rows, if it has
    any, go to `aborted_transcript.jsonl`, and its error is raised. Each
    of these two files that an earlier run into `--out` left is removed
    first.
    """
    config = RunConfig.load(args.config)
    for task in ("ed", "eae"):
        if config.adacp.initial_threshold.get(task) is None:
            raise EmptyCalibrationSet(
                f"no initial threshold for task {task!r}; run `dao calibrate` first"
            )
    ontology = load_ontology(config.ontology)
    # Only the reference split is kept: the index holds it for the run.
    split_entries = [
        e for e in load_corpus(config.reference_corpus) if config.reference_split in ("all", e.split)
    ]
    inputs = load_corpus(args.input)
    embedder, scorer, team_for, most_debaters = _backends(config, (e.sentence.id for e in inputs))
    index = build_index(split_entries, embedder)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("risk_histogram.json", "aborted_transcript.jsonl"):
        (out_dir / stale).unlink(missing_ok=True)
    (out_dir / "config.json").write_text(config.dumps(), encoding="utf-8")
    risks: dict[tuple[str, int], list[float]] = {}
    written = extracted = 0  # sentences and events written
    # One call pool serves the whole run. A session makes one call of each
    # batch on its own thread (the query embed and scan, or a debater's)
    # and sends the others (debaters' and the critic's) here, so a thread
    # per debater per session means that no call waits for a thread.
    with (
        ThreadPoolExecutor(max_workers=config.workers * most_debaters) as calls,
        ThreadPoolExecutor(max_workers=config.workers) as sessions,
        open(out_dir / "predictions.jsonl", "w", encoding="utf-8") as predictions,
        open(out_dir / "transcripts.jsonl", "w", encoding="utf-8") as transcripts,
    ):

        def process(entry: ReferenceEntry) -> SessionResult:
            session_config = SessionConfig(
                team=team_for(entry.sentence.id),
                scorer=scorer,
                embedder=embedder,
                drag=config.drag,
                adacp=config.adacp,
                max_rounds=config.max_rounds,
            )
            return run_session(entry.sentence, ontology, index, session_config, calls)

        def write(result: SessionResult) -> None:
            nonlocal written, extracted
            if result.error is not None:
                if result.transcript:
                    aborted = out_dir / "aborted_transcript.jsonl"
                    with open(aborted, "w", encoding="utf-8") as fh:
                        _write_transcript(fh, result.sentence.id, result.transcript)
                    print(f"session aborted; partial transcript written to {aborted}", file=sys.stderr)
                raise result.error
            _write_prediction(predictions, result)
            _write_transcript(transcripts, result.sentence.id, result.transcript)
            # A killed run keeps every row written so far.
            predictions.flush()
            transcripts.flush()
            for record in result.risk_log:
                risks.setdefault((record.task, record.round_index), []).append(record.risk)
            written += 1
            extracted += len(result.records)

        try:
            # Sessions run at most 2 × workers ahead of the writer, so a slow
            # sentence holds that many results, not all later ones.
            window: deque[Future[SessionResult]] = deque()
            for entry in inputs:
                window.append(sessions.submit(process, entry))
                if len(window) == 2 * config.workers:
                    write(window.popleft().result())
            for future in window:
                write(future.result())
        finally:
            sessions.shutdown(cancel_futures=True)

    (out_dir / "risk_histogram.json").write_text(
        json.dumps(_histograms(risks), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"processed {written} sentence(s), extracted {extracted} event(s)")
    print(f"outputs written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _items(entries: list[ReferenceEntry], task: str) -> list[Item]:
    """(id, label, span) items: for "ed" one per trigger, labelled by its
    event type; for "eae" one per argument, labelled (type, role)."""
    if task == "ed":
        return [(e.sentence.id, event.event_type, event.trigger) for e in entries for event in e.events]
    return [
        (e.sentence.id, (event.event_type, role), content)
        for e in entries
        for event in e.events
        for role, content in event.arguments
    ]


def cmd_eval(args: argparse.Namespace) -> int:
    # Rows are type-checked like the corpus's, but their spans are not: a
    # prediction may hold a span that is not in its sentence.
    pred_rows = list(read_keyed(args.pred, "id", "sentence id", parse_event_row).values())
    gold_rows = list(read_keyed(args.gold, "id", "sentence id", parse_event_row).values())
    # A gold text wins over a predicted one for the same id.
    texts = {e.sentence.id: e.sentence.text for e in pred_rows + gold_rows}

    preds, golds = _items(pred_rows, args.task), _items(gold_rows, args.task)
    note = None
    if args.metric == "exact":
        score = trigger_f1(preds, golds)
    elif args.metric == "head":
        score = head_f1(preds, golds, texts)
    else:
        score = type_overlap_f1(preds, golds, texts)
        note = "span-overlap stand-in metric"

    _print_score(args.task, args.metric, score, note)
    report = {"task": args.task, "metric": args.metric, **dataclasses.asdict(score)}
    if note:
        report["note"] = note
    report_path = args.report or f"{args.pred}.scores.json"
    Path(report_path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"report written to {report_path}")
    return 0


def _print_score(task: str, metric: str, score: PRF, note: str | None) -> None:
    print(f"task={task} metric={metric}" + (f" ({note})" if note else ""))
    print("| metric    | value  |")
    print("|-----------|--------|")
    print(f"| precision | {score.precision:.4f} |")
    print(f"| recall    | {score.recall:.4f} |")
    print(f"| f1        | {score.f1:.4f} |")
    print(f"| tp/fp/fn  | {score.tp}/{score.fp}/{score.fn} |")


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; runtime failures exit 2 (see main()).
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dao", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="compute initial acceptance thresholds")
    p_cal.add_argument("-c", "--config", required=True)
    p_cal.set_defaults(func=cmd_calibrate)

    p_run = sub.add_parser("run", help="run extraction over a corpus")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("--input", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score predictions against gold")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--task", required=True, choices=["ed", "eae"])
    p_eval.add_argument("--metric", default="exact", choices=["exact", "head", "types"])
    p_eval.add_argument("--report", default=None)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DaoError, OSError) as exc:
        print(f"dao: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

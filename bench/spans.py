"""Span recorder for the traced run, and the per-layer metrics read from
its spans.

Each public function is patched in the namespace where its caller looks
it up (`dao.drag.retrieve_topk` is called from inside
`gather_event_info`; `dao.debate.risk_score` and `dao.cli.run_session`
are imported names). A span records name, start, end, parent and the
sentence it serves, is held in memory and written out at the end. A
missing name fails the patch loudly.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import threading
import time
from pathlib import Path

import dao.cli
import dao.debate
import dao.drag
from dao.replay import ReplayBundle

from twin import TwinChat, TwinEmbedder, TwinScorer


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# (span name, owner, attribute, note taken from (args, result)). The note
# keeps the one fact a per-layer metric needs: a size or a digest.
PATCHES = (
    ("corpus.load_corpus", dao.cli, "load_corpus", None),
    ("corpus.build_index", dao.cli, "build_index", lambda a, r: len(r)),
    ("replay.load", ReplayBundle, "load", None),
    ("replay.team_for", ReplayBundle, "team_for", None),
    ("debate.run_session", dao.cli, "run_session", None),
    ("drag.gather_event_info", dao.debate, "gather_event_info", lambda a, r: len(r.examples)),
    ("drag.retrieve_topk", dao.drag, "retrieve_topk", lambda a, r: _digest(a[1].tobytes())),
    ("drag.cluster_candidates", dao.drag, "cluster_candidates", lambda a, r: len(r)),
    ("drag.select_diverse", dao.drag, "select_diverse", lambda a, r: len(r)),
    ("debate.render_packet", dao.debate, "render_packet", lambda a, r: len(r)),
    ("debate.parse_debater_ed", dao.debate, "parse_debater_ed", None),
    ("debate.parse_table", dao.debate, "parse_table", None),
    ("debate.parse_judge", dao.debate, "parse_judge", None),
    ("adacp.risk_score", dao.debate, "risk_score", None),
    ("adacp.accept", dao.debate, "accept", lambda a, r: bool(r)),
    ("prompts.render_prompt", dao.debate, "render_prompt", None),
    ("backends.chat", TwinChat, "complete", None),
    ("backends.scorer", TwinScorer, "negative_log_likelihood", lambda a, r: _digest(a[1], a[2])),
    ("backends.embed", TwinEmbedder, "embed", None),
)

PARSERS = ("debate.parse_debater_ed", "debate.parse_table", "debate.parse_judge")


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, sentence id, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, note=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if name == "debate.run_session":
            request = args[0].id
        else:
            request = parent[5] if parent else ""
        if name == "backends.chat":
            name = f"backends.{args[0].kind}"
        with self._lock:
            span = [len(self.spans), name, 0.0, 0.0, parent[0] if parent else None, request, None]
            self.spans.append(span)
        stack.append(span)
        span[2] = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            if note is not None and result is not None:
                span[6] = note(args, result)

    def install(self) -> None:
        for name, owner, attr, note in PATCHES:
            self._patch(name, owner, attr, note)

    def _patch(self, name: str, owner, attr: str, note) -> None:
        static = inspect.getattr_static(owner, attr)  # AttributeError if the name is gone
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, note)

        if isinstance(static, (classmethod, staticmethod)):
            traced = staticmethod(traced)
        setattr(owner, attr, traced)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_metrics(spans: list[list], sentences: int) -> dict[str, float]:
    """Per-layer counts and times (ms) from one traced repetition."""
    by_name: dict[str, list[list]] = {}
    children: dict[int, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    ids = {span[0]: span for span in spans}

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def ms(name: str, where=lambda s: True) -> float:
        return 1000.0 * sum(s[3] - s[2] for s in by_name.get(name, ()) if where(s))

    def notes(name: str) -> list:
        return [s[6] for s in by_name.get(name, ()) if s[6] is not None]

    def mean(values: list) -> float:
        return sum(values) / len(values) if values else 0.0

    sessions = by_name.get("debate.run_session", [])
    first = min(s[2] for s in sessions)
    last = max(s[3] for s in sessions)
    in_session = lambda s: bool(s[5])  # noqa: E731
    topk_digests = notes("drag.retrieve_topk")
    scorer_digests = notes("backends.scorer")
    accepts = notes("adacp.accept")
    chat_ms = sum(ms(n) for n in by_name if n.startswith("backends.chat."))
    self_ms = 1000.0 * sum(
        (s[3] - s[2]) - _union([(c[2], c[3]) for c in children.get(s[0], ())]) for s in sessions
    )
    main = by_name["cli.main"][0]
    layer_spans = [
        (max(s[2], first), min(s[3], last)) for s in spans
        if s[1] not in ("cli.main", "debate.run_session") and s[3] > first and s[2] < last
    ]
    embeds_in_index = [s for s in by_name.get("backends.embed", ()) if not in_session(s)]
    return {
        "drag.topk_calls_per_sentence": count("drag.retrieve_topk") / sentences,
        "drag.topk_ms_per_call": ms("drag.retrieve_topk") / max(count("drag.retrieve_topk"), 1),
        "drag.topk_ms_per_sentence": ms("drag.retrieve_topk") / sentences,
        "drag.topk_distinct_query_share": len(set(topk_digests)) / max(len(topk_digests), 1),
        "drag.cluster_ms_per_sentence": ms("drag.cluster_candidates") / sentences,
        "drag.clusters_per_call": mean(notes("drag.cluster_candidates")),
        "drag.select_ms_per_sentence": ms("drag.select_diverse") / sentences,
        "drag.examples_per_packet": mean(notes("drag.gather_event_info")),
        "drag.gather_calls_per_sentence": count("drag.gather_event_info") / sentences,
        "corpus.load_ms": ms("corpus.load_corpus"),
        "corpus.build_index_ms": ms("corpus.build_index"),
        "corpus.index_entries": float(sum(notes("corpus.build_index"))),
        "backends.embed.index_calls": float(len(embeds_in_index)),
        "backends.embed.index_ms": 1000.0 * sum(s[3] - s[2] for s in embeds_in_index),
        "backends.embed.query_calls_per_sentence":
            (count("backends.embed") - len(embeds_in_index)) / sentences,
        "backends.chat.debater_calls_per_sentence": count("backends.chat.debater") / sentences,
        "backends.chat.critic_calls_per_sentence": count("backends.chat.critic") / sentences,
        "backends.chat.judge_calls_per_sentence": count("backends.chat.judge") / sentences,
        "backends.chat.ms_per_sentence": chat_ms / sentences,
        "backends.scorer.calls_per_sentence": count("backends.scorer") / sentences,
        "backends.scorer.ms_per_sentence": ms("backends.scorer") / sentences,
        "backends.scorer.distinct_share": len(set(scorer_digests)) / max(len(scorer_digests), 1),
        "debate.self_ms_per_sentence": self_ms / sentences,
        "debate.render_packet_ms_per_sentence": ms("debate.render_packet") / sentences,
        "debate.packet_chars": mean(notes("debate.render_packet")),
        "debate.parse_ms_per_sentence": sum(
            ms(n, lambda s: s[4] is None or ids[s[4]][1] not in PARSERS) for n in PARSERS
        ) / sentences,
        "adacp.risk_score_ms_per_sentence": ms("adacp.risk_score") / sentences,
        "adacp.gate_accept_share": sum(accepts) / max(len(accepts), 1),
        "prompts.render_calls_per_sentence": count("prompts.render_prompt") / sentences,
        "prompts.render_ms_per_sentence": ms("prompts.render_prompt") / sentences,
        "replay.load_ms": ms("replay.load"),
        "replay.team_for_ms_per_sentence": ms("replay.team_for") / sentences,
        "cli.artifacts_ms": 1000.0 * (main[3] - last),
        "trace.unexplained_ms_per_sentence":
            1000.0 * ((last - first) - _union(layer_spans)) / sentences,
    }


def missing_calls(spans: list[list]) -> list[str]:
    """Patched names, and chat roles, that recorded no call. Every workload's
    debate mix exercises all of them."""
    seen = {span[1] for span in spans}
    wanted = [name for name, *_ in PATCHES if name != "backends.chat"]
    wanted += [f"backends.chat.{role}" for role in ("debater", "critic", "judge")]
    return [name for name in wanted if name not in seen]

"""Latency twin: wraps the chat, scorer and embed backends that a replay
bundle hands to `dao run`, sleeps a fixed delay per call, and counts and
times every call.

The sleep happens outside any lock, so concurrent callers overlap as they
would against a model server; the wrapped offline backend still takes
its own lock afterwards. With a zero delay the twin only counts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from dao.debate import AgentTeam, DebaterBinding
from dao.replay import ReplayBundle


@dataclass
class CallStats:
    """Per-kind call counts and busy time, plus the peak number of backend
    calls in flight at once. Kinds: chat.<role>, scorer, embed."""

    calls: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    in_flight: int = 0
    peak_in_flight: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def enter(self) -> None:
        with self._lock:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def leave(self, kind: str, elapsed: float) -> None:
        with self._lock:
            self.in_flight -= 1
            self.calls[kind] = self.calls.get(kind, 0) + 1
            self.seconds[kind] = self.seconds.get(kind, 0.0) + elapsed

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "peak_in_flight": self.peak_in_flight,
            }


class _Twin:
    def __init__(self, inner, kind: str, delay_s: float, stats: CallStats):
        self.inner = inner
        self.kind = kind
        self.delay_s = delay_s
        self.stats = stats

    def _call(self, method, *args, **kwargs):
        self.stats.enter()
        start = time.perf_counter()
        try:
            if self.delay_s:
                time.sleep(self.delay_s)
            return method(*args, **kwargs)
        finally:
            self.stats.leave(self.kind, time.perf_counter() - start)


class TwinChat(_Twin):
    def complete(self, messages, temperature: float = 0.0) -> str:
        return self._call(self.inner.complete, messages, temperature=temperature)


class TwinScorer(_Twin):
    def negative_log_likelihood(self, prompt: str, completion: str) -> float:
        return self._call(self.inner.negative_log_likelihood, prompt, completion)


class TwinEmbedder(_Twin):
    def embed(self, text: str):
        return self._call(self.inner.embed, text)

    def dimension(self) -> int:
        return self.inner.dimension()


def install(delays_ms: dict[str, float], stats: CallStats) -> None:
    """Make every ReplayBundle in this process hand out twins.

    `delays_ms` maps "chat", "scorer" and "embed" to a per-call delay.
    Patches the ReplayBundle class, so call this once per process.
    """
    chat_s, scorer_s, embed_s = (delays_ms[k] / 1000.0 for k in ("chat", "scorer", "embed"))
    embedder, scorer, team_for = ReplayBundle.embedder, ReplayBundle.scorer, ReplayBundle.team_for

    def chat(backend, role: str):
        return TwinChat(backend, f"chat.{role}", chat_s, stats) if backend is not None else None

    def twin_team_for(self, sentence_id: str) -> AgentTeam:
        team = team_for(self, sentence_id)
        return AgentTeam(
            debaters=tuple(
                DebaterBinding(d.name, chat(d.backend, "debater"), d.temperature)
                for d in team.debaters
            ),
            critic=chat(team.critic, "critic"),
            judge=chat(team.judge, "judge"),
            summarizer=chat(team.summarizer, "summarizer"),
        )

    ReplayBundle.embedder = lambda self: TwinEmbedder(embedder(self), "embed", embed_s, stats)
    ReplayBundle.scorer = lambda self: TwinScorer(scorer(self), "scorer", scorer_s, stats)
    ReplayBundle.team_for = twin_team_for

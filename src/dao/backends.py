"""Model-access backends: chat completion, sentence embedding, and
completion scoring.

Every capability has an HTTP client speaking the common JSON wire format
and a deterministic offline twin, so the whole engine runs and is tested
without network access. Nothing outside this module performs I/O to model
servers.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from dataclasses import KW_ONLY, dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from .errors import (
    HttpStatusError,
    MalformedResponse,
    RateLimited,
    ScriptExhausted,
    TransportError,
    ZeroVector,
)

if TYPE_CHECKING:
    import requests

# CPython's own digest modules: `import hashlib` would load `_hashlib` and
# with it OpenSSL, which no replay or offline run needs. Both give
# hashlib's digests; hashlib stays the fallback where they are missing.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b


def sha256_prefix(text: str, length: int) -> str:
    """The first `length` hex digits of the sha256 of `text` in UTF-8,
    which names a prompt or a reply in a message or a transcript."""
    return sha256(text.encode("utf-8")).hexdigest()[:length]


@dataclass(frozen=True)
class ChatMessage:
    """A chat message, which nothing in `dao` reads: a chat call is its
    prompt. The frozen benchmark tests (`bench/tests/test_bench.py`) still
    build one; the benchmark change that stops them deletes it."""

    role: str
    content: str


class ChatBackend(Protocol):
    # One agent turn is one prompt, sent as the request's one user message.
    def complete(self, prompt: str, temperature: float = 0.0) -> str: ...


class EmbeddingBackend(Protocol):
    # `embed` must be safe to call from several threads: `build_index` overlaps its calls.
    def embed(self, text: str) -> np.ndarray: ...

    def dimension(self) -> int: ...


class ScoringBackend(Protocol):
    def negative_log_likelihood(self, prompt: str, completion: str) -> float: ...


# ---------------------------------------------------------------------------
# HTTP plumbing


def _bearer(api_key_env: str | None) -> dict[str, str] | None:
    """The Authorization header for the key in `api_key_env`, when set."""
    key = os.environ.get(api_key_env, "") if api_key_env else ""
    return {"Authorization": f"Bearer {key}"} if key else None


def _json_body(resp: requests.Response, attempts: int) -> dict:
    """The decoded body of a final response, which must be a JSON object."""
    if resp.status_code == 429:
        raise RateLimited(f"still throttled after {attempts} attempts")
    if not 200 <= resp.status_code < 300:
        raise HttpStatusError(resp.status_code, resp.text)
    try:
        data = resp.json()
    except ValueError as exc:
        raise MalformedResponse(f"response is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedResponse(f"response is not a JSON object: {data!r:.80}")
    return data


def _retry_after_s(value: str | None) -> float:
    """Seconds from a `Retry-After` header in its delta-seconds form; 0 when
    absent or given as an HTTP date."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


@dataclass
class HttpTransport:
    """What the HTTP clients share: the endpoint they POST JSON to and the
    retry policy of `_post`."""

    endpoint: str
    _: KW_ONLY
    timeout: float = 30.0
    max_attempts: int = 5
    backoff: float = 0.5

    def _post(self, body: dict, api_key_env: str | None = None) -> dict:
        """POST a JSON body and return the decoded JSON response.

        Retries on HTTP 429, on 5xx and on timeouts, up to `max_attempts`
        total attempts; other failures raise at once. Before retry n (from 0)
        it waits the server's `Retry-After` seconds, if given, plus a random
        share of `backoff * 2**n`, so callers throttled together spread out.
        A `Retry-After` longer than `timeout` raises `RateLimited` at once.
        """
        # Imported here, not at module top: only the HTTP clients need it, and
        # a replay run would otherwise pay its import time and memory.
        import requests

        headers = _bearer(api_key_env)
        for attempt in range(self.max_attempts):
            last = attempt + 1 == self.max_attempts
            try:
                resp = requests.post(self.endpoint, json=body, timeout=self.timeout, headers=headers)
            except requests.Timeout as exc:
                if last:
                    raise TransportError(f"timed out {self.max_attempts} times: {exc}") from exc
                retry_after = 0.0
            except requests.RequestException as exc:
                raise TransportError(str(exc)) from exc
            else:
                if last or not (resp.status_code == 429 or resp.status_code >= 500):
                    return _json_body(resp, self.max_attempts)
                retry_after = _retry_after_s(resp.headers.get("Retry-After"))
                if retry_after > self.timeout:
                    raise RateLimited(f"Retry-After {retry_after:g} s exceeds timeout {self.timeout:g} s")
            time.sleep(retry_after + random.uniform(0.0, self.backoff * 2**attempt))
        raise RateLimited(f"still throttled after {self.max_attempts} attempts")


@dataclass
class HttpChatBackend(HttpTransport):
    """Chat client for servers accepting `{model, messages, temperature}`
    and answering with `choices[0].message.content`; the prompt is the
    request's one user message."""

    model: str
    api_key_env: str | None = None

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        data = self._post(body, self.api_key_env)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise MalformedResponse("missing choices[0].message.content") from None
        if not isinstance(content, str):
            raise MalformedResponse("message content is not a string")
        return content


@dataclass
class HttpEmbeddingBackend(HttpTransport):
    """Embedding client for servers accepting `{model, input}` and
    answering with `data[0].embedding`. The corpus checks keep every text
    non-empty, so an empty one is a caller's bug and raises `ValueError`."""

    model: str
    dim: int
    api_key_env: str | None = None

    def dimension(self) -> int:
        return self.dim

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed the empty string")
        data = self._post({"model": self.model, "input": text}, self.api_key_env)
        try:
            vector = np.asarray(data["data"][0]["embedding"], dtype=np.float64)
        except (KeyError, IndexError, TypeError, ValueError):
            # ValueError: an element that is not a number, or a ragged array.
            raise MalformedResponse("missing or non-numeric data[0].embedding") from None
        if vector.ndim != 1 or vector.shape[0] != self.dim:
            raise MalformedResponse(
                f"embedding has shape {vector.shape}, expected ({self.dim},)"
            )
        if not np.isfinite(vector).all():
            raise MalformedResponse("embedding has a non-finite component")
        return vector


@dataclass
class HttpScoringBackend(HttpTransport):
    """Scoring client for servers accepting `{prompt, completion}` and
    answering with `{nll}` (total negative log-likelihood)."""

    api_key_env: str | None = None

    def negative_log_likelihood(self, prompt: str, completion: str) -> float:
        data = self._post({"prompt": prompt, "completion": completion}, self.api_key_env)
        nll = data.get("nll")
        if type(nll) not in (int, float) or not 0 <= nll < math.inf:
            raise MalformedResponse(f"bad nll field: {nll!r}")
        return float(nll)


# ---------------------------------------------------------------------------
# Deterministic offline twins


class ScriptedChatBackend:
    """Chat backend that replays a fixed list of replies.

    Each call returns the next reply, whatever the prompt, and raises
    `ScriptExhausted` when none is left. Calls are serialized internally
    so script order is preserved under concurrency. All calls are
    recorded in `.calls` for inspection by tests.
    """

    def __init__(self, replies: Sequence[str]):
        self._replies = list(replies)
        self._lock = threading.Lock()
        self.calls: list[tuple[str, str]] = []

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        with self._lock:
            if len(self.calls) == len(self._replies):
                raise ScriptExhausted(f"no replies left after {len(self._replies)} calls")
            reply = self._replies[len(self.calls)]
            self.calls.append((prompt, reply))
            return reply


def scripted_chat(script: Sequence[tuple[str, str]]) -> ScriptedChatBackend:
    """A scripted chat backend from a bundle's ("*", reply) pairs."""
    return ScriptedChatBackend([reply for _, reply in script])


class HashEmbedder:
    """Deterministic sentence embedder: signed character-trigram hashing.

    Each trigram is hashed to a bucket and a sign; counts are accumulated
    and L2-normalized. Identical strings always map to identical vectors,
    and the empty string raises `ValueError`, as the HTTP client does.
    Signed hashing spreads cosine distances over (0, 2) rather than
    capping them at 1, which keeps radius schedules above 1 meaningful.

    Each distinct trigram is hashed once per embedder: a memo maps it to
    its (bucket, sign) and holds one entry per distinct trigram seen, so
    its memory grows with the vocabulary of trigrams, not with the text
    embedded. Threads may share it, since they only ever store the same
    value under the same key.
    """

    def __init__(self, dim: int):
        if dim < 8:
            raise ValueError(f"dimension must be >= 8, got {dim}")
        self._dim = dim
        self._slots: dict[str, tuple[int, float]] = {}

    def dimension(self) -> int:
        return self._dim

    def _slot(self, gram: str) -> tuple[int, float]:
        """The (bucket, sign) of one trigram."""
        digest = blake2b(gram.encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        return value % self._dim, 1.0 if (value >> 63) & 1 == 0 else -1.0

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed the empty string")
        grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
        # Counts are whole numbers, so summing in a list first gives the
        # same floats as adding into the array one trigram at a time.
        counts = [0.0] * self._dim
        slots = self._slots
        for gram in grams:
            slot = slots.get(gram)
            if slot is None:
                slot = slots[gram] = self._slot(gram)
            counts[slot[0]] += slot[1]
        vector = np.array(counts, dtype=np.float64)
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            raise ZeroVector(f"trigram signs cancelled for {text!r}")
        return vector / norm


@dataclass
class KeyedScorer:
    """Deterministic scorer with controllable, ordered risks.

    A key (expected answer) applies to a prompt when its matcher is `"*"`
    or a substring of the prompt. A completion's cost against one key is
    a sum of per-token costs over its whitespace tokens: `match_cost`
    where the token equals the key token at the same position,
    `miss_cost` otherwise, times `scale`. The score is the lowest cost
    over every key that applies, or the cost against `""` when none does.
    Sums over tokens are non-negative and grow monotonically when the
    completion is extended; among equal-length completions a key that
    applies scores lowest.
    """

    keys: Sequence[tuple[str, str]] = ()
    match_cost: float = 0.05
    miss_cost: float = 1.0
    scale: float = 1.0

    def negative_log_likelihood(self, prompt: str, completion: str) -> float:
        keys = [key.split() for matcher, key in self.keys if matcher == "*" or matcher in prompt]
        return min(self._cost(key, completion.split()) for key in keys or [[]]) * self.scale

    def _cost(self, key_tokens: list[str], tokens: list[str]) -> float:
        total = 0.0
        for i, token in enumerate(tokens):
            matched = i < len(key_tokens) and token == key_tokens[i]
            total += self.match_cost if matched else self.miss_cost
        return total

import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
import requests
from hypothesis import given, strategies as st

from dao.backends import (
    HashEmbedder,
    HttpChatBackend,
    HttpEmbeddingBackend,
    HttpScoringBackend,
    KeyedScorer,
    _bearer,
    scripted_chat,
)
from dao.errors import (
    HttpStatusError,
    MalformedResponse,
    RateLimited,
    ScriptExhausted,
    TransportError,
)


# ---------------------------------------------------------------------------
# Stub HTTP server


class _StubHandler(BaseHTTPRequestHandler):
    throttle_counts: dict[str, int] = {}
    captured_bodies: list[dict] = []

    def log_message(self, *args):
        pass

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        return json.loads(self.rfile.read(length))

    def _reply(self, status: int, payload) -> None:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        body = self._read_body()
        if self.path == "/chat":
            self.captured_bodies.append(body)
            content = "echo: " + body["messages"][-1]["content"]
            self._reply(200, {"choices": [{"message": {"content": content}}]})
        elif self.path == "/chat-throttled":
            count = self.throttle_counts.get(self.path, 0)
            self.throttle_counts[self.path] = count + 1
            if count == 0:
                self._reply(429, {"error": "slow down"})
            else:
                self._reply(200, {"choices": [{"message": {"content": "ok after retry"}}]})
        elif self.path == "/chat-always-throttled":
            self._reply(429, {"error": "slow down"})
        elif self.path == "/chat-missing-choices":
            self._reply(200, {"unexpected": True})
        elif self.path == "/chat-bad-json":
            self._reply(200, b"this is not json")
        elif self.path == "/chat-500":
            self._reply(500, {"error": "boom"})
        elif self.path == "/embed":
            self._reply(200, {"data": [{"embedding": [1.0] * 8}]})
        elif self.path == "/score":
            self._reply(200, {"nll": 1.25})
        elif self.path == "/score-negative":
            self._reply(200, {"nll": -1.0})
        elif self.path == "/score-nan":
            self._reply(200, b'{"nll": NaN}')
        elif self.path == "/embed-strings":
            self._reply(200, {"data": [{"embedding": ["x"]}]})
        elif self.path == "/embed-ragged":
            self._reply(200, {"data": [{"embedding": [[1.0, 2.0], [3.0]]}]})
        elif self.path == "/embed-nan":
            self._reply(200, b'{"data": [{"embedding": [1.0, NaN, 1.0, 1.0, 1.0, 1.0, 1.0, Infinity]}]}')
        else:
            self._reply(404, {"error": "no such path"})


@pytest.fixture(scope="module")
def stub_server():
    _StubHandler.throttle_counts = {}
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_bearer_header_only_when_key_is_set(monkeypatch):
    monkeypatch.setenv("DAO_TEST_KEY", "secret")
    assert _bearer("DAO_TEST_KEY") == {"Authorization": "Bearer secret"}
    monkeypatch.setenv("DAO_TEST_KEY", "")
    assert _bearer("DAO_TEST_KEY") is None
    monkeypatch.delenv("DAO_TEST_KEY")
    assert _bearer("DAO_TEST_KEY") is None
    assert _bearer(None) is None


def test_http_chat_returns_first_choice_content(stub_server):
    backend = HttpChatBackend(endpoint=f"{stub_server}/chat", model="m")
    reply = backend.complete("hello there")
    assert reply == "echo: hello there"


def test_http_chat_request_body_is_exactly_the_wire_contract(stub_server):
    _StubHandler.captured_bodies.clear()
    backend = HttpChatBackend(endpoint=f"{stub_server}/chat", model="m")
    backend.complete("ping", temperature=0.0)
    assert _StubHandler.captured_bodies == [
        {
            "model": "m",
            "messages": [{"role": "user", "content": "ping"}],
            "temperature": 0.0,
        }
    ]


def test_http_chat_retries_on_429_then_succeeds(stub_server):
    backend = HttpChatBackend(endpoint=f"{stub_server}/chat-throttled", model="m", backoff=0.0)
    assert backend.complete("x") == "ok after retry"


def test_http_chat_rate_limited_after_max_attempts(stub_server):
    backend = HttpChatBackend(
        endpoint=f"{stub_server}/chat-always-throttled", model="m", max_attempts=3, backoff=0.0
    )
    with pytest.raises(RateLimited):
        backend.complete("x")


class _Reply:
    def __init__(self, status, payload=None, retry_after=None):
        self.status_code, self._payload = status, payload
        self.headers = {"Retry-After": retry_after} if retry_after is not None else {}
        self.text = json.dumps(payload)

    def json(self):
        return self._payload


def _scripted_post(monkeypatch, outcomes):
    """Replace requests.post and time.sleep; each post takes the next outcome,
    raising it if it is an exception. Returns the posts and sleeps seen."""
    posts, sleeps = [], []

    def post(url, **kwargs):
        posts.append(url)
        outcome = outcomes[len(posts) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setattr("dao.backends.time.sleep", sleeps.append)
    return posts, sleeps


_OK = {"nll": 1.5}


def test_post_retries_5xx_and_timeouts_with_jittered_backoff(monkeypatch):
    posts, sleeps = _scripted_post(
        monkeypatch, [_Reply(503), requests.Timeout("slow"), _Reply(500), _Reply(200, _OK)]
    )
    scorer = HttpScoringBackend(endpoint="http://scorer.invalid/score", max_attempts=4, backoff=0.5)
    assert scorer.negative_log_likelihood("p", "c") == 1.5
    assert len(posts) == 4 and len(sleeps) == 3
    for attempt, slept in enumerate(sleeps):
        assert 0.0 <= slept <= 0.5 * 2**attempt


def test_post_waits_at_least_retry_after(monkeypatch):
    posts, sleeps = _scripted_post(
        monkeypatch, [_Reply(429, retry_after="3"), _Reply(503, retry_after="soon"), _Reply(200, _OK)]
    )
    scorer = HttpScoringBackend(endpoint="http://scorer.invalid/score", backoff=0.25)
    assert scorer.negative_log_likelihood("p", "c") == 1.5
    assert 3.0 <= sleeps[0] <= 3.25
    assert 0.0 <= sleeps[1] <= 0.5  # an HTTP-date Retry-After falls back to backoff


def test_retry_after_longer_than_timeout_fails_at_once(monkeypatch):
    posts, sleeps = _scripted_post(
        monkeypatch, [_Reply(429, retry_after="86400"), _Reply(200, _OK), _Reply(200, _OK)]
    )
    scorer = HttpScoringBackend(endpoint="http://scorer.invalid/score", timeout=30.0)
    with pytest.raises(RateLimited, match="86400"):
        scorer.negative_log_likelihood("p", "c")
    assert len(posts) == 1 and sleeps == []


@pytest.mark.parametrize(
    "failure, error",
    [(503, HttpStatusError), (429, RateLimited), ("timeout", TransportError)],
)
def test_post_gives_up_after_max_attempts(monkeypatch, failure, error):
    outcome = requests.Timeout("slow") if failure == "timeout" else _Reply(failure)
    posts, sleeps = _scripted_post(monkeypatch, [outcome] * 3)
    scorer = HttpScoringBackend(endpoint="http://scorer.invalid/score", max_attempts=3)
    with pytest.raises(error):
        scorer.negative_log_likelihood("p", "c")
    assert len(posts) == 3 and len(sleeps) == 2


def test_post_does_not_retry_other_failures(monkeypatch):
    posts, sleeps = _scripted_post(monkeypatch, [_Reply(404, {"error": "no"})])
    scorer = HttpScoringBackend(endpoint="http://scorer.invalid/score")
    with pytest.raises(HttpStatusError):
        scorer.negative_log_likelihood("p", "c")
    posts, sleeps = _scripted_post(monkeypatch, [requests.ConnectionError("refused")])
    with pytest.raises(TransportError):
        scorer.negative_log_likelihood("p", "c")
    assert len(posts) == 1 and sleeps == []


@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "response is not a JSON object: []"),
        ("ok", "response is not a JSON object: 'ok'"),
        (None, "response is not a JSON object: None"),
        ({"nll": True}, "bad nll field: True"),
    ],
)
def test_http_scoring_body_without_a_numeric_nll_is_malformed(monkeypatch, payload, message):
    _scripted_post(monkeypatch, [_Reply(200, payload)])
    scorer = HttpScoringBackend(endpoint="http://scorer.invalid/score")
    with pytest.raises(MalformedResponse) as raised:
        scorer.negative_log_likelihood("p", "c")
    assert str(raised.value) == message


def test_http_chat_missing_choices_is_malformed(stub_server):
    backend = HttpChatBackend(endpoint=f"{stub_server}/chat-missing-choices", model="m")
    with pytest.raises(MalformedResponse):
        backend.complete("x")


def test_http_chat_non_json_is_malformed(stub_server):
    backend = HttpChatBackend(endpoint=f"{stub_server}/chat-bad-json", model="m")
    with pytest.raises(MalformedResponse):
        backend.complete("x")


def test_http_chat_content_that_is_not_a_string_is_malformed(monkeypatch):
    _scripted_post(monkeypatch, [_Reply(200, {"choices": [{"message": {"content": 5}}]})])
    backend = HttpChatBackend(endpoint="http://chat.invalid/chat", model="m")
    with pytest.raises(MalformedResponse, match="^message content is not a string$"):
        backend.complete("x")


def test_http_chat_500_raises_status_error(stub_server):
    backend = HttpChatBackend(endpoint=f"{stub_server}/chat-500", model="m", backoff=0.0)
    with pytest.raises(HttpStatusError) as excinfo:
        backend.complete("x")
    assert excinfo.value.code == 500


def test_http_chat_unreachable_is_transport_error():
    backend = HttpChatBackend(endpoint="http://127.0.0.1:1/chat", model="m")
    with pytest.raises(TransportError):
        backend.complete("x")


def test_http_embedding_backend(stub_server):
    backend = HttpEmbeddingBackend(endpoint=f"{stub_server}/embed", model="m", dim=8)
    vec = backend.embed("hello")
    assert vec.shape == (8,)


def test_http_embedding_dimension_mismatch(stub_server):
    backend = HttpEmbeddingBackend(endpoint=f"{stub_server}/embed", model="m", dim=16)
    with pytest.raises(MalformedResponse):
        backend.embed("hello")


def test_http_scoring_backend(stub_server):
    backend = HttpScoringBackend(endpoint=f"{stub_server}/score")
    assert backend.negative_log_likelihood("p", "c") == 1.25


def test_http_scoring_negative_nll_is_malformed(stub_server):
    backend = HttpScoringBackend(endpoint=f"{stub_server}/score-negative")
    with pytest.raises(MalformedResponse):
        backend.negative_log_likelihood("p", "c")


def test_http_scoring_nan_nll_is_malformed(stub_server):
    backend = HttpScoringBackend(endpoint=f"{stub_server}/score-nan")
    with pytest.raises(MalformedResponse, match="bad nll field: nan"):
        backend.negative_log_likelihood("p", "c")


def test_http_embedding_non_finite_component_is_malformed(stub_server):
    backend = HttpEmbeddingBackend(endpoint=f"{stub_server}/embed-nan", model="m", dim=8)
    with pytest.raises(MalformedResponse, match="non-finite"):
        backend.embed("hello")


@pytest.mark.parametrize("path", ["embed-strings", "embed-ragged"])
def test_http_embedding_of_non_numbers_is_malformed(stub_server, path):
    backend = HttpEmbeddingBackend(endpoint=f"{stub_server}/{path}", model="m", dim=8)
    with pytest.raises(MalformedResponse, match=r"^missing or non-numeric data\[0\]\.embedding$"):
        backend.embed("hello")


# ---------------------------------------------------------------------------
# Scripted chat


def test_scripted_wildcard_reply():
    backend = scripted_chat([("*", "[]")])
    assert backend.complete("anything at all") == "[]"


def test_scripted_replies_consumed_in_order():
    backend = scripted_chat([("*", "first"), ("*", "second")])
    assert backend.complete("a") == "first"
    assert backend.complete("b") == "second"


def test_scripted_exhausted_on_extra_call():
    backend = scripted_chat([("*", "one"), ("*", "two")])
    backend.complete("a")
    backend.complete("b")
    with pytest.raises(ScriptExhausted):
        backend.complete("c")


# ---------------------------------------------------------------------------
# Hash embedder


def test_hash_embedder_deterministic():
    emb = HashEmbedder(64)
    assert np.array_equal(emb.embed("abc"), emb.embed("abc"))


def test_hash_embedder_distinct_inputs_differ():
    emb = HashEmbedder(64)
    distance = 1.0 - emb.embed("abc") @ emb.embed("abd")
    assert 0.0 < distance <= 2.0


def test_hash_embedder_empty_text():
    with pytest.raises(ValueError, match="cannot embed the empty string"):
        HashEmbedder(32).embed("")


def test_hash_embedder_minimum_dimension():
    with pytest.raises(ValueError):
        HashEmbedder(4)


def test_hash_embedder_unit_norm():
    emb = HashEmbedder(32)
    assert abs(np.linalg.norm(emb.embed("some sentence with words")) - 1.0) < 1e-9


@given(st.text(min_size=1, max_size=40))
def test_hash_embedder_always_unit_or_error(text):
    emb = HashEmbedder(16)
    try:
        vec = emb.embed(text)
    except Exception:
        return
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def _unmemoized_hash_embed(text, dim):
    """The embedder's loop without its memo: hash every trigram, add into the array."""
    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
    vector = np.zeros(dim, dtype=np.float64)
    for gram in grams:
        value = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big")
        vector[value % dim] += 1.0 if (value >> 63) & 1 == 0 else -1.0
    return vector / float(np.linalg.norm(vector))


_CORPUS_TEXTS = [
    json.loads(line)["text"]
    for line in (Path(__file__).parent / "fixtures" / "corpus_small.jsonl").read_text().splitlines()
    if line.strip()
]


def test_hash_embedder_memo_gives_the_unmemoized_bytes():
    emb = HashEmbedder(64)
    for text in _CORPUS_TEXTS + ["ab", "Überfall in Zürich — 東京で攻撃 ."]:
        assert emb.embed(text).tobytes() == _unmemoized_hash_embed(text, 64).tobytes(), text


def test_hash_embedder_warm_memo_gives_the_same_bytes():
    emb = HashEmbedder(64)
    cold = [emb.embed(text).tobytes() for text in _CORPUS_TEXTS]
    assert [emb.embed(text).tobytes() for text in _CORPUS_TEXTS] == cold


def test_hash_embedder_memo_shared_across_threads():
    expected = [_unmemoized_hash_embed(text, 64).tobytes() for text in _CORPUS_TEXTS]
    emb = HashEmbedder(64)
    results = {}

    def work(i):
        results[i] = [emb.embed(text).tobytes() for text in _CORPUS_TEXTS[i % 2 :: 1 + i % 3]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(8):
        assert results[i] == expected[i % 2 :: 1 + i % 3]


# ---------------------------------------------------------------------------
# Keyed scorer


def test_keyed_scorer_prefers_key_phrase():
    scorer = KeyedScorer(keys=[("*", '["Life:Die", "killed"]')])
    risk_key = scorer.negative_log_likelihood("prompt", '["Life:Die", "killed"]')
    risk_other = scorer.negative_log_likelihood("prompt", '["Life:Die", "wounded"]')
    assert risk_key < risk_other


def test_keyed_scorer_deterministic():
    scorer = KeyedScorer(keys=[("*", "a b c")])
    first = scorer.negative_log_likelihood("p", "a b d")
    second = scorer.negative_log_likelihood("p", "a b d")
    assert first == second


def test_keyed_scorer_matcher_routes_by_prompt():
    scorer = KeyedScorer(keys=[("alpha", "x"), ("beta", "y")])
    assert scorer.negative_log_likelihood("beta prompt", "y") == pytest.approx(0.05)
    assert scorer.negative_log_likelihood("alpha prompt", "y") == pytest.approx(1.0)


def test_keyed_scorer_scores_against_every_matching_key():
    scorer = KeyedScorer(keys=[("alpha", "x"), ("alpha", "y"), ("beta", "z")])
    assert scorer.negative_log_likelihood("alpha prompt", "x") == pytest.approx(0.05)
    assert scorer.negative_log_likelihood("alpha prompt", "y") == pytest.approx(0.05)
    assert scorer.negative_log_likelihood("alpha prompt", "z") == pytest.approx(1.0)


def test_keyed_scorer_no_key_all_misses():
    scorer = KeyedScorer(keys=[])
    assert scorer.negative_log_likelihood("p", "one two three") == pytest.approx(3.0)


@given(
    st.text(alphabet="ab ", min_size=1, max_size=30),
    st.text(alphabet="ab ", min_size=1, max_size=30),
)
def test_keyed_scorer_monotone_under_extension(completion, extension):
    scorer = KeyedScorer(keys=[("*", "a b a")])
    base = scorer.negative_log_likelihood("p", completion)
    extended = scorer.negative_log_likelihood("p", completion + " " + extension)
    assert extended >= base
    assert base >= 0.0

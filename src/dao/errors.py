"""Exception types shared across the engine.

A `DaoError` is a fault of a run's inputs or backends, never of the code.
`dao run` raises an input fault (in the config, the bundle, the ontology,
the corpus or `--input`) before the index build. A backend fault inside a
session ends that session and reaches `dao run`'s writer as the result's
`error`. A programming error is a plain Python exception and propagates.
"""

from os import PathLike


class DaoError(Exception):
    """Base class for faults of a run's inputs or backends."""


class FormatError(DaoError):
    """A structured input file has a malformed record."""

    def __init__(self, path: str | PathLike, line_no: int, message: str):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.line_no = line_no


class DimensionMismatch(DaoError):
    """Vector dimensions disagree with the index or backend metadata."""


class ZeroVector(DaoError):
    """A zero vector cannot be L2-normalized."""


class BackendError(DaoError):
    """Base class for failures of chat, embedding, or scoring backends."""


class TransportError(BackendError):
    """The HTTP request never produced a response."""


class HttpStatusError(BackendError):
    """The server answered with a non-success status code."""

    def __init__(self, code: int, body: str = ""):
        super().__init__(f"HTTP {code}: {body[:200]}")
        self.code = code


class RateLimited(BackendError):
    """Still throttled after exhausting the retry budget."""


class MalformedResponse(BackendError):
    """The response body does not match the wire contract."""


class ScriptExhausted(BackendError):
    """A scripted backend ran out of replies."""


class InvalidTeam(DaoError):
    """An agent team is malformed."""


class EmptyCalibrationSet(DaoError):
    """A task has no calibration pairs, or no initial threshold to run with."""


class ParseFailure(DaoError):
    """Agent output could not be parsed into a structured answer."""


class InvalidConfig(DaoError, ValueError):
    """A run config or replay bundle is not JSON, or holds a key or value it may not."""

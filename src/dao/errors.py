"""Exception types shared across the engine."""

from os import PathLike


class DaoError(Exception):
    """Base class for all engine errors."""


class FormatError(DaoError):
    """A structured input file has a malformed record."""

    def __init__(self, path: str | PathLike, line_no: int, message: str):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.line_no = line_no


class DimensionMismatch(DaoError):
    """Vector dimensions disagree with the index or backend metadata."""


class ZeroVector(DaoError):
    """A zero vector cannot be L2-normalized."""


class EmptyText(DaoError):
    """An embedding backend was asked to embed the empty string."""


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


class ScriptNoMatch(BackendError):
    """A replay bundle has no scripts for a sentence of the run."""


class InvalidTeam(DaoError):
    """An agent team is malformed."""


class EmptyCalibrationSet(DaoError):
    """Calibration was requested with no risk scores available."""


class MissingBinding(DaoError):
    """A prompt template placeholder has no value bound."""


class ParseFailure(DaoError):
    """Agent output could not be parsed into a structured answer."""


class NoTableFound(ParseFailure):
    """The text contains no pipe-delimited table."""


class HeaderMismatch(ParseFailure):
    """Pipe tables exist but none carries the expected header."""


class InvalidConfig(DaoError, ValueError):
    """A run config or replay bundle is not JSON, or holds a key or value it may not."""

"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ValidationError and subclasses map to 1,
BackendError and subclasses to 2, interruption with the results caches
preserved to 3.
"""


class GraphsynthError(Exception):
    """Base class for all package errors."""


class ValidationError(GraphsynthError):
    """Bad input data, schema violation, or bad configuration."""


class CorpusError(ValidationError):
    """Malformed corpus record; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ConfigurationError(ValidationError):
    """Missing or inconsistent run configuration."""


class CheckpointError(ValidationError):
    """Stage record or results cache unusable for resumption (the record is
    unreadable, or the caches were written under another config fingerprint)."""


class BackendError(GraphsynthError):
    """Failure talking to a generation/judging/embedding backend."""


class TransportError(BackendError):
    """Endpoint unreachable or persistently failing; carries attempt count."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class ProtocolError(BackendError):
    """Endpoint reachable but its response did not match the wire format."""


class ExtractionError(GraphsynthError):
    """Model output could not be parsed into concepts; carries raw output."""

    def __init__(self, message: str, raw_output: str = ""):
        super().__init__(message)
        self.raw_output = raw_output

"""Exception hierarchy for the causal-rag toolkit, and `warn`, the one way
it logs a warning.

A fault in an input file is a `MalformedRecordError`, raised when the file
is read; a fault in a provider call is a `ProviderError`. A bad argument is
a plain `ValueError`."""


class CausalRagError(Exception):
    """Base class for all errors raised by this package."""


# --- input files ------------------------------------------------------------


class MalformedRecordError(CausalRagError):
    """An input file (a dataset, the example repository, a transcript, a
    prediction file, an embedding cache or a prompt catalog) violates its
    format. The message names the file and, where one line is at fault,
    the line. `message` is the reason, or the KeyError (a missing field),
    TypeError or ValueError with which a record parser refused the line."""

    def __init__(self, message, line_number=None, path=None):
        if isinstance(message, Exception):
            message = f"missing field {message}" if isinstance(message, KeyError) else str(message)
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_number = line_number
        self.path = path


# --- providers (chat + embeddings) ------------------------------------------


class ProviderError(CausalRagError):
    """A provider call failed in a way the pipeline cannot recover from."""


class TransportError(ProviderError):
    """A network failure or an HTTP 429 that persisted through all retries."""


class ReplayMissError(ProviderError):
    """Replay backend has no transcript entry for the request hash."""

    def __init__(self, request_hash):
        super().__init__(f"no transcript entry for request hash {request_hash}")
        self.request_hash = request_hash


class UnparseableResponseError(CausalRagError):
    """A model response could not be parsed into the expected structure."""


# --- warnings ---------------------------------------------------------------


def warn(module: str, message: str, *args) -> None:
    """Log a warning on the logger named `module` (the caller's `__name__`).
    `logging` is imported on the first warning, so a run that warns about
    nothing never loads it."""
    import logging

    logging.getLogger(module).warning(message, *args)

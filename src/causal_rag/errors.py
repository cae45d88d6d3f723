"""Exception hierarchy for the causal-rag toolkit."""


class CausalRagError(Exception):
    """Base class for all errors raised by this package."""


# --- corpus parsing ---------------------------------------------------------


class TagError(CausalRagError):
    """Malformed cause/effect tag markup in a sentence."""


class UnbalancedTagsError(TagError):
    """A cause or effect tag was opened without a matching close (or closed
    without an open)."""


class NestedTagsError(TagError):
    """A tag was opened while another tag was still open."""


class EmptyPhraseError(TagError):
    """A tag pair encloses only whitespace."""


class TagPairingError(TagError):
    """Balanced tags that do not form exactly one cause-effect pair.

    Inline markup is only accepted for single-pair sentences; multi-pair
    records must list their pairs explicitly in the canonical JSONL format.
    """


class UnknownFormatError(CausalRagError):
    """Dataset format name not recognized."""


class MalformedRecordError(CausalRagError):
    """A dataset, repository or JSONL store record violates its format
    contract. `message` is the reason, or the KeyError (a missing field),
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


class EmptyDatasetError(CausalRagError):
    """Dataset file contains no records."""


# --- repository persistence -------------------------------------------------


class SchemaVersionMismatchError(CausalRagError):
    """Repository file carries an unsupported schema_version."""


# --- providers (chat + embeddings) ------------------------------------------


class ProviderError(CausalRagError):
    """A provider call failed in a way the pipeline cannot recover from."""


class TransportError(ProviderError):
    """Network-level failure that persisted through all retries."""


class RateLimitedError(ProviderError):
    """Provider kept rate-limiting through all retries."""


class ReplayMissError(ProviderError):
    """Replay backend has no transcript entry for the request hash."""

    def __init__(self, request_hash):
        super().__init__(f"no transcript entry for request hash {request_hash}")
        self.request_hash = request_hash


class EmptyCompletionError(ProviderError):
    """Provider returned an empty completion (truncated or filtered)."""


class UnparseableResponseError(CausalRagError):
    """A model response could not be parsed into the expected structure."""


# --- embeddings and vectors -------------------------------------------------


class DimensionMismatchError(CausalRagError, ValueError):
    """Vectors of differing dimension were combined, or a provider (or an
    embedding cache line) changed the output dimension of a model."""


class ZeroVectorError(CausalRagError):
    """Cosine similarity is undefined for an all-zero vector."""


# --- retrieval and evaluation -----------------------------------------------


class EmptyConnectiveError(CausalRagError):
    """Connective similarity requires two non-empty strings."""


class EmptyInputError(CausalRagError):
    """Metric computation received no instances."""

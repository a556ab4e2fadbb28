"""Exception hierarchy shared across the package."""


class EncSearchError(Exception):
    """Base class for all package errors."""


class CorpusError(EncSearchError):
    """Bad corpus input: empty corpus, duplicate ids, out-of-dictionary terms."""


class PartitioningError(EncSearchError):
    """Invalid clustering request (e.g. partition count out of range)."""


class WeightingError(EncSearchError):
    """Dimension mismatch or missing owner weights."""


class PaddingError(EncSearchError):
    """Invalid noise-model parameters or degenerate classifier input."""


class AspeError(EncSearchError):
    """Key generation failure, dimension mismatch, or negative query entries."""


class ForestError(EncSearchError):
    """Tree/forest misuse: unknown doc or partition, empty selection."""

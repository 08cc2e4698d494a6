"""Exception hierarchy shared across the package."""


class CollateError(Exception):
    """Base class for all package-specific failures."""


class DegenerateRange(CollateError):
    """Raw scores have zero range; the scorer is constant and cannot be scaled."""


class WindowTooShort(CollateError):
    """Window has fewer slots than one patch."""


class NonFiniteInput(CollateError):
    """NaN or Inf encountered in an input tensor."""


class NonConvergence(CollateError):
    """Training produced a non-finite loss."""


class ShapeMismatch(CollateError):
    """Tensor shapes disagree with the model contract."""


class MalformedResponse(CollateError):
    """LLM response could not be parsed into the expected number of scores."""


class ScoreOutOfRange(CollateError):
    """An LLM score lies outside [0, 1], or a replayed detector score is negative."""


class MissingFixture(CollateError):
    """An LLM score file has no entry for a requested window, or mock mode has no file."""


class DegenerateScores(CollateError):
    """All scores are zero; the half-Gaussian scale would be undefined."""


class LengthMismatch(CollateError):
    """Score vectors have different lengths."""


class InsufficientRoom(CollateError):
    """Requested anomalies do not fit into the series without overlap."""


class TooShort(CollateError):
    """Series too short to split."""


class ParseError(CollateError):
    """CSV row could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MissingColumn(CollateError):
    """CSV header lacks a required column."""


class NoPositives(CollateError):
    """Threshold selection needs at least one positive label."""


class ConfigError(CollateError):
    """Run configuration failed validation."""


class MissingArtifact(CollateError):
    """A prerequisite artifact (checkpoint, scores file, dataset) is absent."""

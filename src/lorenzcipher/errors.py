"""Exception hierarchy shared across the package.

Two broad families matter to callers: `FileFormatError` covers unreadable
or malformed input files, while `DomainError` covers numerically or
structurally invalid data. The CLI maps these onto distinct exit codes.
"""

from __future__ import annotations


class LorenzCipherError(Exception):
    """Base class for all package-specific errors."""


class FileFormatError(LorenzCipherError):
    """An input file exists but does not match its expected format."""


class PgmError(FileFormatError):
    """A PGM file violates the binary (P5) format rules."""


class DomainError(LorenzCipherError):
    """A value violates a numeric or structural precondition."""


class IntegrationBlowupError(DomainError):
    """An integration step produced a non-finite state.

    Carries the variant tag and the zero-based index of the offending step
    when known.
    """

    def __init__(self, message: str, variant: str | None = None,
                 step_index: int | None = None):
        super().__init__(message)
        self.variant = variant
        self.step_index = step_index


class DimensionMismatchError(DomainError):
    """Image and keystream (or config) dimensions disagree."""


class UndefinedCorrelationError(DomainError):
    """A correlation is requested for a series with zero standard deviation."""

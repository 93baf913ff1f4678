"""Exception hierarchy shared across the package.

Two broad families matter to callers: `FileFormatError` covers unreadable
or malformed input files, while `DomainError` covers numerically or
structurally invalid data. The CLI maps these onto distinct exit codes.
The argument rules and refusals that several modules share live here too.
"""

from __future__ import annotations

import math

__all__ = ["LorenzCipherError", "FileFormatError", "DomainError",
           "IntegrationBlowupError"]


class LorenzCipherError(Exception):
    """Base class for all package-specific errors."""


class FileFormatError(LorenzCipherError):
    """An input file exists but does not match its expected format."""


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


def _require_type(value, cls, what: str) -> None:
    """Refuse `value` unless it is an instance of `cls` (a class or a tuple
    of them); `what` says what it must be, e.g. "image must be a GrayImage"."""
    if not isinstance(value, cls):
        raise DomainError(f"{what}, got {type(value).__name__}")


def _require_choice(value, choices: tuple[str, ...], what: str) -> None:
    """Refuse `value` unless it is one of the strings `choices`; `what` names
    it. Only a str is compared, so an array cannot answer `in` ambiguously."""
    if not (isinstance(value, str) and value in choices):
        raise DomainError(f"unknown {what} {value!r}, expected one of {choices}")


def _store_floats(key, what: str, names: tuple[str, ...]) -> None:
    """Store each named field of `key` as a finite binary64 float, the one
    arithmetic the cipher is defined in; refuse anything not a real number."""
    for name in names:
        value = getattr(key, name)
        if type(value) is not float:
            import numbers
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{what} {name} is a {type(value).__name__}, not a real number")
            try:
                value = float(value)
            except OverflowError:  # not echoed: an int over 4300 digits cannot be printed
                raise DomainError(f"{what} {name} is too large for a binary64 float") from None
            object.__setattr__(key, name, value)
        if not math.isfinite(value):
            raise DomainError(f"{what} {name} must be finite, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    """Refuse anything but a plain int >= least (a bool is not a count). The
    message never echoes an int that str() could refuse (over 4300 digits)."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got "
                          f"{value if value > -2**63 else 'a huge negative int'}")


# lower_bound_error's refusal; the compiled key kernel gives the same one.
_NON_FINITE_PAIR = "pair contains non-finite samples"


def _allocation_error(what: str, count: int, per_item: str,
                      name: str = "n_steps") -> DomainError:
    # A power of two, because str() refuses an int past 4300 digits.
    return DomainError(f"cannot allocate {what} for {name} = "
                       f"2**{math.log2(count):.2f} ({per_item})")

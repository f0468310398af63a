"""Exception hierarchy shared across the package, and its one input decoder.

Every error carries a short machine-parseable ``code`` so the CLI can emit
``error[<code>]: <message>`` lines and scripts can grep for the class of
failure without parsing prose.
"""

from __future__ import annotations


class MinecostError(Exception):
    """Base class for all package errors."""

    code = "error"


class DomainError(MinecostError, ValueError):
    """An input lies outside the mathematical domain of an operation."""

    code = "domain"


class UndefinedPriceError(MinecostError):
    """The production-cost price is undefined (zero block reward)."""

    code = "undefined-price"


class ParseError(MinecostError):
    """Malformed input text; carries the 1-based line number when known."""

    code = "parse"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(MinecostError):
    """Well-formed input that violates a dataset invariant."""

    code = "validation"


class SingularityError(MinecostError):
    """A regressor matrix or residual covariance is singular or unusable."""

    code = "singular"


class InsufficientDataError(MinecostError):
    """Too few observations for the requested estimation."""

    code = "insufficient-data"


class FetchError(MinecostError):
    """Remote download failed (transport, HTTP status, or empty payload)."""

    code = "fetch"


def _utf8_text(data: bytes, source, error: type[Exception]) -> str:
    """``data`` decoded as UTF-8, else ``error`` naming ``source`` and the line.

    One leading byte-order mark (U+FEFF), which spreadsheet exports write,
    is dropped. It is here so that ``cli`` and ``fetch`` decode without numpy.
    """
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(
            f"{source}:{line}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None


class CarriedForwardWarning(UserWarning):
    """A step-function lookup ran past the last table entry."""


class DegenerateThresholdWarning(UserWarning):
    """An episode threshold could not be formed (zero dispersion)."""

"""Shared exception types, and the bounded input excerpt error messages quote."""
from __future__ import annotations


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed, or an internal
    structural guarantee failed.  This always means a bug, never bad
    user input; the command line maps it to exit code 3."""


class FunctionalParseError(ValueError):
    """Bad user input to one of the small expression grammars."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


QUOTE_CHARS = 80  # longest input an error message quotes whole
QUOTE_BYTES = QUOTE_CHARS + 2  # UTF-8 bytes of a printed excerpt, its quotes included


def _fits(text: str) -> bool:
    return len(repr(text).encode()) <= QUOTE_BYTES


def quote(text: str, position: int = 0) -> str:
    """repr(text) where it fits in QUOTE_BYTES, else the repr of the widest
    window of at most QUOTE_CHARS characters around ``position`` that fits,
    with '...' outside the quotes where text was cut.  Printable ASCII other
    than backslash and quote gets the full QUOTE_CHARS characters."""
    if _fits(text):
        return repr(text)
    for width in range(QUOTE_CHARS, 0, -1):  # one character's repr always fits
        start = max(0, min(position - width // 2, len(text) - width))
        end = start + width
        if _fits(text[start:end]):
            break
    return f"{'...' if start else ''}{text[start:end]!r}{'...' if end < len(text) else ''}"


def brief(text: str) -> str:
    """text itself where it is printable and at most QUOTE_CHARS bytes, else quote(text)."""
    return text if text.isprintable() and len(text.encode()) <= QUOTE_CHARS else quote(text)

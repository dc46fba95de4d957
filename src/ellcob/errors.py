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


def quote(text: str, position: int = 0) -> str:
    """repr(text), or for a longer text the repr of QUOTE_CHARS characters
    around ``position``, with '...' outside the quotes where text was cut."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    start = max(0, min(position - QUOTE_CHARS // 2, len(text) - QUOTE_CHARS))
    end = start + QUOTE_CHARS
    return f"{'...' if start else ''}{text[start:end]!r}{'...' if end < len(text) else ''}"


def brief(text: str) -> str:
    """text itself where quote() would give it whole, else quote(text)."""
    return text if len(text) <= QUOTE_CHARS else quote(text)

"""Shared exception types, and the JSON file reader that raises one.

Everything here derives from a built-in exception so that callers who do not
care about the fine distinctions can still catch ``ValueError`` /
``RuntimeError`` as usual.
"""
from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "DivergenceError",
    "DomainTooSmallError",
    "InputFormatError",
    "ScaleRangeError",
]


class DivergenceError(RuntimeError):
    """A closure or fixed point does not exist.

    Raised by :meth:`Semiring.star`, hence by the Kleene star, and by the
    Bellman iterations when they still change after their budget plus one
    verification pass (the tropical signature of an improving cycle).
    """


class DomainTooSmallError(ValueError):
    """A grid computation would be dominated by boundary truncation.

    Raised when the effective support of a propagation kernel exceeds the
    extent of the grid it is applied on.
    """


class ScaleRangeError(ValueError):
    """A requested scale falls outside what the data or the arithmetic covers.

    Raised when a scale probes a region carrying no data (e.g. zero mass),
    and when a deformed coefficient ``|c|^{1/h}`` leaves double range.
    """


class InputFormatError(ValueError):
    """A text input (edge list, CSV grid, JSON polynomial, ...) is malformed.

    Carries the offending path and 1-based line number when known so that
    command-line tools can point at the exact spot.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        if where:
            message = f"{where} {message}"
        super().__init__(message)


def _load_json(path):
    """The decoded JSON file at ``path``; a syntax error raises
    :class:`InputFormatError` with its 1-based line."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc.msg}", path=str(path), line=exc.lineno) from None

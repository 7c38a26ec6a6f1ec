"""Shared exception types, and the JSON-lines record decoder that raises them."""

import json


class TagsumError(Exception):
    """Base class for all package errors."""


class ParseError(TagsumError, ValueError):
    """A file or document could not be parsed.

    Carries the 1-based line number when the source is line-oriented.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(TagsumError, ValueError):
    """An input violates a documented invariant or precondition."""


class ShapeError(ValidationError):
    """A tensor has the wrong shape; the message names the tensor."""


class NonFiniteLossError(TagsumError, ArithmeticError):
    """Training loss became NaN or infinite; carries a diagnostic dump."""

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump or {}


def parse_json_object(text: str, line: int) -> dict:
    """Decode one JSON-lines record that must be an object; anything else
    raises ``ParseError`` naming the line."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", line=line) from None
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply", line=line) from None
    if not isinstance(record, dict):
        raise ParseError(f"expected a JSON object, got {type(record).__name__}", line=line)
    return record

"""Shared exception types.  Every one is an `InputError`, the one type the CLI
maps to exit 2, and `payload_errors` folds every other payload error into a
SchemaError."""


class InputError(ValueError):
    """The input cannot be worked on; the CLI exits 2 with one line."""


class DimensionError(InputError):
    """Operands live over different generator counts / variable counts."""


class ParityError(InputError):
    """An element violates a required even/odd parity constraint."""


class DegreeBoundError(InputError):
    """An expanded composition would exceed the configured total-degree bound."""


class DomainError(InputError):
    """A geometric operation was requested outside its domain (e.g. antipodal log)."""


class SchemaError(InputError):
    """A JSON payload does not match the documented schema."""


class payload_errors:
    """``with payload_errors(kind):`` reports a missing key or bad value met
    while parsing a `kind` payload as ``SchemaError("bad <kind> payload: ...")``.

    An InputError raised inside the block passes through unchanged, and so
    does every exception other than KeyError, TypeError, ValueError and
    OverflowError (JSON's Infinity overflows int()).  So each from_json parses
    its nested payloads and checks shapes (generator counts, exponent lengths,
    parities) inside its block, and a nested shape error reads as it does when
    that payload is parsed alone.  Nested lists are taken through `nested`,
    and so is a list of integers (a subset, an exponent, an odd multi-index),
    so a string in its place is refused rather than iterated.
    A plain class rather than a generator context manager: parsers open one
    block per payload node, and this costs two method calls each.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind

    def __enter__(self):
        return self

    def nested(self, value) -> list:
        """value, which must be a JSON list: of nested payloads or of integers."""
        if type(value) is not list:
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return value

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None or issubclass(exc_type, InputError):
            return False
        if issubclass(exc_type, (KeyError, TypeError, ValueError, OverflowError)):
            raise SchemaError(f"bad {self.kind} payload: {exc}") from exc
        return False

"""Shared exception types, and the one policy that folds payload errors into SchemaError."""


class DimensionError(ValueError):
    """Operands live over different generator counts / variable counts."""


class ParityError(ValueError):
    """An element violates a required even/odd parity constraint."""


class DegreeBoundError(ValueError):
    """An expanded composition would exceed the configured total-degree bound."""


class DomainError(ValueError):
    """A geometric operation was requested outside its domain (e.g. antipodal log)."""


class SchemaError(ValueError):
    """A JSON payload does not match the documented schema."""


class payload_errors:
    """``with payload_errors(kind):`` reports a missing key or bad value met
    while parsing a `kind` payload as ``SchemaError("bad <kind> payload: ...")``.

    A SchemaError raised inside the block passes through unchanged, and so
    does every exception other than KeyError, TypeError, ValueError and
    OverflowError (JSON's Infinity overflows int()).  Each from_json checks the
    shape of what it parsed (generator counts, exponent lengths, parities)
    after this block, so those DimensionErrors and ParityErrors keep their
    type.  A container payload likewise only takes its nested lists in the
    block, through `nested`, and parses their items after it, so a nested
    shape error reads as it does when that payload is parsed alone.  A list
    of integers (a subset, an exponent, an odd multi-index) is taken through
    `nested` too, so a string in its place is refused rather than iterated.
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
        if exc_type is None or issubclass(exc_type, SchemaError):
            return False
        if issubclass(exc_type, (KeyError, TypeError, ValueError, OverflowError)):
            raise SchemaError(f"bad {self.kind} payload: {exc}") from exc
        return False

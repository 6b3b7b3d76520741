"""Shared exception types, and the one policy that folds payload errors into SchemaError."""

from contextlib import contextmanager


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


@contextmanager
def payload_errors(kind: str):
    """Report a missing key or bad value met while parsing a `kind` payload as a SchemaError.

    Each from_json calls its own constructor after this block, so that
    constructor's DimensionError or ParityError keeps its type.
    """
    try:
        yield
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(Infinity) overflows
        raise SchemaError(f"bad {kind} payload: {exc}") from exc

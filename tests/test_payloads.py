"""Wire payloads: every from_json either loads or raises an input error.

Each example starts from a valid payload of one wire type and damages it at
one node (replaces the node by an arbitrary JSON value, or drops a key or a
list item); the loader must then return an object or raise one of the errors
the CLI maps to exit 2, never anything else.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superjet import (
    GrassmannElement,
    GrassmannHom,
    MappingPoint,
    Polynomial,
    SchemaError,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
)
from superjet.cli import INPUT_ERRORS


def _valid_payloads():
    x = Polynomial.variable(2, 0)
    poly = Polynomial(2, {(0, 0): Fraction(1, 2), (2, 1): Fraction(-3)})
    sf = SuperFunction(2, 2, {0: poly, 3: x})
    phi = SuperMorphism(
        (1, 3), (1, 1),
        [SuperFunction(1, 3, {0: Polynomial.variable(1, 0), 3: Polynomial.one(1)})],
        [SuperFunction(1, 3, {4: Polynomial.variable(1, 0)})],
    )
    rational = GrassmannElement(3, {0: Fraction(2), 6: Fraction(-1, 3)})
    binary64 = GrassmannElement(2, {0: 0.25, 3: -1.5})
    odd = GrassmannElement(3, {1: Fraction(1), 7: Fraction(5)})
    return [
        (GrassmannElement, rational.to_json()),
        (GrassmannElement, binary64.to_json()),
        (GrassmannHom, GrassmannHom(2, 3, [odd, odd]).to_json()),
        (Polynomial, poly.to_json()),
        (SuperFunction, sf.to_json()),
        (SuperPoint, SuperPoint(3, [rational], [odd]).to_json()),
        (SuperMorphism, phi.to_json()),
        (MappingPoint, MappingPoint(2, phi).to_json()),
    ]


VALID = _valid_payloads()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def damaged(draw, node):
    """node with one sub-node replaced by arbitrary JSON, or one child dropped."""
    keys = []
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    action = draw(st.sampled_from(["replace", "descend", "drop"] if keys else ["replace"]))
    if action == "replace":
        return draw(json_values)
    key = draw(st.sampled_from(keys))
    out = dict(node) if isinstance(node, dict) else list(node)
    if action == "drop":
        del out[key]
    else:
        out[key] = draw(damaged(node[key]))
    return out


def test_valid_payloads_round_trip():
    for cls, payload in VALID:
        assert cls.from_json(payload).to_json() == payload


@given(st.data())
def test_every_damaged_payload_loads_or_is_an_input_error(data):
    cls, payload = data.draw(st.sampled_from(VALID))
    bad = data.draw(damaged(payload))
    try:
        cls.from_json(bad)
    except INPUT_ERRORS:
        pass


def test_a_missing_key_is_a_schema_error_for_every_wire_type():
    for cls in {cls for cls, _ in VALID}:
        try:
            cls.from_json({})
        except SchemaError as exc:
            assert str(exc).startswith(f"bad {cls.__name__} payload:")
        else:
            raise AssertionError(f"{cls.__name__}.from_json({{}}) loaded")


def test_an_infinite_count_is_a_schema_error():
    # JSON's Infinity reaches int(), which overflows instead of raising ValueError
    inf = float("inf")
    for cls, payload in VALID:
        count = next(key for key in ("n", "p", "source") if key in payload)
        with pytest.raises(SchemaError):
            cls.from_json(dict(payload, **{count: inf}))


def test_a_huge_generator_index_is_refused_before_its_mask_is_built():
    huge = 2**40
    payload = {"n": huge, "terms": [{"subset": [huge], "num": "1", "den": "1"}]}
    with pytest.raises(SchemaError):
        GrassmannElement.from_json(payload)

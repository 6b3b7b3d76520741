"""Wire payloads: every from_json either loads or raises an input error.

Each example starts from a valid payload of one wire type and damages it at
one node (replaces the node by an arbitrary JSON value, or drops a key or a
list item); the loader must then return an object or raise an InputError,
which the CLI maps to exit 2, never anything else.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import grassmann_elements, morphisms, polynomials, superfunctions, superpoints
from superjet import (
    DimensionError,
    GrassmannElement,
    GrassmannHom,
    InputError,
    MappingPoint,
    ParityError,
    Polynomial,
    SchemaError,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
)
from superjet.errors import payload_errors
from superjet.grassmann import MAX_GENERATORS


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
    except InputError:
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


def _integer_paths(node, path=()):
    """The path of every wire integer in node: each int, and each num/den string."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("num", "den"):
                yield path + (key,)
            else:
                yield from _integer_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _integer_paths(value, path + (i,))
    elif type(node) is int:
        yield path


def _replaced(node, path, value):
    """A copy of node with the value at path replaced."""
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


def test_every_wire_integer_refuses_a_float_or_a_bool():
    # int() used to truncate each of these silently: 1.7 read as 1, true as 1
    for cls, payload in VALID:
        paths = list(_integer_paths(payload))
        assert paths
        for path in paths:
            value = payload
            for key in path:
                value = value[key]
            value = int(value)
            wrongs = [float(value), value + 0.5] + ([bool(value)] if value in (0, 1) else [])
            for wrong in wrongs:
                with pytest.raises(SchemaError, match="not an integer"):
                    cls.from_json(_replaced(payload, path, wrong))


def test_a_huge_generator_index_is_refused_before_its_mask_is_built():
    huge = 2**40
    payload = {"n": huge, "terms": [{"subset": [huge], "num": "1", "den": "1"}]}
    with pytest.raises(SchemaError):
        GrassmannElement.from_json(payload)


# -- the encoders against a reference written from the wire format ------------


def reference_rational(c) -> dict:
    c = Fraction(c)
    return {"num": str(c.numerator), "den": str(c.denominator)}


def reference_grassmann(a: GrassmannElement) -> dict:
    items = []
    for mask in sorted(a.terms):
        c = a.terms[mask]
        subset = [i + 1 for i in range(a.n) if mask >> i & 1]
        if isinstance(c, float):
            items.append({"subset": subset, "value": c})
        else:
            items.append({"subset": subset, **reference_rational(c)})
    return {"n": a.n, "terms": items}


def reference_polynomial(f: Polynomial) -> dict:
    return {"p": f.p,
            "terms": [{"exp": list(e), **reference_rational(f.terms[e])} for e in sorted(f.terms)]}


coefficients = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(max_denominator=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def wide_grassmann_elements(draw):
    """Elements on up to MAX_GENERATORS generators, with int, Fraction and float coefficients."""
    n = draw(st.integers(min_value=0, max_value=MAX_GENERATORS))
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=(1 << n) - 1), coefficients,
                                 max_size=6))
    return GrassmannElement(n, terms)


def same_bytes(got: dict, want: dict) -> bool:
    """Equal wire payloads, with every key in the same order."""
    return json.dumps(got) == json.dumps(want)


@given(wide_grassmann_elements())
def test_grassmann_to_json_is_the_reference_encoding(a):
    assert same_bytes(a.to_json(), reference_grassmann(a))
    assert GrassmannElement.from_json(a.to_json()) == a


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda p: polynomials(p=p, coefficients=coefficients.filter(lambda c: type(c) is not float))))
def test_polynomial_to_json_is_the_reference_encoding(f):
    assert same_bytes(f.to_json(), reference_polynomial(f))
    assert Polynomial.from_json(f.to_json()) == f


@st.composite
def homs(draw):
    source, target = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    return GrassmannHom(source, target, [draw(grassmann_elements(n=target, parity=1))
                                         for _ in range(source)])


@st.composite
def mapping_points(draw):
    p, q = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    phi = draw(morphisms((p, q), (draw(st.integers(1, 2)), draw(st.integers(0, 2)))))
    return MappingPoint(draw(st.integers(0, q)), phi)


@given(st.one_of(
    grassmann_elements(), polynomials(), superfunctions(),
    superpoints(p=2, q=2), homs(), mapping_points(),
    mapping_points().map(lambda point: point.morphism),
))
def test_every_wire_type_reads_back_what_it_wrote(x):
    assert type(x).from_json(x.to_json()) == x


# -- payload_errors: which errors become SchemaErrors -------------------------


# UnicodeError is a ValueError that is not an InputError, so it is folded
@pytest.mark.parametrize("exc", [KeyError("n"), TypeError("t"), ValueError("v"),
                                 OverflowError("o"), UnicodeError("u")])
def test_a_malformed_value_is_a_schema_error_naming_the_payload(exc):
    with pytest.raises(SchemaError) as info:
        with payload_errors("Thing"):
            raise exc
    assert str(info.value) == f"bad Thing payload: {exc}"
    assert info.value.__cause__ is exc


def test_a_schema_error_and_other_errors_pass_through_unchanged():
    for exc in (SchemaError("as raised"), DimensionError("raised inside"),
                ZeroDivisionError("kept")):
        with pytest.raises(type(exc)) as info:
            with payload_errors("Thing"):
                raise exc
        assert info.value is exc
    with payload_errors("Thing"):
        pass


WIDE_COORDINATE = {"n": MAX_GENERATORS + 1, "terms": []}
LONG_EXPONENT = {"p": 1, "terms": [{"exp": [1, 0], "num": "1", "den": "1"}]}
BAD_COMPONENT = {"p": 1, "q": 0, "components": [{"J": [], "poly": LONG_EXPONENT}]}
BAD_MORPHISM = {"source": [1, 0], "target": [1, 0], "even": [BAD_COMPONENT], "odd": []}


@pytest.mark.parametrize("cls, payload, error", [
    (GrassmannElement, WIDE_COORDINATE, DimensionError),
    (Polynomial, LONG_EXPONENT, DimensionError),
    (SuperFunction, {"p": 1, "q": 0, "components": [{"J": [], "poly": Polynomial.one(2).to_json()}]},
     DimensionError),
    (SuperPoint, {"n": 1, "even": [GrassmannElement.gen(1, 1).to_json()], "odd": []}, ParityError),
    # the same errors one payload down
    (SuperPoint, {"n": 1, "even": [WIDE_COORDINATE], "odd": []}, DimensionError),
    (GrassmannHom, {"source": 1, "target": 1, "images": [WIDE_COORDINATE]}, DimensionError),
    (SuperFunction, BAD_COMPONENT, DimensionError),
    (SuperMorphism, BAD_MORPHISM, DimensionError),
    (MappingPoint, dict(BAD_MORPHISM, n=0), DimensionError),
])
def test_a_well_formed_payload_of_the_wrong_shape_keeps_its_error_type(cls, payload, error):
    # an InputError passes through the payload_errors block, so these are not
    # SchemaErrors, and one payload down they pass through the container's block too
    with pytest.raises(error) as info:
        cls.from_json(payload)
    assert not isinstance(info.value, SchemaError)


@pytest.mark.parametrize("cls, key", [(SuperPoint, "even"), (SuperPoint, "odd"),
                                      (SuperFunction, "components"), (SuperMorphism, "even"),
                                      (SuperMorphism, "odd"), (GrassmannHom, "images")],
                         ids=lambda v: v.__name__ if isinstance(v, type) else v)
@pytest.mark.parametrize("value", [None, "ab", {"n": 1}], ids=["null", "string", "object"])
def test_a_non_list_item_list_is_a_schema_error_naming_its_container(cls, key, value):
    with pytest.raises(SchemaError) as info:
        cls.from_json(dict(dict(VALID)[cls], **{key: value}))
    assert str(info.value).startswith(f"bad {cls.__name__} payload:")


@pytest.mark.parametrize("cls, payload", [
    (GrassmannElement, {"n": 12, "terms": [{"subset": "12", "num": "1", "den": "1"}]}),
    (Polynomial, {"p": 2, "terms": [{"exp": "12", "num": "1", "den": "1"}]}),
    (SuperFunction, {"p": 1, "q": 2,
                     "components": [{"J": "01", "poly": Polynomial.one(1).to_json()}]}),
], ids=["subset", "exp", "J"])
def test_a_string_in_place_of_an_integer_list_is_a_schema_error(cls, payload):
    # each string used to be iterated character by character: "12" read as [1, 2]
    with pytest.raises(SchemaError) as info:
        cls.from_json(payload)
    assert str(info.value) == f"bad {cls.__name__} payload: expected a list, got str"

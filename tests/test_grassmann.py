import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from superjet import (
    GrassmannElement,
    GrassmannHom,
    ParityError,
    SchemaError,
    grassmann,
    hom_apply,
    hom_compose,
    merge_sign,
)

from conftest import grassmann_elements, polynomials, small_fractions, small_ints


def brute_merge_sign(a: int, b: int) -> int:
    """Count transpositions by listing generators and bubble-sorting."""
    gens = [i for i in range(a.bit_length()) if a >> i & 1]
    gens += [i for i in range(b.bit_length()) if b >> i & 1]
    sign = 1
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i] > gens[j]:
                sign = -sign
    return sign


masks = st.integers(min_value=0, max_value=(1 << grassmann.MAX_GENERATORS) - 1)


@given(masks, masks)
@example(1 << (grassmann.MAX_GENERATORS - 1), 1)
# the last mask of the sign table, the first above it, and the widest mask
@example((1 << grassmann.TABLE_BITS) - 1, 1 << grassmann.TABLE_BITS)
@example(1 << grassmann.TABLE_BITS, (1 << grassmann.TABLE_BITS) - 1)
@example((1 << grassmann.MAX_GENERATORS) - 1, 0)
@example((1 << grassmann.MAX_GENERATORS) - 2, 1)
def test_merge_sign_matches_inversion_count(a, b):
    b &= ~a     # a shared generator kills the product, so only disjoint masks have a sign
    assert merge_sign(a, b) == brute_merge_sign(a, b)


def test_merge_sign_matches_inversion_count_on_every_table_mask():
    # a sign is a product over b's bits, so single generators b pin every entry
    for a in range(1 << grassmann.TABLE_BITS):
        for j in range(grassmann.TABLE_BITS + 1):
            b = 1 << j
            if not a & b:
                assert merge_sign(a, b) == brute_merge_sign(a, b), (a, b)


def gens_of(mask: int) -> tuple:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def textbook_product(x: GrassmannElement, y: GrassmannElement) -> dict:
    """x * y over sorted generator tuples: each pair of terms concatenates its
    generators and bubble-sorts them, a swap flipping the sign."""
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            gens = list(gens_of(ma) + gens_of(mb))
            if len(set(gens)) < len(gens):
                continue
            term = ca * cb
            for i in range(len(gens)):
                for j in range(len(gens) - 1 - i):
                    if gens[j] > gens[j + 1]:
                        gens[j], gens[j + 1] = gens[j + 1], gens[j]
                        term = -term
            key = tuple(gens)
            out[key] = out[key] + term if key in out else term
    return {key: c for key, c in out.items() if c}


near_trillion = st.builds(Fraction, st.integers(min_value=-10**15, max_value=10**15),
                          st.integers(min_value=10**12 - 30, max_value=10**12 + 30))
coefficient_rings = {
    "int": st.integers(min_value=-10**6, max_value=10**6),
    "int and Fraction": st.one_of(small_ints, small_fractions),
    "large denominators": st.one_of(small_ints, near_trillion),
    "float": st.floats(min_value=-4, max_value=4, allow_nan=False),
    "polynomial": polynomials(p=1, degree=2),
}


@pytest.mark.parametrize("ring", coefficient_rings)
@given(data=st.data())
def test_product_matches_the_textbook_product(ring, data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    x, y = (data.draw(grassmann_elements(n=n, max_terms=6, coefficients=coefficient_rings[ring]))
            for _ in range(2))
    product = x * y
    assert {gens_of(m): c for m, c in product.terms.items()} == textbook_product(x, y)
    assert all(product.terms.values())
    if ring in ("int", "int and Fraction", "large denominators"):
        # canonical: an int when the denominator is 1, a Fraction otherwise
        for c in product.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


@pytest.mark.parametrize("one", [1, Fraction(1, 3), 1.0], ids=["int", "Fraction", "float"])
def test_both_product_paths_take_the_sign_from_merge_sign(monkeypatch, one):
    e1, e2 = GrassmannElement.gen(2, 1).scale(one), GrassmannElement.gen(2, 2).scale(one)
    assert (e2 * e1).terms == {0b11: -one * one}
    monkeypatch.setattr(grassmann, "merge_sign", lambda a, b: 1)
    assert (e2 * e1).terms == {0b11: one * one}


def test_a_float_product_that_cancels_to_zero_leaves_no_mask():
    x = GrassmannElement(2, {1: 0.5, 2: 0.5})
    # eta1 eta2 + eta2 eta1: the stored 0.25 meets -0.25 and sums to 0.0
    assert (x * x).terms == {}
    y = GrassmannElement(2, {0: 1.0, 1: 0.5, 2: 0.5})
    assert (y * x).terms == {1: 0.5, 2: 0.5}


def plain_combination(pairs) -> dict:
    out = {}
    for c, terms in pairs:
        grassmann._accumulate(out, terms.items(), c)
    return out


@pytest.mark.parametrize("ring", coefficient_rings)
@given(data=st.data())
def test_combination_is_the_plain_accumulation(ring, data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    coefficients = coefficient_rings[ring]
    pairs = data.draw(st.lists(st.tuples(
        coefficients.filter(bool),
        grassmann_elements(n=n, max_terms=6, coefficients=coefficients).map(lambda x: x.terms),
    ), max_size=6))
    got, want = grassmann._combination(pairs), plain_combination(pairs)
    # the same keys in the same order, the same values of the same types
    assert list(got) == list(want)
    assert [(v, type(v)) for v in got.values()] == [(v, type(v)) for v in want.values()]


def test_combination_of_int_and_float_pairs_takes_the_plain_path():
    pairs = [(3, {0: 1, 3: Fraction(1, 3)}), (Fraction(1, 2), {3: 0.5, 1: 2}), (1, {0: -3})]
    got = grassmann._combination(pairs)
    assert got == plain_combination(pairs) == {3: 1.25, 1: 1}
    assert list(got) == [3, 1] and type(got[3]) is float and type(got[1]) is int


@given(grassmann_elements(n=3), grassmann_elements(n=3), grassmann_elements(n=3))
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(grassmann_elements(n=3), grassmann_elements(n=3), grassmann_elements(n=3))
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(grassmann_elements(n=4, parity=1))
def test_odd_elements_square_to_zero(x):
    assert not x * x


@given(grassmann_elements(n=4, parity=0), grassmann_elements(n=4))
def test_even_elements_are_central(x, y):
    assert x * y == y * x


@given(grassmann_elements(n=4, parity=1), grassmann_elements(n=4, parity=1))
def test_odd_elements_anticommute(x, y):
    assert x * y == -(y * x)


@given(grassmann_elements())
def test_split_reassembles_with_parities(x):
    body, even_nil, odd = x.split()
    assert x == GrassmannElement.scalar(x.n, body) + even_nil + odd
    assert even_nil.is_even()
    assert odd.is_odd()
    # the whole soul is nilpotent of index at most n
    soul = power = even_nil + odd
    for _ in range(x.n):
        power = power * soul
    assert not power


def test_generator_product_example():
    n1 = GrassmannElement.gen(2, 1)
    n2 = GrassmannElement.gen(2, 2)
    assert (n1 + n2) * (n1 - n2) == GrassmannElement.monomial(2, 3, Fraction(-2))
    assert (n1 * n2) * (n1 * n2) == GrassmannElement.zero(2)


@given(grassmann_elements())
def test_json_roundtrip(x):
    assert GrassmannElement.from_json(x.to_json()) == x


def test_json_roundtrip_on_both_sides_of_the_subset_tables():
    top = grassmann.TABLE_BITS + 1
    masks = [0, 0b101, (1 << grassmann.TABLE_BITS) - 1, 1 << grassmann.TABLE_BITS,
             (1 << top) - 2, (1 << top) - 1]
    x = GrassmannElement(top, {m: Fraction(i + 1, 3) for i, m in enumerate(masks)})
    wire = x.to_json()
    assert [item["subset"] for item in wire["terms"]] == [
        [], [1, 3], list(range(1, top)), [top], list(range(2, top + 1)), list(range(1, top + 1))]
    assert GrassmannElement.from_json(wire) == x


def test_json_subsets_are_fresh_lists():
    x = GrassmannElement(3, {0b101: 1})
    x.to_json()["terms"][0]["subset"].append(2)
    assert x.to_json()["terms"][0]["subset"] == [1, 3]


def test_json_roundtrip_float_coefficients():
    x = GrassmannElement(2, {0: 0.25, 3: -1.5e-3})
    back = GrassmannElement.from_json(x.to_json())
    assert back.terms == x.terms


@pytest.mark.parametrize("value", ["1_0", " 2.5 ", "1e3", "nan", True, None])
def test_json_float_values_are_json_numbers(value):
    with pytest.raises(SchemaError):
        GrassmannElement.from_json({"n": 1, "terms": [{"subset": [], "value": value}]})


def test_json_rejects_repeated_generator():
    with pytest.raises(SchemaError):
        GrassmannElement.from_json({"n": 2, "terms": [{"subset": [1, 1], "num": "1", "den": "1"}]})


# -- algebra homomorphisms -------------------------------------------------


@st.composite
def homs(draw, source=2, target=3):
    images = [draw(grassmann_elements(n=target, parity=1)) for _ in range(source)]
    return GrassmannHom(source, target, images)


@given(homs(), grassmann_elements(n=2), grassmann_elements(n=2))
def test_hom_is_multiplicative(rho, x, y):
    assert hom_apply(rho, x * y) == hom_apply(rho, x) * hom_apply(rho, y)


@given(homs(), grassmann_elements(n=2), grassmann_elements(n=2))
def test_hom_is_linear(rho, x, y):
    assert hom_apply(rho, x + y) == hom_apply(rho, x) + hom_apply(rho, y)


@given(grassmann_elements(n=3))
def test_identity_hom_fixes_everything(x):
    assert hom_apply(GrassmannHom.identity(3), x) == x


@given(grassmann_elements(n=3))
def test_body_projection_kills_the_soul(x):
    image = hom_apply(GrassmannHom(3, 0, [GrassmannElement.zero(0)] * 3), x)
    assert image == GrassmannElement.scalar(0, x.body())


@given(homs(source=2, target=3), homs(source=3, target=4), grassmann_elements(n=2))
def test_hom_compose_agrees_with_sequential_application(rho, sigma, x):
    assert hom_apply(hom_compose(sigma, rho), x) == hom_apply(sigma, hom_apply(rho, x))


def test_hom_validate_rejects_even_image():
    with pytest.raises(ParityError):
        GrassmannHom(1, 2, [GrassmannElement.monomial(2, 3)])


@given(homs(source=2, target=2), small_fractions)
def test_hom_fixes_scalars(rho, c):
    assert hom_apply(rho, GrassmannElement.scalar(2, c)) == GrassmannElement.scalar(2, c)


def test_hom_is_frozen():
    rho = GrassmannHom.identity(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.images = ()



def image_from_scratch(rho, mask):
    """rho(eta^mask) as the ascending product of the images, from the unit."""
    out = GrassmannElement.one(rho.target)
    for i, image in enumerate(rho.images):
        if mask >> i & 1:
            out = out * image
    return out


def test_hom_builds_each_image_monomial_once(monkeypatch):
    # three generator images into Lambda_4, applied to an element on all 8 masks
    gen = [GrassmannElement.gen(4, i) for i in range(1, 5)]
    rho = GrassmannHom(3, 4, [gen[0] + gen[3], gen[1], gen[2] - gen[0] * gen[1] * gen[3]])
    x = GrassmannElement(3, {mask: mask + 1 for mask in range(8)})
    expected = GrassmannElement.zero(4)
    for mask, c in x.terms.items():
        expected = expected + image_from_scratch(rho, mask).scale(c)
    one = GrassmannElement.one(4)
    products = []
    mul = GrassmannElement.__mul__

    def counted(a, b):
        if isinstance(b, GrassmannElement):
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(GrassmannElement, "__mul__", counted)
    # cold: one product per mask with two or more generators, never with the unit
    assert hom_apply(rho, x) == expected
    assert len(products) == 4
    assert all(a != one and b != one for a, b in products)
    # warm: every image monomial is read from the hom's table
    assert hom_apply(rho, x) == expected
    assert len(products) == 4

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from superjet import (
    DEFAULT_DEGREE_BOUND,
    DegreeBoundError,
    DimensionError,
    GrassmannElement,
    GrassmannHom,
    Polynomial,
    SchemaError,
    lattice_points,
    poly_compose,
    sf_eval,
    sf_substitute,
    taylor_coefficient,
    taylor_shift,
)
from superjet.polyalg import iter_multiindices_upto, mi_factorial

from conftest import (
    grassmann_elements,
    morphisms,
    polynomials,
    small_fractions,
    small_ints,
    superfunctions,
    superpoints,
)

points2 = st.lists(small_fractions, min_size=2, max_size=2)


@given(polynomials(p=2), polynomials(p=2), polynomials(p=2))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@given(polynomials(p=2), polynomials(p=2), points2)
def test_evaluation_is_a_ring_hom(f, g, x):
    assert (f * g).eval_scalar(x) == f.eval_scalar(x) * g.eval_scalar(x)
    assert (f + g).eval_scalar(x) == f.eval_scalar(x) + g.eval_scalar(x)


@given(polynomials(p=2), polynomials(p=2))
def test_derive_satisfies_leibniz(f, g):
    for axis in ((1, 0), (0, 1)):
        lhs = (f * g).derive(axis)
        assert lhs == f.derive(axis) * g + f * g.derive(axis)


@given(polynomials(p=2))
def test_mixed_partials_commute(f):
    a = f.derive((1, 0)).derive((0, 1))
    b = f.derive((0, 1)).derive((1, 0))
    assert a == b == f.derive((1, 1))


def test_derive_monomial_coefficients():
    f = Polynomial.monomial(1, (4,))  # x^4
    assert f.derive((2,)) == Polynomial.monomial(1, (2,), Fraction(12))
    assert f.derive((5,)) == Polynomial.zero(1)


@given(polynomials(p=1, degree=3), polynomials(p=2, degree=2))
def test_compose_agrees_with_evaluation(f, g):
    h = poly_compose(f, [g], degree_bound=None)
    for x in lattice_points(2, radius=1, den=1):
        assert h.eval_scalar(x) == f.eval_scalar([g.eval_scalar(x)])


def test_compose_respects_degree_bound():
    f = Polynomial.monomial(1, (5,))
    g = Polynomial.monomial(1, (4,))
    with pytest.raises(DegreeBoundError):
        poly_compose(f, [g])  # degree 20 > default bound
    assert DEFAULT_DEGREE_BOUND < 20
    # None genuinely disables the guardrail
    assert poly_compose(f, [g], degree_bound=None) == Polynomial.monomial(1, (20,))


@given(polynomials(p=2, degree=3))
def test_taylor_coefficients_rebuild_the_polynomial(f):
    x0 = [Fraction(1, 2), Fraction(-1)]
    rebuilt = Polynomial.zero(2)
    top = max((sum(e) for e in f.terms), default=0)
    for I in iter_multiindices_upto(2, top):
        c = taylor_coefficient(f, I, x0)
        if c:
            mono = Polynomial.one(2)
            for k, e in enumerate(I):
                for _ in range(e):
                    mono = mono * (Polynomial.variable(2, k) - x0[k])
            rebuilt = rebuilt + mono * c
    assert rebuilt == f


def test_lattice_points_are_deterministic_and_rational():
    pts = lattice_points(2, radius=1, den=2)
    assert pts == lattice_points(2, radius=1, den=2)
    assert all(len(x) == 2 for x in pts)
    flat = {c for x in pts for c in x}
    assert Fraction(1, 2) in flat and Fraction(-1) in flat


@given(polynomials())
def test_json_roundtrip(f):
    assert Polynomial.from_json(f.to_json()) == f


@given(polynomials(p=2, degree=5, max_terms=5),
       st.lists(st.one_of(small_fractions, small_ints), min_size=2, max_size=2),
       st.integers(min_value=0, max_value=6))
@example(Polynomial(2, {(2, 1): 3, (0, 3): Fraction(1, 2), (0, 0): -1}), [0, 0], 0)
@example(Polynomial(2, {(2, 1): 3, (1, 3): Fraction(1, 2), (0, 0): -1}), [0, 2], 2)
@example(Polynomial(2, {(3, 2): Fraction(-2, 3), (1, 0): 1}), [1, Fraction(1, 2)], 0)
def test_taylor_shift_coefficients_are_taylor_coefficients(f, x0, k):
    # the bases mix Fractions and ints, zero coordinates included, and k = 0 is drawn
    shifted = taylor_shift(f, x0, k)
    assert shifted.p == f.p
    assert all(sum(I) <= k for I in shifted.terms)
    for I in iter_multiindices_upto(2, k):
        assert shifted.terms.get(I, 0) == taylor_coefficient(f, I, x0)


def test_taylor_shift_worked_example():
    # (2 + h)^3 = 8 + 12 h + 6 h^2 + h^3, cut above h^2
    f = Polynomial.monomial(1, (3,))
    assert taylor_shift(f, [Fraction(2)], 2) == Polynomial(1, {(0,): 8, (1,): 12, (2,): 6})
    with pytest.raises(DimensionError):
        taylor_shift(f, [Fraction(2), Fraction(0)], 2)
    # a negative order is refused, as taylor_of refuses it, not answered with 0
    with pytest.raises(ValueError, match="negative truncation order"):
        taylor_shift(Polynomial.monomial(1, (2,)), [Fraction(1, 2)], -1)


@given(polynomials(p=2, degree=4, max_terms=4),
       st.lists(polynomials(p=2, degree=2), min_size=2, max_size=2),
       st.integers(min_value=0, max_value=4))
def test_taylor_shift_at_polynomial_bases_is_derive_and_compose(f, x0, k):
    # ring-element bases, as in sf_substitute and lambda_point_map_of
    shifted = taylor_shift(f, x0, k)
    assert all(sum(I) <= k for I in shifted.terms)
    for I in iter_multiindices_upto(2, k):
        expected = poly_compose(f.derive(I), x0, degree_bound=None) * Fraction(1, mi_factorial(I))
        # a coefficient may be a bare scalar, so compare through the difference
        assert expected - shifted.terms.get(I, 0) == Polynomial.zero(2)
        assert (I in shifted.terms) == bool(expected)


# plain reference loops: every weight C(e, j) * x0^(e - j), every product taken,
# sums added term by term; the kernels must match them bit for bit


def _canonical(v):
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _add_into(out: dict, key, v) -> None:
    got = out.get(key)
    if got is not None:
        v = got + v
    if v:
        out[key] = _canonical(v)
    else:
        out.pop(key, None)


def reference_shift(f, x0, k) -> dict:
    out: dict = {}
    for e, c in f.terms.items():
        partial = [((), 0, c)]
        for i, ei in enumerate(e):
            pw = [1]
            while len(pw) <= ei:
                pw.append(pw[-1] * x0[i])
            weights = [(j, math.comb(ei, j) * pw[ei - j]) for j in range(min(ei, k) + 1)]
            partial = [(I + (j,), d + j, v * w)
                       for I, d, v in partial for j, w in weights if w and d + j <= k]
        for I, _, v in partial:
            _add_into(out, I, v)
    return out


def reference_product(f, g) -> dict:
    out: dict = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            _add_into(out, tuple(a + b for a, b in zip(ea, eb)), ca * cb)
    return out


def reference_scale(f, c) -> dict:
    return {e: _canonical(v * c) for e, v in f.terms.items() if v * c}


def same_bits(a, b) -> bool:
    """Equal types and values, floats by their bits, polynomial terms in key order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return a.hex() == b.hex()
    if isinstance(a, dict):
        return (list(a) == list(b)
                and all(same_bits(a[key], b[key]) for key in a))
    if isinstance(a, Polynomial):
        return a.p == b.p and same_bits(a.terms, b.terms)
    return a == b


floats = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)
float_polynomials = polynomials(p=2, degree=4, max_terms=4, coefficients=floats)
# coefficients in Q[x]: what a shift at polynomial bases returns
nested_polynomials = polynomials(p=2, degree=3, max_terms=3, coefficients=polynomials(p=2))


@given(float_polynomials, float_polynomials, st.lists(floats, min_size=2, max_size=2),
       st.sampled_from([1, 2.5, -1e-300]), st.integers(min_value=0, max_value=5))
def test_float_kernels_match_the_reference_loops_bit_for_bit(f, g, x0, c, k):
    assert same_bits(taylor_shift(f, x0, k).terms, reference_shift(f, x0, k))
    assert same_bits((f * g).terms, reference_product(f, g))
    assert same_bits((f * c).terms, reference_scale(f, c))


@given(polynomials(p=2, degree=4, max_terms=4), nested_polynomials, nested_polynomials,
       st.lists(polynomials(p=2, degree=2), min_size=2, max_size=2),
       st.sampled_from([1, 2, Fraction(-1, 3)]), st.integers(min_value=0, max_value=4))
def test_ring_kernels_match_the_reference_loops_term_for_term(f, a, b, x0, c, k):
    assert same_bits(taylor_shift(f, x0, k).terms, reference_shift(f, x0, k))
    assert same_bits(taylor_shift(a, [Fraction(1, 2), 1], k).terms,
                     reference_shift(a, [Fraction(1, 2), 1], k))
    assert same_bits((a * b).terms, reference_product(a, b))
    assert same_bits((a * c).terms, reference_scale(a, c))


def canonical_nonzero(terms):
    """Every coefficient is nonzero and in canonical form: an int when integral,
    otherwise a Fraction with denominator above 1."""
    return all(c and (type(c) is int or type(c) is Fraction and c.denominator > 1)
               for c in terms.values())


@given(polynomials(p=2), polynomials(p=2), small_fractions, points2)
def test_polynomial_results_hold_only_canonical_nonzero_rationals(f, g, c, x0):
    for out in (f + g, f - g, -f, f * g, f * c, c * f, f * 2,
                f.derive((1, 0)), f.derive((1, 2)),
                Polynomial.from_json(f.to_json()), taylor_shift(f, x0, 3),
                poly_compose(f, [g, g * c]),
                Polynomial(2, {(0, 0): Fraction(6, 3), (1, 0): True, (0, 1): c})):
        assert canonical_nonzero(out.terms)


@given(grassmann_elements(n=3), grassmann_elements(n=3), small_fractions,
       st.lists(grassmann_elements(n=3, parity=1), min_size=3, max_size=3),
       superfunctions(p=1, q=1), superpoints(p=1, q=1), morphisms((1, 2), (1, 1)))
def test_grassmann_results_hold_only_canonical_nonzero_rationals(x, y, c, images, sigma, nu, phi):
    hom = GrassmannHom(3, 3, images)
    for out in (x + y, x - y, -x, x * y, x.scale(c), x * 2, x.scale(Fraction(4, 2)),
                GrassmannElement.from_json(x.to_json()), hom.apply(x), sf_eval(sigma, nu),
                GrassmannElement(3, {0: Fraction(6, 3), 1: True, 2: c})):
        assert canonical_nonzero(out.terms)
    pulled = sf_substitute(sigma, phi)
    assert all(f.terms and canonical_nonzero(f.terms) for f in pulled.components.values())


def test_float_products_that_underflow_are_dropped():
    tiny = Polynomial(1, {(1,): 1e-200})
    assert (tiny * 1e-200).terms == {}
    assert (tiny * Polynomial.constant(1, 1e-200)).terms == {}
    g = GrassmannElement(2, {3: 1e-200})
    assert g.scale(1e-200).terms == {}
    assert (g * GrassmannElement.scalar(2, 1e-200)).terms == {}


def test_public_and_wire_constructors_refuse_bad_exponents_and_masks():
    with pytest.raises(DimensionError):
        Polynomial(2, {(1,): Fraction(1)})
    with pytest.raises(DimensionError):
        Polynomial(1, {(-1,): Fraction(1)})
    for exp in ([1, 0], [-2]):
        with pytest.raises(DimensionError):
            Polynomial.from_json({"p": 1, "terms": [{"exp": exp, "num": "1", "den": "1"}]})
    with pytest.raises(DimensionError):
        GrassmannElement(2, {4: Fraction(1)})
    with pytest.raises(DimensionError):
        GrassmannElement(2, {-1: Fraction(1)})
    with pytest.raises(SchemaError):
        GrassmannElement.from_json({"n": 2, "terms": [{"subset": [3], "num": "1", "den": "1"}]})

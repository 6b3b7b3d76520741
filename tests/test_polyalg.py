from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
from superjet.polyalg import iter_multiindices_upto

from conftest import (
    grassmann_elements,
    morphisms,
    polynomials,
    small_fractions,
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
                mono = mono * (Polynomial.variable(2, k) - x0[k]) ** e
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


@given(polynomials(p=2, degree=5, max_terms=5), points2, st.integers(min_value=0, max_value=6))
def test_taylor_shift_coefficients_are_taylor_coefficients(f, x0, k):
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


def canonical_nonzero(terms):
    """Every coefficient is nonzero and in canonical form: an int when integral,
    otherwise a Fraction with denominator above 1."""
    return all(c and (type(c) is int or type(c) is Fraction and c.denominator > 1)
               for c in terms.values())


@given(polynomials(p=2), polynomials(p=2), small_fractions, points2)
def test_polynomial_results_hold_only_canonical_nonzero_rationals(f, g, c, x0):
    for out in (f + g, f - g, -f, f * g, f * c, c * f, f * 2, f / 3,
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
    for out in (x + y, x - y, -x, x * y, x.scale(c), x * 2, 3 * x, x.scale(Fraction(4, 2)),
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

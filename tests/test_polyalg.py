from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superjet import (
    DEFAULT_DEGREE_BOUND,
    DegreeBoundError,
    Polynomial,
    lattice_points,
    poly_compose,
    poly_derive,
    taylor_coefficient,
)

from conftest import polynomials, small_fractions

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
        lhs = poly_derive(f * g, axis)
        assert lhs == poly_derive(f, axis) * g + f * poly_derive(g, axis)


@given(polynomials(p=2))
def test_mixed_partials_commute(f):
    a = poly_derive(poly_derive(f, (1, 0)), (0, 1))
    b = poly_derive(poly_derive(f, (0, 1)), (1, 0))
    assert a == b == poly_derive(f, (1, 1))


def test_derive_monomial_coefficients():
    f = Polynomial.monomial(1, (4,))  # x^4
    assert poly_derive(f, (2,)) == Polynomial.monomial(1, (2,), Fraction(12))
    assert poly_derive(f, (5,)) == Polynomial.zero(1)


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
    from superjet.polyalg import iter_multiindices_upto

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

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superjet import (
    DegreeBoundError,
    DimensionError,
    GrassmannElement,
    ParityError,
    Polynomial,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
    sf_eval,
    morphism_compose,
    sf_eval_naive,
    sf_substitute,
)
from superjet.polyalg import (
    check_degree_bound,
    iter_multiindices_upto,
    poly_compose,
    taylor_shift,
)
from superjet.suites import law_oracle

from conftest import (
    fingerprint,
    floats,
    morphisms,
    plain_monomial,
    plain_sum,
    small_fractions,
    superfunctions,
    superpoints,
)


@given(superfunctions(p=1, q=2), superpoints(n=3, p=1, q=2))
def test_taylor_evaluation_matches_expand_oracle(sigma, nu):
    assert sf_eval(sigma, nu) == sf_eval_naive(sigma, nu)


@given(superfunctions(p=0, q=2), superpoints(n=3, p=0, q=2))
def test_the_oracle_law_holds_on_a_point_with_no_even_coordinates(sigma, nu):
    # no even coordinate carries the generator count; the point does
    assert law_oracle(sigma, nu)


@given(superfunctions(p=2, q=1), superfunctions(p=2, q=1), superpoints(n=2, p=2, q=1))
def test_evaluation_is_multiplicative(s, t, nu):
    assert sf_eval(s * t, nu) == sf_eval(s, nu) * sf_eval(t, nu)


@given(superfunctions(p=1, q=2), superfunctions(p=1, q=2), superpoints(n=3, p=1, q=2))
def test_evaluation_is_additive(s, t, nu):
    assert sf_eval(s + t, nu) == sf_eval(s, nu) + sf_eval(t, nu)


@given(superpoints(n=2, p=1, q=1))
def test_evaluation_is_unital(nu):
    assert sf_eval(SuperFunction.one(1, 1), nu) == GrassmannElement.one(nu.n)


def test_coordinate_functions_read_off_the_point():
    nu = SuperPoint(
        2,
        [GrassmannElement(2, {0: Fraction(3), 3: Fraction(1, 2)})],
        [GrassmannElement.gen(2, 1)],
    )
    assert sf_eval(SuperFunction.coordinate(1, 1, 0), nu) == nu.even[0]
    assert sf_eval(SuperFunction.theta(1, 1, 0), nu) == nu.odd[0]


def test_nilpotent_taylor_worked_example():
    # f(y) = y^2 at y = 1 + eta1 eta2:  (1 + s)^2 = 1 + 2s with s^2 = 0
    f = SuperFunction.from_poly(Polynomial.monomial(1, (2,)), 0)
    nu = SuperPoint(2, [GrassmannElement(2, {0: Fraction(1), 3: Fraction(1)})], [])
    assert sf_eval(f, nu) == GrassmannElement(2, {0: Fraction(1), 3: Fraction(2)})


@given(superfunctions(p=1, q=2))
def test_parity_of_theta_monomials(sigma):
    parities = {m.bit_count() & 1 for m in sigma.components}
    assert sigma.is_even() == (parities <= {0})
    assert sigma.is_odd() == (parities <= {1})


def test_theta_coordinates_anticommute():
    th0 = SuperFunction.theta(1, 2, 0)
    th1 = SuperFunction.theta(1, 2, 1)
    assert th0 * th1 == -(th1 * th0)
    assert (th0 * th0).components == {}


@given(superfunctions())
def test_json_roundtrip(sigma):
    assert SuperFunction.from_json(sigma.to_json()) == sigma


@given(superpoints())
def test_point_json_roundtrip(nu):
    assert SuperPoint.from_json(nu.to_json()) == nu


def test_point_constructor_enforces_parity():
    with pytest.raises(ParityError):
        SuperPoint(2, [GrassmannElement.gen(2, 1)], [])
    with pytest.raises(ParityError):
        SuperPoint(2, [], [GrassmannElement.one(2)])


def test_eval_rejects_wrong_shape():
    sigma = SuperFunction.one(2, 1)
    nu = SuperPoint(2, [GrassmannElement.one(2)], [GrassmannElement.gen(2, 1)])
    with pytest.raises(DimensionError):
        sf_eval(sigma, nu)


def test_substitution_expands_composite():
    # sigma(u, xi) = u * xi with u <- y^2, xi <- y th1:  y^3 th1
    sigma = SuperFunction(1, 1, {1: Polynomial.monomial(1, (1,))})
    phi = SuperMorphism(
        (1, 1),
        (1, 1),
        [SuperFunction.from_poly(Polynomial.monomial(1, (2,)), 1)],
        [SuperFunction(1, 1, {1: Polynomial.monomial(1, (1,))})],
    )
    out = sf_substitute(sigma, phi)
    assert out == SuperFunction(1, 1, {1: Polynomial.monomial(1, (3,))})


def substitute_oracle(sigma, phi):
    """sum_J sigma_J(even pullbacks) * (odd pullbacks)^J, expanded monomial by monomial."""
    p, q = phi.source
    out = SuperFunction.zero(p, q)
    for mask, poly in sigma.components.items():
        for exp, c in poly.terms.items():
            term = SuperFunction.constant(p, q, c)
            for pb, e in zip(phi.even_pb, exp):
                for _ in range(e):
                    term = term * pb
            for b, pb in enumerate(phi.odd_pb):
                if mask >> b & 1:
                    term = term * pb
            out = out + term
    return out


@given(superfunctions(p=2, q=2), morphisms((1, 3), (2, 2)))
def test_substitution_matches_direct_substitution(sigma, phi):
    assert sf_substitute(sigma, phi) == substitute_oracle(sigma, phi)


def first_guardrail_refusal(sigma, phi, bound):
    """poly_compose's message for the first sigma_J, in component order, whose
    omega^J survives along phi and whose composition the bound refuses."""
    p, q = phi.source
    for mask, poly in sigma.components.items():
        omega = SuperFunction.one(p, q)
        for b, pb in enumerate(phi.odd_pb):
            if mask >> b & 1:
                omega = omega * pb
        if not omega:
            continue
        try:
            poly_compose(poly, phi.bodies, bound)
        except DegreeBoundError as exc:
            return str(exc)
    return None


@given(superfunctions(p=2, q=2), morphisms((1, 3), (2, 2)), st.integers(0, 6))
def test_the_guardrail_refuses_what_poly_compose_refuses(sigma, phi, bound):
    expected = first_guardrail_refusal(sigma, phi, bound)
    try:
        sf_substitute(sigma, phi, bound)
    except DegreeBoundError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


# order_bound_check telescopes its commutator on these two facts


@given(superfunctions(p=2, q=2), superfunctions(p=2, q=2), morphisms((1, 3), (2, 2)))
def test_pullback_is_multiplicative(f, g, phi):
    assert sf_substitute(f * g, phi, degree_bound=None) == (
        sf_substitute(f, phi, degree_bound=None) * sf_substitute(g, phi, degree_bound=None)
    )


@given(morphisms((1, 3), (2, 2)), st.integers(0, 1), small_fractions)
def test_pullback_of_a_coordinate_increment(phi, j, c):
    increment = SuperFunction.from_poly(Polynomial.variable(2, j) - Polynomial.constant(2, c), 2)
    assert sf_substitute(increment, phi, degree_bound=None) == (
        phi.even_pb[j] - SuperFunction.constant(1, 3, c)
    )


# the contraction kernel against the exhaustive loop, written with plain products


def contract_reference(comps, bodies, even_args, odd_args, one, degree_bound):
    """sum_{I,J} c_{I,J} eps^I omega^J over every |I| <= n/2, each monomial by
    plain products: sigma_J shifted to order n/2 where omega^J does not
    vanish, in the order of comps, and the pairs summed key by key."""
    top = one.n // 2
    shifted = {}
    for J, f in comps.items():
        if plain_monomial((), J, even_args, odd_args, one):
            check_degree_bound(f, bodies, degree_bound)
            shifted[J] = taylor_shift(f, bodies, top).terms
    return plain_sum((coeffs[I], plain_monomial(I, J, even_args, odd_args, one).terms)
                     for I in iter_multiindices_upto(len(bodies), top)
                     for J, coeffs in shifted.items() if I in coeffs)


def outcome(fn, *args):
    try:
        return "terms", fingerprint(fn(*args))
    except DegreeBoundError as exc:
        return "refused", str(exc)


def eval_reference(sigma, nu):
    return contract_reference(sigma.components, nu.body(), nu.nilpotent_even(), nu.odd,
                              GrassmannElement.one(nu.n), None)


def substitute_reference(sigma, phi, bound):
    p, q = phi.source
    return contract_reference(sigma.components, phi.bodies,
                              [sf.nilpotent_part().element for sf in phi.even_pb],
                              [sf.element for sf in phi.odd_pb],
                              SuperFunction.one(p, q).element, bound)


@given(superfunctions(p=2, q=2), superpoints(n=5, p=2, q=2))
def test_evaluation_at_a_rational_point_is_the_exhaustive_contraction(sigma, nu):
    assert fingerprint(sf_eval(sigma, nu).terms) == fingerprint(eval_reference(sigma, nu))


@given(superfunctions(p=2, q=2, coefficients=st.one_of(small_fractions, floats)),
       superpoints(n=5, p=2, q=2, coefficients=floats))
def test_evaluation_at_a_float_point_is_the_exhaustive_contraction_bit_for_bit(sigma, nu):
    assert fingerprint(sf_eval(sigma, nu).terms) == fingerprint(eval_reference(sigma, nu))


@given(superfunctions(p=2, q=2, degree=4), morphisms((2, 4), (2, 2)), st.integers(0, 8))
def test_pullback_over_polynomial_bodies_is_the_exhaustive_contraction(sigma, phi, bound):
    got = outcome(lambda: sf_substitute(sigma, phi, bound).components)
    assert got == outcome(substitute_reference, sigma, phi, bound)


@given(morphisms((1, 3), (2, 2)), st.sampled_from([None, 16, 0, -1]))
def test_a_coordinate_pulls_back_to_its_stored_pullback_as_the_contraction_does(phi, bound):
    coordinates = [(SuperFunction.coordinate(2, 2, j), phi.even_pb[j]) for j in range(2)]
    coordinates += [(SuperFunction.theta(2, 2, b), phi.odd_pb[b]) for b in range(2)]
    for sigma, stored in coordinates:
        want = outcome(substitute_reference, sigma, phi, bound)
        assert outcome(lambda: sf_substitute(sigma, phi, bound).components) == want
        if want[0] == "terms":
            assert sf_substitute(sigma, phi, bound) is stored


def test_the_identity_after_a_high_degree_morphism_is_still_refused():
    # the coordinate lookup checks the bound as the contraction did: 1 * 17 > 16
    high = SuperFunction.from_poly(Polynomial.monomial(1, (17,)), 1)
    phi = SuperMorphism((1, 1), (1, 1), [high], [SuperFunction.theta(1, 1, 0)])
    for outer, inner in ((SuperMorphism.identity(1, 1), phi), (phi, SuperMorphism.identity(1, 1))):
        with pytest.raises(DegreeBoundError, match="17 > bound 16"):
            morphism_compose(outer, inner)
    assert morphism_compose(SuperMorphism.identity(1, 1), phi, degree_bound=None) == phi

"""Mapping-space layer: pair encoding, functorial action, supersmoothness."""

from fractions import Fraction

import pytest

from superjet import (
    DimensionError,
    GrassmannHom,
    MappingPoint,
    Polynomial,
    SplitMix64,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
    chart_transition_map,
    hom_compose,
    lambda_point_map_of,
    mapping_chart,
    make_backend,
    morphism_compose,
    pushforward,
    sc_functor_action,
    sc_pair_to_point,
    sc_point_to_pair,
    supersmooth_check,
    top_order_cancellation,
)
from superjet.suites import (
    coefficient_squaring_map,
    random_hom,
    random_morphism,
    random_shear_chart,
    random_superpoint,
)


def random_mapping_point(rng, n, p=1, q=1):
    return MappingPoint(n, random_morphism(rng, (p, n + q), (1, 1), degree=2))


def test_pair_encoding_roundtrip():
    rng = SplitMix64(40)
    for _ in range(20):
        point = random_mapping_point(rng, rng.randint(0, 3))
        body, even_sections, odd_sections = sc_point_to_pair(point)
        back = sc_pair_to_point(point.n, body, even_sections, odd_sections)
        assert back.n == point.n
        assert back.morphism == point.morphism


def test_functor_action_identity_law():
    rng = SplitMix64(41)
    point = random_mapping_point(rng, 2)
    moved = sc_functor_action(GrassmannHom.identity(2), point)
    assert moved.n == 2
    assert moved.morphism == point.morphism


def test_functor_action_composition_law():
    rng = SplitMix64(42)
    for _ in range(8):
        point = random_mapping_point(rng, 2)
        rho = random_hom(rng, 2, 3)
        sigma = random_hom(rng, 3, 4)
        once = sc_functor_action(hom_compose(sigma, rho), point)
        twice = sc_functor_action(sigma, sc_functor_action(rho, point))
        assert once.morphism == twice.morphism


def test_functor_action_rejects_level_mismatch():
    rng = SplitMix64(43)
    point = random_mapping_point(rng, 2)
    with pytest.raises(DimensionError):
        sc_functor_action(random_hom(rng, 3, 4), point)


def test_mapping_point_level_lies_between_zero_and_the_odd_count():
    phi = SuperMorphism.identity(1, 2)
    assert MappingPoint(2, phi).base_source == (1, 0)
    for level in (-1, 3):
        with pytest.raises(DimensionError):
            MappingPoint(level, phi)


def test_coefficient_map_agrees_with_pushforward():
    rng = SplitMix64(44)
    for _ in range(10):
        phi = random_morphism(rng, (1, 2), (2, 1), degree=2)
        F = lambda_point_map_of(phi, 3)
        mu = random_superpoint(rng, 3, 1, 2)
        assert F.apply(mu) == pushforward(phi, mu)


def test_coefficient_map_of_quadratic_shift():
    # y -> y + y^2 at level 2: top coefficient picks up the chain-rule factor
    phi = SuperMorphism(
        (1, 0),
        (1, 0),
        [SuperFunction.from_poly(
            Polynomial(1, {(1,): Fraction(1), (2,): Fraction(1)}), 0)],
        [],
    )
    F = lambda_point_map_of(phi, 2)
    assert F.nvars == 2  # body coefficient and the eta1 eta2 coefficient
    body = F.evens[0][0]
    top = F.evens[0][3]
    assert body == Polynomial(2, {(1, 0): Fraction(1), (2, 0): Fraction(1)})
    assert top == Polynomial(2, {(0, 1): Fraction(1), (1, 1): Fraction(2)})


def test_pushforward_maps_are_supersmooth():
    rng = SplitMix64(45)
    for n in (2, 3):
        phi = random_morphism(rng, (1, 1), (1, 1), degree=2)
        verdict = supersmooth_check(lambda_point_map_of(phi, n))
        assert verdict.passed, verdict.witness


def test_coefficient_squaring_map_is_rejected():
    verdict = supersmooth_check(coefficient_squaring_map())
    assert not verdict.passed
    assert verdict.witness is not None


def test_shear_charts_invert_exactly():
    rng = SplitMix64(46)
    for _ in range(6):
        chart = random_shear_chart(rng, 2, 2)
        ident = SuperMorphism.identity(2, 2)
        assert morphism_compose(chart.to_model, chart.from_model) == ident
        assert morphism_compose(chart.from_model, chart.to_model) == ident


def test_chart_transitions_are_supersmooth():
    rng = SplitMix64(47)
    for n in (2, 3, 4):
        c1 = random_shear_chart(rng, 1, 2)
        c2 = random_shear_chart(rng, 1, 2)
        F = chart_transition_map(c1, c2, n)
        verdict = supersmooth_check(F)
        assert verdict.passed, verdict.witness


def test_mapping_chart_flat_is_an_affine_shift():
    rng = SplitMix64(48)
    point = random_mapping_point(rng, 2)
    body, even_sections, odd_sections = sc_point_to_pair(point)
    flat = make_backend("flat:1")
    shifted, ev2, od2 = mapping_chart([body[0]], point, flat)
    assert shifted == [Polynomial.zero(body[0].p)]
    assert ev2 == even_sections and od2 == odd_sections


def test_top_order_cancellation_table():
    # lambda kappa^J with |J| = r dies iff 2 + 2r exceeds the generator count
    assert top_order_cancellation(3, 1, 1)
    assert top_order_cancellation(2, 2, 1)
    assert top_order_cancellation(5, 2, 2)
    assert not top_order_cancellation(4, 2, 1)
    assert not top_order_cancellation(6, 2, 2)

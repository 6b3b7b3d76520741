import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superjet import (
    DimensionError,
    GrassmannElement,
    ParityError,
    Polynomial,
    SplitMix64,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
    TruncatedPolyMap,
    exp_pair,
    faa_di_bruno,
    morphism_compose,
    poly_compose,
    poly_eval,
    pushforward,
    taylor_coefficient,
    taylor_of,
    trunc_compose,
    trunc_mul,
)
from superjet.grassmann import MonomialTable
from superjet.jetcalc import _Jet, trunc_poly
from superjet.polyalg import iter_multiindices, iter_multiindices_upto, mi_factorial
from superjet.suites import random_polynomial

from conftest import (
    fingerprint,
    floats,
    grassmann_elements,
    plain_monomial,
    plain_sum,
    polynomials,
    small_fractions,
    small_ints,
)

x0_strategy = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=2), min_size=2, max_size=2
)


def identity_jet(x0, k):
    m = len(x0)
    return taylor_of([Polynomial.variable(m, i) for i in range(m)], x0, k)


@given(polynomials(p=2, degree=3), x0_strategy)
def test_taylor_of_matches_taylor_coefficients(f, x0):
    jet = taylor_of([f], x0, 3)
    assert jet.base_value == (f.eval_scalar(x0),)
    for I in iter_multiindices_upto(2, 3):
        if sum(I) == 0:
            continue
        assert jet.coefficient(I)[0] == taylor_coefficient(f, I, x0)


def degree_at_most(jet, k):
    return all(sum(I) <= k for f in jet.polys for I in f.terms)


@given(st.lists(polynomials(p=2, degree=4), min_size=1, max_size=3), x0_strategy,
       st.integers(min_value=0, max_value=5))
def test_taylor_polynomials_are_the_shifted_polynomials(phis, x0, k):
    # oracle: substitute x -> x + x0 and truncate; no derivative is taken
    shift = [Polynomial.variable(2, i) + x0[i] for i in range(2)]
    jet = taylor_of(phis, x0, k)
    assert jet.base_point == tuple(x0) and jet.m == 2 and jet.mt == len(phis)
    for j, f in enumerate(phis):
        assert jet.polys[j] == trunc_poly(poly_compose(f, shift, degree_bound=None), k)
        assert jet.base_value[j] == f.eval_scalar(x0)


@given(polynomials(p=1, degree=2), polynomials(p=2, degree=2), x0_strategy)
def test_truncated_composition_is_functorial(outer, inner, x0):
    for k in (1, 2, 3):
        inner_jet = taylor_of([inner], x0, k)
        outer_jet = taylor_of([outer], inner_jet.base_value, k)
        composite = poly_compose(outer, [inner], degree_bound=None)
        composed = trunc_compose(outer_jet, inner_jet)
        assert degree_at_most(composed, k)
        assert composed == taylor_of([composite], x0, k)


@given(polynomials(p=2, degree=3), x0_strategy)
def test_identity_jets_are_neutral(f, x0):
    for k in (1, 2):
        jet = taylor_of([f], x0, k)
        assert trunc_compose(jet, identity_jet(x0, k)) == jet
        # scalar identity on the output side
        post = identity_jet(jet.base_value, k)
        assert trunc_compose(post, jet) == jet


@given(polynomials(p=2, degree=2), polynomials(p=2, degree=2), x0_strategy)
def test_truncated_product_matches_polynomial_product(f, g, x0):
    for k in (1, 2, 3):
        lhs = trunc_mul(taylor_of([f], x0, k), taylor_of([g], x0, k))
        assert degree_at_most(lhs, k)
        assert lhs == taylor_of([f * g], x0, k)


rational_or_float = st.one_of(small_fractions, floats)


@given(polynomials(p=2, degree=4, max_terms=8, coefficients=rational_or_float),
       polynomials(p=2, degree=4, max_terms=8, coefficients=rational_or_float),
       st.integers(min_value=0, max_value=4))
def test_a_jet_product_is_the_full_product_cut_at_its_order(f, g, k):
    # keys in the plain product's order, each coefficient with its type and bits;
    # the right factor also as a plain polynomial with terms above k
    a = _Jet(f, k)
    for b in (_Jet(g, k), g):
        product = a * b
        assert type(product) is _Jet and product.k == k
        plain = Polynomial._of(a.p, a.terms) * Polynomial._of(b.p, b.terms)
        assert fingerprint(product.terms) == fingerprint(trunc_poly(plain, k).terms)
    # trunc_mul is that product at the lower order, as plain polynomials, with
    # terms above k in either factor
    for ka, kb in ((k, 4), (4, k)):
        a = TruncatedPolyMap(ka, (0, 0), (trunc_poly(f, ka),))
        b = TruncatedPolyMap(kb, (0, 0), (trunc_poly(g, kb), trunc_poly(f, kb)))
        product = trunc_mul(a, b)
        assert product.k == k
        for h, got in zip(b.polys, product.polys, strict=True):
            assert type(got) is Polynomial
            assert fingerprint(got.terms) == fingerprint(trunc_poly(a.polys[0] * h, k).terms)


@given(polynomials(p=1, degree=2), polynomials(p=2, degree=2),
       st.lists(polynomials(p=2, degree=2), min_size=1, max_size=3), x0_strategy,
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_mixed_orders_compose_and_multiply_at_the_lower_order(outer, f, gs, x0, ka, kb):
    inner_jet = taylor_of([f], x0, kb)
    composed = trunc_compose(taylor_of([outer], inner_jet.base_value, ka), inner_jet)
    assert composed == taylor_of([poly_compose(outer, [f], degree_bound=None)], x0, min(ka, kb))
    # a scalar-valued jet times each component of a vector-valued one
    product = trunc_mul(taylor_of([f], x0, ka), taylor_of(gs, x0, kb))
    assert product == taylor_of([f * g for g in gs], x0, min(ka, kb))


def test_order_one_jets_compose_to_an_order_one_jet():
    # y + y^3 after x^2 + 2x at x = 1: order-1 jets determine only 30 + 112 h,
    # not the order-3 terms 172 h^2 + 136 h^3
    inner = Polynomial(1, {(2,): 1, (1,): 2})
    outer = Polynomial(1, {(1,): 1, (3,): 1})
    x0 = [Fraction(1)]
    composite = poly_compose(outer, [inner], degree_bound=None)
    jets = {k: taylor_of([inner], x0, k) for k in (1, 3)}
    low = trunc_compose(taylor_of([outer], [3], 1), jets[1])
    assert low.k == 1 and low.polys[0].terms == {(0,): 30, (1,): 112}
    assert low == taylor_of([composite], x0, 1)
    assert trunc_compose(taylor_of([outer], [3], 3), jets[1]) == low
    assert trunc_compose(taylor_of([outer], [3], 1), jets[3]) == low
    high = trunc_compose(taylor_of([outer], [3], 3), jets[3])
    assert high.polys[0].terms == {(0,): 30, (1,): 112, (2,): 172, (3,): 136}
    product = trunc_mul(jets[1], taylor_of([composite], x0, 3))
    assert product == taylor_of([inner * composite], x0, 1)


def test_jets_of_zero_variables_or_zero_components_compose_as_their_polynomials():
    constants = [Polynomial.constant(0, 2), Polynomial.constant(0, Fraction(1, 3))]
    y = [Polynomial.variable(2, i) for i in range(2)]
    outer = [y[0] * y[1] + 3, y[1] * y[1] * y[1] - y[0]]
    x0 = [Fraction(1), Fraction(-1, 2)]
    square = [x0_i + y_i * y_i for x0_i, y_i in zip(x0, y)]
    cases = [
        (outer, constants, []),     # an inner jet of zero variables
        ([], square, x0),           # an outer jet of zero components
        ([Polynomial.constant(0, 5)], [], []),      # an inner jet of zero components
    ]
    for b, phi, base in cases:
        for ka, kb in ((2, 2), (1, 3), (3, 0)):
            inner = taylor_of(phi, base, kb)
            composed = trunc_compose(taylor_of(b, inner.base_value, ka), inner)
            composite = [poly_compose(f, phi, degree_bound=None) for f in b]
            assert composed == taylor_of(composite, base, min(ka, kb))


def test_trunc_mul_refuses_factors_that_do_not_match():
    x0 = [Fraction(0), Fraction(1)]
    scalar = taylor_of([Polynomial.variable(2, 0)], x0, 2)
    with pytest.raises(DimensionError, match="source dimensions"):
        trunc_mul(scalar, taylor_of([Polynomial.variable(1, 0)], [Fraction(0)], 2))
    with pytest.raises(DimensionError, match="different points"):
        trunc_mul(scalar, taylor_of([Polynomial.variable(2, 0)], [Fraction(1), Fraction(1)], 2))
    with pytest.raises(DimensionError, match="scalar-valued first factor"):
        trunc_mul(taylor_of([Polynomial.variable(2, j) for j in range(2)], x0, 2), scalar)


def test_compose_rejects_base_point_mismatch():
    f = Polynomial.monomial(1, (2,))
    a = taylor_of([f], [Fraction(0)], 2)
    b = taylor_of([f], [Fraction(1)], 2)
    with pytest.raises(ValueError):
        trunc_compose(a, b)


def test_faa_di_bruno_chain_rule_orders():
    # d/dx of b(phi(x)) for b = y^3, phi = x^2 + x at x0 = 1
    b = Polynomial.monomial(1, (3,))
    phi = Polynomial(1, {(2,): Fraction(1), (1,): Fraction(1)})
    x0 = [Fraction(1)]
    composite = poly_compose(b, [phi], degree_bound=None)
    for m in range(1, 7):
        table = faa_di_bruno([b], [phi], x0, m)
        ((K, vals),) = table.items()
        assert vals[0] == composite.derive(K).eval_scalar(x0)


def test_faa_di_bruno_multivariate_against_oracle():
    rng = SplitMix64(21)
    for _ in range(12):
        phi = [random_polynomial(rng, 2, degree=2) for _ in range(2)]
        b = [random_polynomial(rng, 2, degree=3)]
        x0 = [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]
        composite = poly_compose(b[0], phi, degree_bound=None)
        for m in (1, 2, 3, 4):
            for K, vals in faa_di_bruno(b, phi, x0, m).items():
                assert vals[0] == composite.derive(K).eval_scalar(x0)


def _alphas(m: int):
    """All alpha in N_0^m with sum j*alpha_j == m."""
    def rec(j: int, remaining: int):
        if j > m:
            if remaining == 0:
                yield ()
            return
        for a in range(remaining // j, -1, -1):
            for rest in rec(j + 1, remaining - j * a):
                yield (a,) + rest
    return list(rec(1, m))


def faa_di_bruno_ordered(b, phi, x0, m):
    """The Faa di Bruno sum over every ordered tuple of components, with the
    derivative tables and Taylor parts taken by derive-and-evaluate."""
    dim_x, dim_y = phi[0].p, len(phi)
    y0 = [f.eval_scalar(x0) for f in phi]
    hom = {j: [Polynomial(dim_x, {I: taylor_coefficient(f, I, x0)
                                  for I in iter_multiindices(dim_x, j)}) for f in phi]
           for j in range(1, m + 1)}
    results = [Polynomial.zero(dim_x) for _ in b]
    for alpha in _alphas(m):
        weight = Fraction(math.factorial(m))
        for a in alpha:
            weight /= math.factorial(a)
        arg_orders = [j for j, a in enumerate(alpha, start=1) for _ in range(a)]
        for tup in itertools.product(range(dim_y), repeat=len(arg_orders)):
            L = tuple(tup.count(l) for l in range(dim_y))
            prod = Polynomial.one(dim_x)
            for t, l in zip(arg_orders, tup):
                prod = prod * hom[t][l]
            for idx, f in enumerate(b):
                results[idx] = results[idx] + prod * (weight * f.derive(L).eval_scalar(y0))
    return {K: tuple(r.terms.get(K, 0) * Fraction(mi_factorial(K), math.factorial(m))
                     for r in results)
            for K in iter_multiindices(dim_x, m)}


def test_faa_di_bruno_multisets_equal_the_ordered_tuple_sum():
    rng = SplitMix64(23)
    for dim_y in (1, 2, 3):
        for _ in range(3):
            phi = [random_polynomial(rng, 2, degree=3) for _ in range(dim_y)]
            b = [random_polynomial(rng, dim_y, degree=4, terms=4) for _ in range(2)]
            x0 = [Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2))]
            for m in range(1, 7):
                assert faa_di_bruno(b, phi, x0, m) == faa_di_bruno_ordered(b, phi, x0, m)


def test_faa_di_bruno_rejects_order_zero():
    with pytest.raises(ValueError):
        faa_di_bruno([Polynomial.one(1)], [Polynomial.one(1)], [Fraction(0)], 0)


def test_exp_pair_evaluates_on_nilpotents():
    # jet evaluation on a nilpotent increment == direct polynomial evaluation
    rng = SplitMix64(22)
    for _ in range(10):
        f = random_polynomial(rng, 1, degree=3)
        x0 = Fraction(rng.randint(-2, 2))
        nil = GrassmannElement(3, {3: Fraction(1, 2), 5: Fraction(rng.randint(-2, 2))})
        jet = taylor_of([f], [x0], 3)
        direct = poly_eval(f, [GrassmannElement.scalar(3, x0) + nil], 3)
        (via_jet,) = exp_pair(jet, [nil], 3)
        assert via_jet == direct


def test_exp_pair_checks_parities():
    jet = taylor_of([Polynomial.variable(1, 0)], [Fraction(0)], 1)
    odd = GrassmannElement.gen(2, 1)
    with pytest.raises(ParityError):
        exp_pair(jet, [odd], 2)
    plane = taylor_of([Polynomial.variable(2, 0)], [Fraction(0)] * 2, 1)
    with pytest.raises(DimensionError, match="mixed generator counts"):
        exp_pair(plane, [GrassmannElement.zero(2), GrassmannElement.zero(4)], 2)


def test_exp_pair_of_a_jet_of_zero_variables_is_its_constants():
    # the caller gives the generator count, so no argument is needed to read it off
    constants = [Polynomial.constant(0, 5), Polynomial.constant(0, Fraction(-2, 3))]
    assert exp_pair(taylor_of(constants, [], 2), [], 3) == [
        GrassmannElement.scalar(3, 5), GrassmannElement.scalar(3, Fraction(-2, 3))]
    assert exp_pair(taylor_of([], [], 1), [], 0) == []


# ---------------------------------------------------------------------------
# the contraction walk and the monomial table


def contract_from_scratch(indices, shifted, even_args, odd_args, one):
    """sum c_{I,J} eps^I omega^J over I then the (J, {I: c_{I,J}}) pairs, each
    monomial by plain products and the sum key by key."""
    pairs = [(coeffs[I], plain_monomial(I, J, even_args, odd_args, one).terms)
             for I in indices for J, coeffs in shifted if I in coeffs]
    return plain_sum(pairs)


@st.composite
def contraction_arguments(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    ring = draw(st.sampled_from(["int", "fraction", "polynomial", "float"]))
    coefficients = {"int": small_ints, "fraction": small_fractions, "float": floats,
                    "polynomial": polynomials(p=1, degree=1, max_terms=2)}[ring]
    one = GrassmannElement(n, {0: Polynomial.one(1) if ring == "polynomial" else 1})
    even = [GrassmannElement(n, {m: c for m, c in g.terms.items() if m})
            for g in draw(st.lists(grassmann_elements(n=n, parity=0, coefficients=coefficients),
                                   max_size=3))]
    # a single even monomial squares to zero, so some powers vanish at e = 2
    if n >= 2 and even and draw(st.booleans()):
        even[0] = GrassmannElement(n, {0b11: one.terms[0]})
    odd = draw(st.lists(grassmann_elements(n=n, parity=1, coefficients=coefficients),
                        max_size=3))
    indices = draw(st.permutations(list(iter_multiindices_upto(len(even), 3))))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << len(odd)) - 1), max_size=6))
    shifted = []                # (J, {I: c_{I,J}}) of the omega^J that do not vanish
    for J in masks:
        if plain_monomial((), J, [], odd, one):
            keys = draw(st.lists(st.sampled_from(indices), unique=True, max_size=6))
            coeffs = {I: draw(coefficients) for I in keys}
            shifted.append((J, {I: c for I, c in coeffs.items() if c}))
    return indices, shifted, even, odd, one


@given(contraction_arguments())
def test_contract_sums_what_plain_products_and_a_plain_sum_give(args):
    indices, shifted, even, odd, one = args
    table = MonomialTable(even, odd, one)
    pairs = [(plain_monomial((), J, [], odd, one), coeffs) for J, coeffs in shifted]
    want = fingerprint(contract_from_scratch(*args))
    assert fingerprint(table.contract(indices, pairs)) == want
    # a second pass reads the memo and must give the same terms in the same order
    assert fingerprint(table.contract(indices, pairs)) == want


@given(st.integers(min_value=2, max_value=3), st.data())
def test_exp_pair_on_multivariate_rational_jets_is_polynomial_evaluation(m, data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    k = data.draw(st.integers(min_value=0, max_value=3))
    phis = data.draw(st.lists(polynomials(p=m, degree=4), min_size=1, max_size=3))
    x0 = data.draw(st.lists(small_fractions, min_size=m, max_size=m))
    eps = [GrassmannElement(n, {mask: c for mask, c in g.terms.items() if mask})
           for g in (data.draw(grassmann_elements(n=n, parity=0)) for _ in range(m))]
    jet = taylor_of(phis, x0, k)
    assert exp_pair(jet, eps, n) == [poly_eval(f, eps, n) for f in jet.polys]


def _count_products(monkeypatch):
    products = []
    mul = GrassmannElement.__mul__

    def counted(a, b):
        out = mul(a, b)
        if isinstance(b, GrassmannElement):
            products.append((a, b, out))
        return out

    monkeypatch.setattr(GrassmannElement, "__mul__", counted)
    return products


def _nonzero_powers(even_args, top):
    """eps_i^e for 2 <= e <= top that do not vanish; taken before products are counted."""
    powers = []
    for arg in even_args:
        power = arg
        for _ in range(2, top + 1):
            power = power * arg
            if power:
                powers.append(power)
    return powers


def _assert_shared_and_unit_free(products, powers, one):
    assert powers and products
    for a, b, _ in products:
        assert a != one and b != one
    for power in powers:
        assert sum(out == power for _, _, out in products) == 1


def _assert_no_power_built(products, powers):
    assert not any(out == power for _, _, out in products for power in powers)


def test_one_pushforward_builds_each_power_once_and_never_multiplies_by_the_unit(monkeypatch):
    n = 6
    eps = [GrassmannElement(n, {0b000011: 1, 0b001100: 1}),
           GrassmannElement(n, {0b000101: 2, 0b110000: -1})]
    mu = SuperPoint(n, [GrassmannElement.scalar(n, 1) + eps[0],
                        GrassmannElement.scalar(n, 2) + eps[1]],
                    [GrassmannElement(n, {0b000001: 1, 0b010000: 3}),
                     GrassmannElement(n, {0b000010: 1, 0b000111: 1})])
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    phi = SuperMorphism((2, 2), (2, 1),
                        [SuperFunction(2, 2, {0: x * x * y, 0b11: y}),
                         SuperFunction(2, 2, {0: y * y * y + x})],
                        [SuperFunction(2, 2, {0b01: x * y, 0b10: x * x})])
    expected = pushforward(phi, mu)
    powers = _nonzero_powers(eps, n // 2)
    cold = SuperPoint.from_json(mu.to_json())     # equal, with a table not built yet
    products = _count_products(monkeypatch)
    assert pushforward(phi, cold) == expected
    _assert_shared_and_unit_free(products, powers, GrassmannElement.one(n))
    products.clear()
    # the point owns its table, so a repeat at it builds no power again
    assert pushforward(phi, cold) == expected
    _assert_no_power_built(products, powers)


def test_one_compose_builds_each_power_once_and_never_multiplies_by_the_unit(monkeypatch):
    x = Polynomial.variable(1, 0)
    one = Polynomial.one(1)
    eps = [SuperFunction(1, 4, {0b0011: one, 0b1100: x}),
           SuperFunction(1, 4, {0b0101: x, 0b1010: one})]
    phi = SuperMorphism((1, 4), (2, 2),
                        [SuperFunction(1, 4, {0: x, **eps[0].components}),
                         SuperFunction(1, 4, {0: x * x, **eps[1].components})],
                        [SuperFunction.theta(1, 4, 0) + SuperFunction.theta(1, 4, 3),
                         SuperFunction(1, 4, {0b0010: x})])
    y1, y2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    psi = SuperMorphism((2, 2), (1, 2),
                        [SuperFunction(2, 2, {0: y1 * y1 * y2, 0b11: y2})],
                        [SuperFunction(2, 2, {0b01: y1 * y2 * y2}),
                         SuperFunction(2, 2, {0b10: y1 + y2 * y2})])
    expected = morphism_compose(psi, phi)
    powers = _nonzero_powers([e.element for e in eps], 2)
    cold = SuperMorphism.from_json(phi.to_json())     # equal, with a table not built yet
    products = _count_products(monkeypatch)
    assert morphism_compose(psi, cold) == expected
    _assert_shared_and_unit_free(products, powers, SuperFunction.one(1, 4).element)
    products.clear()
    # the inner morphism owns its table, so a repeat along it builds no power again
    assert morphism_compose(psi, cold) == expected
    _assert_no_power_built(products, powers)


def test_one_jet_compose_builds_each_increment_monomial_once_and_never_multiplies_by_the_unit(
        monkeypatch):
    k = 3
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    phi = [1 + x + y * y + x * y, 2 - y + x * x]
    inner = taylor_of(phi, [Fraction(0)] * 2, k)
    eps = [f - f.terms[(0, 0)] for f in phi]
    # every outer component reads every I with |I| <= k
    outer = taylor_of([sum((Polynomial.monomial(2, I, s + sum(I))
                            for I in iter_multiindices_upto(2, k)), Polynomial.zero(2))
                       for s in (1, -2)], inner.base_value, k)
    monomials = []              # eps^I for 2 <= |I| <= k, taken before products are counted
    for I in iter_multiindices_upto(2, k):
        if sum(I) >= 2:
            mono = Polynomial.one(2)
            for f, e in zip(eps, I):
                for _ in range(e):
                    mono = trunc_poly(mono * f, k)
            monomials.append(mono)
    assert all(monomials) and len(set(map(str, monomials))) == len(monomials)
    expected = trunc_compose(outer, inner)
    products = []
    mul = _Jet.__mul__

    def counted(a, b):
        out = mul(a, b)
        products.append((a, b, out))
        return out

    monkeypatch.setattr(_Jet, "__mul__", counted)
    assert trunc_compose(outer, inner) == expected
    # one product per monomial, shared by both outer components
    assert len(products) == len(monomials)
    for a, b, _ in products:
        assert a != Polynomial.one(2) and b != Polynomial.one(2)
    for mono in monomials:
        assert sum(out == mono for _, _, out in products) == 1

"""Morphism layer: composition, pushforward, and the coefficient-order checks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superjet.jetcalc
import superjet.morphism
import superjet.polyalg
import superjet.superfun
from superjet import (
    DegreeBoundError,
    DimensionError,
    EtaCoefficient,
    GrassmannElement,
    OrderVerdict,
    ParityError,
    Polynomial,
    SplitMix64,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
    default_probes,
    eta_decompose,
    faa_di_bruno,
    hom_apply,
    lattice_points,
    morphism_compose,
    order_bound_check,
    pushforward,
    pushforward_general,
    sf_eval,
    sf_eval_naive,
    sf_substitute,
    taylor_coefficient,
    taylor_shift,
)
from superjet.morphism import _eta_part, _extract_eta, odd_derivative
from superjet.polyalg import iter_multiindices_upto
from superjet.suites import (
    random_hom,
    random_morphism,
    random_polynomial,
    random_superpoint,
    run_suite,
)

from conftest import morphisms, polynomials, small_ints, superfunctions, superpoints
from test_superfun import substitute_oracle


def scaling_example():
    """Phi*(y) = x, Phi*(theta') = x theta on R^(1|1)."""
    return SuperMorphism(
        (1, 1),
        (1, 1),
        [SuperFunction.coordinate(1, 1, 0)],
        [SuperFunction(1, 1, {1: Polynomial.variable(1, 0)})],
    )


def theta_pair_shift():
    """Phi*(y) = y + theta1 theta2 on R^(1|2), thetas fixed."""
    return SuperMorphism(
        (1, 2),
        (1, 2),
        [SuperFunction(1, 2, {0: Polynomial.variable(1, 0), 3: Polynomial.one(1)})],
        [SuperFunction.theta(1, 2, 0), SuperFunction.theta(1, 2, 1)],
    )


def test_pushforward_worked_example():
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    mu = SuperPoint(
        2,
        [GrassmannElement(2, {0: a, 3: c})],
        [GrassmannElement(2, {1: b})],
    )
    nu = pushforward(scaling_example(), mu)
    assert nu.even == (GrassmannElement(2, {0: a, 3: c}),)
    assert nu.odd == (GrassmannElement(2, {1: a * b}),)


def test_pushforward_of_body_point_is_classical():
    phi = SuperMorphism(
        (1, 0), (1, 0), [SuperFunction.from_poly(Polynomial.monomial(1, (2,)), 0)], []
    )
    mu = SuperPoint(1, [GrassmannElement.scalar(1, Fraction(3))], [])
    assert pushforward(phi, mu).even[0] == GrassmannElement.scalar(1, Fraction(9))


def test_identity_is_neutral_for_composition():
    rng = SplitMix64(5)
    phi = random_morphism(rng, (2, 1), (1, 2))
    assert morphism_compose(SuperMorphism.identity(1, 2), phi) == phi
    assert morphism_compose(phi, SuperMorphism.identity(2, 1)) == phi


def test_composition_functoriality_on_points():
    rng = SplitMix64(6)
    for _ in range(20):
        phi = random_morphism(rng, (1, 2), (2, 1), degree=2)
        psi = random_morphism(rng, (2, 1), (1, 1), degree=2)
        mu = random_superpoint(rng, 3, 1, 2)
        lhs = pushforward(morphism_compose(psi, phi), mu)
        rhs = pushforward(psi, pushforward(phi, mu))
        assert lhs == rhs


def test_pushforward_defines_the_pullback_dual():
    # evaluating a pulled-back superfunction equals evaluating at the image point
    rng = SplitMix64(7)
    for _ in range(10):
        phi = random_morphism(rng, (1, 2), (2, 1), degree=2)
        mu = random_superpoint(rng, 2, 1, 2)
        sigma = SuperFunction(
            2,
            1,
            {0: random_polynomial(rng, 2, degree=2), 1: random_polynomial(rng, 2, degree=1)},
        )
        assert sf_eval(sf_substitute(sigma, phi), mu) == sf_eval(sigma, pushforward(phi, mu))


def test_pushforward_general_agrees():
    rng = SplitMix64(8)
    for _ in range(15):
        phi = random_morphism(rng, (2, 2), (2, 2), degree=2)
        mu = random_superpoint(rng, 3, 2, 2)
        assert pushforward(phi, mu) == pushforward_general(phi, mu)


def test_pushforward_commutes_with_coefficient_homs():
    rng = SplitMix64(9)
    for _ in range(10):
        phi = random_morphism(rng, (1, 1), (1, 1), degree=2)
        mu = random_superpoint(rng, 3, 1, 1)
        rho = random_hom(rng, 3, 4)
        moved = SuperPoint(
            4,
            [hom_apply(rho, c) for c in mu.even],
            [hom_apply(rho, c) for c in mu.odd],
        )
        nu = pushforward(phi, mu)
        assert pushforward(phi, moved) == SuperPoint(
            4,
            [hom_apply(rho, c) for c in nu.even],
            [hom_apply(rho, c) for c in nu.odd],
        )


def test_composition_dimension_mismatch():
    with pytest.raises(DimensionError):
        morphism_compose(SuperMorphism.identity(2, 1), SuperMorphism.identity(1, 1))


def odd_collapse():
    """Phi*(theta') = theta, from R^(1|1) to R^(0|1)."""
    return SuperMorphism((1, 1), (0, 1), [], [SuperFunction.theta(1, 1, 0)])


def test_composition_through_a_purely_odd_target():
    # pulled-back coefficients live in the source's even variables, not in none
    phi = odd_collapse()
    assert morphism_compose(SuperMorphism.identity(0, 1), phi) == phi
    three_theta = SuperFunction.theta(0, 1, 0).scale(3)
    assert sf_substitute(three_theta, phi) == SuperFunction.theta(1, 1, 0).scale(3)
    assert sf_substitute(SuperFunction.one(0, 1), phi) == SuperFunction.one(1, 1)


def test_morphism_is_frozen():
    phi = scaling_example()
    with pytest.raises(AttributeError):
        phi.even_pb = []
    with pytest.raises(TypeError):
        phi.odd_pb[0] = SuperFunction.theta(1, 1, 0)
    assert isinstance(phi.source, tuple) and isinstance(phi.even_pb, tuple)


def test_morphism_checks_its_shape_once_at_construction():
    with pytest.raises(DimensionError):
        SuperMorphism((1, 1, 0), (1, 1), [SuperFunction.coordinate(1, 1, 0)],
                      [SuperFunction.theta(1, 1, 0)])
    with pytest.raises(ParityError):
        SuperMorphism((1, 1), (1, 1), [SuperFunction.theta(1, 1, 0)],
                      [SuperFunction.theta(1, 1, 0)])


# -- eta expansion ---------------------------------------------------------


def embed(value: SuperFunction, index, q_total: int) -> SuperFunction:
    """Multiply a coefficient value by eta^I inside the full odd sector."""
    n_eta = len(index)
    eta_mask = sum(1 << i for i, e in enumerate(index) if e)
    comps = {}
    for mask, poly in value.components.items():
        comps[(mask << n_eta) | eta_mask] = poly
    return SuperFunction(value.p, q_total, comps)


def test_eta_decompose_reconstructs_the_pullback():
    rng = SplitMix64(10)
    probes = default_probes(1, 1, 2)
    for _ in range(10):
        phi = random_morphism(rng, (1, 3), (1, 1), degree=2)
        coefficients = eta_decompose(phi, 2)
        for g in probes:
            total = SuperFunction.zero(1, 3)
            for coef in coefficients:
                total = total + embed(coef.apply(g), coef.index, 3)
            assert total == sf_substitute(g, phi)


def test_classical_morphism_has_single_order_zero_coefficient():
    phi = SuperMorphism(
        (2, 0), (1, 0), [SuperFunction.from_poly(Polynomial.monomial(2, (1, 2)), 0)], []
    )
    coefficients = eta_decompose(phi, 0)
    assert len(coefficients) == 1
    assert coefficients[0].order() == 0


def test_theta_pair_shift_certifies_order_one_not_zero():
    phi = theta_pair_shift()

    # whole odd sector: coefficient at theta1 theta2 is a derivation
    (c_full,) = [c for c in eta_decompose(phi, 2) if c.index == (1, 1)]
    assert order_bound_check(c_full, 1).passed
    bad = order_bound_check(c_full, 0)
    assert not bad.passed and bad.witness is not None
    assert c_full.order() == 1

    # single leading eta: same sharpness in the partial expansion
    (c_eta,) = [c for c in eta_decompose(phi, 1) if c.index == (1,)]
    assert order_bound_check(c_eta, 1).passed
    assert not order_bound_check(c_eta, 0).passed


def test_eta_free_coefficient_of_theta_shift_is_order_zero():
    # Phi*(y) = x + theta2 theta3: expanding over eta = theta1 only, the
    # eta-free coefficient still carries theta2 theta3 but acts multiplicatively,
    # so it must certify order 0.
    phi = SuperMorphism(
        (1, 3),
        (1, 1),
        [SuperFunction(1, 3, {0: Polynomial.variable(1, 0), 6: Polynomial.one(1)})],
        [SuperFunction.theta(1, 3, 0)],
    )
    coefficients = eta_decompose(phi, 1)
    empty = [c for c in coefficients if c.index == (0,)][0]
    assert empty.order() == 0
    assert order_bound_check(empty, 0).passed


@pytest.mark.parametrize("seed", [16, 41, 83])
def test_sharpness_search_finds_its_witness_on_every_seed(seed):
    # these seeds reach the order-0 witness only after the default 8 trials
    assert run_suite("morphism", seed=seed, cases=2)["failed"] == 0


def test_order_verdicts_are_seed_deterministic():
    phi = theta_pair_shift()
    (coef,) = [c for c in eta_decompose(phi, 2) if c.index == (1, 1)]
    v1 = order_bound_check(coef, 0, seed=3)
    v2 = order_bound_check(coef, 0, seed=3)
    assert not v1.passed
    assert v1.to_json() == v2.to_json()


# -- the telescoped commutator against its expansion -------------------------


def order_check_expanded(coef, k, trials=8, seed=0):
    """order_bound_check's (k+1)-fold commutator expanded over all 2^(k+1) subsets.

    Independent of the telescoped product: each subset S costs
    psi(f_{S^c}) * D_I(f_S h), with psi the eta-free coefficient and D_I the
    eta^I part of the pullback, and the signed terms are summed before
    evaluation.  It draws the same random numbers in the same order, so its
    verdicts must match to the byte.
    """
    phi = coef.phi
    p, _ = phi.source
    p2, q2 = phi.target
    bodies = phi.bodies
    rng = SplitMix64(seed)
    if p2 == 0:
        return OrderVerdict(passed=True, k=k, trials=0)
    lattice = lattice_points(p, radius=1, den=2)
    rng.shuffle(lattice)
    probes = default_probes(p2, q2, 2 * k + 2)
    rng.shuffle(probes)

    def part(g, mask):
        return _extract_eta(sf_substitute(g, phi, degree_bound=None), coef.n_eta, mask)

    for t in range(trials):
        x0 = lattice[t % len(lattice)]
        y0 = [f.eval_scalar(x0) for f in bodies]
        coords = [rng.randint(0, p2 - 1) for _ in range(k + 1)]
        factors = [
            SuperFunction.from_poly(Polynomial.variable(p2, j) - Polynomial.constant(p2, y0[j]), q2)
            for j in coords
        ]
        psi_factors = [part(f, 0) for f in factors]
        h = probes[t % len(probes)]
        total = None
        for subset in range(1 << (k + 1)):
            arg = h
            twist = None
            for i in range(k + 1):
                if subset >> i & 1:
                    arg = factors[i] * arg
                else:
                    twist = psi_factors[i] if twist is None else twist * psi_factors[i]
            term = part(arg, coef.mask)
            if twist is not None:
                term = twist * term
            if (k + 1 - subset.bit_count()) & 1:
                term = -term
            total = term if total is None else total + term
        value = total.eval_body(x0)
        if value:
            witness = {
                "x0": [str(v) for v in x0],
                "y0": [str(v) for v in y0],
                "coords": coords,
                "h": h.to_json(),
                "value": {str(mm): str(v) for mm, v in sorted(value.items())},
                "eta_index": list(coef.index),
                "k": k,
            }
            return OrderVerdict(passed=False, k=k, trials=t + 1, witness=witness)
    return OrderVerdict(passed=True, k=k, trials=trials)


def order_check_disagreements(phi, n_eta, trials, seed):
    """(failing verdicts, verdicts unlike the expansion's) over every coefficient and k <= |I|."""
    failed = differ = 0
    for coef in eta_decompose(phi, n_eta):
        for k in range(sum(coef.index) + 1):
            verdict = order_bound_check(coef, k, trials=trials, seed=seed).to_json()
            failed += not verdict["passed"]
            differ += verdict != order_check_expanded(coef, k, trials, seed).to_json()
    return failed, differ


ORDER_SHAPES = [((1, 2), (1, 1)), ((1, 3), (1, 1)), ((2, 2), (2, 1)), ((1, 2), (2, 2)),
                ((1, 2), (0, 1))]


@settings(max_examples=40)
@given(st.data(), st.integers(1, 10), st.integers(0, 2**32))
def test_telescoped_order_check_matches_the_expansion(data, trials, seed):
    source, target = data.draw(st.sampled_from(ORDER_SHAPES))
    phi = data.draw(morphisms(source, target))
    n_eta = data.draw(st.integers(1, source[1]))
    assert order_check_disagreements(phi, n_eta, trials, seed)[1] == 0


def seeded_order_sweep(cases=10):
    """Morphisms drawn as the verifier's etaorder cases are, with their n_eta."""
    rng = SplitMix64(2024)
    for _ in range(cases):
        p, q = rng.randint(1, 2), rng.randint(2, 3)
        r, s = rng.randint(1, 2), rng.randint(0, 2)
        yield random_morphism(rng, (p, q), (r, s), degree=2), rng.randint(1, q)


def test_telescoped_order_check_matches_the_expansion_on_failing_cases():
    failed = 0
    for i, (phi, n_eta) in enumerate(seeded_order_sweep()):
        f, differ = order_check_disagreements(phi, n_eta, trials=8, seed=i)
        assert differ == 0
        failed += f
    assert failed > 0   # the agreement covers witnesses, not only passes


def order_check_reshuffled(coef, k, trials=8, seed=0):
    """order_bound_check as it was before its trial plans were cached: both
    seeded shuffles redone on every call, then the same telescoped trials."""
    phi = coef.phi
    p, _ = phi.source
    p2, q2 = phi.target
    rng = SplitMix64(seed)
    if p2 == 0:
        return OrderVerdict(passed=True, k=k, trials=0)
    lattice = lattice_points(p, radius=1, den=2)
    rng.shuffle(lattice)
    probes = default_probes(p2, q2, 2 * k + 2)
    rng.shuffle(probes)
    outside = ((1 << coef.n_eta) - 1) & ~coef.mask
    etas = [SuperFunction(sf.p, sf.q, {mm: f for mm, f in sf.components.items()
                                       if not mm & outside})
            for sf in (_eta_part(sf, coef.n_eta) for sf in phi.even_pb)]
    for t in range(trials):
        x0 = lattice[t % len(lattice)]
        coords = [rng.randint(0, p2 - 1) for _ in range(k + 1)]
        h = probes[t % len(probes)]
        product = etas[coords[0]]
        for j in coords[1:]:
            product = product * etas[j]
        if not product:
            continue
        pulled = sf_substitute(h, phi, degree_bound=None)
        value = _extract_eta(product * pulled, coef.n_eta, coef.mask).eval_body(x0)
        if value:
            witness = {
                "x0": [str(v) for v in x0],
                "y0": [str(f.eval_scalar(x0)) for f in phi.bodies],
                "coords": coords,
                "h": h.to_json(),
                "value": {str(mm): str(v) for mm, v in sorted(value.items())},
                "eta_index": list(coef.index),
                "k": k,
            }
            return OrderVerdict(passed=False, k=k, trials=t + 1, witness=witness)
    return OrderVerdict(passed=True, k=k, trials=trials)


def test_a_cached_trial_plan_gives_the_verdicts_of_a_fresh_shuffle():
    plans = superjet.morphism._trial_plan
    plans.cache_clear()
    outcomes = set()
    for _ in ("cold", "warm"):
        misses = plans.cache_info().misses
        for i, (phi, n_eta) in enumerate(seeded_order_sweep()):
            for coef in eta_decompose(phi, n_eta):
                for k in range(sum(coef.index) + 1):
                    verdict = order_bound_check(coef, k, seed=i).to_json()
                    assert verdict == order_check_reshuffled(coef, k, seed=i).to_json()
                    outcomes.add(verdict["passed"])
    assert plans.cache_info().misses == misses      # the second pass built no plan
    assert outcomes == {True, False}


def test_expansion_catches_the_whole_pullback_in_place_of_its_eta_part(monkeypatch):
    monkeypatch.setattr(superjet.morphism, "_eta_part", lambda sf, n_eta: sf)
    differ = sum(order_check_disagreements(phi, n_eta, trials=8, seed=i)[1]
                 for i, (phi, n_eta) in enumerate(seeded_order_sweep()))
    assert differ > 0


# -- the symbol against its oracles ------------------------------------------


def eta_free(phi: SuperMorphism, n_eta: int) -> SuperMorphism:
    """psi: phi with every eta-carrying term of its pullbacks dropped."""
    def keep(sf):
        return SuperFunction(sf.p, sf.q, {m: f for m, f in sf.components.items()
                                          if not m & ((1 << n_eta) - 1)})

    return SuperMorphism(phi.source, phi.target, [keep(sf) for sf in phi.even_pb],
                         [keep(sf) for sf in phi.odd_pb])


def symbol_pullback(phi: SuperMorphism, n_eta: int, g: SuperFunction) -> SuperFunction:
    """sum_I eta^I sum_{beta,K} c_{beta,K} psi(d^beta d_theta^K g), from the symbols alone."""
    psi = eta_free(phi, n_eta)
    total = SuperFunction.zero(*phi.source)
    for coef in eta_decompose(phi, n_eta):
        for (beta, K), c in coef.symbol.items():
            d_beta = SuperFunction(g.p, g.q, {J: f.derive(beta)
                                              for J, f in g.components.items()})
            term = sf_substitute(odd_derivative(d_beta, K), psi, degree_bound=None)
            total = total + embed(c, coef.index, phi.source[1]) * term
    return total


@pytest.mark.parametrize("q", range(5))
def test_odd_derivative_signs_count_the_inversions(q):
    # theta^J = (-1)^inv theta^K theta^(J-K), inv the out-of-order pairs of K then J-K
    x = Polynomial.variable(1, 0)
    for J in range(1 << q):
        g = SuperFunction(1, q, {J: x})
        for K in range(1 << q):
            if J & K != K:
                assert odd_derivative(g, K) == SuperFunction.zero(1, q)
                continue
            seq = [i for i in range(q) if K >> i & 1] + [j for j in range(q) if (J ^ K) >> j & 1]
            inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
            want = -x if inversions % 2 else x
            assert odd_derivative(g, K) == SuperFunction(1, q, {J ^ K: want})


def test_odd_derivative_takes_its_sign_from_merge_sign(monkeypatch):
    # theta_0 theta_1 = -theta_1 theta_0, so d_theta_1 of it is -theta_0
    g = SuperFunction(1, 2, {0b11: Polynomial.one(1)})
    assert odd_derivative(g, 0b10) == SuperFunction(1, 2, {0b01: -Polynomial.one(1)})
    monkeypatch.setattr(superjet.morphism, "merge_sign", lambda a, b: 1)
    assert odd_derivative(g, 0b10) == SuperFunction(1, 2, {0b01: Polynomial.one(1)})


def order_failures(phi: SuperMorphism, n_eta: int, seed: int) -> list:
    """Coefficients whose symbol order breaks its bound or fails the sampled check."""
    return [c.index for c in eta_decompose(phi, n_eta)
            if c.order() > c.order_bound() or not order_bound_check(c, c.order(), seed=seed).passed]


SYMBOL_SHAPES = ORDER_SHAPES + [((1, 4), (1, 1)), ((2, 4), (2, 2))]


@settings(max_examples=40)
@given(st.data())
def test_the_symbol_rebuilds_the_pullback(data):
    source, target = data.draw(st.sampled_from(SYMBOL_SHAPES))
    phi = data.draw(morphisms(source, target))
    g = data.draw(superfunctions(p=target[0], q=target[1]))
    n_eta = data.draw(st.integers(1, source[1]))
    assert symbol_pullback(phi, n_eta, g) == sf_substitute(g, phi, degree_bound=None)


@settings(max_examples=40)
@given(st.data(), st.integers(0, 2**32))
def test_the_sampled_check_passes_at_the_symbol_order(data, seed):
    source, target = data.draw(st.sampled_from(SYMBOL_SHAPES))
    phi = data.draw(morphisms(source, target))
    n_eta = data.draw(st.integers(1, source[1]))
    assert order_failures(phi, n_eta, seed) == []


@pytest.mark.parametrize("mutant", [None, "mi_factorial", "_eta_part"])
def test_the_rebuild_catches_a_broken_symbol(monkeypatch, mutant):
    broken = {"mi_factorial": lambda beta: 1,            # 1/beta! dropped
              "_eta_part": lambda sf, n_eta: sf}        # whole pullback for its eta-part
    if mutant:
        monkeypatch.setattr(superjet.morphism, mutant, broken[mutant])
    rng = SplitMix64(2025)
    differ = 0
    for _ in range(6):
        # four etas, so some b_j squares to nonzero and beta! reaches 2
        phi = random_morphism(rng, (1, 4), (2, 1), degree=2)
        for g in default_probes(2, 1, 2):
            differ += symbol_pullback(phi, 4, g) != sf_substitute(g, phi, degree_bound=None)
    assert (differ > 0) == (mutant is not None)


@pytest.mark.parametrize("mutant", [False, True])
def test_the_sampled_check_catches_an_order_below_the_symbol(monkeypatch, mutant):
    if mutant:
        exact = EtaCoefficient.order
        monkeypatch.setattr(EtaCoefficient, "order", lambda self: max(exact(self) - 1, 0))
    failed = sum(len(order_failures(phi, n_eta, seed=i))
                 for i, (phi, n_eta) in enumerate(seeded_order_sweep()))
    assert (failed > 0) == mutant


# -- the per-morphism monomial table -----------------------------------------


def fresh(phi: SuperMorphism) -> SuperMorphism:
    """An equal morphism whose monomial table is not built yet."""
    return SuperMorphism.from_json(phi.to_json())


@settings(max_examples=30)
@given(morphisms((1, 3), (1, 1)), st.integers(1, 2), st.integers(0, 99))
def test_order_verdicts_do_not_depend_on_memo_order(phi, n_eta, seed):
    def verdicts(morphism, reverse=False):
        dec = eta_decompose(morphism, n_eta)
        checked = {c.index: order_bound_check(c, c.order_bound(), seed=seed).to_json()
                   for c in (reversed(dec) if reverse else dec)}
        return [checked[c.index] for c in dec]

    forward = verdicts(phi)
    assert verdicts(fresh(phi), reverse=True) == forward   # cold, reverse order
    assert verdicts(phi) == forward                         # warm


def test_oracles_do_not_read_the_memo(monkeypatch):
    rng = SplitMix64(12)
    phi = random_morphism(rng, (1, 3), (1, 1), degree=2)
    probes = default_probes(1, 1, 2)
    expected = [sf_substitute(g, phi) for g in probes]

    def refuse(*args, **kwargs):
        raise AssertionError("oracle pulled back through sf_substitute")

    mu = random_superpoint(rng, 3, 1, 3)
    fast_point = pushforward(phi, mu)
    fast_values = [sf_eval(sigma, mu) for sigma in phi.even_pb + phi.odd_pb]
    symbols = [coef.symbol for coef in eta_decompose(phi, 2)]

    def no_table(self):
        raise AssertionError("oracle read a cached monomial table")

    # a property wins over the value a cached_property left in the instance
    monkeypatch.setattr(SuperMorphism, "table", property(no_table))
    monkeypatch.setattr(SuperPoint, "table", property(no_table))
    with pytest.raises(AssertionError):
        pushforward(phi, mu)
    with pytest.raises(AssertionError):
        sf_substitute(probes[0], phi)
    for g, full in zip(probes, expected):
        assert substitute_oracle(g, phi) == full
    assert pushforward_general(phi, mu) == fast_point
    for sigma, value in zip(phi.even_pb + phi.odd_pb, fast_values):
        assert sf_eval_naive(sigma, mu) == value
    # the symbols are built from the pullbacks' eta-parts alone
    monkeypatch.setattr(superjet.morphism, "sf_substitute", refuse)
    assert [coef.symbol for coef in eta_decompose(phi, 2)] == symbols


def test_oracles_do_not_call_the_taylor_shift(monkeypatch):
    rng = SplitMix64(13)
    phi = random_morphism(rng, (2, 1), (1, 2), degree=3)
    mu = random_superpoint(rng, 4, 2, 1)
    sigma = phi.odd_pb[0]
    f = random_polynomial(rng, 2, degree=4, terms=5)
    x0 = [Fraction(1, 2), Fraction(-2)]
    g = SuperFunction(1, 2, {0: random_polynomial(rng, 1), 0b11: random_polynomial(rng, 1)})
    shifted = taylor_shift(f, x0, 4)
    fast_point = pushforward(phi, mu)
    fast_value = sf_eval(sigma, mu)
    fast_pullback = sf_substitute(g, phi)

    def refuse(*args, **kwargs):
        raise AssertionError("oracle called taylor_shift")

    for module in (superjet.polyalg, superjet.jetcalc, superjet.superfun):
        monkeypatch.setattr(module, "taylor_shift", refuse)
    for I in iter_multiindices_upto(2, 4):
        assert taylor_coefficient(f, I, x0) == shifted.terms.get(I, 0)
    assert pushforward_general(phi, mu) == fast_point
    assert sf_eval_naive(sigma, mu) == fast_value
    assert substitute_oracle(g, phi) == fast_pullback
    # the patch bites: both fast paths do go through the shift
    with pytest.raises(AssertionError):
        sf_eval(sigma, mu)
    with pytest.raises(AssertionError):
        sf_substitute(g, phi)


def scalar_leaves(value):
    """Every scalar coefficient inside a value, down through its nested rings."""
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from scalar_leaves(v)
    elif isinstance(value, dict):
        yield from scalar_leaves(list(value.values()))
    elif isinstance(value, SuperPoint):
        yield from scalar_leaves(value.even + value.odd)
    elif isinstance(value, SuperFunction):
        yield from scalar_leaves(value.components)
    elif isinstance(value, (GrassmannElement, Polynomial)):
        yield from scalar_leaves(value.terms)
    else:
        yield value


@given(st.data())
def test_integer_inputs_give_no_float_in_an_exact_result(data):
    # an int divided by an int with / is a float; every exact division must avoid it
    f = data.draw(polynomials(p=2, coefficients=small_ints))
    x0 = data.draw(st.lists(small_ints, min_size=2, max_size=2))
    inner = [data.draw(polynomials(p=2, degree=2, coefficients=small_ints)) for _ in range(2)]
    outer = [data.draw(polynomials(p=2, coefficients=small_ints))]
    phi = data.draw(morphisms((1, 1), (1, 1), coefficients=small_ints))
    mu = data.draw(superpoints(n=3, coefficients=small_ints))
    sigma = data.draw(superfunctions(p=1, q=1, coefficients=small_ints))
    into_odd = data.draw(morphisms((1, 2), (0, 2), coefficients=small_ints))
    g = data.draw(superfunctions(p=0, q=2, coefficients=small_ints))
    results = [
        [taylor_coefficient(f, I, x0) for I in iter_multiindices_upto(2, 3)],
        faa_di_bruno(outer, inner, x0, data.draw(st.integers(1, 3))),
        pushforward_general(phi, mu),
        sf_eval(sigma, mu),
        sf_substitute(g, into_odd),
    ]
    assert not any(isinstance(c, float) for c in scalar_leaves(results))


def test_a_shared_table_keeps_the_guardrail_for_every_pullback():
    # psi's first pullback y^3 composes to degree 15, its second y^4 to 20 > 16
    x = Polynomial.variable(1, 0)
    fifth = SuperFunction(1, 2, {0: Polynomial.monomial(1, (5,)), 0b11: x})
    phi = SuperMorphism((1, 2), (1, 2), [fifth],
                        [SuperFunction.theta(1, 2, 0), SuperFunction.theta(1, 2, 1)])
    cube, fourth = (SuperFunction.from_poly(Polynomial.monomial(1, (e,)), 2) for e in (3, 4))
    assert sf_substitute(cube, phi).body_poly() == Polynomial.monomial(1, (15,))
    psi = SuperMorphism((1, 2), (2, 0), [cube, fourth], [])
    with pytest.raises(DegreeBoundError) as raised:
        morphism_compose(psi, phi)
    assert str(raised.value) == "expanded composition degree may reach 20 > bound 16"
    composed = morphism_compose(psi, phi, degree_bound=None)
    assert composed.even_pb[1].body_poly() == Polynomial.monomial(1, (20,))


def test_morphism_json_roundtrip():
    rng = SplitMix64(11)
    phi = random_morphism(rng, (2, 2), (1, 2))
    assert SuperMorphism.from_json(phi.to_json()) == phi

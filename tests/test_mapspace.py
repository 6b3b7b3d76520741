"""Mapping-space layer: pair encoding, functorial action, supersmoothness."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import superjet.suites as suites
from superjet import (
    DimensionError,
    GrassmannElement,
    GrassmannHom,
    LambdaPointMap,
    MappingPoint,
    Polynomial,
    SplitMix64,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
    chart_transition_map,
    hom_compose,
    lambda_point_map_of,
    merge_sign,
    morphism_compose,
    pushforward,
    sc_functor_action,
    sc_pair_to_point,
    sc_point_to_pair,
    supersmooth_check,
    top_order_cancellation,
)
from superjet.grassmann import _coerce
from superjet.mapspace import (
    SmoothVerdict,
    _lambda_plan,
    _point_of,
    _symbolic_point,
    _variable_order,
)
from superjet.polyalg import mi_unit
from superjet.suites import (
    coefficient_squaring_map,
    late_failing_map,
    random_hom,
    random_morphism,
    random_shear_chart,
    random_superpoint,
)


def random_mapping_point(rng, n, p=1, q=1):
    return MappingPoint(n, random_morphism(rng, (p, n + q), (1, 1), degree=2))


# ---------------------------------------------------------------------------
# pointwise oracle: the sampled form of the supersmoothness condition.  It
# evaluates the Jacobian at a few body points and multiplies tangents by even
# scalars with Grassmann products, so it shares neither the Jacobian nor the
# slot permutation with the identity that supersmooth_check decides.


def differential_at(F, kappa: SuperPoint):
    """Jacobian of F at kappa, as a function on tangent points."""
    vec = F.coefficient_vector(kappa)
    rows = []   # {in_var: value} per output, nonzero entries only
    for poly in F.outputs:
        row = {v: poly.derive(mi_unit(F.nvars, v)).eval_scalar(vec) for v in range(F.nvars)}
        rows.append({v: val for v, val in row.items() if val})

    def apply_tangent(tau: SuperPoint) -> SuperPoint:
        tvec = F.coefficient_vector(tau)
        return _point_of(F.n, *F.target, [sum((j * tvec[v] for v, j in row.items()), Fraction(0))
                                          for row in rows])

    return apply_tangent


def pointwise_supersmooth(F) -> bool:
    """dF(lam tau) == lam dF(tau) at three rational body points kappa.

    The defect is bilinear in (lam, tau), so the even monomials plus a mix and
    the coordinate tangents plus a dense one decide those two slots exactly;
    only kappa is sampled.
    """
    scalars = [GrassmannElement.monomial(F.n, m) for m in range(1 << F.n)
               if not m.bit_count() & 1]
    if F.n >= 2:
        scalars.append(GrassmannElement.one(F.n) + GrassmannElement.monomial(F.n, 3))
    tangents = []
    for i in range(F.nvars):
        vec = [Fraction(0)] * F.nvars
        vec[i] = Fraction(1)
        tangents.append(_point_of(F.n, *F.source, vec))
    tangents.append(_point_of(F.n, *F.source, [Fraction(1)] * F.nvars))
    cycles = [
        [Fraction(1, 2), Fraction(-1, 3), Fraction(1), Fraction(0), Fraction(2, 5)],
        [Fraction(-1), Fraction(1, 4), Fraction(0), Fraction(1, 3), Fraction(-2)],
        [Fraction(1), Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(0)],
    ]

    def scale(lam, point):
        return SuperPoint(point.n, [lam * c for c in point.even], [lam * c for c in point.odd])

    for cycle in cycles:
        dF = differential_at(F, _point_of(
            F.n, *F.source, [cycle[i % len(cycle)] for i in range(F.nvars)]))
        for tau in tangents:
            dtau = dF(tau)
            for lam in scalars:
                got = dF(scale(lam, tau))
                want = scale(lam, dtau)
                if got.even != want.even or got.odd != want.odd:
                    return False
    return True


def assert_both_pass(F):
    verdict = supersmooth_check(F)
    assert verdict.passed, verdict.witness
    assert verdict.witness is None
    assert pointwise_supersmooth(F)


def test_pair_encoding_roundtrip():
    rng = SplitMix64(40)
    for _ in range(20):
        point = random_mapping_point(rng, rng.randint(0, 3))
        body, even_sections, odd_sections = sc_point_to_pair(point)
        back = sc_pair_to_point(point.n, point.morphism.source, body, even_sections,
                                odd_sections)
        assert back.n == point.n
        assert back.morphism == point.morphism


def test_pair_encoding_roundtrips_a_map_into_a_point():
    # R^{0|0} has no directions, so no section carries the source
    point = MappingPoint(1, SuperMorphism((1, 1), (0, 0), [], []))
    assert sc_pair_to_point(1, (1, 1), *sc_point_to_pair(point)) == point


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


def expanded_action(rho, point):
    """The functor action by hand: each sigma_J theta^J becomes sigma_J times the
    images of J's odd coordinates in ascending order, multiplied with plain *."""
    p, q = point.base_source
    m = rho.target
    images = [SuperFunction(p, m + q, {mask: Polynomial.constant(p, c)
                                       for mask, c in im.terms.items()})
              for im in rho.images] + [SuperFunction.theta(p, m + q, m + a) for a in range(q)]

    def substitute(sf):
        total = SuperFunction.zero(p, m + q)
        for J, sigma in sf.components.items():
            term = SuperFunction.from_poly(sigma, m + q)
            for i, image in enumerate(images):
                if J >> i & 1:
                    term = term * image
            total = total + term
        return total

    phi = point.morphism
    return MappingPoint(m, SuperMorphism((p, m + q), phi.target,
                                         [substitute(sf) for sf in phi.even_pb],
                                         [substitute(sf) for sf in phi.odd_pb]))


def test_functor_action_matches_the_expansion_by_hand():
    rng = SplitMix64(46)
    moved = 0
    for p in range(3):
        for q in range(3):
            for n in range(4):
                for m in (0, 1, 3):
                    point = MappingPoint(n, random_morphism(rng, (p, n + q), (1, 2), degree=3))
                    zero = GrassmannHom(n, m, [GrassmannElement.zero(m)] * n)
                    for rho in (random_hom(rng, n, m), zero):
                        got = sc_functor_action(rho, point)
                        assert got == expanded_action(rho, point)
                        moved += got.morphism != point.morphism
    assert moved > 0


def test_the_identity_acts_on_a_point_past_the_degree_bound():
    # x^17 exceeds the default degree bound of 16, and substituting etas raises
    # no degree in x, so no guardrail may refuse it
    x17 = SuperFunction.from_poly(Polynomial.monomial(1, (17,)), 1)
    point = MappingPoint(1, SuperMorphism((1, 1), (1, 1), [x17], [SuperFunction.theta(1, 1, 0)]))
    assert sc_functor_action(GrassmannHom.identity(1), point) == point


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


def test_output_tables_that_do_not_fit_the_target_are_refused():
    # supersmooth_check numbers outputs by the target's order, which has no such slot
    x = Polynomial.variable(2, 0)
    for outputs in ([], [x], [x, x, x]):
        with pytest.raises(DimensionError):
            LambdaPointMap(2, (1, 0), (1, 0), outputs)


@pytest.mark.parametrize("n, p, q", [(0, 1, 1), (1, 1, 1), (1, 0, 2), (2, 2, 0),
                                     (3, 0, 1), (3, 2, 1), (4, 1, 2)])
def test_the_symbolic_point_holds_the_variables_in_the_maps_order(n, p, q):
    F = lambda_point_map_of(SuperMorphism.identity(p, q), n)
    assert F.coefficient_vector(_symbolic_point(n, p, q)) == [
        Polynomial.variable(F.nvars, v) for v in range(F.nvars)]


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
    body, top = F.outputs   # masks 0 and 3
    assert body == Polynomial(2, {(1, 0): Fraction(1), (2, 0): Fraction(1)})
    assert top == Polynomial(2, {(0, 1): Fraction(1), (1, 1): Fraction(2)})


def test_pushforward_maps_are_supersmooth():
    rng = SplitMix64(45)
    for n in (2, 3):
        phi = random_morphism(rng, (1, 1), (1, 1), degree=2)
        assert_both_pass(lambda_point_map_of(phi, n))


@pytest.mark.parametrize("source, target", [((1, 1), (2, 0)), ((2, 1), (1, 2))])
def test_maps_between_different_shapes_are_supersmooth(source, target):
    # outputs are moved by the target's coefficients, inputs by the source's
    rng = SplitMix64(52)
    for n in (2, 3):
        F = lambda_point_map_of(random_morphism(rng, source, target, degree=2), n)
        assert_both_pass(F)
        assert supersmooth_check(F).checks > 0


def test_coefficient_squaring_map_is_rejected():
    verdict = supersmooth_check(coefficient_squaring_map())
    assert not verdict.passed
    assert verdict.witness is not None
    assert not pointwise_supersmooth(coefficient_squaring_map())


def test_the_late_failing_map_is_rejected_only_at_a_late_mask():
    # the first nonzero even mask at level 4 is 3; a check that stops there passes it
    F = late_failing_map()
    verdict = supersmooth_check(F)
    assert not verdict.passed
    assert verdict.witness["lambda_mask"] == 12
    # the entries compared at masks 3, 5, 6, 9, 10 and 12, in that order
    assert verdict.checks == 13
    assert not pointwise_supersmooth(F)


def _even_popcount(mask: int) -> bool:
    return bin(mask).count("1") % 2 == 0


@pytest.mark.parametrize("n", range(7))
def test_the_lambda_plan_matches_grassmann_products(n):
    # eta^m eta^a by GrassmannElement.__mul__, for every generator pair m and every a
    masks = range(1 << n)
    lams = sorted((1 << i) | (1 << j) for j in range(n) for i in range(j))
    products = {(m, a): (GrassmannElement.monomial(n, m) * GrassmannElement.monomial(n, a)).terms
                for m in lams for a in masks}
    for p in range(3):
        for q in range(3):
            order = [("even", j, c) for j in range(p) for c in masks if _even_popcount(c)] + [
                ("odd", b, c) for b in range(q) for c in masks if not _even_popcount(c)]
            plan = _lambda_plan(n, p, q)
            assert [m for m, _ in plan] == lams
            for m, moves in plan:
                # slot a moves to the coefficient w whose mask eta^m eta^a hits,
                # with that product's sign; a slot it kills moves nowhere
                want = {}
                for v, (kind, slot, a) in enumerate(order):
                    for c, sign in products[m, a].items():
                        want[order.index((kind, slot, c))] = (v, sign)
                assert moves == want


def test_the_memoized_shape_data_is_never_mutated():
    rng = SplitMix64(51)
    shapes = set()
    for n in range(5):
        for p in (1, 2):
            for q in range(3):
                phi = random_morphism(rng, (p, q), (rng.randint(1, 2), rng.randint(0, 2)), degree=2)
                first = lambda_point_map_of(phi, n)
                assert lambda_point_map_of(phi, n) == first
                shapes.add((n, p, q))
                composed = morphism_compose(phi, SuperMorphism.identity(p, q))
                for psi in (phi, composed):
                    assert list(psi.bodies) == [sf.body_poly() for sf in psi.even_pb]
    for n in range(2, 7):
        top_order_cancellation(n, 2, n // 2)
        shapes.add((n, 3, 0))
    for n in (2, 3, 4):
        supersmooth_check(coefficient_squaring_map(n))
        shapes.add((n, 1, 0))
    supersmooth_check(late_failing_map())

    def terms(point):
        return [{m: c.terms for m, c in x.terms.items()} for x in point.even + point.odd]

    for shape in sorted(shapes):
        cached, fresh = _symbolic_point(*shape), _symbolic_point.__wrapped__(*shape)
        assert cached is _symbolic_point(*shape)
        assert terms(cached) == terms(fresh)
        # and the products its table kept are those of a fresh table
        table = fresh.table
        assert all(table._even(I) == got for I, got in cached.table._evens.items())
        assert all(table._odd(J) == got for J, got in cached.table._odds.items())


def _derivative_entry(F, kind, slot, mask, var):
    outputs = _variable_order(F.n, *F.target)
    poly = F.outputs[outputs.index((kind, slot, mask))]
    return poly.derive(mi_unit(F.nvars, F.var_order.index(var)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rejection_witness_replays_from_the_map(n):
    F = coefficient_squaring_map(n)
    witness = supersmooth_check(F).to_json()["witness"]
    m = witness["lambda_mask"]
    kind, slot, b = witness["output"]
    in_kind, in_slot, a = witness["input"]
    zero = Polynomial.zero(F.nvars)
    # dF(lam tau) at the output slot: tau's slot a moves to a|m under lam
    lhs = (merge_sign(m, a) * _derivative_entry(F, kind, slot, b, (in_kind, in_slot, a | m))
           if not a & m else zero)
    # lam dF(tau) at the output slot: it comes from slot b - m of dF(tau)
    rhs = (merge_sign(m, b ^ m) * _derivative_entry(F, kind, slot, b ^ m, (in_kind, in_slot, a))
           if b & m == m else zero)
    assert lhs != rhs
    assert lhs == Polynomial.from_json(witness["dF_of_lambda_tau"])
    assert rhs == Polynomial.from_json(witness["lambda_dF_of_tau"])


def _cubic_mutants(F):
    """F with x_v^3 added to the top even-mask coefficient of the first even
    output, once for each input variable v on a nilpotent even slot."""
    top = max(m for m in range(1 << F.n) if not m.bit_count() & 1)
    out = _variable_order(F.n, *F.target).index(("even", 0, top))
    for v, (kind, _, mask) in enumerate(F.var_order):
        if kind == "even" and mask:
            outputs = list(F.outputs)
            cube = Polynomial.monomial(F.nvars, [3 * e for e in mi_unit(F.nvars, v)])
            outputs[out] = outputs[out] + cube
            yield LambdaPointMap(F.n, F.source, F.target, outputs)


def test_cubic_mutants_fail_both_checks():
    rng = SplitMix64(49)
    maps = [lambda_point_map_of(random_morphism(rng, (1, 1), (1, 1), degree=2), n)
            for n in (2, 3, 4)]
    for n in (2, 3, 4):
        c1 = random_shear_chart(rng, 1, 1)
        c2 = random_shear_chart(rng, 1, 1)
        maps.append(chart_transition_map(c1, c2, n))
    mutants = 0
    for F in maps:
        assert_both_pass(F)
        for mutant in _cubic_mutants(F):
            mutants += 1
            verdict = supersmooth_check(mutant)
            assert not verdict.passed and verdict.witness is not None
            assert not pointwise_supersmooth(mutant)
    assert mutants == 2 * (1 + 3 + 7)


def _moves(n, order, m):
    """{i: (j, sign)}: eta^m eta^a = sign eta^c, for coefficient i at mask a
    and j at mask c, by Grassmann products."""
    index = {key: j for j, key in enumerate(order)}
    lam = GrassmannElement.monomial(n, m)
    return {i: (index[(kind, slot, c)], sign) for i, (kind, slot, a) in enumerate(order)
            for c, sign in (lam * GrassmannElement.monomial(n, a)).terms.items()}


def every_even_monomial_commutes(F) -> bool:
    """J M_lam == M_lam J, entry by entry, for every nonzero even monomial lam:
    J by Polynomial.derive and M_lam by Grassmann products, so it shares
    neither the Jacobian nor the lambda-plan with supersmooth_check."""
    zero = Polynomial.zero(F.nvars)
    jac = [[f.derive(mi_unit(F.nvars, v)) for v in range(F.nvars)] for f in F.outputs]
    for m in range(3, 1 << F.n):
        if m.bit_count() & 1:
            continue
        forward = _moves(F.n, F.var_order, m)
        back = {j: (i, s) for i, (j, s) in _moves(F.n, _variable_order(F.n, *F.target), m).items()}
        for out, row in enumerate(jac):
            a, t = back.get(out, (None, 0))
            for v in range(F.nvars):
                w, s = forward.get(v, (None, 0))
                # (J M_lam)[out][v] = s J[out][w], (M_lam J)[out][v] = t J[a][v]
                lhs = row[w] * s if w is not None else zero
                rhs = jac[a][v] * t if a is not None else zero
                if lhs != rhs:
                    return False
    return True


def test_the_generator_pairs_decide_what_every_even_monomial_decides():
    rng = SplitMix64(53)
    morphisms = [lambda_point_map_of(random_morphism(rng, (1, 1), (1, 1), degree=2), n)
                 for n in (2, 3, 4)]
    transitions = [chart_transition_map(random_shear_chart(rng, 1, 1, layers=1),
                                        random_shear_chart(rng, 1, 1, layers=1), n)
                   for n in (4, 5, 6)]
    failing = [mutant for F in morphisms + transitions[:1] for mutant in _cubic_mutants(F)]
    failing += [coefficient_squaring_map(n) for n in (2, 3, 4)] + [late_failing_map()]
    for F in morphisms + transitions:
        assert supersmooth_check(F).passed and every_even_monomial_commutes(F)
    for F in failing:
        assert not supersmooth_check(F).passed and not every_even_monomial_commutes(F)


def dense_supersmooth_check(F) -> SmoothVerdict:
    """supersmooth_check on dense exponent keys: one Polynomial per Jacobian
    entry, keyed by exponent tuples F.nvars long, signed moves negated with -d
    and the two sides compared with ==.  The reference for the sparse signed
    rows, sharing the lambda-plan with them; every_even_monomial_commutes
    stays the independent oracle."""
    jac = []
    for poly in F.outputs:
        parts = {}
        for e, c in poly.terms.items():
            for v, k in enumerate(e):
                if k:
                    parts.setdefault(v, {})[e[:v] + (k - 1,) + e[v + 1:]] = _coerce(c * k)
        jac.append({v: Polynomial._of(F.nvars, t) for v, t in parts.items()})
    checks = 0
    for (m, moves), (_, out_moves) in zip(_lambda_plan(F.n, *F.source),
                                          _lambda_plan(F.n, *F.target)):
        moved_in = {}
        for out, row in enumerate(jac):
            for w, d in row.items():
                if w in moves:
                    v, s = moves[w]
                    moved_in[(out, v)] = d if s > 0 else -d
        moved_out = {}
        for w, (a, s) in out_moves.items():
            for v, d in jac[a].items():
                moved_out[(w, v)] = d if s > 0 else -d
        keys = moved_in.keys() | moved_out.keys()
        checks += len(keys)
        if moved_in != moved_out:
            zero = Polynomial.zero(F.nvars)
            out, v = min(k for k in keys if moved_in.get(k, zero) != moved_out.get(k, zero))
            return SmoothVerdict(False, checks, {
                "lambda_mask": m,
                "output": list(_variable_order(F.n, *F.target)[out]),
                "input": list(F.var_order[v]),
                "dF_of_lambda_tau": moved_in.get((out, v), zero).to_json(),
                "lambda_dF_of_tau": moved_out.get((out, v), zero).to_json(),
            })
    return SmoothVerdict(True, checks)


@st.composite
def smooth_check_inputs(draw):
    """The Lambda_n form of a random morphism (n <= 4, p, q <= 2), which
    passes, or one of its cubic mutants, or a hand-built failing map."""
    kind = draw(st.sampled_from(["morphism", "cubic", "squaring", "late"]))
    if kind == "squaring":
        return coefficient_squaring_map(draw(st.integers(2, 4)))
    if kind == "late":
        return late_failing_map()
    rng = SplitMix64(draw(st.integers(min_value=0, max_value=2**32)))
    source = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    target = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    F = lambda_point_map_of(random_morphism(rng, source, target, degree=2),
                            draw(st.integers(0, 4)))
    # a mutant needs a nilpotent even input and an even output
    mutants = list(_cubic_mutants(F)) if kind == "cubic" and target[0] else []
    return draw(st.sampled_from(mutants)) if mutants else F


@settings(max_examples=60)
@given(F=smooth_check_inputs())
@example(F=coefficient_squaring_map())
@example(F=late_failing_map())
def test_sparse_signed_rows_decide_what_dense_polynomials_decide(F):
    got, want = supersmooth_check(F), dense_supersmooth_check(F)
    assert (got.passed, got.checks) == (want.passed, want.checks)
    # the witness too, to the byte
    assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)


def test_a_passing_check_negates_and_compares_no_polynomial(monkeypatch):
    # the slowest lift kind: R^{2|2} at level 4, 32 coefficient variables
    rng = SplitMix64(54)
    F = chart_transition_map(random_shear_chart(rng, 2, 2), random_shear_chart(rng, 2, 2), 4)
    want = dense_supersmooth_check(F)

    def refuse(*args):
        raise AssertionError("a Polynomial was negated or compared")

    monkeypatch.setattr(Polynomial, "__neg__", refuse)
    monkeypatch.setattr(Polynomial, "__eq__", refuse)
    verdict = supersmooth_check(F)
    assert verdict.passed and verdict.checks == want.checks > 0


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
        assert_both_pass(chart_transition_map(c1, c2, n))


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**32), p=st.integers(1, 2),
       q=st.integers(0, 2), n=st.integers(0, 3), transition=st.booleans())
def test_identity_and_pointwise_oracle_accept_morphism_maps(seed, p, q, n, transition):
    rng = SplitMix64(seed)
    if transition:
        F = chart_transition_map(random_shear_chart(rng, p, q), random_shear_chart(rng, p, q), n)
    else:
        phi = random_morphism(rng, (p, q), (rng.randint(1, 2), rng.randint(0, 2)), degree=2)
        F = lambda_point_map_of(phi, n)
    assert_both_pass(F)


def test_top_order_cancellation_table():
    # lambda kappa^J with |J| = r dies iff 2 + 2r exceeds the generator count
    assert top_order_cancellation(3, 1, 1)
    assert top_order_cancellation(2, 2, 1)
    assert top_order_cancellation(5, 2, 2)
    assert not top_order_cancellation(4, 2, 1)
    assert not top_order_cancellation(6, 2, 2)


def test_cancellation_laws_fail_with_replayable_witnesses(monkeypatch):
    def inverted(n, p, r):
        return not top_order_cancellation(n, p, r)

    monkeypatch.setattr(suites, "top_order_cancellation", inverted)
    failures = {f["id"]: f.get("witness") for f in suites.run_suite("mapspace", 0, 1)["failures"]}
    assert sorted(failures) == [f"mapspace/cancel-{n}" for n in range(2, 7)] + [
        "mapspace/cancel-sharp"]
    assert failures["mapspace/cancel-sharp"].pop("cancelled_at") == {"n": 4, "p": 2, "r": 1}
    for case_id, witness in failures.items():
        assert set(witness) == {"n", "p", "r"}
        # replaying the witness alone reproduces the failed verdict
        law = suites.LAWS.get(case_id) or suites.LAWS[case_id.rpartition("-")[0]]
        assert law(**witness) in (False, (False, {"cancelled_at": {"n": 4, "p": 2, "r": 1}}))


def test_pair_law_lets_unexpected_errors_through(monkeypatch):
    def broken(*args):
        raise ValueError("raised by the round trip")

    monkeypatch.setattr(suites, "sc_pair_to_point", broken)
    report = suites.run_suite("mapspace", 0, 1)
    # the pair case fails with the error, which no law takes for a pass
    pair = [f for f in report["failures"] if f["id"].startswith("mapspace/pair-")]
    assert [f["witness"]["error"] for f in pair] == ["ValueError: raised by the round trip"]
    assert report["failed"] == 1

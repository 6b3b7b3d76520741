"""Release gate: one test per advertised guarantee, at its stated tolerance.

Each test draws its own seeded corpus, independent of the streams the verify
command uses, so a pass certifies the guarantee rather than replaying a
suite.  Algebraic laws are asserted with exact equality; the curved-geometry
checks carry the explicit float tolerances they are specified with.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

from superjet import (
    GrassmannElement,
    GrassmannHom,
    MappingPoint,
    Polynomial,
    SplitMix64,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
    chart_transition_map,
    eta_decompose,
    faa_di_bruno,
    hom_apply,
    hom_compose,
    lambda_point_map_of,
    make_backend,
    mapping_chart,
    morphism_compose,
    order_bound_check,
    poly_compose,
    pushforward,
    sc_functor_action,
    sc_pair_to_point,
    sc_point_to_pair,
    sf_eval,
    sf_eval_naive,
    supersmooth_check,
    taylor_of,
    top_order_cancellation,
    trunc_compose,
)
from superjet.cli import main as cli_main
from superjet.suites import (
    coefficient_squaring_map,
    jet_fd_defect,
    random_hom,
    random_morphism,
    random_polynomial,
    random_shear_chart,
    random_sphere_point,
    random_superfunction,
    random_superpoint,
    random_tangent,
)


def apply_hom_point(rho, nu):
    return SuperPoint(
        rho.target,
        [hom_apply(rho, c) for c in nu.even],
        [hom_apply(rho, c) for c in nu.odd],
    )


# ---------------------------------------------------------------------------
# evaluation


def test_evaluation_is_exact_algebra_homomorphism():
    """200 random (function, point) draws: evaluation is a unital algebra map
    and agrees exactly with substitute-and-expand, in under 30 seconds."""
    rng = SplitMix64(1001)
    start = time.perf_counter()
    for _ in range(200):
        p = rng.randint(1, 3)
        q = rng.randint(0, 3)
        n = rng.randint(1, 6)
        sigma = random_superfunction(rng, p, q, degree=4)
        tau = random_superfunction(rng, p, q, degree=4)
        nu = random_superpoint(rng, n, p, q)
        assert sf_eval(sigma, nu) == sf_eval_naive(sigma, nu)
        assert sf_eval(sigma * tau, nu) == sf_eval(sigma, nu) * sf_eval(tau, nu)
        assert sf_eval(SuperFunction.one(p, q), nu) == GrassmannElement.one(n)
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_is_functorial_and_natural():
    """100 composable triples and 50 algebra maps: pushforward respects
    composition and commutes with coefficient-algebra homomorphisms."""
    rng = SplitMix64(1002)
    for i in range(100):
        p, q = rng.randint(1, 3), rng.randint(0, 2)
        r, s = rng.randint(1, 3), rng.randint(0, 2)
        t, u = rng.randint(1, 2), rng.randint(0, 2)
        n = rng.randint(2, 4)
        phi = random_morphism(rng, (p, q), (r, s), degree=3)
        psi = random_morphism(rng, (r, s), (t, u), degree=2)
        mu = random_superpoint(rng, n, p, q)
        assert pushforward(morphism_compose(psi, phi), mu) == \
            pushforward(psi, pushforward(phi, mu))
        if i < 50:
            m = rng.randint(0, 4)
            rho = random_hom(rng, n, m)
            assert pushforward(phi, apply_hom_point(rho, mu)) == \
                apply_hom_point(rho, pushforward(phi, mu))


# ---------------------------------------------------------------------------
# coefficient operators


def test_coefficient_operators_meet_order_bounds_sharply():
    """100 random morphisms decomposed in both gradings pass their order
    bounds; a constructed pair-shift fails one order below its bound."""
    rng = SplitMix64(1003)
    for i in range(100):
        p = rng.randint(1, 2)
        q = rng.randint(2, 3)
        r, s = rng.randint(1, 2), rng.randint(0, 2)
        phi = random_morphism(rng, (p, q), (r, s), degree=2)

        n_eta = rng.randint(1, q - 1)
        for coef in eta_decompose(phi, n_eta):
            assert coef.order() <= coef.order_bound(), (i, coef.index)
            verdict = order_bound_check(coef, coef.order_bound(), seed=i)
            assert verdict.passed, (i, coef.index, verdict.to_json())

        for coef in eta_decompose(phi, q):
            assert coef.order() <= coef.order_bound(), (i, coef.index)
            verdict = order_bound_check(coef, coef.order_bound(), seed=i)
            assert verdict.passed, (i, coef.index, verdict.to_json())

    # sharpness: y -> y + theta1 theta2 needs a first-order coefficient, so
    # the certificate passes at 1 and produces a witness at 0 in each grading
    phi = SuperMorphism(
        (1, 2), (1, 2),
        [SuperFunction(1, 2, {0: Polynomial.variable(1, 0), 3: Polynomial.one(1)})],
        [SuperFunction.theta(1, 2, 0), SuperFunction.theta(1, 2, 1)],
    )
    for n_eta, index in ((1, (1,)), (2, (1, 1))):
        coef = next(c for c in eta_decompose(phi, n_eta) if c.index == index)
        assert order_bound_check(coef, 1, seed=0).passed
        below = order_bound_check(coef, 0, seed=0)
        assert not below.passed
        assert below.witness is not None


# ---------------------------------------------------------------------------
# truncated jets


def test_truncated_jet_calculus_matches_polynomial_oracles():
    """100 cases each: truncated composition is functorial, identity jets are
    neutral, and the chain-rule tables match derive-then-evaluate up to
    order 6, all exactly."""
    rng = SplitMix64(1004)
    for i in range(100):
        dx, dy, dz = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(1, 3)
        x0 = [rng.fraction() for _ in range(dx)]
        phi = [random_polynomial(rng, dx, degree=3) for _ in range(dy)]
        psi = [random_polynomial(rng, dy, degree=3) for _ in range(dz)]

        inner = taylor_of(phi, x0, k)
        outer = taylor_of(psi, inner.base_value, k)
        oracle = taylor_of([poly_compose(g, phi, degree_bound=None) for g in psi], x0, k)
        assert trunc_compose(outer, inner) == oracle

        ident_src = taylor_of([Polynomial.variable(dx, j) for j in range(dx)], x0, k)
        ident_tgt = taylor_of([Polynomial.variable(dy, j) for j in range(dy)],
                              inner.base_value, k)
        assert trunc_compose(inner, ident_src) == inner
        assert trunc_compose(ident_tgt, inner) == inner

        m = 1 + i % 6
        derivs = faa_di_bruno(psi, phi, x0, m)
        composed = [poly_compose(g, phi, degree_bound=None) for g in psi]
        for K, vals in derivs.items():
            assert vals == tuple(cp.derive(K).eval_scalar(x0) for cp in composed)


# ---------------------------------------------------------------------------
# mapping spaces


def test_mapping_space_charts_and_functor_laws():
    """Pair encoding roundtrips, both functor laws, supersmooth chart
    transitions through level 6, the top-order cancellation identity, and the
    rejection of an engineered non-morphism."""
    rng = SplitMix64(1005)

    for _ in range(50):
        p = rng.randint(1, 2)
        q = rng.randint(1, 3)
        n = rng.randint(0, q)
        point = MappingPoint(
            n, random_morphism(rng, (p, q), (rng.randint(1, 2), rng.randint(0, 2))))
        body, ev, od = sc_point_to_pair(point)
        assert sc_pair_to_point(n, point.morphism.source, body, ev, od) == point

    for _ in range(25):
        p, q = rng.randint(1, 2), rng.randint(0, 1)
        a = rng.randint(1, 3)
        b = rng.randint(0, 3)
        c = rng.randint(0, 2)
        point = MappingPoint(
            a, random_morphism(rng, (p, a + q), (rng.randint(1, 2), rng.randint(0, 1)),
                               degree=2))
        assert sc_functor_action(GrassmannHom.identity(a), point) == point
        rho = random_hom(rng, a, b)
        sigma = random_hom(rng, b, c)
        assert sc_functor_action(hom_compose(sigma, rho), point) == \
            sc_functor_action(sigma, sc_functor_action(rho, point))

    for n in (2, 3, 4):
        for _ in range(2):
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            c1 = random_shear_chart(rng, p, q, layers=2)
            c2 = random_shear_chart(rng, p, q, layers=2)
            verdict = supersmooth_check(chart_transition_map(c1, c2, n))
            assert verdict.passed, (n, verdict.to_json())
    for n in (5, 6):
        hi = SplitMix64(1005 ^ n)
        c1 = random_shear_chart(hi, 1, 1, layers=1)
        c2 = random_shear_chart(hi, 1, 1, layers=1)
        assert supersmooth_check(chart_transition_map(c1, c2, n)).passed

    # the cancellation behind those transitions, as a polynomial identity:
    # zero-body even scalars kill every kappa_2 monomial of top weight, and
    # one weight below that the same products survive
    for n in range(2, 7):
        assert top_order_cancellation(n, 2, n // 2)
    assert not top_order_cancellation(4, 2, 1)
    assert not top_order_cancellation(6, 2, 2)

    verdict = supersmooth_check(coefficient_squaring_map())
    assert not verdict.passed
    assert verdict.witness is not None


# ---------------------------------------------------------------------------
# curved geometry


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_sphere_geometry_charts_and_taylor_tables():
    """Sphere backend: exp/log roundtrip and transport isometry to 1e-9,
    inverse-exponential Taylor tables against central differences to 1e-6
    through order 4, and sampled mapping-chart transitions matching an exact
    rational model that passes the supersmoothness check."""
    backend = make_backend("sphere2")
    rng = SplitMix64(1006)

    for _ in range(50):
        x = random_sphere_point(rng)
        v = random_tangent(rng, x)
        w1 = random_tangent(rng, x)
        w2 = random_tangent(rng, x)
        y = backend.geo_exp(x, v)
        back = backend.geo_log(x, y)
        assert max(abs(a - b) for a, b in zip(v, back)) <= 1e-9
        assert abs(backend.geo_dist(x, y) - math.sqrt(dot(v, v))) <= 1e-9
        p1 = backend.geo_pt(x, y, w1)
        p2 = backend.geo_pt(x, y, w2)
        assert abs(dot(p1, p2) - dot(w1, w2)) <= 1e-9
        assert abs(dot(p1, y)) <= 1e-9

    for _ in range(4):
        x = random_sphere_point(rng)
        v = random_tangent(rng, x, lo=0.2, hi=0.9)
        y0 = backend.exp_closed(x, v)
        jet = backend.log_jet(x, y0, 4)
        defect = jet_fd_defect(jet, lambda yy: backend.log_closed(x, yy))
        assert defect <= 1e-6

    _check_sampled_chart_transition(backend, rng)


def _unit_lambda_point(rng, n, centre, frame, nil_masks):
    """Lambda-point of the sphere with exactly unit norm: tangential nilpotent
    parts at a rational centre, then an exact inverse-square-root correction
    (the binomial series terminates on nilpotents)."""
    one = GrassmannElement.one(n)
    raw = [{0: centre[j]} for j in range(3)]
    for mask in nil_masks:
        a, b = rng.fraction(), rng.fraction()
        for j in range(3):
            val = a * frame[0][j] + b * frame[1][j]
            if val:
                raw[j][mask] = val
    nu = [GrassmannElement(n, t) for t in raw]
    eps = nu[0] * nu[0] + nu[1] * nu[1] + nu[2] * nu[2] - one
    inv_sqrt = one + eps.scale(Fraction(-1, 2)) + (eps * eps).scale(Fraction(3, 8))
    mu = [g * inv_sqrt for g in nu]
    assert mu[0] * mu[0] + mu[1] * mu[1] + mu[2] * mu[2] == one
    return mu


def _lagrange(nodes, values):
    """Exact interpolating polynomial in one variable through rational data."""
    total = Polynomial.zero(1)
    X = Polynomial.variable(1, 0)
    for t, yt in enumerate(values):
        if not yt:
            continue
        basis = Polynomial(1, {(0,): Fraction(yt)})
        for s, xs in enumerate(nodes):
            if s == t:
                continue
            basis = basis * (X + Polynomial(1, {(0,): -xs})) \
                * Polynomial(1, {(0,): 1 / (nodes[t] - xs)})
        total = total + basis
    return total


def _rationalize(x):
    f = Fraction(x).limit_denominator(10 ** 7)
    assert abs(float(f) - x) <= 1e-6 * max(1.0, abs(x))
    return f


def _check_sampled_chart_transition(backend, rng):
    """Chart a sphere-valued mapping point around two base maps, rationalize
    the transition jet into an exact polynomial model, and confirm the model
    both reproduces the sampled transition and is supersmooth."""
    n = 4
    centre = (Fraction(3, 5), Fraction(4, 5), Fraction(0))
    frame = ((Fraction(-4, 5), Fraction(3, 5), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1)))
    nodes = [Fraction(-1), Fraction(-1, 3), Fraction(1, 3), Fraction(1)]
    samples = [_unit_lambda_point(rng, n, centre, frame, [3, 5, 10, 12])
               for _ in nodes]
    assert any(15 in g.terms for mu in samples for g in mu)  # genuine 2nd order

    masks = sorted({m for mu in samples for g in mu for m in g.terms})
    even_pb = []
    for j in range(3):
        comps = {}
        for mask in masks:
            poly = _lagrange(nodes, [mu[j].terms.get(mask, Fraction(0))
                                     for mu in samples])
            if poly:
                comps[mask] = poly
        even_pb.append(SuperFunction(1, n, comps))
    point = MappingPoint(n, SuperMorphism((1, n), (3, 0), even_pb, []))

    cf = tuple(float(c) for c in centre)
    uf, vf = (tuple(float(c) for c in w) for w in frame)
    b1 = backend.geo_exp(cf, tuple(0.18 * a + 0.07 * b for a, b in zip(uf, vf)))
    b2 = backend.geo_exp(cf, tuple(-0.11 * a + 0.21 * b for a, b in zip(uf, vf)))
    xi1 = mapping_chart([((x,), b1) for x in nodes], point, backend)
    xi2 = mapping_chart([((x,), b2) for x in nodes], point, backend)

    v0 = backend.geo_log(b1, cf)
    jet = backend.transition_jet(b1, b2, v0, 2)
    polys = [Polynomial(3, {I: _rationalize(c) for I, c in f.terms.items()}) for f in jet.polys]
    model = SuperMorphism((3, 0), (3, 0),
                          [SuperFunction(3, 0, {0: pj}) for pj in polys], [])

    worst = 0.0
    for a, b in zip(xi1, xi2):
        inc = SuperPoint(n, [g + GrassmannElement.scalar(n, -v0[j])
                             for j, g in enumerate(a.even)], [])
        pred = pushforward(model, inc)
        for pj, tj in zip(pred.even, b.even):
            for mask in set(pj.terms) | set(tj.terms):
                worst = max(worst, abs(float(pj.terms.get(mask, 0))
                                       - float(tj.terms.get(mask, 0))))
    assert worst <= 1e-6

    assert supersmooth_check(lambda_point_map_of(model, n)).passed


# ---------------------------------------------------------------------------
# reporting


# sha256 of `verify all --seed 42`; a change that moves a draw, a verdict or
# a float of the report must update it and say why
REPORT_SEED_42_SHA256 = "ef72e138aae65875b095a54cde3dc5eac9261c1228290271a773a04933e4885f"


def test_verification_report_is_deterministic(tmp_path):
    """Two full verify runs with the same seed exit clean and emit
    byte-identical reports, and those bytes are the pinned ones."""
    out1 = tmp_path / "first.json"
    out2 = tmp_path / "second.json"
    assert cli_main(["verify", "all", "--seed", "42", "--out", str(out1)]) == 0
    assert cli_main(["verify", "all", "--seed", "42", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    assert b1 == b2
    assert hashlib.sha256(b1).hexdigest() == REPORT_SEED_42_SHA256
    report = json.loads(b1)
    assert report["failed"] == 0
    assert report["passed"] == report["cases"]

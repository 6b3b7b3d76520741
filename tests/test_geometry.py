"""Curved-geometry backend: closed forms, Taylor tables, supercharts, bundles."""

import math
from fractions import Fraction

import pytest

from superjet import (
    BundlePoint,
    BundleTangent,
    DimensionError,
    DomainError,
    GrassmannElement,
    SplitMix64,
    SuperPoint,
    bundle_exp,
    exp_pair,
    local_detrivialize,
    local_trivialize,
    make_backend,
)
from superjet.geometry import THETA_OVER_SIN, _frozen_theta_over_sin
from superjet.polyalg import iter_multiindices_upto, mi_factorial
from superjet.suites import (
    fd_derivative,
    jet_fd_defect,
    random_sphere_point,
    random_tangent,
)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def tangent_frame(x):
    """Two orthonormal tangent vectors at x on the unit sphere."""
    axis = min(range(3), key=lambda i: abs(x[i]))
    e = [0.0, 0.0, 0.0]
    e[axis] = 1.0
    u = [e[i] - x[i] * x[axis] for i in range(3)]
    nu = math.sqrt(dot(u, u))
    u = [c / nu for c in u]
    v = [
        x[1] * u[2] - x[2] * u[1],
        x[2] * u[0] - x[0] * u[2],
        x[0] * u[1] - x[1] * u[0],
    ]
    return u, v


def test_sphere2_is_the_one_geometry():
    assert make_backend("sphere2", bundle_rank=2).bundle_rank == 2
    for spec in ("flat:2", "sphere3", ""):
        with pytest.raises(DimensionError):
            make_backend(spec)


def test_sphere_exp_log_roundtrip():
    sphere = make_backend("sphere2")
    rng = SplitMix64(30)
    for _ in range(25):
        x = random_sphere_point(rng)
        v = random_tangent(rng, x)
        y = sphere.geo_exp(x, v)
        assert abs(dot(y, y) - 1.0) < 1e-12
        back = sphere.geo_log(x, y)
        assert max(abs(a - b) for a, b in zip(back, v)) < 1e-9
        assert sphere.geo_dist(x, y) == pytest.approx(math.sqrt(dot(v, v)), abs=1e-9)


def test_sphere_transport_is_isometric_and_tangent():
    sphere = make_backend("sphere2")
    rng = SplitMix64(31)
    for _ in range(25):
        x = random_sphere_point(rng)
        y = sphere.geo_exp(x, random_tangent(rng, x))
        w1 = random_tangent(rng, x)
        w2 = random_tangent(rng, x)
        t1 = sphere.geo_pt(x, y, w1)
        t2 = sphere.geo_pt(x, y, w2)
        assert abs(dot(t1, t2) - dot(w1, w2)) < 1e-9
        assert abs(dot(t1, y)) < 1e-9


def test_sphere_rejects_bad_inputs():
    sphere = make_backend("sphere2")
    with pytest.raises(DomainError):
        sphere.geo_exp([0.0, 0.0, 2.0], [0.1, 0.0, 0.0])
    with pytest.raises(DomainError):
        sphere.geo_exp([0.0, 0.0, 1.0], [0.0, 0.0, 0.5])  # not tangent
    with pytest.raises(DomainError):
        sphere.geo_log([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])  # antipodal


def test_theta_over_sin_series_starts_with_its_known_coefficients():
    want = [1, Fraction(1, 3), Fraction(2, 15), Fraction(2, 35)]
    assert _frozen_theta_over_sin(3) == want
    assert THETA_OVER_SIN[:4] == [float(c) for c in want]


def test_log_jet_coefficients_match_finite_differences():
    sphere = make_backend("sphere2")
    x = [0.0, 0.0, 1.0]
    y0 = sphere.exp_closed(x, [0.3, -0.2, 0.0])
    jet = sphere.log_jet(x, list(y0), 2)
    assert jet_fd_defect(jet, lambda y: sphere.log_closed(x, y)) < 1e-6


def test_transition_jet_matches_closed_transition():
    sphere = make_backend("sphere2")
    x1 = [0.0, 0.0, 1.0]
    x2 = sphere.exp_closed(x1, [0.35, 0.1, 0.0])
    v0 = [0.2, -0.1, 0.0]
    jet = sphere.transition_jet(x1, x2, v0, 3)

    def closed(v):
        return sphere.log_closed(x2, sphere.exp_closed(x1, v))

    value = closed(v0)
    fds = [fd_derivative(closed, v0, tuple(1 if i == axis else 0 for i in range(3)))
           for axis in range(3)]
    for j in range(3):
        assert jet.base_value[j] == pytest.approx(value[j], abs=1e-12)
        for axis in range(3):
            I = tuple(1 if i == axis else 0 for i in range(3))
            assert jet.coefficient(I)[j] == pytest.approx(fds[axis][j], abs=1e-7)


def fd_derivative_recursive(fn, x0, I, h0=0.12, levels=4):
    """fd_derivative as first written: one recursive call per node, no sharing."""
    axes = [i for i, e in enumerate(I) for _ in range(e)]

    def nested(x, rest, h):
        if not rest:
            return list(fn(x))
        xp = list(x)
        xp[rest[0]] += h
        xm = list(x)
        xm[rest[0]] -= h
        return [(a - b) / (2.0 * h)
                for a, b in zip(nested(xp, rest[1:], h), nested(xm, rest[1:], h))]

    vals = [nested(list(x0), axes, h0 / 2 ** j) for j in range(levels)]
    factor = 4.0
    while len(vals) > 1:
        vals = [[(factor * b - a) / (factor - 1.0) for a, b in zip(lo, hi)]
                for lo, hi in zip(vals, vals[1:])]
        factor *= 4.0
    return vals[0]


def sphere_jet_cases(count=3, seed=34):
    """(jet, closed form) pairs for log and exp at drawn sphere points, order 4."""
    sphere = make_backend("sphere2")
    rng = SplitMix64(seed)
    for _ in range(count):
        x = random_sphere_point(rng)
        v = random_tangent(rng, x)
        y0 = list(sphere.exp_closed(x, v))
        yield sphere.log_jet(x, y0, 4), lambda y, x=x: sphere.log_closed(x, y)
        yield sphere.exp_jet(x, v, 4), lambda w, x=x: sphere.exp_closed(x, w)


def test_fd_derivative_is_the_recursive_differences_bit_for_bit():
    for jet, fn in sphere_jet_cases():
        for I in iter_multiindices_upto(3, 4):
            got = fd_derivative(fn, jet.base_point, I)
            want = fd_derivative_recursive(fn, jet.base_point, I)
            assert [d.hex() for d in got] == [d.hex() for d in want], I


def test_fd_defect_calls_fn_once_per_distinct_node_and_keeps_every_bit():
    for jet, fn in sphere_jet_cases():
        nodes = []

        def counted(x, fn=fn):
            nodes.append(tuple(x))
            return fn(x)

        defect = jet_fd_defect(jet, counted)
        assert len(nodes) == len(set(nodes))
        unshared = 0.0
        for I in iter_multiindices_upto(3, 4):
            if sum(I):
                for d, val in zip(fd_derivative_recursive(fn, jet.base_point, I),
                                  jet.coefficient(I)):
                    unshared = max(unshared, abs(d / mi_factorial(I) - val) / max(1.0, abs(val)))
        assert defect.hex() == unshared.hex()


def chart_side_point(sphere, f_x, bundle_rank=0):
    """A model-space Lambda_2-point whose slots all lie in T_{f_x}."""
    u, v = tangent_frame(f_x)
    even = []
    for slot in range(1 + bundle_rank):
        body = [(0.2 - slot) * ui + 0.1 * vi for ui, vi in zip(u, v)]
        soul = [-0.15 * ui + (0.05 + 0.3 * slot) * vi for ui, vi in zip(u, v)]
        even += [GrassmannElement(2, {0: body[i], 3: soul[i]}) for i in range(3)]
    odd = [GrassmannElement(2, {1: 1.0})]
    return SuperPoint(2, even, odd)


def test_superchart_roundtrip_from_the_model_side():
    sphere = make_backend("sphere2")
    f_x = [3.0 / 5.0, 0.0, 4.0 / 5.0]
    xi = chart_side_point(sphere, f_x)
    mu = sphere.superchart_pointwise_inv(f_x, xi)
    back = sphere.superchart_pointwise(f_x, mu)
    for a, b in zip(back.even, xi.even):
        for m in set(a.terms) | set(b.terms):
            assert a.terms.get(m, 0.0) == pytest.approx(b.terms.get(m, 0.0), abs=1e-9)
    assert back.odd == xi.odd  # odd coordinates pass through untouched


def test_superchart_image_satisfies_unit_constraint():
    # the inverse chart must land on the super-sphere: sum x_i^2 == 1 in Lambda_n
    sphere = make_backend("sphere2")
    f_x = [0.0, 1.0, 0.0]
    mu = sphere.superchart_pointwise_inv(f_x, chart_side_point(sphere, f_x))
    total = GrassmannElement.zero(2)
    for c in mu.even:
        total = total + c * c
    for mask, value in total.terms.items():
        target = 1.0 if mask == 0 else 0.0
        assert value == pytest.approx(target, abs=1e-9)


def q3_point(body):
    """A Lambda_5-point with q = 3 whose souls reach fourth order: the squares
    of its nilpotent parts survive, so a chart is exact only at order n // 2."""
    even = [GrassmannElement(5, {0: b, 3: 0.05, 12: -0.03, 15: 0.02, 30: 0.01})
            for b in body]
    odd = [GrassmannElement(5, {1: 1.0, 7: 0.2}), GrassmannElement(5, {2: 1.0}),
           GrassmannElement(5, {4: 0.5, 16: 0.25})]
    return SuperPoint(5, even, odd)


@pytest.mark.parametrize("inverse, body", [(False, (0.6, 0.0, 0.8)),
                                           (True, (0.2, -0.1, 0.0))])
def test_superchart_matches_the_jet_oracle(inverse, body):
    # the base sector is the order-2 jet of exp_{f_x}^{-1} (or exp_{f_x})
    # at the body, contracted against the nilpotent parts
    sphere = make_backend("sphere2")
    f_x = [0.0, 0.0, 1.0]
    mu = q3_point(body)
    if inverse:
        got = sphere.superchart_pointwise_inv(f_x, mu)
        jet = sphere.exp_jet(f_x, body, 2)
    else:
        got = sphere.superchart_pointwise(f_x, mu)
        jet = sphere.log_jet(f_x, body, 2)
    want = exp_pair(jet, [c.split()[1] for c in mu.even], mu.n)
    for a, b in zip(got.even, want):
        for m in set(a.terms) | set(b.terms):
            assert a.terms.get(m, 0.0) == pytest.approx(b.terms.get(m, 0.0), abs=1e-12)
    assert got.odd == mu.odd


def test_superchart_transports_fibres_into_the_tangent_space():
    # forward: sum f_x[i] w'_i = 0 in Lambda; inverse: sum Y_i w'_i = 0
    sphere = make_backend("sphere2", bundle_rank=1)
    f_x = [3.0 / 5.0, 0.0, 4.0 / 5.0]
    xi = chart_side_point(sphere, f_x, bundle_rank=1)
    mu = sphere.superchart_pointwise_inv(f_x, xi)
    back = sphere.superchart_pointwise(f_x, mu)
    for point, normal in ((mu, mu.even[:3]), (back, f_x)):
        total = GrassmannElement.zero(2)
        for w, a in zip(point.even[3:], normal):
            total = total + w * a
        assert max((abs(c) for c in total.terms.values()), default=0.0) < 1e-9


def test_superchart_output_is_binary64_for_exact_input():
    # exact fibre souls that transport leaves alone must still come out as floats
    sphere = make_backend("sphere2", bundle_rank=1)
    coords = [(0, Fraction(1, 10)), (Fraction(1, 5), 0), (0, 0),
              (Fraction(1, 2), Fraction(1, 3)), (0, Fraction(1, 7)), (0, 0)]
    xi = SuperPoint(2, [GrassmannElement(2, {0: b, 3: s}) for b, s in coords], [])
    mu = sphere.superchart_pointwise_inv([0.0, 0.0, 1.0], xi)
    assert all(type(c) is float for g in mu.even for c in g.terms.values())


def test_bundle_exp_preserves_fibre_norm():
    sphere = make_backend("sphere2", bundle_rank=1)
    x = [1.0, 0.0, 0.0]
    w = [0.0, 0.3, -0.4]
    a = BundlePoint(x, [w])
    xi = BundleTangent([0.0, 0.5, 0.25], [[0.0, 0.1, 0.2]])
    b = bundle_exp(sphere, a, xi)
    expected = [wi + di for wi, di in zip(w, xi.vertical[0])]
    assert dot(b.fibre[0], b.fibre[0]) == pytest.approx(dot(expected, expected), abs=1e-9)
    assert abs(dot(b.fibre[0], b.base)) < 1e-9


def test_trivialization_roundtrip():
    sphere = make_backend("sphere2", bundle_rank=1)
    rng = SplitMix64(33)
    f_samples = []
    sigma_samples = []
    for _ in range(4):
        x = random_sphere_point(rng)
        f_samples.append(x)
        y = list(sphere.geo_exp(x, random_tangent(rng, x, hi=0.6)))
        # fibre vectors live in the tangent plane at the section's own base y
        sigma_samples.append(BundlePoint(y, [random_tangent(rng, y, hi=0.5)]))
    pairs = local_trivialize(sphere, f_samples, sigma_samples)
    back = local_detrivialize(sphere, f_samples, pairs)
    for orig, rec in zip(sigma_samples, back):
        assert max(abs(a - b) for a, b in zip(orig.base, rec.base)) < 1e-9
        assert max(abs(a - b) for a, b in zip(orig.fibre[0], rec.fibre[0])) < 1e-9


def test_trivialization_reports_failing_sample_index():
    sphere = make_backend("sphere2", bundle_rank=1)
    x = [1.0, 0.0, 0.0]
    bad = BundlePoint([-1.0, 0.0, 0.0], [[0.0, 0.0, 0.0]])  # antipodal to x
    with pytest.raises(DomainError, match="sample 0"):
        local_trivialize(sphere, [x], [bad])

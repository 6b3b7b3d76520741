"""The round-sphere backend: closed-form geometry plus Taylor tables.

This is the one floating-point module.  Everything upstream is rational; here
the closed forms involve trigonometry, so values are binary64 and tests are
tolerance-based (1e-9 for roundtrips, 1e-6 relative for derivative tables).

The sphere is the unit 2-sphere in ambient R^3.  Tangent and fibre vectors
are ambient 3-vectors orthogonal to their base point; the bundle carries
`bundle_rank` tangent-valued fibre slots, so parallel transport acts on each
slot by the great-circle closed form and the fibre metric is the ambient one.

Taylor coefficient tables come from the closed forms, not from numerical
differentiation.  The three scalar profiles

    C(s) = cos(sqrt(s)),  S(s) = sinc(sqrt(s)),  A(u) = theta/sin(theta)

(with u = 1 - cos(theta)) have rational series at 0, frozen below.  C and S
are entire, so their coefficients at any base value re-center the frozen
series; A's do so near 0 and elsewhere follow from the closed-form identity
(2u - u^2) A' + (1 - u) A = 1, seeded with A's value.  The Taylor tables
are `jetcalc` compositions: each profile's jet after the `taylor_of` jet of
its argument, u(Y) = 1 - <x, Y> or s(V) = <V, V>, times the vector factor's
jet; the frozen u-series solves that identity at u = 0 order by order,
exactly.  The superchart evaluates the closed forms on a Lambda-point's own
Grassmann coordinates: each profile (and 1/(2 - u) for transport) acts on an
even element through its Taylor coefficients at the body, contracted against
the nilpotent part by `jetcalc.exp_pair`.  Powers of the nilpotent part
vanish past n // 2, so that order is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, DomainError
from .grassmann import GrassmannElement
from .jetcalc import TruncatedPolyMap, exp_pair, taylor_of, trunc_compose, trunc_mul
from .polyalg import Polynomial, mi_unit
from .superfun import SuperPoint

DEFAULT_TOL = 1e-9
SERIES_ORDER = 20
_A_SWITCH = 0.25        # below this u, the shifted frozen series beats the recurrence


def _profile_jet(coeffs, t0, k: int) -> TruncatedPolyMap:
    """The order-k jet at t0 of a scalar profile with Taylor coefficients coeffs there."""
    return TruncatedPolyMap(k, (t0,), (Polynomial(1, {(j,): c for j, c in enumerate(coeffs)}),))


def _profile_of(coeffs, arg: TruncatedPolyMap) -> TruncatedPolyMap:
    """The jet of g(arg) for the scalar profile g whose Taylor coefficients at
    t0 are coeffs(t0, k), at arg's base value t0 and order k."""
    t0 = arg.base_value[0]
    return trunc_compose(_profile_jet(coeffs(t0, arg.k), t0, arg.k), arg)


def _frozen_theta_over_sin(order: int):
    # (2u - u^2) A' + (1 - u) A = 1 at u = 0, order by order: (2j + 1) a_j = j a_{j-1}
    series = [Fraction(1)]
    for j in range(1, order + 1):
        series.append(series[-1] * Fraction(j, 2 * j + 1))
    return series


# rounded to binary64 once, here: the series are only ever summed in floats
COS_SQRT = [float(Fraction((-1) ** k, math.factorial(2 * k))) for k in range(SERIES_ORDER + 1)]
SINC_SQRT = [float(Fraction((-1) ** k, math.factorial(2 * k + 1)))
             for k in range(SERIES_ORDER + 1)]
THETA_OVER_SIN = [float(c) for c in _frozen_theta_over_sin(SERIES_ORDER)]


def _shift_series(series, t0: float, k: int):
    """Taylor coefficients at t0 of the series given at 0 (binomial re-centering)."""
    out = []
    for j in range(k + 1):
        acc = 0.0
        for deg in range(len(series) - 1, j - 1, -1):
            acc = acc * t0 + series[deg] * math.comb(deg, j)
        out.append(acc)
    return out


def cos_sqrt_coeffs(s0: float, k: int):
    """d^j/ds^j cos(sqrt(s)) / j! at s0, via the entire-series re-centering."""
    return _shift_series(COS_SQRT, s0, k)


def sinc_sqrt_coeffs(s0: float, k: int):
    return _shift_series(SINC_SQRT, s0, k)


def theta_over_sin_coeffs(u0: float, k: int):
    """Taylor coefficients of theta/sin(theta) in u at u0, 0 <= u0 < 2.

    Near 0 the frozen series is re-centered; elsewhere the coefficients follow
    from the first-order identity (2u - u^2) A' + (1 - u) A = 1 seeded with
    the closed-form value.
    """
    if u0 < _A_SWITCH:
        return _shift_series(THETA_OVER_SIN, u0, k)
    s0 = 2.0 * u0 - u0 * u0
    theta = math.acos(1.0 - u0)
    a = [theta / math.sin(theta)]
    prev = 0.0
    for j in range(k):
        rhs = (1.0 if j == 0 else 0.0) - ((2.0 - 2.0 * u0) * j + (1.0 - u0)) * a[j] + j * prev
        prev = a[j]
        a.append(rhs / (s0 * (j + 1)))
    return a


def inv_two_minus_coeffs(u0: float, k: int):
    """Taylor coefficients of 1/(2-u) at u0: geometric, closed form."""
    base = 1.0 / (2.0 - u0)
    return [base ** (j + 1) for j in range(k + 1)]


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _inner(a, b) -> GrassmannElement:
    """<a, b> for Grassmann a and Grassmann or float b."""
    terms = [x * y for x, y in zip(a, b)]
    return sum(terms[1:], terms[0])


def _profiles(x: GrassmannElement, *series) -> list:
    """g(x) for an even x, one per scalar profile g given by `coeffs(body, k)`,
    its Taylor coefficients at the body: exp_pair contracts them against the
    nilpotent part, whose powers vanish past k = n // 2."""
    body, nil, _ = x.split()
    k = x.n // 2
    polys = tuple(_profile_jet(coeffs(body, k), body, k).polys[0] for coeffs in series)
    return exp_pair(TruncatedPolyMap(k, (body,), polys), [nil], x.n)


def _transport(fibres, b, y, f_x, inv) -> list:
    """Each slot w moved to w - <w, b>/(2-u) (f_x + Y), given inv = 1/(2-u):
    from Y to f_x for b = f_x, from f_x to Y for b = Y."""
    ends = [yi + GrassmannElement.scalar(yi.n, fi) for yi, fi in zip(y, f_x)]
    out = []
    for w in fibres:
        factor = _inner(w, b) * inv
        out.extend(wi - factor * e for wi, e in zip(w, ends))
    return out


class Sphere2Backend:
    """Unit 2-sphere in R^3, great-circle closed forms, tangent-valued fibres."""

    tol = DEFAULT_TOL

    def __init__(self, bundle_rank: int = 0):
        self.bundle_rank = bundle_rank

    def check_point(self, x):
        if len(x) != 3:
            raise DimensionError(f"sphere points have 3 ambient coordinates, got {len(x)}")
        r = _dot(x, x)
        if abs(r - 1.0) > 1e-7:
            raise DomainError(f"point has |x|^2 = {r}, not unit within tolerance")

    def check_tangent(self, x, v):
        if abs(_dot(x, v)) > 1e-7 * max(1.0, math.sqrt(_dot(v, v))):
            raise DomainError("vector is not tangent to the sphere at its base point")

    def exp_closed(self, x, v):
        """Ambient closed form cos(|v|) x + sinc(|v|) v, no domain checks."""
        s = _dot(v, v)
        t = math.sqrt(s)
        c, sc = math.cos(t), (math.sin(t) / t if t > 1e-150 else 1.0)
        return tuple(c * a + sc * b for a, b in zip(x, v))

    def log_closed(self, x, y):
        """Ambient closed form A(u) (y - (1-u) x) with u = 1 - <x, y>."""
        u = self._u(x, y)
        a = theta_over_sin_coeffs(u, 0)[0]
        return tuple(a * (yc - (1.0 - u) * xc) for xc, yc in zip(x, y))

    def geo_exp(self, x, v):
        self.check_point(x)
        self.check_tangent(x, v)
        return self.exp_closed(x, v)

    def _u(self, x, y) -> float:
        # u < 0 happens for ambient (off-sphere) arguments; the series paths
        # continue analytically there, so no clamping.
        u = 1.0 - _dot(x, y)
        if u >= 2.0 - 1e-12:
            raise DomainError("antipodal pair: geodesic chart undefined at the cut locus")
        return u

    def geo_log(self, x, y):
        self.check_point(x)
        self.check_point(y)
        return self.log_closed(x, y)

    def geo_pt(self, x, y, w):
        """Transport w from T_x to T_y along the minimal great circle: the
        ambient closed form w - <w, y>/(2-u) (x + y)."""
        u = self._u(x, y)
        f = _dot(w, y) / (2.0 - u)
        return tuple(wc - f * (xc + yc) for wc, xc, yc in zip(w, x, y))

    def geo_dist(self, x, y) -> float:
        return math.acos(max(-1.0, min(1.0, _dot(x, y))))

    # -- Taylor tables -----------------------------------------------------

    def log_jet(self, x, y0, k: int) -> TruncatedPolyMap:
        """Order-k Taylor data of Y -> exp_x^{-1}(Y) = A(u) (Y - <x, Y> x) at
        Y = y0 (ambient coords), with u = 1 - <x, Y>."""
        self.check_point(x)
        self._u(x, y0)      # refuses the cut locus
        dot = Polynomial(3, {mi_unit(3, i): c for i, c in enumerate(x)})
        a = _profile_of(theta_over_sin_coeffs, taylor_of([1 - dot], y0, k))
        return trunc_mul(a, taylor_of([Polynomial.variable(3, i) - dot * c
                                       for i, c in enumerate(x)], y0, k))

    def exp_jet(self, x, v0, k: int) -> TruncatedPolyMap:
        """Order-k Taylor data of V -> exp_x(V) = C(s) x + S(s) V at V = v0
        (tangent coords), with s = <V, V>."""
        self.check_point(x)
        self.check_tangent(x, v0)
        v = [Polynomial.variable(3, i) for i in range(3)]
        s = taylor_of([sum(vi * vi for vi in v)], v0, k)
        c = _profile_of(cos_sqrt_coeffs, s).polys[0]
        moved = trunc_mul(_profile_of(sinc_sqrt_coeffs, s), taylor_of(v, v0, k))
        return TruncatedPolyMap(k, moved.base_point,
                                tuple(c * xi + p for xi, p in zip(x, moved.polys)))

    def transition_jet(self, x1, x2, v0, k: int) -> TruncatedPolyMap:
        """Taylor data of V -> exp_{x2}^{-1}(exp_{x1}(V)) at v0."""
        inner = self.exp_jet(x1, v0, k)
        outer = self.log_jet(x2, inner.base_value, k)
        return trunc_compose(outer, inner)

    # -- superchart --------------------------------------------------------

    def superchart_pointwise(self, f_x, mu: SuperPoint) -> SuperPoint:
        """Chart value of a Lambda-point near f_x: exp_{f_x}^{-1} of its base
        coordinates Y and each fibre slot transported from Y back to f_x, both
        evaluated on the Grassmann coordinates; odd coordinates pass through."""
        y, fibres = self._chart_args(f_x, mu)
        self.check_point([c.body() for c in y])
        cos_t = self._cos_angle(f_x, y)
        a, inv = _profiles(GrassmannElement.one(mu.n) - cos_t,
                           theta_over_sin_coeffs, inv_two_minus_coeffs)
        base = [a * (yi - cos_t * fi) for yi, fi in zip(y, f_x)]
        return SuperPoint(mu.n, base + _transport(fibres, f_x, y, f_x, inv), mu.odd)

    def superchart_pointwise_inv(self, f_x, xi: SuperPoint) -> SuperPoint:
        """Inverse chart: exp_{f_x} of the base coordinates V, each fibre slot
        transported from f_x out to Y = exp_{f_x}(V)."""
        v, fibres = self._chart_args(f_x, xi)
        self.check_tangent(f_x, [c.body() for c in v])
        c, sc = _profiles(_inner(v, v), cos_sqrt_coeffs, sinc_sqrt_coeffs)
        y = [c * fi + sc * vi for fi, vi in zip(f_x, v)]
        if not fibres:
            # exp is global: only the transport out to Y has a cut locus
            return SuperPoint(xi.n, y, xi.odd)
        inv, = _profiles(GrassmannElement.one(xi.n) - self._cos_angle(f_x, y),
                         inv_two_minus_coeffs)
        return SuperPoint(xi.n, y + _transport(fibres, y, y, f_x, inv), xi.odd)

    def _chart_args(self, f_x, mu: SuperPoint):
        """mu's even coordinates in binary64, split into the base sector and
        the fibre slots, after the checks both chart directions share."""
        r = self.bundle_rank
        if mu.p != 3 * (1 + r):
            raise DimensionError(f"expected {3 * (1 + r)} even coordinates, got {mu.p}")
        self.check_point(f_x)
        even = [c * 1.0 for c in mu.even]
        return even[:3], [even[3 + 3 * a:6 + 3 * a] for a in range(r)]

    def _cos_angle(self, f_x, y) -> GrassmannElement:
        """<f_x, Y> = 1 - u on Grassmann coordinates, refused at the cut locus."""
        self._u(f_x, [c.body() for c in y])
        return _inner(y, f_x)


# ---------------------------------------------------------------------------
# bundle points and the trivialization


@dataclass
class BundlePoint:
    base: tuple
    fibre: tuple       # bundle_rank many ambient vectors tangent at base


@dataclass
class BundleTangent:
    horizontal: tuple  # tangent vector at the base point
    vertical: tuple    # bundle_rank many fibre increments


def bundle_exp(backend, a: BundlePoint, xi: BundleTangent) -> BundlePoint:
    """Geodesic of the bundle metric: base moves, fibre rides by transport."""
    y = backend.geo_exp(a.base, xi.horizontal)
    fibre = tuple(
        backend.geo_pt(a.base, y, tuple(f + v for f, v in zip(w, dv)))
        for w, dv in zip(a.fibre, xi.vertical)
    )
    return BundlePoint(y, fibre)


def local_trivialize(backend, f_samples, sigma_samples):
    """Per-sample chart around the base map f: (geo_log to the section's base,
    fibre transported back over f).  Errors carry the offending sample index."""
    out = []
    for i, (fx, sig) in enumerate(zip(f_samples, sigma_samples)):
        try:
            chart = backend.geo_log(fx, sig.base)
            fibre = tuple(backend.geo_pt(sig.base, fx, w) for w in sig.fibre)
        except DomainError as exc:
            raise DomainError(f"sample {i}: {exc}") from exc
        out.append((chart, fibre))
    return out


def local_detrivialize(backend, f_samples, pairs):
    """Inverse of local_trivialize."""
    out = []
    for i, (fx, (chart, fibre)) in enumerate(zip(f_samples, pairs)):
        try:
            base = backend.geo_exp(fx, chart)
            moved = tuple(backend.geo_pt(fx, base, w) for w in fibre)
        except DomainError as exc:
            raise DomainError(f"sample {i}: {exc}") from exc
        out.append(BundlePoint(base, moved))
    return out


def make_backend(spec: str, bundle_rank: int = 0) -> Sphere2Backend:
    """Backend from a selector string; 'sphere2' is the one geometry."""
    if spec != "sphere2":
        raise DimensionError(f"unknown geometry {spec!r} (use 'sphere2')")
    return Sphere2Backend(bundle_rank=bundle_rank)

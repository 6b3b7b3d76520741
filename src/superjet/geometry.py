"""Flat and round-sphere backends: closed-form geometry plus Taylor tables.

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

(with u = 1 - cos(theta)) have rational series at 0, frozen below, and exact
recurrences at general base values:  C' = -S/2 and s S' = (C - S)/2 follow by
differentiating the closed forms, and  (2u - u^2) A' + (1 - u) A = 1  is the
closed-form identity the u-series satisfies.  Multivariate tables are built
by composing these series with the (polynomial) arguments u(y) and s(v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, DomainError
from .grassmann import GrassmannElement
from .jetcalc import TruncatedPolyMap, exp_pair, pack_jet, trunc_compose, trunc_poly
from .polyalg import Polynomial, mi_unit
from .superfun import SuperPoint

DEFAULT_TOL = 1e-9
SERIES_ORDER = 20
_A_SWITCH = 0.25        # below this u, the shifted frozen series beats the recurrence


def _frozen_theta_over_sin(order: int):
    # arcsin(z)/z = sum_k binom(2k,k)/(4^k (2k+1)) z^{2k}, with z^2 = 2u - u^2
    out = [Fraction(0)] * (order + 1)
    power = {0: Fraction(1)}
    for k in range(order + 1):
        coef = Fraction(math.comb(2 * k, k), 4**k * (2 * k + 1))
        for e, c in power.items():
            out[e] += coef * c
        nxt = {}
        for e, c in power.items():
            for de, dc in ((1, Fraction(2)), (2, Fraction(-1))):
                if e + de <= order:
                    nxt[e + de] = nxt.get(e + de, Fraction(0)) + c * dc
        power = nxt
        if not power:
            break
    return out


COS_SQRT = [Fraction((-1) ** k, math.factorial(2 * k)) for k in range(SERIES_ORDER + 1)]
SINC_SQRT = [Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(SERIES_ORDER + 1)]
THETA_OVER_SIN = _frozen_theta_over_sin(SERIES_ORDER)


def _shift_series(series, t0: float, k: int):
    """Taylor coefficients at t0 of the series given at 0 (binomial re-centering)."""
    out = []
    for j in range(k + 1):
        acc = 0.0
        for deg in range(len(series) - 1, j - 1, -1):
            acc = acc * t0 + float(series[deg]) * math.comb(deg, j)
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


def _series_of_poly(coeffs, increment: Polynomial, k: int) -> Polynomial:
    """sum_j coeffs[j] * increment^j, truncated at total degree k (Horner)."""
    p = increment.p
    acc = Polynomial.zero(p)
    for c in reversed(coeffs[: k + 1]):
        acc = trunc_poly(acc * increment, k) + Polynomial.constant(p, c)
    return acc


class FlatBackend:
    """Affine R^m with a trivial bundle: exp adds, log subtracts, transport is id."""

    kind = "flat"
    tol = DEFAULT_TOL

    def __init__(self, m: int, bundle_rank: int = 0):
        self.m = m
        self.bundle_rank = bundle_rank

    def check_point(self, x):
        if len(x) != self.m:
            raise DimensionError(f"expected {self.m} coordinates, got {len(x)}")

    def geo_exp(self, x, v):
        self.check_point(x)
        return tuple(a + b for a, b in zip(x, v))

    def geo_log(self, x, y):
        self.check_point(x)
        return tuple(b - a for a, b in zip(x, y))

    def geo_pt(self, x, y, w):
        return tuple(w)

    def geo_dist(self, x, y) -> float:
        return math.sqrt(sum((b - a) ** 2 for a, b in zip(x, y)))

    def log_jet(self, x, y0, k: int) -> TruncatedPolyMap:
        coeffs = {mi_unit(self.m, i): tuple(
            1.0 if j == i else 0.0 for j in range(self.m)) for i in range(self.m)}
        base = tuple(b - a for a, b in zip(x, y0))
        if k < 1:
            coeffs = {}
        return TruncatedPolyMap(k, self.m, self.m, tuple(y0), base, coeffs)

    def superchart_pointwise(self, f_x, mu: SuperPoint, k: int | None = None) -> SuperPoint:
        """Affine chart: subtract the base map; nilpotent and odd parts pass through."""
        return self._shift(f_x, mu, -1)

    def superchart_pointwise_inv(self, f_x, xi: SuperPoint, k: int | None = None) -> SuperPoint:
        return self._shift(f_x, xi, 1)

    def _shift(self, f_x, mu: SuperPoint, sign: int) -> SuperPoint:
        d = self.m * (1 + self.bundle_rank)
        if mu.p != d:
            raise DimensionError(f"expected {d} even coordinates, got {mu.p}")
        shift = list(f_x) + [0.0] * (d - self.m)
        even = [c + GrassmannElement.scalar(mu.n, sign * s) if s else c
                for c, s in zip(mu.even, shift)]
        return SuperPoint(mu.n, even, list(mu.odd))


class Sphere2Backend:
    """Unit 2-sphere in R^3, great-circle closed forms, tangent-valued fibres."""

    kind = "sphere2"
    m = 3
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

    def pt_closed(self, x, y, w):
        """Ambient closed form w - <w, y>/(2-u) (x + y)."""
        u = self._u(x, y)
        f = _dot(w, y) / (2.0 - u)
        return tuple(wc - f * (xc + yc) for wc, xc, yc in zip(w, x, y))

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
        """Transport w from T_x to T_y along the minimal great circle."""
        return self.pt_closed(x, y, w)

    def geo_dist(self, x, y) -> float:
        return math.acos(max(-1.0, min(1.0, _dot(x, y))))

    # -- Taylor tables -----------------------------------------------------

    def log_jet(self, x, y0, k: int) -> TruncatedPolyMap:
        """Order-k Taylor data of Y -> exp_x^{-1}(Y) at Y = y0 (ambient coords)."""
        self.check_point(x)
        u0 = self._u(x, y0)
        du = Polynomial(3, {mi_unit(3, i): -x[i] for i in range(3) if x[i]})
        a_poly = _series_of_poly(theta_over_sin_coeffs(u0, k), du, k)
        polys = []
        for i in range(3):
            w = Polynomial(3, {(0,) * 3: y0[i] - (1.0 - u0) * x[i], mi_unit(3, i): 1.0})
            w = w + trunc_poly(du * Polynomial.constant(3, x[i]), k)
            polys.append(trunc_poly(a_poly * w, k))
        return pack_jet(k, 3, y0, polys)

    def exp_jet(self, x, v0, k: int) -> TruncatedPolyMap:
        """Order-k Taylor data of V -> exp_x(V) at V = v0 (tangent coords)."""
        self.check_point(x)
        self.check_tangent(x, v0)
        s0 = _dot(v0, v0)
        ds = Polynomial(3, {mi_unit(3, i): 2.0 * v0[i] for i in range(3) if v0[i]})
        for i in range(3):
            e = [0, 0, 0]
            e[i] = 2
            ds = ds + Polynomial.monomial(3, tuple(e), 1.0)
        ds = trunc_poly(ds, k)
        c_poly = _series_of_poly(cos_sqrt_coeffs(s0, k), ds, k)
        s_poly = _series_of_poly(sinc_sqrt_coeffs(s0, k), ds, k)
        polys = []
        for i in range(3):
            vi = Polynomial(3, {(0,) * 3: v0[i], mi_unit(3, i): 1.0})
            polys.append(trunc_poly(c_poly * Polynomial.constant(3, x[i])
                                    + s_poly * vi, k))
        return pack_jet(k, 3, v0, polys)

    def transition_jet(self, x1, x2, v0, k: int) -> TruncatedPolyMap:
        """Taylor data of V -> exp_{x2}^{-1}(exp_{x1}(V)) at v0."""
        inner = self.exp_jet(x1, v0, k)
        outer = self.log_jet(x2, inner.base_value, k)
        return trunc_compose(outer, inner, k)

    # -- superchart --------------------------------------------------------

    def _chart_jet(self, f_x, y0, fib0, k: int) -> TruncatedPolyMap:
        """Joint jet: base sector by exp^{-1}, each fibre slot transported to f_x."""
        self.check_point(y0)
        r = len(fib0)
        m = 3 + 3 * r
        log_part = self.log_jet(f_x, y0, k)
        u0 = self._u(f_x, y0)
        du = Polynomial(m, {mi_unit(m, i): -f_x[i] for i in range(3) if f_x[i]})
        b_poly = _series_of_poly(inv_two_minus_coeffs(u0, k), du, k)
        polys = []
        for j in range(3):
            terms = {}
            for I, vals in log_part.coeffs.items():
                if vals[j]:
                    terms[I + (0,) * (3 * r)] = vals[j]
            if log_part.base_value[j]:
                terms[(0,) * m] = log_part.base_value[j]
            polys.append(Polynomial(m, terms))
        for a, w0 in enumerate(fib0):
            off = 3 + 3 * a
            wx = Polynomial.constant(m, _dot(w0, f_x))
            for i in range(3):
                if f_x[i]:
                    wx = wx + Polynomial(m, {mi_unit(m, off + i): f_x[i]})
            factor = trunc_poly(wx * b_poly, k)
            for i in range(3):
                wi = Polynomial(m, {(0,) * m: w0[i], mi_unit(m, off + i): 1.0})
                yx = Polynomial(m, {(0,) * m: y0[i] + f_x[i], mi_unit(m, i): 1.0})
                polys.append(trunc_poly(wi - trunc_poly(factor * yx, k), k))
        base_pt = tuple(y0) + tuple(c for w in fib0 for c in w)
        return pack_jet(k, m, base_pt, polys)

    def _inv_chart_jet(self, f_x, v0, fib0, k: int) -> TruncatedPolyMap:
        """Joint jet of the inverse chart: exp on the base, transport out to it."""
        r = len(fib0)
        m = 3 + 3 * r
        exp_part = self.exp_jet(f_x, v0, k)
        y_polys = []
        for j in range(3):
            terms = {(0,) * m: exp_part.base_value[j]}
            for I, vals in exp_part.coeffs.items():
                if vals[j]:
                    terms[I + (0,) * (3 * r)] = vals[j]
            y_polys.append(Polynomial(m, terms))
        polys = [Polynomial(m, dict(f.terms)) for f in y_polys]
        if r:
            # u(V) = 1 - <f_x, Y(V)>;  P_{f_x, Y}(w) = w - <w, Y>/(2-u) (f_x + Y)
            u_poly = Polynomial.constant(m, 1.0)
            for j in range(3):
                if f_x[j]:
                    u_poly = u_poly - trunc_poly(
                        Polynomial.constant(m, f_x[j]) * y_polys[j], k)
            u0 = u_poly.terms.get((0,) * m, 0.0)
            if u0 >= 2.0 - 1e-12:
                raise DomainError("antipodal pair: geodesic chart undefined at the cut locus")
            du = u_poly - Polynomial.constant(m, u0)
            b_poly = _series_of_poly(inv_two_minus_coeffs(u0, k), du, k)
            for a, w0 in enumerate(fib0):
                off = 3 + 3 * a
                wy = Polynomial.zero(m)
                for j in range(3):
                    wj = Polynomial(m, {(0,) * m: w0[j], mi_unit(m, off + j): 1.0})
                    wy = wy + trunc_poly(wj * y_polys[j], k)
                factor = trunc_poly(wy * b_poly, k)
                for i in range(3):
                    wi = Polynomial(m, {(0,) * m: w0[i], mi_unit(m, off + i): 1.0})
                    fy = Polynomial.constant(m, f_x[i]) + y_polys[i]
                    polys.append(trunc_poly(wi - trunc_poly(factor * fy, k), k))
        base_pt = tuple(v0) + tuple(c for w in fib0 for c in w)
        return pack_jet(k, m, base_pt, polys)

    def superchart_pointwise(self, f_x, mu: SuperPoint, k: int | None = None) -> SuperPoint:
        """Chart value of a Lambda-point near f_x: log-jet and transport-jet
        contracted against the nilpotent part; odd coordinates pass through."""
        return self._superchart(self._chart_jet, f_x, mu, k)

    def superchart_pointwise_inv(self, f_x, xi: SuperPoint, k: int | None = None) -> SuperPoint:
        return self._superchart(self._inv_chart_jet, f_x, xi, k)

    def _superchart(self, joint_jet, f_x, mu: SuperPoint, k: int | None) -> SuperPoint:
        r = self.bundle_rank
        if mu.p != 3 * (1 + r):
            raise DimensionError(f"expected {3 * (1 + r)} even coordinates, got {mu.p}")
        if k is None:
            k = (mu.n + mu.q) // 2
        body = [c.body() for c in mu.even]
        jet = joint_jet(f_x, body[:3], [tuple(body[3 + 3 * a:6 + 3 * a]) for a in range(r)], k)
        nil = [c - GrassmannElement.scalar(mu.n, b) for c, b in zip(mu.even, body)]
        return SuperPoint(mu.n, exp_pair(jet, nil, n=mu.n), list(mu.odd))


# ---------------------------------------------------------------------------
# bundle points and the trivialization


@dataclass
class BundlePoint:
    base: tuple
    fibre: tuple       # bundle_rank many ambient vectors tangent at base

    def to_json(self) -> dict:
        return {"base": list(self.base), "fibre": [list(w) for w in self.fibre]}


@dataclass
class BundleTangent:
    horizontal: tuple  # tangent vector at the base point
    vertical: tuple    # bundle_rank many fibre increments

    def to_json(self) -> dict:
        return {"horizontal": list(self.horizontal),
                "vertical": [list(w) for w in self.vertical]}


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


def make_backend(spec: str, bundle_rank: int = 0):
    """Backend from a selector string: 'flat:m' or 'sphere2'."""
    if spec == "sphere2":
        return Sphere2Backend(bundle_rank=bundle_rank)
    if spec.startswith("flat:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError:
            raise DimensionError(f"bad flat dimension in {spec!r}") from None
        if m <= 0:
            raise DimensionError("flat dimension must be positive")
        return FlatBackend(m, bundle_rank=bundle_rank)
    raise DimensionError(f"unknown geometry {spec!r} (use 'flat:m' or 'sphere2')")

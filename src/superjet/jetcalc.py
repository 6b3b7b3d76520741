"""Truncated Taylor calculus: jets, their algebra, and Grassmann contraction.

A `TruncatedPolyMap` records the order-<=k Taylor data of a map at a point:
base point, base value, and Taylor-normalized coefficients c_I = (1/I!) D_I f,
so the map reads  f(x0 + h) ~ f(x0) + sum_{1<=|I|<=k} c_I h^I.  Products and
compositions drop everything above order k.

`taylor_monomials` is the one truncated-Taylor contraction kernel: given even
(nilpotent) and odd arguments in a Grassmann algebra over any coefficient
ring, it yields the surviving monomials eps^I omega^J, with powers and odd
monomials built once.  Its callers supply the coefficients:

* `exp_pair` evaluates jet data on even Grassmann arguments;
* `superfun.sf_eval` evaluates a superfunction at a Lambda-point, with
  coefficients (1/I!) D_I sigma_J at the body scalars;
* `superfun.sf_substitute` pulls a superfunction back along a morphism over
  the ring Q[x], with coefficients composed at the body polynomials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, ParityError
from .grassmann import GrassmannElement, rational_to_json
from .polyalg import (
    Polynomial,
    iter_multiindices,
    iter_multiindices_upto,
    mi_abs,
    mi_factorial,
    poly_derive,
)


@dataclass(frozen=True)
class TruncatedPolyMap:
    k: int
    m: int                      # source dimension
    mt: int                     # target dimension
    base_point: tuple
    base_value: tuple
    coeffs: dict                # multi-index (len m, 1<=|I|<=k) -> tuple (len mt)

    def coefficient(self, I) -> tuple:
        return self.coeffs.get(tuple(I), (Fraction(0),) * self.mt)

    def to_json(self) -> dict:
        items = [{"exp": list(I), "values": [rational_to_json(v) for v in self.coeffs[I]]}
                 for I in sorted(self.coeffs)]
        return {
            "k": self.k,
            "m": self.m,
            "mt": self.mt,
            "base_point": [rational_to_json(v) for v in self.base_point],
            "base_value": [rational_to_json(v) for v in self.base_value],
            "coeffs": items,
        }


def taylor_of(phis, x0, k: int) -> TruncatedPolyMap:
    """Exact order-k Taylor data of a polynomial map at x0."""
    if k < 0:
        raise ValueError("negative truncation order")
    phis = list(phis)
    x0 = tuple(x0)
    m = phis[0].p if phis else len(x0)
    for f in phis:
        if f.p != m:
            raise DimensionError("component polynomials disagree on variable count")
    base = tuple(f.eval_scalar(x0) for f in phis)
    coeffs = {}
    for I in iter_multiindices_upto(m, k):
        if mi_abs(I) == 0:
            continue
        vals = tuple(poly_derive(f, I).eval_scalar(x0) / mi_factorial(I) for f in phis)
        if any(vals):
            coeffs[I] = vals
    return TruncatedPolyMap(k, m, len(phis), x0, base, coeffs)


def trunc_poly(f: Polynomial, k: int) -> Polynomial:
    """Drop every term of total degree above k."""
    return Polynomial(f.p, {e: c for e, c in f.terms.items() if mi_abs(e) <= k})


def _as_increment_poly(t: TruncatedPolyMap, j: int) -> Polynomial:
    """Component j of the increment polynomial sum_I c_I h^I (no base term)."""
    return Polynomial(t.m, {I: vals[j] for I, vals in t.coeffs.items() if vals[j]})


def pack_jet(k: int, m: int, base_point, polys) -> TruncatedPolyMap:
    """Order-k jet of the increment polynomials; constant terms give the base value."""
    origin = (0,) * m
    coeffs: dict = {}
    for j, f in enumerate(polys):
        for e, c in f.terms.items():
            if 0 < mi_abs(e) <= k:
                coeffs.setdefault(e, [Fraction(0)] * len(polys))[j] = c
    base = tuple(f.terms.get(origin, Fraction(0)) for f in polys)
    return TruncatedPolyMap(k, m, len(polys), tuple(base_point), base,
                            {e: tuple(row) for e, row in coeffs.items()})


def trunc_mul(a: TruncatedPolyMap, b: TruncatedPolyMap, k: int) -> TruncatedPolyMap:
    """Order-k product of scalar-valued truncated polynomials."""
    if a.m != b.m:
        raise DimensionError("source dimensions differ")
    if a.mt != 1 or b.mt != 1:
        raise DimensionError("trunc_mul handles scalar-valued jets")
    if a.base_point != b.base_point:
        raise DimensionError("jets based at different points")
    fa = _as_increment_poly(a, 0) + a.base_value[0]
    fb = _as_increment_poly(b, 0) + b.base_value[0]
    return pack_jet(k, a.m, a.base_point, [trunc_poly(fa * fb, k)])


def trunc_compose(outer: TruncatedPolyMap, inner: TruncatedPolyMap, k: int) -> TruncatedPolyMap:
    """Order-k composition; outer must be expanded at inner's base value."""
    if outer.m != inner.mt:
        raise DimensionError("outer source dimension != inner target dimension")
    if tuple(outer.base_point) != tuple(inner.base_value):
        raise ValueError("base-point mismatch: outer jet not based at inner's value")
    increments = [_as_increment_poly(inner, j) for j in range(inner.mt)]
    out_polys = []
    powcache: list[dict[int, Polynomial]] = [dict() for _ in increments]

    def power(i: int, e: int) -> Polynomial:
        cache = powcache[i]
        got = cache.get(e)
        if got is None:
            got = (Polynomial.one(inner.m) if e == 0
                   else trunc_poly(power(i, e - 1) * increments[i], k))
            cache[e] = got
        return got

    for j in range(outer.mt):
        acc = Polynomial.constant(inner.m, outer.base_value[j])
        for I, vals in outer.coeffs.items():
            if not vals[j]:
                continue
            term = Polynomial.constant(inner.m, vals[j])
            for i, e in enumerate(I):
                if e:
                    term = trunc_poly(term * power(i, e), k)
            acc = acc + term
        out_polys.append(acc)
    return pack_jet(k, inner.m, inner.base_point, out_polys)


# ---------------------------------------------------------------------------
# Faa di Bruno


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


def faa_di_bruno(b, phi, x0, m: int) -> dict:
    """Order-m derivatives of b o phi at x0, assembled combinatorially.

    Returns {K: tuple of D_K(b o phi)(x0) values} over |K| = m.  The sum runs
    over alpha with sum j*alpha_j = m, weighting the |alpha|-th derivative of b
    (at phi(x0)) contracted with the symmetric product of the homogeneous
    Taylor parts of phi, by m!/alpha!.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    b = list(b)
    phi = list(phi)
    dim_x = phi[0].p
    dim_y = len(phi)
    for f in b:
        if f.p != dim_y:
            raise DimensionError("outer arity != inner component count")
    inner = taylor_of(phi, x0, m)
    y0 = inner.base_value
    # homogeneous Taylor parts of phi: hom[j][l] is a degree-j polynomial in v
    hom = {}
    for j in range(1, m + 1):
        hom[j] = [
            Polynomial(dim_x, {I: vals[l] for I, vals in inner.coeffs.items() if mi_abs(I) == j and vals[l]})
            for l in range(dim_y)
        ]
    # derivative tables of each outer component at y0
    tables = []
    for f in b:
        tab = {}
        for L in iter_multiindices_upto(dim_y, m):
            tab[L] = poly_derive(f, L).eval_scalar(y0)
        tables.append(tab)
    results = [Polynomial.zero(dim_x) for _ in b]
    for alpha in _alphas(m):
        s = sum(alpha)
        weight = Fraction(math.factorial(m))
        for a in alpha:
            weight /= math.factorial(a)
        arg_orders = [j for j, a in enumerate(alpha, start=1) for _ in range(a)]
        for tup in itertools.product(range(dim_y), repeat=s):
            L = tuple(tup.count(l) for l in range(dim_y))
            prod = Polynomial.one(dim_x)
            for t, l in zip(arg_orders, tup):
                prod = prod * hom[t][l]
                if prod.is_zero():
                    break
            if prod.is_zero():
                continue
            for idx, tab in enumerate(tables):
                dval = tab[L]
                if dval:
                    results[idx] = results[idx] + prod * (weight * dval)
    out = {}
    for K in iter_multiindices(dim_x, m):
        vals = tuple(
            r.terms.get(K, Fraction(0)) * mi_factorial(K) / math.factorial(m) for r in results
        )
        out[K] = vals
    return out


# ---------------------------------------------------------------------------
# Grassmann contraction


def taylor_monomials(indices, masks, even_args, odd_args, one):
    """Yield (I, J, eps^I * omega^J) for every I in indices, J in masks whose
    monomial does not vanish.

    eps are the even arguments and omega the odd ones, all in one Grassmann
    algebra over any coefficient ring; `one` is its unit.  Powers of each eps_i
    and the ascending odd monomials omega^J are built once and reused.  I runs
    outermost, so a vanishing eps^I skips all of its masks, and each I's masks
    come in the order given.
    """
    powers = [[one] for _ in even_args]
    odd_monomials = {0: one}

    def power(i: int, e: int):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * even_args[i])
        return cache[e]

    def odd_monomial(mask: int):
        got = odd_monomials.get(mask)
        if got is None:
            low = mask & -mask
            got = odd_args[low.bit_length() - 1] * odd_monomial(mask ^ low)
            odd_monomials[mask] = got
        return got

    for I in indices:
        even = one
        for i, e in enumerate(I):
            if e:
                even = even * power(i, e)
                if not even:
                    break
        if not even:
            continue
        for J in masks:
            mono = odd_monomial(J) * even if J else even
            if mono:
                yield I, J, mono


def exp_pair(data: TruncatedPolyMap, even_args, n: int | None = None):
    """Evaluate jet data on Grassmann arguments.

    even_args fill the jet's variables: even elements, nilpotent in the
    increment reading.  Returns one GrassmannElement per target component:
    sum_I c_I * eps^I, with the base value as the I = 0 term.
    """
    even_args = list(even_args)
    if len(even_args) != data.m:
        raise DimensionError(f"expected {data.m} even arguments, got {len(even_args)}")
    if n is None:
        if not even_args:
            raise DimensionError("cannot infer generator count from empty arguments")
        n = even_args[0].n
    for a in even_args:
        if a.n != n:
            raise DimensionError("mixed generator counts in arguments")
        if not a.is_even():
            raise ParityError("even slot received a non-even element")

    coeffs = dict(data.coeffs)
    coeffs[(0,) * data.m] = data.base_value
    out = [GrassmannElement.zero(n) for _ in range(data.mt)]
    for I, _, mono in taylor_monomials(coeffs, (0,), even_args, [], GrassmannElement.one(n)):
        for j, v in enumerate(coeffs[I]):
            if v:
                out[j] = out[j] + mono.scale(v)
    return out

"""Truncated Taylor calculus: jets, their algebra, and Grassmann contraction.

A `TruncatedPolyMap` records the order-<=k Taylor data of a map at a point x0
as its Taylor polynomials: one polynomial per target component in the
increment h, with Taylor-normalized coefficients c_I = (1/I!) D_I f and no
term above degree k, so the map reads  f(x0 + h) ~ sum_{|I|<=k} c_I h^I.  The
constant terms are the base value f(x0).  `taylor_of` builds each polynomial
with one `polyalg.taylor_shift` (a binomial pass, no derivatives).  A jet
carries its own order: `trunc_mul` and `trunc_compose` return the lower of
their inputs' orders, through `_Jet`, the ring of order-k jets, whose product
is the package's one truncated product.
`faa_di_bruno` (the higher chain rule) and the sphere's Taylor tables in
`geometry` are read off `trunc_compose`.

`grassmann.MonomialTable.contract` is the one truncated-Taylor contraction;
its docstring describes the walk.  `_read_at` reads a jet at nilpotent
increments eps through it, sum_{|I|<=k} c_I eps^I with the Taylor polynomials
as the coefficients of the single odd monomial 1: `exp_pair` at even Grassmann
arguments (how the sphere chart applies its scalar profiles), `trunc_compose`
at the inner jet's increments, as `_Jet`s in the ring of order-k jets.
`superfun._contract`, behind `sf_eval` and `sf_substitute`, calls it with the
Taylor shifts of each sigma_J.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import DimensionError, ParityError
from .grassmann import GrassmannElement, MonomialTable, _accumulate, _coerce
from .polyalg import (Polynomial, iter_multiindices, iter_multiindices_upto, mi_factorial,
                      taylor_shift)


@dataclass(frozen=True)
class TruncatedPolyMap:
    k: int
    base_point: tuple
    polys: tuple                # per target component, in the increment h, degree <= k

    @property
    def m(self) -> int:
        """Source dimension."""
        return len(self.base_point)

    @property
    def mt(self) -> int:
        """Target dimension."""
        return len(self.polys)

    @property
    def base_value(self) -> tuple:
        return self.coefficient((0,) * self.m)

    def coefficient(self, I) -> tuple:
        """c_I per target component; I = 0 gives the base value."""
        I = tuple(I)
        return tuple(f.terms.get(I, 0) for f in self.polys)


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
    return TruncatedPolyMap(k, x0, tuple(taylor_shift(f, x0, k) for f in phis))


def trunc_poly(f: Polynomial, k: int) -> Polynomial:
    """Drop every term of total degree above k."""
    return Polynomial._of(f.p, {e: c for e, c in f.terms.items() if sum(e) <= k})


def trunc_mul(a: TruncatedPolyMap, b: TruncatedPolyMap) -> TruncatedPolyMap:
    """Scalar-valued a times each component of b, at the lower of their orders:
    one product each in the ring of order-k jets."""
    if a.m != b.m:
        raise DimensionError("source dimensions differ")
    if a.mt != 1:
        raise DimensionError("trunc_mul needs a scalar-valued first factor")
    if a.base_point != b.base_point:
        raise DimensionError("jets based at different points")
    k = min(a.k, b.k)
    f = _Jet(a.polys[0], k)
    return TruncatedPolyMap(k, a.base_point, tuple(Polynomial._of(f.p, (f * g).terms)
                                                   for g in b.polys))


class _Jet(Polynomial):
    """f cut at k in the ring of order-k jets, by `trunc_poly`; the product
    of a jet and a polynomial is cut at k, so no product in a table of jets
    holds a term above k."""

    __slots__ = ("k",)

    def __init__(self, f: Polynomial, k: int):
        self.p, self.terms, self.k = f.p, trunc_poly(f, k).terms, k

    def __mul__(self, other: Polynomial) -> "_Jet":
        """trunc_poly(self * other, k) as a jet, key order and bits included: the
        polynomial product's sum, in its order, over only the term pairs whose
        degrees sum to at most k.  A key's degree is its pairs', so a pair
        skipped feeds no key that is kept."""
        self._check(other)
        k = self.k
        right = [(eb, cb, sum(eb)) for eb, cb in other.terms.items()]
        terms: dict = {}
        for ea, ca in self.terms.items():
            room = k - sum(ea)
            _accumulate(terms, ((tuple(map(operator.add, ea, eb)), cb)
                                for eb, cb, d in right if d <= room), ca)
        out = _Jet._of(self.p, terms)
        out.k = k
        return out


def _read_at(table: MonomialTable, data: TruncatedPolyMap, k: int) -> list:
    """The terms of sum_{|I|<=k} c_I eps^I for each of data's Taylor
    polynomials, eps the table's even arguments: one `contract` each."""
    indices = list(iter_multiindices_upto(data.m, k))
    return [table.contract(indices, [(table.one, f.terms)]) for f in data.polys]


def trunc_compose(outer: TruncatedPolyMap, inner: TruncatedPolyMap) -> TruncatedPolyMap:
    """outer after inner at the lower order k, outer expanded at inner's base
    value: outer read by `_read_at` at inner's constant-free increments, each
    monomial of them built once for all of outer's components."""
    if outer.m != inner.mt:
        raise DimensionError("outer source dimension != inner target dimension")
    if tuple(outer.base_point) != inner.base_value:
        raise ValueError("base-point mismatch: outer jet not based at inner's value")
    m = inner.m
    k = min(outer.k, inner.k)
    increments = [_Jet(Polynomial._of(m, {e: c for e, c in f.terms.items() if any(e)}), k)
                  for f in inner.polys]
    table = MonomialTable(increments, [], _Jet(Polynomial.one(m), k))
    return TruncatedPolyMap(k, inner.base_point,
                            tuple(Polynomial._of(m, t) for t in _read_at(table, outer, k)))


# ---------------------------------------------------------------------------
# Faa di Bruno


def faa_di_bruno(b, phi, x0, m: int) -> dict:
    """Order-m derivatives of b o phi at x0, by the higher chain rule.

    Returns {K: tuple of D_K(b o phi)(x0) values} over |K| = m.  Composing the
    order-m jets of b (at phi(x0)) and of phi sums the Faa di Bruno formula
    once, so D_K is K! times the h^K coefficient of `trunc_compose`.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    b = list(b)
    phi = list(phi)
    for f in b:
        if f.p != len(phi):
            raise DimensionError("outer arity != inner component count")
    inner = taylor_of(phi, x0, m)
    composed = trunc_compose(taylor_of(b, inner.base_value, m), inner)
    return {K: tuple(_coerce(c * mi_factorial(K)) for c in composed.coefficient(K))
            for K in iter_multiindices(phi[0].p, m)}


# ---------------------------------------------------------------------------
# Grassmann contraction


def exp_pair(data: TruncatedPolyMap, even_args, n: int):
    """Evaluate jet data on Grassmann arguments in Lambda_n.

    even_args fill the jet's variables: even elements of Lambda_n, nilpotent
    in the increment reading.  Returns one GrassmannElement per target
    component: each increment polynomial at eps, sum_I c_I * eps^I over
    |I| <= k, read by `_read_at` from a table of even_args.  The caller
    gives n, so a jet of zero variables evaluates to its constants.
    """
    even_args = list(even_args)
    if len(even_args) != data.m:
        raise DimensionError(f"expected {data.m} even arguments, got {len(even_args)}")
    for a in even_args:
        if a.n != n:
            raise DimensionError(f"mixed generator counts {a.n} and {n}")
        if not a.is_even():
            raise ParityError("even slot received a non-even element")

    table = MonomialTable(even_args, [], GrassmannElement.one(n))
    return [GrassmannElement._of(n, terms) for terms in _read_at(table, data, data.k)]

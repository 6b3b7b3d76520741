"""Truncated Taylor calculus: jets, their algebra, and Grassmann contraction.

A `TruncatedPolyMap` records the order-<=k Taylor data of a map at a point x0
as its Taylor polynomials: one polynomial per target component in the
increment h, with Taylor-normalized coefficients c_I = (1/I!) D_I f and no
term above degree k, so the map reads  f(x0 + h) ~ sum_{|I|<=k} c_I h^I.  The
constant terms are the base value f(x0).  `taylor_of` builds each polynomial
with one `polyalg.taylor_shift` (a binomial pass, no derivatives), and
`faa_di_bruno` reads its outer derivative tables off the same shift.
Products and compositions drop everything above order k.

`MonomialTable` is the one truncated-Taylor contraction kernel: given even
(nilpotent) and odd arguments in a Grassmann algebra over any coefficient
ring, it yields the surviving monomials eps^I omega^J.  Each power, each
eps^I and each odd monomial is built once per table, and a table is shared
by every coordinate contracted against the same arguments.  Its callers
supply the coefficients:

* `exp_pair` evaluates jet data on even Grassmann arguments, which is also
  how the sphere chart applies its scalar profiles to even elements;
* `superfun._contract`, behind both `sf_eval` (at a Lambda-point) and
  `sf_substitute` (along a morphism, over the ring Q[x]), reads the h^I
  coefficients of one `taylor_shift` of each sigma_J at the body; the point
  or morphism owns and caches the table, so every superfunction contracted
  against it shares one;
* `morphism.eta_decompose` reads the symbol of each eta-coefficient off the
  monomials of the eta-parts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, ParityError
from .grassmann import GrassmannElement, _accumulate, _coerce
from .polyalg import Polynomial, iter_multiindices, mi_abs, mi_add, mi_factorial, taylor_shift


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
    return Polynomial._of(f.p, {e: c for e, c in f.terms.items() if mi_abs(e) <= k})


def trunc_mul(a: TruncatedPolyMap, b: TruncatedPolyMap, k: int) -> TruncatedPolyMap:
    """Order-k product of scalar-valued truncated polynomials."""
    if a.m != b.m:
        raise DimensionError("source dimensions differ")
    if a.mt != 1 or b.mt != 1:
        raise DimensionError("trunc_mul handles scalar-valued jets")
    if a.base_point != b.base_point:
        raise DimensionError("jets based at different points")
    return TruncatedPolyMap(k, a.base_point, (trunc_poly(a.polys[0] * b.polys[0], k),))


def trunc_compose(outer: TruncatedPolyMap, inner: TruncatedPolyMap, k: int) -> TruncatedPolyMap:
    """Order-k composition; outer must be expanded at inner's base value."""
    if outer.m != inner.mt:
        raise DimensionError("outer source dimension != inner target dimension")
    if tuple(outer.base_point) != inner.base_value:
        raise ValueError("base-point mismatch: outer jet not based at inner's value")
    m = inner.m
    increments = [Polynomial._of(m, {e: c for e, c in f.terms.items() if any(e)})
                  for f in inner.polys]
    powcache: list[dict[int, Polynomial]] = [dict() for _ in increments]

    def power(i: int, e: int) -> Polynomial:
        cache = powcache[i]
        got = cache.get(e)
        if got is None:
            got = (Polynomial.one(m) if e == 0
                   else trunc_poly(power(i, e - 1) * increments[i], k))
            cache[e] = got
        return got

    out_polys = []
    for g in outer.polys:
        acc: dict = {}
        for I, c in g.terms.items():
            term = Polynomial.constant(m, c)
            for i, e in enumerate(I):
                if e:
                    term = trunc_poly(term * power(i, e), k)
            _accumulate(acc, term.terms.items())
        out_polys.append(Polynomial._of(m, acc))
    return TruncatedPolyMap(k, inner.base_point, tuple(out_polys))


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
    Taylor parts of phi, by m!/alpha!.  The product is symmetric, so for each
    order j it runs over multisets of alpha_j components, each counted
    alpha_j!/prod(count!) times, not over ordered tuples.
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
    hom = {j: [Polynomial._of(dim_x, {I: c for I, c in f.terms.items() if mi_abs(I) == j})
               for f in inner.polys]
           for j in range(1, m + 1)}
    # derivative tables of each outer component at y0: D_L f = L! c_L
    tables = [{L: _coerce(c * mi_factorial(L)) for L, c in taylor_shift(f, y0, m).terms.items()}
              for f in b]
    results = [{} for _ in b]
    for alpha in _alphas(m):
        weight = math.factorial(m)      # m!/alpha! is an integer: sum(alpha) <= m
        for a in alpha:
            weight //= math.factorial(a)
        # (product so far, its component counts L, its weight)
        partial = [(Polynomial.one(dim_x), (0,) * dim_y, weight)]
        for j, a in enumerate(alpha, start=1):
            if not a:
                continue
            grown = []
            for ms in itertools.combinations_with_replacement(range(dim_y), a):
                counts = tuple(ms.count(l) for l in range(dim_y))
                ways = math.factorial(a) // mi_factorial(counts)
                for prod, L, w in partial:
                    for l in ms:
                        prod = prod * hom[j][l]
                        if prod.is_zero():
                            break
                    if not prod.is_zero():
                        grown.append((prod, mi_add(L, counts), w * ways))
            partial = grown
        for prod, L, w in partial:
            for acc, tab in zip(results, tables):
                dval = tab.get(L)
                if dval:
                    _accumulate(acc, prod.terms.items(), w * dval)
    out = {}
    for K in iter_multiindices(dim_x, m):
        scale = Fraction(mi_factorial(K), math.factorial(m))
        out[K] = tuple(_coerce(r.get(K, 0) * scale) for r in results)
    return out


# ---------------------------------------------------------------------------
# Grassmann contraction


class MonomialTable:
    """The surviving monomials eps^I omega^J of fixed Grassmann arguments.

    eps are the even (nilpotent) arguments and omega the odd ones, all in one
    Grassmann algebra over any coefficient ring; `one` is its unit.  A table
    memoizes, for its lifetime, the powers eps_i^e, each eps^I and each
    ascending odd monomial omega^J, so every coordinate contracted against the
    same arguments shares them.  No product takes the unit as an operand, and
    a vanishing factor ends every extension of it without a product.
    """

    __slots__ = ("even_args", "odd_args", "one", "_powers", "_evens", "_odds")

    def __init__(self, even_args, odd_args, one):
        self.even_args = list(even_args)
        self.odd_args = list(odd_args)
        self.one = one
        self._powers = [[one, a] for a in self.even_args]
        self._evens = {(0,) * len(self.even_args): one}
        self._odds = {0: one}

    def _times(self, a, b):
        """a * b, without a product when a factor is the unit or vanishes."""
        if a is self.one or not b:
            return b
        if b is self.one or not a:
            return a
        return a * b

    def _power(self, i: int, e: int):
        cache = self._powers[i]
        while len(cache) <= e:
            cache.append(self._times(cache[-1], self.even_args[i]))
        return cache[e]

    def _even(self, I: tuple):
        """eps^I as eps^(I without its last nonzero exponent) * eps_last^e: the
        left-to-right association of a plain loop, so float results match it."""
        got = self._evens.get(I)
        if got is None:
            last = max(i for i, e in enumerate(I) if e)
            head = I[:last] + (0,) * (len(I) - last)
            got = self._evens[I] = self._times(self._even(head), self._power(last, I[last]))
        return got

    def _odd(self, mask: int):
        """omega^J in ascending order: omega_b * omega^(J without b), b lowest in J."""
        got = self._odds.get(mask)
        if got is None:
            low = mask & -mask
            got = self._odds[mask] = self._times(self.odd_args[low.bit_length() - 1],
                                                 self._odd(mask ^ low))
        return got

    def monomials(self, indices, masks):
        """Yield (I, J, eps^I * omega^J) for every I in indices, J in masks whose
        monomial does not vanish.  I runs outermost, so a vanishing eps^I skips
        all of its masks, and each I's masks come in the order given."""
        for I in indices:
            even = self._even(I)
            if not even:
                continue
            for J in masks:
                mono = self._times(self._odd(J), even)
                if mono:
                    yield I, J, mono


def exp_pair(data: TruncatedPolyMap, even_args, n: int | None = None):
    """Evaluate jet data on Grassmann arguments.

    even_args fill the jet's variables: even elements, nilpotent in the
    increment reading.  Returns one GrassmannElement per target component:
    each increment polynomial at eps, sum_I c_I * eps^I.
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

    indices = dict.fromkeys(I for f in data.polys for I in f.terms)
    out = [{} for _ in data.polys]
    table = MonomialTable(even_args, [], GrassmannElement.one(n))
    for I, _, mono in table.monomials(indices, (0,)):
        for acc, f in zip(out, data.polys):
            v = f.terms.get(I)
            if v:
                _accumulate(acc, mono.terms.items(), v)
    return [GrassmannElement._of(n, acc) for acc in out]

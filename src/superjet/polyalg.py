"""Sparse multivariate polynomials over exact rationals.

Exponent vectors are tuples of non-negative ints; coefficients are exact
rationals in `grassmann`'s canonical form, a plain int when integral and a
`fractions.Fraction` with denominator above 1 otherwise (any commutative
coefficient that supports +, *, - and truthiness works, which the float jets
of the geometry backend rely on).  An int coefficient divides to a float under
`/`, so exact code divides by multiplying with `Fraction(1, b)`.  Multi-indices
are plain tuples throughout (|I| is sum(I)), with the small helpers below for
I!, unit vectors and enumeration.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import DegreeBoundError, DimensionError, ParityError, SchemaError, payload_errors
from .grassmann import (
    GrassmannElement,
    _accumulate,
    _coerce,
    _nonzero,
    _sum_text,
    int_from_json,
    rational_from_json,
    rational_to_json,
)

#: refuse compositions whose expanded total degree would exceed this
DEFAULT_DEGREE_BOUND = 16


# ---------------------------------------------------------------------------
# multi-index helpers


def mi_factorial(I) -> int:
    out = 1
    for i in I:
        out *= math.factorial(i)
    return out

def mi_unit(p: int, k: int):
    """e_k in p slots, 0-based."""
    return tuple(1 if i == k else 0 for i in range(p))

def iter_multiindices(p: int, total: int):
    """All I of length p with |I| == total, lexicographic."""
    if p == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in iter_multiindices(p - 1, total - first):
            yield (first,) + rest

def iter_multiindices_upto(p: int, bound: int):
    for total in range(bound + 1):
        yield from iter_multiindices(p, total)


def _check_exponent(exp: tuple, p: int) -> None:
    """A DimensionError unless exp is an exponent vector of p variables."""
    if len(exp) != p or min(exp, default=0) < 0:
        raise DimensionError(f"bad exponent {exp} for {p} variables")


# ---------------------------------------------------------------------------


class Polynomial:
    """{exponent tuple: coefficient} with zero coefficients dropped.

    >>> x = Polynomial.variable(1, 0)
    >>> print((x + 1) * (x - 1))
    -1 + x0^2
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        clean = {}
        for exp, c in (terms or {}).items():
            _check_exponent(exp, p)
            c = _coerce(c)
            if c:
                clean[exp] = c
        self.terms = clean

    @classmethod
    def _of(cls, p: int, terms: dict) -> "Polynomial":
        """Wrap a result of the algebra: exponents of length p, coefficients nonzero."""
        out = cls.__new__(cls)
        out.p = p
        out.terms = terms
        return out

    @classmethod
    def zero(cls, p: int) -> "Polynomial":
        return cls(p, {})

    @classmethod
    def constant(cls, p: int, c) -> "Polynomial":
        return cls(p, {(0,) * p: c})

    @classmethod
    def one(cls, p: int) -> "Polynomial":
        return cls.constant(p, 1)

    @classmethod
    def variable(cls, p: int, k: int) -> "Polynomial":
        """x_k (0-based) among p variables."""
        if not 0 <= k < p:
            raise DimensionError(f"variable {k} outside 0..{p - 1}")
        return cls._of(p, {(0,) * k + (1,) + (0,) * (p - k - 1): 1})

    @classmethod
    def monomial(cls, p: int, exp, c=1) -> "Polynomial":
        return cls(p, {tuple(exp): c})

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.p != other.p:
            raise DimensionError(f"mixed variable counts {self.p} and {other.p}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.p, other)
        self._check(other)
        return Polynomial._of(self.p, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.p, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.p, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _coerce(other)
            if type(c) is int and c == 1:
                return Polynomial._of(self.p, dict(self.terms))
            # a float product can underflow to 0.0, so zeros are still dropped
            return Polynomial._of(self.p, {
                e: w.numerator if type(w) is Fraction and w.denominator == 1 else w
                for e, v in self.terms.items() if (w := v * c)})
        self._check(other)
        return self._product(other)

    def _product(self, other) -> "Polynomial":
        """self * other for a Polynomial other; a subclass may cut the product."""
        # one double loop, summing in `_accumulate`'s order: got + ca * cb per key,
        # an integral Fraction stored as its int, a key whose sum is zero removed
        terms: dict = {}
        right = other.terms.items()
        for ea, ca in self.terms.items():
            for eb, cb in right:
                key = tuple(map(operator.add, ea, eb))
                v = ca * cb
                got = terms.get(key)
                if got is not None:
                    v = got + v
                if v:
                    terms[key] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
                else:
                    terms.pop(key, None)
        return Polynomial._of(self.p, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.p == other.p and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.p, other)
        return NotImplemented

    def derive(self, I) -> "Polynomial":
        if len(I) != self.p:
            raise DimensionError(f"multi-index length {len(I)} != {self.p} variables")
        terms: dict = {}
        for e, c in self.terms.items():
            if any(ei < ii for ei, ii in zip(e, I)):
                continue
            for ei, ii in zip(e, I):
                for t in range(ii):
                    c = c * (ei - t)
            terms[tuple(ei - ii for ei, ii in zip(e, I))] = _coerce(c)
        return Polynomial._of(self.p, terms)

    def eval_scalar(self, args):
        """Substitute scalars (or other ring elements, e.g. Polynomials)."""
        if len(args) != self.p:
            raise DimensionError(f"{len(args)} arguments for {self.p} variables")
        args = [_coerce(a) for a in args]
        out = None
        for e, c in self.terms.items():
            term = c
            for a, k in zip(args, e):
                for _ in range(k):
                    term = term * a
            out = term if out is None else out + term
        return 0 if out is None else _coerce(out)

    def __str__(self):
        return _sum_text((self.terms[e], " ".join(f"x{i}" if k == 1 else f"x{i}^{k}"
                                                  for i, k in enumerate(e) if k))
                         for e in sorted(self.terms, key=lambda e: (sum(e), e)))

    __repr__ = __str__

    def to_json(self) -> dict:
        terms = self.terms
        return {"p": self.p,
                "terms": [{"exp": list(e), **rational_to_json(terms[e])} for e in sorted(terms)]}

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        with payload_errors("Polynomial") as wire:
            p = int_from_json(data["p"])
            terms = {}
            for item in data["terms"]:
                e = tuple([v if type(v) is int else int_from_json(v)
                           for v in wire.nested(item["exp"])])
                _check_exponent(e, p)
                if e in terms:
                    raise SchemaError("repeated exponent")
                terms[e] = rational_from_json(item)
            return cls._of(p, _nonzero(terms))


def poly_eval(f: Polynomial, args, n: int) -> GrassmannElement:
    """Substitute even elements of Lambda_n and expand exactly.

    This is the brute-force evaluation the truncated-Taylor route is checked
    against: nilpotency makes every power series finite, so plain substitution
    terminates.
    """
    if len(args) != f.p:
        raise DimensionError(f"{len(args)} arguments for {f.p} variables")
    for a in args:
        if a.n != n:
            raise DimensionError(f"argument in Lambda_{a.n}, expected Lambda_{n}")
        if not a.is_even():
            raise ParityError("poly_eval arguments must be even")
    out = GrassmannElement.zero(n)
    powers: list[dict[int, GrassmannElement]] = [dict() for _ in args]

    def power(i: int, k: int) -> GrassmannElement:
        cache = powers[i]
        got = cache.get(k)
        if got is None:
            got = GrassmannElement.one(n) if k == 0 else power(i, k - 1) * args[i]
            cache[k] = got
        return got

    for e, c in f.terms.items():
        term = GrassmannElement.scalar(n, c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
                if not term:
                    break
        out = out + term
    return out


def check_degree_bound(f: Polynomial, gs, degree_bound: int | None) -> None:
    """Refuse f(g_1, ..., g_p) if its expanded total degree could exceed
    `degree_bound`; None, or no g at all, means no bound."""
    if degree_bound is None or not gs:
        return
    worst = f.degree() * max(g.degree() for g in gs)
    if worst > degree_bound:
        raise DegreeBoundError(
            f"expanded composition degree may reach {worst} > bound {degree_bound}"
        )


def poly_compose(f: Polynomial, gs, degree_bound: int | None = DEFAULT_DEGREE_BOUND) -> Polynomial:
    """Exact substitution f(g_1, ..., g_p).

    Refuses inputs whose expanded total degree could exceed `degree_bound`
    (None disables the guardrail) so desk-scale runs stay predictable.
    """
    gs = list(gs)
    if len(gs) != f.p:
        raise DimensionError(f"{len(gs)} inner polynomials for {f.p} variables")
    if not gs:
        return Polynomial(0, dict(f.terms))
    q = gs[0].p
    for g in gs:
        if g.p != q:
            raise DimensionError("inner polynomials disagree on variable count")
    check_degree_bound(f, gs, degree_bound)
    out: dict = {}
    powcache: list[dict[int, Polynomial]] = [dict() for _ in gs]

    def power(i: int, k: int) -> Polynomial:
        cache = powcache[i]
        got = cache.get(k)
        if got is None:
            got = Polynomial.one(q) if k == 0 else power(i, k - 1) * gs[i]
            cache[k] = got
        return got

    for e, c in f.terms.items():
        term = Polynomial.constant(q, c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        _accumulate(out, term.terms.items())
    return Polynomial._of(q, out)


def taylor_shift(f: Polynomial, x0, k: int) -> Polynomial:
    """f(x0 + h) as a polynomial in h, with every term above degree k dropped.

    One binomial pass, (x0_i + h_i)^e = sum_j C(e, j) x0_i^(e-j) h_i^j, over
    powers of each x0_i built once; the x0_i may be scalars or other ring
    elements.  The h^I coefficient is (1/I!) D_I f(x0), the value
    `taylor_coefficient` computes by derivative and evaluation.

    Each power row starts as [1, x0_i], a weight with C(e, j) = 1 is the bare
    power, and a weight that is the int 1 multiplies nothing: the partial
    product passes through.  Every product that remains has the operands and
    grouping of the plain binomial loop, so results, float ones included, and
    their key order are the same as that loop's.  A negative k raises
    ValueError, as `jetcalc.taylor_of` does.
    """
    if len(x0) != f.p:
        raise DimensionError(f"{len(x0)} base coordinates for {f.p} variables")
    if k < 0:
        raise ValueError("negative truncation order")
    x0 = [_coerce(a) for a in x0]
    powers = [[1, a] for a in x0]
    rows: dict = {}

    def row(i: int, e: int) -> list:
        """The (j, w) with w = C(e, j) x0_i^(e-j) nonzero, j <= min(e, k), and
        w None where it is the int 1."""
        got = rows.get((i, e))
        if got is None:
            pw = powers[i]
            while len(pw) <= e:
                pw.append(pw[-1] * x0[i])
            got = rows[i, e] = []
            for j in range(min(e, k) + 1):
                w = pw[e - j] if j == 0 or j == e else math.comb(e, j) * pw[e - j]
                if w:
                    got.append((j, None if type(w) is int and w == 1 else w))
        return got

    out: dict = {}
    for e, c in f.terms.items():
        partial = [((), 0, c)]      # (exponent prefix, its degree, coefficient)
        for i, ei in enumerate(e):
            partial = [(I + (j,), d + j, v if w is None else v * w)
                       for I, d, v in partial for j, w in row(i, ei) if d + j <= k]
        _accumulate(out, ((I, v) for I, _, v in partial))
    return Polynomial._of(f.p, out)


def taylor_coefficient(f: Polynomial, I, x0) -> int | Fraction:
    """(1/I!) D_I f at x0, by derivative and evaluation; `taylor_shift`'s oracle."""
    return _coerce(f.derive(I).eval_scalar(x0) * Fraction(1, mi_factorial(I)))


def lattice_points(p: int, radius: int = 2, den: int = 2):
    """Fixed rational lattice used for body-point sampling, ordered canonically."""
    axis = [_coerce(Fraction(num, den)) for num in range(-radius * den, radius * den + 1)]
    return [tuple(pt) for pt in itertools.product(axis, repeat=p)]

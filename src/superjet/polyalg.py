"""Sparse multivariate polynomials over exact rationals.

Exponent vectors are tuples of non-negative ints; coefficients are Fractions
(any commutative coefficient that supports +, *, - and truthiness works, which
the float jets of the geometry backend rely on).  Multi-indices are plain
tuples throughout, with the small helpers below for |I|, I! and enumeration.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DegreeBoundError, DimensionError, ParityError, SchemaError, payload_errors
from .grassmann import rational_from_json, rational_to_json

#: refuse compositions whose expanded total degree would exceed this
DEFAULT_DEGREE_BOUND = 16


# ---------------------------------------------------------------------------
# multi-index helpers


def mi_abs(I) -> int:
    return sum(I)

def mi_factorial(I) -> int:
    out = 1
    for i in I:
        out *= math.factorial(i)
    return out

def mi_add(I, J):
    return tuple(a + b for a, b in zip(I, J))

def mi_sub(I, J):
    out = tuple(a - b for a, b in zip(I, J))
    if any(a < 0 for a in out):
        raise ValueError("multi-index subtraction went negative")
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


# ---------------------------------------------------------------------------


def _coerce(c):
    return Fraction(c) if isinstance(c, int) else c


class Polynomial:
    """{exponent tuple: coefficient} with zero coefficients dropped.

    >>> x = Polynomial.variable(1, 0)
    >>> print((x + 1) * (x - 1))
    x0^2 - 1
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        clean = {}
        for exp, c in (terms or {}).items():
            if len(exp) != p or any(e < 0 for e in exp):
                raise DimensionError(f"bad exponent {exp} for {p} variables")
            c = _coerce(c)
            if c:
                clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, p: int) -> "Polynomial":
        return cls(p, {})

    @classmethod
    def constant(cls, p: int, c) -> "Polynomial":
        return cls(p, {(0,) * p: c})

    @classmethod
    def one(cls, p: int) -> "Polynomial":
        return cls.constant(p, Fraction(1))

    @classmethod
    def variable(cls, p: int, k: int) -> "Polynomial":
        """x_k (0-based) among p variables."""
        if not 0 <= k < p:
            raise DimensionError(f"variable {k} outside 0..{p - 1}")
        return cls(p, {mi_unit(p, k): Fraction(1)})

    @classmethod
    def monomial(cls, p: int, exp, c=Fraction(1)) -> "Polynomial":
        return cls(p, {tuple(exp): c})

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(mi_abs(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.p != other.p:
            raise DimensionError(f"mixed variable counts {self.p} and {other.p}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.p, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            acc = c if acc is None else acc + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return Polynomial(self.p, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.p, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.p, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _coerce(other)
            if not c:
                return Polynomial.zero(self.p)
            return Polynomial(self.p, {e: v * c for e, v in self.terms.items()})
        self._check(other)
        terms: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = mi_add(ea, eb)
                c = ca * cb
                acc = terms.get(e)
                acc = c if acc is None else acc + c
                if acc:
                    terms[e] = acc
                else:
                    terms.pop(e, None)
        return Polynomial(self.p, terms)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (Fraction(1) / Fraction(c))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one(self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

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
            terms[mi_sub(e, I)] = c
        return Polynomial(self.p, terms)

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
        if out is None:
            return Fraction(0)
        return out

    def shift(self, x0) -> "Polynomial":
        """f(x + x0) as a polynomial in x."""
        vars_shifted = [Polynomial.variable(self.p, k) + x0[k] for k in range(self.p)]
        return poly_compose(self, vars_shifted, degree_bound=None)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (mi_abs(e), e)):
            c = self.terms[e]
            mono = " ".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c} {mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self) -> dict:
        items = []
        for e in sorted(self.terms):
            items.append({"exp": list(e), **rational_to_json(self.terms[e])})
        return {"p": self.p, "terms": items}

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        with payload_errors("Polynomial"):
            p = int(data["p"])
            terms = {}
            for item in data["terms"]:
                e = tuple(int(v) for v in item["exp"])
                if e in terms:
                    raise SchemaError("repeated exponent")
                terms[e] = rational_from_json(item)
        return cls(p, terms)


def poly_derive(f: Polynomial, I) -> Polynomial:
    """Iterated partial derivative; these are ordinary coordinate derivatives."""
    return f.derive(I)


def poly_eval(f: Polynomial, args) -> "GrassmannElement":
    """Substitute even Grassmann elements and expand exactly.

    This is the brute-force evaluation the truncated-Taylor route is checked
    against: nilpotency makes every power series finite, so plain substitution
    terminates.
    """
    from .grassmann import GrassmannElement

    if len(args) != f.p:
        raise DimensionError(f"{len(args)} arguments for {f.p} variables")
    n = args[0].n if args else 0
    for a in args:
        if a.n != n:
            raise DimensionError("arguments live over different generator counts")
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
                if term.is_zero():
                    break
        out = out + term
    return out


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
    if degree_bound is not None:
        worst = f.degree() * max((g.degree() for g in gs), default=0)
        if worst > degree_bound:
            raise DegreeBoundError(
                f"expanded composition degree may reach {worst} > bound {degree_bound}"
            )
    out = Polynomial.zero(q)
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
        out = out + term
    return out


def taylor_coefficient(f: Polynomial, I, x0) -> Fraction:
    """(1/I!) D_I f at x0."""
    return f.derive(I).eval_scalar(x0) / mi_factorial(I)


def lattice_points(p: int, radius: int = 2, den: int = 2):
    """Fixed rational lattice used for body-point sampling, ordered canonically."""
    axis = [Fraction(num, den) for num in range(-radius * den, radius * den + 1)]
    return [tuple(pt) for pt in itertools.product(axis, repeat=p)]

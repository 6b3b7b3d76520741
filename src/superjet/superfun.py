"""Superfunctions on R^{p|q} and their evaluation at Lambda-points.

A superfunction is sigma = sum_J sigma_J(x) theta^J with polynomial
coefficients: an element of the Grassmann algebra on the q odd coordinates
over the ring Q[x_1..x_p].  `SuperFunction` is a (p, q)-typed view of that
`GrassmannElement`, which does all of its arithmetic.  theta monomials are
kept in ascending index order and all signs are absorbed into the
coefficients; the same convention fixes every other odd-monomial ordering in
the package.

Evaluation at a point nu = (nu_even, nu_odd) over Lambda_n and pullback along a
morphism are one truncated-Taylor contraction over two coefficient rings (a
Lambda_n-point is itself a morphism R^{0|n} -> R^{p|q}):

    nu(sigma) = sum_{I,J} (1/I!) (D_I sigma_J)(body) * nu2^I * nu1^J

`sf_eval` supplies the coefficients at the body scalars, read off one
`taylor_shift` of each sigma_J; `sf_substitute` composes them at the body
polynomials; a `jetcalc.MonomialTable` of nu's nilpotent coordinates
(`point_table`) or of phi's nilpotent pullbacks (`pullback_table`) supplies
the surviving monomials nu2^I nu1^J, each built once per table.  A caller
that contracts several superfunctions against the same nu or phi passes one
table to every call, as `pushforward` and `morphism_compose` do.  The sums
stop by themselves once the nilpotent monomials vanish, so there is no
truncation knob.
`sf_eval_naive` is the independent brute-force check: substitute the full
coordinates into sigma_J and expand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionError, ParityError, SchemaError, payload_errors
from .grassmann import GrassmannElement, _accumulate
from .jetcalc import MonomialTable
from .polyalg import (
    DEFAULT_DEGREE_BOUND,
    Polynomial,
    iter_multiindices_upto,
    mi_factorial,
    poly_compose,
    poly_derive,
    poly_eval,
    taylor_shift,
)


class SuperFunction:
    """sum_J sigma_J(x) theta^J with zero components omitted.

    `element` is the GrassmannElement over q generators with Polynomial
    coefficients in p variables; `components` is its {mask: Polynomial} dict.
    """

    __slots__ = ("p", "element")

    def __init__(self, p: int, q: int, components=None):
        components = components or {}
        for poly in components.values():
            if poly.p != p:
                raise DimensionError("component polynomial has wrong variable count")
        self.p = p
        self.element = GrassmannElement(q, components)

    @classmethod
    def _of(cls, p: int, element: GrassmannElement) -> "SuperFunction":
        """Wrap a result of the algebra, whose coefficients are already checked."""
        out = cls.__new__(cls)
        out.p = p
        out.element = element
        return out

    @property
    def q(self) -> int:
        return self.element.n

    @property
    def components(self) -> dict:
        return self.element.terms

    @classmethod
    def zero(cls, p: int, q: int) -> "SuperFunction":
        return cls(p, q, {})

    @classmethod
    def constant(cls, p: int, q: int, c) -> "SuperFunction":
        return cls(p, q, {0: Polynomial.constant(p, c)})

    @classmethod
    def one(cls, p: int, q: int) -> "SuperFunction":
        return cls.constant(p, q, 1)

    @classmethod
    def from_poly(cls, poly: Polynomial, q: int) -> "SuperFunction":
        return cls(poly.p, q, {0: poly})

    @classmethod
    def coordinate(cls, p: int, q: int, j: int) -> "SuperFunction":
        """The even coordinate x_j (0-based)."""
        return cls(p, q, {0: Polynomial.variable(p, j)})

    @classmethod
    def theta(cls, p: int, q: int, b: int) -> "SuperFunction":
        """The odd coordinate theta_b (0-based)."""
        if not 0 <= b < q:
            raise DimensionError(f"odd coordinate {b} outside 0..{q - 1}")
        return cls(p, q, {1 << b: Polynomial.one(p)})

    def _check(self, other: "SuperFunction"):
        if (self.p, self.q) != (other.p, other.q):
            raise DimensionError(
                f"superfunctions on R^({self.p}|{self.q}) and R^({other.p}|{other.q})"
            )

    def __add__(self, other):
        if not isinstance(other, SuperFunction):
            return NotImplemented
        self._check(other)
        return SuperFunction._of(self.p, self.element + other.element)

    def __neg__(self):
        return SuperFunction._of(self.p, -self.element)

    def __sub__(self, other):
        if not isinstance(other, SuperFunction):
            return NotImplemented
        self._check(other)
        return SuperFunction._of(self.p, self.element - other.element)

    def __mul__(self, other):
        if not isinstance(other, SuperFunction):
            return self.scale(other)
        self._check(other)
        return SuperFunction._of(self.p, self.element * other.element)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "SuperFunction":
        return SuperFunction._of(self.p, self.element.scale(c))

    def __eq__(self, other):
        if isinstance(other, SuperFunction):
            return self.p == other.p and self.element == other.element
        return NotImplemented

    def __bool__(self):
        return bool(self.element)

    def is_zero(self) -> bool:
        return self.element.is_zero()

    def parity(self):
        return self.element.parity()

    def is_even(self) -> bool:
        return self.element.is_even()

    def is_odd(self) -> bool:
        return self.element.is_odd()

    def body_poly(self) -> Polynomial:
        """The theta-free component."""
        return self.components.get(0, Polynomial.zero(self.p))

    def nilpotent_part(self) -> "SuperFunction":
        return SuperFunction(
            self.p, self.q, {m: f for m, f in self.components.items() if m != 0}
        )

    def eval_body(self, x0) -> dict:
        """{mask: sigma_J(x0)} with zero values dropped."""
        out = {}
        for mask, poly in self.components.items():
            v = poly.eval_scalar(x0)
            if v:
                out[mask] = v
        return out

    def __str__(self):
        if not self.components:
            return "0"
        parts = []
        for mask in sorted(self.components, key=lambda m: (m.bit_count(), m)):
            poly = self.components[mask]
            thetas = " ".join(f"theta{b + 1}" for b in range(self.q) if mask >> b & 1)
            if mask == 0:
                parts.append(f"{poly}")
            else:
                parts.append(f"({poly}) {thetas}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self) -> dict:
        comps = []
        for mask in sorted(self.components):
            J = [mask >> b & 1 for b in range(self.q)]
            comps.append({"J": J, "poly": self.components[mask].to_json()})
        return {"p": self.p, "q": self.q, "components": comps}

    @classmethod
    def from_json(cls, data: dict) -> "SuperFunction":
        with payload_errors("SuperFunction"):
            p = int(data["p"])
            q = int(data["q"])
            comps = {}
            for item in data["components"]:
                J = [int(v) for v in item["J"]]
                if len(J) != q or any(v not in (0, 1) for v in J):
                    raise SchemaError(f"bad odd multi-index {J}")
                mask = sum(1 << b for b, v in enumerate(J) if v)
                if mask in comps:
                    raise SchemaError("repeated odd multi-index")
                comps[mask] = Polynomial.from_json(item["poly"])
        return cls(p, q, comps)


@dataclass
class SuperPoint:
    """A Lambda_n-point of R^{p|q}: p even and q odd Grassmann coordinates."""

    n: int
    even: list = field(default_factory=list)
    odd: list = field(default_factory=list)

    def __post_init__(self):
        for c in self.even:
            if c.n != self.n:
                raise DimensionError("even coordinate over wrong generator count")
            if not c.is_even():
                raise ParityError("even coordinate contains odd monomials")
        for c in self.odd:
            if c.n != self.n:
                raise DimensionError("odd coordinate over wrong generator count")
            if not c.is_odd():
                raise ParityError("odd coordinate contains even monomials")

    @property
    def p(self) -> int:
        return len(self.even)

    @property
    def q(self) -> int:
        return len(self.odd)

    def body(self) -> list:
        return [c.body() for c in self.even]

    def nilpotent_even(self) -> list:
        return [c.split()[1] for c in self.even]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "even": [c.to_json() for c in self.even],
            "odd": [c.to_json() for c in self.odd],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SuperPoint":
        with payload_errors("SuperPoint"):
            n = int(data["n"])
            even = [GrassmannElement.from_json(d) for d in data["even"]]
            odd = [GrassmannElement.from_json(d) for d in data["odd"]]
        return cls(n, even, odd)


def point_table(nu: SuperPoint) -> MonomialTable:
    """The monomials of nu's nilpotent even and odd coordinates, for `sf_eval`."""
    return MonomialTable(nu.nilpotent_even(), nu.odd, GrassmannElement.one(nu.n))


def sf_eval(sigma: SuperFunction, nu: SuperPoint, *, _table=None) -> GrassmannElement:
    """Evaluate sigma at nu through the truncated Taylor pairing.

    `_table` is `point_table(nu)`, passed in by a caller that evaluates several
    superfunctions at the same nu so that they share its monomials.
    """
    if (sigma.p, sigma.q) != (nu.p, nu.q):
        raise DimensionError(
            f"superfunction on R^({sigma.p}|{sigma.q}), point of R^({nu.p}|{nu.q})"
        )
    n = nu.n
    body = nu.body()
    comps = sigma.components
    # every even nilpotent factor has soul degree >= 2, which caps |I| at n/2
    top = n // 2
    shifted = {}                # J -> terms of sigma_J(body + h), built on first use
    out: dict = {}
    table = point_table(nu) if _table is None else _table
    for I, J, mono in table.monomials(iter_multiindices_upto(sigma.p, top), comps):
        coeffs = shifted.get(J)
        if coeffs is None:
            coeffs = shifted[J] = taylor_shift(comps[J], body, top).terms
        val = coeffs.get(I)
        if val is not None:
            _accumulate(out, mono.terms.items(), val)
    return GrassmannElement._of(n, out)


def sf_eval_naive(sigma: SuperFunction, nu: SuperPoint) -> GrassmannElement:
    """Substitute-and-expand evaluation; the oracle sf_eval must agree with."""
    if (sigma.p, sigma.q) != (nu.p, nu.q):
        raise DimensionError("dimension mismatch")
    n = nu.n
    out = GrassmannElement.zero(n)
    for mask, poly in sigma.components.items():
        term = poly_eval(poly, nu.even)
        m = mask
        while m:
            low = m & -m
            term = term * nu.odd[low.bit_length() - 1]
            m ^= low
        out = out + term
    return out


def pullback_table(phi) -> MonomialTable:
    """The monomials of phi's nilpotent even and odd pullbacks, for `sf_substitute`."""
    p, q = phi.source
    return MonomialTable([sf.nilpotent_part().element for sf in phi.even_pb],
                         [sf.element for sf in phi.odd_pb], SuperFunction.one(p, q).element)


def sf_substitute(sigma: SuperFunction, phi,
                  degree_bound=DEFAULT_DEGREE_BOUND, *, _table=None) -> SuperFunction:
    """Pullback of sigma along the morphism phi (sigma on phi's target).

    Even coordinate pullbacks split into a theta-free body polynomial and a
    nilpotent remainder; sigma_J is Taylor-expanded in the remainder, which
    terminates because the theta-degree is bounded.  Odd coordinate monomials are
    substituted by the odd pullbacks in ascending order.  `degree_bound` is the
    poly_compose guardrail; None disables it.  The pullbacks' parity is not
    checked again: phi's constructor checked it and phi is frozen.  `_table`
    is `pullback_table(phi)`, passed in by a caller that pulls several
    superfunctions back along the same phi so that they share its monomials.
    """
    p2, q2 = phi.target
    if (sigma.p, sigma.q) != (p2, q2):
        raise DimensionError(
            f"superfunction on R^({sigma.p}|{sigma.q}) cannot pull back along a "
            f"morphism into R^({p2}|{q2})"
        )
    p, q = phi.source
    bodies = [sf.body_poly() for sf in phi.even_pb]
    comps = sigma.components
    out: dict = {}
    # odd source coordinates cap the theta-degree, so |I| <= q/2
    table = pullback_table(phi) if _table is None else _table
    for I, J, mono in table.monomials(iter_multiindices_upto(p2, q // 2), comps):
        coeff = poly_derive(comps[J], I)
        # into R^{0|s} each sigma_J is a constant, a scalar over the source's variables
        coeff = poly_compose(coeff, bodies, degree_bound) if bodies else coeff.eval_scalar(())
        fact = mi_factorial(I)
        if fact > 1:
            coeff = coeff * Fraction(1, fact)
        if coeff:
            _accumulate(out, mono.terms.items(), coeff)
    return SuperFunction._of(p, GrassmannElement._of(q, out))

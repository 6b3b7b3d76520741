"""Superfunctions on R^{p|q} and their evaluation at Lambda-points.

A superfunction is sigma = sum_J sigma_J(x) theta^J with polynomial
coefficients: an element of the Grassmann algebra on the q odd coordinates
over the ring Q[x_1..x_p].  `SuperFunction` is a (p, q)-typed view of that
`GrassmannElement`, which does all of its arithmetic.  theta monomials are
kept in ascending index order and all signs are absorbed into the
coefficients; the same convention fixes every other odd-monomial ordering in
the package.

Evaluation at a point nu = (nu_even, nu_odd) over Lambda_n and pullback along a
morphism are one truncated-Taylor contraction, `_contract` (a Lambda_n-point
is itself a morphism R^{0|n} -> R^{p|q}):

    nu(sigma) = sum_{I,J} (1/I!) (D_I sigma_J)(body) * nu2^I * nu1^J

The coefficients are the h^I coefficients of one `taylor_shift` of each
sigma_J at the body: body scalars for `sf_eval`, body polynomials over
Q[x] for `sf_substitute`.  The monomials nu2^I nu1^J, and the walk that sums
them, are `grassmann.MonomialTable.contract`'s, on the table the value owns:
`SuperPoint.table` of nu's nilpotent coordinates, `SuperMorphism.table` of
phi's nilpotent pullbacks.  Both values are frozen and cache their table, so
every superfunction contracted against the same nu or phi shares its
monomials.  The sums stop by themselves once the nilpotent monomials vanish,
so there is no truncation knob.  A coordinate function x_j or theta_b pulls
back to phi's stored pullback, with no contraction.
`sf_eval_naive` is the independent brute-force check: substitute the full
coordinates into sigma_J and expand.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionError, ParityError, SchemaError, payload_errors
from .grassmann import GrassmannElement, MonomialTable, _nonzero, _wire, int_from_json
from .polyalg import (
    DEFAULT_DEGREE_BOUND,
    Polynomial,
    check_degree_bound,
    iter_multiindices_upto,
    poly_eval,
    taylor_shift,
)


_BITS = frozenset((0, 1))     # the entries of a wire odd multi-index


def _check_components(components: dict, p: int) -> None:
    """A DimensionError unless every component polynomial has p variables."""
    for poly in components.values():
        if poly.p != p:
            raise DimensionError("component polynomial has wrong variable count")


class SuperFunction:
    """sum_J sigma_J(x) theta^J with zero components omitted.

    `element` is the GrassmannElement over q generators with Polynomial
    coefficients in p variables; `components` is its {mask: Polynomial} dict.

    >>> x = Polynomial.variable(1, 0)
    >>> print(SuperFunction(1, 2, {0: x + 1, 3: -x * x}))
    1 + x0 + (-x0^2) theta1 theta2
    """

    __slots__ = ("p", "element")

    def __init__(self, p: int, q: int, components=None):
        components = components or {}
        _check_components(components, p)
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

    def scale(self, c) -> "SuperFunction":
        return SuperFunction._of(self.p, self.element.scale(c))

    def __eq__(self, other):
        if isinstance(other, SuperFunction):
            return self.p == other.p and self.element == other.element
        return NotImplemented

    def __bool__(self):
        return bool(self.element)

    def is_even(self) -> bool:
        return self.element.is_even()

    def is_odd(self) -> bool:
        return self.element.is_odd()

    def body_poly(self) -> Polynomial:
        """The theta-free component."""
        body = self.components.get(0)
        return Polynomial.zero(self.p) if body is None else body

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
        with payload_errors("SuperFunction") as wire:
            p = int_from_json(data["p"])
            q = int_from_json(data["q"])
            polys = {}
            for item in wire.nested(data["components"]):
                J = [v if type(v) is int else int_from_json(v) for v in wire.nested(item["J"])]
                if len(J) != q or not _BITS.issuperset(J):
                    raise SchemaError(f"bad odd multi-index {J}")
                mask = sum(map(operator.lshift, J, range(q)))   # J[b] << b is bit b
                if mask in polys:
                    raise SchemaError("repeated odd multi-index")
                polys[mask] = Polynomial.from_json(item["poly"])
            _check_components(polys, p)
            # each mask has q bits, and each Polynomial is already checked
            return cls._of(p, GrassmannElement._of(GrassmannElement._generator_count(q),
                                                   _nonzero(polys)))


@dataclass(frozen=True)
class SuperPoint:
    """A Lambda_n-point of R^{p|q}: p even and q odd Grassmann coordinates;
    frozen and stored as tuples, so __post_init__ checks them once."""

    n: int
    even: tuple = ()
    odd: tuple = ()

    def __post_init__(self):
        for name in ("even", "odd"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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

    @cached_property
    def table(self) -> MonomialTable:
        """The monomials of the nilpotent even and the odd coordinates, shared
        by every `sf_eval` at this point."""
        return MonomialTable(self.nilpotent_even(), self.odd, GrassmannElement.one(self.n))

    to_json = _wire

    @classmethod
    def from_json(cls, data: dict) -> "SuperPoint":
        with payload_errors("SuperPoint") as wire:
            return cls(int_from_json(data["n"]),
                       [GrassmannElement.from_json(d) for d in wire.nested(data["even"])],
                       [GrassmannElement.from_json(d) for d in wire.nested(data["odd"])])


def _contract(comps: dict, bodies, table: MonomialTable, degree_bound) -> dict:
    """Terms of sum_{I,J} c_{I,J} eps^I omega^J over the table's arguments, with
    c_{I,J} the h^I coefficient of sigma_J(bodies + h) and comps = {J: sigma_J}.

    Each sigma_J whose omega^J does not vanish is shifted once, in the order
    of comps, after `degree_bound` is checked on it as `poly_compose` checks
    it.  `MonomialTable.contract` then sums the contraction, with I in
    `iter_multiindices_upto` order up to the highest |I| any shift holds.
    """
    # every eps_i has degree >= 2 in the table's n generators, so |I| <= n/2
    top = table.one.n // 2
    shifted = []                # (omega^J, terms of sigma_J(bodies + h))
    for J, f in comps.items():
        odd = table._odd(J)
        if odd:
            check_degree_bound(f, bodies, degree_bound)
            shifted.append((odd, taylor_shift(f, bodies, top).terms))
    reach = max((sum(I) for _, coeffs in shifted for I in coeffs), default=-1)
    return table.contract(iter_multiindices_upto(len(bodies), reach), shifted)


def sf_eval(sigma: SuperFunction, nu: SuperPoint) -> GrassmannElement:
    """Evaluate sigma at nu through the truncated Taylor pairing."""
    if (sigma.p, sigma.q) != (nu.p, nu.q):
        raise DimensionError(
            f"superfunction on R^({sigma.p}|{sigma.q}), point of R^({nu.p}|{nu.q})"
        )
    return GrassmannElement._of(nu.n, _contract(sigma.components, nu.body(), nu.table, None))


def sf_eval_naive(sigma: SuperFunction, nu: SuperPoint) -> GrassmannElement:
    """Substitute-and-expand evaluation; the oracle sf_eval must agree with."""
    if (sigma.p, sigma.q) != (nu.p, nu.q):
        raise DimensionError("dimension mismatch")
    n = nu.n
    out = GrassmannElement.zero(n)
    for mask, poly in sigma.components.items():
        term = poly_eval(poly, nu.even, n)
        m = mask
        while m:
            low = m & -m
            term = term * nu.odd[low.bit_length() - 1]
            m ^= low
        out = out + term
    return out


def sf_substitute(sigma: SuperFunction, phi, degree_bound=DEFAULT_DEGREE_BOUND) -> SuperFunction:
    """Pullback of sigma along the morphism phi (sigma on phi's target).

    Even coordinate pullbacks split into a theta-free body polynomial and a
    nilpotent remainder; sigma_J is Taylor-expanded in the remainder, one
    shift at the body polynomials, which terminates because the theta-degree
    is bounded.  Odd coordinate monomials are substituted by the odd pullbacks
    in ascending order; phi's cached `table` holds both kinds of monomial,
    and its cached `bodies` the body polynomials.
    A coordinate function is looked up: x_j pulls back to phi.even_pb[j] and
    theta_b to phi.odd_pb[b], the objects phi stores, after the same guardrail
    check.  `degree_bound` is the poly_compose guardrail; None disables it.  The
    pullbacks' parity is not checked again: phi's constructor checked it and
    phi is frozen.
    """
    p2, q2 = phi.target
    if (sigma.p, sigma.q) != (p2, q2):
        raise DimensionError(
            f"superfunction on R^({sigma.p}|{sigma.q}) cannot pull back along a "
            f"morphism into R^({p2}|{q2})"
        )
    bodies = phi.bodies
    if len(sigma.components) == 1:
        (J, f), = sigma.components.items()
        if len(f.terms) == 1:
            # x_j is x^e at J = 0 with |e| = 1, theta_b is 1 at J = {b}: their
            # pullbacks are stored, and `_contract` would rebuild them
            (e, c), = f.terms.items()
            if type(c) is int and c == 1 and sum(e) == (J == 0) and not J & (J - 1):
                pb = phi.odd_pb[J.bit_length() - 1] if J else phi.even_pb[e.index(1)]
                if pb or not J:     # as `_contract`, which skips a vanishing omega^J
                    check_degree_bound(f, bodies, degree_bound)
                return pb
    p, q = phi.source
    terms = _contract(sigma.components, bodies, phi.table, degree_bound)
    return SuperFunction._of(p, GrassmannElement._of(q, terms))

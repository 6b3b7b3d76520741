"""Finite-level model of mapping spaces between superdomains.

A level-n point of the space of maps R^{p|q} -> R^{p'|q'} is a morphism whose
source carries n extra leading odd coordinates (the Grassmann generators):
R^{p|n+q} -> R^{p'|q'}.  Everything infinite-dimensional reduces to these
enlarged morphisms, so sections, functor actions and chart transitions are
exact polynomial objects.

`LambdaPointMap` is the fully explicit form of a map between Lambda-point
sets: one exact polynomial per output Grassmann coefficient, in the input
Grassmann coefficients.  `supersmooth_check` differentiates those polynomials
and tests even-scalar linearity of the differential, which is the property
separating maps that come from morphisms from those that merely permute
coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionError, ParityError, payload_errors
from .grassmann import GrassmannElement, GrassmannHom
from .morphism import SuperMorphism, morphism_compose, pushforward
from .polyalg import Polynomial, mi_unit
from .superfun import SuperFunction, SuperPoint


def even_masks(n: int) -> list:
    return [m for m in range(1 << n) if not (m.bit_count() & 1)]


def odd_masks(n: int) -> list:
    return [m for m in range(1 << n) if m.bit_count() & 1]


@dataclass
class MappingPoint:
    """Level-n point of the mapping space: morphism with n leading etas."""

    n: int
    morphism: SuperMorphism

    def __post_init__(self):
        _, qs = self.morphism.source
        if not 0 <= self.n <= qs:
            raise DimensionError(
                f"level {self.n} outside 0..{qs}, the source's odd coordinate count"
            )

    @property
    def base_source(self) -> tuple:
        p, qs = self.morphism.source
        return (p, qs - self.n)

    def to_json(self) -> dict:
        out = self.morphism.to_json()
        out["n"] = self.n
        return out

    @classmethod
    def from_json(cls, data: dict) -> "MappingPoint":
        with payload_errors("MappingPoint"):
            n = int(data["n"])
        return cls(n, SuperMorphism.from_json(data))


def sc_point_to_pair(point: MappingPoint):
    """(body map, even nilpotent sections, odd sections); exact round-trip.

    The body map is the classical map under the morphism; the sections collect
    the nilpotent remainder per tangent direction of the target.
    """
    phi = point.morphism
    body = phi.body_map()
    even_sections = [sf.nilpotent_part() for sf in phi.even_pb]
    odd_sections = list(phi.odd_pb)
    return body, even_sections, odd_sections


def sc_pair_to_point(n: int, body, even_sections, odd_sections) -> MappingPoint:
    """Inverse of sc_point_to_pair."""
    body = list(body)
    even_sections = list(even_sections)
    odd_sections = list(odd_sections)
    if not even_sections and not odd_sections:
        raise DimensionError("cannot infer dimensions from empty section data")
    if len(body) != len(even_sections):
        raise DimensionError("one body polynomial per even target direction required")
    probe = (even_sections + odd_sections)[0]
    p, qs = probe.p, probe.q
    even_pb = [SuperFunction.from_poly(b, qs) + s for b, s in zip(body, even_sections)]
    for s in even_sections:
        if s.components.get(0):
            raise ParityError("even section must be nilpotent (no theta-free part)")
    morphism = SuperMorphism((p, qs), (len(body), len(odd_sections)), even_pb, odd_sections)
    return MappingPoint(n, morphism)


def grassmann_to_superfunction(g: GrassmannElement, p: int, q: int) -> SuperFunction:
    """Constant superfunction with theta-monomials for the generator subsets."""
    if g.n > q:
        raise DimensionError("element needs more odd coordinates than available")
    return SuperFunction(p, q, {mask: Polynomial.constant(p, c) for mask, c in g.terms.items()})


def sc_functor_action(rho: GrassmannHom, point: MappingPoint) -> MappingPoint:
    """Move a level-n point to level m by substituting rho(eta_i) for each eta.

    Functorial: the identity acts trivially and composites act as composites.
    """
    if not rho.is_valid():
        raise ParityError("generator images must be purely odd")
    if rho.source != point.n:
        raise DimensionError(f"hom from Lambda_{rho.source} applied to a level-{point.n} point")
    p, q = point.base_source
    m = rho.target
    substitution = SuperMorphism(
        (p, m + q),
        (p, point.n + q),
        [SuperFunction.coordinate(p, m + q, j) for j in range(p)],
        [grassmann_to_superfunction(im, p, m + q) for im in rho.images]
        + [SuperFunction.theta(p, m + q, m + a) for a in range(q)],
    )
    return MappingPoint(m, morphism_compose(point.morphism, substitution))


# ---------------------------------------------------------------------------
# explicit coefficient maps


@dataclass
class LambdaPointMap:
    """Map of Lambda_n-point sets with one polynomial per output coefficient.

    Input coefficient variables are ordered: even slot by even slot (masks
    ascending), then odd slot by odd slot (odd masks ascending).  evens[j] and
    odds[b] map output masks to polynomials in those variables.
    """

    n: int
    source: tuple
    target: tuple
    evens: list
    odds: list

    def __post_init__(self):
        p, q = self.source
        self.emasks = even_masks(self.n)
        self.omasks = odd_masks(self.n)
        self.var_order = [("even", j, m) for j in range(p) for m in self.emasks] + [
            ("odd", b, m) for b in range(q) for m in self.omasks
        ]
        self.var_index = {key: i for i, key in enumerate(self.var_order)}
        self.nvars = len(self.var_order)

    def coefficient_vector(self, point: SuperPoint) -> list:
        if (point.p, point.q) != self.source or point.n != self.n:
            raise DimensionError("point does not match this map's source")
        vec = []
        for kind, slot, mask in self.var_order:
            coords = point.even if kind == "even" else point.odd
            vec.append(coords[slot].terms.get(mask, Fraction(0)))
        return vec

    def point_from_vector(self, vec) -> SuperPoint:
        p, q = self.source
        even = [dict() for _ in range(p)]
        odd = [dict() for _ in range(q)]
        for (kind, slot, mask), v in zip(self.var_order, vec):
            if v:
                (even if kind == "even" else odd)[slot][mask] = v
        return SuperPoint(
            self.n,
            [GrassmannElement(self.n, t) for t in even],
            [GrassmannElement(self.n, t) for t in odd],
        )

    def apply(self, point: SuperPoint) -> SuperPoint:
        vec = self.coefficient_vector(point)
        pt, qt = self.target
        even = []
        for j in range(pt):
            terms = {m: poly.eval_scalar(vec) for m, poly in self.evens[j].items()}
            even.append(GrassmannElement(self.n, terms))
        odd = []
        for b in range(qt):
            terms = {m: poly.eval_scalar(vec) for m, poly in self.odds[b].items()}
            odd.append(GrassmannElement(self.n, terms))
        return SuperPoint(self.n, even, odd)

    def differential_at(self, kappa: SuperPoint):
        """Jacobian at kappa, as a function on tangent points."""
        vec = self.coefficient_vector(kappa)
        rows = []   # (kind, slot, mask, {in_var: value})
        for kind, comps in (("even", self.evens), ("odd", self.odds)):
            for slot, table in enumerate(comps):
                for mask, poly in table.items():
                    entries = {}
                    for v in range(self.nvars):
                        dp = poly.derive(mi_unit(self.nvars, v))
                        if dp:
                            val = dp.eval_scalar(vec)
                            if val:
                                entries[v] = val
                    rows.append((kind, slot, mask, entries))

        p, q = self.source
        pt, qt = self.target

        def apply_tangent(tau: SuperPoint) -> SuperPoint:
            tvec = self.coefficient_vector(tau)
            even = [dict() for _ in range(pt)]
            odd = [dict() for _ in range(qt)]
            for kind, slot, mask, entries in rows:
                val = Fraction(0)
                for v, j in entries.items():
                    if tvec[v]:
                        val += j * tvec[v]
                if val:
                    (even if kind == "even" else odd)[slot][mask] = val
            return SuperPoint(
                self.n,
                [GrassmannElement(self.n, t) for t in even],
                [GrassmannElement(self.n, t) for t in odd],
            )

        return apply_tangent


def lambda_point_map_of(phi: SuperMorphism, n: int) -> LambdaPointMap:
    """Exact coefficient-level form of the Lambda_n pushforward along phi.

    Runs the evaluator on a symbolic point whose Grassmann coefficients are
    polynomial variables; the outputs' coefficients are then the wanted
    polynomials.
    """
    p, q = phi.source
    skeleton = LambdaPointMap(n, (p, q), phi.target, [], [])
    nvars = skeleton.nvars
    sym_even = []
    sym_odd = []
    for j in range(p):
        terms = {
            m: Polynomial.variable(nvars, skeleton.var_index[("even", j, m)])
            for m in skeleton.emasks
        }
        sym_even.append(GrassmannElement(n, terms))
    for b in range(q):
        terms = {
            m: Polynomial.variable(nvars, skeleton.var_index[("odd", b, m)])
            for m in skeleton.omasks
        }
        sym_odd.append(GrassmannElement(n, terms))
    sym_point = SuperPoint(n, sym_even, sym_odd)
    image = pushforward(phi, sym_point)
    pt, qt = phi.target

    def collect(element: GrassmannElement) -> dict:
        out = {}
        for mask, c in element.terms.items():
            poly = c if isinstance(c, Polynomial) else Polynomial.constant(nvars, c)
            if poly:
                out[mask] = poly
        return out

    return LambdaPointMap(
        n,
        (p, q),
        (pt, qt),
        [collect(image.even[j]) for j in range(pt)],
        [collect(image.odd[b]) for b in range(qt)],
    )


# ---------------------------------------------------------------------------
# charts and the supersmoothness harness


@dataclass
class SuperChart:
    """Chart of a split supermanifold, as maps to and from its model domain."""

    to_model: SuperMorphism
    from_model: SuperMorphism


def chart_transition_map(chart1: SuperChart, chart2: SuperChart, n: int,
                         degree_bound=None) -> LambdaPointMap:
    """Lambda_n-point form of chart2 o chart1^{-1}."""
    transition = morphism_compose(chart2.to_model, chart1.from_model, degree_bound)
    return lambda_point_map_of(transition, n)


@dataclass
class SmoothVerdict:
    passed: bool
    checks: int
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"passed": self.passed, "checks": self.checks}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def default_scalar_samples(n: int) -> list:
    """Spanning set of even scalars, body and zero-body monomials plus a mix."""
    out = [GrassmannElement.monomial(n, m) for m in even_masks(n)]
    if n >= 2:
        out.append(GrassmannElement.one(n) + GrassmannElement.monomial(n, 3))
    return out


def default_tangent_samples(F: LambdaPointMap) -> list:
    """Coordinate basis of the tangent coefficient space, plus one dense one."""
    outs = []
    for i in range(F.nvars):
        vec = [Fraction(0)] * F.nvars
        vec[i] = Fraction(1)
        outs.append(F.point_from_vector(vec))
    outs.append(F.point_from_vector([Fraction(1)] * F.nvars))
    return outs


def default_point_samples(F: LambdaPointMap) -> list:
    """A few rational points: coefficients cycle over a small value set."""
    cycles = [
        [Fraction(1, 2), Fraction(-1, 3), Fraction(1), Fraction(0), Fraction(2, 5)],
        [Fraction(-1), Fraction(1, 4), Fraction(0), Fraction(1, 3), Fraction(-2)],
        [Fraction(1), Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(0)],
    ]
    return [
        F.point_from_vector([cycle[i % len(cycle)] for i in range(F.nvars)])
        for cycle in cycles
    ]


def _scale_point(lam: GrassmannElement, point: SuperPoint) -> SuperPoint:
    return SuperPoint(point.n, [lam * c for c in point.even], [lam * c for c in point.odd])


def supersmooth_check(F: LambdaPointMap, sample_points=None, sample_tangents=None,
                      sample_scalars=None) -> SmoothVerdict:
    """Verify that dF is linear over even scalars at the sampled points.

    The defect dF|_k(lam*tau) - lam*dF|_k(tau) is bilinear in (lam, tau), so
    checking a basis of even scalars against a basis of tangent coefficient
    vectors decides those two slots exactly; body points are sampled.  The
    scalar set includes zero-body elements, where the top-order terms only
    cancel because a nilpotent even scalar times a maximal nilpotent monomial
    dies -- the cancellation that makes these maps well defined at all.
    """
    if sample_points is None:
        sample_points = default_point_samples(F)
    if sample_tangents is None:
        sample_tangents = default_tangent_samples(F)
    if sample_scalars is None:
        sample_scalars = default_scalar_samples(F.n)
    checks = 0
    for kappa in sample_points:
        dF = F.differential_at(kappa)
        base_images = [dF(tau) for tau in sample_tangents]
        for tau, dtau in zip(sample_tangents, base_images):
            for lam in sample_scalars:
                checks += 1
                got = dF(_scale_point(lam, tau))
                want = _scale_point(lam, dtau)
                if got.even != want.even or got.odd != want.odd:
                    witness = {
                        "kappa": kappa.to_json(),
                        "tau": tau.to_json(),
                        "lambda": lam.to_json(),
                        "dF_of_lambda_tau": got.to_json(),
                        "lambda_dF_of_tau": want.to_json(),
                    }
                    return SmoothVerdict(passed=False, checks=checks, witness=witness)
    return SmoothVerdict(passed=True, checks=checks)


def top_order_cancellation(n: int, p: int, r: int) -> bool:
    """Identity check: zero-body even scalar times kappa_2^J dies at |J| = r.

    Built with symbolic coefficients, so a True return is a polynomial
    identity, not a sample.
    """
    from .polyalg import iter_multiindices

    nil_masks = [m for m in even_masks(n) if m]
    nvars = (1 + p) * max(1, len(nil_masks))
    lam = GrassmannElement(
        n, {m: Polynomial.variable(nvars, i) for i, m in enumerate(nil_masks)}
    )
    kappas = []
    for j in range(p):
        terms = {
            m: Polynomial.variable(nvars, (j + 1) * len(nil_masks) + i)
            for i, m in enumerate(nil_masks)
        }
        kappas.append(GrassmannElement(n, terms))
    for J in iter_multiindices(p, r):
        mono = lam
        for i, e in enumerate(J):
            for _ in range(e):
                mono = mono * kappas[i]
        if not mono.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# charts of mapping spaces


def mapping_chart(f, point: MappingPoint, backend):
    """Chart image of a mapping point around the base map f.

    Flat backend: f is a list of body polynomials, the result is the exact
    (body - f, sections) pair of the affine-shifted morphism.  Sphere backend:
    f is a list of (x, base point) samples and the result is the per-sample
    tangent/fibre chart value.
    """
    phi = point.morphism
    pt, qt = phi.target
    kind = getattr(backend, "kind", None)
    if kind is not None and kind.startswith("flat"):
        body, even_sections, odd_sections = sc_point_to_pair(point)
        if len(f) != pt:
            raise DimensionError("base map has wrong number of components")
        shifted = [b - fj for b, fj in zip(body, f)]
        return shifted, even_sections, odd_sections
    if kind == "sphere2":
        out = []
        p, qs = phi.source
        n_total = qs
        for x, base_pt in f:
            even = [
                GrassmannElement(n_total, sf.eval_body(list(x))) for sf in phi.even_pb
            ]
            odd = [
                GrassmannElement(n_total, sf.eval_body(list(x))) for sf in phi.odd_pb
            ]
            mu = SuperPoint(n_total, even, odd)
            out.append(backend.superchart_pointwise(base_pt, mu))
        return out
    raise DimensionError(f"unsupported geometry backend {backend!r}")

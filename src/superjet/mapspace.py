"""Finite-level model of mapping spaces between superdomains.

A level-n point of the space of maps R^{p|q} -> R^{p'|q'} is a morphism whose
source carries n extra leading odd coordinates (the Grassmann generators):
R^{p|n+q} -> R^{p'|q'}.  Everything infinite-dimensional reduces to these
enlarged morphisms, so sections, functor actions and chart transitions are
exact polynomial objects.

`LambdaPointMap` is the fully explicit form of a map between Lambda-point
sets: one exact polynomial per output Grassmann coefficient, in the input
Grassmann coefficients.  Inputs and outputs share one layout, a vector in
`_variable_order`, which only `_point_of` and `_coefficients` translate to
and from a `SuperPoint`.  Its polynomials come from the symbolic point, the
generic Lambda_n-point whose Grassmann coefficients are polynomial variables:
`lambda_point_map_of` pushes it forward, and `top_order_cancellation` takes
its even scalars from it.  `supersmooth_check` differentiates those polynomials
once and decides, as a polynomial identity over Q, that the differential
commutes with multiplication by even scalars (the Molotkov-Sachse condition),
checked on the n(n-1)/2 generator pairs that generate them.  That property
separates maps that come from morphisms from those that merely permute
coefficients, and the identity holds at every base point, so no body point
is sampled and no Grassmann product is taken.  Its derivative rows are keyed
by each monomial's (variable, exponent) pairs, not by exponent tuples nvars
long; each side of the identity holds a row with the sign its move gives it,
and two signed rows are compared by their signs, so no polynomial is negated.

Three things depend only on the shape (n, p, q) and are built once per shape,
as `morphism`'s trial plans are: the coefficient order, the symbolic point,
whose cached `table` then keeps its monomials for every later pushforward,
and `_lambda_plan`, how each generator pair moves the coefficients.  Each is
an `lru_cache` of at most 64 shapes.  Sharing them is safe because they are
pure in their key and frozen: nothing writes to the tuples, dicts, points or
polynomials they return, and `tests/test_mapspace.py` checks the cached
points against fresh ones after every user of them in the package has run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .errors import DimensionError, ParityError, payload_errors
from .grassmann import GrassmannElement, GrassmannHom, _coerce, _wire, int_from_json, merge_sign
from .morphism import SuperMorphism, morphism_compose, pushforward
from .polyalg import Polynomial, iter_multiindices
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
            return cls(int_from_json(data["n"]), SuperMorphism.from_json(data))


def sc_point_to_pair(point: MappingPoint):
    """(body map, even nilpotent sections, odd sections); exact round-trip.

    The body map is the classical map under the morphism; the sections collect
    the nilpotent remainder per tangent direction of the target.
    """
    phi = point.morphism
    return phi.bodies, [sf.nilpotent_part() for sf in phi.even_pb], list(phi.odd_pb)


def sc_pair_to_point(n: int, source, body, even_sections, odd_sections) -> MappingPoint:
    """Inverse of sc_point_to_pair, for the morphism's source R^{p|qs}."""
    body = list(body)
    even_sections = list(even_sections)
    odd_sections = list(odd_sections)
    if len(body) != len(even_sections):
        raise DimensionError("one body polynomial per even target direction required")
    even_pb = [SuperFunction.from_poly(b, source[1]) + s for b, s in zip(body, even_sections)]
    for s in even_sections:
        if s.components.get(0):
            raise ParityError("even section must be nilpotent (no theta-free part)")
    morphism = SuperMorphism(source, (len(body), len(odd_sections)), even_pb, odd_sections)
    return MappingPoint(n, morphism)


def sc_functor_action(rho: GrassmannHom, point: MappingPoint) -> MappingPoint:
    """Move a level-n point to level m by substituting rho(eta_i) for each eta.

    One GrassmannHom Lambda_{n+q} -> Lambda_{m+q} sends eta_i to rho(eta_i)
    and theta_a to theta_{m+a}, and applies to each pullback, a Grassmann
    element over Q[x]; no degree in x changes.  Functorial: the identity acts
    trivially and composites act as composites.
    """
    if rho.source != point.n:
        raise DimensionError(f"hom from Lambda_{rho.source} applied to a level-{point.n} point")
    p, q = point.base_source
    m = rho.target
    substitution = GrassmannHom(point.n + q, m + q,
                                [GrassmannElement(m + q, im.terms) for im in rho.images]
                                + [GrassmannElement.gen(m + q, m + a + 1) for a in range(q)])
    phi = point.morphism
    even, odd = ([SuperFunction._of(p, substitution.apply(sf.element)) for sf in pbs]
                 for pbs in (phi.even_pb, phi.odd_pb))
    return MappingPoint(m, SuperMorphism((p, m + q), phi.target, even, odd))


# ---------------------------------------------------------------------------
# explicit coefficient maps


@lru_cache(maxsize=64)
def _variable_order(n: int, p: int, q: int) -> tuple:
    """(kind, slot, mask) of each coefficient of a Lambda_n-point of R^{p|q}:
    even slot by even slot (masks ascending), then odd slot by odd slot (odd
    masks ascending).  A LambdaPointMap's variable i is coefficient i of its
    source and its outputs[i] is coefficient i of its target; only _point_of
    and _coefficients turn this layout into a SuperPoint and back."""
    return tuple([("even", j, m) for j in range(p) for m in even_masks(n)] + [
        ("odd", b, m) for b in range(q) for m in odd_masks(n)
    ])


def _point_of(n: int, p: int, q: int, values) -> SuperPoint:
    """The Lambda_n-point of R^{p|q} whose coefficients, in _variable_order,
    are values."""
    even, odd = [{} for _ in range(p)], [{} for _ in range(q)]
    for (kind, slot, mask), c in zip(_variable_order(n, p, q), values):
        (even if kind == "even" else odd)[slot][mask] = c
    return SuperPoint(n, [GrassmannElement(n, t) for t in even],
                      [GrassmannElement(n, t) for t in odd])


def _coefficients(point: SuperPoint) -> list:
    """The coefficients of point in _variable_order, 0 where a term is absent."""
    return [(point.even if kind == "even" else point.odd)[slot].terms.get(mask, 0)
            for kind, slot, mask in _variable_order(point.n, point.p, point.q)]


@lru_cache(maxsize=64)
def _symbolic_point(n: int, p: int, q: int) -> SuperPoint:
    """The generic Lambda_n-point of R^{p|q}: each Grassmann coefficient is the
    polynomial variable that _variable_order numbers it with.  Built once per
    shape, so its `table` keeps its monomials across every pushforward of it."""
    nvars = len(_variable_order(n, p, q))
    return _point_of(n, p, q, [Polynomial.variable(nvars, v) for v in range(nvars)])


@dataclass
class LambdaPointMap:
    """Map of Lambda_n-point sets with one polynomial per output coefficient.

    The polynomials' variables are the source's coefficients, and outputs[i]
    is the target's coefficient i, both in _variable_order; an output with no
    term is the zero polynomial.
    """

    n: int
    source: tuple
    target: tuple
    outputs: tuple

    def __post_init__(self):
        self.outputs = tuple(self.outputs)
        self.var_order = _variable_order(self.n, *self.source)
        self.nvars = len(self.var_order)
        if len(self.outputs) != len(_variable_order(self.n, *self.target)):
            raise DimensionError("one output polynomial per target coefficient required")

    def coefficient_vector(self, point: SuperPoint) -> list:
        if (point.p, point.q) != self.source or point.n != self.n:
            raise DimensionError("point does not match this map's source")
        return _coefficients(point)

    def apply(self, point: SuperPoint) -> SuperPoint:
        vec = self.coefficient_vector(point)
        return _point_of(self.n, *self.target, [f.eval_scalar(vec) for f in self.outputs])


def lambda_point_map_of(phi: SuperMorphism, n: int) -> LambdaPointMap:
    """Exact coefficient-level form of the Lambda_n pushforward along phi.

    Pushes the symbolic point forward: the image's Grassmann coefficients are
    then the wanted polynomials, with constants lifted to polynomials.
    """
    p, q = phi.source
    nvars = len(_variable_order(n, p, q))
    image = pushforward(phi, _symbolic_point(n, p, q))
    return LambdaPointMap(n, (p, q), phi.target, [
        c if isinstance(c, Polynomial) else Polynomial.constant(nvars, c)
        for c in _coefficients(image)])


# ---------------------------------------------------------------------------
# charts and the supersmoothness harness


@dataclass
class SuperChart:
    """Chart of a split supermanifold, as maps to and from its model domain."""

    to_model: SuperMorphism
    from_model: SuperMorphism


def chart_transition_map(chart1: SuperChart, chart2: SuperChart, n: int) -> LambdaPointMap:
    """Lambda_n-point form of chart2 o chart1^{-1}, composed with no degree guardrail."""
    transition = morphism_compose(chart2.to_model, chart1.from_model, degree_bound=None)
    return lambda_point_map_of(transition, n)


@dataclass
class SmoothVerdict:
    """Verdict of supersmooth_check; checks counts the identity entries compared."""

    passed: bool
    checks: int
    witness: dict | None = None

    to_json = _wire


def _derivative_rows(F: LambdaPointMap) -> list:
    """[{input variable: derivative row}] per output coefficient, in F.outputs
    order; nonzero rows only.

    A row is a derivative polynomial on sparse keys: the monomial x^e is the
    tuple of its (variable, exponent) pairs with exponent above 0, so a key
    is as long as the monomial has variables, not F.nvars.  One scan of each
    term's exponent tuple gives its pairs, and its derivative in each
    variable v it holds is keyed by those pairs with v's exponent lowered by
    one, or v dropped where that leaves 0.  _dense turns a row back.
    """
    every = range(F.nvars)
    rows = []
    for poly in F.outputs:
        parts = {}
        for e, c in poly.terms.items():
            held = list(compress(every, e))      # the variables x^e holds
            key = tuple(zip(held, map(e.__getitem__, held)))
            for i, (v, k) in enumerate(key):
                # d/dx_v (c x^e) = c k x^e / x_v; c != 0 and k >= 1, and
                # distinct terms keep distinct keys
                low = key[:i] + ((v, k - 1),) * (k > 1) + key[i + 1:]
                parts.setdefault(v, {})[low] = c if k == 1 else _coerce(c * k)
        rows.append(parts)
    return rows


def _dense(nvars: int, entry) -> Polynomial:
    """The Polynomial s * row of a signed entry (s, row) of _derivative_rows;
    None is the zero polynomial."""
    terms = {}
    if entry is not None:
        s, row = entry
        for key, c in row.items():
            e = [0] * nvars
            for v, k in key:
                e[v] = k
            terms[tuple(e)] = c if s > 0 else -c
    return Polynomial._of(nvars, terms)


def _same_entry(a, b) -> bool:
    """Whether the signed entries a = (s, x) and b = (t, y) are one polynomial:
    the rows are equal where the signs agree and each other's negation where
    they differ.  None is the zero entry, which no nonzero row equals."""
    if a is None or b is None:
        return False
    (s, x), (t, y) = a, b
    if s == t:
        return x == y
    return len(x) == len(y) and all(y.get(key) == -c for key, c in x.items())


@lru_cache(maxsize=64)
def _lambda_plan(n: int, p: int, q: int) -> tuple:
    """How each generator pair lam = eta_i eta_j = eta^m moves the
    coefficients of a Lambda_n-point of R^{p|q}: one (m, moves) per pair
    mask m, ascending.

    lam eta^a = merge_sign(m, a) eta^(a|m) when a & m == 0, so moves[w] =
    (coefficient at slot c ^ m, merge_sign(m, c ^ m)) for each coefficient w
    in _variable_order(n, p, q) whose slot c holds m.  Pure in its key, so
    each shape's signs and indices are worked out once.
    """
    order = _variable_order(n, p, q)
    index = {key: i for i, key in enumerate(order)}
    return tuple((m, {w: (index[(kind, slot, c ^ m)], merge_sign(m, c ^ m))
                      for w, (kind, slot, c) in enumerate(order) if c & m == m})
                 for m in even_masks(n) if m.bit_count() == 2)


def supersmooth_check(F: LambdaPointMap) -> SmoothVerdict:
    """Decide that dF is linear over even scalars, as a polynomial identity.

    Multiplying a tangent by the even monomial lam = eta^m moves coefficient
    slot a to slot a|m with sign merge_sign(m, a) when a & m == 0, and drops
    it otherwise: a signed partial permutation M_lam of coefficient slots,
    which _lambda_plan tabulates for the source and for the target.
    Supersmoothness is J M_lam = M_lam J for the Jacobian J of derivative
    polynomials, and each entry of that identity compares two signed entries
    (s, row) of J, its rows from _derivative_rows: the rows must be equal
    where the signs agree and each other's negation where they differ.  Left
    multiplications compose, M_{lam mu} = M_lam M_mu, and each nonzero even
    monomial is, up to sign, the product of generator pairs eta_i eta_j that
    split it; so if J commutes with the n(n-1)/2 pair moves it commutes with
    every M_lam, and by linearity with every even scalar (body monomial 1 is
    trivial).  The identity holds over Q, so for every base point kappa, not
    only sampled ones.
    Zero-body scalars are where the top-order terms only cancel because a
    nilpotent even scalar times a maximal nilpotent monomial dies -- the
    cancellation that makes these maps well defined at all.

    A failure's witness names the monomial mask, the output slot and the
    input slot [kind, slot, mask] of the first differing entry, with the
    entry of dF(lam tau) and of lam dF(tau) for tau the unit tangent on that
    input, each turned back into a Polynomial by _dense.
    """
    rows = _derivative_rows(F)
    checks = 0
    for (m, moves), (_, out_moves) in zip(_lambda_plan(F.n, *F.source),
                                          _lambda_plan(F.n, *F.target)):
        moved_in = {}    # (J M_lam)[out][v] = s * J[out][w], w the slot lam moves v to
        for out, row in enumerate(rows):
            for w, d in row.items():
                move = moves.get(w)
                if move is not None:
                    v, s = move
                    moved_in[(out, v)] = (s, d)
        moved_out = {}   # (M_lam J)[w][v] = s * J[a][v], the same move on the target
        for w, (a, s) in out_moves.items():
            for v, d in rows[a].items():
                moved_out[(w, v)] = (s, d)
        keys = moved_in.keys() | moved_out.keys()
        checks += len(keys)
        differ = [k for k in keys if not _same_entry(moved_in.get(k), moved_out.get(k))]
        if differ:
            out, v = min(differ)
            witness = {
                "lambda_mask": m,
                "output": list(_variable_order(F.n, *F.target)[out]),
                "input": list(F.var_order[v]),
                "dF_of_lambda_tau": _dense(F.nvars, moved_in.get((out, v))).to_json(),
                "lambda_dF_of_tau": _dense(F.nvars, moved_out.get((out, v))).to_json(),
            }
            return SmoothVerdict(passed=False, checks=checks, witness=witness)
    return SmoothVerdict(passed=True, checks=checks)


def top_order_cancellation(n: int, p: int, r: int) -> bool:
    """Identity check: zero-body even scalar times kappa_2^J dies at |J| = r.

    lam and kappa_1..kappa_p are the nilpotent parts of the coordinates of the
    symbolic point of R^{1+p|0}, so a True return is a polynomial identity, not
    a sample.
    """
    lam, *kappas = (x.split()[1] for x in _symbolic_point(n, 1 + p, 0).even)
    for J in iter_multiindices(p, r):
        mono = lam
        for kappa, e in zip(kappas, J):
            for _ in range(e):
                mono = mono * kappa
        if mono:
            return False
    return True


# ---------------------------------------------------------------------------
# charts of mapping spaces


def mapping_chart(f, point: MappingPoint, backend):
    """Chart image of a mapping point around the base map f: f is a list of
    (x, base point) samples, and the result is the per-sample tangent/fibre
    chart value of the point's Lambda-point at x."""
    phi = point.morphism
    n = phi.source[1]
    out = []
    for x, base_pt in f:
        even = [GrassmannElement(n, sf.eval_body(list(x))) for sf in phi.even_pb]
        odd = [GrassmannElement(n, sf.eval_body(list(x))) for sf in phi.odd_pb]
        out.append(backend.superchart_pointwise(base_pt, SuperPoint(n, even, odd)))
    return out

"""Seeded property suites behind the verify command.

Every suite draws its case corpus from a splitmix64 stream, so (seed, cases)
names the same corpus on every run and every machine.  Each case is one call
``rec.check(case_id, **inputs)``: the law named by the case id is a function
of the inputs alone, and no law draws.  Reports are plain dicts::

    {"suite", "algorithm", "seed", "cases", "passed", "failed", "failures"}

with failures sorted by case id.  A failure's witness is the law's inputs in
wire form plus the evidence the law returned; a law that raises is a failed
law whose witness carries ``error``.  The wire form is the package's one
rule, `grassmann._wire`: a value's own ``to_json()`` where its format is not
its fields, and a plain record (a dataclass such as a shear chart, a
Lambda-point or a verdict) as its fields by name.  Wall time
deliberately never enters the report body -- the CLI prints it to stderr --
so reports stay byte-comparable across runs.

`run_suite("all")` deals the suites round-robin over one process per usable
CPU, at most one per suite: this process runs the last share, and each other
share runs in a forked worker that sends its rows back over a pipe with
`marshal`.  Every suite draws from its own stream and the report sorts its rows
by id, so the report is byte-identical to a run in one process.  One process
runs every suite where a single suite is asked for, where the platform cannot
fork, where one CPU is usable, where a profiler or tracer is set, so that it
sees every law, and where another thread runs, which a fork would not copy.  A worker that does not send all its rows gives one failed row
`<suite>/draw` per suite of its share, naming its exit status or signal; no
worker outlives `run_suite`, not even when this process's share raises.

The random object generators at the top are shared with the test suite.
"""

from __future__ import annotations

import marshal
import math
import os
import signal
import sys
import threading
from fractions import Fraction

from .geometry import (
    BundlePoint,
    BundleTangent,
    Sphere2Backend,
    _dot,
    bundle_exp,
    local_detrivialize,
    local_trivialize,
)
from .grassmann import GrassmannElement, GrassmannHom, _accumulate, _wire, hom_apply, hom_compose
from .jetcalc import faa_di_bruno, taylor_of, trunc_compose, trunc_mul
from .mapspace import (
    LambdaPointMap,
    MappingPoint,
    SuperChart,
    _coefficients,
    _symbolic_point,
    chart_transition_map,
    even_masks,
    lambda_point_map_of,
    sc_functor_action,
    sc_pair_to_point,
    sc_point_to_pair,
    supersmooth_check,
    top_order_cancellation,
)
from .morphism import (
    SuperMorphism,
    _trial_plan,
    default_probes,
    eta_decompose,
    morphism_compose,
    order_bound_check,
    pushforward,
)
from .polyalg import (
    Polynomial,
    iter_multiindices_upto,
    mi_factorial,
    poly_compose,
    taylor_coefficient,
    taylor_shift,
)
from .rng import ALGORITHM, SplitMix64
from .superfun import SuperFunction, SuperPoint, sf_eval, sf_eval_naive, sf_substitute


# ---------------------------------------------------------------------------
# random object generators


def random_polynomial(rng: SplitMix64, p: int, degree: int = 3, terms: int = 3) -> Polynomial:
    out = {}
    for _ in range(terms):
        exp = [0] * p
        for _ in range(rng.randint(0, degree)):
            if p:
                exp[rng.randint(0, p - 1)] += 1
        c = rng.fraction()
        if c:
            _accumulate(out, ((tuple(exp), c),))
    return Polynomial._of(p, out)


def random_superfunction(rng: SplitMix64, p: int, q: int, degree: int = 3,
                         parity=None, terms: int = 2) -> SuperFunction:
    """Random polynomial superfunction, optionally of fixed parity."""
    comps = {}
    for mask in range(1 << q):
        if parity is not None and mask.bit_count() % 2 != parity:
            continue
        if mask and rng.randint(0, 2) == 0:
            continue        # keep the theta support sparse
        poly = random_polynomial(rng, p, degree, terms)
        if poly:
            comps[mask] = poly
    return SuperFunction(p, q, comps)


def random_grassmann(rng: SplitMix64, n: int, parity=None, terms: int = 3) -> GrassmannElement:
    n = GrassmannElement._generator_count(n)
    out = {}
    for _ in range(terms):
        mask = rng.randint(0, (1 << n) - 1)
        if parity is not None and mask.bit_count() % 2 != parity:
            continue
        c = rng.fraction()
        if c:
            _accumulate(out, ((mask, c),))
    return GrassmannElement._of(n, out)


def random_superpoint(rng: SplitMix64, n: int, p: int, q: int) -> SuperPoint:
    even = [random_grassmann(rng, n, parity=0) for _ in range(p)]
    odd = [random_grassmann(rng, n, parity=1) for _ in range(q)]
    return SuperPoint(n, even, odd)


def random_morphism(rng: SplitMix64, source, target, degree: int = 3) -> SuperMorphism:
    p, q = source
    r, s = target
    evens = [random_superfunction(rng, p, q, degree, parity=0) for _ in range(r)]
    odds = [random_superfunction(rng, p, q, degree, parity=1) for _ in range(s)]
    return SuperMorphism(source, target, evens, odds)


def random_hom(rng: SplitMix64, source_n: int, target_n: int) -> GrassmannHom:
    """Algebra map with random purely odd generator images."""
    images = [random_grassmann(rng, target_n, parity=1, terms=2) for _ in range(source_n)]
    return GrassmannHom(source_n, target_n, images)


def _shear_pair(rng: SplitMix64, p: int, q: int):
    """One elementary triangular shear of R^{p|q}, of degree at most 2, and its
    exact inverse."""
    ident = SuperMorphism.identity(p, q)
    fwd_even, fwd_odd = list(ident.even_pb), list(ident.odd_pb)
    inv_even, inv_odd = list(ident.even_pb), list(ident.odd_pb)
    kind = rng.randint(0, 2)
    c = rng.nonzero_fraction()
    if kind == 0:
        # even shear: y_j += c * g with g free of y_j (so subtracting undoes it)
        j = rng.randint(0, p - 1)
        exp = [0] * p
        for _ in range(rng.randint(0, 2)):
            if p > 1:
                l = rng.randint(0, p - 2)
                exp[l if l < j else l + 1] += 1
        g = SuperFunction(p, q, {rng.choice(even_masks(q)): Polynomial.monomial(p, tuple(exp), c)})
        fwd_even[j] = fwd_even[j] + g
        inv_even[j] = inv_even[j] - g
    elif kind == 1 and q >= 2:
        # odd shear: theta_b += poly(y) * theta_a, a != b
        b = rng.randint(0, q - 1)
        a = rng.randint(0, q - 2)
        a = a if a < b else a + 1
        g = SuperFunction(p, q, {1 << a: random_polynomial(rng, p, degree=2, terms=1)})
        fwd_odd[b] = fwd_odd[b] + g
        inv_odd[b] = inv_odd[b] - g
    else:
        # coordinate rescale
        if rng.randint(0, 1) and q:
            b = rng.randint(0, q - 1)
            fwd_odd[b] = fwd_odd[b].scale(c)
            inv_odd[b] = inv_odd[b].scale(1 / c)
        else:
            j = rng.randint(0, p - 1)
            fwd_even[j] = fwd_even[j].scale(c)
            inv_even[j] = inv_even[j].scale(1 / c)
    src = (p, q)
    return SuperMorphism(src, src, fwd_even, fwd_odd), SuperMorphism(src, src, inv_even, inv_odd)


def random_shear_chart(rng: SplitMix64, p: int, q: int, layers: int = 2) -> SuperChart:
    """Invertible chart built by composing elementary shears.

    to_model is s_k o ... o s_1 and from_model the reversed inverses, so the
    pair is mutually inverse by construction -- no solving involved.
    """
    to_model = SuperMorphism.identity(p, q)
    from_model = SuperMorphism.identity(p, q)
    for _ in range(layers):
        shear, unshear = _shear_pair(rng, p, q)
        to_model = morphism_compose(shear, to_model)
        from_model = morphism_compose(from_model, unshear)
    return SuperChart(to_model=to_model, from_model=from_model)


def coefficient_squaring_map(n: int = 2) -> LambdaPointMap:
    """Coefficientwise map that is smooth in coordinates but not supersmooth.

    Sends c0 + c1 eta_1 eta_2 to c0 + c1^2 eta_1 eta_2; its differential is
    linear over the reals but not over the even part of the algebra, so
    supersmooth_check must reject it.
    """
    if n < 2:
        raise ValueError("needs at least two generators")
    x = _coefficients(_symbolic_point(n, 1, 0))   # masks 0, 3, ... ascending
    return LambdaPointMap(n, (1, 0), (1, 0),
                          [x[0], x[1] * x[1]] + [Polynomial.zero(len(x))] * (len(x) - 2))


def late_failing_map() -> LambdaPointMap:
    """The identity of R^{1|0} at level 4 plus (coefficient of eta3 eta4)^3 on
    the eta1 eta2 eta3 eta4 output: not supersmooth, but supersmooth_check
    first rejects it at lambda = eta3 eta4 (mask 12), not at the first mask."""
    x = _coefficients(_symbolic_point(4, 1, 0))   # masks 0, 3, 5, 6, 9, 10, 12, 15
    return LambdaPointMap(4, (1, 0), (1, 0), x[:7] + [x[7] + x[6] * x[6] * x[6]])


# float helpers for the geometry corpus ------------------------------------


def _ufloat(rng: SplitMix64, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (rng.randint(0, 10 ** 9) / 1e9)


def random_sphere_point(rng: SplitMix64):
    while True:
        v = [_ufloat(rng, -1.0, 1.0) for _ in range(3)]
        r2 = _dot(v, v)
        if 0.05 <= r2 <= 1.0:
            r = math.sqrt(r2)
            return tuple(c / r for c in v)


def random_tangent(rng: SplitMix64, x, lo: float = 0.2, hi: float = 1.2):
    """Tangent vector at x with norm drawn from [lo, hi].

    Radii stay well inside the injectivity radius: the finite-difference
    cross-checks degrade near the cut locus even though the jets stay exact.
    """
    while True:
        w = [_ufloat(rng, -1.0, 1.0) for _ in range(3)]
        d = _dot(w, x)
        w = [c - d * xc for c, xc in zip(w, x)]
        n2 = _dot(w, w)
        if n2 >= 1e-2:
            s = _ufloat(rng, lo, hi) / math.sqrt(n2)
            return tuple(c * s for c in w)


# ---------------------------------------------------------------------------
# finite-difference oracle for the geometry jets


def fd_derivative(fn, x0, I) -> list:
    """D_I fn at x0, per component of the vector-valued fn, by nested central
    differences plus Richardson.

    Each axis application uses nodes x +- h (spacing 2h, error O(h^2));
    extrapolating over h = 0.12, 0.06, 0.03, 0.015 cancels the h^2, h^4, h^6
    terms and leaves ~1e-8 relative error on the orders <= 4 used here.  The
    2^|I| nodes of a level are built axis by axis, x + h before x - h, and fn
    is called once per node; each difference then pairs neighbouring values,
    innermost axis first, so every component is differenced from that one
    value.
    """
    axes = [i for i, e in enumerate(I) for _ in range(e)]

    def level(h):
        nodes = [list(x0)]
        for axis in axes:
            grown = []
            for x in nodes:
                xp = list(x)
                xp[axis] += h
                xm = list(x)
                xm[axis] -= h
                grown += (xp, xm)
            nodes = grown
        vals = [list(fn(x)) for x in nodes]
        for _ in axes:
            vals = [[(a - b) / (2.0 * h) for a, b in zip(vals[i], vals[i + 1])]
                    for i in range(0, len(vals), 2)]
        return vals[0]

    vals = [level(0.12 / 2 ** j) for j in range(4)]
    factor = 4.0
    while len(vals) > 1:
        vals = [[(factor * b - a) / (factor - 1.0) for a, b in zip(lo, hi)]
                for lo, hi in zip(vals, vals[1:])]
        factor *= 4.0
    return vals[0]


def jet_fd_defect(jet, fn) -> float:
    """Worst deviation of jet coefficients from finite differences of the map fn.

    Compares the Taylor-normalized coefficient c_I = D_I f / I! of each
    component against the Richardson estimate, relative to max(1, |c_I|).
    The multi-indices share many nodes, so fn is called once per distinct node.
    """
    seen = {}

    def once(x):
        key = tuple(x)
        got = seen.get(key)
        if got is None:
            got = seen[key] = fn(x)
        return got

    worst = 0.0
    # orders above 4 are not compared: fd_derivative is accurate to ~1e-8 only up to 4
    for I in iter_multiindices_upto(jet.m, min(jet.k, 4)):
        if sum(I) == 0:
            continue
        fact = mi_factorial(I)
        for d, val in zip(fd_derivative(once, jet.base_point, I), jet.coefficient(I)):
            fd = d / fact
            worst = max(worst, abs(fd - val) / max(1.0, abs(val)))
    return worst


# ---------------------------------------------------------------------------
# report plumbing


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Recorder:
    """Runs laws and accumulates (case id, verdict, witness) rows into a report dict."""

    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.rows = []

    def check(self, case_id: str, **inputs) -> bool:
        """Run the law of case_id on inputs and record its row.

        A law returns True, False or (ok, evidence).  A failure's witness is
        the inputs in wire form plus the evidence; a law that raises fails,
        with the exception as its evidence.  So that a witness always holds
        the law's inputs, evidence that names an input fails the row, with an
        error in place of the evidence.
        """
        law = LAWS.get(case_id) or LAWS[case_id.rpartition("-")[0]]
        try:
            verdict = law(**inputs)
        except Exception as exc:
            verdict = False, {"error": _error(exc)}
        ok, evidence = verdict if isinstance(verdict, tuple) else (verdict, {})
        ok = bool(ok)
        shadowed = sorted(evidence.keys() & inputs.keys())
        if shadowed:
            ok, evidence = False, {"error": f"evidence shadows the inputs {shadowed}"}
        witness = None if ok else {k: _wire(v) for k, v in {**inputs, **evidence}.items()}
        self.rows.append((case_id, ok, witness))
        return ok

    def report(self) -> dict:
        rows = sorted(self.rows, key=lambda r: r[0])
        failures = []
        for cid, ok, witness in rows:
            if not ok:
                entry = {"id": cid}
                if witness:
                    entry["witness"] = witness
                failures.append(entry)
        return {
            "suite": self.suite,
            "algorithm": ALGORITHM,
            "seed": self.seed,
            "cases": len(rows),
            "passed": sum(1 for _, ok, _ in rows if ok),
            "failed": len(failures),
            "failures": failures,
        }


# ---------------------------------------------------------------------------
# laws: each a function of the inputs its suite drew; LAWS keys them by case id


def law_assoc(a, b, c):
    return (a * b) * c == a * (b * c)


def law_sign(x, y):
    (ma,), (mb,) = x.terms, y.terms
    sign = -1 if (ma.bit_count() & 1) and (mb.bit_count() & 1) else 1
    return x * y == (y * x).scale(sign)


def law_split(a):
    body, even_nil, odd = a.split()
    return (a == GrassmannElement.scalar(a.n, body) + even_nil + odd
            and even_nil.is_even() and not even_nil.body() and odd.is_odd()
            and (even_nil + odd) ** (a.n + 1) == GrassmannElement.zero(a.n))


def law_json(payloads):
    """Each payload reads back equal from its own wire form; evidence: the
    positions of those that did not."""
    bad = [i for i, x in enumerate(payloads) if type(x).from_json(x.to_json()) != x]
    return not bad, {"mismatched": bad}


def law_hom(rho, a, b):
    one = GrassmannElement.one
    return (hom_apply(rho, a * b) == hom_apply(rho, a) * hom_apply(rho, b)
            and hom_apply(rho, one(rho.source)) == one(rho.target))


def law_oracle(sigma, nu):
    return sf_eval(sigma, nu) == sf_eval_naive(sigma, nu)


def law_mult(sigma, tau, nu):
    return sf_eval(sigma * tau, nu) == sf_eval(sigma, nu) * sf_eval(tau, nu)


def _noncanonical(terms: dict, path=()):
    """The key path to the first coefficient of terms, recursing into Q[x], that
    is neither a nonzero int nor a Fraction with denominator above 1; None
    when there is none."""
    for key, c in terms.items():
        if type(c) is Polynomial and c:
            bad = _noncanonical(c.terms, path + (key,))
            if bad is not None:
                return bad
        elif not (type(c) is int and c or type(c) is Fraction and c.denominator > 1):
            return path + (key,)
    return None


def law_canonical(sigma, tau, nu):
    """Every coefficient of sigma * tau and of sf_eval(sigma, nu) is in canonical
    form; evidence: the first offending key, after the result it is in."""
    for name, terms in (("product", (sigma * tau).components),
                        ("value", sf_eval(sigma, nu).terms)):
        bad = _noncanonical(terms)
        if bad is not None:
            return False, {"offending": [name, *bad]}
    return True


def law_unit(nu):
    return sf_eval(SuperFunction.one(nu.p, nu.q), nu) == GrassmannElement.one(nu.n)


def _apply_hom_point(rho: GrassmannHom, nu: SuperPoint) -> SuperPoint:
    return SuperPoint(
        rho.target,
        [hom_apply(rho, c) for c in nu.even],
        [hom_apply(rho, c) for c in nu.odd],
    )


def law_compose(phi, psi, mu):
    return pushforward(morphism_compose(psi, phi), mu) == pushforward(psi, pushforward(phi, mu))


def law_natural(phi, mu, rho):
    moved = pushforward(phi, _apply_hom_point(rho, mu))
    return moved == _apply_hom_point(rho, pushforward(phi, mu))


def law_order(phi, n_eta, seed):
    """Every symbol order is within its bound and passes the sampled check."""
    for coef in eta_decompose(phi, n_eta):
        verdict = order_bound_check(coef, coef.order(), seed=seed)
        if coef.order() > coef.order_bound() or not verdict.passed:
            return False, {"index": coef.index, "order": coef.order(),
                           "order_bound": coef.order_bound(), "verdict": verdict}
    return True


def law_decomp(phi, g, n_eta):
    """The coefficients, applied through their symbols, reassemble the pullback."""
    p, q = phi.source
    total = SuperFunction.zero(p, q)
    for coef in eta_decompose(phi, n_eta):
        comps = {(m << n_eta) | coef.mask: poly for m, poly in coef.apply(g).components.items()}
        total = total + SuperFunction(p, q, comps)
    return total == sf_substitute(g, phi)


def law_sharp(phi, n_eta, index, seed):
    """The coefficient at index has order and bound 1, and the check finds both."""
    coef = next(c for c in eta_decompose(phi, n_eta) if c.index == index)
    at_one = order_bound_check(coef, 1, seed=seed)
    # the order-0 search cycles through its plan's body points and probes; for the
    # suite's phi the counts are coprime, so this many trials try every probe at every point
    lattice, probes, _ = _trial_plan(phi.source[0], *phi.target, 0, seed)
    at_zero = order_bound_check(coef, 0, trials=len(lattice) * len(probes), seed=seed)
    return (coef.order() == 1 == coef.order_bound() and at_one.passed and not at_zero.passed,
            {"order": coef.order(), "order_bound": coef.order_bound(),
             "k1": at_one, "k0": at_zero})


def law_jet_compose(phi, psi, x0, k):
    """An outer jet one order above the inner one composes at the inner order."""
    inner = taylor_of(phi, x0, k)
    outer = taylor_of(psi, inner.base_value, k + 1)
    oracle = taylor_of([poly_compose(g, phi, degree_bound=None) for g in psi], x0, k)
    return trunc_compose(outer, inner) == oracle


def law_jet_ident(phi, x0, k):
    inner = taylor_of(phi, x0, k)
    dx, dy = len(x0), len(phi)
    ident_src = taylor_of([Polynomial.variable(dx, j) for j in range(dx)], x0, k)
    ident_tgt = taylor_of([Polynomial.variable(dy, j) for j in range(dy)], inner.base_value, k)
    return (trunc_compose(inner, ident_src) == inner
            and trunc_compose(ident_tgt, inner) == inner)


def law_shift(phi, x0, k):
    """Each component's shift holds exactly its derive-based Taylor coefficients of
    order <= k; evidence: the positions of the components whose shift does not."""
    bad = [j for j, f in enumerate(phi)
           if taylor_shift(f, x0, k).terms != {
               I: c for I in iter_multiindices_upto(len(x0), k)
               if (c := taylor_coefficient(f, I, x0))}]
    return not bad, {"mismatched": bad}


def law_jet_mul(f, g, x0, k):
    """A product of jets of orders k + 1 and k has order k."""
    return trunc_mul(taylor_of([f], x0, k + 1), taylor_of([g], x0, k)) == taylor_of([f * g], x0, k)


def law_faa(phi, psi, x0, m):
    composed = [poly_compose(g, phi, degree_bound=None) for g in psi]
    return all(vals == tuple(cp.derive(K).eval_scalar(x0) for cp in composed)
               for K, vals in faa_di_bruno(psi, phi, x0, m).items())


# the bundle rank of the chart law's backend; the suite sizes its xi from it
CHART_RANK = 1
# the backends of the geometry laws
SPHERE = Sphere2Backend()
SPHERE_CHART = Sphere2Backend(bundle_rank=CHART_RANK)


def law_roundtrip(x, v):
    y = SPHERE.geo_exp(x, v)
    back = SPHERE.geo_log(x, y)
    err = max(abs(a - b) for a, b in zip(v, back))
    dist_err = abs(SPHERE.geo_dist(x, y) - math.sqrt(_dot(v, v)))
    return (err <= SPHERE.tol and dist_err <= SPHERE.tol,
            {"log_exp_v": back, "max_err": err, "dist_err": dist_err})


def law_isometry(x, v, w1, w2):
    y = SPHERE.geo_exp(x, v)
    p1, p2 = (SPHERE.geo_pt(x, y, w) for w in (w1, w2))
    errs = [abs(_dot(p1, p2) - _dot(w1, w2)), abs(_dot(p1, y))]
    return max(errs) <= SPHERE.tol, {"y": y, "errs": errs}


def law_fd(x, y0):
    defect = jet_fd_defect(SPHERE.log_jet(x, y0, 4), lambda yy: SPHERE.log_closed(x, yy))
    return defect <= 1e-6, {"defect": defect}


def law_fd_exp(x, v):
    defect = jet_fd_defect(SPHERE.exp_jet(x, v, 4), lambda vv: SPHERE.exp_closed(x, vv))
    return defect <= 1e-6, {"defect": defect}


def law_chart(f_x, xi):
    mu = SPHERE_CHART.superchart_pointwise_inv(f_x, xi)
    back = SPHERE_CHART.superchart_pointwise(f_x, mu)
    err = 0.0
    for a, b in zip(back.even + back.odd, xi.even + xi.odd):
        for mask in set(a.terms) | set(b.terms):
            err = max(err, abs(float(a.terms.get(mask, 0)) - float(b.terms.get(mask, 0))))
    norm = mu.even[0] * mu.even[0] + mu.even[1] * mu.even[1] + mu.even[2] * mu.even[2]
    delta = norm - GrassmannElement.one(xi.n)
    unit_err = max((abs(float(c)) for c in delta.terms.values()), default=0.0)
    return (err <= SPHERE_CHART.tol and unit_err <= SPHERE_CHART.tol,
            {"roundtrip_err": err, "unit_defect": unit_err})


def law_bundle(a, xi):
    moved = bundle_exp(SPHERE, a, xi)
    shifted = tuple(f + dv for f, dv in zip(a.fibre[0], xi.vertical[0]))
    fibre_norm_err = abs(math.sqrt(_dot(moved.fibre[0], moved.fibre[0]))
                         - math.sqrt(_dot(shifted, shifted)))
    samples = [a.base, moved.base]
    sections = [a, moved]
    rebuilt = local_detrivialize(SPHERE, samples, local_trivialize(SPHERE, samples, sections))
    rt_err = 0.0
    for orig, got in zip(sections, rebuilt):
        rt_err = max(rt_err, max(abs(p - qq) for p, qq in zip(orig.base, got.base)))
        for wf, gf in zip(orig.fibre, got.fibre):
            rt_err = max(rt_err, max(abs(p - qq) for p, qq in zip(wf, gf)))
    return (fibre_norm_err <= SPHERE.tol and rt_err <= SPHERE.tol,
            {"fibre_norm_err": fibre_norm_err, "roundtrip_err": rt_err})


def law_pair(point):
    return sc_pair_to_point(point.n, point.morphism.source, *sc_point_to_pair(point)) == point


def law_functident(point):
    return sc_functor_action(GrassmannHom.identity(point.n), point) == point


def law_functcomp(point, rho, sigma):
    return (sc_functor_action(hom_compose(sigma, rho), point)
            == sc_functor_action(sigma, sc_functor_action(rho, point)))


def law_shearinv(chart):
    ident = SuperMorphism.identity(*chart.to_model.source)
    return (morphism_compose(chart.to_model, chart.from_model) == ident
            and morphism_compose(chart.from_model, chart.to_model) == ident)


def law_transition(chart1, chart2, n):
    verdict = supersmooth_check(chart_transition_map(chart1, chart2, n))
    return verdict.passed, {"verdict": verdict}


def law_map_natural(phi, rho, nu):
    lhs = lambda_point_map_of(phi, rho.target).apply(_apply_hom_point(rho, nu))
    rhs = _apply_hom_point(rho, lambda_point_map_of(phi, nu.n).apply(nu))
    return lhs.even == rhs.even and lhs.odd == rhs.odd


def law_map_apply(phi, nu):
    return lambda_point_map_of(phi, nu.n).apply(nu) == pushforward(phi, nu)


def law_map_smooth(phi, nu):
    verdict = supersmooth_check(lambda_point_map_of(phi, nu.n))
    return verdict.passed, {"verdict": verdict}


def law_cancel(n, p, r):
    return top_order_cancellation(n, p, r)


def law_cancel_sharp(n, p, r):
    """No cancellation one order lower, at each (n[i], p, r[i]); evidence: the first that died."""
    for level, order in zip(n, r):
        if top_order_cancellation(level, p, order):
            return False, {"cancelled_at": {"n": level, "p": p, "r": order}}
    return True


def law_reject(square, late):
    verdicts = [supersmooth_check(square), supersmooth_check(late)]
    return all(not v.passed and v.witness is not None for v in verdicts), {"verdicts": verdicts}


# key: the case id without its last "-" part, or the whole id when that is a key.
# Laws call the library through this module's globals, so a rebinding reaches them.
LAWS = {
    "grassmann/assoc": law_assoc, "grassmann/sign": law_sign, "grassmann/split": law_split,
    "grassmann/json": law_json, "grassmann/hom": law_hom,
    "superfun/oracle": law_oracle, "superfun/mult": law_mult, "superfun/unit": law_unit,
    "superfun/json": law_json, "superfun/canonical": law_canonical,
    "morphism/compose": law_compose, "morphism/natural": law_natural, "morphism/json": law_json,
    "morphism/etaorder": law_order, "morphism/thetaorder": law_order,
    "morphism/decomp": law_decomp, "morphism/sharp": law_sharp,
    "jetcalc/compose": law_jet_compose, "jetcalc/ident": law_jet_ident,
    "jetcalc/shift": law_shift, "jetcalc/mul": law_jet_mul, "jetcalc/faa": law_faa,
    "geometry/roundtrip": law_roundtrip, "geometry/isometry": law_isometry,
    "geometry/fd": law_fd, "geometry/fd-exp": law_fd_exp,
    "geometry/chart": law_chart, "geometry/bundle": law_bundle,
    "mapspace/pair": law_pair, "mapspace/functident": law_functident,
    "mapspace/functcomp": law_functcomp, "mapspace/shearinv": law_shearinv,
    "mapspace/transition": law_transition, "mapspace/natural": law_map_natural,
    "mapspace/apply": law_map_apply, "mapspace/smooth": law_map_smooth,
    "mapspace/cancel": law_cancel, "mapspace/cancel-sharp": law_cancel_sharp,
    "mapspace/reject": law_reject, "mapspace/json": law_json,
}

# superfun/, morphism/ and mapspace/json read back the payloads of this many cases,
# and superfun/canonical checks as many; each costs about 0.2 ms, and
# grassmann/json reads back every case
WIRE_CASES = 5
# jetcalc/shift checks the shifts of this many cases' phi against the derive-based
# oracle; each costs about 0.2 ms
SHIFT_CASES = 10


# ---------------------------------------------------------------------------
# suites: each draws its corpus in a fixed order and hands every case to rec


def suite_grassmann(rec: Recorder, seed: int, cases: int) -> None:
    """Algebra laws, the body/soul split, JSON round-trips, homomorphisms."""
    rng = SplitMix64(seed)
    for i in range(cases):
        n = rng.randint(2, 6)
        a = random_grassmann(rng, n)
        b = random_grassmann(rng, n)
        c = random_grassmann(rng, n)
        rec.check(f"grassmann/assoc-{i:04d}", a=a, b=b, c=c)

        ma = rng.randint(0, (1 << n) - 1)
        mb = rng.randint(0, (1 << n) - 1)
        x = GrassmannElement.monomial(n, ma, rng.nonzero_fraction())
        y = GrassmannElement.monomial(n, mb, rng.nonzero_fraction())
        rec.check(f"grassmann/sign-{i:04d}", x=x, y=y)
        rec.check(f"grassmann/split-{i:04d}", a=a)
        rec.check(f"grassmann/json-{i:04d}", payloads=(a,))

        m = rng.randint(0, 5)
        rho = random_hom(rng, n, m)
        rec.check(f"grassmann/hom-{i:04d}", rho=rho, a=a, b=b)


def suite_superfun(rec: Recorder, seed: int, cases: int) -> None:
    """Evaluation is a unital algebra map and matches the expansion oracle; wire
    round-trips and canonical coefficients."""
    rng = SplitMix64(seed)
    for i in range(cases):
        p = rng.randint(1, 3)
        q = rng.randint(0, 3)
        n = rng.randint(2, 6)
        sigma = random_superfunction(rng, p, q, degree=4)
        tau = random_superfunction(rng, p, q, degree=4)
        nu = random_superpoint(rng, n, p, q)
        rec.check(f"superfun/oracle-{i:04d}", sigma=sigma, nu=nu)
        rec.check(f"superfun/mult-{i:04d}", sigma=sigma, tau=tau, nu=nu)
        rec.check(f"superfun/unit-{i:04d}", nu=nu)
        if i < WIRE_CASES:
            rec.check(f"superfun/json-{i:04d}", payloads=(sigma, nu))
            rec.check(f"superfun/canonical-{i:04d}", sigma=sigma, tau=tau, nu=nu)


def suite_morphism(rec: Recorder, seed: int, cases: int) -> None:
    """Functoriality of pushforward, naturality, coefficient order bounds, wire round-trips."""
    rng = SplitMix64(seed)
    for i in range(cases):
        p, q = rng.randint(1, 3), rng.randint(0, 2)
        r, s = rng.randint(1, 3), rng.randint(0, 2)
        t, u = rng.randint(1, 2), rng.randint(0, 2)
        n = rng.randint(2, 4)
        phi = random_morphism(rng, (p, q), (r, s), degree=3)
        psi = random_morphism(rng, (r, s), (t, u), degree=2)
        mu = random_superpoint(rng, n, p, q)
        rec.check(f"morphism/compose-{i:04d}", phi=phi, psi=psi, mu=mu)
        if i < max(1, cases // 2):
            m = rng.randint(0, 4)
            rho = random_hom(rng, n, m)
            rec.check(f"morphism/natural-{i:04d}", phi=phi, mu=mu, rho=rho)
            if i < WIRE_CASES:
                rec.check(f"morphism/json-{i:04d}", payloads=(phi, mu, rho))

    # order bounds for the coefficient operators, in both gradings
    for i in range(cases):
        p = rng.randint(1, 2)
        q = rng.randint(2, 3)
        r, s = rng.randint(1, 2), rng.randint(0, 2)
        phi = random_morphism(rng, (p, q), (r, s), degree=2)
        n_eta = rng.randint(1, q - 1)       # proper leading block: eta grading
        rec.check(f"morphism/etaorder-{i:04d}", phi=phi, n_eta=n_eta, seed=seed + i)
        # sampled reconstruction: the coefficients reassemble the pullback
        g = rng.choice(default_probes(r, s, 2))
        rec.check(f"morphism/decomp-{i:04d}", phi=phi, g=g, n_eta=n_eta)
        # whole odd sector: theta grading
        rec.check(f"morphism/thetaorder-{i:04d}", phi=phi, n_eta=q, seed=seed + i)

    # sharpness: y -> y + theta1 theta2 has a genuine first-order coefficient,
    # so the bound k must fail one step below the certified order
    phi = SuperMorphism(
        (1, 2), (1, 2),
        [SuperFunction(1, 2, {0: Polynomial.variable(1, 0), 3: Polynomial.one(1)})],
        [SuperFunction.theta(1, 2, 0), SuperFunction.theta(1, 2, 1)],
    )
    for label, n_eta, index in (("sharp-eta", 1, (1,)), ("sharp-theta", 2, (1, 1))):
        rec.check(f"morphism/{label}", phi=phi, n_eta=n_eta, index=index, seed=seed)


def suite_jetcalc(rec: Recorder, seed: int, cases: int) -> None:
    """Truncated composition, identity jets, the Taylor shift, products, and Faa di Bruno."""
    rng = SplitMix64(seed)
    for i in range(cases):
        dx, dy, dz = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(1, 3)
        x0 = [rng.fraction() for _ in range(dx)]
        phi = [random_polynomial(rng, dx, degree=3) for _ in range(dy)]
        psi = [random_polynomial(rng, dy, degree=3) for _ in range(dz)]
        rec.check(f"jetcalc/compose-{i:04d}", phi=phi, psi=psi, x0=x0, k=k)
        rec.check(f"jetcalc/ident-{i:04d}", phi=phi, x0=x0, k=k)
        if i < SHIFT_CASES:
            rec.check(f"jetcalc/shift-{i:04d}", phi=phi, x0=x0, k=k)
        f = random_polynomial(rng, dx, degree=3)
        g = random_polynomial(rng, dx, degree=3)
        rec.check(f"jetcalc/mul-{i:04d}", f=f, g=g, x0=x0, k=k)
        m = rng.randint(1, 6)
        rec.check(f"jetcalc/faa-{i:04d}", phi=phi, psi=psi, x0=x0, m=m)


def suite_geometry(rec: Recorder, seed: int, cases: int) -> None:
    """Roundtrips, transport isometry, jet-vs-difference checks, supercharts."""
    rng = SplitMix64(seed)
    for i in range(cases):
        x = random_sphere_point(rng)
        v = random_tangent(rng, x)
        w1 = random_tangent(rng, x)
        w2 = random_tangent(rng, x)
        rec.check(f"geometry/roundtrip-{i:04d}", x=x, v=v)
        rec.check(f"geometry/isometry-{i:04d}", x=x, v=v, w1=w1, w2=w2)

    for i in range(min(cases, 4)):
        x = random_sphere_point(rng)
        v = random_tangent(rng, x, lo=0.2, hi=0.9)
        rec.check(f"geometry/fd-exp-{i:04d}", x=x, v=v)
        rec.check(f"geometry/fd-{i:04d}", x=x, y0=SPHERE.exp_closed(x, v))

    d = 3 * (1 + CHART_RANK)
    for i in range(min(cases, 6)):
        n, q = 3, 1
        f_x = random_sphere_point(rng)
        vecs = {0: list(random_tangent(rng, f_x)) + list(random_tangent(rng, f_x))}
        for mask in even_masks(n)[1:]:
            raw = [_ufloat(rng, -1.0, 1.0) for _ in range(d)]
            fixed = []
            for blk in range(1 + CHART_RANK):
                seg = raw[3 * blk:3 * blk + 3]
                dd = _dot(seg, f_x)
                fixed.extend(c - dd * fc for c, fc in zip(seg, f_x))
            vecs[mask] = fixed
        xi = SuperPoint(
            n,
            [GrassmannElement(n, {m: vv[slot] for m, vv in vecs.items() if vv[slot]})
             for slot in range(d)],
            [random_grassmann(rng, n, parity=1) for _ in range(q)],
        )
        rec.check(f"geometry/chart-{i:04d}", f_x=f_x, xi=xi)

    for i in range(min(cases, 6)):
        x = random_sphere_point(rng)
        a = BundlePoint(x, (random_tangent(rng, x),))
        xi = BundleTangent(random_tangent(rng, x), (random_tangent(rng, x),))
        rec.check(f"geometry/bundle-{i:04d}", a=a, xi=xi)


def suite_mapspace(rec: Recorder, seed: int, cases: int) -> None:
    """Pair and wire roundtrips, functor laws, supersmooth transitions, cancellation."""
    rng = SplitMix64(seed)
    for i in range(cases):
        p = rng.randint(1, 2)
        q = rng.randint(1, 3)
        n = rng.randint(0, q)
        point = MappingPoint(n, random_morphism(rng, (p, q), (rng.randint(1, 2), rng.randint(0, 2))))
        rec.check(f"mapspace/pair-{i:04d}", point=point)
        if i < WIRE_CASES:
            rec.check(f"mapspace/json-{i:04d}", payloads=(point,))

    for i in range(max(1, cases // 2)):
        p, q = rng.randint(1, 2), rng.randint(0, 1)
        a = rng.randint(1, 3)
        b = rng.randint(0, 3)
        c = rng.randint(0, 2)
        point = MappingPoint(a, random_morphism(rng, (p, a + q), (rng.randint(1, 2), rng.randint(0, 1)), degree=2))
        rec.check(f"mapspace/functident-{i:04d}", point=point)
        rho = random_hom(rng, a, b)
        sigma = random_hom(rng, b, c)
        rec.check(f"mapspace/functcomp-{i:04d}", point=point, rho=rho, sigma=sigma)

    for i in range(min(cases, 8)):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        n = rng.randint(2, 4)
        c1 = random_shear_chart(rng, p, q, layers=2)
        c2 = random_shear_chart(rng, p, q, layers=2)
        rec.check(f"mapspace/shearinv-{i:04d}", chart=c1)
        rec.check(f"mapspace/transition-{i:04d}", chart1=c1, chart2=c2, n=n)

    # one transition each at the two highest levels the criteria ask for
    for n in (5, 6):
        hi_rng = SplitMix64(seed ^ n)
        c1 = random_shear_chart(hi_rng, 1, 1, layers=1)
        c2 = random_shear_chart(hi_rng, 1, 1, layers=1)
        rec.check(f"mapspace/transition-hi{n}", chart1=c1, chart2=c2, n=n)

    for i in range(min(cases, 8)):
        p, q = rng.randint(1, 2), rng.randint(0, 1)
        n = rng.randint(2, 3)
        m = rng.randint(0, 3)
        phi = random_morphism(rng, (p, q), (rng.randint(1, 2), rng.randint(0, 1)), degree=2)
        rho = random_hom(rng, n, m)
        nu = random_superpoint(rng, n, p, q)
        rec.check(f"mapspace/natural-{i:04d}", phi=phi, rho=rho, nu=nu)
        rec.check(f"mapspace/apply-{i:04d}", phi=phi, nu=nu)
        rec.check(f"mapspace/smooth-{i:04d}", phi=phi, nu=nu)

    # the cancellation that makes transitions well defined: lambda kappa_2^J
    # dies identically at |J| = r, even where kappa_2^J itself survives
    for n in range(2, 7):
        rec.check(f"mapspace/cancel-{n}", n=n, p=2, r=n // 2)
    # but survives one order lower
    rec.check("mapspace/cancel-sharp", n=(4, 6), p=2, r=(1, 2))
    rec.check("mapspace/reject", square=coefficient_squaring_map(), late=late_failing_map())


SUITES = {
    "grassmann": suite_grassmann,
    "superfun": suite_superfun,
    "morphism": suite_morphism,
    "jetcalc": suite_jetcalc,
    "geometry": suite_geometry,
    "mapspace": suite_mapspace,
}


def process_count(suites: int) -> int:
    """How many processes run that many suites: one per usable CPU, at most one
    per suite, and one where the platform cannot fork, a profiler or tracer is
    set, or another thread runs (a fork copies no thread, but may copy a lock
    that one holds)."""
    if (suites < 2 or not hasattr(os, "fork") or sys.getprofile() or sys.gettrace()
            or threading.active_count() > 1):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, suites)


def _run_share(rec: Recorder, share: list, seed: int, cases: int) -> None:
    for suite in share:
        try:
            SUITES[suite](rec, seed, cases)
        except Exception as exc:
            rec.rows.append((f"{suite}/draw", False, {"error": _error(exc)}))


def _fork_worker(share: list, seed: int, cases: int):
    """(pid, read end) of a forked worker that runs share into its own Recorder,
    writes the marshalled rows to the pipe and leaves through os._exit: exit
    status 0 only once every row is written."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            rec = Recorder("all", seed)
            _run_share(rec, share, seed, cases)
            data = memoryview(marshal.dumps(rec.rows))
            while data:
                data = data[os.write(write_fd, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _worker_rows(data: bytes, status: int, share: list) -> list:
    """The rows a worker sent; one failed draw row per suite of its share
    when it exited otherwise than with status 0 or its message is cut short."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        try:
            return marshal.loads(data)
        except (EOFError, ValueError):
            pass
    how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return [(f"{suite}/draw", False, {"error": f"worker {how}"}) for suite in share]


def run_suite(name: str, seed: int = 0, cases: int = 100) -> dict:
    """Run a named suite, or every suite for 'all', into one report dict; a
    suite whose drawing raises ends in one failed row `<suite>/draw`.

    For 'all' the suites are dealt round-robin over `process_count` processes:
    this one runs the last share and forked workers the others, and their
    rows join this Recorder's, so the report is the one-process report byte
    for byte.  A worker that exits with a status other than 0, or is killed,
    gives one failed draw row per suite of its share, with the error "worker
    exited with status N" or "worker killed by signal N".  If anything
    raises here, KeyboardInterrupt included, every worker is killed and reaped
    before it propagates."""
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    names = list(SUITES) if name == "all" else [name]
    procs = process_count(len(names))
    shares = [names[i::procs] for i in range(procs)]
    rec = Recorder(name, seed)
    workers = []
    try:
        for share in shares[:-1]:
            workers.append((*_fork_worker(share, seed, cases), share))
        _run_share(rec, shares[-1], seed, cases)
        while workers:
            pid, pipe, share = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            rec.rows.extend(_worker_rows(data, status, share))
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass        # reaped just before the interruption
    return rec.report()

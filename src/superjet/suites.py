"""Seeded property suites behind the verify command.

Every suite draws its case corpus from a splitmix64 stream, so (seed, cases)
names the same corpus on every run and every machine.  Reports are plain
dicts::

    {"suite", "algorithm", "seed", "cases", "passed", "failed", "failures"}

with failures sorted by case id and carrying replayable witnesses (the JSON
of the inputs that broke the law).  Wall time deliberately never enters the
report body -- the CLI prints it to stderr -- so reports stay byte-comparable
across runs.

The random object generators at the top are shared with the test suite.
"""

from __future__ import annotations

import math

from .geometry import (
    BundlePoint,
    BundleTangent,
    _dot,
    bundle_exp,
    local_detrivialize,
    local_trivialize,
    make_backend,
)
from .grassmann import GrassmannElement, GrassmannHom, hom_apply, hom_compose
from .jetcalc import faa_di_bruno, taylor_of, trunc_compose, trunc_mul
from .mapspace import (
    LambdaPointMap,
    MappingPoint,
    SuperChart,
    chart_transition_map,
    lambda_point_map_of,
    sc_functor_action,
    sc_pair_to_point,
    sc_point_to_pair,
    supersmooth_check,
    top_order_cancellation,
)
from .morphism import (
    SuperMorphism,
    default_probes,
    eta_decompose,
    morphism_compose,
    order_bound_check,
    pushforward,
)
from .polyalg import (
    Polynomial,
    iter_multiindices_upto,
    lattice_points,
    mi_factorial,
    poly_compose,
    poly_derive,
)
from .rng import ALGORITHM, SplitMix64
from .superfun import SuperFunction, SuperPoint, sf_eval, sf_eval_naive, sf_substitute


# ---------------------------------------------------------------------------
# random object generators


def random_polynomial(rng: SplitMix64, p: int, degree: int = 3, terms: int = 3) -> Polynomial:
    out = Polynomial.zero(p)
    for _ in range(terms):
        exp = [0] * p
        for _ in range(rng.randint(0, degree)):
            if p:
                exp[rng.randint(0, p - 1)] += 1
        c = rng.fraction()
        if c:
            out = out + Polynomial(p, {tuple(exp): c})
    return out


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
    out = GrassmannElement.zero(n)
    for _ in range(terms):
        mask = rng.randint(0, (1 << n) - 1)
        if parity is not None and mask.bit_count() % 2 != parity:
            continue
        c = rng.fraction()
        if c:
            out = out + GrassmannElement.monomial(n, mask, c)
    return out


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


def _shear_pair(rng: SplitMix64, p: int, q: int, degree: int = 2):
    """One elementary triangular shear of R^{p|q} and its exact inverse."""
    ident = SuperMorphism.identity(p, q)
    fwd_even, fwd_odd = list(ident.even_pb), list(ident.odd_pb)
    inv_even, inv_odd = list(ident.even_pb), list(ident.odd_pb)
    kind = rng.randint(0, 2)
    c = rng.nonzero_fraction()
    if kind == 0:
        # even shear: y_j += c * g with g free of y_j (so subtracting undoes it)
        j = rng.randint(0, p - 1)
        exp = [0] * p
        for _ in range(rng.randint(0, degree)):
            if p > 1:
                l = rng.randint(0, p - 2)
                exp[l if l < j else l + 1] += 1
        masks = [m for m in range(1 << q) if not (m.bit_count() & 1)]
        g = SuperFunction(p, q, {rng.choice(masks): Polynomial.monomial(p, tuple(exp), c)})
        fwd_even[j] = fwd_even[j] + g
        inv_even[j] = inv_even[j] - g
    elif kind == 1 and q >= 2:
        # odd shear: theta_b += poly(y) * theta_a, a != b
        b = rng.randint(0, q - 1)
        a = rng.randint(0, q - 2)
        a = a if a < b else a + 1
        g = SuperFunction(p, q, {1 << a: random_polynomial(rng, p, degree, terms=1)})
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


def random_shear_chart(rng: SplitMix64, p: int, q: int, layers: int = 2,
                       degree: int = 2) -> SuperChart:
    """Invertible chart built by composing elementary shears.

    to_model is s_k o ... o s_1 and from_model the reversed inverses, so the
    pair is mutually inverse by construction -- no solving involved.
    """
    to_model = SuperMorphism.identity(p, q)
    from_model = SuperMorphism.identity(p, q)
    for _ in range(layers):
        shear, unshear = _shear_pair(rng, p, q, degree)
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
    skeleton = LambdaPointMap(n, (1, 0), (1, 0), [{}], [])
    top = skeleton.var_index[("even", 0, 3)]
    body = skeleton.var_index[("even", 0, 0)]
    evens = [{0: Polynomial.variable(skeleton.nvars, body),
              3: Polynomial.variable(skeleton.nvars, top) ** 2}]
    return LambdaPointMap(n, (1, 0), (1, 0), evens, [])


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


def fd_derivative(fn, x0, I, h0: float = 0.12, levels: int = 4) -> float:
    """D_I fn at x0 by nested central differences plus Richardson.

    Each axis application uses nodes x +- h (spacing 2h, error O(h^2));
    extrapolating over h0, h0/2, h0/4, h0/8 cancels the h^2, h^4, h^6 terms
    and leaves ~1e-8 relative error on the orders <= 4 used here.
    """
    axes = [i for i, e in enumerate(I) for _ in range(e)]

    def nested(x, rest, h):
        if not rest:
            return fn(x)
        xp = list(x)
        xp[rest[0]] += h
        xm = list(x)
        xm[rest[0]] -= h
        return (nested(xp, rest[1:], h) - nested(xm, rest[1:], h)) / (2.0 * h)

    vals = [nested(list(x0), axes, h0 / 2 ** j) for j in range(levels)]
    factor = 4.0
    while len(vals) > 1:
        vals = [(factor * b - a) / (factor - 1.0) for a, b in zip(vals, vals[1:])]
        factor *= 4.0
    return vals[0]


def jet_fd_defect(jet, component_fns, max_order: int = 4) -> float:
    """Worst deviation of jet coefficients from finite differences.

    Compares the Taylor-normalized coefficient c_I = D_I f / I! of each
    component against the Richardson estimate, relative to max(1, |c_I|).
    """
    worst = 0.0
    for I in iter_multiindices_upto(jet.m, min(jet.k, max_order)):
        if sum(I) == 0:
            continue
        fact = mi_factorial(I)
        vals = jet.coefficient(I)
        for j, fn in enumerate(component_fns):
            fd = fd_derivative(fn, jet.base_point, I) / fact
            worst = max(worst, abs(fd - vals[j]) / max(1.0, abs(vals[j])))
    return worst


# ---------------------------------------------------------------------------
# report plumbing


class Recorder:
    """Accumulates (case id, verdict, witness) rows into a report dict."""

    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.rows = []

    def check(self, case_id: str, ok, witness=None) -> bool:
        ok = bool(ok)
        if not ok and callable(witness):
            witness = witness()
        self.rows.append((case_id, ok, None if ok else witness))
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
# suites


def suite_grassmann(seed: int = 0, cases: int = 100) -> dict:
    """Algebra laws, the body/soul split, JSON round-trips, homomorphisms."""
    rng = SplitMix64(seed)
    rec = Recorder("grassmann", seed)
    for i in range(cases):
        n = rng.randint(2, 6)
        a = random_grassmann(rng, n)
        b = random_grassmann(rng, n)
        c = random_grassmann(rng, n)
        rec.check(
            f"grassmann/assoc-{i:04d}",
            (a * b) * c == a * (b * c),
            lambda: {"a": a.to_json(), "b": b.to_json(), "c": c.to_json()},
        )

        ma = rng.randint(0, (1 << n) - 1)
        mb = rng.randint(0, (1 << n) - 1)
        x = GrassmannElement.monomial(n, ma, rng.nonzero_fraction())
        y = GrassmannElement.monomial(n, mb, rng.nonzero_fraction())
        sign = -1 if (ma.bit_count() & 1) and (mb.bit_count() & 1) else 1
        rec.check(
            f"grassmann/sign-{i:04d}",
            x * y == (y * x).scale(sign),
            lambda: {"x": x.to_json(), "y": y.to_json()},
        )

        body, even_nil, odd = a.split()
        ok = (
            a == GrassmannElement.scalar(n, body) + even_nil + odd
            and even_nil.is_even()
            and not even_nil.body()
            and odd.is_odd()
            and (even_nil + odd) ** (n + 1) == GrassmannElement.zero(n)
        )
        rec.check(f"grassmann/split-{i:04d}", ok, lambda: {"a": a.to_json()})

        rec.check(
            f"grassmann/json-{i:04d}",
            GrassmannElement.from_json(a.to_json()) == a,
            lambda: {"a": a.to_json()},
        )

        m = rng.randint(0, 5)
        rho = random_hom(rng, n, m)
        ok = (
            hom_apply(rho, a * b) == hom_apply(rho, a) * hom_apply(rho, b)
            and hom_apply(rho, GrassmannElement.one(n)) == GrassmannElement.one(m)
        )
        rec.check(
            f"grassmann/hom-{i:04d}",
            ok,
            lambda: {"rho": rho.to_json(), "a": a.to_json(), "b": b.to_json()},
        )
    return rec.report()


def suite_superfun(seed: int = 0, cases: int = 100) -> dict:
    """Evaluation is a unital algebra map and matches the expansion oracle."""
    rng = SplitMix64(seed)
    rec = Recorder("superfun", seed)
    for i in range(cases):
        p = rng.randint(1, 3)
        q = rng.randint(0, 3)
        n = rng.randint(2, 6)
        sigma = random_superfunction(rng, p, q, degree=4)
        tau = random_superfunction(rng, p, q, degree=4)
        nu = random_superpoint(rng, n, p, q)

        def witness():
            return {"sigma": sigma.to_json(), "tau": tau.to_json(), "nu": nu.to_json()}

        rec.check(f"superfun/oracle-{i:04d}",
                  sf_eval(sigma, nu) == sf_eval_naive(sigma, nu), witness)
        rec.check(f"superfun/mult-{i:04d}",
                  sf_eval(sigma * tau, nu) == sf_eval(sigma, nu) * sf_eval(tau, nu),
                  witness)
        rec.check(f"superfun/unit-{i:04d}",
                  sf_eval(SuperFunction.one(p, q), nu) == GrassmannElement.one(n),
                  witness)
    return rec.report()


def _apply_hom_point(rho: GrassmannHom, nu: SuperPoint) -> SuperPoint:
    return SuperPoint(
        rho.target,
        [hom_apply(rho, c) for c in nu.even],
        [hom_apply(rho, c) for c in nu.odd],
    )


def _eta_embed(value: SuperFunction, n_eta: int, eta_mask: int, q_total: int) -> SuperFunction:
    comps = {(m << n_eta) | eta_mask: poly for m, poly in value.components.items()}
    return SuperFunction(value.p, q_total, comps)


def suite_morphism(seed: int = 0, cases: int = 100) -> dict:
    """Functoriality of pushforward, naturality, and coefficient order bounds."""
    rng = SplitMix64(seed)
    rec = Recorder("morphism", seed)

    for i in range(cases):
        p, q = rng.randint(1, 3), rng.randint(0, 2)
        r, s = rng.randint(1, 3), rng.randint(0, 2)
        t, u = rng.randint(1, 2), rng.randint(0, 2)
        n = rng.randint(2, 4)
        phi = random_morphism(rng, (p, q), (r, s), degree=3)
        psi = random_morphism(rng, (r, s), (t, u), degree=2)
        mu = random_superpoint(rng, n, p, q)

        def witness():
            return {"phi": phi.to_json(), "psi": psi.to_json(), "mu": mu.to_json()}

        lhs = pushforward(morphism_compose(psi, phi), mu)
        rhs = pushforward(psi, pushforward(phi, mu))
        rec.check(f"morphism/compose-{i:04d}", lhs == rhs, witness)

        if i < max(1, cases // 2):
            m = rng.randint(0, 4)
            rho = random_hom(rng, n, m)
            lhs = pushforward(phi, _apply_hom_point(rho, mu))
            rhs = _apply_hom_point(rho, pushforward(phi, mu))
            rec.check(
                f"morphism/natural-{i:04d}",
                lhs == rhs,
                lambda: {"phi": phi.to_json(), "mu": mu.to_json(), "rho": rho.to_json()},
            )

    # order bounds for the coefficient operators, in both gradings
    for i in range(cases):
        p = rng.randint(1, 2)
        q = rng.randint(2, 3)
        r, s = rng.randint(1, 2), rng.randint(0, 2)
        phi = random_morphism(rng, (p, q), (r, s), degree=2)
        probes = default_probes(r, s, 2)

        n_eta = rng.randint(1, q - 1)       # proper leading block: eta grading
        dec = eta_decompose(phi, n_eta, probes)
        bad = None
        for coef in dec:
            verdict = order_bound_check(coef, coef.order_bound(), seed=seed + i)
            if not verdict.passed:
                bad = verdict
                break
        rec.check(
            f"morphism/etaorder-{i:04d}",
            bad is None,
            lambda: {"phi": phi.to_json(), "n_eta": n_eta, "verdict": bad.to_json()},
        )

        # sampled reconstruction: the coefficients reassemble the pullback
        g = rng.choice(probes)
        total = SuperFunction.zero(p, q)
        for coef in dec:
            value = coef.apply(g)
            total = total + _eta_embed(value, n_eta, coef.mask, q)
        rec.check(
            f"morphism/decomp-{i:04d}",
            total == sf_substitute(g, phi),
            lambda: {"phi": phi.to_json(), "g": g.to_json(), "n_eta": n_eta},
        )

        dec = eta_decompose(phi, q, probes)  # whole odd sector: theta grading
        bad = None
        for coef in dec:
            verdict = order_bound_check(coef, coef.order_bound() // 2, seed=seed + i)
            if not verdict.passed:
                bad = verdict
                break
        rec.check(
            f"morphism/thetaorder-{i:04d}",
            bad is None,
            lambda: {"phi": phi.to_json(), "n_eta": q, "verdict": bad.to_json()},
        )

    # sharpness: y -> y + theta1 theta2 has a genuine first-order coefficient,
    # so the bound k must fail one step below the certified order
    phi = SuperMorphism(
        (1, 2), (1, 2),
        [SuperFunction(1, 2, {0: Polynomial.variable(1, 0), 3: Polynomial.one(1)})],
        [SuperFunction.theta(1, 2, 0), SuperFunction.theta(1, 2, 1)],
    )
    probes = default_probes(1, 2, 4)
    # the order-0 search cycles through 12 probes and 5 body points; the counts
    # are coprime, so this many trials try every probe at every point (it stops
    # at the first witness)
    every_pair = len(default_probes(1, 2, 2)) * len(lattice_points(1, radius=1, den=2))
    for label, n_eta, index in (("sharp-eta", 1, (1,)), ("sharp-theta", 2, (1, 1))):
        coef = next(c for c in eta_decompose(phi, n_eta, probes) if c.index == index)
        at_one = order_bound_check(coef, 1, seed=seed)
        at_zero = order_bound_check(coef, 0, trials=every_pair, seed=seed)
        rec.check(
            f"morphism/{label}",
            at_one.passed and not at_zero.passed,
            lambda: {"phi": phi.to_json(), "n_eta": n_eta,
                     "k1": at_one.to_json(), "k0": at_zero.to_json()},
        )
    return rec.report()


def suite_jetcalc(seed: int = 0, cases: int = 100) -> dict:
    """Truncated composition, identity jets, products, and Faa di Bruno."""
    rng = SplitMix64(seed)
    rec = Recorder("jetcalc", seed)
    for i in range(cases):
        dx, dy, dz = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(1, 3)
        x0 = [rng.fraction() for _ in range(dx)]
        phi = [random_polynomial(rng, dx, degree=3) for _ in range(dy)]
        psi = [random_polynomial(rng, dy, degree=3) for _ in range(dz)]

        inner = taylor_of(phi, x0, k)
        outer = taylor_of(psi, inner.base_value, k)
        composed = trunc_compose(outer, inner, k)
        oracle = taylor_of([poly_compose(g, phi, degree_bound=None) for g in psi], x0, k)
        rec.check(
            f"jetcalc/compose-{i:04d}",
            composed == oracle,
            lambda: {"phi": [f.to_json() for f in phi], "psi": [g.to_json() for g in psi],
                     "x0": [str(v) for v in x0], "k": k},
        )

        ident_src = taylor_of([Polynomial.variable(dx, j) for j in range(dx)], x0, k)
        ident_tgt = taylor_of([Polynomial.variable(dy, j) for j in range(dy)],
                              inner.base_value, k)
        ok = (trunc_compose(inner, ident_src, k) == inner
              and trunc_compose(ident_tgt, inner, k) == inner)
        rec.check(
            f"jetcalc/ident-{i:04d}",
            ok,
            lambda: {"phi": [f.to_json() for f in phi], "x0": [str(v) for v in x0], "k": k},
        )

        f = random_polynomial(rng, dx, degree=3)
        g = random_polynomial(rng, dx, degree=3)
        prod = trunc_mul(taylor_of([f], x0, k), taylor_of([g], x0, k), k)
        rec.check(
            f"jetcalc/mul-{i:04d}",
            prod == taylor_of([f * g], x0, k),
            lambda: {"f": f.to_json(), "g": g.to_json(), "x0": [str(v) for v in x0], "k": k},
        )

        m = rng.randint(1, 6)
        derivs = faa_di_bruno(psi, phi, x0, m)
        composed_polys = [poly_compose(g, phi, degree_bound=None) for g in psi]
        ok = True
        for K, vals in derivs.items():
            want = tuple(poly_derive(cp, K).eval_scalar(x0) for cp in composed_polys)
            if vals != want:
                ok = False
                break
        rec.check(
            f"jetcalc/faa-{i:04d}",
            ok,
            lambda: {"phi": [f.to_json() for f in phi], "psi": [g.to_json() for g in psi],
                     "x0": [str(v) for v in x0], "m": m},
        )
    return rec.report()


def suite_geometry(seed: int = 0, cases: int = 100, geometry: str = "sphere2") -> dict:
    """Roundtrips, transport isometry, jet-vs-difference checks, supercharts."""
    rng = SplitMix64(seed)
    rec = Recorder("geometry", seed)
    backend = make_backend(geometry)
    tol = backend.tol
    flat = backend.kind == "flat"

    for i in range(cases):
        if flat:
            x = tuple(_ufloat(rng, -2.0, 2.0) for _ in range(backend.m))
            v = tuple(_ufloat(rng, -2.0, 2.0) for _ in range(backend.m))
            w1 = tuple(_ufloat(rng, -2.0, 2.0) for _ in range(backend.m))
            w2 = tuple(_ufloat(rng, -2.0, 2.0) for _ in range(backend.m))
        else:
            x = random_sphere_point(rng)
            v = random_tangent(rng, x)
            w1 = random_tangent(rng, x)
            w2 = random_tangent(rng, x)
        y = backend.geo_exp(x, v)
        back = backend.geo_log(x, y)
        err = max(abs(a - b) for a, b in zip(v, back))
        dist_err = abs(backend.geo_dist(x, y) - math.sqrt(_dot(v, v)))
        rec.check(
            f"geometry/roundtrip-{i:04d}",
            err <= tol and dist_err <= tol,
            lambda: {"x": list(x), "v": list(v), "log_exp_v": list(back),
                     "max_err": err, "dist_err": dist_err},
        )

        p1 = backend.geo_pt(x, y, w1)
        p2 = backend.geo_pt(x, y, w2)
        errs = [abs(_dot(p1, p2) - _dot(w1, w2))]
        if not flat:
            errs.append(abs(_dot(p1, y)))
        rec.check(
            f"geometry/isometry-{i:04d}",
            max(errs) <= tol,
            lambda: {"x": list(x), "y": list(y), "w1": list(w1), "w2": list(w2),
                     "errs": errs},
        )

    for i in range(min(cases, 4)):
        if flat:
            x = tuple(_ufloat(rng, -2.0, 2.0) for _ in range(backend.m))
            y0 = tuple(_ufloat(rng, -2.0, 2.0) for _ in range(backend.m))
            jet = backend.log_jet(x, y0, 4)
            defect = jet_fd_defect(
                jet, [lambda yy, j=j: backend.geo_log(x, yy)[j] for j in range(backend.m)]
            )
        else:
            x = random_sphere_point(rng)
            v = random_tangent(rng, x, lo=0.2, hi=0.9)
            y0 = backend.exp_closed(x, v)
            jet = backend.log_jet(x, y0, 4)
            defect = jet_fd_defect(
                jet, [lambda yy, j=j: backend.log_closed(x, yy)[j] for j in range(3)]
            )
        rec.check(
            f"geometry/fd-{i:04d}",
            defect <= 1e-6,
            lambda: {"x": list(x), "y0": list(y0), "defect": defect},
        )

    rank = 1
    chart_backend = make_backend(geometry, bundle_rank=rank)
    d = chart_backend.m * (1 + rank)
    for i in range(min(cases, 6)):
        n, q = 3, 1
        if flat:
            base = [_ufloat(rng, -2.0, 2.0) for _ in range(chart_backend.m)]
            f_x = tuple(base)
            vecs = {}
            for mask in range(1 << n):
                if mask.bit_count() % 2 == 0:
                    vecs[mask] = [_ufloat(rng, -1.0, 1.0) for _ in range(d)]
        else:
            f_x = random_sphere_point(rng)
            vecs = {0: list(random_tangent(rng, f_x)) + list(random_tangent(rng, f_x))}
            for mask in range(1 << n):
                if mask and mask.bit_count() % 2 == 0:
                    raw = [_ufloat(rng, -1.0, 1.0) for _ in range(d)]
                    fixed = []
                    for blk in range(1 + rank):
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
        mu = chart_backend.superchart_pointwise_inv(f_x, xi)
        back = chart_backend.superchart_pointwise(f_x, mu)
        err = 0.0
        for a, b in zip(back.even + back.odd, xi.even + xi.odd):
            for mask in set(a.terms) | set(b.terms):
                err = max(err, abs(float(a.terms.get(mask, 0)) - float(b.terms.get(mask, 0))))
        unit_err = 0.0
        if not flat:
            norm = mu.even[0] * mu.even[0] + mu.even[1] * mu.even[1] + mu.even[2] * mu.even[2]
            delta = norm - GrassmannElement.one(n)
            unit_err = max((abs(float(c)) for c in delta.terms.values()), default=0.0)
        rec.check(
            f"geometry/chart-{i:04d}",
            err <= tol and unit_err <= tol,
            lambda: {"f_x": list(f_x), "xi": xi.to_json(), "roundtrip_err": err,
                     "unit_defect": unit_err},
        )

    for i in range(min(cases, 6)):
        if flat:
            a = BundlePoint(tuple(_ufloat(rng, -2.0, 2.0) for _ in range(backend.m)),
                            (tuple(_ufloat(rng, -1.0, 1.0) for _ in range(backend.m)),))
            xi = BundleTangent(tuple(_ufloat(rng, -1.0, 1.0) for _ in range(backend.m)),
                               (tuple(_ufloat(rng, -1.0, 1.0) for _ in range(backend.m)),))
        else:
            x = random_sphere_point(rng)
            a = BundlePoint(x, (random_tangent(rng, x),))
            xi = BundleTangent(random_tangent(rng, x), (random_tangent(rng, x),))
        moved = bundle_exp(backend, a, xi)
        fibre_norm_err = abs(
            math.sqrt(_dot(moved.fibre[0], moved.fibre[0]))
            - math.sqrt(_dot(tuple(f + dv for f, dv in zip(a.fibre[0], xi.vertical[0])),
                             tuple(f + dv for f, dv in zip(a.fibre[0], xi.vertical[0]))))
        )
        samples = [a.base, moved.base]
        sections = [a, moved]
        pairs = local_trivialize(backend, samples, sections)
        rebuilt = local_detrivialize(backend, samples, pairs)
        rt_err = 0.0
        for orig, got in zip(sections, rebuilt):
            rt_err = max(rt_err, max(abs(p - qq) for p, qq in zip(orig.base, got.base)))
            for wf, gf in zip(orig.fibre, got.fibre):
                rt_err = max(rt_err, max(abs(p - qq) for p, qq in zip(wf, gf)))
        rec.check(
            f"geometry/bundle-{i:04d}",
            fibre_norm_err <= tol and rt_err <= tol,
            lambda: {"a": a.to_json(), "xi": xi.to_json(),
                     "fibre_norm_err": fibre_norm_err, "roundtrip_err": rt_err},
        )
    return rec.report()


def suite_mapspace(seed: int = 0, cases: int = 100) -> dict:
    """Pair roundtrips, functor laws, supersmooth transitions, cancellation."""
    rng = SplitMix64(seed)
    rec = Recorder("mapspace", seed)

    for i in range(cases):
        p = rng.randint(1, 2)
        q = rng.randint(1, 3)
        n = rng.randint(0, q)
        point = MappingPoint(n, random_morphism(rng, (p, q), (rng.randint(1, 2), rng.randint(0, 2))))
        body, ev, od = sc_point_to_pair(point)
        try:
            back = sc_pair_to_point(n, body, ev, od)
            ok = back == point
        except Exception:
            ok = not od and not ev
        rec.check(f"mapspace/pair-{i:04d}", ok, lambda: point.to_json())

    for i in range(max(1, cases // 2)):
        p, q = rng.randint(1, 2), rng.randint(0, 1)
        a = rng.randint(1, 3)
        b = rng.randint(0, 3)
        c = rng.randint(0, 2)
        point = MappingPoint(a, random_morphism(rng, (p, a + q), (rng.randint(1, 2), rng.randint(0, 1)), degree=2))
        rec.check(
            f"mapspace/functident-{i:04d}",
            sc_functor_action(GrassmannHom.identity(a), point) == point,
            lambda: point.to_json(),
        )
        rho = random_hom(rng, a, b)
        sigma = random_hom(rng, b, c)
        lhs = sc_functor_action(hom_compose(sigma, rho), point)
        rhs = sc_functor_action(sigma, sc_functor_action(rho, point))
        rec.check(
            f"mapspace/functcomp-{i:04d}",
            lhs == rhs,
            lambda: {"point": point.to_json(), "rho": rho.to_json(), "sigma": sigma.to_json()},
        )

    for i in range(min(cases, 8)):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        n = rng.randint(2, 4)
        c1 = random_shear_chart(rng, p, q, layers=2)
        c2 = random_shear_chart(rng, p, q, layers=2)
        ident = SuperMorphism.identity(p, q)
        rec.check(
            f"mapspace/shearinv-{i:04d}",
            morphism_compose(c1.to_model, c1.from_model) == ident
            and morphism_compose(c1.from_model, c1.to_model) == ident,
            lambda: {"to_model": c1.to_model.to_json(), "from_model": c1.from_model.to_json()},
        )
        F = chart_transition_map(c1, c2, n)
        verdict = supersmooth_check(F)
        rec.check(
            f"mapspace/transition-{i:04d}",
            verdict.passed,
            lambda: {"n": n, "chart1": c1.to_model.to_json(), "chart2": c2.to_model.to_json(),
                     "verdict": verdict.to_json()},
        )

    # one transition each at the two highest levels the criteria ask for
    for n in (5, 6):
        hi_rng = SplitMix64(seed ^ n)
        c1 = random_shear_chart(hi_rng, 1, 1, layers=1)
        c2 = random_shear_chart(hi_rng, 1, 1, layers=1)
        F = chart_transition_map(c1, c2, n)
        verdict = supersmooth_check(F)
        rec.check(
            f"mapspace/transition-hi{n}",
            verdict.passed,
            lambda: {"n": n, "verdict": verdict.to_json()},
        )

    for i in range(min(cases, 8)):
        p, q = rng.randint(1, 2), rng.randint(0, 1)
        n = rng.randint(2, 3)
        m = rng.randint(0, 3)
        phi = random_morphism(rng, (p, q), (rng.randint(1, 2), rng.randint(0, 1)), degree=2)
        F_n = lambda_point_map_of(phi, n)
        F_m = lambda_point_map_of(phi, m)
        rho = random_hom(rng, n, m)
        nu = random_superpoint(rng, n, p, q)
        lhs = F_m.apply(_apply_hom_point(rho, nu))
        rhs = _apply_hom_point(rho, F_n.apply(nu))
        rec.check(
            f"mapspace/natural-{i:04d}",
            lhs.even == rhs.even and lhs.odd == rhs.odd,
            lambda: {"phi": phi.to_json(), "rho": rho.to_json(), "nu": nu.to_json()},
        )

    # the cancellation that makes transitions well defined: lambda kappa_2^J
    # dies identically at |J| = r, even where kappa_2^J itself survives
    for n in range(2, 7):
        rec.check(f"mapspace/cancel-{n}", top_order_cancellation(n, 2, n // 2))
    rec.check(
        "mapspace/cancel-sharp",
        not top_order_cancellation(4, 2, 1) and not top_order_cancellation(6, 2, 2),
    )

    verdict = supersmooth_check(coefficient_squaring_map())
    rec.check(
        "mapspace/reject",
        not verdict.passed and verdict.witness is not None,
        lambda: verdict.to_json(),
    )
    return rec.report()


SUITES = {
    "grassmann": suite_grassmann,
    "superfun": suite_superfun,
    "morphism": suite_morphism,
    "jetcalc": suite_jetcalc,
    "geometry": suite_geometry,
    "mapspace": suite_mapspace,
}


def run_suite(name: str, seed: int = 0, cases: int = 100,
              geometry: str = "sphere2") -> dict:
    """Dispatch a named suite (or 'all') and return its report dict."""
    if name == "all":
        reports = [run_suite(s, seed, cases, geometry) for s in SUITES]
        failures = sorted((f for r in reports for f in r["failures"]),
                          key=lambda f: f["id"])
        return {
            "suite": "all",
            "algorithm": ALGORITHM,
            "seed": seed,
            "cases": sum(r["cases"] for r in reports),
            "passed": sum(r["passed"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "failures": failures,
        }
    if name not in SUITES:
        raise KeyError(name)
    fn = SUITES[name]
    if name == "geometry":
        return fn(seed, cases, geometry)
    return fn(seed, cases)

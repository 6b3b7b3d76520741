"""Seeded request corpora for the three benchmark workloads.

Inputs are drawn with ``random.Random(seed)`` and emitted in superjet's CLI
wire format (plain JSON-ready dicts), so nothing the program does can change
a corpus: the same seed gives the same bytes on every commit.

Request kinds are dealt in shuffled blocks that hold every kind once.  The mix
of cheap and expensive requests is then the same for every seed and every
prefix of the stream, which keeps latency percentiles steady across seeds;
the seed still picks every dimension, support and coefficient.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

# points: pushforwards at Lambda_n-points whose even souls have 4 (sparse) or
# 16 (dense) generator-pair terms, interleaved with sphere chart round trips.
# EVAL_SHAPES gives (p, q, r, s) of the morphism R^{p|q} -> R^{r|s} per soul
# density.  Dense souls get one even source coordinate: at p = 2 a dense
# n = 12 eval costs 130-470 ms and its oracle three times that, which would
# starve the loop of samples.
EVAL_SHAPES = {4: [(2, 1, 2, 1), (2, 2, 1, 2)], 16: [(1, 0, 2, 1), (1, 2, 1, 1)]}
EVAL_KINDS = [("eval", n, pairs, shape) for n in (8, 10, 12) for pairs in (4, 16)
              for shape in EVAL_SHAPES[pairs]]
CHART_KINDS = [("chart", n, rank, q) for n in (5, 6, 7) for rank in (0, 1) for q in (0, 2)]
POINTS_KINDS = EVAL_KINDS + CHART_KINDS
EVAL_DEGREE = 5

# lift: (p, q, level) of the shear charts' domain R^{p|q}; level 5 only on
# R^{1|1}.  Every kind has the same weight.
LIFT_KINDS = [(p, q, level) for level in (3, 4) for p in (1, 2) for q in (1, 2)] + [(1, 1, 5)]
# each chart: an even shear, then an odd shear where q >= 2 and a rescale otherwise
SHEARS = ("even", "odd")
SQUARING_EVERY = 8      # every so many lift requests must reject the squaring map


def _frac(rng: random.Random, max_num: int = 3, max_den: int = 3) -> Fraction:
    while True:
        c = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if c:
            return c


def _rational(c: Fraction) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def _subset(mask: int) -> list:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def grassmann_json(n: int, terms: dict) -> dict:
    """Wire form of a Grassmann element from {mask: Fraction | float}."""
    items = []
    for mask in sorted(terms):
        c = terms[mask]
        item = {"subset": _subset(mask)}
        item.update({"value": c} if isinstance(c, float) else _rational(c))
        items.append(item)
    return {"n": n, "terms": items}


def grassmann_terms(data: dict) -> dict:
    """Wire form of a Grassmann element as {sorted generator tuple: coefficient}."""
    return {tuple(sorted(item["subset"])):
            float(item["value"]) if "value" in item
            else Fraction(int(item["num"]), int(item["den"]))
            for item in data["terms"]}


def grassmann_product(a: dict, b: dict) -> dict:
    """Reference product of two ``grassmann_terms`` dicts, by the textbook rule.

    A monomial of A times one of B is zero when they share a generator;
    otherwise it is the sorted union, signed by the parity of the number of
    transpositions that sort the concatenation.  Zero coefficients are dropped.
    """
    out = {}
    b_items = [(sb, frozenset(sb), cb) for sb, cb in b.items()]
    for sa, ca in a.items():
        fa = frozenset(sa)
        for sb, fb, cb in b_items:
            if not fa.isdisjoint(fb):
                continue
            swaps = sum(1 for i in sa for j in sb if i > j)
            key = tuple(sorted(sa + sb))
            out[key] = out.get(key, 0) + (-ca * cb if swaps % 2 else ca * cb)
    return {k: c for k, c in out.items() if c}


def polynomial_json(p: int, terms: dict) -> dict:
    return {"p": p, "terms": [{"exp": list(e), **_rational(c)} for e, c in sorted(terms.items())]}


def superfunction_json(p: int, q: int, comps: dict) -> dict:
    return {
        "p": p,
        "q": q,
        "components": [
            {"J": [mask >> b & 1 for b in range(q)], "poly": polynomial_json(p, comps[mask])}
            for mask in sorted(comps)
        ],
    }


def morphism_json(source, target, even: list, odd: list) -> dict:
    (p, q), (r, s) = source, target
    return {
        "source": [p, q],
        "target": [r, s],
        "even": [superfunction_json(p, q, c) for c in even],
        "odd": [superfunction_json(p, q, c) for c in odd],
    }


def _random_poly(rng: random.Random, p: int, degree: int, terms: int) -> dict:
    out = {}
    for _ in range(terms):
        exp = [0] * p
        for _ in range(rng.randint(0, degree)):
            if p:
                exp[rng.randrange(p)] += 1
        out[tuple(exp)] = out.get(tuple(exp), 0) + _frac(rng)
    return {e: c for e, c in out.items() if c}


def _random_superfunction(rng: random.Random, p: int, q: int, degree: int, parity: int) -> dict:
    comps = {}
    for mask in range(1 << q):
        if mask.bit_count() % 2 != parity or (mask and rng.randrange(3) == 0):
            continue
        poly = _random_poly(rng, p, degree, terms=2)
        if poly:
            comps[mask] = poly
    return comps


def random_morphism(rng: random.Random, source, target, degree: int) -> dict:
    (p, q), (r, s) = source, target
    even = [_random_superfunction(rng, p, q, degree, 0) for _ in range(r)]
    odd = [_random_superfunction(rng, p, q, degree, 1) for _ in range(s)]
    return morphism_json(source, target, even, odd)


def _point_json(n: int, even: list, odd: list) -> dict:
    return {"n": n, "even": [grassmann_json(n, t) for t in even],
            "odd": [grassmann_json(n, t) for t in odd]}


def _random_point(rng: random.Random, n: int, p: int, q: int, pairs: int) -> dict:
    pair_masks = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(n), 2)]
    even = []
    for _ in range(p):
        terms = {0: _frac(rng)}
        for mask in rng.sample(pair_masks, pairs):
            terms[mask] = _frac(rng)
        even.append(terms)
    odd = [{1 << g: _frac(rng) for g in rng.sample(range(n), 3)} for _ in range(q)]
    return _point_json(n, even, odd)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _sphere_point(rng: random.Random) -> list:
    while True:
        v = [_uniform(rng, -1.0, 1.0) for _ in range(3)]
        r2 = sum(c * c for c in v)
        if 0.05 <= r2 <= 1.0:
            return [c / math.sqrt(r2) for c in v]


def _tangent(rng: random.Random, x, lo: float, hi: float) -> list:
    while True:
        w = [_uniform(rng, -1.0, 1.0) for _ in range(3)]
        d = sum(a * b for a, b in zip(w, x))
        w = [a - d * b for a, b in zip(w, x)]
        n2 = sum(c * c for c in w)
        if n2 >= 1e-2:
            s = _uniform(rng, lo, hi) / math.sqrt(n2)
            return [c * s for c in w]


def _chart_request(rng: random.Random, n: int, rank: int, q: int) -> dict:
    """Model-side point at a sphere base: tangent body, tangent nilpotent parts
    on half of the generator pairs."""
    base = _sphere_point(rng)
    vecs = {0: [c for _ in range(1 + rank) for c in _tangent(rng, base, 0.2, 1.0)]}
    pair_masks = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(n), 2)]
    for mask in rng.sample(pair_masks, len(pair_masks) // 2):
        vecs[mask] = [c for _ in range(1 + rank) for c in _tangent(rng, base, 0.1, 0.5)]
    d = 3 * (1 + rank)
    even = [{m: v[slot] for m, v in vecs.items() if v[slot]} for slot in range(d)]
    odd = [{1 << g: _frac(rng) for g in rng.sample(range(n), 2)} for _ in range(q)]
    return {"kind": "chart", "n": n, "bundle_rank": rank, "base": base,
            "point": _point_json(n, even, odd)}


def _eval_request(rng: random.Random, n: int, pairs: int, shape: tuple) -> dict:
    p, q, r, s = shape
    return {
        "kind": "eval",
        "n": n,
        "pairs": pairs,
        "morphism": random_morphism(rng, (p, q), (r, s), EVAL_DEGREE),
        "point": _random_point(rng, n, p, q, pairs),
    }


def _dealt(rng: random.Random, kinds: list):
    """Endless stream of kinds, every block a fresh shuffle of all of them."""
    while True:
        block = list(kinds)
        rng.shuffle(block)
        yield from block


def points_stream(seed: int):
    """Endless seeded stream of points requests (eval and chart)."""
    rng = random.Random(f"points/{seed}")
    for kind, n, *extra in _dealt(rng, POINTS_KINDS):
        yield _eval_request(rng, n, *extra) if kind == "eval" else _chart_request(rng, n, *extra)


def points_warmup() -> list:
    """One small eval and one small chart, the same for every seed."""
    rng = random.Random("points/warm-up")
    return [_eval_request(rng, 8, 4, EVAL_SHAPES[4][0]), _chart_request(rng, 5, 0, 0)]


def _shear_pair(rng: random.Random, p: int, q: int, kind: str, degree: int = 2):
    """One elementary triangular shear of R^{p|q} and its exact inverse."""
    ident_even = [{0: {tuple(int(i == j) for i in range(p)): Fraction(1)}} for j in range(p)]
    ident_odd = [{1 << b: {(0,) * p: Fraction(1)}} for b in range(q)]
    fwd_even, fwd_odd = list(ident_even), list(ident_odd)
    inv_even, inv_odd = list(ident_even), list(ident_odd)
    c = _frac(rng)

    def add(comps: dict, mask: int, poly: dict, sign: int) -> dict:
        out = {m: dict(v) for m, v in comps.items()}
        acc = out.setdefault(mask, {})
        for e, v in poly.items():
            acc[e] = acc.get(e, 0) + sign * v
            if not acc[e]:
                del acc[e]
        if not acc:
            del out[mask]
        return out

    if kind == "even":
        # even shear: y_j += c * g with g free of y_j and of even theta-degree
        j = rng.randrange(p)
        exp = [0] * p
        for _ in range(degree):
            if p > 1:
                l = rng.randrange(p - 1)
                exp[l if l < j else l + 1] += 1
        mask = rng.choice([m for m in range(1 << q) if m.bit_count() % 2 == 0])
        g = {tuple(exp): c}
        fwd_even[j] = add(fwd_even[j], mask, g, 1)
        inv_even[j] = add(inv_even[j], mask, g, -1)
    elif kind == "odd" and q >= 2:
        # odd shear: theta_b += poly(y) * theta_a with a != b
        b = rng.randrange(q)
        a = rng.randrange(q - 1)
        a = a if a < b else a + 1
        g = _random_poly(rng, p, degree, terms=1) or {(0,) * p: c}
        fwd_odd[b] = add(fwd_odd[b], 1 << a, g, 1)
        inv_odd[b] = add(inv_odd[b], 1 << a, g, -1)
    else:
        # rescale one coordinate by c and undo it by 1/c
        slots = [("odd", b) for b in range(q)] + [("even", j) for j in range(p)]
        side, idx = rng.choice(slots)
        fwd, inv = (fwd_odd, inv_odd) if side == "odd" else (fwd_even, inv_even)
        fwd[idx] = {m: {e: v * c for e, v in poly.items()} for m, poly in fwd[idx].items()}
        inv[idx] = {m: {e: v / c for e, v in poly.items()} for m, poly in inv[idx].items()}
    src = (p, q)
    return morphism_json(src, src, fwd_even, fwd_odd), morphism_json(src, src, inv_even, inv_odd)


def _random_hom(rng: random.Random, source: int, target: int) -> dict:
    """Algebra map Lambda_source -> Lambda_target with odd generator images."""
    odd_masks = [m for m in range(1, 1 << target) if m.bit_count() % 2]
    images = []
    for _ in range(source):
        chosen = rng.sample(odd_masks, min(2, len(odd_masks)))
        images.append(grassmann_json(target, {m: _frac(rng) for m in chosen}))
    return {"source": source, "target": target, "images": images}


def _lift_request(rng: random.Random, index: int, p: int, q: int, n: int) -> dict:
    charts = [[_shear_pair(rng, p, q, kind) for kind in SHEARS] for _ in range(2)]
    # naturality of Lambda-point maps and the functor law of sc_functor_action
    nat_p, nat_q = rng.randint(1, 2), rng.randint(0, 1)
    target = (rng.randint(1, 2), rng.randint(0, 1))
    level, m, c = rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2)
    odd = [{g: _frac(rng) for g in rng.sample([1 << i for i in range(level)], 2)}
           for _ in range(nat_q)]
    even = [{0: _frac(rng), 3: _frac(rng)} for _ in range(nat_p)]
    return {
        "kind": "lift",
        "source": [p, q],
        "n": n,
        "chart1": charts[0],
        "chart2": charts[1],
        "morphism": random_morphism(rng, (nat_p, nat_q), target, degree=2),
        "mapping_point": dict(random_morphism(rng, (nat_p, level + nat_q), target, degree=2),
                              n=level),
        "point": _point_json(level, even, odd),
        "rho": _random_hom(rng, level, m),
        "sigma": _random_hom(rng, m, c),
        "reject_squaring": index % SQUARING_EVERY == SQUARING_EVERY - 1,
    }


def lift_stream(seed: int):
    """Endless seeded stream of lift requests."""
    rng = random.Random(f"lift/{seed}")
    for i, (p, q, n) in enumerate(_dealt(rng, LIFT_KINDS)):
        yield _lift_request(rng, i, p, q, n)


def lift_warmup() -> list:
    """One small lift that also rejects the squaring map, the same for every seed."""
    return [_lift_request(random.Random("lift/warm-up"), SQUARING_EVERY - 1, 1, 1, 3)]


def encode(request: dict) -> str:
    """A request as the JSON text a CLI caller would send."""
    return json.dumps(request, sort_keys=True)

"""The three benchmark workloads: what one request does and how it is checked.

Each workload is a closed loop driven by ``run.py``: one caller, no threads,
the next request starts when the previous one has returned.  ``run`` is the
timed part of a request, from JSON text in to JSON text out, the path the
``superjet`` CLI takes minus interpreter start-up and file I/O.  ``check`` is
the untimed oracle or known-verdict check of the answer ``run`` returned.

Library names are looked up on the ``superjet`` package at call time, so the
traced run's wrappers are the ones called.
"""

from __future__ import annotations

import itertools
import json
import os

import corpus

VERIFY_CASES = 100


def _apply_hom(sj, rho, nu):
    return sj.SuperPoint(rho.target, [sj.hom_apply(rho, c) for c in nu.even],
                         [sj.hom_apply(rho, c) for c in nu.odd])


def _verify_request(suite: str, seed: str, cases: int) -> str:
    return corpus.encode({"suite": suite, "seed": seed, "cases": cases})


def _emit(tracer, data) -> str:
    with tracer.span("cli.emit"):
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


class Verify:
    """``superjet verify all --seed S --cases 100`` in-process, in a closed loop.

    S is the workload seed, and every request is this same call.  Each request
    after the first runs on a freshly imported superjet, as a new CLI process
    would, so nothing one call leaves in memory speeds up the next.  Every
    report must have ``failed == 0`` and the same bytes as the first; a traced
    run sends one request and replays it untraced.
    """

    name = "verify"
    fresh_import = True

    def __init__(self, sj, tracer, seed: int, workdir: str):
        self.sj = sj
        self.tracer = tracer
        self.seed = seed
        self.workdir = workdir
        self.reports = {}       # request text -> report bytes of its first run

    def requests(self, traced: bool = False):
        text = _verify_request("all", str(self.seed), VERIFY_CASES)
        return iter([text]) if traced else itertools.repeat(text)

    @staticmethod
    def warmup_requests() -> list:
        return [_verify_request("grassmann", "0", 20)]

    def run(self, text: str):
        req = json.loads(text)
        out = os.path.join(self.workdir, "report.json")
        code = self.sj.cli.main(["verify", req["suite"], "--seed", req["seed"],
                                 "--cases", str(req["cases"]), "--out", out])
        with open(out, "rb") as fh:
            report = fh.read()
        os.remove(out)
        return code, report

    def check(self, text: str, answer) -> bool:
        code, report = answer
        first = self.reports.setdefault(text, report)
        return code == 0 and json.loads(report)["failed"] == 0 and report == first


class Points:
    """Pushforward (``superjet eval``) and sphere chart (``superjet chart``) requests."""

    name = "points"
    fresh_import = False

    def __init__(self, sj, tracer, seed: int, workdir: str):
        self.sj = sj
        self.tracer = tracer
        self.seed = seed
        self.backends = {rank: sj.make_backend("sphere2", bundle_rank=rank) for rank in (0, 1)}

    def requests(self, traced: bool = False):
        return map(corpus.encode, corpus.points_stream(self.seed))

    @staticmethod
    def warmup_requests() -> list:
        return [corpus.encode(r) for r in corpus.points_warmup()]

    def _parse(self, text: str):
        sj = self.sj
        with self.tracer.span("cli.parse"):
            req = json.loads(text)
            point = sj.SuperPoint.from_json(req["point"])
            phi = sj.SuperMorphism.from_json(req["morphism"]) if req["kind"] == "eval" else None
        return req, point, phi

    def run(self, text: str) -> str:
        req, point, phi = self._parse(text)
        if req["kind"] == "eval":
            return _emit(self.tracer, self.sj.pushforward(phi, point).to_json())
        backend = self.backends[req["bundle_rank"]]
        image = backend.superchart_pointwise_inv(req["base"], point)
        back = backend.superchart_pointwise(req["base"], image)
        return _emit(self.tracer, {"image": image.to_json(), "roundtrip": back.to_json()})

    def _products_agree(self, coords: list, answer: list) -> bool:
        """The program's ``*`` agrees exactly with the reference product.

        Every pair among the request's point coordinates, and the sparsest of
        them times the first answer coordinate, as the program and as
        ``corpus.grassmann_product`` compute them.
        """
        sj = self.sj
        pairs = list(itertools.combinations_with_replacement(coords, 2))
        if answer:
            pairs.append((min(coords, key=lambda c: len(c["terms"])), answer[0]))
        for a, b in pairs:
            got = sj.GrassmannElement.from_json(a) * sj.GrassmannElement.from_json(b)
            want = corpus.grassmann_product(corpus.grassmann_terms(a),
                                            corpus.grassmann_terms(b))
            if corpus.grassmann_terms(got.to_json()) != want:
                return False
        return True

    def check(self, text: str, answer: str) -> bool:
        sj = self.sj
        req, point, phi = self._parse(text)
        out = json.loads(answer)
        wire = req["point"]["even"] + req["point"]["odd"]
        if req["kind"] == "eval":
            return (sj.SuperPoint.from_json(out) == sj.pushforward_general(phi, point)
                    and self._products_agree(wire, out["even"] + out["odd"]))
        backend = self.backends[req["bundle_rank"]]
        image = sj.SuperPoint.from_json(out["image"])
        back = sj.SuperPoint.from_json(out["roundtrip"])
        if (len(back.even), len(back.odd)) != (len(point.even), len(point.odd)):
            return False
        err = 0.0
        for a, b in zip(back.even + back.odd, point.even + point.odd):
            for mask in set(a.terms) | set(b.terms):
                err = max(err, abs(float(a.terms.get(mask, 0)) - float(b.terms.get(mask, 0))))
        # the unit-norm defect of the image, summed with the reference product
        norm = {}
        for c in out["image"]["even"][:3]:
            for key, v in corpus.grassmann_product(*[corpus.grassmann_terms(c)] * 2).items():
                norm[key] = norm.get(key, 0.0) + v
        norm[()] = norm.get((), 0.0) - 1.0
        unit_err = max((abs(v) for v in norm.values()), default=0.0)
        return (err <= backend.tol and unit_err <= backend.tol
                and self._products_agree(wire, []))


class Lift:
    """Shear-chart transitions certified by ``supersmooth_check``, plus
    Lambda-point naturality and the ``sc_functor_action`` functor law."""

    name = "lift"
    fresh_import = False

    def __init__(self, sj, tracer, seed: int, workdir: str):
        self.sj = sj
        self.tracer = tracer
        self.seed = seed

    def requests(self, traced: bool = False):
        return map(corpus.encode, corpus.lift_stream(self.seed))

    @staticmethod
    def warmup_requests() -> list:
        return [corpus.encode(r) for r in corpus.lift_warmup()]

    def _chart(self, p: int, q: int, layers):
        sj = self.sj
        to_model = from_model = sj.SuperMorphism.identity(p, q)
        for shear, unshear in layers:
            to_model = sj.morphism_compose(shear, to_model)
            from_model = sj.morphism_compose(from_model, unshear)
        return sj.SuperChart(to_model=to_model, from_model=from_model)

    def run(self, text: str) -> str:
        sj = self.sj
        with self.tracer.span("cli.parse"):
            req = json.loads(text)
            layers = [[[sj.SuperMorphism.from_json(m) for m in pair] for pair in req[key]]
                      for key in ("chart1", "chart2")]
            phi = sj.SuperMorphism.from_json(req["morphism"])
            point = sj.MappingPoint.from_json(req["mapping_point"])
            nu = sj.SuperPoint.from_json(req["point"])
            rho = sj.GrassmannHom.from_json(req["rho"])
            sigma = sj.GrassmannHom.from_json(req["sigma"])
        p, q = req["source"]
        c1, c2 = (self._chart(p, q, pairs) for pairs in layers)
        verdict = sj.supersmooth_check(sj.chart_transition_map(c1, c2, req["n"]))

        F_n = sj.lambda_point_map_of(phi, nu.n)
        F_m = sj.lambda_point_map_of(phi, rho.target)
        natural = [F_m.apply(_apply_hom(sj, rho, nu)), _apply_hom(sj, rho, F_n.apply(nu))]
        functor = [sj.sc_functor_action(sj.hom_compose(sigma, rho), point),
                   sj.sc_functor_action(sigma, sj.sc_functor_action(rho, point))]
        squaring = None
        if req["reject_squaring"]:
            squaring = sj.supersmooth_check(sj.suites.coefficient_squaring_map())
        return _emit(self.tracer, {
            "transition": verdict.to_json(),
            "natural": [pt.to_json() for pt in natural],
            "functor": [mp.to_json() for mp in functor],
            "squaring": None if squaring is None else squaring.to_json(),
        })

    def check(self, text: str, answer: str) -> bool:
        sj = self.sj
        req = json.loads(text)
        out = json.loads(answer)
        lhs, rhs = (sj.SuperPoint.from_json(d) for d in out["natural"])
        flhs, frhs = (sj.MappingPoint.from_json(d) for d in out["functor"])
        ok = out["transition"]["passed"] and lhs == rhs and flhs == frhs
        if req["reject_squaring"]:
            sq = out["squaring"]
            ok = ok and not sq["passed"] and "witness" in sq
        return bool(ok)


WORKLOADS = {cls.name: cls for cls in (Verify, Points, Lift)}

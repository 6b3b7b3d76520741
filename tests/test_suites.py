"""The verify plumbing: laws as functions of their inputs, and what they catch."""

import inspect
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

import superjet.morphism
import superjet.suites as suites
from superjet import (
    BundlePoint,
    BundleTangent,
    EtaCoefficient,
    GrassmannElement,
    GrassmannHom,
    MappingPoint,
    OrderVerdict,
    Polynomial,
    SmoothVerdict,
    SplitMix64,
    Sphere2Backend,
    SuperChart,
    SuperMorphism,
    SuperPoint,
    TruncatedPolyMap,
)
from superjet.cli import main
from superjet.suites import (
    LAWS,
    SUITES,
    Recorder,
    _wire,
    coefficient_squaring_map,
    random_grassmann,
    random_polynomial,
    run_suite,
)


def test_splitmix64_reproduces_the_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(2)] == [6457827717110365317, 3203168211198807973]


def polynomial_per_term(rng, p, degree=3, terms=3):
    """random_polynomial as first written: one sum per drawn term."""
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


def grassmann_per_term(rng, n, parity=None, terms=3):
    """random_grassmann as first written: one sum per drawn term."""
    out = GrassmannElement.zero(n)
    for _ in range(terms):
        mask = rng.randint(0, (1 << n) - 1)
        if parity is not None and mask.bit_count() % 2 != parity:
            continue
        c = rng.fraction()
        if c:
            out = out + GrassmannElement.monomial(n, mask, c)
    return out


def same_draw(draw, reference, seed, *args):
    """Both builders from one seed: equal terms, in one key order, of one type,
    leaving the stream in one state."""
    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
    got, want = draw(rng, *args), reference(ref_rng, *args)
    assert got == want
    assert [(k, type(c)) for k, c in got.terms.items()] == [
        (k, type(c)) for k, c in want.terms.items()]
    assert rng.state == ref_rng.state
    return len(got.terms)


@pytest.mark.parametrize("p, degree, terms", [(0, 3, 3), (1, 1, 8), (2, 3, 3), (3, 4, 5)])
def test_random_polynomial_is_the_per_term_sum(p, degree, terms):
    sizes = {same_draw(random_polynomial, polynomial_per_term, seed, p, degree, terms)
             for seed in range(200)}
    assert len(sizes) > 1


@pytest.mark.parametrize("n, parity, terms", [(0, None, 3), (1, None, 8), (3, 0, 3),
                                              (4, 1, 3), (6, None, 5)])
def test_random_grassmann_is_the_per_term_sum(n, parity, terms):
    sizes = {same_draw(random_grassmann, grassmann_per_term, seed, n, parity, terms)
             for seed in range(200)}
    assert len(sizes) > 1


def test_a_law_that_raises_is_a_failed_row_with_its_error(monkeypatch):
    def broken(a, b, c):
        raise ZeroDivisionError("no inverse")

    monkeypatch.setitem(LAWS, "grassmann/assoc", broken)
    rec = Recorder("grassmann", 0)
    assert rec.check("grassmann/assoc-0000", a=1, b=[2], c="x") is False
    (failure,) = rec.report()["failures"]
    assert failure == {"id": "grassmann/assoc-0000",
                       "witness": {"a": 1, "b": [2], "c": "x",
                                   "error": "ZeroDivisionError: no inverse"}}


def test_evidence_joins_the_inputs_in_wire_form(monkeypatch):
    monkeypatch.setitem(LAWS, "jetcalc/mul", lambda f, g, x0, k: (False, {"at": Fraction(1, 3)}))
    rec = Recorder("jetcalc", 0)
    rec.check("jetcalc/mul-0001", f=1, g=2, x0=[Fraction(-2, 3), Fraction(5)], k=(1, 2))
    assert rec.report()["failures"][0]["witness"] == {
        "f": 1, "g": 2, "x0": ["-2/3", "5"], "k": [1, 2], "at": "1/3"}


def test_evidence_that_names_an_input_fails_the_row(monkeypatch):
    monkeypatch.setitem(LAWS, "jetcalc/mul", lambda f, g, x0, k: (True, {"k": 3, "at": 1}))
    rec = Recorder("jetcalc", 0)
    assert rec.check("jetcalc/mul-0001", f=1, g=2, x0=[5], k=(1, 2)) is False
    assert rec.report()["failures"][0]["witness"] == {
        "f": 1, "g": 2, "x0": [5], "k": [1, 2], "error": "evidence shadows the inputs ['k']"}


ONE = {"subset": [], "num": "1", "den": "1"}
ETA1 = {"subset": [1], "num": "1", "den": "1"}


@pytest.mark.parametrize("record, wired", [
    (SuperChart(SuperMorphism.identity(1, 0), SuperMorphism.identity(0, 1)),
     {"to_model": {"source": [1, 0], "target": [1, 0], "even": [
         {"p": 1, "q": 0, "components": [{"J": [], "poly": {
             "p": 1, "terms": [{"exp": [1], "num": "1", "den": "1"}]}}]}], "odd": []},
      "from_model": {"source": [0, 1], "target": [0, 1], "even": [], "odd": [
          {"p": 0, "q": 1, "components": [{"J": [1], "poly": {
              "p": 0, "terms": [{"exp": [], "num": "1", "den": "1"}]}}]}]}}),
    (coefficient_squaring_map(),
     {"n": 2, "source": [1, 0], "target": [1, 0], "outputs": [
         {"p": 2, "terms": [{"exp": [1, 0], "num": "1", "den": "1"}]},
         {"p": 2, "terms": [{"exp": [0, 2], "num": "1", "den": "1"}]}]}),
    (BundlePoint((0.0, 0.0, 1.0), ((1.0, 0.0, 0.0),)),
     {"base": [0.0, 0.0, 1.0], "fibre": [[1.0, 0.0, 0.0]]}),
    (BundleTangent((0.0, 0.5, 0.0), ((0.25, 0.0, 0.0),)),
     {"horizontal": [0.0, 0.5, 0.0], "vertical": [[0.25, 0.0, 0.0]]}),
    (SuperPoint(2, [GrassmannElement(2, {0: 1, 3: Fraction(-1, 2)})], []),
     {"n": 2, "even": [{"n": 2, "terms": [
         ONE, {"subset": [1, 2], "num": "-1", "den": "2"}]}], "odd": []}),
    (GrassmannHom(1, 2, [GrassmannElement(2, {1: 1, 2: 3})]),
     {"source": 1, "target": 2, "images": [{"n": 2, "terms": [
         ETA1, {"subset": [2], "num": "3", "den": "1"}]}]}),
    (SmoothVerdict(True, 3), {"passed": True, "checks": 3}),
    (SmoothVerdict(False, 0, {"lambda_mask": 3, "output": [0, 0]}),
     {"passed": False, "checks": 0, "witness": {"lambda_mask": 3, "output": [0, 0]}}),
    (OrderVerdict(True, 1, 8), {"passed": True, "k": 1, "trials": 8}),
    (OrderVerdict(False, 0, 4, {"x0": ["1/2"], "k": 0}),
     {"passed": False, "k": 0, "trials": 4, "witness": {"x0": ["1/2"], "k": 0}}),
], ids=["chart", "lambda-map", "bundle-point", "bundle-tangent", "point", "hom",
        "smooth-passed", "smooth-failed", "order-passed", "order-failed"])
def test_a_plain_record_wires_as_its_fields(record, wired):
    # a record's to_json, where it has one, is the shared rule itself
    assert getattr(type(record), "to_json", _wire) is _wire
    assert _wire(record) == wired
    assert list(_wire(record)) == list(wired)


@dataclass
class Note:
    text: str
    remark: str | None = None
    count: int = 0
    items: tuple = ()


def test_a_value_with_its_own_wire_form_keeps_it():
    # a field that is None is left out; every other falsy field stays
    assert _wire(Note("a")) == {"text": "a", "count": 0, "items": []}
    assert _wire([Note("b", "c", 2, (Fraction(1, 3),))]) == [
        {"text": "b", "remark": "c", "count": 2, "items": ["1/3"]}]
    # a morphism wires its pullbacks as "even" and "odd", and a mapping point
    # as its morphism's form with its level added, not as their fields
    phi = SuperMorphism.identity(1, 0)
    assert list(_wire(phi)) == ["source", "target", "even", "odd"]
    assert _wire(MappingPoint(0, phi)) == {
        "source": [1, 0], "target": [1, 0], "even": [{"p": 1, "q": 0, "components": [
            {"J": [], "poly": {"p": 1, "terms": [{"exp": [1], "num": "1", "den": "1"}]}}]}],
        "odd": [], "n": 0}


@pytest.mark.parametrize("seed", [0, 42])
def test_every_rows_inputs_and_evidence_have_a_wire_form(monkeypatch, seed):
    # only failing rows are wired in a report, so a type with no wire form
    # would surface exactly when its law fails; wire every row here instead
    def wired(law):
        def run(**inputs):
            verdict = law(**inputs)
            evidence = verdict[1] if isinstance(verdict, tuple) else {}
            json.dumps({k: _wire(v) for k, v in {**inputs, **evidence}.items()})
            return verdict
        return run

    for key, law in list(LAWS.items()):
        monkeypatch.setitem(LAWS, key, wired(law))
    report = run_suite("all", seed=seed, cases=3)
    assert report["failed"] == 0, report["failures"]


def test_a_failed_cancel_sharp_witness_keeps_its_inputs(monkeypatch):
    monkeypatch.setattr(suites, "top_order_cancellation", lambda n, p, r: True)
    failures = {f["id"]: f["witness"] for f in run_suite("mapspace", seed=0, cases=1)["failures"]}
    assert failures["mapspace/cancel-sharp"] == {
        "n": [4, 6], "p": 2, "r": [1, 2], "cancelled_at": {"n": 4, "p": 2, "r": 1}}


def record_laws(monkeypatch) -> set:
    """The set that each law, from now on, adds its key to when it runs in this process."""
    reached = set()

    def recording(key, law):
        def run(**inputs):
            reached.add(key)
            return law(**inputs)
        return run

    for key, law in list(LAWS.items()):
        monkeypatch.setitem(LAWS, key, recording(key, law))
    return reached


def test_every_case_id_has_a_law_and_every_law_is_reached(monkeypatch):
    reached = record_laws(monkeypatch)
    monkeypatch.setattr(suites, "process_count", lambda count: 1)   # reached is this process's
    report = run_suite("all", seed=0, cases=1)
    assert report["failed"] == 0
    assert reached == set(LAWS)


def test_with_every_law_failing_each_witness_is_exactly_its_laws_inputs(monkeypatch):
    params = {key: list(inspect.signature(law).parameters) for key, law in LAWS.items()}
    for key in LAWS:
        monkeypatch.setitem(LAWS, key, lambda **inputs: False)
    report = run_suite("all", seed=0, cases=1)
    assert report["passed"] == 0 and report["failed"] == report["cases"] > 0
    json.dumps(report)
    for failure in report["failures"]:
        key = next(k for k in (failure["id"], failure["id"].rpartition("-")[0]) if k in params)
        assert sorted(failure["witness"]) == sorted(params[key]), failure["id"]


def test_all_is_every_suite_in_one_recorder():
    reports = [run_suite(name, seed=5, cases=2) for name in SUITES]
    merged = run_suite("all", seed=5, cases=2)
    assert merged["suite"] == "all"
    assert merged["cases"] == sum(r["cases"] for r in reports)
    assert merged["failures"] == sorted((f for r in reports for f in r["failures"]),
                                        key=lambda f: f["id"])


def test_a_draw_that_raises_is_one_failed_row_and_the_next_suites_run(monkeypatch):
    def broken(rec, seed, cases):
        rec.check("grassmann/split-0000", a=1)
        raise RuntimeError("no more cases")

    others = [run_suite(name, seed=5, cases=2) for name in SUITES if name != "grassmann"]
    monkeypatch.setitem(SUITES, "grassmann", broken)
    monkeypatch.setitem(LAWS, "grassmann/split", lambda a: True)
    report = run_suite("all", seed=5, cases=2)
    assert report["cases"] == 2 + sum(r["cases"] for r in others)
    assert report["failures"] == [{"id": "grassmann/draw",
                                   "witness": {"error": "RuntimeError: no more cases"}}]


# -- "all" over forked workers: the one-process report, and no process left --------


def with_processes(monkeypatch, procs: int) -> None:
    monkeypatch.setattr(suites, "process_count", lambda count: procs)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_worker(parent: int, act):
    """A suite that does act in a forked worker and fails in the parent process."""
    def suite(rec, seed, cases):
        assert os.getpid() != parent, "a worker's suite ran in the parent process"
        act()
    return suite


@pytest.mark.parametrize("procs", [2, 3])
def test_all_over_workers_is_the_one_process_report(monkeypatch, procs):
    with_processes(monkeypatch, 1)
    alone = {seed: run_suite("all", seed=seed, cases=2) for seed in (0, 5)}
    text = json.dumps(run_suite("all", seed=42, cases=100), indent=2, sort_keys=True)
    with_processes(monkeypatch, procs)
    assert {seed: run_suite("all", seed=seed, cases=2) for seed in (0, 5)} == alone
    assert json.dumps(run_suite("all", seed=42, cases=100), indent=2, sort_keys=True) == text
    assert_no_child_left()


def test_a_worker_that_dies_fails_each_suite_of_its_share(monkeypatch, capsys):
    # with two processes the worker runs grassmann, morphism and geometry
    with_processes(monkeypatch, 2)
    parents = [run_suite(name, seed=0, cases=2) for name in ("superfun", "jetcalc", "mapspace")]
    monkeypatch.setitem(SUITES, "morphism", in_worker(os.getpid(), lambda: os._exit(3)))
    report = run_suite("all", seed=0, cases=2)
    died = {"error": "worker exited with status 3"}
    assert report["failures"] == [{"id": f"{name}/draw", "witness": died}
                                  for name in ("geometry", "grassmann", "morphism")]
    assert report["cases"] == 3 + sum(r["cases"] for r in parents)
    assert report["passed"] == sum(r["passed"] for r in parents)
    assert_no_child_left()

    assert main(["verify", "all", "--seed", "0", "--cases", "2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == report
    assert "Traceback" not in err and err.endswith(" in 2 processes\n")
    assert_no_child_left()


def test_a_killed_worker_is_named_by_its_signal(monkeypatch):
    with_processes(monkeypatch, 2)
    monkeypatch.setitem(SUITES, "grassmann",
                        in_worker(os.getpid(), lambda: os.kill(os.getpid(), signal.SIGKILL)))
    report = run_suite("all", seed=0, cases=1)
    assert {f["id"]: f["witness"]["error"] for f in report["failures"]} == {
        f"{name}/draw": f"worker killed by signal {int(signal.SIGKILL)}"
        for name in ("grassmann", "morphism", "geometry")}
    assert_no_child_left()


def test_an_interrupt_in_this_process_kills_the_workers(monkeypatch):
    with_processes(monkeypatch, 2)
    monkeypatch.setitem(SUITES, "grassmann", in_worker(os.getpid(), lambda: time.sleep(60)))

    def interrupted(rec, seed, cases):
        raise KeyboardInterrupt

    monkeypatch.setitem(SUITES, "superfun", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite("all", seed=0, cases=1)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("hook", [sys.setprofile, sys.settrace])
def test_under_a_profiler_or_tracer_every_law_runs_in_this_process(monkeypatch, hook):
    reached = record_laws(monkeypatch)
    hook(lambda *args: None)
    try:
        assert suites.process_count(len(SUITES)) == 1
        report = run_suite("all", seed=0, cases=1)
    finally:
        hook(None)
    assert report["failed"] == 0
    assert reached == set(LAWS)


def test_one_process_for_one_suite_one_cpu_another_thread_or_no_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert [suites.process_count(count) for count in (1, 2, 6)] == [1, 2, 4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert suites.process_count(6) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert suites.process_count(6) == 3
    released = threading.Event()
    waiting = threading.Thread(target=released.wait, args=(10,))
    waiting.start()
    try:
        assert suites.process_count(6) == 1
    finally:
        released.set()
        waiting.join(10)
    assert not waiting.is_alive() and suites.process_count(6) == 3
    monkeypatch.delattr(os, "fork")
    assert suites.process_count(6) == 1


def test_an_unknown_suite_is_a_key_error():
    with pytest.raises(KeyError):
        run_suite("nonsense")


# -- the symbol and the bounds are what the morphism suite checks ------------------


def failed_laws(report):
    return sorted({f["id"].rpartition("-")[0] or f["id"] for f in report["failures"]})


@pytest.mark.parametrize("scale", [2, -1])
def test_the_morphism_suite_catches_a_scaled_symbol(monkeypatch, scale):
    # c_{beta,K} = E_I(b^beta omega^K) / beta!: a factorial divided by the scale
    # multiplies every c by it
    exact = superjet.morphism.mi_factorial
    monkeypatch.setattr(superjet.morphism, "mi_factorial",
                        lambda beta: exact(beta) * Fraction(1, scale))
    assert "morphism/decomp" in failed_laws(run_suite("morphism", seed=0, cases=10))


def test_the_morphism_suite_catches_a_loosened_theta_bound(monkeypatch):
    monkeypatch.setattr(EtaCoefficient, "order_bound", lambda self: sum(self.index))
    assert "morphism/sharp" in failed_laws(run_suite("morphism", seed=0, cases=10))


def test_the_mapspace_suite_catches_a_check_that_stops_at_the_first_mask(monkeypatch):
    exact = suites.supersmooth_check

    def first_mask_only(F):
        # a check that tests only the first nonzero even mask, eta1 eta2
        verdict = exact(F)
        if verdict.witness is not None and verdict.witness["lambda_mask"] != 3:
            verdict.passed, verdict.witness = True, None
        return verdict

    monkeypatch.setattr(suites, "supersmooth_check", first_mask_only)
    assert failed_laws(run_suite("mapspace", seed=0, cases=1)) == ["mapspace/reject"]


def test_the_mapspace_suite_catches_a_map_that_drops_its_constants(monkeypatch):
    exact = suites.lambda_point_map_of

    def dropping(phi, n):
        # both sides of mapspace/natural lose the same constant coefficients
        F = exact(phi, n)
        F.outputs = tuple(f if f.degree() > 0 else Polynomial.zero(F.nvars) for f in F.outputs)
        return F

    monkeypatch.setattr(suites, "lambda_point_map_of", dropping)
    assert failed_laws(run_suite("mapspace", seed=0, cases=100)) == ["mapspace/apply"]


# -- superfun/canonical sees a coefficient outside its canonical form -----------


def test_the_canonical_check_finds_the_first_bad_key_inside_polynomials():
    good = {0: 3, 1: Fraction(1, 2), 2: Polynomial(2, {(1, 0): -1, (0, 1): Fraction(2, 3)})}
    assert suites._noncanonical(good) is None
    unreduced = Polynomial._of(2, {(1, 0): 3, (0, 1): Fraction(6, 3)})
    assert suites._noncanonical({**good, 3: unreduced, 4: Fraction(4, 2)}) == (3, (0, 1))
    for bad in (0, True, Fraction(2, 1), 0.5, Polynomial.zero(1)):
        assert suites._noncanonical({**good, 5: bad}) == (5,)


def test_the_superfun_suite_catches_an_unreduced_polynomial_product(monkeypatch):
    exact = Polynomial.__mul__

    def unreduced(self, other):
        # every integral coefficient of a product stored as Fraction(n, 1)
        out = exact(self, other)
        return Polynomial._of(out.p, {e: Fraction(c) if type(c) is int else c
                                      for e, c in out.terms.items()})

    monkeypatch.setattr(Polynomial, "__mul__", unreduced)
    assert failed_laws(run_suite("superfun", seed=0, cases=5)) == ["superfun/canonical"]


# -- the exponential's jet is what geometry/fd-exp checks ----------------------


def test_the_geometry_suite_catches_a_sign_flip_in_exp_jet(monkeypatch):
    # C(s) x - S(s) V, exp's closed form with its second sign flipped, is -exp_{-x}(V)
    exact = Sphere2Backend.exp_jet

    def flipped(self, x, v0, k):
        jet = exact(self, tuple(-c for c in x), v0, k)
        return TruncatedPolyMap(jet.k, jet.base_point, tuple(-f for f in jet.polys))

    monkeypatch.setattr(Sphere2Backend, "exp_jet", flipped)
    assert failed_laws(run_suite("geometry", seed=0, cases=4)) == ["geometry/fd-exp"]

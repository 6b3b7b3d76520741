import json
import math
import re
from fractions import Fraction

import pytest

import superjet.cli as cli_mod
import superjet.suites as suites
from superjet import (
    DomainError,
    GrassmannElement,
    Polynomial,
    SplitMix64,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
    make_backend,
    morphism_compose,
)
from superjet.cli import main
from superjet.suites import random_morphism


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def scaling(tmp_path):
    phi = SuperMorphism(
        (1, 1),
        (1, 1),
        [SuperFunction.coordinate(1, 1, 0)],
        [SuperFunction(1, 1, {1: Polynomial.variable(1, 0)})],
    )
    return write(tmp_path / "scaling.json", phi.to_json())


@pytest.fixture
def point(tmp_path):
    mu = SuperPoint(
        2,
        [GrassmannElement(2, {0: Fraction(2), 3: Fraction(5)})],
        [GrassmannElement(2, {1: Fraction(3)})],
    )
    return write(tmp_path / "mu.json", mu.to_json())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_identity_returns_the_point(tmp_path, capsys, point):
    ident = write(tmp_path / "id.json", SuperMorphism.identity(1, 1).to_json())
    code, out, _ = run(capsys, "eval", ident, point)
    assert code == 0
    assert SuperPoint.from_json(json.loads(out)) == SuperPoint.from_json(
        json.loads(open(point).read())
    )


def test_eval_worked_example(capsys, scaling, point):
    code, out, _ = run(capsys, "eval", scaling, point)
    assert code == 0
    nu = SuperPoint.from_json(json.loads(out))
    assert nu.even[0] == GrassmannElement(2, {0: Fraction(2), 3: Fraction(5)})
    assert nu.odd[0] == GrassmannElement(2, {1: Fraction(6)})


def test_eval_rejects_parity_violation(tmp_path, capsys, point):
    bad = {
        "source": [1, 1],
        "target": [1, 1],
        "even": [SuperFunction.theta(1, 1, 0).to_json()],
        "odd": [SuperFunction.coordinate(1, 1, 0).to_json()],
    }
    path = write(tmp_path / "bad.json", bad)
    code, out, err = run(capsys, "eval", path, point)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_zero_denominator_is_an_input_error(tmp_path, capsys, scaling, point):
    mu = json.loads(open(point).read())
    mu["even"][0]["terms"][0]["den"] = "0"
    bad_point = write(tmp_path / "bad_mu.json", mu)
    phi = json.loads(open(scaling).read())
    phi["odd"][0]["components"][0]["poly"]["terms"][0]["den"] = "0"
    bad_phi = write(tmp_path / "bad_phi.json", phi)
    for args in ((scaling, bad_point), (bad_phi, point)):
        code, out, err = run(capsys, "eval", *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "zero denominator" in err


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("which, path, value", [
    ("morphism", ["source", 0], 1.7),                                       # SuperMorphism
    ("morphism", ["even", 0, "p"], 1.2),                                    # SuperFunction
    ("morphism", ["even", 0, "components", 0, "J", 0], False),              # SuperFunction
    ("morphism", ["even", 0, "components", 0, "poly", "terms", 0, "exp", 0], 1.9),  # Polynomial
    ("point", ["n"], 2.9),                                                  # SuperPoint
    ("point", ["even", 0, "n"], 2.5),                                       # GrassmannElement
    ("point", ["odd", 0, "terms", 0, "subset", 0], True),                   # GrassmannElement
    ("point", ["even", 0, "terms", 0, "num"], 2.5),                         # rational
])
def test_a_wire_integer_is_never_truncated(tmp_path, capsys, scaling, point, which, path, value):
    # each of these loaded at int(value) before and gave an answer with exit 0
    files = {"morphism": scaling, "point": point}
    payload = json.loads(open(files[which]).read())
    _set(payload, path, value)
    files[which] = write(tmp_path / "bad.json", payload)
    result = run(capsys, "eval", files["morphism"], files["point"])
    assert_one_line_input_error(result)
    assert f"not an integer: {value!r}" in result[2]


@pytest.mark.parametrize("which, path", [
    ("point", ["odd", 0, "terms", 0, "subset"]),                             # GrassmannElement
    ("morphism", ["even", 0, "components", 0, "poly", "terms", 0, "exp"]),  # Polynomial
    ("morphism", ["odd", 0, "components", 0, "J"]),                         # SuperFunction
])
def test_a_string_in_place_of_an_integer_list_is_an_input_error(
        tmp_path, capsys, scaling, point, which, path):
    files = {"morphism": scaling, "point": point}
    payload = json.loads(open(files[which]).read())
    _set(payload, path, "1")
    files[which] = write(tmp_path / "bad.json", payload)
    result = run(capsys, "eval", files["morphism"], files["point"])
    assert_one_line_input_error(result)
    assert "expected a list, got str" in result[2]


def test_missing_file_is_a_usage_error(capsys, point):
    code, _, err = run(capsys, "eval", "/nonexistent/m.json", point)
    assert code == 2
    assert "error:" in err


def test_a_payload_that_is_not_utf8_is_an_input_error(tmp_path, capsys, point):
    bad = tmp_path / "m.json"
    bad.write_bytes(b"\xff\xfe{}")
    result = run(capsys, "eval", str(bad), point)
    assert_one_line_input_error(result)
    assert "not UTF-8" in result[2]


def test_a_payload_nested_too_deeply_is_an_input_error(tmp_path, capsys, point):
    deep = tmp_path / "m.json"
    deep.write_text('{"n": ' + "[" * 5000 + "]" * 5000 + "}")
    result = run(capsys, "eval", str(deep), point)
    assert_one_line_input_error(result)
    assert "nested too deeply" in result[2]


def test_compose_matches_library_composition(tmp_path, capsys, scaling):
    code, out, _ = run(capsys, "compose", scaling, scaling)
    assert code == 0
    phi = SuperMorphism.from_json(json.loads(open(scaling).read()))
    assert SuperMorphism.from_json(json.loads(out)) == morphism_compose(phi, phi)


def test_compose_degree_bound_violation(tmp_path, capsys):
    quad = SuperMorphism(
        (1, 0), (1, 0), [SuperFunction.from_poly(Polynomial.monomial(1, (2,)), 0)], []
    )
    path = write(tmp_path / "quad.json", quad.to_json())
    code, _, err = run(capsys, "compose", path, path, "--degree-bound", "3")
    assert code == 2 and "error:" in err
    code, out, _ = run(capsys, "compose", path, path, "--degree-bound", "0")
    assert code == 0
    assert SuperMorphism.from_json(json.loads(out)).even_pb[0].body_poly() == Polynomial.monomial(
        1, (4,)
    )


def test_compose_into_a_purely_odd_target(tmp_path, capsys):
    phi = SuperMorphism((1, 1), (0, 1), [], [SuperFunction.theta(1, 1, 0)])
    inner = write(tmp_path / "collapse.json", phi.to_json())
    outer = write(tmp_path / "id01.json", SuperMorphism.identity(0, 1).to_json())
    code, out, _ = run(capsys, "compose", outer, inner)
    assert code == 0
    assert SuperMorphism.from_json(json.loads(out)) == phi


def assert_one_line_input_error(result):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "compose", "decompose", "chart", "verify"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_out_path_that_cannot_be_written_is_an_input_error(
        tmp_path, capsys, scaling, point, chart_point, command, where):
    # exit 1 would read as "verification failed", so a path is an input error
    out = str(tmp_path / "missing" / "x.json") if where == "missing-directory" else str(tmp_path)
    argv = {"eval": ["eval", scaling, point],
            "compose": ["compose", scaling, scaling],
            "decompose": ["decompose", scaling, "1"],
            "chart": ["chart", chart_point, "--base", "[0,0,1]", "--inverse"],
            "verify": ["verify", "grassmann", "--cases", "1"]}[command]
    result = run(capsys, *argv, "--out", out)
    assert_one_line_input_error(result)
    assert f"cannot write {out}" in result[2]


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_verify_refuses_an_empty_corpus(capsys, cases):
    assert_one_line_input_error(run(capsys, "verify", "grassmann", "--cases", cases))


def tangent_at_north_pole() -> SuperPoint:
    """A chart-side point whose body is tangent to the sphere at (0, 0, 1)."""
    return SuperPoint(1, [GrassmannElement(1, {0: 0.1})] * 2 + [GrassmannElement(1, {})], [])


@pytest.fixture
def chart_point(tmp_path):
    return write(tmp_path / "xi.json", tangent_at_north_pole().to_json())


@pytest.mark.parametrize("base", ['["a",0,1]', "[NaN,0,1]", "[0,Infinity,1]", "[0,0,[1]]",
                                  "[true,0,1]", '["1e3",0,1]'])
def test_chart_base_must_be_finite_numbers(capsys, chart_point, base):
    assert_one_line_input_error(run(capsys, "chart", chart_point, "--base", base, "--inverse"))


@pytest.mark.parametrize("value", ["nan", "-inf", "x", 1e400, True, "1_0", " 2.5 "])
def test_chart_point_values_must_be_finite_numbers(tmp_path, capsys, value):
    xi = tangent_at_north_pole().to_json()
    xi["even"][0]["terms"][0]["value"] = value
    bad = write(tmp_path / "bad_xi.json", xi)
    assert_one_line_input_error(run(capsys, "chart", bad, "--base", "[0,0,1]", "--inverse"))


@pytest.mark.parametrize("even", [0, 2, 4])
def test_chart_even_coordinates_come_in_threes(tmp_path, capsys, even):
    xi = SuperPoint(1, [GrassmannElement(1, {})] * even, [])
    src = write(tmp_path / "xi.json", xi.to_json())
    assert_one_line_input_error(run(capsys, "chart", src, "--base", "[0,0,1]"))


def test_chart_base_has_three_coordinates(capsys, chart_point):
    assert_one_line_input_error(run(capsys, "chart", chart_point, "--base", "[0,1]"))


def test_an_inline_base_nested_too_deeply_is_an_input_error(capsys, chart_point):
    # read as JSON it overflows the parser's stack; read as a file name it is no file
    assert_one_line_input_error(run(capsys, "chart", chart_point, "--base", "[" * 5000))


def test_chart_refuses_a_geometry(chart_point):
    # the sphere is the one geometry; the flag is refused, never silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["chart", chart_point, "--base", "[0,0,1]", "--geometry", "sphere2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key, value", [("even", None), ("even", {}), ("odd", "ab")])
def test_a_missing_or_non_list_item_list_is_an_input_error(tmp_path, capsys, scaling, point, key, value):
    phi = json.loads(open(scaling).read())
    phi[key] = value
    bad = write(tmp_path / "bad_phi.json", phi)
    assert_one_line_input_error(run(capsys, "eval", bad, point))
    mu = json.loads(open(point).read())
    del mu[key]
    bad = write(tmp_path / "bad_mu.json", mu)
    assert_one_line_input_error(run(capsys, "eval", scaling, bad))


def test_chart_cut_locus(tmp_path, capsys):
    # log fails at the antipode; exp is global, so the inverse chart fails at
    # |v0| = pi only when it has fibre slots to transport out to -f_x
    f_x = [0.0, 0.0, 1.0]
    antipode = SuperPoint(2, [GrassmannElement(2, {0: c}) for c in (0.0, 0.0, -1.0)], [])
    with pytest.raises(DomainError):
        make_backend("sphere2").superchart_pointwise(f_x, antipode)
    src = write(tmp_path / "antipode.json", antipode.to_json())
    assert_one_line_input_error(run(capsys, "chart", src, "--base", "[0,0,1]"))

    half_turn = [GrassmannElement(2, {0: c}) for c in (math.pi, 0.0, 0.0)]
    y = make_backend("sphere2").superchart_pointwise_inv(f_x, SuperPoint(2, half_turn, []))
    assert [c.body() for c in y.even] == pytest.approx([0.0, 0.0, -1.0], abs=1e-9)
    assert all(set(c.terms) <= {0} for c in y.even)
    fibre = [GrassmannElement(2, {0: c}) for c in (0.0, 0.5, 0.0)]
    with pytest.raises(DomainError):
        make_backend("sphere2", bundle_rank=1).superchart_pointwise_inv(
            f_x, SuperPoint(2, half_turn + fibre, []))


def test_chart_refuses_a_result_that_overflows(tmp_path, capsys):
    # finite souls whose Taylor products overflow a float: the chart must not
    # write an Infinity or NaN token
    huge = {0b0011: 1e200, 0b1100: 1e200, 0b0101: 1e200, 0b1010: 1e200}
    mu = SuperPoint(4, [GrassmannElement(4, {0: b, **huge}) for b in (0.0, 0.0, 1.0)], [])
    src = write(tmp_path / "huge.json", mu.to_json())
    assert_one_line_input_error(run(capsys, "chart", src, "--base", "[0,0,1]"))


def test_eval_refuses_a_result_that_overflows(tmp_path, capsys):
    # y -> y^2 at 2 + 1e308 eta1 eta2 has soul 4e308: eval must not write Infinity
    square = SuperMorphism((1, 0), (1, 0),
                           [SuperFunction.from_poly(Polynomial.monomial(1, (2,)), 0)], [])
    mu = SuperPoint(2, [GrassmannElement(2, {0: 2.0, 0b11: 1e308})], [])
    phi = write(tmp_path / "square.json", square.to_json())
    src = write(tmp_path / "huge.json", mu.to_json())
    assert_one_line_input_error(run(capsys, "eval", phi, src))


def test_eval_keeps_an_exact_result_beyond_any_float(tmp_path, capsys):
    # y -> y^2 at 10^200/3: the exact 10^400/9 overflows a float but is a valid answer
    square = SuperMorphism((1, 0), (1, 0),
                           [SuperFunction.from_poly(Polynomial.monomial(1, (2,)), 0)], [])
    mu = {"n": 0, "even": [{"n": 0, "terms": [
        {"subset": [], "num": "1" + "0" * 200, "den": "3"}]}], "odd": []}
    phi = write(tmp_path / "square.json", square.to_json())
    src = write(tmp_path / "big.json", mu)
    code, out, err = run(capsys, "eval", phi, src)
    assert (code, err) == (0, "")
    assert SuperPoint.from_json(json.loads(out)) == SuperPoint(
        0, [GrassmannElement(0, {0: Fraction(10**400, 9)})], [])


@pytest.mark.parametrize("bad, named", [
    ({"source": [-1, 0], "target": [1, 0], "odd": [],
      "even": [{"p": -1, "q": 0, "components": []}]}, "source R^(-1|0)"),
    ({"source": [1, -2], "target": [0, 0], "even": [], "odd": []}, "source R^(1|-2)"),
    ({"source": [1, 0], "target": [0, -1], "even": [], "odd": []}, "target R^(0|-1)"),
])
def test_negative_dimensions_are_refused(tmp_path, capsys, point, bad, named):
    path = write(tmp_path / "bad.json", bad)
    for argv in (["eval", path, point], ["decompose", path, "0"], ["compose", path, path]):
        result = run(capsys, *argv)
        assert_one_line_input_error(result)
        assert f"{named} has a negative dimension" in result[2]


def test_decompose_certifies_sharp_orders(tmp_path, capsys):
    shift = SuperMorphism(
        (1, 2),
        (1, 2),
        [SuperFunction(1, 2, {0: Polynomial.variable(1, 0), 3: Polynomial.one(1)})],
        [SuperFunction.theta(1, 2, 0), SuperFunction.theta(1, 2, 1)],
    )
    path = write(tmp_path / "shift.json", shift.to_json())
    code, out, _ = run(capsys, "decompose", path, "2")
    assert code == 0
    report = json.loads(out)
    orders = {tuple(entry["index"]): entry["certified_order"] for entry in report["coefficients"]}
    assert orders[(0, 0)] == 0
    assert orders[(1, 1)] == 1
    # the whole odd sector: the theta-grading bound floor(|I|/2)
    bounds = {tuple(entry["index"]): entry["order_bound"] for entry in report["coefficients"]}
    assert bounds == {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1}


def test_decompose_certifies_an_order_the_lattice_cannot_see(tmp_path, capsys):
    # y2 -> -3 - 2/3 x^2 + (x - 2x^2) theta1 theta2: the eta^1 coefficient
    # differentiates along y2 with weight x - 2x^2, which vanishes at the body
    # lattice points 0 and 1/2, so an 8-trial sampled search misses it and says 0
    rng = SplitMix64(7)
    for _ in range(3):
        p, q, r, s = rng.randint(1, 2), rng.randint(2, 3), rng.randint(1, 2), rng.randint(0, 2)
        phi = random_morphism(rng, (p, q), (r, s), degree=2)
        rng.randint(1, q - 1)
    assert phi.even_pb[1].components[3] == Polynomial(1, {(1,): 1, (2,): -2})
    path = write(tmp_path / "phi.json", phi.to_json())
    code, out, _ = run(capsys, "decompose", path, "1")
    assert code == 0
    (_, eta) = json.loads(out)["coefficients"]
    assert eta["index"] == [1] and eta["certified_order"] == eta["order_bound"] == 1
    assert eta["top"]["beta"] == [0, 1] and eta["top"]["K"] == [0]


def test_chart_roundtrip_through_files(tmp_path, capsys):
    xi = SuperPoint(
        2,
        [
            GrassmannElement(2, {0: 0.3, 3: 0.1}),
            GrassmannElement(2, {0: -0.1, 3: 0.05}),
            GrassmannElement(2, {}),
        ],
        [GrassmannElement(2, {1: 1.0})],
    )
    src = write(tmp_path / "xi.json", xi.to_json())
    mid = str(tmp_path / "mu.json")
    code, _, _ = run(capsys, "chart", src, "--base", "[0,0,1]", "--inverse", "--out", mid)
    assert code == 0
    code, out, _ = run(capsys, "chart", mid, "--base", "[0,0,1]")
    assert code == 0
    back = SuperPoint.from_json(json.loads(out))
    for a, b in zip(back.even, xi.even):
        for mask in set(a.terms) | set(b.terms):
            assert abs(a.terms.get(mask, 0.0) - b.terms.get(mask, 0.0)) < 1e-9


def test_chart_reads_its_base_from_a_file(tmp_path, capsys, chart_point):
    inline = run(capsys, "chart", chart_point, "--base", "[0,0,1]", "--inverse")
    assert inline[0] == 0
    base = write(tmp_path / "b.json", {"base": [0, 0, 1]})
    assert run(capsys, "chart", chart_point, "--base", base, "--inverse") == inline
    short = write(tmp_path / "short.json", {"base": [0, 0]})
    assert_one_line_input_error(run(capsys, "chart", chart_point, "--base", short, "--inverse"))


def test_chart_rejects_nonunit_base(capsys, tmp_path):
    xi = SuperPoint(1, [GrassmannElement(1, {0: 0.1})] * 3, [])
    src = write(tmp_path / "xi.json", xi.to_json())
    code, _, err = run(capsys, "chart", src, "--base", "[0,0,2]")
    assert code == 2 and "error:" in err


def test_verify_suite_passes_and_reports(capsys):
    code, out, err = run(capsys, "verify", "grassmann", "--seed", "3", "--cases", "15")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "grassmann"
    assert report["failed"] == 0
    assert report["algorithm"] == "splitmix64"
    # timing goes to stderr only, with the number of processes that ran the suites
    assert re.fullmatch(r"suite grassmann: \d+\.\d{3}s in 1 process\n", err)
    code, out, err = run(capsys, "verify", "all", "--seed", "3", "--cases", "1")
    assert code == 0 and json.loads(out)["suite"] == "all"
    procs = suites.process_count(len(suites.SUITES))
    word = "process" if procs == 1 else "processes"
    assert re.fullmatch(rf"suite all: \d+\.\d{{3}}s in {procs} {word}\n", err)


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run(capsys, "verify", "superfun", "--seed", "9", "--cases", "10", "--out", a)[0] == 0
    assert run(capsys, "verify", "superfun", "--seed", "9", "--cases", "10", "--out", b)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_verify_failure_exits_one(capsys, monkeypatch):
    def fake(name, seed=0, cases=100):
        return {
            "suite": name,
            "algorithm": "splitmix64",
            "seed": seed,
            "cases": 1,
            "passed": 0,
            "failed": 1,
            "failures": [{"id": "fake/0", "witness": {}}],
        }

    monkeypatch.setattr(cli_mod, "run_suite", fake)
    code, out, _ = run(capsys, "verify", "grassmann")
    assert code == 1
    assert json.loads(out)["failed"] == 1


def test_a_law_that_raises_fails_its_case_and_keeps_the_report(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("base-point mismatch")

    monkeypatch.setattr(suites, "trunc_compose", broken)
    code, out, err = run(capsys, "verify", "jetcalc", "--cases", "2")
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert report["cases"] == 10 and report["failed"] == 4
    assert {f["id"][:-5] for f in report["failures"]} == {"jetcalc/compose", "jetcalc/ident"}
    for failure in report["failures"]:
        assert failure["witness"]["error"] == "ValueError: base-point mismatch"


def test_a_draw_that_raises_fails_its_suite_and_keeps_the_report(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("compose fault")

    # random_shear_chart composes morphisms, so the mapspace draw raises
    monkeypatch.setattr(suites, "morphism_compose", broken)
    code, out, err = run(capsys, "verify", "all", "--cases", "2")
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert set(report) == {"suite", "algorithm", "seed", "cases", "passed", "failed", "failures"}
    assert report["cases"] == report["passed"] + report["failed"]
    failures = {f["id"]: f["witness"] for f in report["failures"]}
    assert failures["mapspace/draw"] == {"error": "ValueError: compose fault"}
    assert {cid.partition("/")[0] for cid in failures} == {"morphism", "mapspace"}


def test_verify_refuses_an_unknown_geometry():
    # verify checks the sphere only; the flag is refused, never silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--geometry", "sphere2"])
    assert exc.value.code == 2


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2

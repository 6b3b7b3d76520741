import json
from fractions import Fraction

import pytest

from superjet import (
    GrassmannElement,
    Polynomial,
    SuperFunction,
    SuperMorphism,
    SuperPoint,
    morphism_compose,
)
from superjet.cli import main


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


def test_missing_file_is_a_usage_error(capsys, point):
    code, _, err = run(capsys, "eval", "/nonexistent/m.json", point)
    assert code == 2
    assert "error:" in err


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


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_decompose_refuses_a_certificate_without_trials(capsys, scaling, trials):
    assert_one_line_input_error(run(capsys, "decompose", scaling, "1", "--trials", trials))


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_verify_refuses_an_empty_corpus(capsys, cases):
    assert_one_line_input_error(run(capsys, "verify", "grassmann", "--cases", cases))


def tangent_at_north_pole() -> SuperPoint:
    """A chart-side point whose body is tangent to the sphere at (0, 0, 1)."""
    return SuperPoint(1, [GrassmannElement(1, {0: 0.1})] * 2 + [GrassmannElement(1, {})], [])


@pytest.fixture
def chart_point(tmp_path):
    return write(tmp_path / "xi.json", tangent_at_north_pole().to_json())


def test_chart_refuses_a_negative_order(capsys, chart_point):
    assert run(capsys, "chart", chart_point, "--base", "[0,0,1]", "--inverse")[0] == 0
    result = run(capsys, "chart", chart_point, "--base", "[0,0,1]", "--inverse", "--order", "-3")
    assert_one_line_input_error(result)


@pytest.mark.parametrize("base", ['["a",0,1]', "[NaN,0,1]", "[0,Infinity,1]", "[0,0,[1]]"])
def test_chart_base_must_be_finite_numbers(capsys, chart_point, base):
    assert_one_line_input_error(run(capsys, "chart", chart_point, "--base", base, "--inverse"))


@pytest.mark.parametrize("value", ["nan", "-inf", "x", 1e400])
def test_chart_point_values_must_be_finite_numbers(tmp_path, capsys, value):
    xi = tangent_at_north_pole().to_json()
    xi["even"][0]["terms"][0]["value"] = value
    bad = write(tmp_path / "bad_xi.json", xi)
    assert_one_line_input_error(run(capsys, "chart", bad, "--base", "[0,0,1]", "--inverse"))


def test_decompose_certifies_sharp_orders(tmp_path, capsys):
    shift = SuperMorphism(
        (1, 2),
        (1, 2),
        [SuperFunction(1, 2, {0: Polynomial.variable(1, 0), 3: Polynomial.one(1)})],
        [SuperFunction.theta(1, 2, 0), SuperFunction.theta(1, 2, 1)],
    )
    path = write(tmp_path / "shift.json", shift.to_json())
    code, out, _ = run(capsys, "decompose", path, "2", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["algorithm"] == "splitmix64"
    orders = {tuple(entry["index"]): entry["certified_order"] for entry in report["coefficients"]}
    assert orders[(0, 0)] == 0
    assert orders[(1, 1)] == 1


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
    assert "s" in err  # timing goes to stderr only


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run(capsys, "verify", "superfun", "--seed", "9", "--cases", "10", "--out", a)[0] == 0
    assert run(capsys, "verify", "superfun", "--seed", "9", "--cases", "10", "--out", b)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_verify_failure_exits_one(capsys, monkeypatch):
    import superjet.cli as cli_mod

    def fake(name, seed=0, cases=100, geometry="sphere2"):
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


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2

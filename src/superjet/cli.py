"""Command-line front end.

JSON is the only wire format: every command reads JSON files and writes a
single JSON document to stdout (or ``--out``).  Output is byte-stable --
keys sorted, two-space indent, trailing newline -- so reports for identical
``(suite, seed, cases)`` inputs compare equal as bytes.  Timing
goes to stderr only.

Exit codes: 0 success / all checks passed, 1 verification failures,
2 usage errors and every `InputError` (bad schema, parity, dimension, domain,
degree bound).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .errors import DimensionError, DomainError, InputError, SchemaError
from .geometry import Sphere2Backend
from .grassmann import float_from_json
from .morphism import SuperMorphism, eta_decompose, morphism_compose, pushforward
from .suites import SUITES, process_count, run_suite
from .superfun import SuperPoint

def _load(path: str) -> dict:
    """Read one JSON document, folding I/O, decoding and parse errors into SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return data


def _emit(data: dict, out: str | None) -> None:
    """Write data to the file out, or to stdout; a file that cannot be written
    is an InputError, as a file that cannot be read is in _load."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _at_least(name: str, value: int, least: int) -> None:
    # a count below its floor would make a vacuous certificate or an empty report
    if value < least:
        raise SchemaError(f"{name} must be >= {least}, got {value}")


def _degree_bound(value: int | None):
    # omitted -> library default; zero or negative -> bound disabled
    if value is None:
        return {}
    return {"degree_bound": None if value <= 0 else value}


def _finite(point: SuperPoint, what: str) -> SuperPoint:
    """point itself; a non-finite float coefficient, which JSON cannot carry, is a
    DomainError.  Finite but huge coefficients can overflow in the Taylor products.
    Exact coefficients are always finite and may exceed any float, so only floats
    are tested."""
    if any(isinstance(c, float) and not math.isfinite(c)
           for g in (*point.even, *point.odd) for c in g.terms.values()):
        raise DomainError(f"{what} is not finite: the point's coefficients overflow a float")
    return point


def cmd_eval(args: argparse.Namespace) -> int:
    phi = SuperMorphism.from_json(_load(args.morphism))
    mu = SuperPoint.from_json(_load(args.point))
    _emit(_finite(pushforward(phi, mu), "eval result").to_json(), args.out)
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    outer = SuperMorphism.from_json(_load(args.outer))
    inner = SuperMorphism.from_json(_load(args.inner))
    composed = morphism_compose(outer, inner, **_degree_bound(args.degree_bound))
    _emit(composed.to_json(), args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    _at_least("n_eta", args.n_eta, 0)
    phi = SuperMorphism.from_json(_load(args.morphism))
    q2 = phi.target[1]
    entries = []
    for coef in eta_decompose(phi, args.n_eta):
        # the sharpness evidence: the first symbol term of largest |beta|
        top = max(coef.symbol.items(), key=lambda term: sum(term[0][0]), default=None)
        entries.append(
            {
                "index": list(coef.index),
                "order_bound": coef.order_bound(),
                "certified_order": coef.order(),
                "top": top and {"beta": list(top[0][0]), "c": top[1].to_json(),
                                "K": [top[0][1] >> b & 1 for b in range(q2)]},
            }
        )
    report = {
        "n_eta": args.n_eta,
        "source": list(phi.source),
        "target": list(phi.target),
        "coefficients": entries,
    }
    _emit(report, args.out)
    return 0 if all(e["certified_order"] <= e["order_bound"] for e in entries) else 1


def cmd_chart(args: argparse.Namespace) -> int:
    point = SuperPoint.from_json(_load(args.point))
    try:
        base = json.loads(args.base)
    except (json.JSONDecodeError, RecursionError):
        base = None
    if base is None or not isinstance(base, list):
        base = _load(args.base).get("base")
    if not isinstance(base, list):
        raise SchemaError("base must be a JSON list of coordinates")
    base = [float_from_json(v) for v in base]

    if point.p % 3 or point.p < 3:
        raise DimensionError(
            f"point has {point.p} even coordinates, not a positive multiple of 3"
        )
    if len(base) != 3:
        raise SchemaError("base must have 3 coordinates")
    backend = Sphere2Backend(bundle_rank=point.p // 3 - 1)
    fn = backend.superchart_pointwise_inv if args.inverse else backend.superchart_pointwise
    _emit(_finite(fn(base, point), "chart result").to_json(), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _at_least("--cases", args.cases, 1)
    procs = process_count(len(SUITES) if args.suite == "all" else 1)
    start = time.perf_counter()
    report = run_suite(args.suite, seed=args.seed, cases=args.cases)
    elapsed = time.perf_counter() - start
    _emit(report, args.out)
    # after the report, so an --out that cannot be written leaves one stderr line
    print(f"suite {args.suite}: {elapsed:.3f}s in {procs} process{'es' if procs > 1 else ''}",
          file=sys.stderr)
    return 0 if report["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superjet",
        description="Exact finite-level supergeometry calculator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="apply a morphism to a Lambda-point")
    p_eval.add_argument("morphism", help="morphism JSON file")
    p_eval.add_argument("point", help="point JSON file")
    p_eval.add_argument("--out", help="write result here instead of stdout")
    p_eval.set_defaults(fn=cmd_eval)

    p_comp = sub.add_parser("compose", help="compose two morphisms (outer after inner)")
    p_comp.add_argument("outer", help="outer morphism JSON file")
    p_comp.add_argument("inner", help="inner morphism JSON file")
    p_comp.add_argument(
        "--degree-bound",
        type=int,
        default=None,
        metavar="N",
        help="polynomial degree guardrail; 0 disables, omitted uses the library default",
    )
    p_comp.add_argument("--out", help="write result here instead of stdout")
    p_comp.set_defaults(fn=cmd_compose)

    p_dec = sub.add_parser(
        "decompose", help="expand a morphism over leading odd coordinates, certify orders"
    )
    p_dec.add_argument("morphism", help="morphism JSON file")
    p_dec.add_argument("n_eta", type=int, help="how many leading odd coordinates to expand over")
    p_dec.add_argument("--out", help="write result here instead of stdout")
    p_dec.set_defaults(fn=cmd_decompose)

    p_chart = sub.add_parser("chart", help="sphere chart of a Lambda-point near a base point")
    p_chart.add_argument("point", help="point JSON file")
    p_chart.add_argument(
        "--base",
        required=True,
        help="chart centre: inline JSON list or a file containing {\"base\": [...]}",
    )
    p_chart.add_argument(
        "--inverse", action="store_true", help="apply the inverse chart (model to geometry)"
    )
    p_chart.add_argument("--out", help="write result here instead of stdout")
    p_chart.set_defaults(fn=cmd_chart)

    p_ver = sub.add_parser("verify", help="run a seeded property suite")
    p_ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cases", type=int, default=100)
    p_ver.add_argument("--out", help="write report here instead of stdout")
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

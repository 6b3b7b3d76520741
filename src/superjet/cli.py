"""Command-line front end.

JSON is the only wire format: every command reads JSON files and writes a
single JSON document to stdout (or ``--out``).  Output is byte-stable --
keys sorted, two-space indent, trailing newline -- so reports for identical
``(suite, seed, cases, geometry)`` inputs compare equal as bytes.  Timing
goes to stderr only.

Exit codes: 0 success / all checks passed, 1 verification failures,
2 usage or input errors (bad schema, parity, dimension, domain).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    DegreeBoundError,
    DimensionError,
    DomainError,
    ParityError,
    SchemaError,
)
from .geometry import make_backend
from .grassmann import float_from_json
from .morphism import (
    SuperMorphism,
    certified_order,
    default_probes,
    eta_decompose,
    morphism_compose,
    pushforward,
)
from .rng import ALGORITHM
from .suites import SUITES, run_suite
from .superfun import SuperPoint

INPUT_ERRORS = (
    SchemaError,
    ParityError,
    DimensionError,
    DomainError,
    DegreeBoundError,
)


def _load(path: str) -> dict:
    """Read one JSON document, folding I/O and parse errors into SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return data


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def cmd_eval(args: argparse.Namespace) -> int:
    phi = SuperMorphism.from_json(_load(args.morphism))
    mu = SuperPoint.from_json(_load(args.point))
    _emit(pushforward(phi, mu).to_json(), args.out)
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    outer = SuperMorphism.from_json(_load(args.outer))
    inner = SuperMorphism.from_json(_load(args.inner))
    composed = morphism_compose(outer, inner, **_degree_bound(args.degree_bound))
    _emit(composed.to_json(), args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    _at_least("n_eta", args.n_eta, 0)
    _at_least("--trials", args.trials, 1)
    phi = SuperMorphism.from_json(_load(args.morphism))
    n_eta = args.n_eta
    p2, q2 = phi.target
    probes = default_probes(p2, q2, 2)
    coefficients = eta_decompose(phi, n_eta, probes)
    _, qs = phi.source
    entries = []
    for coef in coefficients:
        weight = coef.order_bound()
        # eta grading admits order |I|; the full theta expansion halves it
        bound = weight if n_eta < qs else weight // 2
        order = certified_order(coef, bound, trials=args.trials, seed=args.seed)
        entries.append(
            {
                "index": list(coef.index),
                "order_bound": bound,
                "certified_order": order if order <= bound else None,
            }
        )
    report = {
        "algorithm": ALGORITHM,
        "seed": args.seed,
        "n_eta": n_eta,
        "source": list(phi.source),
        "target": list(phi.target),
        "coefficients": entries,
    }
    _emit(report, args.out)
    return 0 if all(e["certified_order"] is not None for e in entries) else 1


def cmd_chart(args: argparse.Namespace) -> int:
    if args.order is not None:
        _at_least("--order", args.order, 0)
    point = SuperPoint.from_json(_load(args.point))
    try:
        base = json.loads(args.base)
    except json.JSONDecodeError:
        base = None
    if base is None or not isinstance(base, list):
        base = _load(args.base).get("base")
    if not isinstance(base, list):
        raise SchemaError("base must be a JSON list of coordinates")
    base = [float_from_json(v) for v in base]

    probe = make_backend(args.geometry)
    if point.p % probe.m or point.p < probe.m:
        raise DimensionError(
            f"point has {point.p} even coordinates, not a multiple of base dimension {probe.m}"
        )
    backend = make_backend(args.geometry, bundle_rank=point.p // probe.m - 1)
    if len(base) != backend.m:
        raise SchemaError(f"base must have {backend.m} coordinates")
    if backend.kind == "sphere2":
        backend.check_point(base)
    fn = backend.superchart_pointwise_inv if args.inverse else backend.superchart_pointwise
    _emit(fn(base, point, k=args.order).to_json(), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _at_least("--cases", args.cases, 1)
    start = time.perf_counter()
    report = run_suite(args.suite, seed=args.seed, cases=args.cases, geometry=args.geometry)
    elapsed = time.perf_counter() - start
    print(f"suite {args.suite}: {elapsed:.3f}s", file=sys.stderr)
    _emit(report, args.out)
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
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--trials", type=int, default=8, help="probe trials per order check")
    p_dec.add_argument("--out", help="write result here instead of stdout")
    p_dec.set_defaults(fn=cmd_decompose)

    p_chart = sub.add_parser("chart", help="geometry chart of a Lambda-point near a base point")
    p_chart.add_argument("point", help="point JSON file")
    p_chart.add_argument(
        "--geometry", default="sphere2", help="'sphere2' or 'flat:m' (default sphere2)"
    )
    p_chart.add_argument(
        "--base",
        required=True,
        help="chart centre: inline JSON list or a file containing {\"base\": [...]}",
    )
    p_chart.add_argument(
        "--inverse", action="store_true", help="apply the inverse chart (model to geometry)"
    )
    p_chart.add_argument(
        "--order", type=int, default=None, metavar="K",
        help="jet truncation order (default: floor((n+q)/2))",
    )
    p_chart.add_argument("--out", help="write result here instead of stdout")
    p_chart.set_defaults(fn=cmd_chart)

    p_ver = sub.add_parser("verify", help="run a seeded property suite")
    p_ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cases", type=int, default=100)
    p_ver.add_argument("--geometry", default="sphere2", help="geometry suite backend")
    p_ver.add_argument("--out", help="write report here instead of stdout")
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

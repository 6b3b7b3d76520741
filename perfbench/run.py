#!/usr/bin/env python3
"""superjet benchmark: seeded closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload points --seed 1 --seconds 25 --trace 0

Runs one workload (``verify``, ``points`` or ``lift``; ``all`` runs each in
its own process) against the superjet sources in ``src/`` of the checkout
holding this file, and prints a table of metrics followed, as the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's functions and reports per-layer counts and self times instead.

Exit codes: 0 every answer checked out, 1 some request failed or was wrong,
2 the benchmark could not run (for example no superjet sources).
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 11
REFERENCE_INTERVAL_S = 0.05 # one reference sample per interval of wall time
REFERENCE_MARGIN_S = 0.25   # samples this close to a request normalize it
REFERENCE_NOMINAL_S = 0.0025  # one reference loop on the 2-vCPU host this was tuned on

sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ref", "ref"),
    ("latency_p90_ref", "ref"),
    ("requests_per_kref", "1/kref"),
    ("peak_rss_mb", "MiB"),
]
P99_MIN_SAMPLES = 1000      # ten samples beyond the 99th percentile

CALLS_AND_SELF = [
    "grassmann.mul", "grassmann.hom_apply",
    "polyalg.mul", "polyalg.poly_compose", "polyalg.derive", "polyalg.eval_scalar",
    "superfun.sf_substitute", "superfun.sf_eval", "superfun.mul",
    "morphism.pushforward", "morphism.morphism_compose", "morphism.eta_decompose",
    "morphism.order_bound_check",
    "jetcalc.exp_pair", "jetcalc.trunc_compose",
    "geometry.superchart_pointwise", "geometry.superchart_pointwise_inv",
    "mapspace.chart_transition_map", "mapspace.lambda_point_map_of",
    "mapspace.supersmooth_check", "mapspace.sc_functor_action",
]
SELF_ONLY = [f"suites.{s}" for s in
             ("grassmann", "superfun", "morphism", "jetcalc", "geometry", "mapspace")]
SELF_ONLY += ["cli.parse", "cli.emit"]


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in CALLS_AND_SELF:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name == "grassmann.mul":
            out.append(("grassmann.mul.zero_ratio", "share"))
        if name == "superfun.sf_substitute":
            out.append(("superfun.sf_substitute.distinct_ratio", "share"))
    out += [(f"{name}.self_s", "s") for name in SELF_ONLY]
    out += [("trace.overhead_ratio", "share")]
    return out


def load_superjet():
    """Import superjet afresh from this checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "superjet" or m.startswith("superjet.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    sj = importlib.import_module("superjet")
    if not os.path.abspath(sj.__file__).startswith(SRC + os.sep):
        raise ImportError(f"superjet was imported from {sj.__file__}, not from {SRC}")
    importlib.import_module("superjet.cli")
    return sj


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def set_up(cls, seed: int, tracer):
    """Import, construct and warm up SETUP_REPEATS times.

    Each set-up is divided by the mean of the reference loops timed just
    before and just after it.  ``setup_s`` is the median of these ratios in
    seconds at REFERENCE_NOMINAL_S per reference loop, so that the host's
    speed drift cancels out of it; the median raw time is returned as well.
    """
    warm = cls.warmup_requests()
    times, ratios = [], []
    for _ in range(SETUP_REPEATS):
        before = timed(reference_loop)
        start = time.perf_counter()
        sj = load_superjet()
        workload = cls(sj, tracer, seed, OUT_DIR)
        for text in warm:
            if not workload.check(text, workload.run(text)):
                raise RuntimeError(f"{cls.name} warm-up request failed its check")
        elapsed = time.perf_counter() - start
        after = timed(reference_loop)
        times.append(elapsed)
        ratios.append(elapsed / ((before + after) / 2))
    setup_s = statistics.median(ratios) * REFERENCE_NOMINAL_S
    return workload, setup_s, statistics.median(times)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def attempt(workload, text: str, tracer, traced: bool, clock=None):
    """One timed request and its untimed check: (latency, start, answer, ok).

    The latency leaves out the reference clock's samples taken during it.
    """
    spent = clock.spent if clock else 0.0
    tracer.enabled = traced
    start = time.perf_counter()
    try:
        answer, ok = workload.run(text), True
    except Exception:
        traceback.print_exc(file=sys.stderr)
        answer, ok = None, False
    latency = time.perf_counter() - start - ((clock.spent - spent) if clock else 0.0)
    tracer.enabled = False
    if ok:
        try:
            ok = workload.check(text, answer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
    return latency, start, answer, ok


def reference_loop() -> None:
    """Fixed stdlib work (Fraction arithmetic into a dict), about 2 ms here.

    It shares no code with superjet, so no change to the program moves it.
    """
    acc = {}
    for i in range(1, 300):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i + 1) * Fraction(3, i + 2)


class ReferenceClock:
    """Times reference_loop every REFERENCE_INTERVAL_S from a SIGALRM handler.

    The samples run between bytecodes of whatever is executing, including
    the middle of a 20-s ``verify all`` call, so every request has reference
    samples from the same stretch of time.  ``spent`` is the handler's total
    time, which is taken out of the request latencies.
    """

    def __init__(self):
        self.times = []         # start of each sample
        self.samples = []       # duration of each sample
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.times.append(start)
        self.samples.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self._tick(None, None)      # so that every run has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def near(self, start: float, end: float) -> float:
        """Harmonic mean of the samples within REFERENCE_MARGIN_S of [start, end].

        The host switches between a fast and a slow speed in phases of about
        a second, so a median snaps to one of the two; the harmonic mean
        weighs each sample interval by the work done in it, and a single
        interrupted sample barely moves it.  Falls back to every sample.
        """
        lo = bisect.bisect_left(self.times, start - REFERENCE_MARGIN_S)
        hi = bisect.bisect_right(self.times, end + REFERENCE_MARGIN_S)
        return statistics.harmonic_mean(self.samples[lo:hi] or self.samples)


def closed_loop(workload, seconds: float, tracer, traced: bool, clock=None):
    """Send requests one after another until `seconds` of wall time have passed.

    At least two requests are sent, so that ``verify`` compares two reports.
    A workload with ``fresh_import`` gets a newly imported superjet before
    every call after the first, untimed, as a new CLI process would.  In a
    traced run each request runs traced and then at once untraced, so both
    see the same host speed; the second answer must repeat the first byte
    for byte.  Returns each request's latency and start time, the untraced
    latencies of a traced run, and the number of requests that failed.
    """
    latencies, starts, replayed, failed = [], [], [], 0
    begin = time.perf_counter()
    for text in workload.requests(traced):
        tracer.request = len(latencies) + 1
        if workload.fresh_import and latencies:
            workload.sj = load_superjet()
        if traced:
            tracer.install(workload.sj)
        latency, start, answer, ok = attempt(workload, text, tracer, traced, clock)
        latencies.append(latency)
        starts.append(start)
        if traced:
            tracer.uninstall()
            if workload.fresh_import:
                workload.sj = load_superjet()
            again_latency, _, again, again_ok = attempt(workload, text, tracer, False)
            replayed.append(again_latency)
            if ok and not (again_ok and again == answer):
                ok = False
                print(f"untraced replay gave a different answer: {text[:200]}", file=sys.stderr)
        if not ok:
            failed += 1
            print(f"request {len(latencies)} failed its check: {text[:200]}", file=sys.stderr)
        if len(latencies) >= 2 and time.perf_counter() - begin >= seconds:
            break
    return latencies, starts, replayed, failed


def end_to_end(name: str, setup_s: float, latencies: list, starts: list, clock, failed: int):
    """Gated metrics (timings in reference-loop units) and the table-only ones."""
    ms = [t * 1e3 for t in latencies]
    ref = [t / clock.near(s, s + t) for t, s in zip(latencies, starts)]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ref": percentile(ref, 0.5),
        "latency_p90_ref": percentile(ref, 0.9),
        "requests_per_kref": 1e3 * len(ref) / sum(ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    table = {
        "reference_ms": (1e3 * statistics.median(clock.samples), "ms"),
        "verdict_s": (percentile(latencies, 0.5), "s") if name == "verify" else None,
        "latency_p50_ms": (percentile(ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(ms, 0.9), "ms"),
        "latency_p99_ms": (percentile(ms, 0.99), "ms") if len(ms) >= P99_MIN_SAMPLES else None,
        "requests_per_s": (len(ms) / sum(latencies), "1/s"),
        "failed_ratio": (failed / len(ms), "share"),
    }
    return metrics, table


def per_layer(tracer, traced_s: float, untraced_s: float) -> dict:
    metrics = {}
    for name, _unit in per_layer_names():
        base, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = tracer.calls(base)
        elif field == "self_s":
            metrics[name] = tracer.self_s(base)
    products = tracer.calls("grassmann.mul")
    metrics["grassmann.mul.zero_ratio"] = tracer.zero_products / products if products else 0.0
    subs = tracer.calls("superfun.sf_substitute")
    metrics["superfun.sf_substitute.distinct_ratio"] = (
        len(tracer.substitute_keys) / subs if subs else 0.0)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    return metrics


def print_layer_table(tracer, traced_s: float, untraced_s: float) -> None:
    """Calls, self time and share of the traced requests' wall time, by layer."""
    print(f"{'layer / function':40s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
    layers = {}
    for name, (calls, self_s) in sorted(tracer.stats.items()):
        layer = name.split(".")[0]
        layers.setdefault(layer, [0, 0.0])
        layers[layer][0] += calls
        layers[layer][1] += self_s
        print(f"  {name:38s} {calls:10d} {self_s:10.4f} {self_s / traced_s:7.1%}")
    for layer, (calls, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        print(f"{layer:40s} {calls:10d} {self_s:10.4f} {self_s / traced_s:7.1%}")
    outside = traced_s - sum(s for _, s in layers.values())
    print(f"{'(outside wrapped functions)':40s} {'':10s} {outside:10.4f} {outside / traced_s:7.1%}")
    overhead = traced_s - untraced_s
    print(f"{'(tracing overhead)':40s} {'':10s} {overhead:10.4f} {overhead / untraced_s:7.1%}"
          "  of the untraced replay")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    cls = workloads.WORKLOADS[name]
    tracer = layertrace.Tracer()
    workload, setup_s, setup_raw_s = set_up(cls, seed, tracer)
    if traced:
        latencies, _, replayed, failed = closed_loop(workload, seconds, tracer, True)
    else:
        with ReferenceClock() as clock:
            latencies, starts, _, failed = closed_loop(workload, seconds, tracer, False, clock)

    print(f"workload {name}  seed {seed}  python {platform.python_version()}  "
          f"cpus {os.cpu_count()}  requests {len(latencies)}  failed {failed}  "
          f"trace {int(traced)}")
    if traced:
        traced_s, untraced_s = sum(latencies), sum(replayed)
        print_layer_table(tracer, traced_s, untraced_s)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}, "
              f"{tracer.spans_dropped} past the cap counted only")
        values = per_layer(tracer, traced_s, untraced_s)
        metrics = {m: {"value": values[m], "unit": u} for m, u in per_layer_names()}
    else:
        values, table = end_to_end(name, setup_s, latencies, starts, clock, failed)
        table["setup_raw_s"] = (setup_raw_s, "s")
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        for metric, unit in END_TO_END:
            print(f"  {metric:18s} {values[metric]:14.4f} {unit}")
        for metric, shown in table.items():
            if shown is None:
                print(f"  {metric:18s} {'n/a':>14s}")
            else:
                print(f"  {metric:18s} {shown[0]:14.4f} {shown[1]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(latencies), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so memory and imports do not mix."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode == 2 or not lines:
            return 2
        results[name] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_superjet()
    except ImportError as exc:
        print(f"error: cannot import superjet from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

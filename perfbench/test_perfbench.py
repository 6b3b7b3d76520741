"""Checks on the benchmark itself: seeded inputs, verify determinism, metric names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _encoded(workload: str, seed: int, count: int = 48) -> list:
    cls = workloads.WORKLOADS[workload]
    stream = cls(run.load_superjet(), None, seed, HERE).requests()
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert _encoded(workload, 7) == _encoded(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_inputs(workload):
    assert _encoded(workload, 7) != _encoded(workload, 8)


@pytest.mark.parametrize("kinds", [corpus.POINTS_KINDS, corpus.LIFT_KINDS])
def test_every_block_deals_every_kind_once(kinds):
    dealt = list(itertools.islice(corpus._dealt(random.Random(3), kinds), 2 * len(kinds)))
    assert sorted(dealt[:len(kinds)]) == sorted(kinds) == sorted(dealt[len(kinds):])


def test_reference_product_follows_the_sign_rule():
    t1, t2 = {(1,): Fraction(1)}, {(2,): Fraction(3)}
    assert corpus.grassmann_product(t1, t2) == {(1, 2): Fraction(3)}
    assert corpus.grassmann_product(t2, t1) == {(1, 2): Fraction(-3)}
    odd = {(1,): Fraction(1), (2,): Fraction(1)}
    assert corpus.grassmann_product(odd, odd) == {}
    even = {(): Fraction(2), (1, 3): Fraction(1)}
    assert corpus.grassmann_product(even, even) == {(): Fraction(4), (1, 3): Fraction(4)}


def _points_request(kind: str, pred) -> tuple:
    points = workloads.Points(run.load_superjet(), run.layertrace.Tracer(), 5, HERE)
    for text in points.requests():
        req = json.loads(text)
        if req["kind"] == kind and pred(req):
            return points, text


def test_chart_check_rejects_a_round_trip_that_drops_odd_coordinates():
    points, text = _points_request("chart", lambda r: r["point"]["odd"])
    answer = points.run(text)
    assert points.check(text, answer)
    out = json.loads(answer)
    out["roundtrip"]["odd"] = []
    assert not points.check(text, json.dumps(out))


def test_eval_check_rejects_a_wrong_answer():
    points, text = _points_request("eval", lambda r: r["n"] == 8)
    answer = points.run(text)
    assert points.check(text, answer)
    out = json.loads(answer)
    out["even"][0]["terms"][0]["num"] = str(int(out["even"][0]["terms"][0]["num"]) + 1)
    assert not points.check(text, json.dumps(out))


def test_eval_check_catches_a_product_sign_bug_shared_with_the_oracle(monkeypatch):
    points, text = _points_request("eval", lambda r: r["n"] == 8 and r["point"]["odd"])
    monkeypatch.setattr(points.sj.grassmann, "merge_sign", lambda a, b: 1)
    assert not points.check(text, points.run(text))


def test_two_verify_runs_of_one_seed_write_identical_reports(tmp_path):
    sj = run.load_superjet()
    verify = workloads.Verify(sj, run.layertrace.Tracer(), 0, str(tmp_path))
    text = json.dumps({"suite": "all", "seed": "11", "cases": 5}, sort_keys=True)
    first, second = verify.run(text), verify.run(text)
    assert first[0] == 0 and first[1] == second[1]
    assert verify.check(text, first) and verify.check(text, second)


def _result(*args) -> tuple:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    code, lines = _result("--workload", "lift", "--seed", "1", "--seconds", "0.5",
                          "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_without_superjet_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "points",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170,
                          check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

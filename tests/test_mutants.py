"""The mutation catalog stays applicable: each entry's text is still in the source.

The sweep itself (`python mutants/run.py`) runs verify once per mutant and
seed, so it stays outside the tests; this checks that no entry has gone
stale in silence, and, with verify stubbed, how the runner judges a kill.
The contraction kernel's newest entries and the descending-order sign also
run through the sweep's own copy and verify call, at one seed.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import superjet

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(superjet.__file__).parent


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "mutants" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


catalog = load("catalog")


def test_mutant_names_are_unique_and_expectations_are_stated():
    names = [entry[0] for entry in catalog.MUTANTS]
    assert len(names) == len(set(names)) >= 16
    for name, _, _, _, expect in catalog.MUTANTS:
        assert expect == "killed" or expect.startswith("equivalent: "), name


@pytest.mark.parametrize("entry", catalog.MUTANTS, ids=[entry[0] for entry in catalog.MUTANTS])
def test_each_mutant_applies_once_and_still_parses(entry):
    _, file, old, new, _ = entry
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert sum(text.count(old) for text in sources.values()) == 1
    assert sources[file].count(old) == 1
    assert old != new
    ast.parse(sources[file].replace(old, new))


def test_a_kill_counts_only_when_every_seed_fails_a_law(monkeypatch):
    monkeypatch.setitem(sys.modules, "catalog", catalog)     # what run.py imports
    runner = load("run")
    name, *_, expect = entry = next(e for e in catalog.MUTANTS if e[-1] == "killed")
    first, second = runner.SEEDS
    killers = {first: {"geometry/fd": 2, "geometry/chart": 1}, second: {"geometry/fd": 2}}
    monkeypatch.setattr(runner, "verify", lambda src, seed: killers[seed])
    # each law with its failed-case count, laws sorted, per seed when they differ
    assert runner.sweep(entry) == (
        f"{name}: seed {first}: geometry/chart:1 geometry/fd:2; seed {second}: geometry/fd:2",
        True)

    killers[first] = {"geometry/fd": 2}
    assert runner.sweep(entry) == (f"{name}: geometry/fd:2", True)

    killers[second] = {"geometry/fd": 3}
    assert runner.sweep(entry) == (
        f"{name}: seed {first}: geometry/fd:2; seed {second}: geometry/fd:3", True)

    killers[second] = {}
    assert runner.sweep(entry) == (
        f"{name}: seed {first}: geometry/fd:2; seed {second}: survived  unexpected ({expect})",
        False)


def test_named_entries_alone_are_swept_after_the_control_run(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "catalog", catalog)
    runner = load("run")
    first, second = catalog.MUTANTS[1], catalog.MUTANTS[4]
    runs = []

    def stub(src, seed):
        # which entry this copy holds, None for the unmutated control copy
        texts = {e[1]: (src / "superjet" / e[1]).read_text(encoding="utf-8")
                 for e in (first, second)}
        held = [e[0] for e in (first, second) if e[3] in texts[e[1]] and e[2] not in texts[e[1]]]
        runs.append((held[0] if held else None, seed))
        return {"law/x": 1} if held else {}

    monkeypatch.setattr(runner, "verify", stub)
    # given out of catalog order, swept in it
    assert runner.main([second[0], first[0]]) == 0
    assert runs == [(None, seed) for seed in runner.SEEDS] + [
        (name, seed) for name in (first[0], second[0]) for seed in runner.SEEDS]
    assert capsys.readouterr().out.splitlines() == [f"{first[0]}: law/x:1",
                                                    f"{second[0]}: law/x:1"]

    runs.clear()
    assert runner.main([first[0], "no-such-mutant"]) == 2
    assert runs == []
    assert capsys.readouterr().err == "unknown mutant: no-such-mutant\n"


def test_verify_counts_the_failed_cases_of_each_law(monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "catalog", catalog)
    runner = load("run")
    report = {"failures": [{"id": "jetcalc/shift-0003"}, {"id": "jetcalc/shift-0007"},
                           {"id": "superfun/canonical-0000"}, {"id": "morphism/sharp-hi0001"}]}
    done = subprocess.CompletedProcess([], 1, stdout=json.dumps(report), stderr="")
    monkeypatch.setattr(runner.subprocess, "run", lambda *args, **kwargs: done)
    assert runner.verify(tmp_path, 0) == {"jetcalc/shift": 2, "superfun/canonical": 1,
                                          "morphism/sharp": 1}
    done.returncode = 2
    assert runner.verify(tmp_path, 0) is None


@pytest.mark.parametrize("name, law", [
    ("contract-reach-one-short", "superfun/oracle"),
    ("coordinate-pullback-first-odd-slot", "mapspace/shearinv"),
    ("merge-sign-descending", "grassmann/hom"),
])
def test_a_contraction_or_sign_mutant_fails_its_law(monkeypatch, tmp_path, name, law):
    # the sweep's own copy and verify run, at one seed
    monkeypatch.setitem(sys.modules, "catalog", catalog)
    runner = load("run")
    _, file, old, new, _ = next(e for e in catalog.MUTANTS if e[0] == name)
    src = runner.copy_src(str(tmp_path))
    path = src / "superjet" / file
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    assert law in runner.verify(src, runner.SEEDS[0])

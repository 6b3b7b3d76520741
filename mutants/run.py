"""Mutation sweep: does `superjet verify all` fail on each one-line source mutant?

The runner first runs verify on an unmutated copy of src/ at every seed and
stops if any of those runs fails, so a kill below is never a failure the
parent already had.  Then, for each entry of `catalog.MUTANTS`, it copies
src/ to a temporary directory, applies the one replacement, and runs

    python -m superjet.cli verify all --seed S --cases 100

in a subprocess for seeds 0 and 42.  It prints one line per mutant: each law
that failed (the case ids without their running number) with its count of
failed cases, as `jetcalc/shift:3`, "survived" when every seed passed, or
"crashed" when a run exited with neither 0 nor 1, wrote no report, or ran past
the timeout.  When the seeds' failures differ, in laws or in counts, the line
lists them per seed.  A "killed" entry holds only when every seed fails
some law, an "equivalent" one only when every seed passes.  A line ends in
"unexpected" when the outcome contradicts the entry's `expect`; a crash is
always unexpected, since verify reports a law that raises as a failed case.
The exit code is then 1.

Stdlib only.  Run from anywhere:

    python mutants/run.py [NAME ...]

With names, only those entries are swept, in catalog order, after the same
control run; a name the catalog lacks exits 2 before any run.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from catalog import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 42)
CASES = 100
TIMEOUT_S = 600     # one verify run takes seconds; a mutant that loops must not hang the sweep


def law_id(case_id: str) -> str:
    return re.sub(r"-(hi)?\d+$", "", case_id)


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def verify(src: Path, seed: int):
    """{law id: failed cases} of one run, or None when it crashed or timed out."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "superjet.cli", "verify", "all", "--seed", str(seed),
             "--cases", str(CASES)],
            capture_output=True, text=True, env=env, cwd=src, check=False, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode not in (0, 1):
        return None
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None
    return Counter(law_id(f["id"]) for f in report["failures"])


def sweep(entry) -> tuple[str, bool]:
    """(outcome line, whether it matches the entry's expectation)."""
    name, file, old, new, expect = entry
    with tempfile.TemporaryDirectory(prefix="superjet-mutant-") as tmp:
        src = copy_src(tmp)
        path = src / "superjet" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"{name}: stale entry, old text occurs {text.count(old)} times in {file}", False
        path.write_text(text.replace(old, new), encoding="utf-8")
        runs = [verify(src, seed) for seed in SEEDS]
    if any(run is None for run in runs):
        return f"{name}: crashed  unexpected ({expect})", False
    ok = all(runs) if expect == "killed" else not any(runs)
    named = [" ".join(f"{law}:{run[law]}" for law in sorted(run)) or "survived"
             for run in runs]
    if len(set(named)) == 1:
        outcome = named[0]
    else:
        outcome = "; ".join(f"seed {seed}: {laws}" for seed, laws in zip(SEEDS, named))
    return f"{name}: {outcome}" + ("" if ok else f"  unexpected ({expect})"), ok


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {entry[0] for entry in MUTANTS})
    if unknown:
        print(f"unknown mutant: {' '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="superjet-control-") as tmp:
        src = copy_src(tmp)
        for seed in SEEDS:
            failed = verify(src, seed)
            if failed is None or failed:
                print(f"unmutated source does not pass at seed {seed}: "
                      f"{'crashed' if failed is None else ' '.join(sorted(failed))}")
                return 1
    all_ok = True
    for entry in MUTANTS:
        if names and entry[0] not in names:
            continue
        line, ok = sweep(entry)
        print(line, flush=True)
        all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

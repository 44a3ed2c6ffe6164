"""Smoke test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks the chain families' closed-form winners against the explicit
oracle, runs every workload at minimal size untraced and traced, checks
that each metric named in BENCHMARK.json is printed, that the exact
counts repeat, that a flipped verdict fails the run, and that the command
fails without a result when the program is missing.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import families as fam  # noqa: E402
import run  # noqa: E402
from pawngames import AllConfigurations, Mechanism  # noqa: E402


def check_closed_forms() -> None:
    """Every escape set on chains of up to 4 vertices, each start pawn
    set and budget, plus random owner maps for the shared-pawn kinds."""
    for length in range(1, 5):
        pawns = list(range(length + 2))
        for size in range(length + 1):
            for escapes in map(frozenset,
                               itertools.combinations(range(length), size)):
                optional, _ = fam.escape_chain(
                    length, escapes, pawns, len(pawns), Mechanism.optional(),
                    frozenset())
                kgrab, _ = fam.escape_chain(
                    length, escapes, pawns, len(pawns),
                    Mechanism.k_grabbing(2), frozenset(), 0)
                opt_oracle = AllConfigurations(optional)
                k_oracle = AllConfigurations(kgrab)
                for mask in range(1 << len(pawns)):
                    p1 = frozenset(j for j in pawns if mask >> j & 1)
                    assert opt_oracle.winner(0, p1) == fam.optional_winner(
                        escapes, p1), (length, escapes, p1)
                    for grabs in range(3):
                        assert k_oracle.winner(0, p1, grabs) == \
                            fam.kgrab_winner(escapes, pawns, p1, grabs)
    rng = random.Random(0)
    for _ in range(100):
        length, d = rng.randint(2, 5), rng.randint(2, 4)
        escapes = fam._escapes(rng, length)
        owner = fam._partition_owner(rng, length + 2, d)
        gog, _ = fam.escape_chain(length, escapes, owner, d,
                                  Mechanism.grab_or_give(), frozenset())
        kgrab, _ = fam.escape_chain(length, escapes, owner, d,
                                    Mechanism.k_grabbing(1), frozenset(), 0)
        gog_oracle, k_oracle = AllConfigurations(gog), AllConfigurations(kgrab)
        for mask in range(1 << d):
            p1 = frozenset(j for j in range(d) if mask >> j & 1)
            first = 1 if owner[0] in p1 else 2
            assert gog_oracle.winner(0, p1) == fam.gog_winner(escapes, first)
            for grabs in range(2):
                assert k_oracle.winner(0, p1, grabs) == fam.kgrab_winner(
                    escapes, owner, p1, grabs)


def quiet_bench(*args, **kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code, result = run.bench(*args, **kwargs)
    return code, result, out.getvalue()


def check_workloads(spec: dict) -> None:
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        names = [metric["name"] for metric in spec[kind]]
        units = {metric["name"]: metric["unit"] for metric in spec[kind]}
        for workload in run.WORKLOADS:
            for _ in range(2 if trace else 1):  # the second compares counts
                code, result, printed = quiet_bench(workload, 7, 0.01, trace,
                                                    small=True)
                assert code == 0 and result["correct"], (workload, printed)
                assert result["failed"] == 0 and result["attempted"] >= 1
                assert sorted(result["metrics"]) == sorted(names), workload
                for name, metric in result["metrics"].items():
                    assert metric["unit"] == units[name], name
                    assert f"\n{name} " in printed, (workload, name)
            assert "failed_frac" in printed, workload


def check_flipped_verdict() -> None:
    for workload in run.WORKLOADS:
        code, result, _ = quiet_bench(workload, 7, 0.01, False, small=True,
                                      flip=True)
        assert code == 1 and not result["correct"], workload


def check_missing_program() -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "poly-dispatch", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_closed_forms()
    check_workloads(spec)
    check_flipped_verdict()
    check_missing_program()
    print("selftest: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())

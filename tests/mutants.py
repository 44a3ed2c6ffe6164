"""Mutation gate for the exact routes, the polynomial solvers and the
referees: each mutant must be killed.

A mutant is ``(file, old, new, tests)``: replace the one occurrence of
``old`` in ``file`` with ``new`` in a throwaway copy of ``src`` and
``tests``, then run the named tests there; at least one must fail.  A
mutant whose ``old`` text no longer occurs is stale and fails the gate, so
the list follows the code.  ``EQUIVALENT`` lists mutants that no test can
kill, each with the evidence that no answer, count, witness or reduction
output changes; they are not run.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = "src/pawngames/oracle.py"
REFEREE = "src/pawngames/crossval.py"
LOCKKEY = "src/pawngames/lockkey.py"
SWEEP = "tests/test_oracle.py::test_rooted_lazy_path_matches_the_sweep"
PLANTED = "tests/test_witness.py::test_referee_rejects_every_planted_fault"
PINS = [
    "tests/test_oracle.py::test_reduce_expand_output_is_pinned",
    "tests/test_oracle.py::test_lazy_solve_and_witness_are_pinned",
]
WITNESSES = [
    "tests/test_witness.py::test_winning_witnesses_reach_a_target_legally",
    "tests/test_exact_property.py",
]
SWEPT = ["tests/test_witness.py::test_swept_witnesses_are_pinned"]
NINE = ("tests/test_kgrab_dfs.py::"
        "test_a_nine_variable_formula_game_matches_its_truth")
JIT_WORK = [NINE, "tests/test_kgrab_dfs.py::"
            "test_search_work_on_a_set_cover_instance_is_pinned"]
SMALL_KGRAB = ("tests/test_kgrab_dfs.py::"
               "test_search_matches_the_sweep_on_every_small_game")
RESTRICTED = [
    "tests/test_oracle.py::"
    "test_restriction_matches_the_full_sweep_on_every_small_game",
    "tests/test_exact_property.py::"
    "test_restricted_route_matches_the_unrestricted_sweep",
]

MUTANTS = [
    # _expand: the intermediate's chooser taken as the mover
    (ORACLE, "chooser = 1 if kgrab else 3 - sg.side[sid]",
     "chooser = 1 if kgrab else sg.side[sid]", PINS),
    # _expand: target configurations expanded
    (ORACLE, "if faithful or not tgt:", "if True:", PINS),
    # _expand: no projection of dead pawn bits
    (ORACLE, "return ((pmask & live[v]) * n + v) * span + r",
     "return (pmask * n + v) * span + r", PINS),
    # _expand: one key span for every grab budget, so k-grabbing
    # configurations that differ only in grabs left share a state
    (ORACLE, "span = g.mechanism.k + 1 if kgrab else 1", "span = 1",
     [SWEEP]),
    # _expand: hopeless vertices not collapsed into the loss sink
    (ORACLE, "        if v in hopeful:\n            return (",
     "        if True:\n            return (", PINS),
    # _expand: k-grabbing exchanges chosen by the player who did not move
    (ORACLE, "chooser = 1 if kgrab else 3 - sg.side[sid]",
     "chooser = 3 - sg.side[sid]", [SWEEP]),
    # _play: Player 1 picks the highest rank
    (ORACLE, "return (min if player == 1 else max)",
     "return (max if player == 1 else min)", WITNESSES),
    # _play: Player 2 prefers options inside Player 1's region
    (ORACLE, "return level is None, level", "return level is not None, level",
     WITNESSES),
    # _play: the exchange after a move chosen by the mover
    (ORACLE, "chooser = 1 if kgrab else 3 - mover",
     "chooser = 1 if kgrab else mover", WITNESSES),
    # attract: Player 2's vertices attracted on one successor in the region
    ("src/pawngames/turnbased.py", "if side[u] == 1:", "if True:", [SWEEP]),
    # the sweep: mover and non-mover swap their successor gates
    (ORACLE, "w = (m & some) | (every & ~m)", "w = (m & every) | (some & ~m)",
     [SWEEP]),
    # the sweep's witness: a stamp read off the last change, not the first
    # that wins the configuration
    (ORACLE, "return s, entries[lo][0]", "return s, entries[-1][0]", SWEPT),
    # the sweep's witness: targets ranked after every change
    (ORACLE, "[(0, full)] if u in g.targets",
     "[(len(log) + 1, full)] if u in g.targets", SWEPT),
    # the sweep's witness: stamps read off the top grab layers' logs
    (ORACLE, "for log in self._logs[:layers]:",
     "for log in self._logs[-layers:]:", SWEPT),
    # live masks: reachability passes through targets and hopeless vertices
    (ORACLE, "succ = [g.succ[v] if interior[v] else () for v in range(n)]",
     "succ = [g.succ[v] for v in range(n)]",
     ["tests/test_live_masks_property.py"]),
    # alg1: the initial vertex on the border wins whoever controls it
    ("src/pawngames/optional_grabbing.py", "if in_b[v0] and v0 in p0:",
     "if in_b[v0]:", ["tests/test_alg1_property.py"]),
    # eta: the rooted query stops one budget layer early
    ("src/pawngames/kgrab_ovpp.py", "if now == won or r == stop:",
     "if now == won or r + 1 == stop:",
     ["tests/test_kgrab_ovpp.py::test_winner_queries_respect_the_budget",
      "tests/test_eta_property.py"]),
    # grab-or-give: the mover picks the next controller
    ("src/pawngames/grab_or_give.py", "inter = (1 + (3 - i)) * n + u",
     "inter = (1 + i) * n + u", ["tests/test_grab_or_give_property.py"]),
    # check_play: a truncated Player 2 play accepted
    (REFEREE, 'if winner == 2 and steps[-1:] != [("cycle",)]:', "if False:",
     [PLANTED]),
    # check_play: a cycle that closes on no earlier configuration accepted
    (REFEREE, "if (v, frozenset(pawns), grabs) not in earlier:", "if False:",
     [PLANTED]),
    # just-in-time grabs: a grab offered even where Player 1 controls the
    # vertex just entered; no winner changes, only the lazy states
    (ORACLE, "return lambda u, p: 0 if omask[u] & p else omask[u] & live[u]",
     "return lambda u, p: omask[u] & live[u]", JIT_WORK),
    # just-in-time grabs: any live pawn offered, not only the vertex's
    # owners; no winner changes, only the lazy states
    (ORACLE, "return lambda u, p: 0 if omask[u] & p else omask[u] & live[u]",
     "return lambda u, p: 0 if omask[u] & p else live[u]", JIT_WORK),
    # just-in-time grabs: a grab offered only where Player 1 already
    # controls the vertex just entered
    (ORACLE, "return lambda u, p: 0 if omask[u] & p else omask[u] & live[u]",
     "return lambda u, p: omask[u] & live[u] if omask[u] & p else 0",
     [SMALL_KGRAB]),
    # witness_play: the lazy k-grabbing walk offered every live pawn, not
    # the expansion's just-in-time grabs
    (ORACLE, "sg = _StateGraph(jit or (lambda u, p: live[u]),",
     "sg = _StateGraph(lambda u, p: live[u],", JIT_WORK),
    # the cone's lazy k-grabbing witness offered the sweep walk's pawns,
    # not the expansion's just-in-time grabs
    (ORACLE, 'if self.route == "lazy" and g.mechanism.rule is',
     'if False and g.mechanism.rule is', [NINE]),
    # the cone's lazy k-grabbing witness offered grabs on a target
    (ORACLE, "0 if w is None or w == goal else omask[u]",
     "0 if w is None else omask[u]",
     ["tests/test_kgrab_dfs.py::"
      "test_the_lazy_witness_grabs_no_owner_of_a_target"]),
    # the cone: pawns projected under always-grabbing and grab-or-give
    (ORACLE, "if c.vertex in targets or g.mechanism.rule in (",
     "if True or g.mechanism.rule in (", RESTRICTED),
    # the cone: a hopeless successor sent to the merged target
    (ORACLE, "edges.add((i, sink if w is None else w))",
     "edges.add((i, goal if w is None else w))", RESTRICTED),
    # the cone: the root's own owner pawns dropped from the live set
    (ORACLE, "pawns = sorted(set().union(*owners))",
     "pawns = sorted(set().union(*(own for v, own in zip(kept, owners)"
     " if v != c.vertex)))", RESTRICTED),
    # the cone's witness: no dead pawn offered, so no k-grab spends a grab
    # on one where the unrestricted witness does
    (ORACLE, "return live | dead if dead >> g.d == 0 else live",
     "return live", SWEPT),
    # tb_to_optional: each player's escape edge leads to the other's goal
    (LOCKKEY, "edges.add((v, sink) if v in tb.p1_vertices else (v, goal))",
     "edges.add((v, goal) if v in tb.p1_vertices else (v, sink))",
     ["tests/test_lockkey.py::"
      "test_embedding_matches_turnbased_winner_on_random_games",
      "tests/test_lockkey.py::"
      "test_embedding_matches_turnbased_winner_on_every_small_game"]),
    # the lock gadget: the w3 escape leads to the goal, not the sink
    (LOCKKEY, "(v3, vout), (v3, s)", "(v3, vout), (v3, t)",
     ["tests/test_lockkey.py::test_gadget_behavior_matches_the_lock_semantics"]),
    # expand_lockkey: one state more than the budget's words built
    (LOCKKEY, "if (sid + 1) * words > budget:",
     "if sid * words > budget:",
     ["tests/test_lockkey.py::test_lock_budget_is_enforced"]),
]

EQUIVALENT = [
    # _expand: breadth-first in place of depth-first.  The same states and
    # edges are built under other ids; attractor stages do not depend on
    # ids, and `reduce expand` sorts states by descriptor.  Winners,
    # num_states, witness plays and `reduce expand` bytes were identical on
    # 4,800 seeded games (optional, always, grab-or-give and 1-grabbing x
    # MVPP/OMVPP/OVPP x seeds 0-399).
    (ORACLE, "sid = work.pop()", "sid = work.pop(0)"),
    # _expand: the loss sink owned by Player 2.  Its one successor is
    # itself, so neither player's attractor ever adds it; the same
    # 4,800-game sample was identical.
    (ORACLE, 'sg.add(("loss",), 1, False)', 'sg.add(("loss",), 2, False)'),
]


def pytest_code(tests: list[str], mutant: tuple[str, str, str] | None) -> int:
    """pytest's exit code for ``tests`` on a throwaway copy of ``src`` and
    ``tests``, with ``mutant = (file, old, new)`` applied when given."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            file, old, new = mutant
            path = Path(tmp) / file
            path.write_text(path.read_text().replace(old, new))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            cwd=tmp, env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main() -> int:
    for file, old, *_ in MUTANTS + EQUIVALENT:
        if (ROOT / file).read_text().count(old) != 1:
            raise SystemExit(f"stale mutant in {file}: {old!r}")
    named = sorted({t for *_, tests in MUTANTS for t in tests})
    if pytest_code(named, None) != 0:
        raise SystemExit("the named tests fail without a mutant")
    survivors = 0
    for file, old, new, tests in MUTANTS:
        ok = pytest_code(tests, (file, old, new)) == 1
        survivors += not ok
        print("killed  " if ok else "SURVIVED", f"{old!r} -> {new!r}")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} killed, "
          f"{len(EQUIVALENT)} listed as equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

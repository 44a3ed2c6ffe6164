"""Polynomial-time solver for one-vertex-per-pawn optional-grabbing games.

The algorithm grows a set ``W`` of vertices from which Player 1 wins no
matter who moves into them, interleaving three absorption rules:

* closure: vertices all of whose successors lie in ``W``;
* ``B'``: border vertices whose every successor is in the border or ``W``
  (if the opponent dodges the region she lands in the border, where the
  moved-to vertex can be grabbed);
* ``R \\ P0``: vertices whose every successor leads into the border and
  which Player 2 controls initially, so she is eventually forced to step
  into the border herself.

Player 1 additionally wins immediately when the initial vertex sits on the
border and he controls its pawn.  In OVPP games pawns are identified with
the vertex they own, so the initial pawn set is treated as a vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SolverPreconditionError
from .model import (
    Configuration,
    GrabRule,
    OwnershipKind,
    PawnGame,
    classify,
    validate_configuration,
)


@dataclass
class LevelTrace:
    """One absorption round: its rule and the vertices it added to ``W``.

    ``initial-on-border`` ends the solve without absorbing anything, so its
    ``added`` is empty."""

    rule: str
    added: frozenset[int] = frozenset()


@dataclass
class OptionalGrabbingResult:
    winner: int
    trace: list[LevelTrace] = field(default_factory=list)


def solve_ovpp_optional(g: PawnGame, c: Configuration) -> OptionalGrabbingResult:
    """Decide the winner of an OVPP optional-grabbing game from ``c``.

    Runs in time linear in the size of the game.  Each vertex keeps three
    counters of its successors: those outside ``W``, outside ``B | W`` and
    outside ``B``, where the border ``B`` is the set of vertices not in
    ``W`` with a successor in ``W``.  Absorbing a vertex updates only its
    predecessors (and theirs, when a predecessor joins the border), so the
    candidates of every rule are known without rescanning the graph (the
    counter technique of Liu & Smolka, "Simple linear-time algorithms for
    minimal fixed points", ICALP 1998).
    """
    if g.mechanism.rule is not GrabRule.OPTIONAL:
        raise SolverPreconditionError("solver handles optional-grabbing only")
    if classify(g) is not OwnershipKind.OVPP:
        raise SolverPreconditionError("solver handles one-vertex-per-pawn only")
    validate_configuration(g, c)

    v0 = c.vertex
    targets = frozenset(g.targets)
    if v0 in targets:
        return OptionalGrabbingResult(1, [LevelTrace("targets", targets)])

    n = g.n
    p0 = {v for v in range(n) if g.owners[v] & c.p1_pawns}

    pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        pred[v].append(u)
    out_w = [len(s) for s in g.succ]  # successors outside W
    out_bw = list(out_w)              # successors outside B | W
    out_b = list(out_w)               # successors outside B
    in_w = [False] * n
    in_b = [False] * n
    closable: set[int] = set()   # not in W, every successor in W
    bclosable: set[int] = set()  # in B, every successor in B | W
    forceable: set[int] = set()  # not in W or p0, every successor in B

    def absorb(u: int) -> None:
        in_w[u] = True
        closable.discard(u)
        forceable.discard(u)
        if in_b[u]:
            # u moves from B to W: B | W is unchanged, B loses u
            in_b[u] = False
            bclosable.discard(u)
            for p in pred[u]:
                out_b[p] += 1
                forceable.discard(p)
        else:
            for p in pred[u]:
                out_bw[p] -= 1
                if out_bw[p] == 0 and in_b[p]:
                    bclosable.add(p)
        for p in pred[u]:
            out_w[p] -= 1
            if in_w[p]:
                continue
            if out_w[p] == 0:
                closable.add(p)
            if not in_b[p]:
                # p now has a successor in W, so it joins B (and B | W)
                in_b[p] = True
                if out_bw[p] == 0:
                    bclosable.add(p)
                for q in pred[p]:
                    out_bw[q] -= 1
                    if out_bw[q] == 0 and in_b[q]:
                        bclosable.add(q)
                    out_b[q] -= 1
                    if out_b[q] == 0 and not in_w[q] and q not in p0:
                        forceable.add(q)

    trace: list[LevelTrace] = []

    def absorb_round(rule: str, added: frozenset[int]) -> None:
        # ``added`` is a snapshot, so a vertex that becomes a candidate
        # while it is absorbed waits for the next round
        for u in added:
            absorb(u)
        trace.append(LevelTrace(rule, added))

    absorb_round("targets", targets)
    while True:
        if in_w[v0]:
            return OptionalGrabbingResult(1, trace)
        if closable:
            absorb_round("closure", frozenset(closable))
            continue
        if in_b[v0] and v0 in p0:
            trace.append(LevelTrace("initial-on-border"))
            return OptionalGrabbingResult(1, trace)
        if bclosable:
            absorb_round("border-closed", frozenset(bclosable))
            continue
        if forceable:
            absorb_round("forced", frozenset(forceable))
            continue
        return OptionalGrabbingResult(2, trace)

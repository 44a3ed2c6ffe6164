"""Minimum-grab computation for one-vertex-per-pawn k-grabbing games.

Relative to a fixed initial pawn set, ``minimum_grabs`` labels every vertex
with the least number of grabs Player 1 needs to win from it.

The construction works on a small product game over states
``(vertex, controls-current-vertex, grabs-left)``.  Grabs can be normalized
to always take the pawn of the vertex the token just moved to: deferring a
grab to the arrival moment never hurts, and a pawn grabbed at an earlier
visit can be re-grabbed on demand within the same budget, so the product
game decides exactly the configurations ``(v, P0, r)``.  One attractor
computation over the product (about ``4 * |V| * (cap + 1)`` states, with
the budget capped at ``|V|`` for the labels and at the grab budget for one
winner query) yields every label at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SolverPreconditionError
from .model import (
    Configuration,
    GrabRule,
    OwnershipKind,
    PawnGame,
    classify,
    validate_configuration,
)
from .turnbased import attract


@dataclass(frozen=True)
class MinGrabMap:
    """``eta[v]`` is the least grab budget winning from ``v``; inf if none."""

    eta: tuple[float, ...]

    def __getitem__(self, v: int) -> float:
        return self.eta[v]


def _vertex_control(g: PawnGame, p0_pawns: frozenset[int]) -> frozenset[int]:
    vertex_of = {next(iter(g.owners[v])): v for v in range(g.n)}
    return frozenset(vertex_of[j] for j in p0_pawns)


def _eta_product(g: PawnGame, base: frozenset[int], cap: int) -> list[float]:
    """Exact labels up to ``cap`` via the (vertex, control bit, budget)
    product game; a label above ``cap`` reads as inf.  Budget layer ``r``
    reads only the layers up to ``r``, so a smaller cap changes no label
    within it."""
    n = g.n

    def config(v: int, c: int, r: int) -> int:
        return (v * 2 + c) * (cap + 1) + r

    offset = 2 * n * (cap + 1)

    def inter(u: int, c0: int, r: int) -> int:
        return offset + config(u, c0, r)

    total = 2 * offset
    succ: list[list[int]] = [[] for _ in range(total)]
    side = [2] * total
    target = [False] * total
    for v in range(n):
        for r in range(cap + 1):
            for c in (0, 1):
                sid = config(v, c, r)
                if c == 1:
                    side[sid] = 1
                target[sid] = v in g.targets
                for u in g.succ[v]:
                    c0 = c if u == v else (1 if u in base else 0)
                    succ[sid].append(inter(u, c0, r))
            for c0 in (0, 1):
                iid = inter(v, c0, r)
                side[iid] = 1  # the grab decision is always Player 1's
                succ[iid].append(config(v, c0, r))
                if c0 == 0 and r > 0:
                    succ[iid].append(config(v, 1, r - 1))

    in_region, _ = attract(succ, side, target)
    eta: list[float] = []
    for v in range(n):
        c = 1 if v in base else 0
        wins = [r for r in range(cap + 1) if in_region[config(v, c, r)]]
        eta.append(min(wins) if wins else math.inf)
    return eta


def _require_ovpp_kgrab(g: PawnGame) -> None:
    if g.mechanism.rule is not GrabRule.K_GRABBING:
        raise SolverPreconditionError("minimum grabs are defined for k-grabbing")
    if classify(g) is not OwnershipKind.OVPP:
        raise SolverPreconditionError("minimum grabs need one vertex per pawn")


def minimum_grabs(g: PawnGame, p0_pawns: frozenset[int]) -> MinGrabMap:
    """Least number of grabs Player 1 needs from each vertex, given ``p0_pawns``."""
    _require_ovpp_kgrab(g)
    # more than one local grab per vertex is never needed
    eta = _eta_product(g, _vertex_control(g, p0_pawns), g.n)
    return MinGrabMap(tuple(eta))


def solve_kgrab_ovpp(g: PawnGame, c: Configuration) -> int:
    """Player 1 wins from ``c`` iff its grab budget covers the vertex's label."""
    validate_configuration(g, c)
    _require_ovpp_kgrab(g)
    cap = min(g.n, c.grabs_left)
    eta = _eta_product(g, _vertex_control(g, c.p1_pawns), cap)
    return 1 if eta[c.vertex] <= c.grabs_left else 2

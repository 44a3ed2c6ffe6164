"""Minimum-grab computation for one-vertex-per-pawn k-grabbing games.

Relative to a fixed initial pawn set, ``minimum_grabs`` labels every vertex
with the least number of grabs Player 1 needs to win from it.

Grabs can be normalized to always take the pawn of the vertex the token
just moved to: deferring a grab to the arrival moment never hurts, and a
pawn grabbed at an earlier visit can be re-grabbed on demand within the
same budget.  So the game is solved one grab budget ``r`` at a time, on a
layer of ``4 * |V|`` states built once: a configuration ``(v, c)``, where
``c`` says whether Player 1 controls ``v``, and an exchange state
``(u, c0)`` where Player 1 decides whether to grab after a move to ``u``.
Layer ``r`` is one attractor whose targets are the game's targets and every
exchange ``(u, 0)`` whose grab lands on a configuration ``(u, 1)`` won in
layer ``r - 1``.  A vertex's label is the first layer that wins its start
configuration.

Layer ``r`` is a fixed function of the ``(u, 1)`` wins of layer ``r - 1``,
so once two consecutive layers win the same ``(u, 1)`` configurations,
every later layer is equal and the labels are final.  That set grows at
most ``|V|`` times, so no label exceeds ``|V|``; a winner query also stops
at its grab budget.
"""

from __future__ import annotations

import math

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


def _vertex_control(g: PawnGame, p0_pawns: frozenset[int]) -> frozenset[int]:
    vertex_of = {next(iter(g.owners[v])): v for v in range(g.n)}
    return frozenset(vertex_of[j] for j in p0_pawns)


def _layered_labels(g: PawnGame, base: frozenset[int],
                    stop: int | None = None) -> list[float]:
    """Labels from layers ``0, 1, ...`` until the layers repeat or layer
    ``stop`` is solved; a vertex not won by then reads inf.

    A move to ``u`` lands on exchange ``(u, u in base)``, a self-loop
    included.  Only Player 1 grabs, so ``c = 0`` implies ``v`` is not in
    ``base``, and the loop keeps ``c``.  With ``c = 1`` the loop may land on
    ``(v, 0)``: Player 1 controls less there than at ``(v, 1)`` itself, so
    the loop never wins him more."""
    n = g.n
    # configuration (v, c) is state 2v + c, exchange (u, c0) is 2n + 2u + c0
    succ: list[list[int]] = [[] for _ in range(4 * n)]
    side = [1] * (4 * n)  # the grab decision is always Player 1's
    target = [False] * (4 * n)
    for v in range(n):
        for c in (0, 1):
            sid = 2 * v + c
            side[sid] = 1 if c else 2
            target[sid] = v in g.targets
            for u in g.succ[v]:
                c0 = int(u in base)
                succ[sid].append(2 * n + 2 * u + c0)
            succ[2 * n + sid].append(sid)
    start = [2 * v + int(v in base) for v in range(n)]
    eta = [math.inf] * n
    won = None
    r = 0
    while True:
        in_region, _ = attract(succ, side, target)
        for v in range(n):
            if eta[v] == math.inf and in_region[start[v]]:
                eta[v] = r
        now = in_region[1:2 * n:2]
        if now == won or r == stop:
            return eta
        won = now
        r += 1
        for u in range(n):
            target[2 * n + 2 * u] = won[u]


def _require_ovpp_kgrab(g: PawnGame) -> None:
    if g.mechanism.rule is not GrabRule.K_GRABBING:
        raise SolverPreconditionError("minimum grabs are defined for k-grabbing")
    if classify(g) is not OwnershipKind.OVPP:
        raise SolverPreconditionError("minimum grabs need one vertex per pawn")


def minimum_grabs(g: PawnGame, p0_pawns: frozenset[int]) -> tuple[float, ...]:
    """Least number of grabs Player 1 needs from each vertex, given
    ``p0_pawns``: entry ``v`` is the least grab budget winning from ``v``,
    inf if none."""
    _require_ovpp_kgrab(g)
    return tuple(_layered_labels(g, _vertex_control(g, p0_pawns)))


def solve_kgrab_ovpp(g: PawnGame, c: Configuration) -> int:
    """Player 1 wins from ``c`` iff its grab budget covers the vertex's label."""
    validate_configuration(g, c)
    _require_ovpp_kgrab(g)
    eta = _layered_labels(g, _vertex_control(g, c.p1_pawns), c.grabs_left)
    return 1 if eta[c.vertex] <= c.grabs_left else 2

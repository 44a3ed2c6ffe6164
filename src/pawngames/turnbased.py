"""Turn-based reachability games: the attractor and winning regions.

Vertices are split between the players; Player 1 tries to reach the target
set, Player 2 tries to avoid it forever.  Dead ends are permitted and follow
the literal attractor rule: a Player-2 dead end outside the targets is
Player-1-winning (the universal condition holds vacuously), a Player-1 dead
end is Player-2-winning.  Layers that need "stuck means the play ends"
semantics insert self-loops before calling in here.

``attract`` is the package's one attractor kernel: ``solve_turnbased``
runs it on a ``TurnBasedGame`` and the explicit oracle runs it directly on
its configuration graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import GameFormatError, ValidationError
from .gamefile import arity, directives, integer, player, vertex_line


@dataclass(frozen=True)
class TurnBasedGame:
    n: int
    p1_vertices: frozenset[int]
    succ: tuple[tuple[int, ...], ...]
    targets: frozenset[int]

    def __post_init__(self):
        if len(self.succ) != self.n:
            raise ValidationError("successor table must cover every vertex")
        for v, out in enumerate(self.succ):
            for u in out:
                if not 0 <= u < self.n:
                    raise ValidationError(f"edge ({v}, {u}) leaves the vertex range")
        for v in self.p1_vertices | self.targets:
            if not 0 <= v < self.n:
                raise ValidationError(f"vertex {v} out of range")


@dataclass(frozen=True)
class SolveResult:
    """Winning region of Player 1."""

    region: frozenset[int]


def attract(
    succ: Sequence[Sequence[int]], side: Sequence[int], target: Sequence[bool]
) -> tuple[list[bool], list[int]]:
    """Player 1's attractor to the targets, with each vertex's entry stage.

    ``side[v] == 1`` means Player 1 moves at ``v``, anything else Player 2.
    Returns region membership and the stage at which each vertex entered
    (targets 0, Player-2 dead ends outside the targets 1, -1 outside the
    region).  Backward counting over predecessor lists, so the running time
    is linear in the number of vertices plus edges.
    """
    n = len(succ)
    pred: list[list[int]] = [[] for _ in range(n)]
    remaining = [0] * n
    for v in range(n):
        remaining[v] = len(succ[v])
        for u in succ[v]:
            pred[u].append(v)

    in_region = [False] * n
    level = [-1] * n
    frontier = []
    for v in range(n):
        if target[v]:
            in_region[v] = True
            level[v] = 0
            frontier.append(v)
    deadends = [
        v
        for v in range(n)
        if not in_region[v] and side[v] != 1 and remaining[v] == 0
    ]

    stage = 0
    while frontier or deadends:
        stage += 1
        nxt = []
        for v in deadends:
            in_region[v] = True
            level[v] = stage
            nxt.append(v)
        deadends = []
        for v in frontier:
            for u in pred[v]:
                if in_region[u]:
                    continue
                if side[u] == 1:
                    in_region[u] = True
                    level[u] = stage
                    nxt.append(u)
                else:
                    remaining[u] -= 1
                    if remaining[u] == 0:
                        in_region[u] = True
                        level[u] = stage
                        nxt.append(u)
        frontier = nxt
    return in_region, level


def solve_turnbased(tb: TurnBasedGame) -> SolveResult:
    """Player 1's winning region; ``attract`` also gives the entry stages."""
    side = [2] * tb.n
    for v in tb.p1_vertices:
        side[v] = 1
    target = [False] * tb.n
    for v in tb.targets:
        target[v] = True
    in_region, _ = attract(tb.succ, side, target)
    return SolveResult(frozenset(v for v in range(tb.n) if in_region[v]))


def parse_tbgame(text: str | bytes) -> TurnBasedGame:
    """Parse the ``tb``/``tbedge`` text form emitted by the reductions."""
    p1: set[int] = set()
    targets: set[int] = set()
    declared: set[int] = set()
    succ: dict[int, set[int]] = {}
    for lineno, head, rest in directives(text):
        if head == "tb":
            vid, side, is_target = vertex_line(
                rest, "tb <id> player=1|2 [target]", lineno)
            v = integer(vid, "tb vertex id", lineno)
            if v in declared:
                raise GameFormatError(f"duplicate tb vertex {v}", lineno)
            declared.add(v)
            if player(side, lineno) == 1:
                p1.add(v)
            if is_target:
                targets.add(v)
        elif head == "tbedge":
            u, v = (integer(token, "tb vertex id", lineno) for token in
                    arity(rest, (2,), "tbedge <id> <id>", lineno))
            if u not in declared or v not in declared:
                raise GameFormatError(f"tbedge {u} {v}: undeclared vertex", lineno)
            succ.setdefault(u, set()).add(v)
        else:
            raise GameFormatError(f"unknown directive {head!r}", lineno)
    n = len(declared)
    if declared != set(range(n)):
        raise GameFormatError("tb vertex ids must be dense 0..n-1")
    return TurnBasedGame(
        n=n,
        p1_vertices=frozenset(p1),
        succ=tuple(tuple(sorted(succ.get(v, ()))) for v in range(n)),
        targets=frozenset(targets),
    )


def serialize_tbgame(tb: TurnBasedGame) -> str:
    """Canonical ``tb``/``tbedge`` text: vertices and edges in sorted order."""
    lines = []
    for v in range(tb.n):
        player = 1 if v in tb.p1_vertices else 2
        target = " target" if v in tb.targets else ""
        lines.append(f"tb {v} player={player}{target}")
    for u in range(tb.n):
        for v in tb.succ[u]:
            lines.append(f"tbedge {u} {v}")
    return "\n".join(lines) + "\n"

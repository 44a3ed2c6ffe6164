"""An independent exhaustive oracle used only by the test suite.

The game-tree search below decides turn-based reachability by exploring
plays with a visited set: a repeated vertex means the opponent can force
that loop forever, which loses for the reaching player.  It shares no code
with the attractor implementation it cross-checks.
"""

from __future__ import annotations

from pawngames.turnbased import TurnBasedGame


def bruteforce_region(tb: TurnBasedGame) -> frozenset[int]:
    """Player-1 winning vertices by AND-OR search over loop-free plays."""

    def wins(v: int, path: frozenset[int]) -> bool:
        if v in tb.targets:
            return True
        if v in path:
            return False
        if not tb.succ[v]:
            # stuck mover: losing for Player 1 exactly when he must move
            return v not in tb.p1_vertices
        extended = path | {v}
        options = (wins(u, extended) for u in tb.succ[v])
        return any(options) if v in tb.p1_vertices else all(options)

    return frozenset(v for v in range(tb.n) if wins(v, frozenset()))


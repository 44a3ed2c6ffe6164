"""Depth-first decision procedure for k-grabbing games of any ownership kind.

If Player 1 can win at all, he can win within ``|V| * (k + 1)`` rounds: his
pawn set only ever grows, so a longer play would close a grab-free cycle
that Player 2 could repeat forever.  The search therefore explores the
unwinding of the configuration graph to that depth.  Nodes where Player 1
moves, and every grab decision, are OR nodes; Player 2's move choices are
AND nodes.  A node at the cap that is not on a target counts as a loss.

The transposition cache stores proven wins keyed by configuration together
with the number of rounds they need; a cached win is reused only when the
remaining budget covers it.  Depth-limited losses are never treated as
absolute: failures are remembered with the budget they were proven at and
only short-circuit searches with at most that budget, which is sound
because shrinking the budget can never turn a loss into a win.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SolverPreconditionError
from .model import Configuration, GrabRule, PawnGame, validate_configuration


@dataclass
class KGrabSearchResult:
    winner: int
    rounds_cap: int
    nodes: int
    witness: list[tuple] | None = None


@dataclass
class _Search:
    game: PawnGame
    omask: list[int]
    grab_order: list[list[int]]
    win_rounds: dict[tuple[int, int, int], int] = field(default_factory=dict)
    fail_budget: dict[tuple[int, int, int], int] = field(default_factory=dict)
    nodes: int = 0

    def value(self, v: int, pmask: int, r: int, budget: int) -> int | None:
        """Rounds Player 1 needs to win within ``budget``; None if he cannot."""
        g = self.game
        if v in g.targets:
            return 0
        if budget == 0:
            return None
        key = (v, pmask, r)
        cached = self.win_rounds.get(key)
        if cached is not None and cached <= budget:
            return cached
        failed = self.fail_budget.get(key)
        if failed is not None and budget <= failed:
            return None
        self.nodes += 1

        if self.omask[v] & pmask:
            found = None
            for u in g.succ[v]:
                for npmask, nr in self._exchanges(u, pmask, r):
                    sub = self.value(u, npmask, nr, budget - 1)
                    if sub is not None:
                        found = 1 + sub
                        break
                if found is not None:
                    break
        else:
            worst = 0
            found = None
            for u in g.succ[v]:
                reply = None
                for npmask, nr in self._exchanges(u, pmask, r):
                    sub = self.value(u, npmask, nr, budget - 1)
                    if sub is not None:
                        reply = sub
                        break
                if reply is None:
                    worst = None
                    break
                worst = max(worst, reply)
            if worst is not None:
                found = 1 + worst

        if found is not None:
            old = self.win_rounds.get(key)
            if old is None or found < old:
                self.win_rounds[key] = found
        else:
            old = self.fail_budget.get(key)
            if old is None or budget > old:
                self.fail_budget[key] = budget
        return found

    def _exchanges(self, u: int, pmask: int, r: int):
        """Grab alternatives after moving to ``u``: no grab first, then the
        pawns owning ``u``, then the rest.  The order is a tunable, not a
        semantic."""
        yield pmask, r
        if r > 0:
            for j in self.grab_order[u]:
                bit = 1 << j
                if not pmask & bit:
                    yield pmask | bit, r - 1


def solve_kgrab_dfs(g: PawnGame, c: Configuration) -> KGrabSearchResult:
    """Decide a k-grabbing game by AND-OR search capped at
    ``|V| * (grabs_left + 1)`` rounds."""
    if g.mechanism.rule is not GrabRule.K_GRABBING:
        raise SolverPreconditionError("search handles k-grabbing only")
    validate_configuration(g, c)
    cap = g.n * (c.grabs_left + 1)

    omask = [0] * g.n
    for v in range(g.n):
        for j in g.owners[v]:
            omask[v] |= 1 << j
    grab_order = []
    for v in range(g.n):
        owning = sorted(g.owners[v])
        rest = [j for j in range(g.d) if j not in g.owners[v]]
        grab_order.append(owning + rest)

    search = _Search(g, omask, grab_order)
    pmask = 0
    for j in c.p1_pawns:
        pmask |= 1 << j
    rounds = search.value(c.vertex, pmask, c.grabs_left, cap)
    if rounds is None:
        return KGrabSearchResult(2, cap, search.nodes)

    witness = _extract_witness(search, c.vertex, pmask, c.grabs_left, cap)
    return KGrabSearchResult(1, cap, search.nodes, witness)


def _extract_witness(
    search: _Search, v: int, pmask: int, r: int, budget: int
) -> list[tuple]:
    """One winning play: Player 1's choices from the search, Player 2 taking
    her first move option."""
    g = search.game
    steps: list[tuple] = []
    while v not in g.targets:
        if search.omask[v] & pmask:
            chosen = None
            for u in g.succ[v]:
                for npmask, nr in search._exchanges(u, pmask, r):
                    if search.value(u, npmask, nr, budget - 1) is not None:
                        chosen = (u, npmask, nr)
                        break
                if chosen:
                    break
        else:
            u = g.succ[v][0]
            chosen = None
            for npmask, nr in search._exchanges(u, pmask, r):
                if search.value(u, npmask, nr, budget - 1) is not None:
                    chosen = (u, npmask, nr)
                    break
        assert chosen is not None, "witness replay diverged from the search"
        u, npmask, nr = chosen
        steps.append(("move", u))
        if npmask == pmask:
            steps.append(("nograb",))
        else:
            j = (npmask ^ pmask).bit_length() - 1
            steps.append(("grab", j))
        v, pmask, r = u, npmask, nr
        budget -= 1
    return steps

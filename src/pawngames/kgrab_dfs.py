"""Depth-first decision procedure for k-grabbing games of any ownership kind.

Grabs are made just in time.  Player 1 moves at a vertex when he holds any
pawn that owns it, and more pawns never hurt him, so a grab matters only
when the token enters a vertex he does not control.  After a move to ``u``
the search offers no grab, and then, only if he controls ``u`` with none of
his pawns, a grab of each pawn owning ``u``.  This loses no win: follow a
winning strategy of the full game, and grab an owner of ``u`` only when the
strategy's pawn set controls ``u`` and the held one does not.  The held set
stays inside the strategy's, so it spends no more grabs, the same player
moves at every vertex, and the play is the same.

If Player 1 can win this pruned game at all, he can win within
``|V| * (k + 1)`` rounds, where ``k`` counts the grabs he can use, at most
``d - |P|`` from pawn set ``P``: an attractor strategy never repeats a
configuration, and between two grabs only the vertex changes.  The search
therefore explores the unwinding of the pruned configuration graph to that
depth.  Nodes where Player 1 moves, and every grab decision, are OR nodes;
Player 2's move choices are AND nodes.  A node at the cap that is not on a
target counts as a loss.

The transposition cache stores proven wins keyed by configuration together
with the number of rounds they need; a cached win is reused only when the
remaining budget covers it.  Depth-limited losses are never treated as
absolute: failures are remembered with the budget they were proven at and
only short-circuit searches with at most that budget, which is sound
because shrinking the budget can never turn a loss into a win.  A Player 1
win's witness is the oracle's one play walk, ``_play``, ranked by the
cached rounds and offered the same grabs as the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SolverPreconditionError
from .model import Configuration, GrabRule, PawnGame, validate_configuration
from .oracle import _mask, _owner_masks, _play


@dataclass
class KGrabSearchResult:
    """Winner of the search and the nodes it expanded."""

    winner: int
    nodes: int
    _search: _Search
    _start: tuple[int, int, int]

    def witness(self) -> list[tuple] | None:
        """Player 1's play against a delaying adversary, in ``_play``'s
        steps, ranked by the rounds the search proved; None when Player 2
        wins, since the search's failures are bounded by depth and rank
        none of her moves.

        A proven entry only ever falls.  An entry R at a Player-1 node has
        an option proven in at most R - 1 rounds, and at a Player-2 node
        every move has such an option, so the ranks fall to a target within
        R rounds."""
        if self.winner != 1:
            return None
        search = self._search
        g = search.game

        def rank(u: int, q: int, s: int) -> int | None:
            return 0 if u in g.targets else search.win_rounds.get((u, q, s))

        omask = search.omask
        return _play(g, self._start, rank,
                     lambda u, p: 0 if omask[u] & p else omask[u])


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

        # an OR step stops at the first proven reply, an AND step at the
        # first failed one; a reply is the first proven grab alternative
        p1 = self.omask[v] & pmask
        found = None if p1 else 0
        for u in g.succ[v]:
            for npmask, nr in self._exchanges(u, pmask, r):
                reply = self.value(u, npmask, nr, budget - 1)
                if reply is not None:
                    break
            if p1:
                if reply is not None:
                    found = 1 + reply
                    break
            elif reply is None:
                found = None
                break
            else:
                found = max(found, 1 + reply)

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
        """Grab alternatives after moving to ``u``: no grab first, then,
        only if Player 1 controls ``u`` with none of his pawns, a grab of
        each pawn owning ``u``.  A grab matters only where it hands him the
        move (see the module docstring), so these options win exactly where
        all ``d`` grabs do, within the same rounds cap."""
        yield pmask, r
        if r > 0 and not self.omask[u] & pmask:
            for j in self.grab_order[u]:
                yield pmask | 1 << j, r - 1


def solve_kgrab_dfs(g: PawnGame, c: Configuration) -> KGrabSearchResult:
    """Decide a k-grabbing game by AND-OR search capped at
    ``|V| * (r + 1)`` rounds, where the start's grab budget is normalized
    once to ``r = min(grabs_left, d - |P|)``: each grab takes a pawn that
    Player 1 lacks, so no play uses more, and the bound holds in every
    node."""
    if g.mechanism.rule is not GrabRule.K_GRABBING:
        raise SolverPreconditionError("search handles k-grabbing only")
    validate_configuration(g, c)
    grab_order = [sorted(owners) for owners in g.owners]
    search = _Search(g, _owner_masks(g), grab_order)
    r = min(c.grabs_left, g.d - len(c.p1_pawns))
    start = (c.vertex, _mask(c.p1_pawns), r)
    rounds = search.value(*start, g.n * (r + 1))
    return KGrabSearchResult(1 if rounds is not None else 2, search.nodes,
                             search, start)

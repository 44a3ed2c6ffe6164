"""k-grabbing games of any ownership kind, where SET-COVER and TQBF embed.

No polynomial solver decides them, so ``solve_kgrab_dfs`` is the exact
route, ``solve_exact``: the start's cone of influence, then the sweep when
its tables fit the budget, else the lazy expansion, which grabs just in
time (see ``oracle._expand``).  The name stays the dispatch's answer for
these games.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SolverPreconditionError
from .model import Configuration, GrabRule, PawnGame
from .oracle import ExactResult, solve_exact


@dataclass
class KGrabSearchResult:
    """The winner, the exact route's work (``exact.states``) and its
    result."""

    winner: int
    nodes: int
    exact: ExactResult

    def witness(self) -> list[tuple] | None:
        """Player 1's play against a delaying adversary, in ``_play``'s
        steps, within the paper's ``|V| * (k + 1)`` rounds: ranks fall at
        every configuration, and between two grabs only the vertex changes.
        None when Player 2 wins."""
        return self.exact.witness() if self.winner == 1 else None


def solve_kgrab_dfs(g: PawnGame, c: Configuration) -> KGrabSearchResult:
    """Decide a k-grabbing game by the exact route."""
    if g.mechanism.rule is not GrabRule.K_GRABBING:
        raise SolverPreconditionError("kgrab-dfs handles k-grabbing only")
    exact = solve_exact(g, c)
    return KGrabSearchResult(exact.winner, exact.states, exact)

"""Property test: the minimum-grab labels and the rooted query against the
oracle, at every vertex and every grab budget 0..n.

Hypothesis draws the game's size, generator seed and pawn set, so a
disagreement shrinks to a small game."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from pawngames import (
    AllConfigurations,
    Configuration,
    Mechanism,
    OwnershipKind,
    minimum_grabs,
    solve_kgrab_ovpp,
)
from pawngames.generators import gen_random_pawngame


@st.composite
def ovpp_kgrab_games(draw):
    n = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    game, _ = gen_random_pawngame(
        n, n, OwnershipKind.OVPP, Mechanism.k_grabbing(n), seed
    )
    return game, draw(st.frozensets(st.integers(0, n - 1)))


@settings(deadline=None)
@given(ovpp_kgrab_games())
def test_eta_matches_oracle(drawn):
    game, pawns = drawn
    oracle = AllConfigurations(game)
    grabs = minimum_grabs(game, pawns)
    for v in range(game.n):
        for k in range(game.n + 1):
            want = oracle.winner(v, pawns, k)
            assert (1 if grabs[v] <= k else 2) == want
            assert solve_kgrab_ovpp(game, Configuration(v, pawns, k)) == want

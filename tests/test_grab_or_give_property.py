"""Property test: the grab-or-give control-state solver against the sweep.

Hypothesis draws MVPP and OVPP grab-or-give games with at least two pawns.
At every vertex, for a drawn pawn set with and without the vertex's owner,
``solve_grab_or_give`` must match ``AllConfigurations``."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from pawngames import (
    AllConfigurations,
    Configuration,
    Mechanism,
    OwnershipKind,
    solve_grab_or_give,
)
from pawngames.generators import gen_random_pawngame


@st.composite
def gog_games(draw):
    kind = draw(st.sampled_from([OwnershipKind.MVPP, OwnershipKind.OVPP]))
    if kind is OwnershipKind.OVPP:
        n = d = draw(st.integers(2, 8))
    else:
        n = draw(st.integers(3, 9))
        d = draw(st.integers(2, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    game, _ = gen_random_pawngame(n, d, kind, Mechanism.grab_or_give(), seed)
    pawns = draw(st.frozensets(st.integers(0, d - 1)))
    return game, pawns


@settings(deadline=None)
@given(gog_games())
def test_grab_or_give_matches_the_sweep(drawn):
    game, pawns = drawn
    oracle = AllConfigurations(game)
    for v in range(game.n):
        (owner,) = game.owners[v]
        for p1 in (pawns | {owner}, pawns - {owner}):
            want = oracle.winner(v, p1)
            assert solve_grab_or_give(game, Configuration(v, p1)) == want, (
                v, sorted(p1))

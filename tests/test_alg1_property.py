"""Property test: the border-absorption solver against the oracle.

Hypothesis draws the game's size, generator seed, initial vertex and pawn
set, so a disagreement shrinks to a small game."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from pawngames import (
    AllConfigurations,
    Configuration,
    Mechanism,
    OwnershipKind,
    solve_ovpp_optional,
)
from pawngames.generators import gen_random_pawngame


@st.composite
def ovpp_positions(draw):
    n = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    game, _ = gen_random_pawngame(
        n, n, OwnershipKind.OVPP, Mechanism.optional(), seed
    )
    vertex = draw(st.integers(0, n - 1))
    pawns = draw(st.frozensets(st.integers(0, n - 1)))
    return game, Configuration(vertex, pawns)


@settings(deadline=None)
@given(ovpp_positions())
def test_alg1_matches_oracle(position):
    game, config = position
    want = AllConfigurations(game).winner(config.vertex, config.p1_pawns)
    assert solve_ovpp_optional(game, config).winner == want

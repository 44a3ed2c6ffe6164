"""Property test: the minimum-grab labels against the oracle.

Hypothesis draws the game's size, generator seed, pawn set, start vertex
and grab budget, so a disagreement shrinks to a small game."""

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
def ovpp_kgrab_positions(draw):
    n = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    game, _ = gen_random_pawngame(
        n, n, OwnershipKind.OVPP, Mechanism.k_grabbing(n), seed
    )
    vertex = draw(st.integers(0, n - 1))
    pawns = draw(st.frozensets(st.integers(0, n - 1)))
    budget = draw(st.integers(0, n))
    return game, Configuration(vertex, pawns, budget)


@settings(deadline=None)
@given(ovpp_kgrab_positions())
def test_eta_matches_oracle(position):
    game, config = position
    oracle = AllConfigurations(game)
    grabs = minimum_grabs(game, config.p1_pawns)
    for v in range(game.n):
        for k in range(game.n + 1):
            want = oracle.winner(v, config.p1_pawns, k)
            assert (1 if grabs[v] <= k else 2) == want
    want = oracle.winner(config.vertex, config.p1_pawns, config.grabs_left)
    assert solve_kgrab_ovpp(game, config) == want

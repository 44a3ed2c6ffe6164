"""Property test: ``solve_exact`` against the lazy route alone.

Hypothesis draws games from the random families that the explicit-oracle
benchmark solves through the CLI (MVPP and OMVPP under always, optional
and grab-or-give), plus k-grabbing games with k = 0-2, at n <= 8.
``solve_exact`` sweeps every one of them, and ``solve_explicit`` gives the
independent lazy verdict.  Both routes' witnesses pass the play referee;
the lazy one walks a slice whose pawn sets are projected under optional
grabbing and k-grabbing."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from pawngames import (
    Configuration,
    GrabRule,
    Mechanism,
    OwnershipKind,
    solve_exact,
    solve_explicit,
    witness_play,
)
from pawngames.crossval import check_play
from pawngames.generators import gen_random_pawngame


@st.composite
def explicit_oracle_games(draw):
    kind = draw(st.sampled_from([OwnershipKind.MVPP, OwnershipKind.OMVPP]))
    mech = draw(st.sampled_from([
        Mechanism.always(), Mechanism.optional(), Mechanism.grab_or_give(),
        Mechanism.k_grabbing(0), Mechanism.k_grabbing(1),
        Mechanism.k_grabbing(2)]))
    n = draw(st.integers(3, 8))
    d = draw(st.integers(1, n - 1) if kind is OwnershipKind.MVPP
             else st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    game, _ = gen_random_pawngame(n, d, kind, mech, seed)
    vertex = draw(st.integers(0, n - 1))
    pawns = draw(st.frozensets(st.integers(0, d - 1)))
    grabs = (draw(st.integers(0, mech.k))
             if mech.rule is GrabRule.K_GRABBING else None)
    return game, Configuration(vertex, pawns, grabs)


@settings(deadline=None, max_examples=300)
@given(explicit_oracle_games())
def test_exact_route_matches_the_lazy_route(position):
    game, config = position
    result = solve_exact(game, config)
    assert result.route == "sweep"
    lazy = solve_explicit(game, config)
    assert result.winner == lazy.winner
    assert check_play(game, config, result.witness(), result.winner) is None
    steps = witness_play(game, lazy)
    assert check_play(game, config, steps, lazy.winner) is None, steps

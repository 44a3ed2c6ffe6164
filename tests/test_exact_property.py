"""Property tests: ``solve_exact`` against the lazy route alone, and its
cone of influence against the unrestricted sweep.

Hypothesis draws games from the random families that the explicit-oracle
benchmark solves through the CLI (MVPP and OMVPP under always, optional
and grab-or-give), plus k-grabbing games with k = 0-2, at n <= 8.
``solve_exact`` sweeps every one of them, and ``solve_explicit`` gives the
independent lazy verdict.  Both routes' witnesses pass the play referee;
the lazy one walks a slice whose pawn sets are projected under optional
grabbing and k-grabbing.

The second test draws any graph, targets and owner map, under all four
mechanisms and from any start, so roots on targets, hopeless roots and
vertices that play never reaches all occur.  ``solve_exact`` decides the
start's cone; ``AllConfigurations`` on the whole game gives the verdict,
and the witness is refereed on the whole game."""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from pawngames import (
    AllConfigurations,
    BudgetExceededError,
    Configuration,
    GrabRule,
    Mechanism,
    OwnershipKind,
    PawnGame,
    solve_exact,
    solve_explicit,
    witness_play,
)
from pawngames import oracle
from pawngames.crossval import check_play
from pawngames.generators import gen_random_pawngame
from pawngames.oracle import _graph_reach_masks, _hopeful, _owner_masks


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


@st.composite
def rooted_queries(draw):
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 5))
    vertices = st.integers(0, n - 1)
    edges = {(v, u) for v in range(n)
             for u in draw(st.sets(vertices, min_size=1, max_size=3))}
    owners = tuple(
        frozenset(draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=2)))
        for _ in range(n))
    mech = draw(st.sampled_from([
        Mechanism.optional(), Mechanism.always(), Mechanism.grab_or_give(),
        Mechanism.k_grabbing(0), Mechanism.k_grabbing(1),
        Mechanism.k_grabbing(2)]))
    game = PawnGame(n=n, edges=frozenset(edges),
                    targets=frozenset(draw(st.sets(vertices))), d=d,
                    owners=owners, mechanism=mech)
    grabs = (draw(st.integers(0, mech.k))
             if mech.rule is GrabRule.K_GRABBING else None)
    return game, Configuration(draw(vertices),
                               draw(st.frozensets(st.integers(0, d - 1))),
                               grabs)


def refuse(*_):
    raise BudgetExceededError(None, 0)


@settings(deadline=None, max_examples=400)
@given(rooted_queries())
def test_restricted_route_matches_the_unrestricted_sweep(query):
    game, config = query
    want = AllConfigurations(game).winner(config.vertex, config.p1_pawns,
                                          config.grabs_left)
    swept = solve_exact(game, config)
    # the same cone by the lazy route, as when its sweep does not fit
    with mock.patch.object(oracle, "AllConfigurations", refuse):
        lazy = solve_exact(game, config)
    assert (swept.route, lazy.route) == ("sweep", "lazy")
    for result in (swept, lazy):
        assert result.winner == want
        steps = result.witness()
        assert check_play(game, config, steps, want) is None, steps
    # the live pawns that the cone keeps are the root's live mask
    if game.mechanism.rule in (GrabRule.OPTIONAL, GrabRule.K_GRABBING):
        live = _graph_reach_masks(game, _hopeful(game),
                                  _owner_masks(game))[config.vertex]
        assert swept._cone.pawns == [j for j in range(game.d) if live >> j & 1]

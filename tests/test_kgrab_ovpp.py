"""Minimum-grab labels for one-vertex-per-pawn k-grabbing games."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import pytest

from pawngames import (
    AllConfigurations,
    Configuration,
    Mechanism,
    OwnershipKind,
    PawnGame,
    SolverPreconditionError,
    minimum_grabs,
    parse_game,
    solve_kgrab_ovpp,
)
from pawngames.crossval import suite_eta
from pawngames.generators import gen_random_pawngame

CHAIN = """
# the opponent can duck into the sink from u before any grab lands
pawngame chain
mechanism k-grabbing 2
pawns 4
vertex w owners=0
vertex u owners=1
vertex t owners=2 target
vertex s owners=3
edge w u
edge u t
edge u s
edge t t
edge s s
init vertex=w p1pawns=
"""


def test_targets_are_level_zero():
    game, config = parse_game(CHAIN)
    grabs = minimum_grabs(game, config.p1_pawns)
    assert grabs[game.names.index("t")] == 0


def test_chain_labels_match_oracle_over_budget_sweep():
    game, config = parse_game(CHAIN)
    grabs = minimum_grabs(game, config.p1_pawns)
    w, u = game.names.index("w"), game.names.index("u")
    assert grabs[w] == 1
    assert grabs[u] == math.inf
    oracle = AllConfigurations(game)
    for v in range(game.n):
        for k in range(3):
            expected = 1 if grabs[v] <= k else 2
            assert oracle.winner(v, config.p1_pawns, k) == expected


def test_stall_breaking_grabs_are_counted():
    # the opponent stalls on a self-loop; only grabbing the stalled vertex
    # itself breaks the loop, which a rule growing the region one border
    # grab per level cannot see
    text = """
pawngame stall
mechanism k-grabbing 2
pawns 3
vertex a owners=0
vertex b owners=1
vertex t owners=2 target
edge a a
edge a b
edge b t
edge b a
edge t t
init vertex=a p1pawns=
"""
    game, config = parse_game(text)
    a = game.names.index("a")
    exact = minimum_grabs(game, config.p1_pawns)
    assert exact[a] == 2
    oracle = AllConfigurations(game)
    assert oracle.winner(a, frozenset(), 2) == 1
    assert oracle.winner(a, frozenset(), 1) == 2


def test_winner_queries_respect_the_budget():
    game, config = parse_game(CHAIN)
    w = game.names.index("w")
    assert solve_kgrab_ovpp(game, Configuration(w, frozenset(), 1)) == 1
    assert solve_kgrab_ovpp(game, Configuration(w, frozenset(), 0)) == 2


def test_rejects_wrong_class():
    game, config = gen_random_pawngame(
        4, 2, OwnershipKind.MVPP, Mechanism.k_grabbing(1), 8
    )
    with pytest.raises(SolverPreconditionError):
        minimum_grabs(game, config.p1_pawns)
    with pytest.raises(SolverPreconditionError):
        solve_kgrab_ovpp(game, config)


def test_labels_match_oracle_on_random_games():
    assert suite_eta(seed=41, count=80) == []


def test_budget_capped_winner_query_matches_labels():
    # solve_kgrab_ovpp stops its layers at the grab budget, minimum_grabs
    # only when two layers repeat; every budget from 0 to n must give the
    # verdict the labels give
    for seed in range(60):
        n = 2 + seed % 6
        game, config = gen_random_pawngame(
            n, n, OwnershipKind.OVPP, Mechanism.k_grabbing(n), 5_000 + seed
        )
        grabs = minimum_grabs(game, config.p1_pawns)
        for v in range(n):
            for k in range(n + 1):
                got = solve_kgrab_ovpp(game, Configuration(v, config.p1_pawns, k))
                assert got == (1 if grabs[v] <= k else 2), (seed, v, k)


def every_ovpp_game(n):
    """Every OVPP k-grabbing game on ``n`` vertices up to pawn naming: pawn
    ``i`` owns vertex ``i``, every vertex has a non-empty out-set and some
    vertex is a target."""
    nonempty = [frozenset(s) for size in range(1, n + 1)
                for s in itertools.combinations(range(n), size)]
    owners = tuple(frozenset({v}) for v in range(n))
    for outs in itertools.product(nonempty, repeat=n):
        edges = frozenset((u, v) for u, out in enumerate(outs) for v in out)
        for targets in nonempty:
            yield PawnGame(n=n, edges=edges, targets=targets, d=n,
                           owners=owners, mechanism=Mechanism.k_grabbing(n))


def self_loop_sample(n, count, seed):
    """``count`` seeded games of ``every_ovpp_game(n)``'s kind, each with at
    least one self-loop."""
    rng = random.Random(seed)
    nonempty = [frozenset(s) for size in range(1, n + 1)
                for s in itertools.combinations(range(n), size)]
    owners = tuple(frozenset({v}) for v in range(n))
    while count:
        outs = [rng.choice(nonempty) for _ in range(n)]
        if all(v not in out for v, out in enumerate(outs)):
            continue
        edges = frozenset((u, v) for u, out in enumerate(outs) for v in out)
        yield PawnGame(n=n, edges=edges, targets=rng.choice(nonempty), d=n,
                       owners=owners, mechanism=Mechanism.k_grabbing(n))
        count -= 1


def test_labels_match_oracle_on_every_small_game():
    # every game on 2 and 3 vertices, and a sample with self-loops on 4,
    # where a self-loop from a grabbed vertex lands on the exchange that
    # reads Player 1's control off the initial pawn set
    games = 0
    for n, family in ((2, every_ovpp_game(2)), (3, every_ovpp_game(3)),
                      (4, self_loop_sample(4, 300, seed=8))):
        pawn_sets = [frozenset(s) for size in range(n + 1)
                     for s in itertools.combinations(range(n), size)]
        for index, game in enumerate(family):
            games += 1
            oracle = AllConfigurations(game)
            for pawns in pawn_sets:
                grabs = minimum_grabs(game, pawns)
                for v in range(n):
                    for k in range(n + 1):
                        want = oracle.winner(v, pawns, k)
                        assert (1 if grabs[v] <= k else 2) == want
                        # a winner query rebuilds the layers, so from n = 3
                        # only every 16th game keeps the test near 3 s
                        if n == 2 or index % 16 == 0:
                            query = Configuration(v, pawns, k)
                            assert solve_kgrab_ovpp(game, query) == want
    assert games == 27 + 2401 + 300


def test_long_chain_labels_match_closed_form_in_linear_memory():
    # c0 -> c1 -> ... -> t, with escapes to the sink s; pawn i owns vertex
    # i and Player 1 holds the escapes 2 and 5.  Starting at an escape he
    # does not hold loses; elsewhere he must grab each such escape ahead.
    length = 3000
    t, s = length, length + 1
    escapes = {0, 2, 3, 5, 7}
    held = frozenset({2, 5})
    edges = {(i, i + 1) for i in range(length - 1)} | {
        (length - 1, t), (t, t), (s, s)} | {(i, s) for i in escapes}
    game = PawnGame(
        n=length + 2, edges=frozenset(edges), targets=frozenset({t}),
        d=length + 2, owners=tuple(frozenset({v}) for v in range(length + 2)),
        mechanism=Mechanism.k_grabbing(1),
    )
    lost = escapes - held
    want = [math.inf if i in lost else sum(1 for j in lost if j > i)
            for i in range(length)] + [0, math.inf]
    tracemalloc.start()
    try:
        grabs = minimum_grabs(game, held)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(grabs) == want
    assert peak < 10 * 2**20

"""Bounded AND-OR search for k-grabbing games of any ownership kind."""

from __future__ import annotations

import hashlib
import random

import pytest

from pawngames import (
    Configuration,
    Mechanism,
    OwnershipKind,
    SolverPreconditionError,
    solve_explicit,
    solve_kgrab_dfs,
)
from pawngames.crossval import check_play, suite_dfs
from pawngames.gamefile import parse_game
from pawngames.generators import gen_random_pawngame, gen_setcover, set_cover_exists

FIG5_SETS = [frozenset({1}), frozenset({1, 2}), frozenset({2, 3})]


def test_initial_target_wins_with_empty_witness():
    game, _ = gen_setcover(3, FIG5_SETS, 2)
    t = game.names.index("t")
    result = solve_kgrab_dfs(game, Configuration(t, frozenset({0}), 2))
    assert result.winner == 1
    assert result.witness() == []


def test_three_element_cover_instance_with_two_grabs():
    game, config = gen_setcover(3, FIG5_SETS, 2)
    assert set_cover_exists(3, FIG5_SETS, 2)
    result = solve_kgrab_dfs(game, config)
    assert result.winner == 1
    assert solve_explicit(game, config).winner == 1
    # the winning line commits to the two covering sets
    steps = result.witness()
    grabbed = {step[1] for step in steps if step[0] == "grab"}
    assert grabbed <= {1, 2, 3} and len(grabbed) <= 2
    assert check_play(game, config, steps, 1) is None


def test_single_grab_is_not_enough_for_that_instance():
    game, config = gen_setcover(3, FIG5_SETS, 1)
    assert not set_cover_exists(3, FIG5_SETS, 1)
    result = solve_kgrab_dfs(game, config)
    assert (result.winner, result.witness()) == (2, None)
    assert solve_explicit(game, config).winner == 2


def test_rejects_non_kgrab_mechanisms():
    game, config = gen_random_pawngame(
        3, 3, OwnershipKind.OVPP, Mechanism.optional(), 3
    )
    with pytest.raises(SolverPreconditionError):
        solve_kgrab_dfs(game, config)


def test_agreement_witnesses_and_cap_robustness_on_random_games():
    assert suite_dfs(seed=51, count=100) == []


def test_the_witness_plays_against_a_delaying_adversary():
    # Player 2 moves from s; her first successor t is the target, her
    # second, a, reaches it one round later, so she delays through a
    game, config = parse_game(
        "pawngame delay\nmechanism k-grabbing 0\npawns 3\n"
        "vertex s owners=0\nvertex t owners=1 target\nvertex a owners=2\n"
        "edge s t\nedge s a\nedge a t\nedge t t\n"
        "init vertex=s p1pawns= grabs-left=0\n")
    result = solve_kgrab_dfs(game, config)
    assert result.winner == 1
    a, t = game.names.index("a"), game.names.index("t")
    assert result.witness() == [("move", a), ("nograb",),
                                ("move", t), ("nograb",)]


def test_search_winners_are_pinned():
    # sha256 of the winners on 3,000 seeded games, computed before the
    # witness walk moved to the oracle's play; every Player 1 witness is
    # refereed and stays within the paper's |V| * (k + 1) rounds
    rng = random.Random(2025)
    digest = hashlib.sha256()
    for i in range(3000):
        n, d, k = rng.randint(2, 8), rng.randint(2, 6), rng.randint(0, 3)
        game, config = gen_random_pawngame(
            n, d, OwnershipKind.OMVPP, Mechanism.k_grabbing(k), 7000 + i)
        result = solve_kgrab_dfs(game, config)
        digest.update(f"{i}:{result.winner};".encode())
        if result.winner == 1:
            steps = result.witness()
            assert check_play(game, config, steps, 1) is None, i
            rounds = sum(step[0] == "move" for step in steps)
            assert rounds <= game.n * (config.grabs_left + 1), i
    assert digest.hexdigest() == (
        "0bd466ce1b129868ba2625cfffb7acdb15eb8ef111d94f51a011ef0413ec57c2")

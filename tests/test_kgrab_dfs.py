"""Bounded AND-OR search for k-grabbing games of any ownership kind."""

from __future__ import annotations

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
from pawngames.generators import gen_random_pawngame, gen_setcover, set_cover_exists

FIG5_SETS = [frozenset({1}), frozenset({1, 2}), frozenset({2, 3})]


def test_initial_target_wins_with_empty_witness():
    game, _ = gen_setcover(3, FIG5_SETS, 2)
    t = game.names.index("t")
    result = solve_kgrab_dfs(game, Configuration(t, frozenset({0}), 2))
    assert result.winner == 1
    assert result.witness == []


def test_three_element_cover_instance_with_two_grabs():
    game, config = gen_setcover(3, FIG5_SETS, 2)
    assert set_cover_exists(3, FIG5_SETS, 2)
    result = solve_kgrab_dfs(game, config)
    assert result.winner == 1
    assert solve_explicit(game, config).winner == 1
    # the winning line commits to the two covering sets
    grabbed = {step[1] for step in result.witness if step[0] == "grab"}
    assert grabbed <= {1, 2, 3} and len(grabbed) <= 2
    assert check_play(game, config, result.witness, 1) is None


def test_single_grab_is_not_enough_for_that_instance():
    game, config = gen_setcover(3, FIG5_SETS, 1)
    assert not set_cover_exists(3, FIG5_SETS, 1)
    assert solve_kgrab_dfs(game, config).winner == 2
    assert solve_explicit(game, config).winner == 2


def test_rejects_non_kgrab_mechanisms():
    game, config = gen_random_pawngame(
        3, 3, OwnershipKind.OVPP, Mechanism.optional(), 3
    )
    with pytest.raises(SolverPreconditionError):
        solve_kgrab_dfs(game, config)


def test_agreement_witnesses_and_cap_robustness_on_random_games():
    assert suite_dfs(seed=51, count=100) == []

"""Attractor computation against an exhaustive game-tree search."""

from __future__ import annotations

import random

from bruteforce import bruteforce_region
from pawngames import TurnBasedGame, solve_turnbased
from pawngames.generators import gen_random_turnbased
from pawngames.turnbased import attract, parse_tbgame, serialize_tbgame


def stages(tb: TurnBasedGame) -> dict[int, int]:
    """``attract``'s entry stage of each region vertex of ``tb``."""
    side = [1 if v in tb.p1_vertices else 2 for v in range(tb.n)]
    target = [v in tb.targets for v in range(tb.n)]
    in_region, level = attract(tb.succ, side, target)
    return {v: level[v] for v in range(tb.n) if in_region[v]}


def test_single_looping_target():
    tb = TurnBasedGame(1, frozenset({0}), ((0,),), frozenset({0}))
    assert stages(tb) == {0: 0}


def test_forced_chain():
    # v2 (opponent) -> v1 (player 1) -> t, with a loop on t
    tb = TurnBasedGame(
        n=3,
        p1_vertices=frozenset({1}),
        succ=((0,), (0,), (1,)),
        targets=frozenset({0}),
    )
    assert solve_turnbased(tb).region == frozenset({0, 1, 2})


def test_dead_end_rules():
    # a stuck opponent vertex is winning, a stuck player-1 vertex is not
    tb = TurnBasedGame(
        n=3,
        p1_vertices=frozenset({1}),
        succ=((0,), (), ()),
        targets=frozenset({0}),
    )
    result = solve_turnbased(tb)
    assert 2 in result.region
    assert 1 not in result.region


def test_region_matches_bruteforce_on_500_random_games():
    rng = random.Random(23)
    for i in range(500):
        tb = gen_random_turnbased(rng.randint(1, 9), 9000 + i)
        assert solve_turnbased(tb).region == bruteforce_region(tb), f"game {i}"


def test_levels_are_monotone_and_bounded():
    for i in range(100):
        tb = gen_random_turnbased(random.Random(i).randint(1, 9), 400 + i)
        level = stages(tb)
        assert set(level) == solve_turnbased(tb).region
        assert {v for v, s in level.items() if s == 0} == tb.targets
        top = max(level.values(), default=0)
        assert set(level.values()) | {0} == set(range(top + 1))
        assert top <= tb.n


def test_tbgame_text_roundtrip():
    tb = gen_random_turnbased(6, 77)
    text = serialize_tbgame(tb)
    back = parse_tbgame(text)
    assert back == tb
    assert serialize_tbgame(back) == text

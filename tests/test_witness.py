"""Witness plays checked by the play referee, and the referee itself checked
on plays with one planted fault."""

from __future__ import annotations

import random
from collections import Counter

from pawngames import (
    AllConfigurations,
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


def random_witnesses(rng_seed, first_seed, count):
    """Seeded games of every ownership kind under all four mechanisms, each
    with its winner and the oracle's witness play."""
    rng = random.Random(rng_seed)
    for i in range(count):
        kind = rng.choice(list(OwnershipKind))
        n = rng.randint(2, 6)
        if kind is OwnershipKind.OVPP:
            d = n
        elif kind is OwnershipKind.MVPP:
            n = max(n, 3)
            d = rng.randint(2, n - 1)
        else:
            d = rng.randint(2, 5)
        mech = rng.choice([
            Mechanism.optional(), Mechanism.always(),
            Mechanism.grab_or_give(), Mechanism.k_grabbing(rng.randint(0, 2)),
        ])
        game, config = gen_random_pawngame(n, d, kind, mech, first_seed + i)
        result = solve_explicit(game, config)
        yield game, config, result.winner, witness_play(game, result)


def test_winning_witnesses_reach_a_target_legally():
    wins = 0
    for game, config, winner, steps in random_witnesses(70, 88_000, 150):
        assert check_play(game, config, steps, winner) is None, steps
        wins += winner == 1
    assert wins > 20


def test_sweep_witnesses_pass_the_referee():
    # every start of these games fits the sweep, so solve_exact reads its
    # witnesses off the sweep's ranks; the lazy route gives the winner
    rng = random.Random(74)
    seen = Counter()
    for i in range(120):
        kind = rng.choice(list(OwnershipKind))
        n = rng.randint(3, 6)
        d = {OwnershipKind.OVPP: n, OwnershipKind.MVPP: rng.randint(2, n - 1),
             OwnershipKind.OMVPP: rng.randint(2, 5)}[kind]
        mech = [Mechanism.optional(), Mechanism.always(),
                Mechanism.grab_or_give(),
                Mechanism.k_grabbing(rng.randint(1, 2))][i % 4]
        game, config = gen_random_pawngame(n, d, kind, mech, 91_000 + i)
        assert config.grabs_left is None or config.grabs_left > 0
        for v in sorted(set(range(n)) - game.targets):
            for pawns in (config.p1_pawns, frozenset()):
                start = Configuration(v, pawns, config.grabs_left)
                result = solve_exact(game, start)
                assert result.route == "sweep"
                assert result.winner == solve_explicit(game, start).winner
                steps = result.witness()
                note = check_play(game, start, steps, result.winner)
                assert note is None, (note, steps)
                seen[mech.rule, result.winner] += 1
    for rule in GrabRule:
        for w in (1, 2):
            assert seen[rule, w] >= 10, seen


def faults(game, config, steps):
    """``(fault, play)`` for every play that differs from the legal play
    ``steps`` by one dropped or changed step, or is cut off before its end."""
    rule = game.mechanism.rule
    v, pawns, grabs = config.vertex, frozenset(config.p1_pawns), config.grabs_left
    earlier = set()

    def at(k, step):
        return steps[:k] + [step] + steps[k + 1:]

    for i in range(0, len(steps) - 1, 2):
        if steps[i][0] != "move":
            return
        yield "truncated play", steps[:i]
        if steps[-1:] == [("cycle",)] and (v, pawns, grabs) not in earlier:
            yield "cycle that does not close", steps[:i] + [("cycle",)]
        earlier.add((v, pawns, grabs))
        others = frozenset(range(game.d)) - pawns
        yield "dropped step", steps[:i] + steps[i + 1:]
        yield "dropped step", steps[:i + 1] + steps[i + 2:]
        for w in range(game.n):
            if (v, w) not in game.edges:
                yield "move off an edge", at(i, ("move", w))
        # Player 1 grabs under k-grabbing and after Player 2 moved
        p1_grabs = rule is GrabRule.K_GRABBING or not game.owners[v] & pawns
        for j in pawns if p1_grabs else others:
            yield "grab of a held pawn", at(i + 1, ("grab", j))
        if rule is not GrabRule.GRAB_OR_GIVE:
            yield "give outside grab-or-give", at(i + 1, ("give", 0))
        if rule in (GrabRule.ALWAYS, GrabRule.GRAB_OR_GIVE):
            yield "nograb where an exchange is forced", at(i + 1, ("nograb",))
        if grabs == 0:
            for j in others:
                yield "grab with 0 grabs left", at(i + 1, ("grab", j))
        kind, *pawn = steps[i + 1]
        pawns ^= frozenset(pawn)
        if kind == "grab" and grabs is not None:
            grabs -= 1
        v = steps[i][1]
    if steps[-1:] == [("cycle",)]:
        yield "trapped ending", steps[:-1] + [("trapped",)]


def test_referee_rejects_every_planted_fault():
    caught = Counter()
    for game, config, winner, steps in random_witnesses(73, 90_000, 150):
        assert check_play(game, config, steps, 3 - winner) is not None
        for fault, play in faults(game, config, steps):
            assert check_play(game, config, play, winner) is not None, (
                fault, play)
            caught[fault] += 1
    assert len(caught) == 9 and min(caught.values()) >= 10, caught


def test_single_root_and_all_roots_solvers_agree():
    rng = random.Random(71)
    for i in range(100):
        n = rng.randint(2, 5)
        d = rng.randint(2, 5)
        mech = rng.choice([
            Mechanism.optional(), Mechanism.always(),
            Mechanism.grab_or_give(), Mechanism.k_grabbing(rng.randint(0, 2)),
        ])
        game, config = gen_random_pawngame(
            n, d, OwnershipKind.OMVPP, mech, 89_000 + i
        )
        oracle = AllConfigurations(game)
        assert solve_explicit(game, config).winner == oracle.winner(
            config.vertex, config.p1_pawns, config.grabs_left
        )

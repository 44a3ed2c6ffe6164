"""Witness plays checked by the play referee, and the referee itself checked
on plays with one planted fault."""

from __future__ import annotations

import hashlib
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
from pawngames import oracle
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


def swept_positions():
    """Every vertex of seeded games under all four mechanisms (k = 1, 2),
    each ownership kind and n = 3-8, from the generated pawn set; under
    k-grabbing vertex v starts with v mod (k + 1) grabs left."""
    seed = 95_000
    for mech in [Mechanism.optional(), Mechanism.always(),
                 Mechanism.grab_or_give(), Mechanism.k_grabbing(1),
                 Mechanism.k_grabbing(2)]:
        for kind in OwnershipKind:
            for n in range(3, 9):
                d = {OwnershipKind.OVPP: n, OwnershipKind.MVPP: n - 1,
                     OwnershipKind.OMVPP: min(n, 5)}[kind]
                seed += 1
                game, config = gen_random_pawngame(n, d, kind, mech, seed)
                for v in range(n):
                    grabs = (v % (mech.k + 1) if config.grabs_left is not None
                             else None)
                    yield game, Configuration(v, config.p1_pawns, grabs)


def test_swept_witnesses_are_pinned():
    # the stamps that rank a swept witness, byte for byte: 495 positions,
    # 335 of them won by Player 1.  The digest was computed before each
    # query was restricted to its cone of influence, and still holds.
    digest = hashlib.sha256()
    seen = Counter()
    for game, start in swept_positions():
        result = solve_exact(game, start)
        digest.update(repr((result.winner, result.route,
                            result.witness())).encode())
        seen[result.route, result.winner] += 1
    assert seen == {("sweep", 1): 335, ("sweep", 2): 160}
    assert digest.hexdigest() == (
        "d3c0bb5e6be9aa77015c0e154a2278d2456907b91a8d96a27628171f411951ea")


def test_swept_states_are_pinned():
    # the size of each restricted game and the configurations its sweep
    # decides: 70,614 in all, where the unrestricted sweeps decide 360,224
    digest = hashlib.sha256()
    total = 0
    for game, start in swept_positions():
        result = solve_exact(game, start)
        digest.update(repr((result.n, result.d, result.states)).encode())
        total += result.states
    assert total == 70_614
    assert digest.hexdigest() == (
        "0aa8fc54063aac19804af0d5ba7e839dcc0ee9aaa58d8cfd969706fdf4f2fdef")


def test_a_swept_witness_runs_no_second_sweep(monkeypatch):
    # the witness reads the stamps logged by the sweep that decided the game
    sweeps = []
    for i, mech in enumerate([Mechanism.optional(), Mechanism.always(),
                              Mechanism.grab_or_give(),
                              Mechanism.k_grabbing(2)]):
        game, config = gen_random_pawngame(6, 4, OwnershipKind.MVPP, mech,
                                           96_000 + i)
        sweeps.append((AllConfigurations(game), config))

    def no_sweep(*_):
        raise AssertionError("a witness ran the fixpoint again")

    monkeypatch.setattr(oracle, "_least_fixpoint", no_sweep)
    for sweep, config in sweeps:
        game = sweep.game
        won = [Configuration(v, config.p1_pawns, config.grabs_left)
               for v in sorted(set(range(game.n)) - game.targets)
               if sweep.winner(v, config.p1_pawns, config.grabs_left) == 1]
        assert won, game.mechanism
        for start in won:
            steps = sweep.witness(start.vertex, start.p1_pawns,
                                  start.grabs_left)
            assert check_play(game, start, steps, 1) is None, steps


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

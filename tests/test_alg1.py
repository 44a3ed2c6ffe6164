"""Border-absorption solver for one-vertex-per-pawn optional grabbing."""

from __future__ import annotations

import random
import tracemalloc
from pathlib import Path

import pytest

from pawngames import (
    AllConfigurations,
    Configuration,
    Mechanism,
    OwnershipKind,
    PawnGame,
    SolverPreconditionError,
    parse_game,
    solve_ovpp_optional,
)
from pawngames.crossval import suite_alg1
from pawngames.generators import gen_random_pawngame

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_game((DATA / name).read_text())


def test_worked_example_winners():
    game, config = load("g1.pawngame")
    assert solve_ovpp_optional(game, config).winner == 1
    v0_pawn = next(iter(game.owners[config.vertex]))
    lost = Configuration(config.vertex, frozenset({v0_pawn}))
    assert solve_ovpp_optional(game, lost).winner == 2


def test_initial_target_wins_at_round_zero():
    game, _ = load("g1.pawngame")
    t = game.names.index("t")
    result = solve_ovpp_optional(game, Configuration(t, frozenset()))
    assert result.winner == 1
    assert len(result.trace) == 1  # nothing absorbed before returning


def test_rejects_wrong_class():
    game, config = gen_random_pawngame(
        4, 2, OwnershipKind.MVPP, Mechanism.optional(), 5
    )
    with pytest.raises(SolverPreconditionError):
        solve_ovpp_optional(game, config)
    kgame, kconfig = gen_random_pawngame(
        4, 4, OwnershipKind.OVPP, Mechanism.k_grabbing(1), 6
    )
    with pytest.raises(SolverPreconditionError):
        solve_ovpp_optional(kgame, kconfig)


def naive_round(game, w, v0, p0):
    """The first rule, in the solver's order, that applies once ``w`` is
    absorbed, and the vertices it adds; recomputed from the edge set."""
    succ = {u: {v for x, v in game.edges if x == u} for u in range(game.n)}
    if v0 in w:
        return "won", frozenset()
    closure = {u for u in range(game.n) if u not in w and succ[u] <= w}
    if closure:
        return "closure", frozenset(closure)
    border = {u for u in range(game.n) if u not in w and succ[u] & w}
    if not border:
        return "lost", frozenset()
    if v0 in border and v0 in p0:
        return "initial-on-border", frozenset()
    closed = {u for u in border if succ[u] <= border | w}
    if closed:
        return "border-closed", frozenset(closed)
    forced = {u for u in range(game.n)
              if u not in w and u not in p0 and succ[u] <= border}
    if forced:
        return "forced", frozenset(forced)
    return "lost", frozenset()


def ovpp_instances(base_seed, count, max_n, pawn_sets=4):
    rng = random.Random(base_seed)
    for i in range(count):
        n = rng.randint(2, max_n)
        game, config = gen_random_pawngame(
            n, n, OwnershipKind.OVPP, Mechanism.optional(), base_seed + i
        )
        configs = {config}
        while len(configs) < pawn_sets:
            configs.add(Configuration(
                rng.randrange(n),
                frozenset(j for j in range(n) if rng.random() < 0.5)))
        yield game, configs


def test_every_round_adds_what_the_naive_rules_compute():
    seen = set()
    for game, configs in ovpp_instances(5000, 150, 10):
        oracle = AllConfigurations(game)
        for config in configs:
            result = solve_ovpp_optional(game, config)
            p0 = {v for v in range(game.n)
                  if game.owners[v] & config.p1_pawns}
            first, *rounds = result.trace
            assert (first.rule, first.added) == ("targets", game.targets)
            w = set(first.added)
            for entry in rounds:
                want = naive_round(game, w, config.vertex, p0)
                assert (entry.rule, entry.added) == want
                w |= entry.added
                seen.add(entry.rule)
            if rounds and rounds[-1].rule == "initial-on-border":
                end = 1
            else:
                end = {"won": 1, "lost": 2}[
                    naive_round(game, w, config.vertex, p0)[0]]
            assert result.winner == end
            assert end == oracle.winner(config.vertex, config.p1_pawns)
    assert seen == {"closure", "initial-on-border", "border-closed", "forced"}


def test_absorption_terminates_within_vertex_count_rounds():
    for seed in range(60):
        game, config = gen_random_pawngame(
            6, 6, OwnershipKind.OVPP, Mechanism.optional(), 3000 + seed
        )
        result = solve_ovpp_optional(game, config)
        absorbed = set(result.trace[0].added)
        growth = [entry for entry in result.trace[1:]
                  if entry.rule != "initial-on-border"]
        # every recorded round adds fresh vertices to the absorbed set
        assert len(growth) <= game.n
        for entry in growth:
            assert entry.added and not entry.added & absorbed
            absorbed |= entry.added


def test_absorbed_vertices_are_winning_regardless_of_arrival():
    # vertices added by closure or border rules win with and without their
    # own pawn; vertices added by the forced rule are only claimed winning
    # when the opponent holds their pawn
    for seed in range(40):
        game, config = gen_random_pawngame(
            5, 5, OwnershipKind.OVPP, Mechanism.optional(), 4000 + seed
        )
        result = solve_ovpp_optional(game, config)
        oracle = AllConfigurations(game)
        p0 = config.p1_pawns
        for entry in result.trace[1:]:
            for u in entry.added:
                pawn = next(iter(game.owners[u]))
                assert oracle.winner(u, p0 - {pawn}) == 1
                if entry.rule != "forced":
                    assert oracle.winner(u, p0 | {pawn}) == 1


def test_long_chain_solves_in_linear_memory():
    # c0 -> c1 -> ... -> t, with an escape c2 -> s; Player 1 holds nothing.
    # The chain closes back to c3 one vertex per round, then c1 is forced.
    length = 3000
    t, s = length, length + 1
    edges = {(i, i + 1) for i in range(length - 1)} | {
        (length - 1, t), (2, s), (t, t), (s, s)}
    game = PawnGame(
        n=length + 2, edges=frozenset(edges), targets=frozenset({t}),
        d=length + 2, owners=tuple(frozenset({v}) for v in range(length + 2)),
        mechanism=Mechanism.optional(),
    )
    tracemalloc.start()
    try:
        result = solve_ovpp_optional(game, Configuration(0, frozenset()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.winner == 1
    rules = [entry.rule for entry in result.trace]
    assert rules == (["targets"] + ["closure"] * (length - 3)
                     + ["forced", "closure"])
    assert peak < 10 * 2**20


def test_agreement_with_oracle_on_random_games():
    assert suite_alg1(seed=77, count=150) == []

"""k-grabbing games of any ownership kind, decided by the exact route."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from pawngames import (
    Configuration,
    Mechanism,
    OwnershipKind,
    PawnGame,
    SolverPreconditionError,
    solve_explicit,
    solve_kgrab_dfs,
)
from pawngames.crossval import check_play, suite_dfs
from pawngames.gamefile import parse_game
from pawngames.generators import (
    gen_random_pawngame,
    gen_setcover,
    gen_tqbf,
    parse_qbf,
    qbf_eval,
    set_cover_exists,
)
from pawngames.oracle import (
    DEFAULT_BUDGET,
    AllConfigurations,
    _expand,
    _mask,
    witness_play,
)
from pawngames.turnbased import attract

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


def test_the_lazy_witness_grabs_no_owner_of_a_target():
    # 25 pawns own v, too many for the cone's sweep; the lazy slice holds
    # the target only at the grab budget it is entered with, so the walk
    # offers no grab there
    owners = ",".join(map(str, range(25)))
    game, config = parse_game(
        "pawngame wide\nmechanism k-grabbing 1\npawns 26\n"
        f"vertex v owners={owners}\nvertex t owners=25 target\n"
        "vertex s owners=25\nedge v t\nedge v s\nedge t t\nedge s s\n"
        "init vertex=v p1pawns=0 grabs-left=1\n")
    result = solve_kgrab_dfs(game, config)
    assert (result.winner, result.exact.route) == (1, "lazy")
    assert result.witness() == [("move", game.names.index("t")), ("nograb",)]


def test_search_winners_are_pinned():
    # sha256 of the winners on 3,000 seeded games, computed when a bounded
    # AND-OR search decided them; every Player 1 witness is refereed and
    # stays within the paper's |V| * (k + 1) rounds.  The nodes pin the
    # exact route's summed states
    rng = random.Random(2025)
    digest = hashlib.sha256()
    nodes = 0
    for i in range(3000):
        n, d, k = rng.randint(2, 8), rng.randint(2, 6), rng.randint(0, 3)
        game, config = gen_random_pawngame(
            n, d, OwnershipKind.OMVPP, Mechanism.k_grabbing(k), 7000 + i)
        result = solve_kgrab_dfs(game, config)
        nodes += result.nodes
        digest.update(f"{i}:{result.winner};".encode())
        if result.winner == 1:
            steps = result.witness()
            assert check_play(game, config, steps, 1) is None, i
            rounds = sum(step[0] == "move" for step in steps)
            assert rounds <= game.n * (config.grabs_left + 1), i
    assert digest.hexdigest() == (
        "0bd466ce1b129868ba2625cfffb7acdb15eb8ef111d94f51a011ef0413ec57c2")
    assert nodes == 180796


def test_search_work_on_a_set_cover_instance_is_pinned():
    # 12 elements, 11 sets of density 0.3 and 4 grabs, as in the benchmark's
    # heaviest set-cover jobs: the cone's 65 vertices and 12 pawns are swept
    # at every grab budget, and the lazy route, where a wasted grab option
    # costs the most, grabs just in time (67,329 states with every grab)
    rng = random.Random(4)
    sets = [frozenset(e for e in range(1, 13) if rng.random() < 0.3)
            or frozenset({rng.randint(1, 12)}) for _ in range(11)]
    game, config = gen_setcover(12, sets, 4)
    assert set_cover_exists(12, sets, 4)
    result = solve_kgrab_dfs(game, config)
    assert (result.winner, result.exact.route, result.nodes) == (
        1, "sweep", 65 * 2**12 * 5)
    assert check_play(game, config, result.witness(), 1) is None
    lazy = solve_explicit(game, config)
    assert (lazy.winner, lazy.num_states) == (1, 31079)
    assert check_play(game, config, witness_play(game, lazy), 1) is None


def every_small_kgrab_game(n, d):
    """Every k-grabbing game on ``n`` vertices and ``d`` pawns, with
    ``k = d``, up to vertex renaming: every vertex has a non-empty owner set
    and out-set, and some vertex is a target."""
    perms = list(itertools.permutations(range(n)))
    # per renaming: the image of each vertex mask, and the old vertex
    # behind each new one
    images = [([sum(1 << perm[v] for v in range(n) if m >> v & 1)
                for m in range(1 << n)],
               [perm.index(w) for w in range(n)]) for perm in perms]
    owner_sets = [frozenset(s) for size in range(1, d + 1)
                  for s in itertools.combinations(range(d), size)]
    masks = range(1, 1 << n)
    seen = set()
    for owners in itertools.product(range(len(owner_sets)), repeat=n):
        for outs in itertools.product(masks, repeat=n):
            for targets in masks:
                if (owners, outs, targets) in seen:
                    continue
                for image, inverse in images:
                    seen.add((tuple(owners[v] for v in inverse),
                              tuple(image[outs[v]] for v in inverse),
                              image[targets]))
                yield PawnGame(
                    n=n, d=d, owners=tuple(owner_sets[i] for i in owners),
                    edges=frozenset((u, v) for u in range(n)
                                    for v in range(n) if outs[u] >> v & 1),
                    targets=frozenset(v for v in range(n) if targets >> v & 1),
                    mechanism=Mechanism.k_grabbing(d))


def test_search_matches_the_sweep_on_every_small_game():
    # every MVPP and OMVPP k-grabbing game on 3 vertices and 1 or 2 pawns,
    # at every configuration: the lazy expansion from all of them at once
    # grabs just in time, the sweep offers every grab
    games = checked = 0
    for d in (1, 2):
        pawn_sets = [frozenset(s) for size in range(d + 1)
                     for s in itertools.combinations(range(d), size)]
        configs = list(itertools.product(range(3), pawn_sets, range(d + 1)))
        for game in every_small_kgrab_game(3, d):
            games += 1
            full = AllConfigurations(game)
            sg, roots = _expand(game, [(v, _mask(pawns), r)
                                       for v, pawns, r in configs],
                                DEFAULT_BUDGET, faithful=False)
            in_region, _ = attract(sg.succ, sg.side, sg.target)
            for (v, pawns, r), root in zip(configs, roots):
                got = 1 if in_region[root] else 2
                assert got == full.winner(v, pawns, r), (game, v, pawns, r)
                checked += 1
    # per game: 3 vertices, 2^d pawn sets and d + 1 grab budgets
    assert (games, checked) == (434 + 11095, 434 * 12 + 11095 * 36)


NINE = ("Ex1.Ax2.Ex3.Ex4.Ex5.Ax6.Ex7.Ex8.Ex9.(~x5|~x7|~x9)&(~x2|x8|~x9)"
        "&(x1|~x7)&(x1)&(~x5)&(~x3|x7)&(x1|~x4|~x5)&(x1|~x4|x9)&(x4|~x8)")


@pytest.mark.parametrize("formula", [NINE, "A" + NINE[1:]],
                         ids=["true", "false"])
def test_a_nine_variable_formula_game_matches_its_truth(formula):
    # 9 variables put the cone's sweep past the budget; the lazy route's
    # just-in-time grabs decide it, where the bounded AND-OR search that
    # kgrab-dfs once ran expanded 3.6 and 14.6 million nodes
    qbf = parse_qbf(formula)
    game, config = gen_tqbf(qbf)
    result = solve_kgrab_dfs(game, config)
    # offering grabs also where Player 1 controls the vertex gives 140,444
    assert (result.exact.route, result.nodes) == ("lazy", 122090)
    assert result.winner == (1 if qbf_eval(qbf) else 2)
    if result.winner == 1:
        steps = result.witness()
        assert check_play(game, config, steps, 1) is None
        rounds = sum(step[0] == "move" for step in steps)
        assert rounds <= game.n * (config.grabs_left + 1)

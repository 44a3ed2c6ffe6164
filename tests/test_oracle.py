"""Explicit configuration-graph solver: pinned winners, expansion shape,
budget handling and the monotonicity properties it certifies."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from pawngames import (
    AllConfigurations,
    BudgetExceededError,
    Configuration,
    GrabRule,
    Mechanism,
    OwnershipKind,
    ValidationError,
    attract,
    expand_game,
    parse_game,
    solve_exact,
    solve_explicit,
    solve_turnbased,
    tb_to_optional,
    witness_play,
)
from pawngames.cli import main
from pawngames.crossval import check_play
from pawngames.generators import (
    atm_accepts_bruteforce,
    gen_atm_lockkey,
    gen_random_atm,
    gen_random_pawngame,
    gen_random_turnbased,
)
from pawngames.lockkey import lockkey_to_optional
from pawngames.oracle import _NO_R, _expand, _mask, _restrict, _unmask
from test_kgrab_ovpp import every_ovpp_game

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_game((DATA / name).read_text())


def pawn_of(game, vname):
    return next(iter(game.owners[game.names.index(vname)]))


def test_g1_winners_match_the_worked_example():
    game, config = load("g1.pawngame")
    assert solve_explicit(game, config).winner == 1
    with_v0 = Configuration(config.vertex, frozenset({pawn_of(game, "v0")}))
    assert solve_explicit(game, with_v0).winner == 2


def test_g2_winner_and_double_visit_witness():
    game, config = load("g2_body.pawngame")
    result = solve_explicit(game, config)
    assert result.winner == 1
    moves = [step[1] for step in witness_play(game, result) if step[0] == "move"]
    v1 = game.names.index("v1")
    assert moves.count(v1) >= 2
    assert game.names[moves[-1]] == "t"


def test_losing_side_witness_shows_the_trap():
    game, config = load("g1.pawngame")
    lost = Configuration(config.vertex, frozenset({pawn_of(game, "v0")}))
    result = solve_explicit(game, lost)
    assert result.winner == 2
    steps = witness_play(game, result)
    moves = [game.names[s[1]] for s in steps if s[0] == "move"]
    assert moves[-1] == "s"
    assert steps[-1] == ("cycle",)


def test_g2_caption_variant_golden_winner():
    # computed once with this same solver and frozen; settles the
    # start-set discrepancy between the two published descriptions
    game, config = load("g2_caption.pawngame")
    assert solve_explicit(game, config).winner == 1


def test_optional_intermediates_offer_one_exchange_per_mover_pawn():
    game, config = load("g1.pawngame")
    expanded = expand_game(game, config)
    for desc, vid in expanded.index.items():
        if not desc.startswith("i "):
            continue
        inner = desc.split("after[", 1)[1]
        pawns = inner.split("p1={", 1)[1].split("}", 1)[0]
        held = len([p for p in pawns.split(",") if p]) if pawns else 0
        vname = inner.split("v=", 1)[1].split(" ", 1)[0]
        v = game.names.index(vname)
        mover_pawns = held if game.owners[v] & _pawnset(pawns) else game.d - held
        assert len(expanded.tb.succ[vid]) == mover_pawns + 1, desc


def _pawnset(text):
    return frozenset(int(p) for p in text.split(",") if p)


def test_target_configurations_are_exactly_the_expansion_targets():
    game, config = load("g1.pawngame")
    expanded = expand_game(game, config)
    for desc, vid in expanded.index.items():
        on_target = desc.startswith("c v=t ")
        assert (vid in expanded.tb.targets) == on_target


def test_exhausted_grab_budget_leaves_single_successor():
    text = """
pawngame k
mechanism k-grabbing 1
pawns 2
vertex a owners=0
vertex b owners=1 target
edge a b
edge b b
init vertex=a p1pawns= grabs-left=0
"""
    game, config = parse_game(text)
    expanded = expand_game(game, config)
    for desc, vid in expanded.index.items():
        if desc.startswith("i "):
            assert len(expanded.tb.succ[vid]) == 1, desc


def test_always_grabbing_intermediates_never_starve():
    for i in range(40):
        game, config = gen_random_pawngame(
            4, 3, OwnershipKind.MVPP, Mechanism.always(), 600 + i
        )
        solve_explicit(game, config)  # construction asserts internally


def test_budget_exceeded_reports_estimate():
    # a state of 16 pawns costs one word, so the lazy route expands until
    # the state that would pass the budget and reports the words with it
    game, config = load("heavy_tb7_90.pawngame")
    with pytest.raises(BudgetExceededError) as err:
        solve_explicit(game, config, budget=1000)
    assert (err.value.estimate, err.value.budget) == (1001, 1000)


def test_fewer_pawns_never_hurt_under_optional_grabbing():
    # exhaustive subset sweep on one game per seed; the acceptance suite
    # runs the full quantified version
    for seed in range(10):
        game, _ = gen_random_pawngame(
            5, 3, OwnershipKind.MVPP, Mechanism.optional(), 700 + seed
        )
        oracle = AllConfigurations(game)
        sets = [frozenset(j for j in range(3) if m >> j & 1) for m in range(8)]
        for v in range(game.n):
            owner = next(iter(game.owners[v]))
            for p in sets:
                if oracle.winner(v, p) != 1:
                    continue
                for q in sets:
                    if q <= p and (owner not in p or owner in q):
                        assert oracle.winner(v, q) == 1


def test_subset_monotonicity_can_fail_with_overlapping_owners():
    # the sweep above must not be asserted for overlapping ownership; find
    # a witness violation to keep the restriction honest
    found = False
    for seed in range(300):
        game, _ = gen_random_pawngame(
            4, 3, OwnershipKind.OMVPP, Mechanism.optional(), 90_000 + seed
        )
        oracle = AllConfigurations(game)
        sets = [frozenset(j for j in range(3) if m >> j & 1) for m in range(8)]
        for v in range(game.n):
            owners = game.owners[v]
            for p in sets:
                if oracle.winner(v, p) != 1:
                    continue
                for q in sets:
                    if not q <= p:
                        continue
                    if owners & p and not owners & q:
                        continue
                    if oracle.winner(v, q) == 2:
                        found = True
        if found:
            break
    assert found, "expected at least one overlapping-ownership violation"


MECHANISMS = (Mechanism.optional(), Mechanism.always(),
              Mechanism.grab_or_give(), *map(Mechanism.k_grabbing, range(4)))


def _sweep_games():
    """Seeded small games over every mechanism, ownership kind and k <= 3."""
    for seed in range(630):
        mech = MECHANISMS[seed % len(MECHANISMS)]
        kind = tuple(OwnershipKind)[seed // len(MECHANISMS) % 3]
        n = 2 + seed % 6
        d = {OwnershipKind.OVPP: n, OwnershipKind.MVPP: 1 + seed % (n - 1),
             OwnershipKind.OMVPP: 2 + seed % 3}[kind]
        yield gen_random_pawngame(n, d, kind, mech, 40_000 + seed)[0]


def _grab_budgets(game):
    if game.mechanism.rule is GrabRule.K_GRABBING:
        return range(game.mechanism.k + 1)
    return [None]


def test_sweep_matches_the_unpruned_expansion_on_every_configuration():
    checked = 0
    for game in _sweep_games():
        roots = [(v, p, _NO_R if r is None else r)
                 for v in range(game.n) for p in range(1 << game.d)
                 for r in _grab_budgets(game)]
        sg, ids = _expand(game, roots, 10**6, faithful=True)
        in_region, _ = attract(sg.succ, sg.side, sg.target)
        oracle = AllConfigurations(game)
        for (v, p, r), sid in zip(roots, ids):
            r = None if r == _NO_R else r
            assert oracle.winner(v, _unmask(p), r) == (1 if in_region[sid] else 2), (
                game.mechanism, game.owners, v, p, r)
            checked += 1
    assert checked > 140_000


def test_rooted_lazy_path_matches_the_sweep():
    rng = random.Random(11)
    for game in _sweep_games():
        oracle = AllConfigurations(game)
        for _ in range(2):
            v = rng.randrange(game.n)
            pawns = frozenset(j for j in range(game.d) if rng.random() < 0.5)
            r = rng.choice(list(_grab_budgets(game)))
            want = oracle.winner(v, pawns, r)
            assert solve_explicit(game, Configuration(v, pawns, r)).winner == want
    for seed in range(100):
        n = 2 + seed % 5
        tb = gen_random_turnbased(n, 70_000 + seed)
        v0 = seed % n
        game, config = tb_to_optional(tb, v0)
        want = 1 if v0 in solve_turnbased(tb).region else 2
        assert solve_explicit(game, config).winner == want
        assert AllConfigurations(game).winner(config.vertex, config.p1_pawns) == want


def test_sweep_budget_and_grab_budget_lookups():
    game, _ = gen_random_pawngame(
        5, 3, OwnershipKind.OMVPP, Mechanism.k_grabbing(2), 3
    )
    # the budget counts table words: one word of 2^3 sets per vertex and
    # grab layer
    words = 5 * 3
    with pytest.raises(BudgetExceededError) as err:
        AllConfigurations(game, budget=words - 1)
    assert (err.value.estimate, err.value.budget) == (words, words - 1)
    oracle = AllConfigurations(game, budget=words)
    assert oracle.size == 5 * 2 ** 3 * 3
    assert oracle.winner(0, frozenset(), 2) in (1, 2)
    for bad in (None, -1, 3):
        with pytest.raises(ValidationError):
            oracle.winner(0, frozenset(), bad)


def compiled_atm(i):
    """Machine ``i`` of the compiled ATM chain, in optional-grabbing form,
    and whether the machine accepts its word."""
    atm, word = gen_random_atm(1 + i % 3, seed=i)
    game, config, _ = lockkey_to_optional(*gen_atm_lockkey(atm, word))
    return game, config, atm_accepts_bruteforce(atm, word)


def test_exact_route_stays_lazy_when_the_sweep_does_not_fit():
    # the start's cone keeps 25 of the 54 vertices and 23 of the 50 pawns:
    # the sweep's 27 * 2^23 configurations of the restricted game are still
    # past the budget, so the lazy route gets the whole budget
    game, config, accepts = compiled_atm(51)
    result = solve_exact(game, config)
    assert (result.route, result.states, result.n, result.d) == (
        "lazy", 784, 27, 23)
    assert result.winner == solve_explicit(game, config).winner == (
        1 if accepts else 2)
    assert check_play(game, config, result.witness(), result.winner) is None


def test_exact_route_decides_a_slice_far_below_its_pawn_sets():
    # 22 and 20 pawns put the full sweep past the budget, or near it; the
    # start's cone keeps few vertices and only their pawns, so the
    # restricted game sweeps
    for n, seed, cone in ((10, 7, (10, 8)), (9, 3, (14, 12))):
        tb = gen_random_turnbased(n, seed)
        game, config = tb_to_optional(tb, 0)
        assert (game.n, game.d) == (2 * n + 2, 2 * n + 2)
        result = solve_exact(game, config)
        assert (result.route, (result.n, result.d)) == ("sweep", cone)
        assert result.states == cone[0] << cone[1]
        assert result.winner == (1 if 0 in solve_turnbased(tb).region else 2)
        steps = result.witness()
        assert check_play(game, config, steps, result.winner) is None


def test_restriction_matches_the_full_sweep_on_every_small_game():
    # every OVPP game on 2 and 3 vertices under each mechanism: the sweep of
    # each root's cone against the unrestricted sweep, at every pawn set
    # and grab budget
    checked = 0
    for n in (2, 3):
        pawn_sets = [frozenset(s) for size in range(n + 1)
                     for s in itertools.combinations(range(n), size)]
        for base in every_ovpp_game(n):
            for mech in (Mechanism.optional(), Mechanism.always(),
                         Mechanism.grab_or_give(), Mechanism.k_grabbing(2)):
                game = dataclasses.replace(base, mechanism=mech)
                full = AllConfigurations(game)
                for v in range(n):
                    budgets = _grab_budgets(game)
                    cone = _restrict(game, Configuration(v, frozenset(),
                                                         budgets[-1]))
                    part = AllConfigurations(cone.game)
                    w = cone.config.vertex
                    for pawns in pawn_sets:
                        q = _unmask(cone.compress(_mask(pawns)))
                        for r in budgets:
                            assert part.winner(w, q, r) == full.winner(
                                v, pawns, r), (game, v, pawns, r)
                            checked += 1
    # per game: n roots, 2^n pawn sets, and 1 + 1 + 1 + 3 grab budgets
    assert checked == 27 * 2 * 4 * 6 + 2401 * 3 * 8 * 6
@pytest.mark.parametrize("name, states, digest", [
    ("g1", 81,
     "08d359960932e094826c636ecee5134799f09cef80c2f66eca8f02d8adaeb89a"),
    ("g2_body", 290,
     "8f28549215391cf9cef346e06645b8d525bffb4cfbf9fb2a35948a956d63dfcd"),
    ("g2_caption", 290,
     "49bcc99889ac22013ab89097ba46dd5e26339b1441a848ce473af0f7042715fe"),
    ("kgrab_omvpp_30", 4393,
     "c0028a12dabf5ac916dcba177d3a8984ab71612f0fbe679a43711674f86fdfaf"),
])
def test_reduce_expand_output_is_pinned(capsys, name, states, digest):
    # the faithful expansion's canonical text, byte for byte
    assert main(["reduce", "expand", str(DATA / f"{name}.pawngame")]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("tb ") for line in out.splitlines()) == states
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lazy_solve_and_witness_are_pinned():
    game, config = tb_to_optional(gen_random_turnbased(8, 7), 0)
    result = solve_explicit(game, config)
    assert (result.winner, result.num_states) == (1, 65543)
    assert witness_play(game, result) == [
        ("move", 13), ("nograb",), ("move", 5), ("nograb",)]

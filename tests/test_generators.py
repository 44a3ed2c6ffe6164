"""Reduction generators against their source-problem oracles."""

from __future__ import annotations

import pytest

from pawngames import (
    GameFormatError,
    Mechanism,
    OwnershipKind,
    classify,
    solve_lockkey,
)
from pawngames.crossval import suite_atm, suite_setcover, suite_tqbf
from pawngames.generators import (
    AtmSpec,
    atm_accepts_bruteforce,
    gen_atm_lockkey,
    gen_random_pawngame,
    gen_tqbf,
    parse_atm,
    parse_qbf,
    qbf_eval,
    serialize_atm,
)
from structural import structurally_equal


def one_step_machine(target_state):
    return AtmSpec(
        states=("q0", "qA", "qR"),
        owner={"q0": 1, "qA": 1, "qR": 2},
        alphabet=("a", "b"),
        accept="qA",
        reject="qR",
        cells=2,
        trans={("q0", "a"): ((target_state, "a", "R"),)},
    )


def test_single_step_acceptance_compiles_to_a_win():
    atm = one_step_machine("qA")
    assert atm_accepts_bruteforce(atm, "aa")
    lk, lc = gen_atm_lockkey(atm, "aa")
    assert solve_lockkey(lk, lc) == 1


def test_single_step_rejection_compiles_to_a_loss():
    atm = one_step_machine("qR")
    assert not atm_accepts_bruteforce(atm, "aa")
    lk, lc = gen_atm_lockkey(atm, "aa")
    assert solve_lockkey(lk, lc) == 2


def test_machine_game_vertex_count():
    atm = one_step_machine("qA")
    lk, _ = gen_atm_lockkey(atm, "aa")
    mains = len(atm.states) * atm.cells * len(atm.alphabet)
    transitions = 1  # only (q0, a) at cell 1 stays on the tape
    assert lk.n == mains + transitions


def test_machine_word_must_fill_the_tape():
    atm = one_step_machine("qA")
    with pytest.raises(Exception, match="length"):
        gen_atm_lockkey(atm, "a")


def test_atm_text_roundtrip():
    atm = one_step_machine("qA")
    text = serialize_atm(atm)
    assert serialize_atm(parse_atm(text)) == text


def test_machine_acceptance_matches_game_winner_on_random_machines():
    assert suite_atm(seed=71, count=25) == []


def test_cover_game_matches_cover_existence():
    assert suite_setcover(seed=72, count=40) == []


def test_trivial_quantified_formulas():
    game, config = gen_tqbf(parse_qbf("Ex1.(x1)"))
    from pawngames import solve_kgrab_dfs

    assert solve_kgrab_dfs(game, config).winner == 1
    game2, config2 = gen_tqbf(parse_qbf("Ax1.(x1)"))
    assert solve_kgrab_dfs(game2, config2).winner == 2


def test_formula_game_matches_truth_on_random_formulas():
    assert suite_tqbf(seed=73, count=40) == []


def test_formula_parser_accepts_the_documented_syntax():
    qbf = parse_qbf("Ex1.Ax2.(x1|~x2)&(x2)")
    assert qbf.quants == ("E", "A")
    assert qbf.clauses == (frozenset({1, -2}), frozenset({2}))
    assert qbf_eval(qbf) is False
    with pytest.raises(GameFormatError):
        parse_qbf("Ex2.(x2)")
    with pytest.raises(GameFormatError):
        parse_qbf("Ex1.x1")


def test_tqbf_games_are_overlapping_ownership():
    game, config = gen_tqbf(parse_qbf("Ex1.Ax2.(x1|~x2)&(x2|x1)"))
    assert classify(game) is OwnershipKind.OMVPP
    assert game.mechanism == Mechanism.k_grabbing(2)
    assert config.grabs_left == 2


def test_random_games_are_seed_stable_and_well_kinded():
    a = gen_random_pawngame(6, 4, OwnershipKind.OMVPP, Mechanism.optional(), 99)
    b = gen_random_pawngame(6, 4, OwnershipKind.OMVPP, Mechanism.optional(), 99)
    assert structurally_equal(*a, *b)
    for kind, d in ((OwnershipKind.OVPP, 6), (OwnershipKind.MVPP, 3),
                    (OwnershipKind.OMVPP, 4)):
        game, _ = gen_random_pawngame(6, d, kind, Mechanism.optional(), 7)
        assert classify(game) is kind
        assert all(game.succ[v] for v in range(game.n))


def test_random_generator_rejects_unsatisfiable_shapes():
    from pawngames import ValidationError

    with pytest.raises(ValidationError):
        gen_random_pawngame(4, 3, OwnershipKind.OVPP, Mechanism.optional(), 1)
    with pytest.raises(ValidationError):
        gen_random_pawngame(4, 4, OwnershipKind.MVPP, Mechanism.optional(), 1)

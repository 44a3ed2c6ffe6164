"""Cross-validation plumbing: determinism and counterexample round trips."""

from __future__ import annotations

from pawngames.crossval import run_suite
from pawngames.gamefile import parse_game
from structural import structurally_equal


def test_suites_are_deterministic_per_seed():
    for name in ("alg1", "dfs", "tqbf"):
        first = run_suite(name, seed=5, count=20)
        second = run_suite(name, seed=5, count=20)
        assert first == second


def test_counterexample_reports_reparse():
    from pawngames.crossval import _counterexample
    from pawngames.generators import gen_random_pawngame
    from pawngames.model import Mechanism, OwnershipKind

    game, config = gen_random_pawngame(
        5, 5, OwnershipKind.OVPP, Mechanism.optional(), 12
    )
    report = _counterexample(game, config, "some mismatch")
    note, _, body = report.partition("\n")
    assert note == "some mismatch"
    game2, config2 = parse_game(body)
    assert structurally_equal(game, config, game2, config2)

"""Model types, classification, the mover rule and the file format."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from pawngames import (
    Configuration,
    GameFormatError,
    Mechanism,
    OwnershipKind,
    PawnGame,
    ValidationError,
    classify,
    mover,
    parse_game,
    serialize_game,
)
from pawngames.generators import gen_random_pawngame
from structural import structurally_equal

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_game((DATA / name).read_text())


def test_g1_parses_to_ovpp_optional_game():
    game, config = load("g1.pawngame")
    assert game.n == 4
    assert game.d == 4
    assert game.mechanism == Mechanism.optional()
    assert classify(game) is OwnershipKind.OVPP
    assert game.names[config.vertex] == "v0"
    assert config.p1_pawns == frozenset()
    assert {game.names[v] for v in game.targets} == {"t"}


def test_vertex_without_owner_is_rejected():
    text = (DATA / "g1.pawngame").read_text().replace(
        "vertex v1 owners=1", "vertex v1 owners="
    )
    with pytest.raises(ValidationError, match="no owner"):
        parse_game(text)


def test_dead_end_vertex_is_rejected():
    text = (DATA / "g1.pawngame").read_text().replace("edge s s\n", "")
    with pytest.raises(ValidationError, match="dead end"):
        parse_game(text)


def test_pawn_id_out_of_range_is_rejected():
    text = (DATA / "g1.pawngame").read_text().replace("owners=3", "owners=9")
    with pytest.raises(ValidationError, match="out of range"):
        parse_game(text)


def test_g2_serialize_parse_preserves_structure():
    game, config = load("g2_body.pawngame")
    game2, config2 = parse_game(serialize_game(game, config))
    assert structurally_equal(game, config, game2, config2)


def test_initial_pawn_out_of_range_is_rejected():
    text = (DATA / "g1.pawngame").read_text().replace(
        "init vertex=v0 p1pawns=", "init vertex=v0 p1pawns=7"
    )
    with pytest.raises(ValidationError, match="out of range"):
        parse_game(text)


def test_grabs_left_above_budget_is_rejected():
    text = """
pawngame k
mechanism k-grabbing 1
pawns 1
vertex a owners=0 target
edge a a
init vertex=a p1pawns= grabs-left=2
"""
    with pytest.raises(ValidationError):
        parse_game(text)


def test_syntax_error_reports_line_number():
    with pytest.raises(GameFormatError, match="line 3"):
        parse_game("pawngame x\nmechanism optional-grabbing\nbogus line\n")


def _random_games(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        kind = rng.choice(list(OwnershipKind))
        n = rng.randint(2, 7)
        if kind is OwnershipKind.OVPP:
            d = n
        elif kind is OwnershipKind.MVPP:
            n = max(n, 3)
            d = rng.randint(2, n - 1)
        else:
            d = rng.randint(2, 6)
        mech = rng.choice([
            Mechanism.optional(), Mechanism.always(),
            Mechanism.grab_or_give(), Mechanism.k_grabbing(rng.randint(0, 3)),
        ])
        yield gen_random_pawngame(n, d, kind, mech, seed * 1000 + i)


def test_roundtrip_on_200_random_games():
    for game, config in _random_games(200, seed=11):
        text = serialize_game(game, config)
        game2, config2 = parse_game(text)
        assert structurally_equal(game, config, game2, config2)


def test_serialization_is_canonical_and_stable():
    game, config = load("g1.pawngame")
    text = serialize_game(game, config)
    assert text == serialize_game(game, config)

    # permuting declaration lines must not change the canonical form
    lines = text.strip().splitlines()
    head = [l for l in lines if l.split()[0] in ("pawngame", "mechanism", "pawns")]
    vertices = [l for l in lines if l.startswith("vertex")]
    edges = [l for l in lines if l.startswith("edge")]
    init = [l for l in lines if l.startswith("init")]
    rng = random.Random(3)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    shuffled = "\n".join(head + vertices + edges + init)
    game3, config3 = parse_game(shuffled)
    assert serialize_game(game3, config3) == text


def test_mover_rule():
    game, config = load("g1.pawngame")
    assert mover(game, config) == 2
    v0_pawn = next(iter(game.owners[config.vertex]))
    assert mover(game, Configuration(config.vertex, frozenset({v0_pawn}))) == 1

    shared = PawnGame(
        n=1,
        edges=frozenset({(0, 0)}),
        targets=frozenset(),
        d=6,
        owners=(frozenset({3, 5}),),
        mechanism=Mechanism.optional(),
    )
    assert mover(shared, Configuration(0, frozenset({5}))) == 1
    assert mover(shared, Configuration(0, frozenset({0, 1}))) == 2


def test_classify_matches_requested_kind():
    for kind in OwnershipKind:
        d = 5 if kind is OwnershipKind.OVPP else 3
        game, _ = gen_random_pawngame(5, d, kind, Mechanism.optional(), 42)
        assert classify(game) is kind


def test_classify_is_renaming_invariant():
    rng = random.Random(5)
    for game, _ in _random_games(30, seed=17):
        vperm = list(range(game.n))
        pperm = list(range(game.d))
        rng.shuffle(vperm)
        rng.shuffle(pperm)
        renamed = PawnGame(
            n=game.n,
            edges=frozenset((vperm[u], vperm[v]) for u, v in game.edges),
            targets=frozenset(vperm[v] for v in game.targets),
            d=game.d,
            owners=tuple(
                frozenset(pperm[j] for j in game.owners[ivp])
                for ivp in _inverse(vperm)
            ),
            mechanism=game.mechanism,
        )
        assert classify(renamed) is classify(game)


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv

"""Seeded mutation fuzz of the text parsers.

Every parser must either return or raise ``GameFormatError`` or
``ValidationError`` on any text, so that the CLI turns every malformed
input into exit code 2.  The inputs are canonical texts of random
instances, each mutated once: a token deleted, a token replaced by ``x``,
``-1`` or the empty string, an ``=`` dropped, a line truncated or a line
duplicated.  A text that still parses must re-serialize to a fixed point.
"""

from __future__ import annotations

import random
import re

import pytest

from pawngames.crossval import gen_random_qbf
from pawngames.errors import GameFormatError, ValidationError
from pawngames.gamefile import parse_game, serialize_game
from pawngames.generators import (
    gen_random_atm,
    gen_random_lockkey,
    gen_random_pawngame,
    gen_random_turnbased,
    parse_atm,
    parse_qbf,
    serialize_atm,
)
from pawngames.lockkey import parse_lockkey, serialize_lockkey
from pawngames.model import Mechanism, OwnershipKind
from pawngames.turnbased import parse_tbgame, serialize_tbgame

MUTANTS_PER_TEXT = 12


def _formula(qbf) -> str:
    prefix = "".join(f"{q}x{i + 1}." for i, q in enumerate(qbf.quants))
    return prefix + "&".join(
        "(" + "|".join(f"~x{-lit}" if lit < 0 else f"x{lit}"
                       for lit in sorted(clause)) + ")"
        for clause in qbf.clauses
    )


def _game_text(seed: int) -> str:
    rng = random.Random(seed)
    mechanism = rng.choice([Mechanism.optional(), Mechanism.always(),
                            Mechanism.grab_or_give(),
                            Mechanism.k_grabbing(rng.randint(0, 2))])
    n = rng.randint(3, 5)
    kind = rng.choice(list(OwnershipKind))
    d = {OwnershipKind.OVPP: n, OwnershipKind.MVPP: n - 1,
         OwnershipKind.OMVPP: rng.randint(2, n)}[kind]
    return serialize_game(*gen_random_pawngame(n, d, kind, mechanism, seed))


WORDS = r"\S+|\s+"

# name -> (text of seed i, parse, serialize of the parsed value,
#          token pattern of the format)
FORMATS = {
    "game": (_game_text, parse_game, lambda value: serialize_game(*value),
             WORDS),
    "lockkey": (lambda i: serialize_lockkey(*gen_random_lockkey(4, 2, i)),
                parse_lockkey, lambda value: serialize_lockkey(*value), WORDS),
    "atm": (lambda i: serialize_atm(gen_random_atm(1 + i % 3, i)[0]),
            parse_atm, serialize_atm, WORDS),
    "tb": (lambda i: serialize_tbgame(gen_random_turnbased(5, i)),
           parse_tbgame, serialize_tbgame, WORDS),
    "qbf": (lambda i: _formula(gen_random_qbf(i)), parse_qbf, _formula,
            r"x\d+|[^x]"),
}


def mutate(rng: random.Random, text: str, pattern: str) -> str:
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = re.findall(pattern, lines[i])
    words = [j for j, token in enumerate(tokens) if not token.isspace()]
    kind = rng.randrange(6)
    if kind == 0:
        del tokens[rng.choice(words)]
    elif kind == 1:
        tokens[rng.choice(words)] = rng.choice(("x", "-1", ""))
    elif kind == 2 and "=" in lines[i]:  # else the line is duplicated
        at = rng.choice([j for j, c in enumerate(lines[i]) if c == "="])
        tokens = [lines[i][:at], lines[i][at + 1:]]
    elif kind == 3:
        tokens = [lines[i][:rng.randrange(len(lines[i]))]]
    else:
        lines.insert(i, lines[i])
    lines[i] = "".join(tokens)
    return "\n".join(lines) + text[len(text.rstrip("\n")):]


@pytest.mark.parametrize("name", FORMATS)
def test_mutated_texts_parse_or_raise_a_format_or_validation_error(name):
    make, parse, serialize, pattern = FORMATS[name]
    rng = random.Random(2024)
    parsed = refused = 0
    for i in range(40):
        text = make(6000 + i)
        assert serialize(parse(text)) == text
        for _ in range(MUTANTS_PER_TEXT):
            mutant = mutate(rng, text, pattern)
            try:
                canonical = serialize(parse(mutant))
            except (GameFormatError, ValidationError):
                refused += 1
                continue
            assert serialize(parse(canonical)) == canonical, mutant
            parsed += 1
    assert parsed > 0 and refused > 0


def test_format_errors_carry_the_line_number():
    cases = [
        (parse_tbgame, "tb 0 player=1\ntb one player=2\n", 2),
        (parse_tbgame, "tb 0 player=1 target\ntbedge 0 -1\n", 2),
        (parse_tbgame, "tb 0 player=1\ntbedge 0 1\ntb 1 player=2\n", 2),
        (parse_tbgame, "tb 0 player=1\ntb 0 player=2\n", 2),
        (parse_lockkey, "lockkeygame g\nlocks -1\n", 2),
        (parse_lockkey, "lockkeygame g\nlocks 1\nvertex a player=3\n", 3),
        (parse_game, b"pawngame g\n\xff\n", 2),
    ]
    for parse, text, line in cases:
        with pytest.raises(GameFormatError) as err:
            parse(text)
        assert err.value.line == line, text

"""Line-oriented text format for pawn games.

::

    pawngame <name>
    mechanism optional-grabbing | always-grabbing | grab-or-give | k-grabbing <k>
    pawns <d>
    vertex <vname> owners=<p0,p1,...> [target]
    edge <vname> <vname>
    init vertex=<vname> p1pawns=<comma-list-or-empty> [grabs-left=<r>]

``#`` starts a comment, tokens are whitespace-separated, pawn ids are
0-based integers.  ``serialize_game`` emits a canonical form (vertices and
edges sorted by name) that ``parse_game`` inverts.  The tokenizer and the
typed-token helpers below serve all four line formats (game, Lock & Key,
machine and ``tb``), so a malformed line raises ``GameFormatError``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import GameFormatError
from .model import (
    Configuration,
    GrabRule,
    Mechanism,
    PawnGame,
    validate_configuration,
)

_MECH_WORDS = {
    "optional-grabbing": GrabRule.OPTIONAL,
    "always-grabbing": GrabRule.ALWAYS,
    "grab-or-give": GrabRule.GRAB_OR_GIVE,
    "k-grabbing": GrabRule.K_GRABBING,
}


def directives(text: str | bytes) -> Iterator[tuple[int, str, list[str]]]:
    """Yield ``(lineno, head, rest)`` for every line that holds a token.

    Bytes are decoded as UTF-8, ``#`` starts a comment, tokens are
    whitespace-separated and lines are numbered from 1.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise GameFormatError(f"not UTF-8 text: {err.reason}",
                                  text.count(b"\n", 0, err.start) + 1)
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for lineno, tokens in enumerate(map(str.split, lines), start=1):
        if tokens:
            yield lineno, tokens[0], tokens[1:]


def arity(rest: list[str], counts: tuple[int, ...], usage: str,
          line: int) -> list[str]:
    """``rest`` if it holds one of ``counts`` tokens, else the usage error."""
    if len(rest) not in counts:
        raise GameFormatError(usage, line)
    return rest


def _not_integer(token: str, what: str, line: int | None) -> GameFormatError:
    return GameFormatError(
        f"{what}: expected a non-negative integer, got {token!r}", line)


def integer(token: str, what: str, line: int | None) -> int:
    """A non-negative decimal integer: every count and id in the formats."""
    if not token.isdecimal():
        raise _not_integer(token, what, line)
    return int(token)


def int_set(value: str, what: str, line: int | None) -> frozenset[int]:
    """A comma-separated list of integers; the empty string is no items.

    One loop checks the parts rather than one ``integer`` call each, since
    owner lists sit on the hot path of every game file.
    """
    parts = value.split(",") if value else []
    for part in parts:
        if not part.isdecimal():
            raise _not_integer(part, what, line)
    return frozenset(map(int, parts))


def keyed(token: str, key: str, line: int) -> str:
    """The value of a ``key=value`` token."""
    prefix = key + "="
    if not token.startswith(prefix):
        raise GameFormatError(f"expected {prefix}..., got {token!r}", line)
    return token[len(prefix):]


def declare(ids: dict[str, int], name: str, line: int) -> int:
    """The next id, for a vertex name not declared before."""
    if name in ids:
        raise GameFormatError(f"duplicate vertex {name!r}", line)
    ids[name] = len(ids)
    return ids[name]


def known(ids: dict[str, int], name: str, line: int) -> int:
    """The id of a vertex declared on an earlier line."""
    if name not in ids:
        raise GameFormatError(f"unknown vertex {name!r}", line)
    return ids[name]


def vertex_line(rest: list[str], usage: str, line: int) -> tuple[str, str, bool]:
    """``<name> <key>=<value> [target]``, the vertex line of every format
    that has one: the name, the keyed token and whether it is a target."""
    if len(rest) == 2:
        return rest[0], rest[1], False
    if len(rest) == 3 and rest[2] == "target":
        return rest[0], rest[1], True
    raise GameFormatError(usage, line)


def player(token: str, line: int) -> int:
    """The side of a ``player=1|2`` token."""
    side = keyed(token, "player", line)
    if side not in ("1", "2"):
        raise GameFormatError(f"bad player token {token!r}", line)
    return int(side)


def parse_game(text: str | bytes) -> tuple[PawnGame, Configuration]:
    """Parse one pawn game plus its declared initial configuration."""
    name = None
    mechanism: Mechanism | None = None
    d: int | None = None
    vertex_ids: dict[str, int] = {}
    owners: list[frozenset[int]] = []
    targets: set[int] = set()
    edges: set[tuple[int, int]] = set()
    init: tuple[int, frozenset[int], int | None] | None = None

    for lineno, head, rest in directives(text):
        if head == "pawngame":
            if name is not None:
                raise GameFormatError("duplicate pawngame line", lineno)
            name, = arity(rest, (1,), "pawngame takes exactly one name", lineno)
        elif head == "mechanism":
            if not rest or rest[0] not in _MECH_WORDS:
                raise GameFormatError(
                    f"unknown mechanism {' '.join(rest)!r}", lineno
                )
            rule = _MECH_WORDS[rest[0]]
            if rule is GrabRule.K_GRABBING:
                arity(rest, (2,), "k-grabbing takes a grab budget", lineno)
                mechanism = Mechanism(rule, integer(rest[1], "grab budget", lineno))
            else:
                arity(rest, (1,), "mechanism takes no extra tokens", lineno)
                mechanism = Mechanism(rule)
        elif head == "pawns":
            count, = arity(rest, (1,), "pawns takes one count", lineno)
            d = integer(count, "pawn count", lineno)
        elif head == "vertex":
            vname, owned, is_target = vertex_line(
                rest, "vertex <name> owners=... [target]", lineno)
            v = declare(vertex_ids, vname, lineno)
            owners.append(int_set(keyed(owned, "owners", lineno),
                                  "owner pawn", lineno))
            if is_target:
                targets.add(v)
        elif head == "edge":
            u, v = arity(rest, (2,), "edge takes two vertex names", lineno)
            edges.add((known(vertex_ids, u, lineno), known(vertex_ids, v, lineno)))
        elif head == "init":
            if init is not None:
                raise GameFormatError("duplicate init line", lineno)
            arity(rest, (2, 3),
                  "init vertex=<v> p1pawns=<list> [grabs-left=<r>]", lineno)
            v = known(vertex_ids, keyed(rest[0], "vertex", lineno), lineno)
            pawns = int_set(keyed(rest[1], "p1pawns", lineno), "pawn id", lineno)
            grabs = None
            if len(rest) == 3:
                grabs = integer(keyed(rest[2], "grabs-left", lineno),
                                "grabs-left", lineno)
            init = (v, pawns, grabs)
        else:
            raise GameFormatError(f"unknown directive {head!r}", lineno)

    if name is None:
        raise GameFormatError("missing pawngame line")
    if mechanism is None:
        raise GameFormatError("missing mechanism line")
    if d is None:
        raise GameFormatError("missing pawns line")
    if not vertex_ids:
        raise GameFormatError("no vertices declared")
    if init is None:
        raise GameFormatError("missing init line")

    game = PawnGame(
        n=len(vertex_ids),
        edges=frozenset(edges),
        targets=frozenset(targets),
        d=d,
        owners=tuple(owners),
        mechanism=mechanism,
        names=tuple(vertex_ids),
        name=name,
    )
    v, pawns, grabs = init
    if grabs is None and mechanism.rule is GrabRule.K_GRABBING:
        grabs = mechanism.k
    config = Configuration(v, pawns, grabs)
    validate_configuration(game, config)
    return game, config


def serialize_game(g: PawnGame, c: Configuration) -> str:
    """Canonical text for ``g`` and ``c``: stable across declaration order."""
    validate_configuration(g, c)
    lines = [f"pawngame {g.name}"]
    lines.append(f"mechanism {g.mechanism.describe()}")
    lines.append(f"pawns {g.d}")
    order = sorted(range(g.n), key=lambda v: g.names[v])
    for v in order:
        pawns = ",".join(str(j) for j in sorted(g.owners[v]))
        target = " target" if v in g.targets else ""
        lines.append(f"vertex {g.names[v]} owners={pawns}{target}")
    for u, v in sorted(g.edges, key=lambda e: (g.names[e[0]], g.names[e[1]])):
        lines.append(f"edge {g.names[u]} {g.names[v]}")
    pawns = ",".join(str(j) for j in sorted(c.p1_pawns))
    init = f"init vertex={g.names[c.vertex]} p1pawns={pawns}"
    if c.grabs_left is not None:
        init += f" grabs-left={c.grabs_left}"
    lines.append(init)
    return "\n".join(lines) + "\n"

"""Seeded instance families, each with a winner known without the program.

Escape chains are the polynomial solvers' large inputs.  Vertex ``c{i}``
has the single edge ``c{i} -> c{i+1}`` (the last one leads to the target
``t``), and each index in ``escapes`` adds an edge to the sink ``s``.  The
escapes sit among the first few vertices, so every solver walks the whole
chain whatever the verdict, and the winner has a closed form per mechanism
(``optional_winner``, ``kgrab_winner``, ``gog_winner``).  The self-test
checks each closed form against the explicit oracle on small chains.
"""

from __future__ import annotations

import random

from pawngames import Configuration, Mechanism, PawnGame
from pawngames.generators import (
    QbfSpec,
    gen_random_turnbased,
    gen_setcover,
)
from pawngames.lockkey import tb_to_optional

# escapes are drawn among the first ESCAPE_WINDOW chain vertices
ESCAPE_WINDOW = 8


def escape_chain(length: int, escapes: frozenset[int], owner: list[int],
                 d: int, mechanism: Mechanism, p1_pawns: frozenset[int],
                 grabs: int | None = None, name: str = "chain"):
    """The chain game; ``owner`` has one pawn per chain vertex, then the
    pawns of ``t`` and ``s``."""
    t, s = length, length + 1
    edges = {(t, t), (s, s)}
    for i in range(length):
        edges.add((i, i + 1 if i + 1 < length else t))
        if i in escapes:
            edges.add((i, s))
    game = PawnGame(
        n=length + 2,
        edges=frozenset(edges),
        targets=frozenset({t}),
        d=d,
        owners=tuple(frozenset({j}) for j in owner),
        mechanism=mechanism,
        # zero-padded names keep the parsed vertex order equal to chain order
        names=tuple(f"c{i:05d}" for i in range(length)) + ("t", "s"),
        name=name,
    )
    return game, Configuration(0, p1_pawns, grabs)


def optional_winner(escapes: frozenset[int], p1_vertices: frozenset[int]) -> int:
    """One vertex per pawn, optional grabbing.  Player 1 must move at each
    escape, and after his own move Player 2 may take the next vertex: he
    loses iff he cannot hold the start escape or some escape follows a
    vertex he moves from (one he holds at the start, or an escape)."""
    if 0 in escapes and 0 not in p1_vertices:
        return 2
    for j in escapes:
        if j >= 1 and (j - 1 in p1_vertices or j - 1 in escapes):
            return 2
    return 1


def kgrab_winner(escapes: frozenset[int], owner: list[int],
                 p1_pawns: frozenset[int], grabs: int) -> int:
    """k-grabbing: Player 1 must own every escape's pawn before the token
    leaves it; he can grab after any move, so only the start is urgent."""
    if 0 in escapes and owner[0] not in p1_pawns:
        return 2
    needed = {owner[j] for j in escapes if j != 0} - p1_pawns
    return 1 if len(needed) <= grabs else 2


def gog_winner(escapes: frozenset[int], first_mover: int) -> int:
    """Grab-or-give: the non-mover picks who moves next.  Player 1 must
    move at each escape, which hands every later choice to Player 2, so
    he survives at most one escape after the start, and none if he moves
    first."""
    if 0 in escapes and first_mover == 2:
        return 2
    later = sum(1 for j in escapes if j >= 1)
    return 1 if later <= (0 if first_mover == 1 else 1) else 2


def _escapes(rng: random.Random, length: int) -> frozenset[int]:
    window = min(ESCAPE_WINDOW, length)
    return frozenset(rng.sample(range(window), rng.randint(0, min(3, window))))


def _partition_owner(rng: random.Random, n: int, d: int) -> list[int]:
    """Unique owners for ``n`` vertices, every pawn owning at least one."""
    owner = [rng.randrange(d) for _ in range(n)]
    for pawn, v in enumerate(rng.sample(range(n), d)):
        owner[v] = pawn
    return owner


def optional_chain(rng: random.Random, length: int):
    """OVPP optional-grabbing chain; pawn ``i`` owns vertex ``i``."""
    escapes = _escapes(rng, length)
    p1 = frozenset(i for i in range(length + 2) if rng.random() < 0.5)
    game, config = escape_chain(length, escapes, list(range(length + 2)),
                                length + 2, Mechanism.optional(), p1,
                                name=f"optchain{length}")
    return game, config, optional_winner(escapes, p1)


def ovpp_kgrab_chain(rng: random.Random, length: int, k: int):
    """OVPP k-grabbing chain, the input of the ``eta`` solver."""
    escapes = _escapes(rng, length)
    owner = list(range(length + 2))
    p1 = frozenset(i for i in range(length + 2) if rng.random() < 0.5)
    grabs = rng.randint(0, k)
    game, config = escape_chain(length, escapes, owner, length + 2,
                                Mechanism.k_grabbing(k), p1, grabs,
                                name=f"etachain{length}")
    return game, config, kgrab_winner(escapes, owner, p1, grabs)


def mvpp_kgrab_chain(rng: random.Random, length: int, d: int, k: int,
                     grabs: int):
    """Many-vertex-per-pawn k-grabbing chain, the input of ``kgrab-dfs``.

    The search depth is ``|V| * (grabs + 1)`` rounds, so long chains are
    only searchable with ``grabs = 0``."""
    escapes = _escapes(rng, length)
    owner = _partition_owner(rng, length + 2, d)
    p1 = frozenset(j for j in range(d) if rng.random() < 0.5)
    game, config = escape_chain(length, escapes, owner, d,
                                Mechanism.k_grabbing(k), p1, grabs,
                                name=f"dfschain{length}")
    return game, config, kgrab_winner(escapes, owner, p1, grabs)


def gog_chain(rng: random.Random, length: int, d: int):
    """Grab-or-give chain with unique owners and ``d >= 2`` pawns."""
    escapes = _escapes(rng, length)
    owner = _partition_owner(rng, length + 2, d)
    p1 = frozenset(j for j in range(d) if rng.random() < 0.5)
    game, config = escape_chain(length, escapes, owner, d,
                                Mechanism.grab_or_give(), p1,
                                name=f"gogchain{length}")
    first_mover = 1 if owner[0] in p1 else 2
    return game, config, gog_winner(escapes, first_mover)


def embedded_turnbased(n: int, seed: int, v0: int):
    """``tb_to_optional`` of a random turn-based game; the source game and
    start are returned so the verdict can come from ``solve_turnbased``."""
    tb = gen_random_turnbased(n, seed)
    game, config = tb_to_optional(tb, v0)
    return game, config, tb


def random_setcover(rng: random.Random, n: int, m: int, k: int):
    sets = [
        frozenset(e for e in range(1, n + 1) if rng.random() < 0.3)
        or frozenset({rng.randint(1, n)})
        for _ in range(m)
    ]
    game, config = gen_setcover(n, sets, k)
    return game, config, sets


def random_qbf(rng: random.Random, nv: int) -> QbfSpec:
    quants = tuple(rng.choice("EA") for _ in range(nv))
    clauses = []
    for _ in range(rng.randint(2, nv + 2)):
        size = rng.randint(1, min(3, nv))
        variables = rng.sample(range(1, nv + 1), size)
        clauses.append(frozenset(
            v if rng.random() < 0.5 else -v for v in variables
        ))
    return QbfSpec(quants, tuple(clauses))

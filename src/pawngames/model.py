"""Core data types for pawn games.

A pawn game is a directed graph together with a set of pawns.  Every vertex
is owned by at least one pawn, and at any point of a play each pawn is
controlled by exactly one of the two players.  Whoever controls a pawn that
owns the token's vertex moves the token; afterwards control of at most one
pawn changes hands according to the game's grabbing mechanism.

All types here are immutable after construction and every function is pure,
so games can be shared freely between threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import ValidationError


class GrabRule(enum.Enum):
    """The four pawn-exchange mechanisms."""

    OPTIONAL = "optional-grabbing"
    ALWAYS = "always-grabbing"
    GRAB_OR_GIVE = "grab-or-give"
    K_GRABBING = "k-grabbing"


@dataclass(frozen=True)
class Mechanism:
    """A grab rule, plus the grab budget ``k`` for k-grabbing."""

    rule: GrabRule
    k: int = 0

    def __post_init__(self):
        if self.rule is GrabRule.K_GRABBING:
            if self.k < 0:
                raise ValidationError("k-grabbing requires k >= 0")
        elif self.k != 0:
            raise ValidationError(f"{self.rule.value} does not take a grab budget")

    @staticmethod
    def optional() -> "Mechanism":
        return Mechanism(GrabRule.OPTIONAL)

    @staticmethod
    def always() -> "Mechanism":
        return Mechanism(GrabRule.ALWAYS)

    @staticmethod
    def grab_or_give() -> "Mechanism":
        return Mechanism(GrabRule.GRAB_OR_GIVE)

    @staticmethod
    def k_grabbing(k: int) -> "Mechanism":
        return Mechanism(GrabRule.K_GRABBING, k)

    def describe(self) -> str:
        if self.rule is GrabRule.K_GRABBING:
            return f"k-grabbing {self.k}"
        return self.rule.value


class OwnershipKind(enum.Enum):
    OVPP = "ovpp"    # pawns and vertices in bijection
    MVPP = "mvpp"    # unique owner per vertex, pawns may own several
    OMVPP = "omvpp"  # owner sets may overlap


@dataclass(frozen=True)
class Configuration:
    """Token position plus the set of pawns Player 1 controls.

    ``grabs_left`` is present exactly for k-grabbing games and counts the
    grabs Player 1 may still perform.
    """

    vertex: int
    p1_pawns: frozenset[int]
    grabs_left: int | None = None


@dataclass(frozen=True)
class PawnGame:
    """A reachability pawn game.

    ``owners[v]`` is the non-empty set of pawns owning vertex ``v``.  Vertex
    and pawn identifiers are dense naturals; human-readable vertex names live
    in ``names`` and are used only by the file format.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    targets: frozenset[int]
    d: int
    owners: tuple[frozenset[int], ...]
    mechanism: Mechanism
    names: tuple[str, ...] = ()
    name: str = "game"
    # successor lists, derived once; excluded from equality and hashing
    succ: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )

    def __post_init__(self):
        if not self.names:
            object.__setattr__(self, "names", tuple(f"v{v}" for v in range(self.n)))
        _validate_game(self)
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
        object.__setattr__(self, "succ", tuple(tuple(sorted(s)) for s in out))


def _validate_game(g: PawnGame) -> None:
    if g.n <= 0:
        raise ValidationError("game needs at least one vertex")
    if g.d <= 0:
        raise ValidationError("game needs at least one pawn")
    if len(g.owners) != g.n:
        raise ValidationError("owners map must cover every vertex")
    if len(g.names) != g.n or len(set(g.names)) != g.n:
        raise ValidationError("vertex names must be distinct and cover every vertex")
    for v, pawns in enumerate(g.owners):
        if not pawns:
            raise ValidationError(f"vertex {g.names[v]} has no owner")
        for j in pawns:
            if not 0 <= j < g.d:
                raise ValidationError(f"vertex {g.names[v]}: pawn id {j} out of range")
    outdeg = [0] * g.n
    for u, v in g.edges:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValidationError(f"edge ({u}, {v}) leaves the vertex range")
        outdeg[u] += 1
    for v, dg in enumerate(outdeg):
        if dg == 0:
            raise ValidationError(f"vertex {g.names[v]} is a dead end")
    for v in g.targets:
        if not 0 <= v < g.n:
            raise ValidationError(f"target {v} out of range")


def validate_configuration(g: PawnGame, c: Configuration) -> None:
    """Check ``c`` against ``g``; raises ValidationError on any violation."""
    if not 0 <= c.vertex < g.n:
        raise ValidationError(f"initial vertex {c.vertex} out of range")
    for j in c.p1_pawns:
        if not 0 <= j < g.d:
            raise ValidationError(f"initial pawn id {j} out of range")
    if g.mechanism.rule is GrabRule.K_GRABBING:
        if c.grabs_left is None:
            raise ValidationError("k-grabbing configuration needs grabs-left")
        if not 0 <= c.grabs_left <= g.mechanism.k:
            raise ValidationError(
                f"grabs-left {c.grabs_left} outside 0..{g.mechanism.k}"
            )
    elif c.grabs_left is not None:
        raise ValidationError("grabs-left is only meaningful under k-grabbing")


def mover(g: PawnGame, c: Configuration) -> int:
    """The player who moves the token: 1 iff Player 1 controls an owner pawn."""
    return 1 if g.owners[c.vertex] & c.p1_pawns else 2


def classify(g: PawnGame) -> OwnershipKind:
    """Derive the ownership kind from the owner map."""
    if any(len(pawns) != 1 for pawns in g.owners):
        return OwnershipKind.OMVPP
    owned: dict[int, int] = {}
    for pawns in g.owners:
        (j,) = pawns
        owned[j] = owned.get(j, 0) + 1
    if len(owned) != g.d:
        # some pawn owns nothing, so the owner sets do not partition V
        return OwnershipKind.OMVPP
    if all(cnt == 1 for cnt in owned.values()):
        return OwnershipKind.OVPP
    return OwnershipKind.MVPP


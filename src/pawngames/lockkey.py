"""Lock & Key games and the reduction chain into grabbing games.

A Lock & Key game is a turn-based reachability game whose edges carry locks
and keys.  An edge labelled with a closed lock cannot be crossed; crossing
an edge toggles every lock whose key labels the edge.  ``expand_lockkey``
compiles the lock state into an ordinary turn-based game.

The module also hosts the constructions that turn these games into pawn
games:

* ``tb_to_optional`` embeds a plain turn-based game into a one-vertex-per-
  pawn optional-grabbing game (a primed relay vertex in front of every
  vertex, plus escape edges into a global sink and a global target that
  force each player to hold on to his own vertices);
* lock and key gadgets whose shared blue/green/red pawns encode the lock
  state, with ``lockkey_to_optional`` splicing gadget copies into the
  embedded skeleton;
* ``to_always_grabbing`` pads an optional-grabbing game with isolated
  vertices so that mandatory grabs always have a harmless pawn to take.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, GameFormatError, ValidationError
from .gamefile import (
    arity,
    declare,
    directives,
    int_set,
    integer,
    keyed,
    known,
    player,
    vertex_line,
)
from .model import Configuration, GrabRule, Mechanism, PawnGame
from .oracle import DEFAULT_BUDGET, _mask
from .turnbased import TurnBasedGame, solve_turnbased


@dataclass(frozen=True)
class LockKeyGame:
    n: int
    p1_vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]
    targets: frozenset[int]
    num_locks: int
    locks: tuple[frozenset[int], ...]   # aligned with edges
    keys: tuple[frozenset[int], ...]
    names: tuple[str, ...] = ()
    name: str = "lockkeygame"

    def __post_init__(self):
        if not self.names:
            object.__setattr__(self, "names", tuple(f"v{v}" for v in range(self.n)))
        if len(self.names) != self.n or len(set(self.names)) != self.n:
            raise ValidationError("vertex names must be distinct and cover every vertex")
        if len(self.edges) != len(self.locks) or len(self.edges) != len(self.keys):
            raise ValidationError("every edge needs lock and key label sets")
        if len(set(self.edges)) != len(self.edges):
            raise ValidationError("parallel edges are not supported")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValidationError(f"edge ({u}, {v}) leaves the vertex range")
        for labels in self.locks + self.keys:
            for j in labels:
                if not 0 <= j < self.num_locks:
                    raise ValidationError(f"lock id {j} out of range")


@dataclass(frozen=True)
class LockConfig:
    vertex: int
    closed: frozenset[int]


def expand_lockkey(
    lk: LockKeyGame,
    init: LockConfig,
    budget: int = DEFAULT_BUDGET,
):
    """Compile lock state into a turn-based game over (vertex, closed set).

    Only the configurations reachable from ``init`` are built.  Crossing
    edge ``e`` from ``(v, A)`` is legal when no lock of ``e`` lies in ``A``
    and leads to ``(u, A xor keys(e))``.  Configurations with no legal move
    get a self-loop: the play goes on forever off-target.  Each
    configuration costs the ``num_locks // 64 + 1`` words of its closed set
    as it is added, and one past ``budget`` words is an error.  Returns the
    game, the configuration-to-id index, and the state list.
    """
    out: list[list[int]] = [[] for _ in range(lk.n)]
    for i, (u, _) in enumerate(lk.edges):
        out[u].append(i)
    lock_masks = [_mask(s) for s in lk.locks]
    key_masks = [_mask(s) for s in lk.keys]
    words = lk.num_locks // 64 + 1
    states: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    succ: list[list[int]] = []

    def state_id(s: tuple[int, int]) -> int:
        sid = index.get(s)
        if sid is None:
            sid = len(states)
            if (sid + 1) * words > budget:
                raise BudgetExceededError((sid + 1) * words, budget)
            index[s] = sid
            states.append(s)
            succ.append([])
        return sid

    state_id((init.vertex, _mask(init.closed)))
    i = 0
    while i < len(states):
        v, a = states[i]
        for e in out[v]:
            if not lock_masks[e] & a:
                succ[i].append(state_id((lk.edges[e][1], a ^ key_masks[e])))
        if not succ[i]:
            succ[i].append(i)
        i += 1

    tb = TurnBasedGame(
        n=len(states),
        p1_vertices=frozenset(
            i for i, (v, _) in enumerate(states) if v in lk.p1_vertices
        ),
        succ=tuple(tuple(s) for s in succ),
        targets=frozenset(i for i, (v, _) in enumerate(states) if v in lk.targets),
    )
    return tb, index, states


def solve_lockkey(lk: LockKeyGame, lc: LockConfig,
                  budget: int = DEFAULT_BUDGET) -> int:
    tb, index, _ = expand_lockkey(lk, lc, budget)
    start = index[(lc.vertex, _mask(lc.closed))]
    return 1 if start in solve_turnbased(tb).region else 2


def split_labels(lk: LockKeyGame) -> LockKeyGame:
    """Rewrite multi-labelled edges into chains carrying one label each.

    Lock labels come first (in lock-id order), then key labels, so every
    lock is tested against the unmodified state before any key toggles it.
    Chain vertices inherit the owner of the edge's source.

    Winners are preserved whenever each edge carries at most one lock: keys
    never block, so a chain entered past its lock can always be finished.
    An edge with two or more locks has no faithful single-label form at
    all: its chain offers a new stalling spot between the locks (enter
    while the first lock is open, sit stuck before a closed later one),
    which can flip the winner.  Such edges are still split for structural
    use, but no solver relies on them.
    """
    names = list(lk.names)
    p1 = set(lk.p1_vertices)
    n = lk.n
    edges: list[tuple[int, int]] = []
    locks: list[frozenset[int]] = []
    keys: list[frozenset[int]] = []
    fresh = 0
    for i, (u, v) in enumerate(lk.edges):
        labels = [("lock", j) for j in sorted(lk.locks[i])]
        labels += [("key", j) for j in sorted(lk.keys[i])]
        if len(labels) <= 1:
            edges.append((u, v))
            locks.append(lk.locks[i])
            keys.append(lk.keys[i])
            continue
        cur = u
        for step, (kind, j) in enumerate(labels):
            if step == len(labels) - 1:
                nxt = v
            else:
                nxt = n
                n += 1
                names.append(f"{lk.names[u]}.split{fresh}")
                fresh += 1
                if u in lk.p1_vertices:
                    p1.add(nxt)
            edges.append((cur, nxt))
            locks.append(frozenset({j}) if kind == "lock" else frozenset())
            keys.append(frozenset({j}) if kind == "key" else frozenset())
            cur = nxt
    return LockKeyGame(
        n=n,
        p1_vertices=frozenset(p1),
        edges=tuple(edges),
        targets=lk.targets,
        num_locks=lk.num_locks,
        locks=tuple(locks),
        keys=tuple(keys),
        names=tuple(names),
        name=lk.name,
    )


class PawnGameBuilder:
    """Accumulates vertices, owner pawns, edges and targets, then freezes."""

    def __init__(self, name: str):
        self.name = name
        self.names: list[str] = []
        self.taken: set[str] = set()
        self.owners: list[set[int]] = []
        self.edges: set[tuple[int, int]] = set()
        self.targets: set[int] = set()
        self.num_pawns = 0

    def add_pawn(self) -> int:
        self.num_pawns += 1
        return self.num_pawns - 1

    def fresh_name(self, base: str) -> str:
        name = base
        while name in self.taken:
            name += "'"
        return name

    def add_vertex(self, name: str, pawns) -> int:
        v = len(self.names)
        name = self.fresh_name(name)
        self.names.append(name)
        self.taken.add(name)
        self.owners.append({pawns} if isinstance(pawns, int) else set(pawns))
        return v

    def add_fresh_vertex(self, name: str) -> tuple[int, int]:
        pawn = self.add_pawn()
        return self.add_vertex(name, pawn), pawn

    def add_edge(self, u: int, v: int) -> None:
        self.edges.add((u, v))

    def build(self, vertex: int, p1_pawns):
        """The optional-grabbing game and its start at ``vertex``."""
        game = PawnGame(
            n=len(self.names),
            edges=frozenset(self.edges),
            targets=frozenset(self.targets),
            d=self.num_pawns,
            owners=tuple(frozenset(s) for s in self.owners),
            mechanism=Mechanism.optional(),
            names=tuple(self.names),
            name=self.name,
        )
        return game, Configuration(vertex, frozenset(p1_pawns))


def tb_to_optional(tb: TurnBasedGame, v0: int):
    """Embed a turn-based game into an OVPP optional-grabbing pawn game.

    Every vertex ``v`` gets a primed relay ``v'`` with the edge ``v' -> v``;
    original edges are redirected into the relays.  Player-1 vertices gain
    an escape edge to a global sink and Player-2 vertices to a global
    target, so a player who loses his grip on his own vertex loses (or
    hands over) the game immediately.  From the paired initial pawn set
    the embedded game has the same winner as the turn-based one.
    """
    for v in range(tb.n):
        if not tb.succ[v]:
            raise ValidationError("embedding needs a dead-end-free game")
    n = tb.n
    sink, goal = 2 * n, 2 * n + 1
    names = (
        [f"u{v}" for v in range(n)]
        + [f"u{v}.p" for v in range(n)]
        + ["sink", "goal"]
    )
    edges: set[tuple[int, int]] = {(sink, sink), (goal, goal)}
    for v in range(n):
        edges.add((n + v, v))
        edges.add((v, sink) if v in tb.p1_vertices else (v, goal))
        for u in tb.succ[v]:
            edges.add((v, n + u))
    game = PawnGame(
        n=2 * n + 2,
        edges=frozenset(edges),
        targets=frozenset(tb.targets) | {goal},
        d=2 * n + 2,
        owners=tuple(frozenset({v}) for v in range(2 * n + 2)),
        mechanism=Mechanism.optional(),
        names=tuple(names),
        name="embedded",
    )
    p1 = frozenset(tb.p1_vertices) | frozenset(
        n + v for v in range(n) if v not in tb.p1_vertices
    )
    return game, Configuration(v0, p1)


class GadgetRegistry:
    """Tracks the pawns shared by all gadget copies of each lock.

    Every lock contributes a blue and a green pawn (both gadgets) and a red
    pawn (key gadget only); copies of the same lock's gadgets share them,
    so they encode one state.  All other gadget vertices get fresh pawns.
    """

    def __init__(self, builder: PawnGameBuilder):
        self.builder = builder
        self.sink: int | None = None
        self.goal: int | None = None
        self.blue: dict[int, int] = {}
        self.green: dict[int, int] = {}
        self.red: dict[int, int] = {}
        self.copies: dict[tuple[str, int], int] = {}

    def ensure_sink_goal(self) -> tuple[int, int]:
        if self.sink is None:
            self.sink, _ = self.builder.add_fresh_vertex("sink")
            self.goal, _ = self.builder.add_fresh_vertex("goal")
            self.builder.add_edge(self.sink, self.sink)
            self.builder.add_edge(self.goal, self.goal)
            self.builder.targets.add(self.goal)
        return self.sink, self.goal

    def _color(self, table: dict[int, int], j: int) -> int:
        if j not in table:
            table[j] = self.builder.add_pawn()
        return table[j]

    def _next_copy(self, kind: str, j: int) -> int:
        c = self.copies.get((kind, j), 0)
        self.copies[(kind, j)] = c + 1
        return c

    def build_lock_gadget(self, j: int) -> tuple[int, int, list[int]]:
        """A lock-j copy; returns entry, exit and the canonical crossing path."""
        b = self.builder
        s, t = self.ensure_sink_goal()
        c = self._next_copy("lock", j)
        pre = f"lock{j}.{c}."
        vin, _ = b.add_fresh_vertex(pre + "in")
        v1 = b.add_vertex(pre + "blue1", self._color(self.blue, j))
        v2 = b.add_vertex(pre + "green2", self._color(self.green, j))
        v3, _ = b.add_fresh_vertex(pre + "w3")
        v4, _ = b.add_fresh_vertex(pre + "w4")
        vout, _ = b.add_fresh_vertex(pre + "out")
        for u, v in ((vin, v1), (vin, v2), (v1, v3), (v2, v4),
                     (v3, vout), (v3, s), (v4, vout), (v4, t)):
            b.add_edge(u, v)
        return vin, vout, [vin, v1, v3, vout]

    def build_key_gadget(self, j: int) -> tuple[int, int, list[int]]:
        """A key-j copy; returns entry, exit and the canonical crossing path."""
        b = self.builder
        s, t = self.ensure_sink_goal()
        c = self._next_copy("key", j)
        pre = f"key{j}.{c}."
        red, blue, green = (self._color(table, j)
                            for table in (self.red, self.blue, self.green))
        vin = b.add_vertex(pre + "in", red)
        v1 = b.add_vertex(pre + "blue1", blue)
        v2 = b.add_vertex(pre + "green2", green)
        v3, _ = b.add_fresh_vertex(pre + "w3")
        v4 = b.add_vertex(pre + "red4", red)
        v5 = b.add_vertex(pre + "red5", red)
        v6 = b.add_vertex(pre + "red6", red)
        v7 = b.add_vertex(pre + "green7", green)
        v8 = b.add_vertex(pre + "green8", green)
        vout, _ = b.add_fresh_vertex(pre + "out")
        for u, v in ((vin, v1), (v1, v2), (v1, v4), (v2, v3), (v3, s), (v3, t),
                     (v4, v5), (v4, v6), (v5, v7), (v5, s), (v6, v8), (v6, t),
                     (v7, vout), (v7, t), (v8, vout), (v8, s)):
            b.add_edge(u, v)
        return vin, vout, [vin, v1, v4, v5, v7, vout]


@dataclass
class LockKeyEmbedding:
    """Vertex bookkeeping of ``lockkey_to_optional`` for audits and tests.

    ``routes`` maps each original edge to the canonical vertex path from the
    plain source copy to the plain destination copy, through the gadget
    chain and the destination's primed relay.
    """

    plain: dict[int, int]
    primed: dict[int, int]
    sink: int
    goal: int
    routes: dict[tuple[int, int], list[int]] = field(default_factory=dict)


def _gadget_state_pawns(reg: GadgetRegistry, closed_locks: frozenset[int]):
    """Player 1's share of the colored pawns realizing the given lock states.

    Open locks put the green pawn on Player 1's side and blue/red on Player
    2's; closed locks do the opposite.
    """
    p1 = set()
    locks = set(reg.blue) | set(reg.green) | set(reg.red)
    for j in locks:
        if j in closed_locks:
            if j in reg.blue:
                p1.add(reg.blue[j])
            if j in reg.red:
                p1.add(reg.red[j])
        else:
            if j in reg.green:
                p1.add(reg.green[j])
    return p1


def lockkey_to_optional(lk: LockKeyGame, lc: LockConfig):
    """Compile a Lock & Key game into an optional-grabbing pawn game.

    The skeleton is the primed embedding of the underlying turn-based game;
    each labelled edge is replaced by the chain of its gadget copies (locks
    first, then keys, in lock-id order), entered from the plain source and
    exiting into the destination's primed relay.  Copies of one lock's
    gadgets share their colored pawns.  The initial pawn set realizes the
    skeleton invariant plus every lock's state from ``lc``.  A Player-2
    vertex with no out-edge also gets an edge to the sink, where she
    survives as she does at a dead end of ``expand_lockkey``.

    Returns the game, its initial configuration and the embedding record.
    """
    b = PawnGameBuilder(lk.name + ".optional")
    reg = GadgetRegistry(b)
    plain: dict[int, int] = {}
    primed: dict[int, int] = {}
    plain_pawn: dict[int, int] = {}
    primed_pawn: dict[int, int] = {}
    for v in range(lk.n):
        plain[v], plain_pawn[v] = b.add_fresh_vertex(lk.names[v])
        primed[v], primed_pawn[v] = b.add_fresh_vertex(lk.names[v] + ".p")
        b.add_edge(primed[v], plain[v])
    sink, goal = reg.ensure_sink_goal()
    sources = {x for x, _ in lk.edges}
    for v in range(lk.n):
        b.add_edge(plain[v], sink if v in lk.p1_vertices else goal)
        if v not in lk.p1_vertices and v not in sources:
            b.add_edge(plain[v], sink)
        if v in lk.targets:
            b.targets.add(plain[v])

    emb = LockKeyEmbedding(plain=plain, primed=primed, sink=sink, goal=goal)
    for i, (x, y) in enumerate(lk.edges):
        chain = [("lock", j) for j in sorted(lk.locks[i])]
        chain += [("key", j) for j in sorted(lk.keys[i])]
        route = [plain[x]]
        cur = plain[x]
        for kind, j in chain:
            if kind == "lock":
                vin, vout, path = reg.build_lock_gadget(j)
            else:
                vin, vout, path = reg.build_key_gadget(j)
            b.add_edge(cur, vin)
            route.extend(path)
            cur = vout
        b.add_edge(cur, primed[y])
        route.extend([primed[y], plain[y]])
        emb.routes[(x, y)] = route

    p1 = {plain_pawn[v] for v in lk.p1_vertices}
    p1 |= {primed_pawn[v] for v in range(lk.n) if v not in lk.p1_vertices}
    p1 |= _gadget_state_pawns(reg, lc.closed)
    return (*b.build(plain[lc.vertex], p1), emb)


def to_always_grabbing(pg: PawnGame, c: Configuration):
    """Pad an optional-grabbing game for the always-grabbing mechanism.

    Adds ``2 * (d + 10)`` isolated self-looped vertices, each owned by a
    fresh pawn, and hands half of the new pawns to each player, so a player
    obliged to grab but uninterested in real pawns can always take a
    harmless isolated one.
    """
    if pg.mechanism.rule is not GrabRule.OPTIONAL:
        raise ValidationError("padding applies to optional-grabbing games")
    extra = 2 * (pg.d + 10)
    names = list(pg.names) + [f"iso{i}" for i in range(extra)]
    edges = set(pg.edges) | {(pg.n + i, pg.n + i) for i in range(extra)}
    owners = list(pg.owners) + [frozenset({pg.d + i}) for i in range(extra)]
    game = PawnGame(
        n=pg.n + extra,
        edges=frozenset(edges),
        targets=pg.targets,
        d=pg.d + extra,
        owners=tuple(owners),
        mechanism=Mechanism.always(),
        names=tuple(names),
        name=pg.name + ".always",
    )
    p1 = frozenset(c.p1_pawns) | frozenset(range(pg.d, pg.d + pg.d + 10))
    return game, Configuration(c.vertex, p1)


def parse_lockkey(text: str | bytes) -> tuple[LockKeyGame, LockConfig]:
    """Parse the Lock & Key game text format."""
    name = None
    num_locks: int | None = None
    ids: dict[str, int] = {}
    p1: set[int] = set()
    targets: set[int] = set()
    edges: list[tuple[int, int]] = []
    locks: list[frozenset[int]] = []
    keys: list[frozenset[int]] = []
    init: tuple[int, frozenset[int]] | None = None

    for lineno, head, rest in directives(text):
        if head == "lockkeygame":
            name, = arity(rest, (1,), "lockkeygame takes one name", lineno)
        elif head == "locks":
            count, = arity(rest, (1,), "locks takes one count", lineno)
            num_locks = integer(count, "lock count", lineno)
        elif head == "vertex":
            vname, side, is_target = vertex_line(
                rest, "vertex <name> player=1|2 [target]", lineno)
            v = declare(ids, vname, lineno)
            if player(side, lineno) == 1:
                p1.add(v)
            if is_target:
                targets.add(v)
        elif head == "edge":
            arity(rest, (2, 3, 4), "edge <src> <dst> [locks=..] [keys=..]", lineno)
            labels = {"locks": frozenset(), "keys": frozenset()}
            for token in rest[2:]:
                key, eq, value = token.partition("=")
                if not eq or key not in labels:
                    raise GameFormatError(f"unexpected token {token!r}", lineno)
                labels[key] = int_set(value, "lock id", lineno)
            edges.append((known(ids, rest[0], lineno), known(ids, rest[1], lineno)))
            locks.append(labels["locks"])
            keys.append(labels["keys"])
        elif head == "init":
            at, closed = arity(rest, (2,), "init vertex=<v> closed=<list>", lineno)
            init = (known(ids, keyed(at, "vertex", lineno), lineno),
                    int_set(keyed(closed, "closed", lineno), "lock id", lineno))
        else:
            raise GameFormatError(f"unknown directive {head!r}", lineno)

    if name is None or num_locks is None or init is None or not ids:
        raise GameFormatError("missing lockkeygame/locks/vertex/init lines")
    game = LockKeyGame(
        n=len(ids),
        p1_vertices=frozenset(p1),
        edges=tuple(edges),
        targets=frozenset(targets),
        num_locks=num_locks,
        locks=tuple(locks),
        keys=tuple(keys),
        names=tuple(ids),
        name=name,
    )
    for j in init[1]:
        if not 0 <= j < num_locks:
            raise ValidationError(f"closed lock {j} out of range")
    return game, LockConfig(init[0], init[1])


def serialize_lockkey(lk: LockKeyGame, lc: LockConfig) -> str:
    lines = [f"lockkeygame {lk.name}", f"locks {lk.num_locks}"]
    order = sorted(range(lk.n), key=lambda v: lk.names[v])
    for v in order:
        player = 1 if v in lk.p1_vertices else 2
        target = " target" if v in lk.targets else ""
        lines.append(f"vertex {lk.names[v]} player={player}{target}")
    by_name = sorted(
        range(len(lk.edges)),
        key=lambda i: (lk.names[lk.edges[i][0]], lk.names[lk.edges[i][1]]),
    )
    for i in by_name:
        u, v = lk.edges[i]
        parts = [f"edge {lk.names[u]} {lk.names[v]}"]
        if lk.locks[i]:
            parts.append("locks=" + ",".join(str(j) for j in sorted(lk.locks[i])))
        if lk.keys[i]:
            parts.append("keys=" + ",".join(str(j) for j in sorted(lk.keys[i])))
        lines.append(" ".join(parts))
    closed = ",".join(str(j) for j in sorted(lc.closed))
    lines.append(f"init vertex={lk.names[lc.vertex]} closed={closed}")
    return "\n".join(lines) + "\n"

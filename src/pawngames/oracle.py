"""Reference solvers: the explicit turn-based configuration graph of a pawn
game, decided by attractor computation, and a bit-parallel sweep over every
configuration at once.

Rooted queries (``solve_explicit``, ``expand_game``, ``witness_play``) are
lazy.  The expansion has two kinds of vertices.  A *configuration* vertex
carries the token position and Player 1's pawn set (plus the remaining grab
count under k-grabbing); an *intermediate* vertex represents the pending
pawn exchange right after a token move.  Targets are exactly the
configuration vertices whose token position is a target of the pawn game.
States are materialized by forward reachability from the root, guarded by
an explicit budget.  Exceeding the budget is an error, never a silent
approximation.

``AllConfigurations`` decides every configuration without building the
graph: each vertex keeps one integer of ``2**d`` bits, one per pawn set,
and the exchanges act on whole integers by shifts and masks.  Its verdicts
share no code with the expansion or the attractor, so each can check the
other.

Both routes build witnesses by one walk over the pawn game's own
configurations, ``_play``; only the *rank* that orders Player 1's region
differs.  The lazy route ranks by attractor level in its slice.  The sweep
ranks by *stamp*: the sweep that decides the game logs its changes, and a
configuration's stamp is the position of the change that first wins it
(under k-grabbing, the pair of grabs left and stamp).  A won configuration
at level L has an option below L, as it has one at a lower stamp, so
Player 1's play falls to a target; Player 2's ends in ``cycle`` once a
configuration repeats.  The log lives as long as the ``AllConfigurations``
that holds it, so a witness runs no second sweep.  On the whole
``tb(8,7)@0`` game (Python 3.11, tracemalloc) the sweep alone peaks at
4.11 MB, against 3.69 MB with no log kept, and sweep plus witness at 4.11
MB, against 4.66 MB with a second, logged sweep.  ``kgrab_dfs`` walks
``_play`` too, ranked by the rounds its search proved, so ``_play`` is the
package's one move picker.

``solve_exact`` is the one exact route for rooted queries.  It first
restricts the query to its cone of influence (``_Cone``; the reduction of
Clarke, Grumberg and Peled, *Model Checking*, 1999): the interior vertices
that play can reach from the root, one merged target, one losing sink and,
under optional grabbing and k-grabbing, only the pawns that own a kept
vertex.  Then it runs the sweep when the restricted game's tables fit the
budget, else the lazy expansion of the restricted game under the whole
budget.  Its witness walks the original game with ``_play``, reading the
route's rank through the cone's vertex and pawn maps, so the play referee
checks the original game.  On ``tb(9,3)@0`` (20 vertices and 20 pawns)
the cone keeps 14 vertices and 12 pawns: the solve takes 0.7 ms and peaks
at 0.06 MB, where the full sweep took 149 ms and 19.6 MB (Python 3.11,
tracemalloc).  The budget counts 64-bit words: the sweep's
``n * (k+1) * ceil(2**d / 64)`` table words, or ``d // 64 + 1`` per lazy
state.  The sweep's log is not counted (0.7-1.8 times the table words on
the benchmark's fixed games).  ``solve_explicit``, ``expand_game`` and
``AllConfigurations`` stay unrestricted, so each can referee the
restricted route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceededError, ValidationError
from .model import Configuration, GrabRule, PawnGame, validate_configuration
from .turnbased import TurnBasedGame, attract

# 64-bit words: at most ~400 MB of lazy states, or 64M swept configurations
DEFAULT_BUDGET = 1_000_000

_NO_R = -1


def _owner_masks(g: PawnGame) -> list[int]:
    masks = []
    for v in range(g.n):
        m = 0
        for j in g.owners[v]:
            m |= 1 << j
        masks.append(m)
    return masks


def _exchange_options(rule: GrabRule):
    """``options(p, r, chooser, allowed)``: the (pawn mask, grabs left)
    after each exchange the chooser may pick once the token has moved, from
    pawn mask ``p`` with ``r`` grabs left, in increasing pawn order.

    Only pawns in ``allowed`` change hands.  Under k-grabbing Player 1
    chooses: keep the budget, or grab a pawn for one grab.  Grab-or-give
    flips one pawn.  Otherwise the player who did not move chooses, with a
    no-exchange option under optional grabbing: Player 1 grabs a pawn,
    Player 2 takes one back.
    """
    kgrab = rule is GrabRule.K_GRABBING
    gog = rule is GrabRule.GRAB_OR_GIVE
    keep = kgrab or rule is GrabRule.OPTIONAL

    def options(p: int, r: int, chooser: int, allowed: int):
        if keep:
            yield p, r
        if kgrab:
            rest, r = (allowed & ~p if r > 0 else 0), r - 1
        elif gog:
            rest = allowed
        else:
            rest = allowed & ~p if chooser == 1 else allowed & p
        while rest:
            bit = rest & -rest
            yield p ^ bit, r
            rest ^= bit

    return options


class _StateGraph:
    """Interned expansion states with side, target and successor tables.

    ``live[u]``: the pawns that may change hands after a move to ``u``;
    ``lookup(v, p, r)``: the id of configuration ``(v, p, r)``'s state.
    A state costs ``words`` as it is added, and one past ``budget`` words is
    refused, so an exchange that offers one option per pawn stops there."""

    def __init__(self, live: list[int], lookup, budget: int, words: int):
        self.budget = budget
        self.words = words
        self.states: list[tuple] = []
        self.side: list[int] = []
        self.target: list[bool] = []
        self.succ: list[list[int]] = []
        self.live = live
        self.lookup = lookup

    def add(self, state: tuple, side: int, target: bool) -> int:
        sid = len(self.states)
        if (sid + 1) * self.words > self.budget:
            raise BudgetExceededError((sid + 1) * self.words, self.budget)
        self.states.append(state)
        self.side.append(side)
        self.target.append(target)
        self.succ.append([])
        return sid

    def __len__(self) -> int:
        return len(self.states)


def _hopeful(g: PawnGame) -> set[int]:
    """The vertices with a graph path to a target, targets included; from
    any other vertex Player 1 has lost."""
    hopeful = set(g.targets)
    pred: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        pred[v].append(u)
    stack = list(g.targets)
    while stack:
        v = stack.pop()
        for u in pred[v]:
            if u not in hopeful:
                hopeful.add(u)
                stack.append(u)
    return hopeful


def _graph_reach_masks(g: PawnGame, hopeful: set[int],
                       omask: list[int]) -> list[int]:
    """live_mask[v]: pawns whose control can still decide a future move.

    A pawn's side is read only at configurations sitting on one of its
    vertices; configurations on targets are terminal and configurations on
    hopeless vertices are collapsed.  So only pawns owning a non-target
    hopeful vertex graph-reachable from the token can matter, and bits
    outside that set can be projected away without changing any winner
    (exact for mechanisms with a no-exchange option; see ``_expand``).
    """
    n = g.n
    interior = [w in hopeful and w not in g.targets for w in range(n)]
    # reachability over interior vertices only: plays end on targets and
    # hopeless configurations collapse, so neither is passed through
    succ = [g.succ[v] if interior[v] else () for v in range(n)]
    # Tarjan's components, iteratively: a component is finished after every
    # component it reaches, so one pass over them in that order is final
    live = [0] * n
    order = [0] * n  # discovery position, from 1; 0 while unvisited
    low = [0] * n
    stack: list[int] = []  # vertices of unfinished components
    on_stack = [False] * n
    seen = 0
    for root in range(n):
        if order[root]:
            continue
        seen += 1
        order[root] = low[root] = seen
        stack.append(root)
        on_stack[root] = True
        calls = [(root, iter(succ[root]))]
        while calls:
            v, edges = calls[-1]
            for u in edges:
                if not order[u]:
                    seen += 1
                    order[u] = low[u] = seen
                    stack.append(u)
                    on_stack[u] = True
                    calls.append((u, iter(succ[u])))
                    break
                if on_stack[u] and order[u] < low[v]:
                    low[v] = order[u]
            else:
                calls.pop()
                if calls and low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
                if low[v] != order[v]:
                    continue
                # v roots a component; its members' live masks are still 0
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                m = 0
                for w in members:
                    if interior[w]:
                        m |= omask[w]
                    for u in succ[w]:
                        m |= live[u]
                for w in members:
                    live[w] = m
    return live


def _expand(
    g: PawnGame,
    roots: list[tuple[int, int, int]],
    budget: int,
    faithful: bool,
) -> tuple[_StateGraph, list[int]]:
    """Build the reachable slice of the configuration graph from ``roots``.

    Roots are (vertex, pawn mask, grabs-left) triples.  Each configuration
    is expanded once: one intermediate per token move, whose exchange
    options are resolved to configurations as it is made, so only
    configurations wait on the work stack.  Unless ``faithful``,
    every configuration whose vertex has no graph path to a target
    collapses into one losing sink, target configurations are terminal, and
    under mechanisms with a no-exchange option (optional grabbing,
    k-grabbing) pawn bits that can no longer decide any future move are
    projected away: exchanging such a pawn is equivalent to the
    always-available no-exchange move, so the quotient preserves every
    winner.
    """
    words = g.d // 64 + 1  # of a pawn mask
    if words > budget:  # not even one state fits: report the 2**d pawn sets
        raise BudgetExceededError(None, budget, bits=g.d + 1)
    rule = g.mechanism.rule
    omask = _owner_masks(g)
    full = (1 << g.d) - 1
    n = g.n
    succ_of = g.succ
    targets = g.targets
    kgrab = rule is GrabRule.K_GRABBING
    optional = rule is GrabRule.OPTIONAL
    exchange_options = _exchange_options(rule)

    hopeful = set(range(n)) if faithful else _hopeful(g)
    if not faithful and (optional or kgrab):
        live = _graph_reach_masks(g, hopeful, omask)
    else:
        live = [full] * n

    cindex: dict[int | None, int] = {}
    work: list[int] = []
    span = g.mechanism.k + 2 if kgrab else 1

    def key(v: int, pmask: int, r: int) -> int | None:
        # None for a hopeless vertex (the loss sink), else the projected key
        if v in hopeful:
            return ((pmask & live[v]) * n + v) * span + r + 1
        return None

    sg = _StateGraph(live, lambda v, p, r: cindex[key(v, p, r)], budget,
                     words)
    states = sg.states
    succ = sg.succ

    def config_id(v: int, pmask: int, r: int) -> int:
        k = key(v, pmask, r)
        sid = cindex.get(k)
        if sid is not None:
            return sid
        if k is None:
            sid = sg.add(("loss",), 1, False)
            succ[sid].append(sid)
        else:
            pmask &= live[v]
            tgt = v in targets
            sid = sg.add(("c", v, pmask, r), 1 if omask[v] & pmask else 2, tgt)
            if faithful or not tgt:
                work.append(sid)
        cindex[k] = sid
        return sid

    root_ids = [config_id(v, p, r) for v, p, r in roots]

    while work:
        sid = work.pop()
        _, v, pmask, r = states[sid]
        chooser = 1 if kgrab else 3 - sg.side[sid]
        for u in succ_of[v]:
            iid = sg.add(("i", u, sid), chooser, False)
            succ[sid].append(iid)
            out = succ[iid]
            for q, s in exchange_options(pmask, r, chooser, live[u]):
                out.append(config_id(u, q, s))
            if not out:
                raise ValidationError(
                    "always-grabbing intermediate with no exchange option"
                )
    return sg, root_ids


@dataclass
class ExplicitResult:
    """Winner plus enough of the solved expansion to replay a witness."""

    winner: int
    num_states: int
    _sg: _StateGraph
    _start: tuple[int, int, int]
    _in_region: list[bool]
    _level: list[int]

    def rank(self, u: int, q: int, s: int) -> int | None:
        """The attractor level of configuration ``(u, q, s)``; None outside
        Player 1's region."""
        sid = self._sg.lookup(u, q, s)
        return self._level[sid] if self._in_region[sid] else None


def solve_explicit(
    g: PawnGame, c: Configuration, budget: int = DEFAULT_BUDGET
) -> ExplicitResult:
    """Decide the winner from ``c`` via the explicit configuration graph."""
    validate_configuration(g, c)
    start = (c.vertex, _mask(c.p1_pawns),
             c.grabs_left if c.grabs_left is not None else _NO_R)
    sg, roots = _expand(g, [start], budget, faithful=False)
    in_region, level = attract(sg.succ, sg.side, sg.target)
    winner = 1 if in_region[roots[0]] else 2
    return ExplicitResult(winner, len(sg), sg, start, in_region, level)


@dataclass(frozen=True)
class _Cone:
    """A rooted query restricted to its cone of influence.

    ``game`` keeps the interior vertices (hopeful, not targets) that play
    can reach from the root through interior vertices, in their original
    order, then one merged target and one self-looped losing sink.  Under
    optional grabbing and k-grabbing it keeps only the live pawns, those
    that own a kept vertex, renumbered in increasing order: a dead pawn's
    exchange equals the no-exchange option.  Under always-grabbing and
    grab-or-give every pawn stays an exchange option, unless the root is a
    target, where play ends before any exchange.  ``config`` is the root
    there.

    ``vertex[v]`` is the vertex that ``v`` maps to (the merged target for a
    target), or None for a hopeless vertex or one that play from the root
    never reaches.  Restricted pawn ``i`` is pawn ``pawns[i]``; ``pawns``
    is None when every pawn keeps its id.
    """

    game: PawnGame
    config: Configuration
    vertex: list[int | None]
    pawns: list[int] | None

    def compress(self, q: int) -> int:
        """Pawn mask ``q`` of the original game in the restricted ids."""
        if self.pawns is None:
            return q
        out = 0
        for i, j in enumerate(self.pawns):
            if q >> j & 1:
                out |= 1 << i
        return out


def _restrict(g: PawnGame, c: Configuration) -> _Cone:
    """The cone of influence of ``c``, in time linear in the size of ``g``:
    no step reads the pawn ids that no vertex owns."""
    hopeful = _hopeful(g)
    targets = g.targets
    inside = [False] * g.n
    if c.vertex in hopeful and c.vertex not in targets:
        inside[c.vertex] = True
        stack = [c.vertex]
        while stack:
            for u in g.succ[stack.pop()]:
                if not inside[u] and u in hopeful and u not in targets:
                    inside[u] = True
                    stack.append(u)
    kept = [v for v in range(g.n) if inside[v]]
    goal, sink = len(kept), len(kept) + 1
    vertex: list[int | None] = [None] * g.n
    for t in targets:
        vertex[t] = goal
    for i, v in enumerate(kept):
        vertex[v] = i
    edges = {(goal, goal), (sink, sink)}
    for i, v in enumerate(kept):
        for u in g.succ[v]:
            w = vertex[u]
            edges.add((i, sink if w is None else w))
    owners = [g.owners[v] for v in kept]
    d, p1, pawns = g.d, c.p1_pawns, None
    if c.vertex in targets or g.mechanism.rule in (GrabRule.OPTIONAL,
                                                   GrabRule.K_GRABBING):
        pawns = sorted(set().union(*owners))
        new = {j: i for i, j in enumerate(pawns)}
        owners = [frozenset(new[j] for j in own) for own in owners]
        d = max(len(pawns), 1)
        p1 = frozenset(new[j] for j in p1 if j in new)
    game = PawnGame(
        n=sink + 1, edges=frozenset(edges), targets=frozenset({goal}), d=d,
        owners=tuple(owners) + (frozenset({0}),) * 2, mechanism=g.mechanism)
    root = vertex[c.vertex]
    return _Cone(game, Configuration(sink if root is None else root, p1,
                                     c.grabs_left), vertex, pawns)


@dataclass
class ExactResult:
    """Winner of ``solve_exact``, the route that decided it (``"lazy"`` or
    ``"sweep"``) and the work done (the lazy states, or every configuration
    of the sweep).  ``n`` and ``d`` are the size of the restricted game it
    solved."""

    winner: int
    route: str
    states: int
    _game: PawnGame
    _config: Configuration
    _cone: _Cone
    _solved: ExplicitResult | AllConfigurations

    @property
    def n(self) -> int:
        return self._cone.game.n

    @property
    def d(self) -> int:
        return self._cone.game.d

    def witness(self) -> list[tuple]:
        """The winner's play in the original game against a delaying
        adversary, in ``witness_play``'s steps.  The route's rank is read
        through the cone's maps: a target takes the merged target's rank,
        and a vertex outside the cone takes None.  Where the cone keeps
        only the live pawns, every dead pawn's exchange leads to the same
        configuration of the cone: a take-back ties with the no-exchange
        option before it, and of the grabs the lowest comes first.  So the
        walk offers the live pawns and that one dead pawn, and never reads
        the pawn ids that no kept vertex owns."""
        g, c, cone = self._game, self._config, self._cone
        if self.route == "lazy":
            solved = self._solved

            def rank(u: int, q: int, s: int):
                # a k-grab of a pawn that is dead at u lands on a grab layer
                # that the slice need not hold; the keep option beside it
                # is held, and wins whenever the grab would
                try:
                    return solved.rank(u, q, s)
                except KeyError:
                    return None
        else:
            h = cone.config
            rank = self._solved.ranker(h.vertex, h.p1_pawns, h.grabs_left)

        def lifted(u: int, q: int, s: int):
            w = cone.vertex[u]
            return None if w is None else rank(w, cone.compress(q), s)

        live = (1 << g.d) - 1 if cone.pawns is None else _mask(cone.pawns)

        def allowed(u: int, p: int) -> int:
            held = p | live
            dead = ~held & (held + 1)  # the lowest pawn in neither
            return live | dead if dead >> g.d == 0 else live

        r = c.grabs_left if c.grabs_left is not None else _NO_R
        return _play(g, (c.vertex, _mask(c.p1_pawns), r), lifted, allowed)


def solve_exact(
    g: PawnGame, c: Configuration, budget: int = DEFAULT_BUDGET
) -> ExactResult:
    """Decide the winner from ``c`` on its cone of influence: by the sweep
    when the restricted game's table words fit ``budget``, else by the lazy
    route under the whole budget."""
    validate_configuration(g, c)
    cone = _restrict(g, c)
    h, hc = cone.game, cone.config
    try:
        solved = AllConfigurations(h, budget)
    except BudgetExceededError:
        solved = solve_explicit(h, hc, budget)
        route, winner, states = "lazy", solved.winner, solved.num_states
    else:
        route, states = "sweep", solved.size
        winner = solved.winner(hc.vertex, hc.p1_pawns, hc.grabs_left)
    return ExactResult(winner, route, states, g, c, cone, solved)


def _pawn_masks(d: int) -> list[int]:
    """``M_j`` for each pawn j: bit P is set iff pawn set P contains j."""
    masks = []
    for j in range(d):
        s = 1 << j
        # "s zeros, then s ones", doubled until it spans all 2**d sets
        m, width = ((1 << s) - 1) << s, 2 * s
        while width < 1 << d:
            m |= m << width
            width *= 2
        masks.append(m)
    return masks


class AllConfigurations:
    """Winner lookup for every configuration of a small pawn game.

    ``_tables[r][v]`` has bit P set iff Player 1 wins from ``(v, P)``, with
    ``r`` grabs left under k-grabbing (the other mechanisms have one
    table).  The exchange after a move to ``u`` acts on the whole integer of
    ``u`` as a gate: ``G1`` when Player 1 picks the exchange, ``G2`` when
    Player 2 does.  Each table is the least fixpoint of
    ``W_v = (mover_v & OR_u G2_u) | (~mover_v & AND_u G1_u)`` over the
    successors ``u`` of ``v``, with ``W_v`` full on targets.  The grab-budget
    layers are solved from 0 upward, since a grab reads only the layer below.
    """

    def __init__(self, g: PawnGame, budget: int = DEFAULT_BUDGET):
        self.game = g
        rule = g.mechanism.rule
        layers = g.mechanism.k + 1 if rule is GrabRule.K_GRABBING else 1
        # the budget counts words of 64 configurations; refuse before 2**d
        if g.d - 6 > budget.bit_length():
            raise BudgetExceededError(None, budget, bits=g.d - 5)
        words = g.n * layers * ((1 << g.d) + 63 >> 6)
        if words > budget:
            raise BudgetExceededError(words, budget)
        self.size = g.n * (1 << g.d) * layers
        # each layer's changes, kept for the witness's stamps
        self._logs: list[list[tuple[int, int]]] = [[] for _ in range(layers)]
        self._tables = self._sweep(layers, self._logs)

    def _sweep(self, layers: int,
               logs: list[list[tuple[int, int]]]) -> list[list[int]]:
        """The tables of grab layers ``0 .. layers - 1``; each layer's
        fixpoint logs its changes into its own list of ``logs``."""
        g = self.game
        rule = g.mechanism.rule
        full = (1 << (1 << g.d)) - 1
        masks = _pawn_masks(g.d)
        pawns = [(m, full ^ m, 1 << j) for j, m in enumerate(masks)]
        mover = []
        for owners in g.owners:
            m = 0
            for j in owners:
                m |= masks[j]
            mover.append(m)

        def grab(w: int) -> int:
            # bit P: P | {j} is won for some pawn j outside P
            out = 0
            for m, _, s in pawns:
                out |= (w & m) >> s
            return out

        def take(w: int) -> int:
            # bit P: P - {j} is won for every pawn j in P
            out = full
            for m, nm, s in pawns:
                out &= ((w & nm) << s) | nm
            return out

        if rule is GrabRule.OPTIONAL:
            def gate(v: int, w: int) -> tuple[int, int]:
                return w | grab(w), w & take(w)
        elif rule is GrabRule.ALWAYS:
            def gate(v: int, w: int) -> tuple[int, int]:
                return grab(w), take(w)
        elif rule is GrabRule.GRAB_OR_GIVE:
            def gate(v: int, w: int) -> tuple[int, int]:
                g1, g2 = 0, full
                for m, nm, s in pawns:
                    flip = ((w & m) >> s) | ((w & nm) << s)
                    g1 |= flip
                    g2 &= flip
                return g1, g2

        tables: list[list[int]] = []
        for layer in range(layers):
            if rule is GrabRule.K_GRABBING:
                # Player 1 decides every exchange: keep the budget, or grab
                # a pawn and land in the layer below
                below = ([grab(w) for w in tables[-1]]
                         if tables else [0] * g.n)

                def gate(v: int, w: int, below=below) -> tuple[int, int]:
                    w |= below[v]
                    return w, w
            tables.append(_least_fixpoint(g, mover, full, gate, logs[layer]))
        return tables

    def winner(self, v: int, p1_pawns: frozenset[int], grabs_left: int | None = None) -> int:
        validate_configuration(self.game, Configuration(v, p1_pawns, grabs_left))
        table = self._tables[grabs_left or 0]
        return 1 if table[v] >> _mask(p1_pawns) & 1 else 2

    def witness(self, v: int, p1_pawns: frozenset[int],
                grabs_left: int | None = None) -> list[tuple]:
        """The winner's play from a configuration, ranked by ``ranker``;
        see ``_play``."""
        full = (1 << self.game.d) - 1
        return _play(self.game, (v, _mask(p1_pawns), grabs_left or 0),
                     self.ranker(v, p1_pawns, grabs_left), lambda u, p: full)

    def ranker(self, v: int, p1_pawns: frozenset[int],
               grabs_left: int | None = None):
        """The rank of the winner's play from a configuration: None outside
        Player 1's region, else the grabs left and the stamp of the change
        that first won the configuration in the sweep that decided it.
        Stamps are read only when Player 1 wins; a grabs-left of
        ``_NO_R`` reads the one table of the other mechanisms."""
        r = grabs_left or 0
        history = (self._history(r + 1)
                   if self.winner(v, p1_pawns, grabs_left) == 1 else None)
        tables = self._tables

        def rank(u: int, q: int, s: int):
            s = max(s, 0)
            if not tables[s][u] >> q & 1:
                return None
            if history is None:
                return 0
            # bits are only ever added: bisect for the first entry with q
            entries = history[s][u]
            lo, hi = 0, len(entries) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if entries[mid][1] >> q & 1:
                    hi = mid
                else:
                    lo = mid + 1
            return s, entries[lo][0]

        return rank

    def _history(self, layers: int) -> list[list[list[tuple[int, int]]]]:
        """Each vertex's ``(stamp, win)`` entries in the grab layers below
        ``layers``, read off the deciding sweep's log; targets are won from
        stamp 0.  The entries share the log's integers, so this sweeps
        nothing and copies no table."""
        g = self.game
        full = (1 << (1 << g.d)) - 1
        history = []
        for log in self._logs[:layers]:
            layer = [[(0, full)] if u in g.targets else [] for u in range(g.n)]
            for stamp, (u, w) in enumerate(log, 1):
                layer[u].append((stamp, w))
            history.append(layer)
        return history


def _least_fixpoint(
    g: PawnGame, mover: list[int], full: int, gate,
    log: list[tuple[int, int]],
) -> list[int]:
    """One table of ``AllConfigurations``, raised from zero by a worklist.

    The right-hand side is monotone, so every change adds bits and the
    worklist stops at the least solution: Player 1's attractor.  Each
    change ``(v, win[v])`` is appended to ``log``; a change's stamp is its
    position in the log, plus one.
    """
    targets = g.targets
    pred: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        if u not in targets:
            pred[v].append(u)
    win = [full if v in targets else 0 for v in range(g.n)]
    gates = [gate(v, w) for v, w in enumerate(win)]
    queued = [v not in targets for v in range(g.n)]
    queue = deque(v for v in range(g.n) if queued[v])
    succ = g.succ
    while queue:
        v = queue.popleft()
        queued[v] = False
        some, every = 0, full
        for u in succ[v]:
            g1, g2 = gates[u]
            some |= g2
            every &= g1
        m = mover[v]
        w = (m & some) | (every & ~m)
        if w != win[v]:
            win[v] = w
            log.append((v, w))
            gates[v] = gate(v, w)
            for p in pred[v]:
                if not queued[p]:
                    queued[p] = True
                    queue.append(p)
    return win


def _mask(pawns: frozenset[int]) -> int:
    m = 0
    for j in pawns:
        m |= 1 << j
    return m


def _unmask(m: int) -> frozenset[int]:
    out = set()
    j = 0
    while m:
        if m & 1:
            out.add(j)
        m >>= 1
        j += 1
    return frozenset(out)


def _play(g: PawnGame, start: tuple[int, int, int], rank,
          allowed) -> list[tuple]:
    """The winner's play from configuration ``start = (v, p, r)`` against a
    delaying adversary, as ``("move", u)`` then ``("grab", j)``,
    ``("give", j)`` or ``("nograb",)`` steps.

    ``rank(u, q, s)`` is None outside Player 1's region and falls towards
    the targets inside it; after a move to ``u`` from pawn mask ``p`` only
    pawns in ``allowed(u, p)`` change hands.  Player 1 takes the option of
    lowest rank; Player 2 takes one outside the region if she can, else the
    highest rank.  So when Player 1 wins, ranks fall until a target; when Player 2
    wins, she stays outside the region until a configuration repeats, which
    ends the play in ``("cycle",)``.
    """
    kgrab = g.mechanism.rule is GrabRule.K_GRABBING
    exchange_options = _exchange_options(g.mechanism.rule)
    omask = _owner_masks(g)

    def score(u: int, q: int, s: int) -> tuple:
        level = rank(u, q, s)
        return level is None, level

    def pick(player: int, scored: list[tuple]) -> tuple:
        return (min if player == 1 else max)(scored, key=itemgetter(0))

    v, p, r = start
    steps: list[tuple] = []
    seen = set()
    while v not in g.targets and (v, p, r) not in seen:
        seen.add((v, p, r))
        mover = 1 if omask[v] & p else 2
        chooser = 1 if kgrab else 3 - mover
        replies = [pick(chooser, [
            (score(u, q, s), (u, q, s))
            for q, s in exchange_options(p, r, chooser, allowed(u, p))
        ]) for u in g.succ[v]]
        _, (u, q, s) = pick(mover, replies)
        steps += [("move", u), _exchange_step(g, mover, p, q)]
        v, p, r = u, q, s
    if v not in g.targets:
        steps.append(("cycle",))
    return steps


def witness_play(g: PawnGame, result: ExplicitResult) -> list[tuple]:
    """The winner's play from the solved configuration, ranked by attractor
    level in the lazy slice; see ``_play``."""
    live = result._sg.live
    return _play(g, result._start, result.rank, lambda u, p: live[u])


def _exchange_step(g: PawnGame, moved_by: int, pmask: int, npmask: int):
    if npmask == pmask:
        return ("nograb",)
    diff = pmask ^ npmask
    j = diff.bit_length() - 1
    holder = 1 if (g.mechanism.rule is GrabRule.K_GRABBING or moved_by == 2) else 2
    gained_p1 = bool(npmask & diff)
    if (gained_p1 and holder == 1) or (not gained_p1 and holder == 2):
        return ("grab", j)
    return ("give", j)


@dataclass(frozen=True)
class ExpandedGame:
    """Faithful expansion with a bijection between descriptors and ids."""

    tb: TurnBasedGame
    descriptors: tuple[str, ...]
    index: dict[str, int]


def describe_state(g: PawnGame, state: tuple, states: list[tuple]) -> str:
    if state[0] == "c":
        _, v, pmask, r = state
        pawns = ",".join(str(j) for j in sorted(_unmask(pmask)))
        core = f"c v={g.names[v]} p1={{{pawns}}}"
        return core + (f" r={r}" if r != _NO_R else "")
    _, u, parent = state
    return f"i to={g.names[u]} after[{describe_state(g, states[parent], states)}]"


def expand_game(
    g: PawnGame, c: Configuration, budget: int = DEFAULT_BUDGET
) -> ExpandedGame:
    """The unpruned reachable expansion from ``c`` with canonical vertex ids."""
    validate_configuration(g, c)
    r = c.grabs_left if c.grabs_left is not None else _NO_R
    sg, _ = _expand(g, [(c.vertex, _mask(c.p1_pawns), r)], budget,
                    faithful=True)
    descs = [describe_state(g, s, sg.states) for s in sg.states]
    order = sorted(range(len(sg)), key=lambda i: descs[i])
    canon = {old: new for new, old in enumerate(order)}
    succ: list[tuple[int, ...]] = [()] * len(sg)
    for old in range(len(sg)):
        succ[canon[old]] = tuple(sorted(canon[x] for x in sg.succ[old]))
    tb = TurnBasedGame(
        n=len(sg),
        p1_vertices=frozenset(canon[i] for i in range(len(sg)) if sg.side[i] == 1),
        succ=tuple(succ),
        targets=frozenset(canon[i] for i in range(len(sg)) if sg.target[i]),
    )
    descriptors = tuple(descs[i] for i in order)
    return ExpandedGame(tb=tb, descriptors=descriptors,
                        index={d: i for i, d in enumerate(descriptors)})

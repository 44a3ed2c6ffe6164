"""Instance generators and the brute-force oracles for their source problems.

Three families of structured instances come from classic decision problems:

* alternating Turing machine acceptance compiles into a Lock & Key game
  whose locks mirror the tape contents;
* SET-COVER compiles into a k-grabbing game where each grab commits to a
  covering set;
* TQBF compiles into an overlapping-ownership k-grabbing game where grabs
  choose a truth assignment and clause vertices are passable exactly when
  a grabbed pawn satisfies them.

Each family ships with an independent exhaustive evaluator of the source
problem, so game winners can be cross-checked against ground truth.  A
seeded random-game fuzzer rounds the module off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BudgetExceededError, GameFormatError, ValidationError
from .gamefile import arity, directives, integer
from .lockkey import LockConfig, LockKeyGame
from .model import (
    Configuration,
    GrabRule,
    Mechanism,
    OwnershipKind,
    PawnGame,
    classify,
)
from .turnbased import TurnBasedGame, solve_turnbased


# ---------------------------------------------------------------------------
# Alternating Turing machines


@dataclass(frozen=True)
class AtmSpec:
    """A polynomial-space alternating machine with a fixed tape length.

    ``owner[q]`` is 1 for existential states and 2 for universal ones.  The
    first state listed is initial.  Transitions that would move the head off
    the tape are dropped where they would apply; a non-halting configuration
    left without moves is stuck, and stuck configurations reject.
    """

    states: tuple[str, ...]
    owner: dict[str, int]
    alphabet: tuple[str, ...]
    accept: str
    reject: str
    cells: int
    trans: dict[tuple[str, str], tuple[tuple[str, str, str], ...]]

    def __post_init__(self):
        if self.cells < 1:
            raise ValidationError("the tape needs at least one cell")
        for names in (self.states, self.alphabet):
            if len(set(names)) != len(names):
                raise ValidationError(f"names declared twice in {names}")
        for q in (self.accept, self.reject):
            if q not in self.states:
                raise ValidationError(f"halting state {q!r} not declared")
        for (q, a), moves in self.trans.items():
            if q in (self.accept, self.reject):
                raise ValidationError("halting states take no transitions")
            if q not in self.states or a not in self.alphabet:
                raise ValidationError(f"transition from unknown ({q!r}, {a!r})")
            for q2, b, d in moves:
                if q2 not in self.states or b not in self.alphabet:
                    raise ValidationError(f"transition into unknown ({q2!r}, {b!r})")
                if d not in ("L", "R"):
                    raise ValidationError(f"bad head direction {d!r}")

    @property
    def initial(self) -> str:
        return self.states[0]


def parse_atm(text: str | bytes) -> AtmSpec:
    """Parse the machine description format (``states``, ``alphabet``,
    ``accept``, ``reject``, ``cells`` and ``trans`` lines)."""
    states: list[str] = []
    owner: dict[str, int] = {}
    alphabet: list[str] = []
    accept = reject = None
    cells = None
    trans: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    saw_header = False
    for lineno, head, rest in directives(text):
        if head == "atm":
            arity(rest, (0,), "atm takes no tokens", lineno)
            saw_header = True
        elif head == "states":
            for token in rest:
                q, _, tag = token.rpartition(":")
                if not q or tag not in ("E", "A"):
                    raise GameFormatError(f"state needs :E or :A, got {token!r}",
                                          lineno)
                states.append(q)
                owner[q] = 1 if tag == "E" else 2
        elif head == "alphabet":
            alphabet = rest
        elif head == "accept":
            accept, = arity(rest, (1,), "accept takes one state", lineno)
        elif head == "reject":
            reject, = arity(rest, (1,), "reject takes one state", lineno)
        elif head == "cells":
            count, = arity(rest, (1,), "cells takes one count", lineno)
            cells = integer(count, "cell count", lineno)
        elif head == "trans":
            if len(rest) != 6 or rest[2] != "->":
                raise GameFormatError("trans q a -> q' b L|R", lineno)
            q, a, _, q2, b, d = rest
            trans.setdefault((q, a), []).append((q2, b, d))
        else:
            raise GameFormatError(f"unknown directive {head!r}", lineno)
    if not saw_header or not states or accept is None or reject is None \
            or cells is None or not alphabet:
        raise GameFormatError("missing atm/states/alphabet/accept/reject/cells")
    return AtmSpec(
        states=tuple(states),
        owner=owner,
        alphabet=tuple(alphabet),
        accept=accept,
        reject=reject,
        cells=cells,
        trans={k: tuple(v) for k, v in trans.items()},
    )


def serialize_atm(atm: AtmSpec) -> str:
    lines = ["atm"]
    lines.append("states " + " ".join(
        f"{q}:{'E' if atm.owner[q] == 1 else 'A'}" for q in atm.states
    ))
    lines.append("alphabet " + " ".join(atm.alphabet))
    lines.append(f"accept {atm.accept}")
    lines.append(f"reject {atm.reject}")
    lines.append(f"cells {atm.cells}")
    for (q, a) in sorted(atm.trans):
        for q2, b, d in atm.trans[(q, a)]:
            lines.append(f"trans {q} {a} -> {q2} {b} {d}")
    return "\n".join(lines) + "\n"


def _legal_moves(atm: AtmSpec, q: str, i: int, a: str):
    """Transitions applicable at head position ``i`` (1-based)."""
    for q2, b, d in atm.trans.get((q, a), ()):
        i2 = i + 1 if d == "R" else i - 1
        if 1 <= i2 <= atm.cells:
            yield q2, b, i2


def gen_atm_lockkey(atm: AtmSpec, word: str) -> tuple[LockKeyGame, LockConfig]:
    """Compile machine acceptance of ``word`` into a Lock & Key game.

    Lock ``(i, a)`` open means tape cell ``i`` holds ``a``.  A transition
    edge turns the keys of the rewritten cell's old and new contents (no
    keys when the letter is unchanged, since a double toggle would corrupt
    the state), and the edges into the next main vertex are guarded by the
    lock of the claimed cell contents, so exactly the true claim is open.
    """
    if len(word) != atm.cells:
        raise ValidationError(
            f"word length {len(word)} must equal the tape length {atm.cells}"
        )
    for a in word:
        if a not in atm.alphabet:
            raise ValidationError(f"word letter {a!r} outside the alphabet")

    letter_ix = {a: i for i, a in enumerate(atm.alphabet)}

    def lock_id(i: int, a: str) -> int:
        return (i - 1) * len(atm.alphabet) + letter_ix[a]

    names: list[str] = []
    ids: dict[str, int] = {}

    def vertex(name: str) -> int:
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    p1: set[int] = set()
    targets: set[int] = set()
    edges: list[tuple[int, int]] = []
    locks: list[frozenset[int]] = []
    keys: list[frozenset[int]] = []

    main: dict[tuple[str, int, str], int] = {}
    for q in atm.states:
        for i in range(1, atm.cells + 1):
            for a in atm.alphabet:
                v = vertex(f"{q}.{i}.{a}")
                main[(q, i, a)] = v
                if atm.owner[q] == 1:
                    p1.add(v)
                if q == atm.accept:
                    targets.add(v)

    for (q, i, a), v in main.items():
        if q in (atm.accept, atm.reject):
            edges.append((v, v))
            locks.append(frozenset())
            keys.append(frozenset())
            continue
        for tno, (q2, b, i2) in enumerate(_legal_moves(atm, q, i, a)):
            w = vertex(f"{q}.{i}.{a}.t{tno}")
            if atm.owner[q] == 1:
                p1.add(w)
            edges.append((v, w))
            locks.append(frozenset())
            keys.append(
                frozenset() if a == b
                else frozenset({lock_id(i, a), lock_id(i, b)})
            )
            for c in atm.alphabet:
                edges.append((w, main[(q2, i2, c)]))
                locks.append(frozenset({lock_id(i2, c)}))
                keys.append(frozenset())

    game = LockKeyGame(
        n=len(names),
        p1_vertices=frozenset(p1),
        edges=tuple(edges),
        targets=frozenset(targets),
        num_locks=atm.cells * len(atm.alphabet),
        locks=tuple(locks),
        keys=tuple(keys),
        names=tuple(names),
        name="atm",
    )
    closed = frozenset(
        lock_id(i, a)
        for i in range(1, atm.cells + 1)
        for a in atm.alphabet
        if a != word[i - 1]
    )
    return game, LockConfig(main[(atm.initial, 1, word[0])], closed)


def atm_accepts_bruteforce(atm: AtmSpec, word: str, budget: int = 1_000_000) -> bool:
    """Ground truth for acceptance: attractor over machine configurations.

    Existential states choose, universal states must satisfy all moves;
    stuck non-accepting configurations reject, and loops never accept.
    """
    if len(word) != atm.cells:
        raise ValidationError("word length must equal the tape length")
    space = len(atm.states) * atm.cells * len(atm.alphabet) ** atm.cells
    if space > budget:
        raise BudgetExceededError(space, budget)

    start = (atm.initial, 1, tuple(word))
    states = [start]
    index = {start: 0}
    succ: list[list[int]] = [[]]
    i = 0
    while i < len(states):
        q, pos, tape = states[i]
        if q not in (atm.accept, atm.reject):
            for q2, b, pos2 in _legal_moves(atm, q, pos, tape[pos - 1]):
                tape2 = tape[: pos - 1] + (b,) + tape[pos:]
                nxt = (q2, pos2, tape2)
                nid = index.get(nxt)
                if nid is None:
                    nid = len(states)
                    index[nxt] = nid
                    states.append(nxt)
                    succ.append([])
                succ[i].append(nid)
        if not succ[i]:
            succ[i].append(i)
        i += 1
    tb = TurnBasedGame(
        n=len(states),
        p1_vertices=frozenset(
            i for i, (q, _, _) in enumerate(states) if atm.owner[q] == 1
        ),
        succ=tuple(tuple(s) for s in succ),
        targets=frozenset(
            i for i, (q, _, _) in enumerate(states) if q == atm.accept
        ),
    )
    return 0 in solve_turnbased(tb).region


# ---------------------------------------------------------------------------
# SET-COVER


def gen_setcover(
    n: int, sets: list[frozenset[int]], k: int
) -> tuple[PawnGame, Configuration]:
    """Compile a SET-COVER instance into a k-grabbing pawn game.

    Crossing the element chain forces one set choice per element, and a
    chosen set's vertex can only be crossed after grabbing its pawn, which
    is shared by all of that set's vertices.  A cover of size at most ``k``
    exists iff Player 1 wins with ``k`` grabs.
    """
    if n < 1:
        raise ValidationError("the universe needs at least one element")
    m = len(sets)
    for s in sets:
        for e in s:
            if not 1 <= e <= n:
                raise ValidationError(f"set element {e} outside the universe")
    names: list[str] = []
    owners: list[frozenset[int]] = []

    def vertex(name: str, pawn: int) -> int:
        names.append(name)
        owners.append(frozenset({pawn}))
        return len(names) - 1

    elem = {i: vertex(f"e{i}", 0) for i in range(1, n + 1)}
    pair = {
        (j, i): vertex(f"S{j}.e{i}", j)
        for j in range(1, m + 1)
        for i in range(1, n + 1)
    }
    sink = vertex("s", 0)
    goal = vertex("t", 0)

    edges: set[tuple[int, int]] = {(sink, sink), (goal, goal)}
    for i in range(1, n + 1):
        covering = [j for j in range(1, m + 1) if i in sets[j - 1]]
        for j in covering:
            edges.add((elem[i], pair[(j, i)]))
        if not covering:
            # an uncovered element dooms Player 1 on the spot
            edges.add((elem[i], sink))
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            nxt = goal if i == n else elem[i + 1]
            edges.add((pair[(j, i)], nxt))
            edges.add((pair[(j, i)], sink))

    game = PawnGame(
        n=len(names),
        edges=frozenset(edges),
        targets=frozenset({goal}),
        d=m + 1,
        owners=tuple(owners),
        mechanism=Mechanism.k_grabbing(k),
        names=tuple(names),
        name="setcover",
    )
    return game, Configuration(elem[1], frozenset({0}), k)


def set_cover_exists(n: int, sets: list[frozenset[int]], k: int) -> bool:
    """Exhaustive check for a cover of size at most ``k``."""
    from itertools import combinations

    universe = set(range(1, n + 1))
    for size in range(min(k, len(sets)) + 1):
        for combo in combinations(sets, size):
            covered = set().union(*combo) if combo else set()
            if universe <= covered:
                return True
    return False


# ---------------------------------------------------------------------------
# TQBF


@dataclass(frozen=True)
class QbfSpec:
    """Prenex CNF formula: quantifier per variable plus signed clauses."""

    quants: tuple[str, ...]            # 'E' or 'A', for x1..xn
    clauses: tuple[frozenset[int], ...]  # +i for x_i, -i for ~x_i

    def __post_init__(self):
        if not self.quants:
            raise ValidationError("formula needs at least one variable")
        for q in self.quants:
            if q not in ("E", "A"):
                raise ValidationError(f"bad quantifier {q!r}")
        for clause in self.clauses:
            if not clause:
                raise ValidationError("clauses must be non-empty")
            for lit in clause:
                if not 1 <= abs(lit) <= len(self.quants):
                    raise ValidationError(f"literal {lit} out of range")


def parse_qbf(formula: str) -> QbfSpec:
    """Parse ``Ex1.Ax2.(x1|~x2)&(x2)`` style formulas."""
    text = formula.replace(" ", "")
    quants: list[str] = []
    pos = 0
    while pos < len(text) and text[pos] in "EA":
        q = text[pos]
        pos += 1
        if not text.startswith("x", pos):
            raise GameFormatError(f"expected variable after {q}, in {formula!r}")
        pos += 1
        start = pos
        while pos < len(text) and text[pos].isdecimal():
            pos += 1
        if integer(text[start:pos], "variable", None) != len(quants) + 1:
            raise GameFormatError("variables must be x1, x2, ... in order")
        quants.append(q)
        if pos < len(text) and text[pos] == ".":
            pos += 1
    clauses: list[frozenset[int]] = []
    body = text[pos:]
    if not body:
        raise GameFormatError("formula needs a clause body")
    for part in body.split("&"):
        if not (part.startswith("(") and part.endswith(")")):
            raise GameFormatError(f"clause {part!r} needs parentheses")
        lits = set()
        for lit in part[1:-1].split("|"):
            neg = lit.startswith("~")
            name = lit[1:] if neg else lit
            if not name.startswith("x"):
                raise GameFormatError(f"bad literal {lit!r}")
            var = integer(name[1:], f"literal {lit!r}", None)
            lits.add(-var if neg else var)
        clauses.append(frozenset(lits))
    return QbfSpec(tuple(quants), tuple(clauses))


def qbf_eval(qbf: QbfSpec) -> bool:
    """Exhaustive truth of the quantified formula."""

    def value(i: int, assignment: list[bool]) -> bool:
        if i == len(qbf.quants):
            return all(
                any(
                    assignment[abs(lit) - 1] == (lit > 0)
                    for lit in clause
                )
                for clause in qbf.clauses
            )
        results = (
            value(i + 1, assignment + [True]),
            value(i + 1, assignment + [False]),
        )
        return any(results) if qbf.quants[i] == "E" else all(results)

    return value(0, [])


def gen_tqbf(qbf: QbfSpec) -> tuple[PawnGame, Configuration]:
    """Compile a TQBF instance into an overlapping-ownership k-grabbing game.

    Grabbing the pawn of a literal vertex assigns the variable; clause
    vertices are owned by every pawn of a satisfying literal, so Player 1
    crosses them exactly when his grabs satisfy the clause.  The grab
    budget equals the variable count, which leaves no grabs to steal the
    universal chooser.
    """
    nv = len(qbf.quants)
    m = len(qbf.clauses)
    exist_pawn, univ_pawn = 0, 1

    def pos_pawn(i: int) -> int:
        return 2 + 2 * (i - 1)

    def neg_pawn(i: int) -> int:
        return 3 + 2 * (i - 1)

    names: list[str] = []
    owners: list[frozenset[int]] = []

    def vertex(name: str, pawns) -> int:
        names.append(name)
        owners.append(frozenset({pawns} if isinstance(pawns, int) else pawns))
        return len(names) - 1

    chooser = {
        i: vertex(f"x{i}", exist_pawn if qbf.quants[i - 1] == "E" else univ_pawn)
        for i in range(1, nv + 1)
    }
    lit = {}
    for i in range(1, nv + 1):
        lit[i] = vertex(f"x{i}.true", pos_pawn(i))
        lit[-i] = vertex(f"x{i}.false", neg_pawn(i))
    clause = {
        j: vertex(
            f"c{j}",
            {pos_pawn(l) if l > 0 else neg_pawn(-l) for l in qbf.clauses[j - 1]},
        )
        for j in range(1, m + 1)
    }
    sink = vertex("s", univ_pawn)
    goal = vertex("t", univ_pawn)

    edges: set[tuple[int, int]] = {(sink, sink), (goal, goal)}
    for i in range(1, nv + 1):
        edges.add((chooser[i], lit[i]))
        edges.add((chooser[i], lit[-i]))
        after = chooser[i + 1] if i < nv else (clause[1] if m else goal)
        for v in (lit[i], lit[-i]):
            edges.add((v, after))
            edges.add((v, sink))
    for j in range(1, m + 1):
        edges.add((clause[j], clause[j + 1] if j < m else goal))
        edges.add((clause[j], sink))

    game = PawnGame(
        n=len(names),
        edges=frozenset(edges),
        targets=frozenset({goal}),
        d=2 + 2 * nv,
        owners=tuple(owners),
        mechanism=Mechanism.k_grabbing(nv),
        names=tuple(names),
        name="tqbf",
    )
    return game, Configuration(chooser[1], frozenset({exist_pawn}), nv)


# ---------------------------------------------------------------------------
# Random instances


def gen_random_pawngame(
    n_vertices: int,
    n_pawns: int,
    kind: OwnershipKind,
    mechanism: Mechanism,
    seed: int,
) -> tuple[PawnGame, Configuration]:
    """Seed-deterministic random game of the requested ownership kind,
    with ``n_vertices`` random edges beside one out-edge per vertex."""
    rng = random.Random(seed)
    n, d = n_vertices, n_pawns
    if n < 1:
        raise ValidationError("need at least one vertex")
    if kind is OwnershipKind.OVPP and d != n:
        raise ValidationError("one vertex per pawn forces n_pawns == n_vertices")
    if kind is OwnershipKind.MVPP and not 1 <= d < n:
        raise ValidationError(
            "a strict many-vertex partition needs 1 <= n_pawns < n_vertices"
        )
    if kind is OwnershipKind.OMVPP and (d < 2 or n < 1):
        raise ValidationError("overlapping ownership needs at least two pawns")

    edges = set()
    for v in range(n):
        edges.add((v, rng.randrange(n)))
    for _ in range(n):
        edges.add((rng.randrange(n), rng.randrange(n)))
    targets = frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 3))))

    if kind is OwnershipKind.OVPP:
        perm = list(range(n))
        rng.shuffle(perm)
        owners = [frozenset({perm[v]}) for v in range(n)]
    elif kind is OwnershipKind.MVPP:
        assignment = [rng.randrange(d) for _ in range(n)]
        slots = rng.sample(range(n), d)
        for pawn, v in enumerate(slots):
            assignment[v] = pawn
        owners = [frozenset({assignment[v]}) for v in range(n)]
    else:
        sets = [{rng.randrange(d)} for _ in range(n)]
        for v in range(n):
            if rng.random() < 0.4:
                sets[v].add(rng.randrange(d))
        v = rng.randrange(n)
        sets[v].add((min(sets[v]) + 1) % d)
        owners = [frozenset(s) for s in sets]

    game = PawnGame(
        n=n,
        edges=frozenset(edges),
        targets=targets,
        d=d,
        owners=tuple(owners),
        mechanism=mechanism,
        names=tuple(f"v{v}" for v in range(n)),
        name=f"random{seed}",
    )
    if classify(game) is not kind:
        # overlap draw may have collapsed; force a second owner somewhere
        raise AssertionError("generated game missed the requested kind")
    pawns = frozenset(j for j in range(d) if rng.random() < 0.5)
    grabs = mechanism.k if mechanism.rule is GrabRule.K_GRABBING else None
    return game, Configuration(rng.randrange(n), pawns, grabs)


def gen_random_turnbased(n: int, seed: int) -> TurnBasedGame:
    """Random dead-end-free turn-based game: one out-edge per vertex and
    ``n`` more random edges."""
    rng = random.Random(seed)
    succ: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        succ[v].add(rng.randrange(n))
    for _ in range(n):
        succ[rng.randrange(n)].add(rng.randrange(n))
    return TurnBasedGame(
        n=n,
        p1_vertices=frozenset(v for v in range(n) if rng.random() < 0.5),
        succ=tuple(tuple(sorted(s)) for s in succ),
        targets=frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 3)))),
    )


def gen_random_lockkey(
    n: int, num_locks: int, seed: int
) -> tuple[LockKeyGame, LockConfig]:
    """Random Lock & Key game with sparse labels.

    Each edge carries at most one lock (key sets are unrestricted): a
    multi-lock edge cannot be rewritten into single-label form without
    changing stalling behavior, so random instances stay inside the domain
    where the label-splitting rewrite is exact.
    """
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    seen = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            e = (v, rng.randrange(n))
            if e not in seen:
                seen.add(e)
                edges.append(e)
    locks = []
    keys = []
    for _ in edges:
        locks.append(
            frozenset({rng.randrange(num_locks)})
            if rng.random() < 0.35 else frozenset()
        )
        keys.append(frozenset(
            j for j in range(num_locks) if rng.random() < 0.25
        ))
    game = LockKeyGame(
        n=n,
        p1_vertices=frozenset(v for v in range(n) if rng.random() < 0.5),
        edges=tuple(edges),
        targets=frozenset({rng.randrange(n)}),
        num_locks=num_locks,
        locks=tuple(locks),
        keys=tuple(keys),
        name=f"randomlk{seed}",
    )
    closed = frozenset(j for j in range(num_locks) if rng.random() < 0.5)
    return game, LockConfig(rng.randrange(n), closed)


def gen_random_atm(num_states: int, seed: int, cells: int = 2) -> tuple[AtmSpec, str]:
    """Random tiny machine over a two-letter alphabet, plus an input word."""
    rng = random.Random(seed)
    alphabet = ("a", "b")
    names = [f"q{i}" for i in range(num_states)] + ["qA", "qR"]
    owner = {q: rng.choice((1, 2)) for q in names}
    trans: dict[tuple[str, str], tuple[tuple[str, str, str], ...]] = {}
    for q in names[:num_states]:
        for a in alphabet:
            moves = []
            for _ in range(rng.randint(0, 2)):
                moves.append((
                    rng.choice(names),
                    rng.choice(alphabet),
                    rng.choice(("L", "R")),
                ))
            if moves:
                trans[(q, a)] = tuple(moves)
    atm = AtmSpec(
        states=tuple(names),
        owner=owner,
        alphabet=alphabet,
        accept="qA",
        reject="qR",
        cells=cells,
        trans=trans,
    )
    word = "".join(rng.choice(alphabet) for _ in range(cells))
    return atm, word

"""Oracle-equivalence suites: every polynomial solver, reduction and
generator is fuzzed against the explicit configuration-graph solver or an
exhaustive evaluator of the source problem.

Each suite returns a list of failure descriptions; an empty list means the
suite passed.  Failures embed the serialized counterexample so it can be
re-parsed and replayed deterministically.
"""

from __future__ import annotations

import random

from .gamefile import serialize_game
from .generators import (
    QbfSpec,
    atm_accepts_bruteforce,
    gen_atm_lockkey,
    gen_random_atm,
    gen_random_pawngame,
    gen_random_turnbased,
    gen_setcover,
    gen_tqbf,
    qbf_eval,
    set_cover_exists,
)
from .grab_or_give import solve_grab_or_give
from .kgrab_dfs import solve_kgrab_dfs
from .kgrab_ovpp import minimum_grabs
from .lockkey import GadgetRegistry, PawnGameBuilder, solve_lockkey, tb_to_optional
from .model import Configuration, Mechanism, OwnershipKind, PawnGame
from .optional_grabbing import solve_ovpp_optional
from .oracle import AllConfigurations, solve_explicit
from .turnbased import solve_turnbased

SUITES = (
    "alg1",
    "gog",
    "eta",
    "dfs",
    "lemma41",
    "gadgets",
    "monotonic",
    "setcover",
    "tqbf",
    "atm",
)


def _counterexample(game, config, note: str) -> str:
    return note + "\n" + serialize_game(game, config)


def suite_alg1(seed: int, count: int) -> list[str]:
    """Border-absorption solver vs the oracle on random OVPP games."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        n = rng.randint(2, 7)
        game, config = gen_random_pawngame(
            n, n, OwnershipKind.OVPP, Mechanism.optional(), seed * 100_003 + i
        )
        oracle = AllConfigurations(game)
        pawn_sets = {config.p1_pawns}
        while len(pawn_sets) < 4:
            pawn_sets.add(frozenset(j for j in range(n) if rng.random() < 0.5))
        for pawns in pawn_sets:
            c = Configuration(config.vertex, pawns)
            got = solve_ovpp_optional(game, c).winner
            want = oracle.winner(c.vertex, c.p1_pawns)
            if got != want:
                failures.append(_counterexample(
                    game, c, f"alg1 winner {got}, oracle {want}"
                ))
    return failures


def suite_gog(seed: int, count: int) -> list[str]:
    """Control-state reduction vs the oracle, plus the control abstraction:
    the winner may depend on the pawn set only through who moves."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        if rng.random() < 0.25:
            n = rng.randint(2, 6)
            d, kind = n, OwnershipKind.OVPP
        else:
            n = rng.randint(3, 6)
            d, kind = rng.randint(2, n - 1), OwnershipKind.MVPP
        game, config = gen_random_pawngame(
            n, d, kind, Mechanism.grab_or_give(), seed * 100_003 + i
        )
        oracle = AllConfigurations(game)
        for v in range(n):
            j = next(iter(game.owners[v]))
            with_owner = {
                oracle.winner(v, p | frozenset({j}))
                for p in _some_pawn_sets(rng, d)
            }
            without_owner = {
                oracle.winner(v, p - frozenset({j}))
                for p in _some_pawn_sets(rng, d)
            }
            if len(with_owner) != 1 or len(without_owner) != 1:
                failures.append(_counterexample(
                    game, Configuration(v, frozenset()),
                    "winner not determined by the mover alone"
                ))
                continue
            for pawns, want in (
                (frozenset({j}), with_owner.pop()),
                (frozenset(), without_owner.pop()),
            ):
                c = Configuration(v, pawns)
                got = solve_grab_or_give(game, c)
                if got != want:
                    failures.append(_counterexample(
                        game, c, f"reduction winner {got}, oracle {want}"
                    ))
    return failures


def _some_pawn_sets(rng: random.Random, d: int, cap: int = 64):
    if 2 ** d <= cap:
        return [
            frozenset(j for j in range(d) if mask >> j & 1)
            for mask in range(2 ** d)
        ]
    return [
        frozenset(j for j in range(d) if rng.random() < 0.5) for _ in range(cap)
    ]


def suite_eta(seed: int, count: int) -> list[str]:
    """Minimum-grab labels vs an oracle sweep over every budget."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        n = rng.randint(2, 6)
        game, config = gen_random_pawngame(
            n, n, OwnershipKind.OVPP, Mechanism.k_grabbing(n),
            seed * 100_003 + i
        )
        p0 = config.p1_pawns
        grabs = minimum_grabs(game, p0)
        oracle = AllConfigurations(game)
        for v in range(n):
            for k in range(n + 1):
                want = oracle.winner(v, p0, k)
                got = 1 if grabs[v] <= k else 2
                if got != want:
                    failures.append(_counterexample(
                        game, Configuration(v, p0, k),
                        f"eta={grabs[v]} gives winner {got}, oracle {want}"
                    ))
    return failures


def suite_dfs(seed: int, count: int) -> list[str]:
    """Bounded search vs the oracle; witness validity."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        n = rng.randint(2, 5)
        d = rng.randint(2, 5)
        k = rng.randint(0, 3)
        game, config = gen_random_pawngame(
            n, d, OwnershipKind.OMVPP, Mechanism.k_grabbing(k),
            seed * 100_003 + i
        )
        result = solve_kgrab_dfs(game, config)
        oracle = AllConfigurations(game)
        want = oracle.winner(config.vertex, config.p1_pawns, config.grabs_left)
        if result.winner != want:
            failures.append(_counterexample(
                game, config, f"search winner {result.winner}, oracle {want}"
            ))
        elif result.winner == 1:
            note = _check_witness(game, config, result.witness, result.rounds_cap)
            if note:
                failures.append(_counterexample(game, config, note))
    return failures


def _check_witness(game, config, steps, cap) -> str | None:
    v, pawns, grabs_left = config.vertex, set(config.p1_pawns), config.grabs_left
    rounds = 0
    it = iter(steps)
    for move in it:
        if move[0] != "move":
            return f"witness expected a move, got {move}"
        u = move[1]
        if (v, u) not in game.edges:
            return f"witness move {v}->{u} is not an edge"
        exchange = next(it, None)
        if exchange is None:
            return "witness ended in the middle of a round"
        if exchange[0] == "grab":
            j = exchange[1]
            if j in pawns or grabs_left == 0:
                return f"witness grab of pawn {j} is illegal"
            pawns.add(j)
            grabs_left -= 1
        elif exchange[0] != "nograb":
            return f"witness expected a grab decision, got {exchange}"
        v = u
        rounds += 1
    if v not in game.targets:
        return "witness play does not end on a target"
    if rounds > cap:
        return f"witness uses {rounds} rounds, cap is {cap}"
    return None


def suite_lemma41(seed: int, count: int) -> list[str]:
    """Turn-based winner equals the embedded optional-grabbing winner."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        n = rng.randint(2, 8)
        tb = gen_random_turnbased(n, seed * 100_003 + i)
        v0 = rng.randrange(n)
        want = 1 if v0 in solve_turnbased(tb).region else 2
        game, config = tb_to_optional(tb, v0)
        got = AllConfigurations(game).winner(config.vertex, config.p1_pawns)
        if got != want:
            failures.append(_counterexample(
                game, config,
                f"embedded winner {got}, turn-based winner {want}"
            ))
    return failures


def _gadget_harness(parts: list[str], p1_state_pawns: list[str]):
    """A chain harness: entry -> gadgets/escape vertices -> goal.

    ``parts`` is a sequence of ``lock``/``key``/``mid`` items; gadget
    copies share one fresh-pawn pool and the sink/goal share one pawn to
    stay within a small pawn budget.  ``p1_state_pawns`` picks which of
    blue/green/red start on Player 1's side; the entry pawn always does.
    """
    b = PawnGameBuilder("gadget-harness")
    reg = GadgetRegistry(b)
    # one pawn for both terminals: they only carry self-loops
    st_pawn = b.add_pawn()
    sink = b.add_vertex("sink", st_pawn)
    goal = b.add_vertex("goal", st_pawn)
    b.add_edge(sink, sink)
    b.add_edge(goal, goal)
    b.targets.add(goal)
    entry, entry_pawn = b.add_fresh_vertex("entry")
    shared_fresh: dict[str, int] = {}

    def fresh_for(part: str) -> int:
        if part not in shared_fresh:
            shared_fresh[part] = b.add_pawn()
        return shared_fresh[part]

    cur = entry
    for step, part in enumerate(parts):
        if part == "mid":
            mid = b.add_vertex(f"mid{step}", fresh_for("mid"))
            b.add_edge(cur, mid)
            b.add_edge(mid, sink)
            cur = mid
            continue
        if part == "lock":
            vin = b.add_vertex(f"g{step}.in", fresh_for("in"))
            v1 = b.add_vertex(f"g{step}.blue1", reg.blue_pawn(0))
            v2 = b.add_vertex(f"g{step}.green2", reg.green_pawn(0))
            v3 = b.add_vertex(f"g{step}.w3", fresh_for("w3"))
            v4 = b.add_vertex(f"g{step}.w4", fresh_for("w4"))
            vout = b.add_vertex(f"g{step}.out", fresh_for("out"))
            for u, v in ((vin, v1), (vin, v2), (v1, v3), (v2, v4),
                         (v3, vout), (v3, sink), (v4, vout), (v4, goal)):
                b.add_edge(u, v)
        else:
            red, blue, green = reg.red_pawn(0), reg.blue_pawn(0), reg.green_pawn(0)
            vin = b.add_vertex(f"g{step}.in", red)
            v1 = b.add_vertex(f"g{step}.blue1", blue)
            v2 = b.add_vertex(f"g{step}.green2", green)
            v3 = b.add_vertex(f"g{step}.w3", fresh_for("w3"))
            v4 = b.add_vertex(f"g{step}.red4", red)
            v5 = b.add_vertex(f"g{step}.red5", red)
            v6 = b.add_vertex(f"g{step}.red6", red)
            v7 = b.add_vertex(f"g{step}.green7", green)
            v8 = b.add_vertex(f"g{step}.green8", green)
            vout = b.add_vertex(f"g{step}.out", fresh_for("out"))
            for u, v in ((vin, v1), (v1, v2), (v1, v4), (v2, v3),
                         (v3, sink), (v3, goal), (v4, v5), (v4, v6),
                         (v5, v7), (v5, sink), (v6, v8), (v6, goal),
                         (v7, vout), (v7, goal), (v8, vout), (v8, sink)):
                b.add_edge(u, v)
        b.add_edge(cur, vin)
        cur = vout
    b.add_edge(cur, goal)

    colors = {"blue": reg.blue, "green": reg.green, "red": reg.red}
    p1 = {entry_pawn}
    for color in p1_state_pawns:
        p1.add(colors[color][0])
    return b.build(Mechanism.optional(), entry, p1)


def suite_gadgets(seed: int = 0, count: int = 0) -> list[str]:
    """Lock and key gadget behavior, decided by the oracle on harnesses."""
    cases = [
        ("open lock is crossable", ["lock"], ["green"], 1),
        ("closed lock kills the enterer", ["lock"], ["blue"], 2),
        ("open lock crossed twice: state preserved",
         ["lock", "lock"], ["green"], 1),
        ("key entered closed opens the lock",
         ["key", "mid", "lock"], ["blue", "red"], 1),
        ("key entered open closes the lock",
         ["key", "mid", "lock"], ["green"], 2),
    ]
    failures = []
    for note, parts, state, want in cases:
        game, config = _gadget_harness(parts, state)
        got = AllConfigurations(game).winner(config.vertex, config.p1_pawns)
        if got != want:
            failures.append(_counterexample(
                game, config, f"{note}: winner {got}, expected {want}"
            ))
    return failures


def suite_monotonic(seed: int, count: int) -> list[str]:
    """Fewer pawns never hurt under optional/always grabbing (owner pawn
    control preserved); more pawns never hurt under k-grabbing."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        n = rng.randint(3, 9)
        d = rng.randint(2, min(8, n - 1))
        game, _ = gen_random_pawngame(
            n, d, OwnershipKind.MVPP, Mechanism.optional(), seed * 100_003 + i
        )
        for mech in (Mechanism.optional(), Mechanism.always()):
            variant = PawnGame(
                n=game.n, edges=game.edges, targets=game.targets, d=game.d,
                owners=game.owners, mechanism=mech, names=game.names,
                name=game.name,
            )
            oracle = AllConfigurations(variant)
            note = _check_subset_monotone(variant, oracle)
            if note:
                failures.append(_counterexample(
                    variant, Configuration(0, frozenset()),
                    f"{mech.describe()}: {note}"
                ))

        kn = rng.randint(2, 5)
        kd = rng.randint(2, 5)
        kk = rng.randint(0, 2)
        kgame, _ = gen_random_pawngame(
            kn, kd, OwnershipKind.OMVPP, Mechanism.k_grabbing(kk),
            seed * 200_003 + i
        )
        koracle = AllConfigurations(kgame)
        knote = _check_superset_monotone(kgame, koracle, kk)
        if knote:
            failures.append(_counterexample(
                kgame, Configuration(0, frozenset(), kk), knote
            ))
    return failures


def _check_subset_monotone(game, oracle) -> str | None:
    all_sets = [frozenset(j for j in range(game.d) if m >> j & 1)
                for m in range(2 ** game.d)]
    for v in range(game.n):
        j = next(iter(game.owners[v]))
        wins = {p for p in all_sets if oracle.winner(v, p) == 1}
        for p in wins:
            for sub in _subsets(p):
                if j in p and j not in sub:
                    continue
                if sub not in wins:
                    return (
                        f"losing from v={game.names[v]} with fewer pawns "
                        f"{sorted(sub)} despite winning with {sorted(p)}"
                    )
    return None


def _check_superset_monotone(game, oracle, k: int) -> str | None:
    all_sets = [frozenset(j for j in range(game.d) if m >> j & 1)
                for m in range(2 ** game.d)]
    for v in range(game.n):
        for r in range(k + 1):
            for p in all_sets:
                if oracle.winner(v, p, r) != 1:
                    continue
                for j in range(game.d):
                    if j in p:
                        continue
                    if oracle.winner(v, p | {j}, r) != 1:
                        return (
                            f"extra pawn {j} loses v={game.names[v]} "
                            f"r={r} from {sorted(p)}"
                        )
    return None


def _subsets(p: frozenset[int]):
    items = sorted(p)
    for mask in range(2 ** len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def suite_setcover(seed: int, count: int) -> list[str]:
    """Game winner iff a small cover exists, by search and by oracle."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        sets = [
            frozenset(e for e in range(1, n + 1) if rng.random() < 0.45)
            or frozenset({rng.randint(1, n)})
            for _ in range(m)
        ]
        k = rng.randint(0, min(m, 3))
        game, config = gen_setcover(n, sets, k)
        want = 1 if set_cover_exists(n, sets, k) else 2
        searched = solve_kgrab_dfs(game, config).winner
        checked = solve_explicit(game, config).winner
        if searched != want or checked != want:
            failures.append(_counterexample(
                game, config,
                f"cover exists={want == 1}, search {searched}, oracle {checked}"
            ))
    return failures


def gen_random_qbf(seed: int) -> QbfSpec:
    rng = random.Random(seed)
    nv = rng.randint(1, 4)
    quants = tuple(rng.choice("EA") for _ in range(nv))
    clauses = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, min(3, nv))
        variables = rng.sample(range(1, nv + 1), size)
        clauses.append(frozenset(
            v if rng.random() < 0.5 else -v for v in variables
        ))
    return QbfSpec(quants, tuple(clauses))


def suite_tqbf(seed: int, count: int) -> list[str]:
    """Game winner iff the formula is true, by search and by oracle."""
    failures = []
    for i in range(count):
        qbf = gen_random_qbf(seed * 100_003 + i)
        game, config = gen_tqbf(qbf)
        want = 1 if qbf_eval(qbf) else 2
        searched = solve_kgrab_dfs(game, config).winner
        checked = solve_explicit(game, config).winner
        if searched != want or checked != want:
            failures.append(_counterexample(
                game, config,
                f"formula true={want == 1}, search {searched}, oracle {checked}"
            ))
    return failures


def suite_atm(seed: int, count: int) -> list[str]:
    """Machine acceptance iff the compiled game is won by Player 1."""
    failures = []
    for i in range(count):
        atm, word = gen_random_atm(
            num_states=1 + i % 3, seed=seed * 100_003 + i
        )
        lk, lc = gen_atm_lockkey(atm, word)
        got = solve_lockkey(lk, lc)
        want = 1 if atm_accepts_bruteforce(atm, word) else 2
        if got != want:
            from .generators import serialize_atm

            failures.append(
                f"machine acceptance {want == 1}, game winner {got}\n"
                + serialize_atm(atm) + f"word {word}\n"
            )
    return failures


def run_suite(name: str, seed: int, count: int) -> list[str]:
    table = {
        "alg1": suite_alg1,
        "gog": suite_gog,
        "eta": suite_eta,
        "dfs": suite_dfs,
        "lemma41": suite_lemma41,
        "gadgets": suite_gadgets,
        "monotonic": suite_monotonic,
        "setcover": suite_setcover,
        "tqbf": suite_tqbf,
        "atm": suite_atm,
    }
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; pick from {', '.join(SUITES)}")
    return table[name](seed, count)

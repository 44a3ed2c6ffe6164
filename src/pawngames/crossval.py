"""Oracle-equivalence suites: every polynomial solver, reduction and
generator is fuzzed against the explicit configuration-graph solver or an
exhaustive evaluator of the source problem.

Each suite returns a list of failure descriptions; an empty list means the
suite passed.  Failures embed the serialized counterexample so it can be
re-parsed and replayed deterministically.
"""

from __future__ import annotations

import dataclasses
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
    serialize_atm,
    set_cover_exists,
)
from .grab_or_give import solve_grab_or_give
from .kgrab_dfs import KGrabSearchResult, solve_kgrab_dfs
from .kgrab_ovpp import minimum_grabs
from .lockkey import (
    GadgetRegistry,
    PawnGameBuilder,
    _gadget_state_pawns,
    solve_lockkey,
    tb_to_optional,
)
from .model import Configuration, GrabRule, Mechanism, OwnershipKind, PawnGame
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


def _some_pawn_sets(rng: random.Random, d: int):
    """Every pawn set of ``d`` pawns when there are at most 64, else 64
    random ones."""
    if 2 ** d <= 64:
        return list(_subsets(range(d)))
    return [
        frozenset(j for j in range(d) if rng.random() < 0.5) for _ in range(64)
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
    """``kgrab-dfs`` (the restricted exact route) vs the unrestricted
    sweep; witness validity."""
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
                game, config,
                f"kgrab-dfs winner {result.winner}, oracle {want}"))
        elif note := _search_witness_note(game, config, result):
            failures.append(_counterexample(game, config, note))
    return failures


def _search_witness_note(game: PawnGame, config: Configuration,
                         result: KGrabSearchResult) -> str | None:
    """``check_play``'s note on ``kgrab-dfs``'s Player 1 witness, or on its
    length past the paper's ``|V| * (k + 1)`` rounds; None if it holds or
    Player 2 wins."""
    if result.winner != 1:
        return None
    steps = result.witness()
    note = check_play(game, config, steps, 1)
    rounds = sum(step[0] == "move" for step in steps)
    cap = game.n * (config.grabs_left + 1)
    if note is None and rounds > cap:
        note = f"witness uses {rounds} rounds, cap is {cap}"
    return note


def check_play(game: PawnGame, config: Configuration, steps,
               winner: int) -> str | None:
    """Referee a play from the mechanism's rules alone; None if it is legal
    and ends as ``winner`` claims.

    A round is ``("move", u)`` then ``("nograb",)``, ``("grab", j)`` or
    ``("give", j)``; ``("cycle",)`` may end the play once its configuration
    (vertex, pawn set and grabs left) repeats an earlier one.  Player 1's
    play must end on a target; Player 2's must never visit one and must end
    in ``cycle``.
    """
    rule = game.mechanism.rule
    v, pawns, grabs = config.vertex, set(config.p1_pawns), config.grabs_left
    visited = {v}
    earlier = set()
    for i in range(0, len(steps), 2):
        move = steps[i]
        if move == ("cycle",) and i == len(steps) - 1:
            if (v, frozenset(pawns), grabs) not in earlier:
                return f"step {i}: the cycle does not close"
            break
        earlier.add((v, frozenset(pawns), grabs))
        if move[0] != "move":
            return f"step {i}: expected a move, got {move}"
        if (v, move[1]) not in game.edges:
            return f"step {i}: {v}->{move[1]} is not an edge"
        if i + 1 == len(steps):
            return "the play ends in the middle of a round"
        exchange = steps[i + 1]
        # the exchanging player: Player 1 under k-grabbing, else the one
        # who did not move
        moved_by = 1 if game.owners[v] & pawns else 2
        actor = 1 if rule is GrabRule.K_GRABBING else 3 - moved_by
        if exchange[0] == "nograb":
            if rule in (GrabRule.ALWAYS, GrabRule.GRAB_OR_GIVE):
                return f"step {i + 1}: {rule.value} forces an exchange"
        elif exchange[0] not in ("grab", "give"):
            return f"step {i + 1}: expected an exchange, got {exchange}"
        elif exchange[0] == "give" and rule is not GrabRule.GRAB_OR_GIVE:
            return f"step {i + 1}: only grab-or-give lets a pawn be given"
        else:
            j = exchange[1]
            # a grab takes the other player's pawn, a give hands over one's own
            holder = actor if exchange[0] == "give" else 3 - actor
            if not 0 <= j < game.d or (j in pawns) != (holder == 1):
                return f"step {i + 1}: {exchange} needs a pawn of Player {holder}"
            if rule is GrabRule.K_GRABBING:
                if grabs == 0:
                    return f"step {i + 1}: {exchange} with no grabs left"
                grabs -= 1
            pawns ^= {j}
        v = move[1]
        visited.add(v)
    if winner == 1 and v not in game.targets:
        return "Player 1's play does not end on a target"
    if winner == 2 and visited & game.targets:
        return "Player 2's play visits a target"
    if winner == 2 and steps[-1:] != [("cycle",)]:
        return "Player 2's play does not end in a cycle"
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


def _gadget_harness(parts: list[str], closed: frozenset[int]):
    """A chain harness: entry -> gadgets/escape vertices -> goal.

    ``parts`` is a sequence of ``lock``/``key``/``mid`` items; the gadgets
    are lock 0's copies from ``GadgetRegistry``, and ``closed`` gives lock
    0's state through the pawn split ``lockkey_to_optional`` uses.  The
    entry pawn starts on Player 1's side.
    """
    b = PawnGameBuilder("gadget-harness")
    reg = GadgetRegistry(b)
    # one pawn for both terminals: they only carry self-loops, and the
    # sweep's cost doubles with every pawn
    st_pawn = b.add_pawn()
    reg.sink = b.add_vertex("sink", st_pawn)
    reg.goal = b.add_vertex("goal", st_pawn)
    b.add_edge(reg.sink, reg.sink)
    b.add_edge(reg.goal, reg.goal)
    b.targets.add(reg.goal)
    entry, entry_pawn = b.add_fresh_vertex("entry")
    build = {"lock": reg.build_lock_gadget, "key": reg.build_key_gadget}
    cur = entry
    for step, part in enumerate(parts):
        if part == "mid":
            vin = vout = b.add_fresh_vertex(f"mid{step}")[0]
            b.add_edge(vin, reg.sink)
        else:
            vin, vout, _ = build[part](0)
        b.add_edge(cur, vin)
        cur = vout
    b.add_edge(cur, reg.goal)
    p1 = {entry_pawn} | _gadget_state_pawns(reg, closed)
    return b.build(entry, p1)


def suite_gadgets(seed: int = 0, count: int = 0) -> list[str]:
    """Lock and key gadget behavior, decided by the oracle on harnesses."""
    closed, open_ = frozenset({0}), frozenset()
    cases = [
        ("open lock is crossable", ["lock"], open_, 1),
        ("closed lock kills the enterer", ["lock"], closed, 2),
        ("open lock crossed twice: state preserved",
         ["lock", "lock"], open_, 1),
        ("key entered closed opens the lock",
         ["key", "mid", "lock"], closed, 1),
        ("key entered open closes the lock",
         ["key", "mid", "lock"], open_, 2),
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
            variant = dataclasses.replace(game, mechanism=mech)
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
    all_sets = list(_subsets(range(game.d)))
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
    all_sets = list(_subsets(range(game.d)))
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


def _subsets(p):
    items = sorted(p)
    for mask in range(2 ** len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def suite_setcover(seed: int, count: int) -> list[str]:
    """Game winner iff a small cover exists, by ``kgrab-dfs`` and by
    ``solve_explicit``; the Player 1 witness is refereed."""
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
        failures += _reduction_case(game, config, set_cover_exists(n, sets, k),
                                    "cover exists")
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
    """Game winner iff the formula is true, by ``kgrab-dfs`` and by
    ``solve_explicit``; the Player 1 witness is refereed."""
    failures = []
    for i in range(count):
        qbf = gen_random_qbf(seed * 100_003 + i)
        failures += _reduction_case(*gen_tqbf(qbf), qbf_eval(qbf),
                                    "formula true")
    return failures


def _reduction_case(game: PawnGame, config: Configuration, holds: bool,
                    claim: str) -> list[str]:
    """The failures of one reduced instance: Player 1 must win, by
    ``kgrab-dfs`` (on the cone) and by ``solve_explicit`` (on the whole
    game), iff the source instance ``holds``, and the Player 1 witness of
    ``kgrab-dfs`` must pass ``check_play``."""
    want = 1 if holds else 2
    searched = solve_kgrab_dfs(game, config)
    checked = solve_explicit(game, config).winner
    if searched.winner != want or checked != want:
        return [_counterexample(
            game, config, f"{claim}={holds}, "
            f"kgrab-dfs {searched.winner}, oracle {checked}"
        )]
    if note := _search_witness_note(game, config, searched):
        return [_counterexample(game, config, note)]
    return []


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
            failures.append(
                f"machine acceptance {want == 1}, game winner {got}\n"
                + serialize_atm(atm) + f"word {word}\n"
            )
    return failures


def run_suite(name: str, seed: int, count: int) -> list[str]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {', '.join(SUITES)}")
    # looked up per call, so a rebound ``suite_<name>`` is the one that runs
    return globals()[f"suite_{name}"](seed, count)

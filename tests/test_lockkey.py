"""Lock & Key games, label splitting, the embedding into optional grabbing,
the lock/key gadgets and the always-grabbing padding."""

from __future__ import annotations

import itertools

import pytest

from pawngames import (
    AllConfigurations,
    Configuration,
    GrabRule,
    LockConfig,
    LockKeyGame,
    expand_lockkey,
    lockkey_to_optional,
    parse_lockkey,
    serialize_lockkey,
    solve_explicit,
    solve_lockkey,
    solve_turnbased,
    split_labels,
    tb_to_optional,
    to_always_grabbing,
)
from pawngames.crossval import suite_gadgets, suite_lemma41
from pawngames.errors import BudgetExceededError
from pawngames.generators import (
    atm_accepts_bruteforce,
    gen_atm_lockkey,
    gen_random_atm,
    gen_random_lockkey,
    gen_random_turnbased,
)
from pawngames.lockkey import GadgetRegistry, PawnGameBuilder
from pawngames.oracle import _expand
from pawngames.turnbased import TurnBasedGame, attract


def chain_game(locks, keys, names=("a", "b", "t")):
    """a -> b -> t chain with given labels plus a self-loop on t."""
    return LockKeyGame(
        n=3,
        p1_vertices=frozenset({0, 1}),
        edges=((0, 1), (1, 2), (2, 2)),
        targets=frozenset({2}),
        num_locks=2,
        locks=(frozenset(locks[0]), frozenset(locks[1]), frozenset()),
        keys=(frozenset(keys[0]), frozenset(keys[1]), frozenset()),
        names=names,
    )


def test_blocked_lock_means_stalling_loss():
    lk = LockKeyGame(
        n=2, p1_vertices=frozenset({0}), edges=((0, 1), (1, 1)),
        targets=frozenset({1}), num_locks=1,
        locks=(frozenset({0}), frozenset()), keys=(frozenset(), frozenset()),
    )
    assert solve_lockkey(lk, LockConfig(0, frozenset({0}))) == 2
    assert solve_lockkey(lk, LockConfig(0, frozenset())) == 1


def test_forced_toggles_open_the_path():
    # crossing a -> b turns the key, opening the lock on b -> t
    lk = chain_game(locks=[(), {0}], keys=[{0}, ()])
    assert solve_lockkey(lk, LockConfig(0, frozenset({0}))) == 1


def test_forced_toggle_closes_and_strands():
    lk = chain_game(locks=[(), {0}], keys=[{0}, ()])
    assert solve_lockkey(lk, LockConfig(0, frozenset())) == 2


def test_double_toggle_restores_the_closed_set():
    lk = LockKeyGame(
        n=2, p1_vertices=frozenset({0, 1}), edges=((0, 1), (1, 0)),
        targets=frozenset(), num_locks=2,
        locks=(frozenset(), frozenset()),
        keys=(frozenset({0, 1}), frozenset({0, 1})),
    )
    tb, index, _ = expand_lockkey(lk, LockConfig(0, frozenset({1})))
    start = index[(0, 0b10)]
    flipped = index[(1, 0b01)]
    assert tb.succ[start] == (flipped,)
    assert tb.succ[flipped] == (start,)


def test_split_counts_and_identity():
    lk = chain_game(locks=[{0, 1}, ()], keys=[{1}, ()])
    split = split_labels(lk)
    # one triple-labelled edge becomes a chain of three edges
    assert len(split.edges) == len(lk.edges) + 2
    assert all(len(split.locks[i]) + len(split.keys[i]) <= 1
               for i in range(len(split.edges)))

    plain = chain_game(locks=[(), {0}], keys=[{1}, ()])
    assert split_labels(plain) == plain


def test_split_preserves_winners_on_single_lock_games():
    for i in range(100):
        lk, lc = gen_random_lockkey(n=4, num_locks=3, seed=6200 + i)
        assert solve_lockkey(split_labels(lk), lc) == solve_lockkey(lk, lc), i


def test_multi_lock_edges_admit_no_faithful_split():
    # a two-lock edge splits into a chain with a new stalling spot: the
    # opponent enters past the first (open) lock and sits stuck before the
    # second (closed) one, flipping the winner; kept as documentation of
    # the split's exactness domain, not as a solver path
    lk = LockKeyGame(
        n=4,
        p1_vertices=frozenset({0, 1, 3}),
        edges=((0, 2), (1, 2), (1, 3), (2, 1), (2, 3), (3, 0), (3, 3)),
        targets=frozenset({3}),
        num_locks=3,
        locks=(frozenset(), frozenset(), frozenset(), frozenset({0, 1}),
               frozenset(), frozenset(), frozenset({1})),
        keys=(frozenset({1}), frozenset({2}), frozenset(), frozenset(),
              frozenset({1}), frozenset(), frozenset({2})),
        names=("v0", "v1", "v2", "v3"),
    )
    lc = LockConfig(0, frozenset({2}))
    assert solve_lockkey(lk, lc) == 1
    assert solve_lockkey(split_labels(lk), lc) == 2


def test_embedding_counts_and_trivial_start():
    tb = gen_random_turnbased(5, 1)
    game, config = tb_to_optional(tb, 0)
    assert game.n == 2 * tb.n + 2
    assert game.d == game.n

    target = next(iter(tb.targets))
    game2, config2 = tb_to_optional(tb, target)
    assert solve_explicit(game2, config2).winner == 1
    assert (1 if target in solve_turnbased(tb).region else 2) == 1


def test_embedding_matches_turnbased_winner_on_random_games():
    assert suite_lemma41(seed=61, count=25) == []


def _small_turnbased_games(max_n: int):
    """Every dead-end-free turn-based game on 1..max_n vertices, once up to
    vertex renaming.  Vertex ``v`` is ``(owned by Player 1, target, mask of
    successors)``; a game is kept iff no renaming gives a smaller tuple."""
    for n in range(1, max_n + 1):
        kinds = [(p1, tgt, out) for p1 in (False, True)
                 for tgt in (False, True) for out in range(1, 1 << n)]
        renamings = list(itertools.permutations(range(n)))
        for game in itertools.product(kinds, repeat=n):
            def renamed(perm):
                out = [None] * n
                for v, (p1, tgt, succ) in enumerate(game):
                    mask = sum(1 << perm[u] for u in range(n) if succ >> u & 1)
                    out[perm[v]] = (p1, tgt, mask)
                return tuple(out)
            if any(renamed(perm) < game for perm in renamings):
                continue
            yield TurnBasedGame(
                n=n,
                p1_vertices=frozenset(v for v in range(n) if game[v][0]),
                succ=tuple(tuple(u for u in range(n) if game[v][2] >> u & 1)
                           for v in range(n)),
                targets=frozenset(v for v in range(n) if game[v][1]),
            )


def test_embedding_matches_turnbased_winner_on_every_small_game():
    # Lemma 4.1 at small scope: the embedding keeps the winner from every
    # start of every game on at most 3 vertices
    games = starts = 0
    for tb in _small_turnbased_games(3):
        region = solve_turnbased(tb).region
        game, config = tb_to_optional(tb, 0)
        oracle = AllConfigurations(game)
        for v0 in range(tb.n):
            want = 1 if v0 in region else 2
            assert oracle.winner(v0, config.p1_pawns) == want, (tb, v0)
            starts += 1
        games += 1
    assert (games, starts) == (3918, 11668)


def test_lock_gadget_structure():
    builder = PawnGameBuilder("g")
    reg = GadgetRegistry(builder)
    before = builder.num_pawns
    vin, vout, path = reg.build_lock_gadget(0)
    # 6 gadget vertices beyond the shared sink and goal
    assert len(builder.names) == 2 + 6
    shared = {reg.blue[0], reg.green[0]}
    used = [next(iter(s)) for s in builder.owners[2:]]
    assert sum(1 for p in used if p in shared) == 2
    assert path[0] == vin and path[-1] == vout and len(path) == 4


def test_key_gadget_structure_and_color_counts():
    builder = PawnGameBuilder("g")
    reg = GadgetRegistry(builder)
    vin, vout, path = reg.build_key_gadget(0)
    assert len(builder.names) == 2 + 10
    red, green, blue = reg.red[0], reg.green[0], reg.blue[0]
    counts = {red: 0, green: 0, blue: 0}
    for owners in builder.owners[2:]:
        pawn = next(iter(owners))
        if pawn in counts:
            counts[pawn] += 1
    assert counts == {red: 4, green: 3, blue: 1}
    assert len(path) == 6


def test_gadget_copies_share_colors_but_not_fresh_pawns():
    builder = PawnGameBuilder("g")
    reg = GadgetRegistry(builder)
    reg.build_lock_gadget(0)
    first_fresh = {
        next(iter(s)) for s in builder.owners[2:]
    } - {reg.blue[0], reg.green[0]}
    start = len(builder.names)
    reg.build_lock_gadget(0)
    second_fresh = {
        next(iter(s)) for s in builder.owners[start:]
    } - {reg.blue[0], reg.green[0]}
    assert len(reg.blue) == 1 and len(reg.green) == 1
    assert not first_fresh & second_fresh


def test_gadget_behavior_matches_the_lock_semantics():
    assert suite_gadgets() == []


def test_gadget_suite_checks_the_registry_gadgets(monkeypatch):
    build = GadgetRegistry.build_lock_gadget

    def planted(self, j):
        # the lock gadget's w3 escape leads to the goal, not the sink
        vin, vout, path = build(self, j)
        self.builder.edges.remove((path[2], self.sink))
        self.builder.add_edge(path[2], self.goal)
        return vin, vout, path

    monkeypatch.setattr(GadgetRegistry, "build_lock_gadget", planted)
    assert suite_gadgets() != []


def test_compiled_initial_pawns_realize_the_lock_states():
    lk = chain_game(locks=[(), {0}], keys=[{0}, ()])
    game, config, emb = lockkey_to_optional(lk, LockConfig(0, frozenset({0})))
    reg_pawns = _color_pawns(game)
    assert reg_pawns["blue"] in config.p1_pawns
    assert reg_pawns["red"] in config.p1_pawns
    assert reg_pawns["green"] not in config.p1_pawns

    _, open_config, _ = lockkey_to_optional(lk, LockConfig(0, frozenset()))
    assert reg_pawns["green"] in open_config.p1_pawns
    assert reg_pawns["blue"] not in open_config.p1_pawns
    assert reg_pawns["red"] not in open_config.p1_pawns


def _color_pawns(game):
    colors = {}
    for v, name in enumerate(game.names):
        if name.endswith(".blue1") and "key" in name:
            colors["blue"] = next(iter(game.owners[v]))
        if name.endswith(".green2") and "key" in name:
            colors["green"] = next(iter(game.owners[v]))
        if name.endswith(".in") and name.startswith("key"):
            colors["red"] = next(iter(game.owners[v]))
    return colors


def test_compiled_routes_are_walkable():
    lk = chain_game(locks=[(), {0}], keys=[{0}, ()])
    game, _, emb = lockkey_to_optional(lk, LockConfig(0, frozenset()))
    for (x, y), route in emb.routes.items():
        assert route[0] == emb.plain[x]
        assert route[-2] == emb.primed[y] and route[-1] == emb.plain[y]
        for a, b in zip(route, route[1:]):
            assert (a, b) in game.edges


def _reachable_p2_stall(lk, lc):
    tb, _, states = expand_lockkey(lk, lc)
    for sid, (v, _) in enumerate(states):
        if v in lk.targets or v in lk.p1_vertices:
            continue
        if tuple(tb.succ[sid]) == (sid,):
            return True
    return False


def test_compiled_games_match_lockkey_winners():
    # the compiled game forces a move where the original lets the opponent
    # stall, so instances with a reachable stuck opponent state are skipped
    checked = stopped = 0
    for i in range(40):
        lk, lc = gen_random_lockkey(n=3, num_locks=1, seed=4200 + i)
        if _reachable_p2_stall(lk, lc):
            continue
        want = solve_lockkey(lk, lc)
        game, config, _ = lockkey_to_optional(lk, lc)
        try:
            got = solve_explicit(game, config, budget=100_000).winner
        except BudgetExceededError:
            stopped += 1
            continue
        assert got == want, f"seed {4200 + i}"
        checked += 1
    assert (checked, stopped) == (28, 5)


# machines whose compiled game once forced a stuck Player 2 into the goal
STUCK_OPPONENT_ATMS = {5, 7, 9, 11, 12, 16, 23, 24, 27, 35, 36, 52}


def test_compiled_atm_chain_matches_machine_acceptance():
    # the hardness chain end to end: machine -> Lock & Key -> optional
    # grabbing, decided by the lazy oracle within 100k states, each charged
    # its pawn mask's d // 64 + 1 words
    decided, stopped = set(), set()
    for i in range(60):
        atm, word = gen_random_atm(1 + i % 3, seed=i)
        want = 1 if atm_accepts_bruteforce(atm, word) else 2
        lk, lc = gen_atm_lockkey(atm, word)
        assert solve_lockkey(lk, lc) == want, f"machine {i}"
        game, config, _ = lockkey_to_optional(lk, lc)
        root = (config.vertex, sum(1 << j for j in config.p1_pawns), 0)
        try:
            sg, ids = _expand(game, [root], budget=100_000 * (game.d // 64 + 1),
                              faithful=False)
        except BudgetExceededError:
            stopped.add(i)
            continue
        in_region, _ = attract(sg.succ, sg.side, sg.target)
        assert (1 if in_region[ids[0]] else 2) == want, f"machine {i}"
        decided.add(i)
    assert len(stopped) == 15
    assert STUCK_OPPONENT_ATMS <= decided


def test_padding_arithmetic_on_a_three_pawn_game():
    from pawngames import Mechanism, PawnGame

    small = PawnGame(
        n=3,
        edges=frozenset({(0, 1), (1, 2), (2, 2)}),
        targets=frozenset({2}),
        d=3,
        owners=(frozenset({0}), frozenset({1}), frozenset({2})),
        mechanism=Mechanism.optional(),
    )
    padded, pconfig = to_always_grabbing(small, Configuration(0, frozenset()))
    assert padded.n - small.n == 26
    assert padded.d - small.d == 26
    assert len(pconfig.p1_pawns) == 13


def test_always_grabbing_padding():
    lk = chain_game(locks=[(), {0}], keys=[{0}, ()])
    game, config, _ = lockkey_to_optional(lk, LockConfig(0, frozenset({0})))
    padded, pconfig = to_always_grabbing(game, config)
    extra = 2 * (game.d + 10)
    assert padded.n == game.n + extra
    assert padded.d == game.d + extra
    assert padded.mechanism.rule is GrabRule.ALWAYS
    gained = pconfig.p1_pawns - config.p1_pawns
    assert gained == frozenset(range(game.d, game.d + game.d + 10))

    fresh = set(range(game.n, padded.n))
    for v in fresh:
        assert (v, v) in padded.edges
        assert padded.owners[v] == frozenset({game.d + v - game.n})
    reachable = _forward(padded, pconfig.vertex)
    assert not reachable & fresh
    for v in fresh:
        assert not _forward(padded, v) & padded.targets


def _forward(game, start):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in game.succ[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def test_lockkey_text_roundtrip():
    lk, lc = gen_random_lockkey(n=4, num_locks=2, seed=33)
    text = serialize_lockkey(lk, lc)
    lk2, lc2 = parse_lockkey(text)
    assert serialize_lockkey(lk2, lc2) == text
    assert solve_lockkey(lk, lc) == solve_lockkey(lk2, lc2)


def test_lock_budget_is_enforced():
    # each of the 4 reachable (vertex, closed set) states costs one word
    lk, lc = gen_random_lockkey(n=3, num_locks=2, seed=1)
    assert len(expand_lockkey(lk, lc, budget=4)[2]) == 4
    with pytest.raises(BudgetExceededError) as err:
        expand_lockkey(lk, lc, budget=3)
    assert (err.value.estimate, err.value.budget) == (4, 3)

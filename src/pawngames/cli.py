"""Command-line front end.

Subcommands: ``solve`` (pick a solver and print the winner), ``eta``
(minimum-grab labels), ``reduce`` (emit reduction outputs as text),
``gen`` (instance generators) and ``check`` (oracle cross-validation
suites).  Winners and generated artifacts go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 2 parse/validation/usage error, 3 state
budget exceeded, 1 failed check suite.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .crossval import SUITES, run_suite
from .errors import (
    BudgetExceededError,
    GameFormatError,
    SolverPreconditionError,
    ValidationError,
)
from .gamefile import int_set, parse_game, serialize_game
from .generators import (
    gen_atm_lockkey,
    gen_random_pawngame,
    gen_setcover,
    gen_tqbf,
    parse_atm,
    parse_qbf,
)
from .grab_or_give import reduce_grab_or_give, solve_grab_or_give
from .kgrab_dfs import solve_kgrab_dfs
from .kgrab_ovpp import minimum_grabs, solve_kgrab_ovpp
from .lockkey import (
    lockkey_to_optional,
    parse_lockkey,
    serialize_lockkey,
    to_always_grabbing,
)
from .model import GrabRule, Mechanism, OwnershipKind, classify
from .optional_grabbing import solve_ovpp_optional
from .oracle import DEFAULT_BUDGET, expand_game, solve_exact
from .turnbased import serialize_tbgame


def _read(path: str) -> bytes:
    """File bytes; the parsers decode them, so bad UTF-8 is a format error."""
    with open(path, "rb") as handle:
        return handle.read()


def _specialized(game, config):
    """Run the matching specialized solver; None when there is none.

    Returns the algorithm name, the winner and the exact route's result
    when the solver ran one (only ``kgrab-dfs`` does), else None.
    """
    kind = classify(game)
    rule = game.mechanism.rule
    if rule is GrabRule.OPTIONAL and kind is OwnershipKind.OVPP:
        return "alg1", solve_ovpp_optional(game, config).winner, None
    if (rule is GrabRule.GRAB_OR_GIVE and kind is not OwnershipKind.OMVPP
            and game.d >= 2):
        return "grab-or-give", solve_grab_or_give(game, config), None
    if rule is GrabRule.K_GRABBING and kind is OwnershipKind.OVPP:
        return "eta", solve_kgrab_ovpp(game, config), None
    if rule is GrabRule.K_GRABBING:
        result = solve_kgrab_dfs(game, config)
        return "kgrab-dfs", result.winner, result.exact
    return None


def _print_witness(game, steps) -> None:
    for step in steps:
        if step[0] == "move":
            print(f"move {game.names[step[1]]}")
        elif step[0] in ("grab", "give"):
            print(f"{step[0]} {step[1]}")
        else:
            print(step[0])


def cmd_solve(args) -> int:
    game, config = parse_game(_read(args.file))
    t0 = time.monotonic()
    algo = exact = None
    states = game.n
    route = n = d = None
    witness_steps = None
    # JSON output prints no witness, so it reads none
    witness = args.witness and not args.json

    if args.algo in ("auto", "specialized"):
        solved = _specialized(game, config)
        if solved is not None:
            algo, winner, exact = solved
        elif args.algo == "specialized":
            raise SolverPreconditionError(
                f"no specialized solver for {classify(game).value} "
                f"{game.mechanism.describe()} games; use --algo explicit"
            )
    if algo is None:
        algo = "explicit"
        if args.algo == "auto":
            print("fallback: explicit", file=sys.stderr)
    elif witness and exact is None:
        # the polynomial solvers return bare winners; replay the oracle
        print("witness: explicit oracle replay", file=sys.stderr)
    if exact is None and (algo == "explicit" or witness):
        exact = solve_exact(game, config, budget=args.budget)
        if algo == "explicit":
            winner = exact.winner
    if exact is not None:
        states, route, n, d = exact.states, exact.route, exact.n, exact.d
        if witness:
            witness_steps = exact.witness()

    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if args.json:
        print(json.dumps({
            "winner": winner,
            "algo": algo,
            "stats": {"states": states, "route": route, "n": n, "d": d,
                      "time-ms": elapsed_ms},
        }))
    else:
        print(f"winner: {winner}")
    if witness_steps is not None:
        _print_witness(game, witness_steps)
    return 0


def cmd_eta(args) -> int:
    game, config = parse_game(_read(args.file))
    grabs = minimum_grabs(game, config.p1_pawns)
    for v in sorted(range(game.n), key=lambda v: game.names[v]):
        value = grabs[v]
        text = "inf" if value == float("inf") else str(int(value))
        print(f"eta {game.names[v]} {text}")
    return 0


def cmd_reduce(args) -> int:
    if args.what == "expand":
        game, config = parse_game(_read(args.file))
        expanded = expand_game(game, config, budget=args.budget)
        sys.stdout.write(serialize_tbgame(expanded.tb))
    elif args.what == "grab-or-give":
        game, _ = parse_game(_read(args.file))
        sys.stdout.write(serialize_tbgame(reduce_grab_or_give(game).tb))
    elif args.what == "lockkey-to-optional":
        lk, lc = parse_lockkey(_read(args.file))
        game, config, _ = lockkey_to_optional(lk, lc)
        sys.stdout.write(serialize_game(game, config))
    else:
        game, config = parse_game(_read(args.file))
        # the padding adds 2 * (d + 10) vertices; refuse it before building
        padded_n = game.n + 2 * (game.d + 10)
        if padded_n > args.budget:
            raise BudgetExceededError(padded_n, args.budget)
        padded, pconfig = to_always_grabbing(game, config)
        sys.stdout.write(serialize_game(padded, pconfig))
    return 0


def _parse_sets(text: str) -> list[frozenset[int]]:
    return [int_set("".join(part.split()), "set element", None)
            for part in text.split(";")]


def cmd_gen(args) -> int:
    if args.what == "setcover":
        game, config = gen_setcover(args.universe, _parse_sets(args.sets), args.k)
        sys.stdout.write(serialize_game(game, config))
    elif args.what == "tqbf":
        game, config = gen_tqbf(parse_qbf(args.formula))
        sys.stdout.write(serialize_game(game, config))
    elif args.what == "atm":
        atm = parse_atm(_read(args.machine))
        lk, lc = gen_atm_lockkey(atm, args.word)
        sys.stdout.write(serialize_lockkey(lk, lc))
    else:
        kind = OwnershipKind(args.kind)
        if args.mechanism == "k-grabbing":
            mech = Mechanism.k_grabbing(args.k)
        else:
            mech = Mechanism(GrabRule(args.mechanism))
        game, config = gen_random_pawngame(
            args.vertices, args.pawns, kind, mech, args.seed
        )
        sys.stdout.write(serialize_game(game, config))
    return 0


def cmd_check(args) -> int:
    failures = run_suite(args.suite, args.seed, args.count)
    if failures:
        print(f"suite {args.suite}: {len(failures)} mismatch(es)",
              file=sys.stderr)
        print(failures[0])
        return 1
    print(f"suite {args.suite}: pass ({args.count} instances, seed {args.seed})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: nothing mutates it, and each
    ``parse_args`` call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="pawngames",
        description="solve, reduce and generate grabbing-mechanism games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide the winner of a game file")
    p_solve.add_argument("file")
    p_solve.add_argument("--algo", choices=("auto", "explicit", "specialized"),
                         default="auto")
    p_solve.add_argument("--witness", action="store_true",
                         help="print a witness play")
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=(
        "64-bit words the exact route may build, not counting the witness "
        "log; a larger budget decides larger games (default %(default)s)"))
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_eta = sub.add_parser("eta", help="minimum-grab labels of an OVPP "
                                       "k-grabbing game")
    p_eta.add_argument("file")
    p_eta.set_defaults(func=cmd_eta)

    p_reduce = sub.add_parser("reduce", help="emit a reduction output")
    p_reduce.add_argument("what", choices=(
        "expand", "grab-or-give", "lockkey-to-optional", "optional-to-always"
    ))
    p_reduce.add_argument("file")
    p_reduce.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=(
        "64-bit words of expand, vertices of optional-to-always"))
    p_reduce.set_defaults(func=cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a game instance")
    gen_sub = p_gen.add_subparsers(dest="what", required=True)
    g_cover = gen_sub.add_parser("setcover")
    g_cover.add_argument("--universe", type=int, required=True)
    g_cover.add_argument("--sets", required=True,
                         help="semicolon-separated comma lists, e.g. '1;1,2;2,3'")
    g_cover.add_argument("--k", type=int, required=True)
    g_cover.set_defaults(func=cmd_gen)
    g_tqbf = gen_sub.add_parser("tqbf")
    g_tqbf.add_argument("--formula", required=True,
                        help="e.g. 'Ex1.Ax2.(x1|~x2)&(x2)'")
    g_tqbf.set_defaults(func=cmd_gen)
    g_atm = gen_sub.add_parser("atm")
    g_atm.add_argument("--machine", required=True)
    g_atm.add_argument("--word", required=True)
    g_atm.set_defaults(func=cmd_gen)
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("--vertices", type=int, required=True)
    g_rand.add_argument("--pawns", type=int, required=True)
    g_rand.add_argument("--kind", choices=("ovpp", "mvpp", "omvpp"),
                        required=True)
    g_rand.add_argument("--mechanism", required=True, choices=(
        "optional-grabbing", "always-grabbing", "grab-or-give", "k-grabbing"
    ))
    g_rand.add_argument("--k", type=int, default=0)
    g_rand.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="run an oracle-equivalence suite")
    p_check.add_argument("--suite", choices=SUITES, required=True)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--count", type=int, default=100)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (GameFormatError, ValidationError, SolverPreconditionError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: dispatch, exit codes, formats, generators."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pawngames
from pawngames import oracle
from pawngames.cli import main
from pawngames.crossval import check_play
from pawngames.gamefile import parse_game, serialize_game
from pawngames.generators import (
    gen_atm_lockkey,
    gen_random_atm,
    gen_random_pawngame,
    serialize_atm,
)
from pawngames.lockkey import lockkey_to_optional, parse_lockkey
from pawngames.model import GrabRule, Mechanism, OwnershipKind
from pawngames.turnbased import parse_tbgame

DATA = Path(__file__).parent / "data"
G1 = str(DATA / "g1.pawngame")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed_steps(game, lines):
    """The steps of a printed witness, in ``check_play``'s form."""
    steps = []
    for line in lines:
        kind, *arg = line.split()
        if kind == "move":
            steps.append(("move", game.names.index(arg[0])))
        else:
            steps.append((kind, *map(int, arg)))
    return steps


def setcover_file(capsys, tmp_path):
    """The Figure 5 set-cover game with two grabs, as a file."""
    code, out, _ = run(capsys, "gen", "setcover", "--universe", "3",
                       "--sets", "1;1,2;2,3", "--k", "2")
    assert code == 0
    path = tmp_path / "cover.pawngame"
    path.write_text(out)
    return path


def test_solve_prints_winner(capsys):
    code, out, _ = run(capsys, "solve", G1)
    assert code == 0
    assert out.strip() == "winner: 1"


def test_solve_json_envelope(capsys):
    code, out, _ = run(capsys, "solve", G1, "--algo", "explicit", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["winner"] == 1
    assert payload["algo"] == "explicit"
    assert payload["stats"]["states"] > 0
    assert "time-ms" in payload["stats"]


def atm51_file(tmp_path):
    """Compiled ATM machine 51 in optional-grabbing form, as a file: its
    start's cone keeps 27 vertices and 23 pawns, too many to sweep."""
    atm, word = gen_random_atm(1 + 51 % 3, seed=51)
    game, config, _ = lockkey_to_optional(*gen_atm_lockkey(atm, word))
    path = tmp_path / "atm51.pawngame"
    path.write_text(serialize_game(game, config))
    return path


def test_solve_json_names_the_exact_route_and_its_work(capsys, tmp_path):
    # the start's cone keeps 15 of 16 vertices and 13 of 16 pawns, and its
    # sweep fits the budget: states count its n * 2^d configurations
    code, out, _ = run(capsys, "solve", str(DATA / "heavy_tb7_90.pawngame"),
                       "--algo", "explicit", "--json")
    payload = json.loads(out)
    assert (code, payload["winner"]) == (0, 2)
    stats = payload["stats"]
    assert (stats["route"], stats["n"], stats["d"]) == ("sweep", 15, 13)
    assert stats["states"] == 15 << 13
    # 23 pawns in the cone put the sweep past the budget; the lazy slice
    # within the cone is small
    code, out, _ = run(capsys, "solve", str(atm51_file(tmp_path)),
                       "--algo", "explicit", "--json")
    payload = json.loads(out)
    assert (code, payload["winner"]) == (0, 1)
    stats = payload["stats"]
    assert (stats["route"], stats["states"], stats["n"], stats["d"]) == (
        "lazy", 784, 27, 23)
    # a polynomial solver runs no exact route
    code, out, _ = run(capsys, "solve", G1, "--json")
    payload = json.loads(out)
    stats = payload["stats"]
    assert (payload["algo"], stats["route"], stats["n"], stats["d"]) == (
        "alg1", None, None, None)


def test_json_witness_reads_no_witness(capsys, monkeypatch, tmp_path):
    def no_play(*_):
        raise AssertionError("a JSON answer walked a witness")

    monkeypatch.setattr(oracle, "_play", no_play)
    # JSON prints no witness, so a polynomial answer replays no exact route
    code, out, err = run(capsys, "solve", G1, "--json", "--witness")
    payload = json.loads(out)
    assert (code, payload["algo"], payload["stats"]["route"]) == (
        0, "alg1", None)
    assert payload["stats"]["states"] == 4
    assert "replay" not in err
    code, out, _ = run(capsys, "solve", G1, "--algo", "explicit", "--json",
                       "--witness")
    payload = json.loads(out)
    assert (code, payload["winner"], payload["stats"]["route"]) == (
        0, 1, "sweep")
    # kgrab-dfs runs the exact route, whose witness is a walk too, and
    # JSON reads none
    code, out, err = run(capsys, "solve", str(setcover_file(capsys, tmp_path)),
                         "--json", "--witness")
    payload = json.loads(out)
    assert (code, payload["winner"], payload["algo"]) == (0, 1, "kgrab-dfs")
    assert "replay" not in err


def test_swept_witness_is_printed_and_refereed(capsys):
    path = DATA / "heavy_tb7_90.pawngame"
    code, out, _ = run(capsys, "solve", str(path), "--algo", "explicit",
                       "--witness")
    lines = out.strip().splitlines()
    assert (code, lines[0], lines[-1]) == (0, "winner: 2", "cycle")
    game, config = parse_game(path.read_bytes())
    steps = printed_steps(game, lines[1:-1])
    assert check_play(game, config, steps + [("cycle",)], 2) is None


def test_solve_witness_replay(capsys):
    code, out, _ = run(capsys, "solve", str(DATA / "g2_body.pawngame"),
                       "--algo", "explicit", "--witness")
    lines = out.strip().splitlines()
    assert lines[0] == "winner: 1"
    moves = [l.split()[1] for l in lines[1:] if l.startswith("move")]
    assert moves.count("v1") >= 2 and moves[-1] == "t"


def test_one_process_serves_many_calls(capsys):
    # main builds its parser once per process; each call in this sequence,
    # a budget refusal and a usage error among them, prints what the same
    # call prints from a fresh process
    heavy = str(DATA / "heavy_tb7_90.pawngame")
    calls = [
        (["solve", heavy, "--algo", "explicit", "--budget", "1000"], 3),
        (["solve", heavy, "--algo", "explicit"], 0),
        (["solve", heavy, "--json"], 0),
        (["solve", str(DATA / "g2_body.pawngame"), "--algo", "explicit",
          "--witness"], 0),
        (["solve", G1, "--algo", "fastest"], 2),
        (["solve", G1, "--witness"], 0),
        (["check", "--suite", "alg1", "--count", "3"], 0),
        (["gen", "random", "--seed", "5", "--vertices", "6", "--pawns", "4",
          "--kind", "mvpp", "--mechanism", "k-grabbing", "--k", "1"], 0),
    ]
    env = {**os.environ,
           "PYTHONPATH": str(Path(pawngames.__file__).parent.parent)}

    def timeless(text):
        return re.sub(r'"time-ms": \d+', '"time-ms": 0', text)

    for argv, expected in calls:
        try:
            code = main(argv)
        except SystemExit as err:
            code = err.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "pawngames", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, timeless(captured.out), captured.err) == (
            fresh.returncode, timeless(fresh.stdout), fresh.stderr), argv
        assert code == expected, argv


def test_specialized_dispatch_missing_class_is_an_error(capsys, tmp_path):
    game, config = gen_random_pawngame(
        4, 2, OwnershipKind.MVPP, Mechanism.optional(), 3
    )
    path = tmp_path / "m.pawngame"
    path.write_text(serialize_game(game, config))
    code, _, err = run(capsys, "solve", str(path), "--algo", "specialized")
    assert code == 2
    assert "no specialized solver" in err


def test_auto_matches_explicit_on_dispatchable_games(capsys, tmp_path):
    rng = random.Random(55)
    agreements = 0
    for i in range(200):
        pick = rng.randrange(3)
        if pick == 0:
            n = rng.randint(2, 5)
            game, config = gen_random_pawngame(
                n, n, OwnershipKind.OVPP, Mechanism.optional(), 900 + i
            )
        elif pick == 1:
            n = rng.randint(3, 5)
            game, config = gen_random_pawngame(
                n, rng.randint(2, n - 1), OwnershipKind.MVPP,
                Mechanism.grab_or_give(), 900 + i
            )
        else:
            n = rng.randint(2, 5)
            game, config = gen_random_pawngame(
                n, n, OwnershipKind.OVPP, Mechanism.k_grabbing(rng.randint(0, 2)),
                900 + i
            )
        path = tmp_path / "g.pawngame"
        path.write_text(serialize_game(game, config))
        code_a, out_a, _ = run(capsys, "solve", str(path), "--algo", "auto")
        code_e, out_e, _ = run(capsys, "solve", str(path), "--algo", "explicit")
        assert code_a == code_e == 0
        assert out_a == out_e, serialize_game(game, config)
        agreements += 1
    assert agreements == 200


def test_auto_reports_explicit_fallback(capsys, tmp_path):
    game, config = gen_random_pawngame(
        4, 2, OwnershipKind.MVPP, Mechanism.optional(), 4
    )
    path = tmp_path / "m.pawngame"
    path.write_text(serialize_game(game, config))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 0
    assert "fallback: explicit" in err
    assert out.startswith("winner:")


def test_eta_lists_vertices_in_name_order(capsys, tmp_path):
    text = """
pawngame chain
mechanism k-grabbing 2
pawns 4
vertex w owners=0
vertex u owners=1
vertex t owners=2 target
vertex s owners=3
edge w u
edge u t
edge u s
edge t t
edge s s
init vertex=w p1pawns=
"""
    path = tmp_path / "chain.pawngame"
    path.write_text(text)
    code, out, _ = run(capsys, "eta", str(path))
    assert code == 0
    assert out.splitlines() == ["eta s inf", "eta t 0", "eta u inf", "eta w 1"]


def test_reduce_expand_emits_canonical_tbgame(capsys):
    code, out, _ = run(capsys, "reduce", "expand", G1)
    assert code == 0
    tb = parse_tbgame(out)
    assert tb.targets
    code2, out2, _ = run(capsys, "reduce", "expand", G1)
    assert out2 == out


def test_reduce_grab_or_give_emits_tbgame(capsys, tmp_path):
    game, config = gen_random_pawngame(
        4, 2, OwnershipKind.MVPP, Mechanism.grab_or_give(), 5
    )
    path = tmp_path / "g.pawngame"
    path.write_text(serialize_game(game, config))
    code, out, _ = run(capsys, "reduce", "grab-or-give", str(path))
    assert code == 0
    assert parse_tbgame(out).n == 4 * game.n


def test_reduce_lockkey_and_always_pipeline(capsys, tmp_path):
    lk_text = """
lockkeygame demo
locks 1
vertex a player=1
vertex b player=1
vertex t player=2 target
edge a b keys=0
edge b t locks=0
edge t t
init vertex=a closed=0
"""
    path = tmp_path / "demo.lockkey"
    path.write_text(lk_text)
    parse_lockkey(lk_text)
    code, out, _ = run(capsys, "reduce", "lockkey-to-optional", str(path))
    assert code == 0
    game, config = parse_game(out)
    assert game.mechanism.rule is GrabRule.OPTIONAL

    optional_path = tmp_path / "opt.pawngame"
    optional_path.write_text(out)
    code2, out2, _ = run(capsys, "reduce", "optional-to-always",
                         str(optional_path))
    assert code2 == 0
    padded, _ = parse_game(out2)
    assert padded.mechanism.rule is GrabRule.ALWAYS
    assert padded.n == game.n + 2 * (game.d + 10)


def test_gen_setcover_roundtrip(capsys):
    code, out, _ = run(capsys, "gen", "setcover", "--universe", "3",
                       "--sets", "1;1,2;2,3", "--k", "2")
    assert code == 0
    game, config = parse_game(out)
    assert game.mechanism == Mechanism.k_grabbing(2)
    assert config.grabs_left == 2


def test_gen_tqbf_and_random(capsys):
    code, out, _ = run(capsys, "gen", "tqbf", "--formula",
                       "Ex1.Ax2.(x1|~x2)&(x2)")
    assert code == 0
    parse_game(out)
    code2, out2, _ = run(capsys, "gen", "random", "--seed", "3", "--vertices",
                         "5", "--pawns", "5", "--kind", "ovpp",
                         "--mechanism", "optional-grabbing")
    assert code2 == 0
    parse_game(out2)


def test_gen_atm_emits_lockkey_text(capsys, tmp_path):
    from pawngames.generators import AtmSpec

    atm = AtmSpec(
        states=("q0", "qA", "qR"),
        owner={"q0": 1, "qA": 1, "qR": 2},
        alphabet=("a", "b"),
        accept="qA",
        reject="qR",
        cells=2,
        trans={("q0", "a"): (("qA", "a", "R"),)},
    )
    path = tmp_path / "m.atm"
    path.write_text(serialize_atm(atm))
    code, out, _ = run(capsys, "gen", "atm", "--machine", str(path),
                       "--word", "aa")
    assert code == 0
    lk, lc = parse_lockkey(out)
    assert lk.num_locks == 4


def test_check_suite_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "alg1", "--count", "5")
    assert code == 0
    assert "pass" in out


def test_check_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "--suite", "nonsense"])
    assert err.value.code == 2


def test_search_witness_lines(capsys, tmp_path):
    path = setcover_file(capsys, tmp_path)
    code, out, err = run(capsys, "solve", str(path), "--witness")
    lines = out.strip().splitlines()
    assert (code, lines[0]) == (0, "winner: 1")
    assert "replay" not in err
    kinds = {line.split()[0] for line in lines[1:]}
    assert kinds <= {"move", "grab", "nograb"}
    assert "move" in kinds and "grab" in kinds
    game, config = parse_game(path.read_bytes())
    assert check_play(game, config, printed_steps(game, lines[1:]), 1) is None


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.pawngame"
    path.write_text("pawngame x\nbogus\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "error:" in err


def test_budget_exceeded_exits_3(capsys):
    # the sweep's 16 * 2^16 / 64 table words and the lazy slice are both
    # past the budget; the message names the lazy route's words, one per
    # state at d = 16
    code, _, err = run(capsys, "solve", str(DATA / "heavy_tb7_90.pawngame"),
                       "--algo", "explicit", "--budget", "1000")
    assert code == 3
    size = re.fullmatch(r"error: size (\d+) exceeds budget 1000\n", err)
    assert size and int(size[1]) > 1000, err


HUGE = ("pawngame huge\nmechanism optional-grabbing\npawns 100000000\n"
        "vertex v owners=0 target\nedge v v\ninit vertex=v p1pawns=\n")


@pytest.mark.parametrize("argv", [["solve"], ["solve", "--algo", "explicit"]])
def test_target_start_answers_whatever_the_pawn_count(capsys, tmp_path, argv):
    # the start is a target, so its cone keeps no vertex and no pawn, and
    # nothing of size 2**d is built
    path = tmp_path / "huge.pawngame"
    path.write_text(HUGE)
    t0 = time.monotonic()
    code, out, _ = run(capsys, *argv, str(path))
    assert (code, out) == (0, "winner: 1\n")
    assert time.monotonic() - t0 < 1


# under always grabbing a cone keeps every pawn, so from a start that is not
# a target the exact route still faces all 100000000 of them
HUGE_ALWAYS = ("pawngame huge\nmechanism always-grabbing\npawns 100000000\n"
               "vertex v owners=0\nvertex t owners=0 target\nedge v t\n"
               "edge v v\nedge t t\ninit vertex=v p1pawns=\n")


@pytest.mark.parametrize("argv", [["solve"], ["solve", "--algo", "explicit"],
                                  ["reduce", "expand"],
                                  ["reduce", "optional-to-always"]])
def test_huge_pawn_count_exits_3(capsys, tmp_path, argv):
    # 2**d for this d has too many digits to print; the exact route and the
    # faithful expansion must not build it, and neither must the 2 * (d + 10)
    # vertices that pad it for always grabbing
    path = tmp_path / "huge.pawngame"
    path.write_text(HUGE_ALWAYS if argv[0] == "solve" else HUGE)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    last = err.splitlines()[-1]
    size = ("200000021" if "optional-to-always" in argv
            else "at least 2^100000000")
    assert last.startswith("error: ") and f" {size} " in last


HUGE_FROM_V = ("pawngame huge\nmechanism {}\npawns 100000000\n"
               "vertex v owners=0\nvertex t owners=0 target\nedge v {}\n"
               "edge v v\nedge t t\ninit vertex=v p1pawns={}\n")


@pytest.mark.parametrize("mechanism, edge, init, argv, says", [
    ("optional-grabbing", "t", "", ["solve", "--witness"],
     "winner: 1\nmove v\ngrab 0\nmove t\nnograb\n"),
    ("optional-grabbing", "t", "", ["solve", "--algo", "explicit",
                                    "--witness"],
     "winner: 1\nmove v\ngrab 0\nmove t\nnograb\n"),
    ("k-grabbing 2", "t", " grabs-left=2", ["solve", "--algo", "explicit",
                                           "--witness"],
     "winner: 1\nmove v\ngrab 0\nmove t\ngrab 1\n"),
    # a hopeless start: under always grabbing its cone keeps every pawn
    ("always-grabbing", "v", "", ["solve", "--algo", "explicit",
                                  "--witness"], None),
])
def test_huge_witness_reads_only_the_cone_pawns(capsys, tmp_path, mechanism,
                                                edge, init, argv, says):
    # the cone of v keeps pawn 0 alone, so each exchange of the witness
    # offers pawn 0 and the lowest of the 99999999 dead pawns, which all
    # lead to the same configuration of the cone
    path = tmp_path / "huge.pawngame"
    path.write_text(HUGE_FROM_V.format(mechanism, edge, init))
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv, str(path))
    assert time.monotonic() - t0 < 1
    if says is None:
        assert (code, out) == (3, "")
        assert " at least 2^100000000 " in err
    else:
        assert (code, out) == (0, says)


@pytest.mark.parametrize("argv, says", [
    (["solve"], "winner: 1\n"),
    (["solve", "--witness"], "winner: 1\nmove v\ngrab 0\nmove t\ngrab 1\n"),
    (["solve", "--json"], None),
], ids=["solve", "solve-witness", "solve-json"])
def test_search_grabs_only_owners_whatever_the_pawn_count(capsys, tmp_path,
                                                          argv, says):
    # kgrab-dfs sweeps the cone of v, which keeps pawn 0 alone, and its
    # witness offers pawn 0 and the lowest dead pawn, so none of its
    # options lists the 100000000 pawns
    path = tmp_path / "huge.pawngame"
    path.write_text(HUGE_FROM_V.format("k-grabbing 2", "t", " grabs-left=2"))
    t0 = time.monotonic()
    code, out, _ = run(capsys, *argv, str(path))
    assert time.monotonic() - t0 < 1
    if says is None:
        assert (code, json.loads(out)["winner"], json.loads(out)["algo"]) == (
            0, 1, "kgrab-dfs")
    else:
        assert (code, out) == (0, says)


def chain_file(tmp_path):
    """A 1,200-vertex many-vertex-per-pawn k-grabbing chain with 6 pawns
    and k = 1, as a file: Player 1 holds the owners of the escapes c0 and
    c2, and grabs the owner of c3 on the way."""
    n = 1200
    lines = ["pawngame dfschain", "mechanism k-grabbing 1", "pawns 6"]
    lines += [f"vertex c{i} owners={i % 6}" for i in range(n)]
    lines += ["vertex t owners=0 target", "vertex s owners=1"]
    lines += [f"edge c{i} " + (f"c{i + 1}" if i + 1 < n else "t")
              for i in range(n)]
    lines += [f"edge c{i} s" for i in (0, 2, 3)]
    lines += ["edge t t", "edge s s",
              "init vertex=c0 p1pawns=0,2 grabs-left=1"]
    path = tmp_path / "chain.pawngame"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_long_kgrab_chain_answers(capsys, tmp_path):
    # a search that recursed once per round raised RecursionError here
    code, out, _ = run(capsys, "solve", str(chain_file(tmp_path)))
    assert (code, out) == (0, "winner: 1\n")


def test_kgrab_json_reports_the_exact_route(capsys, tmp_path):
    # kgrab-dfs answers by the exact route, so its stats are the route's
    path = setcover_file(capsys, tmp_path)
    code, out, _ = run(capsys, "solve", str(path), "--json")
    payload = json.loads(out)
    assert (code, payload["winner"], payload["algo"]) == (0, 1, "kgrab-dfs")
    code, out, _ = run(capsys, "solve", str(path), "--algo", "explicit",
                       "--json")
    explicit = json.loads(out)["stats"]
    del explicit["time-ms"], payload["stats"]["time-ms"]
    assert payload["stats"] == explicit
    # the cone keeps 8 interior vertices, the merged target, the sink and
    # all 4 pawns, swept at 3 grab budgets
    assert (explicit["route"], explicit["states"], explicit["n"],
            explicit["d"]) == ("sweep", 10 * 2**4 * 3, 10, 4)


@pytest.mark.parametrize("k", [250, 10**6])
def test_search_answers_at_any_grab_budget(capsys, tmp_path, k):
    # each grab takes a pawn that Player 1 lacks, so from no pawn of 3 at
    # most 3 grabs of k are used; a search once recursed n * (k + 1) deep
    path = tmp_path / "four.pawngame"
    path.write_text(
        f"pawngame four\nmechanism k-grabbing {k}\npawns 3\n"
        "vertex a owners=0\nvertex b owners=1\nvertex s owners=2\n"
        "vertex t owners=2 target\nedge a b\nedge a s\nedge b t\n"
        "edge b s\nedge s s\nedge t t\n"
        f"init vertex=a p1pawns= grabs-left={k}\n")
    code, out, err = run(capsys, "solve", str(path), "--json")
    assert (code, json.loads(out)["winner"], json.loads(out)["algo"]) == (
        0, 2, "kgrab-dfs")
    code, out, err = run(capsys, "solve", str(path), "--algo", "explicit")
    assert (code, out) == (0, "winner: 2\n")


@pytest.mark.parametrize("argv", [["solve", "--algo", "explicit"],
                                  ["reduce", "expand"]])
def test_wide_exchange_stops_at_the_budget(capsys, tmp_path, argv):
    # every exchange at s offers a grab of any of 100,000 pawns; each lazy
    # state is charged its mask's 1,563 words as it is added, so the
    # expansion stops within one state of the budget
    d = 100_000
    path = tmp_path / "wide.pawngame"
    path.write_text(f"pawngame wide\nmechanism optional-grabbing\npawns {d}\n"
                    f"vertex s owners={','.join(map(str, range(d)))}\n"
                    "vertex t owners=0 target\nedge s s\nedge s t\nedge t t\n"
                    "init vertex=s p1pawns=\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    size = re.fullmatch(r"error: size (\d+) exceeds budget 1000000\n", err)
    assert size and 1_000_000 < int(size[1]) <= 1_000_000 + d // 64 + 1, err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent.pawngame")
    assert code == 2


MACHINE = ("atm\nstates q0:E qA:E qR:A\nalphabet a\naccept qA\nreject qR\n"
           "cells 1\n")


@pytest.mark.parametrize("argv, machine, says", [
    (["gen", "tqbf", "--formula", "E"], None, "expected variable after E"),
    (["gen", "setcover", "--universe", "3", "--sets", "1;a", "--k", "1"], None,
     "set element"),
    (["gen", "setcover", "--universe", "0", "--sets", "", "--k", "0"], None,
     "universe"),
    (["gen", "atm", "--word", "a"], MACHINE.replace("accept qA", "accept"),
     "line 4: accept"),
    (["gen", "atm", "--word", "a"], MACHINE.replace("cells 1", "cells two"),
     "line 6: cell count"),
    (["gen", "atm", "--word", ""], MACHINE.replace("cells 1", "cells 0"),
     "at least one cell"),
], ids=["tqbf-no-variable", "setcover-bad-element", "setcover-empty-universe",
        "atm-bare-accept", "atm-word-cells", "atm-zero-cells"])
def test_malformed_generator_input_exits_2(capsys, tmp_path, argv, machine,
                                           says):
    if machine is not None:
        path = tmp_path / "m.atm"
        path.write_text(machine)
        argv = argv + ["--machine", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and says in err

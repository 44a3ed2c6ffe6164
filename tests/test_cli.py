"""Command-line interface: dispatch, exit codes, formats, generators."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pawngames
from pawngames import oracle
from pawngames.cli import main
from pawngames.crossval import check_play
from pawngames.gamefile import parse_game, serialize_game
from pawngames.generators import gen_random_pawngame, serialize_atm
from pawngames.lockkey import parse_lockkey
from pawngames.model import GrabRule, Mechanism, OwnershipKind
from pawngames.turnbased import parse_tbgame

DATA = Path(__file__).parent / "data"
G1 = str(DATA / "g1.pawngame")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_solve_json_names_the_exact_route_and_its_work(capsys):
    # the sweep fits the budget: states count its n * 2^d configurations
    code, out, _ = run(capsys, "solve", str(DATA / "heavy_tb7_90.pawngame"),
                       "--algo", "explicit", "--json")
    payload = json.loads(out)
    assert (code, payload["winner"]) == (0, 2)
    assert payload["stats"]["route"] == "sweep"
    assert payload["stats"]["states"] == 16 << 16
    # 30 pawns put the sweep past the budget; the lazy slice within two
    # grabs of the start is small
    code, out, _ = run(capsys, "solve", str(DATA / "kgrab_omvpp_30.pawngame"),
                       "--algo", "explicit", "--json")
    payload = json.loads(out)
    assert (code, payload["winner"]) == (0, 1)
    assert (payload["stats"]["route"], payload["stats"]["states"]) == (
        "lazy", 116)
    # a polynomial solver runs no exact route
    code, out, _ = run(capsys, "solve", G1, "--json")
    payload = json.loads(out)
    assert (payload["algo"], payload["stats"]["route"]) == ("alg1", None)


def test_json_witness_reads_no_witness(capsys, monkeypatch):
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


def test_swept_witness_is_printed_and_refereed(capsys):
    path = DATA / "heavy_tb7_90.pawngame"
    code, out, _ = run(capsys, "solve", str(path), "--algo", "explicit",
                       "--witness")
    lines = out.strip().splitlines()
    assert (code, lines[0], lines[-1]) == (0, "winner: 2", "cycle")
    game, config = parse_game(path.read_bytes())
    steps = []
    for line in lines[1:-1]:
        kind, *arg = line.split()
        if kind == "move":
            steps.append(("move", game.names.index(arg[0])))
        else:
            steps.append((kind, *map(int, arg)))
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
    code, out, _ = run(capsys, "gen", "setcover", "--universe", "3",
                       "--sets", "1;1,2;2,3", "--k", "2")
    path = tmp_path / "cover.pawngame"
    path.write_text(out)
    code, out, _ = run(capsys, "solve", str(path), "--witness")
    lines = out.strip().splitlines()
    assert lines[0] == "winner: 1"
    kinds = {line.split()[0] for line in lines[1:]}
    assert kinds <= {"move", "grab", "nograb"}
    assert "move" in kinds and "grab" in kinds


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


@pytest.mark.parametrize("argv", [["solve"], ["solve", "--algo", "explicit"],
                                  ["reduce", "expand"],
                                  ["reduce", "optional-to-always"]])
def test_huge_pawn_count_exits_3(capsys, tmp_path, argv):
    # 2**d for this d has too many digits to print; it must not be built,
    # and neither must the 2 * (d + 10) vertices that pad it for always
    # grabbing
    path = tmp_path / "huge.pawngame"
    path.write_text("pawngame huge\nmechanism optional-grabbing\n"
                    "pawns 100000000\nvertex v owners=0 target\nedge v v\n"
                    "init vertex=v p1pawns=\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    last = err.splitlines()[-1]
    size = ("200000021" if "optional-to-always" in argv
            else "at least 2^100000000")
    assert last.startswith("error: ") and f" {size} " in last


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

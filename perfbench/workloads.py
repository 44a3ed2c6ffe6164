"""The three workloads: their jobs, ledger probes and independent verdicts.

A job is one public call that returns a verdict.  ``call`` is the timed
part; ``verdict`` turns its raw output into a comparable value and
``expect`` computes the same value by an independent route.  Both run
outside the timed window.  Game files are written during set-up and read
inside the timed call, as a user of ``pawngames solve`` would.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from pawngames import (
    AllConfigurations,
    Configuration,
    Mechanism,
    OwnershipKind,
    cli,
    serialize_game,
    solve_explicit,
    solve_grab_or_give,
    solve_turnbased,
)
from pawngames.crossval import SUITES, run_suite
from pawngames.generators import (
    atm_accepts_bruteforce,
    gen_atm_lockkey,
    gen_random_atm,
    gen_random_pawngame,
    gen_tqbf,
    qbf_eval,
    set_cover_exists,
)
from pawngames.lockkey import lockkey_to_optional, to_always_grabbing

import families as fam


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    verdict: Callable[[Any], Any]
    expect: Callable[[], Any]
    # a CLI job returns (exit code, stdout); a non-zero code is a failure
    cli: bool = True


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def json_verdict(raw) -> tuple[int, str]:
    reply = json.loads(raw[1])
    return reply["winner"], reply["algo"]


def witness_verdict(targets: frozenset[str]):
    """(winner, whether the printed witness play ends the way it should)."""
    def verdict(raw) -> tuple[int, bool]:
        lines = raw[1].splitlines()
        winner = int(lines[0].removeprefix("winner: "))
        moves = [line.split()[1] for line in lines if line.startswith("move ")]
        if winner == 1:
            return winner, not moves or moves[-1] in targets
        return winner, len(lines) == 1 or lines[-1] in ("cycle", "trapped")
    return verdict


class Workload:
    """Set-up writes the game files and builds the jobs of one pass."""

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.rng = random.Random(seed)
        self.deck: list[Job] = []
        self.ledger: list[Job] = []
        self._files = 0

    def write(self, game, config) -> str:
        self._files += 1
        path = self.workdir / f"{self._files:04d}-{game.name}.pawngame"
        path.write_text(serialize_game(game, config), encoding="utf-8")
        return str(path)

    def pass_jobs(self, index: int) -> list[Job]:
        return self.deck

    def solve_job(self, name, game, config, expect, into=None):
        """``solve --json`` with auto dispatch; ``expect`` gives the winner
        and the solver the dispatch must pick."""
        path = self.write(game, config)
        job = Job(name, lambda: run_cli(["solve", path, "--json"]),
                  json_verdict, expect)
        (self.deck if into is None else into).append(job)

    def witness_job(self, name, game, config, expect_winner, *flags,
                    into=None):
        """``solve --witness`` printing the play as text."""
        path = self.write(game, config)
        targets = frozenset(game.names[t] for t in game.targets)
        job = Job(name, lambda: run_cli(["solve", path, "--witness", *flags]),
                  witness_verdict(targets), lambda: (expect_winner(), True))
        (self.deck if into is None else into).append(job)


def _const(value):
    return lambda: value


def _tb_winner(tb, v0: int):
    return lambda: 1 if v0 in solve_turnbased(tb).region else 2


class ExplicitOracle(Workload):
    """``solve --algo explicit --witness`` on games no polynomial solver
    covers, plus one ``AllConfigurations`` sweep."""

    # tb_to_optional(gen_random_turnbased(n, seed), v0) as (n, seed, v0).
    # The sweep, the ROADMAP reproducer (8, 7, 0) at 65k states and HEAVY
    # (84k to 124k states) are the top fifth of a pass and heavier than any
    # seeded job, so solve_ms.p90 falls inside them whatever the seed.
    HEAVY = ((8, 7, 0), (7, 14, 2), (7, 27, 1), (7, 43, 2), (7, 43, 3),
             (7, 88, 2), (7, 90, 2), (7, 60, 6))
    # 915 to 1,699 states, about the median seeded job and two fifths of a
    # pass, so solve_ms.p50 falls among them whatever the seed
    LIGHT = tuple((6, s, v0) for s, v0 in (
        (6, 2), (8, 0), (10, 0), (22, 5), (34, 0), (58, 2), (59, 0),
        (61, 0), (62, 1), (68, 4), (69, 2), (73, 3), (76, 1), (80, 1),
        (83, 1), (86, 3), (90, 4), (105, 2)))
    SWEEP_SAMPLES = 16
    # passes' worth of seeded jobs written at set-up; later passes reuse them
    POOL = 12

    def setup(self) -> None:
        small = self.small
        self._sweep(*((8, 6) if small else (16, 13)))
        for n, s, v0 in (self.HEAVY[:1] if small
                         else self.HEAVY + self.LIGHT):
            self._embedded(n, s, v0, f"tb({n},{s})@{v0}")
        self.pool = [[] for _ in range(1 if small else self.POOL)]
        for jobs in self.pool:
            self._seeded(jobs, 2 if small else 6, 1 if small else 2)
        self._ledger()

    def pass_jobs(self, index: int) -> list[Job]:
        return self.deck + self.pool[index % len(self.pool)]

    def _seeded(self, jobs: list, embedded: int, per_kind: int) -> None:
        """Seeded games whose start is not a target, so each one expands:
        6-vertex turn-based embeddings and 12- to 14-vertex random games
        under each mechanism and shared ownership kind."""
        rng = self.rng
        for _ in range(embedded):
            s = rng.randrange(10**6)
            _, _, tb = fam.embedded_turnbased(6, s, 0)
            v0 = rng.choice(sorted(set(range(6)) - tb.targets))
            self._embedded(6, s, v0, f"tb(6,{s})@{v0}", into=jobs)
        mechanisms = (Mechanism.always(), Mechanism.optional(),
                      Mechanism.grab_or_give())
        for mech in mechanisms:
            for kind in (OwnershipKind.MVPP, OwnershipKind.OMVPP):
                for _ in range(per_kind):
                    n, d = rng.randint(12, 14), rng.randint(6, 8)
                    while True:
                        s = rng.randrange(10**6)
                        game, config = gen_random_pawngame(n, d, kind, mech, s)
                        if config.vertex not in game.targets:
                            break
                    self.witness_job(
                        f"random({n},{d},{kind.value},{mech.describe()},{s})",
                        game, config, self._oracle_winner(game, config),
                        "--algo", "explicit", into=jobs)

    def _sweep(self, n: int, d: int) -> None:
        game, _ = gen_random_pawngame(n, d, OwnershipKind.MVPP,
                                      Mechanism.always(), 5)
        samples = [(self.rng.randrange(n), frozenset(
            j for j in range(d) if self.rng.random() < 0.5))
            for _ in range(self.SWEEP_SAMPLES)]

        def call():
            oracle = AllConfigurations(game)
            return tuple(oracle.winner(v, p) for v, p in samples)

        def expect():
            return tuple(solve_explicit(game, Configuration(v, p)).winner
                         for v, p in samples)

        self.deck.append(Job(f"sweep({n},{d},mvpp,always,5)", call,
                             lambda raw: raw, expect, cli=False))

    def _embedded(self, n: int, s: int, v0: int, name: str, into=None) -> None:
        game, config, tb = fam.embedded_turnbased(n, s, v0)
        self.witness_job(name, game, config, _tb_winner(tb, v0),
                         "--algo", "explicit", into=into)

    @staticmethod
    def _oracle_winner(game, config):
        def expect():
            if (game.mechanism == Mechanism.grab_or_give()
                    and all(len(o) == 1 for o in game.owners)):
                return solve_grab_or_give(game, config)
            return AllConfigurations(game).winner(config.vertex,
                                                  config.p1_pawns)
        return expect

    def _ledger(self) -> None:
        """Games the state-estimate gate refuses at seed (exit 3)."""
        self._embedded(10, 7, 0, "tb(10,7)", into=self.ledger)
        if self.small:
            return
        for n in (9, 10):
            s = self.rng.randrange(10**6)
            self._embedded(n, s, 0, f"tb({n},{s})", into=self.ledger)
        # (3, 5, cells 2) is the solve_lockkey defect recorded in NOTES.md
        machines = [(3, 5)] + [(2, self.rng.randrange(10**6))]
        for states, s in machines:
            atm, word = gen_random_atm(states, seed=s, cells=2)
            accepts = (lambda atm=atm, word=word:
                       1 if atm_accepts_bruteforce(atm, word) else 2)
            lk, lc = gen_atm_lockkey(atm, word)
            game, config, _ = lockkey_to_optional(lk, lc)
            variants = [("optional", game, config),
                        ("always", *to_always_grabbing(game, config))]
            for label, g, c in variants:
                self.witness_job(f"atm({states},{s}).{label}", g, c, accepts,
                                 "--algo", "explicit", into=self.ledger)


class PolyDispatch(Workload):
    """``solve --json`` with auto dispatch on games too large for the
    oracle, plus ``--witness`` on small ones (a second, explicit solve)."""

    def setup(self) -> None:
        rng, small = self.rng, self.small

        def sizes(full, tiny):
            return tiny if small else full

        for length in sizes((500, 1000, 2000, 3000, 50, 100, 150, 200, 250),
                             (30,)):
            g, c, w = fam.optional_chain(rng, length)
            self.solve_job(g.name, g, c, _const((w, "alg1")))
        for n in sizes((500, 1000, 2000), (20,)):
            s, v0 = rng.randrange(10**6), rng.randrange(n)
            g, c, tb = fam.embedded_turnbased(n, s, v0)
            winner = _tb_winner(tb, v0)
            self.solve_job(f"tb({n},{s})@{v0}", g, c,
                           lambda winner=winner: (winner(), "alg1"))
        for length in sizes((300, 600, 1000, 1500, 50, 100, 150, 200),
                             (30,)):
            g, c, w = fam.gog_chain(rng, length, 8)
            self.solve_job(g.name, g, c, _const((w, "grab-or-give")))
        for length in sizes((100, 150, 200, 15, 20, 25, 40), (10,)):
            g, c, w = fam.ovpp_kgrab_chain(rng, length, 1)
            self.solve_job(g.name, g, c, _const((w, "eta")))
        # the search recurses once per round: 800 rounds stay clear of the
        # default recursion limit, 1200 (ledger) do not
        for length in sizes((600, 700, 800, 50, 100, 300, 400, 500),
                             (30,)):
            g, c, w = fam.mvpp_kgrab_chain(rng, length, 6, 1, 0)
            self.solve_job(g.name, g, c, _const((w, "kgrab-dfs")))
        for n, m, k in sizes(((10, 10, 4), (11, 10, 4), (12, 11, 4)),
                             ((4, 4, 2),)):
            self._setcover(n, m, k)
        for nv in sizes((4, 4, 5, 5), (3,)):
            qbf = fam.random_qbf(rng, nv)
            g, c = gen_tqbf(qbf)
            self.solve_job(f"tqbf({nv})", g, c, lambda qbf=qbf: (
                1 if qbf_eval(qbf) else 2, "kgrab-dfs"))
        for i in range(1 if small else 2):
            g, c, w = fam.optional_chain(rng, 8)
            self.witness_job(g.name + ".witness", g, c, _const(w))
            g, c, w = fam.gog_chain(rng, 8, 3)
            self.witness_job(g.name + ".witness", g, c, _const(w))
            g, c, w = fam.ovpp_kgrab_chain(rng, 6, 1)
            self.witness_job(g.name + ".witness", g, c, _const(w))
            g, c, w = fam.mvpp_kgrab_chain(rng, 8, 3, 1, 1)
            self.witness_job(g.name + ".witness", g, c, _const(w))
        self._ledger()

    def _setcover(self, n, m, k, into=None) -> None:
        g, c, sets = fam.random_setcover(self.rng, n, m, k)
        self.solve_job(f"setcover({n},{m},{k})", g, c, lambda: (
            1 if set_cover_exists(n, sets, k) else 2, "kgrab-dfs"), into=into)

    def _ledger(self) -> None:
        """Inputs that raise RecursionError in kgrab-dfs at seed."""
        g, c, w = fam.mvpp_kgrab_chain(self.rng, 30 if self.small else 1200,
                                       6, 1, 0)
        self.solve_job(g.name, g, c, _const((w, "kgrab-dfs")),
                       into=self.ledger)
        if not self.small:
            for n, m, k in ((13, 12, 5), (14, 12, 5)):
                self._setcover(n, m, k, into=self.ledger)


class CrossvalFuzz(Workload):
    """One job is one instance of one cross-validation suite; every pass
    draws fresh instances, one per suite and round."""

    ROUNDS = 50
    # lemma41 draws its turn-based game size from randint(2, 8); at 7 and 8
    # one expansion can take 0.3 M to 1.4 M states and seconds, so a few
    # draws would decide a whole run: those are skipped (explicit-oracle
    # carries the sizes as fixed games)
    LEMMA41_MAX_N = 6

    def setup(self) -> None:
        # warm-up: one fixed instance of every suite, so that first-call
        # costs land in set-up rather than in the first timed jobs
        rng = random.Random("warm-up")
        for name in SUITES:
            run_suite(name, self._draw(rng, name), 1)

    def _draw(self, rng: random.Random, suite: str) -> int:
        s = rng.randrange(10**6)
        while suite == "lemma41" and (
                random.Random(s).randint(2, 8) > self.LEMMA41_MAX_N):
            s = rng.randrange(10**6)
        return s

    def pass_jobs(self, index: int) -> list[Job]:
        rng = random.Random(f"{self.seed}/{index}")
        jobs = []
        for _ in range(1 if self.small else self.ROUNDS):
            for name in SUITES:
                s = self._draw(rng, name)
                jobs.append(Job(f"{name}@{s}",
                                lambda name=name, s=s: run_suite(name, s, 1),
                                len, _const(0), cli=False))
        return jobs


WORKLOADS = {
    "explicit-oracle": ExplicitOracle,
    "poly-dispatch": PolyDispatch,
    "crossval-fuzz": CrossvalFuzz,
}

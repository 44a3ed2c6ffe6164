"""Benchmark of the pawngames solvers, end to end and per layer.

    python3 perfbench/run.py --workload explicit-oracle --seed 1 \
        --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
client runs the workload's jobs one after another (a closed loop, no
extra threads) in whole passes until ``--seconds`` have elapsed.  Every
verdict is checked afterwards against an independent route, then the
ledger probes (inputs that fail at seed) run once each.  The last line of
stdout is one JSON object; ``--trace 1`` reports per-layer metrics
instead of end-to-end ones.  A wrong verdict or a changed exact count
exits 1.  See NOTES.md for the metrics and the ledger.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIB = 1 << 20
# the names in workloads.WORKLOADS, known before the package is importable
WORKLOADS = ("explicit-oracle", "poly-dispatch", "crossval-fuzz")


def execute(job, runs: list) -> None:
    """Run one job and record (job, seconds, outcome class, raw output)."""
    t0 = time.perf_counter()
    try:
        raw = job.call()
        outcome = "verdict"
    except Exception as err:  # every failure is classified, none stops the run
        raw, outcome = None, type(err).__name__
    elapsed = time.perf_counter() - t0
    if outcome == "verdict" and job.cli and raw[0] != 0:
        outcome = f"exit{raw[0]}"
    runs.append((job, elapsed, outcome, raw))


def run_pass(jobs, runs: list, tracer=None, tag=None) -> float:
    """Jobs completed per second over one pass.  Traced spans carry the job
    index, or (tag, index) in the tracemalloc pass."""
    t0 = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index if tag is None else (tag, index)
        execute(job, runs)
    return len(jobs) / (time.perf_counter() - t0)


def run_timed(w, seconds: float, runs: list) -> tuple[int, float]:
    """Whole passes until ``seconds`` have elapsed; (passes, wall time)."""
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(w.pass_jobs(passes), runs)
        passes += 1
    return passes, time.perf_counter() - start


def check(runs: list, flip: bool) -> list[str]:
    """Compare each verdict with its independently computed value."""
    expected: dict[int, object] = {}
    wrong = []
    for job, _, outcome, raw in runs:
        if outcome != "verdict":
            continue
        if id(job) not in expected:
            want = job.expect()
            # the self-test flips one expectation to prove the check bites
            expected[id(job)] = ("flipped", want) if flip else want
            flip = False
        got = job.verdict(raw)
        if got != expected[id(job)]:
            wrong.append(f"{job.name}: got {got}, expected {expected[id(job)]}")
    return wrong


def end_to_end(runs, busy, setup_s, rss_mb) -> dict:
    times = [1000 * elapsed for _, elapsed, _, _ in runs]
    return {
        "solve_ms.p50": (statistics.median(times), "ms"),
        "solve_ms.p90": (statistics.quantiles(times, n=10)[8]
                         if len(times) > 1 else times[0], "ms"),
        "solves_per_s": (len(runs) / busy, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, jobs: int, traced_rate: float, untraced_rate: float):
    """Layer metrics.  Self times cover every span outside the tracemalloc
    pass (set-up, traced pass, checks, ledger) and are given per job of
    the traced pass; counts and rates come from the traced pass and
    memory peaks from the tracemalloc pass."""
    from tracing import (END, JOB, LAYER, LAYERS, NAME, PARENT, PEAK, SOLVERS,
                         START)

    import pawngames.crossval as crossval

    spans, own = tracer.spans, tracer.self_times()
    timed = [i for i, s in enumerate(spans) if not isinstance(s[JOB], tuple)]
    in_pass = [i for i in timed if isinstance(spans[i][JOB], int)]
    in_memory = [i for i, s in enumerate(spans) if isinstance(s[JOB], tuple)]

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    def per_job_ms(select) -> float:
        return 1000 * ratio(sum(own[i] for i in timed if select(spans[i])),
                            jobs)

    def duration(indices) -> float:
        return sum(spans[i][END] - spans[i][START] for i in indices)

    def named(indices, *names) -> list[int]:
        return [i for i in indices if spans[i][NAME] in names]

    def root(i: int) -> int:
        while spans[i][PARENT] is not None:
            i = spans[i][PARENT]
        return i

    def oracle_tops(indices) -> list[int]:
        return [i for i in named(indices, "oracle.solve_explicit",
                                 "oracle.AllConfigurations")
                if spans[i][PARENT] is None
                or spans[spans[i][PARENT]][LAYER] != "oracle"]

    m = {}
    for layer in LAYERS:
        if layer != "cli":  # reported as cli.overhead_ms below
            m[f"{layer}.self_ms"] = (
                per_job_ms(lambda s: s[LAYER] == layer), "ms")
    for suite in crossval.SUITES:
        m[f"crossval.{suite}.self_ms"] = (
            per_job_ms(lambda s: s[NAME] == f"crossval.{suite}"), "ms")
    counts = exact_counts(tracer, in_pass)
    states = sum(c[0] for c in counts.values())
    nodes = sum(c[1] for c in counts.values())
    m["oracle.states"] = (states, "count")
    m["oracle.states_per_s"] = (ratio(states, duration(oracle_tops(in_pass))),
                                "1/s")
    m["oracle.bytes_per_state"] = (ratio(
        sum(spans[i][PEAK] for i in oracle_tops(in_memory)), states), "B")
    witness = named(in_pass, "oracle.witness_play")
    m["oracle.witness_ms"] = (1000 * ratio(duration(witness), len(witness)),
                              "ms")
    for layer in ("turnbased", "kgrab_ovpp", "optional_grabbing"):
        m[f"{layer}.peak_mb"] = (max(
            [spans[i][PEAK] for i in in_memory if spans[i][LAYER] == layer],
            default=0) / MIB, "MB")
    m["optional_grabbing.rounds"] = (sum(c[2] for c in counts.values()),
                                     "count")
    m["kgrab_dfs.nodes"] = (nodes, "count")
    m["kgrab_dfs.nodes_per_s"] = (ratio(nodes, duration(named(
        in_pass, "kgrab_dfs.solve_kgrab_dfs"))), "1/s")
    cli_calls = named(in_pass, "cli.main")
    solver_calls = sum(1 for i in in_pass if spans[i][NAME] in SOLVERS
                       and spans[root(i)][NAME] == "cli.main")
    m["cli.overhead_ms"] = (1000 * ratio(sum(own[i] for i in cli_calls),
                                         len(cli_calls)), "ms")
    m["cli.solver_calls_per_job"] = (ratio(solver_calls, len(cli_calls)),
                                     "ratio")
    m["trace.overhead_solves_per_s"] = (traced_rate - untraced_rate, "1/s")
    return m


def exact_counts(tracer, indices) -> dict[object, list[int]]:
    """Oracle states, search nodes and absorption rounds per job."""
    from tracing import COUNT, JOB, NAME

    slot = {"oracle.expand": 0, "oracle.solve_explicit": 0,
            "kgrab_dfs.solve_kgrab_dfs": 1,
            "optional_grabbing.solve_ovpp_optional": 2}
    counts: dict[object, list[int]] = {}
    for i in indices:
        span = tracer.spans[i]
        job = span[JOB][1] if isinstance(span[JOB], tuple) else span[JOB]
        row = counts.setdefault(job, [0, 0, 0])
        if span[COUNT] is not None:
            row[slot[span[NAME]]] += span[COUNT]
    return counts


def determinism(workload: str, seed: int, tracer, jobs) -> list[str]:
    """The exact counts must agree between the traced and the tracemalloc
    pass, and with an earlier traced run of the same program and benchmark
    code, workload and seed (kept under .perfbench/counts)."""
    from tracing import JOB

    def by_name(select) -> dict[str, list[int]]:
        indices = [i for i, s in enumerate(tracer.spans) if select(s[JOB])]
        counts = exact_counts(tracer, indices)
        return {f"{j} {jobs[j].name}": counts.get(j, [0, 0, 0])
                for j in range(len(jobs))}

    counts = by_name(lambda job: isinstance(job, int))
    again = by_name(lambda job: isinstance(job, tuple))
    changed = [f"{name}: {value} then {again[name]}"
               for name, value in counts.items() if again[name] != value]
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "pawngames").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.read_bytes())
    record = (STATE / "counts"
              / f"{workload}-{seed}-{digest.hexdigest()[:16]}.json")
    if record.exists():
        earlier = json.loads(record.read_text())
        changed += [f"{name}: {earlier.get(name)} in an earlier run, now "
                    f"{value}" for name, value in counts.items()
                    if earlier.get(name) != value]
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, sort_keys=True))
    return [f"exact count changed: {line}" for line in changed]


def bench(workload: str, seed: int, seconds: float, trace: bool,
          small: bool = False, flip: bool = False) -> tuple[int, dict]:
    """Run one workload; returns the exit code and the result object."""
    from tracing import Tracer
    import workloads

    make = workloads.WORKLOADS[workload]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.active = True
    workdir = STATE / f"run-{workload}-{seed}-{time.time_ns()}"
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            w = make(seed, workdir, small)
            t0 = time.perf_counter()
            w.setup()
            setups.append(time.perf_counter() - t0)

        runs: list = []
        if tracer is None:
            passes, busy = run_timed(w, seconds, runs)
        else:
            # the same jobs untraced, traced, then traced with tracemalloc
            # on, which slows them too much to time them in that pass
            tracer.active = False
            untraced_rate = run_pass(w.pass_jobs(0), [])
            jobs = w.pass_jobs(0)
            tracer.active = True
            passes, traced_rate = 1, run_pass(jobs, runs, tracer)
            tracemalloc.start()
            tracer.memory = True
            run_pass(jobs, [], tracer, "memory")
            tracer.memory = False
            tracemalloc.stop()
            tracer.job = "check"
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        wrong = check(runs, flip)
        if tracer is not None:
            tracer.job = "ledger"
        probes: list = []
        for job in w.ledger:
            execute(job, probes)
        wrong += check(probes, False)
    finally:
        if tracer is not None:
            tracer.active = False
        shutil.rmtree(workdir, ignore_errors=True)

    classes = Counter(outcome for _, _, outcome, _ in runs)
    failed = sum(n for outcome, n in classes.items() if outcome != "verdict")
    attempted = len(runs)
    print(f"workload {workload} seed {seed}: {passes} pass(es), "
          f"{attempted} jobs, closed loop, 1 client")
    if tracer is None:
        metrics = end_to_end(runs, busy, statistics.median(setups), rss_mb)
    else:
        metrics = per_layer(tracer, len(jobs), traced_rate, untraced_rate)
        wrong += determinism(workload + "-small" * small, seed, tracer, jobs)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    everything = classes + Counter(outcome for _, _, outcome, _ in probes)
    print(f"failed_frac {failed / attempted:.6g} ratio (timed jobs); "
          f"outcomes with ledger: "
          + ", ".join(f"{k}={v}" for k, v in sorted(everything.items())))
    for job, elapsed, outcome, _ in probes:
        print(f"ledger {job.name}: {outcome} in {1000 * elapsed:.1f} ms")
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return (1 if wrong else 0), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pawngames" / "__init__.py").is_file():
        print(f"error: no pawngames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pawngames

    if Path(pawngames.__file__).resolve().parent != SRC / "pawngames":
        print(f"error: imported pawngames from {pawngames.__file__}",
              file=sys.stderr)
        return 2
    code, result = bench(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

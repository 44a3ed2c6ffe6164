"""Spans around the public functions of each ``pawngames`` module.

``Tracer.install`` replaces each listed function with a wrapper in every
loaded module that bound it (``from .oracle import solve_explicit`` in the
CLI, for example), so no program code changes.  A span records its name,
layer, start, end, parent span and job id; spans stay in memory and are
summarised when the run ends.  With ``memory`` on, each span also records
its tracemalloc peak above the memory in use when it opened.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# layer -> module -> functions wrapped as that layer's spans
LAYERS = {
    "cli": {"pawngames.cli": ["main"]},
    "gamefile": {"pawngames.gamefile": ["parse_game", "serialize_game"]},
    "oracle": {"pawngames.oracle": ["solve_explicit", "expand_game",
                                    "witness_play"]},
    "turnbased": {"pawngames.turnbased": ["solve_turnbased", "parse_tbgame",
                                          "serialize_tbgame"]},
    "grab_or_give": {"pawngames.grab_or_give": ["reduce_grab_or_give",
                                                "solve_grab_or_give"]},
    "kgrab_ovpp": {"pawngames.kgrab_ovpp": ["minimum_grabs",
                                            "solve_kgrab_ovpp"]},
    "optional_grabbing": {"pawngames.optional_grabbing": [
        "solve_ovpp_optional"]},
    "kgrab_dfs": {"pawngames.kgrab_dfs": ["solve_kgrab_dfs"]},
    "lockkey": {"pawngames.lockkey": [
        "expand_lockkey", "solve_lockkey", "split_labels", "tb_to_optional",
        "lockkey_to_optional", "to_always_grabbing", "parse_lockkey",
        "serialize_lockkey"]},
    "generators": {"pawngames.generators": [
        "parse_atm", "gen_atm_lockkey", "atm_accepts_bruteforce",
        "gen_setcover", "set_cover_exists", "parse_qbf", "qbf_eval",
        "gen_tqbf", "gen_random_pawngame", "gen_random_turnbased",
        "gen_random_lockkey", "gen_random_atm"]},
}

# the entry points the CLI dispatches to; counted per CLI call
SOLVERS = frozenset({
    "oracle.solve_explicit", "optional_grabbing.solve_ovpp_optional",
    "grab_or_give.solve_grab_or_give", "kgrab_ovpp.solve_kgrab_ovpp",
    "kgrab_dfs.solve_kgrab_dfs",
})

# span fields
NAME, LAYER, START, END, PARENT, JOB, COUNT, PEAK = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, memory at open, peak seen]
        self.active = False
        self.memory = False
        self.job: object = None

    def install(self) -> None:
        import pawngames.crossval as crossval
        import pawngames.oracle as oracle

        counts = {
            "kgrab_dfs.solve_kgrab_dfs": lambda out: out.nodes,
            "optional_grabbing.solve_ovpp_optional": lambda out: len(out.trace),
        }
        # the expansion is private, but it is where states are counted for
        # every caller; without it, count what solve_explicit reports
        if hasattr(oracle, "_expand"):
            self._wrap(oracle, "_expand", "oracle.expand", "oracle",
                       lambda out: len(out[0]))
        else:
            counts["oracle.solve_explicit"] = lambda out: out.num_states
        for layer, modules in LAYERS.items():
            for module_name, names in modules.items():
                for name in names:
                    span = f"{layer}.{name}"
                    self._wrap(sys.modules[module_name], name, span, layer,
                               counts.get(span))
        init = oracle.AllConfigurations.__init__
        oracle.AllConfigurations.__init__ = self._wrapper(
            init, "oracle.AllConfigurations", "oracle", None)
        for suite in crossval.SUITES:
            self._wrap(crossval, f"suite_{suite}", f"crossval.{suite}",
                       "crossval")

    def _wrap(self, module, attr, name, layer, count=None) -> None:
        """Rebind ``module.attr`` wherever a loaded module imported it."""
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, layer, count)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None) or {}
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped

    def _wrapper(self, fn, name, layer, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                tracer.spans[index][COUNT] = count(out)
            return out

        return traced

    def _open(self, name, layer) -> int:
        parent = self._stack[-1][0] if self._stack else None
        used = 0
        if self.memory:
            used, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.job, None, None])
        self._stack.append([index, used, 0])
        return index

    def _close(self, index) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        _, used, seen = self._stack.pop()
        if self.memory:
            span[PEAK] = max(seen, tracemalloc.get_traced_memory()[1]) - used

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

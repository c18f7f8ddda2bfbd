"""Spans around the package's layer boundaries, installed from outside.

Each wrapped call becomes a span: name, start, end, parent span and
instance id, kept in flat arrays and written out when the run ends.
Implication lookups are too many to keep one by one (millions per run),
so each is folded into the span it ran under as four aggregates:
lookups, sweeps (lookups that grew the index's memo), and the time spent
in sweeps and in memo hits.

Every name is patched where it is looked up: modules that imported a
function by name hold their own reference, so the wrapper replaces each
binding of the original in every loaded ppszlab module.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

from ppszlab import analysis, cnf, engine, general, implication, oracle, permutations, unique

ROOT = "instance"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._name_id = {ROOT: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        # lookups folded into the span open when they ran
        self.lookups = array("q")
        self.sweeps = array("q")
        self.sweep_s = array("d")
        self.hit_s = array("d")
        self.stack: list[int] = []
        self.current_instance = -1
        # facts read off return values
        self.forced_steps = 0
        self.guessed_steps = 0
        self.walk_successes = 0
        self.cutoff_hits = 0

    def open(self, name: str) -> int:
        name_id = self._name_id.get(name)
        if name_id is None:
            name_id = self._name_id[name] = len(self.names)
            self.names.append(name)
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance.append(self.current_instance)
        self.lookups.append(0)
        self.sweeps.append(0)
        self.sweep_s.append(0.0)
        self.hit_s.append(0.0)
        self.end.append(0.0)
        self.stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def wrap_lookup(self, fn):
        """implied_literal, folded into the open span."""
        tracer = self
        clock = time.perf_counter

        def traced(index, amask, avals, var):
            memo = index._result_cache
            before = len(memo)
            t0 = clock()
            lit = fn(index, amask, avals, var)
            elapsed = clock() - t0
            span = tracer.stack[-1]
            tracer.lookups[span] += 1
            if len(memo) != before:
                tracer.sweeps[span] += 1
                tracer.sweep_s[span] += elapsed
            else:
                tracer.hit_s[span] += elapsed
            return lit

        return traced

    def _after_walk(self, result) -> None:
        avals, profile = result
        guessed = profile.guessed
        self.guessed_steps += guessed
        self.forced_steps += len(profile.entries) - guessed
        if avals is not None:
            self.walk_successes += 1

    def _after_dppsz(self, result) -> None:
        if result.cutoff_hit:
            self.cutoff_hits += 1

    def install(self) -> None:
        functions = [
            (cnf, "parse_dimacs", "cnf.parse", None),
            (cnf, "restrict", "cnf.restrict", None),
            (oracle, "enumerate_solutions", "oracle.enumerate", None),
            (permutations, "construct_sigma", "permutations.construct", None),
            (engine, "success_probability_exact", "engine.probability_exact", None),
            (engine, "success_probability_via_identity", "engine.probability_identity", None),
            (engine, "ppsz_randomized", "engine.randomized", None),
            (unique, "dppsz", "unique.dppsz", self._after_dppsz),
            (unique, "solve_unique", "unique.solve", None),
            (general, "solve_general", "general.solve", None),
            (analysis, "lambda_k", "analysis.lambda_k", None),
        ]
        modules = [m for key, m in sys.modules.items() if key == "ppszlab" or key.startswith("ppszlab.")]
        for module, attr, name, hook in functions:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        methods = [
            (permutations.PermutationSet, "materialized", "permutations.materialize", None),
            (permutations.PermutationSet, "permutation", "permutations.materialize", None),
            (implication.ImplicationIndex, "__init__", "implication.index_build", None),
            (engine.PpszEngine, "_walk", "engine.walk", self._after_walk),
        ]
        for cls, attr, name, hook in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), hook))
        index = implication.ImplicationIndex
        index.implied_literal = self.wrap_lookup(index.implied_literal)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds (busy time not
        covered by child spans or folded lookups), and lookup aggregates."""
        child = [0.0] * len(self.name)
        for span in range(len(self.name)):
            parent = self.parent[span]
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        out = {name: dict(calls=0, busy_s=0.0, self_s=0.0, lookups=0, sweeps=0, sweep_s=0.0, hit_s=0.0)
               for name in self.names}
        for span in range(len(self.name)):
            row = out[self.names[self.name[span]]]
            busy = self.end[span] - self.start[span]
            folded = self.sweep_s[span] + self.hit_s[span]
            row["calls"] += 1
            row["busy_s"] += busy
            row["self_s"] += busy - child[span] - folded
            row["lookups"] += self.lookups[span]
            row["sweeps"] += self.sweeps[span]
            row["sweep_s"] += self.sweep_s[span]
            row["hit_s"] += self.hit_s[span]
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped TSV, times relative to the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\tinstance\tlookups\tsweeps\tsweep_s\thit_s\n")
            names = self.names
            for span in range(len(self.name)):
                handle.write(
                    f"{span}\t{names[self.name[span]]}\t{self.start[span] - origin:.7f}\t"
                    f"{self.end[span] - origin:.7f}\t{self.parent[span]}\t{self.instance[span]}\t"
                    f"{self.lookups[span]}\t{self.sweeps[span]}\t{self.sweep_s[span]:.7f}\t{self.hit_s[span]:.7f}\n"
                )

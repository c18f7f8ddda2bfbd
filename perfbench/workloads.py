"""Seeded corpora for the four benchmark workloads, and the answer checks.

A workload's corpus is a sequence of blocks. Every block holds one
instance of each of the workload's shapes, in a fixed order, so any
whole number of blocks has the same mix of sizes and verdicts; runs
measure whole blocks only. Block b of a seed is drawn from its own
random stream, so it is the same however many blocks are generated.

Everything the checks need (oracle verdict, plant, clauses) is computed
here, at generation time, outside the timed worker. The worker receives
only DIMACS text and a solve command line.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from ppszlab.cnf import serialize_dimacs
from ppszlab.instances import planted_kcnf, uniform_kcnf, unique_kcnf
from ppszlab.oracle import count_solutions
from ppszlab.suites import identity_corpus

# Logical counters of the canonical solve output; their sums over the
# fingerprint blocks must repeat exactly from run to run.
FINGERPRINT_COUNTERS = (
    "modify_calls",
    "round",
    "restrictions_tried",
    "restrictions_skipped",
    "dppsz_calls",
    "cutoff_hits",
)


@dataclass(frozen=True)
class Instance:
    dimacs: str
    argv: tuple[str, ...]  # solve options; empty for the exact-probability calls
    clauses: tuple[tuple[int, ...], ...]
    n: int
    satisfiable: bool
    plant: tuple[int, ...] | None = None  # the only solution, for unique mode


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve": ppszlab.cli.main; "exact": the two probability routes
    make_block: Callable[[random.Random, bool], list[Instance]]  # (rng, tiny) -> one block
    corpus_blocks: int  # blocks generated; a timed run cycles through them
    trace_blocks: int  # traced runs and the fingerprint cover exactly these; timed runs start with them
    tail_percentile: int  # instance_s_tail; over ten samples beyond it in a 25 s run, inside one cost class


def _instance(formula, argv=(), satisfiable=True, plant=None) -> Instance:
    return Instance(
        dimacs=serialize_dimacs(formula),
        argv=tuple(argv),
        clauses=formula.clauses,
        n=formula.n,
        satisfiable=satisfiable,
        plant=plant,
    )


# (n, k, m, satisfiable): uniform k-CNF drawn until the oracle gives the
# slot's verdict, so every block has the same sizes and verdicts. The
# unsatisfiable slots stop at n=6 so a run holds a few hundred instances;
# the two (6, 4, m) ones exhaust 3^6 restrictions and are the tail. Slots
# are balanced around four of like cost (n=5 unsatisfiable, n=7..8
# satisfiable), so the median falls inside that group and not in a gap
# between groups, where it would jump from seed to seed.
GENERAL_SHAPES = (
    (4, 3, 18, True), (4, 3, 18, False),
    (6, 3, 27, True), (5, 3, 22, False),
    (7, 3, 31, True), (5, 3, 24, False),
    (8, 3, 35, True), (6, 3, 26, False),
    (5, 4, 50, True), (6, 3, 28, False),
    (6, 4, 60, True), (5, 4, 50, False),
    (7, 4, 60, True), (5, 4, 54, False),
    (6, 4, 60, False), (6, 4, 64, False),
)
GENERAL_TINY_SHAPES = ((4, 3, 18, True), (4, 3, 18, False), (5, 3, 22, False))


def _general_block(rng: random.Random, tiny: bool) -> list[Instance]:
    block = []
    for n, k, m, want in GENERAL_TINY_SHAPES if tiny else GENERAL_SHAPES:
        while True:
            formula = uniform_kcnf(rng, n, m, k)
            if (count_solutions(formula) > 0) == want:
                break
        block.append(_instance(formula, ("--mode", "general"), want))
    return block


# Unique-solution 3-CNF at n=8, the smallest size whose default tau is 3.
# Per-instance time varies several-fold with the round that succeeds, so
# a run needs hundreds of instances for a steady mean; larger n gives too
# few (at n=10..12 a single instance takes 0.1 to 2.6 s).
UNIQUE_N, UNIQUE_BLOCK = 8, 16
UNIQUE_TINY_N, UNIQUE_TINY_BLOCK = 5, 2


def _unique_block(rng: random.Random, tiny: bool) -> list[Instance]:
    n, size = (UNIQUE_TINY_N, UNIQUE_TINY_BLOCK) if tiny else (UNIQUE_N, UNIQUE_BLOCK)
    block = []
    for _ in range(size):
        formula, plant = unique_kcnf(rng, n, 3)
        block.append(_instance(formula, ("--mode", "unique"), True, plant))
    return block


# The identity suite's shapes: satisfiable 3-CNF, n = 4..8, m = 2n..2n+2.
# The one n=8 formula per block carries most of the block's walks.
EXACT_BLOCK = 20
EXACT_TINY_BLOCK = 3


def _exact_block(rng: random.Random, tiny: bool) -> list[Instance]:
    formulas = identity_corpus(rng, EXACT_TINY_BLOCK if tiny else EXACT_BLOCK)
    return [_instance(formula) for formula in formulas]


# Planted 3-CNF at n=11, m = round(4.2 n), one cold walk at tau = 4 per
# instance. A single size keeps the median and tail inside one class, and
# at n=11 (about 0.16 s an instance) a run holds well over a hundred.
RANDOMIZED_N, RANDOMIZED_BLOCK = 11, 4
RANDOMIZED_TINY_N, RANDOMIZED_TINY_BLOCK = 6, 2


def _randomized_block(rng: random.Random, tiny: bool) -> list[Instance]:
    n, size = (RANDOMIZED_TINY_N, RANDOMIZED_TINY_BLOCK) if tiny else (RANDOMIZED_N, RANDOMIZED_BLOCK)
    block = []
    for _ in range(size):
        formula, _ = planted_kcnf(rng, n, round(4.2 * n), 3)
        argv = ("--mode", "randomized", "--tau", "4", "--seed", str(rng.randrange(1 << 30)))
        block.append(_instance(formula, argv, True))
    return block


# Each corpus holds more blocks than a 25 s run finishes at this commit,
# so a run's instances are all distinct. exact-prob's tail percentile is
# lower because a run holds only 100 to 120 of its instances; its 85th
# percentile, like its 90th, falls among the n=7 formulas.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("general-mixed", "solve", _general_block, 30, 4, 90),
        Workload("unique-rounds", "solve", _unique_block, 36, 4, 90),
        Workload("exact-prob", "exact", _exact_block, 12, 1, 85),
        Workload("randomized-tau4", "solve", _randomized_block, 60, 2, 90),
    )
}


def generate(workload: Workload, seed: int, blocks: int, tiny: bool = False) -> list[list[Instance]]:
    """The first `blocks` blocks of the workload's corpus for this seed."""
    return [
        workload.make_block(random.Random(f"perfbench/{workload.name}/{seed}/{b}"), tiny)
        for b in range(blocks)
    ]


def _satisfies(literals, clauses, n: int) -> bool:
    chosen = set(literals)
    if sorted(abs(lit) for lit in chosen) != list(range(1, n + 1)):
        return False  # not one value for each of the variables 1..n
    return all(any(lit in chosen for lit in clause) for clause in clauses)


def check(instance: Instance, kind: str, code: int, out: str) -> str | None:
    """Why this output is wrong, or None if it is right."""
    try:
        return _check(instance, kind, code, json.loads(out))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"exit {code}, malformed output ({exc!r})"


def _check(instance: Instance, kind: str, code: int, payload: dict) -> str | None:
    if kind == "exact":
        exact, identity = Fraction(payload["exact"]), Fraction(payload["identity"])
        if exact != identity:
            return f"exact {exact} != identity {identity}"
        if not 0 < exact <= 1:
            return f"probability {exact} outside (0, 1] on a satisfiable formula"
        return None
    if payload.get("mode") == "randomized":
        found = payload.get("found")
        if code != (10 if found else 0):
            return f"exit {code} with found={found}"
        if found and not instance.satisfiable:
            return "randomized trial found a solution of an unsatisfiable formula"
    else:
        found = payload.get("satisfiable")
        if found != instance.satisfiable:
            return f"verdict {found}, oracle says {instance.satisfiable}"
        if code != (10 if found else 20):
            return f"exit {code} with satisfiable={found}"
    solution = payload.get("solution")
    if found and not _satisfies(solution, instance.clauses, instance.n):
        return "returned assignment is not a solution"
    if not found and solution is not None:
        return "solution present without a verdict"
    if instance.plant is not None and found and tuple(solution) != instance.plant:
        return "unique-mode solution differs from the plant"
    return None


def fingerprint(outputs: list[str]) -> dict:
    """Summed logical counters and a digest of the canonical output bytes."""
    sums = dict.fromkeys(FINGERPRINT_COUNTERS, 0)
    digest = hashlib.sha256()
    for out in outputs:
        digest.update(out.encode())
        payload = json.loads(out)
        for key in FINGERPRINT_COUNTERS:
            if isinstance(payload.get(key), int):
                sums[key] += payload[key]
    return {"counters": sums, "sha256": digest.hexdigest()}

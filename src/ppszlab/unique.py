"""Deterministic solving by exhausting bit vectors round by round.

Round i hands every length-i bit vector to every permutation in the set.
A run that would need an (i+1)-th guess aborts on bit exhaustion, so round
i succeeds exactly when some order gets through with at most i guesses.
Rounds grow geometrically, which is why the round where the first solution
appears is the whole cost story; per-round work counters record it.

Unsatisfiable input simply survives all n rounds and is reported as such.

The counters are logical: they describe the value-major scan that walks
each bit vector with each order in index order, one walk per (vector,
order) pair. That scan is not run. Each distinct order's guess tree is
searched once per round, in scan-position order, by `_first_hit`, and the
counters are derived from the position of the first hit or of the budget
cutoff. The orders are read in place as rank orders, each rank through
its cell (`PpszEngine._check_order`); only the hit's order is replayed as
a physical walk, so an engine's own `modify_calls` counts far fewer walks
than `DppszResult.modify_calls`.

The search visits only the branches that some solution extends: only they
can hold a successful walk, so the first hit, and every counter derived
from it, is the scan's. A start state that no solution extends does no
search at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import Assignment, Formula
from .engine import PpszEngine
from .permutations import construct_sigma, distinct_orders


@dataclass(frozen=True)
class DppszResult:
    solution: Assignment | None
    round_found: int | None
    modify_calls_per_round: tuple[int, ...]
    modify_calls: int
    cutoff_hit: bool
    sigma_size: int

    @property
    def satisfiable(self) -> bool:
        return self.solution is not None


def dppsz(
    engine: PpszEngine,
    perms,
    max_modify_calls: int | None = None,
    *,
    start: tuple[int, int] = (0, 0),
) -> DppszResult:
    """Run rounds 1..n on the engine's formula; return the first solution
    found, scanning bit vectors in lexicographic order and permutations in
    index order.

    `start` is an (amask, avals) state of the engine, values only inside
    amask: the walks extend it, perms orders exactly the variables it
    leaves free (each else ValueError), and n is their number.
    Implications are looked up at `engine.index.tau`. max_modify_calls
    cuts the search off mid-round (the caller treats a cutoff as "nothing
    found here, move on"), so the full run is only attempted when the
    budget allows. The counters are those of the scan; the search behind
    them is `_first_hit`'s, and none runs if no solution extends start.
    """
    amask, avals = start
    if avals & ~amask or amask >> engine.formula.n:
        raise ValueError("start must be a state of the engine's formula")
    n = engine.formula.n - amask.bit_count()
    live = engine.index.live(amask, avals)
    if n == 0:
        # nothing to assign: the start state is a solution or nothing is
        if live:
            return DppszResult(Assignment(), 0, (), 0, False, 0)
        return DppszResult(None, None, (), 0, False, 0)
    size, variables, orders = distinct_orders(perms)
    cells = engine._check_order(variables, amask)
    miss = no_hit(n, size, max_modify_calls)
    budget = miss.modify_calls  # a scan without a hit runs to the budget
    for round_no in range(1, n + 1):
        base = ((1 << round_no) - 2) * size
        if base >= budget or not live:
            break
        hit = _first_hit(engine, orders, cells, size, round_no, base, budget, start, live)
        if hit is not None:
            position, ranks, value = hit
            _, profile = engine._walk([cells[r] for r in ranks], value, round_no, None, amask, avals)
            solution = Assignment(profile.entries)
            counts = _round_counts(size, position + 1, round_no)
            return DppszResult(solution, round_no, counts, position + 1, False, size)
    return miss


def no_hit(n: int, size: int, max_modify_calls: int | None) -> DppszResult:
    """What dppsz returns when no walk of its scan succeeds, as it does
    from every start state that no solution extends: a caller that knows
    the state is dead can take this instead. n and size are as in dppsz,
    size 0 when n is 0; the full scan is (2^(n+1) - 2) x size walks."""
    total = ((1 << (n + 1)) - 2) * size
    budget = total if max_modify_calls is None else max(0, min(max_modify_calls, total))
    if budget < total:
        # the walk at position `budget` was the first one refused
        counts = _round_counts(size, budget, (budget // size + 2).bit_length() - 1)
        return DppszResult(None, None, counts, budget, True, size)
    return DppszResult(None, None, _round_counts(size, total, n), total, False, size)


def _round_counts(size: int, calls: int, rounds: int) -> tuple[int, ...]:
    """Walks per round when the scan stops after `calls` walks in round
    `rounds`; round r holds the 2^r x size positions from (2^r - 2) x size."""
    return tuple(
        min(size << r, max(0, calls - ((1 << r) - 2) * size)) for r in range(1, rounds + 1)
    )


def _first_hit(
    engine: PpszEngine,
    orders: dict[int, tuple[tuple[int, ...], int]],
    cells: list,
    size: int,
    round_no: int,
    base: int,
    budget: int,
    start: tuple[int, int],
    live: int,
) -> tuple[int, tuple[int, ...], int] | None:
    """The scan position, rank order and value of round round_no's first
    successful walk below budget, or None.

    Each distinct order's guess tree, cut at round_no guesses, is searched
    through `cells`, bit 0 first, from a stack of pending 1-branches. A
    node is (position in the order, amask, avals, guesses used, guessed-bit
    prefix). It runs down its 0-branches with `_walk`'s decision at each
    step: a forced literal goes straight on, and a guess past round_no
    bits ends the walk. A guess pushes its 1-branch if a live solution
    sets the variable to 1, and goes on with 0 while one sets it to 0. A
    node that reaches the order's end is a successful leaf: its state is
    total, and a live solution extends it.
    A node after `used` guesses with guessed-bit prefix p covers the
    values from lo = p << (round_no - used), so its smallest scan position,
    its key, is base + lo x size + the order's first index; a later copy of
    an order repeats the first copy's walks at larger positions and can
    never be the first hit. A heap holds one key per order, its stack
    top's, and the order with the smallest key runs to its next leaf;
    going down the 0 branch keeps the key. So the leaves come in scan
    order, the first successful one is the hit, and no node past the hit
    or the budget is visited. The heap holds at most one entry per
    distinct order and a stack at most round_no.

    `live` is the start state's live set, the solutions that extend it; a
    popped branch recomputes its own from its state.
    """
    # imported on first use: loading the _heapq extension adds about
    # 0.2 MB of resident memory to every process that imports ppszlab
    from heapq import heappop, heapreplace

    implied = engine.index.implied_literal
    live_of = engine.index.live
    length = len(cells)
    stacks: dict[int, list] = {}
    heap = [base + first for first in orders]  # sorted, so already a heap
    while heap:
        key = heap[0]
        if key >= budget:
            return None
        first = (key - base) % size
        ranks = orders[first][0]
        stack = stacks.get(first)
        if stack is None:
            stack = stacks[first] = []
            (amask, avals), node_live = start, live
            position = used = prefix = 0
        else:
            position, amask, avals, used, prefix = stack.pop()
            node_live = live_of(amask, avals)
        for position in range(position, length):
            var, bit, ones = cells[ranks[position]]
            lit = implied(amask, avals, var)
            amask |= bit
            if lit:
                if lit > 0:
                    avals |= bit
            elif used == round_no:
                break  # out of bits: the walk is exhausted
            else:
                used += 1
                prefix <<= 1
                ones &= node_live
                if ones:
                    stack.append((position + 1, amask, avals | bit, used, prefix | 1))
                node_live ^= ones
                if not node_live:
                    break  # no solution sets var to 0 here
        else:
            # a forced step keeps every live solution, so the total state
            # reached with a nonempty live set is a solution
            return key, ranks, (key - base) // size
        if stack:
            _, _, _, used, prefix = stack[-1]
            heapreplace(heap, base + (prefix << (round_no - used)) * size + first)
        else:
            heappop(heap)
    return None


@dataclass(frozen=True)
class SolveReport:
    """A solve outcome plus the knob settings that produced it, ready for
    serialization."""

    solution: Assignment | None
    round_found: int | None
    modify_calls: int
    sigma_size: int
    metadata: dict = field(default_factory=dict)

    @property
    def satisfiable(self) -> bool:
        return self.solution is not None


def solve_unique(
    formula: Formula,
    tau: int | None = None,
    independence: int | None = None,
) -> SolveReport:
    """The full deterministic pipeline for formulas expected to have few
    solutions: build the permutation set, then exhaust rounds. Sound on any
    input (a solution is returned only if it satisfies the formula; rounds
    simply run longer when solutions need many guesses)."""
    if formula.n == 0:
        result = dppsz(PpszEngine(formula), ())
        meta = {"n": 0, "tau": 0, "independence": 0, "prime": 0, "tau_derived": True}
        return SolveReport(result.solution, result.round_found, 0, 0, meta)
    perms = construct_sigma(formula.variables, independence)
    engine = PpszEngine(formula, tau)
    result = dppsz(engine, perms)
    meta = {
        "n": formula.n,
        "k": formula.k,
        "tau": engine.index.tau,
        "tau_derived": tau is None,
        "independence": perms.independence,
        "prime": perms.prime,
        "sigma_size": len(perms),
        "rounds": list(result.modify_calls_per_round),
    }
    return SolveReport(
        result.solution, result.round_found, result.modify_calls, result.sigma_size, meta
    )

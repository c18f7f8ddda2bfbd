"""Solver for formulas with any number of solutions.

The round-based solver is tuned for a unique solution; a sea of solutions
actually slows it down, because no variable is pinned enough to get forced.
The fix is to guess a few variables first. Instance i enumerates every way
to fix i variables, runs the round solver on each residue under a strict
modify-call budget, and gives up quickly; as i grows the residual formulas
get lonelier and the budget gets smaller. Instance n degenerates to testing
complete assignments one by one, so the overall search is complete no
matter how the budgets are set. No residue is built as a formula: a
restriction is a start state on one engine over the whole formula, so all
restrictions share its implication memo. The default tau follows the
residual size; it is the index's lookup depth, set each time an instance
takes its turn.

An instance is a stream of items, each a range of one variable subset's
2^i polarity patterns (_instance_runs). Only a pattern that some solution
extends runs dppsz, as a range of one, and the patterns of one subset
share one permutation set over its free variables. Every other pattern
lies in a range of patterns that share a prefix no solution extends, and
is counted, not searched: skipped if it falsifies a clause, else at the
cost dppsz reports for a dead start. A range is
counted with a few big-integer operations, so an unsatisfiable formula
costs one item per subset, 2^n in all, rather than one per restriction,
3^n. Under slices, an instance's turn may end inside a range, after the
dead pattern that brings its spending to the budget; the rest of the
range waits in the queue with the instance's stream.

construct_good_assignment is the analysis-side counterpart: it exhibits
one particular fixing of ceil(log2 S) variables that leaves exactly one
solution, halving the count at every step.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .analysis import lambda_k
from .cnf import FIXED, Assignment, Evaluation, Formula, evaluate, restrict
from .engine import PpszEngine
from .implication import _polarity_masks, resolve_tau
from .oracle import UnsatisfiableError, count_solutions, is_satisfiable
from .permutations import construct_sigma, hash_family
from .unique import DppszResult, dppsz, no_hit


def default_slack(n: int) -> float:
    """Headroom added to every budget exponent, in bits."""
    return 2.0 * math.log2(n + 1)


def cutoff_budget(free_variables: int, k: int, slack: float) -> int:
    """Modify-call budget for one residual run: ceil of
    2^((1 - lambda) * free + slack), lambda taken at max(k, 3).

    Integer arithmetic after splitting off the fractional exponent, so
    large inputs cannot overflow to infinity.
    """
    if free_variables < 0:
        raise ValueError("free_variables must be nonnegative")
    lam = lambda_k(max(k, 3))
    exponent = (1.0 - lam) * free_variables + slack
    if exponent <= 0:
        return 1
    whole = math.floor(exponent)
    frac = exponent - whole
    scaled = math.ceil(2.0**frac * (1 << 53))
    if whole >= 53:
        return scaled << (whole - 53)
    return -((-scaled) >> (53 - whole))


@dataclass(frozen=True)
class HalvingStep:
    variable: int
    literal: int
    count_before: int
    count_after: int
    kind: str  # "halve" or "pad"


@dataclass(frozen=True)
class GoodAssignment:
    assignment: Assignment
    steps: tuple[HalvingStep, ...]
    solutions: int
    target_size: int

    @property
    def size(self) -> int:
        return len(self.assignment)


def construct_good_assignment(formula: Formula) -> GoodAssignment:
    """Fix exactly ceil(log2 S) variables so one solution remains.

    While several solutions survive, some variable takes both values among
    them; fixing the first such variable to its rarer value at least
    halves the count, so the budget of ceil(log2 S) steps suffices. Any
    steps left over are spent pinning further variables to the surviving
    solution.
    """
    total = count_solutions(formula)
    if total == 0:
        raise UnsatisfiableError("cannot build an assignment for an unsatisfiable formula")
    target = (total - 1).bit_length()
    current = formula
    count = total
    fixed: list[int] = []
    steps: list[HalvingStep] = []
    while count > 1:
        for var in current.variables:
            cnt_pos = count_solutions(restrict(current, (var,)))
            cnt_neg = count - cnt_pos
            if cnt_pos and cnt_neg:
                lit = var if cnt_pos <= cnt_neg else -var
                after = min(cnt_pos, cnt_neg)
                steps.append(HalvingStep(var, lit, count, after, "halve"))
                fixed.append(lit)
                current = restrict(current, (lit,))
                count = after
                break
        else:
            raise AssertionError("several solutions but every variable is pinned")
    while len(fixed) < target:
        var = current.variables[0]
        lit = var if is_satisfiable(restrict(current, (var,))) else -var
        steps.append(HalvingStep(var, lit, count, count, "pad"))
        fixed.append(lit)
        current = restrict(current, (lit,))
    return GoodAssignment(Assignment.from_literals(fixed), tuple(steps), total, target)


@dataclass(frozen=True)
class GeneralResult:
    solution: Assignment | None
    instance_found: int | None
    restrictions_tried: int
    restrictions_skipped: int
    dppsz_calls: int
    modify_calls: int
    cutoff_hits: int
    metadata: dict = field(default_factory=dict)

    @property
    def satisfiable(self) -> bool:
        return self.solution is not None


# A cutoff at or above dppsz's full scan of (2^(free+1) - 2) x |Sigma|
# walks cuts nothing. The index caps n at 20, so |Sigma| <= 23^20 and the
# scan stays below 2^112 walks: a slack above this clamp changes no
# budget, and clamping it keeps cutoff_budget from building a 2^slack
# integer.
_SLACK_CLAMP = 128.0


def _falsified(clauses, combo: tuple[int, ...], amask: int, tables, space: int) -> int:
    """The patterns of a variable subset that falsify a clause inside it,
    as a mask with bit j for pattern j: clauses is the index's short_clauses,
    amask the bits of the subset's variables, and tables[t] the patterns
    that set combo[t] true."""
    table_of = dict(zip(combo, tables))
    outside = ~amask
    falsified = 0
    for vbits, clause in clauses:
        if not vbits & outside:
            rows = space
            for lit in clause:
                rows &= space ^ table_of[lit] if lit > 0 else table_of[-lit]
            falsified |= rows
    return falsified


def _instance_runs(
    engine: PpszEngine, i: int, independence: int | None, cutoff: int
) -> Iterator[tuple[tuple[int, ...], int, int, int, DppszResult]]:
    """Every way to fix i variables, as (subset, start, stop, falsified,
    result) items that cover patterns [start, stop) of the subset:
    subsets in index order, and each subset's 2^i patterns in order.
    Pattern j sets subset[t] true iff bit i - 1 - t of j is set, so the
    first chosen variable is the top bit.

    The pattern prefixes are walked depth-first, 0 before 1, carrying the
    live set (ImplicationIndex.live) down one variable at a time, split by
    its halves (ImplicationIndex.halves). A prefix that fixes d variables
    and that no solution extends is one item, the range
    [p * 2^(i - d), (p + 1) * 2^(i - d)) of its patterns. Each of them
    either falsifies one of the index's short clauses inside the subset,
    bit j of falsified, a 2^i-bit mask built at the subset's first such
    range, or is dead and carries no_hit's result, the same for the whole
    instance. A live pattern is the range [j, j + 1), falsified 0, with
    dppsz's result on the subset's permutation set, built for its first
    search.

    solve_general counts each pattern of a range that falsifies nothing
    as one dppsz call with the item's result. When a slice ends at such
    a pattern inside the range, the item's remainder, from the next
    pattern to stop, is queued with the stream and counted first at the
    instance's next turn."""
    variables = engine.formula.variables
    index = engine.index
    bit_of = index.bit_of
    halves = index.halves
    root = index.live(0, 0)
    free = len(variables) - i
    dead = no_hit(free, len(hash_family(free, independence)) if free else 0, cutoff)
    # a clause of more than i literals lies inside no subset of i variables
    inside = index.short_clauses(i)
    space = (1 << (1 << i)) - 1
    # the patterns that set subset[t] true: the truth table of position i - 1 - t
    tables = _polarity_masks(i)[::-1]
    for combo in itertools.combinations(variables, i):
        bits = [bit_of[v] for v in combo]
        amask = sum(bits)
        falsified = -1  # not built yet
        perms = None
        stack = [(0, 0, root)]
        while stack:
            depth, prefix, live = stack.pop()
            if not live:
                if falsified < 0:
                    falsified = _falsified(inside, combo, amask, tables, space)
                shift = i - depth
                yield combo, prefix << shift, (prefix + 1) << shift, falsified, dead
            elif depth < i:
                ones, zeros = halves[combo[depth]]
                stack.append((depth + 1, 2 * prefix + 1, live & ones))
                stack.append((depth + 1, 2 * prefix, live & zeros))
            else:
                if perms is None and free:
                    perms = construct_sigma([v for v in variables if v not in combo], independence)
                avals = sum(bit for t, bit in enumerate(bits) if prefix >> (i - 1 - t) & 1)
                result = dppsz(engine, perms, cutoff, start=(amask, avals))
                yield combo, prefix, prefix + 1, 0, result


def _nth_one(mask: int, t: int) -> int:
    """The position of the t-th set bit of mask, counting from 1 at the
    lowest; mask has at least t set bits."""
    at = 0
    while t > 1:
        half = mask.bit_length() >> 1
        low = mask & ((1 << half) - 1)
        count = low.bit_count()
        if count >= t:
            mask = low
        else:
            t -= count
            mask >>= half
            at += half
    return at + (mask & -mask).bit_length() - 1


def solve_general(
    formula: Formula,
    tau: int | None = None,
    independence: int | None = None,
    slack: float | None = None,
    slice_budget: int | None = None,
) -> GeneralResult:
    """Complete deterministic search over all restriction instances.

    Instances take turns, each visit running restrictions until it has
    consumed slice_budget modify calls. The default None means an
    unbounded slice: instance i finishes before i+1 starts. The answer is
    the same either way, only the discovery order of satisfying
    assignments can differ. Each restriction runs as a start state on one
    engine over the whole formula, at the lookup depth of its residual
    tau, so a solve builds one implication index whatever the depths. A
    restriction that falsifies a clause is skipped, and one that no
    solution extends is counted without a search, a range of them at a
    time (_instance_runs).
    """
    n = formula.n
    lam = lambda_k(max(formula.k, 3))
    if slack is None:
        slack = default_slack(n)
    if not math.isfinite(slack):
        raise ValueError("slack must be finite")
    metadata = {
        "n": n,
        "k": formula.k,
        "lambda": lam,
        "slack": slack,
        "mode": "sequential" if slice_budget is None else "slices",
    }
    if slice_budget is not None:
        if slice_budget < 1:
            raise ValueError("slice_budget must be positive")
        metadata["slice_budget"] = slice_budget
    engine = PpszEngine(formula, tau)
    tried = skipped = calls = modify = cutoff_hits = 0
    cutoffs = [cutoff_budget(n - i, formula.k, min(slack, _SLACK_CLAMP)) for i in range(n + 1)]
    # the residual size, and so its tau, is the same for the whole instance
    taus = [resolve_tau(tau, n - i) for i in range(n + 1)]
    streams = [_instance_runs(engine, i, independence, cutoffs[i]) for i in range(n + 1)]
    queue = deque((i, stream, None) for i, stream in enumerate(streams))
    while queue:
        i, stream, rest = queue.popleft()
        engine.index.tau = taus[i]
        spent = 0
        for combo, start, stop, falsified, result in (
            stream if rest is None else itertools.chain((rest,), stream)
        ):
            # the range's patterns that falsify no clause, each one dppsz run
            runs_at = ~(falsified >> start) & ((1 << (stop - start)) - 1)
            runs = runs_at.bit_count()
            cost = result.modify_calls
            end = stop
            if slice_budget is not None and cost and spent + runs * cost >= slice_budget:
                # the slice ends at the run that brings spent to the budget
                runs = -(-(slice_budget - spent) // cost)
                end = start + _nth_one(runs_at, runs) + 1
            tried += end - start
            skipped += end - start - runs
            calls += runs
            modify += runs * cost
            cutoff_hits += runs * result.cutoff_hit
            if result.satisfiable:
                fixed = tuple(
                    (v if start >> (i - 1 - t) & 1 else -v, FIXED) for t, v in enumerate(combo)
                )
                merged = Assignment(fixed + result.solution.entries)
                if evaluate(formula, merged) is not Evaluation.SATISFIED:
                    raise AssertionError("residual solution does not extend to the formula")
                return GeneralResult(
                    merged, i, tried, skipped, calls, modify, cutoff_hits, metadata
                )
            spent += runs * cost
            if slice_budget is not None and spent >= slice_budget:
                left = (combo, end, stop, falsified, result) if end < stop else None
                queue.append((i, stream, left))
                break
    return GeneralResult(None, None, tried, skipped, calls, modify, cutoff_hits, metadata)

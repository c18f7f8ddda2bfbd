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
restrictions share its implication memo. A restriction that falsifies a
clause is skipped, and one that no solution extends is counted, not
searched, at the cost dppsz reports for a dead start. Only the others run
dppsz, those of one variable subset on one permutation set over its free
variables. The default tau follows the residual size; it is the index's
lookup depth, set each time an instance takes its turn.

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
from .implication import resolve_tau
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


def _instance_runs(
    engine: PpszEngine, i: int, independence: int | None, cutoff: int
) -> Iterator[tuple[tuple[int, ...], int, DppszResult | None]]:
    """Every way to fix i variables, as (subset, avals, result): subsets
    in index order, then polarity counters with the first chosen variable
    as the top bit, 1 = positive. result is None when the restriction
    falsifies a clause, no_hit's when no solution extends it, and else
    dppsz's, on the subset's permutation set, built for its first search."""
    variables = engine.formula.variables
    bit_of = engine._bit
    live_of = engine.index.live
    free = len(variables) - i
    dead = no_hit(free, len(hash_family(free, independence)) if free else 0, cutoff)
    clauses = [(pos | neg, neg) for _, _, pos, neg, _ in engine.index._clauses]
    for combo in itertools.combinations(variables, i):
        amask = sum(map(bit_of.__getitem__, combo))
        # only a clause inside the subset can be falsified, by avals & vbits == neg
        inside = [(vbits, neg) for vbits, neg in clauses if not vbits & ~amask]
        patterns = [0]
        for v in combo:
            patterns = [w for p in patterns for w in (p, p | bit_of[v])]
        perms = None
        for avals in patterns:
            if inside and any(avals & vbits == neg for vbits, neg in inside):
                yield combo, avals, None
            elif not live_of(amask, avals):
                yield combo, avals, dead
            else:
                if perms is None and free:
                    perms = construct_sigma([v for v in variables if v not in combo], independence)
                yield combo, avals, dppsz(engine, perms, cutoff, start=(amask, avals))


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
    solution extends is counted without a search.
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
    queue = deque((i, _instance_runs(engine, i, independence, cutoffs[i])) for i in range(n + 1))
    while queue:
        i, stream = queue.popleft()
        # the residual size, and so its tau, is the same for the whole instance
        engine.index.tau = resolve_tau(tau, n - i)
        spent = 0
        for combo, avals, result in stream:
            tried += 1
            if result is None:
                skipped += 1
                continue
            calls += 1
            modify += result.modify_calls
            cutoff_hits += result.cutoff_hit
            if result.satisfiable:
                fixed = tuple((v if avals & engine._bit[v] else -v, FIXED) for v in combo)
                merged = Assignment(fixed + result.solution.entries)
                if evaluate(formula, merged) is not Evaluation.SATISFIED:
                    raise AssertionError("residual solution does not extend to the formula")
                return GeneralResult(
                    merged, i, tried, skipped, calls, modify, cutoff_hits, metadata
                )
            spent += result.modify_calls
            if slice_budget is not None and spent >= slice_budget:
                queue.append((i, stream))
                break
    return GeneralResult(None, None, tried, skipped, calls, modify, cutoff_hits, metadata)

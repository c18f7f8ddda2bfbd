"""Deterministic solving by exhausting bit vectors round by round.

Round i hands every length-i bit vector to every permutation in the set.
A run that would need an (i+1)-th guess aborts on bit exhaustion, so round
i succeeds exactly when some order gets through with at most i guesses.
Rounds grow geometrically, which is why the round where the first solution
appears is the whole cost story; per-round work counters record it.

Unsatisfiable input simply survives all n rounds and is reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import Assignment, Formula
from .engine import PpszEngine
from .implication import ImplicationConfig
from .permutations import construct_sigma


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
    formula: Formula,
    perms,
    cfg: ImplicationConfig | None = None,
    max_modify_calls: int | None = None,
    engine: PpszEngine | None = None,
) -> DppszResult:
    """Run rounds 1..n; return the first solution found, scanning bit
    vectors in lexicographic order and permutations in index order.

    max_modify_calls cuts the search off mid-round (the caller treats a
    cutoff as "nothing found here, move on"), so the full run is only
    attempted when the budget allows.
    """
    n = formula.n
    if n == 0:
        # nothing to assign: the empty assignment either works or nothing does
        if formula.clauses:
            return DppszResult(None, None, (), 0, False, 0)
        return DppszResult(Assignment(), 0, (), 0, False, 0)
    if hasattr(perms, "materialized"):
        sigma_list = perms.materialized()
    else:
        sigma_list = tuple(tuple(p) for p in perms)
    engine = engine or PpszEngine(formula, cfg)
    walk = engine._walk
    calls_before = engine.modify_calls
    per_round: list[int] = []
    budget = max_modify_calls
    for round_no in range(1, n + 1):
        round_calls = 0
        for value in range(1 << round_no):
            for sigma in sigma_list:
                if budget is not None and engine.modify_calls - calls_before >= budget:
                    per_round.append(round_calls)
                    return DppszResult(
                        None,
                        None,
                        tuple(per_round),
                        engine.modify_calls - calls_before,
                        True,
                        len(sigma_list),
                    )
                avals, profile = walk(sigma, value, round_no, None)
                round_calls += 1
                if avals is not None:
                    per_round.append(round_calls)
                    assignment = Assignment(
                        tuple((lit, prov) for _, lit, prov in profile.entries)
                    )
                    return DppszResult(
                        assignment,
                        round_no,
                        tuple(per_round),
                        engine.modify_calls - calls_before,
                        False,
                        len(sigma_list),
                    )
        per_round.append(round_calls)
    return DppszResult(
        None, None, tuple(per_round), engine.modify_calls - calls_before, False, len(sigma_list)
    )


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
    cfg: ImplicationConfig | None = None,
    independence: int | None = None,
) -> SolveReport:
    """The full deterministic pipeline for formulas expected to have few
    solutions: build the permutation set, then exhaust rounds. Sound on any
    input (a solution is returned only if it satisfies the formula; rounds
    simply run longer when solutions need many guesses)."""
    cfg = cfg or ImplicationConfig()
    if formula.n == 0:
        result = dppsz(formula, ())
        meta = {"n": 0, "tau": 0, "independence": 0, "prime": 0, "tau_derived": True}
        return SolveReport(result.solution, result.round_found, 0, 0, meta)
    perms = construct_sigma(formula.variables, independence)
    result = dppsz(formula, perms, cfg)
    tau = cfg.resolve_tau(formula.n)
    meta = {
        "n": formula.n,
        "k": formula.k,
        "tau": tau,
        "tau_derived": cfg.tau_is_derived,
        "independence": perms.independence,
        "prime": perms.prime,
        "sigma_size": len(perms),
        "rounds": list(result.modify_calls_per_round),
    }
    return SolveReport(
        result.solution, result.round_found, result.modify_calls, result.sigma_size, meta
    )

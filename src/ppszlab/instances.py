"""Seeded instance generators for tests and benchmarks.

Every generator takes an explicit random.Random so corpora are replayable
from a seed. Formulas always declare variables 1..n, whether or not each
one ends up mentioned.
"""

from __future__ import annotations

import math
import random

from .cnf import Clause, Formula, canonical_clause
from .oracle import DEFAULT_ORACLE_LIMIT, count_solutions

# unique_kcnf's cap on plants, and on clause batches per plant
_UNIQUE_ROUNDS = 64


def _check_shape(n: int, k: int, m: int = 0) -> None:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"need at least k={k} variables, got n={n}")


def _distinct_capacity(n: int, k: int) -> int:
    return math.comb(n, k) << k


def _random_clause(rng: random.Random, n: int, k: int) -> Clause:
    variables = rng.sample(range(1, n + 1), k)
    return canonical_clause(
        var if rng.getrandbits(1) else -var for var in variables
    )


def uniform_kcnf(rng: random.Random, n: int, m: int, k: int) -> Formula:
    """m distinct clauses of width exactly k, drawn uniformly."""
    _check_shape(n, k, m)
    if m > _distinct_capacity(n, k):
        raise ValueError(f"only {_distinct_capacity(n, k)} distinct clauses exist")
    clauses: set[Clause] = set()
    while len(clauses) < m:
        clauses.add(_random_clause(rng, n, k))
    return Formula.from_clauses(clauses, variables=range(1, n + 1), k=k)


def random_assignment(rng: random.Random, n: int) -> tuple[int, ...]:
    """A complete assignment for variables 1..n, as literals."""
    return tuple(v if rng.getrandbits(1) else -v for v in range(1, n + 1))


def planted_kcnf(
    rng: random.Random,
    n: int,
    m: int,
    k: int,
    alpha: tuple[int, ...] | None = None,
) -> tuple[Formula, tuple[int, ...]]:
    """m distinct clauses, each satisfied by the planted assignment.

    Clauses are drawn uniformly and redrawn when the plant falsifies
    them, so the result is uniform over plant-consistent m-sets.
    """
    _check_shape(n, k, m)
    if alpha is None:
        alpha = random_assignment(rng, n)
    values = {abs(lit): lit > 0 for lit in alpha}
    if sorted(values) != list(range(1, n + 1)):
        raise ValueError("alpha must assign exactly the variables 1..n")
    # per k-subset, one sign pattern of the 2^k is excluded
    capacity = math.comb(n, k) * ((1 << k) - 1)
    if m > capacity:
        raise ValueError(f"only {capacity} distinct consistent clauses exist")
    clauses: set[Clause] = set()
    while len(clauses) < m:
        clause = _random_clause(rng, n, k)
        if any(values[abs(lit)] == (lit > 0) for lit in clause):
            clauses.add(clause)
    return Formula.from_clauses(clauses, variables=range(1, n + 1), k=k), alpha


def satisfiable_kcnf(rng: random.Random, n: int, m: int, k: int) -> Formula:
    """Like uniform_kcnf but guaranteed satisfiable, plant discarded."""
    formula, _ = planted_kcnf(rng, n, m, k)
    return formula


def unique_kcnf(rng: random.Random, n: int, k: int) -> tuple[Formula, tuple[int, ...]]:
    """A formula whose only solution is the returned planted assignment.

    Plant-consistent clauses accumulate until the count reaches one. The
    full consistent set pins the plant uniquely, so accumulation always
    gets there; a round cap with a fresh plant guards against unlucky
    streaks all the same.
    """
    _check_shape(n, k)
    if n > DEFAULT_ORACLE_LIMIT:
        raise ValueError(f"uniqueness check needs n <= {DEFAULT_ORACLE_LIMIT}")
    batch = max(2 * n, 8)
    for _ in range(_UNIQUE_ROUNDS):
        alpha = random_assignment(rng, n)
        values = {abs(lit): lit > 0 for lit in alpha}
        clauses: set[Clause] = set()
        for _ in range(_UNIQUE_ROUNDS):
            for _ in range(batch):
                clause = _random_clause(rng, n, k)
                if any(values[abs(lit)] == (lit > 0) for lit in clause):
                    clauses.add(clause)
            formula = Formula.from_clauses(clauses, variables=range(1, n + 1), k=k)
            if count_solutions(formula) == 1:
                return formula, alpha
    raise RuntimeError(f"no unique-solution formula after {_UNIQUE_ROUNDS} plants")


def with_free_variables(formula: Formula, extra: int) -> Formula:
    """The same clauses with extra never-mentioned variables appended,
    multiplying the solution count by 2^extra."""
    if extra < 0:
        raise ValueError("extra must be nonnegative")
    top = max(formula.variables, default=0)
    added = range(top + 1, top + 1 + extra)
    return Formula.from_clauses(
        formula.clauses,
        variables=tuple(formula.variables) + tuple(added),
        k=formula.k,
    )

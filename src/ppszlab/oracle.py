"""Exhaustive ground truth for small formulas.

Everything here is a plain truth-table search whose value is its obvious
correctness; the solvers elsewhere in the package are judged against it.
Inputs are size-guarded so an accidental 40-variable formula fails loudly
instead of hanging: at DEFAULT_ORACLE_LIMIT variables, or at the `limit`
that the counting and classifying queries take from the command line's
`--oracle-limit`. `enumerate_solutions` returns a plain sorted tuple of
solutions, each a tuple of literals.
"""

from __future__ import annotations

from typing import Iterator

from .cnf import Formula

DEFAULT_ORACLE_LIMIT = 24


class OracleLimitError(RuntimeError):
    """The formula is too large for exhaustive enumeration."""


class UnsatisfiableError(ValueError):
    """An operation that needs a solution was given an unsatisfiable formula."""


def _check_limit(formula: Formula, limit: int) -> None:
    if formula.n > limit:
        raise OracleLimitError(
            f"{formula.n} variables exceed the oracle limit of {limit}"
        )


def _solution_cubes(formula: Formula) -> Iterator[tuple[int, int]]:
    """Yield the solutions as disjoint cubes (avals, idx), in canonical
    order: positions below idx take their bits from avals, and every
    extension over positions idx..n-1 is a solution.

    Positions are assigned in variable order, false before true; a branch
    stops as soon as some clause is falsified or every clause is already
    satisfied, so a cube can stand for many solutions.
    """
    pos_of = {v: i for i, v in enumerate(formula.variables)}
    masks = []
    for clause in formula.clauses:
        pos = neg = 0
        for lit in clause:
            bit = 1 << pos_of[abs(lit)]
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        masks.append((pos, neg, pos | neg))
    stack = [(0, 0)]  # (idx, avals) with positions below idx assigned
    while stack:
        idx, avals = stack.pop()
        amask = (1 << idx) - 1
        live = False
        for pos, neg, vars_mask in masks:
            if (pos & avals) or (neg & amask & ~avals):
                continue
            if vars_mask & ~amask == 0:
                break  # fully assigned, nothing satisfied it
            live = True
        else:
            if not live:
                yield avals, idx
                continue
            bit = 1 << idx
            stack.append((idx + 1, avals | bit))
            stack.append((idx + 1, avals))


def _solution_bits(formula: Formula) -> Iterator[int]:
    """Yield every satisfying total assignment as a bitmask over variable
    positions, in canonical order (variables by index, false before true):
    each cube's free positions count up, the earliest varying slowest."""
    n = formula.n
    for avals, idx in _solution_cubes(formula):
        width = n - idx
        for extension in range(1 << width):
            bits = avals
            for j in range(width):
                if (extension >> (width - 1 - j)) & 1:
                    bits |= 1 << (idx + j)
            yield bits


def _bits_to_literals(bits: int, variables: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v if (bits >> i) & 1 else -v for i, v in enumerate(variables))


def enumerate_solutions(formula: Formula) -> tuple[tuple[int, ...], ...]:
    """Every solution over the formula's variable set, by brute force, in
    canonical order: each solution is a tuple of literals sorted by
    variable index, and the tuples are sorted, so two formulas' solution
    tuples compare equal exactly when they agree syntactically."""
    _check_limit(formula, DEFAULT_ORACLE_LIMIT)
    return tuple(
        sorted(_bits_to_literals(bits, formula.variables) for bits in _solution_bits(formula))
    )


def count_solutions(formula: Formula, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """|sat(F)| without materializing the solutions: one term per cube."""
    _check_limit(formula, limit)
    n = formula.n
    return sum(1 << (n - idx) for _, idx in _solution_cubes(formula))


def first_solution(formula: Formula, limit: int = DEFAULT_ORACLE_LIMIT) -> tuple[int, ...] | None:
    """The canonically smallest solution, or None if there is none."""
    _check_limit(formula, limit)
    for bits in _solution_bits(formula):
        return _bits_to_literals(bits, formula.variables)
    return None


def is_satisfiable(formula: Formula) -> bool:
    return first_solution(formula) is not None


def implied_literals(formula: Formula, limit: int = DEFAULT_ORACLE_LIMIT) -> frozenset[int]:
    """Literals present in every solution. Raises on unsatisfiable input:
    the intersection over zero solutions is not a meaningful answer here."""
    _check_limit(formula, limit)
    and_true = (1 << formula.n) - 1
    and_false = (1 << formula.n) - 1
    seen = False
    for bits in _solution_bits(formula):
        seen = True
        and_true &= bits
        and_false &= ~bits
        if not (and_true or and_false):
            break
    if not seen:
        raise UnsatisfiableError("formula has no solutions")
    out = set()
    for i, v in enumerate(formula.variables):
        if (and_true >> i) & 1:
            out.add(v)
        elif (and_false >> i) & 1:
            out.add(-v)
    return frozenset(out)


def classify_variables(
    formula: Formula, limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the variable set into (frozen, liquid): a variable is frozen
    when it takes the same value in every solution."""
    implied = implied_literals(formula, limit)
    frozen_vars = {abs(lit) for lit in implied}
    frozen = tuple(v for v in formula.variables if v in frozen_vars)
    liquid = tuple(v for v in formula.variables if v not in frozen_vars)
    return frozen, liquid

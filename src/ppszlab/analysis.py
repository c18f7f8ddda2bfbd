"""Numerics behind the solver's budgets and its headline constants.

Everything here is plain float arithmetic with explicit error control:
the series limit carries a midpoint-rule tail estimate, and the integral
of the branching recurrence is reported as a left/right Riemann bracket
rather than a single number. No part of the solver's correctness depends
on these values; they only size cutoffs and feed the reporting commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class AnalysisConfig:
    """Defaults for the reporting commands."""

    tol: float = 1e-12
    grid: int = 10_000
    iterations: int = 30


@lru_cache(maxsize=64)
def lambda_k(k: int, tol: float = 1e-12) -> float:
    """The forced-fraction constant: the sum over j >= 1 of
    1/(j((k-1)j+1)).

    Memoised: the solvers ask for the same (k, tol) on every restriction.

    Partial fractions give terms 1/j - 1/(j+c) with c = 1/(k-1), so the
    tail beyond J is estimated by the midpoint integral ln(1 + c/(J+1/2))
    with error below c/(12 J^3). J is chosen so that error stays under
    tol/2.
    """
    if k < 2:
        raise ValueError("the series diverges for k < 2")
    if tol <= 0:
        raise ValueError("tol must be positive")
    c = 1.0 / (k - 1)
    terms = max(100, math.ceil((c / (6.0 * tol)) ** (1.0 / 3.0)))
    total = 0.0
    for j in range(terms, 0, -1):  # small terms first
        total += 1.0 / (j * ((k - 1) * j + 1))
    return total + math.log1p(c / (terms + 0.5))


def binary_entropy(x: float) -> float:
    """Entropy of a coin with bias x, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_binomial_bound(n: int, delta: float) -> tuple[int, float]:
    """Exact C(n, delta*n) next to its entropy bound 2^(h(delta) n).

    delta*n must land on an integer; the bound always dominates the
    binomial, and the pair makes the slack visible.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t = round(delta * n)
    if not math.isclose(t, delta * n, abs_tol=1e-9) or not 0 <= t <= n:
        raise ValueError(f"delta*n = {delta * n} is not an integer in [0, {n}]")
    binom = math.comb(n, t)
    bound = 2.0 ** (binary_entropy(t / n) * n)
    assert binom <= bound
    return binom, bound


def runtime_exponent(k: int, delta: float, tol: float = 1e-12) -> float:
    """Exponent e(delta) with total work within poly factors of 2^(e*n).

    Sum of the subset-choice entropy h(delta), the polarity enumeration
    delta, and the per-call budget (1-lambda_k)(1-delta).
    """
    lam = lambda_k(k, tol)
    return (1.0 - lam) + lam * delta + binary_entropy(delta)


def crossover_delta(
    k: int,
    competitor_base: float,
    tol: float = 1e-12,
) -> float:
    """Largest solution-density exponent at which this solver still beats
    a competitor running in competitor_base**n.

    Solves e(delta) = log2(competitor_base) by bisection; e is strictly
    increasing on [0, 1/2], so the root is unique when it exists.
    """
    if competitor_base <= 1.0:
        raise ValueError("competitor_base must exceed 1")
    target = math.log2(competitor_base)
    lo, hi = 0.0, 0.5
    if runtime_exponent(k, lo, tol) >= target:
        raise ValueError("no advantage even for a unique solution")
    if runtime_exponent(k, hi, tol) <= target:
        raise ValueError("advantage persists across the whole range")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if runtime_exponent(k, mid, tol) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def r_value(k: int, iterations: int, y: float) -> float:
    """The branching recurrence after the given number of iterations,
    started from zero: R <- (y + (1-y) R)^(k-1)."""
    if k < 2:
        raise ValueError("need k >= 2")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"recurrence argument {y} outside [0, 1]")
    val = 0.0
    for _ in range(iterations):
        val = (y + (1.0 - y) * val) ** (k - 1)
    return val


def fixpoint_k3(y: float) -> float:
    """Closed-form limit of the recurrence for k = 3."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"recurrence argument {y} outside [0, 1]")
    if y >= 0.5:
        return 1.0
    return (y / (1.0 - y)) ** 2


def r_grid(k: int, iterations: int, grid: int) -> tuple[float, ...]:
    """Recurrence values at y = t/grid for t = 0..grid."""
    if grid < 1:
        raise ValueError("grid must be positive")
    return tuple(r_value(k, iterations, t / grid) for t in range(grid + 1))


def r_integral_bounds(k: int, iterations: int, grid: int) -> tuple[float, float]:
    """Left and right Riemann sums of the recurrence over [0, 1].

    Each iterate is non-decreasing in y, so these bracket the true
    integral.
    """
    values = r_grid(k, iterations, grid)
    left = sum(values[:-1]) / grid
    right = sum(values[1:]) / grid
    return left, right


def r_sequence_bounds(
    k: int,
    max_iterations: int,
    grid: int,
) -> tuple[tuple[float, float], ...]:
    """Integral brackets for every iterate 0..max_iterations at once.

    The grid is advanced one recurrence step at a time, so entry j uses
    exactly the floats of r_grid(k, j, grid).
    """
    if grid < 1:
        raise ValueError("grid must be positive")
    if max_iterations < 0:
        raise ValueError("max_iterations must be nonnegative")
    ys = [t / grid for t in range(grid + 1)]
    vals = [0.0] * (grid + 1)
    out = [(0.0, 0.0)]
    for _ in range(max_iterations):
        vals = [(y + (1.0 - y) * v) ** (k - 1) for y, v in zip(ys, vals)]
        out.append((sum(vals[:-1]) / grid, sum(vals[1:]) / grid))
    return tuple(out)

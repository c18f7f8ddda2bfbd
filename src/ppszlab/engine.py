"""The core solving step and its exact probability accounting.

Modify walks the variables in a given order. At each variable it first asks
the bounded-subset implication engine for a pinned literal; a hit is
appended as "forced" and consumes nothing. Otherwise the next bit of the
supplied bit sequence decides the value ("guessed"); running out of bits
before a guess is needed aborts the run. `PpszEngine.modify` returns a pair:
the finished assignment if it satisfies the formula (None otherwise), and
the walk's guess profile. Every order handed to `modify` or to either
probability route must list each variable exactly once.

Guess profiles come out of the same walk: a replay against a known solution
feeds the guesses from that solution instead of a bit vector, so the count
of guessed variables is produced by the identical code path that the solver
itself runs.

The exact success probability does not replay every (order, bit vector)
pair. A walk reads only the bits its guesses consume, so for one order the
2^n bit vectors form a binary guess tree: a forced step has one child, a
guessed step one child per bit value, and a leaf reached after `used`
guesses stands for the 2^(n - used) vectors that share its prefix. One
depth-first pass over that tree counts the successful vectors, and each
distinct order is walked once, weighted by how often the family lists it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .cnf import FORCED, GUESSED, Assignment, Formula
from .implication import ImplicationConfig, ImplicationIndex
from .oracle import enumerate_solutions

DEFAULT_EVALUATION_BUDGET = 1 << 23


class EnumerationBudgetError(RuntimeError):
    """An exhaustive probability computation would be too large."""


@dataclass(frozen=True)
class GuessProfile:
    """Per-variable record of one Modify walk, in processing order."""

    entries: tuple[tuple[int, int, str], ...]  # (variable, literal, provenance)
    bits_consumed: int
    exhausted: bool

    @property
    def guessed(self) -> int:
        return sum(1 for _, _, prov in self.entries if prov == GUESSED)


class PpszEngine:
    """Shared machinery for running many Modify walks over one formula:
    one implication index (with its memo) plus precomputed clause masks
    for the final satisfaction check. Counts every walk it performs in
    `modify_calls`; a guess-tree count is not a walk and is not counted."""

    def __init__(self, formula: Formula, cfg: ImplicationConfig | None = None):
        self.formula = formula
        self.cfg = cfg or ImplicationConfig()
        self.index = ImplicationIndex(formula, self.cfg)
        self.tau = self.index.tau
        self._bit = {v: 1 << i for i, v in enumerate(formula.variables)}
        self._full = (1 << formula.n) - 1
        clause_masks = []
        for clause in formula.clauses:
            pos = neg = 0
            for lit in clause:
                if lit > 0:
                    pos |= self._bit[lit]
                else:
                    neg |= self._bit[-lit]
            clause_masks.append((pos, neg))
        self._clause_masks = clause_masks
        self.modify_calls = 0

    def _satisfies(self, avals: int) -> bool:
        full = self._full
        for pos, neg in self._clause_masks:
            if not ((pos & avals) | (neg & ~avals & full)):
                return False
        return True

    def _walk(
        self,
        sigma: Sequence[int],
        beta_value: int | None,
        beta_length: int,
        alpha: Mapping[int, bool] | None,
    ) -> tuple[int | None, GuessProfile]:
        self.modify_calls += 1
        implied = self.index.implied_literal
        bit_of = self._bit
        amask = avals = 0
        entries: list[tuple[int, int, str]] = []
        used = 0
        for var in sigma:
            lit = implied(amask, avals, var)
            if lit:
                prov = FORCED
            else:
                if alpha is not None:
                    positive = alpha[var]
                else:
                    if used == beta_length:
                        return None, GuessProfile(tuple(entries), used, exhausted=True)
                    positive = (beta_value >> (beta_length - 1 - used)) & 1
                    used += 1
                lit = var if positive else -var
                prov = GUESSED
            bit = bit_of[var]
            amask |= bit
            if lit > 0:
                avals |= bit
            entries.append((var, lit, prov))
        profile = GuessProfile(tuple(entries), used, exhausted=False)
        if amask == self._full and self._satisfies(avals):
            return avals, profile
        return None, profile

    def count_successes(self, sigma: Sequence[int]) -> int:
        """How many of the 2^n bit vectors make the walk over sigma succeed.

        The same decisions as `_walk`, taken once per node of the guess
        tree: a forced step goes straight on, a guessed step branches on 0
        and 1, and a leaf that passes `_walk`'s success test after `used`
        guesses adds 2^(n - used). The pending branches live on an explicit
        stack; a self-recursive closure would form a reference cycle that
        keeps the index and its memo alive until the cyclic collector runs.
        """
        implied = self.index.implied_literal
        bit_of = self._bit
        full = self._full
        n = self.formula.n
        steps = len(sigma)
        successes = 0
        stack = [(0, 0, 0, 0)]  # (position in sigma, amask, avals, bits used)
        while stack:
            start, amask, avals, used = stack.pop()
            for position in range(start, steps):
                var = sigma[position]
                bit = bit_of[var]
                lit = implied(amask, avals, var)
                amask |= bit
                if lit:
                    if lit > 0:
                        avals |= bit
                elif used == n:
                    break  # out of bits: `_walk` reports exhaustion
                else:
                    used += 1
                    stack.append((position + 1, amask, avals | bit, used))
            else:
                if amask == full and self._satisfies(avals):
                    successes += 1 << (n - used)
        return successes

    def _check_order(self, sigma: Sequence[int]) -> None:
        """Raise ValueError unless sigma lists each variable exactly once."""
        if len(sigma) != len(self._bit) or self._bit.keys() != set(sigma):
            raise ValueError("sigma must order exactly the formula's variables")

    def modify(
        self, sigma: Sequence[int], bits: Sequence[int]
    ) -> tuple[Assignment | None, GuessProfile]:
        """One walk over sigma, guesses read from bits in order. Returns the
        finished assignment (None unless it satisfies the formula) and the
        walk's profile."""
        sigma = tuple(sigma)
        self._check_order(sigma)
        value = 0
        for b in bits:
            value = (value << 1) | (1 if b else 0)
        avals, profile = self._walk(sigma, value, len(bits), None)
        if avals is None:
            return None, profile
        return Assignment(tuple((lit, prov) for _, lit, prov in profile.entries)), profile

    def replay(self, alpha: Mapping[int, bool] | Iterable[int], sigma: Sequence[int]) -> GuessProfile:
        """Walk sigma with guesses read off a reference solution. The walk
        necessarily reproduces that solution; what matters is its profile."""
        alpha_map = alpha if isinstance(alpha, Mapping) else _as_value_map(alpha)
        avals, profile = self._walk(tuple(sigma), None, 0, alpha_map)
        if avals is None:
            raise ValueError("replay reference is not a solution of the formula")
        return profile


def _as_value_map(literals: Iterable[int]) -> dict[int, bool]:
    return {abs(lit): lit > 0 for lit in literals}


def _as_permutation_list(perms) -> list[tuple[int, ...]]:
    if hasattr(perms, "materialized"):
        return list(perms.materialized())
    return [tuple(p) for p in perms]


def success_probability_exact(
    formula: Formula,
    perms,
    cfg: ImplicationConfig | None = None,
    max_evaluations: int = DEFAULT_EVALUATION_BUDGET,
) -> Fraction:
    """Pr[a run over uniform (order, bits) returns a solution]. Exact
    rational arithmetic.

    Each distinct order's guess tree is walked once (`count_successes`),
    which accounts for all 2^n bit vectors at once, and the count is
    weighted by the order's multiplicity in the family. The budget still
    counts (order, bit vector) pairs, |perms| x 2^n, not physical walks.
    An order that skips or repeats a variable raises ValueError.
    """
    sigma_list = _as_permutation_list(perms)
    n = formula.n
    total = len(sigma_list) << n
    if total > max_evaluations:
        raise EnumerationBudgetError(
            f"{len(sigma_list)} orders x 2^{n} bit vectors exceed the budget of {max_evaluations}"
        )
    engine = PpszEngine(formula, cfg)
    successes = 0
    for sigma, multiplicity in Counter(sigma_list).items():
        engine._check_order(sigma)
        successes += multiplicity * engine.count_successes(sigma)
    return Fraction(successes, total)


def success_probability_via_identity(
    formula: Formula,
    perms,
    cfg: ImplicationConfig | None = None,
) -> Fraction:
    """The same probability assembled solution by solution: each solution
    contributes the average over orders of 2^(-guessed), each distinct
    order replayed once and weighted by its multiplicity. Exact rationals;
    must agree with the guess-tree route to the last bit. An order that
    skips or repeats a variable raises ValueError."""
    sigma_list = _as_permutation_list(perms)
    n = formula.n
    engine = PpszEngine(formula, cfg)
    orders = Counter(sigma_list)
    for sigma in orders:
        engine._check_order(sigma)
    numerator = 0
    for solution in enumerate_solutions(formula):
        alpha = _as_value_map(solution)
        for sigma, multiplicity in orders.items():
            _, profile = engine._walk(sigma, None, 0, alpha)
            numerator += multiplicity << (n - profile.guessed)
    return Fraction(numerator, len(sigma_list) << n)


@dataclass(frozen=True)
class TrialRecord:
    """A single randomized run, serializable for the command line."""

    sigma_index: int
    beta: tuple[int, ...]
    result: tuple[int, ...] | None
    profile: GuessProfile

    def to_dict(self) -> dict:
        return {
            "sigma_index": self.sigma_index,
            "beta": list(self.beta),
            "result": list(self.result) if self.result is not None else None,
            "guess_profile": {
                "entries": [
                    {"variable": v, "literal": lit, "provenance": prov}
                    for v, lit, prov in self.profile.entries
                ],
                "guessed": self.profile.guessed,
                "bits_consumed": self.profile.bits_consumed,
                "exhausted": self.profile.exhausted,
            },
        }


def ppsz_randomized(
    formula: Formula,
    perms,
    cfg: ImplicationConfig | None = None,
    seed: int = 0,
    engine: PpszEngine | None = None,
) -> TrialRecord:
    """One randomized trial: uniform order index, uniform bit vector of
    length n. Fully reproducible from the seed."""
    rng = random.Random(seed)
    sigma_index = rng.randrange(len(perms))
    n = formula.n
    beta_value = rng.getrandbits(n) if n else 0
    sigma = perms.permutation(sigma_index) if hasattr(perms, "permutation") else tuple(perms[sigma_index])
    engine = engine or PpszEngine(formula, cfg)
    avals, profile = engine._walk(sigma, beta_value, n, None)
    result = None
    if avals is not None:
        result = tuple(
            v if (avals >> i) & 1 else -v for i, v in enumerate(formula.variables)
        )
    beta_bits = tuple((beta_value >> (n - 1 - i)) & 1 for i in range(n))
    return TrialRecord(sigma_index=sigma_index, beta=beta_bits, result=result, profile=profile)

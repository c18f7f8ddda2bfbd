"""The core solving step and its exact probability accounting.

Modify walks the variables in a given order. At each variable it first asks
the bounded-subset implication engine for a pinned literal; a hit is
appended as "forced" and consumes nothing. Otherwise the next bit of the
supplied bit vector decides the value ("guessed"); running out of bits
before a guess is needed aborts the run. A finished assignment is returned
only if it satisfies the formula, the bottom value None otherwise.

Guess profiles come out of the same walk: a replay against a known solution
feeds the guesses from that solution instead of a bit vector, so the count
of guessed variables is produced by the identical code path that the solver
itself runs.
"""

from __future__ import annotations

import random
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
class BitVector:
    """An explicit bit supply with a cursor; exhaustion is observable state,
    not an error."""

    bits: tuple[int, ...]
    cursor: int = 0

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitVector":
        if value < 0 or value >= 1 << length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        return cls(tuple((value >> (length - 1 - i)) & 1 for i in range(length)))

    @property
    def remaining(self) -> tuple[int, ...]:
        return self.bits[self.cursor :]

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.bits)

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class GuessProfile:
    """Per-variable record of one Modify walk, in processing order."""

    entries: tuple[tuple[int, int, str], ...]  # (variable, literal, provenance)
    bits_consumed: int
    exhausted: bool

    @property
    def guessed(self) -> int:
        return sum(1 for _, _, prov in self.entries if prov == GUESSED)

    def indicator(self, var: int) -> int:
        for v, _, prov in self.entries:
            if v == var:
                return 1 if prov == GUESSED else 0
        raise KeyError(var)

    def provenance_map(self) -> dict[int, str]:
        return {v: prov for v, _, prov in self.entries}


@dataclass(frozen=True)
class ModifyResult:
    assignment: Assignment | None
    profile: GuessProfile

    @property
    def succeeded(self) -> bool:
        return self.assignment is not None


class PpszEngine:
    """Shared machinery for running many Modify walks over one formula:
    one implication index (with its memo) plus precomputed clause masks
    for the final satisfaction check. Counts every walk it performs."""

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

    def modify(self, sigma: Sequence[int], bits: BitVector | Sequence[int]) -> ModifyResult:
        sigma = tuple(sigma)
        if len(sigma) != self.formula.n or set(sigma) != set(self.formula.variables):
            raise ValueError("sigma must order exactly the formula's variables")
        if isinstance(bits, BitVector):
            supply = bits.remaining
        else:
            supply = tuple(bits)
        value = 0
        for b in supply:
            value = (value << 1) | (1 if b else 0)
        avals, profile = self._walk(tuple(sigma), value, len(supply), None)
        if avals is None:
            return ModifyResult(None, profile)
        assignment = Assignment(tuple((lit, prov) for _, lit, prov in profile.entries))
        return ModifyResult(assignment, profile)

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


def modify(
    formula: Formula,
    sigma: Sequence[int],
    bits: BitVector | Sequence[int],
    cfg: ImplicationConfig | None = None,
) -> ModifyResult:
    """One-shot Modify walk. Deterministic in all arguments."""
    return PpszEngine(formula, cfg).modify(sigma, bits)


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
    """Pr[a run over uniform (order, bits) returns a solution], computed by
    enumerating every pair outright. Exact rational arithmetic."""
    sigma_list = _as_permutation_list(perms)
    n = formula.n
    total = len(sigma_list) << n
    if total > max_evaluations:
        raise EnumerationBudgetError(
            f"{len(sigma_list)} orders x 2^{n} bit vectors exceed the budget of {max_evaluations}"
        )
    engine = PpszEngine(formula, cfg)
    walk = engine._walk
    successes = 0
    space = 1 << n
    for sigma in sigma_list:
        for value in range(space):
            avals, _ = walk(sigma, value, n, None)
            if avals is not None:
                successes += 1
    return Fraction(successes, total)


def success_probability_via_identity(
    formula: Formula,
    perms,
    cfg: ImplicationConfig | None = None,
) -> Fraction:
    """The same probability assembled solution by solution: each solution
    contributes the average over orders of 2^(-guessed). Exact rationals;
    must agree with the exhaustive route to the last bit."""
    sigma_list = _as_permutation_list(perms)
    n = formula.n
    engine = PpszEngine(formula, cfg)
    solutions = enumerate_solutions(formula)
    numerator = 0
    for solution in solutions:
        alpha = _as_value_map(solution)
        for sigma in sigma_list:
            _, profile = engine._walk(sigma, None, 0, alpha)
            numerator += 1 << (n - profile.guessed)
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

"""The core solving step and its exact probability accounting.

Modify walks the variables in a given order. At each variable it first asks
the bounded-subset implication engine for a pinned literal; a hit is
appended as "forced" and consumes nothing. Otherwise the next bit of the
supplied bit sequence decides the value ("guessed"); running out of bits
before a guess is needed aborts the run. `PpszEngine.modify` returns a pair:
the finished assignment if it satisfies the formula (None otherwise), and
the walk's guess profile. The profile's entries are the walk's
(literal, provenance) pairs, the layout of `Assignment.entries`, and its
`guessed` is counted by the walk. The randomized trial is one `modify`
call. Every order handed to `modify` or to either probability route must
list each variable exactly once.

Guess profiles come out of the same walk: a replay against a known solution
feeds the guesses from that solution instead of a bit vector, so the count
of guessed variables is produced by the identical code path that the solver
itself runs.

The exact success probability does not replay every (order, bit vector)
pair. A walk reads only the bits its guesses consume, so for one order the
2^n bit vectors form a binary guess tree: a forced step has one child, a
guessed step one child per bit value, and a leaf reached after `used`
guesses stands for the 2^(n - used) vectors that share its prefix.

Both guess-tree searches, this count and `dppsz`'s round search, take
their steps in `PpszEngine._descend`, which runs a node down its 0-branches
and hands the 1-branches it passes back to the caller. Both read their
orders off one table, `permutations.distinct_orders`: each distinct order
once, with its multiplicity, as a rank order that `_descend` reads in
place through one (variable, bit) cell per rank.

A guess-tree search visits only the branches that some solution extends.
A node's live set, the solutions that extend its state, is the only place
a successful leaf can come from. A forced step never shrinks it, since the
implication rule is sound on a satisfiable residual, so it changes only at
guesses: a guess branches on a value only if some live solution takes it.
So a leaf needs no satisfaction test: its total state has a nonempty live
set, and is therefore a solution. The walk itself (`modify`, `replay`,
the randomized trial) is not pruned, because it reports the profile of a
failed walk too.

The two probability routes share one engine per (formula, tau): the last
one either route built, held in a one-slot cache. Run back to back on one
formula, as the identity check does, the second route reads every implied
literal from the memo the first one filled (while the memo stays under
its limit). The identity route's walk
along a solution alpha under an order is one root-to-leaf path of that
order's guess tree, since alpha stays live at every prefix and every
forced literal agrees with it. A memoized answer is a function of the
state, the variable and tau alone, so the identity route stays an
independent check of the guess-tree accounting: it replays each walk
through `_walk`, not through `_descend`, and adds up its own numerator.
Every other caller builds its own engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .cnf import FORCED, GUESSED, Assignment, Formula
from .implication import ImplicationIndex
from .oracle import enumerate_solutions
from .permutations import distinct_orders

DEFAULT_EVALUATION_BUDGET = 1 << 23


class EnumerationBudgetError(RuntimeError):
    """An exhaustive probability computation would be too large."""


@dataclass(frozen=True)
class GuessProfile:
    """Per-variable record of one Modify walk, in processing order: the
    (literal, provenance) pairs of an `Assignment`, and how many of them
    were guessed."""

    entries: tuple[tuple[int, str], ...]
    guessed: int
    bits_consumed: int
    exhausted: bool


class PpszEngine:
    """Shared machinery for running many Modify walks over one formula:
    one implication index (with its memo and the formula's solution mask,
    which the walk's success test reads). `modify_calls` counts the
    physical `_walk` calls made on this engine. A guess-tree search
    (`count_successes` or `dppsz`'s) is not a walk and is not counted;
    `dppsz` reports the logical walk count of its scan itself and does not
    read this one."""

    def __init__(self, formula: Formula, tau: int | None = None):
        self.formula = formula
        self.index = ImplicationIndex(formula, tau)
        self._bit = {v: 1 << i for i, v in enumerate(formula.variables)}
        # per variable, the total assignments setting it to 1 and to 0: a
        # guess splits a live set with them
        self._halves = {
            v: (self.index._true_masks[i], self.index._false_masks[i])
            for i, v in enumerate(formula.variables)
        }
        self._full = (1 << formula.n) - 1
        self.modify_calls = 0

    def _walk(
        self,
        sigma: Sequence[int],
        beta_value: int | None,
        beta_length: int,
        alpha: Mapping[int, bool] | None,
        amask: int = 0,
        avals: int = 0,
    ) -> tuple[int | None, GuessProfile]:
        self.modify_calls += 1
        implied = self.index.implied_literal
        bit_of = self._bit
        entries: list[tuple[int, str]] = []
        used = guessed = 0
        for var in sigma:
            lit = implied(amask, avals, var)
            if lit:
                prov = FORCED
            else:
                if alpha is not None:
                    positive = alpha[var]
                else:
                    if used == beta_length:
                        return None, GuessProfile(tuple(entries), guessed, used, exhausted=True)
                    positive = (beta_value >> (beta_length - 1 - used)) & 1
                    used += 1
                lit = var if positive else -var
                prov = GUESSED
                guessed += 1
            bit = bit_of[var]
            amask |= bit
            if lit > 0:
                avals |= bit
            entries.append((lit, prov))
        profile = GuessProfile(tuple(entries), guessed, used, exhausted=False)
        if amask == self._full and (self.index._solutions >> avals) & 1:
            return avals, profile
        return None, profile

    def _descend(
        self, ranks: Sequence[int], cells: list, node: tuple, live: int, pending: list, limit: int
    ) -> int:
        """Run a guess-tree node down its 0-branches to a leaf; return the
        leaf's guess count if its walk succeeds and -1 otherwise.

        The order is `ranks` read through `cells`, a (variable, bit) pair per
        rank. node is (position in ranks, amask, avals, guesses used,
        guessed-bit prefix), and live is its live set, not empty. Each step
        takes `_walk`'s decision: a forced literal goes straight on, and a
        guess past `limit` bits ends the walk. A guess appends its 1-branch,
        as a node, to `pending` if a live solution sets the variable to 1,
        and goes on with 0 while one sets it to 0.
        """
        implied = self.index.implied_literal
        halves = self._halves
        position, amask, avals, used, prefix = node
        for position in range(position, len(ranks)):
            var, bit = cells[ranks[position]]
            lit = implied(amask, avals, var)
            amask |= bit
            if lit:
                if lit > 0:
                    avals |= bit
            elif used == limit:
                return -1  # out of bits: `_walk` reports exhaustion
            else:
                used += 1
                prefix <<= 1
                ones, zeros = halves[var]
                if live & ones:
                    pending.append((position + 1, amask, avals | bit, used, prefix | 1))
                live &= zeros
                if not live:
                    return -1  # no solution sets var to 0 here
        # a forced step keeps every live solution, so a total state reached
        # with a nonempty live set is a solution
        return used if amask == self._full else -1

    def count_successes(self, sigma: Sequence[int]) -> int:
        """How many of the 2^n bit vectors make the walk over sigma succeed.
        sigma must list each variable exactly once (ValueError otherwise).

        `_descend` runs each node of the guess tree down once, from a
        stack of pending 1-branches, and a successful leaf after `used`
        guesses adds 2^(n - used). Only branches that some solution
        extends are visited (module docstring), so the count is the full
        tree's. The stack is explicit: a self-recursive closure would form
        a reference cycle that keeps the index and its memo alive until
        the cyclic collector runs.
        """
        return self._count(range(len(sigma)), self._check_order(sigma))

    def _count(self, ranks: Sequence[int], cells: list) -> int:
        """count_successes for the order `ranks` read through `cells`."""
        n = self.formula.n
        live_of = self.index.live
        successes = 0
        pending = [(0, 0, 0, 0, 0)]
        while pending:
            node = pending.pop()
            live = live_of(node[1], node[2])  # empty only at an unsatisfiable root
            if live:
                used = self._descend(ranks, cells, node, live, pending, n)
                if used >= 0:
                    successes += 1 << (n - used)
        return successes

    def _check_order(self, sigma: Sequence[int], amask: int = 0) -> list[tuple[int, int]]:
        """The (variable, bit) pair of each step of sigma; ValueError unless
        sigma lists each variable free in amask exactly once."""
        bit_of = self._bit
        if sorted(sigma) != [v for v in self.formula.variables if not amask & bit_of[v]]:
            free = " that the start state leaves free" if amask else ""
            raise ValueError(f"sigma must order exactly the formula's variables{free}")
        return [(v, bit_of[v]) for v in sigma]

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
        return Assignment(profile.entries), profile

    def replay(self, alpha: Mapping[int, bool] | Iterable[int], sigma: Sequence[int]) -> GuessProfile:
        """Walk sigma (each variable once, else ValueError) with guesses read
        off a reference solution; the walk reproduces it, for its profile."""
        sigma = tuple(sigma)
        self._check_order(sigma)
        alpha_map = alpha if isinstance(alpha, Mapping) else _as_value_map(alpha)
        avals, profile = self._walk(sigma, None, 0, alpha_map)
        if avals is None:
            raise ValueError("replay reference is not a solution of the formula")
        return profile


def _as_value_map(literals: Iterable[int]) -> dict[int, bool]:
    return {abs(lit): lit > 0 for lit in literals}


@lru_cache(maxsize=1)
def _probability_engine(formula: Formula, tau: int | None) -> PpszEngine:
    """The engine both probability routes use for (formula, tau). The slot
    holds one engine, so its memo lives until a route is run on another
    formula or tau."""
    return PpszEngine(formula, tau)


def success_probability_exact(formula: Formula, perms, tau: int | None = None) -> Fraction:
    """Pr[a run over uniform (order, bits) returns a solution]. Exact
    rational arithmetic.

    Each distinct order of the table `distinct_orders` reads off perms is
    counted once (`count_successes`), which accounts for all 2^n bit
    vectors at once, and weighted by its multiplicity. The budget,
    DEFAULT_EVALUATION_BUDGET, still counts (order, bit vector) pairs,
    |perms| x 2^n, not physical walks, and is checked before an engine is
    built. The engine is the one both routes share for (formula, tau)
    (module docstring). An order that skips or repeats a variable raises
    ValueError.
    """
    size, variables, orders = distinct_orders(perms)
    n = formula.n
    total = size << n
    if total > DEFAULT_EVALUATION_BUDGET:
        raise EnumerationBudgetError(
            f"{size} orders x 2^{n} bit vectors exceed the budget of {DEFAULT_EVALUATION_BUDGET}"
        )
    engine = _probability_engine(formula, tau)
    cells = engine._check_order(variables)
    successes = sum(count * engine._count(ranks, cells) for ranks, count in orders.values())
    return Fraction(successes, total)


def success_probability_via_identity(
    formula: Formula,
    perms,
    tau: int | None = None,
) -> Fraction:
    """The same probability assembled solution by solution: each solution
    contributes the average over orders of 2^(-guessed), each distinct
    order of the same table replayed once and weighted by its
    multiplicity. Exact rationals; must agree with the guess-tree route to
    the last bit. An order that skips or repeats a variable raises
    ValueError.

    The engine, and so its memo of implied literals, is the one the
    guess-tree route uses for (formula, tau) (module docstring). The
    check stays independent: each replay is a `_walk` with the solution's
    values as guesses, so its guess count comes from the solver's own
    step loop, not from the guess-tree descent it is compared with."""
    size, variables, orders = distinct_orders(perms)
    n = formula.n
    engine = _probability_engine(formula, tau)
    cells = engine._check_order(variables)
    sigmas = [(tuple(variables[r] for r in ranks), count) for ranks, count in orders.values()]
    numerator = 0
    for solution in enumerate_solutions(formula):
        alpha = _as_value_map(solution)
        for sigma, multiplicity in sigmas:
            _, profile = engine._walk(sigma, None, 0, alpha)
            numerator += multiplicity << (n - profile.guessed)
    return Fraction(numerator, size << n)


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
                    {"variable": abs(lit), "literal": lit, "provenance": prov}
                    for lit, prov in self.profile.entries
                ],
                "guessed": self.profile.guessed,
                "bits_consumed": self.profile.bits_consumed,
                "exhausted": self.profile.exhausted,
            },
        }


def ppsz_randomized(
    formula: Formula,
    perms,
    tau: int | None = None,
    seed: int = 0,
) -> TrialRecord:
    """One randomized trial: uniform order index, uniform bit vector of
    length n, walked by `PpszEngine.modify`. Fully reproducible from the
    seed. The family must hold an order, and the drawn order must list
    each variable exactly once (ValueError otherwise)."""
    if not len(perms):
        raise ValueError("an order family needs at least one order")
    rng = random.Random(seed)
    sigma_index = rng.randrange(len(perms))
    n = formula.n
    beta_value = rng.getrandbits(n)
    sigma = perms.permutation(sigma_index) if hasattr(perms, "permutation") else tuple(perms[sigma_index])
    beta = tuple((beta_value >> (n - 1 - i)) & 1 for i in range(n))
    assignment, profile = PpszEngine(formula, tau).modify(sigma, beta)
    result = None if assignment is None else assignment.sorted_literals()
    return TrialRecord(sigma_index=sigma_index, beta=beta, result=result, profile=profile)

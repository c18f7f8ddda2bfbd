"""The core solving step and its exact probability accounting.

Modify walks the variables in a given order. At each variable it first asks
the bounded-subset implication engine for a pinned literal; a hit is
"forced" and consumes nothing. Otherwise the next bit of the supplied bit
sequence decides the value ("guessed"); running out of bits before a guess
is needed aborts the run. `PpszEngine.modify` returns a pair: the finished
assignment if it satisfies the formula (None otherwise), and the walk's
guess profile. The walk keeps its path as ints: its state, the bits of its
forced steps and its guess count. The profile's `entries`, the walk's
(literal, provenance) pairs in the layout of `Assignment.entries`, are
built from those when first read; the identity route reads only
`guessed`. The randomized trial is one `modify` call. Every order handed
to `modify` or to either probability route must list each variable
exactly once.

Guess profiles come out of the same walk: a replay against a known solution
feeds the guesses from that solution instead of a bit vector, so the count
of guessed variables is produced by the identical code path that the solver
itself runs.

The exact success probability does not replay every (order, bit vector)
pair. A walk reads only the bits its guesses consume, so for one order the
2^n bit vectors form a binary guess tree: a forced step has one child, a
guessed step one child per bit value, and a leaf reached after g guesses
stands for the 2^(n - g) vectors that share its prefix.

A guess-tree search visits only the branches that some solution extends.
A node's live set, the solutions that extend its state, is the only place
a successful leaf can come from. A forced step never shrinks it, since the
implication rule is sound on a satisfiable residual, so it changes only at
guesses: a guess branches on a value only if some live solution takes it.
So a leaf needs no satisfaction test: its total state has a nonempty live
set, and is therefore a solution. The walk itself (`modify`, `replay`,
the randomized trial) is not pruned, because it reports the profile of a
failed walk too, but it carries its live set from its start state, and
its success test is the same: a total state with a nonempty live set.

Every walker reads an order as `_check_order`'s (variable, bit, ones)
cells and splits a live set one way: `one = live & ones` and `live ^ one`.
If the live solutions take both values of a variable, no clause subset
implies it, so the step is a guess with no lookup. The count and `_walk`
apply this both-live rule. `dppsz`'s round search (`unique._first_hit`)
does not: at large n it would pay the extra ANDs of 2^n-bit live sets at
every forced step.

The count is a DAG, not a tree per order. A node's count depends only on
its state and the rest of its order, so orders with a common suffix reach
the same nodes. `_count` reads the table `permutations.distinct_orders`
gives (each distinct order once, with its multiplicity, as a rank order
read in place through the cell of each rank), numbers its
suffixes as a reversed trie, and counts each (state, suffix) node once.

The two probability routes share one engine per (formula, tau): the last
one either route built, held in a one-slot cache. Run back to back on one
formula, as the identity check does, the second route reads every implied
literal from the memo the first one filled (while the memo stays under
its limit). The identity route's walk along a solution alpha under an
order is one root-to-leaf path of that order's guess tree, since alpha
stays live at every prefix and every forced literal agrees with it, and
it skips the same both-live steps the count skips. A memoized answer is
a function of the state, the variable and tau alone, so the identity
route stays an independent check of the guess-tree accounting: it
replays each walk through `_walk`, not through the count, and adds up its
own numerator.
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


class GuessProfile:
    """Per-variable record of one Modify walk, in processing order: the
    (literal, provenance) pairs of an `Assignment`, and how many of them
    were guessed. A walk on bits reads one bit per guess, so `guessed` also
    counts the bits it consumed; a replay reads none.

    The walk hands over ints, not pairs: its cells, its end avals, the
    bits of its forced steps and `guessed`. Its steps are the first
    `guessed` + |forced| cells, and `entries` is built from them when
    first read. Two profiles are equal when their entries and guess counts
    are."""

    __slots__ = ("_cells", "_avals", "_forced", "guessed", "_entries")

    def __init__(self, cells: Sequence[tuple[int, int, int]], avals: int, forced: int, guessed: int):
        self._cells = cells
        self._avals = avals
        self._forced = forced
        self.guessed = guessed
        self._entries: tuple[tuple[int, str], ...] | None = None

    @property
    def entries(self) -> tuple[tuple[int, str], ...]:
        entries = self._entries
        if entries is None:
            avals, forced = self._avals, self._forced
            steps = self.guessed + forced.bit_count()
            self._entries = entries = tuple(
                (var if avals & bit else -var, FORCED if forced & bit else GUESSED)
                for var, bit, _ in self._cells[:steps]
            )
        return entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GuessProfile):
            return NotImplemented
        return self.guessed == other.guessed and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries, self.guessed))

    def __repr__(self) -> str:
        return f"GuessProfile(entries={self.entries!r}, guessed={self.guessed!r})"


class PpszEngine:
    """Shared machinery for running many Modify walks over one formula:
    one implication index, which alone encodes the formula (a variable's
    bit in a state is `index.bit_of[v]`), with its memo and the live sets
    a walk carries and splits (`ImplicationIndex.live`, `.ones_of`).
    `modify_calls` counts the physical `_walk` calls made on this engine.
    A guess-tree search (the count here, or `dppsz`'s first-hit search in
    `unique`, which reads the index directly) is not a walk and is not
    counted; `dppsz` reports the logical walk count of its scan itself and
    does not read this one."""

    def __init__(self, formula: Formula, tau: int | None = None):
        self.formula = formula
        self.index = ImplicationIndex(formula, tau)
        self.modify_calls = 0

    def _walk(
        self,
        cells: Sequence[tuple[int, int, int]],
        beta_value: int | None,
        beta_length: int,
        alpha: int | None,
        amask: int = 0,
        avals: int = 0,
    ) -> tuple[int | None, GuessProfile]:
        """The walk over cells from (amask, avals): its final avals (None
        unless a solution) and profile. A guess reads beta's next bit, or
        alpha's bit when alpha, a reference solution's state, is given.
        The loop holds only ints: the state, the live set, the bits of the
        forced steps and the guess count, from which the profile rebuilds
        the steps when read."""
        self.modify_calls += 1
        implied = self.index.implied_literal
        live = self.index.live(amask, avals)
        forced = guessed = 0
        for var, bit, ones in cells:
            one = live & ones
            # live solutions on both sides: no clause subset implies var
            lit = 0 if one and one != live else implied(amask, avals, var)
            if lit:
                forced |= bit
                positive = lit > 0
            else:
                if alpha is not None:
                    positive = alpha & bit
                elif guessed == beta_length:
                    return None, GuessProfile(cells, avals, forced, guessed)
                else:
                    positive = (beta_value >> (beta_length - 1 - guessed)) & 1
                guessed += 1
            amask |= bit
            if positive:
                avals |= bit
                live = one
            else:
                live ^= one
        profile = GuessProfile(cells, avals, forced, guessed)
        # the order covers every variable the start state leaves free, so
        # the state is total, and a live solution extends it: it is that one
        if live:
            return avals, profile
        return None, profile

    def count_successes(self, sigma: Sequence[int]) -> int:
        """How many of the 2^n bit vectors make the walk over sigma succeed.
        sigma must list each variable exactly once (ValueError otherwise).
        The count of a one-order table (`_count`)."""
        return self._count([(range(len(sigma)), 1)], self._check_order(sigma))

    def _count(self, orders: Iterable[tuple[Sequence[int], int]], cells: list) -> int:
        """The sum over (ranks, multiplicity) pairs of multiplicity times
        the number of bit vectors whose walk over the order `ranks`, read
        through `cells`, succeeds.

        The orders' suffixes are numbered as a reversed trie: the suffix
        ranks[d:] is the step (ranks[d], id of ranks[d + 1:]), and the
        empty suffix is 0. Ids are multiples of 2^n, so a node's memo key
        is its suffix id plus its avals; its amask is the complement of
        the suffix's variables. Only a suffix that two distinct orders end
        with can be reached twice, so only its nodes are kept (`_tally`).
        """
        n = self.formula.n
        live = self.index.live(0, 0)
        if not live:
            return 0
        full = (1 << n) - 1
        steps: dict[int, list] = {}  # suffix id -> [variable, bit, ones, amask, next id, shared]
        ids: dict[tuple[int, int], int] = {}
        roots = []
        for ranks, multiplicity in orders:
            sid = free = 0
            for rank in reversed(ranks):
                var, bit, ones = cells[rank]
                free |= bit
                step = ids.setdefault((rank, sid), (len(ids) + 1) << n)
                if step in steps:
                    steps[step][5] = True
                else:
                    steps[step] = [var, bit, ones, full ^ free, sid, False]
                sid = step
            roots.append((sid, multiplicity))
        memo: dict[int, int] = {}
        tally = self._tally
        return sum(multiplicity * tally(sid, 0, live, steps, memo) for sid, multiplicity in roots)

    def _tally(self, sid: int, avals: int, live: int, steps: dict, memo: dict) -> int:
        """The count f of a guess-tree node: the state avals with the rest
        of the order, suffix sid, still to walk, and live, the node's live
        set, not empty. f is the sum over the node's successful leaves of
        2^(steps left - guesses below the node), so f = 2 f(child) at a
        forced step, f = f(child 0) + f(child 1) at a guess, and a root's f
        is its order's count.

        A step whose live solutions take both values of its variable is a
        guess with no lookup: no clause subset implies the variable. Only
        that guess has two live children. At any other step every live
        solution takes one value, so only that child is live, with the same
        live set, and the lookup comes before the recursion and decides
        only whether the step doubles. A total state with a live set is a
        solution: its f is 1. Each node is one call, and a node of a shared
        suffix is looked up in, and stored to, memo under sid | avals. The
        recursion is a method's: a nested function that calls itself would
        form a reference cycle that keeps the index and its memo alive
        until the cyclic collector runs."""
        if not sid:
            return 1
        var, bit, ones, amask, step, shared = steps[sid]
        if shared:
            f = memo.get(sid | avals)
            if f is not None:
                return f
        one = live & ones
        if one and one != live:
            f = self._tally(step, avals | bit, one, steps, memo)
            f += self._tally(step, avals, live ^ one, steps, memo)
        else:
            lit = self.index.implied_literal(amask, avals, var)
            f = self._tally(step, avals | bit if one else avals, live, steps, memo)
            if lit:
                f <<= 1
        if shared:
            memo[sid | avals] = f
        return f

    def _check_order(self, sigma: Sequence[int], amask: int = 0) -> list[tuple[int, int, int]]:
        """The cell (variable, bit, ones_of[variable]) of each step of sigma;
        ValueError unless sigma lists each variable free in amask exactly once."""
        bit_of, ones_of = self.index.bit_of, self.index.ones_of
        if sorted(sigma) != [v for v in self.formula.variables if not amask & bit_of[v]]:
            free = " that the start state leaves free" if amask else ""
            raise ValueError(f"sigma must order exactly the formula's variables{free}")
        return [(v, bit_of[v], ones_of[v]) for v in sigma]

    def modify(
        self, sigma: Sequence[int], bits: Sequence[int]
    ) -> tuple[Assignment | None, GuessProfile]:
        """One walk over sigma, guesses read from bits in order. Returns the
        finished assignment (None unless it satisfies the formula) and the
        walk's profile."""
        cells = self._check_order(tuple(sigma))
        value = 0
        for b in bits:
            value = (value << 1) | (1 if b else 0)
        avals, profile = self._walk(cells, value, len(bits), None)
        if avals is None:
            return None, profile
        return Assignment(profile.entries), profile

    def replay(self, alpha: Mapping[int, bool] | Iterable[int], sigma: Sequence[int]) -> GuessProfile:
        """Walk sigma (each variable once) with guesses read off a reference
        solution alpha, as values or literals, for its profile. ValueError
        unless alpha assigns each variable once and the walk reproduces it,
        as it does a solution: every forced literal agrees with it."""
        cells = self._check_order(tuple(sigma))
        literals = [v if alpha[v] else -v for v in alpha] if isinstance(alpha, Mapping) else list(alpha)
        if sorted(map(abs, literals)) != list(self.formula.variables):
            raise ValueError("replay reference must assign each of the formula's variables once")
        target = sum(self.index.bit_of[lit] for lit in literals if lit > 0)
        avals, profile = self._walk(cells, None, 0, target)
        if avals != target:
            raise ValueError("replay reference is not a solution of the formula")
        return profile


@lru_cache(maxsize=1)
def _probability_engine(formula: Formula, tau: int | None) -> PpszEngine:
    """The engine both probability routes use for (formula, tau). The slot
    holds one engine, so its memo lives until a route is run on another
    formula or tau."""
    return PpszEngine(formula, tau)


def _budgeted_pairs(size: int, n: int) -> int:
    """The (order, bit vector) pairs of size orders over n variables,
    size x 2^n; EnumerationBudgetError past DEFAULT_EVALUATION_BUDGET."""
    total = size << n
    if total > DEFAULT_EVALUATION_BUDGET:
        raise EnumerationBudgetError(
            f"{size} orders x 2^{n} bit vectors exceed the budget of {DEFAULT_EVALUATION_BUDGET}"
        )
    return total


def success_probability_exact(formula: Formula, perms, tau: int | None = None) -> Fraction:
    """Pr[a run over uniform (order, bits) returns a solution]. Exact
    rational arithmetic.

    The table `distinct_orders` reads off perms is counted in one pass
    (`PpszEngine._count`), which accounts for all 2^n bit vectors of each
    distinct order, weighs each order by its multiplicity, and counts a
    (state, remaining order) node that several orders share once. The budget,
    DEFAULT_EVALUATION_BUDGET, still counts (order, bit vector) pairs,
    |perms| x 2^n, not physical walks, and is checked before an engine is
    built. The engine is the one both routes share for (formula, tau)
    (module docstring). An order that skips or repeats a variable raises
    ValueError.
    """
    size, variables, orders = distinct_orders(perms)
    total = _budgeted_pairs(size, formula.n)
    engine = _probability_engine(formula, tau)
    return Fraction(engine._count(orders.values(), engine._check_order(variables)), total)


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
    ValueError. A family past the guess-tree route's budget raises
    EnumerationBudgetError before an engine is built.

    The engine, and so its memo of implied literals, is the one the
    guess-tree route uses for (formula, tau) (module docstring). The
    check stays independent: each replay is a `_walk` with the solution's
    values as guesses, so its guess count comes from the solver's own
    step loop, not from the guess-tree count it is compared with."""
    size, variables, orders = distinct_orders(perms)
    n = formula.n
    total = _budgeted_pairs(size, n)
    engine = _probability_engine(formula, tau)
    cells = engine._check_order(variables)
    walks = [([cells[r] for r in ranks], count) for ranks, count in orders.values()]
    numerator = 0
    for solution in enumerate_solutions(formula):
        alpha = sum(engine.index.bit_of[lit] for lit in solution if lit > 0)
        for order, multiplicity in walks:
            _, profile = engine._walk(order, None, 0, alpha)
            numerator += multiplicity << (n - profile.guessed)
    return Fraction(numerator, total)


@dataclass(frozen=True)
class TrialRecord:
    """A single randomized run, serializable for the command line; beta
    holds one bit per variable."""

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
                "bits_consumed": self.profile.guessed,
                "exhausted": len(self.profile.entries) < len(self.beta),
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

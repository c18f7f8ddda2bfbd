"""Bounded-subset implication.

A literal over x is implied by a sub-CNF J (at most tau clauses) when every
solution of J over V(J) contains it. An unsatisfiable J whose variables
include x implies both polarities vacuously; that case reports the positive
literal, a fixed tie rule. Note this is genuinely subset implication, not a
bounded resolution approximation.

The candidate order is pinned so every caller is deterministic: subset sizes
ascending, and within one size the index combinations over the formula's
canonical clause order, lexicographically. The first implying subset wins.

The index below skips, for subsets of three clauses or more, every subset
the union bound proves cannot decide x. A subset J decides x only if J with
x=0 or J with x=1 is unsatisfiable; that covers both J implying a literal
over x and the vacuous case. A CNF whose clauses' 2^-width sum to less than
one is satisfiable, since a uniformly random assignment falsifies each
clause with probability 2^-width. Only non-deciding subsets are skipped and
the order is kept, so the first hit, and with it every answer, is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .cnf import Clause, Formula
from .oracle import SolutionSet, enumerate_solutions

MAX_DEFAULT_TAU = 4


def default_tau(n: int) -> int:
    """floor(log2 n), clamped to [1, 4]: deep enough to be interesting at
    desk scale, shallow enough that subset enumeration stays affordable."""
    if n < 1:
        return 1
    return min(MAX_DEFAULT_TAU, max(1, n.bit_length() - 1))


@dataclass(frozen=True)
class ImplicationConfig:
    """The implication search's subset size bound.

    tau=None derives the default from the formula size at the point of use.
    """

    tau: int | None = None

    def resolve_tau(self, n: int) -> int:
        if self.tau is not None:
            if self.tau < 1:
                raise ValueError("tau must be at least 1")
            return self.tau
        return default_tau(n)

    @property
    def tau_is_derived(self) -> bool:
        return self.tau is None


def sub_cnf_solutions(clauses: Iterable[Clause] | Formula) -> SolutionSet:
    """Solutions of a clause collection over exactly the variables it
    mentions (not some enclosing formula's variable set)."""
    if isinstance(clauses, Formula):
        clause_tuple = clauses.clauses
    else:
        clause_tuple = tuple(tuple(c) for c in clauses)
    mentioned = sorted({abs(lit) for clause in clause_tuple for lit in clause})
    sub = Formula.from_clauses(clause_tuple, variables=mentioned)
    return enumerate_solutions(sub)


def _implied_by_subset(subset: Sequence[Clause], x: int) -> int | None:
    """The literal over x that this particular sub-CNF pins, if any."""
    if not any(abs(lit) == x for clause in subset for lit in clause):
        return None
    sols = sub_cnf_solutions(subset)
    if sols.count == 0:
        return x  # vacuous: both polarities implied, positive by convention
    x_true = all(x in sol for sol in sols)
    if x_true:
        return x
    x_false = all(-x in sol for sol in sols)
    if x_false:
        return -x
    return None


def tau_implied(formula: Formula, x: int, cfg: ImplicationConfig | None = None) -> int | None:
    """First literal over x implied by some sub-CNF of at most tau clauses,
    or None. This is the reference implementation: small, slow, and used as
    the verifier for the memoized fast path in the solver engine."""
    cfg = cfg or ImplicationConfig()
    if x not in formula.variables:
        raise ValueError(f"variable {x} is not in the formula")
    tau = cfg.resolve_tau(formula.n)
    clauses = formula.clauses
    for size in range(1, min(tau, len(clauses)) + 1):
        for subset in combinations(clauses, size):
            lit = _implied_by_subset(subset, x)
            if lit is not None:
                return lit
    return None


def _polarity_masks(n: int) -> list[int]:
    """For each variable position j, the mask of all 2^n total assignments
    in which that variable is true (assignment s has variable j true iff
    bit j of s is set; the mask has bit s set for each such s)."""
    masks = []
    space = 1 << n
    for j in range(n):
        block = ((1 << (1 << j)) - 1) << (1 << j)  # one period: low zeros, high ones
        period = 1 << (j + 1)
        mask = block
        width = period
        while width < space:
            mask |= mask << width
            width *= 2
        masks.append(mask & ((1 << space) - 1))
    return masks


class ImplicationIndex:
    """Fast tau-implication over all restrictions of one fixed formula.

    A restriction state is a pair of bitmasks over variable positions:
    which variables are assigned, and to what. Each clause is precomputed
    as the set of total assignments satisfying it (one big integer with
    2^n bits), so "solutions of a sub-CNF consistent with the state" is a
    chain of integer ANDs. Results are memoized per (state, variable).

    By construction the answers match tau_implied on restrict(formula, a):
    the surviving clauses are swept in the same canonical order with the
    same first-hit rule. Tests hold the two implementations together.

    Sizes 1 and 2 are plain loops. Sizes 3..tau share one depth-first
    kernel that cuts a branch as soon as the union bound shows both x=0
    and x=1 stay satisfiable under every completion of it (module
    docstring). The cut drops only subsets that decide nothing, so the
    first hit in canonical order is the same one the full sweep finds.
    """

    VARIABLE_LIMIT = 20  # the per-clause masks hold 2^n bits

    def __init__(self, formula: Formula, cfg: ImplicationConfig | None = None):
        cfg = cfg or ImplicationConfig()
        self.formula = formula
        self.tau = cfg.resolve_tau(formula.n)
        n = formula.n
        if n > self.VARIABLE_LIMIT:
            raise ValueError(
                f"{n} variables exceed the implication index limit of {self.VARIABLE_LIMIT}"
            )
        self._n = n
        self._vars = formula.variables
        self._pos_of = {v: i for i, v in enumerate(self._vars)}
        self._space = (1 << (1 << n)) - 1  # all assignments
        true_masks = _polarity_masks(n)
        self._true_masks = true_masks
        self._false_masks = [self._space & ~m for m in true_masks]
        # clause -> (literal tuple, variable bitmask, satisfying-assignment mask)
        entries = []
        for clause in formula.clauses:
            vars_mask = 0
            falsify = self._space
            for lit in clause:
                j = self._pos_of[abs(lit)]
                vars_mask |= 1 << j
                falsify &= self._false_masks[j] if lit > 0 else self._true_masks[j]
            if not clause:
                sat_mask = 0  # the empty clause admits nothing
            else:
                sat_mask = self._space & ~falsify
            entries.append((clause, vars_mask, sat_mask))
        self._entries = entries
        self._state_cache: dict[
            tuple[int, int], tuple[list[int], list[int], list[Clause]]
        ] = {}
        self._result_cache: dict[tuple[int, int, int], int] = {}

    def _consistency_mask(self, amask: int, avals: int) -> int:
        mask = self._space
        bits = amask
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            mask &= self._true_masks[j] if (avals >> j) & 1 else self._false_masks[j]
            bits ^= low
        return mask

    def _survivors(
        self, amask: int, avals: int
    ) -> tuple[list[int], list[int], list[Clause]]:
        """Clause masks and residual literal tuples for the restriction at
        this state, ordered and deduplicated exactly as restrict() orders
        the residual clauses."""
        key = (amask, avals)
        cached = self._state_cache.get(key)
        if cached is not None:
            return cached
        consistent = self._consistency_mask(amask, avals)
        residual: dict[Clause, tuple[int, int]] = {}
        for clause, vars_mask, sat_mask in self._entries:
            satisfied = False
            rest: list[int] = []
            for lit in clause:
                j = self._pos_of[abs(lit)]
                if (amask >> j) & 1:
                    if ((avals >> j) & 1) == (lit > 0):
                        satisfied = True
                        break
                else:
                    rest.append(lit)
            if satisfied:
                continue
            rkey = tuple(rest)
            if rkey not in residual:
                residual[rkey] = (sat_mask & consistent, vars_mask & ~amask)
        ordered = sorted(residual)
        sat_masks = [residual[c][0] for c in ordered]
        var_masks = [residual[c][1] for c in ordered]
        cached = (sat_masks, var_masks, ordered)
        self._state_cache[key] = cached
        return cached

    def implied_literal(self, amask: int, avals: int, var: int) -> int:
        """The implied literal over var under the given restriction state,
        or 0. Memoized; var must be unassigned in the state."""
        xpos = self._pos_of[var]
        key = (amask, avals, xpos)
        hit = self._result_cache.get(key)
        if hit is not None:
            return hit
        result = self._sweep(amask, avals, var, xpos)
        self._result_cache[key] = result
        return result

    def _sweep(self, amask: int, avals: int, var: int, xpos: int) -> int:
        pm, rv, residual = self._survivors(amask, avals)
        m = len(pm)
        xbit = 1 << xpos
        xtrue = self._true_masks[xpos]
        xfalse = self._false_masks[xpos]
        tau = self.tau
        # size 1: only a unit clause over x (or shorter) can decide it
        for a in range(m):
            ma = pm[a]
            if ma == 0:
                continue  # the empty clause has no variables to decide
            if ma & xfalse == 0:
                return var
            if ma & xtrue == 0:
                return -var
        if tau >= 2:
            for a in range(m - 1):
                pa, ra = pm[a], rv[a]
                for b in range(a + 1, m):
                    mab = pa & pm[b]
                    if mab == 0:
                        if (ra | rv[b]) & xbit:
                            return var
                    elif mab & xfalse == 0:
                        return var
                    elif mab & xtrue == 0:
                        return -var
        if tau < 3 or m < 3:
            return 0
        return self._deep_sweep(pm, rv, residual, var, xbit, xtrue, xfalse)

    def _deep_sweep(
        self,
        pm: list[int],
        rv: list[int],
        residual: list[Clause],
        var: int,
        xbit: int,
        xtrue: int,
        xfalse: int,
    ) -> int:
        """Subsets of 3..tau clauses, depth first in canonical order, with
        every branch cut that the union bound proves holds no hit.

        Clause i weighs w0[i] on the x=0 side and w1[i] on the x=1 side:
        2^(K - width once x is fixed), or 0 where fixing x satisfies it,
        with K the largest residual width. A side whose weights sum below
        2^K is satisfiable, and a subset with both sides satisfiable
        decides nothing. With `left` clauses still to pick from i on, the
        rest of the loop is cut when the prefix sum plus `left` times the
        suffix maximum at i stays below 2^K on both sides (suffix maxima
        never increase, so no later i passes either); clause i alone is
        skipped when its own weight plus `left - 1` times the suffix
        maximum after it stays below 2^K on both sides.
        """
        m = len(pm)
        tau = self.tau
        top = 1 << max(map(len, residual))
        w0: list[int] = []
        w1: list[int] = []
        for clause in residual:
            if var in clause:
                w0.append(top >> (len(clause) - 1))
                w1.append(0)
            elif -var in clause:
                w0.append(0)
                w1.append(top >> (len(clause) - 1))
            else:
                w = top >> len(clause)
                w0.append(w)
                w1.append(w)
        s0 = [0] * (m + 1)
        s1 = [0] * (m + 1)
        for i in range(m - 1, -1, -1):
            s0[i] = max(w0[i], s0[i + 1])
            s1[i] = max(w1[i], s1[i + 1])

        def dive(start: int, left: int, mask: int, union: int, p0: int, p1: int) -> int:
            if left == 1:
                for i in range(start, m):
                    if p0 + s0[i] < top and p1 + s1[i] < top:
                        return 0  # no later clause can lift either side
                    if p0 + w0[i] < top and p1 + w1[i] < top:
                        continue
                    mi = mask & pm[i]
                    if mi == 0:
                        if (union | rv[i]) & xbit:
                            return var
                    elif mi & xfalse == 0:
                        return var
                    elif mi & xtrue == 0:
                        return -var
                return 0
            rest = left - 1
            for i in range(start, m - rest):
                if p0 + left * s0[i] < top and p1 + left * s1[i] < top:
                    return 0
                q0 = p0 + w0[i]
                q1 = p1 + w1[i]
                if q0 + rest * s0[i + 1] < top and q1 + rest * s1[i + 1] < top:
                    continue  # no completion through clause i
                hit = dive(i + 1, rest, mask & pm[i], union | rv[i], q0, q1)
                if hit:
                    return hit
            return 0

        for size in range(3, min(tau, m) + 1):
            hit = dive(0, size, -1, 0, 0, 0)
            if hit:
                return hit
        return 0

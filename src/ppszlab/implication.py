"""Bounded-subset implication.

A literal over x is implied by a sub-CNF J (at most tau clauses) when every
solution of J over V(J) contains it. An unsatisfiable J whose variables
include x implies both polarities vacuously; that case reports the positive
literal, a fixed tie rule. Note this is genuinely subset implication, not a
bounded resolution approximation.

The candidate order is pinned so every caller is deterministic: subset sizes
ascending, and within one size the index combinations over the formula's
canonical clause order, lexicographically. The first implying subset wins.

The index below memoizes each answer per restriction state, variable and
depth. It decides subsets of one and two clauses from the clauses'
literals alone: a unit clause, or one resolution step (class docstring).
For subsets of three clauses or more it skips every subset the union
bound proves cannot decide x. A subset J decides x only if J with
x=0 or J with x=1 is unsatisfiable; that covers both J implying a literal
over x and the vacuous case. A CNF whose clauses' 2^-width sum to less than
one is satisfiable, since a uniformly random assignment falsifies each
clause with probability 2^-width. Only non-deciding subsets are skipped,
and the canonical order is kept wherever the first hit could differ from
another hit (below), so every answer is unchanged.

Every sweep is first screened by the state's live set: the formula's
solutions that extend the state. On a satisfiable residual the rule is
sound, so every implied literal holds in every live solution. When the
live solutions take both values of x, no subset of any size decides x.
When they all take one value v, that side of x is satisfiable under every
subset, so no subset implies the other literal or is unsatisfiable. The
answer is then v exactly when some subset refutes x = not v, and it does
not matter which one comes first, so the search takes any refuting
subset, trying the clauses the union bound weighs most first
(ImplicationIndex._refute). Only a state with no live solution is swept
in canonical order, since its vacuous first hit must stay exact.
"""

from __future__ import annotations

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


def resolve_tau(tau: int | None, n: int) -> int:
    """The implication subset size: tau itself, or default_tau(n) when
    tau is None."""
    if tau is None:
        return default_tau(n)
    if tau < 1:
        raise ValueError("tau must be at least 1")
    return tau


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


def tau_implied(formula: Formula, x: int, tau: int | None = None) -> int | None:
    """First literal over x implied by some sub-CNF of at most tau clauses,
    or None. This is the reference implementation: small, slow, and used as
    the verifier for the memoized fast path in the solver engine."""
    if x not in formula.variables:
        raise ValueError(f"variable {x} is not in the formula")
    tau = resolve_tau(tau, formula.n)
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


class _State:
    """One restriction state of an ImplicationIndex: its residual clauses
    with the bits of each one's free variables, the bits of every variable
    they mention, the literals of its unit clauses, its two-literal
    clauses, whether it falsifies a clause, and once a sweep needs it the
    live-set screen (ImplicationIndex._screen). The clause lists are in
    the formula's order until _clause_masks builds the masks and puts them
    in canonical order."""

    __slots__ = (
        "residual", "var_masks", "reach", "units", "binaries", "dead", "masks", "screen", "bytes"
    )

    def __init__(self, residual: dict[Clause, int], reach: int):
        self.residual = list(residual)
        self.var_masks = list(residual.values())
        self.reach = reach
        units: list[int] = []
        binaries: list[Clause] = []
        for clause in residual:
            if len(clause) < 3:
                if len(clause) == 2:
                    binaries.append(clause)
                elif clause:
                    units.append(clause[0])
        self.units = tuple(units)
        self.binaries = tuple(binaries)
        self.dead = () in residual
        self.masks: list[int] | None = None
        self.screen: tuple[int, int] | None = None
        self.bytes = 0  # charged to the state memo


def _pair_hit(binaries: tuple[Clause, ...], units: tuple[int, ...], var: int) -> int:
    """The literal over var that the first deciding pair of clauses, in
    canonical order, implies, or 0; for a state with no empty clause and
    no unit over var. Such a pair is a binary (L, l) with L over var and a
    partner left as the unit (-l) once L is removed: the unit (-l) itself
    or the binary (L, -l). Canonical order sorts clauses as tuples, so the
    first pair is the smallest (first clause, second clause)."""
    anchors: dict[tuple[int, int], Clause] = {}  # (L, l) -> its clause
    for clause in binaries:
        a, b = clause
        if a == var or a == -var:
            anchors[a, b] = clause
        elif b == var or b == -var:
            anchors[b, a] = clause
    best = None
    hit = 0
    for (lit, other), clause in anchors.items():
        for partner in ((-other,) if -other in units else None, anchors.get((lit, -other))):
            if partner is not None:
                pair = (clause, partner) if clause < partner else (partner, clause)
                if best is None or pair < best:
                    best = pair
                    hit = lit
    return hit


class ImplicationIndex:
    """Fast tau-implication over all restrictions of one fixed formula.

    A restriction state is a pair of bitmasks over variable positions:
    which variables are assigned, and to what. Each state's residual
    clauses are memoized, and each memo is emptied whenever it reaches its
    limit, so memory stays bounded however many restrictions share the
    index.

    `tau` is the lookup depth. It starts at resolve_tau(tau, n) and a
    caller may change it between lookups; one index, with one memo,
    serves every depth. Answers are memoized per depth: the memo maps
    (state, variable, tau) to the literal found, or to 0.

    By construction the answers match tau_implied on restrict(formula, a):
    the surviving clauses are swept in the same canonical order with the
    same first-hit rule. Tests hold the two implementations together.

    Sizes 1 and 2 are decided by clause shape; only the clauses of at
    most two literals matter:
    - Size 1: the first unit clause over x decides x.
    - A dead state, one whose residual holds the empty clause (), has
      (), b as its first deciding pair, with b the first clause that
      mentions x. So after a miss at size 1, x is positive at size 2 if
      some clause mentions x, and no subset of any size decides it if
      none does.
    - A live state with no unit over x: a pair decides the literal L over
      x iff both clauses have at most two literals, neither contains -L,
      at least one contains L, and removing L leaves complementary units
      (l) and (-l). The pair decides L iff it is unsatisfiable with L
      false, and two nonempty clauses are unsatisfiable only as clashing
      units; every other shape needs a unit over x or leaves x outside
      the pair. One pair cannot decide both literals, since it would then
      be unsatisfiable itself, so the first deciding pair over both
      polarities is the hit.
    Sizes 3..tau share one depth-first kernel over clause masks: at each
    state every residual clause becomes the set of assignments to the f
    free variables that satisfy it (one integer with 2^f bits, the free
    positions packed in order), so "solutions of a sub-CNF under the
    state" is a chain of integer ANDs whose width shrinks as the state
    grows. A state's masks are built on its first size-3 sweep and kept
    with it.

    Before sizes 2 and up, a sweep reads the state's live set (`live`),
    summed up once per state by `_screen`. If the live solutions take both
    values of x the answer is 0. If they all take one value v, `_refute`
    looks for any subset of 3..tau clauses with no solution at x = not v,
    heaviest clauses first, and the answer is v when it finds one (module
    docstring). A state with no live solution goes to `_deep_sweep`,
    which searches in canonical order and cuts a branch as soon as the
    union bound shows both x=0 and x=1 stay satisfiable under every
    completion of it. That cut drops only subsets that decide nothing, so
    its first hit is the one the full sweep finds, vacuous or not.
    """

    VARIABLE_LIMIT = 20  # the clause masks hold up to 2^n bits
    STATE_CACHE_BYTES = 4 << 20  # estimated size of the cached states
    RESULT_CACHE_LIMIT = 1 << 15  # (state, variable) answers

    def __init__(self, formula: Formula, tau: int | None = None):
        self.formula = formula
        self.tau = resolve_tau(tau, formula.n)
        n = formula.n
        if n > self.VARIABLE_LIMIT:
            raise ValueError(
                f"{n} variables exceed the implication index limit of {self.VARIABLE_LIMIT}"
            )
        self._n = n
        self._pos_of = {v: i for i, v in enumerate(formula.variables)}
        # per clause: each literal with its variable's bit, and the bits of
        # its positive and of its negative literals
        clauses = []
        for clause in formula.clauses:
            lit_bits = tuple((lit, 1 << self._pos_of[abs(lit)]) for lit in clause)
            pos = sum(bit for lit, bit in lit_bits if lit > 0)
            neg = sum(bit for lit, bit in lit_bits if lit < 0)
            clauses.append((clause, lit_bits, pos, neg))
        self._clauses = clauses
        # masks for n variables; their low 2^f bits are the masks for f
        # variables, which is how a state's packed clause masks read them
        space = (1 << (1 << n)) - 1
        true_masks = _polarity_masks(n)
        self._true_masks = true_masks
        self._false_masks = [space & ~m for m in true_masks]
        # the total assignments that satisfy every clause
        solutions = space
        for clause in formula.clauses:
            satisfying = 0
            for lit in clause:
                j = self._pos_of[abs(lit)]
                satisfying |= true_masks[j] if lit > 0 else self._false_masks[j]
            solutions &= satisfying
        self._solutions = solutions
        self._state_cache: dict[tuple[int, int], _State] = {}
        self._state_bytes = 0
        self._result_cache: dict[tuple[int, int, int, int], int] = {}

    def live(self, amask: int, avals: int) -> int:
        """The state's live set: the formula's solutions that extend it, as
        a mask over the 2^n total assignments: bit s stands for the
        assignment whose variable at position j is true iff bit j of s is."""
        live = self._solutions
        true_masks = self._true_masks
        false_masks = self._false_masks
        j = 0
        while amask and live:
            if amask & 1:
                live &= true_masks[j] if avals & 1 else false_masks[j]
            amask >>= 1
            avals >>= 1
            j += 1
        return live

    def _survivors(self, amask: int, avals: int) -> _State:
        """The restriction's residual clauses at this state, deduplicated
        as restrict() does, with what the size-1 and size-2 tests read."""
        key = (amask, avals)
        state = self._state_cache.get(key)
        if state is not None:
            return state
        falses = amask ^ avals
        residual: dict[Clause, int] = {}  # residual clause -> its variables' bits
        reach = 0
        for clause, lit_bits, pos, neg in self._clauses:
            if pos & avals or neg & falses:
                continue  # satisfied
            vbits = pos | neg
            if vbits & amask:
                clause = tuple([lit for lit, bit in lit_bits if not bit & amask])
                vbits &= ~amask
            residual[clause] = vbits
            reach |= vbits
        state = _State(residual, reach)
        # a state costs about 256 bytes of objects, and each residual
        # clause about 128 more
        self._charge(key, state, 256 + len(residual) * 128)
        return state

    def _clause_masks(self, amask: int, avals: int, state: _State) -> list[int]:
        """Each residual clause's satisfying assignments over the state's f
        free variables (an integer of 2^f bits, the free positions packed
        in order), built on the first size >= 3 sweep at the state. The
        state's clause lists are put in restrict()'s canonical order, which
        the masks follow."""
        width = 1 << (self._n - amask.bit_count())
        space = (1 << width) - 1
        # each literal over a free variable: the assignments falsifying it,
        # read at the variable's packed position
        falsifier: dict[int, int] = {}
        packed = 0
        for var, j in self._pos_of.items():
            if not (amask >> j) & 1:
                falsifier[var] = self._false_masks[packed]
                falsifier[-var] = self._true_masks[packed]
                packed += 1
        ordered = sorted(zip(state.residual, state.var_masks))
        state.residual = [clause for clause, _ in ordered]
        state.var_masks = [vbits for _, vbits in ordered]
        masks = []
        for clause in state.residual:
            falsify = space  # the empty clause keeps it all and admits nothing
            for lit in clause:
                falsify &= falsifier[lit]
            masks.append(space ^ falsify)
        state.masks = masks
        self._charge((amask, avals), state, len(masks) * (width // 8))
        return masks

    def _screen(self, amask: int, avals: int, state: _State) -> tuple[int, int]:
        """The bits of the variables the residual mentions that some live
        solution sets to 1, and those that some live solution sets to 0;
        both are 0 when no solution extends the state. Built on the
        state's first screened sweep and kept with it."""
        live = self.live(amask, avals)
        ones = zeros = 0
        reach = state.reach if live else 0
        while reach:
            xbit = reach & -reach
            reach ^= xbit
            some_true = live & self._true_masks[xbit.bit_length() - 1]
            if some_true:
                ones |= xbit
            if some_true != live:
                zeros |= xbit
        state.screen = (ones, zeros)
        self._charge((amask, avals), state, 64)
        return state.screen

    def _charge(self, key: tuple[int, int], state: _State, cost: int) -> None:
        """Count cost toward the state memo, emptying it when it passes
        its budget, and keep state in it."""
        state.bytes += cost
        self._state_bytes += cost
        if self._state_bytes > self.STATE_CACHE_BYTES:
            self._state_cache.clear()
            self._state_bytes = state.bytes
        self._state_cache[key] = state

    def implied_literal(self, amask: int, avals: int, var: int) -> int:
        """The implied literal over var under the given restriction state,
        searching subsets of up to self.tau clauses, or 0. Memoized; var
        must be unassigned in the state."""
        xpos = self._pos_of[var]
        tau = self.tau
        key = (amask, avals, xpos, tau)
        memo = self._result_cache
        lit = memo.get(key)
        if lit is None:
            lit = self._sweep(amask, avals, var, xpos, tau)
            if len(memo) >= self.RESULT_CACHE_LIMIT:
                memo.clear()
            memo[key] = lit
        return lit

    def _sweep(self, amask: int, avals: int, var: int, xpos: int, tau: int) -> int:
        """The first literal over var decided by a subset of up to tau
        clauses at this state, or 0.

        Sizes 1 and 2 are read off the unit and two-literal clauses (class
        docstring); only sizes 3 and up sweep clause masks."""
        state = self._survivors(amask, avals)
        # the first unit over var decides it; (-var,) sorts first
        if -var in state.units:
            return -var
        if var in state.units:
            return var
        xbit = 1 << xpos
        # past size 1, and only when some subset mentions var
        if tau < 2 or not state.reach & xbit:
            return 0
        if state.dead:
            return var  # () and the first clause over var
        ones, zeros = state.screen or self._screen(amask, avals, state)
        sat0 = bool(zeros & xbit)  # a live solution sets var to 0
        sat1 = bool(ones & xbit)
        if sat0 and sat1:
            return 0  # no subset of any size decides var
        hit = _pair_hit(state.binaries, state.units, var)
        m = len(state.residual)
        if hit or tau < 3 or m < 3:
            return hit
        pm = state.masks
        if pm is None:
            pm = self._clause_masks(amask, avals, state)
        packed = xpos - (amask & (xbit - 1)).bit_count()
        xtrue = self._true_masks[packed]
        xfalse = self._false_masks[packed]
        hi = min(tau, m)
        if sat0 or sat1:
            # refute the side no live solution takes, packed to 2^f bits
            space = (1 << (1 << (self._n - amask.bit_count()))) - 1
            if sat1:
                return self._refute(pm, state.residual, var, xfalse & space, hi)
            return self._refute(pm, state.residual, -var, xtrue & space, hi)
        return self._deep_sweep(pm, state.var_masks, state.residual, var, xbit, xtrue, xfalse, hi)

    def _refute(self, pm: list[int], residual: list[Clause], lit: int, side: int, hi: int) -> int:
        """lit if some set of at most hi residual clauses has no solution
        with lit false, else 0; for a live state whose live solutions all
        set lit true. There no subset implies -lit or is unsatisfiable, so
        any refuting set gives the answer (module docstring).

        A clause weighs 2^(K - width once lit is false), with K the largest
        residual width, and the weights of a refuting set sum to at least
        2^K. A clause holding -lit weighs 0 and is left out, since dropping
        it from a refuting set leaves one. The rest are searched heaviest
        first: with `left` clauses still to pick, a loop stops at the first
        clause i where the prefix sum plus `left` times weight i stays below
        2^K, since no later clause weighs more. `side` holds the
        assignments with lit false, packed like the clause masks; a set
        refutes lit when ANDing its masks into `side` leaves nothing.
        """
        top = 1 << max(map(len, residual))
        weighted = []
        for clause, mask in zip(residual, pm):
            if lit in clause:
                weighted.append((top >> (len(clause) - 1), mask))
            elif -lit not in clause:
                weighted.append((top >> len(clause), mask))
        weighted.sort(key=lambda pair: pair[0], reverse=True)
        w = [weight for weight, _ in weighted]
        cm = [mask for _, mask in weighted]
        m = len(w)

        def dive(start: int, left: int, mask: int, p: int) -> bool:
            rest = left - 1
            for i in range(start, m):
                if p + left * w[i] < top:
                    return False
                mi = mask & cm[i]
                if not mi or rest and dive(i + 1, rest, mi, p + w[i]):
                    return True
            return False

        return lit if dive(0, min(hi, m), side, 0) else 0

    def _deep_sweep(
        self,
        pm: list[int],
        rv: list[int],
        residual: list[Clause],
        var: int,
        xbit: int,
        xtrue: int,
        xfalse: int,
        hi: int,
    ) -> int:
        """Subsets of 3..hi clauses, depth first in canonical order, with
        every branch cut that the union bound proves holds no hit, at a
        state with no live solution: there either side of x may be
        unsatisfiable and the first hit may be vacuous, so both sides are
        bounded. Returns the literal of the first hit, or 0.

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

        for size in range(3, hi + 1):
            hit = dive(0, size, -1, 0, 0, 0)
            if hit:
                return hit
        return 0

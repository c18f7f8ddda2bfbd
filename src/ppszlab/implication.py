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
For subsets of three clauses or more it searches for small cores. A
subset J decides x iff J mentions x and J with x=0 or J with x=1 is
unsatisfiable; that covers both J implying a literal over x and the
vacuous case. So J decides x iff it mentions x and holds a core: a
minimally unsatisfiable set of its clauses once x is fixed. By Tarsi's
lemma a minimally unsatisfiable CNF has more clauses than variables
(Aharoni and Linial, JCTA 1986), so a core of at most tau clauses
mentions at most tau - 1 variables besides x. The search cuts every set
past that cap and tests each set with a truth table of at most
2^(tau-1) rows, whatever the number of free variables.

Past size 1, every sweep reads the state's live set: the formula's
solutions that extend the state. On a satisfiable residual the rule is
sound, so every implied literal holds in every live solution. When the
live solutions take both values of x, no subset of any size decides x.
When they all take one value v, that side of x is satisfiable under every
subset, so no subset implies the other literal or is unsatisfiable. The
answer is then v exactly when some core refutes x = not v, and it does
not matter which one is found first (ImplicationIndex._one_sided). Only
a state with no live solution needs the cores on both sides, since its
first hit in canonical order, vacuous or not, must stay exact. It takes
the sizes 3, 4, ... in turn, and at each size s only the cores of at
most s clauses, found under the cap of s - 1 variables; the first size
that holds a hit ends the search (ImplicationIndex._dead_state).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .cnf import Clause, Formula
from .oracle import enumerate_solutions

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


def sub_cnf_solutions(clauses: Iterable[Clause] | Formula) -> tuple[tuple[int, ...], ...]:
    """Solutions of a clause collection over exactly the variables it
    mentions (not some enclosing formula's variable set), in
    `enumerate_solutions`' order."""
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
    if not sols:
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


@lru_cache(maxsize=8)
def _polarity_masks(n: int) -> tuple[int, ...]:
    """The truth table of each position j < n over n positions: the mask of
    the 2^n assignments that set j true (assignment s sets j true iff bit j
    of s is set). Cached and shared by its callers, so a tuple."""
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
    return tuple(masks)


class _State:
    """One restriction state of an ImplicationIndex: its residual clauses
    in the formula's order, with each one's bits (the bits of its free
    variables, and above them, shifted by n, the bits of its positive
    literals), the bits of every variable they mention, the literals of
    its unit clauses, its two-literal clauses, and whether it falsifies a
    clause."""

    __slots__ = ("residual", "bits", "reach", "units", "binaries", "dead")

    def __init__(self, residual: dict[Clause, int], reach: int):
        self.residual = list(residual)
        self.bits = list(residual.values())
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
    - Size 1: the first unit clause over x decides x, and (-x) sorts
      before (x). A state that is already built reads its units. One that
      is not is built only if size 1 misses: its units over x are the
      clauses over x whose other literals the state makes false, read off
      the clauses kept per variable (`_clauses_of`). So a lookup that a
      unit decides never builds its state.
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
    Sizes 3..tau share one search for cores (`_cores`, module
    docstring), which reads each residual clause's variable bits and
    sign bits off the state and tests sets by truth tables over at most
    tau - 1 variables.

    Before sizes 2 and up, a sweep reads the state's live set (`live`)
    and splits it at x by `ones_of`, as the walkers do. If the live
    solutions take both values of x the answer is 0. If they all take one
    value v, `_one_sided` looks for any core with x = not v, and the
    answer is v when it finds one (module docstring). A state with no
    live solution goes to `_dead_state`, which takes the cores on both
    sides size by size and from them the first deciding subset in
    canonical order, vacuous or not.

    Only this class encodes the formula: each variable's bit in a state
    (`bit_of`), the clauses' bits (`short_clauses`) and the live sets.
    Callers test a live set for emptiness and split it at v one way:
    `one = live & ones_of[v]`, the live solutions that set v true, and
    `live ^ one`, those that set it false.
    """

    VARIABLE_LIMIT = 20  # the live masks hold up to 2^n bits
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
        variables = formula.variables
        self.bit_of = bit_of = {v: 1 << j for j, v in enumerate(variables)}
        space = (1 << (1 << n)) - 1
        self._true_masks = true_masks = _polarity_masks(n)
        self._false_masks = false_masks = [space & ~m for m in true_masks]
        self.ones_of = {v: true_masks[j] for j, v in enumerate(variables)}
        # per clause: each literal with its variable's bit, the bits of its
        # positive and of its negative literals, and its bits as a state
        # keeps them (_State); per variable bit, each clause over it as (its
        # literal over the variable, its positive and negative bits, the
        # bits of its other variables); and the assignments that satisfy
        # every clause
        clauses = []
        clauses_of: dict[int, list[tuple[int, int, int, int]]] = {bit: [] for bit in bit_of.values()}
        solutions = space
        for clause in formula.clauses:
            lit_bits = []
            vbits = pos = satisfying = 0
            for lit in clause:
                var = abs(lit)
                bit = bit_of[var]
                lit_bits.append((lit, bit))
                vbits |= bit
                if lit > 0:
                    pos |= bit
                satisfying |= (true_masks if lit > 0 else false_masks)[bit.bit_length() - 1]
            clauses.append((clause, tuple(lit_bits), pos, vbits ^ pos, vbits | pos << n))
            solutions &= satisfying
            for lit, bit in lit_bits:
                clauses_of[bit].append((lit, pos, vbits ^ pos, vbits ^ bit))
        self._clauses = clauses
        self._clauses_of = clauses_of
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

    def short_clauses(self, width: int) -> list[tuple[int, Clause]]:
        """The clauses of at most width literals, in order, each after its variables' bits."""
        return [(pos | neg, c) for c, _, pos, neg, _ in self._clauses if len(c) <= width]

    def _survivors(self, amask: int, avals: int) -> _State:
        """The restriction's residual clauses at this state, deduplicated
        as restrict() does, with what the size-1 and size-2 tests read."""
        key = (amask, avals)
        state = self._state_cache.get(key)
        if state is not None:
            return state
        falses = amask ^ avals
        assigned = amask | amask << self._n  # the assigned variables' bits and sign bits
        residual: dict[Clause, int] = {}  # residual clause -> its bits (see _State)
        reach = 0
        for clause, lit_bits, pos, neg, bits in self._clauses:
            if pos & avals or neg & falses:
                continue  # satisfied
            if bits & amask:
                clause = tuple([lit for lit, bit in lit_bits if not bit & amask])
                bits &= ~assigned
            residual[clause] = bits
            reach |= bits
        state = _State(residual, reach & ~(-1 << self._n))
        # a state costs about 256 bytes of objects, and each residual
        # clause about 128 more
        cost = 256 + len(residual) * 128
        self._state_bytes += cost
        if self._state_bytes > self.STATE_CACHE_BYTES:
            self._state_cache.clear()
            self._state_bytes = cost
        self._state_cache[key] = state
        return state

    def implied_literal(self, amask: int, avals: int, var: int) -> int:
        """The implied literal over var under the given restriction state,
        searching subsets of up to self.tau clauses, or 0. Memoized; var
        must be unassigned in the state."""
        xbit = self.bit_of[var]
        tau = self.tau
        key = (amask, avals, xbit, tau)
        memo = self._result_cache
        lit = memo.get(key)
        if lit is None:
            lit = self._sweep(amask, avals, var, xbit, tau)
            if len(memo) >= self.RESULT_CACHE_LIMIT:
                memo.clear()
            memo[key] = lit
        return lit

    def _sweep(self, amask: int, avals: int, var: int, xbit: int, tau: int) -> int:
        """The first literal over var decided by a subset of up to tau
        clauses at this state, or 0.

        Sizes 1 and 2 are read off the unit and two-literal clauses (class
        docstring); only sizes 3 and up search for cores. Size 1 reads a
        built state's units; at a state not yet built it scans the clauses
        over var, and builds the state only when no unit decides var and
        tau reaches size 2. A built state keeps its own test: the lists are
        slower where sweeps mostly land on built states with many clauses
        per variable."""
        # the first unit over var decides it; (-var,) sorts first
        state = self._state_cache.get((amask, avals))
        if state is None:
            falses = amask ^ avals
            unit = 0
            for lit, pos, neg, others in self._clauses_of[xbit]:
                if pos & falses | neg & avals == others:  # its other literals are false
                    if lit < 0:
                        return lit
                    unit = lit
            if unit or tau < 2:
                return unit
            state = self._survivors(amask, avals)
        elif -var in state.units:
            return -var
        elif var in state.units:
            return var
        # past size 1, and only when some subset mentions var
        if tau < 2 or not state.reach & xbit:
            return 0
        if state.dead:
            return var  # () and the first clause over var
        live = self.live(amask, avals)
        ones = live & self.ones_of[var]
        if ones and ones != live:
            return 0  # the live solutions set var both ways: no subset decides it
        hit = _pair_hit(state.binaries, state.units, var)
        m = len(state.residual)
        if hit or tau < 3 or m < 3:
            return hit
        hi = min(tau, m)
        if live:
            return self._one_sided(state, xbit, var if ones else -var, hi)
        return self._dead_state(state, xbit, var, hi)

    def _one_sided(self, state: _State, xbit: int, lit: int, hi: int) -> int:
        """lit if some set of at most hi residual clauses has no solution
        with lit false, else 0; for a live state whose live solutions all
        set lit true. There no subset implies -lit or is unsatisfiable, so
        any refuting set gives the answer (module docstring)."""
        return lit if self._cores(state, xbit, lit < 0, hi, True) else 0

    def _dead_state(self, state: _State, xbit: int, var: int, hi: int) -> int:
        """The literal over var that the first deciding subset of 3..hi
        clauses, in canonical order, implies, or 0; for a state with no
        live solution, where either side of var may be unsatisfiable and
        the first hit may be vacuous.

        A subset J decides var iff it mentions var and contains a core, a
        set of clauses with no solution once var is fixed to 0 or to 1.
        For one core C and a size s, the lex-least s-subset holding C is
        C plus the s - |C| canonically smallest other clauses, all among
        the s smallest. If neither C nor these fillers mention var, every
        filler precedes the first clause over var, so swapping the largest
        filler for that clause gives the lex-least one that mentions var;
        with no filler there is none. The first hit at size s is the least
        of these over every core of at most s clauses. J implies var if it
        holds a core for var = 0, which covers the vacuous case, and -var
        otherwise.

        So the first hit at size s depends only on the cores of at most s
        clauses, and the sizes are searched in turn, each with the cap of
        its own size: cores of at most s clauses mention at most s - 1
        variables besides var, and a search under that cap finds every
        minimal one (`_cores`). The search ends at the first size with a
        hit, so a state decided at size 3 never pays for the wider cap of
        size hi.
        """
        residual = state.residual
        bits = state.bits
        canonical = residual.__getitem__
        ranked = sorted(range(len(residual)), key=canonical)
        first_over_x = next(i for i in ranked if bits[i] & xbit)
        for size in range(3, hi + 1):
            cores0 = self._cores(state, xbit, False, size, False)
            cores = cores0 + self._cores(state, xbit, True, size, False)
            smallest = ranked[:size]
            best = None
            for core in cores:
                need = size - len(core)
                fill = [i for i in smallest if i not in core][:need]
                if not any(bits[i] & xbit for i in core + tuple(fill)):
                    if not fill:
                        continue
                    fill[-1] = first_over_x
                subset = sorted([residual[i] for i in core + tuple(fill)])
                if best is None or subset < best:
                    best = subset
            if best is not None:
                chosen = set(best)
                if any(chosen.issuperset(map(canonical, core)) for core in cores0):
                    return var
                return -var
        return 0

    def _cores(
        self, state: _State, xbit: int, value: bool, hi: int, one_sided: bool
    ) -> list[tuple[int, ...]]:
        """The sets of at most hi residual clauses, as index tuples, that
        have no solution once x (the variable at xbit) is fixed to value,
        and whose proper prefixes in search order all have one.

        Every minimal unsatisfiable set C of clauses mentions at most
        |C| - 1 variables (Tarsi's lemma), so no set mentioning more than
        hi - 1 variables besides x lies inside a core of at most hi
        clauses, and such branches are cut. Every prefix of a minimal core
        is satisfiable and inside the cap, so each minimal core is among
        the sets returned. A set is tested with a truth table over its
        variables besides x, numbered in the order the search meets them:
        an integer with one bit per assignment to them.

        The search tries the clauses over x first, each group in index
        order. A one-sided search, for a live state whose live solutions
        all set x to not value, stops at the first set found; there a live
        solution satisfies every clause without x, so every core holds a
        clause over x, and each set starts with one.
        """
        satisfied = xbit if value else 0  # the sign bit of the literal x = value sets true
        frame = min(hi - 1, (state.reach & ~xbit).bit_count())
        # (index, variable bits besides x, sign bits) of the clauses that
        # x = value leaves open within the cap, those over x and the others
        over_x: list[tuple[int, int, int]] = []
        others: list[tuple[int, int, int]] = []
        shift = self._n
        low = (1 << shift) - 1
        for i, clause_bits in enumerate(state.bits):
            vbits = clause_bits & low
            signs = clause_bits >> shift
            if vbits & xbit:
                if signs & xbit == satisfied:
                    continue
                vbits ^= xbit
                group = over_x
            else:
                group = others
            if vbits.bit_count() <= frame:
                group.append((i, vbits, signs))
        clauses = over_x + others
        starts = len(over_x) if one_sided else len(clauses)
        space = (1 << (1 << frame)) - 1
        true_at = _polarity_masks(frame)
        false_at = [space ^ mask for mask in true_at]
        found: list[tuple[int, ...]] = []

        def dive(
            cands: list[tuple[int, int, int]],
            starts: int,
            left: int,
            union: int,
            order: tuple[int, ...],
            rows: int,
            chosen: tuple[int, ...],
        ) -> bool:
            # cands: the clauses that may extend the chosen set within the
            # cap, the first `starts` of them as its next member; rows: the
            # assignments that satisfy every chosen clause
            for k in range(starts):
                i, vbits, signs = cands[k]
                local = order
                new = vbits & ~union
                while new:
                    bit = new & -new
                    new ^= bit
                    local += (bit,)
                table = 0
                for j, bit in enumerate(local):
                    if vbits & bit:
                        table |= true_at[j] if signs & bit else false_at[j]
                kept = rows & table
                if not kept:
                    found.append(chosen + (i,))
                    if one_sided:
                        return True
                elif left > 1:
                    grown = union | vbits
                    if grown == union:
                        deeper = cands[k + 1:]  # each passed the filter against union
                    else:
                        deeper = [c for c in cands[k + 1:] if (grown | c[1]).bit_count() <= frame]
                    chosen_i = chosen + (i,)
                    if deeper and dive(deeper, len(deeper), left - 1, grown, local, kept, chosen_i):
                        return True
            return False

        dive(clauses, starts, hi, 0, (), space, ())
        return found

import random
from collections import Counter
from itertools import combinations

import pytest

from ppszlab.cnf import Formula, restrict
from ppszlab.engine import PpszEngine
from ppszlab.implication import (
    ImplicationIndex,
    _implied_by_subset,
    _polarity_masks,
    default_tau,
    resolve_tau,
    sub_cnf_solutions,
    tau_implied,
)
from ppszlab.instances import planted_kcnf, satisfiable_kcnf, uniform_kcnf
from ppszlab.oracle import count_solutions, enumerate_solutions, implied_literals


def F(*clauses, variables=None):
    return Formula.from_clauses(clauses, variables=variables)


def test_two_clause_pin():
    formula = F((1, 2), (1, -2))
    assert tau_implied(formula, 1, 2) == 1
    assert tau_implied(formula, 1, 1) is None


def test_unit_clause_pins_at_tau_one():
    assert tau_implied(F((1,)), 1, 1) == 1
    assert tau_implied(F((-1,)), 1, 1) == -1


def test_unpinned_variable_yields_nothing():
    formula = F((1, 2), (1, -2))
    assert tau_implied(formula, 2, 2) is None


def test_queried_variable_must_exist():
    with pytest.raises(ValueError):
        tau_implied(F((1,)), 9)


def test_vacuous_subset_reports_positive_literal():
    # {(-2), (2)} is unsatisfiable; adding the only x-clause (1, 2, -3)
    # gives an unsatisfiable sub-CNF mentioning x, while every smaller
    # relevant subset leaves x free. Both polarities are then implied
    # vacuously, and the tie goes to the positive literal, even for the
    # variable that only ever occurs negated.
    formula = F((-2,), (2,), (1, 2, -3))
    assert tau_implied(formula, 1, 3) == 1
    assert tau_implied(formula, 3, 3) == 3
    assert tau_implied(formula, 1, 2) is None
    # the unit (-2) is scanned before any vacuous pair, so no tie for y
    assert tau_implied(formula, 2, 2) == -2


def test_sub_cnf_solutions_spec_cases():
    # whole tuples: each solution lists exactly the mentioned variables
    assert sub_cnf_solutions([(1, 2)]) == ((-1, 2), (1, -2), (1, 2))
    assert sub_cnf_solutions([(-2, 5)]) == ((-2, -5), (-2, 5), (2, 5))
    assert sub_cnf_solutions([()]) == ()
    assert sub_cnf_solutions([]) == ((),)


def test_sub_cnf_solutions_accepts_formulas():
    assert sub_cnf_solutions(F((1,), (2, 3), variables=(1, 2, 3, 4))) == (
        (1, -2, 3),
        (1, 2, -3),
        (1, 2, 3),
    )


def test_soundness_against_the_oracle():
    # raw width-3 clauses almost never pin anything at small tau; the
    # interesting queries happen on restrictions, where units appear
    rng = random.Random(23)
    checked = 0
    for _ in range(25):
        formula = satisfiable_kcnf(rng, 6, 15, 3)
        solution = enumerate_solutions(formula)[0]
        prefix = solution[: rng.randrange(1, 5)]
        residual = restrict(formula, prefix)
        if not residual.variables:
            continue
        implied = implied_literals(residual)
        for var in residual.variables:
            lit = tau_implied(residual, var, 3)
            if lit is not None:
                checked += 1
                assert lit in implied
    assert checked > 10


def test_budget_monotonicity():
    rng = random.Random(29)
    hits = 0
    for _ in range(25):
        formula = satisfiable_kcnf(rng, 6, 15, 3)
        solution = enumerate_solutions(formula)[0]
        residual = restrict(formula, solution[: rng.randrange(1, 5)])
        for var in residual.variables:
            narrow = tau_implied(residual, var, 1)
            if narrow is not None:
                hits += 1
                assert tau_implied(residual, var, 2) == narrow
                assert tau_implied(residual, var, 3) == narrow
    assert hits > 10


def test_full_budget_decides_exactly_the_frozen_variables():
    rng = random.Random(31)
    for _ in range(25):
        formula = satisfiable_kcnf(rng, 5, 10, 3)
        implied = implied_literals(formula)
        full = formula.num_clauses
        for var in formula.variables:
            lit = tau_implied(formula, var, full)
            if var in {abs(l) for l in implied}:
                assert lit is not None and lit in implied
            else:
                assert lit is None


def test_relevance_pruning_never_changes_results():
    # every subset of at most two clauses in canonical order, including the
    # ones that do not mention the variable: the first hit is tau_implied's
    rng = random.Random(37)
    for _ in range(20):
        formula = uniform_kcnf(rng, 5, 10, 3)
        subsets = [s for size in (1, 2) for s in combinations(formula.clauses, size)]
        for var in formula.variables:
            hits = (_implied_by_subset(s, var) for s in subsets)
            first = next((lit for lit in hits if lit is not None), None)
            assert first == tau_implied(formula, var, 2)


def test_default_tau_schedule():
    assert default_tau(0) == 1
    assert default_tau(1) == 1
    assert default_tau(3) == 1
    assert default_tau(4) == 2
    assert default_tau(7) == 2
    assert default_tau(8) == 3
    assert default_tau(15) == 3
    assert default_tau(16) == 4
    assert default_tau(1000) == 4


def test_config_validation():
    with pytest.raises(ValueError):
        resolve_tau(0, 5)
    assert resolve_tau(2, 9) == 2
    assert resolve_tau(None, 9) == 3


def _restriction_state(formula, rng, assigned_count):
    """A random partial state as (amask, avals) plus its literal list."""
    amask = avals = 0
    literals = []
    for pos in rng.sample(range(formula.n), assigned_count):
        positive = bool(rng.getrandbits(1))
        amask |= 1 << pos
        if positive:
            avals |= 1 << pos
        var = formula.variables[pos]
        literals.append(var if positive else -var)
    return amask, avals, literals


def test_index_matches_the_reference_on_restrictions():
    rng = random.Random(41)
    for _ in range(12):
        formula = uniform_kcnf(rng, 6, 14, 3)
        tau = rng.choice((1, 2, 3))
        index = ImplicationIndex(formula, tau)
        for _ in range(12):
            amask, avals, literals = _restriction_state(formula, rng, rng.randrange(0, 5))
            residual = restrict(formula, literals)
            for var in residual.variables:
                want = tau_implied(residual, var, tau)
                got = index.implied_literal(amask, avals, var)
                assert got == (want or 0), (literals, var)


def test_index_enforces_its_size_limit():
    wide = F((1, 2), variables=range(1, 25))
    with pytest.raises(ValueError):
        ImplicationIndex(wide)


@pytest.mark.parametrize(
    "k, n, m, assigned, seed", [(3, 6, 14, (2, 3), 43), (4, 7, 24, (3, 4, 5), 47)]
)
def test_index_matches_the_reference_at_tau_four(k, n, m, assigned, seed):
    rng = random.Random(seed)
    deep_hits = vacuous_states = unit_states = 0
    for _ in range(8):
        formula = uniform_kcnf(rng, n, m, k)
        index = ImplicationIndex(formula, 4)
        for _ in range(4):
            amask, avals, literals = _restriction_state(formula, rng, rng.choice(assigned))
            residual = restrict(formula, literals)
            widths = {len(clause) for clause in residual.clauses}
            vacuous_states += 0 in widths
            unit_states += 1 in widths
            for var in residual.variables:
                want = tau_implied(residual, var, 4)
                got = index.implied_literal(amask, avals, var)
                assert got == (want or 0), (literals, var)
                if want is not None and tau_implied(residual, var, 2) is None:
                    deep_hits += 1
    # the cases reach the size >= 3 kernel, empty clauses and units
    assert deep_hits > 0 and vacuous_states > 0 and unit_states > 0


def _first_hits(formula, x, taus):
    """(reference, index) answers at each tau, on the unrestricted state."""
    out = []
    for tau in taus:
        want = tau_implied(formula, x, tau)
        got = ImplicationIndex(formula, tau).implied_literal(0, 0, x)
        out.append((want or 0, got))
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_full_two_cnf_beside_x_is_decided_at_size_four(sign):
    # every clause carries the same literal over x = 1; only all four
    # rule out every (a, b) value with x left free
    x = sign
    formula = F((x, 2, 3), (x, 2, -3), (x, -2, 3), (x, -2, -3))
    assert _first_hits(formula, 1, (1, 2, 3, 4)) == [(0, 0)] * 3 + [(x, x)]


def test_tight_union_bound_still_decides_at_size_three():
    # once x = 0 the set leaves (2), (-2, 3), (-2, -3): a core of three
    # clauses over two variables besides x, as many as a core of three
    # clauses may mention, which must not be cut
    formula = F((1, 2), (1, -2, 3), (1, -2, -3))
    assert _first_hits(formula, 1, (2, 3)) == [(0, 0), (1, 1)]


def test_vacuous_hit_from_an_unsatisfiable_core_without_x():
    # size 3: the pair (2), (-2) plus the only x-clause
    formula = F((-1, 3), (2,), (-2,))
    assert _first_hits(formula, 1, (2, 3)) == [(0, 0), (1, 1)]
    # size 4: the triple (2, 3), (-2), (-3) plus the only x-clause
    formula = F((-1, 4), (2, 3), (-2,), (-3,))
    assert _first_hits(formula, 1, (3, 4)) == [(0, 0), (1, 1)]


@pytest.mark.parametrize("limit", [None, 8])
def test_one_index_answers_every_depth(monkeypatch, limit):
    # one index visited at changing depths must answer like a fresh index
    # built at each depth, and like the reference on the restriction
    if limit is not None:
        monkeypatch.setattr(ImplicationIndex, "RESULT_CACHE_LIMIT", limit)
    rng = random.Random(53)
    sequences = ((2, 4, 3), (1, 3, 2, 4), (4, 1))
    swept = clears = short_residuals = 0
    for n, k in ((6, 3), (7, 4), (8, 3), (9, 4)):
        for taus in sequences:
            formula = uniform_kcnf(rng, n, 4 * n if k == 3 else 6 * n, k)
            shared = ImplicationIndex(formula)
            fresh = {tau: ImplicationIndex(formula, tau) for tau in taus}
            sweeps = []
            sweep = shared._sweep

            def recorded(*args):
                sweeps.append(args)
                return sweep(*args)

            shared._sweep = recorded
            for assigned in [rng.randrange(n - 1) for _ in range(5)] + [n - 2, n - 1]:
                amask, avals, literals = _restriction_state(formula, rng, assigned)
                residual = restrict(formula, literals)
                for tau in taus:
                    shared.tau = tau
                    short_residuals += len(residual.clauses) < tau
                    for var in residual.variables:
                        before, held = len(sweeps), len(shared._result_cache)
                        got = shared.implied_literal(amask, avals, var)
                        want = fresh[tau].implied_literal(amask, avals, var)
                        assert got == want, (literals, var, tau)
                        # the reference solves every subset: small residuals only
                        if n <= 7 and len(residual.clauses) <= 16:
                            assert got == (tau_implied(residual, var, tau) or 0)
                        size = len(shared._result_cache)
                        if len(sweeps) > before:
                            # a sweep adds exactly one entry, or clears the
                            # memo at its limit
                            assert len(sweeps) == before + 1
                            assert size == held + 1 or (
                                held == ImplicationIndex.RESULT_CACHE_LIMIT and size == 1
                            )
                            swept += 1
                            clears += size == 1 and held > 0
                        else:
                            assert size == held
                        # asked again at the same depth, the memo answers
                        assert shared.implied_literal(amask, avals, var) == got
                        assert len(sweeps) == before + (size != held)
    # some residuals hold fewer clauses than tau, and the small memo clears
    assert swept > 0 and short_residuals > 0 and (clears > 0) == (limit is not None)


def _mixed_width_formula(rng, n, m, empty):
    """m random clauses of width 1 to 3 over variables 1..n, plus the empty
    clause when asked."""
    clauses = [() for _ in range(empty)]
    for _ in range(m):
        width = min(n, rng.choice((1, 2, 2, 3, 3, 3)))
        clauses.append(tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), width)))
    return F(*clauses, variables=range(1, n + 1))


def test_shape_rules_match_the_reference_on_mixed_widths():
    # sizes 1 and 2 are read off the clause shapes; one index visited at
    # changing depths must still answer like tau_implied on the restriction
    rng = random.Random(59)
    sequences = ((2, 4, 1, 3), (1, 3, 2), (4, 2))
    seen = dict.fromkeys(("unit", "pair", "dead pair", "dead none", "deep"), 0)
    for case in range(36):
        n = 2 + case % 6
        formula = _mixed_width_formula(rng, n, rng.randrange(n, 2 * n + 2), case % 5 == 0)
        index = ImplicationIndex(formula)
        for _ in range(3):
            amask, avals, literals = _restriction_state(formula, rng, rng.randrange(n))
            residual = restrict(formula, literals)
            dead = () in residual.clauses
            for tau in rng.choice(sequences):
                index.tau = tau
                for var in residual.variables:
                    want = tau_implied(residual, var, tau) or 0
                    assert index.implied_literal(amask, avals, var) == want, (literals, var, tau)
                    if want:
                        size = next(s for s in (1, 2, 3, 4) if tau_implied(residual, var, s))
                        kind = ("unit", "dead pair" if dead else "pair", "deep", "deep")[size - 1]
                        seen[kind] += 1
                    elif dead and tau >= 2:
                        seen["dead none"] += 1
    # every rule is reached: units, live and dead pairs, a dead state with
    # nothing over the variable, and the size >= 3 kernel
    assert all(seen.values()), seen


def test_live_screen_matches_the_reference():
    # a state's live set is every solution that extends it. A variable the
    # live solutions set both ways ends at the screen, one they all set
    # one way is decided by refuting the other side, and a state with no
    # live solution is swept in canonical order; all must answer like
    # tau_implied on the restriction at every depth
    rng = random.Random(67)
    seen = Counter()
    for case in range(48):
        n = 4 + case % 4
        formula = _mixed_width_formula(rng, n, rng.randrange(n, 2 * n + 2), 0)
        index = ImplicationIndex(formula)
        for _ in range(3):
            amask, avals, literals = _restriction_state(formula, rng, rng.randrange(n - 1))
            residual = restrict(formula, literals)
            live = index.live(amask, avals)
            assert live.bit_count() == count_solutions(residual)
            mentioned = {abs(lit) for clause in residual.clauses for lit in clause}
            for tau in (1, 2, 3, 4):
                index.tau = tau
                for var in residual.variables:
                    xbit = 1 << formula.variables.index(var)
                    one = live & index.ones_of[var]
                    kind = "dead" if not live else "both" if one and live ^ one else "one"
                    want = tau_implied(residual, var, tau) or 0
                    assert index.implied_literal(amask, avals, var) == want, (literals, var, tau)
                    seen[kind] += 1
                    if kind == "both" and tau >= 2 and var in mentioned:
                        # no subset of any size decides var
                        assert index._result_cache[amask, avals, xbit, tau] == 0
                        seen["both, screened"] += 1
                    if kind == "one" and want and not tau_implied(residual, var, 2):
                        seen["one, deep hit"] += 1
    assert all(seen[key] for key in ("dead", "both", "both, screened", "one", "one, deep hit")), seen


def test_shape_rules_match_the_reference_at_larger_n():
    rng = random.Random(61)
    hits = 0
    for n in (12, 13, 14):
        formula = uniform_kcnf(rng, n, 3 * n, 3)
        index = ImplicationIndex(formula)
        for tau in (2, 1):
            amask, avals, literals = _restriction_state(formula, rng, n // 2)
            residual = restrict(formula, literals)
            index.tau = tau
            for var in residual.variables:
                want = tau_implied(residual, var, tau) or 0
                assert index.implied_literal(amask, avals, var) == want, (literals, var, tau)
                hits += want != 0
    assert hits > 0


def test_lex_first_pair_sets_the_sign_when_both_are_implied():
    # (-1, -2), (-1, 2) imply -1 and (1, -3), (1, 3) imply 1; the first
    # pair in canonical order wins
    formula = F((-1, -2), (-1, 2), (1, -3), (1, 3))
    assert _first_hits(formula, 1, (1, 2)) == [(0, 0), (-1, -1)]


def test_a_later_unit_beats_an_earlier_pair():
    formula = F((-3, -4), (-3, 4), (3,))
    assert formula.clauses[-1] == (3,)
    assert _first_hits(formula, 3, (1, 2)) == [(3, 3), (3, 3)]


def test_a_dead_state_decides_only_the_variables_its_clauses_mention():
    # () with any clause over x is unsatisfiable and mentions x; variable 5
    # is in no clause, so no subset of any size decides it
    formula = F((), (2, 3), (1, 4), variables=range(1, 6))
    for x in (1, 2):
        assert _first_hits(formula, x, (1, 2, 4)) == [(0, 0), (x, x), (x, x)]
    assert _first_hits(formula, 5, (1, 2, 3, 4)) == [(0, 0)] * 4


def _count_routes(index, counts):
    """Wrap index._one_sided and index._dead_state so that counts tallies
    the hits and misses of each route."""
    for route in ("_one_sided", "_dead_state"):

        def counted(*args, kernel=getattr(index, route), route=route):
            lit = kernel(*args)
            counts[route, "hit" if lit else "miss"] += 1
            return lit

        setattr(index, route, counted)


def test_one_sided_states_match_the_reference_at_tau_four_and_larger_n():
    # planted 3-CNF at n = 12..14 with all but six variables assigned,
    # mostly as the plant has them: many states have live solutions that
    # all set a variable one way, and there the size >= 3 answer comes from
    # refuting the other side. Six free variables keep the reference fast.
    rng = random.Random(73)
    counts = Counter()
    for n in (12, 13, 14):
        formula, plant = planted_kcnf(rng, n, round(4.2 * n), 3)
        index = ImplicationIndex(formula, 4)
        _count_routes(index, counts)
        for _ in range(4):
            amask = avals = 0
            literals = []
            for pos in rng.sample(range(n), n - 6):
                lit = plant[pos] if rng.random() >= 0.1 else -plant[pos]
                amask |= 1 << pos
                avals |= (lit > 0) << pos
                literals.append(lit)
            residual = restrict(formula, literals)
            for var in residual.variables:
                want = tau_implied(residual, var, 4) or 0
                assert index.implied_literal(amask, avals, var) == want, (literals, var)
    assert counts["_one_sided", "hit"] > 0 and counts["_one_sided", "miss"] > 0, counts


def test_dead_states_match_the_reference_at_larger_n():
    # states that no solution extends, with 6..8 free variables at
    # n = 12..14: there the first deciding subset in canonical order sets
    # the literal, and it may be vacuous. At three clauses per variable
    # some of these states have no core of at most tau clauses.
    rng = random.Random(2)
    counts = Counter()
    for n, tau, free in ((12, 5, 6), (13, 4, 7), (14, 3, 8), (12, 4, 8), (14, 5, 6)):
        formula = uniform_kcnf(rng, n, 3 * n, 3)
        index = ImplicationIndex(formula, tau)
        _count_routes(index, counts)
        states = 0
        while states < 3:
            amask, avals, literals = _restriction_state(formula, rng, n - free)
            residual = restrict(formula, literals)
            if index.live(amask, avals) or () in residual.clauses:
                continue
            states += 1
            for var in residual.variables:
                want = tau_implied(residual, var, tau) or 0
                assert index.implied_literal(amask, avals, var) == want, (literals, var, tau)
    assert counts["_dead_state", "hit"] > 0 and counts["_dead_state", "miss"] > 0, counts


def _clause_masks(residual):
    """Each clause's satisfying assignments over the variables the clauses
    mention, in canonical order, and the assignments with each variable
    true: assignment s sets the j-th smallest variable true iff bit j of s
    is set, and a mask has bit s set for each assignment it holds."""
    residual = sorted(residual)
    variables = sorted({abs(lit) for clause in residual for lit in clause})
    space = (1 << (1 << len(variables))) - 1
    true = dict(zip(variables, _polarity_masks(len(variables))))
    masks = []
    for clause in residual:
        satisfying = 0
        for lit in clause:
            satisfying |= true[lit] if lit > 0 else space ^ true[-lit]
        masks.append(satisfying)
    return residual, masks, true, space


def _lex_refute(residual, lit, hi):
    """The reference for a one-sided state: subsets of 3..hi clauses in
    canonical order, the union bound on the side with lit false only
    (clauses holding -lit weigh 0, as the side with lit true is
    satisfiable), and lit at the first subset with no solution on that
    side."""
    residual, pm, true, space = _clause_masks(residual)
    side = true[abs(lit)] if lit < 0 else space ^ true[lit]
    m = len(pm)
    top = 1 << max(map(len, residual))
    w = [0 if -lit in clause else top >> (len(clause) - (lit in clause)) for clause in residual]
    s = [0] * (m + 1)  # suffix maxima
    for i in range(m - 1, -1, -1):
        s[i] = max(w[i], s[i + 1])

    def dive(start, left, mask, p):
        if left == 1:
            for i in range(start, m):
                if p + s[i] < top:
                    return False
                if p + w[i] >= top and not mask & pm[i]:
                    return True
            return False
        rest = left - 1
        for i in range(start, m - rest):
            if p + left * s[i] < top:
                return False
            q = p + w[i]
            if q + rest * s[i + 1] >= top and dive(i + 1, rest, mask & pm[i], q):
                return True
        return False

    return lit if any(dive(0, size, side, 0) for size in range(3, hi + 1)) else 0


def _lex_dead_state(residual, var, hi):
    """The reference for a state with no live solution: subsets of 3..hi
    clauses depth first in canonical order, every branch cut that the
    union bound on both sides of var proves holds no hit, and the literal
    of the first hit."""
    residual, pm, true, space = _clause_masks(residual)
    xtrue = true[var]
    xfalse = space ^ xtrue
    m = len(pm)
    top = 1 << max(map(len, residual))
    w0, w1 = [], []
    for clause in residual:
        weight = top >> (len(clause) - (var in clause or -var in clause))
        w0.append(0 if -var in clause else weight)
        w1.append(0 if var in clause else weight)
    s0 = [0] * (m + 1)
    s1 = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        s0[i] = max(w0[i], s0[i + 1])
        s1[i] = max(w1[i], s1[i + 1])
    over_x = [var in clause or -var in clause for clause in residual]

    def dive(start, left, mask, mentions, p0, p1):
        if left == 1:
            for i in range(start, m):
                if p0 + s0[i] < top and p1 + s1[i] < top:
                    return 0
                if p0 + w0[i] < top and p1 + w1[i] < top:
                    continue
                mi = mask & pm[i]
                if mi == 0:
                    if mentions or over_x[i]:
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
                continue
            hit = dive(i + 1, rest, mask & pm[i], mentions or over_x[i], q0, q1)
            if hit:
                return hit
        return 0

    for size in range(3, hi + 1):
        hit = dive(0, size, space, False, 0, 0)
        if hit:
            return hit
    return 0


def _check_routes(index, counts):
    """Hold index._one_sided and index._dead_state to the canonical-order
    kernels on every call, tallying hits and misses per route."""
    one_sided, dead_state = index._one_sided, index._dead_state

    def checked_one_sided(state, xbit, lit, hi):
        got = one_sided(state, xbit, lit, hi)
        assert got == _lex_refute(state.residual, lit, hi), (state.residual, lit, hi)
        counts["_one_sided", "hit" if got else "miss"] += 1
        return got

    def checked_dead_state(state, xbit, var, hi):
        got = dead_state(state, xbit, var, hi)
        assert got == _lex_dead_state(state.residual, var, hi), (state.residual, var, hi)
        counts["_dead_state", "hit" if got else "miss"] += 1
        return got

    index._one_sided = checked_one_sided
    index._dead_state = checked_dead_state


def test_refutation_matches_the_lex_kernel_on_planted_walks():
    rng = random.Random(73)
    counts = Counter()
    for n in (10, 12, 14, 16):
        for _ in range(4):
            formula = planted_kcnf(rng, n, round(4.2 * n), 3)[0]
            engine = PpszEngine(formula, 4)
            _check_routes(engine.index, counts)
            for _ in range(3):
                sigma = list(formula.variables)
                rng.shuffle(sigma)
                engine.modify(sigma, [rng.getrandbits(1) for _ in range(n)])
    assert counts["_one_sided", "hit"] > 0 and counts["_one_sided", "miss"] > 0, counts


def _seeded_walks(check):
    """Two walks on each of planted and uniform 3-CNF at n = 8..18 and
    tau = 3, 4, 5, after check(index) on each engine's index. A walk
    visits one-sided live states, and once it has left every solution,
    states with no live solution."""
    rng = random.Random(83)
    for n, tau in ((8, 5), (10, 4), (12, 3), (12, 5), (14, 4), (16, 3), (18, 4)):
        for planted in (True, False):
            if planted:
                formula = planted_kcnf(rng, n, round(4.2 * n), 3)[0]
            else:
                formula = uniform_kcnf(rng, n, round(3.5 * n), 3)
            engine = PpszEngine(formula, tau)
            check(engine.index)
            for _ in range(2):
                sigma = list(formula.variables)
                rng.shuffle(sigma)
                engine.modify(sigma, [rng.getrandbits(1) for _ in range(n)])


def test_both_routes_match_the_lex_kernels_on_seeded_walks():
    counts = Counter()
    _seeded_walks(lambda index: _check_routes(index, counts))
    assert all(
        counts[route, outcome] > 0
        for route in ("_one_sided", "_dead_state")
        for outcome in ("hit", "miss")
    ), counts


def _reference_cores(index, state, xbit, value, hi, one_sided):
    """ImplicationIndex._cores as it was before its search skipped the
    cap filter for clauses that bring no new variable: every extension
    of the chosen set re-filters the later candidates against the cap."""
    satisfied = xbit if value else 0
    frame = min(hi - 1, (state.reach & ~xbit).bit_count())
    over_x, others = [], []
    shift = index._n
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
    space = (1 << (1 << frame)) - 1
    true_at = _polarity_masks(frame)
    false_at = [space ^ mask for mask in true_at]
    found = []

    def dive(cands, starts, left, union, order, rows, chosen):
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
                deeper = [c for c in cands[k + 1:] if (grown | c[1]).bit_count() <= frame]
                chosen_i = chosen + (i,)
                if deeper and dive(deeper, len(deeper), left - 1, grown, local, kept, chosen_i):
                    return True
        return False

    dive(clauses, len(over_x) if one_sided else len(clauses), hi, 0, (), space, ())
    return found


def test_core_search_matches_the_reference_search_on_seeded_walks():
    # the sets _cores returns, and their order, on every search of both
    # kinds that the walks run
    counts = Counter()

    def check(index):
        cores = index._cores

        def checked(state, xbit, value, hi, one_sided):
            got = cores(state, xbit, value, hi, one_sided)
            assert got == _reference_cores(index, state, xbit, value, hi, one_sided)
            counts[one_sided, bool(got)] += 1
            return got

        index._cores = checked

    _seeded_walks(check)
    assert all(counts[kind, hit] > 0 for kind in (True, False) for hit in (True, False)), counts


@pytest.mark.parametrize(
    "clauses, tau, searched",
    [
        # with x = 1 the first three clauses leave (2), (-2, 3), (-2, -3);
        # (4), (-4, 5), (-4, -5) have no solution but do not mention x
        (((-1, 2), (-1, -2, 3), (-1, -2, -3), (4,), (-4, 5), (-4, -5)), 4, [3, 3]),
        # all four clauses over x, and the full 2-CNF over 4 and 5, which
        # holds no x and would need a fifth clause over x
        (
            ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3))
            + ((4, 5), (4, -5), (-4, 5), (-4, -5)),
            4,
            [3, 3, 4, 4],
        ),
        # two chains of five clauses: 2 -> 3 -> 4 -> 5 -> -5 once x = 1,
        # and 6 -> ... -> -9 without x
        (
            ((-1, 2), (-1, -2, 3), (-1, -3, 4), (-1, -4, 5), (-1, -5))
            + ((6,), (-6, 7), (-7, 8), (-8, 9), (-9,)),
            5,
            [3, 3, 4, 4, 5, 5],
        ),
    ],
)
def test_a_dead_state_searches_each_size_until_one_decides(clauses, tau, searched):
    # the formula has no solution, so the unrestricted state is dead; its
    # first hit is at the last size searched, and no larger size is tried
    formula = F(*clauses)
    assert count_solutions(formula) == 0
    index = ImplicationIndex(formula, tau)
    cores = index._cores
    caps = []

    def spied(state, xbit, value, hi, one_sided):
        assert not one_sided
        caps.append(hi)
        return cores(state, xbit, value, hi, one_sided)

    index._cores = spied
    got = index.implied_literal(0, 0, 1)
    assert got == tau_implied(formula, 1, tau) == -1
    assert caps == searched


def _routed_hits(formula, x, taus):
    """(reference, index, one-sided searches) at each tau, on the
    unrestricted state."""
    out = []
    for tau in taus:
        index = ImplicationIndex(formula, tau)
        counts = Counter()
        _count_routes(index, counts)
        got = index.implied_literal(0, 0, x)
        out.append((tau_implied(formula, x, tau) or 0, got, counts.total()))
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_one_sided_hit_whose_heaviest_clause_sorts_last(sign):
    # every solution sets x = 5 to sign; with x the other way, (-2, -3) and
    # (-2, 3) force -2, (2, -4) then forces -4, and (4) clashes. The
    # deciding set needs all four clauses, and (4, x) comes last in
    # canonical order, after (1, x), which decides nothing
    x = 5 * sign
    formula = F((-2, 3, x), (-2, -3, x), (2, -4), (4, x), (1, x))
    assert formula.clauses[-1] == (4, x)
    assert _routed_hits(formula, 5, (2, 3, 4)) == [(0, 0, 0), (0, 0, 1), (x, x, 1)]


@pytest.mark.parametrize("sign", [1, -1])
def test_one_sided_set_whose_weights_sum_exactly_to_the_bound(sign):
    # with x = 4 the other way the set leaves (1), (-1, 2), (-1, -2, 3),
    # (-1, -2, -3): four clauses over three variables besides x, as many
    # as a core of four clauses may mention, which must not be cut
    x = 4 * sign
    formula = F((1, x), (-1, 2, x), (-1, -2, 3), (-1, -2, -3))
    assert _routed_hits(formula, 4, (2, 3, 4)) == [(0, 0, 0), (0, 0, 1), (x, x, 1)]


def _satisfies_by_clauses(formula, avals):
    """Reference: every clause has a literal that avals makes true."""
    value = {v: (avals >> i) & 1 == 1 for i, v in enumerate(formula.variables)}
    return all(any(value[abs(lit)] == (lit > 0) for lit in clause) for clause in formula.clauses)


def test_solution_bitmap_matches_the_clause_loop():
    rng = random.Random(101)
    formulas = [F(), F(()), F((), (1, 2)), F((1,), (-2, 5), variables=(1, 2, 5, 9))]
    for n in range(1, 9):
        for _ in range(3):
            clauses = []
            for _ in range(rng.randrange(1, 3 * n + 2)):
                chosen = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
                clauses.append(tuple(v if rng.getrandbits(1) else -v for v in chosen))
            formulas.append(F(*clauses, variables=range(1, n + 1)))
    verdicts = set()
    for formula in formulas:
        index = ImplicationIndex(formula)
        full = (1 << formula.n) - 1
        for avals in range(1 << formula.n):
            want = _satisfies_by_clauses(formula, avals)
            assert bool(index.live(full, avals)) == want, (formula.clauses, avals)
            verdicts.add(want)
        # the live set of the empty state holds each solution once
        assert index.live(0, 0).bit_count() == count_solutions(formula)
        # the variable map and the short clauses come out of the same pass
        variables = formula.variables
        assert index.bit_of == {v: 1 << variables.index(v) for v in variables}
        for width in range(max(map(len, formula.clauses), default=0) + 2):
            want = [
                (sum(1 << variables.index(abs(lit)) for lit in clause), clause)
                for clause in formula.clauses
                if len(clause) <= width
            ]
            assert index.short_clauses(width) == want, (formula.clauses, width)
    assert verdicts == {False, True}

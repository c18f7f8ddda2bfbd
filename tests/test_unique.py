import random
from collections import Counter
from itertools import combinations, product

import pytest

from ppszlab.cnf import Assignment, Formula, restrict
from ppszlab.engine import PpszEngine
from ppszlab.implication import default_tau
from ppszlab.instances import planted_kcnf, uniform_kcnf, unique_kcnf
from ppszlab.oracle import count_solutions, enumerate_solutions
from ppszlab.permutations import construct_sigma
from ppszlab.unique import DppszResult, dppsz, no_hit, solve_unique


def F(*clauses, variables=None, k=None):
    return Formula.from_clauses(clauses, variables=variables, k=k)


def test_forced_chain_resolves_in_round_one():
    # x1 is a unit and then pins x2, so a single guess bit is never needed,
    # but rounds start at one
    result = dppsz(PpszEngine(F((1,), (-1, 2))), [(1, 2), (2, 1)])
    assert result.satisfiable
    assert result.round_found == 1
    assert result.solution.sorted_literals() == (1, 2)


def test_negative_unit_resolves_in_round_one():
    result = dppsz(PpszEngine(F((-1,))), [(1,)])
    assert result.round_found == 1
    assert result.solution.sorted_literals() == (-1,)


def test_unsatisfiable_input_survives_all_rounds():
    formula = F((1, 2), (1, -2), (-1, 2), (-1, -2))
    result = dppsz(PpszEngine(formula), [(1, 2), (2, 1)])
    assert not result.satisfiable
    assert result.round_found is None
    assert not result.cutoff_hit
    assert len(result.modify_calls_per_round) == 2
    assert result.modify_calls == sum(result.modify_calls_per_round)


def test_round_found_matches_the_best_replay():
    # the first successful round equals the fewest guesses any order needs
    # (floored at one, since rounds start there)
    rng = random.Random(47)
    for _ in range(8):
        formula, alpha = unique_kcnf(rng, 5, 3)
        perms = construct_sigma(formula.variables)
        engine = PpszEngine(formula)
        best = min(
            engine.replay(alpha, sigma).guessed for sigma in perms.materialized()
        )
        result = dppsz(engine, perms)
        assert result.round_found == max(1, best)


def test_solutions_returned_are_real():
    rng = random.Random(53)
    for _ in range(6):
        formula, _ = unique_kcnf(rng, 5, 3)
        result = dppsz(PpszEngine(formula), construct_sigma(formula.variables))
        assert result.satisfiable
        assert result.solution.sorted_literals() in enumerate_solutions(formula)


def test_zero_variable_formulas():
    sat = dppsz(PpszEngine(F()), [])
    assert sat.satisfiable
    assert sat.round_found == 0
    assert sat.solution.sorted_literals() == ()
    unsat = dppsz(PpszEngine(F((),)), [])
    assert not unsat.satisfiable
    assert unsat.round_found is None


def _restricted_dppsz(formula, literals, cutoff):
    """The reference: dppsz on the residual formula with its own engine."""
    residual = restrict(formula, literals)
    if residual.clauses[:1] == ((),):
        return None
    perms = construct_sigma(residual.variables) if residual.variables else None
    return dppsz(PpszEngine(residual), perms, max_modify_calls=cutoff)


def test_start_state_runs_match_the_restricted_formula(start_state):
    rng = random.Random(59)
    formulas = [uniform_kcnf(rng, 5, 22, 3), uniform_kcnf(rng, 5, 8, 3)]
    formulas += [planted_kcnf(rng, 6, 20, 3)[0], planted_kcnf(rng, 6, 9, 2)[0]]
    formulas.append(F((1, 2), (-1, -2)))  # size 2 leaves no free variable
    outcomes = Counter()
    for formula in formulas:
        engines = {}
        for size in range(3):
            for combo in combinations(formula.variables, size):
                for signs in product((1, -1), repeat=size):
                    literals = tuple(s * v for s, v in zip(signs, combo))
                    tau = default_tau(formula.n - size)
                    if tau not in engines:
                        engines[tau] = PpszEngine(formula, tau)
                    engine = engines[tau]
                    start = start_state(engine, literals)
                    free = [v for v in formula.variables if v not in combo]
                    perms = construct_sigma(free) if free else None
                    for cutoff in (None, 7):
                        want = _restricted_dppsz(formula, literals, cutoff)
                        assert (start is None) == (want is None), literals
                        if start is None:
                            outcomes["skipped"] += 1
                            continue
                        got = dppsz(engine, perms, max_modify_calls=cutoff, start=start)
                        assert got == want, (literals, cutoff)
                        outcomes["found" if got.satisfiable else "cutoff" if got.cutoff_hit else "none"] += 1
                        outcomes["free=0"] += not free
    # the cases reach every outcome, the empty residual included
    assert all(outcomes[key] for key in ("skipped", "found", "cutoff", "none", "free=0"))


def _scan_results(engine, perms, start):
    """The value-major scan dppsz's counters describe, run once for every
    budget at the same time: round by round, each bit vector in turn is
    walked with each order in index order, and a budget b stops the scan
    just before walk number b. Returns the results for budgets 0..total
    (a larger budget ends like total) and the position of the first hit."""
    amask, avals = start
    n = engine.formula.n - amask.bit_count()
    orders = [tuple(sigma) for sigma in perms]
    results = []
    per_round = []
    calls = 0
    for round_no in range(1, n + 1):
        round_calls = 0
        for value in range(1 << round_no):
            for sigma in orders:
                results.append(DppszResult(None, None, (*per_round, round_calls), calls, True, len(orders)))
                found, profile = engine._walk(sigma, value, round_no, None, amask, avals)
                calls += 1
                round_calls += 1
                if found is not None:
                    per_round.append(round_calls)
                    solution = Assignment(profile.entries)
                    results.append(DppszResult(solution, round_no, tuple(per_round), calls, False, len(orders)))
                    return results, calls - 1
        per_round.append(round_calls)
    results.append(DppszResult(None, None, tuple(per_round), calls, False, len(orders)))
    return results, None


def _assert_matches_the_scan(formula, perms, start=(0, 0), tau=None):
    """dppsz against the scan at every budget from 1 to total + 1 and
    unbudgeted; returns the scan's round of the first hit and its position."""
    want, hit = _scan_results(PpszEngine(formula, tau), perms, start)
    engine = PpszEngine(formula, tau)
    total = want[-1].modify_calls
    for budget in range(1, total + 2):
        got = dppsz(engine, perms, max_modify_calls=budget, start=start)
        assert got == want[min(budget, len(want) - 1)], budget
    assert dppsz(engine, perms, start=start) == want[-1]
    return want[-1].round_found, hit


def test_dppsz_matches_the_value_major_scan():
    rng = random.Random(61)
    cases = [(uniform_kcnf(rng, n, m, k), None) for n, m, k in ((4, 14, 3), (5, 9, 2), (5, 24, 3), (6, 16, 2))]
    cases += [(unique_kcnf(rng, 5, 3)[0], None), (planted_kcnf(rng, 6, 14, 3)[0], None)]
    # tau = 1 leaves most variables to guesses, so hits land in late rounds
    cases += [(unique_kcnf(rng, 6, 3)[0], 1), (unique_kcnf(rng, 5, 2)[0], 1), (planted_kcnf(rng, 6, 8, 3)[0], 1)]
    # many solutions, where the search branches both ways at most guesses
    more = random.Random(62)
    cases += [(uniform_kcnf(more, 6, 6, 3), None), (uniform_kcnf(more, 5, 4, 2), 1)]
    outcomes = Counter()
    for formula, tau in cases:
        family = construct_sigma(formula.variables, independence=1 if formula.n == 6 else None)
        round_found, hit = _assert_matches_the_scan(formula, family, tau=tau)
        outcomes["sat" if hit is not None else "unsat"] += 1
        outcomes["round 4 or later"] += (round_found or 0) >= 4
        outcomes["many solutions"] += count_solutions(formula) >= 1 << (formula.n - 2)
        # explicit order lists with repeats: a few family members drawn
        # with replacement, then one with a copy of the hitting order
        # placed right behind it, on the position after the hit
        orders = [rng.choice(family.materialized()) for _ in range(4)]
        orders.append(orders[1])
        _, hit = _assert_matches_the_scan(formula, orders, tau=tau)
        if hit is None:
            continue
        first = hit % len(orders)
        repeated = orders[: first + 1] + [orders[first]] + orders[first + 1 :]
        assert _assert_matches_the_scan(formula, repeated, tau=tau)[1] == hit + hit // len(orders)
        outcomes["repeat behind the hit"] += 1
    keys = ("sat", "unsat", "round 4 or later", "repeat behind the hit", "many solutions")
    assert all(outcomes[key] for key in keys), outcomes


def test_dppsz_matches_the_scan_from_start_states(start_state):
    rng = random.Random(67)
    formulas = [uniform_kcnf(rng, 6, 30, 3), planted_kcnf(rng, 6, 12, 2)[0]]
    # many solutions, and a start state no solution extends although it
    # falsifies no clause: fixing 1 forces 2 and 3, which (-2, -3) forbids
    formulas += [uniform_kcnf(random.Random(68), 6, 7, 3), F((-1, 2), (-1, 3), (-2, -3), (4, 5, 6))]
    outcomes = Counter()
    for formula in formulas:
        for literals in ((1,), (-2, 5), (3, -4), (-1, -6)):
            tau = default_tau(formula.n - len(literals))
            engine = PpszEngine(formula, tau)
            start = start_state(engine, literals)
            if start is None:
                outcomes["skipped"] += 1
                continue
            free = [v for v in formula.variables if v not in map(abs, literals)]
            _, hit = _assert_matches_the_scan(formula, construct_sigma(free), start, tau)
            outcomes["sat" if hit is not None else "unsat"] += 1
            outcomes["dead start"] += engine.index.live(*start) == 0
            outcomes["many solutions"] += engine.index.live(*start).bit_count() >= 8
    assert all(outcomes[key] for key in ("sat", "unsat", "dead start", "many solutions")), outcomes


def test_dppsz_from_a_dead_start_does_no_search(start_state):
    # no solution extends these starts, though they falsify no clause: the
    # scan's result follows from the budget, and the index is never asked
    formula = F((1, 2), (1, -2, 3), (-1, 4), (-1, -4), (-3, 5), (-3, -5))
    for literals in ((), (3,), (-2, 4)):
        engine = PpszEngine(formula)
        start = start_state(engine, literals)
        assert start is not None and engine.index.live(*start) == 0
        free = [v for v in formula.variables if v not in map(abs, literals)]
        perms = construct_sigma(free)
        want, hit = _scan_results(PpszEngine(formula), perms, start)
        assert hit is None
        lookups = []
        implied = engine.index.implied_literal
        engine.index.implied_literal = lambda *args: lookups.append(args) or implied(*args)
        for budget in (1, 5, len(want) - 2, None):
            got = dppsz(engine, perms, max_modify_calls=budget, start=start)
            assert got == want[-1 if budget is None else min(budget, len(want) - 1)], budget
            assert got == no_hit(len(free), len(perms), budget)
        assert lookups == [] and engine.modify_calls == 0


@pytest.mark.parametrize("orders", [[(1, 2, 3)], [(3,)], [(2, 4)]])
def test_dppsz_rejects_orders_of_other_variables_than_the_free_ones(orders):
    # start fixes 1; unchecked, (1, 2, 3) guessed 1 again in a "solution",
    # (3,) called the satisfiable residual unsatisfiable, (2, 4) raised
    # KeyError
    engine = PpszEngine(F((1, 2), (-1, 3), (2, 3)))
    start = (engine.index.bit_of[1], engine.index.bit_of[1])
    with pytest.raises(ValueError, match="exactly the formula's variables that the start state leaves free"):
        dppsz(engine, orders, start=start)
    result = dppsz(engine, [(3, 2)], start=start)
    assert result.solution.sorted_literals() in ((2, 3), (-2, 3))


def test_engine_counts_only_the_replayed_walk():
    # dppsz's modify_calls is the scan's logical count; the engine's own
    # counter sees only the physical walk that replays the hit
    formula = F((1, 2), (-1, 2), (1, -2))
    engine = PpszEngine(formula, 1)
    result = dppsz(engine, [(1, 2), (2, 1)])
    assert result.solution.sorted_literals() == (1, 2)
    assert (result.modify_calls, engine.modify_calls) == (3, 1)
    unsat = F((1, 2), (1, -2), (-1, 2), (-1, -2))
    engine = PpszEngine(unsat)
    result = dppsz(engine, [(1, 2), (2, 1)])
    assert (result.modify_calls, engine.modify_calls) == (12, 0)


def test_budget_cutoff_is_reported():
    formula = F((1, 2), (1, -2), (-1, 2), (-1, -2))
    result = dppsz(PpszEngine(formula), [(1, 2), (2, 1)], max_modify_calls=3)
    assert result.cutoff_hit
    assert result.solution is None
    assert result.modify_calls == 3


def test_sigma_size_is_recorded():
    formula = F((1, 2))
    perms = construct_sigma(formula.variables)
    result = dppsz(PpszEngine(formula), perms)
    assert result.sigma_size == len(perms)


def test_solve_unique_end_to_end():
    rng = random.Random(59)
    formula, alpha = unique_kcnf(rng, 6, 3)
    report = solve_unique(formula)
    assert report.satisfiable
    assert report.solution.sorted_literals() == tuple(sorted(alpha, key=abs))
    assert report.metadata["n"] == 6
    assert report.metadata["tau"] == 2
    assert report.metadata["tau_derived"] is True
    assert report.metadata["independence"] == 2
    assert report.metadata["prime"] == 7
    assert report.metadata["sigma_size"] == 49
    assert report.sigma_size == 49
    assert len(report.metadata["rounds"]) == report.round_found
    assert report.modify_calls == sum(report.metadata["rounds"])


def test_solve_unique_respects_explicit_knobs():
    formula = F((1, 2, 3), (-1, 2, 3), (1, -2, 3))
    report = solve_unique(formula, 3, independence=1)
    assert report.satisfiable
    assert report.metadata["tau"] == 3
    assert report.metadata["tau_derived"] is False
    assert report.metadata["independence"] == 1


def test_solve_unique_zero_variables():
    sat = solve_unique(F())
    assert sat.satisfiable
    assert sat.round_found == 0
    assert sat.metadata == {
        "n": 0,
        "tau": 0,
        "independence": 0,
        "prime": 0,
        "tau_derived": True,
    }
    unsat = solve_unique(F((),))
    assert not unsat.satisfiable
    assert unsat.round_found is None


def _guess_rates(formula, perms, alpha):
    """Per variable, the share of orders in which a replay against alpha
    guesses it."""
    engine = PpszEngine(formula)
    profiles = [engine.replay(alpha, sigma) for sigma in perms]
    guessed = Counter(
        abs(lit) for profile in profiles for lit, prov in profile.entries if prov == "guessed"
    )
    return {v: guessed[v] / len(profiles) for v in formula.variables}


def test_guess_rates_average_the_permutation_set():
    formula = F((1,), (-1, 2))
    perms = construct_sigma(formula.variables, independence=1)
    rates = _guess_rates(formula, perms, (1, 2))
    # both variables are forced in every order: x1 by its unit, x2 by the
    # residual unit once x1 is set
    assert rates == {1: 0.0, 2: 0.0}


def test_guess_rates_reflect_order_position():
    formula = F((1, 2))
    perms = construct_sigma(formula.variables, independence=2)
    rates = _guess_rates(formula, perms, (-1, 2))
    # the degree-2 family over GF(2) yields orders (1,2), (1,2), (2,1),
    # (1,2); replaying x1=F, x2=T forces x2 whenever x1 goes first, so x2
    # is guessed in exactly one of the four orders
    assert rates == {1: 1.0, 2: 0.25}

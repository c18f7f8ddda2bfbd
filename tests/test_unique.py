import random
from collections import Counter
from itertools import combinations, product

from ppszlab.cnf import Formula, restrict
from ppszlab.engine import PpszEngine
from ppszlab.implication import ImplicationConfig, default_tau
from ppszlab.instances import planted_kcnf, uniform_kcnf, unique_kcnf
from ppszlab.oracle import enumerate_solutions
from ppszlab.permutations import construct_sigma
from ppszlab.unique import dppsz, solve_unique


def F(*clauses, variables=None, k=None):
    return Formula.from_clauses(clauses, variables=variables, k=k)


def test_forced_chain_resolves_in_round_one():
    # x1 is a unit and then pins x2, so a single guess bit is never needed,
    # but rounds start at one
    result = dppsz(F((1,), (-1, 2)), [(1, 2), (2, 1)])
    assert result.satisfiable
    assert result.round_found == 1
    assert result.solution.sorted_literals() == (1, 2)


def test_negative_unit_resolves_in_round_one():
    result = dppsz(F((-1,)), [(1,)])
    assert result.round_found == 1
    assert result.solution.sorted_literals() == (-1,)


def test_unsatisfiable_input_survives_all_rounds():
    formula = F((1, 2), (1, -2), (-1, 2), (-1, -2))
    result = dppsz(formula, [(1, 2), (2, 1)])
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
        result = dppsz(formula, perms, engine=engine)
        assert result.round_found == max(1, best)


def test_solutions_returned_are_real():
    rng = random.Random(53)
    for _ in range(6):
        formula, _ = unique_kcnf(rng, 5, 3)
        result = dppsz(formula, construct_sigma(formula.variables))
        assert result.satisfiable
        assert result.solution.sorted_literals() in enumerate_solutions(formula)


def test_zero_variable_formulas():
    sat = dppsz(F(), [])
    assert sat.satisfiable
    assert sat.round_found == 0
    assert sat.solution.sorted_literals() == ()
    unsat = dppsz(F((),), [])
    assert not unsat.satisfiable
    assert unsat.round_found is None


def _restricted_dppsz(formula, literals, cutoff):
    """The reference: dppsz on the residual formula with its own engine."""
    residual = restrict(formula, literals)
    if residual.clauses[:1] == ((),):
        return None
    perms = construct_sigma(residual.variables) if residual.variables else None
    return dppsz(residual, perms, max_modify_calls=cutoff)


def test_start_state_runs_match_the_restricted_formula():
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
                        engines[tau] = PpszEngine(formula, ImplicationConfig(tau))
                    engine = engines[tau]
                    start = engine.start_state(literals)
                    free = [v for v in formula.variables if v not in combo]
                    perms = construct_sigma(free) if free else None
                    for cutoff in (None, 7):
                        want = _restricted_dppsz(formula, literals, cutoff)
                        assert (start is None) == (want is None), literals
                        if start is None:
                            outcomes["skipped"] += 1
                            continue
                        got = dppsz(
                            formula, perms, max_modify_calls=cutoff, engine=engine, start=start
                        )
                        assert got == want, (literals, cutoff)
                        outcomes["found" if got.satisfiable else "cutoff" if got.cutoff_hit else "none"] += 1
                        outcomes["free=0"] += not free
    # the cases reach every outcome, the empty residual included
    assert all(outcomes[key] for key in ("skipped", "found", "cutoff", "none", "free=0"))


def test_budget_cutoff_is_reported():
    formula = F((1, 2), (1, -2), (-1, 2), (-1, -2))
    result = dppsz(formula, [(1, 2), (2, 1)], max_modify_calls=3)
    assert result.cutoff_hit
    assert result.solution is None
    assert result.modify_calls == 3


def test_sigma_size_is_recorded():
    formula = F((1, 2))
    perms = construct_sigma(formula.variables)
    result = dppsz(formula, perms)
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
    report = solve_unique(formula, ImplicationConfig(tau=3), independence=1)
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
        var for profile in profiles for var, _, prov in profile.entries if prov == "guessed"
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

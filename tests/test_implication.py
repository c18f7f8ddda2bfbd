import random
from itertools import combinations

import pytest

from ppszlab.cnf import Formula, restrict
from ppszlab.implication import (
    ImplicationConfig,
    ImplicationIndex,
    _implied_by_subset,
    default_tau,
    sub_cnf_solutions,
    tau_implied,
)
from ppszlab.instances import satisfiable_kcnf, uniform_kcnf
from ppszlab.oracle import enumerate_solutions, implied_literals


def F(*clauses, variables=None):
    return Formula.from_clauses(clauses, variables=variables)


def cfg(tau):
    return ImplicationConfig(tau=tau)


def test_two_clause_pin():
    formula = F((1, 2), (1, -2))
    assert tau_implied(formula, 1, cfg(2)) == 1
    assert tau_implied(formula, 1, cfg(1)) is None


def test_unit_clause_pins_at_tau_one():
    assert tau_implied(F((1,)), 1, cfg(1)) == 1
    assert tau_implied(F((-1,)), 1, cfg(1)) == -1


def test_unpinned_variable_yields_nothing():
    formula = F((1, 2), (1, -2))
    assert tau_implied(formula, 2, cfg(2)) is None


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
    assert tau_implied(formula, 1, cfg(3)) == 1
    assert tau_implied(formula, 3, cfg(3)) == 3
    assert tau_implied(formula, 1, cfg(2)) is None
    # the unit (-2) is scanned before any vacuous pair, so no tie for y
    assert tau_implied(formula, 2, cfg(2)) == -2


def test_sub_cnf_solutions_spec_cases():
    sols = sub_cnf_solutions([(1, 2)])
    assert sols.variables == (1, 2)
    assert sols.count == 3
    assert sub_cnf_solutions([()]).count == 0
    empty = sub_cnf_solutions([])
    assert empty.count == 1
    assert empty.solutions == ((),)


def test_sub_cnf_solutions_accepts_formulas():
    assert sub_cnf_solutions(F((1,), (2, 3))).count == 3


def test_soundness_against_the_oracle():
    # raw width-3 clauses almost never pin anything at small tau; the
    # interesting queries happen on restrictions, where units appear
    rng = random.Random(23)
    checked = 0
    for _ in range(25):
        formula = satisfiable_kcnf(rng, 6, 15, 3)
        solution = enumerate_solutions(formula).solutions[0]
        prefix = solution[: rng.randrange(1, 5)]
        residual = restrict(formula, prefix)
        if not residual.variables:
            continue
        implied = implied_literals(residual)
        for var in residual.variables:
            lit = tau_implied(residual, var, cfg(3))
            if lit is not None:
                checked += 1
                assert lit in implied
    assert checked > 10


def test_budget_monotonicity():
    rng = random.Random(29)
    hits = 0
    for _ in range(25):
        formula = satisfiable_kcnf(rng, 6, 15, 3)
        solution = enumerate_solutions(formula).solutions[0]
        residual = restrict(formula, solution[: rng.randrange(1, 5)])
        for var in residual.variables:
            narrow = tau_implied(residual, var, cfg(1))
            if narrow is not None:
                hits += 1
                assert tau_implied(residual, var, cfg(2)) == narrow
                assert tau_implied(residual, var, cfg(3)) == narrow
    assert hits > 10


def test_full_budget_decides_exactly_the_frozen_variables():
    rng = random.Random(31)
    for _ in range(25):
        formula = satisfiable_kcnf(rng, 5, 10, 3)
        implied = implied_literals(formula)
        full = cfg(formula.num_clauses)
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
            assert first == tau_implied(formula, var, cfg(2))


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
        ImplicationConfig(tau=0).resolve_tau(5)
    assert ImplicationConfig().tau_is_derived
    assert not ImplicationConfig(tau=2).tau_is_derived
    assert ImplicationConfig().resolve_tau(9) == 3


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
        config = cfg(rng.choice((1, 2, 3)))
        index = ImplicationIndex(formula, config)
        for _ in range(12):
            amask, avals, literals = _restriction_state(formula, rng, rng.randrange(0, 5))
            residual = restrict(formula, literals)
            for var in residual.variables:
                want = tau_implied(residual, var, config)
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
    four = cfg(4)
    deep_hits = vacuous_states = unit_states = 0
    for _ in range(8):
        formula = uniform_kcnf(rng, n, m, k)
        index = ImplicationIndex(formula, four)
        for _ in range(4):
            amask, avals, literals = _restriction_state(formula, rng, rng.choice(assigned))
            residual = restrict(formula, literals)
            widths = {len(clause) for clause in residual.clauses}
            vacuous_states += 0 in widths
            unit_states += 1 in widths
            for var in residual.variables:
                want = tau_implied(residual, var, four)
                got = index.implied_literal(amask, avals, var)
                assert got == (want or 0), (literals, var)
                if want is not None and tau_implied(residual, var, cfg(2)) is None:
                    deep_hits += 1
    # the cases reach the size >= 3 kernel, empty clauses and units
    assert deep_hits > 0 and vacuous_states > 0 and unit_states > 0


def _first_hits(formula, x, taus):
    """(reference, index) answers at each tau, on the unrestricted state."""
    out = []
    for tau in taus:
        want = tau_implied(formula, x, cfg(tau))
        got = ImplicationIndex(formula, cfg(tau)).implied_literal(0, 0, x)
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
    # once x = 0 the weights are 1/2 + 1/4 + 1/4: the bound sits exactly at
    # one, which must not cut the branch
    formula = F((1, 2), (1, -2, 3), (1, -2, -3))
    assert _first_hits(formula, 1, (2, 3)) == [(0, 0), (1, 1)]


def test_vacuous_hit_from_an_unsatisfiable_core_without_x():
    # size 3: the pair (2), (-2) plus the only x-clause
    formula = F((-1, 3), (2,), (-2,))
    assert _first_hits(formula, 1, (2, 3)) == [(0, 0), (1, 1)]
    # size 4: the triple (2, 3), (-2), (-3) plus the only x-clause
    formula = F((-1, 4), (2, 3), (-2,), (-3,))
    assert _first_hits(formula, 1, (3, 4)) == [(0, 0), (1, 1)]

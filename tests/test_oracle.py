import math
import random
from itertools import product

import pytest

from ppszlab.cnf import Evaluation, Formula, evaluate, restrict
from ppszlab.instances import planted_kcnf, uniform_kcnf, unique_kcnf, with_free_variables
from ppszlab.oracle import (
    OracleLimitError,
    UnsatisfiableError,
    _solution_bits,
    classify_variables,
    count_solutions,
    enumerate_solutions,
    first_solution,
    implied_literals,
    is_satisfiable,
)


def F(*clauses, variables=None):
    return Formula.from_clauses(clauses, variables=variables)


def test_enumerate_unit_clause():
    assert enumerate_solutions(F((1,))) == ((1,),)


def test_enumerate_binary_clause_has_three_solutions():
    assert enumerate_solutions(F((1, 2))) == ((-1, 2), (1, -2), (1, 2))


def test_enumerate_contradiction_is_empty():
    assert enumerate_solutions(F((1,), (-1,))) == ()
    assert not is_satisfiable(F((1,), (-1,)))


def test_enumerate_empty_formula_over_no_variables():
    assert enumerate_solutions(F()) == ((),)


def test_enumerate_covers_unconstrained_variables():
    assert enumerate_solutions(F((1,), variables=(1, 2))) == ((1, -2), (1, 2))


def test_solutions_are_sorted_and_membership_is_syntactic():
    sols = enumerate_solutions(F((1, 2)))
    assert list(sols) == sorted(sols)
    assert (1, 2) in sols
    assert (-1, -2) not in sols


def test_count_matches_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        formula = uniform_kcnf(rng, 6, rng.randrange(6, 24), 3)
        assert count_solutions(formula) == len(enumerate_solutions(formula))


def test_counting_identity_under_restriction():
    rng = random.Random(5)
    for _ in range(40):
        formula = uniform_kcnf(rng, 6, 14, 3)
        var = rng.randrange(1, 7)
        total = count_solutions(formula)
        pos = count_solutions(restrict(formula, (var,)))
        neg = count_solutions(restrict(formula, (-var,)))
        assert pos + neg == total


def _brute_force_bits(formula):
    """Every solution as a bitmask over variable positions, trying all value
    tuples in itertools.product order: first variable slowest, false first."""
    pos = {v: i for i, v in enumerate(formula.variables)}
    return [
        sum(1 << i for i, value in enumerate(values) if value)
        for values in product((False, True), repeat=formula.n)
        if all(any(values[pos[abs(lit)]] == (lit > 0) for lit in c) for c in formula.clauses)
    ]


def test_enumeration_order_matches_a_brute_force_loop():
    rng = random.Random(59)
    formulas = [F(), F(()), F((), variables=(1, 2)), F((1, 2, 3), variables=range(1, 10))]
    for n in range(1, 9):
        k = min(3, n)
        for _ in range(30):
            formula = uniform_kcnf(rng, n, min(rng.randrange(5 * n), math.comb(n, k) << k), k)
            formulas += [formula, with_free_variables(formula, 2)]
            lit = rng.choice((1, -1)) * rng.randrange(1, n + 1)
            formulas.append(restrict(formula, (lit,)))  # gaps, maybe the empty clause
    verdicts = set()
    for formula in formulas:
        brute = _brute_force_bits(formula)
        assert list(_solution_bits(formula)) == brute
        assert count_solutions(formula) == len(brute)
        first = first_solution(formula)
        if brute:
            pos_first = brute[0]
            assert first == tuple(
                v if (pos_first >> i) & 1 else -v for i, v in enumerate(formula.variables)
            )
        else:
            assert first is None
        verdicts.add(bool(brute))
    assert verdicts == {True, False}


def test_first_solution_is_the_canonical_minimum():
    formula = F((1, 2))
    assert first_solution(formula) == min(enumerate_solutions(formula))
    assert first_solution(F((1,), (-1,))) is None


def test_implied_literals_spec_cases():
    assert implied_literals(F((1,), (2, 3))) == frozenset({1})
    assert implied_literals(F((1, 2))) == frozenset()


def test_implied_literals_unique_solution_is_the_solution():
    rng = random.Random(9)
    formula, alpha = unique_kcnf(rng, 5, 3)
    assert implied_literals(formula) == frozenset(alpha)


def test_implied_literals_rejects_unsatisfiable():
    with pytest.raises(UnsatisfiableError):
        implied_literals(F((1,), (-1,)))


def test_implied_literals_lie_in_every_solution():
    rng = random.Random(13)
    for _ in range(25):
        formula = planted_kcnf(rng, 6, 14, 3)[0]
        implied = implied_literals(formula)
        for sol in enumerate_solutions(formula):
            assert implied <= set(sol)


def test_classify_spec_cases():
    frozen, liquid = classify_variables(F((1,), (2, 3)))
    assert frozen == (1,)
    assert liquid == (2, 3)
    frozen, liquid = classify_variables(F(variables=(1,)))
    assert frozen == ()
    assert liquid == (1,)


def test_unique_solution_means_no_liquid_variables():
    rng = random.Random(17)
    for _ in range(10):
        formula, _ = unique_kcnf(rng, 5, 3)
        frozen, liquid = classify_variables(formula)
        assert liquid == ()
        assert frozen == formula.variables


def test_oracle_limit_is_enforced():
    wide = F((1, 2, 3), variables=range(1, 30))
    with pytest.raises(OracleLimitError):
        count_solutions(wide)
    assert count_solutions(wide, limit=29) == (7 << 26)


def test_satisfied_complete_assignments_are_enumerated():
    rng = random.Random(21)
    for _ in range(30):
        formula = uniform_kcnf(rng, 5, 12, 3)
        sols = enumerate_solutions(formula)
        assignment = tuple(
            v if rng.getrandbits(1) else -v for v in formula.variables
        )
        verdict = evaluate(formula, assignment)
        assert (assignment in sols) == (verdict is Evaluation.SATISFIED)

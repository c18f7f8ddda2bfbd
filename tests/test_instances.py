import random

import pytest

from ppszlab.cnf import Assignment, Evaluation, evaluate
from ppszlab.instances import (
    planted_kcnf,
    random_assignment,
    satisfiable_kcnf,
    uniform_kcnf,
    unique_kcnf,
    with_free_variables,
)
from ppszlab.oracle import count_solutions, enumerate_solutions


def test_uniform_formulas_have_the_requested_shape():
    formula = uniform_kcnf(random.Random(3), 6, 12, 3)
    assert formula.variables == tuple(range(1, 7))
    assert len(formula.clauses) == 12
    assert formula.k == 3
    assert all(len(clause) == 3 for clause in formula.clauses)
    assert len(set(formula.clauses)) == 12


def test_generators_are_deterministic_per_seed():
    first = uniform_kcnf(random.Random(5), 6, 10, 3)
    second = uniform_kcnf(random.Random(5), 6, 10, 3)
    assert first == second
    assert uniform_kcnf(random.Random(6), 6, 10, 3) != first


def test_uniform_capacity_is_enforced():
    # C(3, 2) * 2^2 = 12 distinct width-2 clauses on three variables
    formula = uniform_kcnf(random.Random(7), 3, 12, 2)
    assert len(formula.clauses) == 12
    with pytest.raises(ValueError):
        uniform_kcnf(random.Random(7), 3, 13, 2)
    with pytest.raises(ValueError):
        uniform_kcnf(random.Random(7), 2, 1, 3)
    with pytest.raises(ValueError):
        uniform_kcnf(random.Random(7), 3, 1, 0)


def test_random_assignments_cover_all_variables():
    rng = random.Random(11)
    alpha = random_assignment(rng, 8)
    assert tuple(abs(lit) for lit in alpha) == tuple(range(1, 9))
    assert any(lit < 0 for lit in random_assignment(rng, 64))


def test_planted_formulas_keep_their_plant():
    rng = random.Random(13)
    for _ in range(10):
        formula, alpha = planted_kcnf(rng, 6, 14, 3)
        assert evaluate(formula, Assignment.from_literals(alpha)) is Evaluation.SATISFIED
        assert len(formula.clauses) == 14


def test_planted_accepts_an_explicit_plant():
    alpha = (1, -2, 3, -4, 5)
    formula, got = planted_kcnf(random.Random(17), 5, 8, 3, alpha=alpha)
    assert got == alpha
    assert evaluate(formula, Assignment.from_literals(alpha)) is Evaluation.SATISFIED


def test_planted_validates_the_plant():
    with pytest.raises(ValueError):
        planted_kcnf(random.Random(1), 4, 4, 3, alpha=(1, 2, 3))
    with pytest.raises(ValueError):
        planted_kcnf(random.Random(1), 4, 4, 3, alpha=(1, 2, 3, 5))
    # one sign pattern per subset is excluded by the plant
    with pytest.raises(ValueError):
        planted_kcnf(random.Random(1), 4, 4 * 7 + 1, 3)


def test_satisfiable_generator_discards_the_plant():
    formula = satisfiable_kcnf(random.Random(19), 6, 12, 3)
    assert count_solutions(formula) >= 1


def test_unique_formulas_have_one_solution():
    rng = random.Random(23)
    for _ in range(5):
        formula, alpha = unique_kcnf(rng, 6, 3)
        solutions = enumerate_solutions(formula)
        assert len(solutions) == 1
        assert tuple(sorted(alpha, key=abs)) in solutions


def test_unique_generator_respects_the_oracle_limit():
    with pytest.raises(ValueError):
        unique_kcnf(random.Random(1), 30, 3)


def test_free_variables_multiply_the_count():
    formula, _ = unique_kcnf(random.Random(29), 5, 3)
    widened = with_free_variables(formula, 3)
    assert widened.variables == tuple(range(1, 9))
    assert widened.clauses == formula.clauses
    assert count_solutions(widened) == 8
    assert with_free_variables(formula, 0) == formula
    with pytest.raises(ValueError):
        with_free_variables(formula, -1)

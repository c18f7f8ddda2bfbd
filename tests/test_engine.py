import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from ppszlab.cnf import Evaluation, Formula
from ppszlab.engine import (
    EnumerationBudgetError,
    PpszEngine,
    ppsz_randomized,
    success_probability_exact,
    success_probability_via_identity,
)
from ppszlab.implication import ImplicationConfig
from ppszlab.instances import unique_kcnf, uniform_kcnf, with_free_variables
from ppszlab.oracle import count_solutions, enumerate_solutions
from ppszlab.permutations import construct_sigma
from ppszlab.suites import identity_corpus


def F(*clauses, variables=None, k=None):
    return Formula.from_clauses(clauses, variables=variables, k=k)


def engine(formula, tau=None):
    return PpszEngine(formula, ImplicationConfig(tau=tau))


def test_two_units_need_no_bits():
    assignment, profile = engine(F((1,), (2,))).modify((1, 2), ())
    assert profile.bits_consumed == 0
    assert profile.guessed == 0
    assert assignment.sorted_literals() == (1, 2)


def test_one_binary_clause_consumes_two_bits():
    assignment, profile = engine(F((1, 2))).modify((1, 2), (1, 1))
    assert profile.bits_consumed == 2
    assert profile.guessed == 2
    assert assignment.sorted_literals() == (1, 2)


def test_short_bit_string_exhausts():
    assignment, profile = engine(F((1, 2))).modify((1, 2), (1,))
    assert assignment is None
    assert profile.exhausted
    assert profile.bits_consumed == 1


def test_completed_walk_can_still_falsify():
    # guessing the first variable false leaves the units (2) and (-2); the
    # first one wins, the finished assignment falsifies the second clause
    assignment, profile = engine(F((1, 2), (1, -2))).modify((1, 2), (0,))
    assert assignment is None
    assert not profile.exhausted
    assert profile.bits_consumed == 1


def test_forced_variables_skip_bits():
    # after x1 is guessed true, (-1, 2) becomes a unit and pins x2
    assignment, profile = engine(F((-1, 2), (1, 2))).modify((1, 2), (1,))
    assert assignment.sorted_literals() == (1, 2)
    assert profile.bits_consumed == 1
    assert profile.guessed == 1
    assert profile.entries == ((1, 1, "guessed"), (2, 2, "forced"))


def test_probability_one_for_a_unit():
    formula = F((1,))
    assert success_probability_exact(formula, [(1,)]) == Fraction(1)
    assert success_probability_via_identity(formula, [(1,)]) == Fraction(1)


def test_probability_zero_when_unsatisfiable():
    formula = F((1,), (-1,))
    assert success_probability_exact(formula, [(1,)]) == Fraction(0)
    assert success_probability_via_identity(formula, [(1,)]) == Fraction(0)


def test_probability_of_a_single_binary_clause():
    # over both orders and all bit strings: whenever the first variable is
    # guessed false the survivor becomes a forced unit, and guessing it true
    # leaves the other variable free, so every walk succeeds
    formula = F((1, 2))
    sigma = [(1, 2), (2, 1)]
    exact = success_probability_exact(formula, sigma)
    assert exact == Fraction(1)
    assert success_probability_via_identity(formula, sigma) == exact


def test_exact_equals_identity_on_random_instances():
    rng = random.Random(43)
    for _ in range(12):
        formula, _ = unique_kcnf(rng, 4, 3)
        perms = construct_sigma(formula.variables)
        exact = success_probability_exact(formula, perms)
        identity = success_probability_via_identity(formula, perms)
        assert exact == identity
        assert isinstance(exact, Fraction)
        assert 0 < exact <= 1


def _exhaustive_probability(formula, orders, cfg=None):
    """Reference route: one full `_walk` per (order, bit vector) pair."""
    eng = PpszEngine(formula, cfg)
    n = formula.n
    successes = 0
    for sigma in orders:
        for value in range(1 << n):
            avals, _ = eng._walk(tuple(sigma), value, n, None)
            if avals is not None:
                successes += 1
    return Fraction(successes, len(orders) << n)


def _draw(rng, n, m, k, satisfiable):
    while True:
        formula = uniform_kcnf(rng, n, m, k)
        if (count_solutions(formula) > 0) == satisfiable:
            return formula


def _differential_cases(rng):
    """(formula, orders) pairs: a satisfiable and an unsatisfiable 3-CNF
    (narrower below n = 3) per n = 1..8, the small ones also with two free
    variables appended, over plain order lists that repeat some orders."""
    for n in range(1, 9):
        k = min(3, n)
        capacity = math.comb(n, k) << k
        formulas = [_draw(rng, n, n, k, True), _draw(rng, n, min(capacity, 6 * n), k, False)]
        if n <= 5:
            formulas += [with_free_variables(f, 2) for f in formulas]
        for formula in formulas:
            family = list(construct_sigma(formula.variables).materialized())
            orders = rng.sample(family, min(len(family), 8))
            orders += orders[:3] + [orders[0]] * 2
            yield formula, orders


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_guess_tree_count_matches_the_exhaustive_loop(tau):
    cfg = ImplicationConfig(tau=tau)
    verdicts = set()
    for formula, orders in _differential_cases(random.Random(700 + tau)):
        expected = _exhaustive_probability(formula, orders, cfg)
        assert success_probability_exact(formula, orders, cfg) == expected
        verdicts.add(expected > 0)
    assert verdicts == {True, False}


def test_guess_tree_count_runs_out_of_bits_like_the_walk():
    # an order that revisits a variable can need more than n guesses; the
    # probability routes reject such orders, so the count is called directly
    for formula, orders in (
        (F((1, 2)), [(1, 1, 2), (2, 1, 2, 1)]),
        (F((1, 2, 3), (-1, 2)), [(1, 2, 1, 3), (3, 3, 2, 1), (1, 2, 3)]),
    ):
        cfg = ImplicationConfig(tau=2)
        eng = PpszEngine(formula, cfg)
        n = formula.n
        assert any(eng._walk(o, v, n, None)[1].exhausted for o in orders for v in range(1 << n))
        expected = _exhaustive_probability(formula, orders, cfg)
        counted = sum(eng.count_successes(o) for o in orders)
        assert Fraction(counted, len(orders) << n) == expected


@pytest.mark.parametrize(
    "orders",
    [[(1, 1, 2)], [(1,)], [(1, 2, 3)], [(1, 2), (2, 2)], [(1, 2), (2, 1, 1)]],
)
def test_probability_routes_reject_orders_that_are_not_permutations(orders):
    formula = F((1, 2))
    for route in (success_probability_exact, success_probability_via_identity):
        with pytest.raises(ValueError, match="exactly the formula's variables"):
            route(formula, orders)


def test_guess_tree_walk_leaves_no_reference_cycle():
    formula = identity_corpus(random.Random(101), 1)[0]
    eng = engine(formula)
    assert eng.count_successes(formula.variables) > 0
    index = weakref.ref(eng.index)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del eng
        assert index() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "position, n, golden",
    [
        (0, 4, Fraction(19, 25)),
        (3, 6, Fraction(621, 784)),
        (7, 7, Fraction(1385, 1568)),
        (18, 8, Fraction(42111, 42592)),
    ],
)
def test_golden_probabilities_of_the_identity_corpus(position, n, golden):
    # pinned from the exhaustive (order, bit vector) loop at the default tau
    formula = identity_corpus(random.Random(101), 19)[position]
    assert formula.n == n
    assert success_probability_exact(formula, construct_sigma(formula.variables)) == golden


def test_probability_counts_every_solution():
    # three satisfying assignments, and every walk lands on one of them
    formula = F((1, 2), variables=(1, 2))
    assert len(enumerate_solutions(formula)) == 3
    assert success_probability_exact(formula, [(1, 2), (2, 1)]) == Fraction(1)


def test_replay_profiles_a_reference_solution():
    formula = F((1, 2), (-1, 2))
    eng = engine(formula)
    profile = eng.replay({1: True, 2: True}, (1, 2))
    assert profile.guessed == 1
    assert profile.entries[1] == (2, 2, "forced")


def test_replay_rejects_a_non_solution():
    eng = engine(F((1, 2), (1, -2)))
    with pytest.raises(ValueError):
        eng.replay({1: False, 2: True}, (1, 2))


def test_replay_accepts_literal_iterables():
    eng = engine(F((1, 2), (-1, 2)))
    by_map = eng.replay({1: False, 2: True}, (1, 2))
    by_lits = eng.replay((-1, 2), (1, 2))
    assert by_map == by_lits


def test_sigma_must_permute_the_variables():
    eng = engine(F((1, 2)))
    for bad in ((1,), (1, 2, 3), (1, 1)):
        with pytest.raises(ValueError):
            eng.modify(bad, ())


def test_enumeration_budget_is_enforced():
    formula = F((1, 2, 3), variables=tuple(range(1, 13)))
    with pytest.raises(EnumerationBudgetError):
        success_probability_exact(formula, [formula.variables], max_evaluations=100)


def test_randomized_runs_are_deterministic_per_seed():
    formula, _ = unique_kcnf(random.Random(5), 5, 3)
    perms = construct_sigma(formula.variables)
    first = [ppsz_randomized(formula, perms, seed=s).to_dict() for s in range(40)]
    second = [ppsz_randomized(formula, perms, seed=s).to_dict() for s in range(40)]
    assert first == second
    assert any(a != b for a, b in zip(first, first[1:]))


def test_trial_records_have_a_stable_shape():
    record = ppsz_randomized(F((1,)), [(1,)], seed=0)
    payload = record.to_dict()
    assert payload["sigma_index"] == 0
    assert payload["result"] == [1]
    assert len(payload["beta"]) == 1
    assert payload["guess_profile"]["guessed"] == 0
    assert payload["guess_profile"]["bits_consumed"] == 0
    assert payload["guess_profile"]["exhausted"] is False
    assert payload["guess_profile"]["entries"] == [
        {"variable": 1, "literal": 1, "provenance": "forced"}
    ]
    assert set(payload) == {"sigma_index", "beta", "result", "guess_profile"}


def test_plain_bit_sequences_are_accepted():
    # bits are read in order: the first one decides the first guess
    assignment, _ = engine(F((1, 2))).modify((1, 2), [True, 0])
    assert assignment.sorted_literals() == (1, -2)


def test_walk_result_satisfies_the_formula():
    formula = F((1, 2), (1, -2))
    assignment, _ = engine(formula).modify((1, 2), (1, 0))
    assert formula.evaluate(assignment) is Evaluation.SATISFIED


def test_engine_counts_walks():
    eng = engine(F((1, 2)))
    eng.modify((1, 2), (1, 1))
    eng.modify((2, 1), (0, 0))
    assert eng.modify_calls == 2

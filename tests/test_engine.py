import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from ppszlab.cnf import FORCED, GUESSED, Evaluation, Formula, evaluate
from ppszlab.engine import (
    EnumerationBudgetError,
    GuessProfile,
    PpszEngine,
    TrialRecord,
    _probability_engine,
    ppsz_randomized,
    success_probability_exact,
    success_probability_via_identity,
)
from ppszlab.implication import ImplicationIndex
from ppszlab.instances import planted_kcnf, unique_kcnf, uniform_kcnf, with_free_variables
from ppszlab.oracle import count_solutions, enumerate_solutions
from ppszlab.permutations import construct_sigma, distinct_orders
from ppszlab.suites import identity_corpus
from ppszlab.unique import dppsz


def F(*clauses, variables=None, k=None):
    return Formula.from_clauses(clauses, variables=variables, k=k)


def engine(formula, tau=None):
    return PpszEngine(formula, tau)


def test_two_units_need_no_bits():
    assignment, profile = engine(F((1,), (2,))).modify((1, 2), ())
    assert profile.guessed == 0
    assert assignment.sorted_literals() == (1, 2)


def test_one_binary_clause_consumes_two_bits():
    assignment, profile = engine(F((1, 2))).modify((1, 2), (1, 1))
    assert profile.guessed == 2
    assert assignment.sorted_literals() == (1, 2)


def test_short_bit_string_exhausts():
    assignment, profile = engine(F((1, 2))).modify((1, 2), (1,))
    assert assignment is None
    assert len(profile.entries) < 2  # stopped short of the order
    assert profile.guessed == 1


def test_completed_walk_can_still_falsify():
    # guessing the first variable false leaves the units (2) and (-2); the
    # first one wins, the finished assignment falsifies the second clause
    assignment, profile = engine(F((1, 2), (1, -2))).modify((1, 2), (0,))
    assert assignment is None
    assert len(profile.entries) == 2  # walked the whole order
    assert profile.guessed == 1


def test_forced_variables_skip_bits():
    # after x1 is guessed true, (-1, 2) becomes a unit and pins x2
    assignment, profile = engine(F((-1, 2), (1, 2))).modify((1, 2), (1,))
    assert assignment.sorted_literals() == (1, 2)
    assert profile.guessed == 1
    assert profile.entries == ((1, "guessed"), (2, "forced"))


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


def test_exact_equals_identity_past_eight_variables():
    # the count's deepest trees in tier-1: one solution at n = 10 and 11,
    # 34 at n = 10, each over its full hash family
    rng = random.Random(111)
    formulas = [unique_kcnf(rng, 10, 3)[0], unique_kcnf(rng, 11, 3)[0], planted_kcnf(rng, 10, 30, 3)[0]]
    assert [count_solutions(formula) for formula in formulas] == [1, 1, 34]
    for formula in formulas:
        perms = construct_sigma(formula.variables)
        exact = success_probability_exact(formula, perms)
        assert exact == success_probability_via_identity(formula, perms)
        assert 0 < exact <= 1


def _reference_walk(eng, sigma, beta_value, beta_length, alpha, amask=0, avals=0):
    """Reference walk: `_walk` as it ran before it carried a live set.
    Every step asks the index, and the success test reads the solution
    bitmap."""
    implied = eng.index.implied_literal
    entries = []
    guessed = 0
    for var in sigma:
        lit = implied(amask, avals, var)
        if lit:
            prov = FORCED
        else:
            if alpha is not None:
                positive = alpha[var]
            else:
                if guessed == beta_length:
                    return None, GuessProfile(tuple(entries), guessed)
                positive = (beta_value >> (beta_length - 1 - guessed)) & 1
            lit = var if positive else -var
            prov = GUESSED
            guessed += 1
        bit = eng.index.bit_of[var]
        amask |= bit
        if lit > 0:
            avals |= bit
        entries.append((lit, prov))
    profile = GuessProfile(tuple(entries), guessed)
    if amask == (1 << eng.formula.n) - 1 and eng.index.live(amask, avals):
        return avals, profile
    return None, profile


def _exhaustive_probability(formula, orders, tau=None):
    """Reference route: one full reference walk per (order, bit vector)
    pair."""
    eng = PpszEngine(formula, tau)
    n = formula.n
    successes = 0
    for sigma in orders:
        for value in range(1 << n):
            avals, _ = _reference_walk(eng, tuple(sigma), value, n, None)
            if avals is not None:
                successes += 1
    return Fraction(successes, len(orders) << n)


def _counted_lookups(eng):
    """Route the engine's implication lookups through a counter; returns
    the list that gets one entry per lookup."""
    lookups = []
    implied = eng.index.implied_literal
    eng.index.implied_literal = lambda *args: lookups.append(args) or implied(*args)
    return lookups


def _many_solutions(rng, n):
    """A satisfiable 3-CNF over n variables with few clauses, so most
    states have live solutions on both sides of most variables."""
    return _draw(rng, n, n, min(3, n), True)


def test_walk_matches_the_reference_walk(start_state):
    # modify with random bits (solved, dead and exhausted walks), replays
    # along solutions, and walks from start states, live or dead
    rng = random.Random(811)
    kinds = Counter()
    for n in range(2, 10):
        for tau in (1, 2, 3, 4):
            formula = _many_solutions(rng, n)
            eng, ref = PpszEngine(formula, tau), PpszEngine(formula, tau)
            lookups = _counted_lookups(eng)
            perms = construct_sigma(formula.variables)
            cases = []
            for _ in range(10):
                length = rng.randrange(n + 1)
                sigma = perms.permutation(rng.randrange(len(perms)))
                cases.append((sigma, rng.getrandbits(length), length, None))
            for solution in enumerate_solutions(formula)[:6]:
                sigma = perms.permutation(rng.randrange(len(perms)))
                cases.append((sigma, None, 0, {abs(lit): lit > 0 for lit in solution}))
            for _ in range(6):
                fixed = rng.sample(formula.variables, rng.randrange(1, n + 1))
                literals = [v if rng.getrandbits(1) else -v for v in fixed]
                start = start_state(eng, literals)
                if start is None:
                    continue
                sigma = [v for v in formula.variables if v not in fixed]
                rng.shuffle(sigma)
                kinds["live start" if eng.index.live(*start) else "dead start"] += 1
                cases.append((tuple(sigma), rng.getrandbits(len(sigma)), len(sigma), None, *start))
            for case in cases:
                lookups.clear()
                got = eng._walk(*case)
                assert got == _reference_walk(ref, *case), (formula.clauses, case)
                avals, profile = got
                kinds["both-live steps"] += len(profile.entries) - len(lookups)
                if case[3] is not None:
                    kinds["replay"] += 1
                elif avals is not None:
                    kinds["solved"] += 1
                else:
                    kinds["exhausted" if len(profile.entries) < len(case[0]) else "dead"] += 1
    keys = ("solved", "dead", "exhausted", "replay", "live start", "dead start", "both-live steps")
    assert all(kinds[key] for key in keys), kinds


def _reference_count(eng, sigma, depth=0, amask=0, avals=0, live=None):
    """Reference count: one order's guess tree, recursed without a memo
    from the node at sigma[depth:] with state (amask, avals) and live set
    live. Every step asks the index. A forced step doubles its child's
    count, a guess adds up the counts of its live children, and a total
    state with a live set is a solution and counts 1."""
    index = eng.index
    if live is None:
        live = index.live(amask, avals)
        if not live:
            return 0
    if depth == len(sigma):
        return 1
    var = sigma[depth]
    bit = index.bit_of[var]
    ones, zeros = index.halves[var]
    lit = index.implied_literal(amask, avals, var)
    f = 0
    for positive in (lit > 0,) if lit else (True, False):
        child = live & (ones if positive else zeros)
        if child:
            values = avals | bit if positive else avals
            f += _reference_count(eng, sigma, depth + 1, amask | bit, values, child)
    return f << 1 if lit else f


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_the_shared_count_matches_the_per_order_count(tau):
    # full hash families and plain lists with duplicates; both kinds of
    # formula, many solutions and none
    rng = random.Random(900 + tau)
    for n in (6, 7, 8):
        for formula in (_many_solutions(rng, n), _draw(rng, n, 6 * n, 3, False)):
            ref = PpszEngine(formula, tau)
            family = construct_sigma(formula.variables)
            size, _, orders = distinct_orders(family)
            materialized = family.materialized()
            want = sum(
                multiplicity * _reference_count(ref, materialized[first])
                for first, (_, multiplicity) in orders.items()
            )
            assert success_probability_exact(formula, family, tau) == Fraction(want, size << n)
            plain = [materialized[rng.randrange(size)] for _ in range(9)]
            plain += plain[:4] + [plain[0]] * 3
            want = sum(_reference_count(ref, sigma) for sigma in plain)
            assert success_probability_exact(formula, plain, tau) == Fraction(want, len(plain) << n)
            eng = PpszEngine(formula, tau)
            for sigma in plain[:3]:
                assert eng.count_successes(sigma) == _reference_count(ref, sigma)


def test_orders_with_a_common_suffix_share_its_nodes():
    # with one solution a node's state is fixed by its suffix, so the
    # count asks once per distinct suffix of the family, where the
    # per-order count asked n times per distinct order
    rng = random.Random(907)
    for n in (5, 6, 7, 8):
        formula, alpha = unique_kcnf(rng, n, 3)
        family = construct_sigma(formula.variables)
        _, variables, orders = distinct_orders(family)
        suffixes = {ranks[d:] for ranks, _ in orders.values() for d in range(n)}
        eng = PpszEngine(formula)
        lookups = _counted_lookups(eng)
        count = eng._count(orders.values(), eng._check_order(variables))
        assert len(lookups) == len(suffixes) < n * len(orders)
        replays = [eng.replay(alpha, family.permutation(first)).guessed for first in orders]
        assert count == sum(m << (n - g) for (_, m), g in zip(orders.values(), replays))


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
    # both routes, each one first on every other formula: the first builds
    # the shared engine and the second reads its memo
    verdicts = set()
    routes = (success_probability_exact, success_probability_via_identity)
    for i, (formula, orders) in enumerate(_differential_cases(random.Random(700 + tau))):
        expected = _exhaustive_probability(formula, orders, tau)
        for route in routes[i % 2 :] + routes[: i % 2]:
            assert route(formula, orders, tau) == expected, route.__name__
        verdicts.add(expected > 0)
    assert verdicts == {True, False}


@pytest.fixture
def index_work(monkeypatch):
    """Counts of ImplicationIndex builds, sweeps and lookups made from
    here on."""
    counts = {"builds": 0, "sweeps": 0, "lookups": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ImplicationIndex, "__init__", counted("builds", ImplicationIndex.__init__))
    monkeypatch.setattr(ImplicationIndex, "_sweep", counted("sweeps", ImplicationIndex._sweep))
    monkeypatch.setattr(
        ImplicationIndex, "implied_literal", counted("lookups", ImplicationIndex.implied_literal)
    )
    return counts


def test_the_identity_route_reads_the_exact_routes_engine(index_work):
    # one solution, where every step is looked up, and many, where the
    # steps that live solutions take both ways are not
    rng = random.Random(251)
    for formula, both_live in ((unique_kcnf(rng, 7, 3)[0], False), (_many_solutions(rng, 7), True)):
        perms = construct_sigma(formula.variables)
        index_work.update(builds=0, sweeps=0, lookups=0)
        exact = success_probability_exact(formula, perms)
        assert index_work["builds"] == 1 and index_work["sweeps"] > 0
        index_work.update(builds=0, sweeps=0, lookups=0)
        assert success_probability_via_identity(formula, perms) == exact
        assert index_work["builds"] == 0 and index_work["sweeps"] == 0
        walks = len(enumerate_solutions(formula)) * len(distinct_orders(perms)[2])
        assert (index_work["lookups"] < formula.n * walks) == both_live


def test_another_formula_or_tau_builds_its_own_engine(index_work):
    rng = random.Random(257)
    first, _ = unique_kcnf(rng, 6, 3)
    second, _ = unique_kcnf(rng, 6, 3)
    assert first != second
    orders = construct_sigma(first.variables).materialized()[:5]
    builds = []
    for route, formula, tau in [
        (success_probability_exact, first, 2),
        (success_probability_via_identity, first, 3),
        (success_probability_via_identity, second, 3),
        (success_probability_exact, second, 3),
        (success_probability_exact, first, 3),
    ]:
        route(formula, orders, tau)
        builds.append(index_work["builds"])
    assert builds == [1, 2, 3, 3, 4]


def test_the_engine_slot_keeps_one_engine_and_no_cycle():
    rng = random.Random(263)
    first, _ = unique_kcnf(rng, 5, 3)
    second, _ = unique_kcnf(rng, 5, 3)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        success_probability_exact(first, construct_sigma(first.variables))
        index = weakref.ref(_probability_engine(first, None).index)
        assert index() is not None
        success_probability_via_identity(second, construct_sigma(second.variables))
        assert index() is None
    finally:
        if was_enabled:
            gc.enable()


def test_guess_tree_count_visits_only_branches_a_solution_extends():
    # with one solution the only live branch is its own path: one lookup
    # per variable, and the count is the replay's 2^(n - guessed); with
    # none the index is never asked
    rng = random.Random(149)
    for n in (4, 6, 8):
        formula, alpha = unique_kcnf(rng, n, 3)
        unsat = _draw(rng, n, min(6 * n, math.comb(n, 3) << 3), 3, False)
        for sigma in construct_sigma(formula.variables).materialized()[:6]:
            eng = engine(formula)
            lookups = []
            implied = eng.index.implied_literal
            eng.index.implied_literal = lambda *args: lookups.append(args) or implied(*args)
            guessed = eng.replay(alpha, sigma).guessed
            lookups.clear()
            assert eng.count_successes(sigma) == 1 << (n - guessed)
            assert len(lookups) == n
            eng = engine(unsat)
            eng.index.implied_literal = lambda *args: lookups.append(args)
            lookups.clear()
            assert eng.count_successes(sigma) == 0 and lookups == []


@pytest.mark.parametrize(
    "orders",
    [[(1, 1, 2)], [(1,)], [(1, 2, 3)], [(1, 2), (2, 2)], [(1, 2), (2, 1, 1)]],
)
def test_probability_routes_reject_orders_that_are_not_permutations(orders):
    formula = F((1, 2))
    for route in (success_probability_exact, success_probability_via_identity, _count_each):
        with pytest.raises(ValueError, match="exactly the formula's variables"):
            route(formula, orders)


def _count_each(formula, orders):
    eng = PpszEngine(formula)
    return [eng.count_successes(sigma) for sigma in orders]


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
    assert profile.entries[1] == (2, "forced")


def test_replay_rejects_a_non_solution():
    eng = engine(F((1, 2), (1, -2)))
    with pytest.raises(ValueError):
        eng.replay({1: False, 2: True}, (1, 2))


@pytest.mark.parametrize("sigma", [(1, 1, 2, 3), (1, 2, 4), (1, 2)])
def test_replay_rejects_an_order_that_is_not_a_permutation(sigma):
    # unchecked, (1, 1, 2, 3) profiled variable 1 twice, (1, 2, 4) raised
    # KeyError and (1, 2) called the solution a non-solution
    eng = engine(F((1, 2), (-1, 3)))
    with pytest.raises(ValueError, match="exactly the formula's variables"):
        eng.replay([1, 2, 3], sigma)
    assert [abs(lit) for lit, _ in eng.replay([1, 2, 3], (3, 1, 2)).entries] == [3, 1, 2]


def test_profiles_count_their_guesses():
    # every walk kind: modify with bit vectors of random length (a short one
    # exhausts), a replay along every solution, and the randomized trial
    rng = random.Random(43)
    kinds = set()
    for n in range(3, 9):
        for tau in range(1, 5):
            formula = planted_kcnf(rng, n, 2 * n, 3)[0]
            eng = PpszEngine(formula, tau)
            perms = construct_sigma(formula.variables)
            profiles = []
            for _ in range(6):
                sigma = perms.permutation(rng.randrange(len(perms)))
                bits = [rng.getrandbits(1) for _ in range(rng.randrange(n + 1))]
                assignment, profile = eng.modify(sigma, bits)
                # one bit per guess; a walk stops short of its order only
                # when it has read every bit
                exhausted = len(profile.entries) < n
                assert profile.guessed == len(bits) if exhausted else profile.guessed <= len(bits)
                if assignment is not None:
                    assert assignment.entries == profile.entries
                    kinds.add("solved")
                kinds.add("exhausted" if exhausted else "finished")
                profiles.append(profile)
            for solution in enumerate_solutions(formula):
                profile = eng.replay(solution, perms.permutation(rng.randrange(len(perms))))
                assert len(profile.entries) == n  # reads no bits, so never runs out
                profiles.append(profile)
            for seed in range(3):
                record = ppsz_randomized(formula, perms, tau, seed)
                payload = record.to_dict()["guess_profile"]
                assert payload["bits_consumed"] == record.profile.guessed
                assert payload["exhausted"] is False
                for entry in payload["entries"]:
                    assert entry["variable"] == abs(entry["literal"])
                profiles.append(record.profile)
            for profile in profiles:
                assert profile.guessed == sum(prov == GUESSED for _, prov in profile.entries)
    assert kinds == {"solved", "exhausted", "finished"}


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


@pytest.mark.parametrize("bad", [(1, 1, 2), (1, 2), (1, 2, 3, 4)])
def test_randomized_trial_rejects_an_order_that_is_not_a_permutation(bad):
    # unchecked, (1, 1, 2) walks variable 1 twice, never walks 3 and
    # returns a profile of three guesses
    formula = F((1, 2), (-1, 3))
    with pytest.raises(ValueError, match="exactly the formula's variables"):
        ppsz_randomized(formula, [bad])


def test_enumeration_budget_is_enforced(index_work):
    # 9 orders x 2^20 bit vectors is past the budget of 2^23, for either
    # route, and no engine is built
    formula = F((1, 2, 3), variables=tuple(range(1, 21)))
    for route in (success_probability_exact, success_probability_via_identity):
        with pytest.raises(EnumerationBudgetError):
            route(formula, [formula.variables] * 9)
    assert index_work["builds"] == 0


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
    # a randomized trial draws a bit per variable and so never runs out; a
    # walk handed only the first of them does
    _, profile = engine(F((1, 2))).modify((1, 2), (1,))
    payload = TrialRecord(0, (1, 0), None, profile).to_dict()
    assert payload["guess_profile"]["exhausted"] is True
    assert payload["guess_profile"]["bits_consumed"] == payload["guess_profile"]["guessed"] == 1


def test_plain_bit_sequences_are_accepted():
    # bits are read in order: the first one decides the first guess
    assignment, _ = engine(F((1, 2))).modify((1, 2), [True, 0])
    assert assignment.sorted_literals() == (1, -2)


def test_start_state_leaves_the_memo_empty(start_state):
    engine = PpszEngine(F((1, 2), (-1, 3), (-3,)))
    assert start_state(engine, ()) == (0, 0)
    assert start_state(engine, (-1, 2)) == (0b11, 0b10)
    assert start_state(engine, (-2, -1)) is None  # falsifies (1 2)
    assert start_state(engine, (3,)) is None  # falsifies (-3)
    assert engine.index._state_cache == {} and engine.index._result_cache == {}


def test_an_empty_order_family_is_rejected():
    formula = F((1, 2), (-1, 2))
    for route in (success_probability_exact, success_probability_via_identity):
        with pytest.raises(ValueError, match="at least one order"):
            route(formula, [])
    with pytest.raises(ValueError, match="at least one order"):
        dppsz(PpszEngine(formula), [])
    with pytest.raises(ValueError, match="at least one order"):
        ppsz_randomized(formula, [])
    # with nothing to assign, dppsz answers before it reads the family
    assert dppsz(PpszEngine(F()), ()).round_found == 0
    assert dppsz(PpszEngine(F(())), ()).round_found is None


def test_walk_result_satisfies_the_formula():
    formula = F((1, 2), (1, -2))
    assignment, _ = engine(formula).modify((1, 2), (1, 0))
    assert evaluate(formula, assignment) is Evaluation.SATISFIED


def test_engine_counts_walks():
    eng = engine(F((1, 2)))
    eng.modify((1, 2), (1, 1))
    eng.modify((2, 1), (0, 0))
    assert eng.modify_calls == 2

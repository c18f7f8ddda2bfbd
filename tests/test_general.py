import itertools
import math
import random
from collections import Counter, deque
from dataclasses import replace

import pytest

from ppszlab import cnf, general
from ppszlab.analysis import lambda_k
from ppszlab.cnf import Evaluation, Formula, evaluate, restrict
from ppszlab.general import (
    construct_good_assignment,
    cutoff_budget,
    default_slack,
    solve_general,
)
from ppszlab.engine import PpszEngine
from ppszlab.implication import ImplicationIndex, resolve_tau
from ppszlab.instances import planted_kcnf, uniform_kcnf, unique_kcnf
from ppszlab.oracle import UnsatisfiableError, count_solutions
from ppszlab.permutations import construct_sigma, hash_family
from ppszlab.unique import dppsz, no_hit


def F(*clauses, variables=None, k=None):
    return Formula.from_clauses(clauses, variables=variables, k=k)


def test_default_slack_values():
    assert default_slack(0) == 0.0
    assert default_slack(1) == 2.0
    assert default_slack(7) == 6.0


def test_cutoff_budget_matches_float_arithmetic_when_small():
    lam = lambda_k(3)
    for free in range(0, 30):
        for slack in (0.0, 1.5, 6.0):
            want = max(1, math.ceil(2.0 ** ((1.0 - lam) * free + slack)))
            assert cutoff_budget(free, 3, slack) == want


def test_cutoff_budget_floors_at_one():
    assert cutoff_budget(0, 3, 0.0) == 1
    assert cutoff_budget(0, 3, -5.0) == 1
    assert cutoff_budget(3, 3, -100.0) == 1


def test_cutoff_budget_survives_huge_exponents():
    lam = lambda_k(3)
    budget = cutoff_budget(1000, 3, 0.0)
    assert budget > 0
    assert math.isclose(math.log2(budget), (1.0 - lam) * 1000, abs_tol=1e-9)


def test_cutoff_budget_widths_below_three_share_the_constant():
    assert cutoff_budget(8, 2, 1.0) == cutoff_budget(8, 3, 1.0)
    assert cutoff_budget(8, 1, 1.0) == cutoff_budget(8, 3, 1.0)


def test_cutoff_budget_rejects_negative_free_counts():
    with pytest.raises(ValueError):
        cutoff_budget(-1, 3, 0.0)


def _runs(monkeypatch, formula, i):
    """_instance_runs's (literals, perms) per restriction, each dppsz call
    recorded and answered with no hit."""
    runs = []

    def recorded(engine, perms, cutoff, *, start):
        runs.append(perms)
        return no_hit(engine.formula.n - start[0].bit_count(), len(perms) if perms else 0, cutoff)

    monkeypatch.setattr(general, "dppsz", recorded)
    engine = PpszEngine(formula)
    literals = []
    for combo, start, stop, _, _ in general._instance_runs(engine, i, None, 10):
        assert stop == start + 1  # every restriction is live, one item each
        literals.append(tuple(v if start >> (i - 1 - t) & 1 else -v for t, v in enumerate(combo)))
    assert len(runs) == len(literals)
    return list(zip(literals, runs))


def test_restriction_enumeration_order(monkeypatch):
    free_cube = F(variables=(1, 2, 3))
    assert [lits for lits, _ in _runs(monkeypatch, free_cube, 0)] == [()]
    pairs = _runs(monkeypatch, free_cube, 2)
    literals = [lits for lits, _ in pairs]
    assert literals[:4] == [(-1, -2), (-1, 2), (1, -2), (1, 2)]
    assert literals[4] == (-1, -3)
    assert len(literals) == 12
    # the four polarity patterns of one subset share one permutation set,
    # and it orders exactly the variables the subset leaves free
    assert len({id(perms) for _, perms in pairs}) == 3
    for at in range(0, 12, 4):
        perms = pairs[at][1]
        assert all(other is perms for _, other in pairs[at : at + 4])
        fixed = {abs(lit) for lit in literals[at]}
        free = [v for v in (1, 2, 3) if v not in fixed]
        assert list(perms.variables) == free
        assert all(sorted(order) == free for order in perms)
    # fixing every variable leaves none to order
    assert {perms for _, perms in _runs(monkeypatch, free_cube, 3)} == {None}


def test_good_assignment_for_a_unique_solution_is_empty():
    formula, _ = unique_kcnf(random.Random(67), 5, 3)
    good = construct_good_assignment(formula)
    assert good.size == 0
    assert good.steps == ()
    assert good.solutions == 1
    assert good.target_size == 0


def test_good_assignment_halves_a_free_cube():
    formula = F(variables=(1, 2, 3))
    good = construct_good_assignment(formula)
    assert good.solutions == 8
    assert good.target_size == 3
    assert good.assignment.sorted_literals() == (1, 2, 3)
    assert [s.kind for s in good.steps] == ["halve", "halve", "halve"]
    assert [(s.count_before, s.count_after) for s in good.steps] == [
        (8, 4),
        (4, 2),
        (2, 1),
    ]


def test_good_assignment_pads_when_halving_finishes_early():
    formula = F((1, 2), variables=(1, 2, 3))
    good = construct_good_assignment(formula)
    assert good.solutions == 6
    assert good.target_size == 3
    assert good.assignment.sorted_literals() == (-1, 2, 3)
    assert [s.kind for s in good.steps] == ["halve", "halve", "pad"]
    rest = restrict(formula, good.assignment.sorted_literals())
    assert count_solutions(rest) == 1


def test_good_assignment_leaves_exactly_one_solution():
    rng = random.Random(71)
    for _ in range(8):
        formula = planted_kcnf(rng, 5, 8, 3)[0]
        total = count_solutions(formula)
        good = construct_good_assignment(formula)
        assert good.size == good.target_size == (total - 1).bit_length()
        assert count_solutions(restrict(formula, good.assignment.sorted_literals())) == 1
        for step in good.steps:
            if step.kind == "halve":
                assert step.count_after <= step.count_before // 2


def test_good_assignment_needs_a_satisfiable_formula():
    with pytest.raises(UnsatisfiableError):
        construct_good_assignment(F((1,), (-1,)))


def test_solve_forced_chain_at_instance_zero():
    formula = F((1,), (-1, 2), (-2, 3))
    result = solve_general(formula)
    assert result.satisfiable
    assert result.instance_found == 0
    assert result.solution.sorted_literals() == (1, 2, 3)
    assert result.metadata["mode"] == "sequential"
    assert result.metadata["lambda"] == lambda_k(3)
    assert result.metadata["slack"] == 4.0


def test_solve_unconstrained_variables():
    result = solve_general(F(variables=(1, 2, 3)))
    assert result.satisfiable
    assert result.instance_found == 0
    assert result.solution.sorted_literals() == (-1, -2, -3)


def test_solve_reports_unsatisfiable_with_full_counts():
    formula = F((1, 2), (1, -2), (-1, 2), (-1, -2))
    result = solve_general(formula)
    assert not result.satisfiable
    assert result.instance_found is None
    assert result.restrictions_tried == 9
    assert result.restrictions_skipped == 4
    assert result.dppsz_calls == 5
    assert result.cutoff_hits == 0


def test_solve_counts_every_restriction_when_unsatisfiable():
    formula = F((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3),
                (1, 2, -3), (-1, -2, 3), (1, -2, -3), (-1, 2, 3))
    result = solve_general(formula)
    assert not result.satisfiable
    assert result.restrictions_tried == 3**3


def test_solve_survives_starved_budgets():
    # slack so low that every residual run gets a single walk; later
    # instances still finish the job
    formula = F((1, 2), (-1, 2), (1, -2))
    result = solve_general(formula, slack=-100.0)
    assert result.satisfiable
    assert result.solution.sorted_literals() == (1, 2)
    assert result.cutoff_hits >= 1
    assert result.instance_found >= 1


def test_solve_merges_fixed_and_residual_literals():
    rng = random.Random(73)
    for _ in range(4):
        formula = planted_kcnf(rng, 5, 10, 3)[0]
        result = solve_general(formula)
        assert result.satisfiable
        assert evaluate(formula, result.solution) is Evaluation.SATISFIED


def test_slice_mode_agrees_with_sequential():
    unsat = F((1, 2), (1, -2), (-1, 2), (-1, -2))
    sliced = solve_general(unsat, slice_budget=3)
    assert not sliced.satisfiable
    assert sliced.metadata["mode"] == "slices"
    assert sliced.metadata["slice_budget"] == 3
    sat = F((1,), (-1, 2), (-2, 3))
    found = solve_general(sat, slice_budget=2)
    assert found.satisfiable
    assert evaluate(sat, found.solution) is Evaluation.SATISFIED
    # a slice longer than the whole search is the sequential run
    rng = random.Random(83)
    formulas = [uniform_kcnf(rng, 5, 30, 3), planted_kcnf(rng, 6, 24, 3)[0]]
    for formula, satisfiable in zip(formulas, (False, True)):
        sequential = solve_general(formula, slack=0.0)
        assert sequential.satisfiable is satisfiable
        whole = solve_general(formula, slack=0.0, slice_budget=sequential.modify_calls + 1)
        assert whole.metadata["mode"] == "slices"
        assert sequential.metadata["mode"] == "sequential"
        assert replace(whole, metadata=sequential.metadata) == sequential


def test_huge_slack_changes_no_budget(monkeypatch):
    # any slack past the clamp already means no cutoff, so the budgets are
    # built from the clamp and the reported slack stays the caller's
    slacks = []

    def watched(free, k, slack):
        slacks.append(slack)
        return cutoff_budget(free, k, slack)

    monkeypatch.setattr(general, "cutoff_budget", watched)
    rng = random.Random(83)
    for formula in (uniform_kcnf(rng, 5, 30, 3), planted_kcnf(rng, 6, 24, 3)[0]):
        huge = solve_general(formula, slack=1e8)
        moderate = solve_general(formula, slack=300.0)
        assert huge.metadata["slack"] == 1e8
        assert replace(huge, metadata=moderate.metadata) == moderate
    assert slacks and max(slacks) == general._SLACK_CLAMP


@pytest.mark.parametrize("tau", [None, 3])
def test_restrictions_share_one_engine(monkeypatch, tau):
    calls = {"restrict": 0, "index": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cnf, "restrict", counted("restrict", cnf.restrict))
    monkeypatch.setattr(general, "restrict", counted("restrict", general.restrict))
    monkeypatch.setattr(
        ImplicationIndex, "__init__", counted("index", ImplicationIndex.__init__)
    )
    formula = uniform_kcnf(random.Random(1), 6, 40, 3)
    result = solve_general(formula, tau)
    assert not result.satisfiable and result.restrictions_tried == 3**6
    # default tau over 6..0 free variables takes the values 2 and 1, and
    # both are lookup depths of the one index
    assert calls == {"restrict": 0, "index": 1}


def test_shared_memos_stay_within_their_limits(monkeypatch):
    peaks = []
    survivors = ImplicationIndex._survivors
    implied = ImplicationIndex.implied_literal

    def watch(index):
        peak = peaks[-1]
        peak["bytes"] = max(peak["bytes"], index._state_bytes)
        peak["states"] = max(peak["states"], len(index._state_cache))
        peak["result"] = max(peak["result"], len(index._result_cache))

    def watched_survivors(self, amask, avals):
        found = survivors(self, amask, avals)
        watch(self)
        return found

    def watched_implied(self, amask, avals, var):
        lit = implied(self, amask, avals, var)
        watch(self)
        # the memo's count is the cost of the states it holds
        held = sum(256 + 128 * len(state.residual) for state in self._state_cache.values())
        assert self._state_bytes == held
        return lit

    monkeypatch.setattr(ImplicationIndex, "_survivors", watched_survivors)
    monkeypatch.setattr(ImplicationIndex, "implied_literal", watched_implied)
    # satisfiable, so the searches reach the index: no search runs from a
    # restriction that no solution extends
    formula = planted_kcnf(random.Random(1), 10, 42, 3)[0]
    peaks.append(dict.fromkeys(("bytes", "states", "result"), 0))
    default = solve_general(formula)
    monkeypatch.setattr(ImplicationIndex, "STATE_CACHE_BYTES", 1 << 14)
    monkeypatch.setattr(ImplicationIndex, "RESULT_CACHE_LIMIT", 32)
    peaks.append(dict.fromkeys(("bytes", "states", "result"), 0))
    bounded = solve_general(formula)
    assert default.satisfiable and default.instance_found == 1 and bounded == default
    # the restrictions of instances 0 and 1 need far more room than the
    # limits give
    assert peaks[0]["bytes"] > 1 << 15 and peaks[0]["states"] > 64 and peaks[0]["result"] > 32
    # every cached state is charged at least 256 bytes
    assert 1 << 13 < peaks[1]["bytes"] <= 1 << 14 and peaks[1]["states"] <= 64
    assert peaks[1]["result"] == 32


@pytest.mark.parametrize("tau", [2, 3])
def test_cores_are_searched_only_for_size_three_sweeps(monkeypatch, tau):
    searches, routed, charges = [], [], []
    cores = ImplicationIndex._cores
    survivors = ImplicationIndex._survivors

    def counted_survivors(self, amask, avals):
        before = self._state_bytes
        new = (amask, avals) not in self._state_cache
        state = survivors(self, amask, avals)
        if new:
            # a memo emptied for this state holds it alone, and its count
            # restarts at the state's cost
            cleared = len(self._state_cache) == 1
            charges.append((state, self._state_bytes - (0 if cleared else before)))
        else:
            assert self._state_bytes == before
        return state

    def counted_cores(self, state, *args):
        searches.append(state)
        return cores(self, state, *args)

    def counted(route):
        def sweep(self, state, *args):
            routed.append(state)
            return route(self, state, *args)

        return sweep

    monkeypatch.setattr(ImplicationIndex, "_survivors", counted_survivors)
    monkeypatch.setattr(ImplicationIndex, "_cores", counted_cores)
    # both size >= 3 routes: one-sided live states and states with no
    # live solution
    for name in ("_one_sided", "_dead_state"):
        monkeypatch.setattr(ImplicationIndex, name, counted(getattr(ImplicationIndex, name)))
    # satisfiable, so the searches reach the index (see above)
    formula = planted_kcnf(random.Random(1), 10, 42, 3)[0]
    assert solve_general(formula, tau).satisfiable
    # the state memo is charged once per state, for its clauses only: the
    # search keeps no table with the state
    assert charges
    for state, cost in charges:
        assert cost == 256 + 128 * len(state.residual), cost
    if tau == 2:
        assert searches == [] and routed == []
        return
    # every search serves a size >= 3 route, and reads the routed state
    assert 0 < len(routed) <= len(searches)
    assert {id(state) for state in searches} == {id(state) for state in routed}


def test_slice_budget_must_be_positive():
    with pytest.raises(ValueError):
        solve_general(F((1, 2)), slice_budget=0)


def test_solve_is_deterministic():
    formula = planted_kcnf(random.Random(79), 5, 9, 3)[0]
    assert solve_general(formula) == solve_general(formula)


def test_planted_sixteen_variables_solve_at_instance_one():
    # the large-n guard: the searches visit only branches a solution
    # extends and each implication sweep reads the same live sets, which
    # keeps this solve to seconds; the logical counters are the full scan's
    formula = planted_kcnf(random.Random(5), 16, 67, 3)[0]
    result = solve_general(formula)
    assert result.satisfiable and result.instance_found == 1
    assert result.modify_calls == 51905


def _reference_solve(formula, tau, independence, slice_budget, start_state, slack=None):
    """The restriction loop with a search for every restriction: per
    restriction, the clause loop, then dppsz on every one that falsifies
    no clause. Returns the solution, its instance and the five counters."""
    n = formula.n
    if slack is None:
        slack = default_slack(n)
    engine = PpszEngine(formula, tau)
    cutoffs = [cutoff_budget(n - i, formula.k, slack) for i in range(n + 1)]

    def restrictions(i):
        for combo in itertools.combinations(formula.variables, i):
            free = [v for v in formula.variables if v not in combo]
            perms = construct_sigma(free, independence) if free else None
            for bits in range(1 << i):
                signs = [(bits >> (i - 1 - j)) & 1 for j in range(i)]
                yield tuple(v if sign else -v for sign, v in zip(signs, combo)), perms

    counts = [0] * 5  # tried, skipped, dppsz calls, modify calls, cutoff hits
    queue = deque((i, restrictions(i)) for i in range(n + 1))
    while queue:
        i, stream = queue.popleft()
        engine.index.tau = resolve_tau(tau, n - i)
        spent = 0
        for literals, perms in stream:
            counts[0] += 1
            start = start_state(engine, literals)
            if start is None:
                counts[1] += 1
                continue
            result = dppsz(engine, perms, cutoffs[i], start=start)
            counts[2] += 1
            counts[3] += result.modify_calls
            counts[4] += result.cutoff_hit
            if result.satisfiable:
                fixed = tuple((lit, cnf.FIXED) for lit in literals)
                return cnf.Assignment(fixed + result.solution.entries), i, counts
            spent += result.modify_calls
            if slice_budget is not None and spent >= slice_budget:
                queue.append((i, stream))
                break
    return None, None, counts


def _random_formula(rng):
    """n = 0..7 variables, some left unconstrained, and clauses of zero to
    three literals, the empty clause rare."""
    n = rng.randint(0, 7)
    clauses = []
    for _ in range(rng.randint(0, 4 * n + 1)):
        width = rng.choice((1, 2, 2, 3, 3, 3)) if n and rng.random() > 0.02 else 0
        chosen = rng.sample(range(1, n + 1), min(width, n))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return F(*clauses, variables=range(1, n + 1))


def test_solve_general_matches_a_search_of_every_restriction(start_state):
    rng = random.Random(20260)
    outcomes = Counter()
    for _ in range(200):
        formula = _random_formula(rng)
        tau = rng.choice((None, 1, 4))
        independence = rng.choice((None, 1))
        slice_budget = rng.choice((None, 1, 7, 50))
        got = solve_general(formula, tau, independence, slice_budget=slice_budget)
        want, instance, counts = _reference_solve(formula, tau, independence, slice_budget, start_state)
        assert got.solution == want and got.instance_found == instance, formula
        assert [
            got.restrictions_tried, got.restrictions_skipped, got.dppsz_calls,
            got.modify_calls, got.cutoff_hits,
        ] == counts, formula
        outcomes["sat" if want is not None else "unsat"] += 1
        outcomes["found past instance 0"] += bool(instance)
        outcomes["empty clause"] += () in formula.clauses
        outcomes["skips"] += counts[1] > 0
        outcomes["cutoffs"] += counts[4] > 0
        outcomes["unconstrained"] += len({abs(l) for c in formula.clauses for l in c}) < formula.n
    keys = ("sat", "unsat", "found past instance 0", "empty clause", "skips", "cutoffs", "unconstrained")
    assert all(outcomes[key] for key in keys), outcomes


def test_an_unsatisfiable_solve_settles_each_subset_in_one_item(monkeypatch):
    # the guard against per-restriction enumeration: no solution extends
    # the empty prefix, so each subset is one range of all its patterns
    items, engines = [], []
    runs = general._instance_runs

    def recorded(engine, i, independence, cutoff):
        engines.append(engine)
        for item in runs(engine, i, independence, cutoff):
            items.append((i, item))
            yield item

    def refused(*args, **kwargs):
        raise AssertionError("dppsz ran on an unsatisfiable formula")

    monkeypatch.setattr(general, "_instance_runs", recorded)
    monkeypatch.setattr(general, "dppsz", refused)
    formula = uniform_kcnf(random.Random(1), 12, 72, 3)
    result = solve_general(formula)
    assert not result.satisfiable and result.restrictions_tried == 3**12
    assert len(items) == 2**12
    assert Counter(i for i, _ in items) == {i: math.comb(12, i) for i in range(13)}
    assert all((start, stop) == (0, 1 << i) for i, (_, start, stop, _, _) in items)
    assert sum(falsified.bit_count() for _, (_, _, _, falsified, _) in items) == (
        result.restrictions_skipped
    )
    index = engines[0].index
    assert all(engine.index is index for engine in engines)
    assert index._state_cache == {} and index._result_cache == {}


def _falsified_by_every_clause(formula, combo):
    """Reference: the patterns of combo (bit i - 1 - t of pattern j sets
    combo[t]) that falsify some clause of the formula, each clause tested
    whatever its width."""
    i = len(combo)
    mask = 0
    for j in range(1 << i):
        value = {v: (j >> (i - 1 - t)) & 1 == 1 for t, v in enumerate(combo)}
        if any(
            all(abs(lit) in value and value[abs(lit)] != (lit > 0) for lit in clause)
            for clause in formula.clauses
        ):
            mask |= 1 << j
    return mask


def test_falsified_patterns_match_a_scan_of_every_clause():
    # mixed widths 1..5, so at small i most clauses are too wide for any
    # subset and at large i few are
    rng = random.Random(3101)
    widths = Counter()
    for n in (4, 5, 6):
        for _ in range(6):
            clauses = []
            for _ in range(rng.randrange(n, 4 * n)):
                chosen = rng.sample(range(1, n + 1), rng.randint(1, min(5, n)))
                clauses.append(tuple(v if rng.getrandbits(1) else -v for v in chosen))
            formula = F(*clauses, variables=range(1, n + 1))
            engine = PpszEngine(formula)
            for i in range(n + 1):
                items = general._instance_runs(engine, i, None, 10)
                for combo, start, _, falsified, _ in items:
                    bits = [engine.index.bit_of[v] for v in combo]
                    avals = sum(bit for t, bit in enumerate(bits) if start >> (i - 1 - t) & 1)
                    # a dead range carries the subset's mask, a live one 0
                    if not engine.index.live(sum(bits), avals):
                        want = _falsified_by_every_clause(formula, combo)
                        assert falsified == want, (clauses, combo)
                        widths[max(len(c) for c in formula.clauses) > i] += 1
    assert widths[True] and widths[False]


def _dead_costs(formula, slack):
    """Each instance's modify-call cost of a restriction that no solution
    extends."""
    n = formula.n
    costs = set()
    for free in range(1, n + 1):
        cutoff = cutoff_budget(free, formula.k, slack)
        costs.add(no_hit(free, len(hash_family(free, None)), cutoff).modify_calls)
    return costs


def _found_past_instance_zero(n):
    """A satisfiable formula over n variables that a tau = 1 solve at
    slack 0 finds at instance 2 or later, past skipped restrictions."""
    if n == 5:
        return F((1, 2), (-1, 2), (1, -2), (3, 4, 5), (-3, -4), variables=range(1, 6))
    rng = random.Random({6: 28, 7: 121, 8: 154}[n])
    return planted_kcnf(rng, n, rng.randint(3 * n, 6 * n), 3)[0]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_slices_split_dead_ranges_as_a_search_of_every_restriction(n, start_state):
    # an unsatisfiable formula, whose instances are all dead ranges, and
    # a satisfiable one found past instance 0, where ranges and live
    # patterns interleave; the budgets around each dead cost end slices
    # inside a range, at its end and just past it
    unsat = uniform_kcnf(random.Random(7000 + n), n, 7 * n, 3)
    cases = [(unsat, None, default_slack(n)), (_found_past_instance_zero(n), 1, 0.0)]
    for formula, tau, slack in cases:
        budgets = {1, 2, 3, 7, 50}
        budgets |= {cost + d for cost in _dead_costs(formula, slack) for d in (-1, 0, 1)}
        for slice_budget in sorted(budgets - {0}):
            got = solve_general(formula, tau, slack=slack, slice_budget=slice_budget)
            if formula is not unsat or slice_budget == 1:
                # an unsatisfiable solve's counters are totals over all 3^n
                # restrictions whatever the slices, so one sliced reference
                # run stands for every budget
                want, instance, counts = _reference_solve(
                    formula, tau, None, slice_budget, start_state, slack
                )
            assert got.solution == want and got.instance_found == instance, slice_budget
            assert [
                got.restrictions_tried, got.restrictions_skipped, got.dppsz_calls,
                got.modify_calls, got.cutoff_hits,
            ] == counts, slice_budget
        if formula is unsat:
            assert want is None and counts[0] == 3**n
        else:
            assert want is not None and instance >= 2 and counts[1] > 0


def test_a_dead_restriction_runs_no_search(monkeypatch):
    built, searched = [], []

    def counted_sigma(variables, independence=None):
        built.append(construct_sigma(variables, independence))
        return built[-1]

    def counted_dppsz(engine, perms, cutoff, *, start):
        assert engine.index.live(*start)
        searched.append(perms)
        return dppsz(engine, perms, cutoff, start=start)

    engines = []

    def kept_engine(*args):
        engines.append(PpszEngine(*args))
        return engines[-1]

    monkeypatch.setattr(general, "construct_sigma", counted_sigma)
    monkeypatch.setattr(general, "dppsz", counted_dppsz)
    monkeypatch.setattr(general, "PpszEngine", kept_engine)
    result = solve_general(uniform_kcnf(random.Random(1), 6, 40, 3))
    assert not result.satisfiable and result.dppsz_calls == 275
    # the logical counters count every dead restriction; nothing ran
    assert searched == [] and built == []
    index = engines[0].index
    assert index._state_cache == {} and index._result_cache == {}
    # a starved satisfiable solve searches only live restrictions, each
    # subset's on one set built for the first of them
    formula = F((1, 2), (-1, 2), (1, -2), (3, 4, 5), (-3, -4), variables=range(1, 7))
    result = solve_general(formula, slack=-100.0)
    assert result.satisfiable and result.instance_found == 2
    assert 0 < len(built) < len(searched) < result.dppsz_calls
    assert len({perms.variables for perms in built}) == len(built)
    assert all(any(perms is made for perms in searched) for made in built)

from collections import Counter
from itertools import combinations

import pytest

from ppszlab.permutations import (
    HashFamily,
    PermutationBudgetError,
    construct_sigma,
    distinct_orders,
    smallest_prime_at_least,
)


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(1) == 2
    assert smallest_prime_at_least(2) == 2
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(13) == 13
    assert smallest_prime_at_least(14) == 17


def test_family_size_is_prime_to_the_degree():
    assert len(HashFamily.build(2, 1)) == 2
    assert len(HashFamily.build(3, 2)) == 9
    assert len(HashFamily.build(5, 2)) == 25
    assert len(HashFamily.build(8, 3)) == 11**3


def test_family_validates_inputs():
    with pytest.raises(ValueError):
        HashFamily.build(0, 1)
    with pytest.raises(ValueError):
        HashFamily.build(3, 0)
    with pytest.raises(ValueError):
        HashFamily.build(3, 4)
    with pytest.raises(IndexError):
        HashFamily.build(3, 2).coefficients(9)
    for member in (-1, 9):
        with pytest.raises(IndexError):
            construct_sigma((1, 2, 3), 2).permutation(member)


def test_coefficients_enumerate_lexicographically():
    family = HashFamily.build(3, 2)
    coeffs = [family.coefficients(i) for i in range(len(family))]
    assert coeffs[0] == (0, 0)
    assert coeffs[1] == (0, 1)
    assert coeffs[3] == (1, 0)
    assert coeffs == sorted(coeffs)


def test_evaluate_is_the_polynomial():
    family = HashFamily.build(5, 3)
    perms = construct_sigma(range(1, 6), 3)
    assert perms.family == family
    for member in range(0, len(family), 7):
        c2, c1, c0 = family.coefficients(member)
        want = [(c2 * point * point + c1 * point + c0) % family.prime for point in range(1, 6)]
        assert [family.evaluate(member, point) for point in range(1, 6)] == want
        assert perms.placements(member) == tuple(want)
    with pytest.raises(ValueError):
        family.evaluate(0, 6)


def test_two_point_evaluations_are_a_bijection_with_value_pairs():
    # degree-2 family on 3 points: each member is determined by its values
    # on any two distinct points, and every value pair occurs exactly once
    family = HashFamily.build(3, 2)
    for a, b in combinations(range(1, 4), 2):
        pairs = Counter(
            (family.evaluate(m, a), family.evaluate(m, b)) for m in range(len(family))
        )
        assert len(pairs) == 9
        assert set(pairs.values()) == {1}


def test_constant_members_give_the_identity_order():
    perms = construct_sigma((1, 2, 3), independence=1)
    assert len(perms) == 3
    for member in range(len(perms)):
        assert perms.permutation(member) == (1, 2, 3)


def test_identity_polynomial_wraps_modulo_the_prime():
    perms = construct_sigma((1, 2, 3), independence=2)
    identity = next(
        m for m in range(len(perms)) if perms.family.coefficients(m) == (1, 0)
    )
    # h(x) = x over GF(3): h(3) = 0, so variable 3 sorts first
    assert perms.placements(identity) == (1, 2, 0)
    assert perms.permutation(identity) == (3, 1, 2)


def test_placements_sum_over_the_family():
    # for any fixed point, h(point) is uniform over GF(p) across members
    perms = construct_sigma(tuple(range(1, 6)), independence=2)
    p = perms.prime
    for position in range(5):
        total = sum(perms.placements(m)[position] for m in range(len(perms)))
        assert total == p ** (perms.independence - 1) * (p * (p - 1) // 2)


def test_permutations_sort_by_placement_then_index():
    perms = construct_sigma((1, 2, 3, 4), independence=2)
    for member in range(len(perms)):
        placements = perms.placements(member)
        order = perms.permutation(member)
        keyed = sorted(perms.variables, key=lambda v: (placements[perms.variables.index(v)], v))
        assert order == tuple(keyed)


def test_single_variable_set_is_trivial():
    perms = construct_sigma((7,))
    assert all(p == (7,) for p in perms)


def test_non_contiguous_variables_keep_their_labels():
    perms = construct_sigma((2, 5, 9))
    assert perms.variables == (2, 5, 9)
    for order in perms.materialized():
        assert sorted(order) == [2, 5, 9]


def test_default_independence_follows_the_depth_schedule_capped():
    assert construct_sigma((1, 2)).independence == 1
    assert construct_sigma(tuple(range(1, 9))).independence == 3
    assert construct_sigma(tuple(range(1, 4))).independence == 1
    assert construct_sigma((1,)).independence == 1


def test_materialization_is_deterministic_and_iterable():
    a = construct_sigma(tuple(range(1, 6)), independence=2)
    b = construct_sigma(tuple(range(1, 6)), independence=2)
    assert a.materialized() == b.materialized()
    assert tuple(a) == a.materialized()
    assert len(a.materialized()) == len(a)


def test_duplicate_orders_are_retained():
    perms = construct_sigma((1, 2), independence=1)
    assert perms.materialized() == ((1, 2), (1, 2))


def test_distinct_orders_list_each_order_once_at_its_first_index():
    for n, k in ((2, 1), (5, 2), (6, 3)):
        perms = construct_sigma(range(3, 3 + n), k)
        listed = perms.materialized()
        size, variables, table = distinct_orders(perms)
        assert size == len(listed) and variables == perms.variables
        # the table holds rank orders: rank r stands for variables[r]
        orders = [tuple(variables[r] for r in ranks) for ranks, _ in table.values()]
        assert orders == list(dict.fromkeys(listed))
        assert list(table) == [listed.index(order) for order in orders]
        assert dict(zip(orders, (count for _, count in table.values()))) == Counter(listed)
        assert sum(count for _, count in table.values()) == size
        # a plain order list goes through the same table
        assert distinct_orders(list(listed)) == (size, variables, table)
    with pytest.raises(ValueError, match="at least one order"):
        distinct_orders([])
    listed = [(2, 1, 3), (1, 2, 3), (2, 1, 3), [3, 2, 1], (1, 2, 3), (2, 1, 3)]
    size, variables, table = distinct_orders(listed)
    assert size == 6 and variables == (1, 2, 3)
    assert table == {0: ((1, 0, 2), 3), 1: ((0, 1, 2), 2), 3: ((2, 1, 0), 1)}
    assert sum(count for _, count in table.values()) == size
    # every order must list one and the same variable set, each variable once
    for mixed in ([(1, 2), (1, 3)], [(1, 2), (2, 1, 3)], [(1, 1, 2), (1, 2)], [(1, 2), (2, 2)]):
        with pytest.raises(ValueError, match="exactly the formula's variables"):
            distinct_orders(mixed)


def test_one_table_serves_every_variable_set_of_a_size():
    # no per-set copy: sets of one size share the (n, K) table object
    a = construct_sigma((1, 2, 3, 4, 5), 2)
    b = construct_sigma((2, 6, 7, 10, 11), 2)
    assert distinct_orders(a)[2] is distinct_orders(b)[2]
    assert distinct_orders(a)[1:] != distinct_orders(b)[1:]


def _reference_rank_orders(perms):
    """Each member's rank order by the definition: ranks stably sorted by
    their placement, ties broken by rank."""
    for member in range(len(perms)):
        placements = perms.placements(member)
        yield tuple(sorted(range(len(placements)), key=lambda r: (placements[r], r)))


def test_the_one_pass_table_matches_the_definition():
    # every member at n <= 9 with K <= 4, and the randomized-tau4 family
    cases = [(n, k) for n in range(1, 10) for k in range(1, min(n, 4) + 1)] + [(11, 3)]
    for n, k in cases:
        perms = construct_sigma(range(1, n + 1), k)
        reference = list(_reference_rank_orders(perms))
        firsts = {}
        for member, ranks in enumerate(reference):
            firsts.setdefault(ranks, member)
        want = {firsts[ranks]: (ranks, count) for ranks, count in Counter(reference).items()}
        assert distinct_orders(perms) == (len(perms), perms.variables, want), (n, k)
        assert perms.materialized() == tuple(
            tuple(r + 1 for r in ranks) for ranks in reference
        ), (n, k)


def test_materialization_budget():
    wide = construct_sigma(tuple(range(1, 41)), independence=4)
    with pytest.raises(PermutationBudgetError):
        wide.materialized()
    with pytest.raises(PermutationBudgetError):
        distinct_orders(wide)
    # one member is computed from its placements, whatever the set's size
    placements = wide.placements(5)
    assert wide.permutation(5) == tuple(sorted(wide.variables, key=lambda v: (placements[v - 1], v)))


def test_construct_sigma_rejects_empty_sets():
    with pytest.raises(ValueError):
        construct_sigma(())

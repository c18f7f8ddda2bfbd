"""Small-bias permutation sets from K-wise independent hashing.

Each member of the hash family is a polynomial of degree below K over the
prime field GF(p), with p the smallest prime at or above the number of
variables. Variables embed as the field points 1..n; a member h places
variable x at h(i(x)) and the permutation reads the variables off in
ascending placement order, ties broken by variable index. Evaluating a
random member at up to K distinct points is exactly uniform, which is all
the processing-order analysis needs, and the whole set has only p^K
members instead of n! so it can be enumerated outright.

A member's order depends only on n and K, so the searches read rank
orders, permutations of range(n) where rank r stands for the set's r-th
variable, off one table per (n, K) that every set of that size shares.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from .implication import default_tau

MATERIALIZE_LIMIT = 1 << 20


class PermutationBudgetError(RuntimeError):
    """The permutation set is too large to materialize."""


def smallest_prime_at_least(n: int) -> int:
    candidate = max(2, n)
    while True:
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            return candidate
        candidate += 1


@dataclass(frozen=True)
class HashFamily:
    """All polynomials of degree < K over GF(p), indexed lexicographically
    by coefficient vector, highest-degree coefficient varying slowest."""

    domain_size: int
    prime: int
    degree: int  # K: number of coefficients

    @classmethod
    def build(cls, n: int, independence: int) -> "HashFamily":
        if n < 1:
            raise ValueError("domain must contain at least one point")
        if not 1 <= independence <= n:
            raise ValueError("independence must lie in [1, n]")
        return cls(domain_size=n, prime=smallest_prime_at_least(n), degree=independence)

    def __len__(self) -> int:
        return self.prime**self.degree

    def coefficients(self, member: int) -> tuple[int, ...]:
        if not 0 <= member < len(self):
            raise IndexError(f"member {member} outside family of size {len(self)}")
        prime, degree = self.prime, self.degree
        return tuple(member // prime ** (degree - 1 - i) % prime for i in range(degree))

    def evaluate(self, member: int, point: int) -> int:
        """h_member(point) in GF(p); points 1..n are the valid inputs."""
        if not 1 <= point <= self.domain_size:
            raise ValueError(f"point {point} outside domain 1..{self.domain_size}")
        return _horner(self.coefficients(member), point, self.prime)


def _horner(coefficients: tuple[int, ...], point: int, prime: int) -> int:
    """The polynomial with these coefficients, highest degree first, at
    point, in GF(prime)."""
    value = 0
    for c in coefficients:
        value = (value * point + c) % prime
    return value


def _check_budget(family: HashFamily) -> None:
    size, n = len(family), family.domain_size
    if size * n > MATERIALIZE_LIMIT * 8:
        raise PermutationBudgetError(
            f"{size} permutations of {n} variables exceed the materialization budget"
        )


def _rank_orders(family: HashFamily) -> Iterator[tuple[int, ...]]:
    """Each member's rank order, in member order, within the budget."""
    _check_budget(family)
    # Members come in coefficient order, the constant term c fastest, so
    # the p members sharing the higher terms are consecutive. Those terms
    # place rank r at t(r); the member adds c, which rotates the stable
    # order by t: ranks with t(r) >= p - c wrap around to the front.
    n, prime, independence = family.domain_size, family.prime, family.degree
    powers = [[pow(x, d, prime) for x in range(1, n + 1)] for d in range(independence - 1, 0, -1)]
    for high in product(range(prime), repeat=independence - 1):
        tail = [sum(c * column[r] for c, column in zip(high, powers)) % prime for r in range(n)]
        order = sorted(range(n), key=tail.__getitem__)
        placed = [tail[r] for r in order]
        for c in range(prime):
            split = bisect_left(placed, prime - c)
            yield tuple(order[split:] + order[:split])


@lru_cache(maxsize=64)
def _distinct_rank_orders(family: HashFamily) -> dict[int, tuple[tuple[int, ...], int]]:
    """distinct_orders' table for every set ordered by the family, one per
    (n, K). Read only."""
    return _first_copies(_rank_orders(family))


def _first_copies(orders: Iterable[tuple[int, ...]]) -> dict[int, tuple[tuple[int, ...], int]]:
    """distinct_orders' table of the orders, from one pass over them."""
    seen: dict[tuple[int, ...], list[int]] = {}
    for index, order in enumerate(orders):
        seen.setdefault(order, [index, 0])[1] += 1
    return {first: (order, count) for order, (first, count) in seen.items()}


def distinct_orders(perms) -> tuple[int, tuple[int, ...], dict[int, tuple[tuple[int, ...], int]]]:
    """The number of orders in perms, the variables they order (ascending),
    and each distinct order once as a rank order (rank r is variables[r])
    with its multiplicity, keyed by the index of its first copy, in index
    order. A PermutationSet's table is the one shared per (n, K), read
    only; any other iterable of orders is ranked once through the same
    dedupe. This is the one reader of order families: one with no order,
    or whose orders do not all list the same variables once, raises
    ValueError."""
    if isinstance(perms, PermutationSet):
        return len(perms), perms.variables, _distinct_rank_orders(perms.family)
    orders = [tuple(order) for order in perms]
    if not orders:
        raise ValueError("an order family needs at least one order")
    variables = tuple(sorted(set(orders[0])))
    if any(tuple(sorted(order)) != variables for order in orders):
        raise ValueError("each order must list exactly the formula's variables, once each")
    rank = {v: r for r, v in enumerate(variables)}.__getitem__
    return len(orders), variables, _first_copies(tuple(map(rank, order)) for order in orders)


@dataclass(frozen=True)
class PermutationSet:
    """A lazily indexable multiset of variable orderings, one per hash
    family member. Duplicates are kept: the set is in bijection with the
    family, which is what makes uniform sampling by index meaningful."""

    variables: tuple[int, ...]
    family: HashFamily

    def __len__(self) -> int:
        return len(self.family)

    @property
    def prime(self) -> int:
        return self.family.prime

    @property
    def independence(self) -> int:
        return self.family.degree

    def placements(self, member: int) -> tuple[int, ...]:
        """Placement of each variable (in variable order) under one member:
        HashFamily.evaluate at each point, the member decomposed once."""
        coefficients, prime = self.family.coefficients(member), self.family.prime
        return tuple(_horner(coefficients, point, prime) for point in range(1, len(self.variables) + 1))

    def permutation(self, member: int) -> tuple[int, ...]:
        """The member's order: the variables stably sorted by placement."""
        placements = self.placements(member)
        ranks = sorted(range(len(placements)), key=placements.__getitem__)
        return tuple(self.variables[r] for r in ranks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for member in range(len(self)):
            yield self.permutation(member)

    def materialized(self) -> tuple[tuple[int, ...], ...]:
        """Every member's order; PermutationBudgetError past the budget."""
        _check_budget(self.family)
        return tuple(self)


def hash_family(n: int, independence: int | None = None) -> HashFamily:
    """The family behind construct_sigma's set over n variables, whose size
    is the set's. The independence degree defaults to the same
    floor(log2 n) (clamped to [1,4]) schedule the implication depth uses,
    and is capped at n so the family stays well-formed on tiny inputs."""
    k_wise = default_tau(n) if independence is None else independence
    return HashFamily.build(n, min(k_wise, n))


def construct_sigma(
    variables: Sequence[int], independence: int | None = None
) -> PermutationSet:
    """The permutation set for a variable collection, one order per member
    of hash_family(n, independence)."""
    var_tuple = tuple(sorted(set(int(v) for v in variables)))
    if not var_tuple:
        raise ValueError("cannot build permutations over zero variables")
    return PermutationSet(var_tuple, hash_family(len(var_tuple), independence))

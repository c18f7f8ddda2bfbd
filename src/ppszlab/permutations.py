"""Small-bias permutation sets from K-wise independent hashing.

Each member of the hash family is a polynomial of degree below K over the
prime field GF(p), with p the smallest prime at or above the number of
variables. Variables embed as the field points 1..n; a member h places
variable x at h(i(x)) and the permutation reads the variables off in
ascending placement order, ties broken by variable index. Evaluating a
random member at up to K distinct points is exactly uniform, which is all
the processing-order analysis needs, and the whole set has only p^K
members instead of n! so it can be enumerated outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

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
        coeffs = []
        for i in range(self.degree):
            power = self.prime ** (self.degree - 1 - i)
            coeffs.append((member // power) % self.prime)
        return tuple(coeffs)

    def evaluate(self, member: int, point: int) -> int:
        """h_member(point) in GF(p); points 1..n are the valid inputs."""
        if not 1 <= point <= self.domain_size:
            raise ValueError(f"point {point} outside domain 1..{self.domain_size}")
        value = 0
        for c in self.coefficients(member):  # Horner, highest-degree first
            value = (value * point + c) % self.prime
        return value


@lru_cache(maxsize=64)
def _rank_permutations(n: int, independence: int) -> tuple[tuple[int, ...], ...]:
    """All placements-induced permutations of range(n), one per family
    member, in member order. Shared across equal-sized variable sets."""
    family = HashFamily.build(n, independence)
    if len(family) * max(n, 1) > MATERIALIZE_LIMIT * 8:
        raise PermutationBudgetError(
            f"{len(family)} permutations of {n} variables exceed the materialization budget"
        )
    perms = []
    for member in range(len(family)):
        placements = [family.evaluate(member, rank + 1) for rank in range(n)]
        order = sorted(range(n), key=lambda rank: (placements[rank], rank))
        perms.append(tuple(order))
    return tuple(perms)


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
        """Placement of each variable (in variable order) under one member."""
        return tuple(
            self.family.evaluate(member, rank + 1) for rank in range(len(self.variables))
        )

    def permutation(self, member: int) -> tuple[int, ...]:
        if not 0 <= member < len(self):
            raise IndexError(f"member {member} outside set of size {len(self)}")
        ranks = _rank_permutations(len(self.variables), self.family.degree)[member]
        variables = self.variables
        return tuple(variables[r] for r in ranks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for member in range(len(self)):
            yield self.permutation(member)

    def materialized(self) -> tuple[tuple[int, ...], ...]:
        """The full tuple of permutations, for hot loops."""
        rank_perms = _rank_permutations(len(self.variables), self.family.degree)
        variables = self.variables
        return tuple(tuple(variables[r] for r in ranks) for ranks in rank_perms)


def construct_sigma(
    variables: Sequence[int], independence: int | None = None
) -> PermutationSet:
    """The permutation set for a variable collection. The independence
    degree defaults to the same floor(log2 n) (clamped to [1,4]) schedule
    the implication depth uses, and is capped at n so the family stays
    well-formed on tiny inputs."""
    var_tuple = tuple(sorted(set(int(v) for v in variables)))
    if not var_tuple:
        raise ValueError("cannot build permutations over zero variables")
    n = len(var_tuple)
    k_wise = default_tau(n) if independence is None else independence
    k_wise = min(k_wise, n)
    family = HashFamily.build(n, k_wise)
    return PermutationSet(variables=var_tuple, family=family)

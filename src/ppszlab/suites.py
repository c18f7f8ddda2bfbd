"""Reusable end-to-end checks and the seeded corpora they run on.

Each suite takes prebuilt instances, checks one contract, and reports
what it saw; the corpus builders are deterministic in the provided RNG
so a failure can be replayed from the seed alone. The verify command
runs small corpora through these same functions.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .analysis import (
    crossover_delta,
    fixpoint_k3,
    lambda_k,
    r_grid,
    r_sequence_bounds,
    r_value,
    runtime_exponent,
)
from .cnf import Evaluation, Formula, evaluate
from .engine import (
    PpszEngine,
    success_probability_exact,
    success_probability_via_identity,
)
from .general import construct_good_assignment, solve_general
from .implication import ImplicationConfig, default_tau
from .instances import (
    planted_kcnf,
    satisfiable_kcnf,
    uniform_kcnf,
    unique_kcnf,
    with_free_variables,
)
from .oracle import DEFAULT_ORACLE_LIMIT, count_solutions, enumerate_solutions
from .permutations import HashFamily, construct_sigma
from .tree import certificate_depth, construct_tree, verify_tree
from .unique import dppsz


@dataclass
class SuiteReport:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f" [{self.failures[0]}]" if self.failures else ""
        return f"{verdict} {self.name}: {self.checked} checked{extra}"


def identity_suite(
    formulas,
    cfg: ImplicationConfig | None = None,
    independence: int | None = None,
) -> SuiteReport:
    """The two probability routes must agree exactly, formula by formula."""
    report = SuiteReport("identity")
    for idx, formula in enumerate(formulas):
        perms = construct_sigma(formula.variables, independence)
        exact = success_probability_exact(formula, perms, cfg)
        assembled = success_probability_via_identity(formula, perms, cfg)
        report.checked += 1
        if exact != assembled:
            report.failures.append(f"instance {idx}: {exact} != {assembled}")
    return report


def solver_oracle_suite(
    formulas,
    cfg: ImplicationConfig | None = None,
    slack: float | None = None,
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> SuiteReport:
    """The complete solver must agree with brute-force satisfiability and
    return assignments that actually satisfy."""
    report = SuiteReport("solver-vs-oracle")
    sat = unsat = 0
    for idx, formula in enumerate(formulas):
        expected = count_solutions(formula, limit) > 0
        result = solve_general(formula, cfg, slack=slack)
        report.checked += 1
        if result.satisfiable != expected:
            report.failures.append(
                f"instance {idx}: solver says {result.satisfiable}, oracle says {expected}"
            )
            continue
        if result.satisfiable:
            sat += 1
            if evaluate(formula, result.solution) is not Evaluation.SATISFIED:
                report.failures.append(f"instance {idx}: returned non-solution")
        else:
            unsat += 1
    report.stats.update(sat=sat, unsat=unsat)
    return report


def dppsz_round_suite(
    formulas,
    cfg: ImplicationConfig | None = None,
    independence: int | None = None,
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> SuiteReport:
    """The first successful round must equal the best guess count over all
    solutions and orders (floored at round 1), replayed exhaustively."""
    report = SuiteReport("round-accounting")
    for idx, formula in enumerate(formulas):
        perms = construct_sigma(formula.variables, independence)
        engine = PpszEngine(formula, cfg)
        solutions = enumerate_solutions(formula, limit)
        result = dppsz(formula, perms, cfg, engine=engine)
        report.checked += 1
        if len(solutions) == 0:
            if result.round_found is not None:
                report.failures.append(f"instance {idx}: round on unsatisfiable input")
            continue
        best = min(
            engine.replay(alpha, sigma).guessed
            for alpha in solutions
            for sigma in perms.materialized()
        )
        expected = max(1, best)
        if result.round_found != expected:
            report.failures.append(
                f"instance {idx}: round {result.round_found}, best guess count {best}"
            )
        elif evaluate(formula, result.solution) is not Evaluation.SATISFIED:
            report.failures.append(f"instance {idx}: returned non-solution")
    return report


def tree_suite(
    pairs,
    implication_size: int | None = None,
) -> SuiteReport:
    """Certificate trees for every variable of solution-unique formulas
    must satisfy all six structural properties."""
    report = SuiteReport("certificate-trees")
    trees = cuts = 0
    for idx, (formula, alpha) in enumerate(pairs):
        amap = {abs(lit): lit > 0 for lit in alpha}
        size = implication_size if implication_size is not None else default_tau(formula.n)
        depth = certificate_depth(formula.k, size)
        for var in formula.variables:
            tree = construct_tree(formula, amap, var, depth)
            outcome = verify_tree(tree, formula, amap, size)
            trees += 1
            cuts += outcome.cuts_checked
            if not outcome.all_passed:
                report.failures.append(
                    f"instance {idx} variable {var}: {outcome.failures[0]}"
                )
        report.checked += 1
    report.stats.update(trees=trees, cuts=cuts)
    return report


def construct_a_suite(
    formulas,
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> SuiteReport:
    """The halving construction must fix exactly ceil(log2 S) variables,
    leave one solution, and never shrink the count by less than half."""
    report = SuiteReport("halving-construction")
    for idx, formula in enumerate(formulas):
        total = count_solutions(formula, limit)
        good = construct_good_assignment(formula, limit)
        report.checked += 1
        target = (total - 1).bit_length()
        if good.size != target or good.target_size != target:
            report.failures.append(
                f"instance {idx}: fixed {good.size} variables for {total} solutions"
            )
            continue
        if count_solutions(formula.restrict(good.assignment), limit) != 1:
            report.failures.append(f"instance {idx}: residual count is not 1")
            continue
        for step in good.steps:
            if step.kind == "halve" and 2 * step.count_after > step.count_before:
                report.failures.append(
                    f"instance {idx}: step on {step.variable} kept "
                    f"{step.count_after} of {step.count_before}"
                )
                break
    return report


def kwise_suite(
    primes: tuple[int, ...] = (3, 5, 7),
    degrees: tuple[int, ...] = (2, 3),
) -> SuiteReport:
    """Placement tuples on any d <= K points must be exactly uniform:
    every value combination hit the same number of times."""
    report = SuiteReport("k-wise-uniformity")
    for p in primes:
        for degree in degrees:
            family = HashFamily.build(p, degree)
            report.checked += 1
            if family.prime != p:
                report.failures.append(f"prime for n={p} came out {family.prime}")
                continue
            members = range(len(family))
            for size in range(1, degree + 1):
                expected = p ** (degree - size)
                for points in itertools.combinations(range(1, p + 1), size):
                    counts = Counter(
                        tuple(family.evaluate(member, point) for point in points)
                        for member in members
                    )
                    if len(counts) != p**size or any(
                        c != expected for c in counts.values()
                    ):
                        report.failures.append(
                            f"p={p} K={degree} points={points}: uneven counts"
                        )
                        break
    return report


def constants_suite() -> SuiteReport:
    """Numeric targets for the headline constants, with pinned tolerances."""
    report = SuiteReport("constants")
    lam3 = lambda_k(3)
    lam4 = lambda_k(4)
    base3 = 2.0 ** runtime_exponent(3, 0.0)
    cross3 = crossover_delta(3, 1.328)
    checks = [
        ("lambda_3", lam3, 2.0 - 2.0 * math.log(2.0), 1e-4),
        ("lambda_4", lam4, 0.4452, 1e-4),
        ("base_3", base3, 1.308, 2e-3),
        ("crossover_3", cross3, 1.0 / 480.0, 0.1 / 480.0),
    ]
    for name, got, want, tol in checks:
        report.checked += 1
        if abs(got - want) > tol:
            report.failures.append(f"{name}: {got} vs {want} (tol {tol})")
        report.stats[name] = got
    return report


def rgrid_suite(
    grid: int = 10_000,
    iterations: int = 30,
    profile_n: int = 100,
) -> SuiteReport:
    """Sanity of the branching recurrence: zero start, bracketed first
    integral, monotone growth, convergence near the series limit, and, at
    y = r/profile_n, the first iterates rising in j without passing the
    recurrence's least fixpoint (fixpoint_k3)."""
    report = SuiteReport("recurrence-grid")
    seq = r_sequence_bounds(3, iterations, grid)
    report.checked += 1
    if seq[0] != (0.0, 0.0):
        report.failures.append("iterate 0 is not identically zero")
    report.checked += 1
    low1, high1 = seq[1]
    if not low1 <= 1.0 / 3.0 <= high1:
        report.failures.append(f"first integral bracket ({low1}, {high1}) misses 1/3")
    report.checked += 1
    for j in range(iterations):
        if seq[j + 1][0] < seq[j][0] - 1e-12:
            report.failures.append(f"integral shrank from iterate {j} to {j + 1}")
            break
    report.checked += 1
    for j in (1, 5, iterations):
        values = r_grid(3, j, 500)
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            report.failures.append(f"iterate {j} is not monotone in y")
            break
    report.checked += 1
    lam = lambda_k(3)
    low_last, high_last = seq[-1]
    if low_last < lam - 0.02:
        report.failures.append(f"iterate {iterations} integral {low_last} too far below {lam}")
    if high_last > lam + 1e-3:
        report.failures.append(f"iterate {iterations} integral {high_last} overshoots {lam}")
    report.checked += 1
    for r in range(profile_n + 1):
        y = r / profile_n
        ceiling = fixpoint_k3(y) + 1e-12
        rises = [r_value(3, j, y) for j in range(5)]
        bad = next((j for j in range(4) if not rises[j] <= rises[j + 1] <= ceiling), None)
        if bad is not None:
            report.failures.append(
                f"iterates {bad}, {bad + 1} at y={y} fall or pass the fixpoint {fixpoint_k3(y)}"
            )
            break
    report.stats.update(lambda_3=lam, last_low=low_last, last_high=high_last)
    return report


# ---------------------------------------------------------------------------
# seeded corpora


def identity_corpus(rng: random.Random, count: int) -> list[Formula]:
    """Satisfiable 3-CNFs, mostly small, a few at the enumeration limit."""
    ns = (4, 5, 5, 6, 6, 6, 6, 7, 7, 7, 4, 5, 5, 6, 6, 7, 7, 7, 8, 6)
    out = []
    for i in range(count):
        n = ns[i % len(ns)]
        m = 2 * n + (i % 3)
        out.append(satisfiable_kcnf(rng, n, m, 3))
    return out


def solver_corpus(rng: random.Random, count: int) -> list[Formula]:
    """Mixed satisfiable and unsatisfiable instances at default budgets."""
    shapes = (
        (4, 2, 3), (4, 3, 3), (4, 4, 3), (5, 2, 3), (5, 3, 3),
        (5, 4, 3), (5, 5, 3), (6, 2, 3), (6, 3, 3), (6, 4, 3),
        (6, 5, 3), (6, 6, 3), (7, 2, 3), (7, 3, 3), (7, 4, 3),
        (5, 4, 4), (6, 5, 4), (6, 8, 4), (7, 3, 4), (7, 5, 3),
    )
    out = []
    for i in range(count):
        n, mult, k = shapes[i % len(shapes)]
        out.append(uniform_kcnf(rng, n, mult * n, k))
    return out


def solver_corpus_large(rng: random.Random, count: int) -> list[Formula]:
    """Bigger satisfiable instances, built around strong forcing so the
    early search instances can realistically find them."""
    out = []
    for i in range(count):
        variant = i % 4
        if variant == 0:
            out.append(planted_kcnf(rng, 8, 20, 3)[0])
        elif variant == 1:
            out.append(planted_kcnf(rng, 9, 24, 3)[0])
        elif variant == 2:
            formula, _ = unique_kcnf(rng, 10, 3)
            out.append(formula)
        else:
            n = 11 + (i // 4) % 2
            formula, alpha = unique_kcnf(rng, n, 3)
            units = tuple((lit,) for lit in alpha[:6])
            out.append(
                Formula.from_clauses(
                    formula.clauses + units, variables=formula.variables, k=formula.k
                )
            )
    return out


def round_corpus(rng: random.Random, count: int) -> list[Formula]:
    """Small instances for exhaustive replay: unique, planted, and a slot
    of likely-unsatisfiable ones."""
    out = []
    for i in range(count):
        variant = i % 16
        if variant == 0:
            out.append(unique_kcnf(rng, 4, 3)[0])
        elif variant in (1, 9):
            out.append(unique_kcnf(rng, 5, 3)[0])
        elif variant in (2, 10):
            out.append(planted_kcnf(rng, 5, 15, 3)[0])
        elif variant in (3, 11):
            out.append(unique_kcnf(rng, 6, 3)[0])
        elif variant in (4, 12):
            out.append(planted_kcnf(rng, 6, 18, 3)[0])
        elif variant in (5, 13):
            out.append(uniform_kcnf(rng, 5, 25, 3))
        elif variant in (6, 14):
            out.append(unique_kcnf(rng, 7, 3)[0])
        elif variant == 7:
            out.append(planted_kcnf(rng, 7, 21, 3)[0])
        elif variant == 8:
            out.append(unique_kcnf(rng, 8, 3)[0])
        else:
            out.append(uniform_kcnf(rng, 6, 30, 3))
    return out


def tree_corpus(rng: random.Random, count: int) -> list[tuple[Formula, tuple[int, ...]]]:
    """Solution-unique instances across the sizes whose default budgets
    give both trivial and branching trees."""
    ns = (4, 5, 6, 6, 7, 7, 8, 8, 9, 10)
    return [unique_kcnf(rng, ns[i % len(ns)], 3) for i in range(count)]


def construct_a_corpus(rng: random.Random, count: int) -> list[Formula]:
    """Satisfiable instances with solution counts from 1 up to hundreds,
    including exact powers of two via untouched variables."""
    out = []
    for i in range(count):
        variant = i % 10
        if variant == 0:
            out.append(planted_kcnf(rng, 4, 8, 3)[0])
        elif variant == 1:
            out.append(planted_kcnf(rng, 5, 10, 3)[0])
        elif variant == 2:
            out.append(planted_kcnf(rng, 5, 5, 3)[0])
        elif variant == 3:
            out.append(planted_kcnf(rng, 6, 12, 3)[0])
        elif variant == 4:
            out.append(planted_kcnf(rng, 6, 6, 3)[0])
        elif variant == 5:
            out.append(with_free_variables(unique_kcnf(rng, 6, 3)[0], 2))
        elif variant == 6:
            out.append(planted_kcnf(rng, 7, 14, 3)[0])
        elif variant == 7:
            out.append(with_free_variables(unique_kcnf(rng, 7, 3)[0], 3))
        elif variant == 8:
            out.append(planted_kcnf(rng, 8, 16, 3)[0])
        else:
            out.append(planted_kcnf(rng, 8, 8, 3)[0])
    return out


def run_quick(seed: int = 0) -> list[SuiteReport]:
    """Small versions of every suite, for the verify command."""
    rng = random.Random(seed)
    return [
        identity_suite(identity_corpus(rng, 12)),
        solver_oracle_suite(solver_corpus(rng, 30)),
        dppsz_round_suite(round_corpus(rng, 10)),
        tree_suite(tree_corpus(rng, 6)),
        construct_a_suite(construct_a_corpus(rng, 10)),
        kwise_suite(),
        constants_suite(),
        rgrid_suite(grid=2_000),
    ]

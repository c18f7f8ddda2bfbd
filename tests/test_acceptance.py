"""End-to-end acceptance gates.

Each test covers one release criterion on a seeded corpus, reports a
single PASS/FAIL line through the acceptance collector, and fails with
the suite's own failure messages when anything is off.
"""

import random

from ppszlab.cli import main
from ppszlab.suites import (
    construct_a_corpus,
    construct_a_suite,
    constants_suite,
    dppsz_round_suite,
    identity_corpus,
    identity_suite,
    kwise_suite,
    rgrid_suite,
    round_corpus,
    solver_corpus,
    solver_corpus_large,
    solver_oracle_suite,
    tree_corpus,
    tree_suite,
)

CHAIN = "p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n"


def check(emit, number, label, ok, detail, failures=()):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number} ({label}): {detail}"
    emit(line)
    print(line)
    assert ok, (line, list(failures)[:5])


def test_criterion_1_probability_identity(acceptance):
    corpus = identity_corpus(random.Random(101), 200)
    assert len(corpus) == 200
    assert all(f.n <= 8 and f.k == 3 for f in corpus)
    report = identity_suite(corpus)
    check(
        acceptance,
        1,
        "exact equals per-solution probability",
        report.passed and report.checked == 200,
        f"{report.checked} formulas, {len(report.failures)} mismatches",
        report.failures,
    )


def test_criterion_2_solver_matches_oracle(acceptance):
    small = solver_corpus(random.Random(102), 460)
    large = solver_corpus_large(random.Random(103), 40)
    assert all(f.n <= 12 for f in small + large)
    first = solver_oracle_suite(small)
    second = solver_oracle_suite(large, slack=12.0)
    ok = first.passed and second.passed
    checked = first.checked + second.checked
    sat = first.stats["sat"] + second.stats["sat"]
    unsat = first.stats["unsat"] + second.stats["unsat"]
    check(
        acceptance,
        2,
        "complete solver vs oracle",
        ok and checked == 500,
        f"{checked} formulas ({sat} sat, {unsat} unsat), "
        f"{len(first.failures) + len(second.failures)} mismatches",
        first.failures + second.failures,
    )


def test_criterion_3_round_accounting(acceptance):
    corpus = round_corpus(random.Random(104), 48)
    assert all(f.n <= 8 for f in corpus)
    report = dppsz_round_suite(corpus)
    check(
        acceptance,
        3,
        "first round equals best replay",
        report.passed and report.checked == 48,
        f"{report.checked} formulas, {len(report.failures)} mismatches",
        report.failures,
    )


def test_criterion_4_certificate_trees(acceptance):
    pairs = tree_corpus(random.Random(105), 100)
    assert len(pairs) == 100
    assert all(f.n <= 12 for f, _ in pairs)
    report = tree_suite(pairs)
    check(
        acceptance,
        4,
        "tree properties for every variable",
        report.passed and report.checked == 100,
        f"{report.checked} formulas, {report.stats['trees']} trees, "
        f"{report.stats['cuts']} cuts, {len(report.failures)} failures",
        report.failures,
    )


def test_criterion_5_halving_construction(acceptance):
    corpus = construct_a_corpus(random.Random(106), 200)
    report = construct_a_suite(corpus)
    check(
        acceptance,
        5,
        "log2-sized assignments leave one solution",
        report.passed and report.checked == 200,
        f"{report.checked} formulas, {len(report.failures)} failures",
        report.failures,
    )


def test_criterion_6_kwise_uniformity(acceptance):
    report = kwise_suite(primes=(3, 5, 7), degrees=(2, 3))
    check(
        acceptance,
        6,
        "hash family joint distributions exactly uniform",
        report.passed and report.checked == 6,
        f"{report.checked} families, {len(report.failures)} deviations",
        report.failures,
    )


def test_criterion_7_headline_constants(acceptance):
    report = constants_suite()
    stats = ", ".join(f"{k}={v:.6f}" for k, v in report.stats.items())
    check(
        acceptance,
        7,
        "series limit, base, crossover within tolerance",
        report.passed and report.checked == 4,
        stats,
        report.failures,
    )


def test_criterion_8_recurrence_grid(acceptance):
    report = rgrid_suite(grid=10_000, iterations=30, profile_n=100)
    check(
        acceptance,
        8,
        "branching recurrence numerics",
        report.passed,
        f"{report.checked} checks, last integral "
        f"[{report.stats['last_low']:.6f}, {report.stats['last_high']:.6f}]",
        report.failures,
    )


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_9_byte_identical_runs(acceptance, capsys, tmp_path):
    chain = tmp_path / "chain.cnf"
    chain.write_text(CHAIN)
    commands = [
        ("solve", str(chain)),
        ("solve", str(chain), "--mode", "unique"),
        ("solve", str(chain), "--mode", "randomized", "--seed", "11"),
        ("oracle", str(chain), "--witness"),
        ("perm", "--n", "5", "--member", "3"),
        ("perm", "--n", "3", "--all"),
        ("tree", str(chain), "--var", "2", "--kwise", "2"),
        ("constants", "--grid", "400", "--iterations", "6", "--competitor", "1.328"),
        ("constants", "--format", "csv", "--grid", "400", "--iterations", "6"),
        ("verify", "--format", "json", "--seed", "1"),
        ("bench", "--count", "2", "--no-timing", "--seed", "3"),
        ("bench", "--mode", "unique", "--ns", "4,5", "--count", "1", "--no-timing"),
        ("gen", "--kind", "uniform", "--n", "6", "--m", "12", "--seed", "5"),
        ("gen", "--kind", "unique", "--n", "5", "--seed", "6"),
    ]
    mismatched = []
    for argv in commands:
        if _run(capsys, *argv) != _run(capsys, *argv):
            mismatched.append(" ".join(argv))
    check(
        acceptance,
        9,
        "deterministic output bytes",
        not mismatched,
        f"{len(commands)} command lines run twice, {len(mismatched)} diverged",
        mismatched,
    )

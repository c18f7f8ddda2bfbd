import io
import json
import random

import pytest

from ppszlab.cli import main
from ppszlab.cnf import parse_dimacs, serialize_dimacs
from ppszlab.instances import unique_kcnf
from ppszlab.oracle import count_solutions
from ppszlab.permutations import PermutationBudgetError, construct_sigma
from ppszlab.suites import solver_corpus

CHAIN = "p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n"
UNSAT = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
EMPTY_CLAUSE = "p cnf 2 1\n0\n"


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.cnf"
    path.write_text(CHAIN)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(UNSAT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_canonical(text):
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return payload


def test_solve_general_satisfiable(capsys, chain_file):
    code, out, _ = run(capsys, "solve", chain_file)
    assert code == 10
    payload = assert_canonical(out)
    assert payload["mode"] == "general"
    assert payload["satisfiable"] is True
    assert payload["solution"] == [1, 2, 3]
    assert payload["instance"] == 0
    assert payload["cutoff_exponent"] == pytest.approx(
        (1.0 - payload["metadata"]["lambda"]) * 3 + payload["metadata"]["slack"]
    )


def test_solve_general_unsatisfiable(capsys, unsat_file):
    code, out, _ = run(capsys, "solve", unsat_file)
    assert code == 20
    payload = assert_canonical(out)
    assert payload["satisfiable"] is False
    assert payload["solution"] is None
    assert payload["instance"] is None
    assert payload["cutoff_exponent"] is None
    assert payload["restrictions_tried"] == 9


def test_solve_unique_mode(capsys, chain_file):
    code, out, _ = run(capsys, "solve", chain_file, "--mode", "unique")
    assert code == 10
    payload = assert_canonical(out)
    assert payload["mode"] == "unique"
    assert payload["solution"] == [1, 2, 3]
    assert payload["round"] == 1
    assert payload["metadata"]["n"] == 3


def test_solve_randomized_modes(capsys, chain_file, unsat_file):
    code, out, _ = run(capsys, "solve", chain_file, "--mode", "randomized", "--seed", "7")
    assert code == 10
    payload = assert_canonical(out)
    assert payload["found"] is True
    assert payload["solution"] == [1, 2, 3]
    assert payload["trial"]["guess_profile"]["guessed"] == 0
    code, out, _ = run(capsys, "solve", unsat_file, "--mode", "randomized")
    assert code == 0
    assert assert_canonical(out)["found"] is False


@pytest.mark.parametrize("mode", ["general", "unique", "randomized"])
def test_solve_without_variables_agrees_across_modes(capsys, monkeypatch, mode):
    # no clauses: the empty assignment is a solution; the empty clause: none
    found, empty = {"general": (10, 20), "unique": (10, 20), "randomized": (10, 0)}[mode]
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 0 0\n"))
    code, out, _ = run(capsys, "solve", "--mode", mode, "-")
    assert code == found
    assert assert_canonical(out)["solution"] == []
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 0 1\n0\n"))
    code, out, _ = run(capsys, "solve", "--mode", mode, "-")
    assert code == empty
    assert assert_canonical(out)["solution"] is None


def test_solve_slice_mode(capsys, chain_file):
    code, out, _ = run(capsys, "solve", chain_file, "--slice", "4")
    assert code == 10
    payload = assert_canonical(out)
    assert payload["metadata"]["mode"] == "slices"
    assert payload["metadata"]["slice_budget"] == 4


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CHAIN))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 10
    assert assert_canonical(out)["solution"] == [1, 2, 3]


def test_solve_rejects_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 junk 0\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.cnf"))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "CHAIN", "--slack", "inf"), "slack must be finite"),
        (("solve", "CHAIN", "--slack", "1e400"), "slack must be finite"),
        (("solve", "CHAIN", "--slack=-inf"), "slack must be finite"),
        (("solve", "CHAIN", "--slack", "nan"), "slack must be finite"),
        (("bench", "--count", "1", "--slack", "inf"), "slack must be finite"),
        (("constants", "--competitor", "nan"), "competitor_base must exceed 1"),
        (("tree", "CHAIN", "--var", "1", "--depth", "-1"), "depth must be nonnegative"),
        (("tree", "CHAIN", "--var", "1", "--kwise", "0"), "tau must be at least 1"),
        # every restriction of EMPTY is skipped, yet the order family is built
        (("solve", "EMPTY", "--kwise", "0"), "independence must lie in [1, n]"),
        (("gen", "--n", "3", "--m", "-1"), "m must be nonnegative"),
        (("gen", "--kind", "planted", "--n", "3", "--m", "-1"), "m must be nonnegative"),
        (("bench", "--count", "-1"), "count must be nonnegative"),
        (("tree", "EMPTY", "--var", "1"), "formula is unsatisfiable"),
    ],
)
def test_bad_numbers_fail_with_a_message(capsys, tmp_path, chain_file, argv, message):
    empty = tmp_path / "empty-clause.cnf"
    empty.write_text(EMPTY_CLAUSE)
    files = {"CHAIN": chain_file, "EMPTY": str(empty)}
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert out == ""


def test_output_file_matches_stdout(capsys, tmp_path, chain_file):
    _, out, _ = run(capsys, "solve", chain_file)
    target = tmp_path / "result.json"
    code, piped, _ = run(capsys, "solve", chain_file, "--out", str(target))
    assert code == 10
    assert piped == ""
    assert target.read_text() == out


def test_solve_runs_are_byte_identical(capsys, chain_file):
    first = run(capsys, "solve", chain_file)
    second = run(capsys, "solve", chain_file)
    assert first == second


def test_oracle_reports_structure(capsys, chain_file, unsat_file):
    code, out, _ = run(capsys, "oracle", chain_file, "--witness")
    assert code == 10
    payload = assert_canonical(out)
    assert payload["solutions"] == 1
    assert payload["frozen"] == [1, 2, 3]
    assert payload["liquid"] == []
    assert payload["implied"] == [1, 2, 3]
    assert payload["witness"] == [1, 2, 3]
    code, out, _ = run(capsys, "oracle", unsat_file)
    assert code == 20
    payload = assert_canonical(out)
    assert payload["satisfiable"] is False
    assert "frozen" not in payload


def test_perm_spot_check(capsys, chain_file):
    # a DIMACS file stands for its variables
    assert run(capsys, "perm", chain_file) == run(capsys, "perm", "--n", "3")
    code, out, _ = run(capsys, "perm", "--n", "3", "--member", "1")
    assert code == 0
    payload = assert_canonical(out)
    assert payload["n"] == 3
    assert payload["prime"] == 3
    assert payload["independence"] == 1
    assert payload["size"] == 3
    assert payload["coefficients"] == [1]
    assert payload["placements"] == [1, 1, 1]
    assert payload["permutation"] == [1, 2, 3]


def test_perm_full_listing(capsys):
    code, out, _ = run(capsys, "perm", "--n", "3", "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,placements,permutation"
    assert lines[1] == "0,0 0 0,1 2 3"
    assert lines[2] == "1,1 1 1,1 2 3"
    assert len(lines) == 4


def test_perm_errors(capsys):
    code, _, err = run(capsys, "perm")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "perm", "--n", "3", "--member", "3")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "perm", "--n", "11", "--kwise", "4", "--all")
    assert code == 1 and "too large" in err


def test_perm_prints_one_member_of_a_family_past_the_budget(capsys):
    # 29^4 orders of 24 variables exceed the materialization budget: one
    # member is still computed from its placements, but no listing is made
    code, out, _ = run(capsys, "perm", "--n", "24", "--member", "5")
    assert code == 0
    payload = assert_canonical(out)
    assert (payload["prime"], payload["independence"], payload["size"]) == (29, 4, 29**4)
    placements = payload["placements"]
    assert payload["permutation"] == sorted(range(1, 25), key=lambda v: (placements[v - 1], v))
    code, _, err = run(capsys, "perm", "--n", "24", "--all")
    assert code == 1 and "too large" in err
    with pytest.raises(PermutationBudgetError):
        construct_sigma(range(1, 25)).materialized()


def test_tree_command(capsys, chain_file):
    code, out, _ = run(capsys, "tree", chain_file, "--var", "1", "--kwise", "2")
    assert code == 0
    payload = assert_canonical(out)
    assert payload["all_passed"] is True
    assert payload["depth"] == 1
    assert payload["tree"]["label"] == 1
    assert payload["tree"]["clause"] == [1]
    assert payload["properties"]["cuts_imply_root"] is True


def test_tree_rejects_bad_alpha(capsys, chain_file):
    code, _, err = run(
        capsys, "tree", chain_file, "--var", "1", "--kwise", "2", "--alpha=-1,2,3"
    )
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "tree", chain_file, "--var", "1", "--alpha", "1,2")
    assert code == 1 and "unassigned" in err


def test_constants_json(capsys):
    code, out, _ = run(
        capsys,
        "constants",
        "--grid", "500",
        "--iterations", "8",
        "--competitor", "1.328",
    )
    assert code == 0
    payload = assert_canonical(out)
    assert payload["k"] == 3
    assert payload["base_unique"] == pytest.approx(1.30703, abs=1e-4)
    assert set(payload["exponents"]) == {"0.0", "0.001", "0.01", "0.1", "0.25", "0.5"}
    assert payload["exponents"]["0.5"] > payload["exponents"]["0.0"]
    assert payload["r_integral_low"] <= payload["r_integral_high"]
    assert payload["crossover"] == pytest.approx(1.0 / 480.0, rel=0.1)


def test_constants_csv(capsys):
    code, out, _ = run(
        capsys,
        "constants",
        "--format", "csv",
        "--grid", "200",
        "--iterations", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value"
    quantities = [line.split(",")[0] for line in lines[1:]]
    assert quantities == [
        "lambda",
        "base_unique",
        "exponent@0.0",
        "exponent@0.001",
        "exponent@0.01",
        "exponent@0.1",
        "exponent@0.25",
        "exponent@0.5",
        "r_integral_low",
        "r_integral_high",
    ]
    for line in lines[1:]:
        float(line.split(",")[1])
    # the competitor's crossover is one more row, as in the JSON output
    flags = ("--grid", "200", "--iterations", "3", "--competitor", "1.328")
    code, out, _ = run(capsys, "constants", "--format", "csv", *flags)
    assert code == 0
    quantity, value = out.splitlines()[-1].split(",")
    assert quantity == "crossover"
    _, out, _ = run(capsys, "constants", *flags)
    assert float(value) == assert_canonical(out)["crossover"]


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    payload = assert_canonical(out)
    assert [entry["name"] for entry in payload] == [
        "identity",
        "solver-vs-oracle",
        "round-accounting",
        "certificate-trees",
        "halving-construction",
        "k-wise-uniformity",
        "constants",
        "recurrence-grid",
    ]
    assert all(entry["passed"] for entry in payload)


def test_verify_text_lines(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS ") for line in lines)


def test_bench_general_schema(capsys):
    code, out, _ = run(capsys, "bench", "--count", "2", "--no-timing", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "index,n,clauses,k,mode,satisfiable,instance,round,"
        "restrictions_tried,restrictions_skipped,dppsz_calls,"
        "modify_calls,cutoff_hits"
    )
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] == "general"
        assert cells[5] in ("0", "1")
        assert cells[7] == ""


def test_bench_unique_schema(capsys):
    code, out, _ = run(
        capsys, "bench", "--mode", "unique", "--ns", "4,5", "--count", "1", "--no-timing"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] == "unique"
        assert cells[5] == "1"
        assert cells[6] == ""
        assert int(cells[7]) >= 1
    assert [line.split(",")[1] for line in lines[1:]] == ["4", "5"]


def test_bench_timing_column_is_optional(capsys):
    code, out, _ = run(capsys, "bench", "--count", "1", "--seed", "2")
    assert code == 0
    header = out.splitlines()[0]
    assert header.endswith(",seconds")


def test_bench_runs_are_byte_identical(capsys):
    first = run(capsys, "bench", "--count", "2", "--no-timing", "--seed", "5")
    second = run(capsys, "bench", "--count", "2", "--no-timing", "--seed", "5")
    assert first == second


@pytest.mark.parametrize(
    "mode, seed, lacks",
    [
        ("general", 1, {"round"}),
        # the third formula is unsatisfiable, so its instance cell is blank
        ("general", 4, {"round"}),
        (
            "unique",
            0,
            {"instance", "restrictions_tried", "restrictions_skipped", "dppsz_calls",
             "cutoff_hits"},
        ),
    ],
)
def test_bench_rows_agree_with_solve(capsys, tmp_path, mode, seed, lacks):
    # each bench row is solve's payload: re-solve the row's formula through
    # the solve command and compare every cell
    code, out, _ = run(capsys, "bench", "--mode", mode, "--ns", "4,5", "--count", "3",
                       "--seed", str(seed), "--no-timing")
    assert code == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    rng = random.Random(seed)
    if mode == "unique":
        jobs = [unique_kcnf(rng, n, 3)[0] for n in (4, 5) for _ in range(3)]
    else:
        jobs = solver_corpus(rng, 3)
    assert len(rows) == len(jobs)
    path = tmp_path / "job.cnf"
    for row, formula in zip(rows, jobs):
        cells = dict(zip(header, row))
        assert [cells["n"], cells["clauses"], cells["k"], cells["mode"]] == [
            str(formula.n), str(formula.num_clauses), str(formula.k), mode
        ]
        path.write_text(serialize_dimacs(formula))
        solved, text, _ = run(capsys, "solve", str(path), "--mode", mode)
        payload = assert_canonical(text)
        assert solved == (10 if payload["satisfiable"] else 20)
        assert {name for name in header[5:] if name not in payload} == lacks
        for name in header[5:]:
            value = payload.get(name)
            if name == "dppsz_calls" and mode == "unique":
                value = 1  # a unique solve is one dppsz call
            expected = "" if value is None else str(int(value) if name == "satisfiable" else value)
            assert cells[name] == expected, name


def test_gen_requires_a_clause_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "uniform", "--n", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_gen_unique_round_trips_through_solve(capsys, tmp_path):
    target = tmp_path / "unique.cnf"
    code, _, _ = run(capsys, "gen", "--kind", "unique", "--n", "5", "--seed", "3",
                     "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("c plant ")
    plant = [int(tok) for tok in text.splitlines()[0].split()[2:]]
    formula = parse_dimacs(text)
    assert formula.n == 5
    code, out, _ = run(capsys, "solve", str(target), "--mode", "unique")
    assert code == 10
    assert assert_canonical(out)["solution"] == sorted(plant, key=abs)


def test_gen_planted_comment_satisfies_the_formula(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "planted", "--n", "6", "--m", "10",
                       "--seed", "4")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("c plant ")
    assert len(first.split()) == 2 + 6
    code, out, _ = run(capsys, "gen", "--kind", "satisfiable", "--n", "6", "--m", "20",
                       "--seed", "4")
    assert code == 0
    assert count_solutions(parse_dimacs(out)) > 0


def test_gen_uniform_and_free_variables(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "uniform", "--n", "5", "--m", "7",
                       "--seed", "9", "--free", "2")
    assert code == 0
    formula = parse_dimacs(out)
    assert formula.n == 7
    assert formula.num_clauses == 7
    repeat = run(capsys, "gen", "--kind", "uniform", "--n", "5", "--m", "7",
                 "--seed", "9", "--free", "2")
    assert repeat[1] == out

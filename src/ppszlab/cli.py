"""Command line front end.

Exit codes carry the verdict: 10 satisfiable, 20 unsatisfiable, 0 for
commands that do not decide anything (including a randomized trial that
simply failed to find a solution), 1 for errors. All JSON output is
canonical: sorted keys, no whitespace, one trailing newline, so repeated
runs with the same arguments are byte-identical. Timing is the one
exception, and bench drops it under --no-timing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from functools import lru_cache

from .analysis import (
    crossover_delta,
    lambda_k,
    r_sequence_bounds,
    runtime_exponent,
)
from .cnf import (
    Assignment,
    Evaluation,
    Formula,
    evaluate,
    parse_dimacs,
    serialize_dimacs,
)
from .engine import ppsz_randomized
from .general import solve_general
from .implication import resolve_tau
from .instances import (
    planted_kcnf,
    satisfiable_kcnf,
    uniform_kcnf,
    unique_kcnf,
    with_free_variables,
)
from .oracle import (
    DEFAULT_ORACLE_LIMIT,
    classify_variables,
    count_solutions,
    first_solution,
    implied_literals,
)
from .permutations import construct_sigma
from .suites import run_quick, solver_corpus
from .tree import PROPERTIES, certificate_depth, construct_tree, verify_tree
from .unique import solve_unique

EXIT_SAT = 10
EXIT_UNSAT = 20
LISTING_LIMIT = 10_000  # refuse to dump larger permutation families


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _load_formula(path: str) -> Formula:
    if path == "-":
        return parse_dimacs(sys.stdin.read())
    with open(path) as handle:
        return parse_dimacs(handle.read())


def _checked_literals(formula: Formula, assignment: Assignment) -> list[int]:
    if evaluate(formula, assignment) is not Evaluation.SATISFIED:
        raise RuntimeError("internal error: solver returned a non-solution")
    return list(assignment.sorted_literals())


def _solve(formula, mode, tau, kwise, slack, slice_budget, seed) -> tuple[dict, int]:
    """Run one solve and return its canonical payload and exit code: the one
    path behind both `solve` and `bench`. Every returned solution has been
    checked against the formula."""
    if mode == "randomized":
        # with no variables the one order is the empty one
        perms = construct_sigma(formula.variables, kwise) if formula.n else [()]
        record = ppsz_randomized(formula, perms, tau, seed=seed)
        found = record.result is not None
        payload = {
            "mode": mode,
            "found": found,
            "solution": _checked_literals(formula, Assignment.from_literals(record.result))
            if found
            else None,
            "seed": seed,
            "trial": record.to_dict(),
        }
        return payload, EXIT_SAT if found else 0
    if mode == "general":
        result = solve_general(
            formula, tau, independence=kwise, slack=slack, slice_budget=slice_budget
        )
        exponent = None
        if result.instance_found is not None:
            free = formula.n - result.instance_found
            exponent = (1.0 - result.metadata["lambda"]) * free + result.metadata["slack"]
        payload = {
            "instance": result.instance_found,
            "cutoff_exponent": exponent,
            "restrictions_tried": result.restrictions_tried,
            "restrictions_skipped": result.restrictions_skipped,
            "dppsz_calls": result.dppsz_calls,
            "cutoff_hits": result.cutoff_hits,
        }
    else:
        result = solve_unique(formula, tau, independence=kwise)
        payload = {"round": result.round_found}
    # the fields both deterministic modes report
    payload.update(
        mode=mode,
        satisfiable=result.satisfiable,
        solution=_checked_literals(formula, result.solution) if result.satisfiable else None,
        modify_calls=result.modify_calls,
        metadata=result.metadata,
    )
    return payload, EXIT_SAT if result.satisfiable else EXIT_UNSAT


def cmd_solve(args) -> int:
    formula = _load_formula(args.file)
    payload, code = _solve(
        formula, args.mode, args.tau, args.kwise, args.slack, args.slice, args.seed
    )
    _emit(canonical_json(payload), args.out)
    return code


def cmd_oracle(args) -> int:
    formula = _load_formula(args.file)
    count = count_solutions(formula, args.oracle_limit)
    payload = {
        "n": formula.n,
        "clauses": formula.num_clauses,
        "k": formula.k,
        "solutions": count,
        "satisfiable": count > 0,
    }
    if count > 0:
        frozen, liquid = classify_variables(formula, args.oracle_limit)
        payload["frozen"] = list(frozen)
        payload["liquid"] = list(liquid)
        payload["implied"] = sorted(implied_literals(formula, args.oracle_limit))
        if args.witness:
            payload["witness"] = list(first_solution(formula, args.oracle_limit))
    _emit(canonical_json(payload), args.out)
    return EXIT_SAT if count > 0 else EXIT_UNSAT


def cmd_perm(args) -> int:
    if args.file is not None:
        variables = _load_formula(args.file).variables
    elif args.n is not None:
        variables = tuple(range(1, args.n + 1))
    else:
        raise ValueError("perm needs a DIMACS file or --n")
    perms = construct_sigma(variables, args.kwise)
    if args.all:
        if len(perms) > LISTING_LIMIT:
            raise ValueError(f"family of size {len(perms)} is too large to list")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["index", "placements", "permutation"])
        for member in range(len(perms)):
            writer.writerow(
                [
                    member,
                    " ".join(str(p) for p in perms.placements(member)),
                    " ".join(str(v) for v in perms.permutation(member)),
                ]
            )
        _emit(buffer.getvalue(), args.out)
        return 0
    payload = {
        "n": len(variables),
        "variables": list(variables),
        "prime": perms.prime,
        "independence": perms.independence,
        "size": len(perms),
    }
    if args.member is not None:
        if not 0 <= args.member < len(perms):
            raise ValueError(f"member must be in [0, {len(perms)})")
        payload["member"] = args.member
        payload["coefficients"] = list(perms.family.coefficients(args.member))
        payload["placements"] = list(perms.placements(args.member))
        payload["permutation"] = list(perms.permutation(args.member))
    _emit(canonical_json(payload), args.out)
    return 0


def cmd_tree(args) -> int:
    formula = _load_formula(args.file)
    if args.alpha is not None:
        literals = tuple(int(tok) for tok in args.alpha.split(","))
        listed: set[int] = set()
        for lit in literals:
            var = abs(lit)
            if lit == 0:
                raise ValueError("alpha holds the literal 0")
            if var not in formula.variables:
                raise ValueError(f"alpha variable {var} is not in the formula")
            if var in listed:
                raise ValueError(f"alpha lists variable {var} twice")
            listed.add(var)
    else:
        witness = first_solution(formula, args.oracle_limit)
        if witness is None:
            raise ValueError("formula is unsatisfiable; supply nothing to certify")
        literals = witness
    amap = {abs(lit): lit > 0 for lit in literals}
    missing = [v for v in formula.variables if v not in amap]
    if missing:
        raise ValueError(f"alpha leaves variables unassigned: {missing}")
    if evaluate(formula, literals) is not Evaluation.SATISFIED:
        raise ValueError("alpha does not satisfy the formula")
    size = resolve_tau(args.kwise, formula.n)
    depth = args.depth if args.depth is not None else certificate_depth(formula.k, size)
    tree = construct_tree(formula, amap, args.var, depth)
    outcome = verify_tree(tree, formula, amap, size)

    def as_dict(vertex):
        return {
            "label": vertex.label,
            "clause": list(vertex.clause) if vertex.clause is not None else None,
            "children": [as_dict(c) for c in vertex.children],
        }

    payload = {
        "variable": args.var,
        "depth": depth,
        "implication_size": size,
        "tree": as_dict(tree),
        "vertices": outcome.vertices,
        "cuts_checked": outcome.cuts_checked,
        "properties": {name: getattr(outcome, name) for name in PROPERTIES},
        "all_passed": outcome.all_passed,
    }
    _emit(canonical_json(payload), args.out)
    return 0 if outcome.all_passed else 1


CONSTANTS_SAMPLES = (0.0, 0.001, 0.01, 0.1, 0.25, 0.5)


def cmd_constants(args) -> int:
    k = args.k
    lam = lambda_k(k)
    seq = r_sequence_bounds(k, args.iterations, args.grid)
    exponents = {delta: runtime_exponent(k, delta) for delta in CONSTANTS_SAMPLES}
    crossover = None
    if args.competitor is not None:
        crossover = crossover_delta(k, args.competitor)
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["quantity", "value"])
        writer.writerow(["lambda", repr(lam)])
        writer.writerow(["base_unique", repr(2.0 ** exponents[0.0])])
        for delta in CONSTANTS_SAMPLES:
            writer.writerow([f"exponent@{delta}", repr(exponents[delta])])
        writer.writerow(["r_integral_low", repr(seq[-1][0])])
        writer.writerow(["r_integral_high", repr(seq[-1][1])])
        if crossover is not None:
            writer.writerow(["crossover", repr(crossover)])
        _emit(buffer.getvalue(), args.out)
        return 0
    payload = {
        "k": k,
        "lambda": lam,
        "exponents": {str(delta): exponents[delta] for delta in CONSTANTS_SAMPLES},
        "base_unique": 2.0 ** exponents[0.0],
        "grid": args.grid,
        "iterations": args.iterations,
        "r_integral_low": seq[-1][0],
        "r_integral_high": seq[-1][1],
    }
    if crossover is not None:
        payload["competitor"] = args.competitor
        payload["crossover"] = crossover
    _emit(canonical_json(payload), args.out)
    return 0


def cmd_verify(args) -> int:
    reports = run_quick(args.seed)
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "checked": r.checked,
                "failures": r.failures,
            }
            for r in reports
        ]
        _emit(canonical_json(payload), args.out)
    else:
        _emit("".join(r.line() + "\n" for r in reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_bench(args) -> int:
    if args.count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(args.seed)
    buffer = io.StringIO()
    # solve's payload fields, one column each; a field the mode lacks is blank
    fields = (
        "satisfiable",
        "instance",
        "round",
        "restrictions_tried",
        "restrictions_skipped",
        "dppsz_calls",
        "modify_calls",
        "cutoff_hits",
    )
    columns = ["index", "n", "clauses", "k", "mode", *fields]
    if not args.no_timing:
        columns.append("seconds")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    if args.mode == "unique":
        sizes = [int(tok) for tok in args.ns.split(",")]
        jobs = [unique_kcnf(rng, n, 3)[0] for n in sizes for _ in range(args.count)]
    else:
        jobs = solver_corpus(rng, args.count)
    for index, formula in enumerate(jobs):
        start = time.perf_counter()
        payload, _ = _solve(formula, args.mode, args.tau, None, args.slack, None, 0)
        elapsed = time.perf_counter() - start
        # a unique solve is one dppsz call
        cells = {"dppsz_calls": 1, **payload, "satisfiable": int(payload["satisfiable"])}
        row = [index, formula.n, formula.num_clauses, formula.k, args.mode]
        row += ["" if cells.get(name) is None else cells[name] for name in fields]
        if not args.no_timing:
            row.append(f"{elapsed:.6f}")
        writer.writerow(row)
    _emit(buffer.getvalue(), args.out)
    return 0


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    comment = None
    if args.kind == "uniform":
        formula = uniform_kcnf(rng, args.n, args.m, args.k)
    elif args.kind == "satisfiable":
        formula = satisfiable_kcnf(rng, args.n, args.m, args.k)
    elif args.kind == "planted":
        formula, alpha = planted_kcnf(rng, args.n, args.m, args.k)
        comment = "c plant " + " ".join(str(lit) for lit in alpha)
    else:
        formula, alpha = unique_kcnf(rng, args.n, args.k)
        comment = "c plant " + " ".join(str(lit) for lit in alpha)
    if args.free:
        formula = with_free_variables(formula, args.free)
    text = serialize_dimacs(formula)
    if comment is not None:
        text = comment + "\n" + text
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppszlab",
        description="Round-based SAT solving with small-subformula implication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formula_input=True):
        if formula_input:
            p.add_argument("file", help="DIMACS CNF path, or - for stdin")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    p_solve = sub.add_parser("solve", help="decide satisfiability")
    add_common(p_solve)
    p_solve.add_argument("--mode", choices=("general", "unique", "randomized"), default="general")
    p_solve.add_argument("--tau", type=int, default=None, help="implication subformula size")
    p_solve.add_argument("--kwise", type=int, default=None, help="hash family independence")
    p_solve.add_argument("--slack", type=float, default=None, help="budget headroom in bits")
    p_solve.add_argument("--slice", type=int, default=None, help="rotate instances with this budget")
    p_solve.add_argument("--seed", type=int, default=0, help="randomized mode seed")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive counting and variable classes")
    add_common(p_oracle)
    p_oracle.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    p_oracle.add_argument("--witness", action="store_true", help="include the first solution")
    p_oracle.set_defaults(func=cmd_oracle)

    p_perm = sub.add_parser("perm", help="inspect the permutation family")
    p_perm.add_argument("file", nargs="?", default=None, help="DIMACS CNF path, or - for stdin")
    p_perm.add_argument("--n", type=int, default=None, help="use variables 1..n instead of a file")
    p_perm.add_argument("--kwise", type=int, default=None)
    p_perm.add_argument("--member", type=int, default=None, help="describe one family member")
    p_perm.add_argument("--all", action="store_true", help="list every permutation")
    add_common(p_perm, formula_input=False)
    p_perm.set_defaults(func=cmd_perm)

    p_tree = sub.add_parser("tree", help="build and check one certificate tree")
    add_common(p_tree)
    p_tree.add_argument("--var", type=int, required=True)
    p_tree.add_argument("--alpha", default=None, help="comma-separated solution literals")
    p_tree.add_argument("--kwise", type=int, default=None, help="implication size budget")
    p_tree.add_argument("--depth", type=int, default=None)
    p_tree.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    p_tree.set_defaults(func=cmd_tree)

    p_const = sub.add_parser("constants", help="series limit, exponents, recurrence integrals")
    p_const.add_argument("--k", type=int, default=3)
    p_const.add_argument("--competitor", type=float, default=None, help="competitor base to cross")
    p_const.add_argument("--grid", type=int, default=10_000)
    p_const.add_argument("--iterations", type=int, default=30)
    p_const.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p_const, formula_input=False)
    p_const.set_defaults(func=cmd_constants)

    p_verify = sub.add_parser("verify", help="run the quick self-check suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    add_common(p_verify, formula_input=False)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="solve a seeded corpus, emit CSV")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--mode", choices=("general", "unique"), default="general")
    p_bench.add_argument("--count", type=int, default=10, help="instances (per size in unique mode)")
    p_bench.add_argument("--ns", default="4,5,6,7", help="unique mode sizes, comma separated")
    p_bench.add_argument("--tau", type=int, default=None)
    p_bench.add_argument("--slack", type=float, default=None)
    p_bench.add_argument("--no-timing", action="store_true", help="omit wall time for stable bytes")
    add_common(p_bench, formula_input=False)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate an instance as DIMACS")
    p_gen.add_argument("--kind", choices=("uniform", "satisfiable", "planted", "unique"), default="uniform")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--free", type=int, default=0, help="append untouched variables")
    add_common(p_gen, formula_input=False)
    p_gen.set_defaults(func=cmd_gen)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one;
    help text is still formatted, at the terminal's width, when printed."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.kind != "unique" and args.m is None:
        parser.error("gen needs --m for this kind")
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

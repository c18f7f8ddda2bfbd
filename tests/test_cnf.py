import random

import pytest

from ppszlab.cnf import (
    Assignment,
    DimacsError,
    Evaluation,
    Formula,
    canonical_clause,
    evaluate,
    parse_dimacs,
    restrict,
    serialize_dimacs,
)
from ppszlab.instances import uniform_kcnf


def F(*clauses, variables=None, k=None):
    return Formula.from_clauses(clauses, variables=variables, k=k)


def test_canonical_clause_sorts_and_dedupes():
    assert canonical_clause((3, -1, 3)) == (-1, 3)
    assert canonical_clause((2,)) == (2,)
    assert canonical_clause(()) == ()


def test_canonical_clause_rejects_tautology_and_zero():
    with pytest.raises(ValueError):
        canonical_clause((1, -1))
    with pytest.raises(ValueError):
        canonical_clause((0,))


def test_parse_basic():
    formula = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert formula.variables == (1, 2)
    assert formula.clauses == ((1, -2),)
    assert formula.k == 2


def test_parse_empty_clause():
    formula = parse_dimacs("p cnf 1 1\n0\n")
    assert formula.clauses == ((),)


def test_parse_rejects_out_of_range_literal():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n3 0\n")


def test_parse_error_names_line():
    with pytest.raises(DimacsError, match="line 3"):
        parse_dimacs("c comment\np cnf 2 1\nx 0\n")


def test_parse_rejects_tautological_clause():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\n1 -1 0\n")


def test_parse_dedupes_repeated_literal():
    formula = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
    assert formula.clauses == ((1, -2),)


def test_parse_canonicalizes_each_clause_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "ppszlab.cnf.canonical_clause", lambda lits: calls.append(lits) or canonical_clause(lits)
    )
    formula = parse_dimacs("p cnf 4 4\n3 -1 3 0\n2 0\n-1 3 0\n0\n")
    assert len(calls) == 4
    assert formula == F((3, -1, 3), (2,), (-1, 3), (), variables=range(1, 5))


def test_parse_structural_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("")
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\np cnf 2 1\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf -1 0\n")
    with pytest.raises(DimacsError, match="malformed problem line"):
        parse_dimacs("p cnf 3\n")
    with pytest.raises(DimacsError, match="malformed problem line"):
        parse_dimacs("p cnf x 1\n1 0\n")


def test_parse_tolerates_comments_multiline_clauses_and_end_marker():
    text = "c header\np cnf 3 2\n1\n2 0\nc mid\n-3 1 0\n%\n0\n"
    formula = parse_dimacs(text)
    assert formula.clauses == ((1, -3), (1, 2))


def test_parse_accepts_bytes():
    assert parse_dimacs(b"p cnf 1 1\n1 0\n").clauses == ((1,),)


def test_declared_variables_beyond_mentions_are_kept():
    formula = parse_dimacs("p cnf 4 1\n1 2 0\n")
    assert formula.variables == (1, 2, 3, 4)
    assert formula.n == 4


def test_restrict_satisfied_clause_vanishes():
    assert restrict(F((1, 2)), (1,)).clauses == ()


def test_restrict_deletes_falsified_literal():
    assert restrict(F((1, 2)), (-1,)).clauses == ((2,),)


def test_restrict_creates_empty_clause():
    restricted = restrict(F((1,)), (-1,))
    assert restricted.clauses == ((),)


def test_restrict_drops_assigned_variables_and_keeps_k():
    formula = F((1, 2, 3), (2, 3), k=3)
    restricted = restrict(formula, (-2,))
    assert restricted.variables == (1, 3)
    assert restricted.k == 3
    assert restricted.clauses == ((1, 3), (3,))


def test_restrict_rejects_unknown_variable():
    with pytest.raises(ValueError):
        restrict(F((1, 2)), (5,))
    with pytest.raises(ValueError, match="assigned twice with opposite polarity"):
        restrict(F((1, 2)), (1, -1))


def test_restrict_composes_like_the_joint_restriction():
    rng = random.Random(7)
    for _ in range(50):
        formula = uniform_kcnf(rng, 6, 12, 3)
        lits = rng.sample(range(1, 7), 2)
        l1 = lits[0] if rng.getrandbits(1) else -lits[0]
        l2 = lits[1] if rng.getrandbits(1) else -lits[1]
        assert restrict(restrict(formula, (l1,)), (l2,)) == restrict(formula, (l1, l2))


def test_evaluate_spec_cases():
    assert evaluate(F((1, 2)), (-1, 2)) is Evaluation.SATISFIED
    assert evaluate(F((1,), (-1,)), (1,)) is Evaluation.FALSIFIED
    assert evaluate(F((1, 2)), (-1,)) is Evaluation.UNDETERMINED
    with pytest.raises(ValueError, match="assigned twice with opposite polarity"):
        evaluate(F((1, 2)), (1, -1))


def test_evaluate_empty_formula_is_satisfied():
    assert evaluate(F(), ()) is Evaluation.SATISFIED


def test_serialize_parse_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        formula = uniform_kcnf(rng, 5, 10, 3)
        again = parse_dimacs(serialize_dimacs(formula))
        assert again == formula
        assert serialize_dimacs(again) == serialize_dimacs(formula)


def test_serialize_header_covers_restricted_variable_sets():
    formula = restrict(F((1, 2), (2, 3)), (2,))
    text = serialize_dimacs(formula)
    assert text.startswith("p cnf 3 0")
    assert parse_dimacs(text).clauses == ()


def test_from_clauses_validates_declarations():
    with pytest.raises(ValueError):
        Formula.from_clauses([(1, 2)], variables=(1,))
    with pytest.raises(ValueError):
        Formula.from_clauses([(1, 2, 3)], k=2)
    with pytest.raises(ValueError):
        Formula.from_clauses([(1,)], variables=(0, 1))


def test_from_clauses_dedupes_and_sorts():
    formula = Formula.from_clauses([(2, 1), (1, 2), (-1,)])
    assert formula.clauses == ((-1,), (1, 2))


def test_assignment_provenance_and_lookup():
    a = Assignment(((3, "guessed"), (-1, "guessed")))
    assert a.literals() == (3, -1)
    assert a.sorted_literals() == (-1, 3)
    assert a.entries == ((3, "guessed"), (-1, "guessed"))
    assert 3 in a and -3 not in a and len(a) == 2


def test_assignment_rejects_double_assignment():
    with pytest.raises(ValueError):
        Assignment.from_literals((1, -1))
    with pytest.raises(ValueError):
        Assignment.from_literals((2, 2))

"""Core CNF model: clauses over integer variables, assignments with
per-literal provenance, restriction, evaluation, and DIMACS round-tripping.

Literals follow the DIMACS convention: for a variable v >= 1 the literal v
asserts "v is true" and -v asserts "v is false". A clause holds at most one
literal per variable; the empty clause () is the unsatisfiable sentinel.
Formulas keep their clauses as a set in one canonical sorted order, so any
downstream step that picks "the first clause" is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

Clause = tuple[int, ...]

# Provenance tags for assignment entries.
FORCED = "forced"
GUESSED = "guessed"
FIXED = "fixed"


class DimacsError(ValueError):
    """Malformed DIMACS input; the message names the offending line."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def canonical_clause(literals: Iterable[int]) -> Clause:
    """Normalize literals into a clause tuple sorted by variable index.

    Duplicate literals collapse; a variable occurring with both polarities
    (a tautological clause) is rejected rather than silently kept.
    """
    by_var: dict[int, int] = {}
    for lit in literals:
        if lit == 0:
            raise ValueError("literal 0 is not allowed inside a clause")
        var = abs(lit)
        if var in by_var and by_var[var] != lit:
            raise ValueError(f"variable {var} occurs with both polarities")
        by_var[var] = lit
    return tuple(by_var[v] for v in sorted(by_var))


@dataclass(frozen=True)
class Assignment:
    """An ordered partial assignment: one literal per variable plus the
    reason it was set (forced, guessed, or fixed from outside)."""

    entries: tuple[tuple[int, str], ...] = ()
    _values: dict[int, int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        values = self._values
        for lit, _ in self.entries:
            var = abs(lit)
            if var in values:
                raise ValueError(f"variable {var} assigned twice")
            values[var] = lit

    @classmethod
    def from_literals(cls, literals: Iterable[int], provenance: str = FIXED) -> "Assignment":
        return cls(tuple((int(lit), provenance) for lit in literals))

    def literals(self) -> tuple[int, ...]:
        return tuple(lit for lit, _ in self.entries)

    def sorted_literals(self) -> tuple[int, ...]:
        """Canonical form: literals ordered by variable index."""
        return tuple(self._values[v] for v in sorted(self._values))

    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(self._values))

    def value(self, var: int) -> bool | None:
        lit = self._values.get(var)
        return None if lit is None else lit > 0

    def literal_for(self, var: int) -> int | None:
        return self._values.get(var)

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals())

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, lit: int) -> bool:
        return self._values.get(abs(lit)) == lit


class Evaluation(str, Enum):
    SATISFIED = "satisfied"
    FALSIFIED = "falsified"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Formula:
    """A CNF formula: a sorted tuple of canonical clauses over an explicit
    variable set, plus the clause-width bound k.

    The variable set is carried separately from the clauses so that a
    formula may mention fewer variables than it ranges over (restrictions
    and padded instances rely on this).
    """

    variables: tuple[int, ...]
    clauses: tuple[Clause, ...]
    k: int

    @classmethod
    def from_clauses(
        cls,
        clauses: Iterable[Iterable[int]],
        variables: Iterable[int] | None = None,
        k: int | None = None,
    ) -> "Formula":
        canon = sorted(set(canonical_clause(c) for c in clauses))
        mentioned = {abs(lit) for clause in canon for lit in clause}
        if variables is None:
            var_tuple = tuple(sorted(mentioned))
        else:
            var_tuple = tuple(sorted(set(int(v) for v in variables)))
            if any(v < 1 for v in var_tuple):
                raise ValueError("variables must be positive integers")
            missing = mentioned - set(var_tuple)
            if missing:
                raise ValueError(f"clauses mention undeclared variables {sorted(missing)}")
        width = max((len(c) for c in canon), default=0)
        if k is None:
            k = width
        elif k < width:
            raise ValueError(f"clause width {width} exceeds declared k={k}")
        return cls(variables=var_tuple, clauses=tuple(canon), k=k)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def has_empty_clause(self) -> bool:
        return bool(self.clauses) and self.clauses[0] == ()

    def restrict(self, assignment: "Assignment | Iterable[int]") -> "Formula":
        return restrict(self, assignment)

    def evaluate(self, assignment: "Assignment | Iterable[int]") -> Evaluation:
        return evaluate(self, assignment)

    def __str__(self) -> str:
        return serialize_dimacs(self)


def _literal_map(assignment: Assignment | Iterable[int]) -> dict[int, int]:
    """Collapse an assignment-like object to {variable: literal}."""
    lits = assignment.literals() if isinstance(assignment, Assignment) else tuple(assignment)
    out: dict[int, int] = {}
    for lit in lits:
        var = abs(lit)
        if out.get(var, lit) != lit:
            raise ValueError(f"variable {var} assigned twice with opposite polarity")
        out[var] = lit
    return out


def restrict(formula: Formula, assignment: Assignment | Iterable[int]) -> Formula:
    """The residual formula after fixing the assigned variables.

    Clauses with a satisfied literal vanish; falsified literals are deleted
    from the clauses that remain (possibly leaving the empty clause). The
    assigned variables leave the formula's variable set.
    """
    amap = _literal_map(assignment)
    unknown = set(amap) - set(formula.variables)
    if unknown:
        raise ValueError(f"assignment mentions variables outside the formula: {sorted(unknown)}")
    new_clauses: list[Clause] = []
    for clause in formula.clauses:
        keep: list[int] = []
        satisfied = False
        for lit in clause:
            fixed = amap.get(abs(lit))
            if fixed is None:
                keep.append(lit)
            elif fixed == lit:
                satisfied = True
                break
        if not satisfied:
            new_clauses.append(tuple(keep))
    remaining = tuple(v for v in formula.variables if v not in amap)
    return Formula(
        variables=remaining,
        clauses=tuple(sorted(set(new_clauses))),
        k=formula.k,
    )


def evaluate(formula: Formula, assignment: Assignment | Iterable[int]) -> Evaluation:
    """Three-valued evaluation under a partial assignment.

    A clause is falsified only once all its variables are assigned and no
    literal holds; the formula is satisfied once every clause has a
    satisfied literal.
    """
    amap = _literal_map(assignment)
    all_satisfied = True
    for clause in formula.clauses:
        satisfied = False
        fully_assigned = True
        for lit in clause:
            fixed = amap.get(abs(lit))
            if fixed is None:
                fully_assigned = False
            elif fixed == lit:
                satisfied = True
                break
        if satisfied:
            continue
        if fully_assigned:
            return Evaluation.FALSIFIED
        all_satisfied = False
    return Evaluation.SATISFIED if all_satisfied else Evaluation.UNDETERMINED


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF. Tolerates clauses spanning lines, comment lines,
    and the trailing '%' end marker some benchmark files carry."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    declared_vars: int | None = None
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if declared_vars is not None:
                raise DimacsError("duplicate problem line", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line {line!r}", line_no)
            try:
                declared_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed problem line {line!r}", line_no) from None
            if declared_vars < 0 or declared_clauses < 0:
                raise DimacsError("negative counts in problem line", line_no)
            continue
        if declared_vars is None:
            raise DimacsError(f"clause data before problem line: {line!r}", line_no)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"bad token {token!r}", line_no) from None
            if lit == 0:
                try:
                    clauses.append(canonical_clause(pending))
                except ValueError as exc:
                    raise DimacsError(str(exc), pending_line or line_no) from None
                pending = []
                pending_line = 0
            else:
                if abs(lit) > declared_vars:
                    raise DimacsError(
                        f"literal {lit} out of range for {declared_vars} variables", line_no
                    )
                if not pending:
                    pending_line = line_no
                pending.append(lit)
    if declared_vars is None:
        raise DimacsError("missing problem line")
    if pending:
        raise DimacsError("unterminated clause at end of input", pending_line)
    return Formula.from_clauses(clauses, variables=range(1, declared_vars + 1))


def serialize_dimacs(formula: Formula) -> str:
    """Canonical DIMACS text: sorted clauses, one per line.

    The header counts variables up to the largest label so that formulas
    over non-contiguous variable sets (restrictions) stay parseable.
    """
    n = max(formula.variables, default=0)
    lines = [f"p cnf {n} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"

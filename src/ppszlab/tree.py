"""Certificate trees for frozen variables.

Start from a solution, flip the root variable to its wrong value, and some
clause must break. Each vertex records such a witness clause; its children
flip the clause's other variables in turn, so a path down the tree is a set
of additional wrong values. A vertex with nothing new to flip gets a dummy
child (label 0) to keep all leaves at one uniform depth.

The payoff is the cut property: fix the correct literals of any set of
vertices that meets every root-to-leaf path once, and the root's correct
literal becomes implied by a small sub-CNF, namely the witness clauses
above the cut. verify_tree checks all of that explicitly; the construction
and the verifier share no state beyond the tree itself.

The verifier asks the formula's one ImplicationIndex about every cut: a
cut's fixings are a restriction state, so cuts that share upper vertices
share states and memoized answers. Past the index's variable limit it
restricts the formula and runs the reference tau_implied per cut instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterator, Mapping

from .cnf import Clause, Formula, restrict
from .implication import ImplicationIndex, tau_implied

DUMMY = 0  # vertex label for "nothing new to flip"
DEFAULT_CUT_BUDGET = 10**6
# the six TreeReport checks, in the order verify_tree states them
PROPERTIES = (
    "root_in_variables",
    "branching_within_width",
    "path_labels_distinct",
    "uniform_leaf_depth",
    "label_count_within_k",
    "cuts_imply_root",
)


class TreeConstructionError(ValueError):
    """No clause broke where one was needed: the root variable was not
    frozen, or the starting point was not a solution."""


class CutBudgetError(RuntimeError):
    """Cut enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class TreeVertex:
    label: int  # variable index, or DUMMY
    clause: Clause | None  # witness clause; None at leaves
    children: tuple["TreeVertex", ...]
    depth: int

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["TreeVertex"]:
        yield self
        for child in self.children:
            yield from child.walk()


def integer_log(base: int, value: int) -> int:
    """floor(log_base(value)) by pure integer arithmetic."""
    if base < 2 or value < 1:
        raise ValueError("need base >= 2 and value >= 1")
    out = 0
    power = base
    while power <= value:
        out += 1
        power *= base
    return out


def certificate_depth(k: int, implication_size: int) -> int:
    """The uniform leaf depth that a size-K implication budget supports."""
    return integer_log(max(k, 2), implication_size)


def construct_tree(
    formula: Formula,
    alpha: Mapping[int, bool],
    x: int,
    depth: int,
) -> TreeVertex:
    """Build the certificate tree of the given uniform leaf depth for
    variable x, starting from the solution alpha.

    Deterministic throughout: the witness clause is the canonically first
    falsified clause, and children follow the clause's variable order.
    Flips are undone on return, so every vertex sees exactly the flips of
    its own root path.
    """
    if x not in formula.variables:
        raise ValueError(f"variable {x} is not in the formula")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    values = {v: bool(alpha[v]) for v in formula.variables}

    def first_falsified() -> Clause | None:
        for clause in formula.clauses:
            if all(values[abs(lit)] != (lit > 0) for lit in clause):
                return clause
        return None

    def build(label: int, remaining: int, path: set[int], at_depth: int) -> TreeVertex:
        flipped = label != DUMMY
        if flipped:
            values[label] = not values[label]
            path.add(label)
        try:
            if remaining == 0:
                return TreeVertex(label, None, (), at_depth)
            witness = first_falsified()
            if witness is None:
                raise TreeConstructionError(
                    f"no falsified clause under the flips of {sorted(path)}; "
                    f"variable {x} is not frozen here or alpha is not a solution"
                )
            children = []
            for lit in witness:
                var = abs(lit)
                if var not in path:
                    children.append(build(var, remaining - 1, path, at_depth + 1))
            if not children:
                children.append(build(DUMMY, remaining - 1, path, at_depth + 1))
            return TreeVertex(label, witness, tuple(children), at_depth)
        finally:
            if flipped:
                values[label] = not values[label]
                path.discard(label)

    return build(x, depth, set(), 0)


def _count_cuts(root: TreeVertex) -> int:
    """How many cuts enumerate_cuts yields, in one pass over the tree: a
    vertex's own cut plus the product of its children's counts."""

    def below(vertex: TreeVertex) -> int:
        return 1 + prod(map(below, vertex.children)) if vertex.children else 1

    return prod(map(below, root.children)) if root.children else 0


def enumerate_cuts(root: TreeVertex) -> Iterator[tuple[TreeVertex, ...]]:
    """All vertex sets that meet every root-to-leaf path exactly once,
    excluding the trivial cut through the root itself. Streams results;
    raises before the first one if their count exceeds DEFAULT_CUT_BUDGET."""
    if _count_cuts(root) > DEFAULT_CUT_BUDGET:
        raise CutBudgetError(f"cut enumeration exceeded the budget of {DEFAULT_CUT_BUDGET}")

    def cuts_below(vertex: TreeVertex) -> Iterator[tuple[TreeVertex, ...]]:
        yield (vertex,)
        if vertex.children:
            yield from child_products(vertex.children)

    def child_products(children: tuple[TreeVertex, ...]) -> Iterator[tuple[TreeVertex, ...]]:
        if len(children) == 1:
            yield from cuts_below(children[0])
            return
        head, rest = children[0], children[1:]
        for left in cuts_below(head):
            for right in child_products(rest):
                yield left + right

    if root.children:
        yield from child_products(root.children)


@dataclass
class TreeReport:
    """Outcome of the six structural checks, with enough counts to see what
    was actually exercised."""

    root_in_variables: bool = True  # 1: root is a real variable, labels well-formed
    branching_within_width: bool = True  # 2: at most k-1 children anywhere
    path_labels_distinct: bool = True  # 3: no variable repeats on a root path
    uniform_leaf_depth: bool = True  # 4: every leaf at depth floor(log_k K)
    label_count_within_k: bool = True  # 5: at most K distinct variables labeled
    cuts_imply_root: bool = True  # 6: each cut's fixings pin the root literal
    vertices: int = 0
    distinct_labels: int = 0
    cuts_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(getattr(self, name) for name in PROPERTIES)


def verify_tree(
    root: TreeVertex,
    formula: Formula,
    alpha: Mapping[int, bool],
    implication_size: int,
) -> TreeReport:
    """Check the six certificate-tree properties against the formula.

    implication_size is the K budget: the label bound, the uniform depth
    floor(log_k K), and the sub-CNF size the cut check may use.
    """
    report = TreeReport()
    variables = set(formula.variables)
    expected_depth = certificate_depth(formula.k, implication_size)

    if root.label == DUMMY or root.label not in variables:
        report.root_in_variables = False
        report.failures.append(f"root label {root.label} is not a variable")

    labels: set[int] = set()
    for vertex in root.walk():
        report.vertices += 1
        if vertex.label != DUMMY:
            if vertex.label not in variables:
                report.root_in_variables = False
                report.failures.append(f"label {vertex.label} is not a variable")
            labels.add(vertex.label)
        if len(vertex.children) > max(formula.k - 1, 0):
            report.branching_within_width = False
            report.failures.append(
                f"vertex {vertex.label} has {len(vertex.children)} children"
            )
    report.distinct_labels = len(labels)
    if len(labels) > implication_size:
        report.label_count_within_k = False
        report.failures.append(f"{len(labels)} distinct labels exceed {implication_size}")

    # depths are measured from the root, not read off TreeVertex.depth
    def check_paths(vertex: TreeVertex, seen: set[int], depth: int) -> None:
        label = vertex.label
        fresh = label != DUMMY and label not in seen
        if label != DUMMY and not fresh:
            report.path_labels_distinct = False
            report.failures.append(f"variable {label} repeats on a path")
        if vertex.is_leaf and depth != expected_depth:
            report.uniform_leaf_depth = False
            report.failures.append(f"leaf {label} at depth {depth}, expected {expected_depth}")
        if fresh:
            seen.add(label)
        for child in vertex.children:
            check_paths(child, seen, depth + 1)
        if fresh:
            seen.discard(label)

    check_paths(root, set(), 0)
    if not report.root_in_variables:
        return report  # a cut through a label outside the formula cannot be checked

    # the cut property, checked on the formula's implication index; its
    # answers equal tau_implied on the restricted formula, the only route
    # past the index's variable limit
    root_literal = root.label if alpha.get(root.label) else -root.label
    index = None
    if formula.n <= ImplicationIndex.VARIABLE_LIMIT:
        index = ImplicationIndex(formula, implication_size)
    for cut in enumerate_cuts(root):
        report.cuts_checked += 1
        fixed = {v.label for v in cut} - {DUMMY}
        if root.label in fixed:
            # only possible for malformed trees; a valid path never
            # repeats the root variable below the root
            report.cuts_imply_root = False
            report.failures.append(
                f"cut {[v.label for v in cut]} fixes the root variable itself"
            )
            continue
        if index is None:
            fixings = [v if alpha[v] else -v for v in fixed]
            got = tau_implied(restrict(formula, fixings), root.label, implication_size)
        else:
            amask = sum(index.bit_of[v] for v in fixed)
            avals = sum(index.bit_of[v] for v in fixed if alpha[v])
            got = index.implied_literal(amask, avals, root.label) or None
        if got != root_literal:
            report.cuts_imply_root = False
            report.failures.append(
                f"cut {[v.label for v in cut]} yields {got}, expected {root_literal}"
            )
    return report

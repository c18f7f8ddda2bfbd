"""Round-based SAT solving with small-subformula implication.

The round solver proves its own bit budget: a run succeeds once some
variable order forces everything beyond the round's guess allowance. On
top of it sit a complete solver for arbitrary solution counts, exact
probability accounting in rationals, certificate trees for frozen
variables, and the numerics sizing all the budgets.
"""

from .analysis import (
    binary_entropy,
    crossover_delta,
    fixpoint_k3,
    lambda_k,
    r_grid,
    r_sequence_bounds,
    r_value,
    runtime_exponent,
)
from .cnf import (
    Assignment,
    Clause,
    DimacsError,
    Evaluation,
    Formula,
    canonical_clause,
    evaluate,
    parse_dimacs,
    restrict,
    serialize_dimacs,
)
from .engine import (
    EnumerationBudgetError,
    GuessProfile,
    PpszEngine,
    TrialRecord,
    ppsz_randomized,
    success_probability_exact,
    success_probability_via_identity,
)
from .general import (
    GeneralResult,
    GoodAssignment,
    HalvingStep,
    construct_good_assignment,
    cutoff_budget,
    default_slack,
    solve_general,
)
from .implication import (
    ImplicationIndex,
    default_tau,
    resolve_tau,
    sub_cnf_solutions,
    tau_implied,
)
from .instances import (
    planted_kcnf,
    random_assignment,
    satisfiable_kcnf,
    uniform_kcnf,
    unique_kcnf,
    with_free_variables,
)
from .oracle import (
    OracleLimitError,
    UnsatisfiableError,
    classify_variables,
    count_solutions,
    enumerate_solutions,
    first_solution,
    implied_literals,
    is_satisfiable,
)
from .permutations import (
    HashFamily,
    PermutationBudgetError,
    PermutationSet,
    construct_sigma,
    smallest_prime_at_least,
)
from .tree import (
    CutBudgetError,
    TreeConstructionError,
    TreeReport,
    TreeVertex,
    certificate_depth,
    construct_tree,
    enumerate_cuts,
    integer_log,
    verify_tree,
)
from .unique import DppszResult, SolveReport, dppsz, solve_unique

__version__ = "0.1.0"

import random

import pytest

from ppszlab import tree
from ppszlab.cnf import Formula
from ppszlab.instances import unique_kcnf
from ppszlab.tree import (
    DUMMY,
    CutBudgetError,
    TreeConstructionError,
    TreeVertex,
    certificate_depth,
    construct_tree,
    enumerate_cuts,
    integer_log,
    verify_tree,
)


def F(*clauses, variables=None, k=None):
    return Formula.from_clauses(clauses, variables=variables, k=k)


def leaf(label, depth):
    return TreeVertex(label, None, (), depth)


def test_integer_log_values():
    assert integer_log(2, 1) == 0
    assert integer_log(2, 2) == 1
    assert integer_log(2, 3) == 1
    assert integer_log(2, 8) == 3
    assert integer_log(3, 9) == 2
    assert integer_log(3, 26) == 2
    assert integer_log(3, 27) == 3
    with pytest.raises(ValueError):
        integer_log(1, 5)
    with pytest.raises(ValueError):
        integer_log(2, 0)


def test_certificate_depth_clamps_small_widths():
    assert certificate_depth(3, 1) == 0
    assert certificate_depth(3, 3) == 1
    assert certificate_depth(3, 9) == 2
    assert certificate_depth(2, 4) == 2
    assert certificate_depth(1, 4) == 2
    assert certificate_depth(4, 64) == 3


def test_depth_zero_tree_is_a_bare_root():
    root = construct_tree(F((1,)), {1: True}, 1, 0)
    assert root.label == 1
    assert root.clause is None
    assert root.is_leaf
    assert list(enumerate_cuts(root)) == []


def test_unit_clause_tree_pads_with_a_dummy():
    # the witness (1,) brings no new variable, so the path is padded
    formula = F((1,), (1, 2))
    alpha = {1: True, 2: True}
    root = construct_tree(formula, alpha, 1, 1)
    assert root.clause == (1,)
    (child,) = root.children
    assert child.label == DUMMY
    assert child.is_leaf and child.depth == 1
    report = verify_tree(root, formula, alpha, 2)
    assert report.all_passed
    assert report.cuts_checked == 1


def test_binary_clause_tree_has_one_cut():
    formula = F((1, -2), (1, 2))
    alpha = {1: True, 2: True}
    root = construct_tree(formula, alpha, 1, 1)
    # flipping x1 falsifies (1, -2) first in canonical clause order
    assert root.clause == (1, -2)
    (child,) = root.children
    assert child.label == 2
    cuts = list(enumerate_cuts(root))
    assert [[v.label for v in cut] for cut in cuts] == [[2]]
    report = verify_tree(root, formula, alpha, 2)
    assert report.all_passed
    assert report.vertices == 2
    assert report.distinct_labels == 2


def test_chain_tree_yields_one_cut_per_level():
    # flipping 1 falsifies (1, -2); flipping 2 then falsifies (2, -3)
    formula = F((1, -2), (2, -3))
    alpha = {1: True, 2: True, 3: True}
    root = construct_tree(formula, alpha, 1, 2)
    assert [v.label for v in root.walk()] == [1, 2, 3]
    cuts = list(enumerate_cuts(root))
    assert [[v.label for v in cut] for cut in cuts] == [[2], [3]]
    report = verify_tree(root, formula, alpha, 4)
    assert report.all_passed
    assert report.cuts_checked == 2


def test_branching_tree_cut_is_the_full_frontier():
    formula = F((1, 2, 3))
    alpha = {1: True, 2: False, 3: False}
    root = construct_tree(formula, alpha, 1, 1)
    assert {child.label for child in root.children} == {2, 3}
    cuts = list(enumerate_cuts(root))
    assert [[v.label for v in cut] for cut in cuts] == [[2, 3]]
    assert verify_tree(root, formula, alpha, 3).all_passed


def test_construction_requires_a_falsified_witness():
    with pytest.raises(TreeConstructionError):
        construct_tree(F((1, 2)), {1: True, 2: True}, 1, 1)
    # flipping x1 on a non-solution can satisfy everything instead
    with pytest.raises(TreeConstructionError):
        construct_tree(F((-1, 2)), {1: True, 2: False}, 1, 1)
    with pytest.raises(ValueError):
        construct_tree(F((1, 2)), {1: True, 2: True}, 4, 1)


def test_cut_budget_is_enforced(monkeypatch):
    formula = F((1, -2), (2, -3))
    root = construct_tree(formula, {1: True, 2: True, 3: True}, 1, 2)
    monkeypatch.setattr(tree, "DEFAULT_CUT_BUDGET", 1)
    with pytest.raises(CutBudgetError):
        list(enumerate_cuts(root))


def test_cut_count_matches_the_enumeration():
    formula, alpha = unique_kcnf(random.Random(1), 8, 3)
    values = {abs(lit): lit > 0 for lit in alpha}
    roots = [
        construct_tree(F((1,)), {1: True}, 1, 0),
        construct_tree(F((1,), (1, 2)), {1: True, 2: True}, 1, 1),
        construct_tree(F((1, -2), (2, -3)), {1: True, 2: True, 3: True}, 1, 2),
        construct_tree(F((1, 2, 3)), {1: True, 2: False, 3: False}, 1, 1),
        TreeVertex(1, (1, 2, 5), (TreeVertex(2, (2, 3, 4), (leaf(3, 2), leaf(4, 2)), 1),
                                  TreeVertex(5, (5, 6), (leaf(6, 2),), 1)), 0),
    ] + [construct_tree(formula, values, 1, depth) for depth in range(5)]
    counts = [tree._count_cuts(root) for root in roots]
    assert counts == [len(list(enumerate_cuts(root))) for root in roots]
    assert counts[:5] == [0, 1, 2, 1, 4]
    assert counts[-1] == 416


def test_cut_budget_is_checked_before_any_cut(monkeypatch):
    # the tree of `gen --kind unique --n 8 --seed 1` at depth 6 has
    # 7,305,268 cuts; checking them would take hours
    formula, alpha = unique_kcnf(random.Random(1), 8, 3)
    values = {abs(lit): lit > 0 for lit in alpha}
    root = construct_tree(formula, values, 1, 6)
    assert tree._count_cuts(root) == 7_305_268

    def refuse(*args):
        raise AssertionError("a cut was checked")

    monkeypatch.setattr(tree, "tau_implied", refuse)
    with pytest.raises(CutBudgetError):
        verify_tree(root, formula, values, 9)


def test_verifier_flags_a_dummy_root():
    report = verify_tree(leaf(DUMMY, 0), F((1, 2)), {1: True, 2: True}, 1)
    assert not report.root_in_variables
    assert report.branching_within_width
    assert report.uniform_leaf_depth
    assert not report.all_passed


def test_verifier_flags_overwide_branching():
    # two children on a width-2 formula; everything else is well-formed
    root = TreeVertex(1, (1, 2), (leaf(2, 1), leaf(2, 1)), 0)
    report = verify_tree(root, F((1, 2)), {1: True, 2: False}, 2)
    assert not report.branching_within_width
    assert report.path_labels_distinct
    assert report.uniform_leaf_depth
    assert report.label_count_within_k
    assert report.cuts_imply_root


def test_verifier_flags_repeated_path_labels_and_root_cuts():
    # the child repeats the root variable, so the only cut fixes the root
    root = TreeVertex(1, (1, 2), (leaf(1, 1),), 0)
    report = verify_tree(root, F((1, 2)), {1: True, 2: False}, 2)
    assert not report.path_labels_distinct
    assert not report.cuts_imply_root
    assert any("fixes the root variable" in msg for msg in report.failures)
    assert report.branching_within_width
    assert report.uniform_leaf_depth


def test_verifier_flags_uneven_leaf_depth():
    # dummies stretch a path one level past the uniform depth; the unit
    # clause keeps every cut check passing, isolating the depth property
    formula = F((1,), (1, 2))
    mid = TreeVertex(DUMMY, (1,), (leaf(DUMMY, 2),), 1)
    root = TreeVertex(1, (1,), (mid,), 0)
    report = verify_tree(root, formula, {1: True, 2: True}, 2)
    assert not report.uniform_leaf_depth
    assert report.path_labels_distinct
    assert report.label_count_within_k
    assert report.cuts_imply_root
    assert not report.all_passed


def test_verifier_flags_label_overflow():
    # four distinct labels against a budget of three, alongside the
    # branching breach that makes the overflow possible at depth one
    formula = F((1, 2, 3), (1, 3, 4))
    alpha = {1: True, 2: False, 3: False, 4: False}
    root = TreeVertex(1, (1, 2, 3), (leaf(2, 1), leaf(3, 1), leaf(4, 1)), 0)
    report = verify_tree(root, formula, alpha, 3)
    assert not report.label_count_within_k
    assert not report.branching_within_width
    assert report.uniform_leaf_depth
    assert report.cuts_imply_root


def test_verifier_flags_cuts_that_do_not_pin_the_root():
    # fixing the unrelated variable 3 leaves (1, 2) unresolved
    formula = F((1, 2), variables=(1, 2, 3))
    root = TreeVertex(1, (1, 2), (leaf(3, 1),), 0)
    report = verify_tree(root, formula, {1: True, 2: False, 3: True}, 2)
    assert not report.cuts_imply_root
    assert report.root_in_variables
    assert report.path_labels_distinct
    assert report.uniform_leaf_depth
    assert report.label_count_within_k


def test_every_frozen_variable_certifies_on_a_unique_instance():
    formula, alpha = unique_kcnf(random.Random(61), 5, 3)
    values = {abs(lit): lit > 0 for lit in alpha}
    depth = certificate_depth(formula.k, 9)
    assert depth == 2
    for var in formula.variables:
        root = construct_tree(formula, values, var, depth)
        report = verify_tree(root, formula, values, 9)
        assert report.all_passed, (var, report.failures)
        assert report.cuts_checked >= 1

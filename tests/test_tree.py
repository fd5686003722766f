"""Tree navigation on model templates and explicit edge lists."""

import pytest

import treeshift as ts
from treeshift import Branch, Explicit, ExplicitTree, ModelTree, Trunk, Window
from treeshift.errors import InvalidTreeError, UnknownVertexError
from treeshift.tree import (
    child_count_untruncated,
    tree_from_json,
    tree_to_json,
    vertex_from_json,
    vertex_to_json,
    window_vertices,
)

WIDE = Window(max_trunk=10, max_branch=10, max_depth=10)


def abc_tree():
    a, b, c = Explicit(0), Explicit(1), Explicit(2)
    return ExplicitTree([(a, b), (b, c)]), (a, b, c)


# --- children ---


def test_children_of_branching_vertex():
    tree = ModelTree(eta=2, kappa=1)
    assert ts.children(tree, ts.ZERO, WIDE) == [Branch(1, 1), Branch(2, 1)]


def test_children_along_a_branch():
    tree = ModelTree(eta=2, kappa=1)
    assert ts.children(tree, Branch(1, 3), WIDE) == [Branch(1, 4)]


def test_children_of_leaf():
    tree, (a, b, c) = abc_tree()
    assert ts.children(tree, c, WIDE) == []


def test_children_respects_window():
    tree = ModelTree(eta=ts.INF, kappa=0)
    kids = ts.children(tree, ts.ZERO, Window(max_trunk=0, max_branch=3, max_depth=5))
    assert kids == [Branch(1, 1), Branch(2, 1), Branch(3, 1)]


def test_children_unknown_vertex():
    tree = ModelTree(eta=2, kappa=1)
    with pytest.raises(UnknownVertexError):
        ts.children(tree, Trunk(5), WIDE)
    with pytest.raises(UnknownVertexError):
        ts.children(tree, Branch(3, 1), WIDE)


# --- parent ---


def test_parent_of_first_branch_vertex():
    assert ts.parent(ModelTree(eta=2, kappa=2), Branch(1, 1)) == ts.ZERO


def test_parent_of_root_is_none():
    assert ts.parent(ModelTree(eta=2, kappa=2), Trunk(2)) is None


def test_parent_on_infinite_trunk():
    assert ts.parent(ModelTree(eta=2, kappa=ts.INF), Trunk(5)) == Trunk(6)


def test_parent_explicit():
    tree, (a, b, c) = abc_tree()
    assert ts.parent(tree, c) == b
    assert ts.parent(tree, a) is None


# --- branching vertices ---


def test_branching_vertex_of_model_tree():
    assert ts.branching_vertices(ModelTree(eta=ts.INF, kappa=0), WIDE) == [ts.ZERO]


def test_branching_reported_for_mathematical_tree():
    # even a window that keeps one branch still reports the branching vertex
    tree = ModelTree(eta=ts.INF, kappa=0)
    narrow = Window(max_trunk=0, max_branch=1, max_depth=3)
    assert ts.branching_vertices(tree, narrow) == [ts.ZERO]


def test_branching_vertices_path_and_star():
    path, _ = abc_tree()
    assert ts.branching_vertices(path, WIDE) == []
    center = Explicit(0)
    star = ExplicitTree([(center, Explicit(i)) for i in (1, 2, 3)])
    assert ts.branching_vertices(star, WIDE) == [center]


# --- descendants ---


def test_descendants_two_levels():
    tree = ModelTree(eta=2, kappa=0)
    result = ts.descendants_at(tree, ts.ZERO, 2, WIDE)
    assert [v for v, _ in result] == [Branch(1, 2), Branch(2, 2)]
    assert result[0][1] == [ts.ZERO, Branch(1, 1), Branch(1, 2)]


def test_descendants_identity_case():
    tree, (a, b, c) = abc_tree()
    assert ts.descendants_at(tree, b, 0, WIDE) == [(b, [b])]


def test_descendants_exhausted():
    tree, (a, b, c) = abc_tree()
    assert ts.descendants_at(tree, a, 3, WIDE) == []


def test_descendants_recursion_consistency():
    tree = ModelTree(eta=3, kappa=2)
    for u in (ts.ZERO, Trunk(2), Branch(2, 1)):
        for n in range(0, 4):
            via_children = []
            for v in ts.children(tree, u, WIDE):
                via_children.extend(
                    (w, [u] + p) for w, p in ts.descendants_at(tree, v, n, WIDE)
                )
            assert via_children == ts.descendants_at(tree, u, n + 1, WIDE)


# --- explicit tree validation ---


def test_two_parents_rejected():
    a, b, c = Explicit(0), Explicit(1), Explicit(2)
    with pytest.raises(InvalidTreeError):
        ExplicitTree([(a, c), (b, c), (a, b)])


def test_cycle_rejected():
    a, b = Explicit(0), Explicit(1)
    with pytest.raises(InvalidTreeError):
        ExplicitTree([(a, b), (b, a)])


def test_disconnected_rejected():
    a, b, c, d = (Explicit(i) for i in range(4))
    with pytest.raises(InvalidTreeError):
        ExplicitTree([(a, b), (c, d)])


def test_model_tree_validation():
    with pytest.raises(InvalidTreeError):
        ModelTree(eta=1, kappa=0)
    with pytest.raises(InvalidTreeError):
        ModelTree(eta=2, kappa=-1)


def test_window_bounds_must_be_integers():
    for bounds in ((10, 12.0, 30), (10, 50, 4.0), (True, 50, 30), (10, 50, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            Window(*bounds)


def test_parent_child_duality():
    tree = ModelTree(eta=4, kappa=3)
    for u in window_vertices(tree, WIDE):
        p = ts.parent(tree, u)
        if p is None:
            assert u == Trunk(3)
        else:
            assert u in ts.children(tree, p, WIDE)


def test_model_child_counts():
    tree = ModelTree(eta=7, kappa=2)
    assert child_count_untruncated(tree, ts.ZERO) == 7
    assert child_count_untruncated(tree, Branch(3, 9)) == 1
    assert child_count_untruncated(tree, Trunk(2)) == 1
    assert child_count_untruncated(ModelTree(eta=ts.INF, kappa=0), ts.ZERO) is ts.INF


# --- JSON codecs ---


def test_vertex_json_roundtrip():
    for v in (Trunk(3), Branch(2, 5), Explicit(-7)):
        assert vertex_from_json(vertex_to_json(v)) == v
    assert vertex_to_json(Trunk(3)) == {"trunk": 3}
    assert vertex_to_json(Branch(2, 5)) == {"branch": [2, 5]}
    assert vertex_to_json(Explicit(-7)) == {"label": -7}


def test_tree_json_roundtrip():
    model = ModelTree(eta=ts.INF, kappa=4)
    assert tree_from_json(tree_to_json(model)) == model
    assert tree_to_json(model) == {"model": {"eta": "inf", "kappa": 4}}
    explicit, _ = abc_tree()
    assert tree_from_json(tree_to_json(explicit)).edges == explicit.edges

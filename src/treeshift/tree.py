"""Directed-tree data model.

Two kinds of trees are supported: explicit finite trees given by an edge
list, and the lazily generated model trees with a single branching vertex:
a trunk of length kappa below vertex 0 and eta infinite branches above it.
Model trees are never materialized; every traversal takes a truncation
window.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

from .errors import InvalidTreeError, UnknownVertexError

INF = math.inf


# --- vertices ---


@dataclass(frozen=True)
class Trunk:
    """Trunk vertex -k of a model tree; k = 0 is the branching vertex 0."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("trunk index must be >= 0")

    def __repr__(self):
        return f"v({-self.k})"


@dataclass(frozen=True)
class Branch:
    """Branch vertex (i, j) of a model tree: branch i, depth j (both >= 1)."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise ValueError("branch indices must be >= 1")

    def __repr__(self):
        return f"v({self.i},{self.j})"


@dataclass(frozen=True)
class Explicit:
    """Vertex of a user-supplied finite tree, identified by an integer label."""

    label: int

    def __repr__(self):
        return f"v[{self.label}]"


Vertex = Union[Trunk, Branch, Explicit]

ZERO = Trunk(0)


def vertex_sort_key(v: Vertex):
    if isinstance(v, Trunk):
        return (0, -v.k, 0)
    if isinstance(v, Branch):
        return (1, v.i, v.j)
    return (2, v.label, 0)


def vertex_to_json(v: Vertex):
    if isinstance(v, Trunk):
        return {"trunk": v.k}
    if isinstance(v, Branch):
        return {"branch": [v.i, v.j]}
    return {"label": v.label}


# --- truncation window ---


@dataclass(frozen=True)
class Window:
    """Finite view of a model tree.

    Retains trunk vertices -k with k <= max_trunk, branches i <= max_branch
    and branch vertices (i, j) with j <= max_depth.  Explicit finite trees
    ignore the window.
    """

    max_trunk: int = 10
    max_branch: int = 50
    max_depth: int = 30

    def __post_init__(self):
        for name, bound in vars(self).items():
            if isinstance(bound, bool) or not isinstance(bound, int):
                raise ValueError(f"{name} must be an integer, got {bound!r}")
        if self.max_trunk < 0 or self.max_branch < 1 or self.max_depth < 1:
            raise ValueError("window bounds out of range")


# --- tree specs ---


@dataclass(frozen=True)
class ModelTree:
    """The one-branching-vertex template: trunk length kappa, eta branches.

    Rooted at -kappa when kappa is finite, rootless when kappa = INF.
    Leafless by construction; vertex 0 is the only branching vertex.
    """

    eta: Union[int, float] = INF
    kappa: Union[int, float] = 0

    def __post_init__(self):
        if self.eta is not INF and (not isinstance(self.eta, int) or self.eta < 2):
            raise InvalidTreeError("eta must be an integer >= 2 or INF")
        if self.kappa is not INF and (not isinstance(self.kappa, int) or self.kappa < 0):
            raise InvalidTreeError("kappa must be an integer >= 0 or INF")

    @property
    def root(self) -> Optional[Vertex]:
        return None if self.kappa is INF else Trunk(int(self.kappa))

    def is_valid_vertex(self, v: Vertex) -> bool:
        if isinstance(v, Trunk):
            return v.k <= self.kappa
        if isinstance(v, Branch):
            return v.i <= self.eta
        return False


@dataclass(frozen=True)
class ExplicitTree:
    """Finite directed tree given by an explicit edge list."""

    edges: tuple

    def __init__(self, edges):
        object.__setattr__(self, "edges", tuple((p, c) for p, c in edges))
        self._validate()

    def _validate(self):
        parent = {}
        vertices = set()
        for p, c in self.edges:
            if not isinstance(p, Explicit) or not isinstance(c, Explicit):
                raise InvalidTreeError("explicit trees use Explicit vertices only")
            vertices.add(p)
            vertices.add(c)
            if c in parent:
                raise InvalidTreeError(f"vertex {c} has two parents")
            parent[c] = p
        if not vertices:
            raise InvalidTreeError("empty tree")
        roots = [v for v in vertices if v not in parent]
        if len(roots) != 1:
            raise InvalidTreeError(f"expected exactly one root, found {len(roots)}")
        # acyclicity + connectedness: every vertex must reach the root
        root = roots[0]
        for v in vertices:
            seen = set()
            while v != root:
                if v in seen:
                    raise InvalidTreeError("edge relation contains a cycle")
                seen.add(v)
                v = parent[v]

    @cached_property
    def parent_map(self) -> dict:
        return {c: p for p, c in self.edges}

    @cached_property
    def children_map(self) -> dict:
        out = {v: [] for v in self.vertices}
        for p, c in self.edges:
            out[p].append(c)
        for v in out:
            out[v].sort(key=vertex_sort_key)
        return out

    @cached_property
    def vertices(self) -> tuple:
        seen = []
        got = set()
        for p, c in self.edges:
            for v in (p, c):
                if v not in got:
                    got.add(v)
                    seen.append(v)
        return tuple(sorted(seen, key=vertex_sort_key))

    @property
    def root(self) -> Vertex:
        (r,) = [v for v in self.vertices if v not in self.parent_map]
        return r

    def is_valid_vertex(self, v: Vertex) -> bool:
        return isinstance(v, Explicit) and v in set(self.vertices)


TreeSpec = Union[ModelTree, ExplicitTree]


# --- navigation ---


def _require_valid(tree: TreeSpec, u: Vertex):
    if not tree.is_valid_vertex(u):
        raise UnknownVertexError(f"{u} is not a vertex of {tree}")


def in_window(tree: TreeSpec, v: Vertex, window: Window) -> bool:
    if isinstance(tree, ExplicitTree):
        return tree.is_valid_vertex(v)
    if not tree.is_valid_vertex(v):
        return False
    if isinstance(v, Trunk):
        return v.k <= window.max_trunk
    return v.i <= window.max_branch and v.j <= window.max_depth


def children(tree: TreeSpec, u: Vertex, window: Window) -> list:
    """Chi(u) intersected with the window."""
    _require_valid(tree, u)
    if isinstance(tree, ExplicitTree):
        return list(tree.children_map[u])
    if isinstance(u, Trunk):
        if u.k == 0:
            top = window.max_branch if tree.eta is INF else min(int(tree.eta), window.max_branch)
            return [Branch(i, 1) for i in range(1, top + 1)] if window.max_depth >= 1 else []
        child = Trunk(u.k - 1)
        return [child] if in_window(tree, child, window) else []
    child = Branch(u.i, u.j + 1)
    return [child] if in_window(tree, child, window) else []


def children_visible(tree: TreeSpec, u: Vertex, window: Window) -> bool:
    """Whether the window holds every child the consistency identity at u
    needs, so that its residual at u can be checked.

    Explicit trees ignore the window.  A trunk vertex -k has the single
    child -(k-1), inside the window whenever -k is.  Vertex 0 has infinitely
    many children, but its identity is still checkable: the window keeps
    branches i <= max_branch, and the truncated mixture at 0 keeps exactly
    the atoms q_i of those children, so both sides agree atom by atom.  A
    branch vertex (i, j) has the single chain child (i, j+1), which the
    window cuts off at j = max_depth.
    """
    if isinstance(tree, ExplicitTree) or isinstance(u, Trunk):
        return True
    return u.j < window.max_depth


def child_count_untruncated(tree: TreeSpec, u: Vertex):
    """|Chi(u)| in the mathematical tree (may be INF)."""
    _require_valid(tree, u)
    if isinstance(tree, ExplicitTree):
        return len(tree.children_map[u])
    if isinstance(u, Trunk) and u.k == 0:
        return tree.eta
    return 1  # model trees are leafless: every other vertex has one child


def parent(tree: TreeSpec, u: Vertex) -> Optional[Vertex]:
    """The unique v with (v, u) an edge; None iff u is the root."""
    _require_valid(tree, u)
    if isinstance(tree, ExplicitTree):
        return tree.parent_map.get(u)
    if isinstance(u, Branch):
        return Branch(u.i, u.j - 1) if u.j >= 2 else ZERO
    if u.k == tree.kappa:  # root of a rooted model tree
        return None
    return Trunk(u.k + 1)


def branching_vertices(tree: TreeSpec, window: Window) -> list:
    """In-window vertices with >= 2 children in the mathematical tree."""
    if isinstance(tree, ExplicitTree):
        return [v for v in tree.vertices if len(tree.children_map[v]) >= 2]
    # eta >= 2 always, so 0 is the unique branching vertex
    return [ZERO] if in_window(tree, ZERO, window) else []


def descendants_at(tree: TreeSpec, u: Vertex, n: int, window: Window) -> list:
    """All (v, path) with v reachable from u by exactly n in-window edges."""
    _require_valid(tree, u)
    if n < 0:
        raise ValueError("n must be >= 0")
    level = [(u, [u])]
    for _ in range(n):
        nxt = []
        for v, path in level:
            for c in children(tree, v, window):
                nxt.append((c, path + [c]))
        level = nxt
        if not level:
            break
    return level


def window_vertices(tree: TreeSpec, window: Window) -> Iterator[Vertex]:
    """All in-window vertices, in canonical order."""
    if isinstance(tree, ExplicitTree):
        yield from tree.vertices
        return
    top = window.max_trunk if tree.kappa is INF else min(window.max_trunk, int(tree.kappa))
    for k in range(top, -1, -1):
        yield Trunk(k)
    nb = window.max_branch if tree.eta is INF else min(window.max_branch, int(tree.eta))
    for i in range(1, nb + 1):
        for j in range(1, window.max_depth + 1):
            yield Branch(i, j)

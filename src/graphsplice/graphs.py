"""Graphs in pseudo-linear form.

A graph of order n lives on positions 1..n; an edge is an unordered pair
of distinct positions stored as (u, v) with u < v.  Parallel edges are
allowed (the edge tuple may repeat a pair), loops are not.  Keeping the
vertex set implicit in the order makes cutting a graph "between" or
"through" positions a purely combinatorial affair.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .errors import CapExceededError, InvalidGraphError, InvalidOrderingError

# nodes one canonical-form search may visit before it gives up
CANON_NODE_BUDGET = 1_000_000
ISO_ORDER_CAP = 10  # largest order is_isomorphic canonicalizes

Edge = tuple[int, int]


@dataclass(frozen=True)
class PlfGraph:
    """Immutable multigraph on positions 1..order.

    Edges are normalized on construction: each pair is flipped to
    (min, max) and the whole tuple is sorted, so two equal graphs always
    compare and hash equal.
    """

    order: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        try:
            order = operator.index(self.order)
        except TypeError:
            raise InvalidGraphError(
                f"order must be an integer, got {self.order!r}"
            ) from None
        if order < 0:
            raise InvalidGraphError(f"order must be non-negative, got {order}")
        object.__setattr__(self, "order", order)
        norm = []
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InvalidGraphError(f"edge {e!r} is not a pair") from None
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise InvalidGraphError(
                    f"edge {e!r} has a non-integer endpoint"
                ) from None
            if u == v:
                raise InvalidGraphError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            if not (1 <= u and v <= self.order):
                raise InvalidGraphError(
                    f"edge ({u},{v}) falls outside positions 1..{self.order}"
                )
            norm.append((u, v))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def _from_sorted(cls, order: int, edges: tuple[Edge, ...]) -> "PlfGraph":
        """A graph from a tuple of edges that is already what __post_init__
        would produce: int order, sorted int pairs with 1 <= u < v <= order.
        Nothing is checked, so only code that guarantees that may call it.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "order", order)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def size(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return sum((u == v) + (w == v) for u, w in self.edges)

    def left_degree(self, v: int) -> int:
        """Number of edge ends at v whose other end lies left of v."""
        self._check_vertex(v)
        return sum(1 for u, w in self.edges if w == v)

    def right_degree(self, v: int) -> int:
        """Number of edge ends at v whose other end lies right of v."""
        self._check_vertex(v)
        return sum(1 for u, w in self.edges if u == v)

    def multiplicity(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        if u > v:
            u, v = v, u
        return self.edges.count((u, v))

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.order:
            raise InvalidGraphError(f"vertex {v} outside positions 1..{self.order}")

    def __str__(self) -> str:
        inner = ", ".join(f"({u},{v})" for u, v in self.edges)
        return f"PLF(order={self.order}, edges=[{inner}])"


# An ordering assigns source vertex labels to positions: position p holds
# the label ordering[p - 1].
Ordering = tuple[int, ...]


@dataclass(frozen=True)
class DegreeProfile:
    """Left/right degree split of every position, plus totals."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    total: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "total", tuple(l + r for l, r in zip(self.left, self.right))
        )


def degree_profile(g: PlfGraph) -> DegreeProfile:
    left = [0] * g.order
    right = [0] * g.order
    for u, v in g.edges:
        right[u - 1] += 1
        left[v - 1] += 1
    return DegreeProfile(tuple(left), tuple(right))


def to_plf(source_order: int, source_edges, ordering: Ordering) -> PlfGraph:
    """Lay out a graph with labels 1..source_order along the given ordering.

    ordering must list every label exactly once; position p gets the
    label ordering[p-1], and each edge (a, b) becomes the pair of
    positions holding a and b.  Adjacency is untouched, only names move.
    """
    if sorted(ordering) != list(range(1, source_order + 1)):
        raise InvalidOrderingError(
            f"ordering {ordering!r} is not a permutation of 1..{source_order}"
        )
    pos = {label: p for p, label in enumerate(ordering, start=1)}
    plf_edges = []
    for a, b in source_edges:
        if a not in pos or b not in pos:
            raise InvalidGraphError(f"edge ({a!r},{b!r}) uses an unknown vertex")
        plf_edges.append((pos[a], pos[b]))
    return PlfGraph(source_order, tuple(plf_edges))


def cycle(n: int) -> PlfGraph:
    """Cycle on n >= 3 positions, consecutive edges plus the closing (1, n)."""
    if n < 3:
        raise InvalidGraphError(f"a cycle needs at least 3 vertices, got {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return PlfGraph(n, tuple(edges))


def path(n: int) -> PlfGraph:
    if n < 1:
        raise InvalidGraphError(f"a path needs at least 1 vertex, got {n}")
    return PlfGraph(n, tuple((i, i + 1) for i in range(1, n)))


def complete(n: int) -> PlfGraph:
    if n < 1:
        raise InvalidGraphError(f"a complete graph needs at least 1 vertex, got {n}")
    return PlfGraph(n, tuple(combinations(range(1, n + 1), 2)))


def complete_bipartite(a: int, b: int) -> PlfGraph:
    """K_{a,b} with the left class on positions 1..a."""
    if a < 1 or b < 1:
        raise InvalidGraphError(f"both classes need vertices, got {a} and {b}")
    edges = tuple((u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1))
    return PlfGraph(a + b, edges)


def double_edge(n: int = 2, u: int = 1, v: int = 2) -> PlfGraph:
    """Two parallel edges between u and v, the smallest non-simple graph."""
    return PlfGraph(n, ((u, v), (u, v)))


def has_cycle(g: PlfGraph) -> bool:
    """True when some edge subset forms a cycle (parallel edges count)."""
    parent = list(range(g.order + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def is_bipartite(g: PlfGraph) -> bool:
    """Two-colorability; parallel edges never break it, odd cycles do."""
    color = [0] * (g.order + 1)
    adj: list[list[int]] = [[] for _ in range(g.order + 1)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for start in range(1, g.order + 1):
        if color[start]:
            continue
        color[start] = 1
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if color[y] == 0:
                    color[y] = -color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def is_regular(g: PlfGraph) -> int | None:
    """The common degree when every vertex has one, else None.

    Degree-0 regularity returns 0, so callers must test `is not None`
    rather than truthiness.
    """
    if g.order == 0:
        return 0
    deg = [0] * (g.order + 1)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    # deg[0] is an unused slot, which a 0-regular graph's degree would match
    want = deg[1]
    return want if deg[1:].count(want) == g.order else None


def is_simple(g: PlfGraph) -> bool:
    return len(set(g.edges)) == len(g.edges)


def _canonical_search(order: int, edges) -> bytes:
    """Smallest upper-triangle multiplicity vector over relabelings.

    Positions are ordered by non-increasing degree and each vertex may only
    occupy a position whose target degree matches its own.  The vector lists
    multiplicities column by column: for each position p the entries
    (1,p), (2,p), ..., (p-1,p).  Two graphs get equal encodings iff they
    are isomorphic.

    Three rules prune the search, and none of them changes the minimum:

    - Minimum column.  Column p follows the placed prefix directly, and any
      vertex of the right degree can still be completed to a full layout,
      so the minimum below a node places at p a vertex whose column (its
      multiplicities to the placed vertices) is the smallest there.  Only
      the candidates that tie for that column are tried.
    - One placement per twin class.  Twins are vertices whose multiplicity
      rows agree outside the pair itself; the relation is transitive.
      Unplaced twins share a column, so each node builds one column per
      class, and swapping two of them is an automorphism that fixes the
      prefix, so one member of each tied class is placed.
    - Column bound.  `tight` says the prefix equals the best vector's
      prefix so far; only then is the new column compared with the best
      vector's column p.  Once a prefix is smaller, every completion of it
      is smaller, and a new best found below a node makes that node tight.

    The search visits at most CANON_NODE_BUDGET nodes and recurses once
    per position; past the budget or the interpreter's recursion limit it
    raises CapExceededError, an order at or above the limit before it
    builds anything.
    """
    n = order
    if n >= sys.getrecursionlimit():
        raise CapExceededError(
            f"canonical form of order {n} is deeper than the interpreter's stack"
        )
    mult = [[0] * n for _ in range(n)]
    deg = [0] * n
    for u, v in edges:
        mult[u - 1][v - 1] += 1
        mult[v - 1][u - 1] += 1
        deg[u - 1] += 1
        deg[v - 1] += 1
    target = sorted(deg, reverse=True)
    # twin classes in the order of their smallest member, each the list
    # of its unplaced members; the search places a class's members from
    # the back, so its first member, unplaced while any member is, gives
    # the row that every unplaced member's column is read from
    classes: list[list[int]] = []
    for v in range(n):
        for cls in classes:
            u = cls[0]
            if deg[u] == deg[v] and all(
                mult[u][w] == mult[v][w] for w in range(n) if w != u and w != v
            ):
                cls.append(v)
                break
        else:
            classes.append([v])
    slot_classes = [
        [(cls, mult[cls[0]]) for cls in classes if deg[cls[0]] == d] for d in target
    ]
    vec = [0] * (n * (n - 1) // 2)
    assigned = [0] * n
    best: list = []
    nodes = 0

    def search(p, pos, tight):
        """Search below the prefix assigned[:p]; True when best changed."""
        nonlocal best, nodes
        nodes += 1
        if nodes > CANON_NODE_BUDGET:
            raise CapExceededError(
                f"canonical form of order {n} needs more than "
                f"{CANON_NODE_BUDGET} search nodes"
            )
        if p == n:
            if tight:
                return False
            best = vec[:]
            return True
        placed = assigned[:p]
        low = None
        ties = []
        for cls, row in slot_classes[p]:
            if not cls:
                continue
            col = [row[a] for a in placed]
            if low is None or col < low:
                low, ties = col, [cls]
            elif col == low:
                ties.append(cls)
        end = pos + p
        if tight:
            head = best[pos:end]
            if low > head:
                return False
            tight = low == head
        vec[pos:end] = low
        changed = False
        for cls in ties:
            v = cls.pop()
            assigned[p] = v
            if search(p + 1, end, tight):
                changed = tight = True
            cls.append(v)
        return changed

    try:
        search(0, 0, False)
    except RecursionError:
        raise CapExceededError(
            f"canonical form of order {n} is deeper than the interpreter's stack"
        ) from None
    return f"{n}|".encode() + ",".join(map(str, best)).encode()


@lru_cache(maxsize=65536)
def _canon_cached(order: int, edges: tuple[Edge, ...]) -> bytes:
    return _canonical_search(order, edges)


def canonical_form(g: PlfGraph) -> bytes:
    """Isomorphism-complete encoding of g, searched once per distinct
    (order, edges) and cached.

    Any order is accepted.  The search branches on twin classes, one
    column and one placement per class, so edgeless, complete and
    complete bipartite graphs take a linear number of nodes.  Graphs
    without twins such as long cycles still grow exponentially, so a
    search that visits more than CANON_NODE_BUDGET nodes, or one deeper
    than the interpreter's stack, raises CapExceededError; an order at
    or above the recursion limit is refused before any search work.  A
    failed search is not cached.
    """
    return _canon_cached(g.order, g.edges)


def is_isomorphic(g: PlfGraph, h: PlfGraph) -> bool:
    """Order, size and sorted degrees first; pairs that agree on all
    three are compared by canonical form up to order ISO_ORDER_CAP and
    refused with CapExceededError above it."""
    if g.order != h.order or g.size != h.size:
        return False
    if sorted(degree_profile(g).total) != sorted(degree_profile(h).total):
        return False
    if g.order > ISO_ORDER_CAP:
        raise CapExceededError(
            f"canonical form of order {g.order} exceeds cap {ISO_ORDER_CAP}"
        )
    return canonical_form(g) == canonical_form(h)


ENUMERATION_CAP = 6


def enumerate_simple_graphs(n: int, cap: int = ENUMERATION_CAP):
    """All 2^C(n,2) labeled simple graphs of order exactly n, in mask order.

    Isomorphic duplicates are included on purpose: theorem sweeps
    quantify over PLF layouts, not isomorphism classes.
    """
    if n > cap:
        raise CapExceededError(
            f"exhaustive enumeration of order {n} exceeds cap {cap}"
        )
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        edges = tuple(slots[k] for k in range(len(slots)) if mask >> k & 1)
        yield PlfGraph(n, edges)

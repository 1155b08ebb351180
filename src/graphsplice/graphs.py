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
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple

from .errors import CapExceededError, InvalidGraphError, InvalidOrderingError

# nodes one canonical-form search may visit before it gives up
CANON_NODE_BUDGET = 1_000_000

Edge = tuple[int, int]

# the text of each one-digit multiplicity, for writing canonical keys
_DIGITS = tuple(map(str, range(10)))


class _PlfGraphFields(NamedTuple):
    order: int
    edges: tuple[Edge, ...]


class PlfGraph(_PlfGraphFields):
    """Immutable multigraph on positions 1..order.

    A graph is the tuple (order, edges), and it equals and hashes as
    that tuple.  Edges are normalized on construction: each pair is
    flipped to (min, max) and the whole tuple is sorted, so two equal
    graphs always compare and hash equal.  splicing.join builds its
    products already in that form and skips these checks.
    """

    __slots__ = ()

    def __new__(cls, order: int, edges=()):
        try:
            order = operator.index(order)
        except TypeError:
            raise InvalidGraphError(
                f"order must be an integer, got {order!r}"
            ) from None
        if order < 0:
            raise InvalidGraphError(f"order must be non-negative, got {order}")
        norm = []
        for e in edges:
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
            if not (1 <= u and v <= order):
                raise InvalidGraphError(
                    f"edge ({u},{v}) falls outside positions 1..{order}"
                )
            norm.append((u, v))
        norm.sort()
        return tuple.__new__(cls, (order, tuple(norm)))

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


class DegreeProfile(NamedTuple):
    """Left/right degree split of every position: left[v-1] counts the
    edges that end at v, right[v-1] those that start there."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def total(self) -> tuple[int, ...]:
        """Each position's degree, ld(v) + rd(v)."""
        return tuple(l + r for l, r in zip(self.left, self.right))

    @property
    def gap_powers(self) -> tuple[int, ...]:
        """gap_powers[i], for i = 0..n, counts the edges over the gap
        between positions i and i+1: the sum over v <= i of rd(v) - ld(v),
        since an edge starts where it adds to rd and ends where it adds
        to ld.  Both ends are 0.  Splitting vertex i severs
        gap_powers[i-1] - ld(i) edges, those over gap i-1|i that do not
        end at i."""
        return (0, *accumulate(r - l for l, r in zip(self.left, self.right)))


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


def double_edge() -> PlfGraph:
    """Two parallel edges between 1 and 2, the smallest non-simple graph."""
    return PlfGraph(2, ((1, 2), (1, 2)))


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


def degrees(n: int, edges, ends=()) -> list[int]:
    """Degrees of positions 0..n (0 unused) over edges and loose ends,
    counted from the lists alone, apart from degree_profile."""
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for a in ends:
        deg[a] += 1
    return deg


def is_regular(g: PlfGraph) -> int | None:
    """The common degree when every vertex has one, else None.

    Degree-0 regularity returns 0, so callers must test `is not None`
    rather than truthiness.
    """
    if g.order == 0:
        return 0
    deg = degrees(g.order, g.edges)
    # deg[0] is an unused slot, which a 0-regular graph's degree would match
    want = deg[1]
    return want if deg[1:].count(want) == g.order else None


def is_simple(g: PlfGraph) -> bool:
    return len(set(g.edges)) == len(g.edges)


def _canonical_search(order: int, edges) -> bytes:
    """Isomorphism-complete key of a graph: the upper-triangle
    multiplicity vector of its canonical layout, column by column (for
    each position p the entries (1,p), (2,p), ..., (p-1,p)).

    The layout comes from one individualization-refinement search
    (McKay & Piperno, "Practical graph isomorphism, II", 2014).  A node
    is an ordered partition of the vertices, held as a `lab` array of
    vertices plus the start and end of each cell.  The root starts from
    the cells of equal degree, sorted by non-increasing degree; every
    node is refined to the coarsest equitable partition below it (colour
    refinement, with a queue of splitter cells): each cell whose members
    count different numbers of edges into a splitter is split, in order
    of increasing count.  A node whose non-singleton cells are each one
    twin class (vertices whose multiplicity rows agree outside the pair,
    so any order of them gives the same vector) is a leaf; a node whose
    partition is discrete is one without a scan of its cells, and only a
    discrete root gives the key without entering the search.  Any other
    node individualizes each vertex of its first cell that is not one
    twin class in turn, as a singleton cell in front of the rest, and
    refines again.

    The refinement trace records every split and individualization as
    positions and counts, so it does not depend on vertex names.
    Leaves compare by (trace, vector), and the key is the vector of the
    smallest leaf.  Three rules prune the tree without changing that
    minimum:

    - One child per twin class: swapping two twins is an automorphism.
    - One child per orbit of the automorphisms found so far that fix the
      node's individualized vertices.  A leaf equal to the best leaf
      gives such an automorphism, which maps the subtree the best leaf
      lies in onto the new leaf's, so the search returns to the two
      leaves' deepest common ancestor at once.
    - A node whose trace exceeds the best leaf's trace is dropped: every
      leaf below it has a larger trace.

    The search visits at most CANON_NODE_BUDGET nodes and recurses once
    per individualized vertex; past the budget or the interpreter's
    recursion limit it raises CapExceededError, an order at or above the
    limit before it builds anything.
    """
    n = order
    if n >= sys.getrecursionlimit():
        raise CapExceededError(
            f"canonical form of order {n} is deeper than the interpreter's stack"
        )
    if n < 2:
        return f"{n}|".encode()
    mult = [[0] * n for _ in range(n)]
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        u -= 1
        v -= 1
        mult[u][v] += 1
        mult[v][u] += 1
        adj[u].append(v)
        adj[v].append(u)
    tally = [0] * n  # scratch: edges from a splitter of several vertices

    def split(lab, cell, end, c, e, members, count, trace):
        """Split the cell lab[c:e], whose vertices are members, into runs
        of equal count in order of increasing count: sorts members in
        place, appends one event to trace and returns the new starts."""
        members.sort(key=count.__getitem__)
        lab[c:e] = members
        event = [c]
        starts = []
        start, last = c, count[members[0]]
        for i in range(c + 1, e):
            w = members[i - c]
            if count[w] != last:
                event += (last, i)
                end[start] = i
                starts.append(start)
                start, last = i, count[w]
            cell[w] = start
        event += (last, e)
        end[start] = e
        starts.append(start)
        trace.append(tuple(event))
        return starts

    def refine(lab, cell, end, queue, cells, trace):
        """Refine the partition in place until it is equitable (or
        discrete), splitting against the cells in queue; returns the new
        number of cells and appends one event per split to trace."""
        queued = [False] * n
        for s in queue:
            queued[s] = True
        for s in queue:  # the loop sees the starts appended below
            if cells == n:
                break
            queued[s] = False
            e = end[s]
            if e - s == 1:
                # a singleton's counts are its multiplicity row
                count = mult[lab[s]]
                counted = adj[lab[s]]
            else:
                count = tally
                counted = []
                for v in lab[s:e]:
                    counted += adj[v]
                for w in counted:
                    count[w] += 1
            for c in sorted({cell[w] for w in counted}):
                e = end[c]
                if e - c == 1:
                    continue
                if e - c == 2:
                    # split's result for two singletons: either may
                    # stay out of the queue, so the second goes in
                    a, b = lab[c], lab[c + 1]
                    x, y = count[a], count[b]
                    if x == y:
                        continue
                    if x > y:
                        lab[c], lab[c + 1] = b, a
                        a, b, x, y = b, a, y, x
                    cell[b] = c + 1
                    end[c] = c + 1
                    end[c + 1] = e
                    trace.append((c, x, c + 1, y, e))
                    cells += 1
                    queued[c + 1] = True
                    queue.append(c + 1)
                    continue
                members = lab[c:e]
                x = count[members[0]]
                for w in members:
                    if count[w] != x:
                        break
                else:
                    continue  # every member counts the same
                starts = split(lab, cell, end, c, e, members, count, trace)
                cells += len(starts) - 1
                if queued[c]:
                    fresh = starts[1:]
                else:
                    # the counts into the largest fragment follow from
                    # those into the old cell and the other fragments
                    sizes = [end[x] - x for x in starts]
                    del starts[sizes.index(max(sizes))]
                    fresh = starts
                for x in fresh:
                    queued[x] = True
                queue += fresh
            if count is tally:
                for w in counted:
                    tally[w] = 0
        return cells

    def leaf_vector(lab):
        """The upper triangle of the matrix in lab order, column by column."""
        pick = operator.itemgetter(*lab)
        vector = []
        for p in range(1, n):
            vector += pick(mult[lab[p]])[:p]
        return vector

    def encode(vec):
        """The key: the order, then the vector in decimal."""
        try:
            text = ",".join([_DIGITS[x] for x in vec])
        except IndexError:  # a multiplicity of two digits or more
            text = ",".join(map(str, vec))
        return f"{n}|{text}".encode()

    # the root: cells of equal degree, highest degree first (a stable
    # sort on minus the degree); its split is no event of the trace
    lab = list(range(n))
    cell = [0] * n
    end = [0] * n
    starts = split(lab, cell, end, 0, n, lab[:], [-len(a) for a in adj], [])
    cells = len(starts)
    # the degree partition is already equitable against the whole vertex
    # set, so one cell may stay out of the queue
    sizes = [end[x] - x for x in starts]
    del starts[sizes.index(max(sizes))]
    trace: list = []
    cells = refine(lab, cell, end, starts, cells, trace)
    if cells == n:
        return encode(leaf_vector(lab))

    def twins(u, v):
        """Whether the rows of u and v agree outside the pair."""
        row_u, row_v = mult[u], mult[v]
        m = row_u[v]
        row_u[u] = row_v[v] = m
        same = row_u == row_v
        row_u[u] = row_v[v] = 0
        return same

    # twin classes, as the first member of each; twins share a cell of
    # every equitable partition until one of them is individualized.  An
    # adjacent twin is found among the neighbours, a non-adjacent one by
    # an equal row.
    twin = list(range(n))
    rows = {}
    for v in range(n):
        c = cell[v]
        if end[c] - c > 1:
            for w in adj[v]:
                if w < v and cell[w] == c and twins(v, w):
                    twin[v] = twin[w]
                    break
            else:
                twin[v] = rows.setdefault(tuple(mult[v]), v)

    def target_cell(lab, end):
        """Start of the first cell that is not one twin class, or -1."""
        c = 0
        while c < n:
            e = end[c]
            if e - c > 1:
                t = twin[lab[c]]
                for i in range(c + 1, e):
                    if twin[lab[i]] != t:
                        return c
            c = e
        return -1

    best = None  # (trace, vector, lab, individualized)
    autos = []  # automorphisms found, each as a list v -> image
    nodes = 0

    def search(lab, cell, end, cells, trace, fixed):
        """Explore the node; return the depth to unwind to, n when
        the search goes on with this node's parent."""
        nonlocal best, nodes
        nodes += 1
        if nodes > CANON_NODE_BUDGET:
            raise CapExceededError(
                f"canonical form of order {n} needs more than "
                f"{CANON_NODE_BUDGET} search nodes"
            )
        if best is not None and trace > best[0][: len(trace)]:
            return n
        c = -1 if cells == n else target_cell(lab, end)
        if c < 0:
            vec = leaf_vector(lab)
            if best is None:
                best = (trace, vec, lab, fixed)
                return n
            if best[0] == trace and best[1] == vec:
                image = list(range(n))
                for v, w in zip(best[2], lab):
                    image[v] = w
                autos.append(image)
                depth = 0
                for a, b in zip(best[3], fixed):
                    if a != b:
                        break
                    depth += 1
                return depth
            if (trace, vec) < best[:2]:
                best = (trace, vec, lab, fixed)
            return n
        e = end[c]
        members = lab[c:e]
        level = len(fixed)

        def find(w):
            while root[w] != w:
                root[w] = root[root[w]]
                w = root[w]
            return w

        known = -1
        tried = []
        for v in members:
            if known != len(autos):
                # orbits of the cell under the twin swaps and the
                # automorphisms found so far that fix `fixed`
                known = len(autos)
                root = twin[:]
                for image in autos:
                    if all(image[x] == x for x in fixed):
                        for w in members:
                            a, b = find(w), find(image[w])
                            if a != b:
                                root[max(a, b)] = min(a, b)
                orbits = {find(w) for w in tried}
            o = find(v)
            if o in orbits:
                continue
            orbits.add(o)
            tried.append(v)
            child = lab[:]
            i = child.index(v, c, e)
            child[i] = child[c]
            child[c] = v
            child_cell = cell[:]
            child_end = end[:]
            child_end[c] = c + 1
            child_end[c + 1] = e
            for w in child[c + 1 : e]:
                child_cell[w] = c + 1
            child_trace = trace + [(-1, c)]
            child_cells = refine(
                child, child_cell, child_end, [c], cells + 1, child_trace
            )
            depth = search(
                child, child_cell, child_end, child_cells, child_trace,
                fixed + [v],
            )
            if depth < level:
                return depth
        return n

    try:
        search(lab, cell, end, cells, trace, [])
    except RecursionError:
        raise CapExceededError(
            f"canonical form of order {n} is deeper than the interpreter's stack"
        ) from None
    finally:
        # search holds itself through its cell: free the working set now
        del search
    return encode(best[1])


@lru_cache(maxsize=65536)
def _canon_cached(order: int, edges: tuple[Edge, ...]) -> bytes:
    return _canonical_search(order, edges)


def canonical_form(g: PlfGraph) -> bytes:
    """Isomorphism-complete encoding of g, searched once per distinct
    (order, edges) and cached.

    Any order is accepted.  Colour refinement settles most vertices
    before the search branches, and the branches are cut by twin classes
    and by the automorphisms found on the way: cycles took at most a
    dozen search nodes in every layout measured, unions of cycles of
    order up to 16 a few dozen, and complete, complete bipartite and
    edgeless graphs take one to three.  A search that visits more than
    CANON_NODE_BUDGET nodes, or one deeper than the interpreter's stack,
    raises CapExceededError; an order at or above the recursion limit is
    refused before any search work.  A failed search is not cached.
    """
    return _canon_cached(g.order, g.edges)


def is_isomorphic(g: PlfGraph, h: PlfGraph) -> bool:
    """Order, size and sorted degrees first; pairs that agree on all
    three are compared by canonical form.

    The degrees are those of the vertices that have edges, counted from
    the edge lists: with the orders equal, that is the whole degree
    sequence, and the test costs the size, not the order, so a graph of
    huge order and no edges reaches canonical_form's refusal at once.
    """
    if g.order != h.order or g.size != h.size:
        return False
    if (sorted(Counter(v for e in g.edges for v in e).values())
            != sorted(Counter(v for e in h.edges for v in e).values())):
        return False
    return canonical_form(g) == canonical_form(h)


ENUMERATION_CAP = 6


def enumerate_simple_graphs(n: int):
    """All 2^C(n,2) labeled simple graphs of order exactly n, in mask order.

    Isomorphic duplicates are included on purpose: theorem sweeps
    quantify over PLF layouts, not isomorphism classes.
    """
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"exhaustive enumeration of order {n} exceeds cap {ENUMERATION_CAP}"
        )
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        edges = tuple(slots[k] for k in range(len(slots)) if mask >> k & 1)
        yield PlfGraph(n, edges)

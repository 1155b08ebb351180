"""Splicing rules and the welding of cut fragments.

A splicing rule (c1, c2) cuts the first graph by c1 and the second by c2,
once each, then rejoins the four fragments crosswise: the first
direction keeps Prefix(G) and Suffix(H), the second keeps Prefix(H) and
Suffix(G).  The cuts weld only when their shapes (CutResult.shape) are
equal.  With m hanging edges per fragment there are m! bijections per
direction, hence 2(m!) products, every one of which sigma_pair emits
with its provenance.  join is the one weld: it builds the m! products
of one (prefix, suffix) pair, or with representatives=True the first
product of each orbit of bijections under the swaps of
_fragment_moves, and directions lists the pairs of two cuts.  The
closure asks for representatives; sigma_pair and the law sweeps build
all m! products.  join reads nothing of a fragment but its fields, so
a fragment is its own join key: the closure, the product-law sweep and
the regularity report run it once per distinct (prefix, suffix) pair,
and the isomorphic-operand sweep once per same-rule pair within each
isomorphism class.  file_cut is the one filing function of the
closure's and the law sweeps' fragment indexes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from operator import itemgetter

from .cutting import CutResult, CuttingRule, Fragment, as_rule, cut
from .errors import CapExceededError, JoinError, NotApplicableError
from .graphs import PlfGraph

# largest power join welds: a splice makes 2(m!) products, so each step
# up multiplies time and memory by about m; two power-8 stars give 80,640
# products through sigma_pair in 0.4 s and a 94 MB peak RSS (2-core
# machine, Python 3.11).  The closure builds one product per orbit of
# bijections, but finding the orbits visits all m! bijections once per
# move pattern, so the cap bounds that too: 0.35 s for a power-8 pair
# whose hanging edges all sit at one anchor or at twin anchors, on the
# same machine
SPLICE_POWER_CAP = 8


@dataclass(frozen=True)
class SplicingRule:
    """A pair of cutting rules, the first for the first graph."""

    first: CuttingRule
    second: CuttingRule

    def __str__(self) -> str:
        return f"({self.first},{self.second})"


def make_rule(c1, c2) -> SplicingRule:
    return SplicingRule(as_rule(c1), as_rule(c2))


@dataclass(frozen=True)
class SpliceProduct:
    """One splicing outcome, with enough provenance to rebuild it."""

    graph: PlfGraph
    direction: int  # 1: Prefix(g)+Suffix(h); 2: Prefix(h)+Suffix(g)
    bijection: tuple[int, ...]  # prefix hanging edge t welds to suffix r[t]
    rule: SplicingRule


def join(prefix: Fragment, suffix: Fragment, *,
         representatives: bool = False) -> list[PlfGraph]:
    """Weld a prefix fragment to a suffix fragment under every bijection
    of their hanging edges, in lexicographic order.

    Prefix positions keep their names; suffix positions are renumbered to
    follow them consecutively; half-vertices (when present on both sides)
    merge into the prefix's last position.  Under bijection r, hanging
    edge t of the prefix fuses with hanging edge r[t] of the suffix into
    a single new edge between their anchors.  A power above
    SPLICE_POWER_CAP raises CapExceededError before any product is built
    and before any orbit is sought.

    With representatives=True only the first bijection of each orbit
    (_orbit_representatives) is welded, still in lexicographic order.
    Every product of an orbit is isomorphic to its first, so the first
    product of each isomorphism class is always built.
    """
    kind, _, end, prefix_intact, left, half = prefix
    suffix_kind, start, last, suffix_intact, suffix_hanging, suffix_half = suffix
    m = len(left)
    if m > SPLICE_POWER_CAP:
        raise CapExceededError(f"splice power {m} exceeds cap {SPLICE_POWER_CAP}")
    if kind != "prefix" or suffix_kind != "suffix":
        raise JoinError(f"need a prefix and a suffix, got {kind} and {suffix_kind}")
    if (half is None) != (suffix_half is None):
        raise JoinError("half-vertex present on only one side")
    if len(suffix_hanging) != m:
        raise JoinError(f"hanging-edge counts differ: {m} vs {len(suffix_hanging)}")
    offset = end - start + (half is None)
    order = last + offset
    intact = [*prefix_intact, *[(u + offset, v + offset) for u, v in suffix_intact]]
    ends = [()]  # the one bijection of no edges
    if m:
        right = [a + offset for a in suffix_hanging]
        # permutations of right, like those of range(m), come in index order
        ends = permutations(right)
        if representatives and m > 1:
            pre, suf = _fragment_moves(prefix), _fragment_moves(suffix)
            if pre or suf:
                ends = ([right[i] for i in r]
                        for r in _orbit_representatives(m, pre, suf))
    # The products skip PlfGraph's validation, which is sound because
    # every edge already has 1 <= u < v <= order: intact comes from
    # validated graphs (suffix edges shift by the same offset as the
    # suffix's own positions), every prefix anchor is at most end, and
    # every shifted suffix anchor is above it.  Sorting is the one
    # normalization left (hand-made fragments may be unsorted).  This is
    # the one place a PlfGraph is built unvalidated: its fields live in
    # the instance dict, as for any dataclass without slots, and writing
    # that dict skips the frozen __setattr__.
    products = []
    for e in ends:
        edges = [*intact, *zip(left, e)] if m else intact
        edges.sort()
        g = object.__new__(PlfGraph)
        g.__dict__["order"], g.__dict__["edges"] = order, tuple(edges)
        products.append(g)
    return products


def _swap(m: int, pairs) -> tuple[int, ...]:
    """The permutation of range(m) that swaps each pair (t, u)."""
    p = list(range(m))
    for t, u in pairs:
        p[t], p[u] = u, t
    return tuple(p)


@lru_cache(maxsize=4096)
def _fragment_moves(fragment: Fragment) -> tuple[tuple[int, ...], ...]:
    """Swaps of hanging-edge indices that an automorphism of the fragment
    makes, the fragment read as its retained positions, its intact edges
    and one pendant stub per hanging edge:

    - two hanging edges at one anchor, which weld to the same edges;
    - two twin anchors with their hanging edges, the i-th at one paired
      with the i-th at the other.  Twins have rows (multiplicity to each
      retained position, and stub count) that agree outside the pair, so
      exchanging them fixes the fragment.

    No hanging edge is anchored at the half-vertex, so every move fixes
    it.  Twinship is transitive, so swaps of neighbours within each twin
    class, like those within each anchor, generate every such exchange.
    A rigid fragment has no move.  Cached, because the closure joins
    each fragment to many partners.
    """
    m = len(fragment.hanging)
    at: dict[int, list[int]] = {}
    for t, a in enumerate(fragment.hanging):
        at.setdefault(a, []).append(t)
    moves = [_swap(m, [(t, u)])
             for ts in at.values() for t, u in zip(ts, ts[1:])]
    mult = Counter()
    for u, v in fragment.intact:
        mult[u, v] += 1
        mult[v, u] += 1
    twins: list[list[int]] = []
    for a in at:
        for cls in twins:
            b = cls[0]
            if len(at[a]) == len(at[b]) and all(
                    mult[a, z] == mult[b, z]
                    for z in fragment.retained if z != a and z != b):
                cls.append(a)
                break
        else:
            twins.append([a])
    moves.extend(_swap(m, zip(at[a], at[b]))
                 for cls in twins for a, b in zip(cls, cls[1:]))
    return tuple(moves)


@lru_cache(maxsize=256)
def _orbit_representatives(m: int, prefix_moves: tuple,
                           suffix_moves: tuple) -> tuple[tuple[int, ...], ...]:
    """The first bijection of each orbit of the m! bijections, all in
    lexicographic order.

    A prefix move p maps bijection r to r∘p and a suffix move q maps it
    to q∘r: an automorphism of the prefix that permutes its hanging edges
    by p carries the product of r onto the product of r∘p⁻¹, and one of
    the suffix that permutes them by q carries it onto the product of
    q∘r, so an orbit's products are isomorphic (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).  Each move is an
    involution, so no inverse is needed.  Each orbit is flooded from its
    first bijection.  Cached per move pattern; join checks the power
    cap first, so m is at most SPLICE_POWER_CAP here.
    """
    # b∘p is b read at p's positions; q∘b is q read at b's
    prefix_getters = [itemgetter(*p) for p in prefix_moves]
    suffix_getters = [q.__getitem__ for q in suffix_moves]
    seen: set[tuple[int, ...]] = set()
    reps = []
    for r in permutations(range(m)):
        if r in seen:
            continue
        reps.append(r)
        seen.add(r)
        todo = [r]
        while todo:
            b = todo.pop()
            images = [g(b) for g in prefix_getters]
            images += [tuple(map(q, b)) for q in suffix_getters]
            for c in images:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
    return tuple(reps)


def directions(cg: CutResult, ch: CutResult) -> tuple:
    """(direction, prefix, suffix) for each way two cuts weld: none when
    their shapes differ, else direction 1 with Prefix(G) and Suffix(H),
    then direction 2 with Prefix(H) and Suffix(G)."""
    if cg.shape != ch.shape:
        return ()
    return ((1, cg.prefix, ch.suffix), (2, ch.prefix, cg.suffix))


@dataclass(slots=True)
class _Group:
    """The cuts filed under one fragment: rep is the first such cut and
    rows the row of every cut filed, in filing order, so rows[0] is
    rep's row and len(rows) the number of cuts."""

    rep: CutResult
    rows: list


def file_cut(index: dict, cg: CutResult, row: int) -> None:
    """File cg in a fragment index {shape: ({prefix: group},
    {suffix: group})}, once under its prefix and once under its suffix.

    This is the filing rule of the closure and the law sweeps.  A cut is
    filed under its shape (CutResult.shape), because two cuts weld only
    when their shapes are equal, so the groups of one shape weld to each
    other and to no other shape's.  Within a side it is filed under its
    fragment: a fragment is all join reads, so every product depends on
    its (prefix, suffix) pair alone and a caller joins each pair once,
    weighted by the groups' row counts; and a fragment fixes the source
    degrees of its retained positions (its intact edges plus its
    anchors), so its first cut stands for all of them.  Shapes and
    groups keep filing order, and a group keeps its first cut: filed
    again, a fragment only appends the row to its group's rows.
    """
    shape = cg.shape
    sides = index.get(shape)
    if sides is None:
        sides = index[shape] = ({}, {})
    for groups, fragment in zip(sides, (cg.prefix, cg.suffix)):
        group = groups.get(fragment)
        if group is None:
            groups[fragment] = _Group(cg, [row])
        else:
            group.rows.append(row)


def sigma_pair(g: PlfGraph, h: PlfGraph, s: SplicingRule) -> list[SpliceProduct]:
    """Cut g by s.first and h by s.second and weld both directions.

    Returns 2(m!) products in direction-then-bijection order, the
    bijections in lexicographic order on the hanging tuples, which follow
    ecut; m = 0 yields one product per direction (a disjoint union, or a
    one-point amalgamation when the cuts split vertices).  Cuts of
    different shapes raise NotApplicableError; a power above
    SPLICE_POWER_CAP raises CapExceededError before any bijection is
    listed.
    """
    cg = cut(g, s.first)
    ch = cut(h, s.second)
    if cg.power != ch.power:
        raise NotApplicableError(f"rule {s} on this pair: severed-edge counts "
                                 f"differ: {cg.power} vs {ch.power}")
    if cg.shape != ch.shape:
        raise NotApplicableError(f"rule {s} on this pair: one cut splits a "
                                 "vertex, the other does not")
    return [SpliceProduct(p, direction, r, s)
            for direction, pre, suf in directions(cg, ch)
            for p, r in zip(join(pre, suf), permutations(range(cg.power)))]

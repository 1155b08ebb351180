"""Cutting rules and the cut scheme.

A rule [i,j] with j = i+1 severs every edge crossing the gap between
positions i and i+1.  A reflexive rule [i,i] splits vertex i into two
half-vertices and severs every edge spanning over it; edges incident to
i are never severed, they travel with whichever half keeps their other
endpoint's side.  Cutting yields a prefix fragment and a suffix fragment,
each holding the anchors of the severed edges it keeps a half of.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import CapExceededError, InvalidRuleError
from .graphs import Edge, PlfGraph, degree_profile

# largest order the power formulas read: degree_profile holds lists as
# long as the order, so `graphsplice cut` on an edgeless graph of this
# order takes 0.25 s and 55 MB (2-core machine, Python 3.11)
FORMULA_ORDER_CAP = 10**6


class _CuttingRuleFields(NamedTuple):
    i: int
    j: int


class CuttingRule(_CuttingRuleFields):
    """Position pair [i,j] with i <= j <= i+1; reflexive when i = j.
    A rule equals and hashes as the tuple (i, j)."""

    __slots__ = ()

    def __new__(cls, i: int, j: int):
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise InvalidRuleError(
                f"rule positions must be integers, got {i!r} and {j!r}"
            ) from None
        if i < 1:
            raise InvalidRuleError(f"rule [{i},{j}]: i must be positive")
        if not i <= j <= i + 1:
            raise InvalidRuleError(f"rule [{i},{j}]: j must equal i or i+1")
        return tuple.__new__(cls, (i, j))

    @property
    def reflexive(self) -> bool:
        return self.i == self.j

    def fits(self, g: PlfGraph) -> bool:
        return self.j <= g.order

    def check_valid_for(self, g: PlfGraph) -> None:
        if not self.fits(g):
            raise InvalidRuleError(
                f"rule [{self.i},{self.j}] is out of range for order {g.order}"
            )

    def __str__(self) -> str:
        return f"[{self.i},{self.j}]"


def as_rule(rule) -> CuttingRule:
    """Accept a CuttingRule or a bare (i, j) pair."""
    if isinstance(rule, CuttingRule):
        return rule
    i, j = rule
    return CuttingRule(i, j)


def valid_rules(g: PlfGraph, include_reflexive: bool = True):
    """Every rule applicable to g: n-1 gap rules, then n splitting rules."""
    rules = [CuttingRule(i, i + 1) for i in range(1, g.order)]
    if include_reflexive:
        rules.extend(CuttingRule(i, i) for i in range(1, g.order + 1))
    return rules


class Fragment(NamedTuple):
    """One side of a cut graph, still in the source graph's labels.

    Retains positions start..end (for a reflexive cut both fragments
    retain the split position, as half_vertex).  hanging holds the
    anchor of each severed edge, the endpoint that stayed, in the order
    of CutResult.ecut: the prefix keeps u of (u, v), the suffix keeps v.
    No hanging edge is ever anchored at half_vertex.  These fields are
    all join reads, so a fragment is its own join key: two prefixes (or
    two suffixes) that compare equal join every partner alike.
    """

    kind: str  # "prefix" or "suffix"
    start: int
    end: int
    intact: tuple[Edge, ...]
    hanging: tuple[int, ...]
    half_vertex: int | None = None

    @property
    def retained(self) -> range:
        return range(self.start, self.end + 1)

    def __str__(self) -> str:
        verts = ",".join(str(v) for v in self.retained)
        if self.half_vertex is not None:
            # the bracket marks the half-vertex, the prefix's last
            # position and the suffix's first
            verts = f"{verts}]" if self.kind == "prefix" else f"[{verts}"
        edges = ", ".join(f"({u},{v})" for u, v in self.intact)
        anchors = ",".join(str(a) for a in self.hanging)
        return f"{self.kind}{{{verts}}} edges {{{edges}}} hanging at {{{anchors}}}"


class CutResult(NamedTuple):
    """Everything one rule application produces."""

    graph: PlfGraph
    rule: CuttingRule
    prefix: Fragment
    suffix: Fragment
    ecut: tuple[Edge, ...]
    vcut: int | None

    @property
    def power(self) -> int:
        return len(self.ecut)

    @property
    def shape(self) -> tuple[int, bool]:
        """(power, vcut is None).  Two cuts weld only when their shapes
        are equal: they sever as many edges, and both split a vertex or
        neither does."""
        return len(self.ecut), self.vcut is None


def cut(g: PlfGraph, rule) -> CutResult:
    """Apply one cutting rule, producing both fragments.

    ecut lists the severed edges in edge order, parallel copies side by
    side, and both hanging tuples follow it, which downstream joining
    relies on for reproducible bijections.
    """
    rule = as_rule(rule)
    rule.check_valid_for(g)
    i = rule.i
    reflexive = rule.reflexive
    # an edge (u, v) with v > i is severed when u <= last: a gap rule
    # severs the edges over gap i|i+1, a splitting rule those over i
    last = i - reflexive
    pre_intact: list[Edge] = []
    suf_intact: list[Edge] = []
    severed: list[Edge] = []
    # the fragments share g's edge tuples, so a cut held for later
    # (verify_all keeps every cut of its corpus) adds no edge of its own
    for e in g.edges:
        if e[1] <= i:
            pre_intact.append(e)
        elif e[0] <= last:
            severed.append(e)
        else:
            suf_intact.append(e)
    half = i if reflexive else None
    prefix = Fragment("prefix", 1, i, tuple(pre_intact),
                      tuple(u for u, _ in severed), half)
    suffix = Fragment(
        "suffix", i if reflexive else i + 1, g.order,
        tuple(suf_intact), tuple(v for _, v in severed), half,
    )
    return CutResult(g, rule, prefix, suffix, tuple(severed), half)


def power_by_formula(g: PlfGraph, rule, side: str = "left") -> int:
    """Severed-edge count of a gap rule from degree bookkeeping alone.

    side "left" reads the sum over v <= i of rd(v) - ld(v) from
    DegreeProfile.gap_powers; side "right" evaluates the mirror image,
    the sum over v >= j of ld(v) - rd(v).  Only defined for
    non-reflexive rules (the derivation splits on the gap edge (i,j),
    which a splitting rule does not have).  An order above
    FORMULA_ORDER_CAP raises CapExceededError before degree_profile is
    built.
    """
    rule = as_rule(rule)
    rule.check_valid_for(g)
    if rule.reflexive:
        raise InvalidRuleError(
            f"rule {rule} is reflexive; the degree formula covers gap rules only"
        )
    if g.order > FORMULA_ORDER_CAP:
        raise CapExceededError(f"order {g.order} exceeds the power-formula "
                               f"cap {FORMULA_ORDER_CAP}")
    prof = degree_profile(g)
    if side == "left":
        return prof.gap_powers[rule.i]
    if side == "right":
        return sum(prof.left[rule.j - 1:]) - sum(prof.right[rule.j - 1:])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")

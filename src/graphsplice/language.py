"""Splicing systems and the bounded iterated language.

The language of a system is the closure of its axioms under splicing,
with every graph treated as available in unlimited supply.  That closure
is infinite in general, so the computation is bounded two ways: graphs
above max_order are recorded but never fed back in, and iteration stops
at max_iterations even without a fixpoint.  Classes are isomorphism
classes, keyed by canonical form.

The closure is evaluated semi-naively over a fragment index.  Each
in-cap class becomes a row of the index in the iteration after it
appears: it is cut once per distinct cutting rule, and each cut is filed
in its cutting rule's column by splicing.file_cut, which states the
filing rule.  An iteration joins only the fragment pairs of one shape in
which a new row filed at least one fragment first: a hash join of the
new fragments against all fragments (Bancilhon & Ramakrishnan, SIGMOD
1986).  Each fragment pair is thus joined once per run, in the order
that _Splicer.step states.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

from . import splicing
from .cutting import CuttingRule, cut
from .errors import SystemDefinitionError
from .graphs import PlfGraph, canonical_form, is_simple
from .splicing import SplicingRule, file_cut

DEFAULT_MAX_ITERATIONS = 4
DEFAULT_MAX_ORDER = 8


def check_axiom(g: PlfGraph) -> None:
    """Axioms must be simple graphs."""
    if not is_simple(g):
        raise SystemDefinitionError(
            f"axiom {g} has a repeated edge; axioms must be simple"
        )


@dataclass(frozen=True)
class SplicingSystem:
    axioms: tuple[PlfGraph, ...]
    rules: tuple[SplicingRule, ...]

    def __post_init__(self):
        object.__setattr__(self, "axioms", tuple(self.axioms))
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.axioms:
            raise SystemDefinitionError("a system needs at least one axiom")
        if not self.rules:
            raise SystemDefinitionError("a system needs at least one rule")
        for g in self.axioms:
            check_axiom(g)


@dataclass(frozen=True)
class LanguageConfig:
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    max_order: int = DEFAULT_MAX_ORDER

    def __post_init__(self):
        for name in ("max_iterations", "max_order"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise SystemDefinitionError(
                    f"{name} must be an integer, got {value!r}"
                ) from None
        if self.max_iterations < 0:
            raise SystemDefinitionError("max_iterations must be >= 0")
        if self.max_order < 1:
            raise SystemDefinitionError("max_order must be >= 1")

    def check_fits(self, system: SplicingSystem) -> None:
        biggest = max(g.order for g in system.axioms)
        if biggest > self.max_order:
            raise SystemDefinitionError(
                f"max_order {self.max_order} is below the largest axiom "
                f"order {biggest}"
            )


class ClassInfo(NamedTuple):
    """One discovered isomorphism class."""

    representative: PlfGraph
    iteration: int  # first iteration at which the class appeared


@dataclass(frozen=True)
class IterationTrace:
    iteration: int
    raw_products: int
    new_classes: int
    new_overcap: int  # of the new classes, how many exceed max_order
    # products actually built: one per orbit of bijections (splicing.join
    # with representatives) of each fragment pair joined; every other
    # product is isomorphic to one built or was built at an earlier step
    joins: int


@dataclass(frozen=True)
class LanguageResult:
    classes: dict[bytes, ClassInfo]
    trace: tuple[IterationTrace, ...]
    saturated: bool

    def __len__(self) -> int:
        return len(self.classes)


class _Splicer:
    """The fragment index of one closure run.

    Each added graph becomes the next row and is cut once per distinct
    cutting rule that fits its order; columns are keyed by cutting rule,
    in first-seen order, and each is a splicing.file_cut index.  A step
    pairs prefixes with suffixes of one shape, not rows with rows: the
    split benchmark system ends with 1-18 distinct prefixes and at most
    70 distinct suffixes per column.
    """

    def __init__(self, system: SplicingSystem):
        self.rules = system.rules
        self.columns: dict[CuttingRule, dict] = {
            c: {} for s in system.rules for c in (s.first, s.second)}
        self.rows = 0

    def add(self, g: PlfGraph) -> None:
        row = self.rows
        self.rows += 1
        for c, column in self.columns.items():
            if c.fits(g):
                file_cut(column, cut(g, c), row)

    def step(self, old: int) -> tuple[dict[bytes, PlfGraph], int, int]:
        """Splice the ordered pairs of rows that are not both below old,
        the number of rows at the previous step (0 at the first).

        The semi-naive rule is one test: a (prefix, suffix) pair of a
        rule, direction and shape is joined when either fragment was
        first filed at row old or later; earlier steps joined every
        other pair.  Returns {key: first
        product found} over those joins, the number of logical products
        of all ordered pairs of rows (2(m!) per pair and rule whose cuts
        weld) and the number of products built: join builds only the
        first product of each orbit of bijections, and every other
        product of the orbit is isomorphic to it, so it is never the
        first product found for its class.

        The scan-order rule: a scan of the cells (first row, second row,
        rule, direction) of these row pairs would first meet a fragment
        pair in the cell of its two fragments' first rows, because one
        of them is at least old.  The pairs are joined in the order of
        those cells, so the first product found for each class is the
        scan's, and the classes, their representatives and their order
        are those of splicing every ordered pair of rows in every
        iteration.
        """
        raw = 0
        first_cell: dict[tuple, tuple] = {}  # (prefix, suffix) -> cell
        for r, s in enumerate(self.rules):
            second_column = self.columns[s.second]
            for shape, (first_pres, first_sufs) in self.columns[s.first].items():
                # no cut of the second column has this shape: no rows, no pairs
                second_pres, second_sufs = second_column.get(shape, ({}, {}))
                # each row filed one prefix, so the prefix groups' rows
                # count the rows cut to this shape
                raw += (2 * factorial(shape[0])
                        * sum(len(p.rows) for p in first_pres.values())
                        * sum(len(p.rows) for p in second_pres.values()))
                # direction 1 joins the first row's prefix to the second
                # row's suffix, direction 2 the second's prefix to the first's
                for d, prefixes, suffixes in ((1, first_pres, second_sufs),
                                              (2, second_pres, first_sufs)):
                    for prefix, pre in prefixes.items():
                        prow = pre.rows[0]
                        for suffix, suf in suffixes.items():
                            srow = suf.rows[0]
                            if prow < old and srow < old:
                                continue  # an earlier step joined the pair
                            cell = (prow, srow, r, d) if d == 1 else (srow, prow, r, d)
                            seen = first_cell.get((prefix, suffix))
                            if seen is None or cell < seen:
                                first_cell[prefix, suffix] = cell
        found: dict[bytes, PlfGraph] = {}
        joins = 0
        for (prefix, suffix), _ in sorted(first_cell.items(), key=lambda kv: kv[1]):
            products = splicing.join(prefix, suffix, representatives=True)
            joins += len(products)
            for prod in products:
                found.setdefault(canonical_form(prod), prod)
        return found, raw, joins


def language(system: SplicingSystem, config: LanguageConfig | None = None) -> LanguageResult:
    """Bounded closure of the axioms under the system's rules.

    Every iteration splices all ordered pairs of known classes whose
    order is within max_order (unlimited-supply semantics: once a class
    is seen it stays available).  Oversize products are recorded as
    classes but never re-spliced.  Saturation means an iteration added
    no class at all: the closure of the in-cap classes is a fixpoint;
    hitting max_iterations first leaves saturated False.  It does not
    mean the language has no other class within max_order: a splice can
    shrink a graph, so a class reachable only through an intermediate
    above max_order is never found.

    Only pairs that involve a class new since the previous iteration can
    make a new class.  Each iteration therefore joins only the fragment
    pairs in which a new class filed at least one fragment first, so each
    fragment pair is joined once per run, in the order that
    _Splicer.step states.
    raw_products counts the logical products over all ordered pairs,
    those not visited included; joins counts the products actually
    built, one per orbit of bijections of each fragment pair joined.
    """
    if config is None:
        config = LanguageConfig()
    config.check_fits(system)

    classes: dict[bytes, ClassInfo] = {}
    for g in system.axioms:
        key = canonical_form(g)
        if key not in classes:
            classes[key] = ClassInfo(g, 0)
    trace = [IterationTrace(0, 0, len(classes), 0, 0)]
    saturated = False

    splicer = _Splicer(system)
    fresh = [info.representative for info in classes.values()]
    for it in range(1, config.max_iterations + 1):
        # classes only grow, so the old in-cap classes stay a prefix
        old = splicer.rows
        for g in fresh:
            if g.order <= config.max_order:
                splicer.add(g)
        found, raw, joins = splicer.step(old)
        fresh = []
        overcap = 0
        for key, g in found.items():
            if key in classes:
                continue
            classes[key] = ClassInfo(g, it)
            fresh.append(g)
            if g.order > config.max_order:
                overcap += 1
        trace.append(IterationTrace(it, raw, len(fresh), overcap, joins))
        if not fresh:
            saturated = True
            break

    return LanguageResult(classes, tuple(trace), saturated)


def contains(result: LanguageResult, g: PlfGraph) -> bool:
    """Whether g's isomorphism class was reached."""
    return canonical_form(g) in result.classes

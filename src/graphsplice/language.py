"""Splicing systems and the bounded iterated language.

The language of a system is the closure of its axioms under splicing,
with every graph treated as available in unlimited supply.  That closure
is infinite in general, so the computation is bounded two ways: graphs
above max_order are recorded but never fed back in, and iteration stops
at max_iterations even without a fixpoint.  Classes are isomorphism
classes, keyed by canonical form.

The closure is evaluated semi-naively: each iteration visits only the
ordered pairs that involve a class new since the previous one, and a
run joins each distinct (prefix fragment, suffix fragment) pair once,
because every product depends on that pair alone.  raw_products still
counts the logical products over all ordered pairs of each iteration.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import factorial

from . import splicing
from .cutting import cut
from .errors import SystemDefinitionError
from .graphs import PlfGraph, canonical_form, is_simple
from .splicing import SplicingRule, fragment_key

DEFAULT_MAX_ITERATIONS = 4
DEFAULT_MAX_ORDER = 8


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
            if not is_simple(g):
                raise SystemDefinitionError(
                    f"axiom {g} has a repeated edge; axioms must be simple"
                )


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


@dataclass(frozen=True)
class ClassInfo:
    """One discovered isomorphism class."""

    representative: PlfGraph
    iteration: int  # first iteration at which the class appeared


@dataclass(frozen=True)
class IterationTrace:
    iteration: int
    raw_products: int
    new_classes: int
    new_overcap: int  # of the new classes, how many exceed max_order
    joins: int  # products actually built; the rest were known already


@dataclass(frozen=True)
class LanguageResult:
    classes: dict[bytes, ClassInfo]
    trace: tuple[IterationTrace, ...]
    saturated: bool
    config: LanguageConfig = field(default=LanguageConfig())

    def __len__(self) -> int:
        return len(self.classes)


def sigma_step(graphs, system: SplicingSystem) -> dict[bytes, PlfGraph]:
    """One application of the splicing scheme to a set of graphs.

    Takes every ORDERED pair from graphs and every rule; pairs a rule
    does not fit (positions out of range) or cannot recombine contribute
    nothing.  Returns the product classes only, keyed by canonical form.
    """
    splicer = _Splicer(system)
    for g in graphs:
        splicer.add(g)
    return splicer.step(0)[0]


class _Splicer:
    """The cut tables and joined fragment pairs of one closure run.

    Each added graph is cut once per distinct cutting rule that fits its
    order; tables are indexed by cutting-rule number, and each entry
    keeps the cut's shape (power, split or not) and, for each fragment,
    its fragment key and the fragment itself.
    """

    def __init__(self, system: SplicingSystem):
        cutting = list(dict.fromkeys(
            c for s in system.rules for c in (s.first, s.second)))
        number = {c: k for k, c in enumerate(cutting)}
        self.cutting = cutting
        self.rules = [(number[s.first], number[s.second]) for s in system.rules]
        self.tables: list[list] = []
        self.joined: set[tuple] = set()

    def add(self, g: PlfGraph) -> None:
        table = []
        for c in self.cutting:
            if not c.fits(g):
                table.append(None)
                continue
            cg = cut(g, c)
            table.append(((cg.power, cg.vcut is None),
                          (fragment_key(cg.prefix), cg.prefix),
                          (fragment_key(cg.suffix), cg.suffix)))
        self.tables.append(table)

    def step(self, old: int) -> tuple[dict[bytes, PlfGraph], int, int]:
        """Splice the ordered pairs of added graphs that are not both
        among the first old, in (first, second, rule) order.

        Returns {key: first product found} over the fragment pairs not
        joined before in this run, the number of logical products of the
        visited pairs (2(m!) per pair and rule that recombine) and the
        number of products built.
        """
        tables = self.tables
        found: dict[bytes, PlfGraph] = {}
        raw = joins = 0
        for i, g_cuts in enumerate(tables):
            for h_cuts in tables[old if i < old else 0:]:
                for a, b in self.rules:
                    cg = g_cuts[a]
                    ch = h_cuts[b]
                    if cg is None or ch is None or cg[0] != ch[0]:
                        continue
                    raw += 2 * factorial(cg[0][0])
                    for (pkey, prefix), (skey, suffix) in ((cg[1], ch[2]),
                                                           (ch[1], cg[2])):
                        if (pkey, skey) in self.joined:
                            continue
                        self.joined.add((pkey, skey))
                        products = splicing.join(prefix, suffix)
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
    no class at all, so the recorded set is complete for the given
    max_order; hitting max_iterations first leaves saturated False.

    Only pairs that involve a class new since the previous iteration can
    make a new class, so only those are visited, and each distinct
    fragment pair is joined once per run: the classes and the first
    product found for each are those of splicing every pair every
    iteration.  raw_products counts the logical products over all
    ordered pairs, those not visited included; joins counts the products
    actually built.
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
    raw = 0
    for it in range(1, config.max_iterations + 1):
        # classes only grow, so the old in-cap classes stay a prefix
        old = len(splicer.tables)
        for g in fresh:
            if g.order <= config.max_order:
                splicer.add(g)
        found, visited, joins = splicer.step(old)
        # the pairs not visited are exactly those of the previous iteration
        raw += visited
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

    return LanguageResult(classes, tuple(trace), saturated, config)


def contains(result: LanguageResult, g: PlfGraph) -> bool:
    """Whether g's isomorphism class was reached."""
    return canonical_form(g) in result.classes

"""Splicing systems and the bounded iterated language.

The language of a system is the closure of its axioms under splicing,
with every graph treated as available in unlimited supply.  That closure
is infinite in general, so the computation is bounded two ways: graphs
above max_order are recorded but never fed back in, and iteration stops
at max_iterations even without a fixpoint.  Classes are isomorphism
classes, keyed by canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cutting import cut
from .errors import SystemDefinitionError
from .graphs import DEFAULT_CANON_CAP, PlfGraph, canonical_form, is_simple
from .splicing import SplicingRule, recombine

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


@dataclass(frozen=True)
class LanguageResult:
    classes: dict[bytes, ClassInfo]
    trace: tuple[IterationTrace, ...]
    saturated: bool
    config: LanguageConfig = field(default=LanguageConfig())

    def __len__(self) -> int:
        return len(self.classes)


def _canon_cap(config: LanguageConfig) -> int:
    # products of two in-cap graphs reach order 2*max_order - 1
    return max(2 * config.max_order, DEFAULT_CANON_CAP)


def sigma_step(graphs, system: SplicingSystem) -> dict[bytes, PlfGraph]:
    """One application of the splicing scheme to a set of graphs.

    Takes every ORDERED pair from graphs and every rule; pairs a rule
    does not fit (positions out of range) or cannot recombine contribute
    nothing.  Returns the product classes only, keyed by canonical form.
    """
    return _step(list(graphs), system)[0]


def _step(reps, system):
    """The product classes of all ordered pairs of reps, {key: first
    product found}, and the number of products built.

    Each rep is cut once per distinct cutting rule that fits its order; a
    (pair, rule) missing a cut, or whose cuts do not recombine, adds
    nothing.  Products reach order 2*max(order) - 1 at most, which bounds
    canonicalization.
    """
    biggest = max((g.order for g in reps), default=0)
    cap = max(2 * biggest, DEFAULT_CANON_CAP)
    cutting_rules = {c for s in system.rules for c in (s.first, s.second)}
    tables = [{c: cut(g, c) for c in cutting_rules if c.fits(g)} for g in reps]
    found: dict[bytes, PlfGraph] = {}
    raw = 0
    for g_cuts in tables:
        for h_cuts in tables:
            for s in system.rules:
                cg = g_cuts.get(s.first)
                ch = h_cuts.get(s.second)
                if cg is None or ch is None:
                    continue
                products = recombine(cg, ch)
                raw += len(products)
                for prod in products:
                    found.setdefault(canonical_form(prod.graph, cap), prod.graph)
    return found, raw


def language(system: SplicingSystem, config: LanguageConfig | None = None) -> LanguageResult:
    """Bounded closure of the axioms under the system's rules.

    Every iteration splices all ordered pairs of known classes whose
    order is within max_order (unlimited-supply semantics: once a class
    is seen it stays available).  Oversize products are recorded as
    classes but never re-spliced.  Saturation means an iteration added
    no class at all, so the recorded set is complete for the given
    max_order; hitting max_iterations first leaves saturated False.
    """
    if config is None:
        config = LanguageConfig()
    config.check_fits(system)
    cap = _canon_cap(config)

    classes: dict[bytes, ClassInfo] = {}
    for g in system.axioms:
        key = canonical_form(g, cap)
        if key not in classes:
            classes[key] = ClassInfo(g, 0)
    trace = [IterationTrace(0, 0, len(classes), 0)]
    saturated = False

    for it in range(1, config.max_iterations + 1):
        reps = [
            info.representative for info in classes.values()
            if info.representative.order <= config.max_order
        ]
        found, raw = _step(reps, system)
        new = overcap = 0
        for key, g in found.items():
            if key in classes:
                continue
            classes[key] = ClassInfo(g, it)
            new += 1
            if g.order > config.max_order:
                overcap += 1
        trace.append(IterationTrace(it, raw, new, overcap))
        if new == 0:
            saturated = True
            break

    return LanguageResult(classes, tuple(trace), saturated, config)


def contains(result: LanguageResult, g: PlfGraph) -> bool:
    """Whether g's isomorphism class was reached."""
    return canonical_form(g, _canon_cap(result.config)) in result.classes

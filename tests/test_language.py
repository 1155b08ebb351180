import importlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsplice import (
    CapExceededError,
    CuttingRule,
    PlfGraph,
    SplicingRule,
    SystemDefinitionError,
    canonical_form,
    complete,
    complete_bipartite,
    contains,
    cut,
    cycle,
    double_edge,
    enumerate_simple_graphs,
    is_isomorphic,
    is_regular,
    language,
    make_rule,
    path,
    sigma_pair,
    to_plf,
)
from graphsplice import splicing
import graphsplice.graphs as graphs_module
from graphsplice.language import (
    ClassInfo,
    LanguageConfig,
    SplicingSystem,
)
from conftest import plf_graphs
from oracles import (
    degree_pair_audit,
    first_of_each_class,
    join_key,
    naive_language,
    orbit_count,
)

RUNNING_RULE = make_rule((1, 2), (2, 3))

# the axioms of the gap and split benchmark systems
GAP_AXIOMS = (
    PlfGraph(4, ((1, 2), (1, 3), (3, 4))),
    PlfGraph(4, ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4))),
    PlfGraph(5, ((1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5))),
)
GAP_RULES = tuple(make_rule((i, i + 1), (k, k + 1))
                  for i in range(1, 4) for k in range(1, 4))
SPLIT_RULES = GAP_RULES + tuple(make_rule((i, i), (k, k))
                                for i in range(1, 4) for k in range(1, 4))


def running_system():
    return SplicingSystem((cycle(3), cycle(4)), (RUNNING_RULE,))


def audited(system, config):
    """language(system, config), once every class representative is
    found to keep degree pairs that the axioms and rules can make."""
    res = language(system, config)
    assert degree_pair_audit(system, res) == []
    return res


def assert_matches_oracle(system, config):
    res = audited(system, config)
    classes, trace, saturated = naive_language(system, config)
    assert list(res.classes) == list(classes)
    assert {k: (i.representative, i.iteration) for k, i in res.classes.items()} == classes
    assert [(t.iteration, t.raw_products, t.new_classes, t.new_overcap)
            for t in res.trace] == trace
    assert res.saturated == saturated


def test_system_validation():
    with pytest.raises(SystemDefinitionError):
        SplicingSystem((), (RUNNING_RULE,))
    with pytest.raises(SystemDefinitionError):
        SplicingSystem((cycle(3),), ())
    with pytest.raises(SystemDefinitionError):
        SplicingSystem((double_edge(),), (RUNNING_RULE,))


def test_config_validation():
    with pytest.raises(SystemDefinitionError):
        LanguageConfig(max_iterations=-1)
    with pytest.raises(SystemDefinitionError):
        LanguageConfig(max_order=0)
    with pytest.raises(SystemDefinitionError):
        language(running_system(), LanguageConfig(max_order=3))


def test_config_bounds_must_be_integers():
    # a float bound was accepted and broke language() with a bare TypeError
    for bad in ({"max_iterations": 2.5}, {"max_order": 8.0},
                {"max_iterations": "2"}):
        with pytest.raises(SystemDefinitionError, match="must be an integer"):
            LanguageConfig(**bad)

    class Bound:
        def __index__(self):
            return 3

    config = LanguageConfig(max_iterations=Bound(), max_order=Bound())
    assert (config.max_iterations, config.max_order) == (3, 3)
    assert type(config.max_iterations) is int


ONE_STEP = LanguageConfig(max_iterations=1)


def test_one_step_two_cycle_classes():
    res = language(running_system(), ONE_STEP)
    expected = {
        canonical_form(g)
        for g in (cycle(3), cycle(4), cycle(5), double_edge())
    }
    assert set(res.classes) == expected
    assert res.trace[1].new_classes == 2


def test_one_step_single_edge_is_a_fixpoint():
    system = SplicingSystem((path(2),), (make_rule((1, 2), (1, 2)),))
    res = language(system, ONE_STEP)
    assert set(res.classes) == {canonical_form(path(2))}
    assert res.trace[1].new_classes == 0


def test_one_step_without_applicable_combinations():
    systems = (
        # a gap rule paired with a vertex rule never recombines
        SplicingSystem((cycle(3),), (make_rule((1, 2), (1, 1)),)),
        # rules whose positions exceed every operand contribute nothing
        SplicingSystem((path(2),), (make_rule((5, 6), (5, 6)),)),
    )
    for system in systems:
        res = language(system, ONE_STEP)
        assert set(res.classes) == {canonical_form(system.axioms[0])}
        step = res.trace[1]
        assert (step.raw_products, step.joins, step.new_classes) == (0, 0, 0)


def test_one_iteration_reproduces_the_worked_example():
    res = language(running_system(), LanguageConfig(max_iterations=1))
    assert len(res) == 4
    for g in (cycle(3), cycle(4), cycle(5), double_edge()):
        assert contains(res, g)
    assert res.trace[0].new_classes == 2
    assert res.trace[1].raw_products == 16
    assert res.trace[1].new_classes == 2
    assert not res.saturated


def test_contains_respects_classes_only():
    res = language(running_system(), LanguageConfig(max_iterations=1))
    assert not contains(res, path(2))
    assert contains(res, to_plf(3, cycle(3).edges, (2, 1, 3)))


def test_contains_answers_for_graphs_of_any_order():
    res = language(running_system(), LanguageConfig(max_iterations=1))
    assert contains(res, PlfGraph(20, ())) is False


def test_zero_iterations_returns_axioms():
    res = language(running_system(), LanguageConfig(max_iterations=0))
    assert len(res) == 2
    assert contains(res, cycle(3))
    assert contains(res, cycle(4))
    assert not contains(res, cycle(5))
    assert not res.saturated


def test_axioms_deduplicate_by_class():
    system = SplicingSystem(
        (cycle(3), to_plf(3, cycle(3).edges, (3, 1, 2))),
        (RUNNING_RULE,),
    )
    res = language(system, LanguageConfig(max_iterations=0))
    assert len(res) == 1


def test_triangle_closure_saturates():
    """One triangle grows every longer cycle up to the cap, plus the
    double edge, then stops."""
    system = SplicingSystem((cycle(3),), (RUNNING_RULE,))
    res = language(system, LanguageConfig(max_iterations=10, max_order=8))
    assert res.saturated
    assert len(res) == 8

    by_iteration = {}
    for info in res.classes.values():
        by_iteration.setdefault(info.iteration, []).append(info.representative)
    assert sorted(g.order for g in by_iteration[1]) == [2, 4]
    for it in range(2, 7):
        (rep,) = by_iteration[it]
        assert is_isomorphic(rep, cycle(it + 3))

    raws = [t.raw_products for t in res.trace]
    assert raws == [0, 4, 24, 48, 80, 120, 168, 168]
    assert [t.new_classes for t in res.trace] == [1, 2, 1, 1, 1, 1, 1, 0]
    # the 9-cycle is recorded but, being oversize, never re-spliced
    assert [t.new_overcap for t in res.trace] == [0, 0, 0, 0, 0, 0, 1, 0]
    assert max(g.representative.order for g in res.classes.values()) == 9


# raw products of the triangle system per iteration while it grows one
# cycle class per iteration
TRIANGLE_RAW = [0, 4, 24, 48, 80, 120, 168, 224, 288, 360, 440, 528, 624,
                728, 840, 960, 1088, 1224, 1368]


@pytest.mark.parametrize("max_order", [16, 20])
def test_triangle_closure_saturates_past_order_16(max_order):
    """The running example closes at any cap: the double edge and every
    cycle up to one past the cap, the last of them never re-spliced."""
    system = SplicingSystem((cycle(3),), (RUNNING_RULE,))
    res = language(system, LanguageConfig(max_iterations=30, max_order=max_order))
    assert res.saturated
    assert len(res) == max_order
    raws = TRIANGLE_RAW[:max_order - 1]
    assert [t.raw_products for t in res.trace] == raws + raws[-1:]
    assert contains(res, double_edge())
    assert all(contains(res, cycle(k)) for k in range(3, max_order + 2))


def test_edgeless_system_finishes():
    """Edgeless axiom, two gap rules, max-order 10: every product is
    edgeless, a single twin class, so each canonical form is a leaf at
    the root of its search."""
    system = SplicingSystem((PlfGraph(4, ()),),
                            (make_rule((2, 3), (1, 2)), make_rule((3, 4), (1, 2))))
    res = language(system, LanguageConfig(max_iterations=4, max_order=10))
    assert len(res) == 11
    assert [t.raw_products for t in res.trace] == [0, 4, 70, 154, 270]
    assert [t.new_classes for t in res.trace] == [1, 4, 2, 2, 2]
    assert [t.new_overcap for t in res.trace] == [0, 0, 0, 0, 2]
    assert not res.saturated
    assert sorted(i.representative.order for i in res.classes.values()) == \
        list(range(2, 13))
    assert all(i.representative.size == 0 for i in res.classes.values())


def test_truncation_is_flagged():
    system = SplicingSystem((cycle(3),), (RUNNING_RULE,))
    res = language(system, LanguageConfig(max_iterations=3, max_order=8))
    assert not res.saturated
    assert len(res.trace) == 4


def test_classes_grow_monotonically():
    system = SplicingSystem((cycle(3),), (RUNNING_RULE,))
    res = language(system, LanguageConfig(max_iterations=6, max_order=8))
    counts = [t.new_classes for t in res.trace]
    for it, trace in enumerate(res.trace):
        seen = sum(counts[: it + 1])
        til_now = [
            info for info in res.classes.values() if info.iteration <= it
        ]
        assert len(til_now) == seen


def test_determinism():
    system = SplicingSystem((cycle(3),), (RUNNING_RULE,))
    config = LanguageConfig(max_iterations=6, max_order=8)
    a = language(system, config)
    b = language(system, config)
    assert a.classes == b.classes
    assert a.trace == b.trace
    assert a.saturated == b.saturated


def test_class_info_is_frozen():
    info = ClassInfo(cycle(3), 0)
    with pytest.raises(AttributeError):
        info.iteration = 1


@pytest.mark.parametrize("system, config", [
    (running_system(), LanguageConfig(max_iterations=3, max_order=8)),
    (SplicingSystem((cycle(3),), (RUNNING_RULE,)),
     LanguageConfig(max_iterations=10, max_order=8)),
    (SplicingSystem(GAP_AXIOMS, GAP_RULES),
     LanguageConfig(max_iterations=3, max_order=5)),
    (SplicingSystem(GAP_AXIOMS, SPLIT_RULES),
     LanguageConfig(max_iterations=2, max_order=5)),
    # a mixed gap/split rule that never recombines, one out of range for
    # every axiom, and one that fits the larger axiom only
    (SplicingSystem((path(3), cycle(4)),
                    (make_rule((1, 2), (2, 2)), make_rule((6, 7), (1, 2)),
                     make_rule((1, 1), (4, 4)), RUNNING_RULE)),
     LanguageConfig(max_iterations=3, max_order=5)),
], ids=["two-cycles", "triangle", "gap", "split", "mixed"])
def test_closure_matches_naive_oracle(system, config):
    assert_matches_oracle(system, config)


def _rule(i, reflexive):
    return CuttingRule(i, i if reflexive else i + 1)


def _splicing_rules(top=5):
    """Rule pairs over positions 1..top: two in three cut alike (both
    gaps or both vertex splits), the rest may mix the two."""
    position = st.integers(min_value=1, max_value=top)
    alike = st.builds(lambda i, k, r: SplicingRule(_rule(i, r), _rule(k, r)),
                      position, position, st.booleans())
    free = st.builds(lambda i, k, r, q: SplicingRule(_rule(i, r), _rule(k, q)),
                     position, position, st.booleans(), st.booleans())
    return st.one_of(alike, alike, free)


@settings(max_examples=60, deadline=None)
@given(st.lists(plf_graphs(min_order=2, max_order=4, max_edges=6, simple=True),
                min_size=1, max_size=3),
       st.lists(_splicing_rules(), min_size=1, max_size=3))
def test_closure_matches_naive_oracle_on_drawn_systems(axioms, rules):
    system = SplicingSystem(tuple(axioms), tuple(rules))
    assert_matches_oracle(system, LanguageConfig(max_iterations=3, max_order=5))


def _spliced(res, config):
    """The in-cap classes a run spliced: those known before its last
    iteration."""
    last = len(res.trace) - 1
    return [i.representative for i in res.classes.values()
            if i.iteration < last and i.representative.order <= config.max_order]


def test_each_graph_is_cut_once_per_rule(monkeypatch):
    calls = []

    def counting_cut(g, rule):
        calls.append((g, rule))
        return cut(g, rule)

    for name in ("graphsplice.splicing", "graphsplice.language"):
        monkeypatch.setattr(importlib.import_module(name), "cut", counting_cut,
                            raising=False)
    sigma_pair(cycle(3), cycle(4), RUNNING_RULE)
    assert len(calls) == 2

    calls.clear()
    system = SplicingSystem(GAP_AXIOMS, SPLIT_RULES)
    config = LanguageConfig(max_iterations=2, max_order=5)
    res = language(system, config)
    distinct = {c for s in system.rules for c in (s.first, s.second)}
    # once per run, not once per iteration
    assert len(set(calls)) == len(calls)
    assert len(calls) == sum(c.fits(g) for g in _spliced(res, config)
                             for c in distinct)


def distinct_pairs(res, system, config):
    """Distinct (prefix, suffix) fragment pairs over every ordered pair of
    spliced classes and every rule, as pairs of join_key values.

    Direction 1 of rule (c1, c2) joins a prefix cut by c1 to a suffix cut
    by c2, direction 2 a prefix cut by c2 to a suffix cut by c1; a pair
    joins when the hanging counts and the vertex splits agree.
    """
    spliced = _spliced(res, config)
    pairs = set()
    for s in system.rules:
        for a, b in ((s.first, s.second), (s.second, s.first)):
            prefixes = {join_key(cut(g, a).prefix) for g in spliced if a.fits(g)}
            suffixes = {join_key(cut(h, b).suffix) for h in spliced if b.fits(h)}
            pairs.update((p, q) for p in prefixes for q in suffixes
                         if (len(p[3]), p[4]) == (len(q[3]), q[4]))
    return pairs


# the perfbench systems: gap and split, then triangle, whose 10
# iterations skip old pairs at more steps than any other run here, and
# edgeless, whose power-0 fragment pairs each give one product
BENCH_SYSTEMS = {
    "gap-bench": (SplicingSystem(GAP_AXIOMS, GAP_RULES),
                  LanguageConfig(max_iterations=6, max_order=8)),
    "split-bench": (SplicingSystem(GAP_AXIOMS, SPLIT_RULES),
                    LanguageConfig(max_iterations=3, max_order=6)),
    "triangle-bench": (SplicingSystem((cycle(3),), (RUNNING_RULE,)),
                       LanguageConfig(max_iterations=20, max_order=11)),
    "edgeless-bench": (SplicingSystem((PlfGraph(4, ()),),
                                      (make_rule((2, 3), (1, 2)),
                                       make_rule((3, 4), (1, 2)))),
                       LanguageConfig(max_iterations=4, max_order=7)),
}


def recorded_joins(monkeypatch, system, config):
    """The closure's result, and the (prefix, suffix, products built) of
    each join it made, in order."""
    calls = []
    join = splicing.join

    def recording_join(prefix, suffix, **kwargs):
        built = join(prefix, suffix, **kwargs)
        calls.append((prefix, suffix, built))
        return built

    monkeypatch.setattr(splicing, "join", recording_join)
    return language(system, config), calls


@pytest.mark.parametrize("system, config, expected", [
    (SplicingSystem(GAP_AXIOMS, GAP_RULES),
     LanguageConfig(max_iterations=3, max_order=5), None),
    (SplicingSystem(GAP_AXIOMS, SPLIT_RULES),
     LanguageConfig(max_iterations=2, max_order=5), None),
    # with their pinned join calls (fragment pairs) and products built,
    # one per orbit of bijections
    (*BENCH_SYSTEMS["gap-bench"], (341, 455)),
    (*BENCH_SYSTEMS["split-bench"], (1963, 2316)),
    (*BENCH_SYSTEMS["triangle-bench"], (19, 19)),
    (*BENCH_SYSTEMS["edgeless-bench"], (21, 21)),
], ids=["gap", "split", *BENCH_SYSTEMS])
def test_each_fragment_pair_is_joined_once(monkeypatch, system, config, expected):
    res, calls = recorded_joins(monkeypatch, system, config)
    pairs = distinct_pairs(res, system, config)
    assert len(calls) == len(pairs)
    assert {(join_key(p), join_key(s)) for p, s, _ in calls} == pairs
    built = sum(len(products) for _, _, products in calls)
    assert built == sum(t.joins for t in res.trace)
    assert built == sum(orbit_count(p, s) for p, s in pairs)
    if expected is not None:
        assert (len(calls), built) == expected


@pytest.mark.parametrize("name", BENCH_SYSTEMS)
def test_the_closure_builds_the_first_product_of_every_class(monkeypatch, name):
    """Over every fragment pair the closure joins, its products (one per
    orbit of bijections) are some of the m! products, in their order,
    and hold the same classes with the same first product each."""
    _, calls = recorded_joins(monkeypatch, *BENCH_SYSTEMS[name])
    monkeypatch.undo()
    for prefix, suffix, built in calls:
        every = splicing.join(prefix, suffix)
        remaining = iter(every)
        assert all(p in remaining for p in built)
        assert first_of_each_class(built) == first_of_each_class(every)


def test_saturating_runs_end_without_joins():
    """These two runs end with an iteration that has no new fragment to
    join.  Saturation alone does not promise that: the gap system at
    max-order 5 saturates at iteration 3 after 98 joins whose products
    were all known."""
    gap = language(SplicingSystem(GAP_AXIOMS, GAP_RULES),
                   LanguageConfig(max_iterations=6, max_order=8))
    triangle = language(SplicingSystem((cycle(3),), (RUNNING_RULE,)),
                        LanguageConfig(max_iterations=10, max_order=8))
    for res in (gap, triangle):
        assert res.saturated
        assert res.trace[-1].joins == 0
        assert res.trace[-1].raw_products == res.trace[-2].raw_products


# Metamorphic checks: relations between runs of language() that must
# hold whatever the closure finds, so they test it without a second
# closure to compare against.

def _prefix_of(short, long):
    """long, run for more iterations, repeats short's trace and classes
    (representatives and iterations included) and only appends."""
    assert long.trace[:len(short.trace)] == short.trace
    assert list(long.classes.items())[:len(short.classes)] == \
        list(short.classes.items())
    if short.saturated:
        assert (long.trace, long.classes, long.saturated) == \
            (short.trace, short.classes, True)


def assert_iteration_monotone(system, max_order, top):
    runs = [audited(system, LanguageConfig(max_iterations=k, max_order=max_order))
            for k in range(top + 1)]
    for short, long in zip(runs, runs[1:]):
        _prefix_of(short, long)


def assert_cap_monotone(system, max_order, max_iterations=10):
    """Assert that a saturated run at max_order + 1 keeps every in-cap
    class of a saturated run at max_order.  Returns whether both runs
    saturated, that is, whether anything was compared."""
    low, high = (audited(system, LanguageConfig(max_iterations, n))
                 for n in (max_order, max_order + 1))
    if not (low.saturated and high.saturated):
        return False
    in_cap = {key for key, info in low.classes.items()
              if info.representative.order <= max_order}
    assert in_cap <= high.classes.keys()
    return True


@pytest.mark.parametrize("system, max_order, top", [
    (running_system(), 8, 5),
    (SplicingSystem((cycle(3),), (RUNNING_RULE,)), 8, 7),
    (SplicingSystem(GAP_AXIOMS, GAP_RULES), 6, 4),
    (SplicingSystem(GAP_AXIOMS, SPLIT_RULES), 5, 3),
], ids=["two-cycles", "triangle", "gap", "split"])
def test_more_iterations_extend_the_run(system, max_order, top):
    assert_iteration_monotone(system, max_order, top)


@settings(max_examples=30, deadline=None)
@given(st.lists(plf_graphs(min_order=2, max_order=4, max_edges=6, simple=True),
                min_size=1, max_size=3),
       st.lists(_splicing_rules(), min_size=1, max_size=3))
def test_more_iterations_extend_drawn_runs(axioms, rules):
    assert_iteration_monotone(SplicingSystem(tuple(axioms), tuple(rules)), 5, 3)


@pytest.mark.parametrize("system, max_order", [
    (SplicingSystem(GAP_AXIOMS, GAP_RULES), 6),
    (SplicingSystem(GAP_AXIOMS, GAP_RULES), 7),
    (SplicingSystem((cycle(3),), (RUNNING_RULE,)), 7),
    (SplicingSystem((cycle(3), path(4)), (RUNNING_RULE, make_rule((2, 2), (1, 1)))), 6),
], ids=["gap-6", "gap-7", "triangle", "cycle-path"])
def test_a_higher_cap_keeps_every_in_cap_class(system, max_order):
    assert assert_cap_monotone(system, max_order)


def test_a_higher_cap_keeps_every_in_cap_class_of_small_systems():
    """One axiom from each class of simple graphs of order 2 to 4 with
    at least one edge, under one rule: every gap-rule pair and every
    vertex-split pair over positions 1 to 3, at max-order 6 against 7."""
    axioms = {}
    for n in range(2, 5):
        for g in enumerate_simple_graphs(n):
            if g.size:
                axioms.setdefault(canonical_form(g), g)
    rules = [SplicingRule(CuttingRule(i, i + gap), CuttingRule(k, k + gap))
             for gap in (1, 0) for i in range(1, 4) for k in range(1, 4)]
    compared = sum(assert_cap_monotone(SplicingSystem((g,), (s,)), 6)
                   for g in axioms.values() for s in rules)
    assert (len(axioms), compared) == (14, 250)


@settings(max_examples=30, deadline=None)
@given(st.lists(plf_graphs(min_order=2, max_order=4, max_edges=6, simple=True),
                min_size=1, max_size=2),
       st.lists(_splicing_rules(3), min_size=1, max_size=2))
def test_a_higher_cap_keeps_every_in_cap_class_of_drawn_systems(axioms, rules):
    assert_cap_monotone(SplicingSystem(tuple(axioms), tuple(rules)), 5)


def _outcome(system, config):
    res = language(system, config)
    return (frozenset(res.classes),
            tuple((t.raw_products, t.new_classes) for t in res.trace),
            res.saturated)


def _orderings(system, shuffles):
    """The system with its axioms and its rules in every order, or, when
    shuffles is given, as filed and in that many seeded shuffles."""
    if shuffles is None:
        for axioms in permutations(system.axioms):
            for rules in permutations(system.rules):
                yield SplicingSystem(axioms, rules)
        return
    rng = random.Random(0)
    yield system
    for _ in range(shuffles):
        yield SplicingSystem(rng.sample(system.axioms, len(system.axioms)),
                             rng.sample(system.rules, len(system.rules)))


_LAYOUT_BUG = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the closure splices only the first layout it "
           "finds of each class, so the file order picks the layouts")


@pytest.mark.parametrize("system, config, shuffles", [
    (SplicingSystem((PlfGraph(4, ()),),
                    (make_rule((2, 3), (1, 2)), make_rule((3, 4), (1, 2)))),
     LanguageConfig(max_iterations=4, max_order=7), None),
    (running_system(), LanguageConfig(max_iterations=4, max_order=8), None),
    (SplicingSystem((cycle(3),), (RUNNING_RULE, make_rule((2, 3), (1, 2)))),
     LanguageConfig(max_iterations=10, max_order=8), None),
    (SplicingSystem((cycle(3), path(4)),
                    (RUNNING_RULE, make_rule((2, 2), (1, 1)))),
     LanguageConfig(max_iterations=4, max_order=6), None),
    pytest.param(SplicingSystem(GAP_AXIOMS, GAP_RULES),
                 LanguageConfig(max_iterations=6, max_order=8), 3,
                 marks=_LAYOUT_BUG),
    pytest.param(SplicingSystem(GAP_AXIOMS, SPLIT_RULES),
                 LanguageConfig(max_iterations=3, max_order=6), 3,
                 marks=_LAYOUT_BUG),
    pytest.param(SplicingSystem((path(3), PlfGraph(3, ((1, 3), (2, 3)))),
                                (make_rule((2, 2), (1, 1)),
                                 make_rule((4, 4), (2, 2)))),
                 LanguageConfig(max_iterations=3, max_order=5), None,
                 marks=_LAYOUT_BUG),
], ids=["edgeless", "two-cycles", "triangle-both-ways", "cycle-path",
        "gap", "split", "item-4-witness"])
def test_the_file_order_does_not_change_the_language(system, config, shuffles):
    """Axioms and rules are sets: listing them in another order must not
    change the class keys, the (raw_products, new_classes) trace or
    saturation."""
    outcomes = {_outcome(s, config) for s in _orderings(system, shuffles)}
    assert len(outcomes) == 1


def test_gap_rule_languages_of_a_regular_axiom_stay_regular():
    """Gap rules keep every vertex's source degree, so the language of
    one r-regular axiom under one gap-rule pair is r-regular: every
    pair over positions 1 to 3, run to saturation at max-order 8."""
    axioms = (cycle(3), cycle(4), cycle(5), complete(4),
              complete_bipartite(2, 2), complete_bipartite(3, 3))
    rules = [make_rule((i, i + 1), (k, k + 1))
             for i in range(1, 4) for k in range(1, 4)]
    config = LanguageConfig(max_iterations=10, max_order=8)
    refused = []
    systems = classes = 0
    for g in axioms:
        r = is_regular(g)
        for s in rules:
            try:
                res = language(SplicingSystem((g,), (s,)), config)
            except CapExceededError:
                refused.append((g, s))
                continue
            assert res.saturated
            for info in res.classes.values():
                assert is_regular(info.representative) == r, (g, s)
            systems += 1
            classes += len(res.classes)
    # K3,3 cut at [3,4] severs all 9 edges, above SPLICE_POWER_CAP
    assert refused == [(complete_bipartite(3, 3), make_rule((3, 4), (3, 4)))]
    assert (systems, classes) == (53, 152)


def test_the_closure_refuses_a_power_above_the_cap_before_seeking_orbits(monkeypatch):
    """Seeking the orbits of a power-9 pair floods 9! bijections, so the
    cap check comes first: the refusal never enters the orbit helpers."""
    def never(*args):
        raise AssertionError("orbits sought above the cap")

    monkeypatch.setattr(splicing, "_fragment_moves", never)
    monkeypatch.setattr(splicing, "_orbit_representatives", never)
    # K3,3 laid out 1,2,3 | 4,5,6 severs all 9 edges at [3,4]
    k33 = complete_bipartite(3, 3)
    halves = cut(k33, (3, 4))
    with pytest.raises(CapExceededError, match="splice power 9 exceeds cap 8"):
        splicing.join(halves.prefix, halves.suffix, representatives=True)
    with pytest.raises(CapExceededError, match="splice power 9 exceeds cap 8"):
        language(SplicingSystem((k33,), (make_rule((3, 4), (3, 4)),)),
                 LanguageConfig(max_order=6))


def test_k9_closure_builds_one_product_per_orbit():
    """K9 under three rules whose cuts sever 8 edges, the most the cap
    allows: 2(8!) bijections per fragment pair, all in one orbit, since
    each side keeps its 8 hanging edges at one anchor or at 8 twin
    anchors.  Building and searching every product took about a
    minute; one product per orbit gives 5 products and 3 cold searches
    (K9, the 8-fold edge and two K8 joined by a perfect matching)."""
    k9 = complete(9)
    system = SplicingSystem((k9,), (make_rule((1, 2), (8, 9)),
                                    make_rule((8, 9), (1, 2)),
                                    make_rule((1, 2), (1, 2))))
    graphs_module._canon_cached.cache_clear()
    res = audited(system, LanguageConfig(max_iterations=4, max_order=9))
    assert res.saturated
    orders = sorted(info.representative.order for info in res.classes.values())
    assert orders == [2, 9, 16]
    assert graphs_module._canon_cached.cache_info().misses == 3
    assert [t.joins for t in res.trace] == [0, 3, 2]
    assert [t.raw_products for t in res.trace] == [0, 241920, 645120]


def test_saturation_below_the_cap_is_not_completeness():
    """A saturated run is a fixpoint of the in-cap closure only: on this
    system a splice through a graph above max-order 5 reaches two more
    classes of order 5 or less, which max-order 7 finds."""
    system = SplicingSystem(
        (PlfGraph(4, ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4))),
         PlfGraph(4, ((1, 2), (1, 4), (2, 3), (2, 4)))),
        (make_rule((2, 3), (3, 4)), make_rule((4, 5), (1, 2))))
    found = {}
    for max_order in (5, 7):
        res = language(system, LanguageConfig(max_iterations=20,
                                              max_order=max_order))
        assert res.saturated
        found[max_order] = sum(info.representative.order <= 5
                               for info in res.classes.values())
    assert found == {5: 12, 7: 14}


def _equal_position_rules():
    """Rule pairs that cut both graphs at the same position i."""
    return st.builds(lambda i, r, q: SplicingRule(_rule(i, r), _rule(i, q)),
                     st.integers(min_value=1, max_value=4),
                     st.booleans(), st.booleans())


def assert_no_class_outgrows_the_axioms(system, config):
    """With first.i == second.i in every rule, direction 1 of a splice of
    g and h has order i + n(h) - i and direction 2 order n(g), so no
    class is larger than the largest axiom."""
    res = audited(system, config)
    biggest = max(g.order for g in system.axioms)
    assert all(info.representative.order <= biggest
               for info in res.classes.values())
    assert all(t.new_overcap == 0 for t in res.trace)
    return res


@pytest.mark.parametrize("system", [
    SplicingSystem(GAP_AXIOMS, tuple(make_rule((i, i + 1), (i, i + 1))
                                     for i in range(1, 4))),
    SplicingSystem(GAP_AXIOMS, tuple(make_rule((i, i), (i, i))
                                     for i in range(1, 5))),
    SplicingSystem((cycle(3), cycle(4)),
                   (make_rule((1, 2), (1, 2)), make_rule((2, 2), (2, 2)))),
], ids=["gap", "split", "cycles"])
def test_equal_position_rules_never_outgrow_the_axioms(system):
    res = assert_no_class_outgrows_the_axioms(
        system, LanguageConfig(max_iterations=20, max_order=8))
    assert res.saturated


@settings(max_examples=40, deadline=None)
@given(st.lists(plf_graphs(min_order=2, max_order=4, max_edges=6, simple=True),
                min_size=1, max_size=3),
       st.lists(_equal_position_rules(), min_size=1, max_size=3))
def test_equal_position_rules_never_outgrow_drawn_axioms(axioms, rules):
    assert_no_class_outgrows_the_axioms(
        SplicingSystem(tuple(axioms), tuple(rules)),
        LanguageConfig(max_iterations=3, max_order=6))

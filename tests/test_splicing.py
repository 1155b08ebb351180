import copy
import pickle
import random
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphsplice import (
    CapExceededError,
    ClassInfo,
    JoinError,
    NotApplicableError,
    PlfGraph,
    complete,
    cut,
    cycle,
    degree_profile,
    double_edge,
    enumerate_simple_graphs,
    is_isomorphic,
    join,
    make_rule,
    path,
    sigma_pair,
)
from graphsplice.cutting import Fragment, valid_rules
from graphsplice.graphs import canonical_form
from graphsplice import splicing
from graphsplice.splicing import SplicingRule, directions
from conftest import plf_graphs
from oracles import (first_of_each_class, join_key, max_product_order,
                     orbit_count, swapped)

RUNNING_RULE = make_rule((1, 2), (2, 3))


def directed(g, h, s, direction):
    """sigma_pair's products in one direction: 1 is Prefix(g)+Suffix(h),
    2 is Prefix(h)+Suffix(g)."""
    return [p for p in sigma_pair(g, h, s) if p.direction == direction]


def recombinations(g, h):
    """(rule, products) for every rule pair of g and h whose cuts sever
    as many edges and are both reflexive or both not; sigma_pair must
    refuse every other rule pair."""
    for c1 in valid_rules(g):
        power = cut(g, c1).power
        if power > 3:
            continue
        for c2 in valid_rules(h):
            s = SplicingRule(c1, c2)
            if cut(h, c2).power != power or c1.reflexive != c2.reflexive:
                with pytest.raises(NotApplicableError):
                    sigma_pair(g, h, s)
                continue
            yield s, sigma_pair(g, h, s)


def test_rule_construction_and_swap():
    s = RUNNING_RULE
    assert str(s) == "([1,2],[2,3])"
    assert swapped(s) == make_rule((2, 3), (1, 2))
    assert swapped(swapped(s)) == s
    mixed = make_rule((2, 2), (1, 2))
    assert str(mixed) == "([2,2],[1,2])"


def test_applicability():
    c3, c4 = cut(cycle(3), (1, 2)), cut(cycle(4), (2, 3))
    assert c3.shape == c4.shape == (2, True)
    assert [d for d, _pre, _suf in directions(c3, c4)] == [1, 2]
    # one side cuts a vertex, the other does not
    two_edges = PlfGraph(4, ((1, 2), (3, 4)))
    gap, split = cut(two_edges, (2, 3)), cut(path(2), (1, 1))
    assert (gap.shape, split.shape) == ((0, True), (0, False))
    assert directions(gap, split) == ()
    # powers 6 vs 1
    assert directions(cut(complete(5), (2, 3)), cut(path(2), (1, 2))) == ()


def test_sigma_pair_power_cap(monkeypatch):
    monkeypatch.setattr(splicing, "SPLICE_POWER_CAP", 2)
    # C3 cut at [1,2] or [2,3] severs two edges: at the cap, 2(2!) products
    assert len(sigma_pair(cycle(3), cycle(3), RUNNING_RULE)) == 4
    # K4 cut at [1,2] or [3,4] severs three; the cap is checked before
    # any of the m! bijections is listed
    def no_bijections(*args):
        raise AssertionError("bijections listed")

    monkeypatch.setattr(splicing, "permutations", no_bijections)
    with pytest.raises(CapExceededError):
        sigma_pair(complete(4), complete(4), make_rule((1, 2), (3, 4)))


def test_products_require_applicability():
    with pytest.raises(NotApplicableError, match="counts differ: 6 vs 1"):
        sigma_pair(complete(5), path(2), make_rule((2, 3), (1, 2)))
    two_edges = PlfGraph(4, ((1, 2), (3, 4)))
    with pytest.raises(NotApplicableError, match="splits a vertex"):
        sigma_pair(two_edges, path(2), make_rule((2, 3), (1, 1)))


def test_running_example_class_outcomes():
    """The four ordered pairs of the two-cycle system, direction by
    direction.  Every product class is pinned."""
    c3, c4, c5 = cycle(3), cycle(4), cycle(5)
    d2 = double_edge()
    cases = [
        (c3, c4, 1, c3),
        (c3, c4, 2, c4),
        (c4, c3, 1, d2),
        (c4, c3, 2, c5),
        (c3, c3, 1, d2),
        (c3, c3, 2, c4),
        (c4, c4, 1, c3),
        (c4, c4, 2, c5),
    ]
    for g, h, direction, expected in cases:
        products = directed(g, h, RUNNING_RULE, direction)
        assert len(products) == 2
        for p in products:
            assert is_isomorphic(p.graph, expected)


def test_double_edge_product_is_exact():
    products = directed(cycle(4), cycle(3), RUNNING_RULE, 1)
    for p in products:
        assert p.graph == PlfGraph(2, ((1, 2), (1, 2)))


def test_product_metadata():
    first = directed(cycle(3), cycle(4), RUNNING_RULE, 1)
    second = directed(cycle(3), cycle(4), RUNNING_RULE, 2)
    assert [p.bijection for p in first] == [(0, 1), (1, 0)]
    assert [p.bijection for p in second] == [(0, 1), (1, 0)]
    assert all(p.direction == 1 for p in first)
    assert all(p.direction == 2 for p in second)
    assert all(p.rule == RUNNING_RULE for p in first + second)


def test_sigma_pair_concatenates_directions():
    prods = sigma_pair(cycle(3), cycle(4), RUNNING_RULE)
    assert len(prods) == 4
    assert [p.direction for p in prods] == [1, 1, 2, 2]


def test_reflexive_point_merge():
    s = make_rule((2, 2), (1, 1))
    prods = directed(path(2), path(2), s, 1)
    assert len(prods) == 1
    assert prods[0].graph == path(3)


def test_zero_power_gap_cut_builds_disjoint_union():
    g = PlfGraph(4, ((1, 2), (3, 4)))
    s = make_rule((2, 3), (2, 3))
    prods = directed(g, g, s, 1)
    assert len(prods) == 1
    assert prods[0].graph == g


def test_figure_eight_amalgamation():
    # gluing the last vertex of one triangle to the first of another
    s = make_rule((3, 3), (1, 1))
    prods = directed(cycle(3), cycle(3), s, 1)
    assert len(prods) == 1
    p = prods[0].graph
    assert p.order == 5
    assert p.degree(3) == 4
    assert sorted(p.degree(v) for v in range(1, 6)) == [2, 2, 2, 2, 4]


def test_max_product_order():
    assert max_product_order(cycle(3), cycle(4)) == 6
    achieved = directed(cycle(3), cycle(4), make_rule((3, 3), (1, 1)), 1)
    assert achieved[0].graph.order == 6


def test_join_validates_fragment_kinds():
    res_g = cut(cycle(3), (1, 2))
    res_h = cut(cycle(4), (2, 3))
    with pytest.raises(JoinError):
        join(res_h.suffix, res_g.prefix)


def test_join_validates_half_vertex_presence():
    gap = cut(path(2), (1, 2))
    reflexive = cut(path(3), (2, 2))
    with pytest.raises(JoinError):
        join(gap.prefix, reflexive.suffix)


def test_join_validates_hanging_counts():
    c3 = cut(cycle(3), (1, 2))
    k4 = cut(complete(4), (1, 2))
    assert (c3.power, k4.power) == (2, 3)
    with pytest.raises(JoinError, match="hanging-edge counts differ: 2 vs 3"):
        join(c3.prefix, k4.suffix)


def test_join_refuses_a_mismatched_pair_before_building(monkeypatch):
    def no_product(*args):
        raise AssertionError("a product was built")

    # join builds each product as tuple.__new__(PlfGraph, ...), which
    # raises TypeError, not JoinError, when a function stands in for the
    # class
    monkeypatch.setattr(splicing, "PlfGraph", no_product)
    c3 = cut(cycle(3), (1, 2))
    k4 = cut(complete(4), (1, 2))
    split = cut(path(3), (2, 2))
    for prefix, suffix in ((k4.suffix, c3.prefix), (c3.prefix, k4.suffix),
                           (cut(path(2), (1, 2)).prefix, split.suffix)):
        with pytest.raises(JoinError):
            join(prefix, suffix)


def test_join_builds_one_product_per_bijection_in_order():
    # C4 cut at [2,3] severs (1,4) and (2,3): the identity bijection
    # rebuilds C4, the swap welds 1 to 3 and 2 to 4
    res = cut(cycle(4), (2, 3))
    same, swapped = join(res.prefix, res.suffix)
    assert same == cycle(4)
    assert swapped == PlfGraph(4, ((1, 2), (1, 3), (2, 4), (3, 4)))
    k4 = cut(complete(4), (2, 3))
    assert len(join(k4.prefix, k4.suffix)) == factorial(k4.power)


def test_join_builds_without_revalidating(monkeypatch):
    calls = 0
    validate = PlfGraph.__new__

    def counted(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return validate(cls, *args, **kwargs)

    k5 = cut(complete(5), (2, 3))
    monkeypatch.setattr(PlfGraph, "__new__", counted)
    # the patch sees a validated construction
    assert PlfGraph(2, ((1, 2),)) and calls == 1
    calls = 0
    built = join(k5.prefix, k5.suffix)
    assert len(built) == factorial(k5.power)
    assert calls == 0


def test_join_sorts_the_edges_of_hand_made_fragments():
    # a cut lists its intact edges sorted, a Fragment built by hand need
    # not; the power-0 product is sorted like every other
    prefix = Fragment("prefix", 1, 3, ((2, 3), (1, 3), (1, 2)), ())
    suffix = Fragment("suffix", 1, 2, ((1, 2),), ())
    [product] = join(prefix, suffix)
    assert product.edges == ((1, 2), (1, 3), (2, 3), (4, 5))
    assert product == PlfGraph(5, product.edges)


@pytest.mark.parametrize("prefix, suffix, order, edges", [
    # gap shape: the suffix shifts by prefix.end - suffix.start + 1 = 3
    (Fragment("prefix", 1, 3, ((2, 3), (1, 3), (1, 2)), ()),
     Fragment("suffix", 1, 3, ((2, 3), (1, 2)), ()),
     6, ((1, 2), (1, 3), (2, 3), (4, 5), (5, 6))),
    # split shape: suffix position 2 merges into prefix position 3
    (Fragment("prefix", 1, 3, ((2, 3), (1, 3), (1, 2)), (), 3),
     Fragment("suffix", 2, 4, ((3, 4), (2, 4), (2, 3)), (), 2),
     5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5))),
], ids=["gap", "split"])
def test_power_zero_join_sorts_unsorted_intact_edges(prefix, suffix, order, edges):
    built = join(prefix, suffix)
    assert [(p.order, p.edges) for p in built] == [(order, edges)]
    assert built[0] == PlfGraph(order, tuple(reversed(edges)))


@st.composite
def fragment_sides(draw, kind, m, split):
    """A fragment of power m on positions 1..n, its stubs drawn as a sum
    of m over its anchors.  The first two anchors with equal stub counts
    are made twins: every retained position is as often adjacent to one
    as to the other.  The hanging edges come in any order."""
    stubs = []
    while sum(stubs) < m:
        stubs.append(draw(st.integers(1, m - sum(stubs))))
    spare = draw(st.integers(0, 1))
    n = len(stubs) + spare + split
    # a prefix's half-vertex is its last position, a suffix's its first
    half = (n if kind == "prefix" else 1) if split else None
    anchors = draw(st.permutations([v for v in range(1, n + 1) if v != half]))
    anchors = anchors[:len(stubs)]
    mult = {e: draw(st.integers(0, 2))
            for e in combinations(range(1, n + 1), 2)}
    equal = [(a, b) for a, b in combinations(range(len(stubs)), 2)
             if stubs[a] == stubs[b]]
    if equal:
        x, y = (anchors[i] for i in equal[0])
        for z in range(1, n + 1):
            if z not in (x, y):
                mult[tuple(sorted((y, z)))] = mult[tuple(sorted((x, z)))]
    intact = tuple(e for e, k in sorted(mult.items()) for _ in range(k))
    hanging = draw(st.permutations(
        [a for a, k in zip(anchors, stubs) for _ in range(k)]))
    return Fragment(kind, 1, n, intact, tuple(hanging), half)


def _twins_and_parallels(frag):
    """Whether two anchors hold equally many hanging edges, which
    fragment_sides makes twins, and whether one holds two or more."""
    counts = sorted(frag.hanging.count(a) for a in set(frag.hanging))
    return len(set(counts)) < len(counts), counts[-1] > 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_representatives_reach_every_class_first(data):
    """join's representatives are some of its m! products, in their
    order, and hold the same classes with the same first product each,
    over drawn pairs of power <= 4 with twin anchors and with parallel
    hanging edges: the moves of an anchor holding two edges are not
    those of its twin class alone.  Their number is the orbit count
    of the weld-count matrices."""
    m = data.draw(st.integers(2, 4))
    split = data.draw(st.booleans())
    prefix = data.draw(fragment_sides("prefix", m, split))
    suffix = data.draw(fragment_sides("suffix", m, split))
    (pre_twins, pre_parallel), (suf_twins, suf_parallel) = map(
        _twins_and_parallels, (prefix, suffix))
    assume((pre_twins or suf_twins) and (pre_parallel or suf_parallel))
    every = join(prefix, suffix)
    built = join(prefix, suffix, representatives=True)
    remaining = iter(every)
    assert all(p in remaining for p in built)
    assert first_of_each_class(built) == first_of_each_class(every)
    assert len(built) == orbit_count(join_key(prefix), join_key(suffix))


def test_twin_fragments_join_to_one_representative():
    # K9 cut at [1,2] keeps eight hanging edges at vertex 1 and leaves a
    # K8 whose eight anchors are twins, and so does K9 cut at [8,9] the
    # other way round: every bijection of any pair of these fragments
    # gives one class, so one product of 8! is built, the identity's
    g = complete(9)
    star, k8 = cut(g, (1, 2)), cut(g, (8, 9))
    assert [join(star.prefix, k8.suffix, representatives=True),
            join(star.prefix, star.suffix, representatives=True),
            join(k8.prefix, k8.suffix, representatives=True)] == [
        [PlfGraph(2, ((1, 2),) * 8)], [g], [g]]
    # two K8 and the perfect matching of the identity between them
    assert join(k8.prefix, star.suffix, representatives=True) == [PlfGraph(16, (
        *k8.prefix.intact, *((v, v + 8) for v in range(1, 9)),
        *((u + 8, v + 8) for u, v in k8.prefix.intact)))]
    # twin anchors holding two hanging edges each: their moves exchange
    # the two anchors' pairs of edges, not any two of the four edges, so
    # two parallel pairs and the 4-cycle both stay
    pair = Fragment("prefix", 1, 2, (), (1, 1, 2, 2)), Fragment(
        "suffix", 1, 2, (), (1, 1, 2, 2))
    assert join(*pair, representatives=True) == [
        PlfGraph(4, ((1, 3), (1, 3), (2, 4), (2, 4))),
        PlfGraph(4, ((1, 3), (1, 4), (2, 3), (2, 4)))]
    # anchors 1 and 3 of the prefix, and 4 and 5 of the suffix, differ
    # in their rows: no move, so every bijection is built
    rigid = cut(PlfGraph(6, ((1, 2), (1, 4), (3, 5), (4, 5), (4, 6))), (3, 4))
    assert join(rigid.prefix, rigid.suffix, representatives=True) == join(
        rigid.prefix, rigid.suffix)


def test_records_equal_and_hash_as_their_field_tuples():
    # a frozen dataclass hashed the tuple of its fields, so a record
    # that equals and hashes as that tuple keeps every dict and set
    # order and every pinned digest; copies and pickles rebuild the
    # record through its own constructor
    g = cycle(4)
    res = cut(g, (2, 3))
    records = (g, join(res.prefix, res.suffix)[1], res.rule, res, res.prefix,
               RUNNING_RULE, degree_profile(g), ClassInfo(g, 0))
    for x in records:
        assert x == tuple(x) and hash(x) == hash(tuple(x))
        for twin in (copy.copy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x and type(twin) is type(x)


def test_an_unvalidated_graph_is_frozen_and_equals_the_validated_one():
    # join builds its products past validation
    res = cut(cycle(4), (2, 3))
    _, g = join(res.prefix, res.suffix)
    edges = ((1, 2), (1, 3), (2, 4), (3, 4))
    validated = PlfGraph(4, ((3, 4), (2, 1), (1, 3), (2, 4)))
    assert g == validated and hash(g) == hash(validated)
    assert (g.order, g.edges, g.size) == (4, edges, 4)
    for name, value in (("order", 5), ("edges", ()), ("size", 0)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g == validated


@settings(max_examples=60, deadline=None)
@given(plf_graphs(max_order=6), plf_graphs(max_order=6))
def test_join_builds_what_validation_would(g, h):
    # join skips PlfGraph's validation: every product must be the graph
    # validation builds from the same edges, with sorted edges inside
    # positions 1..order
    for _s, prods in recombinations(g, h):
        for p in prods:
            f = p.graph
            assert f == PlfGraph(f.order, f.edges)
            assert list(f.edges) == sorted(f.edges)
            assert all(1 <= u < v <= f.order for u, v in f.edges)


def test_join_rebuilds_the_source_graph():
    # cutting and rejoining with the identity bijection is a no-op
    for g in (cycle(5), complete(4), PlfGraph(3, ((1, 3), (1, 3), (2, 3)))):
        for rule in valid_rules(g):
            res = cut(g, rule)
            rebuilt = join(res.prefix, res.suffix)[0]
            assert rebuilt == g


@settings(max_examples=60, deadline=None)
@given(plf_graphs(max_order=5), plf_graphs(max_order=5))
def test_product_count_and_order_bound(g, h):
    bound = max_product_order(g, h)
    for s, prods in recombinations(g, h):
        cg, ch = cut(g, s.first), cut(h, s.second)
        # direction 1, then direction 2, each in lexicographic bijection order
        assert [p.graph for p in prods] == (join(cg.prefix, ch.suffix)
                                            + join(ch.prefix, cg.suffix))
        assert [(p.direction, p.bijection, p.rule) for p in prods] == [
            (d, r, s) for d in (1, 2) for r in permutations(range(cg.power))]
        assert len(prods) == 2 * factorial(cg.power)
        for p in prods:
            assert p.graph.order <= bound


@settings(max_examples=40, deadline=None)
@given(plf_graphs(max_order=4), plf_graphs(max_order=4))
def test_reversal_identity(g, h):
    for s, _prods in recombinations(g, h):
        forward = sorted(
            canonical_form(p.graph) for p in directed(g, h, s, 1)
        )
        backward = sorted(
            canonical_form(p.graph)
            for p in directed(h, g, swapped(s), 2)
        )
        assert forward == backward


@settings(max_examples=40, deadline=None)
@given(plf_graphs(max_order=4), plf_graphs(max_order=4))
def test_degrees_survive_splicing(g, h):
    for s, prods in recombinations(g, h):
        c1, c2 = s.first, s.second
        merged = c1.reflexive
        for p in prods:
            if p.direction != 1:
                continue
            f = p.graph
            p_end = cut(g, c1).prefix.end
            offset = f.order - h.order
            for v in range(1, f.order + 1):
                if merged and v == p_end:
                    expected = (g.left_degree(c1.i)
                                + h.right_degree(c2.i))
                elif v <= p_end:
                    expected = g.degree(v)
                else:
                    expected = h.degree(v - offset)
                assert f.degree(v) == expected


def test_file_cut_matches_a_tally_made_apart_from_it():
    """Every valid cut of every simple graph of order <= 4 and of 100
    seeded multigraphs, filed with the graph's index as its row.  The
    tally keys shapes by (hanging count, rule reflexive) and fragments by
    join_key; each group keeps its first cut and the row of every cut
    filed under it, in filing order, and shapes and groups keep filing
    order.  The rows give the first row, the count of cuts and their
    source orders."""
    rng = random.Random(2007)
    graphs = [g for n in range(1, 5) for g in enumerate_simple_graphs(n)]
    for _ in range(100):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
        graphs.append(PlfGraph(n, tuple(rng.choice(pairs)
                                        for _ in range(rng.randint(0, 10)))))
    index = {}
    # (power, split) -> per side {key: [graph, rule, rows]}
    tally = {}
    cuts = 0
    for row, g in enumerate(graphs):
        for rule in valid_rules(g):
            c = cut(g, rule)
            splicing.file_cut(index, c, row)
            cuts += 1
            sides = tally.setdefault((len(c.ecut), rule.reflexive), ({}, {}))
            for side, frag in zip(sides, (c.prefix, c.suffix)):
                side.setdefault(join_key(frag), [g, rule, []])[2].append(row)
    assert cuts == 1181
    assert list(index) == [(m, not split) for m, split in tally]
    for (m, split), want_sides in tally.items():
        for kind, want, groups in zip(("prefix", "suffix"), want_sides,
                                      index[m, not split]):
            assert all(f.kind == kind for f in groups)
            got = {join_key(f): [grp.rep.graph, grp.rep.rule, grp.rows]
                   for f, grp in groups.items()}
            # equal lists of keys: no two filed fragments share a join key
            assert list(got) == list(want)
            assert got == want


def test_a_fragment_filed_again_keeps_its_first_cut_and_row():
    index = {}
    first = cut(path(3), (1, 2))
    splicing.file_cut(index, first, 5)
    splicing.file_cut(index, cut(path(3), (1, 2)), 2)
    # the same prefix as path(3)'s, with another suffix and source order
    splicing.file_cut(index, cut(PlfGraph(4, ((1, 2),)), (1, 2)), 9)
    [(shape, (prefixes, suffixes))] = index.items()
    assert shape == (1, True)
    [pre] = prefixes.values()
    assert (pre.rep, pre.rows) == (first, [5, 2, 9])
    assert pre.rep is first
    assert [(s.rep.graph.order, s.rep.rule, s.rows) for s in suffixes.values()] == [
        (3, first.rule, [5, 2]), (4, first.rule, [9])]

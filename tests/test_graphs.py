import gc
import hashlib
import inspect
import random
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphsplice.graphs as graphs_module

from graphsplice import (
    CapExceededError,
    InvalidGraphError,
    InvalidOrderingError,
    PlfGraph,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    degree_profile,
    double_edge,
    enumerate_simple_graphs,
    has_cycle,
    is_bipartite,
    is_isomorphic,
    is_regular,
    is_simple,
    path,
    to_plf,
)
from conftest import plf_graphs
from oracles import (
    all_relabelings,
    bipartite_by_enumeration,
    brute_canonical,
    brute_isomorphic,
    components,
    cyclic_by_counting,
    reference_canonical,
    relabel,
)


def test_edges_are_normalized_and_sorted():
    g = PlfGraph(4, ((3, 1), (2, 4), (1, 3)))
    assert g.edges == ((1, 3), (1, 3), (2, 4))
    assert g.size == 3
    assert g.multiplicity(1, 3) == 2
    assert g.multiplicity(3, 1) == 2
    assert g.multiplicity(1, 2) == 0


def test_loops_are_rejected():
    with pytest.raises(InvalidGraphError):
        PlfGraph(3, ((2, 2),))


def test_out_of_range_endpoints_are_rejected():
    with pytest.raises(InvalidGraphError):
        PlfGraph(3, ((1, 4),))
    with pytest.raises(InvalidGraphError):
        PlfGraph(3, ((0, 2),))


def test_negative_order_is_rejected():
    with pytest.raises(InvalidGraphError):
        PlfGraph(-1, ())


def test_non_integer_order_and_endpoints_are_rejected():
    # the float endpoint must not be truncated to the edge (1, 3)
    with pytest.raises(InvalidGraphError, match="non-integer endpoint"):
        PlfGraph(3, ((1.5, 3),))
    with pytest.raises(InvalidGraphError, match="non-integer endpoint"):
        PlfGraph(3, (("1", "3"),))
    with pytest.raises(InvalidGraphError, match="order must be an integer"):
        PlfGraph(2.5, ())


def test_empty_graphs_are_legal():
    assert PlfGraph(0, ()).size == 0
    assert PlfGraph(5, ()).size == 0


def test_str_form():
    assert str(path(3)) == "PLF(order=3, edges=[(1,2), (2,3)])"
    assert str(PlfGraph(1, ())) == "PLF(order=1, edges=[])"


def test_degrees_on_a_path():
    g = path(4)
    assert [g.left_degree(v) for v in (1, 2, 3, 4)] == [0, 1, 1, 1]
    assert [g.right_degree(v) for v in (1, 2, 3, 4)] == [1, 1, 1, 0]
    assert [g.degree(v) for v in (1, 2, 3, 4)] == [1, 2, 2, 1]


def test_degree_counts_multiplicity():
    g = double_edge()
    assert g.degree(1) == 2
    assert g.right_degree(1) == 2
    assert g.left_degree(2) == 2


def test_degree_rejects_out_of_range_vertex():
    with pytest.raises(InvalidGraphError):
        path(3).degree(4)


@given(plf_graphs())
def test_degree_splits_into_left_and_right(g):
    for v in range(1, g.order + 1):
        assert g.left_degree(v) + g.right_degree(v) == g.degree(v)


@given(plf_graphs())
def test_degree_balance(g):
    prof = degree_profile(g)
    assert sum(prof.right) == g.size
    assert sum(prof.left) == g.size
    assert sum(r - l for l, r in zip(prof.left, prof.right)) == 0


def test_to_plf_identity_ordering():
    g = cycle(4)
    assert to_plf(4, g.edges, (1, 2, 3, 4)) == g


def test_to_plf_reorders_cycle():
    # positions read (1, 3, 2, 4): label 3 sits at position 2 and
    # label 2 at position 3, so the rim edges land as below
    g = to_plf(4, ((1, 2), (2, 3), (3, 4), (1, 4)), (1, 3, 2, 4))
    assert g.edges == ((1, 3), (1, 4), (2, 3), (2, 4))


def test_to_plf_rejects_non_bijective_ordering():
    with pytest.raises(InvalidOrderingError):
        to_plf(3, ((1, 2),), (1, 2, 2))
    with pytest.raises(InvalidOrderingError):
        to_plf(3, ((1, 2),), (1, 2))


def test_to_plf_rejects_unknown_endpoint():
    with pytest.raises(InvalidGraphError):
        to_plf(3, ((1, 7),), (1, 2, 3))


@given(plf_graphs(min_order=1, max_order=6))
def test_to_plf_preserves_degree_multiset(g):
    rng = random.Random(g.order * 31 + g.size)
    ordering = list(range(1, g.order + 1))
    rng.shuffle(ordering)
    moved = to_plf(g.order, g.edges, tuple(ordering))
    original = sorted(g.degree(v) for v in range(1, g.order + 1))
    renamed = sorted(moved.degree(v) for v in range(1, moved.order + 1))
    assert renamed == original


def test_generators_produce_expected_edges():
    assert cycle(3).edges == ((1, 2), (1, 3), (2, 3))
    assert path(1).edges == ()
    assert complete(4).size == 6
    assert complete_bipartite(2, 3).edges == (
        (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
    )
    assert double_edge().edges == ((1, 2), (1, 2))


def test_generator_minimums():
    with pytest.raises(InvalidGraphError):
        cycle(2)
    with pytest.raises(InvalidGraphError):
        path(0)
    with pytest.raises(InvalidGraphError):
        complete(0)
    with pytest.raises(InvalidGraphError):
        complete_bipartite(0, 2)


def test_cycle_and_bipartite_oracles_on_fixtures():
    assert not has_cycle(path(4))
    assert is_bipartite(path(4))
    assert is_regular(path(4)) is None

    d = double_edge()
    assert has_cycle(d)
    assert is_bipartite(d)
    assert is_regular(d) == 2

    c5 = cycle(5)
    assert has_cycle(c5)
    assert not is_bipartite(c5)
    assert is_regular(c5) == 2


def test_is_regular_zero_degree():
    # edgeless graphs are 0-regular, so the truthiness trap matters
    assert is_regular(PlfGraph(3, ())) == 0
    assert is_regular(PlfGraph(3, ())) is not None


@settings(max_examples=200, deadline=None)
@given(plf_graphs(min_order=0, max_order=8))
@example(PlfGraph(0, ()))
@example(PlfGraph(1, ()))
@example(PlfGraph(6, ()))
@example(cycle(5))
@example(complete(4))
@example(double_edge())
@example(PlfGraph(3, ((1, 2), (1, 2), (1, 3), (1, 3), (2, 3), (2, 3))))
@example(PlfGraph(4, ((1, 2), (3, 4), (3, 4))))
def test_is_regular_matches_the_degree_profile(g):
    total = degree_profile(g).total
    expected = total[0] if len(set(total)) == 1 else None
    assert is_regular(g) == (0 if g.order == 0 else expected)


def test_connectivity_and_simplicity():
    assert len(components(cycle(4))) == 1
    assert len(components(PlfGraph(3, ((1, 2),)))) == 2
    assert len(components(PlfGraph(1, ()))) == 1
    assert is_simple(cycle(4))
    assert not is_simple(double_edge())


@given(plf_graphs(max_order=6))
def test_has_cycle_matches_counting_oracle(g):
    assert has_cycle(g) == cyclic_by_counting(g)


@given(plf_graphs(max_order=6))
def test_is_bipartite_matches_enumeration_oracle(g):
    assert is_bipartite(g) == bipartite_by_enumeration(g)


def test_known_canonical_encodings():
    assert canonical_form(cycle(3)) == b"3|1,1,1"
    assert canonical_form(cycle(4)) == b"4|0,1,1,1,1,0"
    assert canonical_form(cycle(5)) == b"5|0,0,1,1,0,1,1,1,0,0"
    assert canonical_form(double_edge()) == b"2|2"
    # the layout of the smallest leaf, not the smallest vector over all
    # degree-sorted layouts (b"6|0,0,0,0,1,1,1,0,1,0,1,1,0,0,0" for C6)
    assert canonical_form(cycle(6)) == b"6|0,0,1,0,1,0,1,0,0,1,1,0,1,0,0"
    assert canonical_form(path(5)) == b"5|1,1,0,0,0,1,0,1,0,0"


def test_canonical_form_invariant_under_relabeling():
    g = PlfGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (1, 4)))
    base = canonical_form(g)
    for h in all_relabelings(g):
        assert canonical_form(h) == base


def test_canonical_form_takes_any_order(monkeypatch):
    # a budget well above the most nodes measured here (P11 3, edgeless 1,
    # C400 6 in either layout, C200+C200 at most 20), so a pruning
    # regression fails instead of running on
    graphs_module._canon_cached.cache_clear()
    monkeypatch.setattr(graphs_module, "CANON_NODE_BUDGET", 64)
    p11 = path(11)
    assert canonical_form(p11) == canonical_form(relabel(p11, tuple(range(11, 0, -1))))
    # the reference would try all 20! layouts of the edgeless graph, whose
    # vector is all zeros
    for n in (20, 400):
        zeros = b",".join([b"0"] * (n * (n - 1) // 2))
        assert canonical_form(PlfGraph(n, ())) == f"{n}|".encode() + zeros
    c400 = cycle(400)
    rotated = relabel(c400, tuple(range(2, 401)) + (1,))
    assert canonical_form(c400) == canonical_form(rotated)
    assert canonical_form(c400) != canonical_form(
        _disjoint_union(cycle(200), cycle(200)))


def test_is_isomorphic_decides_any_order_after_the_cheap_checks():
    c16 = cycle(16)
    layout = list(range(1, 17))
    random.Random(16).shuffle(layout)
    assert is_isomorphic(c16, relabel(c16, tuple(layout))) is True
    # same order, size and degrees, so only the canonical forms tell
    assert is_isomorphic(c16, _disjoint_union(cycle(8), cycle(8))) is False
    # P11 and C11 differ in size, which answers before any search
    assert is_isomorphic(path(11), cycle(11)) is False


def _matching(k):
    """k disjoint edges.  The two ends of an edge are twins and nothing
    else is, so the search individualizes one end of every edge but the
    last, one recursion level each."""
    return PlfGraph(2 * k, tuple((2 * i - 1, 2 * i) for i in range(1, k + 1)))


def test_search_deeper_than_the_stack_raises_cap_exceeded():
    # the search recurses once per individualized vertex: an order at the
    # limit is refused up front; a matching below the limit passes that
    # check, but its levels cannot fit above the current depth
    low_limit = len(inspect.stack(0)) + 20
    limit = sys.getrecursionlimit()
    graphs_module._canon_cached.cache_clear()
    deep = _matching((low_limit - 1) // 2)
    for g in (PlfGraph(low_limit, ()), deep):
        sys.setrecursionlimit(low_limit)
        try:
            with pytest.raises(CapExceededError, match="interpreter's stack"):
                canonical_form(g)
        finally:
            sys.setrecursionlimit(limit)
    # the failure is not cached: the full stack finishes the search
    assert canonical_form(deep) == \
        canonical_form(relabel(deep, tuple(range(deep.order, 0, -1))))


def test_search_deeper_than_the_stack_is_refused_before_the_matrix():
    # at the default limit of 1000 the n-by-n multiplicity matrix of this
    # order would take about 18 MB
    edgeless = PlfGraph(sys.getrecursionlimit() + 500, ())
    graphs_module._canon_cached.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="interpreter's stack"):
            canonical_form(edgeless)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_canonical_partition_matches_brute_force_exhaustively():
    """Engine classes and permutation-search classes coincide, order <= 5."""
    brute_to_engine = {}
    engine_to_brute = {}
    checked = 0
    for n in range(1, 6):
        for g in enumerate_simple_graphs(n):
            checked += 1
            b = brute_canonical(g)
            e = canonical_form(g)
            assert brute_to_engine.setdefault(b, e) == e
            assert engine_to_brute.setdefault(e, b) == b
    assert checked == 1 + 2 + 8 + 64 + 1024


def _random_multigraph(rng, max_order=8):
    n = rng.randint(2, max_order)
    m = rng.randint(0, 2 * n)
    edges = []
    for _ in range(m):
        u = rng.randint(1, n - 1)
        v = rng.randint(u + 1, n)
        edges.append((u, v))
    return PlfGraph(n, tuple(edges))


def test_isomorphism_matches_brute_force_on_random_pairs():
    rng = random.Random(90125)
    for trial in range(500):
        g = _random_multigraph(rng)
        perm = list(range(1, g.order + 1))
        rng.shuffle(perm)
        h = relabel(g, tuple(perm))
        assert is_isomorphic(g, h), f"trial {trial}: relabeling lost"
    for trial in range(500):
        g = _random_multigraph(rng)
        h = _random_multigraph(rng)
        assert is_isomorphic(g, h) == brute_isomorphic(g, h), f"trial {trial}"


def test_isomorphism_order_precheck():
    assert not is_isomorphic(cycle(4), cycle(5))


def test_relabel_roundtrip():
    g = PlfGraph(4, ((1, 2), (2, 4), (2, 4)))
    perm = (3, 1, 4, 2)
    inverse = tuple(perm.index(p) + 1 for p in range(1, 5))
    assert relabel(relabel(g, perm), inverse) == g


def test_all_relabelings_counts_factorial():
    assert len(list(all_relabelings(path(3)))) == 6


def test_enumerate_simple_graphs_counts():
    assert len(list(enumerate_simple_graphs(1))) == 1
    assert len(list(enumerate_simple_graphs(2))) == 2
    assert len(list(enumerate_simple_graphs(3))) == 8
    assert len(list(enumerate_simple_graphs(4))) == 64


def test_enumerate_simple_graphs_is_deterministic_and_distinct():
    first = list(enumerate_simple_graphs(4))
    second = list(enumerate_simple_graphs(4))
    assert first == second
    assert len(set(first)) == 64
    assert all(g.order == 4 and is_simple(g) for g in first)


def test_enumerate_simple_graphs_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        next(enumerate_simple_graphs(7))
    # the cap is read when the enumeration starts
    monkeypatch.setattr(graphs_module, "ENUMERATION_CAP", 7)
    stream = enumerate_simple_graphs(7)
    assert next(stream).order == 7


@settings(max_examples=30)
@given(plf_graphs(max_order=5))
def test_isomorphic_graphs_share_canonical_form(g):
    for h in all_relabelings(g):
        assert canonical_form(h) == canonical_form(g)


def _keys(graphs):
    return [graphs_module._canonical_search(g.order, g.edges) for g in graphs]


def _search_matches_reference(graphs, keys):
    """Two of the graphs get equal keys exactly when the reference search
    gives them equal keys: the two encodings differ, their partitions
    into classes do not."""
    to_reference = {}
    to_search = {}
    for g, key in zip(graphs, keys, strict=True):
        reference = reference_canonical(g.order, g.edges)
        assert to_reference.setdefault(key, reference) == reference, g
        assert to_search.setdefault(reference, key) == key, g
    return len(to_search)


@pytest.fixture(scope="module")
def simple_graphs_and_keys():
    """Every simple graph of order 0 to 6 in enumeration order, with its
    search key."""
    graphs = [g for n in range(7) for g in enumerate_simple_graphs(n)]
    return graphs, _keys(graphs)


def test_search_matches_reference_on_all_simple_graphs(simple_graphs_and_keys):
    graphs, keys = simple_graphs_and_keys
    assert len(graphs) == 33868
    # the isomorphism classes of simple graphs of order 0 to 6
    assert _search_matches_reference(graphs, keys) == 1 + 1 + 2 + 4 + 11 + 34 + 156


def _seeded_multigraphs():
    """3,000 multigraphs of order 2 to 10 with up to 20 edges, and 300 of
    order 2 to 4 with 10 to 40 edges, whose multiplicities reach two
    digits; each comes in its drawn layout and in a shuffled one."""
    rng = random.Random(2014)
    graphs = []
    for count, orders, sizes in ((3000, (2, 10), (0, 20)), (300, (2, 4), (10, 40))):
        for _ in range(count):
            n = rng.randint(*orders)
            pairs = list(combinations(range(1, n + 1), 2))
            edges = [rng.choice(pairs) for _ in range(rng.randint(*sizes))]
            layout = list(range(1, n + 1))
            rng.shuffle(layout)
            graphs.append(PlfGraph(n, tuple(edges)))
            graphs.append(PlfGraph(
                n, tuple((layout[u - 1], layout[v - 1]) for u, v in edges)))
    return graphs


# sha256 of the search keys joined by newlines.  The reference tests above
# compare partitions into classes, so they pass a search whose keys are
# relabeled consistently; these pin the key bytes themselves, which the
# closure's output and every stored key depend on.  Neither digest
# depends on the Python version (3.10 to 3.13 checked) or PYTHONHASHSEED.
SIMPLE_KEYS_SHA256 = "a415f529d3ce8bafcf37857c9349f55162a2324d499301cc5593342db7d5cda6"
MULTIGRAPH_KEYS_SHA256 = "d24ab952af3a36c996c79598fdc7afa5d6f224ed85dc3df5cb8e296b6acd2552"


def test_search_key_bytes_are_pinned_on_all_simple_graphs(simple_graphs_and_keys):
    _, keys = simple_graphs_and_keys
    assert hashlib.sha256(b"\n".join(keys)).hexdigest() == SIMPLE_KEYS_SHA256


def test_search_key_bytes_are_pinned_on_seeded_multigraphs():
    keys = _keys(_seeded_multigraphs())
    assert len(keys) == 6600
    assert hashlib.sha256(b"\n".join(keys)).hexdigest() == MULTIGRAPH_KEYS_SHA256


@settings(max_examples=150, deadline=None)
@given(plf_graphs(min_order=1, max_order=8, max_edges=16),
       plf_graphs(min_order=1, max_order=8, max_edges=16),
       st.randoms(use_true_random=False))
def test_search_matches_reference_on_multigraphs(g, h, rng):
    layout = list(range(1, g.order + 1))
    rng.shuffle(layout)
    graphs = [g, relabel(g, tuple(layout)), h]
    _search_matches_reference(graphs, _keys(graphs))


def _disjoint_union(*parts):
    edges = []
    offset = 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.order
    return PlfGraph(offset, tuple(edges))


def _cubic_graphs(n):
    """Every layout of the n-cycle plus a perfect matching of chords.

    A connected cubic graph of order at most 8 has a Hamiltonian cycle,
    so these cover every connected cubic graph of order n."""
    rim = {(i, i % n + 1) for i in range(1, n)} | {(1, n)}
    chords = [e for e in combinations(range(1, n + 1), 2) if e not in rim]

    def matchings(free):
        if not free:
            yield []
            return
        u = free[0]
        for v in free[1:]:
            if (u, v) in chords:
                rest = [w for w in free if w not in (u, v)]
                for m in matchings(rest):
                    yield [(u, v)] + m

    for m in matchings(list(range(1, n + 1))):
        yield PlfGraph(n, tuple(sorted(rim)) + tuple(m))


def test_search_matches_reference_on_symmetric_families():
    rng = random.Random(2014)
    family = [PlfGraph(n, ()) for n in range(9)]
    family += [complete(n) for n in range(1, 9)]
    family += [complete_bipartite(a, b)
               for a in range(1, 9) for b in range(1, 10 - a)]
    c3, c4 = cycle(3), cycle(4)
    unions = [c3, c4, _disjoint_union(c3, c3), _disjoint_union(c3, c4),
              _disjoint_union(c4, c3), _disjoint_union(c4, c4),
              _disjoint_union(c3, c3, c3)]
    for g in [cycle(n) for n in range(3, 11)] + unions:
        family.append(g)
        for _ in range(3):
            layout = list(range(1, g.order + 1))
            rng.shuffle(layout)
            family.append(relabel(g, tuple(layout)))
    cubic_classes = {}
    for n in (4, 6, 8):
        for g in _cubic_graphs(n):
            family.append(g)
            cubic_classes.setdefault(n, set()).add(
                reference_canonical(g.order, g.edges))
    two_k4 = _disjoint_union(complete(4), complete(4))
    family.append(two_k4)
    # K4; K_{3,3} and the prism; the five connected cubic graphs of order 8
    assert {n: len(keys) for n, keys in cubic_classes.items()} == {4: 1, 6: 2, 8: 5}
    _search_matches_reference(family, _keys(family))


def _torus_graph(steps):
    """The Cayley graph of Z4 x Z4 whose edges join vertices that differ
    by one of the steps or their negatives."""
    index = {(a, b): 4 * a + b + 1 for a in range(4) for b in range(4)}
    edges = {tuple(sorted((index[a, b], index[(a + x) % 4, (b + y) % 4])))
             for a, b in index for x, y in steps}
    return PlfGraph(16, tuple(sorted(edges)))


def test_search_is_invariant_where_refinement_stalls():
    """The Shrikhande graph and the 4x4 rook's graph are both strongly
    regular with parameters (16, 6, 2, 2), so colour refinement leaves
    each one cell, also after one vertex is individualized; only the
    search tells them apart.  In their disjoint union an automorphism of
    one part that does not fix the individualized vertex must not prune
    the other part's branches."""
    shrikhande = _torus_graph([(1, 0), (0, 1), (1, 1)])
    rook = _torus_graph([(1, 0), (2, 0), (0, 1), (0, 2)])
    assert is_regular(shrikhande) == is_regular(rook) == 6
    both = _disjoint_union(shrikhande, rook)
    rng = random.Random(16)
    keys = {}
    for name, g in [("shrikhande", shrikhande), ("rook", rook), ("both", both),
                    ("both", _disjoint_union(rook, shrikhande))]:
        for _ in range(8):
            layout = list(range(1, g.order + 1))
            rng.shuffle(layout)
            h = relabel(g, tuple(layout))
            key = graphs_module._canonical_search(h.order, h.edges)
            assert keys.setdefault(name, key) == key, name
    assert keys["shrikhande"] != keys["rook"]


def test_search_unwinds_no_further_than_the_common_ancestor():
    """In a union of cycles of different lengths every vertex has degree
    2, so the root is one cell and its first child lies on whichever
    cycle the layout puts first.  The first automorphism found swaps
    vertices below that child, and the leaf with the smallest trace may
    lie below a vertex of another cycle: a search that unwinds past the
    two leaves' deepest common ancestor never reaches it, and the key
    then depends on the layout."""
    rng = random.Random(2013)
    for lengths in [(6, 3, 3), (7, 4, 3), (9, 3, 3, 3), (8, 5, 3)]:
        g = _disjoint_union(*map(cycle, lengths))
        key = graphs_module._canonical_search(g.order, g.edges)
        for _ in range(12):
            layout = list(range(1, g.order + 1))
            rng.shuffle(layout)
            h = relabel(g, tuple(layout))
            assert graphs_module._canonical_search(h.order, h.edges) == key, lengths


def test_search_leaves_no_reference_cycle():
    # a cycle would keep each search's matrix, adjacency lists and
    # automorphisms alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        for g in (cycle(5), complete(4), path(4)):
            graphs_module._canonical_search(g.order, g.edges)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_node_budget(monkeypatch):
    c12 = cycle(12)
    graphs_module._canon_cached.cache_clear()
    monkeypatch.setattr(graphs_module, "CANON_NODE_BUDGET", 2)
    with pytest.raises(CapExceededError, match="search nodes"):
        canonical_form(c12)
    monkeypatch.undo()
    # the failure is not cached: the real budget finishes the search
    assert canonical_form(c12) == canonical_form(relabel(c12, tuple(range(12, 0, -1))))


def _cycle_unions(total, smallest=3):
    """Every disjoint union of cycles of the given total order, one per
    multiset of cycle lengths."""
    if total == 0:
        yield PlfGraph(0, ())
        return
    for k in range(smallest, total + 1):
        for rest in _cycle_unions(total - k, k):
            yield _disjoint_union(cycle(k), rest)


def _chorded_cycle(n, rng):
    """The n-cycle plus a random perfect matching of chords."""
    rim = {(i, i % n + 1) for i in range(1, n)} | {(1, n)}
    while True:
        ends = list(range(1, n + 1))
        rng.shuffle(ends)
        chords = {tuple(sorted(ends[i:i + 2])) for i in range(0, n, 2)}
        if not chords & rim:
            return PlfGraph(n, tuple(sorted(rim)) + tuple(sorted(chords)))


def test_search_nodes_stay_few_on_symmetric_families(monkeypatch):
    """Each family gets a budget a little above the most nodes measured
    on it over 25 random layouts of every member: cycles 12, unions of
    cycles 59, chorded cycles 19, K_{a,b} 3 (K_{a,a}: the root and one
    leaf per side).  Complete and edgeless graphs are one twin class, so
    the root is their leaf."""
    rng = random.Random(2014)
    families = [
        (16, [cycle(n) for n in range(3, 41)]),
        (80, [g for n in range(3, 17) for g in _cycle_unions(n)]),
        (32, [g for n in (4, 6, 8) for g in _cubic_graphs(n)]
         + [_chorded_cycle(n, rng) for n in range(10, 17, 2) for _ in range(5)]),
        (3, [complete_bipartite(a, b) for a in range(1, 16) for b in range(1, 17 - a)]),
        (1, [complete(n) for n in range(1, 17)] + [PlfGraph(n, ()) for n in range(17)]),
    ]
    for budget, family in families:
        monkeypatch.setattr(graphs_module, "CANON_NODE_BUDGET", budget)
        for g in family:
            key = graphs_module._canonical_search(g.order, g.edges)
            layout = list(range(1, g.order + 1))
            rng.shuffle(layout)
            h = relabel(g, tuple(layout))
            assert graphs_module._canonical_search(h.order, h.edges) == key, g

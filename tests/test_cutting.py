import random

import pytest
from hypothesis import given

from graphsplice import (
    CapExceededError,
    InvalidRuleError,
    PlfGraph,
    complete,
    cut,
    cycle,
    degree_profile,
    double_edge,
    enumerate_simple_graphs,
    path,
    power_by_formula,
    valid_rules,
)
from graphsplice import cutting
from graphsplice.cutting import CuttingRule, as_rule
from conftest import graph_with_gap_rule, plf_graphs


def test_rule_shape_validation():
    with pytest.raises(InvalidRuleError):
        CuttingRule(0, 1)
    with pytest.raises(InvalidRuleError):
        CuttingRule(2, 4)
    with pytest.raises(InvalidRuleError):
        CuttingRule(3, 2)
    assert CuttingRule(2, 2).reflexive
    assert not CuttingRule(2, 3).reflexive
    assert str(CuttingRule(2, 3)) == "[2,3]"


def test_rule_positions_must_be_integers():
    # a float rule once built a gap rule that broke printing, as_rule
    # truncated (1.7, 2) to [1,2], and strings raised a bare TypeError
    with pytest.raises(InvalidRuleError, match="must be integers"):
        CuttingRule(1.5, 2.5)
    with pytest.raises(InvalidRuleError, match="must be integers"):
        cut(cycle(4), (1.7, 2))
    with pytest.raises(InvalidRuleError, match="must be integers"):
        CuttingRule("1", "2")

    class Position:
        def __init__(self, k):
            self.k = k

        def __index__(self):
            return self.k

    rule = CuttingRule(Position(2), Position(3))
    assert (type(rule.i), type(rule.j)) == (int, int)
    assert rule == CuttingRule(2, 3)


def test_rule_range_check():
    with pytest.raises(InvalidRuleError):
        CuttingRule(4, 5).check_valid_for(path(4))
    CuttingRule(4, 4).check_valid_for(path(4))
    CuttingRule(3, 4).check_valid_for(path(4))


def test_as_rule_accepts_pairs():
    assert as_rule((2, 3)) == CuttingRule(2, 3)
    assert as_rule(CuttingRule(1, 1)) == CuttingRule(1, 1)


def test_valid_rules_enumeration():
    rules = valid_rules(path(3))
    assert rules == [
        CuttingRule(1, 2), CuttingRule(2, 3),
        CuttingRule(1, 1), CuttingRule(2, 2), CuttingRule(3, 3),
    ]
    assert valid_rules(path(3), include_reflexive=False) == [
        CuttingRule(1, 2), CuttingRule(2, 3),
    ]


def test_k5_gap_cut():
    k5 = complete(5)
    severed = cut(k5, (2, 3)).ecut
    assert set(severed) == {(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)}
    assert cut(k5, (2, 3)).power == 6
    assert cut(k5, (2, 3)).vcut is None

    res = cut(k5, (2, 3))
    assert res.prefix.intact == ((1, 2),)
    assert list(res.prefix.retained) == [1, 2]
    assert res.prefix.half_vertex is None
    assert res.suffix.intact == ((3, 4), (3, 5), (4, 5))
    assert list(res.suffix.retained) == [3, 4, 5]

    # the anchors follow ecut: the prefix keeps u of (u, v), the suffix v
    assert res.ecut == ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))
    assert res.prefix.hanging == (1, 1, 1, 2, 2, 2)
    assert res.suffix.hanging == (3, 4, 5, 3, 4, 5)
    assert str(res.prefix) == "prefix{1,2} edges {(1,2)} hanging at {1,1,1,2,2,2}"
    assert str(res.suffix) == (
        "suffix{3,4,5} edges {(3,4), (3,5), (4,5)} hanging at {3,4,5,3,4,5}")


def test_k5_formula_agrees():
    k5 = complete(5)
    assert power_by_formula(k5, (2, 3), "left") == 6
    assert power_by_formula(k5, (2, 3), "right") == 6


def test_smallest_gap_cut():
    res = cut(path(2), (1, 2))
    assert res.ecut == ((1, 2),)
    assert res.prefix.hanging == (1,)
    assert res.suffix.hanging == (2,)


def test_reflexive_cut_on_path():
    res = cut(path(3), (2, 2))
    assert res.ecut == ()
    assert res.vcut == 2
    assert res.prefix.intact == ((1, 2),)
    assert res.prefix.hanging == ()
    assert res.prefix.half_vertex == 2
    assert res.suffix.intact == ((2, 3),)
    assert res.suffix.half_vertex == 2
    assert list(res.suffix.retained) == [2, 3]
    assert str(res.prefix) == "prefix{1,2]} edges {(1,2)} hanging at {}"
    assert str(res.suffix) == "suffix{[2,3} edges {(2,3)} hanging at {}"


def test_reflexive_cut_keeps_incident_edges():
    # both copies of the only edge start at the cut vertex, so the
    # suffix keeps them and nothing is severed
    res = cut(double_edge(), (1, 1))
    assert res.ecut == ()
    assert res.prefix.intact == ()
    assert res.suffix.intact == ((1, 2), (1, 2))
    assert res.vcut == 1
    assert cut(cycle(4), (1, 1)).vcut == 1


def test_reflexive_cut_severs_spanning_edges():
    g = PlfGraph(3, ((1, 3), (1, 3)))
    res = cut(g, (2, 2))
    assert res.ecut == ((1, 3), (1, 3))
    assert res.prefix.hanging == (1, 1)
    assert res.suffix.hanging == (3, 3)


def test_power_examples():
    assert cut(cycle(4), (3, 4)).power == 2
    assert power_by_formula(path(4), (2, 3)) == 1
    assert power_by_formula(cycle(4), (2, 3)) == 2


def test_formula_rejects_reflexive_rule():
    with pytest.raises(InvalidRuleError):
        power_by_formula(path(3), (2, 2))


def test_formula_refuses_an_order_past_its_cap(monkeypatch):
    # the cap holds before degree_profile, whose lists are as long as
    # the order, is built
    real = cutting.degree_profile
    monkeypatch.setattr(cutting, "FORMULA_ORDER_CAP", 4)
    assert power_by_formula(path(4), (2, 3), "right") == 1

    def never(g):
        raise AssertionError("degree_profile built past the cap")

    monkeypatch.setattr(cutting, "degree_profile", never)
    for side in ("left", "right"):
        with pytest.raises(CapExceededError,
                           match="order 5 exceeds the power-formula cap 4"):
            power_by_formula(path(5), (2, 3), side)
    assert real(path(5)).gap_powers[2] == 1


def test_cut_rejects_invalid_rule():
    with pytest.raises(InvalidRuleError):
        cut(path(3), (3, 4))


@given(plf_graphs(min_order=2))
def test_leftmost_gap_power_is_first_degree(g):
    assert cut(g, (1, 2)).power == g.degree(1)


@given(plf_graphs())
def test_edge_conservation_over_all_rules(g):
    for rule in valid_rules(g):
        res = cut(g, rule)
        total = len(res.prefix.intact) + len(res.suffix.intact) + len(res.ecut)
        assert total == g.size


@given(plf_graphs())
def test_retained_positions_cover_the_graph(g):
    for rule in valid_rules(g):
        res = cut(g, rule)
        pre = set(res.prefix.retained)
        suf = set(res.suffix.retained)
        assert pre | suf == set(range(1, g.order + 1))
        if rule.reflexive:
            assert pre & suf == {rule.i}
        else:
            assert not (pre & suf)


@given(plf_graphs())
def test_hanging_lists_track_power(g):
    for rule in valid_rules(g):
        res = cut(g, rule)
        assert len(res.prefix.hanging) == res.power
        assert len(res.suffix.hanging) == res.power


@given(plf_graphs())
def test_hanging_anchors_are_retained_and_off_the_half_vertex(g):
    for rule in valid_rules(g):
        res = cut(g, rule)
        for frag in (res.prefix, res.suffix):
            for anchor in frag.hanging:
                assert anchor in frag.retained
                if frag.half_vertex is not None:
                    assert anchor != frag.half_vertex


@given(graph_with_gap_rule())
def test_formula_matches_direct_power(pair):
    g, i = pair
    rule = (i, i + 1)
    assert power_by_formula(g, rule, "left") == cut(g, rule).power
    assert power_by_formula(g, rule, "right") == cut(g, rule).power


def _check_gap_powers(g):
    prof = degree_profile(g)
    powers = prof.gap_powers
    assert len(powers) == g.order + 1
    assert powers[0] == powers[-1] == 0
    for rule in valid_rules(g):
        i = rule.i
        # splitting vertex i severs the edges over gap i-1|i that do
        # not end at i
        want = powers[i - 1] - prof.left[i - 1] if rule.reflexive else powers[i]
        assert cut(g, rule).power == want, (g, rule)


def test_gap_powers_give_every_rules_power():
    """DegreeProfile.gap_powers counts the severed edges of every rule
    of every simple graph up to order 5."""
    graphs = [g for n in range(1, 6) for g in enumerate_simple_graphs(n)]
    assert len(graphs) == 1099
    for g in graphs:
        _check_gap_powers(g)


@given(plf_graphs())
def test_gap_powers_give_every_rules_power_on_multigraphs(g):
    _check_gap_powers(g)


def test_gap_cut_decomposes_into_reflexive_cuts():
    """On simple graphs a gap cut severs the two vertex cuts' edges
    plus the gap edge itself."""
    checked = 0
    for n in range(2, 5):
        for g in enumerate_simple_graphs(n):
            for i in range(1, n):
                if g.multiplicity(i, i + 1) == 0:
                    continue
                checked += 1
                combined = (
                    set(cut(g, (i, i)).ecut)
                    | set(cut(g, (i + 1, i + 1)).ecut)
                    | {(i, i + 1)}
                )
                assert set(cut(g, (i, i + 1)).ecut) == combined
    assert checked > 100


@given(plf_graphs())
def test_intact_edges_stay_inside_their_fragment(g):
    for rule in valid_rules(g):
        res = cut(g, rule)
        for u, v in res.prefix.intact:
            assert u in res.prefix.retained and v in res.prefix.retained
        for u, v in res.suffix.intact:
            assert u in res.suffix.retained and v in res.suffix.retained


def _fragment_degrees(frag):
    """Each retained position's degree read off the fragment alone: both
    ends of its intact edges and the anchors of its hanging ones."""
    deg = dict.fromkeys(frag.retained, 0)
    for u, v in frag.intact:
        deg[u] += 1
        deg[v] += 1
    for a in frag.hanging:
        deg[a] += 1
    return [deg[p] for p in frag.retained]


def test_a_fragment_fixes_its_source_degrees():
    """A fragment determines the source degree of every position it
    retains: ld(i) at a prefix half-vertex, rd(i) at a suffix one."""
    rng = random.Random(1987)
    graphs = [g for n in range(1, 6) for g in enumerate_simple_graphs(n)]
    for _ in range(300):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
        graphs.append(PlfGraph(n, tuple(rng.choice(pairs)
                                        for _ in range(rng.randint(0, 12)))))
    cuts = 0
    for g in graphs:
        prof = degree_profile(g)
        for rule in valid_rules(g):
            res = cut(g, rule)
            cuts += 1
            for frag in (res.prefix, res.suffix):
                want = list(prof.total[frag.start - 1:frag.end])
                if rule.reflexive:
                    if frag.kind == "prefix":
                        want[-1] = prof.left[rule.i - 1]
                    else:
                        want[0] = prof.right[rule.i - 1]
                assert _fragment_degrees(frag) == want, (g, rule, frag.kind)
    assert cuts > 9711

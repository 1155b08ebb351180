import gc
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given

from graphsplice import (
    CapExceededError,
    PlfGraph,
    check_bipartite_criterion,
    check_cycle_theorem,
    check_degree_balance,
    check_iso_splice,
    check_power_formula,
    check_splice_theorems,
    complete,
    cut,
    cycle,
    cycle_certificate,
    double_edge,
    has_cycle,
    join,
    path,
    valid_rules,
    verify_all,
)
from graphsplice import analysis, splicing
from graphsplice.analysis import graphs_up_to
from graphsplice.graphs import DegreeProfile
from graphsplice.splicing import directions
from conftest import plf_graphs
import oracles
from oracles import (
    pairwise_iso_sweep,
    pairwise_law_sweep,
    sigma_pair_regularity_report,
)

ORDER4_TREE = PlfGraph(4, ((1, 3), (2, 4), (1, 4)))


def test_power_formula_sweep():
    report = check_power_formula(5)
    assert report.status == "verified"
    assert report.instances_checked == 4306
    assert report.violations == ()


def test_degree_balance_sweep():
    report = check_degree_balance(5)
    assert report.status == "verified"
    assert report.instances_checked == 1099


def test_degree_balance_compares_each_position(monkeypatch):
    # swapped sides still balance in sum, so only the per-position
    # comparison with left_degree and right_degree can catch this
    real = analysis.degree_profile

    def swapped(g):
        prof = real(g)
        return DegreeProfile(prof.right, prof.left)

    monkeypatch.setattr(analysis, "degree_profile", swapped)
    report = check_degree_balance(3)
    assert report.status == "violated"


def test_graphs_up_to_cap():
    with pytest.raises(CapExceededError):
        list(graphs_up_to(7))


def test_splice_law_sweep_small():
    reports = {r.check_id: r for r in check_splice_theorems(3, 3)}
    for law in ("product-count", "reversal", "degree-preservation",
                "order-bound"):
        assert reports[law].status == "verified", law
    # achievability failures count as order-bound violations, so a
    # verified report covers both halves of the claim
    assert "violations_total" not in reports["order-bound"].extras


def test_splice_law_sweep_matches_the_pairwise_oracle():
    reports = {r.check_id: r for r in check_splice_theorems(3, 3)}
    bound = reports["order-bound"].extras
    combos, products, oversize, degrees = pairwise_law_sweep(list(graphs_up_to(3)), 3)
    assert (bound["combos"], bound["products_built"],
            bound["oversize_edge_counts"]) == (combos, products, oversize)
    assert degrees == 0
    assert "violations_total" not in reports["degree-preservation"].extras


def test_splice_law_sweep_order4_counts():
    # fragments shared by many cuts weigh in by multiplicity here, which
    # the order-3 oracle comparison exercises far less
    reports = {r.check_id: r for r in check_splice_theorems(4, 3)}
    bound = reports["order-bound"]
    assert reports["product-count"].instances_checked == 52627
    assert bound.instances_checked == 129094
    assert bound.extras["oversize_edge_counts"] == 2066


def test_splice_law_sweep_joins_each_weldable_pair_once(monkeypatch):
    # a tally may only come from a pair the sweep joined: it joins every
    # weldable fragment pair once, then one order-bound witness per pair
    # of operand orders
    calls = []
    join = splicing.join

    def counted(prefix, suffix):
        calls.append((prefix, suffix))
        return join(prefix, suffix)

    monkeypatch.setattr(splicing, "join", counted)
    for order, total, distinct in ((3, 229, 220), (4, 9743, 9727)):
        calls.clear()
        check_splice_theorems(order, 3)
        assert len(calls) == total
        sweep = calls[:-order * order]
        assert len(sweep) == len(set(sweep)) == distinct
    # at order 4 those are the pairs of a prefix and a suffix cut to one
    # shape, of power at most 3
    cuts = [c for g in graphs_up_to(4) for c in (cut(g, r) for r in valid_rules(g))
            if c.power <= 3]
    assert set(sweep) == {(a.prefix, b.suffix)
                          for a in cuts for b in cuts if a.shape == b.shape}


def test_splice_law_sweep_counts_degrees_once_per_fragment_group(monkeypatch):
    # a pair whose products equal their rebuilds carries its groups'
    # degree checks, so a sweep that finds nothing wrong counts degrees
    # once per prefix group and once per suffix group, never per product
    calls = []
    degrees = analysis.degrees

    def counted(*args):
        calls.append(args)
        return degrees(*args)

    monkeypatch.setattr(analysis, "degrees", counted)
    for order, groups in ((3, 54), (4, 410)):
        calls.clear()
        check_splice_theorems(order, 3)
        index = analysis._cut_groups(list(graphs_up_to(order)), 3)
        assert len(calls) == groups == sum(len(p) + len(s) for p, s in index.values())


def traced(run):
    # (current, peak) bytes, read while run's result is still held
    gc.collect()
    tracemalloc.start()
    try:
        result = run()  # noqa: F841
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_splice_law_sweep_memory_stays_per_pair():
    # The sweep holds its corpus and fragment index plus one pair's
    # products and rebuilds at a time.  On Python 3.11 the peak was 1.28
    # to 1.30 times what the corpus and index hold, and 1.54 to 1.57 when
    # a prefix group's joins were all built before any was checked.  The
    # bound leaves room for the index to weigh a third less on another
    # Python with the same transient bytes.
    def corpus_and_index():
        corpus = list(graphs_up_to(4))
        return corpus, analysis._cut_groups(corpus, 3)

    held, _ = traced(corpus_and_index)
    _, peak = traced(lambda: check_splice_theorems(4, 3))
    assert peak <= 1.5 * held


def _totals(reports):
    return {r.check_id: r.extras.get("violations_total", 0) for r in reports}


def _report_sha256(reports):
    # the report JSON as `graphsplice verify` prints it, so a sweep that
    # reorders or rewords its samples changes the digest
    text = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _lossy(prefix, suffix, join=splicing.join):
    return [PlfGraph(p.order, p.edges[:-1]) for p in join(prefix, suffix)]


def _last_lossy(prefix, suffix, join=splicing.join):
    # only the last product of each pair loses an edge, so the products
    # before it pass reversal and the per-product degree count starts
    # partway through the pair
    *rest, p = join(prefix, suffix)
    return [*rest, PlfGraph(p.order, p.edges[:-1])]


def test_reversal_check_catches_a_misrouted_join(monkeypatch):
    # rotate the product list by one: for m >= 2 every product lands on
    # the wrong bijection, while its degrees stay right
    join = splicing.join

    def misrouted(prefix, suffix):
        built = join(prefix, suffix)
        return built[1:] + built[:1]

    monkeypatch.setattr(splicing, "join", misrouted)
    reports = {r.check_id: r for r in check_splice_theorems(3, 3)}
    assert reports["reversal"].status == "violated"
    assert reports["degree-preservation"].status == "verified"
    assert _totals(reports.values())["reversal"] == 4
    assert _report_sha256(reports.values()) == (
        "09facd7518800a2cc6b78bb8528016120f71eba2c6beb6ed417b47963e117a82")


def test_reversal_check_catches_a_join_with_unsorted_edges(monkeypatch):
    # the check compares against a presorted rebuild, so edges in any
    # other order are a violation; the degrees do not see the order
    join = splicing.join

    def unsorted(p):
        # validation would sort the edges again, so the graph is built
        # past it, as join builds its products
        g = object.__new__(PlfGraph)
        vars(g).update(order=p.order, edges=p.edges[::-1])
        return g

    def reversed_edges(prefix, suffix):
        return [unsorted(p) for p in join(prefix, suffix)]

    monkeypatch.setattr(splicing, "join", reversed_edges)
    reports = {r.check_id: r for r in check_splice_theorems(3, 3)}
    assert reports["reversal"].status == "violated"
    assert reports["degree-preservation"].status == "verified"
    assert _totals(reports.values())["reversal"] == 277
    assert _report_sha256(reports.values()) == (
        "e457f7d008671f539626556dc3019ca5e558bdebe907f7956e0226e0c74d14d8")


def _check_drop(monkeypatch, mutation, reversal, degree, digest):
    # an edgeless product loses nothing, so fewer than all 1,558 products
    # change their degrees; the sigma_pair oracle counts the same ones
    monkeypatch.setattr(splicing, "join", mutation)
    reports = check_splice_theorems(3, 3)
    assert _totals(reports) == {"product-count": 0, "reversal": reversal,
                                "degree-preservation": degree, "order-bound": 0}
    assert _report_sha256(reports) == digest
    assert pairwise_law_sweep(list(graphs_up_to(3)), 3)[3] == degree


def test_degree_check_catches_a_join_that_drops_an_edge(monkeypatch):
    _check_drop(monkeypatch, _lossy, 522, 1076,
                "6a3a422c5a46453a374f38d103e38a756c3dc19c8460ea8d9aaa0b4143b6df6a")


def test_degree_check_catches_a_drop_from_the_last_product_only(monkeypatch):
    _check_drop(monkeypatch, _last_lossy, 522, 1044,
                "005f4cef070436022fb77d5d4750206fc21858985848503dbb6cf25f6d81fea9")


def test_degree_check_catches_a_drop_from_the_oversize_products(monkeypatch):
    # Only products with more edges than vertices lose an edge, so every
    # pair holding one fails reversal and runs the per-product loop.
    # Order 3 has 2 such products, hence order 4 here.
    # pairwise_law_sweep(list(graphs_up_to(4)), 3) gives (52,627, 129,094,
    # 666, 12,640) under this mutation; it takes seconds, so it is cited
    # here rather than run.
    join = splicing.join

    def trimmed(prefix, suffix):
        return [PlfGraph(p.order, p.edges[:-1]) if len(p.edges) > p.order else p
                for p in join(prefix, suffix)]

    monkeypatch.setattr(splicing, "join", trimmed)
    reports = check_splice_theorems(4, 3)
    assert _totals(reports) == {"product-count": 0, "reversal": 3601,
                                "degree-preservation": 12640, "order-bound": 0}
    bound = reports[-1]
    assert (bound.instances_checked, bound.extras["oversize_edge_counts"]) == (
        129094, 666)
    assert _report_sha256(reports) == (
        "ac0887e7729fdb3c1546e8d3cab31f2853d85933af0c64b5ca7ec73c87932345")


def _short(prefix, suffix, join=splicing.join):
    # every pair of power at least 1 loses its last product
    built = join(prefix, suffix)
    return built[:-1] if prefix.hanging else built


def _repeated(prefix, suffix, join=splicing.join):
    # every pair of power at least 1 gains a copy of its last product
    built = join(prefix, suffix)
    return [*built, built[-1]] if prefix.hanging else built


@pytest.mark.parametrize("mutation, digest", [
    (_short, "f83ee3d3cdee8d609f88dcdc9766516c3d4be621d5f99edd62fd3092a4729158"),
    (_repeated,
     "6dee6a4fa2b6faca256c8c02a21caa826a0d17a6e672e126ef1a178381b65339"),
], ids=["short", "repeated"])
def test_count_check_catches_a_join_with_the_wrong_product_count(
        monkeypatch, mutation, digest):
    # the products that are built are all right, so only the count fails
    monkeypatch.setattr(splicing, "join", mutation)
    reports = check_splice_theorems(3, 3)
    assert _totals(reports) == {"product-count": 113, "reversal": 0,
                                "degree-preservation": 0, "order-bound": 0}
    assert _report_sha256(reports) == digest


def test_count_check_reports_a_power0_pair_with_two_products(monkeypatch):
    # every pair gains a copy of its last product, power 0 included, so
    # the order-bound witnesses, which are power-0 pairs, get two
    # products each: the witness reads the first and the sweep reports
    # every combo as a count violation
    join = splicing.join

    def repeated(prefix, suffix):
        built = join(prefix, suffix)
        return [*built, built[-1]]

    monkeypatch.setattr(splicing, "join", repeated)
    reports = check_splice_theorems(3, 3)
    assert _totals(reports) == {"product-count": 763, "reversal": 0,
                                "degree-preservation": 0, "order-bound": 0}
    assert _report_sha256(reports) == (
        "ccb60a5e9ed646264d74b871e3939d8985d5dbd9c2d4281738d3a21e67d58a7e")


def test_degree_check_reads_the_source_profile(monkeypatch):
    # the products are right and only the expected degrees are off, so
    # every product fails the degree law while reversal still holds
    real = analysis.degree_profile

    def high(g):
        prof = real(g)
        return DegreeProfile((prof.left[0] + 1, *prof.left[1:]), prof.right)

    monkeypatch.setattr(analysis, "degree_profile", high)
    reports = check_splice_theorems(3, 3)
    assert _totals(reports) == {"product-count": 0, "reversal": 0,
                                "degree-preservation": 1558, "order-bound": 0}
    assert _report_sha256(reports) == (
        "54a5557b656a13b50653b614a8dd763787c50e589b650831b593814e8ac54d3f")


def test_order_bound_check_catches_a_join_that_adds_a_vertex(monkeypatch):
    join = splicing.join

    def padded(prefix, suffix):
        return [PlfGraph(p.order + 1, p.edges) for p in join(prefix, suffix)]

    monkeypatch.setattr(splicing, "join", padded)
    reports = {r.check_id: r for r in check_splice_theorems(3, 3)}
    assert reports["order-bound"].status == "violated"
    assert _totals(reports.values()) == {
        "product-count": 0, "reversal": 763, "degree-preservation": 1558,
        "order-bound": 363}
    assert _report_sha256(reports.values()) == (
        "5f19d8f8c260e87b9d6fa1330fcc00475c4c40262ba1bb32704ea0dd96d1641d")


def test_splice_law_sweep_reports_only_its_laws():
    assert [r.check_id for r in check_splice_theorems(2, 3)] == [
        "product-count", "reversal", "degree-preservation", "order-bound",
    ]


def test_regularity_exceptions_are_all_reflexive():
    reg = analysis._regularity_report()
    assert reg.status == "violated"
    assert reg.extras["violations_total"] == 104
    assert reg.extras["gap_rule_violations"] == 0


def test_regularity_report_joins_each_pair_once(monkeypatch):
    # 7,288 instances over all cut combinations come from 3,306 products
    # of 178 distinct (prefix, suffix) pairs, each joined once
    calls = []
    join = splicing.join

    def counted(prefix, suffix):
        built = join(prefix, suffix)
        calls.append(((prefix, suffix), len(built)))
        return built

    monkeypatch.setattr(splicing, "join", counted)
    reg = analysis._regularity_report()
    assert len(calls) == len(dict(calls)) == 178
    assert sum(n for _pair, n in calls) == 3306
    assert reg.instances_checked == 7288


def test_regularity_report_matches_the_sigma_pair_oracle():
    # instance counts, totals, the first samples and their order
    assert analysis._regularity_report().to_dict() == \
        sigma_pair_regularity_report().to_dict()


def test_regularity_samples_of_positive_power_match_the_oracle(monkeypatch):
    # Every real sample is a power-0 product with bijection (); counting
    # every product of power at least 1 as irregular puts other
    # bijections and both directions among the samples.
    corpus = [cycle(3), cycle(4), cycle(5), cycle(6), complete(4), complete(5)]
    cuts = [cut(g, c) for g in corpus for c in valid_rules(g)]
    keep = set(corpus) | {p for cg in cuts if cg.power == 0 for ch in cuts
                          for _d, pre, suf in directions(cg, ch)
                          for p in join(pre, suf)}
    real = analysis.is_regular

    def power_zero_only(g):
        return real(g) if g in keep else None

    monkeypatch.setattr(analysis, "is_regular", power_zero_only)
    monkeypatch.setattr(oracles, "is_regular", power_zero_only)
    report = analysis._regularity_report().to_dict()
    bijections = {s[0].rsplit("bijection ", 1)[1] for s in report["violations"]}
    assert {"(0, 1)", "(1, 0)"} <= bijections
    assert report == sigma_pair_regularity_report().to_dict()


def test_fixed_witness_reports():
    reports = {r.check_id: r for r in (analysis._noncommutativity_report(),
                                       analysis._kn_symmetry_report(),
                                       analysis._simplicity_report())}
    assert reports["noncommutativity"].status == "verified"
    assert reports["kn-degree-symmetry"].status == "verified"
    assert reports["kn-degree-symmetry"].instances_checked == 36
    assert reports["simplicity-nonclosure"].status == "verified"
    assert reports["simplicity-nonclosure"].extras["non_simple_products"] == 2


def test_certificate_on_a_triangle():
    cert = cycle_certificate(cycle(3))
    assert cert.witness_edge == (1, 3)
    assert cert.powers == (2, 2)
    assert [str(r) for r in cert.gap_rules] == ["[1,2]", "[2,3]"]


def test_certificate_on_the_order4_tree():
    # acyclic, yet every gap under (1,4) is crossed twice
    cert = cycle_certificate(ORDER4_TREE)
    assert cert is not None
    assert cert.witness_edge == (1, 4)
    assert cert.powers == (2, 3, 2)
    assert not has_cycle(ORDER4_TREE)


def test_certificate_on_a_double_edge():
    cert = cycle_certificate(double_edge())
    assert cert.witness_edge == (1, 2)
    assert cert.powers == (2,)


def test_certificate_absent_on_paths():
    assert cycle_certificate(path(4)) is None
    assert cycle_certificate(PlfGraph(3, ())) is None


@given(plf_graphs())
def test_certificate_revalidates(g):
    cert = cycle_certificate(g)
    if cert is None:
        return
    a, b = cert.witness_edge
    assert g.multiplicity(a, b) >= 1
    assert len(cert.gap_rules) == b - a
    for rule, p in zip(cert.gap_rules, cert.powers):
        assert a <= rule.i < b
        assert p == cut(g, rule).power
        assert p > 1


@given(plf_graphs())
def test_cyclic_graphs_always_certify(g):
    if has_cycle(g):
        assert cycle_certificate(g) is not None


def test_cycle_theorem_sweep():
    report = check_cycle_theorem(6)
    assert report.status == "verified"
    assert report.instances_checked == 33867
    assert report.extras["converse_exceptions"] == 3086
    tree_str = str(ORDER4_TREE)
    assert any(tree_str in s for s in report.extras["converse_samples"])


def test_bipartite_criterion_sweep():
    report = check_bipartite_criterion(6)
    assert report.status == "verified"
    assert report.instances_checked == 33867
    assert report.extras["unique_full_power_graphs"] == 928


def test_iso_splice_small_sweep():
    report = check_iso_splice(4)
    assert report.status == "verified"
    assert report.instances_checked == 18850
    assert report.extras["isomorphic_pairs"] == 579
    assert report.extras["same_order_products"] == 7490
    assert report.extras["converse_exceptions"] == 1508


def test_iso_splice_matches_the_pairwise_oracle():
    report = check_iso_splice(3)
    assert (report.instances_checked, report.extras["same_order_products"],
            report.extras["converse_exceptions"]) == pairwise_iso_sweep(
                list(graphs_up_to(3)))


def test_iso_splice_joins_only_same_rule_pairs(monkeypatch):
    # a prefix cut at ia welded to a suffix cut at ib has order
    # n + ia - ib, so only the 643 pairs of groups cut by one rule can
    # keep the operands' order; joining every pair of one shape makes
    # 2,662 calls.  Those 643 cover 519 distinct fragment pairs: a pair
    # found in several classes is joined in each, so nothing is held
    # from one class to the next
    calls = []
    join = splicing.join

    def counting_join(prefix, suffix):
        calls.append((prefix, suffix))
        return join(prefix, suffix)

    monkeypatch.setattr(splicing, "join", counting_join)
    check_iso_splice(4)
    assert len(calls) == 643
    assert len(set(calls)) == 519


def test_iso_splice_holds_nothing_across_classes():
    # with the canonical-form cache warm, the sweep over a held corpus
    # holds one class's fragment groups and one pair's products at a
    # time: its peak was 0.12 times the corpus on Python 3.11, and 0.57
    # when every distinct pair's product keys were kept for later classes
    held, _ = traced(lambda: analysis._Corpus(4))
    corpus = analysis._Corpus(4)
    check_iso_splice(4, corpus)
    _, peak = traced(lambda: check_iso_splice(4, corpus))
    assert peak <= 0.3 * held


def test_verify_all_enumerates_and_cuts_its_corpus_once(monkeypatch):
    # the sweeps of one verify_all call share its corpus: orders 1 to 4
    # are enumerated once and each of their 75 graphs is cut once by each
    # rule, 495 cuts, beside the 32 cuts of the order-bound witnesses and
    # the 48 of the regularity report's six graphs.  Each sweep
    # enumerating and cutting for itself made 24 enumerations and 1,280
    # cuts
    cuts, orders = [], []
    cut, enumerate_simple_graphs = analysis.cut, analysis.enumerate_simple_graphs

    def counting_cut(g, rule):
        cuts.append((g, rule))
        return cut(g, rule)

    def counting_enumerate(n):
        orders.append(n)
        return enumerate_simple_graphs(n)

    monkeypatch.setattr(analysis, "cut", counting_cut)
    monkeypatch.setattr(analysis, "enumerate_simple_graphs", counting_enumerate)
    verify_all(4, 3)
    assert orders == [1, 2, 3, 4]
    assert len(cuts) == 575


def test_verify_all_refuses_an_order_past_the_cap_before_any_work(monkeypatch):
    # order 7 is past ENUMERATION_CAP: the call raises before its corpus
    # enumerates or cuts anything
    calls = []
    monkeypatch.setattr(analysis, "cut", lambda *a: calls.append("cut"))
    monkeypatch.setattr(analysis, "enumerate_simple_graphs",
                        lambda n: calls.append(n) or iter(()))
    with pytest.raises(CapExceededError, match="sweep order 7 exceeds cap 6"):
        verify_all(7, 3)
    assert calls == []


@pytest.mark.parametrize("order", [3, 4])
def test_verify_all_matches_each_checker_called_alone(order):
    # verify_all's sweeps read its shared corpus, a checker called alone
    # enumerates and cuts for itself; both give the same report
    alone = [
        check_power_formula(order),
        check_degree_balance(order),
        *check_splice_theorems(order, 3),
        analysis._noncommutativity_report(),
        analysis._regularity_report(),
        analysis._kn_symmetry_report(),
        analysis._simplicity_report(),
        check_cycle_theorem(order),
        check_iso_splice(order),
        check_bipartite_criterion(order),
    ]
    assert ([r.to_dict() for r in verify_all(order, 3)] ==
            [r.to_dict() for r in alone])


def test_verify_all_covers_every_check():
    reports = verify_all(max_order=3, max_power=3)
    ids = [r.check_id for r in reports]
    assert ids == [
        "power-formula",
        "degree-balance",
        "product-count",
        "reversal",
        "degree-preservation",
        "order-bound",
        "noncommutativity",
        "regularity-preservation",
        "kn-degree-symmetry",
        "simplicity-nonclosure",
        "cycle-certificate",
        "iso-order",
        "bipartite-full-power",
    ]
    failing = [r.check_id for r in reports if not r.ok]
    assert failing == ["regularity-preservation"]


def test_report_serialization():
    report = check_power_formula(3)
    payload = report.to_dict()
    assert payload["check"] == "power-formula"
    assert payload["status"] == "verified"
    assert payload["violations"] == []
    assert isinstance(payload["extras"], dict)

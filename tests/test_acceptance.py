"""The acceptance gate: sixteen checks, one summary line each.

Every criterion computes its verdict, records it for the terminal
summary (printed by the conftest hook after the run), and then asserts.
One more test pins the bytes of the default `verify` output, built
from the reports that the law_sweep fixture computes once for several
criteria, and two more derive the sweeps' counts from arithmetic.
The regularity check is a strict expected failure: vertex-splitting
rule pairs rebuild the merged vertex with degree ld(i) + rd(j), which
the degree-preservation law requires, and that degree need not match
the operands' regular degree.  The smallest counterexample, splitting
two triangles at their extreme vertices, yields a single vertex of
degree 0 or a figure-eight vertex of degree 4.  The test records an honest FAIL
line rather than weakening either law.
"""

import hashlib
import json
import subprocess
import sys
from math import factorial
from time import perf_counter

import pytest

from graphsplice import (
    LanguageConfig,
    PlfGraph,
    SplicingSystem,
    canonical_form,
    complete,
    cycle,
    cycle_certificate,
    degree_profile,
    double_edge,
    has_cycle,
    is_isomorphic,
    is_simple,
    language,
    make_rule,
    path,
    sigma_pair,
)
from graphsplice.analysis import (
    _kn_symmetry_report,
    _noncommutativity_report,
    _simplicity_report,
    check_bipartite_criterion,
    check_cycle_theorem,
    check_degree_balance,
    check_power_formula,
    check_splice_theorems,
    verify_all,
)
from graphsplice.cli import main
from graphsplice.formats import parse_graph, to_dot, write_graph, write_system
from conftest import ACCEPTANCE_RESULTS, child_env
from oracles import (
    REGULARITY_GRAPHS,
    linear_sweep_counts,
    regularity_instances,
    sweep_counts,
)

RULE_12_23 = make_rule((1, 2), (2, 3))


def record(number, label, passed, detail=""):
    ACCEPTANCE_RESULTS.append((number, label, bool(passed), detail))


# sha256 of the default `graphsplice verify` stdout (order 5, power 3),
# which prints every report of verify_all(5, 3) as JSON and exits 1
# because regularity-preservation is violated by design
VERIFY_DEFAULT_SHA256 = (
    "ce1d65c04e086a5352e61a244c4bee1388d95f3ac27248103723bfb5405723b8")


@pytest.fixture(scope="module")
def law_sweep():
    # one run of every check at verify's defaults, in verify order, keyed
    # by check id; the law sweep in it pairs all simple graphs of order
    # up to 5 at power up to 3, and several criteria read from it
    return {r.check_id: r for r in verify_all(5, 3)}


def test_default_verify_report_bytes_are_pinned(law_sweep):
    out = json.dumps([r.to_dict() for r in law_sweep.values()],
                     indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DEFAULT_SHA256


def _sweep_note(reports):
    # the law sweep's (pairs, combos, products, oversize) from its four
    # reports, in sweep order; combos and products are also their
    # instance counts
    note = reports[3].extras
    pairs, combos, products = note["pairs"], note["combos"], note["products_built"]
    assert [r.instances_checked for r in reports] == [combos, combos, products, products]
    return pairs, combos, products, note["oversize_edge_counts"]


def test_law_sweep_counts_follow_from_arithmetic(law_sweep):
    # the closed form enumerates and cuts no graph, so it checks the
    # pinned counts apart from the sweep and its oracle
    for n in range(1, 5):
        for p in range(4):
            assert _sweep_note(check_splice_theorems(n, p)) == sweep_counts(n, p), (n, p)
    assert sweep_counts(5, 3) == (1099 ** 2, 13167059, 49283782, 2493444)
    checks = ("product-count", "reversal", "degree-preservation", "order-bound")
    assert _sweep_note([law_sweep[c] for c in checks]) == sweep_counts(5, 3)


# the checks that read every graph up to the order bound, one instance
# per graph, and the power formula, one per gap rule
LINEAR_SWEEPS = ("degree-balance", "cycle-certificate", "bipartite-full-power")


def _linear_counts(reports):
    # (graphs, gap rules, regularity instances) as the reports give them
    graphs = {reports[c].instances_checked for c in LINEAR_SWEEPS}
    assert len(graphs) == 1, graphs
    return (graphs.pop(), reports["power-formula"].instances_checked,
            reports["regularity-preservation"].instances_checked)


def test_linear_sweep_counts_follow_from_arithmetic(law_sweep):
    # every order up to the bound is read exactly once: the held corpus
    # and the orders streamed past it neither overlap nor leave a gap
    regularity = regularity_instances(REGULARITY_GRAPHS)
    assert regularity == 7288
    for n in range(1, 5):
        reports = {r.check_id: r for r in verify_all(n, 3)}
        assert _linear_counts(reports) == (*linear_sweep_counts(n), regularity), n
    assert _linear_counts(law_sweep) == (*linear_sweep_counts(5), regularity)
    assert linear_sweep_counts(6) == (33867, 168146)
    assert check_degree_balance(6).instances_checked == linear_sweep_counts(6)[0]


def test_criterion_01_k5_cut(tmp_path, capsys):
    k5 = tmp_path / "k5.plfg"
    k5.write_text(write_graph(complete(5)))
    t0 = perf_counter()
    code = main(["cut", "--rule", "2,3", str(k5)])
    elapsed = perf_counter() - t0
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and payload["power"] == 6
        and payload["power_formula_left"] == 6
        and payload["power_formula_right"] == 6
        and sorted(payload["ecut"])
        == [[1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5]]
        and payload["vcut"] is None
        and payload["prefix"]["intact"] == [[1, 2]]
        and payload["suffix"]["intact"] == [[3, 4], [3, 5], [4, 5]]
        and elapsed < 1.0
    )
    record(1, "k5 gap cut", ok, f"power 6, {elapsed * 1000:.0f} ms")
    assert ok, payload


def test_criterion_02_two_axiom_first_step():
    system = SplicingSystem((cycle(3), cycle(4)), (RULE_12_23,))
    t0 = perf_counter()
    result = language(system, LanguageConfig(max_iterations=1, max_order=8))
    elapsed = perf_counter() - t0
    raw = result.trace[1].raw_products
    expected = {
        canonical_form(cycle(3)),
        canonical_form(cycle(4)),
        canonical_form(cycle(5)),
        canonical_form(double_edge()),
    }
    ok = (
        raw == 16
        and len(result.classes) == 4
        and set(result.classes) == expected
        and elapsed < 1.0
    )
    record(2, "two-axiom first step", ok,
           f"16 raw products, 4 classes, {elapsed * 1000:.0f} ms")
    assert ok, (raw, len(result.classes))


def test_criterion_03_power_formula():
    t0 = perf_counter()
    rep = check_power_formula(5)
    elapsed = perf_counter() - t0
    ok = rep.ok and rep.instances_checked == 4306 and elapsed < 30.0
    record(3, "power formula", ok,
           f"{rep.instances_checked} graph-rule pairs, {elapsed:.1f} s")
    assert ok, rep.to_dict()


def test_criterion_04_degree_balance():
    rep = check_degree_balance(5)
    ok = rep.ok and rep.instances_checked == 1099
    record(4, "degree balance", ok, f"{rep.instances_checked} graphs")
    assert ok, rep.to_dict()


def test_criterion_05_product_cardinality(law_sweep):
    rep = law_sweep["product-count"]
    direct = len(sigma_pair(cycle(3), cycle(4), RULE_12_23))
    ok = rep.ok and direct == 2 * factorial(2)
    record(5, "product cardinality", ok,
           f"{rep.extras['combos']} combos, {rep.extras['products_built']} products")
    assert ok, rep.to_dict()


def test_criterion_06_reversal_identity(law_sweep):
    rep = law_sweep["reversal"]
    ok = rep.ok and rep.extras["pairs"] == 1099 ** 2
    record(6, "reversal identity", ok, f"{rep.extras['pairs']} ordered pairs")
    assert ok, rep.to_dict()


def test_criterion_07_degree_preservation(law_sweep):
    rep = law_sweep["degree-preservation"]
    ok = rep.ok and rep.extras["products_built"] == 49283782
    record(7, "degree preservation", ok,
           f"{rep.extras['products_built']} products")
    assert ok, rep.to_dict()


@pytest.mark.xfail(
    strict=True,
    reason="vertex-splitting rule pairs rebuild the merged vertex with "
    "degree ld(i)+rd(j), which need not equal the operands' regular "
    "degree; splitting two triangles at their extreme vertices is the "
    "smallest counterexample",
)
def test_criterion_08_regularity_preservation(law_sweep):
    rep = law_sweep["regularity-preservation"]
    detail = (
        f"{rep.extras['violations_total']} non-regular products, all from "
        f"vertex-splitting rule pairs (straddling rules: "
        f"{rep.extras['gap_rule_violations']} violations)"
    )
    record(8, "regularity preservation", rep.ok, detail)
    assert rep.ok, rep.to_dict()


def test_criterion_09_order_bound(law_sweep):
    rep = law_sweep["order-bound"]
    # achievability failures count as violations here, so a verified
    # status certifies both the bound and that splitting the first
    # operand's last vertex against the second's first reaches it
    ok = rep.ok and rep.extras["oversize_edge_counts"] == 2493444
    record(9, "order bound and achievability", ok,
           f"bound holds, {rep.extras['oversize_edge_counts']} products "
           f"exceed it in edge count")
    assert ok, rep.to_dict()


def test_criterion_10_complete_graph_symmetry():
    rep = _kn_symmetry_report()
    direct = True
    for n in range(1, 9):
        prof = degree_profile(complete(n))
        for i in range(1, n + 1):
            if prof.right[i - 1] != prof.left[n - i]:
                direct = False
    ok = rep.ok and direct
    record(10, "complete graph degree symmetry", ok, "orders 1..8")
    assert ok, rep.to_dict()


def test_criterion_11_noncommutativity_and_simplicity():
    nc = _noncommutativity_report()
    sp = _simplicity_report()
    forward = {canonical_form(p.graph)
               for p in sigma_pair(cycle(3), cycle(4), RULE_12_23)}
    backward = {canonical_form(p.graph)
                for p in sigma_pair(cycle(4), cycle(3), RULE_12_23)}
    non_simple = [p.graph for p in sigma_pair(cycle(3), cycle(3), RULE_12_23)
                  if not is_simple(p.graph)]
    ok = (
        nc.ok and sp.ok
        and forward != backward
        and len(non_simple) == 2
        and all(is_isomorphic(g, double_edge()) for g in non_simple)
    )
    record(11, "noncommutativity and simplicity witnesses", ok,
           "class sets differ; doubled edge produced")
    assert ok, (nc.to_dict(), sp.to_dict())


def test_criterion_12_cycle_certificates():
    t0 = perf_counter()
    rep = check_cycle_theorem(6)
    elapsed = perf_counter() - t0
    tree = PlfGraph(4, ((1, 3), (1, 4), (2, 4)))
    tree_cert = cycle_certificate(tree)
    tree_sampled = any(
        "PLF(order=4, edges=[(1,3), (1,4), (2,4)])" in s
        for s in rep.extras["converse_samples"]
    )
    ok = (
        rep.ok
        and rep.instances_checked == 33867
        and rep.extras["converse_exceptions"] == 3086
        and not has_cycle(tree)
        and tree_cert is not None
        and tree_sampled
        and elapsed < 300.0
    )
    record(12, "cycle certificates", ok,
           f"{rep.instances_checked} graphs, "
           f"{rep.extras['converse_exceptions']} converse exceptions, "
           f"{elapsed:.1f} s")
    assert ok, rep.to_dict()


def test_criterion_13_full_power_bipartite():
    rep = check_bipartite_criterion(6)
    ok = rep.ok and rep.extras["unique_full_power_graphs"] == 928
    record(13, "full-power bipartiteness", ok,
           f"{rep.instances_checked} graphs, "
           f"{rep.extras['unique_full_power_graphs']} with a unique full rule")
    assert ok, rep.to_dict()


def test_criterion_14_iso_order(law_sweep):
    rep = law_sweep["iso-order"]
    ok = (
        rep.ok
        and rep.extras["isomorphic_pairs"] == 48075
        and rep.extras["converse_exceptions"] == 1045652
        and len(rep.extras["converse_samples"]) > 0
    )
    record(14, "isomorphic operand order", ok,
           f"{rep.extras['isomorphic_pairs']} pairs, "
           f"{rep.extras['converse_exceptions']} converse exceptions")
    assert ok, rep.to_dict()


def test_criterion_15_closure_determinism(tmp_path):
    system = SplicingSystem((cycle(3),), (RULE_12_23,))
    config = LanguageConfig(max_iterations=10, max_order=8)
    sys_file = tmp_path / "triangle.system"
    sys_file.write_text(write_system(system, config))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "graphsplice", "lang", str(sys_file)],
            capture_output=True, env=child_env(),
        )
        for _ in range(2)
    ]
    result = language(system, config)
    hand = {canonical_form(p.graph)
            for p in sigma_pair(cycle(3), cycle(3), RULE_12_23)}
    hand.add(canonical_form(cycle(3)))
    by_first = {key for key, info in result.classes.items()
                if info.iteration <= 1}
    ok = (
        runs[0].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and len(runs[0].stdout) > 0
        and result.saturated
        and by_first == hand
    )
    record(15, "closure determinism", ok,
           f"byte-identical runs, saturated with {len(result.classes)} classes")
    assert ok, (runs[0].returncode, result.saturated)


def test_criterion_16_format_round_trip():
    multi = PlfGraph(5, ((1, 2), (1, 2), (2, 3), (3, 5), (3, 5), (2, 4)))
    corpus = [
        PlfGraph(1, ()),
        PlfGraph(2, ()),
        cycle(3),
        cycle(4),
        complete(5),
        path(6),
        double_edge(),
        multi,
    ]
    round_trips = all(parse_graph(write_graph(g)) == g for g in corpus)
    pinned = True
    for g in corpus:
        dot = to_dot(g)
        for v in range(1, g.order + 1):
            if f'{v} [pos="{v},0!"];' not in dot:
                pinned = False
    ok = round_trips and pinned
    record(16, "format round-trip", ok,
           f"{len(corpus)} graphs incl. multigraphs; positions pinned")
    assert ok

"""Verification of the engine's structural laws.

Six checkers sweep every labeled simple graph up to an order bound, four
take none (regularity-preservation reads six fixed regular graphs, the
rest fixed witnesses); each compares engine output against an independent
oracle (direct counting, DFS, 2-coloring, edge lists rebuilt apart from
join).  Asserted laws must hold with zero violations; converse directions
that are false for some layouts are tallied in a report's extras instead.

verify_all builds one _Corpus per call and every sweep reads it: each
graph up to the pair sweeps' order cap is enumerated once and cut once
by every rule, for all six sweeps.  A checker called alone enumerates
and cuts for itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, permutations, repeat
from math import factorial

from . import splicing
from .cutting import CuttingRule, cut, power_by_formula, valid_rules
from .errors import CapExceededError, GraphSpliceError
from .graphs import (
    ENUMERATION_CAP,
    PlfGraph,
    canonical_form,
    complete,
    cycle,
    degree_profile,
    degrees,
    enumerate_simple_graphs,
    has_cycle,
    is_bipartite,
    is_regular,
    is_simple,
)
from .splicing import SplicingRule, directions, file_cut, make_rule, sigma_pair

SAMPLE_CAP = 20
CONVERSE_SAMPLE_CAP = 50

# the pair sweeps grow quadratically in the 2^C(n,2) corpus; past this
# order they stop being a desk-scale computation
PAIR_SWEEP_CAP = 5
KN_SYMMETRY_MAX_N = 8  # the degree-symmetry check reads K1..K8


@dataclass
class TheoremReport:
    check_id: str
    instances_checked: int
    violations: tuple  # (instance, expected, observed) triples, capped
    status: str  # "verified" | "violated"
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "violated"

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "instances_checked": self.instances_checked,
            "status": self.status,
            "violations": [list(v) for v in self.violations],
            "extras": self.extras,
        }


def _report(check_id, instances, violation_count, samples, extras=None):
    extras = dict(extras or {})
    if violation_count:
        extras["violations_total"] = violation_count
    status = "verified" if violation_count == 0 else "violated"
    return TheoremReport(check_id, instances, tuple(samples[:SAMPLE_CAP]),
                         status, extras)


def graphs_up_to(max_order: int, cap: int = ENUMERATION_CAP, start: int = 1):
    """Every labeled simple graph of order start..max_order."""
    if max_order > cap:
        raise CapExceededError(
            f"sweep order {max_order} exceeds cap {cap}"
        )
    for n in range(start, max_order + 1):
        yield from enumerate_simple_graphs(n)


class _Corpus:
    """What one verify_all call enumerates and cuts once for all its
    sweeps: graphs, every graph of order at most min(max_order,
    PAIR_SWEEP_CAP) in graphs_up_to order, and cuts, where cuts[row]
    holds the cuts of graphs[row] by every rule of valid_rules, gap
    rules first.  Only the linear sweeps read past that order, and
    _stream enumerates those graphs anew for each, so their graphs and
    cuts are never held: a cut of order 5 holds about 0.6 KB, and order 6
    has 360,448 of them.
    """

    def __init__(self, max_order: int):
        self.graphs = list(graphs_up_to(min(max_order, PAIR_SWEEP_CAP)))
        self.cuts = [[cut(g, r) for r in valid_rules(g)] for g in self.graphs]


def _stream(max_order: int, corpus: _Corpus | None):
    """(graph, its cuts or None) for every graph of order 1..max_order:
    the corpus's graphs with their cuts, then the graphs of any higher
    order, enumerated anew, whose cuts are the caller's to make."""
    held = zip(corpus.graphs, corpus.cuts) if corpus else ()
    start = PAIR_SWEEP_CAP + 1 if corpus else 1
    return chain(held, zip(graphs_up_to(max_order, start=start), repeat(None)))


def check_power_formula(max_order: int = 5, corpus: _Corpus | None = None) -> TheoremReport:
    """Severed-edge count of every gap rule equals both degree formulas."""
    instances = 0
    violations = []
    for g, cuts in _stream(max_order, corpus):
        gaps = valid_rules(g, include_reflexive=False)
        # valid_rules lists the gap rules first, so zip stops after them
        for rule, c in zip(gaps, cuts or map(partial(cut, g), gaps)):
            instances += 1
            direct = c.power
            left = power_by_formula(g, rule, "left")
            right = power_by_formula(g, rule, "right")
            if not direct == left == right:
                violations.append((
                    f"{g} rule {rule}", f"power {direct}",
                    f"left form {left}, right form {right}",
                ))
    return _report("power-formula", instances, len(violations), violations)


def check_degree_balance(max_order: int = 5, corpus: _Corpus | None = None) -> TheoremReport:
    """Right and left degrees balance: their difference sums to zero, each
    side alone counts the edges, and each position's split matches
    PlfGraph.left_degree and right_degree, counted apart from it."""
    instances = 0
    violations = []
    for g, _ in _stream(max_order, corpus):
        instances += 1
        prof = degree_profile(g)
        diff = sum(r - l for l, r in zip(prof.left, prof.right))
        total_r = sum(prof.right)
        total_l = sum(prof.left)
        split = list(zip(prof.left, prof.right))
        direct = [(g.left_degree(v), g.right_degree(v)) for v in range(1, g.order + 1)]
        if diff != 0 or total_r != g.size or total_l != g.size or split != direct:
            violations.append((
                str(g), f"sum(rd-ld)=0, sum(rd)=sum(ld)={g.size}, (ld, rd) {direct}",
                f"diff={diff}, sum(rd)={total_r}, sum(ld)={total_l}, (ld, rd) {split}",
            ))
    return _report("degree-balance", instances, len(violations), violations)


_LAW_EXPECTATIONS = {
    "count": "one product per hanging-edge bijection, per direction",
    "reversal": "the join equals Prefix(g)+Suffix(h) rebuilt from the edge lists",
    "degree": "every product vertex keeps its source-graph degree",
    "bound": "product order at most order(g)+order(h)-1",
}


def _cut_groups(graphs, max_power: int | None = None, cuts=None):
    """File every cut of every graph of power at most max_power by
    splicing.file_cut, with the graph's index in graphs as its row.
    cuts[row] holds the cuts of graphs[row] by every rule of
    valid_rules; without it each graph is cut here.

    Returns {shape: (prefix groups, suffix groups)}, each side's groups
    in filing order.
    """
    index: dict = {}
    for row, g in enumerate(graphs):
        for c in cuts[row] if cuts else map(partial(cut, g), valid_rules(g)):
            if max_power is None or c.power <= max_power:
                file_cut(index, c, row)
    return {k: (list(p.values()), list(s.values())) for k, (p, s) in index.items()}


def _halves(g: PlfGraph, i: int, reflexive: bool):
    """Split g's edge list around a cut at position i: the edges wholly
    left of it, those wholly right of it, and the left and right ends
    of the severed ones.  Shares no code with cut or join, so the sweep
    can rebuild every product from the edge lists alone.
    """
    left, right, left_ends, right_ends = [], [], [], []
    for u, v in g.edges:
        if v <= i:
            left.append((u, v))
        elif u > i or (u == i and reflexive):
            right.append((u, v))
        else:
            left_ends.append(u)
            right_ends.append(v)
    return left, right, left_ends, right_ends


def check_splice_theorems(max_order: int = 5, max_power: int = 3,
                          corpus: _Corpus | None = None) -> list[TheoremReport]:
    """Product-law sweep: the product-count, reversal, degree-preservation
    and order-bound reports, in that order.

    The sweep covers every ordered pair of labeled simple graphs up to
    max_order and every applicable cut combination (g by rule a, h by
    rule b) of power m at most max_power; each such combo builds the m!
    products of Prefix(g)+Suffix(h) and the m! of Prefix(h)+Suffix(g).
    Each graph is cut once and its cuts are filed by splicing.file_cut,
    whose docstring gives the filing rule, so join runs once per
    distinct fragment pair.  Tallies are weighted by the number of
    combos sharing the pair; over all ordered pairs a fragment pair is
    built once per direction, hence the 2.

    The laws: m! products per direction; each join equals Prefix(g)+
    Suffix(h) rebuilt from the edge lists under the sweep's own list of
    bijections in lexicographic order (the reversal identity, since
    direction 1 of (g, h) and direction 2 of (h, g) are both that graph);
    every vertex keeps its source degree; and the product order is at
    most order(g)+order(h)-1.  That bound's achievability is arithmetic:
    [n,n] and [1,1] always have power 0, so every ordered pair has that
    combo, and its join has order |g|+|h|-1; one join per pair of
    operand orders checks it.

    The degree law is checked once per fragment group, each side's
    degrees from _halves against its share of degree_profile.  A pair
    then takes one of two routes.  It is clean when both of its groups
    passed that check and its products equal their rebuilds, in one
    comparison.  A clean pair flags nothing: each product has its
    rebuild's degrees, by the group checks, and its rebuild's order
    nb + ia - ib, which is at most na + nb - 1 for every source order na
    of the prefix group because ia <= na and ib >= 1, so the order bound
    cannot fail on it.  It only adds its products and, for each source
    order whose bound its rebuilt edge count exceeds, its oversize
    tally.  Every other pair runs a plain loop: the count check, the
    first product that differs from its rebuild, then each product's
    degrees, order bound and edge count.  Samples are kept per law, so
    each law's samples follow the sweep order.
    """
    graphs = corpus.graphs if corpus else list(graphs_up_to(max_order, cap=PAIR_SWEEP_CAP))
    combos = products = oversize = 0
    counts = {"count": 0, "reversal": 0, "degree": 0, "bound": 0}
    samples: dict[str, list] = {k: [] for k in counts}

    def flag(kind, weight, pre, suf, detail):
        counts[kind] += weight
        if len(samples[kind]) < SAMPLE_CAP:
            ca, cb = pre.rep, suf.rep
            samples[kind].append((
                f"{ca.graph} with {cb.graph}, rules {ca.rule}:{cb.rule}",
                _LAW_EXPECTATIONS[kind], detail,
            ))

    for (m, unsplit), (pres, sufs) in _cut_groups(graphs, max_power,
                                                  corpus and corpus.cuts).items():
        reflexive = not unsplit
        combos += sum(len(pre.rows) for pre in pres) ** 2
        bijections = list(permutations(range(m)))
        want = len(bijections)
        # per suffix group: halves, cut position, order, the source
        # degrees of the cut position and of the positions after it (those
        # of every member, since a fragment fixes them), its group check
        suffix_parts = []
        for suf in sufs:
            gb, ib = suf.rep.graph, suf.rep.rule.i
            prof = degree_profile(gb)
            halves = _halves(gb, ib, reflexive)
            rd, tail = prof.right[ib - 1], list(prof.total[ib:])
            suffix_parts.append((suf, halves, ib, gb.order, rd, tail,
                                 degrees(gb.order, halves[1], halves[3]) ==
                                 [0] * (ib + 1 - reflexive) + [rd] * reflexive + tail))
        by_position: dict = {}
        for pre in pres:
            by_position.setdefault(pre.rep.rule.i, []).append(pre)
        for ia, group in by_position.items():
            # Prefix(g)+Suffix(h) from the edge lists: h's side shifts so
            # that its cut position lands on g's, once per suffix group
            # and cut position.  Every kept edge and every weld starts at
            # or before ia - reflexive, and every shifted suffix edge at or
            # after ia + 1 - reflexive, so sorted(kept + welds) followed by
            # the sorted suffix edges is sorted(kept + welds + suffix).
            # Each row also holds the group's fragment and row count.
            shifted = []
            for suf, (_, right, _, right_ends), ib, nb, rd, tail, suf_ok in suffix_parts:
                shift = ia - ib
                edges = tuple(sorted([(u + shift, v + shift) for u, v in right]))
                shifted.append((suf, suf.rep.suffix, len(suf.rows), nb, nb + shift,
                                rd, tail, edges, len(edges),
                                [a + shift for a in right_ends], suf_ok))
            for pre in group:
                ca = pre.rep
                kept, _, left_ends, _ = _halves(ca.graph, ia, reflexive)
                kept_edges = tuple(sorted(kept))
                prof = degree_profile(ca.graph)
                # a half-vertex merges ld(i) of the prefix with rd(j) of the suffix
                head = list(prof.total[:ia - reflexive])
                half = prof.left[ia - 1]
                pre_ok = degrees(ia, kept, left_ends)[1:] == head + [half] * reflexive
                npre = len(pre.rows)
                # the group's source orders, for the order bound
                orders = Counter(graphs[r].order for r in pre.rows)
                na_min = min(orders)
                for (suf, fragment, rows, nb, order, rd, tail, suffix_edges,
                     suffix_size, ends, suf_ok) in shifted:
                    built = splicing.join(ca.prefix, fragment)
                    n = len(built)
                    pairs = npre * rows
                    products += 2 * pairs * n
                    rebuilt = ([(order, tuple(sorted(kept + [(left_ends[t], ends[r[t]])
                                                             for t in range(m)]))
                                 + suffix_edges) for r in bijections] if m else
                               [(order, kept_edges + suffix_edges)])
                    # a clean pair, as the docstring says, flags nothing:
                    # only its edge count can exceed a bound
                    if pre_ok and suf_ok and (
                            n == want == 1 and (built[0].order, built[0].edges) == rebuilt[0]
                            or [(p.order, p.edges) for p in built] == rebuilt):
                        size = len(kept) + m + suffix_size
                        if size >= na_min + nb:
                            for na, k in orders.items():
                                if size > na + nb - 1:
                                    oversize += 2 * k * rows * n
                        continue
                    if n != want:
                        flag("count", pairs, pre, suf,
                             f"got {n} products, expected {want}")
                    for r, graph, p in zip(bijections, rebuilt, built):
                        if (p.order, p.edges) != graph:
                            flag("reversal", pairs, pre, suf,
                                 f"bijection {r} joined to {p}")
                            break
                    expected = [*head, half + rd, *tail] if reflexive else head + tail
                    for p in built:
                        deg = degrees(p.order, p.edges)
                        if deg[1:] != expected:
                            flag("degree", 2 * pairs, pre, suf,
                                 f"degrees {tuple(deg[1:])}, "
                                 f"expected {tuple(expected)}")
                        for na, k in orders.items():
                            bound = na + nb - 1
                            if p.order > bound:
                                flag("bound", 2 * k * rows, pre, suf,
                                     f"order {p.order} exceeds {bound}")
                            if len(p.edges) > bound:
                                oversize += 2 * k * rows

    by_order = Counter(g.order for g in graphs)
    first = {n: next(g for g in graphs if g.order == n) for n in by_order}
    for na, ga in first.items():
        for nb, gb in first.items():
            widest = splicing.join(cut(ga, (na, na)).prefix, cut(gb, (1, 1)).suffix)
            if not widest or widest[0].order != na + nb - 1:
                counts["bound"] += by_order[na] * by_order[nb]
                if len(samples["bound"]) < SAMPLE_CAP:
                    samples["bound"].append((
                        f"{ga} with {gb}, splitting rules [{na},{na}]:[1,1]",
                        f"order {na + nb - 1}", "maximal order not reached",
                    ))

    sweep_note = {
        "pairs": len(graphs) ** 2,
        "combos": combos,
        "products_built": products,
        "max_power": max_power,
    }
    return [
        _report("product-count", combos, counts["count"], samples["count"],
                sweep_note),
        _report("reversal", combos, counts["reversal"], samples["reversal"],
                sweep_note),
        _report("degree-preservation", products, counts["degree"],
                samples["degree"], sweep_note),
        _report("order-bound", products, counts["bound"], samples["bound"],
                {**sweep_note,
                 "oversize_edge_counts": oversize,
                 "note": "edge counts may exceed the bound; the asserted "
                         "bound is on order (vertex count)"}),
    ]


def _noncommutativity_report() -> TheoremReport:
    """Splicing is not commutative: swapping the operands of the running
    two-cycle example changes the class set."""
    s = make_rule((1, 2), (2, 3))
    forward = {canonical_form(p.graph) for p in sigma_pair(cycle(3), cycle(4), s)}
    backward = {canonical_form(p.graph) for p in sigma_pair(cycle(4), cycle(3), s)}
    violations = []
    if forward == backward:
        violations.append((
            "sigma(C3,C4) vs sigma(C4,C3) under rule [1,2]:[2,3]",
            "different class sets", "identical class sets",
        ))
    return _report("noncommutativity", 1, len(violations), violations,
                   {"forward_classes": len(forward),
                    "backward_classes": len(backward)})


def _regularity_report() -> TheoremReport:
    """Splicing two r-regular graphs only ever produces r-regular graphs.

    False as a blanket law: a pair of reflexive rules merges vertex i of
    the first operand with vertex j of the second, and the merged vertex
    ends up with degree ld(i)+rd(j), which need not equal r (the power-0
    pair ([n,n],[1,1]) glues two r-regular graphs into a figure-eight
    with one 2r-degree vertex).  Gap-rule products always inherit
    r-regularity because every vertex keeps its source degree.  The
    report tallies the reflexive exceptions instead of hiding them.

    Each distinct (prefix, suffix) pair is joined once and its verdict
    kept: its product count and the (bijection, product) pairs that are
    not r-regular, every product judged by is_regular once.  Each cut
    combination adds the count to the instances and the failing list to
    the totals, and draws samples from that list until SAMPLE_CAP.
    """
    corpus = [cycle(3), cycle(4), cycle(5), cycle(6), complete(4), complete(5)]
    tables = [(g, is_regular(g), [cut(g, c) for c in valid_rules(g)])
              for g in corpus]
    # (prefix, suffix) -> (product count, the (bijection, product) pairs
    # whose regularity differs from the operands'), shared by (g, h) and
    # (h, g).  A pair fixes the operands' degree: every fragment but the
    # lone half-vertex of [1,1] or [n,n] keeps a whole source vertex, and
    # those two weld to one 0-regular vertex, against degrees 2 to 4 here
    verdicts: dict = {}
    instances = 0
    total = 0
    samples = []
    gap_rule_total = 0
    for g, rg, g_cuts in tables:
        for h, rh, h_cuts in tables:
            if rh != rg:
                continue
            for cg in g_cuts:
                for ch in h_cuts:
                    gap = not (cg.rule.reflexive and ch.rule.reflexive)
                    for direction, pre, suf in directions(cg, ch):
                        key = (pre, suf)
                        if key not in verdicts:
                            # join's products come in the bijection order
                            # of permutations, so each pairs with its r
                            built = splicing.join(pre, suf)
                            verdicts[key] = (len(built), [
                                (r, p) for r, p in zip(permutations(range(cg.power)), built)
                                if is_regular(p) != rg])
                        n, failing = verdicts[key]
                        instances += n
                        total += len(failing)
                        gap_rule_total += gap * len(failing)
                        for r, prod in failing[:SAMPLE_CAP - len(samples)]:
                            samples.append((
                                f"{g} with {h}, rule "
                                f"{SplicingRule(cg.rule, ch.rule)}, "
                                f"direction {direction}, bijection {r}",
                                f"{rg}-regular product",
                                f"degrees {degree_profile(prod).total}",
                            ))
    return _report("regularity-preservation", instances, total, samples,
                   {"gap_rule_violations": gap_rule_total,
                    "note": "all violations come from reflexive rule "
                            "pairs whose merged vertex degree ld(i)+rd(j) "
                            "differs from r"})


def _kn_symmetry_report() -> TheoremReport:
    """In a complete graph the right degree at position i mirrors the
    left degree at position n+1-i."""
    instances = 0
    violations = []
    for n in range(1, KN_SYMMETRY_MAX_N + 1):
        prof = degree_profile(complete(n))
        for i in range(1, n + 1):
            instances += 1
            rd_i = prof.right[i - 1]
            ld_mirror = prof.left[n - i]
            if rd_i != ld_mirror:
                violations.append((
                    f"K{n} position {i}", f"rd={rd_i} equals mirrored ld",
                    f"ld(n+1-i)={ld_mirror}",
                ))
    return _report("kn-degree-symmetry", instances, len(violations), violations)


def _simplicity_report() -> TheoremReport:
    """Simple graphs are not closed under splicing: the three-cycle
    spliced with itself yields a doubled edge."""
    s = make_rule((1, 2), (2, 3))
    prods = sigma_pair(cycle(3), cycle(3), s)
    non_simple = [p for p in prods if not is_simple(p.graph)]
    violations = []
    if not non_simple:
        violations.append((
            "sigma(C3,C3) under rule [1,2]:[2,3]",
            "at least one non-simple product", "all products simple",
        ))
    return _report("simplicity-nonclosure", len(prods), len(violations),
                   violations,
                   {"non_simple_products": len(non_simple)})


@dataclass(frozen=True)
class CycleCertificate:
    """A run of gap rules, each severing more than one edge, all severing
    the witness edge."""

    witness_edge: tuple[int, int]
    gap_rules: tuple[CuttingRule, ...]
    powers: tuple[int, ...]


def cycle_certificate(g: PlfGraph) -> CycleCertificate | None:
    """Search for an edge whose spanned gaps all have power above one.

    Candidates are scanned by leftmost origin, widest span first, so the
    certificate is deterministic.  Every gap under a cycle's spanning
    edge is crossed both by that edge and by the rest of the cycle, which
    is why cyclic graphs always yield one; some acyclic layouts do too
    (callers wanting an exact cycle test use the search oracle instead).
    """
    gap_power = degree_profile(g).gap_powers
    for a, b in sorted(set(g.edges), key=lambda e: (e[0], -e[1])):
        if all(gap_power[i] > 1 for i in range(a, b)):
            return CycleCertificate(
                (a, b),
                tuple(CuttingRule(i, i + 1) for i in range(a, b)),
                tuple(gap_power[i] for i in range(a, b)),
            )
    return None


def check_cycle_theorem(max_order: int = 6, corpus: _Corpus | None = None) -> TheoremReport:
    """Cyclic graphs always carry a certificate (asserted); acyclic
    graphs that also carry one are tallied, not failed."""
    instances = 0
    violations = []
    exceptions = 0
    exception_samples = []
    for g, _ in _stream(max_order, corpus):
        instances += 1
        cyclic = has_cycle(g)
        cert = cycle_certificate(g)
        if cyclic and cert is None:
            violations.append((
                str(g), "certificate for a cyclic graph", "no certificate",
            ))
        elif cert is not None and not cyclic:
            exceptions += 1
            if len(exception_samples) < CONVERSE_SAMPLE_CAP:
                exception_samples.append(
                    f"{g} witness {cert.witness_edge} powers {cert.powers}"
                )
    return _report("cycle-certificate", instances, len(violations), violations,
                   {"converse_exceptions": exceptions,
                    "converse_samples": exception_samples})


def check_iso_splice(max_order: int = 5, corpus: _Corpus | None = None) -> TheoremReport:
    """Splicing two isomorphic graphs: a product isomorphic to them must
    keep their order (asserted; immediate since isomorphism preserves
    order), and equal-order products that fail to be isomorphic are
    tallied as converse exceptions.

    Runs like the product-law sweep, one isomorphism class at a time:
    the members' cuts, made once per graph for the whole sweep (or read
    from the corpus verify_all shares), are filed by splicing.file_cut
    within the class.  N cuts of one shape and power m make N^2 ordered
    pairs of 2(m!) products each, and all of them count as instances.
    A prefix cut at position ia welded to a suffix cut at ib gives order
    n + ia - ib, and within one shape ia = ib means one cutting rule, so
    only pairs of groups cut by the same rule are judged, with every
    tally weighted by the combos sharing the pair; every product of
    another pair has another order and is not isomorphic to the
    operands.  Each pair is judged where the loop meets it, so nothing
    is held from one class to the next.
    """
    graphs = corpus.graphs if corpus else list(graphs_up_to(max_order, cap=PAIR_SWEEP_CAP))
    classes: dict[bytes, list[int]] = {}
    for row, g in enumerate(graphs):
        classes.setdefault(canonical_form(g), []).append(row)

    instances = 0
    same_order = 0
    exceptions = 0
    exception_samples = []
    for key, rows in classes.items():
        held = corpus and [corpus.cuts[r] for r in rows]
        for (m, _), (pres, sufs) in _cut_groups([graphs[r] for r in rows], None, held).items():
            # each cut files one prefix, so the prefix groups' rows are N
            instances += 2 * factorial(m) * sum(len(pre.rows) for pre in pres) ** 2
            for pre in pres:
                ca = pre.rep
                for suf in sufs:
                    cb = suf.rep
                    if ca.rule != cb.rule:
                        continue
                    weight = 2 * len(pre.rows) * len(suf.rows)
                    for p in splicing.join(ca.prefix, cb.suffix):
                        same_order += weight
                        if canonical_form(p) != key:
                            exceptions += weight
                            if len(exception_samples) < SAMPLE_CAP:
                                exception_samples.append(
                                    f"{ca.graph} with {cb.graph} rules "
                                    f"{(ca.rule.i, ca.rule.j)}:"
                                    f"{(cb.rule.i, cb.rule.j)} gave {p}"
                                )
    return _report("iso-order", instances, 0, [],
                   {"isomorphic_pairs": sum(len(r) ** 2 for r in classes.values()),
                    "same_order_products": same_order,
                    "converse_exceptions": exceptions,
                    "converse_samples": exception_samples})


def check_bipartite_criterion(max_order: int = 6, corpus: _Corpus | None = None) -> TheoremReport:
    """A rule severing every edge at once forces bipartiteness (asserted,
    for ANY such rule); graphs where exactly one rule does so are tallied
    for the narrower uniqueness reading."""
    instances = 0
    violations = []
    unique_tally = 0
    for g, _ in _stream(max_order, corpus):
        instances += 1
        n, size = g.order, g.size
        prof = degree_profile(g)
        gap_power = prof.gap_powers
        full_rules = [CuttingRule(i, i + 1) for i in range(1, n)
                      if gap_power[i] == size]
        full_rules += [CuttingRule(i, i) for i in range(1, n + 1)
                       if gap_power[i - 1] - prof.left[i - 1] == size]
        if len(full_rules) == 1:
            unique_tally += 1
        if size > 0 and full_rules and not is_bipartite(g):
            violations.append((
                f"{g} rule {full_rules[0]}",
                "bipartite (a full-severing rule splits the vertex set)",
                "2-coloring failed",
            ))
    return _report("bipartite-full-power", instances, len(violations),
                   violations, {"unique_full_power_graphs": unique_tally})


# Every check in verify order: the check ids a runner reports and the
# runner, called with (max_order, max_power, corpus), where corpus is
# the _Corpus of max_order, or None for a checker to build its own.
# The pair sweeps grow quadratically and clamp max_order to
# PAIR_SWEEP_CAP, the linear sweeps take it as given, and the
# fixed-witness checks take no bound.  The lambdas look each checker up
# when they run, so a checker replaced on the module is the one called.
CHECKS = (
    (("power-formula",), lambda n, p, c: [check_power_formula(n, c)]),
    (("degree-balance",), lambda n, p, c: [check_degree_balance(n, c)]),
    (("product-count", "reversal", "degree-preservation", "order-bound"),
     lambda n, p, c: check_splice_theorems(min(n, PAIR_SWEEP_CAP), p, c)),
    (("noncommutativity",), lambda n, p, c: [_noncommutativity_report()]),
    (("regularity-preservation",), lambda n, p, c: [_regularity_report()]),
    (("kn-degree-symmetry",), lambda n, p, c: [_kn_symmetry_report()]),
    (("simplicity-nonclosure",), lambda n, p, c: [_simplicity_report()]),
    (("cycle-certificate",), lambda n, p, c: [check_cycle_theorem(n, c)]),
    (("iso-order",), lambda n, p, c: [check_iso_splice(min(n, PAIR_SWEEP_CAP), c)]),
    (("bipartite-full-power",), lambda n, p, c: [check_bipartite_criterion(n, c)]),
)


def verify_all(max_order: int = 5, max_power: int = 3) -> list[TheoremReport]:
    """Run every check in CHECKS at one bound, the sweeps reading one
    _Corpus, which lives for this call only.  An order past
    ENUMERATION_CAP is refused before the corpus is built."""
    if max_order > ENUMERATION_CAP:
        raise CapExceededError(f"sweep order {max_order} exceeds cap {ENUMERATION_CAP}")
    corpus = _Corpus(max_order)
    return [r for _ids, run in CHECKS for r in run(max_order, max_power, corpus)]


def verify_check(check_id: str, max_order: int = 5, max_power: int = 3) -> TheoremReport:
    """Run only the entry of CHECKS that reports check_id, and return
    that one report."""
    for ids, run in CHECKS:
        if check_id in ids:
            return next(r for r in run(max_order, max_power, None)
                        if r.check_id == check_id)
    known = sorted(i for ids, _run in CHECKS for i in ids)
    raise GraphSpliceError(f"unknown check {check_id!r}; known: {', '.join(known)}")

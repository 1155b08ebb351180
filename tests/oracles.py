"""Brute-force oracles the engine is tested against.

Everything here is deliberately naive: permutation search for
isomorphism, an unpruned degree-respecting canonical search, component
counting for cycles, color enumeration for bipartiteness, and one
sigma_pair call per ordered pair and rule pair for the law sweeps, for
the regularity report and for the closure.  Slow but obviously correct
on small graphs.  The few helpers the tests need but the engine does not
(relabelings, the reversed rule, the product-order bound, a fragment's
join key spelled out, the first product of each class) live here too.
"""

from collections import Counter
from itertools import chain, combinations, permutations, product

from graphsplice import (
    InvalidRuleError,
    NotApplicableError,
    PlfGraph,
    SplicingRule,
    canonical_form,
    complete,
    cut,
    cycle,
    degree_profile,
    is_regular,
    sigma_pair,
    to_plf,
    valid_rules,
)
from graphsplice.analysis import _report


def relabel(g: PlfGraph, ordering) -> PlfGraph:
    """Apply an ordering of g's own positions, giving an isomorphic graph."""
    return to_plf(g.order, g.edges, ordering)


def all_relabelings(g: PlfGraph):
    """Every PLF layout of g, one per permutation of its positions."""
    for ordering in permutations(range(1, g.order + 1)):
        yield relabel(g, ordering)


def swapped(s: SplicingRule) -> SplicingRule:
    """The reversed rule: cutting rules exchanged."""
    return SplicingRule(s.second, s.first)


def max_product_order(g: PlfGraph, h: PlfGraph) -> int:
    """Largest order any product of g and h can have."""
    return g.order + h.order - 1


def join_key(frag):
    """What join reads of a fragment, spelled out field by field instead
    of the fragment itself, the engine's own key: (start, end, intact,
    anchors, no split)."""
    return (frag.start, frag.end, frag.intact, frag.hanging,
            frag.half_vertex is None)


def first_of_each_class(products):
    """{canonical key: the first product with that key}, in the order
    the classes first appear."""
    first = {}
    for p in products:
        first.setdefault(canonical_form(p), p)
    return first


def twin_anchor_classes(key):
    """The anchors of a fragment, given as a join_key tuple, grouped into
    classes joined by exchanges that map the fragment onto itself: the
    swap of anchors x and y must carry its intact edges onto themselves
    and x's stubs onto y's."""
    intact, anchors = key[2], key[3]
    stubs = Counter(anchors)
    edges = Counter(tuple(sorted(e)) for e in intact)
    classes = {a: {a} for a in stubs}
    for x, y in combinations(sorted(stubs), 2):
        swap = {x: y, y: x}
        image = Counter(tuple(sorted((swap.get(u, u), swap.get(v, v))))
                        for u, v in edges.elements())
        if stubs[x] == stubs[y] and image == edges and classes[x] is not classes[y]:
            merged = classes[x] | classes[y]
            for a in merged:
                classes[a] = merged
    return [sorted(c) for c in {id(c): c for c in classes.values()}.values()]


def orbit_count(prefix_key, suffix_key):
    """The orbits of the m! bijections of a fragment pair, given as
    join_key tuples, under exchanges of two hanging edges at one anchor
    and of two twin anchors with their edges, counted apart from the
    engine: a bijection's orbit is its weld-count matrix (the edges it
    welds between each prefix anchor and each suffix anchor) up to
    reordering the rows within each twin class of prefix anchors and
    the columns within each twin class of suffix anchors."""
    left, right = prefix_key[3], suffix_key[3]
    matrices = {frozenset(Counter(zip(left, (right[i] for i in r))).items())
                for r in permutations(range(len(left)))}
    row_orders = [list(chain.from_iterable(p)) for p in product(
        *(permutations(c) for c in twin_anchor_classes(prefix_key)))]
    column_classes = twin_anchor_classes(suffix_key)
    keys = set()
    for matrix in matrices:
        welds = dict(matrix)
        # with the rows fixed, sorting the columns of each class is the
        # least arrangement of them
        keys.add(min(tuple(tuple(sorted(tuple(welds.get((x, y), 0) for x in rows)
                                        for y in cls)) for cls in column_classes)
                     for rows in row_orders))
    return len(keys)


def brute_canonical(g: PlfGraph):
    """Minimum edge tuple over every relabeling of the positions."""
    n = g.order
    if n == 0:
        return (0, ())
    best = None
    for perm in permutations(range(1, n + 1)):
        mapping = {old: new for old, new in zip(range(1, n + 1), perm)}
        relabeled = tuple(sorted(
            tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges
        ))
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


# The degree-sorted minimum-vector search that individualization-
# refinement replaced: every degree-respecting layout, cut only by a
# whole-prefix comparison.  Its keys differ from graphs._canonical_search's,
# but the two must split graphs into the same classes.
def reference_canonical(order: int, edges) -> bytes:
    """Smallest upper-triangle multiplicity vector over relabelings.

    Positions are ordered by non-increasing degree and each vertex may only
    occupy a position whose target degree matches its own, which keeps the
    search well below n! without affecting the minimum.  The vector lists
    multiplicities column by column: for each position p the entries
    (1,p), (2,p), ..., (p-1,p).  Two graphs get equal encodings iff they
    are isomorphic.
    """
    n = order
    if n == 0:
        return b"0|"
    if n == 1:
        return b"1|"
    mult = [[0] * n for _ in range(n)]
    deg = [0] * n
    for u, v in edges:
        mult[u - 1][v - 1] += 1
        mult[v - 1][u - 1] += 1
        deg[u - 1] += 1
        deg[v - 1] += 1
    target = sorted(deg, reverse=True)
    slot_candidates = [
        [v for v in range(n) if deg[v] == target[p]] for p in range(n)
    ]
    vec_len = n * (n - 1) // 2
    vec = [0] * vec_len
    assigned = [0] * n
    used = [False] * n
    best: list | None = None

    def search(p, length):
        nonlocal best
        if p == n:
            if best is None or vec < best:
                best = vec[:]
            return
        for v in slot_candidates[p]:
            if used[v]:
                continue
            row = mult[v]
            pos = length
            for q in range(p):
                vec[pos] = row[assigned[q]]
                pos += 1
            # prune any branch already lexicographically above the best
            if best is not None and vec[:pos] > best[:pos]:
                continue
            used[v] = True
            assigned[p] = v
            search(p + 1, pos)
            used[v] = False

    search(0, 0)
    return f"{n}|".encode() + ",".join(map(str, best)).encode()


def brute_isomorphic(g: PlfGraph, h: PlfGraph) -> bool:
    """Order, size and sorted degrees first, then brute_canonical keys."""
    if g.order != h.order or g.size != h.size:
        return False
    if sorted(g.degree(v) for v in range(1, g.order + 1)) != sorted(
            h.degree(v) for v in range(1, h.order + 1)):
        return False
    return brute_canonical(g) == brute_canonical(h)


def components(g: PlfGraph):
    """Vertex sets of the connected components, found by flood fill."""
    adjacency = {v: set() for v in range(1, g.order + 1)}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen = set()
    out = []
    for start in range(1, g.order + 1):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adjacency[v] - comp)
        seen |= comp
        out.append(comp)
    return out


def cyclic_by_counting(g: PlfGraph) -> bool:
    """A component with as many edges as vertices hides a cycle."""
    for comp in components(g):
        edge_count = sum(1 for u, v in g.edges if u in comp)
        if edge_count >= len(comp):
            return True
    return False


def bipartite_by_enumeration(g: PlfGraph) -> bool:
    """Try all 2^n two-colorings; repeated edges do not hurt."""
    n = g.order
    for mask in range(2 ** n):
        color = [0] + [(mask >> (v - 1)) & 1 for v in range(1, n + 1)]
        if all(color[u] != color[v] for u, v in g.edges):
            return True
    return n == 0


def _splice_all(g, h, max_power=None):
    """sigma_pair's products for every rule pair that applies to (g, h)."""
    for c1 in valid_rules(g):
        if max_power is not None and cut(g, c1).power > max_power:
            continue
        for c2 in valid_rules(h):
            try:
                yield sigma_pair(g, h, SplicingRule(c1, c2))
            except NotApplicableError:
                continue


def source_degrees(g: PlfGraph, h: PlfGraph, s: SplicingRule):
    """The degrees a Prefix(g)+Suffix(h) product keeps under s, read off
    g and h: g's positions before the cut, then h's after it; a split
    vertex merges g's left degree with h's right degree."""
    i, j = s.first.i, s.second.j
    if not s.first.reflexive:
        return ([g.degree(v) for v in range(1, i + 1)]
                + [h.degree(v) for v in range(j, h.order + 1)])
    return ([g.degree(v) for v in range(1, i)]
            + [g.left_degree(i) + h.right_degree(j)]
            + [h.degree(v) for v in range(j + 1, h.order + 1)])


def pairwise_law_sweep(graphs, max_power):
    """(combos, products, oversize, degree violations) over every
    ordered pair of graphs: one combo per applicable rule pair, every
    product counted, the products with more edges than
    order(g)+order(h)-1 tallied, and so are those whose degrees differ
    from source_degrees."""
    combos = products = oversize = degrees = 0
    for g in graphs:
        for h in graphs:
            for prods in _splice_all(g, h, max_power):
                combos += 1
                products += len(prods)
                oversize += sum(p.graph.size > g.order + h.order - 1 for p in prods)
                for p in prods:
                    got = [p.graph.degree(v) for v in range(1, p.graph.order + 1)]
                    degrees += got != (source_degrees(g, h, p.rule) if p.direction == 1
                                       else source_degrees(h, g, swapped(p.rule)))
    return combos, products, oversize, degrees


def pairwise_iso_sweep(graphs):
    """(instances, equal-order products, converse exceptions) over every
    ordered pair of isomorphic graphs: every product counts, and an
    equal-order product not isomorphic to the operands is an exception."""
    instances = same_order = exceptions = 0
    for g in graphs:
        for h in graphs:
            if brute_canonical(g) != brute_canonical(h):
                continue
            for prods in _splice_all(g, h):
                for p in prods:
                    instances += 1
                    if p.graph.order == g.order:
                        same_order += 1
                        exceptions += not brute_isomorphic(p.graph, g)
    return instances, same_order, exceptions


def sigma_pair_regularity_report():
    """The regularity-preservation report with one sigma_pair call per
    (g, h, rule pair), skipping the pairs it refuses: both directions
    joined from fresh cuts and every product checked afresh, with no
    fragment pair shared between (g, h) and (h, g)."""
    corpus = [cycle(3), cycle(4), cycle(5), cycle(6), complete(4), complete(5)]
    instances = total = gap_rule_total = 0
    samples = []
    for g in corpus:
        rg = is_regular(g)
        for h in corpus:
            if is_regular(h) != rg:
                continue
            for c1 in valid_rules(g):
                for c2 in valid_rules(h):
                    try:
                        products = sigma_pair(g, h, SplicingRule(c1, c2))
                    except NotApplicableError:
                        continue
                    for prod in products:
                        instances += 1
                        if is_regular(prod.graph) == rg:
                            continue
                        total += 1
                        s = prod.rule
                        if not (s.first.reflexive and s.second.reflexive):
                            gap_rule_total += 1
                        samples.append((
                            f"{g} with {h}, rule {s}, direction "
                            f"{prod.direction}, bijection {prod.bijection}",
                            f"{rg}-regular product",
                            f"degrees {degree_profile(prod.graph).total}",
                        ))
    return _report("regularity-preservation", instances, total, samples,
                   {"gap_rule_violations": gap_rule_total,
                    "note": "all violations come from reflexive rule "
                            "pairs whose merged vertex degree ld(i)+rd(j) "
                            "differs from r"})


def naive_language(system, config):
    """The bounded closure with one sigma_pair call per ordered pair of
    in-cap classes and rule, skipping the pairs it refuses.

    Returns (classes, trace, saturated): classes maps each canonical key,
    in discovery order, to (first graph found, iteration); trace holds
    (iteration, raw products, new classes, new oversize classes).
    """
    classes = {}
    for g in system.axioms:
        classes.setdefault(canonical_form(g), (g, 0))
    trace = [(0, 0, len(classes), 0)]
    for it in range(1, config.max_iterations + 1):
        reps = [g for g, _ in classes.values() if g.order <= config.max_order]
        raw = 0
        new = {}
        for g in reps:
            for h in reps:
                for s in system.rules:
                    try:
                        products = sigma_pair(g, h, s)
                    except (InvalidRuleError, NotApplicableError):
                        continue
                    raw += len(products)
                    for p in products:
                        key = canonical_form(p.graph)
                        if key not in classes and key not in new:
                            new[key] = p.graph
        for key, g in new.items():
            classes[key] = (g, it)
        overcap = sum(g.order > config.max_order for g in new.values())
        trace.append((it, raw, len(new), overcap))
        if not new:
            return classes, trace, True
    return classes, trace, False

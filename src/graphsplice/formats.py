"""Line-oriented text formats and DOT export.

Graph files ("plfg 1" header) and system files ("plfs 1" header) are
directive-per-line with '#' comments, chosen so golden tests diff
cleanly.  Writing always normalizes (sorted edges), so write(parse(t))
is t normalized and parse(write(g)) is g exactly.
"""

from __future__ import annotations

from .cutting import CuttingRule
from .errors import GraphSpliceError, ParseError
from .graphs import PlfGraph
from .language import LanguageConfig, SplicingSystem, check_axiom
from .splicing import SplicingRule

GRAPH_MAGIC = "plfg 1"
SYSTEM_MAGIC = "plfs 1"


def _directives(text: str):
    """Yield (line_number, directive) with comments and blanks stripped."""
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield num, line


def _body(text: str, magic: str) -> list:
    """The directives after the first one, the header, which must read
    magic."""
    directives = list(_directives(text))
    if not directives or directives[0][1] != magic:
        num = directives[0][0] if directives else 1
        raise ParseError(f"expected '{magic}' header", num)
    return directives[1:]


def _int(token: str, num: int | None, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", num) from None


def parse_graph(text: str) -> PlfGraph:
    order: int | None = None
    edges: list[tuple[int, int]] = []
    for num, line in _body(text, GRAPH_MAGIC):
        fields = line.split()
        if fields[0] == "order" and len(fields) == 2:
            if order is not None:
                raise ParseError("duplicate order directive", num)
            order = _int(fields[1], num, "order")
            if order < 0:
                raise ParseError(f"order must be non-negative, got {order}", num)
        elif fields[0] == "edge" and len(fields) == 3:
            if order is None:
                raise ParseError("edge before the order directive", num)
            u = _int(fields[1], num, "endpoint")
            v = _int(fields[2], num, "endpoint")
            if u == v:
                raise ParseError(f"loop at vertex {u} is not allowed", num)
            if not (1 <= min(u, v) and max(u, v) <= order):
                raise ParseError(
                    f"edge ({u},{v}) falls outside positions 1..{order}", num
                )
            edges.append((u, v))
        else:
            raise ParseError(f"unknown directive {line!r}", num)
    if order is None:
        raise ParseError("missing order directive")
    return PlfGraph(order, tuple(edges))


def write_graph(g: PlfGraph, comment: str | None = None) -> str:
    lines = [GRAPH_MAGIC]
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"order {g.order}")
    lines.extend(f"edge {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_cut(token: str, num: int | None = None) -> CuttingRule:
    """A cutting rule from its I,J token; num is the token's line in a
    file, None for a token from elsewhere."""
    parts = token.split(",")
    if len(parts) != 2:
        raise ParseError(f"cutting rule must be I,J, got {token!r}", num)
    try:
        return CuttingRule(_int(parts[0], num, "rule position"),
                           _int(parts[1], num, "rule position"))
    except GraphSpliceError as exc:
        raise ParseError(str(exc), num) from None


def parse_system(text: str) -> tuple[SplicingSystem, LanguageConfig]:
    """Read axioms, rules, and closure caps from a system file.

    Axiom lines inline the graph: `axiom <order> : <u-v> <u-v> ...`
    (the edge list may be empty).  Rule lines pair two cutting rules:
    `rule I,J : K,L`.  `max-iterations N` and `max-order N` may each
    appear at most once.

    A ParseError carries the line of the directive at fault, also for an
    axiom that is not simple and for a cap below its least value.  The
    errors of the system as a whole carry line None: no axiom, no rule,
    or a max-order below the largest axiom's order.
    """
    axioms: list[PlfGraph] = []
    rules: list[SplicingRule] = []
    caps: dict[str, int] = {}  # LanguageConfig fields the file sets
    for num, line in _body(text, SYSTEM_MAGIC):
        fields = line.split()
        if fields[0] == "axiom":
            if len(fields) < 3 or fields[2] != ":":
                raise ParseError(
                    "axiom line must be 'axiom <order> : <u-v> ...'", num
                )
            order = _int(fields[1], num, "axiom order")
            edges = []
            for token in fields[3:]:
                ends = token.split("-")
                if len(ends) != 2:
                    raise ParseError(f"edge must be U-V, got {token!r}", num)
                edges.append((_int(ends[0], num, "endpoint"),
                              _int(ends[1], num, "endpoint")))
            try:
                g = PlfGraph(order, tuple(edges))
                check_axiom(g)
            except GraphSpliceError as exc:
                raise ParseError(str(exc), num) from None
            axioms.append(g)
        elif fields[0] == "rule":
            if len(fields) != 4 or fields[2] != ":":
                raise ParseError("rule line must be 'rule I,J : K,L'", num)
            rules.append(SplicingRule(parse_cut(fields[1], num),
                                      parse_cut(fields[3], num)))
        elif fields[0] in ("max-iterations", "max-order") and len(fields) == 2:
            name = fields[0].replace("-", "_")
            if name in caps:
                raise ParseError(f"duplicate {fields[0]} directive", num)
            caps[name] = _int(fields[1], num, fields[0])
            try:
                LanguageConfig(**{name: caps[name]})
            except GraphSpliceError as exc:
                raise ParseError(str(exc), num) from None
        else:
            raise ParseError(f"unknown directive {line!r}", num)
    try:
        system = SplicingSystem(tuple(axioms), tuple(rules))
        config = LanguageConfig(**caps)
        config.check_fits(system)
    except GraphSpliceError as exc:
        raise ParseError(str(exc)) from None
    return system, config


def write_system(system: SplicingSystem, config: LanguageConfig) -> str:
    lines = [SYSTEM_MAGIC]
    for g in system.axioms:
        edge_part = " ".join(f"{u}-{v}" for u, v in g.edges)
        lines.append(f"axiom {g.order} :" + (f" {edge_part}" if edge_part else ""))
    for s in system.rules:
        lines.append(f"rule {s.first.i},{s.first.j} : {s.second.i},{s.second.j}")
    lines.append(f"max-iterations {config.max_iterations}")
    lines.append(f"max-order {config.max_order}")
    return "\n".join(lines) + "\n"


def to_dot(g: PlfGraph) -> str:
    """DOT with every vertex pinned at abscissa = its position, so the
    drawing keeps the linear layout with edges arcing over it."""
    lines = ["graph plf {", "  node [shape=circle];"]
    for v in range(1, g.order + 1):
        lines.append(f'  {v} [pos="{v},0!"];')
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

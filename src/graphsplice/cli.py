"""Command-line surface.

Structured output is JSON with sorted keys so identical inputs give
byte-identical bytes.  Exit codes: 0 ok, 1 verification found a violated
law, 2 bad usage, invalid input values or an unreadable file, 3 file
parse error (non-text bytes too), 4 an explicit size cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import analysis, formats
from .cutting import CuttingRule, cut, power_by_formula
from .errors import CapExceededError, GraphSpliceError, ParseError
from .graphs import (
    PlfGraph,
    complete,
    complete_bipartite,
    cycle,
    is_isomorphic,
    path,
)
from .language import language
from .splicing import SplicingRule, sigma_pair

_GENERATORS = {
    "cycle": (cycle, 1),
    "path": (path, 1),
    "complete": (complete, 1),
    "bipartite": (complete_bipartite, 2),
}
# largest order `gen` builds (the sum of its parameters: N, or a + b)
# and `export-dot` draws
GEN_ORDER_CAP = 500


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read(path_arg: str) -> str:
    """An input file's text; bytes that are not text are a parse error."""
    try:
        return Path(path_arg).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path_arg}: not a text file ({exc.reason})") from None


def _load_graph(path_arg: str) -> PlfGraph:
    return formats.parse_graph(_read(path_arg))


def _parse_cut_arg(token: str) -> CuttingRule:
    """A --rule token is a usage error, not a file's parse error."""
    try:
        return formats.parse_cut(token)
    except ParseError as exc:
        raise GraphSpliceError(f"--rule: {exc}") from None


def _parse_splice_arg(token: str) -> SplicingRule:
    parts = token.split(":")
    if len(parts) != 2:
        raise GraphSpliceError(f"--rule expects I,J:K,L, got {token!r}")
    return SplicingRule(_parse_cut_arg(parts[0]), _parse_cut_arg(parts[1]))


def _edge_list(edges) -> list:
    return [[u, v] for u, v in edges]


def _fragment_dict(frag, ecut) -> dict:
    """A fragment as JSON.  Hanging edge t is the retained half of the
    severed edge ecut[t]; its instance, the number of copies of that
    edge before it in ecut, tells parallel copies apart."""
    side = "left" if frag.kind == "prefix" else "right"
    seen = Counter()
    hanging = []
    for e, anchor in zip(ecut, frag.hanging):
        hanging.append({"origin": list(e), "instance": seen[e],
                        "anchor": anchor, "side": side})
        seen[e] += 1
    return {
        "kind": frag.kind,
        "start": frag.start,
        "end": frag.end,
        "half_vertex": frag.half_vertex,
        "intact": _edge_list(frag.intact),
        "hanging": hanging,
    }


def _cmd_gen(args) -> int:
    maker, arity = _GENERATORS[args.kind]
    if len(args.params) != arity:
        raise GraphSpliceError(
            f"generator {args.kind} takes {arity} parameter(s), "
            f"got {len(args.params)}"
        )
    if sum(args.params) > GEN_ORDER_CAP:
        raise CapExceededError(
            f"generated order {sum(args.params)} exceeds cap {GEN_ORDER_CAP}"
        )
    g = maker(*args.params)
    text = formats.write_graph(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cut(args) -> int:
    g = _load_graph(args.graph)
    rule = _parse_cut_arg(args.rule)
    result = cut(g, rule)
    payload = {
        "rule": str(rule),
        "power": result.power,
        "power_formula_left": (
            None if rule.reflexive else power_by_formula(g, rule, "left")
        ),
        "power_formula_right": (
            None if rule.reflexive else power_by_formula(g, rule, "right")
        ),
        "ecut": _edge_list(result.ecut),
        "vcut": result.vcut,
        "prefix": _fragment_dict(result.prefix, result.ecut),
        "suffix": _fragment_dict(result.suffix, result.ecut),
    }
    _emit(payload)
    return 0


def _cmd_splice(args) -> int:
    g = _load_graph(args.first)
    h = _load_graph(args.second)
    rule = _parse_splice_arg(args.rule)
    wanted = {"first": (1,), "second": (2,), "both": (1, 2)}[args.direction]
    produced = [p for p in sigma_pair(g, h, rule) if p.direction in wanted]
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    records = []
    for idx, prod in enumerate(produced, start=1):
        record = {
            "index": idx,
            "direction": prod.direction,
            "bijection": list(prod.bijection),
            "rule": str(prod.rule),
            "order": prod.graph.order,
            "edges": _edge_list(prod.graph.edges),
        }
        records.append(record)
        if args.out:
            provenance = (
                f"direction {prod.direction}, bijection {prod.bijection}, "
                f"rule {prod.rule}"
            )
            name = Path(args.out) / f"product-{idx:03d}.plfg"
            name.write_text(formats.write_graph(prod.graph, provenance))
    _emit({"products": records, "count": len(records)})
    return 0


def _cmd_lang(args) -> int:
    system, config = formats.parse_system(_read(args.system))
    result = language(system, config)
    classes = [
        {
            "canonical": key.decode("ascii"),
            "iteration": info.iteration,
            "order": info.representative.order,
            "size": info.representative.size,
            "edges": _edge_list(info.representative.edges),
        }
        for key, info in result.classes.items()
    ]
    trace = [
        {
            "iteration": t.iteration,
            "raw_products": t.raw_products,
            "new_classes": t.new_classes,
            "new_overcap": t.new_overcap,
        }
        for t in result.trace
    ]
    _emit({"classes": classes, "trace": trace, "saturated": result.saturated})
    return 0


def _cmd_verify(args) -> int:
    if args.max_order < 1:
        raise GraphSpliceError(f"--max-order must be at least 1, got {args.max_order}")
    if args.max_power < 0:
        raise GraphSpliceError(f"--max-power must be at least 0, got {args.max_power}")
    if args.theorem is None:
        reports = analysis.verify_all(args.max_order, args.max_power)
    else:
        reports = [analysis.verify_check(args.theorem, args.max_order,
                                         args.max_power)]
    _emit([r.to_dict() for r in reports])
    return 0 if all(r.ok for r in reports) else 1


def _cmd_iso(args) -> int:
    g = _load_graph(args.first)
    h = _load_graph(args.second)
    _emit({"isomorphic": is_isomorphic(g, h)})
    return 0


def _cmd_export_dot(args) -> int:
    g = _load_graph(args.graph)
    if g.order > GEN_ORDER_CAP:
        raise CapExceededError(
            f"order {g.order} exceeds the export-dot cap {GEN_ORDER_CAP}"
        )
    text = formats.to_dot(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsplice",
        description="Cut-and-recombine splicing engine for graphs in "
                    "pseudo-linear form",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph file")
    p.add_argument("kind", choices=sorted(_GENERATORS))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("cut", help="apply one cutting rule")
    p.add_argument("--rule", required=True, metavar="I,J")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("splice", help="enumerate recombination products")
    p.add_argument("--rule", required=True, metavar="I,J:K,L")
    p.add_argument("--direction", choices=("first", "second", "both"),
                   default="both")
    p.add_argument("--out", help="also write one graph file per product here")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_splice)

    p = sub.add_parser("lang", help="run the bounded closure of a system file")
    p.add_argument("system")
    p.set_defaults(func=_cmd_lang)

    p = sub.add_parser("verify", help="run theorem checkers over small graphs")
    p.add_argument("--max-order", type=int, default=5)
    p.add_argument("--max-power", type=int, default=3)
    p.add_argument("--theorem", help="run a single named check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("iso", help="isomorphism verdict for two graph files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("export-dot", help="DOT with positions pinned")
    p.add_argument("graph")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (GraphSpliceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

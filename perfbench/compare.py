"""Compare two records written by `run.py --out`.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of the two results with its relative change.  Refuses,
with exit code 2, records of different workloads or trace modes, and
records whose graphsplice backend differs: a compiled kernel and the
pure-Python one give incomparable numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# env keys that must agree before two results may be compared
MUST_MATCH = ("backend", "workload", "trace")


class Incomparable(Exception):
    pass


def compare(base: dict, new: dict) -> list[str]:
    for key in MUST_MATCH:
        if base["env"][key] != new["env"][key]:
            raise Incomparable(
                f"{key} differs: {base['env'][key]!r} vs {new['env'][key]!r}")
    lines = []
    old_m, new_m = base["result"]["metrics"], new["result"]["metrics"]
    for name in old_m:
        a, b = old_m[name]["value"], new_m[name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        lines.append(f"{name:40} {a:14.6g} {b:14.6g} {change:>8} {old_m[name]['unit']}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    try:
        lines = compare(base, new)
    except Incomparable as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

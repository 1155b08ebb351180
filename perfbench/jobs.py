"""The benchmark's fixed jobs, their pinned outputs and the output check.

A job is one call of a public entry point on fixed inputs: a system file
in jobs/ for `language` (what `graphsplice lang` runs), or the checker
mix of `graphsplice verify` through `verify_all`.  jobs/<job>.expected.json
holds the summary the job must reproduce exactly.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

JOBS_DIR = Path(__file__).resolve().parent / "jobs"

WORKLOADS = {
    "lang-splice": ("gap", "split"),
    "lang-symmetric": ("triangle", "edgeless"),
    "verify": ("verify",),
}

# verify_all bounds: the default checker mix, one order below the CLI default
VERIFY_MAX_ORDER = 4
VERIFY_MAX_POWER = 3

# a job still running after this many seconds is killed and counts as failed
JOB_BUDGET_S = 60.0


def expected(job: str) -> dict:
    return json.loads((JOBS_DIR / f"{job}.expected.json").read_text())


def load(job: str):
    """Parse the job's inputs: (system, config) for a closure, else None."""
    if job == "verify":
        return None
    from graphsplice import formats

    return formats.parse_system((JOBS_DIR / f"{job}.plfs").read_text())


def run(job: str, inputs) -> dict:
    """Call the entry point through its module attribute, so a tracer's
    wrapper sees the call, and summarize the result."""
    if job == "verify":
        from graphsplice import analysis

        reports = analysis.verify_all(VERIFY_MAX_ORDER, VERIFY_MAX_POWER)
        return verify_summary(reports)
    # the package re-exports the function under the submodule's name
    lang = importlib.import_module("graphsplice.language")
    system, config = inputs
    return language_summary(lang.language(system, config))


def language_summary(result) -> dict:
    return {
        "raw_products": [t.raw_products for t in result.trace],
        "new_classes": [t.new_classes for t in result.trace],
        "new_overcap": [t.new_overcap for t in result.trace],
        "classes": len(result.classes),
        "saturated": result.saturated,
    }


def verify_summary(reports) -> dict:
    by_id = {r.check_id: r for r in reports}
    sweep = by_id["product-count"].extras
    return {
        "reports": {r.check_id: [r.status, r.instances_checked] for r in reports},
        "combos": sweep["combos"],
        "products_built": sweep["products_built"],
        "iso_order_instances": by_id["iso-order"].instances_checked,
    }


def products(summary: dict) -> int:
    """Logical splice products the result reports.

    A closure reports its raw products; the law sweep reports the products
    it built plus the iso-order instances, each of which is one product.
    """
    if "raw_products" in summary:
        return sum(summary["raw_products"])
    return summary["products_built"] + summary["iso_order_instances"]


def mismatches(summary: dict, want: dict) -> list[str]:
    """Keys whose value differs from the pinned one, or that are missing
    or unexpected; empty when the output is correct."""
    keys = sorted(set(summary) | set(want))
    return [k for k in keys if summary.get(k) != want.get(k)]

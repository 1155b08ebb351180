"""graphsplice benchmark: fixed closure and law-sweep workloads.

    python3 perfbench/run.py --workload lang-splice --seed 1 --seconds 40 --trace 0

Workloads (see jobs.py and BENCHMARK.json):

  lang-splice     language() on the gap and split systems: cutting and
                  splicing dominate
  lang-symmetric  language() on the triangle and edgeless systems: cold
                  canonical-form searches on symmetric graphs dominate
  verify          verify_all(4, 3), the checker mix of `graphsplice verify`

A round runs every job of the workload once, one at a time, each in a
fresh single-threaded process, so the canonical-form cache starts cold
as it does for every CLI call.  Rounds repeat while the next one is
expected to end within --seconds.  Every job's output is checked against
its pinned summary; a job that differs, raises or runs past its budget
fails.  The inputs are fixed: --seed is recorded and changes nothing.

With --trace 0 the result reports the end-to-end metrics as medians over
rounds.  With --trace 1 each job runs once untraced and once traced per
round, and the result reports the per-layer metrics of spans.py.  The
last stdout line is the result object; the line before it is the full
record (environment and every job), also written to --out when given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# every run ends within this many seconds, even when jobs hang
HARD_LIMIT_S = 170.0
# jobs run on the pure-Python kernel with a fixed string-hash seed
CHILD_ENV = {"GRAPHSPLICE_PURE": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


def now_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so the worker can
    # subtract this reading from its own
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_job(job: str, trace: bool, deadline: float) -> dict:
    budget = min(jobs.JOB_BUDGET_S, deadline - time.monotonic())
    if budget <= 0:
        return {"job": job, "trace": trace, "ok": False, "error": "timeout",
                "wall_s": 0.0}
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), job, "--t0", str(now_ns()),
         *(["--trace"] if trace else [])],
        cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"job": job, "trace": trace, "ok": False, "error": "timeout",
                "wall_s": time.monotonic() - started}
    if proc.returncode == worker.EXIT_NO_PACKAGE:
        raise BenchError(err.strip())
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [""]
        return {"job": job, "trace": trace, "ok": False,
                "error": f"exit {proc.returncode}: {tail[0]}",
                "wall_s": time.monotonic() - started}
    return json.loads(lines[-1])


def run_rounds(workload: str, seconds: float, trace: bool) -> list[list[dict]]:
    """Run rounds of the workload's jobs while another round as slow as the
    slowest so far would end within `seconds`; the hard limit cuts a
    hanging round short."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    modes = (False, True) if trace else (False,)
    rounds = []
    slowest = 0.0
    while True:
        round_start = time.monotonic()
        rounds.append([run_job(job, mode, deadline)
                       for job in jobs.WORKLOADS[workload] for mode in modes])
        end = time.monotonic()
        slowest = max(slowest, end - round_start)
        if end >= deadline or end - started + slowest > seconds:
            return rounds


def end_to_end(rounds: list[list[dict]]) -> tuple[dict, dict]:
    """Medians over rounds, and the same times in plain seconds.

    Each job times a fixed reference loop just before and just after
    itself (worker.reference_s).  A round's time is its jobs' wall time
    divided by the mean reference time in that round ("ref" units), so a
    machine that runs everything slower for a while moves both alike;
    on a shared host that keeps two runs of the same code comparable.
    setup_s is the median over every process, in seconds.
    """
    records = [r for rnd in rounds for r in rnd]
    all_refs = [x for r in records for x in r.get("ref_s", ())]
    fallback = statistics.median(all_refs) if all_refs else 1.0
    walls, refs, made = [], [], []
    for rnd in rounds:
        walls.append(sum(r["wall_s"] for r in rnd))
        in_round = [x for r in rnd for x in r.get("ref_s", ())]
        refs.append(statistics.mean(in_round) if in_round else fallback)
        made.append(sum(r.get("products", 0) for r in rnd))
    setups = [r["setup_s"] for r in records if "setup_s" in r]
    rss = [max(r.get("peak_rss_mb", 0.0) for r in rnd) for rnd in rounds]
    metrics = {
        "wall_ref": (statistics.median(w / f for w, f in zip(walls, refs)), "ref"),
        "products_per_ref": (statistics.median(
            p * f / w for p, f, w in zip(made, refs, walls)), "1/ref"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_rate": (sum(r["ok"] for r in records) / len(records), "ratio"),
    }
    seconds = {
        "wall_s": statistics.median(walls),
        "products_per_s": statistics.median(p / w for p, w in zip(made, walls)),
        "ref_s": statistics.median(refs),
    }
    return metrics, seconds


def per_layer(rounds: list[list[dict]]) -> dict:
    """Each per-layer metric of spans.LAYER_METRICS, as a median over rounds."""
    by_round = []
    for rnd in rounds:
        traced = [r for r in rnd if r["trace"]]
        untraced = [r for r in rnd if not r["trace"]]
        if not all("layers" in r for r in traced):
            continue
        merged = spans.merge(r["layers"] for r in traced)
        by_round.append(spans.layer_metrics(
            merged,
            sum(r["wall_s"] for r in traced),
            sum(r["wall_s"] for r in untraced),
        ))
    out = {}
    for name, unit, *_ in spans.LAYER_METRICS:
        values = [m[name] for m in by_round]
        out[name] = (statistics.median(values) if values else 0.0, unit)
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not its own git repository."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(records: list[dict], args) -> dict:
    backends = {r["backend"] for r in records if "backend" in r}
    if len(backends) > 1:
        raise BenchError(f"jobs ran on different backends: {sorted(backends)}")
    maxsizes = {r["lru_maxsize"] for r in records if "lru_maxsize" in r}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backends.pop() if backends else None,
        "lru_maxsize": maxsizes.pop() if len(maxsizes) == 1 else None,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "child_env": CHILD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads are fixed inputs")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphsplice" / "__init__.py").is_file():
        print(f"no graphsplice package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args.workload, args.seconds, bool(args.trace))
        records = [r for rnd in rounds for r in rnd]
        env = environment(records, args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, seconds = per_layer(rounds), None
    else:
        metrics, seconds = end_to_end(rounds)
    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {"env": env, "rounds": rounds, "error_rate": failed / len(records),
            "seconds": seconds, "result": result}
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

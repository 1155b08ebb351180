"""Run one benchmark job in this fresh process and print its record.

    python3 perfbench/worker.py JOB --t0 NS [--trace]

--t0 is the CLOCK_MONOTONIC reading, in ns, taken by the parent just
before it started this process; setup_s runs from there to "package
imported and inputs parsed".  wall_s runs from the first public call to
the checked result.  The record is one JSON line on stdout; a traced run
also writes its spans to .perfbench/JOB.spans.tsv.  Exit code 3 means the
graphsplice package could not be imported at all.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS_DIR = ROOT / ".perfbench"
EXIT_NO_PACKAGE = 3


def _lru_maxsize(graphs):
    """maxsize of the canonical-form LRU cache, or None without one."""
    cached = getattr(graphs, "_canon_cached", None)
    return cached.cache_info().maxsize if hasattr(cached, "cache_info") else None


def reference_s(n: int = 40000) -> float:
    """Seconds this process takes for a fixed pure-Python loop of tuple,
    sort and dict work that shares no code with graphsplice: the speed
    the machine gives this process right now.  The collector is off so
    that the job's leftover objects cannot slow the loop."""
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict = {}
        for i in range(n):
            key = tuple(sorted(((i * 7919 + k) % 97, k) for k in range(6)))
            seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job")
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import graphsplice
        from graphsplice import graphs
    except Exception as exc:  # any import failure means nothing can run
        print(f"cannot import graphsplice from {ROOT / 'src'}: {exc!r}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    import jobs
    from spans import Tracer

    record = {
        "job": args.job,
        "trace": args.trace,
        "backend": graphsplice.BACKEND,
        "lru_maxsize": _lru_maxsize(graphs),
        "ok": False,
        "error": None,
    }
    want = jobs.expected(args.job)
    tracer = Tracer().install() if args.trace else None
    try:
        inputs = jobs.load(args.job)
        record["setup_s"] = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0) / 1e9
        ref_before = reference_s()
        start = time.perf_counter()
        try:
            summary = jobs.run(args.job, inputs)
            record["mismatches"] = jobs.mismatches(summary, want)
        except Exception as exc:  # a failing job is a result, not a crash
            record["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    record["wall_s"] = wall
    record["ref_s"] = [ref_before, reference_s()]
    if record["error"] is None:
        record["ok"] = not record["mismatches"]
        record["products"] = jobs.products(summary)
        record["summary"] = summary
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["layers"] = tracer.summary(since=start)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"{args.job}.spans.tsv")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's pinned outputs: every job of perfbench/jobs.py must
reproduce its expected summary, the check behind the benchmark's
ok_rate, and `graphsplice lang` must print the same bytes on each
system file."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

import graphsplice.graphs as graphs_module
from graphsplice.cli import main

JOBS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


def _load_jobs():
    # by file path, so perfbench/ never goes on sys.path
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jobs = _load_jobs()


@pytest.mark.parametrize(
    "job", [job for names in jobs.WORKLOADS.values() for job in names])
def test_benchmark_job_reproduces_its_pinned_output(job):
    summary = jobs.run(job, jobs.load(job))
    assert jobs.mismatches(summary, jobs.expected(job)) == []


# canonical-form searches one closure runs from a cold cache, as every
# benchmark job does: the work that a cheaper search multiplies.  The
# closure keys one product per orbit of bijections of each fragment
# pair; ROADMAP item 4 changes which layouts it keys, and with them
# these counts.
LANG_SEARCHES = {"gap": 126, "split": 800, "triangle": 11, "edgeless": 8}


@pytest.mark.parametrize("job", sorted(LANG_SEARCHES))
def test_lang_job_runs_its_pinned_number_of_searches(job):
    graphs_module._canon_cached.cache_clear()
    jobs.run(job, jobs.load(job))
    assert graphs_module._canon_cached.cache_info().misses == LANG_SEARCHES[job]


# sha256 of `graphsplice lang jobs/<job>.plfs` stdout.  The expected
# summaries above pin counts only; these pin every representative, the
# order of the classes and their canonical keys as well.  ROADMAP item 4
# (layout-exact closure) changes these bytes on purpose and will re-pin
# them.
LANG_SHA256 = {
    "gap": "ce259023b8fba46b78e9aa6ec36cd69a9741aff7eea83405a5fca92295d2b287",
    "split": "fbec7e08a31f239c93dd01a74addfd3fee08d988ee91a4fa9ab0eb5838a4ecd6",
    "triangle": "e0255949114b74cf8aeb20a7e8690d303f8496a4bb040b6ff213ec0edb4b57e6",
    "edgeless": "12114f2b51ab784053822a9734022baffba6c7a43b337a27087661ad69119e1b",
}


@pytest.mark.parametrize("job", sorted(LANG_SHA256))
def test_lang_output_bytes_are_pinned(capsys, job):
    assert main(["lang", str(jobs.JOBS_DIR / f"{job}.plfs")]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == LANG_SHA256[job]


# sha256 of `graphsplice verify --max-order 4` stdout, which exits 1
# because regularity-preservation is violated by design.  verify.expected.json
# pins counts only; this pins the samples, the extras and their order.
VERIFY_SHA256 = "abf5e65176d7dcedf2edbe824f2d2ec2fe1e67f3b2f6213ce5a2bad58d194c99"


def test_verify_output_bytes_are_pinned(capsys):
    assert main(["verify", "--max-order", "4"]) == 1
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == VERIFY_SHA256

"""The benchmark's pinned outputs: every job of perfbench/jobs.py must
reproduce its expected summary, the check behind the benchmark's
ok_rate, and `graphsplice lang` must print the same bytes on each
system file."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

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


# sha256 of `graphsplice lang jobs/<job>.plfs` stdout.  The expected
# summaries above pin counts only; these pin every representative and
# the order of the classes as well.  ROADMAP items 3 (a new canonical
# encoding) and 4 (layout-exact closure) change these bytes on purpose
# and will re-pin them.
LANG_SHA256 = {
    "gap": "7bc66b634483bcec3f903ec919882580f1caf7af093c10d421c3a9792699e4d7",
    "split": "7047b5eaac2813a224472242e845aa0b9948fa5c07c328f2f72affcd0fd9e646",
    "triangle": "9fc76b28dd8cdab450b513a7a169d11cc36e691d7aa37e78c8eb2cf7cc1e8402",
    "edgeless": "12114f2b51ab784053822a9734022baffba6c7a43b337a27087661ad69119e1b",
}


@pytest.mark.parametrize("job", sorted(LANG_SHA256))
def test_lang_output_bytes_are_pinned(capsys, job):
    assert main(["lang", str(jobs.JOBS_DIR / f"{job}.plfs")]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == LANG_SHA256[job]

"""The benchmark's pinned outputs: every job of perfbench/jobs.py must
reproduce its expected summary, the check behind the benchmark's
ok_rate."""

import importlib.util
from pathlib import Path

import pytest

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

"""Every job the benchmark can draw reproduces its digest in perfbench/digests.json.

The 641 jobs of `perfbench/jobs.all_jobs()` run in this process.  Each
library job starts from cleared caches, as the benchmark runs it cold;
each CLI job runs through `cli.main` with stdout and stderr captured and
is judged by `jobs.check_cli`, exit code and failing claim included.  A
change that alters any output fails here, naming every job that differs.
The perfbench modules are imported and read, never changed.
"""

import contextlib
import io
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import jobs  # noqa: E402
import spans  # noqa: E402

from gfenum import cli  # noqa: E402


def run_job(job, digests, workdir):
    """None when the job's output matches its recorded digest, else a one-line reason."""
    if job[0] == "cli":
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(jobs.cli_argv(job, workdir))
        return jobs.check_cli(job, code, stdout.getvalue(), stderr.getvalue(), digests)
    _, value = jobs.call_library(job)
    if digests.get(jobs.job_key(job)) != jobs.digest(value):
        return "output digest mismatch"
    return None


def test_every_benchmark_job_matches_its_recorded_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("GFENUM_DATA", raising=False)  # the benchmark's children run without it
    jobs.require_source()
    digests = jobs.load_digests()
    caches = spans.find_caches()
    all_jobs = jobs.all_jobs()
    assert sorted(map(jobs.job_key, all_jobs)) == sorted(digests)  # one digest per job
    mismatches = []
    for job in all_jobs:
        spans.clear_caches(caches)
        reason = run_job(job, digests, tmp_path)
        if reason is not None:
            mismatches.append(f"{jobs.job_key(job)}: {reason}")
    assert not mismatches, f"{len(mismatches)} jobs differ:\n" + "\n".join(mismatches)

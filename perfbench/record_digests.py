"""Record the digest of every job the benchmark can draw into digests.json.

Usage: python3 perfbench/record_digests.py

Run it only at a commit whose outputs are known to be right: the
benchmark fails every job whose output differs from what is recorded
here.  It runs each job once, cold, and takes a few minutes.
"""

import json
import sys
import tempfile
from pathlib import Path

import jobs
import spans


def main() -> int:
    jobs.require_source()
    caches = spans.find_caches()
    digests = {}
    with tempfile.TemporaryDirectory(dir=jobs.HERE, prefix=".work-") as tmp:
        for job in jobs.all_jobs():
            key = jobs.job_key(job)
            if job[0] == "cli":
                _, code, out, err = jobs.run_cli(job, Path(tmp), jobs.UNTRACED_CLI)
                digests[key] = jobs.digest(out)
                reason = jobs.check_cli(job, code, out, err, digests)
                if reason is not None:
                    print(f"{key}: {reason}", file=sys.stderr)
                    return 1
            else:
                spans.clear_caches(caches)
                _, out = jobs.call_library(job)
                digests[key] = jobs.digest(out)
    jobs.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {jobs.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

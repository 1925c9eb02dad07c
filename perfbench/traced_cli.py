"""Run the gfenum CLI with spans installed, then write the span totals.

Usage: python perfbench/traced_cli.py SPANS_JSON [gfenum arguments...]

Standard output, standard error and the exit code are the CLI's own, so
the benchmark checks a traced job exactly as it checks an untraced one.
"""

import json
import sys
from pathlib import Path

import jobs
import spans


def main() -> int:
    out_path = Path(sys.argv[1])
    jobs.require_source()
    caches = spans.find_caches()
    tracer = spans.Tracer()
    tracer.install()
    import gfenum.cli

    try:
        code = gfenum.cli.main(sys.argv[2:])
    finally:
        tally = spans.CacheTally(caches)
        tally.collect()
        doc = tracer.dump()
        doc["cache_hits"], doc["cache_calls"] = tally.hits, tally.calls
        out_path.write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

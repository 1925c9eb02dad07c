"""gfenum benchmark: run one workload and print every metric.

Usage:
    python3 perfbench/run.py --workload {cli,deep,sweep} --seed N
                             [--seconds S] [--trace 0|1]

Every line but the last names one metric with its value and unit, or the
run context; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit code is
0 when every job's output matched its recorded digest, 1 when any job
failed (``fail_frac > 0``), and 2 when there is nothing to benchmark.

Workloads are closed loops: one client, one job at a time.  An untraced
run keeps starting whole rounds of jobs until ``--seconds`` have passed.
A traced run plays a fixed number of jobs or passes, each once untraced
and once with spans, so per-layer totals repeat exactly for a given
seed, and it times the scaling ladders.  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs
import spans

# Set-up is timed in two halves, before and after the workload, so one
# burst of load on a shared machine cannot move the median alone.
SETUP_REPEATS = 8
# A traced run plays this many units, each once plain and once traced:
# jobs for cli and deep (two cli rounds, half a deep round), passes for sweep.
TRACE_UNITS = {"cli": 18, "deep": 40, "sweep": 2}
LADDER_REPEATS = 3
LADDERS = {
    "generators.build_b.scaling_exp": ("build_b", (40, 60, 80, 100, 120)),
    "transforms.euler_expand.scaling_exp": ("euler_expand", (80, 160, 320)),
    "mzv.mzv_counts.scaling_exp": ("mzv_counts", (36, 60, 90)),
}


class Outcome:
    """Latencies and failures of one phase of a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.wall = 0.0

    def fail(self, job: tuple, reason: str) -> None:
        self.failed += 1
        self.reasons.append(f"{jobs.job_key(job)}: {reason}")

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3

    def p90_ms(self) -> float:
        return statistics.quantiles(self.latencies, n=10)[-1] * 1e3


class Runner:
    """Runs batches of one workload's jobs, one at a time, into an Outcome."""

    def __init__(self, workload: str, caches: list, digests: dict, workdir: Path) -> None:
        self.workload = workload
        self.caches = caches
        self.digests = digests
        self.workdir = workdir
        self.spans_path = workdir / "spans.json"

    def run(self, batch: list, outcome: Outcome, tracer=None, tally=None) -> None:
        start = time.perf_counter()
        if self.workload == "cli":
            self._cli(batch, outcome, tracer, tally)
        else:
            if tracer is not None:
                tracer.install()
            try:
                self._library(batch, outcome, tally)
            finally:
                if tracer is not None:
                    tracer.remove()
        outcome.wall += time.perf_counter() - start

    def _library(self, batch, outcome, tally) -> None:
        # deep clears every cache before each job; sweep once per pass
        groups = [[job] for job in batch] if self.workload == "deep" else [batch]
        for group in groups:
            spans.clear_caches(self.caches)
            for job in group:
                outcome.attempted += 1
                try:
                    seconds, value = jobs.call_library(job)
                except Exception as exc:  # a failing job is counted, never fatal
                    outcome.fail(job, repr(exc))
                    continue
                outcome.latencies.append(seconds)
                if self.digests.get(jobs.job_key(job)) != jobs.digest(value):
                    outcome.fail(job, "output digest mismatch")
            if tally is not None:
                tally.collect()

    def _cli(self, batch, outcome, tracer, tally) -> None:
        prefix = jobs.UNTRACED_CLI
        if tracer is not None:
            prefix = [sys.executable, str(jobs.HERE / "traced_cli.py"), str(self.spans_path)]
        for job in batch:
            outcome.attempted += 1
            try:
                seconds, code, out, err = jobs.run_cli(job, self.workdir, prefix)
            except (OSError, subprocess.SubprocessError) as exc:
                outcome.fail(job, repr(exc))
                continue
            outcome.latencies.append(seconds)
            reason = jobs.check_cli(job, code, out, err, self.digests)
            if reason is not None:
                outcome.fail(job, reason)
            if tracer is not None and self.spans_path.exists():
                doc = json.loads(self.spans_path.read_text(encoding="utf-8"))
                self.spans_path.unlink()
                tracer.merge(doc)
                tally.merge(doc["cache_hits"], doc["cache_calls"])


def measure_setup(samples: dict, repeats: int) -> None:
    """Time fresh interpreters, bare and with ``import gfenum``, into ``samples``."""

    def spawn(code: str) -> float:
        start = time.perf_counter()
        # Captured output makes the wait end on the pipes closing; without it
        # a timeout makes subprocess poll, which rounds times up by 50 ms.
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=jobs.ROOT,
            env=jobs.child_env(),
            check=True,
            capture_output=True,
            timeout=jobs.JOB_TIMEOUT_S,
        )
        return time.perf_counter() - start

    if not samples:
        spawn("import gfenum")  # writes bytecode caches on a fresh checkout
    for _ in range(repeats):
        samples.setdefault("bare", []).append(spawn("pass"))
        samples.setdefault("ready", []).append(spawn("import gfenum"))


def _best_of(fn, caches) -> float:
    best = math.inf
    for _ in range(LADDER_REPEATS):
        spans.clear_caches(caches)
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _slope(sizes, times) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scaling_exponents(caches) -> dict:
    """Log-log slope of best-of-k cold times over each fixed size ladder."""
    import gfenum

    def kernel(name: str, size: int):
        if name == "euler_expand":
            exponents = {m + 1: p for m, p in enumerate(gfenum.primitive_counts(size))}
            return lambda: gfenum.euler_expand(exponents, 1, size)
        return lambda: getattr(gfenum, name)(size)

    out = {}
    for metric, (name, sizes) in LADDERS.items():
        times = []
        for size in sizes:
            fn = kernel(name, size)  # builds any input outside the timed call
            times.append(_best_of(fn, caches))
        out[metric] = _slope(sizes, times)
    return out


def end_to_end_metrics(outcome: Outcome, setup: dict, rss_kb: int) -> dict:
    return {
        "setup_s": (setup["ready"], "s"),
        "job_p50_ms": (outcome.p50_ms(), "ms"),
        "job_p90_ms": (outcome.p90_ms(), "ms"),
        "jobs_per_s": ((outcome.attempted - outcome.failed) / outcome.wall, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def layer_metrics(tracer, tally, setup, overhead, ladders) -> dict:
    t = tracer
    counts = t.counts
    values = {
        "series.bi_mul.calls": (t.calls("series.BiSeries.__mul__"), "count"),
        "series.bi_mul.self_ms": (t.self_ms("series.BiSeries.__mul__"), "ms"),
        "series.bi_mul.term_pairs": (counts.get("series.BiSeries.__mul__.term_pairs", 0), "count"),
        "series.bi_inverse.calls": (t.calls("series.BiSeries.inverse"), "count"),
        "series.bi_inverse.self_ms": (t.self_ms("series.BiSeries.inverse"), "ms"),
        "series.uni_mul.self_ms": (t.self_ms("series.UniSeries.__mul__"), "ms"),
        "series.uni_inverse.self_ms": (t.self_ms("series.UniSeries.inverse"), "ms"),
        "generators.build_b.self_ms": (t.self_ms("generators.build_b"), "ms"),
        "generators.p_from_b.self_ms": (t.self_ms("generators.p_from_b"), "ms"),
        "generators.p_closed.self_ms": (t.self_ms("generators.p_closed"), "ms"),
        "generators.beta_table.self_ms": (t.self_ms("generators.beta_table"), "ms"),
        "generators.cache_hit_ratio": (tally.ratio("generators"), "ratio"),
        "transforms.euler_expand.self_ms": (t.self_ms("transforms.euler_expand"), "ms"),
        "transforms.peel_bi.self_ms": (t.self_ms("transforms.peel_bi"), "ms"),
        "transforms.peel_bi.exponents": (counts.get("transforms.peel_bi.exponents", 0), "count"),
        "mzv.build_rhs.self_ms": (t.self_ms("mzv.build_mzv_rhs", "mzv.build_eul_rhs"), "ms"),
        "mzv.mzv_counts.self_ms": (t.self_ms("mzv.mzv_counts"), "ms"),
        "mzv.cache_hit_ratio": (tally.ratio("mzv"), "ratio"),
        "asymptotics.series_constant.self_ms": (
            t.self_ms("asymptotics.growth_constant_from_series"),
            "ms",
        ),
        "asymptotics.ratio_table.self_ms": (t.self_ms("asymptotics.ratio_table"), "ms"),
        "verify.run_all.self_ms": (t.self_ms("verify.run_all"), "ms"),
        "verify.load_reference.ms": (t.total_ms("verify.load_reference"), "ms"),
        "verify.claims": (counts.get("verify.run_all.claims", 0), "count"),
        "verify.claims_failed": (counts.get("verify.run_all.claims_failed", 0), "count"),
        "cli.interpreter_ms": (setup["bare"] * 1e3, "ms"),
        "cli.import_ms": ((setup["ready"] - setup["bare"]) * 1e3, "ms"),
        "cli.main.self_ms": (t.self_ms("cli.main"), "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    values.update({name: (slope, "exponent") for name, slope in ladders.items()})
    return values


def run_context(args) -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "gfenum_commit": source_revision(),
    }


def source_revision() -> str:
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if (jobs.ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=jobs.ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(jobs.SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(jobs.SRC)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        jobs.require_source()
    except (jobs.SourceMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    context = run_context(args)
    digests = jobs.load_digests()
    caches = spans.find_caches()
    setup_samples: dict[str, list[float]] = {}
    measure_setup(setup_samples, SETUP_REPEATS)

    rounds = jobs.ROUNDS[args.workload](args.seed)
    plain = Outcome()
    with tempfile.TemporaryDirectory(dir=jobs.HERE, prefix=".work-") as tmp:
        runner = Runner(args.workload, caches, digests, Path(tmp))
        if args.trace:
            traced, tracer, tally = Outcome(), spans.Tracer(), spans.CacheTally(caches)
            # Alternate plain and traced runs of the same unit, so drift in the
            # machine's speed falls on both sides alike.  A sweep pass shares
            # its warm caches, so it is one unit; other jobs stand alone.
            if args.workload == "sweep":
                units = rounds
            else:
                units = ([job] for round_jobs in rounds for job in round_jobs)
            for unit in itertools.islice(units, TRACE_UNITS[args.workload]):
                runner.run(unit, plain)
                runner.run(unit, traced, tracer, tally)
            ladders = scaling_exponents(caches)
            outcomes = [plain, traced]
        else:
            start = time.perf_counter()
            for round_jobs in rounds:
                if time.perf_counter() - start >= args.seconds:
                    break
                runner.run(round_jobs, plain)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            rss_kb = resource.getrusage(who).ru_maxrss
            outcomes = [plain]

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    latencies = sum(len(o.latencies) for o in outcomes)
    print("# context " + json.dumps(context, sort_keys=True))
    for reason in [r for o in outcomes for r in o.reasons][:20]:
        print(f"# failed {reason}")
    print(f"fail_frac {failed / attempted:.6g} ratio")
    print(f"samples {latencies} count")
    if any(len(o.latencies) < 2 for o in outcomes):
        print("perfbench: too few jobs completed to report latencies", file=sys.stderr)
        return 1

    measure_setup(setup_samples, SETUP_REPEATS)
    setup = {name: statistics.median(times) for name, times in setup_samples.items()}
    if args.trace:
        overhead = traced.p50_ms() / plain.p50_ms()
        metrics = layer_metrics(tracer, tally, setup, overhead, ladders)
    else:
        metrics = end_to_end_metrics(plain, setup, rss_kb)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

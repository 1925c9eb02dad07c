"""Tests of the benchmark itself: it must fail closed and trace what it claims.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import itertools
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

jobs.require_source()

import gfenum  # noqa: E402
from gfenum import generators, verify  # noqa: E402


def _fail_frac(outcome):
    return outcome.failed / outcome.attempted


class FailClosed(unittest.TestCase):
    def setUp(self):
        self.digests = jobs.load_digests()
        self.caches = spans.find_caches()

    def _run(self, workload, batch, digests):
        outcome = run.Outcome()
        with tempfile.TemporaryDirectory(dir=jobs.HERE, prefix=".work-") as tmp:
            run.Runner(workload, self.caches, digests, Path(tmp)).run(batch, outcome)
        return outcome

    def _library(self, batch, digests):
        return self._run("deep", batch, digests)

    def _cli(self, batch, digests):
        return self._run("cli", batch, digests)

    def test_recorded_digest_passes(self):
        outcome = self._library([("p_from_b", 30), ("mzv_counts", 12)], self.digests)
        self.assertEqual((outcome.attempted, outcome.failed), (2, 0))

    def test_wrong_digest_raises_fail_frac(self):
        wrong = dict(self.digests, **{"p_from_b:30": "0" * 20})
        outcome = self._library([("p_from_b", 30), ("mzv_counts", 12)], wrong)
        self.assertEqual(_fail_frac(outcome), 0.5)

    def test_missing_digest_fails(self):
        outcome = self._library([("p_from_b", 30)], {})
        self.assertGreater(_fail_frac(outcome), 0)

    def test_exception_is_counted_not_raised(self):
        outcome = self._library([("no_such_kind", 1)], self.digests)
        self.assertEqual(_fail_frac(outcome), 1.0)

    def test_mutated_verify_fails_exactly_its_claim(self):
        outcome = self._cli([("cli", "verify-mutated", "json", "seq:P")], self.digests)
        self.assertEqual((outcome.attempted, outcome.failed), (1, 0))

    def test_wrong_exit_code_raises_fail_frac(self):
        stub = [sys.executable, "-c", "import sys; sys.exit(2)"]
        with mock.patch.object(jobs, "UNTRACED_CLI", stub):
            outcome = self._cli([("cli", "primitives", "tsv")], self.digests)
        self.assertEqual(_fail_frac(outcome), 1.0)

    def test_right_output_with_wrong_exit_code_fails(self):
        job = ("cli", "verify-mutated", "tsv", "seq:P")
        reason = jobs.check_cli(job, 0, "", "", self.digests)
        self.assertIn("exit code 0", reason)


class Contract(unittest.TestCase):
    def test_reported_metrics_are_the_declared_ones(self):
        declared = json.loads((jobs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        outcome = run.Outcome()
        outcome.latencies, outcome.attempted, outcome.wall = [0.1, 0.2, 0.3], 3, 1.0
        setup = {"bare": 0.05, "ready": 0.1}
        e2e = run.end_to_end_metrics(outcome, setup, 1024)
        ladders = {name: 1.0 for name in run.LADDERS}
        layers = run.layer_metrics(spans.Tracer(), spans.CacheTally([]), setup, 1.0, ladders)
        for group, metrics in (("end_to_end", e2e), ("per_layer", layers)):
            self.assertEqual({m["name"] for m in declared[group]}, set(metrics), group)
            for m in declared[group]:
                self.assertEqual(m["unit"], metrics[m["name"]][1], m["name"])
        self.assertEqual([w["name"] for w in declared["workloads"]], sorted(jobs.ROUNDS))


class Streams(unittest.TestCase):
    def test_every_drawable_job_has_a_digest(self):
        keys = {jobs.job_key(job) for job in jobs.all_jobs()}
        self.assertEqual(keys, set(jobs.load_digests()))
        for workload, rounds in jobs.ROUNDS.items():
            for round_jobs in itertools.islice(rounds(7), 3):
                for job in round_jobs:
                    self.assertIn(jobs.job_key(job), keys, workload)

    def test_seed_fixes_the_jobs(self):
        for rounds in jobs.ROUNDS.values():
            first = list(itertools.islice(rounds(5), 2))
            self.assertEqual(first, list(itertools.islice(rounds(5), 2)))
            self.assertNotEqual(first, list(itertools.islice(rounds(6), 2)))

    def test_deep_round_covers_every_slice(self):
        round_jobs = next(jobs.deep_rounds(3))
        for kind, grid in jobs.DEEP_GRIDS.items():
            sizes = sorted(size for k, size in round_jobs if k == kind)
            width = len(grid) / jobs.DEEP_STRATA
            self.assertEqual(len(sizes), jobs.DEEP_STRATA)
            for i, size in enumerate(sizes):
                self.assertIn(size, grid[round(i * width): round((i + 1) * width)])


class Tracing(unittest.TestCase):
    def test_caches_are_found_and_cleared(self):
        caches = spans.find_caches()
        names = {f"{c.__module__}.{c.__qualname__}" for c in caches}
        self.assertTrue({"gfenum.generators.build_b", "gfenum.mzv.mzv_counts"} <= names)
        gfenum.beta_table(6)
        spans.clear_caches(caches)
        self.assertTrue(all(c.cache_info().currsize == 0 for c in caches))

    def test_spans_reach_from_imported_names_and_are_removed(self):
        originals = (verify.beta_table, generators.build_b, gfenum.BiSeries.__mul__)
        caches = spans.find_caches()
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(verify.beta_table, originals[0])
            spans.clear_caches(caches)
            gfenum.beta_table(12)
        finally:
            tracer.remove()
        self.assertEqual((verify.beta_table, generators.build_b, gfenum.BiSeries.__mul__), originals)
        self.assertEqual(tracer.calls("generators.beta_table"), 1)
        self.assertEqual(tracer.calls("generators.build_b"), 1)
        self.assertGreater(tracer.calls("series.BiSeries.__mul__"), 0)
        self.assertGreater(tracer.counts["series.BiSeries.__mul__.term_pairs"], 0)
        total = tracer.total_ms("generators.beta_table")
        own = sum(tracer.self_ms(name) for name in tracer.spans)
        self.assertLessEqual(tracer.self_ms("generators.beta_table"), total)
        self.assertAlmostEqual(own, total, delta=total * 0.05)


if __name__ == "__main__":
    unittest.main()

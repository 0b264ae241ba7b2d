#!/usr/bin/env python3
"""Self-tests of the benchmark's pure parts: input generation, the
percentile rule, the answer check and the end-to-end metric arithmetic.
They need no build.  Run: python3 perfbench/test_run.py
"""

import math
import os
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def published_job(**changes):
    job = {"status": "ok", "error": "", "cycles": 932, "e0": 202507.5036,
           "digest": "", "sym_max_rel": 1.2e-12}
    job.update(changes)
    return job


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.make_inputs(w, 7), run.make_inputs(w, 7))

    def test_seed_moves_only_the_region_seeds(self):
        for w in run.WORKLOADS:
            a, b = run.make_inputs(w, 7), run.make_inputs(w, 8)
            self.assertNotEqual(a.pop("region_seeds"), b.pop("region_seeds"))
            self.assertEqual(a, b)

    def test_jobs_draw_distinct_region_maps(self):
        for w in run.WORKLOADS:
            seeds = run.make_inputs(w, 1)["region_seeds"]
            self.assertEqual(len(seeds), run.CANDIDATE_MAPS)
            self.assertGreater(len(set(seeds)), run.CANDIDATE_MAPS - 3)

    def test_workloads_draw_distinct_seeds(self):
        firsts = {run.make_inputs(w, 1)["region_seeds"][0] for w in run.WORKLOADS}
        self.assertEqual(len(firsts), len(run.WORKLOADS))

    def test_quantile_pick_spans_the_load_ranks(self):
        seeds = list(range(1000, 1240))
        loads = [(s * 7919) % 240 for s in seeds]  # a permutation of 0..239
        picked, picked_loads = run.quantile_pick(seeds, loads, 48)
        self.assertEqual(picked_loads, [5 * i + 2 for i in range(48)])
        self.assertEqual([loads[s - 1000] for s in picked], picked_loads)
        self.assertEqual(len(set(picked)), 48)

    def test_stratified_order_is_a_permutation(self):
        seeds = run.make_inputs("sedov-s30", 1)["region_seeds"]
        loads = [(s * 7919) % 1000 for s in seeds]
        order = run.stratified_order(seeds, loads)
        self.assertEqual(sorted(order), sorted(seeds))
        self.assertEqual(order, run.stratified_order(seeds, loads))

    def test_stratified_prefixes_span_the_loads(self):
        seeds = list(range(100, 148))
        loads = list(range(48))  # load rank = seed - 100
        order = run.stratified_order(seeds, loads)
        self.assertEqual(order[0], 124)  # the middle rank first
        for k in (4, 6, 10):
            ranks = sorted(s - 100 for s in order[:k])
            self.assertLess(ranks[0], 48 // 3)
            self.assertGreater(ranks[-1], 2 * 48 // 3)
            self.assertLessEqual(abs(statistics.median(ranks) - 23.5), 48 / k)

    def test_never_more_workers_than_the_host(self):
        for w in run.WORKLOADS:
            t = run.make_inputs(w, 1)["threads"]
            self.assertLessEqual(t, os.cpu_count())
            self.assertLessEqual(t, run.MAX_THREADS)


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(100)), 0.90), (89, 100))
        with self.assertRaises(ValueError):
            run.percentile(list(range(99)), 0.90)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
        self.assertEqual(run.percentile(samples, 0.90)[0], 5.0)
        self.assertEqual(run.percentile(samples, 0.50)[0], 3.0)


class AnswerCheckTest(unittest.TestCase):
    def test_published_answer_accepted(self):
        self.assertIsNone(run.check_job(published_job(), "published"))

    def test_perturbed_energy_rejected(self):
        for e0 in (202507.5036 * (1 + 1e-5), 204058.0, 203648.1, math.nan, math.inf):
            self.assertIsNotNone(run.check_job(published_job(e0=e0), "published"))

    def test_wrong_cycle_count_rejected(self):
        self.assertIsNotNone(run.check_job(published_job(cycles=933), "published"))

    def test_broken_symmetry_rejected(self):
        self.assertIsNotNone(run.check_job(published_job(sym_max_rel=1e-3), "published"))
        self.assertIsNotNone(run.check_job(published_job(sym_max_rel=math.nan), "published"))

    def test_failed_status_rejected(self):
        job = published_job(status="volume_error", error="negative volume")
        self.assertIn("volume_error", run.check_job(job, "published"))

    def test_serial_check_is_bitwise(self):
        ref = {"cycles": 60, "e0": 1954320.25, "digest": "00ff"}
        job = {"status": "ok", "error": "", "cycles": 60, "e0": 1954320.25, "digest": "00ff",
               "sym_max_rel": 3e-13}
        self.assertIsNone(run.check_job(job, "serial", ref))
        nudged = dict(job, e0=math.nextafter(job["e0"], math.inf))
        self.assertIsNotNone(run.check_job(nudged, "serial", ref))
        self.assertIsNotNone(run.check_job(dict(job, digest="00fe"), "serial", ref))
        self.assertIsNotNone(run.check_job(dict(job, cycles=59), "serial", ref))
        nan_ref = dict(ref, e0=math.nan)
        self.assertIsNotNone(run.check_job(dict(job, e0=math.nan), "serial", nan_ref))

    def test_serial_check_rejects_broken_symmetry(self):
        # A kernel defect shared with the serial driver matches it bitwise,
        # but still breaks the symmetry of the solution.
        ref = {"cycles": 60, "e0": 1954320.25, "digest": "00ff"}
        job = {"status": "ok", "error": "", "cycles": 60, "e0": 1954320.25, "digest": "00ff"}
        self.assertIn("symmetry", run.check_job(dict(job, sym_max_rel=2e-6), "serial", ref))
        self.assertIsNotNone(run.check_job(dict(job, sym_max_rel=math.nan), "serial", ref))


class EndToEndTest(unittest.TestCase):
    @staticmethod
    def job(timed_s, status="ok"):
        return {"timed_s": timed_s, "zones": 1000, "timed_cycles": 110,
                "solve_s": timed_s + 0.5, "status": status}

    def test_metrics_and_sample_counts(self):
        jobs = [self.job(t) for t in (0.11, 0.33, 0.22)]
        # Per-job p90s are 1.0, 2.0 and 3.0: the nine slow cycles of the last
        # job fall beyond its p90, and the median over jobs is 2.0.
        cycles = [1.0] * 110 + [2.0] * 110 + [3.0] * 101 + [9.0] * 9
        out = {"cycle_ms": cycles, "setup_s": [0.5, 0.1, 0.3], "peak_rss_mb": 31.0}
        m = run.end_to_end_metrics(out, jobs)
        self.assertAlmostEqual(m["grind_us"][0], 2.0)
        self.assertEqual(m["grind_us"][1], 3)
        self.assertAlmostEqual(m["time_to_solution_s"][0], 0.72)
        self.assertEqual(m["cycle_ms.p90"], (2.0, 330))
        self.assertEqual(m["setup_s"], (0.3, 3))
        self.assertEqual(set(m), {name for name, _ in run.END_TO_END})

    def test_p90_is_per_job_not_pooled(self):
        # Pooled, a third of the cycles are slow and the p90 would be 5.0.
        jobs = [self.job(0.11) for _ in range(3)]
        cycles = [1.0] * 220 + [5.0] * 110
        self.assertEqual(run.cycle_p90(cycles, jobs), (1.0, 330))

    def test_p90_skips_failed_jobs_and_checks_the_split(self):
        jobs = [self.job(0.11), self.job(0.11, status="error")]
        self.assertEqual(run.cycle_p90([1.0] * 110 + [7.0] * 110, jobs), (1.0, 220))
        with self.assertRaises(ValueError):
            run.cycle_p90([1.0] * 219, jobs)
        with self.assertRaises(ValueError):
            run.cycle_p90([1.0] * 220, [self.job(0.11, status="error")] * 2)

    def test_p90_needs_ten_cycles_beyond_in_each_job(self):
        jobs = [dict(self.job(0.06), timed_cycles=59)]
        with self.assertRaises(ValueError):
            run.cycle_p90([1.0] * 59, jobs)


class TracingOverheadTest(unittest.TestCase):
    @staticmethod
    def job(timed_s, traced):
        return {"timed_s": timed_s, "zones": 1000, "timed_cycles": 100, "traced": traced}

    def test_ratio_within_pairs(self):
        # Pair costs differ 2x between region maps; the overhead is 10% in each.
        jobs = [self.job(1.0, False), self.job(1.1, True),
                self.job(2.0, False), self.job(2.2, True),
                self.job(1.5, False), self.job(1.65, True)]
        self.assertAlmostEqual(run.tracing_overhead(jobs), 0.1)

    def test_unpaired_jobs_rejected(self):
        with self.assertRaises(ValueError):
            run.tracing_overhead([self.job(1.0, True), self.job(1.0, False)])
        with self.assertRaises(ValueError):
            run.tracing_overhead([])


if __name__ == "__main__":
    unittest.main()

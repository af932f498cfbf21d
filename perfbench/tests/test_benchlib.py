"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchlib  # noqa: E402

E2E_NAMES = {name for name, *_ in benchlib.END_TO_END}

# What BENCHMARK.json accepts as a metric or workload name, and as a unit.
NAME_RE = r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"
UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"


def sim_row(**overrides):
    row = {"wall_s": 1.0, "inner_s": 0.9, "issued": 100, "completed": 100, "failed": 0,
           "hits": 50, "hops": 300, "bytes_completed": 0, "bytes_hit": 0, "events": 500,
           "messages": 400, "concurrency": 1}
    row.update(overrides)
    return row


def sim_raw(rows, digests=None, seed=1, workload="sim-adc-paper"):
    return {"workload": workload, "seed": seed, "requests": 100, "peak_rss_kib": 2048,
            "trace_gen_s": [0.2, 0.1, 0.3], "replays": rows, "traced_replays": [],
            "digests": digests or ["a"] * len(rows), "traced_digests": [], "oracle": {}}


class PercentileTest(unittest.TestCase):
    def test_reports_sample_count(self):
        self.assertEqual(benchlib.percentile(250.0, 1000, 0.99), (250.0, 1000))

    def test_refuses_fewer_than_ten_samples_beyond(self):
        # Nearest rank of p99 over 999 samples is 990: 9 samples lie beyond.
        self.assertEqual(benchlib.samples_beyond(999, 0.99), 9)
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(250.0, 999, 0.99)
        self.assertEqual(benchlib.samples_beyond(1000, 0.99), 10)

    def test_median_needs_twenty_samples(self):
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(1.0, 19, 0.5)
        self.assertEqual(benchlib.percentile(1.0, 20, 0.5), (1.0, 20))


class FailureAccountingTest(unittest.TestCase):
    def test_clean_replay(self):
        self.assertEqual(benchlib.account(100, 100, 0, planned=False), (100, 0))

    def test_timeouts_fail_unless_planned(self):
        self.assertEqual(benchlib.account(100, 97, 3, planned=False), (100, 3))
        self.assertEqual(benchlib.account(100, 97, 3, planned=True), (100, 0))

    def test_lost_requests_always_fail(self):
        self.assertEqual(benchlib.account(100, 95, 3, planned=True), (100, 2))
        self.assertEqual(benchlib.account(100, 95, 3, planned=False), (100, 5))

    def test_totals_over_replays(self):
        raw = sim_raw([sim_row(), sim_row(completed=98, failed=2)])
        self.assertEqual(benchlib.failure_totals(raw), (200, 2))
        raw["workload"] = "sim-carp-erasure-crash"
        self.assertEqual(benchlib.failure_totals(raw), (200, 0))

    def test_incomplete_accounting_is_incorrect(self):
        problems = benchlib.check(sim_raw([sim_row(completed=90)]), {})
        self.assertTrue(any("!= issued" in p for p in problems), problems)


class CatalogueTest(unittest.TestCase):
    def test_names_use_only_allowed_characters(self):
        names = [name for name, *_ in benchlib.END_TO_END + benchlib.PER_LAYER]
        names += list(benchlib.WORKLOADS)
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        for _, unit, *_ in benchlib.END_TO_END + benchlib.PER_LAYER:
            self.assertRegex(unit, UNIT_RE)

    def test_per_layer_metrics_name_an_end_to_end_metric_and_a_workload(self):
        for name, _, better, moves, on, flat_on in benchlib.PER_LAYER:
            with self.subTest(name=name):
                self.assertIn(better, ("higher", "lower"))
                self.assertTrue(moves)
                self.assertLessEqual(set(moves), E2E_NAMES)
                self.assertTrue(on)
                self.assertLessEqual(set(on) | set(flat_on), set(benchlib.WORKLOADS))
                self.assertFalse(set(on) & set(flat_on))

    def test_bounds(self):
        for name, _, better, bound, _ in benchlib.END_TO_END:
            self.assertIn(better, ("higher", "lower"))
            self.assertTrue(0 < bound <= 0.25, name)
        setup_bound = dict((n, b) for n, _, _, b, _ in benchlib.END_TO_END)["setup_s"]
        self.assertEqual(setup_bound, max(b for _, _, _, b, _ in benchlib.END_TO_END))

    def test_benchmark_json_matches_catalogue(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(benchlib.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]],
                         [(n, u, b, bound) for n, u, b, bound, _ in benchlib.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(n, u, b) for n, u, b, *_ in benchlib.PER_LAYER])


class MetricsTest(unittest.TestCase):
    def test_end_to_end_uses_the_fastest_replay(self):
        rows = [sim_row(wall_s=2.0), sim_row(wall_s=1.0), sim_row(wall_s=4.0)]
        metrics = benchlib.end_to_end(sim_raw(rows), rows)
        self.assertEqual(set(metrics), E2E_NAMES)
        self.assertEqual(metrics["req_per_s"][0], 100.0)
        self.assertEqual(metrics["latency_p50_us"][0], 1e4)  # one in flight, 100 req/s
        self.assertEqual(metrics["hit_rate"][0], 0.5)
        self.assertEqual(metrics["avg_hops"][0], 3.0)
        self.assertEqual(metrics["byte_hit_rate"][0], 0.5)  # unit sizes without payloads
        self.assertEqual(metrics["completed_frac"][0], 1.0)
        self.assertEqual(metrics["peak_rss_mb"][0], 2.0)
        self.assertEqual(metrics["setup_s"][0], 0.2)

    def test_values_are_never_zero_on_a_clean_run(self):
        rows = [sim_row()]
        for name, (value, _) in benchlib.end_to_end(sim_raw(rows), rows).items():
            self.assertNotEqual(value, 0, name)


class CorrectnessTest(unittest.TestCase):
    def test_recorded_values_must_match(self):
        raw = sim_raw([sim_row()], seed=7)
        expected = {"sim-adc-paper": {"7": benchlib.pinned_values(sim_row())}}
        self.assertEqual(benchlib.check(raw, expected), [])
        expected["sim-adc-paper"]["7"]["hits"] += 1
        self.assertEqual(len(benchlib.check(raw, expected)), 1)

    def test_replays_must_be_bit_identical(self):
        raw = sim_raw([sim_row(), sim_row()], digests=["a", "b"])
        self.assertTrue(benchlib.check(raw, {}))

    def test_stranded_stripes_are_incorrect(self):
        raw = sim_raw([sim_row(stripes_stranded=1)], workload="sim-carp-erasure-crash")
        self.assertTrue(benchlib.check(raw, {}))

    def test_live_must_agree_with_the_simulator(self):
        row = {"wall_s": 1.0, "setup_s": 0.5, "issued": 80, "completed": 80, "failed": 0,
               "timed_out": 0, "hits": 40, "hops": 240, "latency_p50_us": 40,
               "latency_p99_us": 300, "latency_samples": 2000, "warm_completed": 20,
               "warm_failed": 0, "warm_hits": 10, "warm_hops": 60, "drops": 0}
        raw = {"workload": "live-adc-loopback", "requests": 100, "replays": [row],
               "traced_replays": [], "oracle": {"hits": 50, "hops": 300, "completed": 100}}
        self.assertEqual(benchlib.check(raw, {}), [])
        raw["oracle"]["hits"] = 52
        self.assertEqual(len(benchlib.check(raw, {})), 1)
        raw["oracle"]["hits"] = 50
        row["drops"] = 1
        self.assertEqual(len(benchlib.check(raw, {})), 1)


class FingerprintTest(unittest.TestCase):
    def test_refuses_sanitizer_and_debug_builds(self):
        release = {"build_type": "RelWithDebInfo", "sanitizer": "", "optimized": True}
        self.assertIsNone(benchlib.refusal(release))
        self.assertIsNotNone(benchlib.refusal(dict(release, sanitizer="address")))
        self.assertIsNotNone(benchlib.refusal(dict(release, cxx_flags="-fsanitize=undefined")))
        self.assertIsNotNone(benchlib.refusal(dict(release, build_type="Debug")))
        self.assertIsNotNone(benchlib.refusal(dict(release, optimized=False)))


if __name__ == "__main__":
    unittest.main()

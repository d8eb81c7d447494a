"""Self-tests of the benchmark's statistics and output check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics tests are pure Python.  InjectedMismatchTest builds and runs
the benchmark (the first build takes a few minutes).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def span(name, start, end, parent=-1, wait=False):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "campaign": 0, "thread": 0, "wait": wait}


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # unsorted input
        value, pct, n = stats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_percentile_follows_sample_count(self):
        value, pct, n = stats.tail(range(45))
        self.assertEqual((value, n), (34, 45))
        self.assertAlmostEqual(pct, 100.0 * 35 / 45)

    def test_twenty_samples_is_the_smallest_with_a_percentile(self):
        self.assertEqual(stats.tail(range(20)), (9, 50.0, 20))

    def test_fewer_than_twenty_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 9.0, 1.0]), (9.0, 100.0, 3))
        self.assertEqual(stats.tail(range(19)), (18, 100.0, 19))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span("swifi.run", 0.0, 10.0),
            span("swifi.context_build", 1.0, 4.0, parent=0),
            span("gpusim.device_ctor", 1.5, 3.5, parent=1),
            span("swifi.golden", 5.0, 6.0, parent=0),
        ]
        self.assertEqual(stats.self_times(spans), [6.0, 1.0, 2.0, 1.0])

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [span("a.x", 0.0, 10.0), span("b.y", 2.0, 6.0, parent=0),
                 span("b.z", 4.0, 12.0, parent=0)]
        self.assertEqual(stats.self_times(spans)[0], 2.0)

    def test_wait_spans_are_not_busy(self):
        spans = [span("swifi.run", 0.0, 10.0),
                 span("swifi.context_wait", 0.0, 4.0, parent=0, wait=True)]
        self.assertEqual(stats.self_times(spans), [10.0, 0.0])
        summary = stats.layer_summary(spans)["swifi"]
        self.assertEqual((summary["count"], summary["busy_s"], summary["self_s"],
                          summary["wait_s"]), (1, 10.0, 10.0, 4.0))

    def test_layer_busy_time_counts_nested_same_layer_calls_once(self):
        spans = [span("swifi.run", 0.0, 10.0), span("swifi.context_build", 1.0, 4.0, parent=0),
                 span("gpusim.device_ctor", 1.0, 3.0, parent=1)]
        summary = stats.layer_summary(spans)
        self.assertEqual(summary["swifi"]["busy_s"], 10.0)
        self.assertEqual(summary["swifi"]["self_s"], 8.0)
        self.assertEqual(summary["gpusim"]["busy_s"], 2.0)

    def test_chrome_trace_events(self):
        events = stats.chrome_trace([span("swifi.run", 0.5, 1.0)])["traceEvents"]
        self.assertEqual(events[0]["ph"], "X")
        self.assertAlmostEqual(events[0]["ts"], 5e5)
        self.assertAlmostEqual(events[0]["dur"], 5e5)


class MetricNameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("trials_per_s", "gpusim.minstr_per_s.threaded", "a-b", "9x"):
            self.assertTrue(stats.valid_metric_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "a b", "a/b", "x" * 65, "café", None):
            self.assertFalse(stats.valid_metric_name(name), name)

    def test_every_metric_name_is_valid_and_used_once(self):
        names = list(stats.END_TO_END) + list(stats.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(stats.valid_metric_name(name), name)

    def test_benchmark_json_lists_the_same_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for key, table in (("end_to_end", stats.END_TO_END), ("per_layer", stats.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(listed, table, key)


class FailedRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.failed_ratio(8, 2), 0.25)
        self.assertEqual(stats.failed_ratio(3, 0), 0.0)
        with self.assertRaises(ValueError):
            stats.failed_ratio(0, 0)


class HostScaleTest(unittest.TestCase):
    REF = stats.HOST_REFERENCE_MS
    RAW = {
        # Two 300 ms campaigns: the first ran while the host was at nominal
        # speed, the second while it ran at half speed.
        "campaigns": [{"start_s": 1.0, "end_s": 1.3}, {"start_s": 2.0, "end_s": 2.3}],
        "host": [[0.5, REF], [1.5, REF], [1.9, 2 * REF], [2.5, 2 * REF]],
        "trials": 600, "setup_s": [0.2, 0.4, 0.3], "setup_window_s": [0.0, 0.4],
        "sim": {"coverage_pct": 90.0}, "ft_overhead_pct": 15.0,
    }

    def test_each_interval_is_scaled_by_the_samples_around_it(self):
        values, notes = stats.end_to_end_metrics(self.RAW, peak_rss_mb=100.0)
        self.assertAlmostEqual(values["campaign_ms_p50"], (300.0 + 150.0) / 2)
        self.assertAlmostEqual(values["trials_per_s"], 600 / 0.45)
        self.assertAlmostEqual(values["setup_s"], 0.3)
        self.assertIn("measured 300.0000", notes["campaign_ms_p50"])

    def test_sample_lookup(self):
        host = self.RAW["host"]
        self.assertEqual(stats.host_ref_around(host, 1.0, 1.3), self.REF)
        self.assertEqual(stats.host_ref_around(host, 1.6, 1.8), 1.5 * self.REF)
        self.assertEqual(stats.host_ref_around(host, 3.0, 3.1), 2 * self.REF)
        with self.assertRaises(ValueError):
            stats.host_ref_around([], 0.0, 1.0)

    def test_simulated_metrics_and_memory_are_not_scaled(self):
        values, _ = stats.end_to_end_metrics(self.RAW, peak_rss_mb=100.0)
        self.assertEqual((values["peak_rss_mb"], values["sdc_coverage_pct"],
                          values["ft_overhead_pct"]), (100.0, 90.0, 15.0))


class InjectedMismatchTest(unittest.TestCase):
    """A recorded outcome that disagrees with its re-run must be counted."""

    def test_mismatch_shows_in_failed_ratio(self):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "mem-faults", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--inject-mismatch"],
            capture_output=True, text=True, timeout=1200)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(stats.failed_ratio(result["attempted"], result["failed"]), 0.0)
        self.assertIn("re-ran as", out.stdout)


if __name__ == "__main__":
    unittest.main()

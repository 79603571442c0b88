"""Self-tests for the benchmark's statistics code.

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def span(id, parent, name, start, end):
    return {"id": id, "parent": parent, "name": name, "start": start,
            "end": end, "cpu_ms": 0.0, "scenario": 0, "round": 1}


def round_spans():
    """A 100 ms round: two scenarios' steps plus 10 ms unattributed."""
    return [
        span(0, -1, "round", 0.0, 100.0),
        span(1, 0, "core.executor.infs", 1.0, 41.0),
        span(2, 0, "uarch.fabric.stage", 41.0, 61.0),
        span(3, 0, "core.executor.infs", 62.0, 92.0),
    ]


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TailPercentileTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        p, v = stats.tail_percentile(values)
        self.assertEqual((p, v), (90, 90.0))
        self.assertEqual(sum(x > v for x in values), 10)

    def test_is_the_highest_such_percentile(self):
        values = [float(i) for i in range(1, 121)]
        p, v = stats.tail_percentile(values)
        self.assertEqual(p, 91)  # rank 110: 10 beyond; p92 has rank 111
        self.assertEqual(v, 110.0)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(stats.tail_percentile(values),
                         stats.tail_percentile(sorted(values)))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail_percentile([1.0, 7.0, 3.0]), (100, 7.0))


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([5.0]), 5.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class SpanTest(unittest.TestCase):
    def test_self_times(self):
        own = stats.self_times(round_spans())
        self.assertAlmostEqual(own[0], 10.0)
        self.assertAlmostEqual(own[1], 40.0)
        self.assertAlmostEqual(own[2], 20.0)

    def test_nested_self_time(self):
        spans = [span(0, -1, "round", 0.0, 10.0), span(1, 0, "a", 0.0, 8.0),
                 span(2, 1, "b", 1.0, 4.0)]
        self.assertEqual(stats.self_times(spans), {0: 2.0, 1: 5.0, 2: 3.0})

    def test_layer_times_sum_to_round(self):
        layers = stats.layer_times(round_spans())
        self.assertAlmostEqual(layers["core.executor.infs"], 70.0)
        self.assertAlmostEqual(layers["uarch.fabric.stage"], 20.0)
        self.assertAlmostEqual(layers[None], 10.0)
        self.assertAlmostEqual(sum(layers.values()), 100.0)

    def test_consistent_round_passes(self):
        self.assertEqual(stats.span_sum_errors(round_spans(), 100.2), [])

    def test_round_length_mismatch(self):
        errors = stats.span_sum_errors(round_spans(), 120.0)
        self.assertEqual(len(errors), 1)
        self.assertIn("timed round", errors[0])

    def test_overlap_and_escape(self):
        spans = round_spans()
        spans[2]["start"] = 30.0  # overlaps its predecessor
        spans[3]["end"] = 101.0   # ends after the round
        errors = stats.span_sum_errors(spans, 100.0)
        self.assertTrue(any("overlap" in e for e in errors))
        self.assertTrue(any("outside" in e for e in errors))

    def test_negative_self_time(self):
        spans = [span(0, -1, "round", 0.0, 10.0), span(1, 0, "a", 0.0, 6.0),
                 span(2, 0, "b", 4.0, 10.0)]
        errors = stats.span_sum_errors(spans, 10.0)
        self.assertTrue(any("negative" in e for e in errors))


if __name__ == "__main__":
    unittest.main()

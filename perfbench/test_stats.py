"""Tests of the benchmark's own arithmetic and catalog.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def span(sid, parent, start, end, name="s"):
    return {"id": sid, "parent": parent, "op": 0, "name": name,
            "start": start, "end": end}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertAlmostEqual(stats.self_times([span(1, 0, 2.0, 5.0)])[1],
                               3.0)

    def test_disjoint_children_subtract(self):
        t = stats.self_times([span(1, 0, 0, 10), span(2, 1, 1, 3),
                              span(3, 1, 5, 6)])
        self.assertAlmostEqual(t[1], 7.0)
        self.assertAlmostEqual(t[2], 2.0)

    def test_overlapping_children_count_once(self):
        t = stats.self_times([span(1, 0, 0, 10), span(2, 1, 1, 4),
                              span(3, 1, 3, 6), span(4, 1, 5, 5.5)])
        self.assertAlmostEqual(t[1], 5.0)  # covered: [1, 6)

    def test_nested_grandchildren_only_reduce_their_parent(self):
        t = stats.self_times([span(1, 0, 0, 10), span(2, 1, 2, 8),
                              span(3, 2, 3, 7)])
        self.assertAlmostEqual(t[1], 4.0)
        self.assertAlmostEqual(t[2], 2.0)
        self.assertAlmostEqual(t[3], 4.0)

    def test_children_clipped_to_parent(self):
        t = stats.self_times([span(1, 0, 0, 4), span(2, 1, 3, 9)])
        self.assertAlmostEqual(t[1], 3.0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile([7], 90), 7)

    def test_ten_beyond_rule(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertTrue(stats.tail_supported(100, 90))
        self.assertFalse(stats.tail_supported(99, 90))
        self.assertFalse(stats.tail_supported(20, 90))
        self.assertTrue(stats.tail_supported(20, 50))

    def test_tail_rule_boundary(self):
        # The highest percentile with exactly ten samples beyond it.
        for n in (11, 20, 57, 100, 1000):
            p = 100.0 * (n - stats.TAIL_BEYOND) / n
            self.assertEqual(stats.beyond(n, p), stats.TAIL_BEYOND, n)
            self.assertTrue(stats.tail_supported(n, p), n)

    def test_rank_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile_rank(0, 50)
        with self.assertRaises(ValueError):
            stats.percentile_rank(10, 0)

    def test_spread(self):
        self.assertAlmostEqual(stats.spread([10.0] * 10), 0.0)
        self.assertGreater(stats.spread(list(range(1, 11))), 0.0)


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "linker.text_mb_per_s", "a-b.c_9", "9x",
                     "x" * 64):
            self.assertTrue(stats.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a%", "x" * 65, "é"):
            self.assertFalse(stats.valid_name(bad), bad)


class Catalog(unittest.TestCase):
    """BENCHMARK.json and perfbench/metrics.json describe the same metrics."""

    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        cls.catalog = json.loads((HERE / "metrics.json").read_text())

    def test_every_metric_has_a_reduction_and_a_valid_name(self):
        for key in ("end_to_end", "per_layer"):
            declared = {m["name"] for m in self.bench[key]}
            described = set(self.catalog[key])
            self.assertEqual(declared, described, key)
            for name in declared:
                self.assertTrue(stats.valid_name(name), name)

    def test_layer_map_names_declared_metrics_and_workloads(self):
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        self.assertEqual(set(self.catalog["workloads"]), workloads)
        for name, entry in self.catalog["per_layer"].items():
            for metric, workload in entry["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()

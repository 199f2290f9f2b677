"""Tests for the comparison rule in perfbench/compare.py.

    python3 -m unittest discover -s perfbench/tests
"""
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import compare  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))

    def test_relative_spread(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, med, q3 = compare.quartiles(values)
        self.assertAlmostEqual(compare.relative_spread(values), (q3 - q1) / med)


class PairWinsTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        self.assertEqual(compare.pair_wins([1, 2, 3], [0.5, 2, 4], "lower"), 1)
        self.assertEqual(compare.pair_wins([1, 2, 3], [0.5, 2, 4], "higher"), 1)


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_win_lower_is_better(self):
        change = [v - 10.0 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "win")

    def test_clear_win_higher_is_better(self):
        change = [v + 10.0 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1), "win")

    def test_eight_of_ten_is_not_a_win(self):
        change = [v - 10.0 for v in self.parent]
        change[0] = self.parent[0] + 1.0
        change[1] = self.parent[1] + 1.0
        self.assertNotEqual(compare.verdict(self.parent, change, "lower", 0.1), "win")

    def test_gap_must_exceed_parent_iqr(self):
        # The change wins every pair by a hair, but the median gap is
        # smaller than the parent's own interquartile range.
        change = [v - 0.01 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "same")

    def test_regression_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "regression")
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.25), "same")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1), "unresolved")

    def test_noisy_but_every_change_run_better_is_not_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        change = [10.0] * 10
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1), "win")


if __name__ == "__main__":
    unittest.main()

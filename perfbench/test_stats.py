"""Tests of the benchmark's statistics helpers.

Run from the repository root: ``python3 -m unittest perfbench/test_stats.py``
"""

import math
import os
import random
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def op(due, sent, ack, settle, ok=True):
    return {"due_ms": due, "sent_ms": sent, "ack_ms": ack, "settle_ms": settle, "ok": ok}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_a_sample(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond_a_percentile(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(999, 99), 9)
        # 99.9 / 100 is not exact in binary; the rank must still be 9990.
        self.assertEqual(stats.beyond(10000, 99.9), 10)


class IqMeanTest(unittest.TestCase):
    def test_drops_a_quarter_from_each_end(self):
        self.assertEqual(stats.iq_mean([7.0]), 7.0)
        self.assertEqual(stats.iq_mean([1.0, 3.0]), 2.0)
        self.assertEqual(stats.iq_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5)

    def test_smooths_a_stepped_distribution(self):
        # Walls on a 25 ms grid: the median sits on a step, the
        # interquartile mean between steps.
        walls = [0.207] * 9 + [0.232] * 11
        self.assertEqual(stats.percentile(walls, 50), 0.232)
        self.assertAlmostEqual(stats.iq_mean(walls), (0.207 * 4 + 0.232 * 6) / 10)


class NamedTailTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        xs = [float(i) for i in range(1000)]
        self.assertEqual(stats.named_tail(xs, 99), (99.0, 989.0))
        self.assertEqual(stats.named_tail(xs[:999], 99), (95.0, 949.0))
        self.assertEqual(stats.named_tail(xs[:400], 99), (95.0, 379.0))
        self.assertEqual(stats.named_tail(xs[:100], 99), (90.0, 89.0))
        self.assertEqual(stats.named_tail(xs[:78], 99), (50.0, 38.0))
        self.assertEqual(stats.named_tail([4.0], 99), (50.0, 4.0))

    def test_tail_mean_averages_the_named_tail(self):
        xs = [float(i) for i in range(400)]
        self.assertEqual(stats.tail_mean(xs, 99), (95.0, sum(range(379, 400)) / 21.0))
        self.assertEqual(stats.tail_mean([4.0, 2.0], 99), (50.0, 3.0))


class OpenLoopTest(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        # The sender ran 30 ms late; the job's latency includes that wait.
        lat = stats.open_loop([op(100, 130, 135, 160)], limit_ms=1000)
        self.assertEqual(lat["late"], [30])
        self.assertEqual(lat["ack"], [35])
        self.assertEqual(lat["settle"], [60])
        self.assertEqual(lat["misses"], 0)

    def test_failed_and_shed_operations_miss_the_limit(self):
        ops = [op(0, 0, 1, 5), op(10, 10, 11, None, ok=False), op(20, 20, 21, 25, ok=False)]
        lat = stats.open_loop(ops, limit_ms=1000)
        self.assertEqual(lat["misses"], 2)
        self.assertTrue(math.isinf(lat["settle"][1]) and math.isinf(lat["settle"][2]))
        self.assertTrue(math.isinf(lat["ack"][1]))


class LadderTest(unittest.TestCase):
    def steady(self, rate, start, length, latency):
        gap = 1000.0 / rate
        n = int(length / gap)
        return [op(start + i * gap, start + i * gap, start + i * gap + 1, start + i * gap + latency)
                for i in range(n)]

    def test_steady_step_meets_and_reports_throughput(self):
        ops = self.steady(50, 0, 4000, 20)
        step = stats.step_report(ops, 0, 4000, limit_ms=100, growth_slack=5)
        self.assertTrue(step["meets"])
        self.assertEqual(step["n"], 200)
        self.assertAlmostEqual(step["throughput_jps"], 50.0, delta=0.5)

    def test_growing_backlog_fails_the_step(self):
        # Service takes 40 ms per job at 50 jobs/s: the queue grows.
        ops = self.steady(50, 0, 4000, 0)
        for i, o in enumerate(ops):
            o["settle_ms"] = 40.0 * (i + 1)
        step = stats.step_report(ops, 0, 4000, limit_ms=10_000, growth_slack=5)
        self.assertGreater(step["backlog_growth"], 5)
        self.assertFalse(step["meets"])

    def test_max_rate_is_the_highest_passing_step(self):
        steps = [{"meets": True, "throughput_jps": 19.9},
                 {"meets": True, "throughput_jps": 40.2},
                 {"meets": False, "throughput_jps": 55.0}]
        self.assertEqual(stats.max_rate(steps), 40.2)
        self.assertEqual(stats.max_rate([{"meets": False, "throughput_jps": 9.0}]), 0.0)

    def test_a_failed_job_fails_its_step(self):
        ops = self.steady(50, 0, 4000, 20)
        # Three of 200 jobs fail: more than the 1% a p99 may hide.
        for i in (3, 9, 15):
            ops[i]["ok"] = False
        step = stats.step_report(ops, 0, 4000, limit_ms=100, growth_slack=5)
        self.assertTrue(math.isinf(step["settle_p99_ms"]))
        self.assertFalse(step["meets"])


class DeckTest(unittest.TestCase):
    def test_every_deck_holds_the_fixed_shares(self):
        cards = ["a"] * 5 + ["b"] * 2 + ["c"]
        for seed in (1, 2, 3):
            deck = stats.Deck(random.Random(seed), cards)
            for _ in range(3):
                dealt = sorted(deck.draw() for _ in cards)
                self.assertEqual(dealt, sorted(cards))

    def test_the_seed_changes_only_the_order(self):
        a = stats.Deck(random.Random(1), range(20))
        b = stats.Deck(random.Random(2), range(20))
        order_a = [a.draw() for _ in range(20)]
        order_b = [b.draw() for _ in range(20)]
        self.assertNotEqual(order_a, order_b)
        self.assertEqual(sorted(order_a), sorted(order_b))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            {"id": 1, "parent": 0, "start_ns": 0, "end_ns": 100},
            {"id": 2, "parent": 1, "start_ns": 10, "end_ns": 30},
            {"id": 3, "parent": 1, "start_ns": 20, "end_ns": 50},
            {"id": 4, "parent": 3, "start_ns": 25, "end_ns": 35},
        ]
        self.assertEqual(stats.self_times(spans), {1: 60, 2: 20, 3: 20, 4: 10})

    def test_coverage_counts_top_level_spans_once(self):
        spans = [
            {"id": 1, "parent": 0, "start_ns": 0, "end_ns": 40},
            {"id": 2, "parent": 0, "start_ns": 30, "end_ns": 60},
            {"id": 3, "parent": 1, "start_ns": 0, "end_ns": 40},
        ]
        self.assertAlmostEqual(stats.coverage(spans, 0, 100), 0.6)


if __name__ == "__main__":
    unittest.main()

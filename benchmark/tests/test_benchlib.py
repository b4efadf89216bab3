"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s benchmark/tests
"""

import json
import math
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import benchlib  # noqa: E402


def request(index, noisy, clean, ok=True, latency=100.0, update=False,
            part="stream", rid=1, done=1.0):
    return {"part": part, "id": rid, "index": index, "ok": ok,
            "error": "" if ok else "Internal: boom", "latency_ms": latency,
            "late_ms": 0.5, "done_s": done, "update": update,
            "queue_s": 0.001, "process_s": 0.05, "noisy": noisy,
            "clean": clean}


def phase(requests, captures=0, failures=0):
    return {"requests": requests, "wall_s": 10.0, "open_wall_s": 0.0,
            "snapshot_captures": captures, "snapshot_writes": captures,
            "snapshot_failures": failures,
            "snapshot_capture_ms": [0.2] * captures,
            "snapshot_write_ms": [15.0] * captures,
            "setup_telemetry": {"spans": {"name": "run", "children": []}},
            "telemetry": {"spans": {"name": "run", "children": []},
                          "metrics": {"counters": {}}},
            "spans": [],
            "stats": {"requests": len(requests), "model_updates": 0,
                      "update_retries": 0}}


def raw_run(n=120, workload="stream-emnist", traced=0):
    """A well-formed raw document: n requests cycling over two 4-row
    datasets whose rows 0 and 1 are the ground-truth noisy ones."""
    reqs = [request(i % 2, [0, 1], [2, 3], latency=100.0 + i, rid=i + 1,
                    done=0.1 * (i + 1))
            for i in range(n)]
    raw = {"workload": workload, "threads": 4, "build_flags": "-O2",
           "stream": {"sizes": [4, 4], "truth_noisy": [[0, 1], [0, 1]]},
           "setup_s": [0.6, 0.5, 0.7], "peak_rss_mb": 50.0,
           "timed": phase(reqs, captures=n), "traced": None, "replay": None}
    if traced:
        raw["traced"] = phase([dict(r) for r in reqs[:traced]],
                              captures=traced)
        raw["traced"]["wall_s"] = 0.1 * traced
        raw["replay"] = {
            "dims": [32, 128, 64, 26], "batch": 64, "view_rows": 700,
            "request_rows": 170, "train_rows": 230,
            "steps_per_train_call": 4, "knn_queries_per_call": 170,
            "payload_bytes": 25000, "decode_ok": True,
            **{k: [1e-4, 2e-4, 3e-4] for k in (
                "gemm_fwd_b64_s", "gemm_wgrad_b64_s", "gemm_igrad_b64_s",
                "gemm_fwd_view_s", "train_call_s", "predict_s", "view_s",
                "knn_build_s", "knn_query_s", "admission_s", "encode_s",
                "decode_s")}}
    return raw


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.9), 90)
        self.assertEqual(benchlib.percentile([7], 0.9), 7)

    def test_tail_needs_ten_samples_above(self):
        value, samples, above = benchlib.tail_percentile(
            list(range(1, 101)), 0.9)
        self.assertEqual((value, samples, above), (90, 100, 10))
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.tail_percentile(list(range(1, 100)), 0.9)
        with self.assertRaises(benchlib.InsufficientSamples):
            # 12 samples cannot carry a p99 (the old serving bench did).
            benchlib.tail_percentile(list(range(12)), 0.99)

    def test_failed_requests_are_misses_not_dropped(self):
        values = [10.0] * 85 + [math.inf] * 15
        self.assertEqual(benchlib.percentile(values, 0.9), math.inf)
        raw = raw_run()
        raw["timed"]["requests"][0]["ok"] = False
        lat = benchlib.latencies(raw["timed"]["requests"])
        self.assertEqual(len(lat), 120)
        self.assertEqual(lat[0], math.inf)


class DigestTest(unittest.TestCase):
    def test_order_of_rows_does_not_matter(self):
        self.assertEqual(benchlib.request_digest(3, [2, 0], [1, 3]),
                         benchlib.request_digest(3, [0, 2], [3, 1]))

    def test_a_moved_row_or_another_request_changes_it(self):
        base = benchlib.request_digest(3, [0, 2], [1, 3])
        self.assertNotEqual(base, benchlib.request_digest(3, [0], [1, 2, 3]))
        self.assertNotEqual(base, benchlib.request_digest(4, [0, 2], [1, 3]))

    def test_stream_digest_follows_request_order(self):
        a = request(0, [0], [1])
        b = request(1, [1], [0])
        self.assertNotEqual(benchlib.stream_digest([a, b]),
                            benchlib.stream_digest([b, a]))


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        tree = {"name": "run", "total_seconds": 0.0, "count": 0,
                "children": [
                    {"name": "detect", "total_seconds": 10.0, "count": 2,
                     "children": [
                         {"name": "detect/finetune", "total_seconds": 4.0,
                          "count": 5, "children": [
                              {"name": "train", "total_seconds": 3.5,
                               "count": 5, "children": []}]},
                         {"name": "detect/iteration", "total_seconds": 5.0,
                          "count": 2, "children": [
                              {"name": "detect/finetune",
                               "total_seconds": 2.0, "count": 3,
                               "children": []}]}]}]}
        self_s = benchlib.tree_self_times(tree)
        self.assertAlmostEqual(self_s["detect"], 1.0)
        self.assertAlmostEqual(self_s["detect/iteration"], 3.0)
        # 0.5 s under detect plus 2.0 s under detect/iteration.
        self.assertAlmostEqual(self_s["detect/finetune"], 2.5)
        self.assertAlmostEqual(self_s["train"], 3.5)
        self.assertEqual(benchlib.tree_totals(tree, "detect/finetune"),
                         (6.0, 8))


class RatioTest(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = benchlib.Ratio(3, 4)
        self.assertEqual(r.value, 0.75)
        self.assertIn("3 of 4", str(r))
        empty = benchlib.Ratio(0, 0)
        self.assertEqual(empty.value, 0.0)
        self.assertIn("0 of 0", str(empty))

    def test_every_ratio_metric_names_its_base(self):
        layers = benchlib.per_layer(raw_run(traced=25))
        ratios = {k: v for k, v in layers.items() if v[1] == "ratio"
                  and k != "trace.overhead_ratio"}
        self.assertGreaterEqual(len(ratios), 4)
        for name, (_, _, base) in ratios.items():
            self.assertRegex(base, r" of \d", name)


class OutputCheckTest(unittest.TestCase):
    def test_clean_run_passes(self):
        attempted, failures = benchlib.check_run(raw_run(traced=25))
        self.assertEqual(failures, [])
        self.assertEqual(attempted, 120 + 120 + 25 + 25)

    def test_rejects_a_non_ok_request(self):
        raw = raw_run()
        raw["timed"]["requests"][7]["ok"] = False
        _, failures = benchlib.check_run(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("request 8", failures[0])

    def test_rejects_a_failed_snapshot_write(self):
        raw = raw_run()
        raw["timed"]["snapshot_failures"] = 1
        _, failures = benchlib.check_run(raw)
        self.assertEqual(len(failures), 1)

    def test_rejects_a_malformed_partition(self):
        raw = raw_run()
        raw["timed"]["requests"][3]["clean"] = [2]
        _, failures = benchlib.check_run(raw)
        self.assertEqual(len(failures), 1)

    def test_rejects_a_traced_partition_that_differs(self):
        raw = raw_run(traced=25)
        raw["traced"]["requests"][4]["noisy"] = [0]
        raw["traced"]["requests"][4]["clean"] = [1, 2, 3]
        _, failures = benchlib.check_run(raw)
        self.assertEqual(failures,
                         ["traced request 5: partition differs from the "
                          "timed run"])

    def test_rejects_a_payload_that_fails_to_decode(self):
        raw = raw_run(traced=25)
        raw["replay"]["decode_ok"] = False
        _, failures = benchlib.check_run(raw)
        self.assertEqual(len(failures), 1)

    def test_arrival_order_is_not_compared_on_the_wire(self):
        raw = raw_run(workload="serve-cifar100", traced=25)
        raw["traced"]["requests"].reverse()
        _, failures = benchlib.check_run(raw)
        self.assertEqual(failures, [])


class MetricNamesTest(unittest.TestCase):
    """The metrics printed are exactly the ones BENCHMARK.json declares."""

    def setUp(self):
        with open(BENCH.parent / "BENCHMARK.json") as f:
            self.spec = json.load(f)

    def test_end_to_end(self):
        e2e = benchlib.end_to_end(raw_run())
        self.assertEqual(set(e2e),
                         {m["name"] for m in self.spec["end_to_end"]})
        for m in self.spec["end_to_end"]:
            self.assertEqual(e2e[m["name"]][1], m["unit"], m["name"])
            self.assertNotEqual(e2e[m["name"]][0], 0, m["name"])

    def test_per_layer(self):
        layers = benchlib.per_layer(raw_run(traced=25))
        self.assertEqual(set(layers),
                         {m["name"] for m in self.spec["per_layer"]})
        for m in self.spec["per_layer"]:
            self.assertEqual(layers[m["name"]][1], m["unit"], m["name"])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own test: a tiny-size pass of every workload.

Run from the repository root (builds the benchmark on first use):

    python3 aimsbench/test_bench.py

For each workload, an untraced and a traced run with --tiny inputs must
exit 0 with "correct": true and no failed operation, print every metric
BENCHMARK.json declares for that mode with its declared unit, and print
the workload's named end-to-end metrics with a unit and a sample count.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# The end-to-end metrics each workload reports by name (M lines), beside
# the workload-neutral ones BENCHMARK.json tracks.
NAMED = {
    "ingest_durable": {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
                       "ingest_p50_ms": "ms", "ingest_p99_ms": "ms",
                       "ingest_frames_per_s": "1/s",
                       "stored_bytes_per_input_byte": "ratio"},
    "query_mixed": {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
                    "query_p50_ms": "ms", "query_p99_ms": "ms",
                    "query_approx_p50_ms": "ms", "query_approx_p99_ms": "ms",
                    "queries_per_s": "1/s", "ingest_p50_ms": "ms",
                    "ingest_p99_ms": "ms"},
    "stream_recognize": {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
                         "stream_frame_p50_us": "us", "stream_frame_p99_us": "us",
                         "stream_frames_per_s": "1/s"},
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    emitted = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 5 and fields[0] == "M":
            emitted[fields[1]] = (float(fields[2]), fields[3], int(fields[4]))
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, result, emitted, out.stderr


class TinyPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace):
        rc, result, emitted, stderr = run(workload, trace)
        self.assertEqual(rc, 0, stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float)
        return result, emitted

    def test_workloads(self):
        for w in self.spec_workloads():
            with self.subTest(workload=w, trace=0):
                result, emitted = self.check_run(w, 0)
                for name, unit in NAMED[w].items():
                    self.assertIn(name, emitted)
                    self.assertEqual(emitted[name][1], unit, name)
                    self.assertGreaterEqual(emitted[name][2], 1, name)
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0.0,
                                       m["name"])
            with self.subTest(workload=w, trace=1):
                result, _ = self.check_run(w, 1)
                self.assertEqual(result["metrics"]["obs.tracer_dropped"]["value"], 0.0)

    def spec_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(NAMED))
        return names


if __name__ == "__main__":
    unittest.main()

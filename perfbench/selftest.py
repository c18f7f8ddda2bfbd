"""Self-test of the benchmark, on tiny corpora of every workload.

    python3 perfbench/selftest.py

Checks that per-layer counts and the behaviour fingerprint repeat exactly
across two traced runs, that a corrupted answer is counted as failed,
that an unfinished worker's owed instances count as failed, that every
metric named in BENCHMARK.json is reported with its unit, that the
reference loop refuses to time itself beside another thread, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest

import run
import worker

sys.path.insert(0, run.SRC)
from workloads import WORKLOADS, generate  # noqa: E402  (needs ppszlab on the path)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _corrupt_first(records: list[dict]) -> None:
    """Turn the first finished answer into a wrong one."""
    record = records[0]
    payload = json.loads(record["out"])
    if "identity" in payload:
        payload["identity"] = "2"
    elif payload.get("solution"):
        payload["solution"][0] = -payload["solution"][0]
    elif "satisfiable" in payload:
        payload["satisfiable"] = not payload["satisfiable"]
    else:
        payload["found"] = True
    record["out"] = json.dumps(payload)


class BenchmarkSelfTest(unittest.TestCase):
    def test_traced_counts_repeat_exactly(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                first = run.run_traced(workload, seed=3, tiny=True)
                second = run.run_traced(workload, seed=3, tiny=True)
                self.assertEqual(first["failed"], 0)
                self.assertEqual(first["fingerprint"], second["fingerprint"])
                for metric in SPEC["per_layer"]:
                    name = metric["name"]
                    self.assertEqual(first["metrics"][name]["unit"], metric["unit"], name)
                    if metric["unit"] == "count":
                        self.assertEqual(first["metrics"][name], second["metrics"][name], name)
                self.assertEqual(set(first["metrics"]), {m["name"] for m in SPEC["per_layer"]})

    def test_corrupted_answer_counts_as_failed(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                verdict = run.run_timed(workload, seed=3, seconds=0.1, tiny=True, corrupt=_corrupt_first)
                self.assertEqual(verdict["failed"], 1)
                self.assertEqual(verdict["detail"]["failed_frac"], 1 / verdict["attempted"])
                for metric in SPEC["end_to_end"]:
                    entry = verdict["metrics"][metric["name"]]
                    self.assertEqual(entry["unit"], metric["unit"])
                    self.assertGreater(entry["value"], 0)
                self.assertEqual(set(verdict["metrics"]), {m["name"] for m in SPEC["end_to_end"]})

    def test_unfinished_instances_count_as_failed(self):
        workload = WORKLOADS["general-mixed"]
        corpus = generate(workload, 3, 1, tiny=True)
        owed = len(corpus[0])
        record = {"block": 0, "pos": 0, "code": 20, "error": None, "out": "{}"}
        verdict = run._judge(workload, corpus, [record], None, owed)
        self.assertEqual(verdict["attempted"], owed)
        self.assertEqual(verdict["failed"], owed)

    def test_reference_loop_refuses_a_second_thread(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with self.assertRaises(SystemExit):
                worker.reference()
        finally:
            stop.set()
            thread.join()
        self.assertGreater(worker.reference(), 0)

    def test_refuses_without_sources(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "exact-prob", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

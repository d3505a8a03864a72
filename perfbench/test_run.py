"""Tests of the benchmark itself: tiny-size smoke runs of every workload,
and proof that a wrong output digest is counted as a failure.

    python3 -m unittest perfbench/test_run.py      # from the repository root

Each test builds the program (a no-op after the first build) and runs the
real `repro` binary at the tiny sizes in `run.SIZES["tiny"]`.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

PINS = json.loads(run.PINS.read_text())


def cli(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    def check_cli(self, workload, trace):
        res = cli("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
        self.assertEqual(res.returncode, 0, res.stderr[-2000:])
        out = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], res.stdout)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        units = run.LAYER_UNITS if trace else run.E2E_UNITS
        self.assertEqual(set(out["metrics"]), set(units))
        if not trace:
            for name, m in out["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        else:
            self.assertGreater(out["metrics"]["measure.sample_windows_s"]["value"], 0)
            self.assertGreater(out["metrics"]["trace.overhead_ratio"]["value"], 0)

    def test_full_campaign(self):
        self.check_cli("full-campaign", 0)
        self.check_cli("full-campaign", 1)

    def test_planet_propagate(self):
        self.check_cli("planet-propagate", 0)
        self.check_cli("planet-propagate", 1)

    def test_serve(self):
        self.check_cli("serve", 0)
        self.check_cli("serve", 1)


class Digests(unittest.TestCase):
    def corrupted(self, workload, field):
        pins = copy.deepcopy(PINS["tiny"][workload])
        for pin in pins.values():
            pin[field] = pin[field][::-1]
        return pins

    def assert_all_failed(self, res):
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])

    def test_corrupted_stdout_pin_fails_every_operation(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    res, lines = run.run(workload, 0, 0.1, trace, "tiny",
                                         pins=self.corrupted(workload, "stdout"))
                    self.assert_all_failed(res)
                    self.assertTrue(any("stdout md5" in line for line in lines), lines)

    def test_corrupted_csv_pin_fails_full_campaign(self):
        res, lines = run.run("full-campaign", 0, 0.1, 0, "tiny",
                             pins=self.corrupted("full-campaign", "csv"))
        self.assert_all_failed(res)
        self.assertTrue(any("csv digest" in line for line in lines), lines)

    def test_missing_pin_is_a_failure(self):
        res, _ = run.run("serve", 0, 0.1, 0, "tiny", pins={})
        self.assert_all_failed(res)

    def test_every_pool_seed_is_pinned(self):
        for size in run.SIZES:
            for workload in run.WORKLOADS:
                self.assertEqual(set(PINS[size][workload]), {str(s) for s in run.SEED_POOL})

    def test_seed_42_full_campaign_is_the_checked_in_figures(self):
        self.assertEqual(run.repro_seed(0), 42)
        self.assertEqual(PINS["bench"]["full-campaign"]["42"]["stdout"],
                         "679584b4becadd596d1ce073d04d91f3")


class Standalone(unittest.TestCase):
    def test_without_sources_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_test") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            res = cli("--workload", "full-campaign", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests

The probe's own tests (wrapped runs equal unwrapped runs) run with
`cargo test --release --manifest-path perfbench/probe/Cargo.toml`.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        return json.load(f)


def fake_trace():
    """A probe `trace` output with round numbers."""
    return {
        "replications": 2, "events": 1000, "past_clamps": 0,
        "collisions": 10, "clean_receptions": 90, "tx_attempts": 50,
        "tx_delivered": 40, "drops_retry": 3,
        "mac": {"start": [2, 200], "timer": [600, 60000], "frame": [90, 4500],
                "tx_end": [50, 2500], "cca": [20, 1000], "enqueue": [40, 2000]},
        "subslot_ticks": 600, "qma_ticks": 300, "upper": [100, 5000],
        "rep_s": [0.1, 0.3], "topo_build_s": [1e-6, 3e-6], "sim_build_s": [2e-6, 4e-6],
        "run_plain_s": 1e-4, "run_traced_s": 1.5e-4, "collect_s": 1e-6,
        "population": 3, "fanout": 2,
        "replay": {"q_update_f32_ns": [9, 10, 11], "q_update_fixed16_ns": [20],
                   "decide_complete_ns": [12], "wheel_push_pop_ns": [14],
                   "heap_push_pop_ns": [20], "tx_roundtrip_ns": [30],
                   "clock_pair_ns": [5]},
        "mismatches": [],
    }


def fig7_rows(qma_pdr=0.9, csma_pdr=0.5):
    rows = []
    for delta in ["1", "10", "100"]:
        for mac in ["qma", "slotted_csma", "unslotted_csma"]:
            pdr = qma_pdr if mac == "qma" else csma_pdr
            rows.append({"config_key": f"delta={delta};mac={mac};nodes=3;packets=1000",
                         "pdr_mean": f"{pdr:.6f}"})
    return rows


class StatsHelpers(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.median(values), 3.0)
        self.assertEqual(run.quartiles(values), (1.5, 4.5))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0))

    def test_percentile_interpolates_linearly(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(run.percentile(values, 50), 30.0)
        self.assertEqual(run.percentile(values, 90), 46.0)
        self.assertEqual(run.percentile(values, 0), 10.0)
        self.assertEqual(run.percentile(values, 100), 50.0)
        self.assertEqual(run.percentile([3.0], 90), 3.0)

    def test_summarize_reports_median_quartiles_and_count(self):
        s = run.summarize([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(s, {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4,
                             "samples": [1.0, 2.0, 3.0, 4.0]})


class NamesMatchBenchmarkJson(unittest.TestCase):
    def test_workloads(self):
        names = [w["name"] for w in benchmark_json()["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))

    def test_end_to_end_metrics(self):
        declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)
        campaign = {"wall_s": 2.0, "peak_rss_mb": 10.0,
                    "csv": b"config_key,events_total\nk,100\n"}
        reported = run.end_to_end_metrics([campaign], [0.5])
        self.assertEqual(set(reported), set(declared))
        self.assertEqual(reported["events_per_s"]["median"], 50.0)

    def test_per_layer_metrics(self):
        declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER)
        reported = run.per_layer_metrics(fake_trace(), campaign_wall_s=0.5, threads=2)
        self.assertEqual(set(reported), set(declared))
        for name, value in reported.items():
            self.assertTrue(math.isfinite(value), name)

    def test_setup_is_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class PerLayerArithmetic(unittest.TestCase):
    def test_derived_metrics(self):
        m = run.per_layer_metrics(fake_trace(), campaign_wall_s=0.5, threads=2)
        self.assertEqual(m["core.q_update_f32_ns"], 10)
        self.assertEqual(m["mac.timer_ns"], 100.0)
        self.assertEqual(m["mac.calls"], 802)
        self.assertEqual(m["phy.clean_ratio"], 0.9)
        self.assertEqual(m["mac.delivered_per_attempt"], 0.8)
        self.assertAlmostEqual(m["netsim.ns_per_event"], 100.0)
        # run 100000 ns - (70200 + 5000 - 902 calls * 5 ns) = 29310
        self.assertAlmostEqual(m["netsim.dispatch_self_ns_per_event"], 29.31)
        # 600*14 + 400*20 + 50*30 + 300*12 = 21500 explained ns
        self.assertAlmostEqual(m["netsim.unexplained_ns_per_event"], 78.5)
        self.assertAlmostEqual(m["scenarios.rep_p50_ms"], 200.0)
        self.assertAlmostEqual(m["scenarios.rep_p90_ms"], 280.0)
        self.assertAlmostEqual(m["bench.runner_busy_share"], 0.4)
        self.assertAlmostEqual(m["bench.campaign_overhead_s"], 0.3)
        self.assertAlmostEqual(m["trace.overhead_pct"], 50.0)


class OutputChecks(unittest.TestCase):
    def test_fig7_semantics(self):
        ok, _ = run.check_fig7(fig7_rows())
        self.assertTrue(ok)
        ok, detail = run.check_fig7(fig7_rows(qma_pdr=0.5, csma_pdr=0.5))
        self.assertFalse(ok)
        self.assertIn("delta=10", detail)
        self.assertNotIn("delta=1:", detail)

    def test_pdr_window(self):
        check = run.pdr_check(0.5, 1.0)
        self.assertTrue(check([{"pdr_mean": "0.7"}])[0])
        self.assertFalse(check([{"pdr_mean": "0.5"}])[0])
        self.assertFalse(check([{"pdr_mean": "1.0"}])[0])

    def test_missing_rows_count_as_failed_replications(self):
        campaign = {"rc": 1, "csv": b"config_key,replications,pdr_mean\n",
                    "json_ok": False, "stderr": "# FAILED"}
        attempted, failed, checks = run.check_campaign("grid_10k", campaign, 7, None)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertFalse(any(ok for _, ok, _ in checks))

    def test_golden_artifacts_pass_their_own_checks(self):
        for name in run.WORKLOADS:
            with open(os.path.join(run.GOLDEN_DIR, f"{name}.csv"), "rb") as f:
                golden = f.read()
            campaign = {"rc": 0, "csv": golden, "json_ok": True, "stderr": ""}
            _, failed, checks = run.check_campaign(name, campaign, run.DEFAULT_SEED, golden)
            self.assertEqual(failed, 0, name)
            self.assertEqual([c for c in checks if not c[1]], [], name)
            self.assertIn("golden", [c[0] for c in checks])


class OutsideACheckout(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            r = subprocess.run(
                [sys.executable, os.path.join(tmp, "perfbench", "run.py"),
                 "--workload", "grid_10k", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()

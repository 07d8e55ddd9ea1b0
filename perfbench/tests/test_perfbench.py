"""Self-tests of the perfbench benchmark (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchstats  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(workload, 7), workloads.generate(workload, 7))

    def test_seed_changes_seeded_workloads(self):
        for workload in ("sweep_lockstep", "serve_mixed"):
            inputs = [repr(workloads.generate(workload, s)) for s in range(4)]
            self.assertGreater(len(set(inputs)), 1, workload)

    def test_serve_mix_is_stratified(self):
        jobs = workloads.generate("serve_mixed", 3)["jobs"]
        kinds = [job["kind"] for job in jobs]
        self.assertEqual(kinds.count("run"), workloads.SERVE_PLAIN_RUNS)
        self.assertEqual(kinds.count("ckpt"), workloads.SERVE_CHECKPOINT_RUNS)
        self.assertEqual(kinds.count("optimise"), workloads.SERVE_OPTIMISES)
        # p90 needs at least ten samples beyond it.
        self.assertGreaterEqual(len(jobs) * 0.1, 10)

    def test_every_generated_job_has_a_reference(self):
        keys = {key for key, _ in workloads.reference_specs()}
        recorded = set(run.load_references())
        self.assertEqual(keys, recorded)
        for workload in workloads.WORKLOADS:
            for seed in range(5):
                for job in workloads.generate(workload, seed)["jobs"]:
                    for key in job.get("refs", {}).values():
                        self.assertIn(key, keys)


class StatsTest(unittest.TestCase):
    def test_percentiles_on_fixed_samples(self):
        sample = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(benchstats.percentile(sample, 50), 5.5)
        self.assertAlmostEqual(benchstats.percentile(sample, 90), 9.1)
        self.assertAlmostEqual(benchstats.percentile(sample, 0), 1.0)
        self.assertAlmostEqual(benchstats.percentile(sample, 100), 10.0)
        self.assertAlmostEqual(benchstats.percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)
        self.assertEqual(benchstats.percentile([3.0], 90), 3.0)

    def test_ratios_and_spread(self):
        self.assertEqual(benchstats.ratio(3, 4), 0.75)
        self.assertEqual(benchstats.ratio(5, 0), 0.0)
        self.assertEqual(benchstats.mean_of([]), 0.0)
        self.assertAlmostEqual(benchstats.mean_of([1.0, 2.0, 6.0]), 3.0)
        # statistics.quantiles(n=4) of 1..10 (exclusive method): 2.75 and 8.25.
        spread = benchstats.quartile_spread([float(v) for v in range(1, 11)])
        self.assertAlmostEqual(spread, (8.25 - 2.75) / 5.5)


class MetricNamesTest(unittest.TestCase):
    def test_names_are_well_formed_and_declared(self):
        declared = json.loads(BENCHMARK_JSON.read_text())
        for section, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in declared[section]}
            for name, unit in emitted.items():
                self.assertIsNotNone(NAME.fullmatch(name), name)
                self.assertLessEqual(len(name), 64)
                self.assertEqual(listed.get(name), unit, name)
            self.assertEqual(set(listed), set(emitted), section)

    def test_workloads_match(self):
        declared = [w["name"] for w in json.loads(BENCHMARK_JSON.read_text())["workloads"]]
        self.assertEqual(declared, list(workloads.TIMED_WORKLOADS))
        self.assertLessEqual(set(declared), set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

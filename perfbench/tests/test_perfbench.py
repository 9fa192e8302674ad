"""Tests of the benchmark itself: its inputs, its recorded answers and its
output format.

    python3 -m pytest perfbench/tests
    python3 -m unittest discover -s perfbench/tests

Some tests run whole benchmark runs (the rule sweep takes about 20 s).
Scratch files go under .bench_build/ in the checkout.
"""
from __future__ import annotations

import filecmp
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import mirror_goal  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "tests"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def scratch_dir() -> Path:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=SCRATCH))


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def generate(workload: str, seed: int) -> Path:
    out = scratch_dir()
    inputs = gen.generate(workload, seed, ROOT / "src" / "decolog" / "corpus", out)
    (out / "inputs.json").write_text(json.dumps(inputs, indent=1), encoding="utf-8")
    return out


class TestInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in gen.WORKLOADS:
            a, b = generate(workload, 5), generate(workload, 5)
            names = sorted(p.name for p in a.iterdir())
            self.assertEqual(names, sorted(p.name for p in b.iterdir()))
            match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []), workload)

    def test_seed_changes_inputs_but_not_their_shape(self):
        for workload in ("cex-search", "prove-verify", "cli-model-check"):
            a = json.loads((generate(workload, 1) / "inputs.json").read_text())
            b = json.loads((generate(workload, 2) / "inputs.json").read_text())
            self.assertNotEqual(a, b, workload)
            for key in ("goals", "commands"):
                self.assertEqual(len(a.get(key, [])), len(b.get(key, [])), workload)

    def test_mirror_goal_reverses_every_composite(self):
        self.assertEqual(mirror_goal("weak a . b . c ~ id(A)"), "weak c . b . a ~ id(A)")
        self.assertEqual(mirror_goal("strong a . b == b"), "strong b . a == b")


class TestRuns(unittest.TestCase):
    def test_recorded_answers_match_at_seed_0(self):
        for workload in gen.WORKLOADS:
            done = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0")
            self.assertEqual(done.returncode, 0, done.stderr)
            result = result_of(done)
            self.assertTrue(result["correct"], done.stderr)
            self.assertEqual(result["failed"], 0)
            counts = re.search(r"(\d+) queries, .* (\d+) answers match recorded ones",
                               done.stdout)
            self.assertIsNotNone(counts, done.stdout)
            self.assertEqual(counts.group(1), counts.group(2), workload)

    def test_printed_metrics_match_benchmark_json(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            done = bench("--workload", "cex-search", "--seed", "3", "--seconds", "0",
                         "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = result_of(done)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertGreaterEqual(result["attempted"], 1)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, {m["name"]: m["unit"] for m in SPEC[section]})
            for m in result["metrics"].values():
                self.assertIsInstance(m["value"], (int, float))

    def test_tree_without_library_fails_without_result(self):
        bare = scratch_dir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "cex-search", "--seed", "0", "--seconds", "1",
                     "--trace", "0", root=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class TestBenchmarkJson(unittest.TestCase):
    def test_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(gen.WORKLOADS))
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_names_match_the_driver(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         tracing.PER_LAYER_UNITS)


class TestHelpers(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertAlmostEqual(run.percentile([0.0, 10.0], 0.9), 9.0)
        self.assertEqual(run.percentile([4.0], 0.9), 4.0)

    def test_bank_oracle_on_the_shipped_model(self):
        # bank_mod4.model is the k=4 model with seven = 3, no fee and
        # identity labels; the README gives its violation of strong f == g.
        m = gen.BankModel(4, 3, list(range(4)), list(range(4)))
        self.assertEqual(gen.expected_model_check(1, m),
                         {"holds": False, "witness": "(*, 0)",
                          "lhs_value": "(3, 3)", "rhs_value": "(3, 0)"})
        self.assertEqual(gen.expected_model_check(0, m), {"holds": True})
        shipped = (ROOT / "src" / "decolog" / "corpus" / "bank_mod4.model").read_text()
        rows = [line for line in shipped.splitlines() if not line.startswith("#")]
        self.assertEqual(m.text().splitlines(), rows)


if __name__ == "__main__":
    unittest.main()

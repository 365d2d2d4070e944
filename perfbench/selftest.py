"""Tests of the benchmark itself: python3 perfbench/selftest.py

Runs every workload on the --smoke corpus in both trace modes, checks the
result line against BENCHMARK.json, and checks the corpus generator, the
per-call checks and the refusal to run outside a checkout.  Takes about
half a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeRuns(unittest.TestCase):
    def test_every_workload_in_both_trace_modes(self):
        for workload in run.WORKLOADS:
            for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", trace, "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in listed},
                    )
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))
                    context = json.loads(done.stdout.split("context: ", 1)[1].split("\n", 1)[0])
                    self.assertLessEqual({"cpu_s", "wall_s", "steal_s", "slowdown"}, set(context))

    def test_probe_samples_during_an_interval(self):
        probe = speed.Probe()
        with probe:
            end = time.perf_counter() + 10 * speed.PERIOD_S
            while time.perf_counter() < end:
                pass
        # one sample at each end and about one per period in between
        self.assertGreaterEqual(len(probe.samples), 6)
        self.assertLess(probe.measured, 10 * speed.PERIOD_S)
        self.assertAlmostEqual(probe.seconds, probe.measured * probe.scale)

    def test_refuses_a_directory_without_the_program(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = bench(bare, "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class Corpus(unittest.TestCase):
    def texts(self, workload, seed):
        wc = run.load_wcfold()
        inputs = corpus.make_corpus(workload, seed, False, wc.reduction.bundled_layout_text)
        return [corpus.input_text(item) for item in inputs]

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.texts(workload, 5), self.texts(workload, 5))
                self.assertNotEqual(self.texts(workload, 5), self.texts(workload, 6))

    def test_drawn_chains_are_the_recorded_draw(self):
        self.assertEqual(corpus.draw_chains(), [(s, c) for s, c, _, _ in corpus.DRAWN_CHAINS])

    def test_relabelling_leaves_the_search_unchanged(self):
        wc = run.load_wcfold()
        for seq in ("GGCGCCAUGGCAU", "CAUGCCGUUGCG"):
            reports = set()
            for table in corpus._RELABELS:
                r = wc.solver.exact_solve(wc.model.parse_chain(seq.translate(table)))
                reports.add((r.optimal_score, r.optimal_count, r.nodes_explored, r.pruned))
            self.assertEqual(len(reports), 1, reports)

    def test_block_layouts_have_a_fixed_length(self):
        wc = run.load_wcfold()
        for n_blocks in (1, 2, 3):
            cells = set()
            for seed in range(6):
                layout = wc.reduction.parse_layout(
                    corpus.block_layout(n_blocks, random.Random(seed)))
                cells.add(sum(e.cells for e in layout.elements
                              if isinstance(e, wc.reduction.Segment)))
            self.assertEqual(len(cells), 1, cells)


class Checks(unittest.TestCase):
    def setUp(self):
        self.wc = run.load_wcfold()

    def test_solve_check_catches_a_wrong_pin(self):
        op = workloads._solve_op(self.wc, corpus.ChainInput("GGGGCCCC", True, 3, 2), 1)
        self.assertEqual(op.check(op.call()), ["count 1, pinned 2"])
        op = workloads._solve_op(self.wc, corpus.ChainInput("GGGGCCCC", False, 4), 1)
        self.assertEqual(op.check(op.call()), ["score 3, pinned 4"])

    def test_approx_check_catches_a_wrong_score(self):
        op = workloads._approx_op(self.wc, corpus.ApproxInput("GC" * 20))
        folding, achieved = op.call()
        self.assertEqual(op.check((folding, achieved)), [])
        self.assertTrue(op.check((folding, achieved + 1)))

    def test_reduce_check_catches_a_wrong_verdict(self):
        text = self.wc.reduction.bundled_layout_text("single_clause")
        op = workloads._reduce_op(self.wc, corpus.LayoutInput("single_clause", text))
        layout, instance, verdicts = op.call()
        self.assertEqual(op.check((layout, instance, verdicts)), [])
        flipped = [(a, b if a["x"] else instance.k, m) for a, b, m in verdicts]
        self.assertTrue(op.check((layout, instance, flipped)))


if __name__ == "__main__":
    unittest.main()

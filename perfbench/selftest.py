#!/usr/bin/env python3
"""Self-test of the benchmark's generator and output checks.

    python3 perfbench/selftest.py

Generator: the same seed gives the same digests, another seed gives other
digests, and generating imports nothing from cpwloss. Checks: a correct
CLI output passes, and a corrupted report.json or a stdout that is not
strict JSON is counted as a failed invocation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

SWEEPS = ("sweep_ref", "sweep_long", "sweep_dense")


class Scratch(unittest.TestCase):
    def setUp(self) -> None:
        run.OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))

    def tearDown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class GeneratorTest(Scratch):
    def test_same_seed_same_digest_other_seed_other_digest(self):
        for workload in SWEEPS:
            a = gen.generate(workload, 7, self.dir / f"{workload}-a")
            b = gen.generate(workload, 7, self.dir / f"{workload}-b")
            c = gen.generate(workload, 8, self.dir / f"{workload}-c")
            self.assertEqual(a.sha256, b.sha256, workload)
            self.assertNotEqual(a.sha256, c.sha256, workload)
            self.assertEqual((a.points, a.bytes), (b.points, b.bytes))

    def test_workload_shapes(self):
        long = gen.generate("sweep_long", 1, self.dir / "long")
        self.assertEqual(sum(s.qi is not None for s in long.traces), 240)
        self.assertEqual(sum(s.qi is None for s in long.traces), 16)
        dense = gen.generate("sweep_dense", 1, self.dir / "dense")
        counts = [s.points for s in dense.traces]
        self.assertEqual(len(set(counts)), 24)
        self.assertEqual((min(counts), max(counts)), (4001, 16001))
        suffixes = {Path(s.name).name.split("K", 1)[1] for s in dense.traces}
        self.assertEqual(suffixes, {".csv", ".db.csv", ".s2p"})

    def test_generation_imports_no_cpwloss(self):
        code = (
            "import sys; from pathlib import Path\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "import gen\n"
            f"for w in {SWEEPS!r}: gen.generate(w, 3, Path({str(self.dir)!r}) / w)\n"
            "print(sorted(m for m in sys.modules if m.startswith('cpwloss')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        self.assertEqual(out.stdout.strip(), "[]")


class ChecksTest(Scratch):
    """Positive controls run the real CLI once; negatives corrupt its output."""

    def _cli(self, workload: str) -> gen.Inputs:
        inputs = gen.generate(workload, 5, self.dir)
        res = measure.invoke(gen.cli_args(workload), self.dir)
        self.assertEqual(res["rc"], 0, (self.dir / "stderr.txt").read_text())
        return inputs

    def test_sweep_report(self):
        inputs = self._cli("sweep_ref")
        report = self.dir / "out" / "report.json"
        problems, errors = checks.check_sweep("sweep_ref", inputs, report)
        self.assertEqual(problems, [])
        self.assertEqual(len(errors), 30)
        good = report.read_text()
        doc = json.loads(good)
        corruptions = {
            "truncated": good[: len(good) // 2],
            "nan": good.replace('"qi_measured": ', '"qi_measured": NaN, "x": ', 1),
            "qi_off": json.dumps(self._scaled_qi(doc, 1.1)),
            "lost_entry": json.dumps(dict(doc, per_temperature=doc["per_temperature"][1:])),
            "no_onset": json.dumps(dict(doc, derived=dict(doc["derived"], redshift_onset_k=None))),
        }
        for name, text in corruptions.items():
            report.write_text(text)
            problems, _ = checks.check_sweep("sweep_ref", inputs, report)
            self.assertTrue(problems, name)

    @staticmethod
    def _scaled_qi(doc: dict, factor: float) -> dict:
        entries = [dict(e) for e in doc["per_temperature"]]
        entries[3] = dict(entries[3], budget=dict(entries[3]["budget"]))
        entries[3]["budget"]["qi_measured"] *= factor
        return dict(doc, per_temperature=entries)

    def test_mb_table(self):
        inputs = self._cli("theory_table")
        config = json.loads(inputs.config.read_text())
        good = (self.dir / "stdout.txt").read_text()
        self.assertEqual(checks.check_mb(good, config), [])
        rows = json.loads(good)
        bumped = [dict(r) for r in rows]
        bumped[-1]["sigma1_norm"] *= 1.0 + 1e-6  # a spot row
        corruptions = {
            "infinity": good.replace('"rs_ohm_sq": ', '"rs_ohm_sq": Infinity, "x": ', 1),
            "short": json.dumps(rows[:-1]),
            "spot_value": json.dumps(bumped),
            "not_json": "conductivity table\n",
        }
        for name, text in corruptions.items():
            self.assertTrue(checks.check_mb(text, config), name)


class AccountingTest(Scratch):
    """measure() counts an invocation with bad output as failed."""

    def _measure_with(self, workload: str, write_output) -> dict:
        inputs = gen.generate(workload, 5, self.dir)

        def fake_invoke(args, cwd):
            if args == ["--version"]:
                (cwd / "stdout.txt").write_text("0.1.0\n")
            else:
                write_output(cwd)
            return {"rc": 0, "wall_s": 0.01, "rss_mb": 1.0}

        real, measure.invoke = measure.invoke, fake_invoke
        try:
            return measure.measure(workload, inputs, self.dir, 0.0)
        finally:
            measure.invoke = real

    def test_corrupt_report_counts_as_failed(self):
        def write(cwd):
            (cwd / "out").mkdir(exist_ok=True)
            (cwd / "out" / "report.json").write_text('{"per_temperature": [')

        result = self._measure_with("sweep_ref", write)
        self.assertEqual(result["failed"], measure.MIN_INVOCATIONS)
        self.assertEqual(result["attempted"], 2 * measure.MIN_INVOCATIONS)

    def test_non_strict_stdout_counts_as_failed(self):
        def write(cwd):
            (cwd / "stdout.txt").write_text('[{"temperature_k": NaN}]\n')

        result = self._measure_with("theory_table", write)
        self.assertEqual(result["failed"], measure.MIN_INVOCATIONS)


if __name__ == "__main__":
    unittest.main()

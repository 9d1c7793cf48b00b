"""Self-tests of the benchmark itself; run from the checkout root:

    python3 nsbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))

DESIGN = json.loads((HERE / "design.json").read_text())


def work_dir(tag: str) -> Path:
    return run.ROOT / ".nsbench_work" / f"selftest-{tag}-{os.getpid()}"


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        log = tracing.SpanLog()
        root = log.add("cli.main", 0.0, 10.0, -1, 0)
        a = log.add("textio.parse_op_table", 1.0, 4.0, root, 0)
        b = log.add("correspondence.star", 5.0, 9.0, root, 0)
        c = log.add("operators.op_evaluate", 6.0, 7.0, b, 0)
        d = log.add("operators.op_compose", 6.2, 6.7, c, 0)
        self.assertEqual(tracing.self_times(log), [3.0, 3.0, 3.0, 0.5, 0.5])
        self.assertEqual(tracing.layer_of(log.name(d)), "operators")
        self.assertEqual(tracing.inclusive_time(log, ("operators.op_evaluate", "operators.op_compose")), 1.0)
        self.assertEqual(tracing.inclusive_time(log, ("textio.parse_op_table", "correspondence.star")), 7.0)
        del a


class SpeedScaleTest(unittest.TestCase):
    def test_local_median_scale(self):
        log = speed.SpeedLog()
        log.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        log.durations = [0.005] * 4 + [0.010] * 4
        nominal = speed.NOMINAL_PROBE_MS
        # Before the slowdown every neighbour reads 5 ms, after it 10 ms.
        self.assertAlmostEqual(log.scale(0.5), nominal / 5.0)
        self.assertAlmostEqual(log.scale(9.0), nominal / 10.0)
        # Across it, three probes on each side: median of 5,5,5,10,10,10.
        self.assertAlmostEqual(log.local_ms(3.5), 7.5)

    def test_probe_records(self):
        log = speed.SpeedLog()
        log.probe()
        log.probe_if_due()  # not due yet
        self.assertEqual(len(log.durations), 1)
        self.assertGreater(log.durations[0], 0.0)


class WorkloadTest(unittest.TestCase):
    def setUp(self):
        self.dirs = []

    def tearDown(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def set_up(self, workload: str, seed: int, tag: str):
        work = work_dir(f"{workload}-{tag}")
        self.dirs.append(work)
        cli, ns = run.import_fresh()
        return cli, run.workloads.SETUPS[workload](ns, seed, work)

    def test_same_seed_same_digest(self):
        for workload in sorted(run.workloads.SETUPS):
            first = self.set_up(workload, 1, "a")[1].digest
            again = self.set_up(workload, 1, "b")[1].digest
            other = self.set_up(workload, 2, "c")[1].digest
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)
            self.assertEqual(first, DESIGN["input_sha256_seed1"][workload], workload)

    def test_planted_wrong_output_fails(self):
        cases = {
            "corr": lambda out: out.replace("1", "2", 1),
            "vaut": lambda out: out.replace("1", "2", 1),
            "verify": lambda out: out.replace("PASS", "FAIL", 1),
        }
        for workload, corrupt in cases.items():
            cli, setup = self.set_up(workload, 3, "w")
            job = next(i for i, j in enumerate(setup.jobs) if j.kind not in ("decompose-invalid",))
            rc, out = run.run_job(cli, setup.jobs[job].argv)
            checker = run.Checker(setup.jobs)
            self.assertTrue(checker.check(job, rc, out), workload)
            self.assertFalse(checker.check(job, rc, corrupt(out)), workload)
            self.assertFalse(checker.check(job, 1, out), workload)
            self.assertEqual(sum(checker.failures.values()), 2)

    def test_planted_invalid_must_be_rejected(self):
        cli, setup = self.set_up("vaut", 3, "i")
        job = next(i for i, j in enumerate(setup.jobs) if j.kind == "decompose-invalid")
        rc, out = run.run_job(cli, setup.jobs[job].argv)
        checker = run.Checker(setup.jobs)
        self.assertEqual((rc, out), (2, ""))
        self.assertTrue(checker.check(job, rc, out))
        self.assertFalse(checker.check(job, 0, '{"mu": []}\n'))

    def test_traced_outputs_match_untraced(self):
        for workload in sorted(run.workloads.SETUPS):
            cli, setup = self.set_up(workload, 4, "t")
            jobs = [j for j in setup.jobs[: setup.trace_jobs] if j.kind != "star"][:5]
            plain = [run.run_job(cli, j.argv) for j in jobs]
            tracer = tracing.Tracer()
            original = sys.modules["nseries.operators"].op_compose
            tracer.install()
            tracer.enabled = True
            try:
                self.assertIsNot(sys.modules["nseries.operators"].op_compose, original)
                traced = [run.run_job(cli, j.argv) for j in jobs]
            finally:
                tracer.uninstall()
            self.assertIs(sys.modules["nseries.operators"].op_compose, original)
            self.assertEqual(plain, traced, workload)
            self.assertGreater(len(tracer.spans), 0)
            self.assertGreater(tracer.calls["cli.main"], 0)


if __name__ == "__main__":
    unittest.main()

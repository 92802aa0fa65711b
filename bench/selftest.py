"""Self-tests for the benchmark itself.

    python3 bench/selftest.py            # about a minute: it runs every workload once

Checks that plans depend only on the seed, that a run prints every metric
named in BENCHMARK.json with its unit, and that a corrupted output or an op
over its budget is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from itertools import islice
from pathlib import Path

from checks import OpRecord, make_checker
from plan import DEFAULT_SEED, WORKLOADS, ExtractOp, Plan
from run import BENCH, ROOT, WORK, Runner, import_cli


def setUpModule():
    import_cli()  # puts the checkout's src/ on sys.path
    WORK.mkdir(parents=True, exist_ok=True)


def first_ops(plan: Plan, cycles: int = 3) -> list:
    return list(islice(plan.ops(), cycles * plan.cycle))


class PlanTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_order(self):
        for name in WORKLOADS:
            a, b = Plan(name, 11), Plan(name, 11)
            self.assertEqual(a.inputs, b.inputs, name)
            self.assertEqual(first_ops(a), first_ops(b), name)

    def test_other_seed_other_inputs_or_order(self):
        for name in WORKLOADS:
            a, b = Plan(name, 11), Plan(name, 12)
            if a.kind == "extract":
                self.assertNotEqual([i.data for i in a.inputs], [i.data for i in b.inputs], name)
            self.assertNotEqual(first_ops(a), first_ops(b), name)

    def test_every_cycle_has_the_same_mix(self):
        for name in WORKLOADS:
            plan = Plan(name, 5)
            ops = first_ops(plan, 4)
            kinds = [[getattr(op, "kind", None) or (plan.inputs[op.input_id].p, op.mode)
                      for op in ops[c * plan.cycle:(c + 1) * plan.cycle]] for c in range(4)]
            self.assertTrue(all(k == kinds[0] for k in kinds), name)


class CheckTest(unittest.TestCase):
    def run_extract(self, plan: Plan, op: ExtractOp) -> OpRecord:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            from eliastream import cli

            return Runner(plan, Path(tmp), cli).run(op)

    @staticmethod
    def flip(rec: OpRecord, bit: int) -> OpRecord:
        data = bytearray(rec.output)
        data[bit // 8] ^= 0x80 >> (bit % 8)
        return rec._replace(output=bytes(data))

    def test_one_flipped_bit_is_a_failure(self):
        plan = Plan("extract_short", DEFAULT_SEED)
        digests = json.loads((BENCH / "digests.json").read_text())["extract_short"]
        checker = make_checker(plan, digests)
        stream = self.run_extract(plan, ExtractOp(8, "streaming"))
        demand = self.run_extract(plan, ExtractOp(8, "on-demand"))
        self.assertIsNone(checker.check(stream))
        self.assertIsNone(checker.check(demand))
        for bit in (0, 7, 300, 8 * len(stream.output) - 9):
            self.assertIsNotNone(checker.check(self.flip(stream, bit)), bit)
        self.assertIsNotNone(checker.check(self.flip(demand, 400)))

    def test_flipped_bit_in_the_reference_prefix_fails_at_any_seed(self):
        plan = Plan("extract_short", 99)
        checker = make_checker(plan, None)
        rec = self.run_extract(plan, ExtractOp(0, "streaming"))
        self.assertIsNone(checker.check(rec))
        self.assertIsNotNone(checker.check(self.flip(rec, 5)))

    def test_over_budget_is_a_failure(self):
        plan = Plan("extract_short", DEFAULT_SEED)
        checker = make_checker(plan, None)
        rec = self.run_extract(plan, ExtractOp(0, "streaming"))
        slow = rec._replace(duration=plan.params["budget_s"] + 0.5)
        self.assertIn("over budget", checker.check(slow))

    def test_oracle_fidelity_below_one_is_a_failure(self):
        plan = Plan("oracles", DEFAULT_SEED)
        checker = make_checker(plan, None)
        op = plan.oracle_op("universal", 0.3, 0.7)
        report = "schema=eliastream/1\nfidelity[1]=1.000000000\nfidelity[2]=0.999990000\n"
        self.assertIsNotNone(checker.check(OpRecord(op, 0.5, 0, None, b"", report)))
        self.assertIsNone(checker.check(OpRecord(op, 0.5, 0, None, b"", report.replace("0.99999", "1.00000"))))


class RunTest(unittest.TestCase):
    def test_run_prints_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for name in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
                       "--seconds", "0.1", "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"], proc.stdout)
                self.assertGreaterEqual(last["attempted"], 1)
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                self.assertEqual(got, want, (name, trace))
                for k, v in last["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)


if __name__ == "__main__":
    unittest.main()

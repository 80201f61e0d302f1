"""Self-tests of the campaign benchmark.

    python3 -m unittest discover -s perfbench/tests

The first test to need the child builds it (Release) like run.py does.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

# A short campaign so the tests stay fast; same code paths as the real
# workloads.
TINY = run.Workload("tiny-ledlc", "self-test only", "LEDLC", 300, panel=2)


class CampaignChildTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def campaign(self, seed):
        res = run.Tally().run([*TINY.child_args(seed), "--setup-repeats", "1"])
        self.assertIsNotNone(res)
        return res

    def test_fingerprint_tells_two_seeds_apart(self):
        a, b, a2 = self.campaign(1), self.campaign(2), self.campaign(1)
        self.assertNotEqual(a["fingerprint"], b["fingerprint"])
        self.assertEqual(a["fingerprint"], a2["fingerprint"])

    def test_printed_metrics_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        run.WORKLOADS[TINY.name] = TINY
        try:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    run.main(["--workload", TINY.name, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace)])
                result = json.loads(out.getvalue().strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                declared = {m["name"]: m["unit"] for m in bench[key]}
                self.assertEqual(printed, declared)
        finally:
            del run.WORKLOADS[TINY.name]


class HarnessTest(unittest.TestCase):
    def test_benchmark_json_is_the_spec(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(bench, run.spec())

    def test_watchdog_fails_a_stalled_child(self):
        saved = run.CHILD
        run.CHILD = Path(sys.executable)
        try:
            tally = run.Tally()
            res = tally.run(["-c", "import time; time.sleep(60)"],
                            watchdog_s=1)
        finally:
            run.CHILD = saved
        self.assertIsNone(res)
        self.assertEqual((tally.attempted, tally.failed, tally.hangs),
                         (1, 1, 1))

    def test_output_check_rejects_a_diverging_repeat(self):
        tally = run.Tally()
        refs = {}
        first = {"replay_ok": True, "fingerprint": "aa"}
        self.assertIs(run.checked(tally, first, 7, refs), first)
        self.assertIsNone(run.checked(
            tally, {"replay_ok": True, "fingerprint": "bb"}, 7, refs))
        self.assertIsNone(run.checked(
            tally, {"replay_ok": False, "fingerprint": "aa"}, 7, refs))
        self.assertEqual(tally.failed, 2)


if __name__ == "__main__":
    unittest.main()

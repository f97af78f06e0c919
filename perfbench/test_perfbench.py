"""Self-tests of the benchmark: determinism, span arithmetic, checks, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench`` or
``python3 -m unittest discover -s perfbench``.
"""

import json
import os
import subprocess
import sys
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class InRoot(unittest.TestCase):
    def setUp(self):
        self._cwd = os.getcwd()
        os.chdir(ROOT)

    def tearDown(self):
        os.chdir(self._cwd)


class RequestStreams(InRoot):
    def test_same_seed_same_requests(self):
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            first = wl.prepare(workloads.seeded_rng(7), smoke=False)["requests"]
            again = wl.prepare(workloads.seeded_rng(7), smoke=False)["requests"]
            other = wl.prepare(workloads.seeded_rng(8), smoke=False)["requests"]
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_ih_subdivided_covers_every_table_entry(self):
        wl = workloads.IhSubdivided()
        complexes = len(workloads.bundled_names()) - len(workloads.IH_LEFT_OUT)
        reqs = wl.prepare(workloads.seeded_rng(1), False)["requests"]
        self.assertEqual(len(reqs), 11 * complexes)

    def test_cli_mix_bad_share(self):
        reqs = workloads.CliMix().prepare(workloads.seeded_rng(1), False)["requests"]
        bad = sum(1 for kind, _, _ in reqs if kind == "bad")
        self.assertEqual(bad, len(workloads.BAD_REQUESTS))
        self.assertTrue(0.03 < bad / len(reqs) < 0.07)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(run.percentile(list(range(1, 101)), 90), 90)
        self.assertEqual(run.percentile(list(range(1, 103)), 50), 51)
        self.assertEqual(run.percentile([5.0], 90), 5.0)


class Scaling(unittest.TestCase):
    def test_factor_uses_the_nearest_probes(self):
        pacer = probe.Pacer()
        # probes at t = 0..9; the machine is twice as slow from t = 5 on
        pacer.mids = [float(t) for t in range(10)]
        pacer.durations = [probe.REF_S] * 5 + [2 * probe.REF_S] * 5
        self.assertEqual(pacer.factor(0.4), 1.0)
        self.assertEqual(pacer.factor(9.5), 0.5)
        self.assertEqual(pacer.factor(4.6), 0.5)   # nearest five: 3..7, three slow
        self.assertEqual(pacer.factor(4.4), 1.0)   # nearest five: 2..6, three fast

    def test_factor_with_fewer_probes_than_nearest(self):
        pacer = probe.Pacer()
        pacer.mids, pacer.durations = [1.0, 2.0], [probe.REF_S, 3 * probe.REF_S]
        self.assertAlmostEqual(pacer.factor(100.0), 0.5)


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        # a [0, 10] has children b [1, 4] and c [5, 9]; b has child d [2, 3]
        log = spans.SpanLog()
        for name, s, e, parent in (("a", 0, 10, -1), ("b", 1, 4, 0),
                                   ("d", 2, 3, 1), ("c", 5, 9, 0)):
            log.name.append(log.name_id(name))
            log.start.append(s)
            log.end.append(e)
            log.parent.append(parent)
            log.request.append(0)
            log.nested.append(0)
        self.assertEqual(list(log.self_times()), [3.0, 2.0, 1.0, 4.0])

    def test_wrapper_keeps_results_and_records_spans(self):
        mod = types.ModuleType("perfbench_fake_layer")
        mod.outer = lambda x: mod.inner(x) + 1
        mod.inner = lambda x: x * 2
        sys.modules[mod.__name__] = mod
        try:
            log = spans.SpanLog()
            gone = spans.install(log, {"outer": [(mod.__name__, "outer")],
                                       "inner": [(mod.__name__, "inner")],
                                       "renamed": [(mod.__name__, "no_such_name")]})
            self.assertEqual(gone, ["renamed"])
            self.assertEqual(mod.outer(5), 11)
            self.assertEqual([log.names[i] for i in log.name], ["outer", "inner"])
            self.assertEqual(list(log.parent), [-1, 0])
        finally:
            del sys.modules[mod.__name__]

    def test_unmeasured_layers_are_left_out(self):
        log = spans.SpanLog()
        values = spans.layer_metrics(log, ["sparse_rank"], wall_s=1.0)
        self.assertNotIn("linalg.rank_s", values)
        self.assertIn("hecke.t_mul_s", values)


class Checks(InRoot):
    def test_corrupted_table_is_flagged(self):
        wl = workloads.IhSubdivided()
        inputs = wl.prepare(workloads.seeded_rng(1), smoke=True)
        table = inputs["expected"]["cone-torus"]["ih"]["top"]["borel_moore"]
        table["2"] += 1
        statuses = []
        wl.run(inputs, lambda i, dt, status, detail: statuses.append(status))
        self.assertEqual(statuses.count("wrong"), 1)

    def test_corrupted_kl_polynomial_is_flagged(self):
        w, u = (3, 4, 1, 2), (1, 3, 2, 4)
        self.assertEqual(workloads.kl_poly_problems(u, w, {0: 1, 1: 1}), [])
        self.assertTrue(workloads.kl_poly_problems(u, w, {0: 1, 1: 2, 2: 1}))
        self.assertTrue(workloads.kl_poly_problems(u, w, {0: 2}))

    def test_bruhat_reference(self):
        self.assertTrue(workloads.bruhat_leq((1, 3, 2, 4), (3, 4, 1, 2)))
        self.assertFalse(workloads.bruhat_leq((4, 1, 2, 3), (3, 4, 1, 2)))

    def test_rejection_check(self):
        self.assertIsNone(workloads.check_rejection(2, None, "usage error: x\n", 2))
        self.assertTrue(workloads.check_rejection(1, None, "error: x\n", 2))
        self.assertTrue(workloads.check_rejection(2, None, "usage: a\nerror: b\n", 2))
        self.assertTrue(workloads.check_rejection(None, "Traceback ...", "", 2))


class Smoke(InRoot):
    def test_smoke_runs_finish_in_seconds(self):
        for name in workloads.WORKLOADS:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertLess(time.monotonic() - t0, 30)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stdout)
            self.assertEqual(set(result["metrics"]), set(spans.LAYER_METRICS))

    def test_refuses_to_run_outside_a_checkout(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "kl",
             "--seed", "1", "--seconds", "1"],
            cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

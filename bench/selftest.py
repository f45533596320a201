"""Quick checks of the benchmark itself; run from the root of a checkout:

    python3 bench/selftest.py

Covers the input generators, one golden check, and that two traced
passes over a small op list give identical counts.  Takes a few seconds.
"""

from __future__ import annotations

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

LIB = run.load_lierine()
COUNT_KEYS = ("_calls", "exactla.rank_entries", "exactla.rank_nnz")


def parse_text(text: str, name: str):
    path = run.write_input("selftest", f"{name}.lri", text)
    return path, LIB.cli.parse_instance(path)


class Generators(unittest.TestCase):
    def test_gl2_cohomology_is_koszul(self):
        for seed in (0, 1, 2):
            path, _ = parse_text(gen.gl_n(2, seed), "gl2")
            code, stdout = run.cli_call(LIB.cli, ["cohomology", "--input", path])
            self.assertEqual((code, run.dims_of(stdout)), (0, [1, 1, 0, 1, 1]))

    def test_small_witt_is_valid(self):
        for seed in (0, 1, 2):
            _, inst = parse_text(gen.witt(4, seed), "witt4")
            self.assertEqual(LIB.lrcore.lr_validate(inst.lr("witt4")), [])
            self.assertEqual(LIB.calgebra.alg_validate(inst.lr("witt4").alg), [])

    def test_relabelling_is_seeded(self):
        self.assertEqual(gen.gl_n(3, 5), gen.gl_n(3, 5))
        self.assertNotEqual(gen.gl_n(3, 5), gen.gl_n(3, 6))

    def test_sl2_double_is_twilled_for_every_labelling(self):
        for seed in range(6):
            _, inst = parse_text(gen.sl2_double(seed), "sl2_double")
            self.assertEqual(LIB.twilled.is_twilled(inst.build_twilled("double")), [])


class Golden(unittest.TestCase):
    def test_fixture_op_matches_golden(self):
        import json

        with open(run.GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        name = "sl2 cohomology --name sl2 --max-degree 3"
        argv = run.fixture_argv("sl2", "cohomology", ["--name", "sl2", "--max-degree", "3"])
        outcome = run.cli_call(LIB.cli, argv)
        self.assertIsNone(run.golden_check(golden[name])(outcome))
        self.assertIsNotNone(run.golden_check(golden[name])((0, outcome[1] + " ")))


class Median(unittest.TestCase):
    def test_harrell_davis_median(self):
        self.assertEqual(run.hd_median([3.0]), 3.0)
        self.assertAlmostEqual(run.hd_median([1.0, 5.0]), 3.0)
        self.assertAlmostEqual(run.hd_median([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0)
        xs = [0.5, 1, 2, 4, 8.4, 8.7, 9.3, 13.7, 15, 17, 20, 200, 7000]
        est = run.hd_median(xs)
        self.assertTrue(4 < est < 13.7, est)
        self.assertAlmostEqual(run.hd_median([2 * x for x in xs]), 2 * est)


class Speed(unittest.TestCase):
    def test_clock_leaves_out_probes(self):
        meter = speed.SpeedMeter()
        meter.start()
        try:
            start, clock_start = time.perf_counter(), meter.clock()
            while time.perf_counter() - start < 0.3:
                sum(range(1000))
            elapsed, clocked = time.perf_counter() - start, meter.clock() - clock_start
        finally:
            meter.stop()
        self.assertGreaterEqual(len(meter.samples), 5)
        self.assertAlmostEqual(elapsed - clocked, meter.probe_s, delta=1e-4)
        self.assertGreater(meter.factor(), 0)
        passes = [run.PassResult()]
        passes[0].latencies = [0.5, 1.5]
        metrics = run.end_to_end(passes, 0.25, 20.0, 2.0)
        self.assertEqual((metrics["wall_s"]["value"], metrics["setup_s"]["value"],
                          metrics["peak_rss_mb"]["value"]), (4.0, 0.5, 20.0))


def small_ops(seed: int):
    path, _ = parse_text(gen.gl_n(2, seed), "gl2")
    argvs = [
        ["cohomology", "--input", path],
        run.fixture_argv("derx3", "generator", ["--name", "curved_line"]),
        run.fixture_argv("desk", "check-twilled", []),
        run.fixture_argv("sl2", "check-bialgebra", []),
        run.fixture_argv("direct_sum22", "cohomology", []),
    ]
    return [run.cli_op(LIB.cli, " ".join(a), a, lambda outcome: None) for a in argvs]


def traced_metrics(seed: int):
    tracer = spans.Tracer()
    ops = small_ops(seed)
    untraced = [run.run_pass(ops)]
    tracer.install()
    try:
        traced = run.run_pass(ops)
    finally:
        tracer.uninstall()
    return tracer, traced, run.per_layer(tracer, traced, untraced)


class Tracing(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        _, _, first = traced_metrics(1)
        _, _, second = traced_metrics(2)
        counts = {k for k in first if any(k.endswith(s) or k == s for s in COUNT_KEYS)}
        self.assertIn("calgebra.mul_calls", counts)
        self.assertIn("exactla.rank_nnz", counts)
        for key in sorted(counts):
            self.assertEqual(first[key]["value"], second[key]["value"], key)
        self.assertGreater(first["lrcore.ce_differential_calls"]["value"], 0)
        self.assertGreater(first["twilled.crossed_bracket_calls"]["value"], 0)

    def test_self_times_account_for_wall(self):
        tracer, traced, metrics = traced_metrics(3)
        self.assertEqual(traced.failures, [])
        # every rank call here runs inside a cli.main span, so the self times
        # and the nonzero counting together cover the root spans exactly
        roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
        self.assertAlmostEqual(tracer.attributed_s() + tracer.count_s, roots, places=9)
        self.assertLessEqual(roots, traced.wall_s)
        unattributed = metrics["trace.unattributed_s"]["value"]
        self.assertGreaterEqual(unattributed, 0)
        self.assertLess(unattributed, 0.1 * traced.wall_s)

    def test_uninstall_restores_entry_points(self):
        before = (LIB.lrcore.mat_rank, LIB.twilled.mat_rank, LIB.calgebra.CommAlg.mul_coeffs)
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(LIB.twilled.mat_rank, before[1])
        tracer.uninstall()
        self.assertEqual(before, (LIB.lrcore.mat_rank, LIB.twilled.mat_rank,
                                  LIB.calgebra.CommAlg.mul_coeffs))

    def test_missing_entry_point_is_reported_not_fatal(self):
        gone = ("lrcore", "no_such_builder", "lrcore.gone", spans.SPAN)
        tracer = spans.Tracer(spans.ENTRY_POINTS + [gone])
        tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.missing, ["lrcore.gone"])
        metrics = run.per_layer(tracer, run.PassResult(), [run.PassResult()])
        self.assertNotIn("lrcore.gone_s", metrics)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout with either of::

    python3 -m pytest perfbench
    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    """Self time on a hand-built span tree."""

    def setUp(self) -> None:
        #  job 0..10 (other)
        #  |- a 1..4 (sim)       |- b 2..3 (store)
        #  |- c 5..9 (serve)     |- d 6..7 (store), e 6.5..8 (nerf, overlaps d)
        self.spans = [
            Span(1, "job", "other", 0.0, 10.0, None),
            Span(2, "a", "sim", 1.0, 4.0, 1),
            Span(3, "b", "store", 2.0, 3.0, 2),
            Span(4, "c", "serve", 5.0, 9.0, 1),
            Span(5, "d", "store", 6.0, 7.0, 4),
            Span(6, "e", "nerf", 6.5, 8.0, 4),
        ]

    def test_self_time_subtracts_covered_child_time(self) -> None:
        own = tracing.self_times(self.spans)
        self.assertEqual(own, {1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 1.5})

    def test_layer_self_times_add_up_to_job_time(self) -> None:
        spans = self.spans[:4] + [Span(5, "d", "store", 6.0, 7.0, 4)]
        metrics = tracing.layer_metrics(
            {"spans": spans, "counts": Counter(), "job_s": 10.0}, None, []
        )
        layers = {layer: metrics[f"layer.{layer}.self_s"] for layer in tracing.LAYERS}
        self.assertEqual(layers["other"], 3.0)
        self.assertEqual(layers["store"], 2.0)
        self.assertAlmostEqual(sum(layers.values()), metrics["trace.job_s"])


class ChromeTraceTest(unittest.TestCase):
    """The trace file is Chrome trace-event JSON."""

    def test_trace_file_loads_as_trace_event_json(self) -> None:
        spans = [Span(1, "job", "other", 5.0, 6.0, None), Span(2, "x", "sim", 5.2, 5.5, 1)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            tracing.write_chrome_trace(
                path, [("cold job", spans, {"sim.frame_sims": 3}), ("warm replay", [], {})]
            )
            document = json.loads(path.read_text())
        for event in document["traceEvents"]:
            self.assertIn(event["ph"], ("X", "C", "M"))
            for key in ("name", "pid", "tid"):
                self.assertIn(key, event)
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        self.assertEqual([e["name"] for e in complete], ["job", "x"])
        self.assertAlmostEqual(complete[1]["ts"], 0.2e6)
        self.assertAlmostEqual(complete[1]["dur"], 0.3e6)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        self.assertEqual(counters, [{"name": "sim.frame_sims", "ph": "C", "pid": 1, "tid": 1,
                                     "ts": 1e6, "args": {"value": 3}}])
        names = [e["args"]["name"] for e in document["traceEvents"] if e["ph"] == "M"]
        self.assertEqual(names, ["cold job", "warm replay"])


class TracedRunTest(unittest.TestCase):
    """Tracing reaches no result, and every wrapper comes off again."""

    IDS = ("fig19", "fig20b", "serve-fleet-mix", "plan-capacity")

    def _outputs(self) -> list[tuple[str, str]]:
        from repro.experiments.registry import get_experiment
        from repro.perf.distributed import normalize_result_json

        results = [get_experiment(exp_id).run() for exp_id in self.IDS]
        return [(r.to_table(), normalize_result_json(r.to_json())) for r in results]

    def test_traced_outputs_equal_untraced_and_wrappers_are_removed(self) -> None:
        import repro.experiments.registry  # noqa: F401
        from repro.sim.sweep import SweepEngine

        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        patched = list(installation)
        try:
            self.assertTrue(patched)
            self.assertTrue(tracing.leftover_wrappers())
            traced = self._outputs()
            SweepEngine().frame_report("flexnerfer", "instant-ngp")
        finally:
            tracing.uninstall(installation)
        self.assertEqual(tracing.leftover_wrappers(), [])
        for owner, attr, original in patched:
            self.assertIs(vars(owner)[attr], original)
        self.assertEqual(traced, self._outputs())
        names = {span.name for span in tracer.spans}
        self.assertIn("experiments.fig19.run", names)
        self.assertIn("serve.fast_path", names)
        self.assertIn("plan.evaluate", names)
        self.assertGreater(tracer.counts["sim.frame_lookups"], 0)


def _golden_output(goldens: dict[str, str]) -> str:
    return "".join(f"===== {k}: title (0.1s) =====\n{v}\n\n" for k, v in goldens.items())


class PerturbedExpectationTest(unittest.TestCase):
    """A perturbed expected value is a failed operation, not a crash or a pass."""

    def test_paper_repro_golden_mismatch_fails_one_check(self) -> None:
        workload = workloads.WORKLOADS["paper-repro"]
        goldens = {"fig01": "a | b\n1 | 2", "fig03": "c\n3"}
        text = _golden_output(goldens)
        self.assertTrue(all(c.ok for c in workload.check(text, 0, goldens)))
        perturbed = dict(goldens, fig03="c\n4")
        failed = [c.label for c in workload.check(text, 0, perturbed) if not c.ok]
        self.assertEqual(failed, ["golden fig03"])
        missing = dict(goldens, fig04="x")
        failed = [c.label for c in workload.check(text, 0, missing) if not c.ok]
        self.assertEqual(failed, ["golden fig04"])

    def test_serve_day_digest_mismatch_fails_one_check(self) -> None:
        workload = workloads.WORKLOADS["serve-day"]
        text = 'poisson_day {"a": 1}\ncontrolled_day {"b": 2}'
        pins = {"poisson_day": workloads.digest('{"a": 1}'),
                "controlled_day": workloads.digest('{"b": 2}')}
        self.assertTrue(all(c.ok for c in workload.check(text, 0, pins)))
        perturbed = dict(pins, controlled_day=workloads.digest('{"b": 3}'))
        failed = [c.label for c in workload.check(text, 0, perturbed) if not c.ok]
        self.assertEqual(failed, ["pinned controlled_day"])
        self.assertEqual(workload.check(text, 1, perturbed), [])

    def test_plan_search_cheapest_mismatch_fails_one_check(self) -> None:
        workload = workloads.WORKLOADS["plan-search"]
        solution = {"fleet": ["neurex"], "scheduler": "fifo", "p99_latency_s": 0.1}
        text = json.dumps({"frontier": [solution], "constraint": {"solution": solution}})
        pins = {"frontier": workloads.digest(json.dumps([solution], sort_keys=True)),
                "cheapest": {"fleet": ["neurex"], "p99_latency_s": 0.1}}
        self.assertTrue(all(c.ok for c in workload.check(text, 0, pins)))
        perturbed = dict(pins, cheapest={"fleet": ["neurex"], "p99_latency_s": 0.2})
        failed = [c.label for c in workload.check(text, 0, perturbed) if not c.ok]
        self.assertEqual(failed, ["pinned cheapest feasible"])

    def test_failed_check_is_reported_in_the_result_line(self) -> None:
        reports = iter(
            [
                {"checks": [["pinned poisson_day", False, "got x"]], "setup_s": 0.5,
                 "job_s": 2.0, "peak_rss_mb": 100.0, "content_digest": "d"},
                {"checks": [["pinned poisson_day", True, ""]], "setup_s": 0.6,
                 "job_s": 2.1, "peak_rss_mb": 101.0, "content_digest": "d"},
                {"checks": [["pinned poisson_day", True, ""]], "setup_s": 0.7,
                 "job_s": 2.2, "peak_rss_mb": 102.0, "content_digest": "e"},
            ]
        )
        real_run_job, real_warm_up = run.run_job, run.warm_up
        run.run_job = lambda *args, **kwargs: next(reports)
        run.warm_up = lambda work_dir: None
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run.main(["--workload", "serve-day", "--seconds", "0"])
        finally:
            run.run_job, run.warm_up = real_run_job, real_warm_up
        self.assertEqual(status, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        # Three pinned checks plus two fresh-run comparisons; the first
        # check and the third run's differing output fail.
        self.assertEqual((result["attempted"], result["failed"]), (5, 2))
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["cold_s"], {"value": 2.2, "unit": "s"})
        self.assertEqual(result["metrics"]["setup_s"], {"value": 0.7, "unit": "s"})


class CatalogueTest(unittest.TestCase):
    """The metrics a run prints are the ones BENCHMARK.json declares."""

    def test_metric_names_match_benchmark_json(self) -> None:
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        from repro.experiments.registry import EXPERIMENTS

        empty = {"spans": [], "counts": Counter(), "job_s": 1.0}
        layer = tracing.layer_metrics(empty, dict(empty, replay_s=0.1), list(EXPERIMENTS))
        names = set(layer) | {"setup.import_repro_s", "setup.import_registry_s",
                              "setup.import_cli_s", "trace.overhead"}
        self.assertEqual(names, {m["name"] for m in declared["per_layer"]})
        for metric in declared["per_layer"]:
            self.assertEqual(metric["unit"], run.unit_of(metric["name"]), metric["name"])
        self.assertEqual(set(run.END_TO_END_UNITS), {m["name"] for m in declared["end_to_end"]})
        for metric in declared["end_to_end"]:
            self.assertEqual(metric["unit"], run.END_TO_END_UNITS[metric["name"]])
        self.assertEqual(sorted(workloads.WORKLOADS), sorted(w["name"] for w in declared["workloads"]))


if __name__ == "__main__":
    unittest.main()

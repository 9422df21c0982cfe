"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, percentile, self_times  # noqa: E402
from workloads import Step, check_sim_report, pooled_bias_errors  # noqa: E402


def _span(i, name, start, end, parent=None, **tags):
    return Span(i, name, start, end, parent, None, tags)


class TestPercentile:
    def test_median_needs_ten_samples_above_it(self):
        assert percentile(range(19), 50) is None
        assert percentile(range(1, 21), 50) == 10.5

    def test_p90_needs_a_hundred_samples(self):
        assert percentile(range(99), 90) is None
        assert percentile(range(100), 90) is not None

    def test_matches_inclusive_quantiles(self):
        data = [math.sin(k) * 10 for k in range(137)]
        expected = statistics.quantiles(data, n=10, method="inclusive")[8]
        assert math.isclose(percentile(data, 90), expected)


class TestSelfTime:
    def test_children_overlap_and_overhang_count_once(self):
        spans = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 3.0, parent=0),
            _span(2, "b", 2.0, 5.0, parent=0),  # overlaps a: union [1, 5]
            _span(3, "c", 8.0, 12.0, parent=0),  # clipped to [8, 10]
            _span(4, "d", 1.5, 2.5, parent=1),
        ]
        own = self_times(spans)
        assert own[0] == 10.0 - 4.0 - 2.0
        assert own[1] == 2.0 - 1.0
        assert own[2] == 3.0
        assert own[4] == 1.0

    def test_grandchildren_do_not_count_against_the_root(self):
        spans = [
            _span(0, "root", 0.0, 4.0),
            _span(1, "child", 0.0, 1.0, parent=0),
            _span(2, "grandchild", 0.0, 1.0, parent=1),
        ]
        assert self_times(spans)[0] == 3.0


class TestTracer:
    def test_missing_attribute_is_skipped_and_recorded(self):
        module = types.ModuleType("fake")
        tracer = Tracer()
        tracer.wrap(module, "gone", "fake.gone")
        assert tracer.missing == ["fake.gone"]
        assert not hasattr(module, "gone")

    def test_wrap_records_nesting_units_and_restores(self):
        module = types.ModuleType("fake")
        module.inner = lambda x: x + 1
        module.outer = lambda x: module.inner(x) * 2
        original = module.outer
        tracer = Tracer()
        tracer.wrap(module, "inner", "fake.inner", tags=lambda a, k: {"x": a[0]})
        tracer.wrap(module, "outer", "fake.outer", unit=lambda a, k: ("u", a[0]))
        assert module.outer(3) == 8
        outer, inner = sorted(tracer.spans, key=lambda s: s.name, reverse=True)
        assert inner.parent == outer.id and outer.parent is None
        assert inner.unit == ("u", 3) and inner.tags == {"x": 3}
        assert outer.start <= inner.start <= inner.end <= outer.end
        tracer.restore()
        assert module.outer is original

    def test_on_result_can_wrap_a_returned_callable(self):
        module = types.ModuleType("fake")
        module.fit = lambda: (lambda z: z * 10)
        tracer = Tracer()

        def traced(span, predict):
            def call(*args):
                with tracer.span("fake.predict"):
                    return predict(*args)

            return call

        tracer.wrap(module, "fit", "fake.fit", on_result=traced)
        assert module.fit()(2) == 20
        assert [s.name for s in tracer.spans] == ["fake.fit", "fake.predict"]


class TestLayerMetrics:
    def test_allocation_ratios_and_absent_layers(self):
        spans = [
            _span(0, "allocation.rerandomize", 0.0, 0.004, q=2, t=1.0, attempts=4),
            _span(1, "allocation.rerandomize", 1.0, 1.002, q=2, t=1.0, attempts=1),
        ]
        values, samples, notes = layers.layer_metrics(spans, lambda q, t: 0.25)
        assert values["allocation.attempts_mean"] == 2.5
        assert values["allocation.acceptance_ratio"] == 2 / 5
        assert math.isclose(values["allocation.attempt_ms"], 6.0 / 5)
        assert values["allocation.rerandomize_ms.p50"] is None  # 2 samples
        assert samples["allocation.rerandomize_ms.p50"] == 2
        assert values["dml.estimate_dml_ms.p50"] is None
        assert notes["allocation_designs"] == [
            {"q": 2, "t": 1.0, "nominal_acceptance": 0.25, "calls": 2}
        ]

    def test_variance_family_counts_outermost_calls_only(self):
        spans = [
            _span(0, "simlab.scheme_inference", 0.0, 1.0),
            _span(1, "inference.variance_rsquared", 0.1, 0.3, parent=0, fn="rsquared_simple"),
            _span(2, "inference.variance_rsquared", 0.1, 0.2, parent=1, fn="variance_simple"),
        ]
        values, _, _ = layers.layer_metrics(spans, lambda q, t: 1.0)
        assert math.isclose(values["inference.variance_rsquared_ms"], 200.0)
        assert math.isclose(values["simlab.scheme_inference_self_ms"], 800.0)

    def test_every_listed_metric_is_computed(self):
        values, _, _ = layers.layer_metrics([], lambda q, t: 1.0)
        listed = {name for name, _, _ in layers.PER_LAYER if not name.startswith("trace.")}
        assert set(values) == listed


class TestFailureCounting:
    REPORT = {
        "replicates": 100,
        "estimators": [
            {"label": "A", "bias": 0.01, "ese": 0.2, "ase_star": 0.2, "failures": 2, "replicates_used": 98},
            {"label": "B", "bias": "nan", "ese": 0.2, "ase_star": 0.2, "failures": 3, "replicates_used": 97},
        ],
    }

    def test_report_failures_are_summed_and_the_two_percent_rule_checked(self):
        failures, errors = check_sim_report(self.REPORT, ("A", "B"), 100)
        assert failures == 5
        assert any("B: bias" in e for e in errors)
        assert any("exceed 2%" in e for e in errors)
        assert not any(e.startswith("A:") for e in errors)

    def test_missing_estimator_is_an_error(self):
        _, errors = check_sim_report(self.REPORT, ("A", "C"), 100)
        assert any("lacks estimator 'C'" in e for e in errors)

    def test_phase_totals_give_failed_frac(self):
        phase = run.Phase()
        phase.add(Step(units=1, seconds=2.0, attempted=4, failed=0))
        phase.add(Step(units=0, seconds=1.0, attempted=4, failed=1, errors=["x"]))
        phase.add(Step(units=1, seconds=0.5, attempted=4, failed=0))
        assert (phase.attempted, phase.failed) == (12, 1)
        assert phase.failed / phase.attempted == 1 / 12
        assert phase.units_per_s == 2 / 3.5

    def test_aborted_simulate_counts_every_estimator_replicate(self, tmp_path, monkeypatch):
        sim = workloads.SimWorkload(workloads.SIM_CONTINUOUS, ("A", "B"), 10, str(tmp_path), 1)
        monkeypatch.setattr(workloads, "run_command", lambda argv: types.SimpleNamespace(exit_code=4))
        step = sim.step(None)
        assert (step.attempted, step.failed, step.units) == (20, 20, 0)
        assert step.errors

    def test_failed_design_commands_are_counted(self, tmp_path, monkeypatch):
        design = workloads.DesignWorkload(str(tmp_path), 1)
        design.N = 40
        design.setup()
        monkeypatch.setattr(workloads, "run_command", lambda argv: types.SimpleNamespace(exit_code=3))
        step = design.warmup()
        assert (step.attempted, step.failed, step.units) == (1, 1, 0)

    def test_pooled_bias(self):
        fine = {"A": [(0.01, 0.2, 100), (-0.02, 0.2, 100)]}
        assert pooled_bias_errors(fine) == []
        off = {"A": [(0.5, 0.2, 100), (0.5, 0.2, 100)]}
        assert pooled_bias_errors(off)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

"""Where the benchmark wraps the program, and the per-layer metrics.

Layers are the program's modules: ``allocation``, ``mestimators``, ``dml``,
``inference``, ``simlab``, ``cli`` and ``data_model``. ``install`` wraps the
module attributes each layer is called through; ``layer_metrics`` turns the
resulting spans into the metrics named in ``PER_LAYER``.

Metrics without a percentile suffix are means per call of the span named in
the comment beside them, so runs of different length compare.
"""

from __future__ import annotations

import math

from tracing import percentile, self_times

# (name, unit, better); the order is the print order.
PER_LAYER = (
    ("allocation.rerandomize_ms.p50", "ms", "lower"),
    ("allocation.rerandomize_ms.p90", "ms", "lower"),
    ("allocation.attempts_mean", "count", "lower"),  # per allocation
    ("allocation.attempt_ms", "ms", "lower"),  # per proposal
    ("allocation.balance_distance_calls", "count", "lower"),  # per allocation
    ("allocation.balance_distance_us.p50", "us", "lower"),
    ("allocation.acceptance_ratio", "ratio", "higher"),
    ("mestimators.estimate_unadjusted_ms.p50", "ms", "lower"),
    ("mestimators.estimate_ancova_ms.p50", "ms", "lower"),
    ("mestimators.estimate_drwls_ms.p50", "ms", "lower"),
    ("mestimators.newton_iterations_mean", "count", "lower"),
    ("dml.estimate_dml_ms.p50", "ms", "lower"),
    ("dml.fit_learner_calls", "count", "lower"),  # per estimate_dml
    ("dml.fit_learner_ms.stump_ensemble.p50", "ms", "lower"),
    ("dml.fit_learner_ms.glm.p50", "ms", "lower"),
    ("dml.predict_ms", "ms", "lower"),  # per estimate_dml
    ("dml.self_ms", "ms", "lower"),  # per estimate_dml
    ("inference.confidence_interval_ms.p50", "ms", "lower"),
    ("inference.confidence_interval_ms.p90", "ms", "lower"),
    ("inference.variance_rsquared_ms", "ms", "lower"),  # per scheme_inference
    ("simlab.generate_trial_ms.p50", "ms", "lower"),
    ("simlab.apply_estimator_ms.unadjusted.p50", "ms", "lower"),
    ("simlab.apply_estimator_ms.ancova.p50", "ms", "lower"),
    ("simlab.apply_estimator_ms.drwls.p50", "ms", "lower"),
    ("simlab.apply_estimator_ms.dml.p50", "ms", "lower"),
    ("simlab.scheme_inference_self_ms", "ms", "lower"),  # per scheme_inference
    ("simlab.replicate_ms.p50", "ms", "lower"),
    ("simlab.replicate_ms.p90", "ms", "lower"),
    ("simlab.runner_self_ms", "ms", "lower"),  # per run_simulation
    ("cli.allocate_self_ms", "ms", "lower"),  # per allocate command
    ("cli.analyze_self_ms", "ms", "lower"),  # per analyze command
    ("data_model.load_csv_ms.p50", "ms", "lower"),
    ("data_model.write_csv_ms.p50", "ms", "lower"),
    ("trace.units_per_s_untraced", "1/s", "higher"),
    ("trace.units_per_s_traced", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

# Every variance / R^2 / covariance plug-in that scheme_inference may call.
VARIANCE_FAMILY = (
    "variance_simple",
    "variance_stratified",
    "variance_crossfit",
    "variance_crossfit_stratified",
    "rsquared_simple",
    "rsquared_stratified",
    "rsquared_crossfit",
    "rsquared_crossfit_stratified",
    "if_imbalance_covariance",
    "if_imbalance_covariance_stratified",
)
ESTIMATORS = (
    "estimate_unadjusted",
    "estimate_ancova",
    "estimate_gcomp_logistic",
    "estimate_drwls",
    "estimate_mixed_ancova",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def install(tracer) -> None:
    """Wrap every layer boundary the program calls through at run time."""
    from rerand import allocation, cli, dml, inference, mestimators, simlab

    def design_tags(args, kwargs):
        design = _arg(args, kwargs, 1, "design")
        return {"q": design.q, "t": design.threshold_t}

    def record_attempts(span, allocation_result):
        span.tags["attempts"] = allocation_result.attempts
        return allocation_result

    def record_iterations(span, estimate):
        diag = getattr(estimate, "solver_diag", None)
        span.tags["iterations"] = getattr(diag, "iterations", None)
        return estimate

    def trace_predictor(span, predict):
        def traced(*args, **kwargs):
            with tracer.span("dml.predict"):
                return predict(*args, **kwargs)

        return traced

    def ci_tags(args, kwargs):
        spec = _arg(args, kwargs, 1, "spec")
        return {"q": spec.q, "t": spec.t}

    def estimator_kind(args, kwargs):
        return {"kind": _arg(args, kwargs, 0, "est").kind}

    for owner in (simlab, cli):
        tracer.wrap(owner, "rerandomize", "allocation.rerandomize",
                    tags=design_tags, on_result=record_attempts)
        tracer.wrap(owner, "apply_estimator", "simlab.apply_estimator", tags=estimator_kind)
        tracer.wrap(owner, "scheme_inference", "simlab.scheme_inference")
    tracer.wrap(allocation, "balance_distance", "allocation.balance_distance")
    for fn in ESTIMATORS:
        tracer.wrap(mestimators, fn, f"mestimators.{fn}", on_result=record_iterations)
    tracer.wrap(dml, "estimate_dml", "dml.estimate_dml")
    tracer.wrap(dml, "fit_learner", "dml.fit_learner",
                tags=lambda a, k: {"kind": _arg(a, k, 0, "spec").kind},
                on_result=trace_predictor)
    for fn in VARIANCE_FAMILY:
        tracer.wrap(inference, fn, "inference.variance_rsquared", tags=lambda a, k, fn=fn: {"fn": fn})
    tracer.wrap(inference, "confidence_interval", "inference.confidence_interval", tags=ci_tags)
    tracer.wrap(cli, "confidence_interval", "inference.confidence_interval", tags=ci_tags)
    tracer.wrap(simlab, "generate_trial", "simlab.generate_trial")
    tracer.wrap(simlab, "_replicate", "simlab.replicate",
                unit=lambda a, k: (tracer.unit, _arg(a, k, 2, "r")))
    tracer.wrap(cli, "run_simulation", "simlab.run_simulation")
    tracer.wrap(cli, "load_csv", "data_model.load_csv")
    tracer.wrap(cli, "write_csv", "data_model.write_csv")


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def _per_call(total: float, calls: int):
    return total / calls if calls else None


def layer_metrics(spans, nominal_acceptance) -> tuple[dict, dict, dict]:
    """Per-layer metrics from spans.

    Returns (values, samples, notes): ``values`` maps each PER_LAYER name
    (trace.* excepted) to a number, or None when the layer did not run or a
    percentile has too few samples; ``samples`` gives the count behind each;
    ``notes`` tags the allocation and interval spans with (q, t) and the
    nominal acceptance ``nominal_acceptance(q, t)``.
    """
    by_name: dict[str, list] = {}
    for rec in spans:
        by_name.setdefault(rec.name, []).append(rec)
    own = self_times(spans)
    values: dict = {}
    samples: dict = {}

    def put(name, value, n):
        values[name] = value
        samples[name] = n

    def pct(name, recs, q, scale=1e3):
        put(name, percentile([r.duration * scale for r in recs], q), len(recs))

    def get(name):
        return by_name.get(name, [])

    # allocation
    allocs = get("allocation.rerandomize")
    pct("allocation.rerandomize_ms.p50", allocs, 50)
    pct("allocation.rerandomize_ms.p90", allocs, 90)
    attempts = [r.tags["attempts"] for r in allocs if "attempts" in r.tags]
    put("allocation.attempts_mean", _mean(attempts), len(attempts))
    put("allocation.attempt_ms",
        _per_call(sum(r.duration for r in allocs) * 1e3, sum(attempts)), sum(attempts))
    checks = get("allocation.balance_distance")
    put("allocation.balance_distance_calls", _per_call(len(checks), len(allocs)), len(allocs))
    pct("allocation.balance_distance_us.p50", checks, 50, scale=1e6)
    put("allocation.acceptance_ratio", _per_call(len(attempts), sum(attempts)), sum(attempts))

    # mestimators
    for kind in ("unadjusted", "ancova", "drwls"):
        pct(f"mestimators.estimate_{kind}_ms.p50", get(f"mestimators.estimate_{kind}"), 50)
    iterations = [
        r.tags["iterations"]
        for fn in ESTIMATORS
        for r in get(f"mestimators.{fn}")
        if r.tags.get("iterations") is not None
    ]
    put("mestimators.newton_iterations_mean", _mean(iterations), len(iterations))

    # dml
    dmls = get("dml.estimate_dml")
    fits = get("dml.fit_learner")
    pct("dml.estimate_dml_ms.p50", dmls, 50)
    put("dml.fit_learner_calls", _per_call(len(fits), len(dmls)), len(dmls))
    for kind in ("stump_ensemble", "glm"):
        pct(f"dml.fit_learner_ms.{kind}.p50", [r for r in fits if r.tags["kind"] == kind], 50)
    put("dml.predict_ms",
        _per_call(sum(r.duration for r in get("dml.predict")) * 1e3, len(dmls)), len(dmls))
    put("dml.self_ms", _mean(own[r.id] * 1e3 for r in dmls), len(dmls))

    # inference
    cis = get("inference.confidence_interval")
    pct("inference.confidence_interval_ms.p50", cis, 50)
    pct("inference.confidence_interval_ms.p90", cis, 90)
    family = get("inference.variance_rsquared")
    family_ids = {r.id for r in family}
    outermost = sum(r.duration for r in family if r.parent not in family_ids) * 1e3
    inferences = get("simlab.scheme_inference")
    put("inference.variance_rsquared_ms", _per_call(outermost, len(inferences)), len(inferences))

    # simlab
    pct("simlab.generate_trial_ms.p50", get("simlab.generate_trial"), 50)
    applied = get("simlab.apply_estimator")
    for kind in ("unadjusted", "ancova", "drwls", "dml"):
        pct(f"simlab.apply_estimator_ms.{kind}.p50", [r for r in applied if r.tags["kind"] == kind], 50)
    put("simlab.scheme_inference_self_ms", _mean(own[r.id] * 1e3 for r in inferences), len(inferences))
    pct("simlab.replicate_ms.p50", get("simlab.replicate"), 50)
    pct("simlab.replicate_ms.p90", get("simlab.replicate"), 90)
    runners = get("simlab.run_simulation")
    put("simlab.runner_self_ms", _mean(own[r.id] * 1e3 for r in runners), len(runners))

    # cli and data_model
    for command in ("allocate", "analyze"):
        recs = get(f"cli.{command}")
        put(f"cli.{command}_self_ms", _mean(own[r.id] * 1e3 for r in recs), len(recs))
    pct("data_model.load_csv_ms.p50", get("data_model.load_csv"), 50)
    pct("data_model.write_csv_ms.p50", get("data_model.write_csv"), 50)

    notes = {
        "allocation_designs": _tag_table(allocs, nominal_acceptance),
        "confidence_intervals": _tag_table(cis, nominal_acceptance),
    }
    return values, samples, notes


def _tag_table(recs, nominal_acceptance) -> list[dict]:
    """Calls per distinct (q, t), each beside its nominal acceptance."""
    counts: dict[tuple, int] = {}
    for rec in recs:
        key = (rec.tags["q"], rec.tags["t"])
        counts[key] = counts.get(key, 0) + 1
    return [
        {
            "q": q,
            "t": t,
            "nominal_acceptance": nominal_acceptance(q, t) if q >= 1 and not math.isinf(t) else 1.0,
            "calls": n,
        }
        for (q, t), n in sorted(counts.items())
    ]

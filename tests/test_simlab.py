import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import rerand.allocation
import rerand.data_model
import rerand.inference
import rerand.simlab
from rerand import (
    CustomDgp,
    Design,
    DgpSpec,
    EstimandSpec,
    SimConfig,
    SimEstimator,
    Tier,
    TrialFrame,
    generate_trial,
    run_simulation,
    true_delta,
)
from rerand.cli import sim_config_from_file
from rerand.data_model import factorize
from rerand.errors import NumericError, ValidationError
from rerand.simlab import EstimatorReport, apply_estimator, report_csv_lines, scheme_inference

from conftest import unit_labels


class TestGenerateTrial:
    def test_first_covariate_mean_matches_its_law(self):
        trial = generate_trial(DgpSpec("continuous_sec7", 100_000), seed=1)
        assert trial.x1.mean() == pytest.approx(1.0, abs=0.02)

    def test_stratum_rate_conditional_on_first_covariate(self):
        trial = generate_trial(DgpSpec("continuous_sec7", 100_000), seed=2)
        below = trial.s[trial.x1 < 1.0]
        assert below.mean() == pytest.approx(0.6, abs=0.02)

    def test_binary_family_outcomes_are_binary(self):
        trial = generate_trial(DgpSpec("binary_sec7", 5000), seed=3)
        assert set(np.unique(trial.y[0])) <= {0.0, 1.0}
        assert set(np.unique(trial.y[1])) <= {0.0, 1.0}

    def test_deterministic_given_seed(self):
        a = generate_trial(DgpSpec("continuous_sec7", 500), seed=4)
        b = generate_trial(DgpSpec("continuous_sec7", 500), seed=4)
        np.testing.assert_array_equal(a.y[1], b.y[1])
        np.testing.assert_array_equal(a.r[0], b.r[0])

    def test_reveal_hides_missing_outcomes(self):
        dgp = DgpSpec("continuous_sec7", 400, missingness=True)
        trial = generate_trial(dgp, seed=5)
        arms = np.tile([1, 0], 200)
        frame = trial.reveal(arms)
        robs = np.where(arms == 1, trial.r[1], trial.r[0])
        np.testing.assert_array_equal(frame.observed, robs)

    def test_reveal_reuses_the_allocation_frame_strata(self):
        trial = generate_trial(DgpSpec("continuous_sec7", 40), seed=6)
        groups = trial.allocation_frame.stratum
        assert trial.reveal(np.tile([1, 0], 20)).stratum is groups

    @pytest.mark.parametrize("draws", ["seeded", "only_0", "only_1", "one_unit"])
    def test_allocation_frame_strata_are_the_factorized_draw_text(self, draws):
        trials = [generate_trial(DgpSpec("continuous_sec7", 40), seed) for seed in range(5)]
        if draws != "seeded":
            n = 1 if draws == "one_unit" else 40
            s = np.full(n, 1 if draws == "only_1" else 0, dtype=np.int8)
            trials = [
                dataclasses.replace(trial, x1=trial.x1[:n], x2=trial.x2[:n], s=s)
                for trial in trials[:1]
            ]
        for trial in trials:
            groups = trial.allocation_frame.stratum
            expected = factorize(trial.s.astype(str).astype(object))
            assert groups.labels.dtype == expected.labels.dtype
            assert groups.labels.tolist() == expected.labels.tolist()
            np.testing.assert_array_equal(groups.codes, expected.codes)
            np.testing.assert_array_equal(groups.counts, expected.counts)


DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("demo_*.cfg"))
_ALL_TERMS_BINARY = CustomDgp(
    binary=True, y_intercept=-1.0, y_arm=0.5, y_x1=0.3, y_x2=-0.4, y_stratum=0.6,
    y_arm_stratum_x2sq=0.7, y_exp_x1=0.1, y_abs_x2=-0.25,
)


def monte_carlo_truth(dgp: DgpSpec, estimand: EstimandSpec, seed: int, draws: int = 1_000_000):
    """(delta, mcse): f of the arm means of ``draws`` complete-data potential
    outcomes, with its delta-method Monte Carlo standard error."""
    trial = generate_trial(dataclasses.replace(dgp, n=draws), seed)
    y0, y1 = trial.y
    mu1, mu0 = y1.mean(), y0.mean()
    f1, f0 = estimand.gradient(mu1, mu0)
    variance = np.var(f1 * y1 + f0 * y0)
    return estimand.value(mu1, mu0), math.sqrt(variance / draws)


class TestTrueDelta:
    def test_additive_shift_is_exact(self):
        dgp = DgpSpec(
            "custom",
            100,
            custom=CustomDgp(y_intercept=1.0, y_arm=2.5, y_x1=1.0, y_sd=0.0),
        )
        assert true_delta(dgp, EstimandSpec("difference")) == pytest.approx(2.5, abs=1e-12)

    def test_null_ratio_is_one(self):
        dgp = DgpSpec(
            "custom", 100, custom=CustomDgp(y_intercept=5.0, y_x1=0.5, y_sd=1.0)
        )
        assert true_delta(dgp, EstimandSpec("ratio")) == pytest.approx(1.0, abs=1e-12)

    def test_continuous_family_difference_matches_analytic_value(self):
        # E[Y(1)-Y(0)] = 4 E[S] E[X2^2] = 4 * 0.5 * 1 = 2
        truth = true_delta(DgpSpec("continuous_sec7", 100), EstimandSpec("difference"))
        assert truth == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "dgp, contrast, seed",
        [
            (DgpSpec("binary_sec7", 100), "ratio", 11),
            (DgpSpec("custom", 100, custom=_ALL_TERMS_BINARY), "ratio", 12),
            (DgpSpec("custom", 100, custom=_ALL_TERMS_BINARY), "difference", 13),
        ],
    )
    def test_binary_truth_matches_a_monte_carlo_oracle(self, dgp, contrast, seed):
        estimand = EstimandSpec(contrast)
        oracle, mcse = monte_carlo_truth(dgp, estimand, seed)
        assert abs(true_delta(dgp, estimand) - oracle) < 4 * mcse

    @pytest.mark.parametrize(
        "dgp, contrast",
        [
            (DgpSpec("continuous_sec7", 100), "difference"),
            (DgpSpec("binary_sec7", 100), "ratio"),
            (DgpSpec("custom", 100, custom=_ALL_TERMS_BINARY), "ratio"),
        ],
    )
    def test_rule_agrees_with_one_of_twice_the_nodes(self, monkeypatch, dgp, contrast):
        estimand = EstimandSpec(contrast)
        truth = true_delta(dgp, estimand)
        monkeypatch.setattr(rerand.simlab, "_PANEL_NODES", 256)
        assert true_delta(dgp, estimand) == pytest.approx(truth, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "field, value", [("y_arm", math.nan), ("y_sd", math.inf), ("r_x2sq", -math.inf)]
    )
    def test_non_finite_coefficient_is_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"dgp.{field}: coefficient must be finite"):
            CustomDgp(**{field: value})

    def test_binary_demo_reports_the_computed_truth(self, monkeypatch):
        monkeypatch.delenv("RERAND_WORKERS", raising=False)
        path = next(path for path in DEMO_CONFIGS if path.name == "demo_binary_missing.cfg")
        config = dataclasses.replace(sim_config_from_file(str(path)), replicates=2, workers=1)
        delta_star = true_delta(config.dgp, EstimandSpec("ratio"))
        assert run_simulation(config).truth == {"ratio": delta_star}
        assert delta_star == pytest.approx(1.4801440481366734, rel=1e-12)

    def test_each_truth_is_computed_once_per_process(self, monkeypatch):
        calls = []

        def counted(dgp, estimand):
            calls.append((dgp, estimand.contrast))
            return true_delta(dgp, estimand)

        rerand.simlab._truth.cache_clear()
        monkeypatch.setattr(rerand.simlab, "true_delta", counted)
        estimators = (
            SimEstimator(kind="unadjusted", label="D"),
            SimEstimator(kind="unadjusted", label="R", estimand="ratio"),
        )
        for master_seed in (1, 2):
            config = small_config(estimators=estimators, replicates=2, master_seed=master_seed)
            run_simulation(config)
        dgp = DgpSpec("continuous_sec7", 100)
        assert calls == [(dgp, "difference"), (dgp, "ratio")]


def small_config(**overrides) -> SimConfig:
    base = dict(
        dgp=DgpSpec("continuous_sec7", 100),
        design=Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=1.0
        ),
        estimators=(
            SimEstimator(kind="unadjusted", label="Unadjusted"),
            SimEstimator(kind="ancova", label="ANCOVA"),
        ),
        replicates=12,
        master_seed=99,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_mixed_estimator_rejected_before_any_replicate(self):
        with pytest.raises(ValidationError, match="mixed"):
            small_config(estimators=(SimEstimator(kind="mixed"),))

    def test_nan_alpha_rejected_before_any_replicate(self):
        with pytest.raises(ValidationError, match="alpha must be a number, not NaN"):
            small_config(alpha=math.nan)

    def test_negative_alpha_rejected_before_any_replicate(self):
        with pytest.raises(ValidationError, match="^alpha must be nonnegative$"):
            small_config(alpha=-0.1)


class TestRunSimulation:
    @pytest.mark.parametrize(
        "design,method",
        [
            (Design(pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=1.0),
             "quadrature"),
            (Design(pi=0.5, scheme="simple"), "normal"),
        ],
    )
    def test_rows_report_their_interval_method(self, design, method):
        report = run_simulation(small_config(design=design, replicates=3))
        assert {row.interval_method for row in report.rows} == {method}
        assert all(row["interval_method"] == method for row in report.to_dict()["estimators"])

    def test_single_replicate_reports_no_ese(self):
        report = run_simulation(small_config(replicates=1))
        assert report.rows[0].ese is None
        assert report.rows[0].bias is not None

    def test_worker_count_does_not_change_report_bytes(self):
        ser = run_simulation(small_config(workers=1)).to_json()
        par = run_simulation(small_config(workers=2)).to_json()
        assert ser == par

    def test_failures_above_threshold_abort(self):
        # glm2 on a continuous outcome fails in every replicate
        config = small_config(
            estimators=(SimEstimator(kind="glm2", label="GLM2"),), replicates=5
        )
        with pytest.raises(NumericError, match="failed"):
            run_simulation(config)

    def test_keep_replicates_exposes_paths(self):
        report = run_simulation(small_config(keep_replicates=True, replicates=6))
        assert len(report.per_replicate["ANCOVA"]["delta"]) == 6

    def test_csv_mirror_has_one_line_per_estimator(self):
        report = run_simulation(small_config(replicates=4))
        lines = report_csv_lines(report)
        assert len(lines) == 3
        assert lines[0].startswith("label,bias")

    def test_csv_columns_are_the_report_fields(self):
        report = run_simulation(small_config(replicates=3))
        header, *rows = report_csv_lines(report)
        names = [field.name for field in dataclasses.fields(EstimatorReport)]
        assert header.split(",") == names
        for row, line in zip(report.rows, rows):
            cells = dict(zip(names, line.split(",")))
            assert cells["interval_method"] == row.interval_method == "quadrature"
            assert int(cells["diagnostic_warnings"]) == row.diagnostic_warnings
            assert float(cells["bias"]) == row.bias

    def test_canonical_json_hides_wall_clock(self):
        report = run_simulation(small_config(replicates=3))
        assert report.elapsed_seconds > 0
        assert "elapsed" not in report.to_json()


class TestSchemePlumbing:
    def test_general_distance_uses_projection_interval(self):
        config = small_config(
            design=Design(
                pi=0.5,
                scheme="rerandomized",
                rerand_covariates=(0, 1),
                threshold_t=1.0,
                distance="general",
            ),
            replicates=20,
        )
        report = run_simulation(config)
        assert all(row.failures == 0 for row in report.rows)
        assert all(0.0 <= row.cp_true <= 1.0 for row in report.rows)
        assert {row.interval_method for row in report.rows} == {"projection_quadrature"}

    @pytest.mark.parametrize("scheme", ["rerandomized", "stratified_rerandomized"])
    @pytest.mark.parametrize("kind", ["unadjusted", "ancova"])
    def test_single_full_tier_interval_is_the_plain_one(self, scheme, kind):
        # one Mahalanobis tier over all of X^r is the plain criterion, so it
        # keeps the exact scalar-R^2 law
        trial = generate_trial(DgpSpec("continuous_sec7", 200), seed=13)
        frame = trial.reveal(np.tile([1, 0], 100))
        est = SimEstimator(kind=kind)
        common = dict(pi=0.5, scheme=scheme, rerand_covariates=(0, 1), block_size=2)
        plain = Design(threshold_t=0.8, **common)
        tiered = Design(tiers=(Tier(indices=(0, 1), threshold=0.8),), **common)
        result = apply_estimator(est, frame, plain, 1, 0)
        ci = [
            scheme_inference(est, result, frame, design, 0.05)["ci_true"]
            for design in (plain, tiered)
        ]
        assert ci[0] == ci[1]

    def test_tiered_interval_is_narrower_than_the_normal_one(self):
        # x1 < 0.05 holds the imbalance of x1 near zero, so the tiered law is
        # tighter than the one for the same design without tiers (t = inf)
        trial = generate_trial(DgpSpec("continuous_sec7", 200), seed=14)
        frame = trial.reveal(np.tile([1, 0], 100))
        est = SimEstimator(kind="unadjusted")
        common = dict(pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1))
        tiered = Design(tiers=(Tier(indices=(0,), threshold=0.05),), **common)
        result = apply_estimator(est, frame, tiered, 1, 0)
        widths = [
            (ci.upper - ci.lower)
            for ci in (
                scheme_inference(est, result, frame, design, 0.05)["ci_true"]
                for design in (tiered, Design(**common))
            )
        ]
        assert widths[0] < 0.95 * widths[1]

    def test_general_distance_under_stratified_rerandomization(self):
        config = small_config(
            design=Design(
                pi=0.5,
                scheme="stratified_rerandomized",
                rerand_covariates=(0, 1),
                threshold_t=1.0,
                block_size=2,
                distance="general",
            ),
            replicates=20,
        )
        report = run_simulation(config)
        assert all(row.failures == 0 for row in report.rows)

    def test_binary_missing_outcomes_with_logit_drwls(self):
        config = small_config(
            dgp=DgpSpec("binary_sec7", 200, missingness=True),
            estimators=(
                SimEstimator(
                    kind="drwls",
                    label="DR-WLS",
                    estimand="ratio",
                    link="logit",
                    interactions=True,
                ),
            ),
            replicates=20,
        )
        report = run_simulation(config)
        assert report.rows[0].failures == 0

    def test_dml_ratio_with_missing_binary_outcomes(self):
        from rerand import LearnerSpec

        config = small_config(
            dgp=DgpSpec("binary_sec7", 200, missingness=True),
            design=Design(
                pi=0.5,
                scheme="stratified_rerandomized",
                rerand_covariates=(0, 1),
                threshold_t=1.0,
                block_size=2,
            ),
            estimators=(
                SimEstimator(
                    kind="dml",
                    label="DML",
                    estimand="ratio",
                    fold_mode="stratum_arm",
                    folds=4,
                    outcome_learner=LearnerSpec(kind="stump_ensemble", trees=25),
                    missingness_learner=LearnerSpec(kind="glm", link="logit"),
                ),
            ),
            replicates=15,
        )
        report = run_simulation(config)
        assert report.rows[0].failures == 0
        assert report.rows[0].mean_r2_hat is not None

    def test_plain_stratified_scheme_uses_stratified_variance(self):
        config = small_config(
            design=Design(pi=0.5, scheme="stratified", block_size=2),
            estimators=(SimEstimator(kind="unadjusted", label="Unadjusted"),),
            replicates=15,
        )
        report = run_simulation(config)
        assert report.rows[0].cp_true is not None


class TestSchemeLevelInvariants:
    def test_sandwich_consistency_under_simple_randomization(self):
        # ESE/ASE* approaches 1 for the unadjusted estimator when the design
        # really is simple randomization
        config = small_config(
            dgp=DgpSpec("continuous_sec7", 400),
            design=Design(pi=0.5, scheme="simple"),
            estimators=(SimEstimator(kind="unadjusted", label="Unadjusted"),),
            replicates=2000,
            workers=2,
        )
        row = run_simulation(config).rows[0]
        assert abs(row.ese / row.ase_star - 1.0) < 0.05

    def test_adjusting_for_rerandomization_variables_removes_r2(self):
        config = small_config(
            dgp=DgpSpec("continuous_sec7", 400),
            estimators=(
                SimEstimator(kind="unadjusted", label="Unadjusted"),
                SimEstimator(kind="ancova", label="ANCOVA"),
            ),
            replicates=500,
            workers=2,
        )
        report = run_simulation(config)
        r2 = {row.label: row.mean_r2_hat for row in report.rows}
        assert r2["Unadjusted"] >= 5 * r2["ANCOVA"]


# ---------------------------------------------------------------------------
# scheme_inference is its public plug-ins, composed one by one.


def _composed_from_plugins(est, result, frame, design, alpha):
    """v_hat, v_scheme, r2_hat and ci_true built from the public plug-ins, with
    the strata grouped from their labels and one plug-in call per quantity."""
    from rerand import LimitSpec, confidence_interval, scheme_plugins, variance_simple
    from rerand.allocation import arm_product, balance_forms, centered_scatter
    from rerand.data_model import factorize

    arms, Xr = frame.arm, frame.covariates[:, list(design.rerand_covariates)]
    strata = unit_labels(frame.stratum) if design.stratified else None
    if est.kind == "mixed":
        clusters = frame.cluster
        arms = arms[clusters.first_rows]
        Xr = clusters.sums(Xr) / clusters.counts[:, None]
        strata = None if strata is None else strata[clusters.first_rows]
    ifv, pi = result.if_values, design.pi
    n = len(ifv)
    folds = result.details["fold_plan"] if est.kind == "dml" else None
    v_hat = variance_simple(ifv, fold_ids=folds)
    if strata is None:
        v_scheme = v_hat
    else:
        strata = factorize(strata)
        folds = folds if est.fold_mode == "stratum_arm" else None
        v_scheme = scheme_plugins(ifv, arms, pi, None, strata, folds)[0]
    r2 = scheme_plugins(ifv, arms, pi, Xr, strata, folds)[1]
    var_i = centered_scatter(Xr, strata)[1] / arm_product(arms)
    # simple randomization is the law at t = inf with no projection, whatever
    # t, distance or tiers a design that does not rerandomize carries
    t, projection = math.inf, None
    if design.rerandomized:
        first, *rest = design.criterion
        exact = not rest and first.distance == "mahalanobis" and (
            sorted(first.indices) == sorted(design.rerand_covariates)
        )
        if not exact:
            c_hat = scheme_plugins(ifv, arms, pi, Xr, strata, folds)[2]
            projection = (c_hat, n * var_i, balance_forms(design, n * var_i))
        t = first.threshold if exact else design.threshold_t
    spec = LimitSpec(V=v_scheme, R2=r2, q=design.q, t=t, projection=projection)
    ci = confidence_interval(result.delta_hat, spec, n, alpha)
    return v_hat, v_scheme, r2, ci.lower, ci.upper


def _scheme_inference_parts(monkeypatch, est, result, frame, design, alpha):
    """scheme_inference's v_hat, the V of the law it inverts, r2_hat and ci_true's ends."""
    specs = []
    original = rerand.inference.confidence_interval

    def recording(delta_hat, spec, n, alpha):
        specs.append(spec)
        return original(delta_hat, spec, n, alpha)

    monkeypatch.setattr(rerand.inference, "confidence_interval", recording)
    info = scheme_inference(est, result, frame, design, alpha)
    (spec,) = specs
    return info["v_hat"], spec.V, info["r2_hat"], info["ci_true"].lower, info["ci_true"].upper


def _criterion(kind: str) -> dict:
    if kind == "tiers":
        return dict(tiers=(Tier((0,), 0.5), Tier((1,), 1.0, "general")))
    return dict(threshold_t=1.5, distance=kind)


_SCHEME_ESTIMATORS = {
    "unadjusted": SimEstimator(kind="unadjusted"),
    "ancova": SimEstimator(kind="ancova"),
    "dml_plain": SimEstimator(kind="dml", folds=4, fold_mode="plain"),
    "dml_stratum_arm": SimEstimator(kind="dml", folds=2, fold_mode="stratum_arm"),
}


def _scheme_trial():
    from rerand import LearnerSpec

    trial = generate_trial(DgpSpec("continuous_sec7", 240), seed=31)
    frame = trial.reveal(np.tile([1, 0], 120))
    learner = LearnerSpec(kind="stump_ensemble", trees=15, learning_rate=0.1)
    estimators = {
        name: dataclasses.replace(est, outcome_learner=learner) if est.kind == "dml" else est
        for name, est in _SCHEME_ESTIMATORS.items()
    }
    return frame, estimators


class TestSchemeInferenceEqualsItsParts:
    @pytest.mark.parametrize("estimator", list(_SCHEME_ESTIMATORS))
    @pytest.mark.parametrize("criterion", ["mahalanobis", "general", "tiers"])
    @pytest.mark.parametrize(
        "scheme", ["simple", "stratified", "rerandomized", "stratified_rerandomized"]
    )
    def test_bit_for_bit(self, monkeypatch, scheme, criterion, estimator):
        frame, estimators = _scheme_trial()
        est = estimators[estimator]
        design = Design(pi=0.5, scheme=scheme, rerand_covariates=(0, 1), **_criterion(criterion))
        result = apply_estimator(est, frame, design, 3, 0)
        got = _scheme_inference_parts(monkeypatch, est, result, frame, design, 0.05)
        assert got == _composed_from_plugins(est, result, frame, design, 0.05)

    @pytest.mark.parametrize("criterion", ["mahalanobis", "general", "tiers"])
    def test_mixed_model_with_clusters_under_a_stratified_design(self, monkeypatch, criterion):
        rng = np.random.default_rng(8)
        cluster = np.repeat(np.arange(40), 6)
        arms = (cluster // 4) % 2
        x = rng.normal(size=(240, 2))
        frame = TrialFrame(
            covariates=x, covariate_names=("x1", "x2"),
            outcome=1.0 + arms + x[:, 0] + rng.normal(size=40)[cluster] + rng.normal(size=240),
            arm=arms, stratum=np.where(cluster % 4 < 2, "a", "b"),
            cluster=[f"c{c}" for c in cluster],
        )
        design = Design(
            pi=0.5, scheme="stratified_rerandomized", rerand_covariates=(0, 1),
            **_criterion(criterion),
        )
        est = SimEstimator(kind="mixed", covariates=("x1", "x2"))
        result = apply_estimator(est, frame, design, 3, 0)
        got = _scheme_inference_parts(monkeypatch, est, result, frame, design, 0.05)
        assert got == _composed_from_plugins(est, result, frame, design, 0.05)

    @pytest.mark.parametrize("estimator", list(_SCHEME_ESTIMATORS))
    @pytest.mark.parametrize("criterion", ["mahalanobis", "general"])
    def test_two_kernel_passes_and_no_stratum_factorization(
        self, monkeypatch, criterion, estimator
    ):
        factorized, passes = [], []
        original_factorize = rerand.data_model.factorize
        original_sandwich = rerand.inference._sandwich

        def counting_factorize(values):
            factorized.append(np.asarray(values))
            return original_factorize(values)

        def counting_sandwich(*args, **kwargs):
            passes.append(args)
            return original_sandwich(*args, **kwargs)

        for module in (rerand.data_model, rerand.allocation, rerand.inference, rerand.simlab):
            if getattr(module, "factorize", None) is original_factorize:
                monkeypatch.setattr(module, "factorize", counting_factorize)
        monkeypatch.setattr(rerand.inference, "_sandwich", counting_sandwich)

        frame, estimators = _scheme_trial()  # counted from the frame's construction on
        est = estimators[estimator]
        design = Design(
            pi=0.5, scheme="stratified_rerandomized", rerand_covariates=(0, 1),
            **_criterion(criterion),
        )
        result = apply_estimator(est, frame, design, 3, 0)
        passes.clear()
        scheme_inference(est, result, frame, design, 0.05)
        assert len(passes) <= 2
        assert [v.dtype.kind for v in factorized].count("O") == 0  # strata come from the draws
        folds = result.details["fold_plan"] if est.kind == "dml" else None
        assert all(
            folds is not None and np.array_equal(v, folds) for v in factorized if v.dtype != object
        )

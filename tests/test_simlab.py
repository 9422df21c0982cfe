import dataclasses
import math

import numpy as np
import pytest

import rerand.allocation
import rerand.data_model
import rerand.inference
import rerand.simlab
from rerand import (
    DistanceSpec,
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
from rerand.errors import NumericError, ValidationError
from rerand.simlab import apply_estimator, report_csv_lines, scheme_inference


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
        groups = trial.allocation_frame.stratum_groups
        assert trial.reveal(np.tile([1, 0], 20)).stratum_groups is groups


class TestTrueDelta:
    def test_additive_shift_is_exact(self):
        dgp = DgpSpec(
            "custom",
            100,
            custom=CustomDgp(y_intercept=1.0, y_arm=2.5, y_x1=1.0, y_sd=0.0),
        )
        truth = true_delta(dgp, EstimandSpec("difference"), seed=6, draws=200_000)
        # exact up to float accumulation across separately-summed arm totals
        assert truth.delta_star == pytest.approx(2.5, abs=1e-9)
        assert truth.mcse < 1e-6

    def test_null_ratio_is_one_within_mcse(self):
        dgp = DgpSpec(
            "custom", 100, custom=CustomDgp(y_intercept=5.0, y_x1=0.5, y_sd=1.0)
        )
        truth = true_delta(dgp, EstimandSpec("ratio"), seed=7, draws=400_000)
        assert abs(truth.delta_star - 1.0) < 4 * truth.mcse

    def test_continuous_family_difference_matches_analytic_value(self):
        # E[Y(1)-Y(0)] = 4 E[S] E[X2^2] = 4 * 0.5 * 1 = 2
        truth = true_delta(
            DgpSpec("continuous_sec7", 100), EstimandSpec("difference"), seed=8, draws=1_000_000
        )
        assert abs(truth.delta_star - 2.0) < 4 * truth.mcse


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
        ci_draws=2000,
        truth={"difference": (2.0, 0.0015)},
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_mixed_estimator_rejected_before_any_replicate(self):
        with pytest.raises(ValidationError, match="mixed"):
            small_config(estimators=(SimEstimator(kind="mixed"),))


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
        assert lines[0].startswith("estimator,bias")

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
                distance=DistanceSpec(kind="general"),
            ),
            replicates=20,
        )
        report = run_simulation(config)
        assert all(row.failures == 0 for row in report.rows)
        assert all(0.0 <= row.cp_true <= 1.0 for row in report.rows)
        assert {row.interval_method for row in report.rows} == {"monte_carlo"}

    @pytest.mark.parametrize("scheme", ["rerandomized", "stratified_rerandomized"])
    @pytest.mark.parametrize("kind", ["unadjusted", "ancova"])
    def test_single_full_tier_interval_is_the_plain_one(self, scheme, kind):
        # one Mahalanobis tier over all of X^r is the plain criterion, so it
        # keeps the exact scalar-R^2 law and its draws
        trial = generate_trial(DgpSpec("continuous_sec7", 200), seed=13)
        frame = trial.reveal(np.tile([1, 0], 100))
        est = SimEstimator(kind=kind)
        common = dict(pi=0.5, scheme=scheme, rerand_covariates=(0, 1), block_size=2)
        plain = Design(threshold_t=0.8, **common)
        tiered = Design(tiers=(Tier(indices=(0, 1), threshold=0.8),), **common)
        result = apply_estimator(est, frame, plain, 1, 0)
        ci = [
            scheme_inference(est, result, frame, design, 0.05, 2000, 17)["ci_true"]
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
                scheme_inference(est, result, frame, design, 0.05, 4000, 18)["ci_true"]
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
                distance=DistanceSpec(kind="general"),
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
            truth={"ratio": (1.4809031279609284, 0.0006303535956919716)},
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
            truth={"ratio": (1.4809031279609284, 0.0006303535956919716)},
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


def _composed_from_plugins(est, result, frame, design, alpha, draws, seed):
    """v_hat, v_scheme, r2_hat and ci_true built from the public plug-ins, with
    the strata as labels and one plug-in call per quantity."""
    from rerand import (
        LimitSpec,
        confidence_interval,
        imbalance_simple,
        imbalance_stratified,
        rsquared_simple,
        rsquared_stratified,
        variance_simple,
        variance_stratified,
    )
    from rerand.allocation import balance_forms
    from rerand.inference import if_imbalance_covariance

    arms, Xr = frame.arm, frame.covariates[:, list(design.rerand_covariates)]
    strata = frame.stratum if design.stratified else None
    if est.kind == "mixed":
        clusters = frame.cluster_groups
        arms = arms[clusters.first_rows]
        Xr = clusters.sums(Xr) / clusters.counts[:, None]
        strata = None if strata is None else strata[clusters.first_rows]
    ifv, pi = result.if_values, design.pi
    n = len(ifv)
    folds = result.details["fold_plan"].assignment if est.kind == "dml" else None
    v_hat = variance_simple(ifv, fold_ids=folds)
    if strata is None:
        v_scheme = v_hat
        r2 = rsquared_simple(ifv, arms, Xr, pi, fold_ids=folds)
        var_i = imbalance_simple(Xr, arms)[1]
    else:
        folds = folds if est.fold_mode == "stratum_arm" else None
        v_scheme = variance_stratified(ifv, arms, strata, pi, fold_ids=folds)
        r2 = rsquared_stratified(ifv, arms, strata, Xr, pi, fold_ids=folds)
        var_i = imbalance_stratified(Xr, arms, strata)[1]
    first, *rest = design.criterion
    exact = not rest and first.distance.kind == "mahalanobis" and (
        sorted(first.indices) == sorted(design.rerand_covariates)
    )
    projection = None
    if not exact:
        c_hat = if_imbalance_covariance(ifv, arms, Xr, pi, strata=strata, fold_ids=folds)
        projection = (c_hat, n * var_i, balance_forms(design, n * var_i))
    t = first.threshold if exact else design.threshold_t
    spec = LimitSpec(V=v_scheme, R2=r2, q=design.q, t=t, projection=projection)
    ci = confidence_interval(result.delta_hat, spec, n, alpha, draws, seed)
    return v_hat, v_scheme, r2, ci.lower, ci.upper


def _criterion(kind: str) -> dict:
    if kind == "tiers":
        general = DistanceSpec(kind="general")
        return dict(tiers=(Tier((0,), 0.5), Tier((1,), 1.0, general)))
    return dict(threshold_t=1.5, distance=DistanceSpec(kind=kind))


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
    @pytest.mark.parametrize("scheme", ["rerandomized", "stratified_rerandomized"])
    def test_bit_for_bit(self, scheme, criterion, estimator):
        frame, estimators = _scheme_trial()
        est = estimators[estimator]
        design = Design(pi=0.5, scheme=scheme, rerand_covariates=(0, 1), **_criterion(criterion))
        result = apply_estimator(est, frame, design, 3, 0)
        info = scheme_inference(est, result, frame, design, 0.05, 2000, 17)
        got = (
            info["v_hat"], info["v_scheme"], info["r2_hat"],
            info["ci_true"].lower, info["ci_true"].upper,
        )
        assert got == _composed_from_plugins(est, result, frame, design, 0.05, 2000, 17)

    @pytest.mark.parametrize("criterion", ["mahalanobis", "general", "tiers"])
    def test_mixed_model_with_clusters_under_a_stratified_design(self, criterion):
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
        info = scheme_inference(est, result, frame, design, 0.05, 2000, 17)
        got = (
            info["v_hat"], info["v_scheme"], info["r2_hat"],
            info["ci_true"].lower, info["ci_true"].upper,
        )
        assert got == _composed_from_plugins(est, result, frame, design, 0.05, 2000, 17)

    @pytest.mark.parametrize("estimator", list(_SCHEME_ESTIMATORS))
    @pytest.mark.parametrize("criterion", ["mahalanobis", "general"])
    def test_two_kernel_passes_and_no_stratum_factorization(
        self, monkeypatch, criterion, estimator
    ):
        frame, estimators = _scheme_trial()
        est = estimators[estimator]
        design = Design(
            pi=0.5, scheme="stratified_rerandomized", rerand_covariates=(0, 1),
            **_criterion(criterion),
        )
        result = apply_estimator(est, frame, design, 3, 0)
        assert frame.stratum_groups is not None  # cached on the frame

        factorized, passes = [], []
        original_factorize = rerand.data_model.factorize
        original_sandwich = rerand.inference._sandwich

        def counting_factorize(values):
            factorized.append(np.asarray(values))
            return original_factorize(values)

        def counting_sandwich(*args, **kwargs):
            passes.append(args)
            return original_sandwich(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("imbalance_* called by scheme_inference")

        for module in (rerand.data_model, rerand.allocation, rerand.inference, rerand.simlab):
            if getattr(module, "factorize", None) is original_factorize:
                monkeypatch.setattr(module, "factorize", counting_factorize)
        monkeypatch.setattr(rerand.inference, "_sandwich", counting_sandwich)
        monkeypatch.setattr(rerand.allocation, "imbalance_simple", forbidden)
        monkeypatch.setattr(rerand.allocation, "imbalance_stratified", forbidden)

        scheme_inference(est, result, frame, design, 0.05, 2000, 17)
        assert len(passes) <= 2
        folds = result.details["fold_plan"].assignment if est.kind == "dml" else None
        assert all(folds is not None and np.array_equal(v, folds) for v in factorized)

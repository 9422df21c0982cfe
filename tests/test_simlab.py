import math

import numpy as np
import pytest

from rerand import (
    DistanceSpec,
    CustomDgp,
    Design,
    DgpSpec,
    EstimandSpec,
    SimConfig,
    SimEstimator,
    Tier,
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

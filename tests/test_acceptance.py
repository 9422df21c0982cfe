"""Acceptance suite.

Every test here pins one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest tests/test_acceptance.py -s``
to see the lines as they stream). The heavier checks run replicated
simulations with a fixed master seed and two workers.
"""

import math
import time

import numpy as np
import pytest

import rerand
from rerand import (
    CustomDgp,
    Design,
    DgpSpec,
    EstimandSpec,
    LearnerSpec,
    LimitSpec,
    SimConfig,
    SimEstimator,
    Tier,
    TrialFrame,
    balance_distance,
    estimate_ancova,
    estimate_dml,
    estimate_drwls,
    estimate_unadjusted,
    generate_trial,
    run_simulation,
    sample_limit,
    scheme_plugins,
    v_qt,
    variance_simple,
)
from rerand.allocation import arm_product, centered_scatter

MASTER_SEED = 20240801
WORKERS = 2


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}", flush=True)
    assert ok, detail


def _run(dgp, design, estimators, replicates, keep=False):
    """A replicated simulation; its reports score against the computed truth."""
    return run_simulation(
        SimConfig(
            dgp=dgp,
            design=design,
            estimators=estimators,
            replicates=replicates,
            master_seed=MASTER_SEED,
            workers=WORKERS,
            keep_replicates=keep,
        )
    )


RERAND_DESIGN = Design(
    pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=1.0
)


@pytest.fixture(scope="module")
def table1_rerandomized():
    return _run(
        DgpSpec("continuous_sec7", 400),
        RERAND_DESIGN,
        (
            SimEstimator(kind="unadjusted", label="Unadjusted"),
            SimEstimator(kind="ancova", label="ANCOVA"),
        ),
        1000,
    )


def test_criterion_1_acceptance_rate_reproduction():
    start = time.monotonic()
    trial = generate_trial(DgpSpec("continuous_sec7", 400), seed=MASTER_SEED)
    xr = np.column_stack([trial.x1, trial.x2])
    rng = np.random.default_rng(MASTER_SEED + 1)
    accepted = 0
    for _ in range(5000):
        arms = (rng.random(400) < 0.5).astype(int)
        imb = xr[arms == 1].mean(axis=0) - xr[arms == 0].mean(axis=0)
        vhat = centered_scatter(xr, None)[1] / arm_product(arms)
        accepted += balance_distance(imb, vhat) < 1.0
    rate = accepted / 5000
    elapsed = time.monotonic() - start
    ok = 0.36 <= rate <= 0.43 and elapsed < 30
    _report(
        1,
        ok,
        f"empirical acceptance {rate:.4f} in [0.36, 0.43] "
        f"(asymptotic 0.3935), {elapsed:.1f}s < 30s",
    )


def test_criterion_2_unadjusted_under_rerandomization(table1_rerandomized):
    start = time.monotonic()
    row = next(r for r in table1_rerandomized.rows if r.label == "Unadjusted")
    ratio = row.ese / row.ase_star
    elapsed = time.monotonic() - start + table1_rerandomized.elapsed_seconds
    ok = (
        abs(row.bias) <= 0.10
        and 0.72 <= ratio <= 0.88
        and row.cp_normal >= 0.97
        and 0.92 <= row.cp_true <= 0.96
        and elapsed <= 600
    )
    _report(
        2,
        ok,
        f"bias {row.bias:+.3f} (<=0.10), ESE/ASE* {ratio:.3f} in [0.72, 0.88], "
        f"CP-Normal {row.cp_normal:.3f} >= 0.97, CP-True {row.cp_true:.3f} in "
        f"[0.92, 0.96], {elapsed:.0f}s <= 600s",
    )


def test_criterion_3_ancova_normality_across_schemes(table1_rerandomized):
    rows = {}
    rows["rerandomized"] = next(
        r for r in table1_rerandomized.rows if r.label == "ANCOVA"
    )
    rows["simple"] = _run(
        DgpSpec("continuous_sec7", 400),
        Design(pi=0.5, scheme="simple", rerand_covariates=(0, 1)),
        (SimEstimator(kind="ancova", label="ANCOVA"),),
        1000,
    ).rows[0]
    rows["stratified_rerandomized"] = _run(
        DgpSpec("continuous_sec7", 400),
        Design(
            pi=0.5,
            scheme="stratified_rerandomized",
            rerand_covariates=(0, 1),
            threshold_t=1.0,
            block_size=2,
        ),
        (SimEstimator(kind="ancova", label="ANCOVA"),),
        1000,
    ).rows[0]
    details = []
    ok = True
    for scheme, row in rows.items():
        ratio = row.ese / row.ase_star
        good = (
            abs(ratio - 1.0) <= 0.10
            and 0.93 <= row.cp_normal <= 0.97
            and 0.93 <= row.cp_true <= 0.97
        )
        ok = ok and good
        details.append(
            f"{scheme}: ESE/ASE* {ratio:.3f}, CP-N {row.cp_normal:.3f}, "
            f"CP-T {row.cp_true:.3f}"
        )
    _report(3, ok, "; ".join(details))


def test_criterion_4_binary_ratio_table():
    report = _run(
        DgpSpec("binary_sec7", 400),
        RERAND_DESIGN,
        (
            SimEstimator(kind="unadjusted", label="Unadjusted", estimand="ratio"),
            SimEstimator(kind="glm2", label="GLM2", estimand="ratio"),
        ),
        1000,
    )
    unadj = next(r for r in report.rows if r.label == "Unadjusted")
    glm2 = next(r for r in report.rows if r.label == "GLM2")
    ok = (
        unadj.cp_normal >= 0.95
        and unadj.cp_normal > unadj.cp_true
        and 0.92 <= glm2.cp_true <= 0.97
    )
    _report(
        4,
        ok,
        f"unadjusted CP-Normal {unadj.cp_normal:.3f} >= 0.95 and > CP-True "
        f"{unadj.cp_true:.3f}; GLM2 CP-True {glm2.cp_true:.3f} in [0.92, 0.97]",
    )


def test_criterion_5_drwls_double_robustness():
    # (a) outcome model misspecified (truth is nonlinear), missingness correct
    rep_a = _run(
        DgpSpec("continuous_sec7", 400, missingness=True),
        RERAND_DESIGN,
        (SimEstimator(kind="drwls", label="DR-WLS"),),
        500,
    ).rows[0]
    # (b) outcome model correct (linear truth), missingness misspecified
    # (driven by x2^2, which the logistic-linear working model cannot see)
    dgp_b = DgpSpec(
        "custom",
        400,
        missingness=True,
        custom=CustomDgp(
            y_intercept=1.0,
            y_arm=1.5,
            y_x1=1.0,
            y_x2=-1.0,
            y_stratum=0.5,
            y_sd=1.0,
            r_intercept=1.5,
            r_arm=0.0,
            r_x2=0.0,
            r_stratum=0.0,
            r_x2sq=-1.0,
        ),
    )
    rep_b = _run(
        dgp_b,
        RERAND_DESIGN,
        (SimEstimator(kind="drwls", label="DR-WLS"),),
        500,
    ).rows[0]
    tol_a = 3 * rep_a.ese / math.sqrt(rep_a.replicates_used)
    tol_b = 3 * rep_b.ese / math.sqrt(rep_b.replicates_used)
    ok = abs(rep_a.bias) <= tol_a and abs(rep_b.bias) <= tol_b
    _report(
        5,
        ok,
        f"(a) bias {rep_a.bias:+.4f} <= {tol_a:.4f}; "
        f"(b) bias {rep_b.bias:+.4f} <= {tol_b:.4f}",
    )


def test_criterion_6_dml_coverage_under_stratified_rerandomization():
    row = _run(
        DgpSpec("continuous_sec7", 400, missingness=True),
        Design(
            pi=0.5,
            scheme="stratified_rerandomized",
            rerand_covariates=(0, 1),
            threshold_t=1.0,
            block_size=2,
        ),
        (SimEstimator(kind="dml", label="DML", fold_mode="stratum_arm", folds=5),),
        500,
    ).rows[0]
    tol = 3 * row.ese / math.sqrt(row.replicates_used)
    ok = 0.92 <= row.cp_true <= 0.97 and abs(row.bias) <= tol
    _report(
        6,
        ok,
        f"CP-True {row.cp_true:.3f} in [0.92, 0.97]; bias {row.bias:+.4f} <= {tol:.4f} "
        "(ESE not compared: built-in learners replace the external ensemble)",
    )


def test_criterion_7_limit_sampler_variance_grid():
    start = time.monotonic()
    worst = 0.0
    for q in (1, 2, 3):
        for t in (0.5, 1.0, 2.0):
            for r2 in (0.0, 0.5, 1.0):
                seed = 1000 * q + int(10 * t) + int(2 * r2)
                draws = sample_limit(LimitSpec(V=1.0, R2=r2, q=q, t=t), 200_000, seed)
                target = 1.0 - (1.0 - v_qt(q, t)) * r2
                worst = max(worst, abs(draws.var() - target) / target)
    v21 = v_qt(2, 1.0)
    elapsed = time.monotonic() - start
    ok = worst < 0.02 and abs(v21 - 0.22926) <= 1e-5 and elapsed < 60
    _report(
        7,
        ok,
        f"worst grid deviation {worst:.4f} < 0.02; v_(2,1) {v21:.6f} = 0.22926 "
        f"+/- 1e-5; {elapsed:.0f}s < 60s",
    )


def test_criterion_8_oracle_equivalences(four_row_frame):
    start = time.monotonic()
    diff = EstimandSpec("difference")

    # (i) ANCOVA on the 4-row fixture vs its normal-equations oracle
    res = estimate_ancova(four_row_frame, ("x",), False, diff)
    X = np.column_stack([np.ones(4), four_row_frame.arm, four_row_frame.covariates])
    oracle = np.linalg.solve(X.T @ X, X.T @ four_row_frame.outcome)
    ok_ancova = abs(res.delta_hat - 2.5) <= 1e-8 and abs(res.delta_hat - oracle[1]) <= 1e-8

    # (ii) unadjusted V-hat and R-squared hand fixtures
    res_u = estimate_unadjusted(four_row_frame, diff)
    v_hat = variance_simple(res_u.if_values)
    r2 = scheme_plugins(
        res_u.if_values, four_row_frame.arm, 0.5, np.array([1.0, 2.0, 3.0, 4.0])
    )[1]
    ok_unadj = abs(v_hat - 2.5) <= 1e-10 and abs(r2 - 0.18) <= 1e-10

    # (iii) DR-WLS with all outcomes observed equals ANCOVA g-computation
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 2))
    arms = np.tile([1, 0], 30)
    y = 1.0 + 2.0 * arms + x @ [1.0, -1.0] + rng.normal(size=60)
    frame = TrialFrame(covariates=x, covariate_names=("x1", "x2"), outcome=y, arm=arms)
    d_drwls = estimate_drwls(frame, ("x1", "x2"), ("x1", "x2"), "identity", False, diff)
    d_ancova = estimate_ancova(frame, ("x1", "x2"), False, diff)
    ok_drwls = abs(d_drwls.delta_hat - d_ancova.delta_hat) <= 1e-8

    # (iv) DML with a constant learner under exact balance equals the arm mean
    frame_b = TrialFrame(
        covariates=x[:40],
        covariate_names=("x1", "x2"),
        outcome=y[:40],
        arm=arms[:40],
        stratum=["s"] * 40,
    )
    res_dml = estimate_dml(
        frame_b,
        LearnerSpec(kind="stump_ensemble", trees=0),
        None,
        5,
        "stratum_arm",
        diff,
        seed=1,
        pi=0.5,
    )
    treated_mean = y[:40][arms[:40] == 1].mean()
    ok_dml = abs(res_dml.mu_hat[0] - treated_mean) <= 1e-10

    elapsed = time.monotonic() - start
    ok = ok_ancova and ok_unadj and ok_drwls and ok_dml and elapsed < 1.0
    _report(
        8,
        ok,
        f"ANCOVA fixture {ok_ancova}, unadjusted V/R2 fixtures {ok_unadj}, "
        f"DR-WLS==ANCOVA {ok_drwls}, DML==treated mean {ok_dml}, {elapsed:.2f}s < 1s",
    )


def test_criterion_9_rsquared_separation_at_n2000():
    report = _run(
        DgpSpec("continuous_sec7", 2000),
        RERAND_DESIGN,
        (
            SimEstimator(kind="unadjusted", label="Unadjusted"),
            SimEstimator(kind="ancova", label="ANCOVA"),
        ),
        200,
        keep=True,
    )
    med_unadj = float(np.median(report.per_replicate["Unadjusted"]["r2_hat"]))
    med_ancova = float(np.median(report.per_replicate["ANCOVA"]["r2_hat"]))
    ok = med_ancova < 0.05 and med_unadj >= 5 * med_ancova
    _report(
        9,
        ok,
        f"median R2-hat: ANCOVA {med_ancova:.2e} < 0.05, unadjusted "
        f"{med_unadj:.3f} >= 5x ANCOVA",
    )


def test_criterion_10_determinism_across_worker_counts():
    def report_bytes(workers: int) -> str:
        return run_simulation(
            SimConfig(
                dgp=DgpSpec("continuous_sec7", 100),
                design=RERAND_DESIGN,
                estimators=(
                    SimEstimator(kind="unadjusted", label="Unadjusted"),
                    SimEstimator(kind="ancova", label="ANCOVA"),
                ),
                replicates=30,
                master_seed=MASTER_SEED,
                workers=workers,
            )
        ).to_json()

    serial = report_bytes(1)
    parallel = report_bytes(2)
    ok = serial == parallel
    _report(10, ok, "reports byte-identical for workers in {1, 2}")


def test_criterion_11_tiered_design_coverage():
    # y = 1 * arm + 2 x1 + 2 x2 + noise, so the tier on x1 alone shrinks the
    # unadjusted estimator's spread (ESE about 0.24 against ASE* 0.30) and
    # the interval must come from the tiered acceptance region
    start = time.monotonic()
    row = _run(
        DgpSpec("custom", 400, custom=CustomDgp(y_arm=1.0, y_x1=2.0, y_x2=2.0)),
        Design(
            pi=0.5,
            scheme="rerandomized",
            rerand_covariates=(0, 1),
            tiers=(Tier(indices=(0,), threshold=0.05),),
        ),
        (SimEstimator(kind="unadjusted", label="Unadjusted"),),
        1000,
        {"difference": (1.0, 0.0)},
    ).rows[0]
    elapsed = time.monotonic() - start
    ok = 0.92 <= row.cp_true <= 0.97 and row.failures == 0
    _report(
        11,
        ok,
        f"tier x1 < 0.05: CP-True {row.cp_true:.3f} in [0.92, 0.97], "
        f"ESE {row.ese:.3f} against ASE* {row.ase_star:.3f}, {elapsed:.1f}s",
    )

import tracemalloc
import warnings

import numpy as np
import pytest

import rerand.mestimators
from rerand import (
    EstimandSpec,
    TrialFrame,
    estimate_ancova,
    estimate_drwls,
    estimate_gcomp_logistic,
    estimate_mixed_ancova,
    estimate_unadjusted,
    solve_estimating_equations,
    variance_simple,
)
from rerand.errors import (
    ConvergenceError,
    DiagnosticWarning,
    SingularMatrixError,
    ValidationError,
)

from conftest import fd_jacobian, random_frame, unit_labels

DIFF = EstimandSpec("difference")
RATIO = EstimandSpec("ratio")


class TestSolver:
    def test_linear_psi_matches_normal_equations(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.5]])
        y = np.array([1.0, 2.0, 2.5, 5.0])
        oracle = np.linalg.solve(X.T @ X, X.T @ y)

        def evaluate(theta):
            return (y - X @ theta)[:, None] * X

        theta, _, diag = solve_estimating_equations(evaluate, fd_jacobian(evaluate), np.zeros(2))
        np.testing.assert_allclose(theta, oracle, atol=1e-8)
        assert diag.residual_norm <= 1e-10

    def test_residual_postcondition_holds(self):
        y = random_frame(1).outcome

        def evaluate(theta):
            return np.column_stack([y - theta[0], y**2 - theta[1]])

        _, _, diag = solve_estimating_equations(
            evaluate, fd_jacobian(evaluate), np.array([0.0, 1.0])
        )
        assert diag.residual_norm <= 1e-10

    def test_step_halving_recovers_from_an_overshoot(self):
        # from 0 the full Newton step on arctan(theta - 3) lands near 12.5, where the
        # residual is larger than at the start; halving it twice lands near 3.1
        calls = []

        def evaluate(theta):
            calls.append(float(theta[0]))
            return np.full((10, 1), np.arctan(theta[0] - 3.0))

        def jacobian(theta):
            return np.array([[1.0 / (1.0 + (theta[0] - 3.0) ** 2)]])

        theta, _, diag = solve_estimating_equations(evaluate, jacobian, np.zeros(1))
        assert theta[0] == pytest.approx(3.0, abs=1e-10)
        assert diag.iterations == 4
        assert len(calls) > diag.iterations + 1
        assert calls[1] > 12.0 and 3.0 < calls[3] < calls[2] < calls[1]

    def test_separated_logistic_does_not_converge(self):
        # two-point separable set: y jumps 0 -> 1 with x
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0])

        def evaluate(theta):
            p = 1.0 / (1.0 + np.exp(-X @ theta))
            return (y - p)[:, None] * X

        with pytest.raises(ConvergenceError):
            solve_estimating_equations(evaluate, fd_jacobian(evaluate), np.zeros(2))


class TestUnadjusted:
    def test_difference_hand_arithmetic(self, four_row_frame):
        res = estimate_unadjusted(four_row_frame, DIFF)
        assert res.delta_hat == pytest.approx(2.5)
        np.testing.assert_allclose(res.if_values, [-2.0, 2.0, 1.0, -1.0], atol=1e-10)
        assert variance_simple(res.if_values) == pytest.approx(2.5)

    def test_ratio_hand_arithmetic(self, four_row_frame):
        res = estimate_unadjusted(four_row_frame, RATIO)
        assert res.delta_hat == pytest.approx(4.0 / 1.5)

    def test_identical_outcomes_give_zero_everything(self):
        frame = TrialFrame(
            covariates=np.zeros((4, 1)),
            covariate_names=("x",),
            outcome=np.array([2.0, 2.0, 2.0, 2.0]),
            arm=np.array([1, 1, 0, 0]),
        )
        res = estimate_unadjusted(frame, DIFF)
        assert res.delta_hat == 0.0
        np.testing.assert_allclose(res.if_values, 0.0, atol=1e-12)

    def test_sandwich_equals_plugin_arm_variances(self):
        frame = random_frame(2, n=80)
        res = estimate_unadjusted(frame, DIFF)
        arms = frame.arm
        y = frame.outcome
        pi_hat = arms.mean()
        s1 = np.mean((y[arms == 1] - y[arms == 1].mean()) ** 2)
        s0 = np.mean((y[arms == 0] - y[arms == 0].mean()) ** 2)
        plugin = s1 / pi_hat + s0 / (1 - pi_hat)
        assert variance_simple(res.if_values) == pytest.approx(plugin, abs=1e-10)

    def test_complete_case_with_missing_outcomes(self):
        frame = TrialFrame(
            covariates=np.zeros((5, 1)),
            covariate_names=("x",),
            outcome=np.array([3.0, 5.0, np.nan, 1.0, 2.0]),
            arm=np.array([1, 1, 1, 0, 0]),
        )
        res = estimate_unadjusted(frame, DIFF)
        assert res.delta_hat == pytest.approx(4.0 - 1.5)


class TestAncova:
    def test_four_row_normal_equations_oracle(self, four_row_frame):
        res = estimate_ancova(four_row_frame, ("x",), False, DIFF)
        X = np.column_stack([np.ones(4), four_row_frame.arm, four_row_frame.covariates])
        oracle = np.linalg.solve(X.T @ X, X.T @ four_row_frame.outcome)
        assert res.delta_hat == pytest.approx(2.5, abs=1e-8)
        np.testing.assert_allclose(res.theta_hat[3:], oracle, atol=1e-8)
        np.testing.assert_allclose(oracle, [0.75, 2.5, 1.5], atol=1e-12)

    def test_empty_covariates_reduce_to_unadjusted(self, four_row_frame):
        res_a = estimate_ancova(four_row_frame, (), False, DIFF)
        res_u = estimate_unadjusted(four_row_frame, DIFF)
        assert res_a.delta_hat == pytest.approx(res_u.delta_hat, abs=1e-12)

    def test_interacted_gcomp_equals_treatment_coefficient(self):
        frame = random_frame(3, n=60)
        res = estimate_ancova(frame, ("x1", "x2"), True, DIFF)
        # centered interactions make the g-computation average the fitted
        # treatment coefficient exactly
        beta_a = res.theta_hat[4]
        assert res.delta_hat == pytest.approx(beta_a, abs=1e-12)

    def test_rank_deficiency_rejected(self):
        frame = TrialFrame(
            covariates=np.column_stack([np.arange(6.0), 2 * np.arange(6.0)]),
            covariate_names=("x1", "x2"),
            outcome=np.arange(6.0),
            arm=np.array([1, 0, 1, 0, 1, 0]),
        )
        with pytest.raises(SingularMatrixError, match="rank"):
            estimate_ancova(frame, ("x1", "x2"), False, DIFF)

    def test_affine_rescaling_leaves_estimate_invariant(self):
        frame = random_frame(4, n=80)
        base = estimate_ancova(frame, ("x1", "x2"), False, DIFF).delta_hat
        rescaled = TrialFrame(
            covariates=frame.covariates * [250.0, -0.004] + [3.0, 17.0],
            covariate_names=frame.covariate_names,
            outcome=frame.outcome,
            arm=frame.arm,
        )
        res = estimate_ancova(rescaled, ("x1", "x2"), False, DIFF).delta_hat
        assert res == pytest.approx(base, abs=1e-8)

    def test_influence_values_average_to_zero(self):
        frame = random_frame(5, n=70)
        res = estimate_ancova(frame, ("x1", "x2"), False, DIFF)
        assert abs(res.if_values.mean()) < 1e-8

    def test_ratio_estimand_contrasts_gcomputation_means(self):
        frame = random_frame(21, n=60, effect=3.0)
        res = estimate_ancova(frame, ("x1", "x2"), False, RATIO)
        mu1, mu0 = res.mu_hat
        assert res.delta_hat == pytest.approx(mu1 / mu0, abs=1e-10)

    def test_peak_memory_is_bounded_by_the_design(self):
        # n=10,000, 12 covariates with interactions: p = 26 model columns. Holding
        # both per-arm designs and the full (n, dim) influence matrix peaked at
        # about 7.4 n p 8 bytes.
        frame, n, p = _wide_frame()
        assert _ancova_peak(frame) <= 5 * n * p * 8

    def test_peak_memory_is_the_design_and_psi(self):
        # Z and the (n, p + 2) psi matrix take 2.08 n p 8 bytes. A second copy of X
        # beside Z, the weighted n x p product in psi and the n x p weighted copy
        # of Z in the Jacobian's Gram product peaked at 4.3 n p 8.
        frame, n, p = _wide_frame()
        assert _ancova_peak(frame) <= 3.2 * n * p * 8


def _wide_frame():
    """n=10,000 and 12 covariates: with interactions, p = 26 model columns."""
    rng = np.random.default_rng(61)
    n, k = 10_000, 12
    x = rng.normal(size=(n, k))
    arms = np.arange(n) % 2
    frame = TrialFrame(
        covariates=x, covariate_names=tuple(f"x{j}" for j in range(k)),
        outcome=x.sum(axis=1) + arms + rng.normal(size=n), arm=arms,
    )
    return frame, n, 2 + 2 * k


def _ancova_peak(frame) -> int:
    """tracemalloc's peak over an ANCOVA fit with interactions."""
    tracemalloc.start()
    try:
        estimate_ancova(frame, frame.covariate_names, True, DIFF)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _binary_frame(seed, n=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    arms = np.array([1, 0] * (n // 2))
    p = 1.0 / (1.0 + np.exp(-(0.2 + 0.8 * arms + 0.5 * x[:, 0])))
    y = (rng.random(n) < p).astype(float)
    return TrialFrame(covariates=x, covariate_names=("x",), outcome=y, arm=arms)


class TestGcompLogistic:
    def test_arm_only_model_reproduces_arm_means(self):
        frame = _binary_frame(6)
        res = estimate_gcomp_logistic(frame, (), False, RATIO)
        y, a = frame.outcome, frame.arm
        assert res.delta_hat == pytest.approx(y[a == 1].mean() / y[a == 0].mean(), abs=1e-9)

    def test_degenerate_constant_outcome_raises(self):
        frame = TrialFrame(
            covariates=np.zeros((6, 1)),
            covariate_names=("x",),
            outcome=np.ones(6),
            arm=np.array([1, 0] * 3),
        )
        with pytest.raises(ConvergenceError):
            estimate_gcomp_logistic(frame, (), False, RATIO)

    def test_non_binary_outcome_rejected(self, four_row_frame):
        with pytest.raises(ValidationError, match="binary"):
            estimate_gcomp_logistic(four_row_frame, ("x",), False, DIFF)

    def test_six_row_grid_search_oracle(self):
        # coarse-to-fine likelihood maximization over (beta0, beta_A)
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        arms = np.array([1, 1, 1, 0, 0, 0])
        frame = TrialFrame(
            covariates=np.zeros((6, 1)), covariate_names=("x",), outcome=y, arm=arms
        )

        def loglik(b0, ba):
            eta = b0 + ba * arms
            return float(np.sum(y * eta - np.log1p(np.exp(eta))))

        center, width = (0.0, 0.0), 4.0
        for _ in range(12):
            b0s = np.linspace(center[0] - width, center[0] + width, 41)
            bas = np.linspace(center[1] - width, center[1] + width, 41)
            values = [[loglik(b0, ba) for ba in bas] for b0 in b0s]
            i, j = np.unravel_index(np.argmax(values), (41, 41))
            center, width = (b0s[i], bas[j]), width / 8
        expit = lambda v: 1.0 / (1.0 + np.exp(-v))
        oracle = expit(center[0] + center[1]) - expit(center[0])

        res = estimate_gcomp_logistic(frame, (), False, DIFF)
        assert res.delta_hat == pytest.approx(oracle, abs=1e-6)


class TestDrwls:
    def test_fully_observed_identity_link_equals_ancova(self):
        frame = random_frame(7, n=60)
        res_d = estimate_drwls(frame, ("x1", "x2"), ("x1", "x2"), "identity", False, DIFF)
        res_a = estimate_ancova(frame, ("x1", "x2"), False, DIFF)
        assert res_d.delta_hat == pytest.approx(res_a.delta_hat, abs=1e-8)

    def test_influence_values_average_to_zero_with_missingness(self):
        rng = np.random.default_rng(8)
        n = 120
        x = rng.normal(size=(n, 2))
        arms = np.array([1, 0] * (n // 2))
        y = 1.0 + 2.0 * arms + x @ [1.0, -0.5] + rng.normal(size=n)
        robs = rng.random(n) < 1.0 / (1.0 + np.exp(-(1.0 + x[:, 0])))
        frame = TrialFrame(
            covariates=x,
            covariate_names=("x1", "x2"),
            outcome=np.where(robs, y, np.nan),
            arm=arms,
        )
        res = estimate_drwls(frame, ("x1", "x2"), ("x1", "x2"), "identity", False, DIFF)
        assert abs(res.if_values.mean()) < 1e-8
        assert res.solver_diag.residual_norm <= 1e-10

    def test_propensity_clipping_warns(self):
        rng = np.random.default_rng(9)
        n = 300
        x = rng.normal(size=(n, 1))
        arms = np.array([1, 0] * (n // 2))
        y = arms + rng.normal(size=n)
        # missingness driven hard by x: fitted propensities dip below 1%
        robs = rng.random(n) < 1.0 / (1.0 + np.exp(-(-3.5 + 6.0 * x[:, 0])))
        robs[:2] = True  # keep both arms analyzable
        frame = TrialFrame(
            covariates=x,
            covariate_names=("x",),
            outcome=np.where(robs, y, np.nan),
            arm=arms,
        )
        with pytest.warns(DiagnosticWarning, match="clipped"):
            res = estimate_drwls(frame, ("x",), ("x",), "identity", False, DIFF)
        assert res.details["propensity_clip_count"] > 0

    def test_separation_in_missingness_model_raises(self):
        x = np.linspace(-1, 1, 20)[:, None]
        robs = (x[:, 0] > 0).astype(int)
        frame = TrialFrame(
            covariates=x,
            covariate_names=("x",),
            outcome=np.where(robs == 1, 1.0, np.nan),
            arm=np.array([1, 0] * 10),
        )
        with pytest.raises(ConvergenceError):
            estimate_drwls(frame, ("x",), ("x",), "identity", False, DIFF)

    def test_rank_of_observed_rows_is_checked(self):
        # x2 varies only where the outcome is missing: the full design has full
        # rank, the weighted rows the outcome regression solves do not
        rng = np.random.default_rng(0)
        n = 40
        x1 = rng.normal(size=n)
        arms = np.arange(n) % 2
        robs = np.arange(n) % 4 < 3
        frame = TrialFrame(
            covariates=np.column_stack([x1, np.where(robs, 0.0, rng.normal(size=n))]),
            covariate_names=("x1", "x2"),
            outcome=np.where(robs, x1 + arms + rng.normal(size=n), np.nan),
            arm=arms,
        )
        assert np.linalg.matrix_rank(np.column_stack([np.ones(n), arms, frame.covariates])) == 4
        with pytest.raises(SingularMatrixError, match="design matrix is rank deficient"):
            estimate_drwls(frame, ("x1", "x2"), ("x1",), "identity", False, DIFF)


def _cluster_frame(seed, m=8, tau=1.0, sigma=0.8, effect=1.5):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(3, 7, m)
    cluster = np.repeat(np.arange(m), sizes)
    n = cluster.size
    arm_of_cluster = np.tile([1, 0], m // 2)
    arms = arm_of_cluster[cluster]
    x = rng.normal(size=(n, 1))
    y = (
        1.0
        + effect * arms
        + 0.8 * x[:, 0]
        + np.repeat(rng.normal(0.0, tau, m), sizes)
        + rng.normal(0.0, sigma, n)
    )
    return TrialFrame(
        covariates=x,
        covariate_names=("x",),
        outcome=y,
        arm=arms,
        cluster=cluster.astype(str),
    )


class TestMixedAncova:
    def test_singleton_clusters_degenerate_to_ols(self):
        frame = random_frame(10, n=40)
        clustered = TrialFrame(
            covariates=frame.covariates,
            covariate_names=frame.covariate_names,
            outcome=frame.outcome,
            arm=frame.arm,
            cluster=[str(i) for i in range(40)],
        )
        res_m = estimate_mixed_ancova(clustered, ("x1", "x2"), False, DIFF)
        res_a = estimate_ancova(frame, ("x1", "x2"), False, DIFF)
        assert res_m.details["tau2"] == 0.0
        assert res_m.delta_hat == pytest.approx(res_a.delta_hat, abs=1e-6)

    def test_profile_likelihood_matches_grid_oracle(self):
        frame = _cluster_frame(11, m=4, tau=1.2, sigma=0.7)
        res = estimate_mixed_ancova(frame, ("x",), False, DIFF)
        s2_hat, t2_hat = res.details["sigma2"], res.details["tau2"]

        # independent oracle: dense-matrix Gaussian likelihood on a refined grid
        clusters = unit_labels(frame.cluster)
        labels = sorted(set(clusters.tolist()))
        members = [np.flatnonzero(clusters == lab) for lab in labels]
        Z = np.column_stack([np.ones(frame.n_units), frame.arm, frame.covariates])
        y = frame.outcome

        def neg2ll(s2, t2):
            total = 0.0
            beta_num = np.zeros((Z.shape[1], Z.shape[1]))
            beta_rhs = np.zeros(Z.shape[1])
            covs = []
            for idx in members:
                cov = s2 * np.eye(len(idx)) + t2 * np.ones((len(idx), len(idx)))
                covs.append(np.linalg.inv(cov))
                beta_num += Z[idx].T @ covs[-1] @ Z[idx]
                beta_rhs += Z[idx].T @ covs[-1] @ y[idx]
            beta = np.linalg.solve(beta_num, beta_rhs)
            for idx, vinv in zip(members, covs):
                r = y[idx] - Z[idx] @ beta
                sign, logdet = np.linalg.slogdet(np.linalg.inv(vinv))
                total += len(idx) * np.log(2 * np.pi) + logdet + r @ vinv @ r
            return total

        center = (s2_hat, max(t2_hat, 0.05))
        width = (0.5 * center[0], 0.5 * center[1])
        best = center
        for _ in range(8):
            s2s = np.linspace(max(best[0] - width[0], 1e-4), best[0] + width[0], 21)
            t2s = np.linspace(max(best[1] - width[1], 0.0), best[1] + width[1], 21)
            values = [[neg2ll(s2, t2) for t2 in t2s] for s2 in s2s]
            i, j = np.unravel_index(np.argmin(values), (21, 21))
            best = (s2s[i], t2s[j])
            width = (width[0] / 5, width[1] / 5)

        assert s2_hat == pytest.approx(best[0], abs=1e-4)
        assert t2_hat == pytest.approx(best[1], abs=1e-4)

    def test_cluster_influence_values_average_to_zero(self):
        frame = _cluster_frame(12)
        res = estimate_mixed_ancova(frame, ("x",), False, DIFF)
        assert len(res.if_values) == 8
        assert abs(res.if_values.mean()) < 1e-8

    def test_requires_two_clusters_per_arm(self):
        frame = _cluster_frame(13, m=2)
        with pytest.raises(ValidationError, match="two clusters"):
            estimate_mixed_ancova(frame, ("x",), False, DIFF)

    def test_ratio_estimand_uses_gcomputation(self):
        frame = _cluster_frame(15, effect=2.0)
        res = estimate_mixed_ancova(frame, ("x",), False, RATIO)
        mu1, mu0 = res.mu_hat
        assert res.delta_hat == pytest.approx(mu1 / mu0, abs=1e-10)
        assert abs(res.if_values.mean()) < 1e-8

    def test_peak_memory_is_bounded_by_the_design(self):
        # n=10,000 in 200 clusters, 12 covariates with interactions: p = 26 model
        # columns. Holding both per-arm designs beside the fitted one peaked at
        # about 6.1 n p 8 bytes.
        rng = np.random.default_rng(63)
        n, k = 10_000, 12
        x = rng.normal(size=(n, k))
        cluster = np.arange(n) % 200
        arms = cluster % 2
        y = x.sum(axis=1) + arms + rng.normal(size=200)[cluster] + rng.normal(size=n)
        frame = TrialFrame(
            covariates=x, covariate_names=tuple(f"x{j}" for j in range(k)),
            outcome=y, arm=arms, cluster=[f"c{c}" for c in cluster],
        )
        tracemalloc.start()
        try:
            estimate_mixed_ancova(frame, frame.covariate_names, True, DIFF)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * (2 + 2 * k) * 8

    def test_mixed_arm_cluster_rejected(self):
        frame = _cluster_frame(14)
        bad = TrialFrame(
            covariates=frame.covariates,
            covariate_names=frame.covariate_names,
            outcome=frame.outcome,
            arm=np.arange(frame.n_units) % 2,
            cluster=frame.cluster,
        )
        with pytest.raises(ValidationError, match="mixes"):
            estimate_mixed_ancova(bad, ("x",), False, DIFF)


def _missing_frame(seed, binary, intercept=1.0, slope=1.0, n=300):
    """Outcomes missing at random given x1; binary or continuous outcomes."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    arms = np.array([1, 0] * (n // 2))
    eta = 0.2 + 0.8 * arms + x @ [0.7, -0.4]
    if binary:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = eta + rng.normal(size=n)
    robs = rng.random(n) < 1.0 / (1.0 + np.exp(-(intercept + slope * x[:, 0])))
    robs[:4] = True  # keep both arms analyzable
    return TrialFrame(
        covariates=x, covariate_names=("x1", "x2"), outcome=np.where(robs, y, np.nan), arm=arms
    )


def _drwls(link, estimand, **shape):
    frame = _missing_frame(binary=link == "logit", **shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DiagnosticWarning)
        return estimate_drwls(frame, ("x1", "x2"), ("x1", "x2"), link, True, estimand)


# One (estimand, call) per production stack; the tag after ':' is checked on the result.
STACKS = {
    "unadjusted_difference": (DIFF, lambda e: estimate_unadjusted(random_frame(30), e)),
    "unadjusted_ratio": (RATIO, lambda e: estimate_unadjusted(random_frame(31, effect=3.0), e)),
    "ancova_interactions": (
        DIFF, lambda e: estimate_ancova(random_frame(32), ("x1", "x2"), True, e)
    ),
    "ancova_main_effects": (
        DIFF, lambda e: estimate_ancova(random_frame(38), ("x1", "x2"), False, e)
    ),
    "glm2": (
        RATIO, lambda e: estimate_gcomp_logistic(_binary_frame(33, n=120), ("x",), True, e)
    ),
    "drwls_identity": (DIFF, lambda e: _drwls("identity", e, seed=34)),
    "drwls_logit": (RATIO, lambda e: _drwls("logit", e, seed=35)),
    "drwls_identity:clipped": (
        DIFF, lambda e: _drwls("identity", e, seed=36, intercept=-3.5, slope=5.0)
    ),
    "drwls_logit:clipped": (
        RATIO, lambda e: _drwls("logit", e, seed=37, intercept=-3.5, slope=5.0)
    ),
    "mixed:interior": (
        RATIO, lambda e: estimate_mixed_ancova(_cluster_frame(12), ("x",), False, e)
    ),
    "mixed:boundary": (
        DIFF, lambda e: estimate_mixed_ancova(_cluster_frame(16, tau=0.0), ("x",), True, e)
    ),
}


class TestAnalyticJacobians:
    """Every production stack's closed-form B-hat against central finite
    differences of its own ``evaluate``, at theta-hat and at a perturbed theta."""

    @pytest.mark.parametrize("name", list(STACKS))
    def test_matches_finite_differences(self, name, monkeypatch):
        solved = []
        solve = rerand.mestimators.solve_estimating_equations

        def spy(evaluate, jacobian, theta0):
            theta, if_values, diag = solve(evaluate, jacobian, theta0)
            solved.append((evaluate, jacobian, theta))
            return theta, if_values, diag

        monkeypatch.setattr(rerand.mestimators, "solve_estimating_equations", spy)
        estimand, run = STACKS[name]
        result = run(estimand)
        tag = name.partition(":")[2]
        if tag == "clipped":
            assert result.details["propensity_clip_count"] > 0
        elif tag:
            assert (result.details["tau2"] == 0.0) == (tag == "boundary")
        (evaluate, jacobian, theta_hat), = solved
        rng = np.random.default_rng(0)
        u = rng.uniform(-1.0, 1.0, size=(2, theta_hat.size))
        for theta in (theta_hat, theta_hat * (1.0 + 0.1 * u[0]) + 0.01 * u[1]):
            B = jacobian(theta)
            oracle = fd_jacobian(evaluate)(theta)
            np.testing.assert_allclose(B, oracle, rtol=0, atol=1e-7 * np.abs(B).max())


def _reference_influence_matrix(evaluate, jacobian, theta):
    """The retired full solve: every unit's -B_hat^-1 psi(O_i; theta), an (n, dim) matrix."""
    return -np.linalg.solve(jacobian(theta), evaluate(theta).T).T


class TestInfluenceOracle:
    """The solver forms only the arm means' influence values, and the contrast
    step maps them to Delta's: for every production stack they are columns 0
    and 1 of the full influence matrix, times the estimand's gradient."""

    @pytest.mark.parametrize("name", list(STACKS))
    def test_delta_column_of_the_full_solve(self, name, monkeypatch):
        solved = []
        solve = rerand.mestimators.solve_estimating_equations
        estimand, run = STACKS[name]

        def spy(evaluate, jacobian, theta0):
            theta, if_mu, diag = solve(evaluate, jacobian, theta0)
            full = _reference_influence_matrix(evaluate, jacobian, theta)
            solved.append(full[:, :2] @ estimand.gradient(theta[0], theta[1]))
            return theta, if_mu, diag

        monkeypatch.setattr(rerand.mestimators, "solve_estimating_equations", spy)
        result = run(estimand)
        (oracle,) = solved
        assert result.if_values.shape == oracle.shape
        np.testing.assert_allclose(
            result.if_values, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max()
        )

"""Estimating-equation solver with sandwich machinery and concrete estimators.

Every estimator here is the root of a stacked system sum_i psi(O_i; theta) = 0
whose first two coordinates are the arm means (mu1, mu0), followed by its
nuisances. Each supplies two closures of theta alone over its own units:
``evaluate`` gives the (n, dim) per-unit psi values and ``jacobian`` the
averaged Jacobian B_hat of the mean estimating function, in closed form
(Stefanski & Boos 2002); nothing is differentiated numerically. The solver
returns the arm means' per-unit influence values, the first two entries of
-B_hat^{-1} psi(O_i; theta_hat): psi times the first two columns of
B_hat^{-T}, an (n, 2) matrix in place of an (n, dim) one. One contrast step
(``contrast``), which the cross-fitted estimator in ``dml`` shares, then
reaches Delta = f(mu1, mu0) by the delta method: Delta-hat = f(mu1-hat,
mu0-hat) and influence values IF_mu grad f, which sum to zero by construction
and whose mean square is the sandwich variance.

Stage-wise fits (OLS, IRLS, the mixed model's likelihood profiled over
lambda = tau^2 / sigma^2) provide warm starts; a damped Newton pass then drives
the stacked residual below tolerance and assembles the influence values at the
solution.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .data_model import (
    EstimandSpec,
    EstimateResult,
    Grouping,
    SolverDiag,
    TrialFrame,
)
from .errors import (
    ConvergenceError,
    DiagnosticWarning,
    SingularMatrixError,
    ValidationError,
)

PROPENSITY_FLOOR = 0.01
_RESIDUAL_TOL = 1e-10
_MAX_NEWTON_ITER = 100
_MAX_HALVINGS = 30
_ETA_SATURATION = 36.0  # |linear predictor| beyond which expit saturates


def solve_estimating_equations(
    evaluate: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    theta0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, SolverDiag]:
    """Solve sum_i psi(O_i; theta) = 0 by damped Newton with step halving,
    from ``theta0``.

    ``evaluate(theta)`` returns the (n, dim) matrix of per-unit psi values and
    ``jacobian(theta)`` the averaged (dim, dim) Jacobian of the mean
    estimating function, d/dtheta n^-1 sum_i psi(O_i; theta). Returns
    (theta_hat, the (n, 2) influence values of the arm means theta[0] and
    theta[1], which are -psi B_hat^-T [e_0 e_1] at theta_hat, diagnostics). The
    returned residual satisfies ||n^-1 sum psi||_inf <= 1e-10; every failure
    raises.
    """
    theta = np.array(theta0, dtype=float)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)):
        raise ValidationError("theta0 must be a finite vector")

    psi = evaluate(theta)
    residual = float(np.abs(psi.mean(axis=0)).max())
    iterations = 0
    while residual > _RESIDUAL_TOL:
        if iterations >= _MAX_NEWTON_ITER:
            raise ConvergenceError(
                f"estimating equations not solved after {iterations} iterations "
                f"(residual {residual:.2e})"
            )
        iterations += 1
        B = jacobian(theta)
        try:
            step = -np.linalg.solve(B, psi.mean(axis=0))
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular Jacobian away from a root; estimating equations "
                "may have no solution (separation?)"
            ) from None
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = theta + lam * step
            cand_psi = evaluate(candidate)
            cand_res = float(np.abs(cand_psi.mean(axis=0)).max())
            if math.isfinite(cand_res) and cand_res < residual:
                break
            lam *= 0.5
        else:
            candidate = theta + lam * step
            cand_psi = evaluate(candidate)
            cand_res = float(np.abs(cand_psi.mean(axis=0)).max())
        theta, psi, residual = candidate, cand_psi, cand_res
        if not np.all(np.isfinite(theta)) or np.abs(theta).max() > 1e10:
            raise ConvergenceError("parameter estimates diverged")

    B = jacobian(theta)
    try:
        if_mu = -(psi @ np.linalg.solve(B.T, np.eye(theta.size)[:, :2]))
        final_step = np.linalg.solve(B, psi.mean(axis=0))
    except np.linalg.LinAlgError:
        raise SingularMatrixError("averaged Jacobian B-hat is singular") from None
    cond = np.linalg.cond(B)
    if not math.isfinite(cond) or cond > 1e14:
        raise SingularMatrixError("averaged Jacobian B-hat is numerically singular")
    # Newton-decrement guard: a vanishing residual with a non-vanishing Newton
    # correction means the root lies at infinity (e.g. logistic separation)
    if np.abs(final_step).max() > 1e-4 * (1.0 + np.abs(theta).max()):
        raise ConvergenceError(
            "residual vanishes but the Newton correction does not: the "
            "estimating equations have no finite root (separation?)"
        )
    return theta, if_mu, SolverDiag(iterations=iterations, residual_norm=residual)


def contrast(estimand: EstimandSpec, theta, if_mu, diag: SolverDiag) -> EstimateResult:
    """Result of a (mu1, mu0, ...) stack with arm-mean influence values ``if_mu``:
    Delta-hat = f(mu1-hat, mu0-hat), its influence values IF_mu grad f (the delta
    method) and theta_hat = (Delta-hat, mu1-hat, mu0-hat, ...)."""
    mu1, mu0 = float(theta[0]), float(theta[1])
    delta = float(estimand.value(mu1, mu0))
    f1, f0 = estimand.gradient(mu1, mu0)
    return EstimateResult(
        delta_hat=delta,
        mu_hat=(mu1, mu0),
        theta_hat=np.concatenate([[delta], theta]),
        if_values=f1 * if_mu[:, 0] + f0 * if_mu[:, 1],
        solver_diag=diag,
    )


# ---------------------------------------------------------------------------
# Model-matrix utilities.


def expand_model_columns(
    frame: TrialFrame, names: Sequence[str], block: Callable[[int], np.ndarray] | None = None
) -> np.ndarray:
    """Resolve covariate names into a dense matrix.

    The special name ``stratum`` expands into drop-first 0/1 dummy columns for the
    frame's stratum labels; all other names must be covariate columns. The columns
    are written straight into ``block(width)``, an (n, width) array that is
    returned (by default a new one).
    """
    columns: list[np.ndarray | Grouping] = []  # a covariate, or the strata for their dummies
    for name in names:
        if name == "stratum" and frame.stratum is None:
            raise ValidationError("frame has no strata to adjust for")
        columns.append(frame.stratum if name == "stratum" else frame.column(name))
    widths = [1 if isinstance(column, np.ndarray) else column.labels.size - 1 for column in columns]
    X = block(sum(widths)) if block else np.empty((frame.n_units, sum(widths)))
    for j, column in zip(np.cumsum([0, *widths]).tolist(), columns):
        if isinstance(column, Grouping):
            for code in range(1, column.labels.size):  # label ``code``'s dummy, as 0/1 floats
                X[:, j + code - 1] = column.codes == code
        else:
            X[:, j] = column
    return X


class _ArmDesign:
    """Design matrix Z = [1, A, X, A*(X - mean X)], built once, and what
    g-computation needs of Z_a, the design with every unit set to arm a, taken
    from Z's X block without forming Z_a."""

    def __init__(self, frame: TrialFrame, covariates: Sequence[str], interactions: bool):
        def x_block(p: int) -> np.ndarray:  # Z's X block: Z holds the only copy of X
            self.Z = np.empty((frame.n_units, 2 + p + (p if interactions else 0)))
            return self.Z[:, 2 : 2 + p]

        self.X = expand_model_columns(frame, covariates, x_block)
        arms = frame.require_arms()
        self.n, self.k = frame.n_units, 2 + self.X.shape[1]
        X_int = self.X if interactions else self.X[:, :0]  # the columns that interact with A
        self.x_mean = X_int.mean(axis=0)
        self.Z[:, 0], self.Z[:, 1] = 1.0, arms
        np.multiply(arms[:, None], X_int - self.x_mean, out=self.Z[:, self.k :])

    @property
    def width(self) -> int:
        return self.Z.shape[1]

    def _centered(self) -> np.ndarray:
        """The interaction columns' X - mean X, formed on demand: Z holds them
        only times A."""
        return self.X[:, : self.x_mean.size] - self.x_mean

    def predict_at(self, a: int, beta: np.ndarray) -> np.ndarray:
        """Z_a beta."""
        eta = self.X @ beta[2 : self.k] + (beta[0] + a * beta[1])
        if a:
            eta += self._centered() @ beta[self.k :]
        return eta

    def column_sums_at(self, a: int, weights: np.ndarray | None = None) -> np.ndarray:
        """Column sums of Z_a, each unit's row weighted by ``weights`` if given."""
        sums = (lambda M: M.sum(axis=0)) if weights is None else (lambda M: weights @ M)
        total = float(self.n) if weights is None else weights.sum()
        return np.concatenate([[total, a * total], sums(self.X), a * sums(self._centered())])


_GRAM_BLOCK_ROWS = 1024  # rows per block of the weighted copy, which stays bounded as n grows


def _weighted_gram(A: np.ndarray, v: np.ndarray, C: np.ndarray | None = None) -> np.ndarray:
    """A' diag(v) C (C defaults to A), summed over fixed blocks of rows so that
    the weighted copy of C is never larger than one block."""
    C = A if C is None else C
    total = None
    for start in range(0, len(v), _GRAM_BLOCK_ROWS):
        rows = slice(start, start + _GRAM_BLOCK_ROWS)
        block = A[rows].T @ (C[rows] * v[rows, None])
        total = block if total is None else total + block
    return total


def _check_full_rank(Z: np.ndarray) -> None:
    if np.linalg.matrix_rank(Z) < Z.shape[1]:
        raise SingularMatrixError("design matrix is rank deficient")


def _ols(Z: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Least squares, weighted if ``weights`` are given; unweighted, Z is not copied."""
    if weights is not None:
        w = np.sqrt(weights)
        Z, y = Z * w[:, None], y * w
    beta, _, rank, _ = np.linalg.lstsq(Z, y, rcond=None)
    if rank < Z.shape[1]:  # lstsq's rank cutoff is matrix_rank's, for Z sqrt(w)
        raise SingularMatrixError("design matrix is rank deficient")
    return beta


def _logistic_ml(
    Z: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Weighted logistic maximum likelihood by damped Newton.

    Raises :class:`ConvergenceError` on separation or a degenerate constant
    outcome, where no finite maximizer exists.
    """
    if y.min() == y.max():
        raise ConvergenceError(
            "degenerate logistic fit: outcome is constant in the training data"
        )
    w = np.ones(len(y)) if weights is None else weights
    beta = np.zeros(Z.shape[1])
    _check_full_rank(Z)
    score_norm = np.inf
    for _ in range(100):
        eta = Z @ beta
        if np.abs(eta).max() > _ETA_SATURATION:
            raise ConvergenceError(
                "logistic fit did not converge: separation suspected "
                "(fitted probabilities saturated)"
            )
        p = expit(eta)
        score = Z.T @ (w * (y - p)) / len(y)
        score_norm = float(np.abs(score).max())
        if score_norm <= 1e-11:
            return beta
        hess = _weighted_gram(Z, w * p * (1.0 - p)) / len(y)
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "logistic fit did not converge: singular information matrix"
            ) from None
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = beta + lam * step
            cand_p = expit(Z @ cand)
            cand_score = Z.T @ (w * (y - cand_p)) / len(y)
            if float(np.abs(cand_score).max()) < score_norm:
                break
            lam *= 0.5
        beta = beta + lam * step
    raise ConvergenceError("logistic fit did not converge after 100 iterations")


# ---------------------------------------------------------------------------
# Concrete estimators.


def estimate_unadjusted(frame: TrialFrame, estimand: EstimandSpec) -> EstimateResult:
    """Contrast of arm-wise means of observed outcomes (complete-case)."""
    arms = frame.require_arms()
    frame.require_outcomes()
    y0 = np.nan_to_num(frame.outcome)
    robs = frame.observed.astype(float)
    a = arms.astype(float)
    treated = (robs * a).sum()
    control = (robs * (1.0 - a)).sum()
    if treated == 0 or control == 0:
        raise ValidationError("both arms need at least one observed outcome")
    n = frame.n_units

    def evaluate(theta: np.ndarray) -> np.ndarray:
        m1, m0 = theta
        return np.column_stack([robs * a * (y0 - m1), robs * (1.0 - a) * (y0 - m0)])

    def jacobian(theta: np.ndarray) -> np.ndarray:
        return np.diag([-treated / n, -control / n])

    theta0 = np.array([(robs * a * y0).sum() / treated, (robs * (1.0 - a) * y0).sum() / control])
    return contrast(estimand, *solve_estimating_equations(evaluate, jacobian, theta0))


def _gcomp(
    frame: TrialFrame,
    covariates: Sequence[str],
    interactions: bool,
    estimand: EstimandSpec,
    link: str,
    missing_covs: Sequence[str] | None = None,
) -> EstimateResult:
    """G-computation: an OLS (identity link) or logistic maximum-likelihood
    start, then Newton on the (mu1, mu0, beta, alpha) stack.

    With ``missing_covs`` a logistic missingness model prop = expit(Zm alpha)
    joins the stack and the outcome rows are weighted by w = R / max(prop,
    PROPENSITY_FLOOR). Without it alpha is empty and prop = w = 1. Under the
    identity link the inverse link's slope is 1, so it is never computed.
    """
    n = frame.n_units
    design = _ArmDesign(frame, covariates, interactions)
    Z, p = design.Z, design.width
    robs = frame.observed.astype(float)
    y = np.nan_to_num(frame.outcome)
    logistic = link != "identity"
    ginv = expit if logistic else (lambda x: x)
    dginv = lambda eta: expit(eta) * (1.0 - expit(eta))  # the logit link's slope

    if missing_covs is None:
        Zm = np.empty((n, 0))
        propensity = lambda alpha: np.ones(n)
        alpha0 = np.empty(0)
    else:
        Zm = _ArmDesign(frame, missing_covs, interactions).Z
        propensity = lambda alpha: expit(Zm @ alpha)
        alpha0 = _logistic_ml(Zm, robs)
    prop0 = propensity(alpha0)
    clipped = int((prop0 < PROPENSITY_FLOOR).sum())
    if clipped:
        warnings.warn(
            f"{clipped} fitted missingness propensities below {PROPENSITY_FLOOR} "
            "were clipped",
            DiagnosticWarning,
            stacklevel=3,
        )
    weights = robs / np.clip(prop0, PROPENSITY_FLOOR, 1.0)
    obs = robs == 1.0
    if logistic:
        beta0 = _logistic_ml(Z[obs], y[obs], weights[obs])
    else:  # without a missingness model every weight is 1
        beta0 = _ols(Z, y, None if missing_covs is None else weights)

    def evaluate(theta: np.ndarray) -> np.ndarray:
        m1, m0 = theta[:2]
        beta, alpha = theta[2 : 2 + p], theta[2 + p :]
        prop = propensity(alpha)
        w = robs / np.clip(prop, PROPENSITY_FLOOR, 1.0)
        psi = np.empty((n, theta.size))  # filled in place: no weighted copy of Z
        psi[:, 0] = ginv(design.predict_at(1, beta)) - m1
        psi[:, 1] = ginv(design.predict_at(0, beta)) - m0
        np.multiply((w * (y - ginv(Z @ beta)))[:, None], Z, out=psi[:, 2 : 2 + p])
        np.multiply((robs - prop)[:, None], Zm, out=psi[:, 2 + p :])
        return psi

    def jacobian(theta: np.ndarray) -> np.ndarray:
        beta, alpha = theta[2 : 2 + p], theta[2 + p :]
        prop = propensity(alpha)
        w = robs / np.clip(prop, PROPENSITY_FLOOR, 1.0)
        # dw/d(Zm alpha) is -w (1 - prop), and 0 where the floor clips prop
        dw = np.where(prop < PROPENSITY_FLOOR, 0.0, -w * (1.0 - prop))
        B = np.zeros((theta.size, theta.size))
        B[0, 0] = B[1, 1] = -1.0
        for row, a in ((0, 1), (1, 0)):
            slope = dginv(design.predict_at(a, beta)) if logistic else None
            B[row, 2 : 2 + p] = design.column_sums_at(a, slope) / n
        fitted_w = w * dginv(Z @ beta) if logistic else w
        B[2 : 2 + p, 2 : 2 + p] = -_weighted_gram(Z, fitted_w) / n
        B[2 : 2 + p, 2 + p :] = _weighted_gram(Z, dw * (y - ginv(Z @ beta)), Zm) / n
        B[2 + p :, 2 + p :] = -_weighted_gram(Zm, prop * (1.0 - prop)) / n
        return B

    arm_means = [np.mean(ginv(design.predict_at(a, beta0))) for a in (1, 0)]
    theta0 = np.concatenate([arm_means, beta0, alpha0])
    result = contrast(estimand, *solve_estimating_equations(evaluate, jacobian, theta0))
    if missing_covs is not None:
        result.details["propensity_clip_count"] = clipped
    return result


def estimate_ancova(
    frame: TrialFrame,
    covariates: Sequence[str],
    interactions: bool,
    estimand: EstimandSpec,
) -> EstimateResult:
    """Least-squares covariate adjustment with g-computation.

    Without interactions and on the difference scale the estimate equals the
    fitted treatment coefficient; with interactions (centered at sample means)
    the estimate is produced by averaging predictions under both arm settings.
    """
    _require_complete(frame)
    return _gcomp(frame, covariates, interactions, estimand, "identity")


def estimate_gcomp_logistic(
    frame: TrialFrame,
    covariates: Sequence[str],
    interactions: bool,
    estimand: EstimandSpec,
) -> EstimateResult:
    """Logistic-regression g-computation for binary outcomes."""
    _require_complete(frame)
    if not np.isin(frame.outcome, (0.0, 1.0)).all():
        raise ValidationError("logistic g-computation requires a binary outcome")
    return _gcomp(frame, covariates, interactions, estimand, "logit")


def estimate_drwls(
    frame: TrialFrame,
    outcome_covs: Sequence[str],
    missing_covs: Sequence[str],
    link: str,
    interactions: bool,
    estimand: EstimandSpec,
) -> EstimateResult:
    """Doubly-robust weighted least squares under outcome missingness.

    Three stages: a logistic missingness model, an inverse-propensity-weighted
    outcome regression on observed rows, then g-computation. The influence
    values come from the joint stack, so the sandwich reflects all
    fitted nuisances. Fitted propensities are clipped below at 0.01 with a
    recorded diagnostic. With no missing outcomes the missingness stage is
    dropped and the estimator reduces to plain g-computation.
    """
    if link not in ("identity", "logit"):
        raise ValidationError(f"unknown link '{link}'")
    frame.require_arms()
    frame.require_outcomes()
    missing = None if frame.observed.min() == 1 else missing_covs
    return _gcomp(frame, outcome_covs, interactions, estimand, link, missing)


def _require_complete(frame: TrialFrame) -> None:
    frame.require_outcomes()
    if frame.observed.min() == 0:
        raise ValidationError(
            "estimator requires complete outcomes; use the doubly-robust "
            "estimator for missing data"
        )


# ---------------------------------------------------------------------------
# Mixed-model ANCOVA for cluster-randomized frames.


class _ClusterData:
    def __init__(self, frame: TrialFrame, design: _ArmDesign):
        if frame.cluster is None:
            raise ValidationError("mixed-model estimator requires cluster ids")
        _require_complete(frame)
        arms = frame.require_arms()
        self.clusters = frame.cluster
        self.sizes = self.clusters.counts
        cluster_arms = self.clusters.common_values(arms, "cluster '{}' mixes treatment arms")
        if (cluster_arms == 1).sum() < 2 or (cluster_arms == 0).sum() < 2:
            raise ValidationError("need at least two clusters per arm")
        self.y = frame.outcome
        self.Z = design.Z
        # per-cluster summaries used by the closed-form V inverse
        self.z_sum = self.clusters.sums(self.Z)
        self.y_sum = self.clusters.sums(self.y)
        self.ZtZ = self.Z.T @ self.Z
        self.Zty = self.Z.T @ self.y
        self.n_obs = int(self.sizes.sum())

    def gls_beta(self, lam: float) -> np.ndarray:
        """GLS coefficients under cluster covariances proportional to I + lam 11'."""
        c = lam / (1.0 + self.sizes * lam)
        M = self.ZtZ - (self.z_sum * c[:, None]).T @ self.z_sum
        rhs = self.Zty - self.z_sum.T @ (c * self.y_sum)
        return np.linalg.solve(M, rhs)

    def profile(self, lam: float) -> tuple[float, float]:
        """The slope in lam of the deviance -2 log L profiled over (beta,
        sigma^2) at lam = tau^2 / sigma^2, and sigma^2-hat(lam)."""
        resid = self.y - self.Z @ self.gls_beta(lam)
        r_sum = self.clusters.sums(resid)
        h = 1.0 + self.sizes * lam
        q = float(resid @ resid - lam * (r_sum**2 / h).sum())
        slope = float((self.sizes / h).sum() - self.n_obs * ((r_sum / h) ** 2).sum() / q)
        return slope, q / self.n_obs

    def lambda_hat(self) -> float:
        """Maximum-likelihood lam: 0 where the profiled deviance rises from
        lam = 0 or every cluster is a singleton (lam is then not identified),
        else the sign change of its slope, bracketed by doubling and bisected
        down to adjacent floats; a root at or below 1e-6 snaps to 0."""
        if (self.sizes == 1).all() or self.profile(0.0)[0] >= 0:
            return 0.0
        lo, hi = 0.0, 1.0
        while self.profile(hi)[0] < 0:
            if hi > 1e12:
                raise ConvergenceError(
                    "mixed-model likelihood has no maximum: it grows without "
                    "bound in tau^2 / sigma^2"
                )
            lo, hi = hi, 2.0 * hi
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if self.profile(mid)[0] < 0:
                lo = mid
            else:
                hi = mid
        return hi if hi > 1e-6 else 0.0


def estimate_mixed_ancova(
    frame: TrialFrame,
    covariates: Sequence[str],
    interactions: bool,
    estimand: EstimandSpec,
) -> EstimateResult:
    """Random-intercept linear mixed model with cluster-level influence values.

    Maximum likelihood profiles the Gaussian likelihood over lam = tau^2 /
    sigma^2 >= 0 (Bates, Maechler, Bolker & Walker 2015): for fixed lam,
    beta-hat is GLS and sigma^2-hat its closed-form residual quadratic form
    over n, both from the closed-form inverse of sigma^2 (I + lam 11'). lam-hat
    is 0 or the root of the profiled score (``_ClusterData.lambda_hat``).
    Clusters are the analysis units: the returned influence values have one
    entry per cluster. When lam-hat is 0, tau^2 is 0 and its estimating row is
    dropped from the sandwich stack.
    """
    design = _ArmDesign(frame, covariates, interactions)
    data = _ClusterData(frame, design)
    _check_full_rank(data.Z)
    lam = data.lambda_hat()
    boundary = lam == 0.0
    p = design.width
    clusters = data.clusters
    N = clusters.counts
    # each unit weighs 1 / (its cluster's size * the number of clusters) in the
    # arm means: the mean over clusters of cluster means
    share = (1.0 / (N * N.size))[clusters.codes]
    z1_mean, z0_mean = (design.column_sums_at(a, share) for a in (1, 0))

    def parts(theta):
        beta = theta[2 : 2 + p]
        s2 = theta[2 + p]
        t2 = 0.0 if boundary else theta[3 + p]
        resid = data.y - data.Z @ beta
        r_sum = clusters.sums(resid)
        d = s2 + N * t2
        vr = resid / s2 - (t2 * r_sum / (s2 * d))[clusters.codes]  # V^-1 r
        return beta, s2, t2, r_sum, d, vr

    def evaluate(theta: np.ndarray) -> np.ndarray:
        m1, m0 = theta[:2]
        beta, s2, t2, r_sum, d, vr = parts(theta)
        columns = [
            m1 - clusters.sums(design.predict_at(1, beta)) / N,
            m0 - clusters.sums(design.predict_at(0, beta)) / N,
            clusters.sums(data.Z, vr),
            -(N / s2 - t2 * N / (s2 * d)) + clusters.sums(vr * vr),
        ]
        if not boundary:
            columns.append(-N / d + (r_sum / d) ** 2)
        return np.column_stack(columns)

    def jacobian(theta: np.ndarray) -> np.ndarray:
        beta, s2, t2, r_sum, d, vr = parts(theta)
        u = vr / s2 - (t2 * r_sum / (s2 * d**2))[clusters.codes]  # V^-2 r
        zs = data.z_sum
        # (beta, sigma^2, tau^2) rows summed over clusters, from V^-1 1 = 1/d,
        # dV^-1/dsigma^2 = -V^-2 and dV^-1/dtau^2 = -11'/d^2 per cluster
        H = np.empty((p + 2, p + 2))
        H[:p, :p] = (zs * (t2 / (s2 * d))[:, None]).T @ zs - data.ZtZ / s2
        H[:p, p] = -(data.Z.T @ u)
        H[:p, p + 1] = -(zs.T @ (r_sum / d**2))
        H[p, :p] = 2.0 * H[:p, p]
        H[p + 1, :p] = 2.0 * H[:p, p + 1]
        H[p, p] = ((N - 1) / s2**2 + 1.0 / d**2).sum() - 2.0 * (vr @ u)
        H[p, p + 1] = H[p + 1, p] = (N / d**2 - 2.0 * r_sum**2 / d**3).sum()
        H[p + 1, p + 1] = (N**2 / d**2 - 2.0 * N * r_sum**2 / d**3).sum()
        B = np.zeros((theta.size, theta.size))
        B[0, 0] = B[1, 1] = 1.0
        B[0, 2 : 2 + p] = -z1_mean
        B[1, 2 : 2 + p] = -z0_mean
        B[2:, 2:] = H[: theta.size - 2, : theta.size - 2] / N.size
        return B

    beta_init = data.gls_beta(lam)
    sigma2 = data.profile(lam)[1]
    arm_means = [np.mean(clusters.sums(design.predict_at(a, beta_init)) / N) for a in (1, 0)]
    tail = [sigma2] if boundary else [sigma2, lam * sigma2]
    theta0 = np.concatenate([arm_means, beta_init, tail])
    theta, if_mu, diag = solve_estimating_equations(evaluate, jacobian, theta0)
    result = contrast(estimand, theta, if_mu, diag)
    result.details.update(
        sigma2=float(theta[2 + p]), tau2=0.0 if boundary else float(theta[3 + p])
    )
    return result

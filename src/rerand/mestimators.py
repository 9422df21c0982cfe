"""Estimating-equation solver with sandwich machinery and concrete estimators.

Every estimator here is the root of a stacked system sum_i psi(O_i; theta) = 0
whose first coordinate is the treatment effect. Per-unit influence values are
the first entry of -B_hat^{-1} psi(O_i; theta_hat) with B_hat the averaged
Jacobian, so they sum to zero by construction and their mean square is the
sandwich variance.

Stage-wise fits (OLS, IRLS, profile likelihood) provide warm starts; a damped
Newton pass then drives the stacked residual below tolerance and assembles the
influence values at the solution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .data_model import (
    EstimandSpec,
    EstimateResult,
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


@dataclass
class PsiSpec:
    """A stacked estimating-function specification.

    ``evaluate(frame, theta)`` returns the (n, dim) matrix of per-unit psi
    values. ``jacobian``, when given, returns the averaged (dim, dim) Jacobian
    of the mean estimating function; otherwise central finite differences are
    used with step max(1e-6, 1e-6 |theta_j|).
    """

    dim: int
    evaluate: Callable[[TrialFrame, np.ndarray], np.ndarray]
    theta0: np.ndarray
    jacobian: Callable[[TrialFrame, np.ndarray], np.ndarray] | None = None


def _fd_jacobian(evaluate, frame, theta: np.ndarray) -> np.ndarray:
    dim = theta.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        h = max(1e-6, 1e-6 * abs(theta[j]))
        plus = theta.copy()
        plus[j] += h
        minus = theta.copy()
        minus[j] -= h
        jac[:, j] = (
            evaluate(frame, plus).mean(axis=0) - evaluate(frame, minus).mean(axis=0)
        ) / (2.0 * h)
    return jac


def solve_estimating_equations(
    spec: PsiSpec, frame: TrialFrame
) -> tuple[np.ndarray, np.ndarray, SolverDiag]:
    """Solve sum_i psi(O_i; theta) = 0 by damped Newton with step halving.

    Returns (theta_hat, the (n, dim) influence matrix -psi B_hat^-T at
    theta_hat, diagnostics). The returned residual satisfies
    ||n^-1 sum psi||_inf <= 1e-10; every failure raises.
    """
    theta = np.array(spec.theta0, dtype=float)
    if theta.shape != (spec.dim,) or not np.all(np.isfinite(theta)):
        raise ValidationError("theta0 must be a finite vector of length dim")
    jac = spec.jacobian or (lambda fr, th: _fd_jacobian(spec.evaluate, fr, th))

    psi = spec.evaluate(frame, theta)
    residual = float(np.abs(psi.mean(axis=0)).max())
    iterations = 0
    while residual > _RESIDUAL_TOL:
        if iterations >= _MAX_NEWTON_ITER:
            raise ConvergenceError(
                f"estimating equations not solved after {iterations} iterations "
                f"(residual {residual:.2e})"
            )
        iterations += 1
        B = jac(frame, theta)
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
            cand_psi = spec.evaluate(frame, candidate)
            cand_res = float(np.abs(cand_psi.mean(axis=0)).max())
            if math.isfinite(cand_res) and cand_res < residual:
                break
            lam *= 0.5
        else:
            candidate = theta + lam * step
            cand_psi = spec.evaluate(frame, candidate)
            cand_res = float(np.abs(cand_psi.mean(axis=0)).max())
        theta, psi, residual = candidate, cand_psi, cand_res
        if not np.all(np.isfinite(theta)) or np.abs(theta).max() > 1e10:
            raise ConvergenceError("parameter estimates diverged")

    B = jac(frame, theta)
    try:
        if_matrix = -np.linalg.solve(B, psi.T).T
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
    return theta, if_matrix, SolverDiag(iterations=iterations, residual_norm=residual)


# ---------------------------------------------------------------------------
# Model-matrix utilities.


def expand_model_columns(frame: TrialFrame, names: Sequence[str]) -> np.ndarray:
    """Resolve covariate names into a dense matrix.

    The special name ``stratum`` expands into drop-first dummy columns for the
    frame's stratum labels; all other names must be covariate columns.
    """
    columns: list[np.ndarray] = []
    for name in names:
        if name == "stratum":
            if frame.stratum is None:
                raise ValidationError("frame has no strata to adjust for")
            strata = frame.stratum_groups
            dummies = strata.codes[:, None] == np.arange(1, strata.labels.size)
            columns.append(dummies.astype(float))
        else:
            columns.append(frame.column(name))
    if not columns:
        return np.empty((frame.n_units, 0))
    return np.column_stack(columns)


class _ArmDesign:
    """Design matrix [1, A, X, A*(X - mean X)] and its g-comp variants."""

    def __init__(self, frame: TrialFrame, covariates: Sequence[str], interactions: bool):
        self.X = expand_model_columns(frame, covariates)
        if interactions:
            self.X_int = self.X - self.X.mean(axis=0)
        else:
            self.X_int = np.empty((frame.n_units, 0))
        self.n = frame.n_units

    @property
    def width(self) -> int:
        return 2 + self.X.shape[1] + self.X_int.shape[1]

    def matrix(self, arms: np.ndarray) -> np.ndarray:
        arms = np.asarray(arms, dtype=float)
        return np.column_stack(
            [np.ones(self.n), arms, self.X, arms[:, None] * self.X_int]
        )

    def matrix_at(self, a: int) -> np.ndarray:
        return self.matrix(np.full(self.n, float(a)))


def _check_full_rank(Z: np.ndarray) -> None:
    if np.linalg.matrix_rank(Z) < Z.shape[1]:
        raise SingularMatrixError("design matrix is rank deficient")


def _ols(Z: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    _check_full_rank(Z)
    if weights is None:
        beta, *_ = np.linalg.lstsq(Z, y, rcond=None)
    else:
        w = np.sqrt(weights)
        beta, *_ = np.linalg.lstsq(Z * w[:, None], y * w, rcond=None)
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
        hess = Z.T @ (Z * (w * p * (1.0 - p))[:, None]) / len(y)
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
    y0 = np.where(frame.observed == 1, np.nan_to_num(frame.outcome), 0.0)
    robs = frame.observed.astype(float)
    a = arms.astype(float)
    treated = (robs * a).sum()
    control = (robs * (1.0 - a)).sum()
    if treated == 0 or control == 0:
        raise ValidationError("both arms need at least one observed outcome")
    mu1 = float((robs * a * y0).sum() / treated)
    mu0 = float((robs * (1.0 - a) * y0).sum() / control)

    def evaluate(fr: TrialFrame, theta: np.ndarray) -> np.ndarray:
        delta, m1, m0 = theta
        return np.column_stack(
            [
                np.full(fr.n_units, estimand.value(m1, m0) - delta),
                robs * a * (y0 - m1),
                robs * (1.0 - a) * (y0 - m0),
            ]
        )

    def jacobian(fr: TrialFrame, theta: np.ndarray) -> np.ndarray:
        _, m1, m0 = theta
        f1, f0 = estimand.gradient(m1, m0)
        n = fr.n_units
        return np.array(
            [
                [-1.0, f1, f0],
                [0.0, -treated / n, 0.0],
                [0.0, 0.0, -control / n],
            ]
        )

    theta0 = np.array([estimand.value(mu1, mu0), mu1, mu0])
    spec = PsiSpec(dim=3, evaluate=evaluate, theta0=theta0, jacobian=jacobian)
    theta, if_matrix, diag = solve_estimating_equations(spec, frame)
    return _result_from_parts(theta, if_matrix, diag)


def _gcomp(
    frame: TrialFrame,
    covariates: Sequence[str],
    interactions: bool,
    estimand: EstimandSpec,
    link: str,
) -> EstimateResult:
    """G-computation on complete outcomes: an OLS (identity link) or logistic
    maximum-likelihood start, then Newton on the (Delta, mu1, mu0, beta) stack."""
    design = _ArmDesign(frame, covariates, interactions)
    y = frame.outcome
    Z = design.matrix(frame.require_arms())
    beta0 = _ols(Z, y) if link == "identity" else _logistic_ml(Z, y)
    Z1 = design.matrix_at(1)
    Z0 = design.matrix_at(0)
    ginv = (lambda x: x) if link == "identity" else expit
    dginv = (lambda x: np.ones_like(x)) if link == "identity" else (lambda x: expit(x) * (1 - expit(x)))

    def evaluate(fr: TrialFrame, theta: np.ndarray) -> np.ndarray:
        delta, m1, m0 = theta[:3]
        beta = theta[3:]
        pred = ginv(Z @ beta)
        return np.column_stack(
            [
                np.full(fr.n_units, estimand.value(m1, m0) - delta),
                ginv(Z1 @ beta) - m1,
                ginv(Z0 @ beta) - m0,
                (y - pred)[:, None] * Z,
            ]
        )

    def jacobian(fr: TrialFrame, theta: np.ndarray) -> np.ndarray:
        _, m1, m0 = theta[:3]
        beta = theta[3:]
        f1, f0 = estimand.gradient(m1, m0)
        p = design.width
        B = np.zeros((3 + p, 3 + p))
        B[0, :3] = [-1.0, f1, f0]
        B[1, 1] = -1.0
        B[1, 3:] = (dginv(Z1 @ beta)[:, None] * Z1).mean(axis=0)
        B[2, 2] = -1.0
        B[2, 3:] = (dginv(Z0 @ beta)[:, None] * Z0).mean(axis=0)
        B[3:, 3:] = -(Z.T @ (Z * dginv(Z @ beta)[:, None])) / fr.n_units
        return B

    mu1 = float(np.mean(ginv(Z1 @ beta0)))
    mu0 = float(np.mean(ginv(Z0 @ beta0)))
    theta0 = np.concatenate([[estimand.value(mu1, mu0), mu1, mu0], beta0])
    spec = PsiSpec(dim=3 + design.width, evaluate=evaluate, theta0=theta0, jacobian=jacobian)
    return _result_from_parts(*solve_estimating_equations(spec, frame))


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
    values come from the joint five-block stack, so the sandwich reflects all
    fitted nuisances. Fitted propensities are clipped below at 0.01 with a
    recorded diagnostic. With no missing outcomes the missingness stage is
    dropped and the estimator reduces to plain g-computation.
    """
    if link not in ("identity", "logit"):
        raise ValidationError(f"unknown link '{link}'")
    arms = frame.require_arms()
    frame.require_outcomes()
    robs = frame.observed.astype(float)
    if robs.min() == 1.0:
        result = _gcomp(frame, outcome_covs, interactions, estimand, link)
        result.details["missingness_model"] = "none (no missing outcomes)"
        return result

    out_design = _ArmDesign(frame, outcome_covs, interactions)
    miss_design = _ArmDesign(frame, missing_covs, interactions)
    Zo = out_design.matrix(arms)
    Zo1 = out_design.matrix_at(1)
    Zo0 = out_design.matrix_at(0)
    Zm = miss_design.matrix(arms)
    y0 = np.where(robs == 1.0, np.nan_to_num(frame.outcome), 0.0)
    ginv = (lambda x: x) if link == "identity" else expit

    alpha0 = _logistic_ml(Zm, robs)
    prop_raw = expit(Zm @ alpha0)
    clipped = int((prop_raw < PROPENSITY_FLOOR).sum())
    if clipped:
        warnings.warn(
            f"{clipped} fitted missingness propensities below {PROPENSITY_FLOOR} "
            "were clipped",
            DiagnosticWarning,
            stacklevel=2,
        )
    weights = robs / np.clip(prop_raw, PROPENSITY_FLOOR, 1.0)
    if link == "identity":
        beta0 = _ols(Zo, y0, weights=weights)
    else:
        obs = robs == 1.0
        beta0 = _logistic_ml(Zo[obs], y0[obs], weights=weights[obs])

    p_out = out_design.width
    p_miss = miss_design.width

    def evaluate(fr: TrialFrame, theta: np.ndarray) -> np.ndarray:
        delta, m1, m0 = theta[:3]
        beta = theta[3 : 3 + p_out]
        alpha = theta[3 + p_out :]
        prop = expit(Zm @ alpha)
        w = robs / np.clip(prop, PROPENSITY_FLOOR, 1.0)
        return np.column_stack(
            [
                np.full(fr.n_units, estimand.value(m1, m0) - delta),
                ginv(Zo1 @ beta) - m1,
                ginv(Zo0 @ beta) - m0,
                (w * (y0 - ginv(Zo @ beta)))[:, None] * Zo,
                (robs - prop)[:, None] * Zm,
            ]
        )

    mu1 = float(np.mean(ginv(Zo1 @ beta0)))
    mu0 = float(np.mean(ginv(Zo0 @ beta0)))
    theta0 = np.concatenate([[estimand.value(mu1, mu0), mu1, mu0], beta0, alpha0])
    spec = PsiSpec(dim=3 + p_out + p_miss, evaluate=evaluate, theta0=theta0)
    theta, if_matrix, diag = solve_estimating_equations(spec, frame)
    result = _result_from_parts(theta, if_matrix, diag)
    result.details["propensity_clip_count"] = clipped
    return result


def _require_complete(frame: TrialFrame) -> None:
    frame.require_outcomes()
    if frame.observed.min() == 0:
        raise ValidationError(
            "estimator requires complete outcomes; use the doubly-robust "
            "estimator for missing data"
        )


def _result_from_parts(
    theta: np.ndarray, if_matrix: np.ndarray, diag: SolverDiag
) -> EstimateResult:
    """Result of a (Delta, mu1, mu0, ...) stack."""
    return EstimateResult(
        delta_hat=float(theta[0]),
        mu_hat=(float(theta[1]), float(theta[2])),
        theta_hat=theta,
        if_values=if_matrix[:, 0].copy(),
        solver_diag=diag,
        details={},
    )


# ---------------------------------------------------------------------------
# Mixed-model ANCOVA for cluster-randomized frames.


class _ClusterData:
    def __init__(self, frame: TrialFrame, design: _ArmDesign):
        if frame.cluster is None:
            raise ValidationError("mixed-model estimator requires cluster ids")
        _require_complete(frame)
        arms = frame.require_arms()
        self.clusters = frame.cluster_groups
        self.sizes = self.clusters.counts
        cluster_arms = self.clusters.common_values(arms, "cluster '{}' mixes treatment arms")
        if (cluster_arms == 1).sum() < 2 or (cluster_arms == 0).sum() < 2:
            raise ValidationError("need at least two clusters per arm")
        self.y = frame.outcome
        self.Z = design.matrix(arms)
        self.Z1 = design.matrix_at(1)
        self.Z0 = design.matrix_at(0)
        # per-cluster summaries used by the closed-form V inverse
        self.z_sum = self.clusters.sums(self.Z)
        self.y_sum = self.clusters.sums(self.y)
        self.ZtZ = self.Z.T @ self.Z
        self.Zty = self.Z.T @ self.y
        self.yty = float(self.y @ self.y)
        self.n_obs = int(self.sizes.sum())

    def gls_beta(self, sigma2: float, tau2: float) -> np.ndarray:
        c = tau2 / (sigma2 + self.sizes * tau2)
        M = self.ZtZ - (self.z_sum * c[:, None]).T @ self.z_sum
        rhs = self.Zty - self.z_sum.T @ (c * self.y_sum)
        return np.linalg.solve(M, rhs)

    def neg2_loglik(self, sigma2: float, tau2: float) -> float:
        beta = self.gls_beta(sigma2, tau2)
        resid_sum = self.y_sum - self.z_sum @ beta
        c = tau2 / (sigma2 + self.sizes * tau2)
        rss = self.yty - 2 * beta @ self.Zty + beta @ self.ZtZ @ beta
        quad = (rss - (c * resid_sum**2).sum()) / sigma2
        logdet = self.n_obs * math.log(sigma2) + np.log(
            1.0 + self.sizes * tau2 / sigma2
        ).sum()
        return float(self.n_obs * math.log(2 * math.pi) + logdet + quad)


def estimate_mixed_ancova(
    frame: TrialFrame,
    covariates: Sequence[str],
    interactions: bool,
    estimand: EstimandSpec,
) -> EstimateResult:
    """Random-intercept linear mixed model with cluster-level influence values.

    Maximum likelihood is computed by profiling the Gaussian likelihood over
    (sigma^2, tau^2 >= 0) using the closed-form inverse of
    sigma^2 I + tau^2 11'. Clusters are the analysis units: the returned
    influence values have one entry per cluster. When tau^2 is estimated at
    the boundary its estimating row is dropped from the sandwich stack.
    """
    design = _ArmDesign(frame, covariates, interactions)
    data = _ClusterData(frame, design)
    _check_full_rank(data.Z)

    beta_ols = _ols(data.Z, data.y)
    resid = data.y - data.Z @ beta_ols
    v_resid = max(float(resid @ resid) / max(data.n_obs - data.Z.shape[1], 1), 1e-8)
    v_between = max(float(np.var(data.clusters.sums(resid) / data.sizes)), 1e-8)

    def objective(params):
        s2, t2 = params
        if s2 <= 0:
            return np.inf
        return data.neg2_loglik(s2, max(t2, 0.0))

    starts = [(v_resid, 0.0), (max(v_resid - v_between, v_resid / 2), v_between)]
    best = None
    for start in starts:
        fit = minimize(
            objective,
            x0=np.array(start),
            method="L-BFGS-B",
            bounds=[(1e-8 * v_resid, None), (0.0, None)],
        )
        if best is None or fit.fun < best.fun - 1e-9 * abs(best.fun):
            best = fit
        elif abs(fit.fun - best.fun) <= 1e-9 * abs(best.fun) and fit.x[1] < best.x[1]:
            best = fit
    if best is None or not np.isfinite(best.fun):
        raise ConvergenceError("mixed-model likelihood optimization failed")
    sigma2, tau2 = float(best.x[0]), float(max(best.x[1], 0.0))
    # all-singleton clusters identify only sigma^2 + tau^2: resolve to tau^2 = 0
    boundary = tau2 <= 1e-6 * sigma2 or (data.sizes == 1).all()
    if boundary:
        sigma2 = sigma2 + tau2 if (data.sizes == 1).all() else sigma2
        tau2 = 0.0

    return _mixed_stack(frame, design, data, estimand, sigma2, tau2, boundary)


def _mixed_stack(frame, design, data, estimand, sigma2, tau2, boundary):
    p = design.width
    clusters = data.clusters
    N = clusters.counts
    beta_init = data.gls_beta(sigma2, tau2)

    def evaluate(fr: TrialFrame, theta: np.ndarray) -> np.ndarray:
        delta, m1, m0 = theta[:3]
        beta = theta[3 : 3 + p]
        s2 = theta[3 + p]
        t2 = 0.0 if boundary else theta[4 + p]
        resid = data.y - data.Z @ beta
        r_sum = clusters.sums(resid)
        denom = s2 + N * t2
        vr = resid / s2 - (t2 * r_sum / (s2 * denom))[clusters.codes]
        columns = [
            np.full(N.size, estimand.value(m1, m0) - delta),
            m1 - clusters.sums(data.Z1 @ beta) / N,
            m0 - clusters.sums(data.Z0 @ beta) / N,
            clusters.sums(data.Z * vr[:, None]),
            -(N / s2 - t2 * N / (s2 * denom)) + clusters.sums(vr * vr),
        ]
        if not boundary:
            columns.append(-N / denom + (r_sum / denom) ** 2)
        return np.column_stack(columns)

    mu1 = float(np.mean(clusters.sums(data.Z1 @ beta_init) / N))
    mu0 = float(np.mean(clusters.sums(data.Z0 @ beta_init) / N))
    head = [estimand.value(mu1, mu0), mu1, mu0]
    tail = [sigma2] if boundary else [sigma2, tau2]
    theta0 = np.concatenate([head, beta_init, tail])
    spec = PsiSpec(dim=len(theta0), evaluate=evaluate, theta0=theta0)
    theta, if_matrix, diag = solve_estimating_equations(spec, frame)
    if not boundary and theta[4 + p] < 0:
        # Newton polished tau^2 below zero: refit on the boundary stack
        return _mixed_stack(frame, design, data, estimand, float(theta[3 + p]), 0.0, True)
    result = _result_from_parts(theta, if_matrix, diag)
    result.details.update(
        {
            "sigma2": float(theta[3 + p]),
            "tau2": 0.0 if boundary else float(theta[4 + p]),
        }
    )
    return result

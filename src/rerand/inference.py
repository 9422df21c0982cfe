"""Variance and R-squared estimation plus the non-Gaussian limit machinery.

Estimator asymptotics under constrained randomization take the form
sqrt(V) * (sqrt(1-R^2) z + sqrt(R^2) r_{q,t}) with z standard normal and
r_{q,t} the first coordinate of a standard q-normal conditioned on squared
norm < t. This module estimates (V, R^2) and their stratified counterparts
from per-unit influence values, samples the limit law by rejection, and turns
the draws into Monte-Carlo confidence intervals.

All estimator-side functions are pure; samplers own a seeded generator, so
independent computations may run concurrently with distinct seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .allocation import (
    _as_matrix,
    balance_distance,
    chi_square_cdf,
    imbalance_simple,
    imbalance_stratified,
)
from .data_model import DistanceSpec
from .errors import DiagnosticWarning, NumericError, ValidationError


@dataclass(frozen=True)
class LimitSpec:
    """Parameters of the asymptotic law of sqrt(n) * (estimate - truth).

    ``projection`` carries (C, V_I, H_bar) and must be present exactly when
    ``distance.kind == "general"``; it selects the projection form of the
    limit in place of the scalar-R^2 mixture.
    """

    V: float
    R2: float
    q: int
    t: float
    distance: DistanceSpec = DistanceSpec()
    projection: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.V < 0:
            raise ValidationError("V must be nonnegative")
        if not 0.0 <= self.R2 <= 1.0:
            raise ValidationError("R2 must lie in [0, 1]")
        if (self.projection is not None) != (self.distance.kind == "general"):
            raise ValidationError(
                "projection must be given exactly for the general distance"
            )


@dataclass(frozen=True)
class CIResult:
    lower: float
    upper: float
    alpha: float
    draws: int
    v_qt: float


def v_qt(q: int, t: float) -> float:
    """Variance of r_{q,t}: P(chi^2_{q+2} < t) / P(chi^2_q < t); 1 at t = inf."""
    if math.isinf(t):
        return 1.0
    denom = chi_square_cdf(q, t)
    if denom == 0.0:
        raise NumericError("threshold t too small: P(chi^2_q < t) underflows")
    return chi_square_cdf(q + 2, t) / denom


def variance_simple(if_values: np.ndarray) -> float:
    """Sandwich variance: the mean squared influence value."""
    if_values = np.asarray(if_values, dtype=float)
    if if_values.size < 2:
        raise ValidationError("need at least two influence values")
    return float(np.mean(if_values**2))


def if_imbalance_covariance(
    if_values: np.ndarray, arms: np.ndarray, Xr: np.ndarray, pi: float
) -> np.ndarray:
    """C-hat: mean of (A-pi)/(pi(1-pi)) * IF * (X^r - mean X^r) over units."""
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    Xr = _as_matrix(Xr)
    w = (arms - pi) / (pi * (1.0 - pi))
    centered = Xr - Xr.mean(axis=0)
    return (w * if_values) @ centered / if_values.size


def rsquared_simple(
    if_values: np.ndarray, arms: np.ndarray, Xr: np.ndarray, pi: float
) -> float:
    """Fraction of the sandwich variance explained by X^r.

    Computes C-hat' {n Vhat(I)}^-1 C-hat / V-hat, clamped to [0, 1] with a
    diagnostic warning when the raw value falls outside.
    """
    vhat = variance_simple(if_values)
    if vhat == 0.0:
        raise NumericError("V-hat is zero: R^2 undefined")
    Xr = _as_matrix(Xr)
    c_hat = if_imbalance_covariance(if_values, arms, Xr, pi)
    _, var_i = imbalance_simple(Xr, arms)
    n = len(if_values)
    raw = _quadratic_form(c_hat, n * var_i) / vhat
    return _clamp_unit(raw, "R^2")


def variance_stratified(
    if_values: np.ndarray, arms: np.ndarray, strata: np.ndarray, pi: float
) -> float:
    """Stratified-scheme variance: V-hat minus the between-stratum component.

    Returns V-hat - pi(1-pi) * sum_s phat_s dhat_s^2, floored at zero with a
    diagnostic warning when the subtraction goes negative in small samples.
    """
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    strata = np.asarray(strata, dtype=object)
    vhat = variance_simple(if_values)
    w = (arms - pi) / (pi * (1.0 - pi))
    weighted = w * if_values
    n = if_values.size
    reduction = 0.0
    for label in set(strata.tolist()):
        mask = strata == label
        if not mask.any():
            raise ValidationError(f"empty stratum '{label}'")
        p_s = mask.sum() / n
        d_s = weighted[mask].sum() / n / p_s
        reduction += p_s * d_s**2
    value = vhat - pi * (1.0 - pi) * reduction
    if value < 0.0:
        warnings.warn(
            f"stratified variance estimate {value:.3e} floored at 0",
            DiagnosticWarning,
            stacklevel=2,
        )
        value = 0.0
    return float(value)


def if_imbalance_covariance_stratified(
    if_values: np.ndarray,
    arms: np.ndarray,
    strata: np.ndarray,
    Xr: np.ndarray,
    pi: float,
) -> np.ndarray:
    """Stratum-centered C-hat: sum_s phat_s [mean_s(w IF X^r) - dhat_s xbar_s]."""
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    strata = np.asarray(strata, dtype=object)
    Xr = _as_matrix(Xr)
    n = if_values.size
    w = (arms - pi) / (pi * (1.0 - pi))
    weighted = w * if_values
    total = np.zeros(Xr.shape[1])
    for label in set(strata.tolist()):
        mask = strata == label
        p_s = mask.sum() / n
        d_s = weighted[mask].sum() / n / p_s
        xbar_s = Xr[mask].sum(axis=0) / n / p_s
        moment = weighted[mask] @ Xr[mask] / n / p_s
        total += p_s * (moment - d_s * xbar_s)
    return total


def rsquared_stratified(
    if_values: np.ndarray,
    arms: np.ndarray,
    strata: np.ndarray,
    Xr: np.ndarray,
    pi: float,
) -> float:
    """Stratified R^2: C-hat' {n Vhat(I-tilde)}^-1 C-hat / V-tilde-hat."""
    vhat = variance_stratified(if_values, arms, strata, pi)
    if vhat == 0.0:
        raise NumericError("stratified variance estimate is zero: R^2 undefined")
    Xr = _as_matrix(Xr)
    c_hat = if_imbalance_covariance_stratified(if_values, arms, strata, Xr, pi)
    _, var_i = imbalance_stratified(Xr, arms, strata)
    n = len(if_values)
    raw = _quadratic_form(c_hat, n * var_i) / vhat
    return _clamp_unit(raw, "stratified R^2")


# ---------------------------------------------------------------------------
# Cross-fitted variants: fold-weighted means over held-out influence values.


def variance_crossfit(if_values: np.ndarray, fold_ids: np.ndarray) -> float:
    """Fold-weighted sandwich variance: (1/K) sum_k mean_{i in fold k} IF_i^2."""
    if_values = np.asarray(if_values, dtype=float)
    return float(np.mean(_fold_means(if_values**2, np.asarray(fold_ids))))


def rsquared_crossfit(
    if_values: np.ndarray,
    arms: np.ndarray,
    Xr: np.ndarray,
    pi: float,
    fold_ids: np.ndarray,
) -> float:
    vhat = variance_crossfit(if_values, fold_ids)
    if vhat == 0.0:
        raise NumericError("V-hat is zero: R^2 undefined")
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    Xr = _as_matrix(Xr)
    w = (arms - pi) / (pi * (1.0 - pi))
    centered = Xr - Xr.mean(axis=0)
    contrib = (w * if_values)[:, None] * centered
    c_hat = np.vstack(
        [_fold_means(contrib[:, j], np.asarray(fold_ids)) for j in range(Xr.shape[1])]
    ).mean(axis=1)
    _, var_i = imbalance_simple(Xr, arms)
    raw = _quadratic_form(c_hat, len(if_values) * var_i) / vhat
    return _clamp_unit(raw, "R^2")


def variance_crossfit_stratified(
    if_values: np.ndarray,
    arms: np.ndarray,
    strata: np.ndarray,
    pi: float,
    fold_ids: np.ndarray,
) -> float:
    """Stratum-and-fold weighted V-tilde-hat for the cross-fitted estimator."""
    vhat, _ = _crossfit_stratified_parts(if_values, arms, strata, pi, fold_ids)
    return vhat


def rsquared_crossfit_stratified(
    if_values: np.ndarray,
    arms: np.ndarray,
    strata: np.ndarray,
    Xr: np.ndarray,
    pi: float,
    fold_ids: np.ndarray,
) -> float:
    vhat, d_s = _crossfit_stratified_parts(if_values, arms, strata, pi, fold_ids)
    if vhat == 0.0:
        raise NumericError("stratified variance estimate is zero: R^2 undefined")
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    strata = np.asarray(strata, dtype=object)
    Xr = _as_matrix(Xr)
    fold_ids = np.asarray(fold_ids)
    n = if_values.size
    w = (arms - pi) / (pi * (1.0 - pi))
    weighted = w * if_values
    total = np.zeros(Xr.shape[1])
    for label in sorted({str(v) for v in strata.tolist()}):
        mask = strata == label
        phat = mask.sum() / n
        xbar_s = Xr[mask].sum(axis=0) / n / phat
        moment = np.vstack(
            [
                _fold_means(weighted[mask] * Xr[mask][:, j], fold_ids[mask])
                for j in range(Xr.shape[1])
            ]
        ).mean(axis=1)
        total += phat * (moment - d_s[label] * xbar_s)
    _, var_i = imbalance_stratified(Xr, arms, strata)
    raw = _quadratic_form(total, n * var_i) / vhat
    return _clamp_unit(raw, "stratified R^2")


def _crossfit_stratified_parts(if_values, arms, strata, pi, fold_ids):
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    strata = np.asarray(strata, dtype=object)
    fold_ids = np.asarray(fold_ids)
    n = if_values.size
    w = (arms - pi) / (pi * (1.0 - pi))
    vhat = 0.0
    reduction = 0.0
    d_s: dict[str, float] = {}
    for label in sorted({str(v) for v in strata.tolist()}):
        mask = strata == label
        if not mask.any():
            raise ValidationError(f"empty stratum '{label}'")
        phat = mask.sum() / n
        vhat += phat * np.mean(_fold_means(if_values[mask] ** 2, fold_ids[mask]))
        d = float(np.mean(_fold_means((w * if_values)[mask], fold_ids[mask])))
        d_s[label] = d
        reduction += phat * d**2
    value = vhat - pi * (1.0 - pi) * reduction
    if value < 0.0:
        warnings.warn(
            f"stratified variance estimate {value:.3e} floored at 0",
            DiagnosticWarning,
            stacklevel=3,
        )
        value = 0.0
    return float(value), d_s


def _fold_means(values: np.ndarray, fold_ids: np.ndarray) -> np.ndarray:
    folds = np.unique(fold_ids)
    return np.array([values[fold_ids == k].mean() for k in folds])


# ---------------------------------------------------------------------------
# Limit-law sampling and intervals.


def sample_limit(spec: LimitSpec, m: int, seed: int) -> np.ndarray:
    """Draw m samples of the limit law by plain rejection sampling.

    Mahalanobis form: sqrt(V) (sqrt(1-R2) z + sqrt(R2) d_1) with d a standard
    q-normal accepted when d'd < t. General form: sqrt(V(1-R2)) z +
    C' V_I^{-1/2} d with d accepted when d' V_I^{1/2} Hbar^{-1} V_I^{1/2} d < t.
    Deterministic given the seed.
    """
    if m < 1:
        raise ValidationError("m must be at least 1")
    rng = np.random.default_rng(seed)
    normal_sd = math.sqrt(spec.V * (1.0 - spec.R2))

    if spec.distance.kind == "general":
        c_vec, v_i, h_bar = (np.asarray(a, dtype=float) for a in spec.projection)
        v_i = np.atleast_2d(v_i)
        h_bar = np.atleast_2d(h_bar)
        root = _spd_sqrt(v_i)
        accept_mat = root @ np.linalg.solve(h_bar, root)
        proj = np.linalg.solve(root, np.atleast_1d(c_vec))
        trunc_scale = float(np.linalg.norm(proj))
    else:
        accept_mat = None
        proj = None
        trunc_scale = math.sqrt(spec.V * spec.R2)

    if trunc_scale == 0.0:
        return normal_sd * rng.standard_normal(m)

    truncated = _rejection_sample(rng, spec.q, spec.t, m, accept_mat, proj)
    if proj is None:
        truncated = trunc_scale * truncated
    return normal_sd * rng.standard_normal(m) + truncated


def _spd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] <= 0 or vals[0] / vals[-1] < 1e-12:
        raise NumericError("projection matrix is not positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def _rejection_sample(rng, q, t, m, accept_mat, proj):
    """Accept standard q-normals d with d'd < t (or the projected criterion)."""
    if math.isinf(t):
        draws = rng.standard_normal((m, q))
        return draws[:, 0] if proj is None else draws @ proj

    pilot = rng.standard_normal((10_000, q))
    stats = _criterion(pilot, accept_mat)
    rate = float(np.mean(stats < t))
    if rate < 1e-4:
        raise NumericError(
            f"estimated acceptance probability {rate:.1e} below 1e-4; "
            "consider a larger threshold t"
        )
    kept = [pilot[stats < t]]
    count = kept[0].shape[0]
    while count < m:
        batch = max(10_000, int(1.5 * (m - count) / max(rate, 1e-4)))
        draws = rng.standard_normal((batch, q))
        stats = _criterion(draws, accept_mat)
        good = draws[stats < t]
        kept.append(good)
        count += good.shape[0]
    accepted = np.concatenate(kept)[:m]
    if proj is None:
        return accepted[:, 0]
    return accepted @ proj


def _criterion(draws: np.ndarray, accept_mat: np.ndarray | None) -> np.ndarray:
    if accept_mat is None:
        return np.einsum("ij,ij->i", draws, draws)
    return np.einsum("ij,jk,ik->i", draws, accept_mat, draws)


def confidence_interval(
    delta_hat: float, spec: LimitSpec, n: int, alpha: float, m: int, seed: int
) -> CIResult:
    """Monte-Carlo interval from the limit law's empirical quantiles.

    The interval is delta_hat plus the (alpha/2, 1-alpha/2) type-7 quantiles
    of the draws scaled by 1/sqrt(n); the limit law is symmetric about zero,
    so this matches the inverted form in distribution.
    """
    if m < 1000:
        raise ValidationError("need at least 1000 draws")
    if n < 2:
        raise ValidationError("n must be at least 2")
    draws = sample_limit(spec, m, seed) / math.sqrt(n)
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    return CIResult(
        lower=float(delta_hat + lo),
        upper=float(delta_hat + hi),
        alpha=alpha,
        draws=m,
        v_qt=v_qt(spec.q, spec.t) if spec.q >= 1 else 1.0,
    )


def normal_interval(delta_hat: float, vhat: float, n: int, alpha: float) -> CIResult:
    """Normal-approximation interval delta_hat +/- z_{1-alpha/2} sqrt(vhat/n)."""
    if vhat < 0:
        raise ValidationError("variance estimate must be nonnegative")
    half = 0.0 if alpha >= 1.0 else float(ndtri(1.0 - alpha / 2.0)) * math.sqrt(vhat / n)
    return CIResult(
        lower=delta_hat - half,
        upper=delta_hat + half,
        alpha=alpha,
        draws=0,
        v_qt=1.0,
    )


def _quadratic_form(vec: np.ndarray, mat: np.ndarray) -> float:
    return balance_distance(vec, mat)


def _clamp_unit(raw: float, label: str) -> float:
    if raw > 1.0:
        warnings.warn(
            f"raw {label} estimate {raw:.4f} clamped to 1", DiagnosticWarning, stacklevel=3
        )
        return 1.0
    if raw < 0.0:
        warnings.warn(
            f"raw {label} estimate {raw:.4f} clamped to 0", DiagnosticWarning, stacklevel=3
        )
        return 0.0
    return float(raw)

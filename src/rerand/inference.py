"""Variance and R-squared estimation plus the non-Gaussian limit machinery.

Estimator asymptotics under constrained randomization take the form
sqrt(V) * (sqrt(1-R^2) z + sqrt(R^2) r_{q,t}) with z standard normal and
r_{q,t} the first coordinate of a standard q-normal conditioned on squared
norm < t. This module estimates V with ``variance_simple`` and (V, R^2, C-hat,
n V-hat(I)) of a scheme, stratified or not, with ``scheme_plugins``, both
from per-unit influence values; ``sample_limit`` samples the ``LimitSpec``
law (exact sampler (Mahalanobis) / rejection (projection form, for general
weights and tiers)), and ``confidence_interval`` inverts it into a
``CIResult`` (Mahalanobis: quadrature; projection: draws), with
``normal_interval`` and ``v_qt`` beside it.

All estimator-side functions are pure; samplers own a seeded generator, so
independent computations may run concurrently with distinct seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfinv, gammainc, gammaincinv, ndtr, ndtri

from .allocation import (
    arm_product,
    balance_distance,
    centered_scatter,
    chi_square_cdf,
)
from .data_model import Grouping, factorize
from .errors import DiagnosticWarning, NumericError, ValidationError


@dataclass(frozen=True)
class LimitSpec:
    """Parameters of the asymptotic law of sqrt(n) * (estimate - truth).

    Without ``projection`` the law is the scalar-R^2 mixture for the
    Mahalanobis criterion d'd < t. ``projection`` carries (C, V_I, forms),
    with the forms of ``allocation.balance_forms`` built from V_I; it selects
    the projection form of the limit, whose thresholds are the forms' own.
    """

    V: float
    R2: float
    q: int
    t: float
    projection: tuple[np.ndarray, np.ndarray, list] | None = None

    def __post_init__(self) -> None:
        if not self.V >= 0:  # NaN fails too
            raise ValidationError("V must be nonnegative")
        if not 0.0 <= self.R2 <= 1.0:
            raise ValidationError("R2 must lie in [0, 1]")
        if math.isnan(self.t):
            raise ValidationError("t must be a number, not NaN")


@dataclass(frozen=True)
class CIResult:
    lower: float
    upper: float
    alpha: float
    draws: int
    v_qt: float
    method: str  # "normal", "quadrature" or "monte_carlo"


def v_qt(q: int, t: float) -> float:
    """Variance of r_{q,t}: P(chi^2_{q+2} < t) / P(chi^2_q < t); 1 at t = inf."""
    if math.isinf(t):
        return 1.0
    denom = chi_square_cdf(q, t)
    if denom == 0.0:
        raise NumericError("threshold t too small: P(chi^2_q < t) underflows")
    return chi_square_cdf(q + 2, t) / denom


def variance_simple(if_values: np.ndarray, fold_ids: np.ndarray | None = None) -> float:
    """Sandwich variance: the mean squared influence value.

    With ``fold_ids`` (cross-fitted influence values) the mean is taken per
    fold and then averaged over folds.
    """
    return _sandwich(if_values, fold_ids=fold_ids)[0]


def scheme_plugins(
    if_values: np.ndarray,
    arms: np.ndarray,
    pi: float,
    Xr: np.ndarray | None = None,
    strata: Grouping | None = None,
    fold_ids: np.ndarray | None = None,
) -> tuple[float, float | None, np.ndarray | None, np.ndarray | None]:
    """(V, R^2, C-hat, n V-hat(I)) of one scheme from one sandwich pass.

    Without ``strata`` V is V-hat. With them it is V-tilde-hat = V-hat -
    pi(1-pi) sum_s phat_s dhat_s^2, floored at zero with a diagnostic warning,
    and X^r is centered at its stratum means. Given ``Xr``, R^2 = C-hat'
    {n V-hat(I)}^-1 C-hat / V, clamped to [0, 1] with a diagnostic warning; a
    zero V raises :class:`NumericError`. Without ``Xr`` the last three are None.
    """
    vhat, between, c_hat, n_var_i = _sandwich(if_values, arms, pi, Xr, strata, fold_ids)
    if strata is not None:
        vhat -= pi * (1.0 - pi) * between
        if vhat < 0.0:
            warnings.warn(
                f"stratified variance estimate {vhat:.3e} floored at 0",
                DiagnosticWarning,
                stacklevel=2,
            )
            vhat = 0.0
    if Xr is None:
        return vhat, None, None, None
    if vhat == 0.0:
        what = "V-hat" if strata is None else "stratified variance estimate"
        raise NumericError(f"{what} is zero: R^2 undefined")
    label = "R^2" if strata is None else "stratified R^2"
    r2 = _clamp_unit(balance_distance(c_hat, n_var_i) / vhat, label)
    return vhat, r2, c_hat, n_var_i


def _sandwich(if_values, arms=None, pi=None, Xr=None, strata=None, fold_ids=None):
    """The one sandwich kernel: returns (V, B, C, n V-hat(I)) as sums over units.

    Unit i in stratum s and fold k carries omega_i = phat_s / (K_s n_{s,k}),
    where K_s counts the folds present in s; without folds omega_i = 1/n.
    V = sum omega IF^2; B = sum_s phat_s dhat_s^2 with dhat_s =
    sum_{i in s} omega w IF / phat_s and w = (A-pi)/(pi(1-pi)); C =
    sum omega w IF (X^r - xbar_s), which equals sum omega w IF X^r -
    sum_s phat_s dhat_s xbar_s; n V-hat(I) uses the same centered X^r. Without
    ``strata`` (a Grouping) every unit is in one stratum. B needs ``strata``, C
    and n V-hat(I) need ``Xr``; each is None otherwise. Sums run in label
    order, so they do not depend on the hash seed; without strata and folds V
    and C keep their plain mean forms.
    """
    if_values = np.asarray(if_values, dtype=float)
    n = if_values.size
    if n < 2:
        raise ValidationError("need at least two influence values")
    if strata is None:
        codes, counts = np.zeros(n, dtype=np.intp), np.array([n])
    else:
        codes, counts = strata.codes, strata.counts
    phat = counts / n
    if fold_ids is None:
        omega = 1.0 / n
        vhat = float(np.mean(if_values**2))
    else:
        folds = factorize(fold_ids).codes
        k = folds.max() + 1
        cells = codes * k + folds
        cell_n = np.bincount(cells, minlength=counts.size * k)
        k_s = np.count_nonzero(cell_n.reshape(-1, k), axis=1)
        omega = phat[codes] / (k_s[codes] * cell_n[cells])
        vhat = float(np.sum(omega * if_values**2))
    if arms is None:
        return vhat, None, None, None
    arms = np.asarray(arms)
    w = (arms - pi) / (pi * (1.0 - pi))
    weighted = w * if_values
    between = None
    if strata is not None:
        d_s = np.bincount(codes, omega * weighted) / phat
        between = float(np.sum(phat * d_s**2))
    if Xr is None:
        return vhat, between, None, None
    centered, scatter = centered_scatter(_as_matrix(Xr), strata)
    n_var_i = n * (scatter / arm_product(arms))
    if fold_ids is None:
        return vhat, between, weighted @ centered / n, n_var_i
    return vhat, between, (omega * weighted) @ centered, n_var_i


def _as_matrix(Xr: np.ndarray) -> np.ndarray:
    Xr = np.asarray(Xr, dtype=float)
    if Xr.ndim == 1:
        Xr = Xr[:, None]
    return Xr


# ---------------------------------------------------------------------------
# Limit-law sampling and intervals.


def sample_limit(spec: LimitSpec, m: int, seed: int) -> np.ndarray:
    """Draw m samples of the limit law: exact sampler (Mahalanobis) / rejection (projection form).

    Mahalanobis form: sqrt(V) (sqrt(1-R2) z + sqrt(R2) r_{q,t}), r_{q,t} from
    ``_ball_coordinate``. Projection form: sqrt(V(1-R2)) z + C' V_I^{-1/2} d
    with d a standard q-normal accepted when, for every form (P, W, a) with
    finite a, (V_I^{1/2} d)[P]' W^{-1} (V_I^{1/2} d)[P] < a. Deterministic
    given the seed.
    """
    if m < 1:
        raise ValidationError("m must be at least 1")
    rng = np.random.default_rng(seed)
    normal_sd = math.sqrt(spec.V * (1.0 - spec.R2))

    if spec.projection is not None:
        c_vec, v_i, forms = spec.projection
        root = _spd_sqrt(np.asarray(v_i, dtype=float))
        accept = [
            (root[:, positions] @ np.linalg.solve(weight, root[positions]), threshold)
            for positions, weight, threshold in forms
            if not math.isinf(threshold)
        ]
        proj = np.linalg.solve(root, np.asarray(c_vec, dtype=float))
        trunc_scale = float(np.linalg.norm(proj))
    else:
        trunc_scale = math.sqrt(spec.V * spec.R2)

    if trunc_scale == 0.0:
        return normal_sd * rng.standard_normal(m)
    if spec.projection is not None:
        truncated = _rejection_sample(rng, spec.q, m, accept) @ proj
    else:
        truncated = trunc_scale * _ball_coordinate(rng, spec.q, spec.t, m)
    return normal_sd * rng.standard_normal(m) + truncated


def _spd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] <= 0 or vals[0] / vals[-1] < 1e-12:
        raise NumericError("projection matrix is not positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def _ball_coordinate(rng, q, t, m):
    """Exact r_{q,t}, the first coordinate of a standard q-normal d given d'd < t.

    d'd, drawn as the chi^2_q quantile at U * P(chi^2_q < t), is independent of
    the direction's first coordinate z_1 / sqrt(z_1^2 + chi^2_{q-1}); the cost
    does not depend on t. Closed forms serve q = 1 (a normal truncated to
    |r| < sqrt(t)) and q = 2 (d'd = -2 log(1 - p), uniform angle).
    """
    if math.isinf(t):
        return rng.standard_normal((m, q))[:, 0]
    mass = chi_square_cdf(q, t)
    if mass == 0.0:
        raise NumericError("threshold t too small: P(chi^2_q < t) underflows")
    u = rng.random(m)
    if q == 1:
        return math.sqrt(2.0) * erfinv(mass * (2.0 * u - 1.0))
    if q == 2:
        radius = np.sqrt(-2.0 * np.log1p(-mass * u))
        return radius * np.cos(2.0 * math.pi * rng.random(m))
    radius = np.sqrt(2.0 * gammaincinv(q / 2.0, mass * u))
    z = rng.standard_normal(m)
    return radius * z / np.sqrt(z * z + rng.chisquare(q - 1, m))


def _rejection_sample(rng, q, m, accept):
    """m standard q-normal rows d with d' A d < a for every (A, a) in ``accept``,
    drawn in chunks of at most 2^20 rows so that memory stays bounded at any
    acceptance rate."""
    if not accept:
        return rng.standard_normal((m, q))

    pilot = _accepted(rng.standard_normal((10_000, q)), accept)
    rate = pilot.shape[0] / 10_000
    if rate < 1e-4:
        raise NumericError(
            f"estimated acceptance probability {rate:.1e} below 1e-4; "
            "consider a larger threshold t"
        )
    kept, count = [pilot], pilot.shape[0]
    while count < m:
        batch = min(1 << 20, max(10_000, int(1.5 * (m - count) / rate)))
        kept.append(_accepted(rng.standard_normal((batch, q)), accept))
        count += kept[-1].shape[0]
    return np.concatenate(kept)[:m]


def _accepted(draws: np.ndarray, accept: list) -> np.ndarray:
    inside = [np.einsum("ij,jk,ik->i", draws, mat, draws) < t for mat, t in accept]
    return draws[np.logical_and.reduce(inside)]


def confidence_interval(
    delta_hat: float, spec: LimitSpec, n: int, alpha: float, m: int, seed: int
) -> CIResult:
    """delta_hat plus the limit law's (alpha/2, 1-alpha/2) quantiles over sqrt(n).

    Mahalanobis form: -/+ the 1-alpha/2 quantile by quadrature, which m and seed do
    not change; exactly ``normal_interval`` when R2 = 0, P(chi^2_q < t) rounds to 1
    (t = inf) or alpha is outside (0, 1). Projection form: type-7 quantiles of m >= 1000 draws.
    """
    if n < 2:
        raise ValidationError("n must be at least 2")
    if math.isnan(alpha):
        raise ValidationError("alpha must be a number, not NaN")
    vqt = v_qt(spec.q, spec.t) if spec.q >= 1 else 1.0
    if spec.projection is not None:
        if m < 1000:
            raise ValidationError("need at least 1000 draws")
        draws = sample_limit(spec, m, seed) / math.sqrt(n)
        lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
        return CIResult(float(delta_hat + lo), float(delta_hat + hi), alpha, m, vqt, "monte_carlo")
    if spec.R2 == 0.0 or not 0.0 < alpha < 1.0 or chi_square_cdf(spec.q, spec.t) == 1.0:
        return dataclasses.replace(normal_interval(delta_hat, spec.V, n, alpha), v_qt=vqt)
    half = math.sqrt(spec.V / n) * _limit_quantile(1.0 - alpha / 2.0, spec, vqt)
    return CIResult(delta_hat - half, delta_hat + half, alpha, 0, vqt, "quadrature")


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(48)  # nodes in each panel of _mixture_cdf


def _limit_quantile(p: float, spec: LimitSpec, vqt: float) -> float:
    """x with P(a z + b r_{q,t} < x) = p, for a = sqrt(1-R2) and b = sqrt(R2) > 0: Newton
    from the normal quantile at the law's variance a^2 + b^2 v_{q,t}, kept by bisection
    in [0, a z_p + b sqrt(t)]. At R2 = 1 and q = 1, r_{q,t} is a truncated normal."""
    q, t, a, b = spec.q, spec.t, math.sqrt(1.0 - spec.R2), math.sqrt(spec.R2)
    z = float(ndtri(p))
    if a == 0.0 and q == 1:
        return b * math.sqrt(2.0) * float(erfinv(chi_square_cdf(1, t) * (2.0 * p - 1.0)))
    lo, hi = 0.0, a * z + b * math.sqrt(t)
    x = min(z * math.sqrt(a * a + b * b * vqt), hi)
    for _ in range(100):
        cdf, density = _mixture_cdf(x, a, b, q, t)
        lo, hi = (x, hi) if cdf < p else (lo, x)
        step = (cdf - p) / density if density > 0.0 else math.inf
        if abs(step) <= 1e-10 * x:  # the error after this step is below 1e-16 relative
            return x - step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    raise NumericError(f"limit-law quantile did not converge at {spec}")


def _mixture_cdf(x: float, a: float, b: float, q: int, t: float) -> tuple[float, float]:
    """F(x) = int Phi((x - b r)/a) f(r) dr and F'(x), f(r) ~ phi(r) P(chi^2_{q-1} < t - r^2).

    In theta, r = sqrt(t) sin(theta) with |r| capped at 9 (phi(9)/phi(0) < 3e-18), the
    integrand is smooth but for the kink at r* = x/b. Cuts at r* and r* -/+ 8 a/b leave
    four smooth panels for one Gauss-Legendre rule; weights are normalized by their sum.
    At a = 0, F is the CDF of b r_{q,t} and F' its density.
    """
    nodes, weights = _legendre_rule()
    edge = math.sqrt(t)
    top = math.asin(min(1.0, 9.0 / edge))
    kink, width = x / b, 8.0 * a / b
    cuts = np.array([-top, *(min(max(math.asin(min(max(r / edge, -1.0), 1.0)), -top), top)
                             for r in (kink - width, kink, kink + width)), top])
    half = np.diff(cuts)[:, None] / 2.0
    theta = ((cuts[:-1, None] + cuts[1:, None]) / 2.0 + half * nodes).ravel()
    cos = np.cos(theta)
    r = edge * np.sin(theta)
    mass = (half * weights).ravel() * cos * np.exp(-0.5 * r * r)
    if q > 1:  # chi^2_0 is a point mass at zero
        mass *= gammainc((q - 1) / 2.0, t * cos * cos / 2.0)
    total = float(mass.sum())
    if a == 0.0:  # then q > 1
        density = math.exp(-0.5 * kink * kink) * gammainc((q - 1) / 2.0, max(t - kink**2, 0.0) / 2)
        return float(mass[: 2 * nodes.size].sum()) / total, density / (b * edge * total)
    u = (x - b * r) / a
    density = float(mass @ np.exp(-0.5 * u * u)) / (total * a * math.sqrt(2.0 * math.pi))
    return float(mass @ ndtr(u)) / total, density


def normal_interval(delta_hat: float, vhat: float, n: int, alpha: float) -> CIResult:
    """Normal-approximation interval delta_hat +/- z_{1-alpha/2} sqrt(vhat/n)."""
    if vhat < 0:
        raise ValidationError("variance estimate must be nonnegative")
    if math.isnan(alpha):
        raise ValidationError("alpha must be a number, not NaN")
    half = 0.0 if alpha >= 1.0 else float(ndtri(1.0 - alpha / 2.0)) * math.sqrt(vhat / n)
    return CIResult(delta_hat - half, delta_hat + half, alpha, 0, 1.0, "normal")


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

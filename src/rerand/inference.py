"""Variance and R-squared estimation plus the limit law of every design.

An estimator's sqrt(n) error tends to sqrt(V) (sqrt(1-R^2) z + sqrt(R^2) r_{q,t}),
z standard normal and r_{q,t} the first coordinate of a standard q-normal given
squared norm < t; simple randomization is t = inf, where r_{q,t} is standard
normal. ``chi_square_cdf`` gives the acceptance mass P(chi^2_q < t) and ``v_qt``
the variance of r_{q,t}. ``variance_simple`` and ``scheme_plugins`` estimate V
(and R^2, C-hat, n V-hat(I)) from per-unit influence values.
``confidence_interval`` inverts a ``LimitSpec`` into a ``CIResult``:
``normal_interval`` where the law is normal, else by deterministic quadrature
(1-D for the Mahalanobis form, Genz's separation of variables for the
projection form of general weights and tiers).
``sample_limit`` draws the Mahalanobis form.

All functions are pure; the sampler owns a seeded generator, so independent
computations may run concurrently with distinct seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfinv, gammainc, gammaincinv, ndtr, ndtri, owens_t

from .allocation import _check_weight, _whitener, arm_product, balance_distance, centered_scatter
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
        if math.isnan(self.V):
            raise ValidationError("V must be a number, not NaN")
        if not 0.0 <= self.V < math.inf:
            raise ValidationError("V must be nonnegative" if self.V < 0 else "V must be finite")
        if not 0.0 <= self.R2 <= 1.0:
            raise ValidationError("R2 must lie in [0, 1]")
        if math.isnan(self.t):
            raise ValidationError("t must be a number, not NaN")
        if self.t <= 0.0:
            raise ValidationError("t must be positive")


@dataclass(frozen=True)
class CIResult:
    lower: float
    upper: float
    alpha: float
    v_qt: float
    method: str  # "normal", "quadrature" or "projection_quadrature"


def chi_square_cdf(q: int, t: float) -> float:
    """P(chi^2_q < t) via the regularized lower incomplete gamma function."""
    if int(q) != q or q < 1:
        raise ValidationError("degrees of freedom must be a positive integer")
    if math.isnan(t):
        raise ValidationError("t must be a number, not NaN")
    if t < 0:
        raise ValidationError("t must be nonnegative")
    return float(gammainc(q / 2.0, t / 2.0))  # 1 at t = inf


def _acceptance_mass(q: int, t: float) -> float:
    """The acceptance mass P(chi^2_q < t) of the limit law, which must not underflow."""
    mass = chi_square_cdf(q, t)
    if mass == 0.0:
        raise NumericError("threshold t too small: P(chi^2_q < t) underflows")
    return mass


def v_qt(q: int, t: float) -> float:
    """Variance of r_{q,t}: P(chi^2_{q+2} < t) / P(chi^2_q < t); 1 at t = inf."""
    return chi_square_cdf(q + 2, t) / _acceptance_mass(q, t)


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
    """Draw m samples of the Mahalanobis-form law sqrt(V) (sqrt(1-R2) z + sqrt(R2) r_{q,t}),
    r_{q,t} from ``_ball_coordinate``; deterministic given the seed. The projection form has
    no sampler: ``confidence_interval`` integrates it."""
    if spec.projection is not None:
        raise ValidationError("sample_limit draws the Mahalanobis form only")
    if m < 1:
        raise ValidationError("m must be at least 1")
    rng = np.random.default_rng(seed)
    normal_sd, trunc_scale = math.sqrt(spec.V * (1.0 - spec.R2)), math.sqrt(spec.V * spec.R2)
    if trunc_scale == 0.0:
        return normal_sd * rng.standard_normal(m)
    truncated = trunc_scale * _ball_coordinate(rng, spec.q, spec.t, m)
    return normal_sd * rng.standard_normal(m) + truncated


def _spd_sqrt(mat: np.ndarray) -> np.ndarray:
    """The symmetric root of a covariance that ``allocation._check_weight`` passes."""
    _check_weight(mat)
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _ball_coordinate(rng, q, t, m):
    """Exact r_{q,t}, the first coordinate of a standard q-normal d given d'd < t.

    d'd, drawn as the chi^2_q quantile at U * P(chi^2_q < t), is independent of
    the direction's first coordinate z_1 / sqrt(z_1^2 + chi^2_{q-1}); the cost
    does not depend on t. Closed forms serve q = 1 (a normal truncated to
    |r| < sqrt(t)) and q = 2 (d'd = -2 log(1 - p), uniform angle). At t = inf the
    mass is 1, and the same draws are standard normal.
    """
    mass = _acceptance_mass(q, t)
    u = rng.random(m)
    if q == 1:
        return math.sqrt(2.0) * erfinv(mass * (2.0 * u - 1.0))
    if q == 2:
        radius = np.sqrt(-2.0 * np.log1p(-mass * u))
        return radius * np.cos(2.0 * math.pi * rng.random(m))
    radius = np.sqrt(2.0 * gammaincinv(q / 2.0, mass * u))
    z = rng.standard_normal(m)
    return radius * z / np.sqrt(z * z + rng.chisquare(q - 1, m))


def confidence_interval(delta_hat: float, spec: LimitSpec, n: int, alpha: float) -> CIResult:
    """delta_hat -/+ the limit law's 1-alpha/2 quantile over sqrt(n), by Newton on its CDF.

    Mahalanobis form: the CDF by 1-D quadrature ("quadrature"). Projection form: over the
    weighted intervals of ``_projection_law`` ("projection_quadrature"), with the law's own
    v_qt. Exactly ``normal_interval`` when V = 0, R2 = 0 or alpha is outside (0, 1), and
    for the Mahalanobis form when P(chi^2_q < t) rounds to 1 (t = inf).
    """
    if n < 2:
        raise ValidationError("n must be at least 2")
    _check_alpha(alpha)  # before the law, whose mass may underflow
    if spec.projection is None:
        vqt = v_qt(spec.q, spec.t) if spec.q >= 1 else 1.0
    else:
        vqt, second, cdf = _projection_law(spec)
    if spec.V == 0.0 or spec.R2 == 0.0 or not 0.0 < alpha < 1.0 or (
        spec.projection is None and chi_square_cdf(spec.q, spec.t) == 1.0
    ):
        return dataclasses.replace(normal_interval(delta_hat, spec.V, n, alpha), v_qt=vqt)
    p = 1.0 - alpha / 2.0
    if spec.projection is None:
        half = math.sqrt(spec.V / n) * _limit_quantile(p, spec, vqt)
        return CIResult(delta_hat - half, delta_hat + half, alpha, vqt, "quadrature")
    # E[x^2] = second, so by Chebyshev the p-quantile is below sqrt(second / (1 - p))
    start, hi = float(ndtri(p)) * math.sqrt(second), math.sqrt(second / (1.0 - p))
    half = _newton_quantile(p, cdf, start, hi, spec) / math.sqrt(n)
    return CIResult(delta_hat - half, delta_hat + half, alpha, vqt, "projection_quadrature")


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(48)  # nodes in each panel of _mixture_cdf


def _limit_quantile(p: float, spec: LimitSpec, vqt: float) -> float:
    """x with P(a z + b r_{q,t} < x) = p, for a = sqrt(1-R2) and b = sqrt(R2) > 0: Newton
    from the normal quantile at the law's variance a^2 + b^2 v_{q,t}, kept in
    [0, a z_p + b sqrt(t)]. At R2 = 1 and q = 1, r_{q,t} is a truncated normal."""
    q, t, a, b = spec.q, spec.t, math.sqrt(1.0 - spec.R2), math.sqrt(spec.R2)
    z = float(ndtri(p))
    if a == 0.0 and q == 1:
        return b * math.sqrt(2.0) * float(erfinv(chi_square_cdf(1, t) * (2.0 * p - 1.0)))
    hi = a * z + b * math.sqrt(t)
    start = min(z * math.sqrt(a * a + b * b * vqt), hi)
    return _newton_quantile(p, lambda x: _mixture_cdf(x, a, b, q, t), start, hi, spec)


def _newton_quantile(p: float, cdf, x: float, hi: float, spec: LimitSpec) -> float:
    """The p-quantile in (0, hi] of a law whose ``cdf`` returns (F(x), F'(x)): Newton
    from x, kept by bisection."""
    lo = 0.0
    for _ in range(100):
        value, density = cdf(x)
        lo, hi = (x, hi) if value < p else (lo, x)
        step = (value - p) / density if density > 0.0 else math.inf
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


@functools.cache
def _halton_points(dim: int) -> np.ndarray:
    """Points 1..N of the Halton sequence in [0, 1)^dim, its bases the first dim primes;
    N is 1 at dim 0, 1,024 at dim 1, 4,096 at dims 2-4 and 16,384 above."""
    count = (1, 1024, 4096, 4096, 4096)[dim] if dim < 5 else 16384
    bases = [k for k in range(2, 8 * dim + 8) if all(k % f for f in range(2, math.isqrt(k) + 1))]
    points = np.zeros((count, dim))
    for j, base in enumerate(bases[:dim]):
        index, scale = np.arange(1, count + 1), 1.0 / base
        while index.any():
            points[:, j] += scale * (index % base)
            index, scale = index // base, scale / base
    points.setflags(write=False)  # cached: every caller shares this array
    return points


def _forms_in_d(root: np.ndarray, forms: list) -> list[tuple[np.ndarray, float]]:
    """The finite-threshold forms in d, I = ``root`` d: (M'M, threshold) with M =
    ``_whitener(weight)`` root[positions], so M'M = root[p]' weight^-1 root[p] exactly symmetric."""
    whitened = [(_whitener(w) @ root[p], t) for p, w, t in forms if not math.isinf(t)]
    return [(m.T @ m, t) for m, t in whitened]


def _projection_law(spec: LimitSpec):
    """The projection-form law of x = sigma z + r s, s = u'd, as weighted intervals of s.

    u = proj / |proj| is the direction of proj = V_I^{-1/2} C, and r = sqrt(V R2) and sigma
    = sqrt(V (1 - R2)) split V by the plug-in R2, so a clamped R2 (|proj|^2 > V) keeps
    sigma^2 + r^2 = V.

    d is written in a basis that ends in u, the rest ordered from the direction the forms
    constrain most. Genz's separation of variables (Genz 1992) integrates those q - 1
    coordinates over ``_halton_points``: each is drawn, and its normal mass taken, in the
    range that every form's Schur complement on the coordinates so far allows (a superset of
    the joint range when forms overlap). Given them, s runs over an exact interval (L, H), one
    quadratic inequality per form. Returns v_qt = E[s^2 | accepted] = Var(u'd | accepted),
    E[x^2], and the ``_projection_cdf`` of x over the intervals with mass, their
    weights w normalized so that sum w (Phi(H) - Phi(L)) = 1.
    """
    c_vec, v_i, forms = spec.projection
    root = _spd_sqrt(np.asarray(v_i, dtype=float))
    proj = np.linalg.solve(root, np.asarray(c_vec, dtype=float))
    q = proj.size
    bounded = _forms_in_d(root, forms)
    u, perp = np.hsplit(np.linalg.qr(np.column_stack([proj, np.eye(q)]))[0], [1])
    spread = sum((perp.T @ form @ perp / bound for form, bound in bounded), np.zeros((q - 1, q - 1)))
    basis = np.column_stack([perp @ np.linalg.eigh(spread)[1][:, ::-1], u])
    bounded = [(basis.T @ form @ basis, threshold) for form, threshold in bounded]
    points = _halton_points(q - 1)
    coords, weights = np.zeros((points.shape[0], q)), np.ones(points.shape[0])
    for j in range(q):
        head = coords[:, :j]
        lower, upper = np.full(len(coords), -38.0), np.full(len(coords), 38.0)  # Phi(-38) ~ 3e-316
        for form, threshold in bounded:
            schur = form[: j + 1, : j + 1]
            if j + 1 < q:
                tail = form[: j + 1, j + 1 :]
                schur = schur - tail @ np.linalg.pinv(form[j + 1 :, j + 1 :], 1e-10, True) @ tail.T
            # the range of this coordinate s: a s^2 + 2 b s + c < 0
            a, b = max(schur[j, j], 1e-300), head @ schur[:j, j]
            c = np.sum((head @ schur[:j, :j]) * head, axis=1) - threshold
            disc = b * b - a * c
            far = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))  # stable roots far/a, c/far
            with np.errstate(divide="ignore", invalid="ignore"):
                ends = np.clip([far / a, c / far], -38.0, 38.0)
            lower = np.maximum(lower, np.where(disc > 0.0, np.minimum(*ends), 38.0))
            upper = np.minimum(upper, np.where(disc > 0.0, np.maximum(*ends), -38.0))
        upper = np.maximum(upper, lower)
        below = ndtr(lower)
        mass = ndtr(upper) - below
        if j < q - 1:
            weights *= mass
            coords[:, j] = np.clip(ndtri(below + points[:, j] * mass), lower, upper)
    total = float(weights @ mass)
    if not total > 0.0:
        raise NumericError("acceptance probability of the balance criterion underflows")
    moment = np.sign(upper) * gammainc(1.5, upper**2 / 2) - np.sign(lower) * gammainc(1.5, lower**2 / 2)
    keep, r = weights * mass > 0.0, math.sqrt(spec.V * spec.R2)
    vqt, sigma = float(weights @ moment) / (2 * total), math.sqrt(spec.V * (1.0 - spec.R2))
    cdf = functools.partial(_projection_cdf, sigma=sigma, r=r, w=weights[keep] / total,
                            lower=lower[keep], upper=upper[keep], mass=mass[keep])
    return vqt, sigma * sigma + r * r * vqt, cdf


def _projection_cdf(x: float, sigma: float, r: float, w, lower, upper, mass) -> tuple[float, float]:
    """F(x) = sum w P(sigma z + r s <= x, L < s < H), z and s standard normal, and F'(x);
    ``mass`` is each interval's Phi(H) - Phi(L), which does not depend on x.

    Each term is Phi2(h, H; rho) - Phi2(h, L; rho) at h = x / hypot(sigma, r) > 0, rho =
    r / hypot(sigma, r) and c = sqrt(1 - rho^2), with Owen's (1956) Phi2(h, k; rho) = (Phi(h)
    + Phi(k)) / 2 - T(h, (k - rho h) / (h c)) - T(k, (h - rho k) / (k c)) - [k < 0] / 2; sigma
    = 0 is the limit c = 0."""
    scale = math.hypot(sigma, r)
    h, rho, c = x / scale, r / scale, sigma / scale
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = [owens_t(h, (k - rho * h) / (h * c)) + owens_t(k, (h - rho * k) / (k * c))
                 + 0.5 * (k < 0) for k in (upper, lower)]
        band = ndtr((upper - rho * h) / c) - ndtr((lower - rho * h) / c)
    cdf = 0.5 * mass - terms[0] + terms[1]
    density = math.exp(-0.5 * h * h) / (scale * math.sqrt(2.0 * math.pi))
    return float(w @ cdf), density * float(w @ band)


def normal_interval(delta_hat: float, vhat: float, n: int, alpha: float) -> CIResult:
    """Normal-approximation interval delta_hat +/- z_{1-alpha/2} sqrt(vhat/n); the point
    delta_hat when vhat = 0 or alpha >= 1, the whole line when alpha = 0 and vhat > 0."""
    if vhat < 0:
        raise ValidationError("variance estimate must be nonnegative")
    _check_alpha(alpha)
    point = alpha >= 1.0 or vhat == 0.0  # at vhat = 0 and alpha = 0, not inf * 0 = nan
    half = 0.0 if point else float(ndtri(1.0 - alpha / 2.0)) * math.sqrt(vhat / n)
    return CIResult(delta_hat - half, delta_hat + half, alpha, 1.0, "normal")


def _check_alpha(alpha: float) -> None:
    """The one rule for an interval's alpha: a number, at least 0 (1 and above give zero width)."""
    if math.isnan(alpha):
        raise ValidationError("alpha must be a number, not NaN")
    if alpha < 0.0:
        raise ValidationError("alpha must be nonnegative")


def _clamp_unit(raw: float, label: str) -> float:
    """R^2 capped at 1 with a diagnostic warning. Its raw plug-in |L^-1 C|^2 / V is a
    squared norm over V > 0 (``scheme_plugins`` raises on V = 0), so it is never negative."""
    if raw > 1.0:
        warnings.warn(
            f"raw {label} estimate {raw:.4f} clamped to 1", DiagnosticWarning, stacklevel=3
        )
        return 1.0
    return float(raw)

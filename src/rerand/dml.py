"""Cross-fitted efficient (AIPW) estimation with pluggable nuisance learners.

The estimator averages the per-unit efficient-influence-function plug-in
1{A=a}/pi_a * R/kappa_a(X) * (Y - eta_a(X)) + eta_a(X)
with nuisances trained on held-out folds: plain K-fold, or stratum-by-arm
cross-fitting where each (arm, stratum) cell is partitioned separately and a
unit's nuisances come only from its own cell's training rows.

Built-in learners replace an external ensembling framework: a GLM, a
k-nearest-neighbour averager on standardized features, and a gradient-boosted
ensemble of depth-1 stumps.

``estimate_dml`` checks and collects every (cell, fold, arm) training set
before it fits anything, then makes one ``fit_learners`` call per learner.
That call splits the sets into consecutive groups whose padded cells (fits *
largest rows * features) stay within ``_BATCH_CELLS``, a pure function of
the set shapes, and fits each group in one batch.

The stump ensembles of a batch share one boosting loop over arrays padded
to the largest training set, and each still predicts bit for bit what it
would predict if fitted alone:
- padded rows sort last and carry zero gradient, so each fit's prefix sums
  are the same adds in the same order, and no cut borders a padded row;
- gains are compared per fit with padding at -inf, so the first maximum in
  feature-major order still breaks ties;
- the NaN-gain skip and the early stop act per fit: a stopped fit's
  ensemble freezes while the others keep boosting.

The GLMs of a batch share one IRLS loop over zero-padded designs, solved by
a stacked SVD with ``lstsq``'s minimum-norm rule, so each predicts what it
would predict if fitted alone to rounding, not bit for bit. A logistic fit
stops once its step is small, max|new - old| <= ``_GLM_TOL`` * (1 +
max|new|), or after ``_GLM_ITERATIONS`` steps.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ._seeds import derive_seed
from .data_model import EstimandSpec, EstimateResult, SolverDiag, TrialFrame
from .errors import ValidationError
from .mestimators import PROPENSITY_FLOOR, contrast, expand_model_columns

FOLD_MODES = ("plain", "stratum_arm")


@dataclass(frozen=True)
class LearnerSpec:
    """A nuisance learner recipe: glm, knn, or a stump ensemble."""

    kind: str
    link: str = "identity"
    k_neighbors: int = 5
    trees: int = 200
    learning_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("glm", "knn", "stump_ensemble"):
            raise ValidationError(f"unknown learner kind '{self.kind}'")
        if self.link not in ("identity", "logit"):
            raise ValidationError(f"unknown link '{self.link}'")
        for name, low in (("trees", 0), ("k_neighbors", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
        rate = self.learning_rate
        if not isinstance(rate, numbers.Real) or not math.isfinite(rate) or rate <= 0:
            raise ValidationError(f"learning_rate must be finite and > 0, got {rate!r}")


def make_folds(frame: TrialFrame, K: int, mode: str, seed: int) -> np.ndarray:
    """Randomly partition units into K folds: each unit's fold index in 0..K-1.

    In plain mode fold sizes differ by at most one overall. stratum_arm mode
    partitions every (arm, stratum) cell separately, so cell-fold sizes differ
    by at most one within every cell, and requires each cell to hold at least
    K units.
    """
    if K < 2:
        raise ValidationError("K must be at least 2")
    if mode not in FOLD_MODES:
        raise ValidationError(f"unknown fold mode '{mode}'")
    rng = np.random.default_rng(seed)
    n = frame.n_units
    assignment = np.empty(n, dtype=np.int64)
    if mode == "plain":
        perm = rng.permutation(n)
        assignment[perm] = np.arange(n) % K
        return assignment

    arms = frame.require_arms()
    strata = frame.stratum
    if strata is None:
        raise ValidationError("stratum_arm cross-fitting requires strata")
    for label, rows in zip(strata.labels, strata.members):
        for a in (0, 1):
            cell = rows[arms[rows] == a]
            if cell.size < K:
                raise ValidationError(
                    f"cell (arm={a}, stratum='{label}') has {cell.size} units, "
                    f"fewer than K={K}"
                )
            perm = rng.permutation(cell.size)
            assignment[cell[perm]] = np.arange(cell.size) % K
    return assignment


# ---------------------------------------------------------------------------
# Learners. Each fit is a pure deterministic map from covariates to reals.

_KNN_CHUNK = 1 << 20  # float64 elements in one (rows, train, features) k-NN block
_BATCH_CELLS = 1 << 17  # padded cells (fits * rows * features) in one batch
_GLM_ITERATIONS = 25  # IRLS steps a logistic fit takes at most
_GLM_TOL = 1e-12  # relative IRLS step at which a logistic fit stops


def fit_learners(spec: LearnerSpec, Xs, ys) -> list:
    """Train one learner per training set (Xs[i], ys[i]) and return the
    prediction maps over covariates, in order.

    GLMs and stump ensembles with the logit link fit the log-loss and predict
    probabilities. k-NN fits run one after another. Stump ensembles and GLMs are fitted in batches of
    consecutive sets whose padded cells stay within ``_BATCH_CELLS``; stump
    ensembles share one boosting loop per batch (``_fit_stumps``) and GLMs one
    IRLS loop (``_fit_glms``). Map i equals the map of (Xs[i], ys[i]) fitted
    alone, bit for bit for stumps and k-NN, and to rounding for GLMs.
    """
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    if any(X.ndim != 2 for X in Xs):
        raise ValidationError("training covariates must be a 2-D (rows, features) array")
    if any(X.shape[0] == 0 for X in Xs):
        raise ValidationError("empty training set")
    if len({X.shape[1] for X in Xs}) > 1:
        raise ValidationError("training sets differ in their number of features")
    if len(ys) != len(Xs) or any(y.shape != (X.shape[0],) for X, y in zip(Xs, ys)):
        raise ValidationError("every training target must have one value per training row")
    if not all(np.isfinite(X).all() and np.isfinite(y).all() for X, y in zip(Xs, ys)):
        raise ValidationError("training covariates and targets must be finite")
    binary_loss = spec.link == "logit"
    if spec.kind == "knn":
        predicts = [_fit_knn(X, y, spec.k_neighbors) for X, y in zip(Xs, ys)]
    else:
        predicts = []
        for group in _batches([X.shape for X in Xs]):
            if spec.kind == "glm":
                predicts += _fit_glms(Xs[group], ys[group], binary_loss)
            else:
                predicts += _fit_stumps(
                    Xs[group], ys[group], spec.trees, spec.learning_rate, binary_loss
                )
    return predicts


def _batches(shapes: list) -> list:
    """Split training sets of the given (rows, features) shapes into slices of
    consecutive sets whose fits * largest rows * features stays within
    ``_BATCH_CELLS``; a set above it on its own is a slice of one."""
    groups, start, rows = [], 0, 0
    for i, (n, p) in enumerate(shapes):
        rows = max(rows, n)
        if i > start and (i + 1 - start) * rows * p > _BATCH_CELLS:
            groups.append(slice(start, i))
            start, rows = i, n
    return groups + [slice(start, len(shapes))] if shapes else []


def _fit_glms(Xs: list, ys: list, logistic: bool) -> list:
    """Least squares (identity link) or logistic IRLS, one GLM with an
    intercept per training set (Xs[i], ys[i]).

    All fits share one loop over designs zero-padded to the largest set,
    with weight zero on padded rows; the identity link is the same solve with
    unit weights. Each solve is ``lstsq``'s: the minimum-norm least-squares
    answer, with singular values at or below eps * max(rows, columns) * the
    largest treated as zero. Designs are often rank-deficient: under
    stratum-by-arm folds the stratum dummy is constant within every training
    set. A logistic fit clips the linear predictor to [-30, 30] and floors
    the weights at 1e-6, so it never raises, even on separable data; it
    leaves ``active`` once max|new - old| <= _GLM_TOL * (1 + max|new|), or
    after _GLM_ITERATIONS steps. A fit with constant y predicts that
    constant.
    """
    fits = len(Xs)
    sizes = np.array([X.shape[0] for X in Xs])
    n, d = int(sizes.max()), Xs[0].shape[1] + 1
    design = np.zeros((fits, n, d))
    y = np.zeros((fits, n))
    for i, (Xi, yi) in enumerate(zip(Xs, ys)):
        design[i, : yi.size, 0] = 1.0
        design[i, : yi.size, 1:] = Xi
        y[i, : yi.size] = yi
    cutoff = np.finfo(float).eps * np.maximum(sizes, d)
    if not logistic:
        beta = _min_norm_solve(design, y, cutoff)
        return [_glm_predictor(b, False) for b in beta]

    real = np.arange(n) < sizes[:, None]
    constant = np.array([yi.min() == yi.max() for yi in ys])
    active = ~constant
    beta = np.zeros((fits, d))
    for _ in range(_GLM_ITERATIONS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        A, old = design[idx], beta[idx]
        eta = np.clip((A @ old[:, :, None])[:, :, 0], -30.0, 30.0)
        p = expit(eta)
        w = np.maximum(p * (1.0 - p), 1e-6)
        z = eta + (y[idx] - p) / w
        wsq = np.sqrt(w) * real[idx]
        new = beta[idx] = _min_norm_solve(A * wsq[:, :, None], z * wsq, cutoff[idx])
        step = np.abs(new - old).max(axis=1)
        # a NaN step never converges: such a fit runs to the cap
        active[idx] = ~(step <= _GLM_TOL * (1.0 + np.abs(new).max(axis=1)))
    return [
        _constant_predictor(ys[i][0]) if constant[i] else _glm_predictor(beta[i], True)
        for i in range(fits)
    ]


def _min_norm_solve(A: np.ndarray, b: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
    """Minimum-norm x of each min ||A[i] x - b[i]||, zeroing the singular
    values of A[i] at or below cutoff[i] times its largest."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > (cutoff * s[:, 0])[:, None]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    Utb = (U.transpose(0, 2, 1) @ b[:, :, None])[:, :, 0]
    return (Vt.transpose(0, 2, 1) @ (inv * Utb)[:, :, None])[:, :, 0]


def _glm_predictor(beta: np.ndarray, logistic: bool):
    def predict(Xe: np.ndarray) -> np.ndarray:
        eta = np.column_stack([np.ones(len(Xe)), Xe]) @ beta
        return expit(np.clip(eta, -30.0, 30.0)) if logistic else eta

    return predict


def _constant_predictor(value: float):
    return lambda Xe: np.full(len(Xe), float(value))


def _fit_knn(X: np.ndarray, y: np.ndarray, k: int):
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    train = (X - mean) / sd
    k = min(k, X.shape[0])
    rows = max(1, _KNN_CHUNK // train.size)  # evaluation rows per block

    def predict(Xe: np.ndarray) -> np.ndarray:
        Xe = (np.asarray(Xe, dtype=float) - mean) / sd
        out = np.empty(Xe.shape[0])
        for lo in range(0, Xe.shape[0], rows):
            block = Xe[lo : lo + rows]
            d2 = ((block[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            out[lo : lo + rows] = y[nearest].mean(axis=1)
        return out

    return predict


def _fit_stumps(Xs: list, ys: list, trees: int, rate: float, logistic: bool) -> list:
    """Stage-wise boosting with depth-1 trees (least squares, or logistic for
    binary targets via gradient steps on the log-loss), one ensemble per
    training set (Xs[i], ys[i]); O(trees * n * p) per fit.

    Each tree fits the gradient g. Its candidate cuts lie midway between
    adjacent distinct sorted values of one feature and send x <= cut left. It
    takes the cut of largest |L| mean_L(g)^2 + |R| mean_R(g)^2; ties go to the
    lowest feature, then to the lowest cut. A feature with a NaN gain is
    skipped, and boosting stops when all are; with no cut there are no trees.

    All fits share one loop over padded arrays, so the number of numpy calls
    grows with ``trees``, not with the number of fits, and every fit predicts
    exactly what it would predict if fitted alone:
    - padded rows hold NaN covariates, which sort after every real value
      (a stable sort keeps real NaNs first), so each fit's sort order ends in
      identity indices, and no cut borders a padded row;
    - padded rows hold zero gradient, and ``cumsum`` runs along rows in
      order, so each fit's prefix sums are the same adds in the same order;
    - a feature with no cut in any fit leaves the loop, which drops no
      candidate;
    - each tree scatters the gains into a (fits, most cuts) array filled with
      -inf; a real gain is >= 0, NaN or +inf, so the row-wise first maximum
      keeps the feature-major tie rule;
    - the NaN-gain skip runs per fit, and a fit that runs out of cuts drops
      out of ``active``: its F and its tree count freeze.
    """
    fits = len(Xs)
    sizes = np.array([X.shape[0] for X in Xs])
    n, p = int(sizes.max()), Xs[0].shape[1]
    X = np.full((fits, n, p), np.nan)
    y = np.zeros((fits, n))
    f0 = np.empty(fits)
    for i, (Xi, yi) in enumerate(zip(Xs, ys)):
        X[i, : yi.size], y[i, : yi.size] = Xi, yi
        if logistic:
            mean = float(np.clip(yi.mean(), 1e-6, 1.0 - 1e-6))
            f0[i] = np.log(mean / (1.0 - mean))
        else:
            f0[i] = yi.mean()
    order = np.argsort(X, axis=1, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=1)
    splits = sorted_x[:, :-1] < sorted_x[:, 1:]
    # only features that some fit can cut (not, say, a stratum dummy under
    # stratum-by-arm folds) enter the loop
    live = np.flatnonzero(splits.any(axis=(0, 1)))
    order, sorted_x, p = order[:, :, live], sorted_x[:, :, live], live.size
    # candidate cuts, fit-major then feature-major: cut c lies after sorted
    # row k[c] of feature feat[c] in fit fit[c]
    fit, feat, k = np.nonzero(splits[:, :, live].transpose(0, 2, 1))
    cuts = np.bincount(fit, minlength=fits)
    if fit.size == 0:
        trees = 0  # all features constant in every fit: nothing to split on
    left_n = k + 1.0
    right_n = sizes[fit] - left_n
    mids = 0.5 * (sorted_x[fit, k, feat] + sorted_x[fit, k + 1, feat])
    # the prefix sums, the gather map and X share one layout: row
    # column[c] = fit * p + feat of a (fits * p, n) array
    column = fit * p + feat
    cut_at = column * n + k
    total_at = column * n + sizes[fit] - 1
    x_rows = X[:, :, live].transpose(0, 2, 1).reshape(fits * p, n)
    # gradients sit in grad_buf[:-1] as (fits, n); padded rows gather the
    # trailing zero
    grad_buf = np.zeros(fits * n + 1)
    grad = grad_buf[:-1].reshape(fits, n)
    gather = np.where(
        np.arange(n) >= sizes[:, None, None],
        fits * n,
        order.transpose(0, 2, 1) + (np.arange(fits) * n)[:, None, None],
    ).reshape(fits * p, n)
    # gains as (fits, width); fit i's cuts start at cut starts[i] and fill the
    # first cuts[i] places of its row
    width = int(cuts.max())
    starts = np.cumsum(cuts) - cuts
    row_start = np.arange(fits) * width
    place = row_start[fit] + np.arange(fit.size) - starts[fit]
    cut_in = np.zeros(fits * width, dtype=np.int64)
    cut_in[place] = np.arange(fit.size)
    gains = np.full((fits, width), -np.inf)
    gains_flat = gains.reshape(-1)

    active = cuts > 0
    used = np.zeros(fits, dtype=np.int64)
    chosen = np.empty((trees, fits), dtype=np.int64)
    means = np.empty((trees, 2, fits))  # left and right gradient means
    F = np.repeat(f0[:, None], n, axis=1)
    for t in range(trees):
        np.subtract(y, expit(F) if logistic else F, out=grad)
        prefix = grad_buf[gather].cumsum(axis=1).ravel()
        below = prefix[cut_at]
        lm = below / left_n
        rm = (prefix[total_at] - below) / right_n
        gains_flat[place] = left_n * lm**2 + right_n * rm**2
        best = row_start + gains.argmax(axis=1)  # first maximum, feature-major
        for i in np.flatnonzero(active & np.isnan(gains_flat[best])):
            real = gains[i, : cuts[i]]
            real_feat = feat[starts[i] : starts[i] + cuts[i]]
            real[np.isin(real_feat, real_feat[np.isnan(real)])] = -np.inf
            best[i] = row_start[i] + real.argmax()
            active[i] = real.max() > -np.inf
        if not active.any():
            break
        used += active
        c = chosen[t] = cut_in[best]
        means[t] = lm[c], rm[c]
        step = np.where(x_rows[column[c]] <= mids[c, None], rate * lm[c, None], rate * rm[c, None])
        np.add(F, step, out=F, where=active[:, None])

    return [
        _stump_predictor(
            f0[i], live[feat[chosen[: used[i], i]]], mids[chosen[: used[i], i]],
            *means[: used[i], :, i].T, rate, logistic,
        )
        for i in range(fits)
    ]


def _stump_predictor(f0, feats, thrs, lefts, rights, rate, logistic):
    def predict(Xe: np.ndarray) -> np.ndarray:
        Xe = np.asarray(Xe, dtype=float)
        steps = rate * np.where(Xe[:, feats] <= thrs, lefts, rights)
        # a running sum keeps the sequential order ((f0 + s1) + s2) + ...
        out = np.column_stack([np.full(len(Xe), f0), steps]).cumsum(axis=1)[:, -1]
        return expit(out) if logistic else out

    return predict


# ---------------------------------------------------------------------------
# The cross-fitted efficient estimator.


def estimate_dml(
    frame: TrialFrame,
    outcome_learner: LearnerSpec,
    missingness_learner: LearnerSpec | None,
    K: int,
    mode: str,
    estimand: EstimandSpec,
    seed: int,
    pi: float,
    fold_plan: np.ndarray | None = None,
) -> EstimateResult:
    """Cross-fitted AIPW estimate of the arm means and their contrast.

    ``pi`` is the design assignment probability and enters the weighting
    denominators directly. With no missing outcomes ``missingness_learner``
    may be None, in which case kappa-hat is identically one; otherwise it is
    fitted with the logit link, and kappa-hat is clipped below at 0.01, with
    the units clipped in their own arm (those below 0.01) counted in
    ``details["propensity_clip_count"]``.
    Outcome learners see only observed-outcome rows of their training folds.
    ``fold_plan`` replaces the folds of ``make_folds``; ``details["fold_plan"]``
    holds the folds used.
    """
    arms = frame.require_arms()
    frame.require_outcomes()
    if not 0.0 < pi < 1.0:
        raise ValidationError("pi must lie in (0, 1)")
    robs = frame.observed.astype(float)
    y0 = np.nan_to_num(frame.outcome)
    any_missing = robs.min() == 0.0
    if any_missing and missingness_learner is None:
        raise ValidationError(
            "outcomes are missing but no missingness learner was given"
        )

    if fold_plan is None:
        fold_plan = make_folds(frame, K, mode, derive_seed(seed, "folds"))
    elif np.shape(fold_plan) != (frame.n_units,) or not np.isin(fold_plan, range(K)).all():
        raise ValidationError(f"fold_plan needs one fold in 0..{K - 1} per unit")
    feature_names = list(frame.covariate_names)
    if frame.stratum is not None and frame.stratum.labels.size > 1:
        feature_names.append("stratum")
    features = expand_model_columns(frame, feature_names)

    if missingness_learner is not None:
        missingness_learner = dataclasses.replace(missingness_learner, link="logit")

    eta = np.full((frame.n_units, 2), np.nan)
    kappa = np.ones((frame.n_units, 2))

    if mode == "plain":
        cell_masks = [(np.ones(frame.n_units, dtype=bool), "")]
    else:
        cell_masks = [
            (frame.stratum.codes == s, f", stratum '{label}'")
            for s, label in enumerate(frame.stratum.labels)
        ]

    # every training set is checked and collected before any learner is fitted
    evals, out_sets, kap_sets = [], [], []
    for cell_mask, cell_desc in cell_masks:
        for k in range(K):
            eval_mask = cell_mask & (fold_plan == k)
            if not eval_mask.any():
                continue
            for a in (0, 1):
                train_mask = cell_mask & (fold_plan != k) & (arms == a)
                assert not (train_mask & eval_mask).any()  # held-out discipline
                out_train = train_mask & (robs == 1.0)
                if any_missing and not train_mask.any():
                    raise ValidationError(
                        f"empty training set for arm {a}, fold {k}{cell_desc}"
                    )
                if not out_train.any():
                    raise ValidationError(
                        f"empty outcome training set for arm {a}, fold {k}{cell_desc}"
                    )
                evals.append((eval_mask, a))
                out_sets.append((features[out_train], y0[out_train]))
                if any_missing:
                    kap_sets.append((features[train_mask], robs[train_mask]))

    eta_fits = fit_learners(outcome_learner, *zip(*out_sets))
    for (eval_mask, a), eta_fit in zip(evals, eta_fits):
        eta[eval_mask, a] = eta_fit(features[eval_mask])
    if any_missing:
        kap_fits = fit_learners(missingness_learner, *zip(*kap_sets))
        for (eval_mask, a), kap_fit in zip(evals, kap_fits):
            kappa[eval_mask, a] = kap_fit(features[eval_mask])

    clip_count = 0
    if any_missing:
        used = kappa[np.arange(frame.n_units), arms]
        clip_count = int((used < PROPENSITY_FLOOR).sum())
        kappa = np.clip(kappa, PROPENSITY_FLOOR, 1.0)

    # row 0 holds mu1's per-unit plug-in, row 1 mu0's
    brackets = np.empty((2, frame.n_units))
    for row, a, pi_a in ((0, 1, pi), (1, 0, 1.0 - pi)):
        ind = (arms == a).astype(float)
        brackets[row] = ind / pi_a * robs / kappa[:, a] * (y0 - eta[:, a]) + eta[:, a]
    mu = brackets.mean(axis=1)
    if_mu = (brackets - mu[:, None]).T
    diag = SolverDiag(iterations=0, residual_norm=float(np.abs(if_mu.mean(axis=0)).max()))
    result = contrast(estimand, mu, if_mu, diag)
    result.details.update(
        fold_plan=fold_plan, propensity_clip_count=clip_count, eta_hat=eta, kappa_hat=kappa
    )
    return result

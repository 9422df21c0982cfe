"""Cross-fitted efficient (AIPW) estimation with pluggable nuisance learners.

The estimator averages the per-unit efficient-influence-function plug-in
1{A=a}/pi_a * R/kappa_a(X) * (Y - eta_a(X)) + eta_a(X)
with nuisances trained on held-out folds: plain K-fold, or stratum-by-arm
cross-fitting where each (arm, stratum) cell is partitioned separately and a
unit's nuisances come only from its own cell's training rows.

Built-in learners replace an external ensembling framework: a GLM, a
k-nearest-neighbour averager on standardized features, and a gradient-boosted
ensemble of depth-1 stumps.
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
from .mestimators import PROPENSITY_FLOOR, expand_model_columns

FOLD_MODES = ("plain", "stratum_arm")


@dataclass(frozen=True)
class FoldPlan:
    """Unit-to-fold assignment.

    In plain mode fold sizes differ by at most one overall; in stratum_arm
    mode the assignment index is the fold within the unit's (arm, stratum)
    cell, and cell-fold sizes differ by at most one within every cell.
    """

    mode: str
    K: int
    assignment: np.ndarray


@dataclass(frozen=True)
class LearnerSpec:
    """A nuisance learner recipe: glm, knn, or a stump ensemble."""

    kind: str
    link: str = "identity"
    k_neighbors: int = 5
    trees: int = 200
    learning_rate: float = 0.1
    target: str = "outcome"

    def __post_init__(self) -> None:
        if self.kind not in ("glm", "knn", "stump_ensemble"):
            raise ValidationError(f"unknown learner kind '{self.kind}'")
        if self.link not in ("identity", "logit"):
            raise ValidationError(f"unknown link '{self.link}'")
        if self.target not in ("outcome", "missingness"):
            raise ValidationError(f"unknown learner target '{self.target}'")
        for name, low in (("trees", 0), ("k_neighbors", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
        rate = self.learning_rate
        if not isinstance(rate, numbers.Real) or not math.isfinite(rate) or rate <= 0:
            raise ValidationError(f"learning_rate must be finite and > 0, got {rate!r}")


def make_folds(frame: TrialFrame, K: int, mode: str, seed: int) -> FoldPlan:
    """Randomly partition units into K folds of near-equal size.

    stratum_arm mode partitions every (arm, stratum) cell separately and
    requires each cell to hold at least K units.
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
        return FoldPlan("plain", K, assignment)

    arms = frame.require_arms()
    strata = frame.stratum_groups
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
    return FoldPlan("stratum_arm", K, assignment)


# ---------------------------------------------------------------------------
# Learners. Each fit is a pure deterministic map from covariates to reals.


def fit_learner(spec: LearnerSpec, X: np.ndarray, y: np.ndarray):
    """Train a learner on (X, y); returns a prediction map over covariates.

    Missingness learners return probabilities clipped to [0.01, 1].
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError("empty training set")
    binary_loss = spec.target == "missingness" or spec.link == "logit"
    if spec.kind == "glm":
        predict = _fit_glm(X, y, binary_loss)
    elif spec.kind == "knn":
        predict = _fit_knn(X, y, spec.k_neighbors)
    else:
        predict = _fit_stumps(X, y, spec.trees, spec.learning_rate, binary_loss)
    if spec.target == "missingness":
        inner = predict
        return lambda Xe: np.clip(inner(Xe), PROPENSITY_FLOOR, 1.0)
    return predict


def _fit_glm(X: np.ndarray, y: np.ndarray, logistic: bool):
    design = np.column_stack([np.ones(X.shape[0]), X])
    if not logistic:
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        return lambda Xe: np.column_stack([np.ones(len(Xe)), Xe]) @ beta
    if y.min() == y.max():
        constant = float(y[0])
        return lambda Xe: np.full(len(Xe), constant)
    beta = np.zeros(design.shape[1])
    for _ in range(25):
        eta = np.clip(design @ beta, -30.0, 30.0)
        p = expit(eta)
        w = np.maximum(p * (1.0 - p), 1e-6)
        z = eta + (y - p) / w
        wsq = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(design * wsq[:, None], z * wsq, rcond=None)
    return lambda Xe: expit(
        np.clip(np.column_stack([np.ones(len(Xe)), Xe]) @ beta, -30.0, 30.0)
    )


def _fit_knn(X: np.ndarray, y: np.ndarray, k: int):
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    train = (X - mean) / sd
    k = min(k, X.shape[0])

    def predict(Xe: np.ndarray) -> np.ndarray:
        Xe = (np.asarray(Xe, dtype=float) - mean) / sd
        d2 = ((Xe[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        return y[nearest].mean(axis=1)

    return predict


def _fit_stumps(X: np.ndarray, y: np.ndarray, trees: int, rate: float, logistic: bool):
    """Stage-wise boosting with depth-1 trees (least squares, or logistic for
    binary targets via gradient steps on the log-loss); O(trees * n * p).

    Each tree fits the gradient g. Its candidate cuts lie midway between
    adjacent distinct sorted values of one feature and send x <= cut left. It
    takes the cut of largest |L| mean_L(g)^2 + |R| mean_R(g)^2; ties go to the
    lowest feature, then to the lowest cut. A feature with a NaN gain is
    skipped, and boosting stops when all are; with no cut there are no trees.
    """
    n, p = X.shape
    if logistic:
        mean = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
        f0 = float(np.log(mean / (1.0 - mean)))
    else:
        f0 = float(y.mean())
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=0)
    # candidate cuts, feature-major: cut c lies after sorted row k[c] of feat[c]
    feat, k = np.nonzero((sorted_x[:-1] < sorted_x[1:]).T)
    if feat.size == 0:
        trees = 0  # all features constant: nothing to split on
    left_n = k + 1.0
    right_n = n - left_n
    mids = 0.5 * (sorted_x[k, feat] + sorted_x[k + 1, feat])
    cut_at, total_at = k * p + feat, (n - 1) * p + feat  # into (n, p) prefix sums
    chosen = np.empty(trees, dtype=np.int64)
    means = np.empty((trees, 2))  # left and right gradient means

    F = np.full(n, f0)
    for t in range(trees):
        grad = (y - expit(F)) if logistic else (y - F)
        prefix = grad[order].cumsum(axis=0).ravel()
        below = prefix[cut_at]
        lm = below / left_n
        rm = (prefix[total_at] - below) / right_n
        gain = left_n * lm**2 + right_n * rm**2
        best = int(gain.argmax())  # the first maximum in feature-major order
        if math.isnan(gain[best]):
            gain[np.isin(feat, feat[np.isnan(gain)])] = -np.inf
            best = int(gain.argmax())
            if gain[best] == -np.inf:
                trees = t
                break
        chosen[t], means[t] = best, (lm[best], rm[best])
        F = F + rate * np.where(X[:, feat[best]] <= mids[best], lm[best], rm[best])

    feats, thrs = feat[chosen[:trees]], mids[chosen[:trees]]
    lefts, rights = means[:trees].T

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
    fold_plan: FoldPlan | None = None,
) -> EstimateResult:
    """Cross-fitted AIPW estimate of the arm means and their contrast.

    ``pi`` is the design assignment probability and enters the weighting
    denominators directly. With no missing outcomes ``missingness_learner``
    may be None, in which case kappa-hat is identically one. Outcome learners
    see only observed-outcome rows of their training folds.
    """
    arms = frame.require_arms()
    frame.require_outcomes()
    if not 0.0 < pi < 1.0:
        raise ValidationError("pi must lie in (0, 1)")
    robs = frame.observed.astype(float)
    y0 = np.where(robs == 1.0, np.nan_to_num(frame.outcome), 0.0)
    any_missing = robs.min() == 0.0
    if any_missing and missingness_learner is None:
        raise ValidationError(
            "outcomes are missing but no missingness learner was given"
        )

    plan = fold_plan or make_folds(frame, K, mode, derive_seed(seed, "folds"))
    feature_names = list(frame.covariate_names)
    if frame.stratum is not None and frame.stratum_groups.labels.size > 1:
        feature_names.append("stratum")
    features = expand_model_columns(frame, feature_names)

    outcome_learner = dataclasses.replace(outcome_learner, target="outcome")
    if missingness_learner is not None:
        missingness_learner = dataclasses.replace(
            missingness_learner, target="missingness"
        )

    eta = np.full((frame.n_units, 2), np.nan)
    kappa = np.ones((frame.n_units, 2))

    if mode == "plain":
        cell_masks = [(np.ones(frame.n_units, dtype=bool), "")]
    else:
        cell_masks = [
            (frame.stratum_groups.codes == s, f", stratum '{label}'")
            for s, label in enumerate(frame.stratum_groups.labels)
        ]

    for cell_mask, cell_desc in cell_masks:
        for k in range(K):
            eval_mask = cell_mask & (plan.assignment == k)
            if not eval_mask.any():
                continue
            for a in (0, 1):
                train_mask = cell_mask & (plan.assignment != k) & (arms == a)
                assert not (train_mask & eval_mask).any()  # held-out discipline
                out_train = train_mask & (robs == 1.0)
                if not out_train.any():
                    raise ValidationError(
                        f"empty outcome training set for arm {a}, fold {k}{cell_desc}"
                    )
                eta_fit = fit_learner(outcome_learner, features[out_train], y0[out_train])
                eta[eval_mask, a] = eta_fit(features[eval_mask])
                if any_missing:
                    if not train_mask.any():
                        raise ValidationError(
                            f"empty training set for arm {a}, fold {k}{cell_desc}"
                        )
                    kap_fit = fit_learner(
                        missingness_learner, features[train_mask], robs[train_mask]
                    )
                    kappa[eval_mask, a] = kap_fit(features[eval_mask])

    clip_count = 0
    if any_missing:
        used = kappa[np.arange(frame.n_units), arms]
        clip_count = int((used <= PROPENSITY_FLOOR).sum())
        kappa = np.clip(kappa, PROPENSITY_FLOOR, 1.0)

    a_f = arms.astype(float)
    brackets = np.empty((frame.n_units, 2))
    for a in (0, 1):
        ind = a_f if a == 1 else 1.0 - a_f
        pi_a = pi if a == 1 else 1.0 - pi
        brackets[:, a] = (
            ind / pi_a * robs / kappa[:, a] * (y0 - eta[:, a]) + eta[:, a]
        )
    mu1 = float(brackets[:, 1].mean())
    mu0 = float(brackets[:, 0].mean())
    delta = estimand.value(mu1, mu0)
    f1, f0 = estimand.gradient(mu1, mu0)
    eif = f1 * (brackets[:, 1] - mu1) + f0 * (brackets[:, 0] - mu0)

    return EstimateResult(
        delta_hat=float(delta),
        mu_hat=(mu1, mu0),
        theta_hat=np.array([delta, mu1, mu0]),
        if_values=eif,
        solver_diag=SolverDiag(iterations=0, residual_norm=float(abs(eif.mean()))),
        details={
            "fold_plan": plan,
            "clip_count": clip_count,
            "eta_hat": eta,
            "kappa_hat": kappa,
        },
    )

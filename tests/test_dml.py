import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rerand import (
    EstimandSpec,
    LearnerSpec,
    TrialFrame,
    estimate_dml,
    make_folds,
)
from rerand import dml
from rerand._seeds import derive_seed
from rerand.errors import ValidationError

from conftest import unit_labels

DIFF = EstimandSpec("difference")
CONSTANT = LearnerSpec(kind="stump_ensemble", trees=0)


def balanced_frame(seed, n=40, strata=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    arms = np.tile([1, 0], n // 2)
    y = x[:, 0] - 0.5 * x[:, 1] + arms + rng.normal(size=n)
    labels = None
    if strata > 1:
        labels = np.repeat([f"s{k}" for k in range(strata)], n // strata)
    else:
        labels = np.array(["s0"] * n)
    return TrialFrame(
        covariates=x, covariate_names=("x1", "x2"), outcome=y, arm=arms, stratum=labels
    )


class TestMakeFolds:
    def test_even_split(self):
        frame = balanced_frame(0, n=10)
        plan = make_folds(frame, 2, "plain", seed=1)
        sizes = np.bincount(plan)
        assert sorted(sizes.tolist()) == [5, 5]

    def test_remainder_rule(self):
        frame = TrialFrame(
            covariates=np.zeros((11, 1)), covariate_names=("x",)
        )
        plan = make_folds(frame, 2, "plain", seed=2)
        assert sorted(np.bincount(plan).tolist()) == [5, 6]

    def test_stratum_arm_cells_contribute_evenly(self):
        frame = balanced_frame(3, n=32, strata=2)  # cells of 8 units each
        plan = make_folds(frame, 4, "stratum_arm", seed=3)
        for label in ("s0", "s1"):
            for a in (0, 1):
                cell = (unit_labels(frame.stratum) == label) & (frame.arm == a)
                counts = np.bincount(plan[cell], minlength=4)
                assert counts.tolist() == [2, 2, 2, 2]

    def test_small_cell_rejected(self):
        frame = balanced_frame(4, n=12, strata=2)  # cells of 3 < K=4
        with pytest.raises(ValidationError, match="fewer than K"):
            make_folds(frame, 4, "stratum_arm", seed=4)

    def test_deterministic_given_seed(self):
        frame = balanced_frame(5, n=24)
        a = make_folds(frame, 3, "plain", seed=6)
        b = make_folds(frame, 3, "plain", seed=6)
        np.testing.assert_array_equal(a, b)


class TestLearners:
    def test_glm_identity_interpolates_three_points(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, 3.0, -2.0])
        predict = dml.fit_learners(LearnerSpec(kind="glm"), [X], [y])[0]
        design = np.column_stack([np.ones(3), X])
        oracle = np.linalg.solve(design, y)
        grid = np.array([[0.5, 0.5], [2.0, -1.0]])
        expected = np.column_stack([np.ones(2), grid]) @ oracle
        np.testing.assert_allclose(predict(grid), expected, atol=1e-10)

    def test_knn_with_all_neighbors_is_training_mean(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        predict = dml.fit_learners(LearnerSpec(kind="knn", k_neighbors=12), [X], [y])[0]
        np.testing.assert_allclose(predict(rng.normal(size=(5, 2))), y.mean(), atol=1e-12)

    def test_stump_ensemble_zero_trees_is_constant_mean(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        predict = dml.fit_learners(CONSTANT, [X], [y])[0]
        np.testing.assert_allclose(predict(X), y.mean(), atol=1e-12)

    def test_stump_ensemble_learns_a_step_function(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = np.where(X[:, 0] > 0.2, 3.0, -1.0)
        predict = dml.fit_learners(
            LearnerSpec(kind="stump_ensemble", trees=200, learning_rate=0.5), [X], [y]
        )[0]
        grid = np.array([[-0.5, 0.0], [0.6, 0.0]])
        np.testing.assert_allclose(predict(grid), [-1.0, 3.0], atol=0.05)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            dml.fit_learners(CONSTANT, [np.empty((0, 2))], [np.empty(0)])[0]


class TestEstimateDml:
    def test_constant_learner_recovers_treated_mean_under_exact_balance(self):
        # stratum-by-arm folds keep every fold exactly balanced, which makes
        # the augmentation terms cancel and mu-hat equal the raw arm mean
        frame = balanced_frame(11, n=40)
        res = estimate_dml(frame, CONSTANT, None, 5, "stratum_arm", DIFF, seed=1, pi=0.5)
        assert res.mu_hat[0] == pytest.approx(frame.outcome[frame.arm == 1].mean(), abs=1e-10)
        assert res.mu_hat[1] == pytest.approx(frame.outcome[frame.arm == 0].mean(), abs=1e-10)

    def test_influence_values_average_to_zero(self):
        frame = balanced_frame(12, n=60, strata=2)
        res = estimate_dml(
            frame,
            LearnerSpec(kind="glm"),
            None,
            3,
            "stratum_arm",
            DIFF,
            seed=2,
            pi=0.5,
        )
        assert abs(res.if_values.mean()) < 1e-8

    def test_no_systematic_fold_count_effect(self):
        # paired across K: same data analyzed with K=2 and K=5
        diffs = []
        for seed in range(30):
            frame = balanced_frame(100 + seed, n=80)
            d2 = estimate_dml(
                frame, LearnerSpec(kind="glm"), None, 2, "plain", DIFF, seed=3, pi=0.5
            ).delta_hat
            d5 = estimate_dml(
                frame, LearnerSpec(kind="glm"), None, 5, "plain", DIFF, seed=4, pi=0.5
            ).delta_hat
            diffs.append(d2 - d5)
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) < 4 * se + 1e-12

    def test_fold_relabeling_leaves_estimate_unchanged(self, monkeypatch):
        frame = balanced_frame(13, n=40)
        plan = make_folds(frame, 4, "plain", seed=5)
        relabeled = (plan + 1) % 4
        monkeypatch.setattr(dml, "make_folds", lambda *args: plan)
        res_a = estimate_dml(frame, LearnerSpec(kind="glm"), None, 4, "plain", DIFF, 6, 0.5)
        monkeypatch.setattr(dml, "make_folds", lambda *args: relabeled)
        res_b = estimate_dml(frame, LearnerSpec(kind="glm"), None, 4, "plain", DIFF, 6, 0.5)
        assert res_a.details["fold_plan"] is plan and res_b.details["fold_plan"] is relabeled
        assert res_a.delta_hat == res_b.delta_hat

    def test_stratum_arm_trains_within_cells_only(self):
        # outcome is a deterministic function of (arm, stratum); a constant
        # learner trained within each cell must reproduce it exactly
        n = 48
        arms = np.tile([1, 0], n // 2)
        strata = np.repeat(["s0", "s1"], n // 2)
        stratum_code = (strata == "s1").astype(float)
        y = 10.0 * stratum_code + arms
        frame = TrialFrame(
            covariates=np.random.default_rng(14).normal(size=(n, 1)),
            covariate_names=("x",),
            outcome=y,
            arm=arms,
            stratum=strata,
        )
        res = estimate_dml(frame, CONSTANT, None, 3, "stratum_arm", DIFF, seed=7, pi=0.5)
        eta = res.details["eta_hat"]
        for a in (0, 1):
            np.testing.assert_allclose(eta[:, a], 10.0 * stratum_code + a, atol=1e-12)
        assert res.delta_hat == pytest.approx(1.0, abs=1e-10)

    def test_heldout_discipline_bookkeeping(self):
        frame = balanced_frame(15, n=40, strata=2)
        res = estimate_dml(
            frame, LearnerSpec(kind="glm"), None, 4, "stratum_arm", DIFF, seed=8, pi=0.5
        )
        plan = res.details["fold_plan"]
        expected = make_folds(frame, 4, "stratum_arm", derive_seed(8, "folds"))
        np.testing.assert_array_equal(plan, expected)
        # every unit's nuisance was produced by a model excluding its own fold
        for label in ("s0", "s1"):
            for a in (0, 1):
                cell = (unit_labels(frame.stratum) == label) & (frame.arm == a)
                counts = np.bincount(plan[cell], minlength=4)
                assert counts.max() - counts.min() <= 1

    def test_missingness_predictions_are_clipped_probabilities(self):
        # observed only where x1 > -0.5: the logistic missingness fits separate
        # and predict far below 0.01 left of the step
        frame = balanced_frame(10, n=60)
        y = np.where(frame.column("x1") > -0.5, frame.outcome, np.nan)
        frame = replace(frame, outcome=y)
        res = estimate_dml(
            frame, LearnerSpec(kind="glm"), LearnerSpec(kind="glm"), 3, "plain", DIFF,
            seed=9, pi=0.5,
        )
        assert res.details["kappa_hat"].min() >= 0.01
        # each unit's raw own-arm kappa-hat, from a logit GLM fitted alone to
        # the other folds' units of that arm
        plan, raw = res.details["fold_plan"], np.empty(frame.n_units)
        logit = LearnerSpec(kind="glm", link="logit")
        for k in range(3):
            for a in (0, 1):
                train, held = (plan != k) & (frame.arm == a), (plan == k) & (frame.arm == a)
                fit = dml.fit_learners(logit, [frame.covariates[train]], [frame.observed[train]])
                raw[held] = fit[0](frame.covariates[held])
        assert (raw < 0.01).any() and np.abs(raw - 0.01).min() > 1e-6
        assert res.details["propensity_clip_count"] == (raw < 0.01).sum()

    def test_propensity_at_the_floor_is_not_counted_as_clipped(self, monkeypatch):
        # np.clip leaves 0.01 unchanged, so a prediction sitting at the floor is
        # not clipped, as in DR-WLS's count and its Jacobian
        frame = balanced_frame(10, n=60)
        y = np.where(np.arange(60) % 5 == 0, np.nan, frame.outcome)
        frame = replace(frame, outcome=y)
        fit_learners = dml.fit_learners

        def floor_missingness(spec, Xs, ys):
            if spec.link != "logit":
                return fit_learners(spec, Xs, ys)
            return [lambda X: np.full(X.shape[0], 0.01) for _ in Xs]

        monkeypatch.setattr(dml, "fit_learners", floor_missingness)
        res = estimate_dml(
            frame, LearnerSpec(kind="glm"), LearnerSpec(kind="glm"), 3, "plain", DIFF,
            seed=9, pi=0.5,
        )
        assert (res.details["kappa_hat"] == 0.01).all()
        assert res.details["propensity_clip_count"] == 0

    def test_missing_outcomes_require_a_missingness_learner(self):
        frame = balanced_frame(16, n=40)
        y = np.array(frame.outcome)
        y[::7] = np.nan
        broken = TrialFrame(
            covariates=frame.covariates,
            covariate_names=frame.covariate_names,
            outcome=y,
            arm=frame.arm,
            stratum=frame.stratum,
        )
        with pytest.raises(ValidationError, match="missingness learner"):
            estimate_dml(broken, CONSTANT, None, 4, "plain", DIFF, seed=9, pi=0.5)

    def test_missingness_path_runs_and_centers(self):
        rng = np.random.default_rng(17)
        n = 80
        x = rng.normal(size=(n, 2))
        arms = np.tile([1, 0], n // 2)
        y = x[:, 0] + arms + rng.normal(size=n)
        robs = rng.random(n) < 0.8
        frame = TrialFrame(
            covariates=x,
            covariate_names=("x1", "x2"),
            outcome=np.where(robs, y, np.nan),
            arm=arms,
        )
        res = estimate_dml(
            frame,
            LearnerSpec(kind="glm"),
            LearnerSpec(kind="glm", link="logit"),
            4,
            "plain",
            DIFF,
            seed=10,
            pi=0.5,
        )
        assert abs(res.if_values.mean()) < 1e-8
        assert np.all(res.details["kappa_hat"] >= 0.01)


def _reference_fit_stumps(X: np.ndarray, y: np.ndarray, trees: int, rate: float, logistic: bool):
    """The tree-by-tree, feature-by-feature loop that ``dml._fit_stumps``
    replaced, kept verbatim as the oracle for its predictions."""
    n, p = X.shape
    if logistic:
        mean = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
        f0 = float(np.log(mean / (1.0 - mean)))
    else:
        f0 = float(y.mean())
    feats = np.empty(trees, dtype=np.int64)
    thrs = np.empty(trees)
    lefts = np.empty(trees)
    rights = np.empty(trees)
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=0)

    F = np.full(n, f0)
    used = 0
    for t in range(trees):
        grad = (y - expit(F)) if logistic else (y - F)
        best_gain = -np.inf
        best = None
        for j in range(p):
            gs = grad[order[:, j]]
            prefix = np.cumsum(gs)
            total = prefix[-1]
            xs = sorted_x[:, j]
            cut = np.flatnonzero(xs[:-1] < xs[1:])
            if cut.size == 0:
                continue
            left_n = cut + 1.0
            right_n = n - left_n
            lm = prefix[cut] / left_n
            rm = (total - prefix[cut]) / right_n
            gain = left_n * lm**2 + right_n * rm**2
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                k = cut[pos]
                best = (j, 0.5 * (xs[k] + xs[k + 1]), float(lm[pos]), float(rm[pos]))
        if best is None:
            break  # all features constant: nothing left to split on
        feats[t], thrs[t], lefts[t], rights[t] = best
        F = F + rate * np.where(X[:, feats[t]] <= thrs[t], lefts[t], rights[t])
        used = t + 1

    feats, thrs = feats[:used], thrs[:used]
    lefts, rights = lefts[:used], rights[:used]

    def predict(Xe: np.ndarray) -> np.ndarray:
        Xe = np.asarray(Xe, dtype=float)
        out = np.full(Xe.shape[0], f0)
        for t in range(used):
            out = out + rate * np.where(Xe[:, feats[t]] <= thrs[t], lefts[t], rights[t])
        return expit(out) if logistic else out

    return predict


def _panel_covariates(kind: str, n: int, p: int, rng) -> np.ndarray:
    if kind == "continuous":
        return rng.normal(size=(n, p))
    if kind == "tied":  # few distinct values: ties within and across features
        return rng.integers(0, 3, size=(n, p)).astype(float)
    if kind == "adjacent_floats":  # midpoints round onto one of the two values
        return 1.0 + rng.integers(0, 4, size=(n, p)) * np.spacing(1.0)
    if kind == "constant_column":
        X = rng.normal(size=(n, p))
        X[:, 0] = 1.5
        return X
    return np.full((n, p), 2.0)  # all constant


def _panel_outcome(kind: str, n: int, logistic: bool, rng) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(n)
    if kind == "ones":
        return np.ones(n)
    if logistic:
        return (rng.random(n) < 0.4).astype(float)
    return rng.normal(size=n)


def _assert_batch_matches(Xs, ys, trees, rate, logistic, evaluations):
    """Each fit of one batched ``dml._fit_stumps`` call predicts bit for bit
    what the reference loop predicts after fitting that training set alone."""
    fitted = dml._fit_stumps(Xs, ys, trees, rate, logistic)
    assert len(fitted) == len(Xs)
    for X, y, predict, Xe in zip(Xs, ys, fitted, evaluations):
        reference = _reference_fit_stumps(X, y, trees, rate, logistic)
        for E in (Xe, Xe[:0]):
            expected, got = reference(E), predict(E)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected, equal_nan=True)


def _assert_same_predictions(X, y, trees, rate, logistic, Xe):
    _assert_batch_matches([X], [y], trees, rate, logistic, [Xe])


class TestStumpOracle:
    """The vectorized stump learner reproduces the reference loop bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 80, 400])
    @pytest.mark.parametrize("p", [1, 3, 5])
    @pytest.mark.parametrize(
        "x_kind", ["continuous", "tied", "adjacent_floats", "constant_column", "all_constant"]
    )
    def test_fixed_panel(self, n, p, x_kind):
        rng = np.random.default_rng(1000 * n + 10 * p + len(x_kind))
        X = _panel_covariates(x_kind, n, p, rng)
        Xe = np.vstack([X, rng.normal(size=(7, p)), rng.integers(0, 3, size=(5, p))])
        for trees in (0, 1, 200):
            for logistic in (False, True):
                for y_kind in ("varied", "zeros", "ones"):
                    y = _panel_outcome(y_kind, n, logistic, rng)
                    _assert_same_predictions(X, y, trees, 0.1, logistic, Xe)

    def test_overflowing_gradients(self):
        # infinite prefix sums give NaN gains, which the split rule must skip
        rng = np.random.default_rng(3)
        for n, p in ((16, 1), (21, 2), (23, 3)):
            X = rng.normal(size=(n, p))
            y = rng.choice([1e308, -1e308, 1.0], size=n)
            with np.errstate(all="ignore"):
                _assert_same_predictions(X, y, 30, 0.1, False, X)

    def test_non_finite_covariates(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        X[rng.random(X.shape) < 0.2] = np.nan
        X[rng.random(X.shape) < 0.1] = np.inf
        X[rng.random(X.shape) < 0.1] = -np.inf
        with np.errstate(all="ignore"):
            _assert_same_predictions(X, rng.normal(size=30), 50, 0.1, False, X)

    @given(
        st.integers(1, 60),
        st.integers(1, 6),
        st.integers(0, 40),
        st.booleans(),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, n, p, trees, logistic, levels, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, p)) + 0.25 * rng.normal(size=(n, p)).round(1)
        y = _panel_outcome("varied", n, logistic, rng)
        Xe = rng.normal(size=(int(rng.integers(0, 20)), p))
        _assert_same_predictions(X, y, trees, float(rng.uniform(0.01, 1.0)), logistic, Xe)

    def test_estimate_dml_matches_reference_learner(self, monkeypatch):
        self._check_estimate_dml("stratum_arm", monkeypatch)

    def test_plain_folds_match_reference_learner(self, monkeypatch):
        self._check_estimate_dml("plain", monkeypatch)

    @staticmethod
    def _check_estimate_dml(mode, monkeypatch):
        rng = np.random.default_rng(18)
        n = 96
        arms = np.tile([1, 0], n // 2)
        strata = np.repeat(["s0", "s1", "s2"], n // 3)
        x = rng.normal(size=(n, 2))
        y = (x[:, 0] + arms + rng.normal(size=n) > 0.5).astype(float)
        frame = TrialFrame(
            covariates=x,
            covariate_names=("x1", "x2"),
            outcome=np.where(rng.random(n) < 0.85, y, np.nan),
            arm=arms,
            stratum=strata,
        )
        args = (
            frame,
            LearnerSpec(kind="stump_ensemble", trees=60, learning_rate=0.2, link="logit"),
            LearnerSpec(kind="stump_ensemble", trees=20),
            4,
            mode,
            DIFF,
        )
        new = estimate_dml(*args, seed=19, pi=0.5)
        batches = []

        def reference_batch(Xs, ys, *rest):
            batches.append(len(Xs))
            return [_reference_fit_stumps(X, y, *rest) for X, y in zip(Xs, ys)]

        monkeypatch.setattr(dml, "_fit_stumps", reference_batch)
        old = estimate_dml(*args, seed=19, pi=0.5)
        # one batch per learner: every (cell, fold, arm) training set at once
        cells = 3 if mode == "stratum_arm" else 1
        assert batches == [cells * 4 * 2] * 2
        assert np.array_equal(new.details["eta_hat"], old.details["eta_hat"])
        assert np.array_equal(new.details["kappa_hat"], old.details["kappa_hat"])
        assert np.array_equal(new.if_values, old.if_values)
        assert new.delta_hat == old.delta_hat


def _batch_covariates(rng, n, p, levels):
    return rng.integers(0, levels, size=(n, p)) + 0.25 * rng.normal(size=(n, p)).round(1)


class TestBatchedStumps:
    """One batched call fits every ensemble as the reference loop fits it alone,
    whatever the other fits in the batch look like."""

    @staticmethod
    def _check(Xs, ys, rng, trees_grid=(0, 1, 200)):
        evaluations = [np.vstack([X, rng.normal(size=(4, X.shape[1]))]) for X in Xs]
        for trees in trees_grid:
            for logistic in (False, True):
                _assert_batch_matches(Xs, ys, trees, 0.1, logistic, evaluations)

    @staticmethod
    def _outcomes(sizes, rng):
        return [(rng.random(n) < 0.4).astype(float) for n in sizes]

    def test_one_row_fits_beside_ninety_row_fits(self):
        rng = np.random.default_rng(30)
        sizes = (1, 90, 1, 37, 90, 2)
        Xs = [_batch_covariates(rng, n, 3, 4) for n in sizes]
        self._check(Xs, self._outcomes(sizes, rng), rng)
        self._check(Xs, [rng.normal(size=n) for n in sizes], rng)

    def test_all_constant_fit_beside_normal_fits(self):
        rng = np.random.default_rng(31)
        Xs = [
            rng.normal(size=(40, 2)),
            np.full((25, 2), 2.0),  # no cut at all
            np.column_stack([np.full(30, 1.5), rng.normal(size=30)]),
            rng.integers(0, 2, size=(12, 2)).astype(float),
        ]
        self._check(Xs, self._outcomes([40, 25, 30, 12], rng), rng)

    def test_only_constant_fits(self):
        rng = np.random.default_rng(32)
        Xs = [np.full((n, 2), float(n)) for n in (1, 5, 9)]
        self._check(Xs, self._outcomes([1, 5, 9], rng), rng)

    def test_overflowing_fits_beside_fits_that_run_every_tree(self):
        rng = np.random.default_rng(3)
        Xs = [rng.normal(size=(23, 3)) for _ in range(4)]
        # the first fit's prefix sums overflow at once: every gain is NaN and
        # it keeps no tree, while its neighbours boost on
        ys = [rng.choice([1e308, -1e308, 1.0], size=23)] + [rng.normal(size=23) for _ in range(3)]
        # at rates above 2 least squares diverges: the 1e300 fit overflows and
        # stops after 14-46 trees, the 1e250 fit after 98-200, and the
        # unit-scale fits run all 200
        diverging = [rng.normal(size=23) * scale for scale in (1e300, 1.0, 1e250, 1.0)]
        with np.errstate(all="ignore"):
            _assert_batch_matches(Xs, ys, 200, 0.1, False, Xs)
            _assert_batch_matches(Xs[::-1], ys[::-1], 200, 0.1, False, Xs[::-1])
            for rate in (2.5, 3.0, 5.0):
                _assert_batch_matches(Xs, diverging, 200, rate, False, Xs)

    def test_non_finite_covariates_beside_finite_ones(self):
        rng = np.random.default_rng(4)
        Xs = [rng.normal(size=(n, 3)) for n in (30, 17, 44)]
        Xs[1][rng.random(Xs[1].shape) < 0.2] = np.nan
        Xs[1][rng.random(Xs[1].shape) < 0.1] = np.inf
        Xs[1][rng.random(Xs[1].shape) < 0.1] = -np.inf
        with np.errstate(all="ignore"):
            self._check(Xs, [rng.normal(size=X.shape[0]) for X in Xs], rng, (50,))

    @given(
        st.lists(
            st.tuples(st.integers(1, 90), st.integers(1, 5), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 4),
        st.integers(0, 40),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_batches(self, fits, p, trees, logistic):
        Xs, ys, evaluations = [], [], []
        for n, levels, seed in fits:
            rng = np.random.default_rng(seed)
            Xs.append(_batch_covariates(rng, n, p, levels))
            ys.append(_panel_outcome("varied", n, logistic, rng))
            evaluations.append(rng.normal(size=(int(rng.integers(0, 20)), p)))
        rate = float(np.random.default_rng(fits[0][2]).uniform(0.01, 1.0))
        _assert_batch_matches(Xs, ys, trees, rate, logistic, evaluations)


def _reference_fit_glm(X: np.ndarray, y: np.ndarray, logistic: bool):
    """The one-fit, fixed-25-step IRLS that ``dml._fit_glms`` replaced, kept
    verbatim as the oracle for its predictions."""
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


# The batched GLM rounds differently from one ``lstsq`` per step (a stacked
# SVD, zero padding) and stops early, so it matches the oracle to a tolerance
# fixed here: absolute on probabilities, relative to the largest reference
# prediction on the identity link.
GLM_PROB_ATOL = 1e-12
GLM_LINEAR_RTOL = 1e-10
# A separable logistic fit has no maximum-likelihood estimate: its
# coefficients keep drifting, and the early stop can end the drift several
# steps before the oracle's 25. On its training rows it still matches to
# GLM_PROB_ATOL; off them, a tiny separable fit moved by up to 1.3e-11 in a
# sweep of 4,000 random fits of 1-90 rows.
GLM_SEPARABLE_FRESH_ATOL = 1e-10


def _assert_glm_batch_matches(Xs, ys, logistic, fresh, fresh_atol=GLM_PROB_ATOL):
    """Each fit of one batched ``dml._fit_glms`` call predicts, on its own
    training rows and on the rows ``fresh[i]``, what the oracle predicts
    after fitting that training set alone. ``fresh_atol`` is one tolerance
    for every fit's fresh rows, or one per fit."""
    fitted = dml._fit_glms(Xs, ys, logistic)
    assert len(fitted) == len(Xs)
    fresh_atols = np.broadcast_to(fresh_atol, len(Xs))
    for X, y, predict, Xe, fresh_atol in zip(Xs, ys, fitted, fresh, fresh_atols):
        reference = _reference_fit_glm(X, y, logistic)
        for E, atol in ((X, GLM_PROB_ATOL), (Xe, fresh_atol)):
            expected, got = reference(E), predict(E)
            assert got.shape == expected.shape
            if logistic:
                assert np.all((got >= 0.0) & (got <= 1.0))
                np.testing.assert_allclose(got, expected, rtol=0, atol=atol)
            else:
                scale = np.abs(expected).max(initial=1.0)
                np.testing.assert_allclose(got, expected, rtol=0, atol=GLM_LINEAR_RTOL * scale)


def _glm_batch(rng, sizes, p, share=0.85):
    Xs = [rng.normal(size=(n, p)) for n in sizes]
    binary = [(rng.random(n) < share).astype(float) for n in sizes]
    linear = [X @ rng.normal(size=p) + rng.normal(size=X.shape[0]) for X in Xs]
    fresh = [rng.normal(size=(9, p)) for _ in sizes]
    return Xs, binary, linear, fresh


def _count_solves(monkeypatch):
    """Record how many fits each IRLS step of ``dml._fit_glms`` solves."""
    solves = []
    inner = dml._min_norm_solve
    monkeypatch.setattr(
        dml, "_min_norm_solve", lambda A, *rest: solves.append(A.shape[0]) or inner(A, *rest)
    )
    return solves


class TestBatchedGlm:
    """One batched IRLS loop fits every GLM as the oracle fits it alone, to
    the tolerances above."""

    def test_one_row_to_ninety_row_fits(self):
        rng = np.random.default_rng(40)
        sizes = (1, 90, 2, 37, 90, 5, 64)
        Xs, binary, linear, fresh = _glm_batch(rng, sizes, 3)
        # fits of 1, 2 and 5 rows are constant or separable: compare them off
        # their rows at the separable tolerance
        atols = [GLM_SEPARABLE_FRESH_ATOL if n <= 5 else GLM_PROB_ATOL for n in sizes]
        _assert_glm_batch_matches(Xs, binary, True, fresh, atols)
        _assert_glm_batch_matches(Xs, linear, False, fresh)

    def test_rank_deficient_designs(self):
        # under stratum-by-arm folds the stratum dummy is constant within a
        # training set: all zeros, or equal to the intercept
        rng = np.random.default_rng(41)
        sizes = (60, 75, 82, 44)
        Xs, binary, linear, fresh = _glm_batch(rng, sizes, 2)
        dummy = [np.column_stack([X, np.full(X.shape[0], float(i % 2))]) for i, X in enumerate(Xs)]
        twice = [np.column_stack([X, X[:, :1]]) for X in Xs]  # a repeated column
        for designs in (dummy, twice):
            fresh_rows = [np.column_stack([E, E[:, :1]]) for E in fresh]
            _assert_glm_batch_matches(designs, binary, True, fresh_rows)
            _assert_glm_batch_matches(designs, linear, False, fresh_rows)

    def test_constant_targets(self):
        rng = np.random.default_rng(42)
        Xs, binary, _, fresh = _glm_batch(rng, (30, 12, 50), 2)
        ys = [np.zeros(30), np.ones(12), binary[2]]
        _assert_glm_batch_matches(Xs, ys, True, fresh)
        _assert_glm_batch_matches(Xs, ys, False, fresh)
        fitted = dml._fit_glms(Xs, ys, True)
        assert np.array_equal(fitted[0](fresh[0]), np.zeros(9))
        assert np.array_equal(fitted[1](fresh[1]), np.ones(9))

    def test_separable_targets(self):
        rng = np.random.default_rng(43)
        grid = np.linspace(-1.0, 1.0, 30)[:, None]
        Xs = [
            np.arange(4.0)[:, None],
            np.arange(6.0)[:, None],
            grid,
            rng.normal(size=(50, 1)),
        ]
        ys = [
            np.array([0.0, 0.0, 1.0, 1.0]),
            (np.arange(6) > 2).astype(float),
            (grid[:, 0] > 0).astype(float),
            (Xs[3][:, 0] > 0.3).astype(float),
        ]
        fresh = [np.linspace(-3.0, 6.0, 19)[:, None]] * 4
        _assert_glm_batch_matches(Xs, ys, True, fresh, GLM_SEPARABLE_FRESH_ATOL)

    def test_demo_shaped_fits_stop_before_the_cap(self, monkeypatch):
        # 20 fits as in a stratum-by-arm estimate: 60-90 rows, two covariates
        # and a stratum dummy constant within each fit, 85% observed
        rng = np.random.default_rng(44)
        sizes = rng.integers(60, 91, size=20)
        Xs, binary, _, fresh = _glm_batch(rng, sizes, 2)
        Xs = [np.column_stack([X, np.full(X.shape[0], float(i % 2))]) for i, X in enumerate(Xs)]
        fresh = [np.column_stack([E, np.zeros(9)]) for E in fresh]
        solves = _count_solves(monkeypatch)
        _assert_glm_batch_matches(Xs, binary, True, fresh)
        assert solves[0] == 20
        assert len(solves) < dml._GLM_ITERATIONS

    def test_fit_that_never_converges_stops_at_the_cap(self, monkeypatch):
        # two rows, y = x: the coefficients grow without bound (about 33 after
        # 25 steps, 40 after 400), so the relative step never gets small
        rng = np.random.default_rng(45)
        Xs, binary, _, _ = _glm_batch(rng, (70, 80), 1)
        Xs.insert(1, np.array([[0.0], [1.0]]))
        binary.insert(1, np.array([0.0, 1.0]))
        solves = _count_solves(monkeypatch)
        fitted = dml._fit_glms(Xs, binary, True)
        assert len(solves) == dml._GLM_ITERATIONS
        assert solves[0] == 3 and solves[-1] == 1
        grid = np.linspace(-50.0, 50.0, 101)[:, None]
        got = fitted[1](grid)
        assert np.all(np.isfinite(got)) and got.min() >= 0.0 and got.max() <= 1.0
        np.testing.assert_allclose(
            got, _reference_fit_glm(Xs[1], binary[1], True)(grid), rtol=0, atol=GLM_PROB_ATOL
        )

    @given(
        st.lists(st.tuples(st.integers(1, 90), st.integers(0, 2**32 - 1)), min_size=1, max_size=12),
        st.integers(1, 4),
        st.sampled_from(["none", "zero", "intercept"]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_batches(self, fits, p, extra, logistic):
        Xs, ys, fresh = [], [], []
        for n, seed in fits:
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(n, p)).round(1)
            Xe = rng.normal(size=(int(rng.integers(0, 10)), p))
            if extra != "none":
                value = 0.0 if extra == "zero" else 1.0
                X = np.column_stack([X, np.full(n, value)])
                Xe = np.column_stack([Xe, np.full(Xe.shape[0], value)])
            if logistic:
                ys.append((rng.random(n) < rng.uniform(0.5, 0.95)).astype(float))
            else:
                ys.append(X @ rng.normal(size=X.shape[1]) + rng.normal(size=n))
            Xs.append(X)
            fresh.append(Xe)
        # a random small fit may be separable
        _assert_glm_batch_matches(Xs, ys, logistic, fresh, GLM_SEPARABLE_FRESH_ATOL)

    @pytest.mark.parametrize("mode", ["stratum_arm", "plain"])
    def test_estimate_dml_matches_reference_learner(self, mode, monkeypatch):
        rng = np.random.default_rng(46)
        n = 96
        arms = np.tile([1, 0], n // 2)
        x = rng.normal(size=(n, 2))
        frame = TrialFrame(
            covariates=x,
            covariate_names=("x1", "x2"),
            outcome=np.where(rng.random(n) < 0.85, x[:, 0] + arms + rng.normal(size=n), np.nan),
            arm=arms,
            stratum=np.repeat(["s0", "s1", "s2"], n // 3),
        )
        logit = LearnerSpec(kind="glm", link="logit")
        args = (frame, LearnerSpec(kind="glm"), logit, 4, mode, DIFF)
        new = estimate_dml(*args, seed=47, pi=0.5)
        batches = []

        def reference_batch(Xs, ys, logistic):
            batches.append(len(Xs))
            return [_reference_fit_glm(X, y, logistic) for X, y in zip(Xs, ys)]

        monkeypatch.setattr(dml, "_fit_glms", reference_batch)
        old = estimate_dml(*args, seed=47, pi=0.5)
        cells = 3 if mode == "stratum_arm" else 1
        assert batches == [cells * 4 * 2] * 2
        np.testing.assert_allclose(
            new.details["kappa_hat"], old.details["kappa_hat"], rtol=0, atol=GLM_PROB_ATOL
        )
        eta_scale = np.abs(old.details["eta_hat"]).max()
        np.testing.assert_allclose(
            new.details["eta_hat"], old.details["eta_hat"], rtol=0, atol=GLM_LINEAR_RTOL * eta_scale
        )
        assert new.delta_hat == pytest.approx(old.delta_hat, rel=1e-9)


class TestBatchGroups:
    """Batches are split by padded size, a pure function of the set shapes."""

    def test_groups_follow_the_cell_cap(self, monkeypatch):
        monkeypatch.setattr(dml, "_BATCH_CELLS", 100)
        shapes = [(10, 2), (20, 2), (5, 2), (60, 2), (1, 2)]
        # 3 * 20 * 2 > 100 closes the first group; (60, 2) alone exceeds the
        # cap and is a group of one
        assert dml._batches(shapes) == [slice(0, 2), slice(2, 3), slice(3, 4), slice(4, 5)]
        assert dml._batches([(200, 3)]) == [slice(0, 1)]
        assert dml._batches([(25, 2), (25, 2), (1, 2)]) == [slice(0, 2), slice(2, 3)]  # at the cap

    def test_demo_sized_batch_is_one_group(self):
        assert dml._batches([(90, 3)] * 20) == [slice(0, 20)]

    @pytest.mark.parametrize("kind", ["glm", "knn", "stump_ensemble"])
    def test_empty_batch_fits_nothing(self, kind):
        assert dml.fit_learners(LearnerSpec(kind=kind), [], []) == []

    def test_capped_stumps_equal_uncapped_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(48)
        sizes = (1, 90, 2, 37, 90, 5, 64, 12)
        Xs = [_batch_covariates(rng, n, 3, 4) for n in sizes]
        Xe = rng.normal(size=(15, 3))
        for spec in (
            LearnerSpec(kind="stump_ensemble", trees=40),
            LearnerSpec(kind="stump_ensemble", trees=40, link="logit"),
        ):
            ys = [(rng.random(n) < 0.6).astype(float) for n in sizes]
            whole = dml.fit_learners(spec, Xs, ys)
            monkeypatch.setattr(dml, "_BATCH_CELLS", 600)
            batches = []
            inner = dml._fit_stumps
            monkeypatch.setattr(
                dml, "_fit_stumps", lambda Xs, *rest: batches.append(len(Xs)) or inner(Xs, *rest)
            )
            capped = dml.fit_learners(spec, Xs, ys)
            monkeypatch.undo()
            assert batches == [2, 2, 2, 2]
            for a, b in zip(whole, capped):
                assert np.array_equal(a(Xe), b(Xe))

    def test_capped_glms_match_the_oracle(self, monkeypatch):
        monkeypatch.setattr(dml, "_BATCH_CELLS", 300)
        rng = np.random.default_rng(49)
        sizes = (90, 37, 90, 64, 12)
        Xs, binary, linear, fresh = _glm_batch(rng, sizes, 3)
        logit = LearnerSpec(kind="glm", link="logit")
        for spec, ys in ((logit, binary), (LearnerSpec(kind="glm"), linear)):
            for X, y, predict, Xe in zip(Xs, ys, dml.fit_learners(spec, Xs, ys), fresh):
                expected = _reference_fit_glm(X, y, spec.link == "logit")(Xe)
                np.testing.assert_allclose(predict(Xe), expected, rtol=0, atol=GLM_LINEAR_RTOL)

    def test_plain_mode_peak_memory_is_bounded(self):
        # plain folds K=5, n=4,000, 20 covariates + 9 stratum dummies: 10 stump
        # fits of 3,200 rows. One batch of all 10 peaked at 69 MiB; fits
        # grouped under the cap peak at about 18 MiB.
        rng = np.random.default_rng(50)
        n = 4000
        arms = np.tile([1, 0], n // 2)
        x = rng.normal(size=(n, 20))
        frame = TrialFrame(
            covariates=x,
            covariate_names=tuple(f"x{j}" for j in range(20)),
            outcome=x[:, 0] + arms + rng.normal(size=n),
            arm=arms,
            stratum=np.array([f"s{k}" for k in rng.integers(0, 10, size=n)]),
        )
        tracemalloc.start()
        try:
            estimate_dml(
                frame, LearnerSpec(kind="stump_ensemble", trees=1), None, 5, "plain",
                DIFF, seed=51, pi=0.5,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestLearnerInputs:
    """Every target has one value per training row and every training set in
    a batch has the same columns."""

    @pytest.mark.parametrize(
        "spec",
        [
            LearnerSpec(kind="glm"),
            LearnerSpec(kind="glm", link="logit"),
            LearnerSpec(kind="knn"),
            CONSTANT,
        ],
    )
    @pytest.mark.parametrize("rows", [5, 8])
    def test_target_length_must_match_rows(self, spec, rows):
        X = np.random.default_rng(52).normal(size=(6, 2))
        with pytest.raises(ValidationError, match="one value per training row"):
            dml.fit_learners(spec, [X], [np.arange(rows) % 2])[0]

    def test_two_dimensional_target_rejected(self):
        X = np.random.default_rng(53).normal(size=(6, 2))
        with pytest.raises(ValidationError, match="one value per training row"):
            dml.fit_learners(LearnerSpec(kind="glm"), [X], [np.zeros((6, 1))])[0]

    def test_missing_target_rejected(self):
        X = np.random.default_rng(54).normal(size=(6, 2))
        with pytest.raises(ValidationError, match="one value per training row"):
            dml.fit_learners(LearnerSpec(kind="knn"), [X, X], [np.zeros(6)])

    def test_one_dimensional_covariates_rejected_as_such(self):
        with pytest.raises(ValidationError, match="2-D"):
            dml.fit_learners(LearnerSpec(kind="glm"), [np.zeros(5)], [np.zeros(5)])[0]

    @pytest.mark.parametrize("kind", ["glm", "knn", "stump_ensemble"])
    @pytest.mark.parametrize(
        "X,y",
        [
            ([[np.nan], [1.0], [2.0]], [0.0, 1.0, 1.0]),
            ([[0.0], [np.inf], [2.0]], [0.0, 1.0, 1.0]),
            ([[0.0], [1.0], [2.0]], [0.0, np.nan, 1.0]),
        ],
    )
    def test_non_finite_inputs_rejected_before_fitting(self, kind, X, y):
        with pytest.raises(ValidationError, match="finite"):
            dml.fit_learners(LearnerSpec(kind=kind), [X], [y])[0]

    @pytest.mark.parametrize("kind", ["glm", "knn", "stump_ensemble"])
    def test_feature_counts_must_agree(self, kind):
        rng = np.random.default_rng(55)
        Xs = [rng.normal(size=(6, 2)), rng.normal(size=(6, 3))]
        with pytest.raises(ValidationError, match="number of features"):
            dml.fit_learners(LearnerSpec(kind=kind), Xs, [np.zeros(6), np.zeros(6)])


def _reference_knn_predict(X, y, k, Xe):
    """k-NN prediction over all evaluation rows at once."""
    mean, sd = X.mean(axis=0), X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    train, Xe = (X - mean) / sd, (Xe - mean) / sd
    d2 = ((Xe[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    return y[np.argsort(d2, axis=1, kind="stable")[:, : min(k, X.shape[0])]].mean(axis=1)


class TestKnnBlocks:
    @pytest.mark.parametrize("chunk", [1, 3 * 40 * 3, 1 << 20])
    def test_blocked_prediction_matches_one_block(self, chunk, monkeypatch):
        rng = np.random.default_rng(33)
        X = rng.integers(0, 3, size=(40, 3)).astype(float)  # ties between neighbours
        y = rng.normal(size=40)
        Xe = rng.integers(0, 3, size=(23, 3)).astype(float)
        monkeypatch.setattr(dml, "_KNN_CHUNK", chunk)
        for k in (1, 5, 40, 60):
            predict = dml.fit_learners(LearnerSpec(kind="knn", k_neighbors=k), [X], [y])[0]
            assert np.array_equal(predict(Xe), _reference_knn_predict(X, y, k, Xe))
            assert predict(Xe[:0]).shape == (0,)

    def test_prediction_memory_is_bounded(self):
        # one block of all 500 rows would hold two (500, 1000, 29) float64
        # temporaries, about 116 MB each
        rng = np.random.default_rng(34)
        X, y = rng.normal(size=(1000, 29)), rng.normal(size=1000)
        Xe = rng.normal(size=(500, 29))
        predict = dml.fit_learners(LearnerSpec(kind="knn", k_neighbors=5), [X], [y])[0]
        tracemalloc.start()
        try:
            predict(Xe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestEstimateDmlValidation:
    """Empty training sets fail by arm, fold and stratum before any fit."""

    @staticmethod
    def _frame(observed):
        rng = np.random.default_rng(35)
        n = 40
        arms = np.tile([1, 0], n // 2)
        strata = np.repeat(["s0", "s1"], n // 2)
        y = rng.normal(size=n)
        return TrialFrame(
            covariates=rng.normal(size=(n, 2)),
            covariate_names=("x1", "x2"),
            outcome=np.where(observed(arms, strata), y, np.nan),
            arm=arms,
            stratum=strata,
        )

    @staticmethod
    def _count_fits(monkeypatch):
        calls = []
        for name in ("_fit_stumps", "_fit_glms", "_fit_knn"):
            inner = getattr(dml, name)
            monkeypatch.setattr(
                dml, name, lambda *a, inner=inner: calls.append(1) or inner(*a)
            )
        return calls

    def test_cell_fold_without_observed_outcomes(self, monkeypatch):
        # every arm-1 outcome of stratum s1 is missing
        frame = self._frame(lambda arms, strata: (arms == 0) | (strata == "s0"))
        calls = self._count_fits(monkeypatch)
        with pytest.raises(
            ValidationError, match="empty outcome training set for arm 1, fold 0, stratum 's1'"
        ):
            estimate_dml(
                frame, CONSTANT, LearnerSpec(kind="glm", link="logit"), 4, "stratum_arm",
                DIFF, seed=20, pi=0.5,
            )
        assert calls == []

    def test_arm_without_training_rows(self, monkeypatch):
        frame = self._frame(lambda arms, strata: np.arange(arms.size) != 3)
        assignment = make_folds(frame, 4, "stratum_arm", seed=21)
        # all arm-1 units of stratum s1 in fold 2: fold 2 has no arm-1 training rows
        assignment[(frame.arm == 1) & (unit_labels(frame.stratum) == "s1")] = 2
        monkeypatch.setattr(dml, "make_folds", lambda *args: assignment)
        calls = self._count_fits(monkeypatch)
        with pytest.raises(
            ValidationError, match="empty training set for arm 1, fold 2, stratum 's1'"
        ):
            estimate_dml(
                frame, CONSTANT, LearnerSpec(kind="glm", link="logit"), 4, "stratum_arm",
                DIFF, seed=22, pi=0.5,
            )
        assert calls == []

    def test_counter_sees_fits(self, monkeypatch):
        frame = self._frame(lambda arms, strata: np.arange(arms.size) != 3)
        calls = self._count_fits(monkeypatch)
        estimate_dml(
            frame, CONSTANT, LearnerSpec(kind="glm", link="logit"), 4, "stratum_arm",
            DIFF, seed=23, pi=0.5,
        )
        assert len(calls) == 2  # one stump batch, one GLM batch


class TestLearnerSpecValidation:
    def test_negative_trees_rejected(self):
        with pytest.raises(ValidationError, match="trees"):
            LearnerSpec(kind="stump_ensemble", trees=-3)

    def test_fractional_trees_rejected(self):
        with pytest.raises(ValidationError, match="trees"):
            LearnerSpec(kind="stump_ensemble", trees=2.5)

    def test_zero_trees_allowed(self):
        assert LearnerSpec(kind="stump_ensemble", trees=0).trees == 0

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -0.1])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValidationError, match="learning_rate"):
            LearnerSpec(kind="stump_ensemble", learning_rate=rate)

    def test_zero_neighbors_rejected(self):
        with pytest.raises(ValidationError, match="k_neighbors"):
            LearnerSpec(kind="knn", k_neighbors=0)

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import chi2

import rerand.allocation
import rerand.inference
from rerand import (
    LimitSpec,
    chi_square_cdf,
    confidence_interval,
    normal_interval,
    sample_limit,
    scheme_plugins,
    v_qt,
    variance_simple,
)
from rerand.allocation import arm_product, balance_distance, centered_scatter
from rerand.data_model import factorize
from rerand.errors import (
    DiagnosticWarning,
    NumericError,
    SingularMatrixError,
    ValidationError,
)
from rerand.inference import _acceptance_mass, _as_matrix, _clamp_unit, _forms_in_d, _spd_sqrt

IF_FIXTURE = np.array([-2.0, 2.0, 1.0, -1.0])
ARMS_FIXTURE = np.array([1, 1, 0, 0])
# V-tilde-hat < 0: at pi = 0.2 stratum a, all in arm 1, has a large between-arm term
FLOORED_FIXTURE = dict(
    if_values=np.array([1, 1.1, 0.9, 1, 1.05, 0.95, 0.1, -0.1, 0.2, -0.2, 0.1, -0.1]),
    arms=np.array([1] * 6 + [1, 0, 0, 0, 0, 1]),
    pi=0.2,
    strata=factorize(np.array(["a"] * 6 + ["b"] * 6, dtype=object)),
)


class TestVarianceSimple:
    def test_hand_arithmetic(self):
        assert variance_simple(IF_FIXTURE) == pytest.approx(2.5)

    def test_zero_values(self):
        assert variance_simple(np.zeros(4)) == 0.0

    @given(st.floats(-10, 10).filter(lambda c: abs(c) > 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_homogeneity(self, c):
        base = variance_simple(IF_FIXTURE)
        assert variance_simple(c * IF_FIXTURE) == pytest.approx(c**2 * base)


class TestRsquaredSimple:
    def test_hand_arithmetic(self):
        # C-hat = 1.5, n Vhat(I) = 5, V-hat = 2.5 -> 0.18
        xr = np.array([1.0, 2.0, 3.0, 4.0])
        _, r2, c_hat, _ = scheme_plugins(IF_FIXTURE, ARMS_FIXTURE, 0.5, xr)
        assert c_hat == pytest.approx([1.5])
        assert r2 == pytest.approx(0.18)

    def test_orthogonal_if_gives_zero(self):
        # IF constant within arms makes the weighted covariance vanish
        ifv = np.array([1.0, 1.0, -1.0, -1.0])
        xr = np.array([1.0, -1.0, 1.0, -1.0])
        assert scheme_plugins(ifv, ARMS_FIXTURE, 0.5, xr)[1] == pytest.approx(0.0)

    def test_constant_xr_is_singular(self):
        with pytest.raises(SingularMatrixError):
            scheme_plugins(IF_FIXTURE, ARMS_FIXTURE, 0.5, np.ones(4))

    def test_zero_variance_makes_r2_undefined(self):
        with pytest.raises(NumericError, match=r"^V-hat is zero: R\^2 undefined$"):
            scheme_plugins(np.zeros(4), np.array([1, 0, 1, 0]), 0.5, np.array([0.0, 1, 2, 4]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_scatter_is_a_validation_error(self):
        # finite X^r whose scatter overflows: R^2 would read NaN
        rng = np.random.default_rng(5)
        xr = rng.normal(size=(40, 2)) * 1e155
        with pytest.raises(ValidationError, match="weight matrix must be finite"):
            scheme_plugins(rng.normal(size=40), np.array([1, 0] * 20), 0.5, xr)

    @pytest.mark.parametrize("stratified", [False, True])
    def test_overflowing_scatter_raises_without_a_numpy_warning(self, stratified):
        rng = np.random.default_rng(5)
        xr = rng.normal(size=(40, 2)) * 1e155
        strata = factorize(np.array(["a", "a", "b", "b"] * 10)) if stratified else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="weight matrix must be finite"):
                scheme_plugins(rng.normal(size=40), np.array([1, 0] * 20), 0.5, xr, strata)

    def test_invariant_to_adding_constants_to_xr(self):
        rng = np.random.default_rng(0)
        ifv = rng.normal(size=30)
        arms = np.array([1, 0] * 15)
        xr = rng.normal(size=(30, 2))
        base = scheme_plugins(ifv, arms, 0.5, xr)[1]
        shifted = scheme_plugins(ifv, arms, 0.5, xr + [17.0, -4.0])[1]
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_clamp_to_unit_interval_warns(self):
        rng = np.random.default_rng(27)
        arms = (rng.random(8) < 0.2).astype(int)
        ifv = rng.normal(size=8)
        ifv -= ifv.mean()
        xr = rng.normal(size=8)
        with pytest.warns(DiagnosticWarning, match="clamped"):
            value = scheme_plugins(ifv, arms, 0.2, xr)[1]
        assert value == 1.0


class TestVarianceStratified:
    def test_zero_if_values(self):
        strata = np.array(["a", "a", "b", "b"], dtype=object)
        assert scheme_plugins(np.zeros(4), ARMS_FIXTURE, 0.5, None, factorize(strata))[0] == 0.0

    def test_single_stratum_hand_arithmetic(self):
        strata = np.array(["s"] * 4, dtype=object)
        # d-hat = (2(-2) + 2(2) - 2(1) - 2(-1)) / 4 = 0, so V-tilde = V-hat
        v_t = scheme_plugins(IF_FIXTURE, ARMS_FIXTURE, 0.5, None, factorize(strata))[0]
        assert v_t == pytest.approx(2.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_simple_variance(self, seed):
        rng = np.random.default_rng(seed)
        n = 24
        ifv = rng.normal(size=n)
        arms = np.array([1, 0] * (n // 2))
        strata = np.array(["a", "b", "c"] * (n // 3), dtype=object)
        v_t = scheme_plugins(ifv, arms, 0.5, None, factorize(strata))[0]
        assert v_t <= variance_simple(ifv) + 1e-12

    def test_negative_estimate_is_floored_at_zero_with_a_warning(self):
        message = r"^stratified variance estimate -1\.488e\+00 floored at 0$"
        with pytest.warns(DiagnosticWarning, match=message):
            assert scheme_plugins(**FLOORED_FIXTURE) == (0.0, None, None, None)

    def test_floored_estimate_makes_r2_undefined(self):
        message = r"^stratified variance estimate is zero: R\^2 undefined$"
        with pytest.warns(DiagnosticWarning, match="floored at 0"):
            with pytest.raises(NumericError, match=message):
                scheme_plugins(**FLOORED_FIXTURE, Xr=np.arange(12.0)[:, None])


class TestRsquaredStratified:
    def test_zero_when_weighted_covariance_vanishes(self):
        ifv = np.array([1.0, -1.0, 1.0, -1.0])
        xr = np.array([1.0, 2.0, 1.0, 2.0])
        strata = np.array(["s"] * 4, dtype=object)
        r2 = scheme_plugins(ifv, ARMS_FIXTURE, 0.5, xr, factorize(strata))[1]
        assert r2 == pytest.approx(0.0)

    def test_single_stratum_matches_simple_up_to_variance_scalar(self):
        # with one stratum C-hat and n Vhat(I) coincide, so the two R^2
        # estimators differ only through V-hat versus V-tilde-hat
        ifv = np.array([-2.0, 2.0, 1.5, -1.0, 0.5, -1.0])
        arms = np.array([1, 1, 1, 0, 0, 0])
        xr = np.array([1.0, 2.0, 3.0, 4.0, 0.5, 2.0])
        strata = np.array(["s"] * 6, dtype=object)
        r2_simple = scheme_plugins(ifv, arms, 0.5, xr)[1]
        r2_strat = scheme_plugins(ifv, arms, 0.5, xr, factorize(strata))[1]
        v_simple = variance_simple(ifv)
        v_strat = scheme_plugins(ifv, arms, 0.5, None, factorize(strata))[0]
        assert r2_strat * v_strat == pytest.approx(r2_simple * v_simple, abs=1e-12)

    def test_within_stratum_constant_xr_is_singular(self):
        xr = np.array([1.0, 1.0, 4.0, 4.0])
        arms = np.array([1, 0, 1, 0])
        strata = np.array(["a", "a", "b", "b"], dtype=object)
        with pytest.raises(SingularMatrixError):
            scheme_plugins(np.array([1.0, -1, 3, -1]), arms, 0.5, xr, factorize(strata))


class TestCrossfitVariants:
    def test_match_plain_forms_with_equal_folds(self):
        rng = np.random.default_rng(3)
        n = 40
        ifv = rng.normal(size=n)
        arms = np.array([1, 0] * (n // 2))
        xr = rng.normal(size=(n, 2))
        folds = np.tile(np.arange(4), n // 4)
        assert variance_simple(ifv, fold_ids=folds) == pytest.approx(variance_simple(ifv))
        assert scheme_plugins(ifv, arms, 0.5, xr, fold_ids=folds)[1] == pytest.approx(
            scheme_plugins(ifv, arms, 0.5, xr)[1]
        )

    def test_stratified_crossfit_matches_plain_with_equal_cells(self):
        rng = np.random.default_rng(4)
        n = 48
        ifv = rng.normal(size=n)
        arms = np.tile([1, 0], n // 2)
        strata = np.repeat(["a", "b"], n // 2).astype(object)
        xr = rng.normal(size=(n, 1))
        folds = np.tile(np.arange(4), n // 4)
        groups = factorize(strata)
        v_cf = scheme_plugins(ifv, arms, 0.5, None, groups, folds)[0]
        assert v_cf == pytest.approx(scheme_plugins(ifv, arms, 0.5, None, groups)[0])
        r_cf = scheme_plugins(ifv, arms, 0.5, xr, groups, folds)[1]
        assert r_cf == pytest.approx(scheme_plugins(ifv, arms, 0.5, xr, groups)[1])


# ---------------------------------------------------------------------------
# Oracles: the per-flavour loop implementations that the stratum- and
# fold-weighted kernel replaced, kept verbatim apart from their names.


def _reference_variance_simple(if_values):
    if_values = np.asarray(if_values, dtype=float)
    if if_values.size < 2:
        raise ValidationError("need at least two influence values")
    return float(np.mean(if_values**2))


def _reference_if_imbalance_covariance(if_values, arms, Xr, pi):
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    Xr = _as_matrix(Xr)
    w = (arms - pi) / (pi * (1.0 - pi))
    centered = Xr - Xr.mean(axis=0)
    return (w * if_values) @ centered / if_values.size


def _reference_rsquared_simple(if_values, arms, Xr, pi):
    vhat = _reference_variance_simple(if_values)
    if vhat == 0.0:
        raise NumericError("V-hat is zero: R^2 undefined")
    Xr = _as_matrix(Xr)
    c_hat = _reference_if_imbalance_covariance(if_values, arms, Xr, pi)
    var_i = centered_scatter(Xr, None)[1] / arm_product(arms)
    n = len(if_values)
    raw = balance_distance(c_hat, n * var_i) / vhat
    return _clamp_unit(raw, "R^2")


def _reference_stratum_centered_scatter(Xr, strata):
    n = Xr.shape[0]
    second_moment = Xr.T @ Xr / n
    for label in set(strata.tolist()):
        mask = strata == label
        if not mask.any():
            raise ValidationError(f"empty stratum '{label}'")
        p_s = mask.sum() / n
        xbar_s = Xr[mask].mean(axis=0)
        second_moment = second_moment - p_s * np.outer(xbar_s, xbar_s)
    return second_moment


def _reference_imbalance_stratified(Xr, arms, strata):
    Xr = _as_matrix(Xr)
    arms = np.asarray(arms)
    strata = np.asarray(strata, dtype=object)
    n = arms.size
    n1 = int(arms.sum())
    n0 = n - n1
    if n1 == 0 or n0 == 0:
        raise ValidationError("both arms must be non-empty")
    imb = Xr[arms == 1].mean(axis=0) - Xr[arms == 0].mean(axis=0)
    vhat = n / (n1 * n0) * _reference_stratum_centered_scatter(Xr, strata)
    return imb, vhat


def _reference_variance_stratified(if_values, arms, strata, pi):
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    strata = np.asarray(strata, dtype=object)
    vhat = _reference_variance_simple(if_values)
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


def _reference_if_imbalance_covariance_stratified(if_values, arms, strata, Xr, pi):
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


def _reference_rsquared_stratified(if_values, arms, strata, Xr, pi):
    vhat = _reference_variance_stratified(if_values, arms, strata, pi)
    if vhat == 0.0:
        raise NumericError("stratified variance estimate is zero: R^2 undefined")
    Xr = _as_matrix(Xr)
    c_hat = _reference_if_imbalance_covariance_stratified(if_values, arms, strata, Xr, pi)
    _, var_i = _reference_imbalance_stratified(Xr, arms, strata)
    n = len(if_values)
    raw = balance_distance(c_hat, n * var_i) / vhat
    return _clamp_unit(raw, "stratified R^2")


def _reference_variance_crossfit(if_values, fold_ids):
    if_values = np.asarray(if_values, dtype=float)
    return float(np.mean(_reference_fold_means(if_values**2, np.asarray(fold_ids))))


def _reference_rsquared_crossfit(if_values, arms, Xr, pi, fold_ids):
    vhat = _reference_variance_crossfit(if_values, fold_ids)
    if vhat == 0.0:
        raise NumericError("V-hat is zero: R^2 undefined")
    if_values = np.asarray(if_values, dtype=float)
    arms = np.asarray(arms)
    Xr = _as_matrix(Xr)
    w = (arms - pi) / (pi * (1.0 - pi))
    centered = Xr - Xr.mean(axis=0)
    contrib = (w * if_values)[:, None] * centered
    c_hat = np.vstack(
        [
            _reference_fold_means(contrib[:, j], np.asarray(fold_ids))
            for j in range(Xr.shape[1])
        ]
    ).mean(axis=1)
    var_i = centered_scatter(Xr, None)[1] / arm_product(arms)
    raw = balance_distance(c_hat, len(if_values) * var_i) / vhat
    return _clamp_unit(raw, "R^2")


def _reference_variance_crossfit_stratified(if_values, arms, strata, pi, fold_ids):
    vhat, _ = _reference_crossfit_stratified_parts(if_values, arms, strata, pi, fold_ids)
    return vhat


def _reference_rsquared_crossfit_stratified(if_values, arms, strata, Xr, pi, fold_ids):
    vhat, d_s = _reference_crossfit_stratified_parts(if_values, arms, strata, pi, fold_ids)
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
                _reference_fold_means(weighted[mask] * Xr[mask][:, j], fold_ids[mask])
                for j in range(Xr.shape[1])
            ]
        ).mean(axis=1)
        total += phat * (moment - d_s[label] * xbar_s)
    _, var_i = _reference_imbalance_stratified(Xr, arms, strata)
    raw = balance_distance(total, n * var_i) / vhat
    return _clamp_unit(raw, "stratified R^2")


def _reference_crossfit_stratified_parts(if_values, arms, strata, pi, fold_ids):
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
        vhat += phat * np.mean(_reference_fold_means(if_values[mask] ** 2, fold_ids[mask]))
        d = float(np.mean(_reference_fold_means((w * if_values)[mask], fold_ids[mask])))
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


def _reference_fold_means(values, fold_ids):
    folds = np.unique(fold_ids)
    return np.array([values[fold_ids == k].mean() for k in folds])


def _oracle_panel(seed, n_strata, n_folds, q, pi):
    """Influence values, arms, X^r, optional string strata and fold ids.

    Every stratum holds both arms, and the first holds at least 10 units so
    that the stratum-centered X^r has full rank. Folds are dealt within each
    stratum, as stratum-arm cross-fitting does, so a stratum smaller than the
    fold count lacks some folds.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 30, size=max(n_strata, 1))
    sizes[0] += 8
    n = int(sizes.sum())
    codes = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    arms = (rng.random(n) < pi).astype(np.int8)
    for s in range(sizes.size):
        members = np.flatnonzero(codes == s)
        arms[members[0]], arms[members[1]] = 1, 0
    names = [f"{'zyxw'[j % 4]}-{rng.integers(1000)}-{j}" for j in range(sizes.size)]
    strata = np.array([names[c] for c in codes], dtype=object) if n_strata else None
    folds = None
    if n_folds:
        folds = np.empty(n, dtype=int)
        for s in range(sizes.size):
            members = np.flatnonzero(codes == s)
            folds[members] = rng.permutation(np.arange(members.size) % n_folds)
    ifv = rng.normal(size=n) + arms * rng.normal(size=n)
    Xr = rng.normal(1.0, 1.0, size=(n, q))
    return ifv, arms, Xr, strata, folds


class TestKernelOracle:
    """The kernel's entry points reproduce the retired loop implementations."""

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("crossfit", [False, True])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_strata=st.integers(1, 20),
        n_folds=st.integers(2, 5),
        q=st.integers(1, 3),
        pi=st.sampled_from([0.5, 0.4]),
    )
    @example(seed=4294967294, n_strata=14, n_folds=2, q=1, pi=0.4)  # C-hat cancels near zero
    @settings(max_examples=40, deadline=None)
    def test_entry_points_match_reference(
        self, stratified, crossfit, seed, n_strata, n_folds, q, pi
    ):
        ifv, arms, Xr, strata, folds = _oracle_panel(
            seed, n_strata if stratified else 0, n_folds if crossfit else 0, q, pi
        )
        rtol = 1e-12
        groups = None if strata is None else factorize(strata)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            if strata is None and folds is None:
                # the plain path keeps its exact expressions
                assert variance_simple(ifv) == _reference_variance_simple(ifv)
                _, r2, c_hat, _ = scheme_plugins(ifv, arms, pi, Xr)
                np.testing.assert_array_equal(
                    c_hat, _reference_if_imbalance_covariance(ifv, arms, Xr, pi)
                )
                assert r2 == _reference_rsquared_simple(ifv, arms, Xr, pi)
            elif strata is None:
                assert variance_simple(ifv, fold_ids=folds) == pytest.approx(
                    _reference_variance_crossfit(ifv, folds), rel=rtol
                )
                assert scheme_plugins(ifv, arms, pi, Xr, None, folds)[1] == pytest.approx(
                    _reference_rsquared_crossfit(ifv, arms, Xr, pi, folds), rel=rtol
                )
            elif folds is None:
                assert scheme_plugins(ifv, arms, pi, None, groups)[0] == pytest.approx(
                    _reference_variance_stratified(ifv, arms, strata, pi), rel=rtol
                )
                # C-hat is a sum of terms that may cancel near zero, so it also gets
                # an absolute term at 1e-12 of the summed terms' scale; R^2 = C' M C / V
                # inherits it to first order as 2 |M C|_1 c_atol / V
                _, r2, c_hat, _ = scheme_plugins(ifv, arms, pi, Xr, groups)
                c_ref = _reference_if_imbalance_covariance_stratified(ifv, arms, strata, Xr, pi)
                weighted = (arms - pi) / (pi * (1.0 - pi)) * ifv
                c_atol = rtol * np.abs(weighted).sum() * np.abs(Xr).max() / ifv.size
                np.testing.assert_allclose(c_hat, c_ref, rtol=rtol, atol=c_atol)
                _, var_i = _reference_imbalance_stratified(Xr, arms, strata)
                m_c = np.linalg.solve(ifv.size * var_i, c_ref)
                v_ref = _reference_variance_stratified(ifv, arms, strata, pi)
                assert r2 == pytest.approx(
                    _reference_rsquared_stratified(ifv, arms, strata, Xr, pi),
                    rel=rtol,
                    abs=2.0 * np.abs(m_c).sum() * c_atol / v_ref,
                )
            else:
                got = scheme_plugins(ifv, arms, pi, None, groups, folds)[0]
                assert got == pytest.approx(
                    _reference_variance_crossfit_stratified(ifv, arms, strata, pi, folds),
                    rel=rtol,
                )
                got = scheme_plugins(ifv, arms, pi, Xr, groups, folds)[1]
                assert got == pytest.approx(
                    _reference_rsquared_crossfit_stratified(ifv, arms, strata, Xr, pi, folds),
                    rel=rtol,
                )


class TestLimitSpec:
    def test_nan_threshold_is_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            LimitSpec(V=1.0, R2=0.5, q=2, t=math.nan)

    def test_nan_variance_is_rejected(self):
        with pytest.raises(ValidationError, match="^V must be a number, not NaN$"):
            LimitSpec(V=math.nan, R2=0.5, q=2, t=1.0)
        with pytest.raises(ValidationError, match="^V must be nonnegative$"):
            LimitSpec(V=-1.0, R2=0.5, q=2, t=1.0)

    @pytest.mark.parametrize("V", [math.inf, -math.inf])
    def test_infinite_variance_is_rejected(self, V):
        message = "^V must be finite$" if V > 0 else "^V must be nonnegative$"
        with pytest.raises(ValidationError, match=message):
            LimitSpec(V=V, R2=0.5, q=2, t=1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, -math.inf])
    def test_nonpositive_threshold_is_rejected(self, t):
        with pytest.raises(ValidationError, match="^t must be positive$"):
            LimitSpec(V=1.0, R2=0.5, q=2, t=t)


class TestSampleLimit:
    def test_zero_rsquared_is_exactly_scaled_normal(self):
        spec = LimitSpec(V=4.0, R2=0.0, q=2, t=1.0)
        draws = sample_limit(spec, 5000, seed=12)
        expected = 2.0 * np.random.default_rng(12).standard_normal(5000)
        np.testing.assert_allclose(draws, expected)

    def test_zero_rsquared_variance(self):
        draws = sample_limit(LimitSpec(V=4.0, R2=0.0, q=2, t=1.0), 200_000, seed=1)
        assert abs(draws.var() / 4.0 - 1.0) < 0.02

    def test_untruncated_threshold_recovers_full_variance(self):
        draws = sample_limit(LimitSpec(V=1.0, R2=0.7, q=3, t=math.inf), 200_000, seed=2)
        assert abs(draws.var() - 1.0) < 0.02

    @pytest.mark.parametrize("q", [1, 2, 10])
    def test_infinite_threshold_coordinate_is_standard_normal(self, q):
        draws = sample_limit(LimitSpec(V=1.0, R2=1.0, q=q, t=math.inf), 200_000, seed=q)
        assert np.isfinite(draws).all()
        assert abs(draws.mean()) < 0.01 and abs(draws.var() - 1.0) < 0.02
        assert abs(np.mean(draws**4) - 3.0) < 0.1  # the normal's kurtosis

    def test_paper_variance_identity_at_q2_t1(self):
        draws = sample_limit(LimitSpec(V=1.0, R2=0.5, q=2, t=1.0), 200_000, seed=3)
        target = 1.0 - (1.0 - v_qt(2, 1.0)) * 0.5
        assert target == pytest.approx(0.61463, abs=5e-5)
        assert abs(draws.var() - target) / target < 0.02

    def test_mean_is_zero_within_monte_carlo_error(self):
        draws = sample_limit(LimitSpec(V=1.0, R2=0.5, q=2, t=1.0), 200_000, seed=4)
        assert abs(draws.mean()) <= 4 * draws.std() / math.sqrt(len(draws))

    def test_variance_monotone_in_threshold(self):
        variances = [
            sample_limit(LimitSpec(V=1.0, R2=0.8, q=2, t=t), 200_000, seed=5).var()
            for t in (0.5, 1.0, 2.0)
        ]
        mc_sd = 3 * 1.0 * math.sqrt(2 / 200_000)
        assert variances[0] <= variances[1] + mc_sd
        assert variances[1] <= variances[2] + mc_sd

    def test_deterministic_given_seed(self):
        spec = LimitSpec(V=1.0, R2=0.5, q=2, t=1.0)
        np.testing.assert_array_equal(
            sample_limit(spec, 2000, seed=6), sample_limit(spec, 2000, seed=6)
        )

    def test_tiny_acceptance_mahalanobis_draws(self):
        # P(chi^2_3 < 1e-7) is about 8e-12; the exact sampler does not reject
        spec = LimitSpec(V=2.0, R2=0.5, q=3, t=1e-7)
        draws = sample_limit(spec, 200_000, seed=7)
        target = 2.0 * (1.0 - 0.5) + 2.0 * 0.5 * v_qt(3, 1e-7)
        assert abs(draws.var() - target) <= 4 * _variance_se(draws)

    def test_acceptance_underflow_raises(self):
        assert chi_square_cdf(10, 1e-300) == 0.0
        with pytest.raises(NumericError, match="underflows"):
            sample_limit(LimitSpec(V=1.0, R2=0.5, q=10, t=1e-300), 1000, seed=7)

    def test_acceptance_mass_is_the_chi_square_law_that_must_not_underflow(self):
        assert _acceptance_mass(2, 1.0) == chi_square_cdf(2, 1.0)
        with pytest.raises(NumericError, match="^threshold t too small: P"):
            _acceptance_mass(10, 1e-300)
        assert rerand.chi_square_cdf is rerand.inference.chi_square_cdf
        assert not hasattr(rerand.allocation, "chi_square_cdf")

    def test_projection_spec_is_rejected(self):
        forms = [(np.arange(2), np.eye(2), 1.0)]
        spec = LimitSpec(V=1.0, R2=0.5, q=2, t=1.0, projection=(np.full(2, 0.5), np.eye(2), forms))
        with pytest.raises(ValidationError, match="Mahalanobis form only"):
            sample_limit(spec, 1000, seed=1)


def _variance_se(draws):
    """Monte-Carlo standard error of the sample variance."""
    return float(((draws - draws.mean()) ** 2).std() / math.sqrt(draws.size))


def _limit_cdf_oracle(x, q, t, r2):
    """CDF of sqrt(1-R2) z + sqrt(R2) r_{q,t} by 1-D quadrature of the mixture.

    r_{q,t} has density proportional to phi(r) P(chi^2_{q-1} < t - r^2) on
    |r| < sqrt(t), with chi^2_0 a point mass at zero. The tolerance is
    relative only, as the density can be tiny (q = 10, t = 0.01). ``quad``
    gets the kink x / sqrt(R2) of the normal CDF and the points 40 normal sds
    to either side of it, which it needs near R2 = 1.
    """
    edge = math.sqrt(t)
    tol = dict(epsabs=0.0, epsrel=1e-12, limit=200)

    def density(r):
        radial = 1.0 if q == 1 else chi_square_cdf(q - 1, max(t - r * r, 0.0))
        return math.exp(-0.5 * r * r) * radial

    norm = integrate.quad(density, -edge, edge, **tol)[0]
    if r2 == 0.0:
        return float(ndtr(x))
    if r2 == 1.0:
        return integrate.quad(density, -edge, min(max(x, -edge), edge), **tol)[0] / norm
    sd, slope = math.sqrt(1.0 - r2), math.sqrt(r2)
    kink, width = x / slope, 40.0 * sd / slope
    points = [p for p in (kink - width, kink, kink + width) if -edge < p < edge] or None
    integrand = lambda r: ndtr((x - slope * r) / sd) * density(r)  # noqa: E731
    return integrate.quad(integrand, -edge, edge, points=points, **tol)[0] / norm


class TestExactSamplerOracle:
    """The Mahalanobis-form sampler against quadrature and v_{q,t}."""

    @pytest.mark.parametrize(
        "q,t", [(1, 1.0), (2, 1.0), (3, 0.5), (10, float(chi2.ppf(0.01, 10)))]
    )
    @pytest.mark.parametrize("r2", [0.5, 1.0])
    def test_quantiles_match_quadrature(self, q, t, r2):
        m = 100_000
        draws = sample_limit(LimitSpec(V=1.0, R2=r2, q=q, t=t), m, seed=100 + q)
        for p in (0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975):
            x = float(np.quantile(draws, p))
            assert abs(_limit_cdf_oracle(x, q, t, r2) - p) <= 4 * math.sqrt(p * (1 - p) / m)

    @pytest.mark.parametrize("q", [5, 10])
    @pytest.mark.parametrize("acceptance", [1e-4, 1e-2, 0.2, 0.9])
    def test_variance_grid(self, q, acceptance):
        t = float(chi2.ppf(acceptance, q))
        for r2 in (0.5, 1.0):
            draws = sample_limit(LimitSpec(V=1.0, R2=r2, q=q, t=t), 200_000, seed=q)
            target = 1.0 - (1.0 - v_qt(q, t)) * r2
            assert abs(draws.var() - target) <= 4 * _variance_se(draws)


class TestConfidenceInterval:
    @pytest.mark.parametrize("projection", [False, True])
    def test_nan_alpha_is_rejected(self, projection):
        forms = [(np.array([0]), np.eye(1), 1.0)]
        spec = LimitSpec(
            V=1.0, R2=0.5, q=1, t=1.0,
            projection=(np.array([0.5]), np.eye(1), forms) if projection else None,
        )
        with pytest.raises(ValidationError, match="alpha must be a number, not NaN"):
            confidence_interval(0.0, spec, n=100, alpha=math.nan)

    @pytest.mark.parametrize("projection", [False, True])
    def test_negative_alpha_is_rejected_and_zero_is_the_whole_line(self, projection):
        forms = [(np.array([0]), np.eye(1), 1.0)]
        spec = LimitSpec(
            V=1.0, R2=0.5, q=1, t=1.0,
            projection=(np.array([0.5]), np.eye(1), forms) if projection else None,
        )
        with pytest.raises(ValidationError, match="^alpha must be nonnegative$"):
            confidence_interval(0.0, spec, n=100, alpha=-0.1)
        ci = confidence_interval(0.0, spec, n=100, alpha=0.0)
        assert (ci.lower, ci.upper, ci.method) == (-math.inf, math.inf, "normal")

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("projection", [False, True])
    def test_zero_variance_is_the_point_at_every_alpha(self, projection, alpha):
        spec = LimitSpec(V=0.0, R2=0.5, q=2, t=2.0)
        if projection:
            spec = dataclasses.replace(_projection_spec(2, "general", 0.2, seed=3), V=0.0)
        ci = confidence_interval(1.5, spec, 100, alpha)
        assert (ci.lower, ci.upper, ci.method) == (1.5, 1.5, "normal")

    def test_normal_case_quantile_oracle(self):
        spec = LimitSpec(V=1.0, R2=0.0, q=2, t=1.0)
        ci = confidence_interval(0.0, spec, n=100, alpha=0.05)
        assert ci.lower == pytest.approx(-0.196, abs=0.003)
        assert ci.upper == pytest.approx(0.196, abs=0.003)

    def test_full_rsquared_untruncated_is_still_normal(self):
        spec = LimitSpec(V=1.0, R2=1.0, q=2, t=math.inf)
        ci = confidence_interval(0.0, spec, n=100, alpha=0.05)
        assert ci.lower == pytest.approx(-0.196, abs=0.003)
        assert ci.upper == pytest.approx(0.196, abs=0.003)
        assert ci.v_qt == 1.0

    def test_v_qt_fixture(self):
        expected = chi_square_cdf(4, 1.0) / chi_square_cdf(2, 1.0)
        assert v_qt(2, 1.0) == pytest.approx(expected, abs=1e-15)
        assert v_qt(2, 1.0) == pytest.approx(0.22926, abs=1e-5)

    def test_matches_normal_interval_when_r2_zero(self):
        spec = LimitSpec(V=2.0, R2=0.0, q=2, t=1.0)
        mc = confidence_interval(0.3, spec, n=50, alpha=0.05)
        ref = normal_interval(0.3, 2.0, 50, 0.05)
        assert mc.lower == pytest.approx(ref.lower, abs=2e-3)
        assert mc.upper == pytest.approx(ref.upper, abs=2e-3)

class TestQuadratureInterval:
    """The Mahalanobis interval solves F(x) = 1 - alpha/2 by quadrature."""

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 10])
    def test_accuracy_grid_against_oracle(self, q):
        for t in (0.01, 0.5, 1.0, 2.0, 10.0, 30.0, 1000.0):
            for r2 in (0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6, 1.0):
                for alpha in (0.05, 0.01):
                    ci = confidence_interval(0.0, LimitSpec(V=2.0, R2=r2, q=q, t=t), 2, alpha)
                    assert ci.lower == -ci.upper
                    err = abs(_limit_cdf_oracle(ci.upper, q, t, r2) - (1.0 - alpha / 2.0))
                    assert err <= (1e-9 if r2 <= 0.9999 else 1e-6), (t, r2, alpha, err)

    @pytest.mark.parametrize(
        "q,r2,t",
        [(2, 0.0, 1.0), (2, 0.7, 1000.0)]
        + [(q, r2, math.inf) for q in range(1, 11) for r2 in (0.0, 0.7, 1.0)],
    )
    @pytest.mark.parametrize("alpha", [0.05, 1e-9, 0.999, 1.0, 1.5])
    def test_normal_cases_are_bit_identical_to_normal_interval(self, q, r2, t, alpha):
        # t = inf is simple randomization: r_{q,inf} is standard normal
        ci = confidence_interval(0.3, LimitSpec(V=2.0, R2=r2, q=q, t=t), 50, alpha)
        ref = normal_interval(0.3, 2.0, 50, alpha)
        assert (ci.lower, ci.upper, ci.method) == (ref.lower, ref.upper, "normal")
        assert ci.v_qt == v_qt(q, t)
        if math.isinf(t):
            assert ci.v_qt == 1.0

    def test_tiny_threshold_works_and_underflow_raises(self):
        ci = confidence_interval(0.0, LimitSpec(V=1.0, R2=0.5, q=3, t=1e-7), 100, 0.05)
        assert ci.method == "quadrature"
        # the truncated part is about sqrt(R2 t) wide, so the interval is nearly
        # the normal one at variance 1 - R2
        assert ci.upper == pytest.approx(1.959964 * math.sqrt(0.5 / 100), rel=1e-4)
        with pytest.raises(NumericError, match="underflows"):
            confidence_interval(0.0, LimitSpec(V=1.0, R2=0.5, q=10, t=1e-300), 100, 0.05)

    @pytest.mark.parametrize(
        "r2,q,t", [(0.5, 2, 1.0), (0.9, 1, 0.5), (0.8, 3, 2.0), (1.0, 5, 3.0), (0.6, 10, 2.5582)]
    )
    def test_agrees_with_sampler_quantiles(self, r2, q, t):
        spec = LimitSpec(V=1.0, R2=r2, q=q, t=t)
        ci = confidence_interval(0.0, spec, 2, 0.05)
        m = 200_000
        draws = sample_limit(spec, m, seed=40 + q) / math.sqrt(2)
        se = math.sqrt(0.025 * 0.975 / m)
        assert abs(np.mean(draws < ci.upper) - 0.975) <= 4 * se
        assert abs(np.mean(draws < ci.lower) - 0.025) <= 4 * se

def _rejection_sample(rng, q, m, accept):
    """m standard q-normal rows d with d' A d < a for every (A, a) in ``accept``, drawn
    in chunks of 2^18 rows: the rejection oracle of the projection-form law."""
    kept, count = [], 0
    while count < m:
        draws = rng.standard_normal((1 << 18, q))
        inside = [np.sum((draws @ mat) * draws, axis=1) < t for mat, t in accept]
        kept.append(draws[np.logical_and.reduce(inside)])
        count += kept[-1].shape[0]
    return np.concatenate(kept)[:m]


def _projection_spec(q, kind, acceptance, seed, r2=0.6):
    """A projection-form spec on a random V_I with V = 1: one general (diagonal-weight)
    form over all q coordinates at the chi^2_q quantile ``acceptance``, or a Mahalanobis
    tier on the first coordinate and a general tier on the rest, each at its chi^2
    quantile sqrt(acceptance)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(q, q))
    v_i = a @ a.T / q + np.eye(q)
    c = rng.normal(size=q)
    c *= math.sqrt(r2 / (c @ np.linalg.solve(v_i, c)))
    diag = np.diag(np.diag(v_i))
    if kind == "general":
        forms = [(np.arange(q), diag, float(chi2.ppf(acceptance, q)))]
    else:
        level = math.sqrt(acceptance)
        forms = [
            (np.array([0]), v_i[:1, :1], float(chi2.ppf(level, 1))),
            (np.arange(1, q), diag[1:, 1:], float(chi2.ppf(level, q - 1))),
        ]
    return LimitSpec(V=1.0, R2=r2, q=q, t=math.inf, projection=(c, v_i, forms))


def _oracle_draws(spec, m, seed):
    """m draws of the projection-form law sqrt(V(1-R2)) z + C'V_I^-1/2 d by rejection,
    and the draws of s = u'd for u = V_I^-1/2 C / |V_I^-1/2 C|."""
    c, v_i, forms = spec.projection
    vals, vecs = np.linalg.eigh(v_i)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    accept = [(root[:, p] @ np.linalg.solve(w, root[p]), a) for p, w, a in forms if a < math.inf]
    proj = np.linalg.solve(root, c)
    s = _rejection_sample(np.random.default_rng(seed), spec.q, m, accept) @ proj
    z = np.random.default_rng(seed + 1).standard_normal(m)
    return math.sqrt(spec.V * (1.0 - spec.R2)) * z + s, s / np.linalg.norm(proj)


class TestProjectionInterval:
    """The projection-form interval (general weights, tiers) by Genz quadrature."""

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 10])
    def test_mahalanobis_equivalent_spec_matches_quadrature(self, q):
        # one form with weight V_I over all of X^r is the Mahalanobis criterion d'd < t
        bound = {1: 1e-12, 2: 1e-4, 3: 1e-4}.get(q, 5e-3)
        rng = np.random.default_rng(20 + q)
        a = rng.normal(size=(q, q))
        v_i = a @ a.T + np.eye(q)
        c = rng.normal(size=q)
        c *= math.sqrt(0.5 / (c @ np.linalg.solve(v_i, c)))
        for t in (0.5, float(chi2.ppf(0.2, q)), float(chi2.ppf(0.01, q))):
            projection = (c, v_i, [(np.arange(q), v_i, t)])
            ci = confidence_interval(0.1, LimitSpec(1.0, 0.5, q, t, projection), 50, 0.05)
            ref = confidence_interval(0.1, LimitSpec(1.0, 0.5, q, t), 50, 0.05)
            assert ci.method == "projection_quadrature"
            assert abs((ci.upper - 0.1) / (ref.upper - 0.1) - 1.0) <= bound, t
            if q <= 5:
                assert ci.v_qt == pytest.approx(v_qt(q, t), rel=1e-3)

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 10])
    def test_clamped_r2_sets_the_scale_of_the_truncated_part(self, q):
        # C'V_I^-1 C / V = 1.3 is clamped to R2 = 1: the law is that of C scaled to R2 = 1,
        # variance V, and at q <= 2 the scalar R2 = 1 law within the quadrature error above
        rng = np.random.default_rng(40 + q)
        a = rng.normal(size=(q, q))
        v_i = a @ a.T + np.eye(q)
        direction = rng.normal(size=q)
        for t in (0.5, float(chi2.ppf(0.2, q))):
            uppers = []
            for raw in (1.0, 1.3):
                c = direction * math.sqrt(raw / (direction @ np.linalg.solve(v_i, direction)))
                spec = LimitSpec(1.0, 1.0, q, t, (c, v_i, [(np.arange(q), v_i, t)]))
                uppers.append(confidence_interval(0.1, spec, 50, 0.05).upper)
            assert uppers[1] == pytest.approx(uppers[0], rel=1e-9), t
            if q <= 2:
                ref = confidence_interval(0.1, LimitSpec(1.0, 1.0, q, t), 50, 0.05)
                assert abs((uppers[1] - 0.1) / (ref.upper - 0.1) - 1.0) <= {1: 1e-12, 2: 1e-4}[q]

    @pytest.mark.parametrize(
        "q,kind,acceptance",
        [(2, "general", 0.02), (2, "tiered", 0.2), (3, "general", 0.2), (3, "tiered", 0.02),
         (5, "general", 0.05), (5, "tiered", 0.2), (10, "general", 0.2), (10, "tiered", 0.02)],
    )
    def test_matches_rejection_oracle(self, q, kind, acceptance):
        spec = _projection_spec(q, kind, acceptance, seed=q)
        ci = confidence_interval(0.0, spec, 2, 0.05)
        m = 100_000
        draws, s = _oracle_draws(spec, m, seed=30 + q)
        draws /= math.sqrt(2)
        se = math.sqrt(0.025 * 0.975 / m)
        assert abs(np.mean(draws < ci.upper) - 0.975) <= 4 * se
        assert abs(np.mean(draws < ci.lower) - 0.025) <= 4 * se
        # at q = 10 the point set's error in v_qt reaches about 2% (the interval's
        # stays within two of the oracle's standard errors)
        tol = 4 * float(np.std(s**2)) / math.sqrt(m) + (0.025 * ci.v_qt if q == 10 else 0.0)
        assert abs(ci.v_qt - float(np.mean(s**2))) <= tol
        # the law's forms in d are exactly symmetric, and the oracle's to rounding
        root = _spd_sqrt(spec.projection[1])
        forms = spec.projection[2]
        for (form, bound), (p, w, a) in zip(_forms_in_d(root, forms), forms, strict=True):
            np.testing.assert_array_equal(form, form.T)
            expected = root[:, p] @ np.linalg.solve(w, root[p])
            np.testing.assert_allclose(form, expected, rtol=0, atol=1e-12 * abs(expected).max())
            assert bound == a

    def test_full_rsquared_matches_rejection_oracle(self):
        spec = dataclasses.replace(_projection_spec(2, "tiered", 0.2, seed=4, r2=1.0), V=1.0)
        ci = confidence_interval(0.0, spec, 2, 0.05)
        m = 50_000
        draws = _oracle_draws(spec, m, seed=5)[0] / math.sqrt(2)
        assert abs(np.mean(draws < ci.upper) - 0.975) <= 4 * math.sqrt(0.025 * 0.975 / m)

    def test_tiny_general_acceptance_is_nearly_normal(self):
        # the truncated part is about sqrt(t) wide, so the interval is the normal one
        # at variance V(1 - R2)
        eye = np.eye(3)
        spec = LimitSpec(
            V=1.0, R2=0.48, q=3, t=1e-7,
            projection=(np.full(3, 0.4), eye, [(np.arange(3), eye, 1e-7)]),
        )
        ci = confidence_interval(0.2, spec, 100, 0.05)
        ref = normal_interval(0.2, 1.0 - 0.48, 100, 0.05)
        assert ci.upper - 0.2 == pytest.approx(ref.upper - 0.2, rel=1e-3)
        assert ci.lower - 0.2 == pytest.approx(ref.lower - 0.2, rel=1e-3)

    def test_underflow_raises(self):
        eye = np.eye(10)
        spec = LimitSpec(
            V=1.0, R2=0.5, q=10, t=1e-300,
            projection=(np.full(10, 0.2), eye, [(np.arange(10), eye, 1e-300)]),
        )
        with pytest.raises(NumericError, match="underflows"):
            confidence_interval(0.0, spec, 100, 0.05)

    def test_is_deterministic_and_symmetric(self):
        spec = _projection_spec(3, "tiered", 0.2, seed=6)
        ci = confidence_interval(0.3, spec, 80, 0.05)
        assert ci == confidence_interval(0.3, spec, 80, 0.05)
        assert ci.upper - 0.3 == pytest.approx(0.3 - ci.lower, rel=1e-15)

    def test_two_form_projection_rejects_draws_violating_either_form(self):
        accept = [(np.array([[2.0, 0.6], [0.6, 1.0]]), 1.0), (np.eye(2), 1.0)]
        rows = _rejection_sample(np.random.default_rng(10), 2, 20_000, accept)
        assert rows.shape == (20_000, 2)
        for mat, threshold in accept:
            assert np.all(np.einsum("ij,jk,ik->i", rows, mat, rows) < threshold)
        # each form alone keeps draws that the other one rejects
        for (mat, threshold), (other, other_threshold) in (accept, accept[::-1]):
            alone = _rejection_sample(
                np.random.default_rng(11), 2, 20_000, [(mat, threshold)]
            )
            assert np.any(np.einsum("ij,jk,ik->i", alone, other, alone) >= other_threshold)

    def test_tier_forms_condition_the_imbalance_law(self):
        # the projection term C' V_I^-1 u with u ~ N(0, V_I) kept when every
        # tier holds on u's block: u_0^2 / 2 < 0.1 and u_1^2 / 1 < 0.5
        v_i = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = np.array([0.6, -0.3])
        forms = [
            (np.array([0]), np.array([[2.0]]), 0.1),
            (np.array([1]), np.array([[1.0]]), 0.5),
            (np.array([0, 1]), v_i, math.inf),
        ]
        r2 = float(c @ np.linalg.solve(v_i, c))
        spec = LimitSpec(V=1.0, R2=r2, q=2, t=math.inf, projection=(c, v_i, forms))
        law_variance = (1.0 - r2) + r2 * confidence_interval(0.0, spec, 2, 0.05).v_qt
        u = np.random.default_rng(13).standard_normal((2_000_000, 2)) @ np.linalg.cholesky(v_i).T
        u = u[(u[:, 0] ** 2 / 2.0 < 0.1) & (u[:, 1] ** 2 < 0.5)]
        projected = u @ np.linalg.solve(v_i, c)
        target = (1.0 - r2) + projected.var()
        assert abs(law_variance - target) <= 4 * _variance_se(projected)

class TestNormalInterval:
    def test_hand_arithmetic(self):
        ci = normal_interval(0.0, 4.0, 100, 0.05)
        assert ci.lower == pytest.approx(-0.392, abs=5e-4)
        assert ci.upper == pytest.approx(0.392, abs=5e-4)

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 1.0])
    def test_zero_variance_degenerates_to_point(self, alpha):
        ci = normal_interval(1.5, 0.0, 100, alpha)
        assert ci.lower == ci.upper == 1.5

    def test_alpha_one_collapses_to_estimate(self):
        ci = normal_interval(2.0, 4.0, 100, 1.0)
        assert ci.lower == ci.upper == 2.0

    def test_nan_alpha_is_rejected(self):
        with pytest.raises(ValidationError, match="alpha must be a number, not NaN"):
            normal_interval(2.0, 4.0, 100, math.nan)

    @pytest.mark.parametrize("alpha", [-0.1, -math.inf])
    def test_negative_alpha_is_rejected(self, alpha):
        with pytest.raises(ValidationError, match="^alpha must be nonnegative$"):
            normal_interval(2.0, 4.0, 100, alpha)

    def test_alpha_zero_is_the_whole_line(self):
        ci = normal_interval(2.0, 4.0, 100, 0.0)
        assert (ci.lower, ci.upper) == (-math.inf, math.inf)

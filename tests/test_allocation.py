import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rerand import (
    Allocation,
    Design,
    Tier,
    TrialFrame,
    balance_distance,
    chi_square_cdf,
    rerandomize,
)
from rerand.errors import (
    NonTerminationError,
    SingularMatrixError,
    ValidationError,
)
from rerand.allocation import (
    _permuted_block_draw,
    _stratum_dagger,
    arm_product,
    balance_forms,
    centered_scatter,
)
from rerand.data_model import factorize, validate_design

from conftest import block_arms, unit_labels


def _coin_arms(n, pi, seed):
    """Arms of ``rerandomize`` under the simple design: n independent coin flips."""
    frame = TrialFrame(covariates=np.empty((n, 0)), covariate_names=())
    return rerandomize(frame, Design(pi=pi, scheme="simple"), seed).arms


def _matrix(xr):
    return np.asarray(xr, dtype=float).reshape(len(xr), -1)


def _imbalance(xr, arms, strata=None):
    """I, the treated-minus-control mean of X^r, and its V-hat(I): the scatter of
    X^r centered at its overall or ``strata`` means, over N1 N0."""
    xr = _matrix(xr)
    var_i = centered_scatter(xr, None if strata is None else factorize(strata))[1]
    var_i = var_i / arm_product(arms)
    return xr[arms == 1].mean(axis=0) - xr[arms == 0].mean(axis=0), var_i


def _dagger(xr, arms, strata):
    return _stratum_dagger(_matrix(xr), arms, factorize(strata))


class TestSimpleAssign:
    def test_sample_mean_matches_binomial(self):
        arms = _coin_arms(100_000, 0.3, seed=11)
        assert abs(arms.mean() - 0.3) < 0.01  # binomial CI oracle: 7 sigma

    def test_deterministic_given_seed(self):
        a = _coin_arms(50, 0.4, seed=9)
        b = _coin_arms(50, 0.4, seed=9)
        np.testing.assert_array_equal(a, b)


class TestPermutedBlocks:
    def test_exact_balance_within_complete_blocks(self):
        strata = np.array(["a"] * 4 + ["b"] * 4, dtype=object)
        arms = block_arms(strata, 0.5, 2, seed=1)
        assert arms[:4].sum() == 2
        assert arms[4:].sum() == 2

    def test_quarter_pi_block_four(self):
        arms = block_arms(np.array(["a"] * 4, dtype=object), 0.25, 4, seed=2)
        assert arms.sum() == 1

    def test_partial_block_outcomes(self):
        # enumeration oracle: 5 units at pi=0.5, k=2 give 2 full blocks (2
        # treated) plus a one-unit prefix of a fresh block (0 or 1 treated)
        counts = {
            int(block_arms(np.array(["a"] * 5, dtype=object), 0.5, 2, s).sum())
            for s in range(60)
        }
        assert counts == {2, 3}

    def test_prefix_imbalance_bounded_by_block_size(self):
        strata = np.array(["a"] * 13 + ["b"] * 7, dtype=object)
        for seed in range(25):
            arms = block_arms(strata, 0.5, 4, seed)
            for label in ("a", "b"):
                sub = arms[strata == label]
                prefix = np.cumsum(sub)
                sizes = np.arange(1, len(sub) + 1)
                assert np.all(np.abs(prefix - 0.5 * sizes) < 4)

    def test_non_integer_pi_k_rejected(self):
        with pytest.raises(ValidationError, match="not integer"):
            block_arms(np.array(["a"] * 4, dtype=object), 0.3, 2, 0)


class TestImbalance:
    def test_hand_arithmetic(self):
        imb, vhat = _imbalance(np.array([1.0, 2, 3, 4]), np.array([1, 1, 0, 0]))
        assert imb == pytest.approx([-2.0])
        np.testing.assert_allclose(vhat, [[1.25]], atol=1e-12)

    def test_constant_column_is_flagged_singular(self):
        imb, vhat = _imbalance(np.ones(6), np.array([1, 1, 1, 0, 0, 0]))
        with pytest.raises(SingularMatrixError, match="zero variance"):
            balance_distance(imb, vhat)

    def test_single_arm_rejected(self):
        with pytest.raises(ValidationError, match="both arms"):
            _imbalance(np.arange(4.0), np.ones(4, dtype=int))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_arm_complement_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 2))
        arms = np.array([1, 1, 1, 0, 0, 0, 1, 0, 1, 0])
        i1, v1 = _imbalance(x, arms)
        i2, v2 = _imbalance(x, 1 - arms)
        np.testing.assert_allclose(i1, -i2, atol=1e-12)
        np.testing.assert_allclose(v1, v2, atol=1e-15)

    def test_stratified_hand_arithmetic(self):
        # strata {s1: [x=1 treated, x=3 control], s2: [x=2 control, x=6 treated]}
        xr = np.array([1.0, 3.0, 2.0, 6.0])
        arms = np.array([1, 0, 0, 1])
        strata = np.array(["s1", "s1", "s2", "s2"], dtype=object)
        imb, vhat = _imbalance(xr, arms, strata)
        assert imb == pytest.approx([1.0])
        np.testing.assert_allclose(vhat, [[2.5]], atol=1e-12)

    def test_one_stratum_variance_matches_simple_formula(self):
        rng = np.random.default_rng(7)
        xr = rng.normal(size=(12, 2))
        arms = np.array([1, 0] * 6)
        strata = np.array(["only"] * 12, dtype=object)
        i_s, v_s = _imbalance(xr, arms)
        i_t, v_t = _imbalance(xr, arms, strata)
        np.testing.assert_allclose(i_s, i_t, atol=1e-14)
        # with a single stratum the two variance displays coincide exactly
        np.testing.assert_allclose(v_s, v_t, atol=1e-14)

    def test_within_stratum_constant_gives_zero_variance(self):
        xr = np.array([1.0, 1.0, 5.0, 5.0])
        arms = np.array([1, 0, 1, 0])
        strata = np.array(["a", "a", "b", "b"], dtype=object)
        _, vhat = _imbalance(xr, arms, strata)
        np.testing.assert_allclose(vhat, [[0.0]], atol=1e-12)

    def test_dagger_hand_arithmetic(self):
        xr = np.array([1.0, 3.0, 2.0, 6.0])
        arms = np.array([1, 0, 0, 1])
        strata = np.array(["s1", "s1", "s2", "s2"], dtype=object)
        # 0.5*(1-3) + 0.5*(6-2) = 1
        assert _dagger(xr, arms, strata) == pytest.approx([1.0])

    def test_dagger_single_stratum_is_mean_difference(self):
        xr = np.array([2.0, 4.0, 1.0, 3.0])
        arms = np.array([1, 1, 0, 0])
        strata = np.array(["s"] * 4, dtype=object)
        assert _dagger(xr, arms, strata) == pytest.approx([1.0])

    def test_dagger_zero_under_exact_balance(self):
        xr = np.array([1.0, 1.0, 4.0, 4.0])
        arms = np.array([1, 0, 1, 0])
        strata = np.array(["a", "a", "b", "b"], dtype=object)
        assert _dagger(xr, arms, strata) == pytest.approx([0.0])

    def test_dagger_requires_both_arms_per_stratum(self):
        with pytest.raises(ValidationError, match="lacks one arm"):
            _dagger(
                np.arange(4.0),
                np.array([1, 1, 1, 0]),
                np.array(["a", "a", "b", "b"], dtype=object),
            )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 3))
    @example(286603599, 20, 3)  # an off-diagonal entry 1e-4 of the matrix scale
    @settings(max_examples=40, deadline=None)
    def test_stratified_statistics_match_reference_loops(self, seed, n_strata, q):
        rng = np.random.default_rng(seed)
        labels = np.array([f"s{rng.integers(10**6)}-{j}" for j in range(n_strata)])
        strata = np.repeat(labels, rng.integers(2, 25, size=n_strata)).astype(object)
        n = strata.size
        arms = np.tile([1, 0], n // 2 + 1)[:n]
        perm = rng.permutation(n)
        strata, arms = strata[perm], arms[perm]
        xr = rng.normal(1.0, 1.0, size=(n, q))
        _, vhat = _imbalance(xr, arms, strata)
        # float64 rounding of the stratum-centered scatter leaves entries near
        # zero off by up to ~8 eps * max|V-hat| (largest seen in 84,000 draws)
        np.testing.assert_allclose(
            vhat,
            _reference_imbalance_variance_stratified(xr, arms, strata),
            rtol=1e-12,
            atol=64 * np.finfo(float).eps * np.abs(vhat).max(),
        )
        both_arms = all(
            0 < arms[strata == label].sum() < (strata == label).sum() for label in labels
        )
        if both_arms:
            np.testing.assert_allclose(
                _dagger(xr, arms, strata),
                _reference_dagger(xr, arms, strata),
                rtol=1e-12,
                atol=1e-14,
            )
        else:
            with pytest.raises(ValidationError, match="lacks one arm"):
                _dagger(xr, arms, strata)


def _reference_imbalance_variance_stratified(Xr, arms, strata):
    """The stratum loop that the stratum-centered V-hat(I) replaced.

    Its n^-1 X'X - sum_s phat_s xbar_s xbar_s' form cancels, so an entry near
    zero would carry float64 rounding of the matrix scale; the loop therefore
    runs in np.longdouble, over sorted labels so it does not follow the hash seed.
    """
    n = Xr.shape[0]
    X = Xr.astype(np.longdouble)
    second_moment = X.T @ X / n
    for label in sorted(set(strata.tolist())):
        mask = strata == label
        p_s = np.longdouble(mask.sum()) / n
        xbar_s = X[mask].mean(axis=0)
        second_moment = second_moment - p_s * np.outer(xbar_s, xbar_s)
    n1 = int(arms.sum())
    return (n / np.longdouble(n1 * (n - n1)) * second_moment).astype(float)


def _reference_dagger(Xr, arms, strata):
    """The stratum loop that ``_stratum_dagger`` replaced."""
    n = arms.size
    total = np.zeros(Xr.shape[1])
    for label in sorted(set(strata.tolist())):
        mask = strata == label
        treated = mask & (arms == 1)
        control = mask & (arms == 0)
        p_s = mask.sum() / n
        total += p_s * (Xr[treated].mean(axis=0) - Xr[control].mean(axis=0))
    return total


class TestBalanceDistance:
    def test_hand_arithmetic(self):
        assert balance_distance(np.array([-2.0]), np.array([[1.25]])) == pytest.approx(3.2)

    def test_zero_imbalance(self):
        assert balance_distance(np.zeros(3), np.eye(3)) == 0.0

    def test_euclidean_case(self):
        assert balance_distance(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(25.0)

    def test_asymmetric_weight_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            balance_distance(np.ones(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    # Outcomes of the one weight check: a non-finite entry fails first, named by its
    # first position in row order; then entries within 1e-10 of the largest (at least 1)
    # match. An accepted weight's distance is that of its symmetric part (W + W') / 2.
    @pytest.mark.parametrize(
        "weight, expected",
        [
            ([[1.0, 0.5], [0.0, 1.0]], "weight matrix must be symmetric"),
            ([[1.0, 2e-10], [0.0, 1.0]], "weight matrix must be symmetric"),
            ([[1e6, 2e-4], [0.0, 1.0]], "weight matrix must be symmetric"),
            ([[1.0, 1e-10], [0.0, 1.0]], 1.9999999999),
            ([[1.0, 1e-11], [0.0, 1.0]], 1.99999999999),
            ([[1e6, 1e-4], [0.0, 1.0]], 1.0000009999000026),
            ([[np.nan]], "weight matrix must be finite: entry (0, 0) is nan"),
            ([[np.nan, 0.0], [0.0, 1.0]], "weight matrix must be finite: entry (0, 0) is nan"),
            ([[1.0, np.nan], [np.nan, 1.0]], "weight matrix must be finite: entry (0, 1) is nan"),
            ([[1.0, np.nan], [0.0, 1.0]], "weight matrix must be finite: entry (0, 1) is nan"),
            ([[1.0, np.inf], [0.0, 1.0]], "weight matrix must be finite: entry (0, 1) is inf"),
            ([[1.0, np.inf], [-np.inf, 1.0]], "weight matrix must be finite: entry (0, 1) is inf"),
            ([[np.inf]], "weight matrix must be finite: entry (0, 0) is inf"),
            ([[np.inf, 0.0], [0.0, 1.0]], "weight matrix must be finite: entry (0, 0) is inf"),
            ([[-np.inf, 0.0], [0.0, 1.0]], "weight matrix must be finite: entry (0, 0) is -inf"),
            ([[1.0, np.inf], [np.inf, 1.0]], "weight matrix must be finite: entry (0, 1) is inf"),
        ],
    )
    def test_symmetry_truth_table(self, weight, expected):
        weight = np.array(weight)
        imbalance = np.ones(len(weight))
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as raised:
                balance_distance(imbalance, weight)
            assert type(raised.value) is ValidationError
            assert str(raised.value) == expected
        else:
            assert balance_distance(imbalance, weight) == expected

    @pytest.mark.parametrize(
        "imbalance, weight, message",
        [
            (np.ones(2), np.eye(3), r"shape \(2,\) and a weight of shape \(3, 3\)"),
            (np.ones(3), np.ones(3), r"shape \(3,\) and a weight of shape \(1, 3\)"),
            (np.ones((2, 2)), np.eye(2), r"shape \(2, 2\) and a weight of shape \(2, 2\)"),
            (np.array([1.0, np.nan]), np.eye(2), "imbalance must be finite"),
            (np.array([np.inf, 1.0]), np.eye(2), "imbalance must be finite"),
            (np.array([1.0, -np.inf]), np.eye(2), "imbalance must be finite"),
        ],
    )
    def test_malformed_imbalance_is_a_validation_error(self, imbalance, weight, message):
        with pytest.raises(ValidationError, match=message):
            balance_distance(imbalance, weight)

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_a_direct_solve(self, q, seed):
        # the solve this whitening replaced is the oracle
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(q, q))
        weight = a @ a.T / q + np.eye(q) * rng.uniform(0.1, 10.0)
        imbalance = rng.normal(size=q)
        expected = float(imbalance @ np.linalg.solve(weight, imbalance))
        assert balance_distance(imbalance, weight) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_zero_only_at_zero(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        spd = a @ a.T + 3 * np.eye(3)
        vec = rng.normal(size=3)
        assert balance_distance(vec, spd) > 0
        assert balance_distance(np.zeros(3), spd) == 0.0


class TestChiSquareCdf:
    def test_closed_form_q2(self):
        assert chi_square_cdf(2, 1.0) == pytest.approx(1 - math.exp(-0.5), abs=1e-12)

    def test_closed_form_q4(self):
        expected = 1 - math.exp(-0.5) * 1.5
        assert chi_square_cdf(4, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_threshold(self):
        assert chi_square_cdf(3, 0.0) == 0.0

    def test_infinite_threshold(self):
        assert chi_square_cdf(3, math.inf) == 1.0

    def test_nan_threshold_is_rejected(self):
        with pytest.raises(ValidationError, match="t must be a number, not NaN"):
            chi_square_cdf(3, math.nan)


def _gaussian_frame(n, seed, strata=False):
    rng = np.random.default_rng(seed)
    return TrialFrame(
        covariates=rng.normal(size=(n, 2)),
        covariate_names=("x1", "x2"),
        stratum=np.array(["a", "b"] * (n // 2)) if strata else None,
    )


class TestRerandomize:
    def test_infinite_threshold_accepts_first_proposal(self):
        frame = _gaussian_frame(60, 0)
        design = Design(pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1))
        alloc = rerandomize(frame, design, seed=4)
        assert alloc.attempts == 1
        assert alloc.accepted_distance is None

    def test_accepted_distance_below_threshold(self):
        frame = _gaussian_frame(80, 1)
        design = Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=1.0
        )
        for seed in range(20):
            alloc = rerandomize(frame, design, seed)
            assert alloc.accepted_distance < 1.0
            assert alloc.attempts >= 1

    def test_deterministic_given_seed(self):
        frame = _gaussian_frame(80, 2)
        design = Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=1.0
        )
        a = rerandomize(frame, design, seed=8)
        b = rerandomize(frame, design, seed=8)
        np.testing.assert_array_equal(a.arms, b.arms)
        assert a.attempts == b.attempts

    def test_attempts_follow_geometric_law(self):
        frame = _gaussian_frame(200, 3)
        design = Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=1.0
        )
        attempts = [rerandomize(frame, design, seed).attempts for seed in range(2000)]
        expected = 1.0 / chi_square_cdf(2, 1.0)
        assert abs(np.mean(attempts) - expected) < 0.15 * expected

    def test_max_attempts_exhaustion_advises_larger_t(self):
        frame = _gaussian_frame(60, 4)
        design = Design(
            pi=0.5,
            scheme="rerandomized",
            rerand_covariates=(0, 1),
            threshold_t=1e-9,
            max_attempts=5,
        )
        with pytest.raises(NonTerminationError, match="larger threshold"):
            rerandomize(frame, design, seed=0)

    def test_constant_covariate_raises_singularity(self):
        frame = TrialFrame(
            covariates=np.column_stack([np.ones(40), np.arange(40.0)]),
            covariate_names=("c", "x"),
        )
        design = Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=1.0
        )
        with pytest.raises(SingularMatrixError):
            rerandomize(frame, design, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_scatter_raises_instead_of_accepting(self):
        # finite covariates whose scatter overflows to inf: the distance would read 0 and
        # every first proposal would be accepted
        frame = _gaussian_frame(40, 6)
        frame = dataclasses.replace(frame, covariates=frame.covariates * 1e155)
        design = Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=0.01
        )
        for seed in range(5):
            with pytest.raises(ValidationError, match="weight matrix must be finite"):
                rerandomize(frame, design, seed)

    @pytest.mark.parametrize("scheme", ["rerandomized", "stratified_rerandomized"])
    def test_overflowing_scatter_raises_without_a_numpy_warning(self, scheme):
        frame = _gaussian_frame(40, 6, strata=True)
        frame = dataclasses.replace(frame, covariates=frame.covariates * 1e155)
        design = Design(pi=0.5, scheme=scheme, rerand_covariates=(0, 1), threshold_t=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="weight matrix must be finite"):
                rerandomize(frame, design, 5)

    def test_stratified_rerandomized_balances_within_strata(self):
        frame = _gaussian_frame(120, 5, strata=True)
        design = Design(
            pi=0.5,
            scheme="stratified_rerandomized",
            rerand_covariates=(0, 1),
            threshold_t=1.0,
            block_size=2,
        )
        alloc = rerandomize(frame, design, seed=6)
        assert alloc.accepted_distance < 1.0
        for label in ("a", "b"):
            sub = alloc.arms[unit_labels(frame.stratum) == label]
            assert sub.sum() == len(sub) // 2  # exact within-stratum balance

    def test_stratum_weighted_statistic_option(self):
        frame = _gaussian_frame(120, 6, strata=True)
        design = Design(
            pi=0.5,
            scheme="stratified_rerandomized",
            rerand_covariates=(0, 1),
            threshold_t=1.0,
            block_size=2,
            stratified_statistic="stratum_weighted",
        )
        alloc = rerandomize(frame, design, seed=7)
        assert alloc.accepted_distance < 1.0

    @pytest.mark.parametrize("statistic", ["pooled", "stratum_weighted"])
    def test_imbalance_is_the_statistic_of_the_accepted_arms(self, statistic):
        frame = _gaussian_frame(120, 12, strata=True)
        design = Design(
            pi=0.5,
            scheme="stratified_rerandomized",
            rerand_covariates=(0, 1),
            threshold_t=1.0,
            block_size=2,
            stratified_statistic=statistic,
        )
        alloc = rerandomize(frame, design, seed=3)
        if statistic == "pooled":
            expected = _imbalance(frame.covariates, alloc.arms)[0]
        else:
            expected = _dagger(frame.covariates, alloc.arms, unit_labels(frame.stratum))
        np.testing.assert_array_equal(alloc.imbalance, expected)

    def test_single_full_tier_matches_plain_criterion(self):
        frame = _gaussian_frame(100, 8)
        plain = Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1), threshold_t=1.0
        )
        tiered = Design(
            pi=0.5,
            scheme="rerandomized",
            rerand_covariates=(0, 1),
            tiers=(Tier(indices=(0, 1), threshold=1.0),),
        )
        for seed in range(6):
            a = rerandomize(frame, plain, seed)
            b = rerandomize(frame, tiered, seed)
            np.testing.assert_array_equal(a.arms, b.arms)
            assert b.accepted_distance is None
            assert b.tier_distances[0] == pytest.approx(a.accepted_distance)

    def test_tiers_enforce_every_threshold(self):
        frame = _gaussian_frame(100, 9)
        design = Design(
            pi=0.5,
            scheme="rerandomized",
            rerand_covariates=(0, 1),
            tiers=(
                Tier(indices=(0,), threshold=0.5),
                Tier(indices=(1,), threshold=2.0),
            ),
        )
        for seed in range(10):
            alloc = rerandomize(frame, design, seed)
            assert alloc.tier_distances[0] < 0.5
            assert alloc.tier_distances[1] < 2.0

    def test_tiers_with_a_finite_threshold_are_rejected(self):
        with pytest.raises(ValidationError, match="tiers"):
            Design(
                pi=0.5,
                scheme="rerandomized",
                rerand_covariates=(0, 1),
                threshold_t=1.0,
                tiers=(Tier(indices=(0,), threshold=0.5),),
            )

    def test_general_distance_uses_variance_diagonal(self):
        frame = _gaussian_frame(100, 10)
        design = Design(
            pi=0.5,
            scheme="rerandomized",
            rerand_covariates=(0, 1),
            threshold_t=1.0,
            distance="general",
        )
        alloc = rerandomize(frame, design, seed=11)
        var_i = centered_scatter(frame.covariates, None)[1] / arm_product(alloc.arms)
        diag = np.diag(np.diag(var_i))
        assert alloc.accepted_distance == pytest.approx(
            balance_distance(alloc.imbalance, diag)
        )


class TestBalanceForms:
    def test_tier_free_design_is_one_form_over_all_of_xr(self):
        scale = np.array([[4.0, 1.0], [1.0, 9.0]])
        design = Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(3, 1), threshold_t=2.0
        )
        ((positions, weight, threshold),) = balance_forms(design, scale)
        assert positions.tolist() == [0, 1]
        np.testing.assert_array_equal(weight, scale)
        assert threshold == 2.0

    def test_tiers_map_covariate_indices_to_xr_positions(self):
        scale = np.array([[4.0, 1.0, 0.5], [1.0, 9.0, 2.0], [0.5, 2.0, 16.0]])
        design = Design(
            pi=0.5,
            scheme="rerandomized",
            rerand_covariates=(5, 2, 7),
            tiers=(
                Tier(indices=(7,), threshold=0.5),
                Tier(indices=(2, 5), threshold=3.0, distance="general"),
            ),
        )
        forms = balance_forms(design, scale)
        assert [positions.tolist() for positions, _, _ in forms] == [[2], [1, 0]]
        np.testing.assert_array_equal(forms[0][1], [[16.0]])
        np.testing.assert_array_equal(forms[1][1], [[9.0, 0.0], [0.0, 4.0]])
        assert [threshold for _, _, threshold in forms] == [0.5, 3.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_accepted_tier_distances_follow_the_forms(self, seed):
        frame = _gaussian_frame(100, 13)
        design = Design(
            pi=0.5,
            scheme="rerandomized",
            rerand_covariates=(0, 1),
            tiers=(
                Tier(indices=(1,), threshold=5.0),
                Tier(indices=(0, 1), threshold=0.2, distance="general"),
            ),
        )
        alloc = rerandomize(frame, design, seed)
        forms = balance_forms(
            design, centered_scatter(frame.covariates, None)[1] / arm_product(alloc.arms)
        )
        expected = [
            balance_distance(alloc.imbalance[positions], weight)
            for positions, weight, _ in forms
        ]
        assert alloc.tier_distances == pytest.approx(expected, rel=1e-12)
        assert all(d < t for d, (_, _, t) in zip(alloc.tier_distances, forms))


def _reference_rerandomize(frame, design, seed):
    """``rerandomize``'s proposal loop as it was before whitening: each proposal's
    statistic, then one ``balance_distance`` of it against weight / N1 N0 per form."""
    validate_design(design, frame)
    rng = np.random.default_rng(seed)
    n = frame.n_units

    def propose():
        if design.stratified:
            return _permuted_block_draw(rng, frame.stratum, design.pi, design.block_size)
        return (rng.random(n) < design.pi).astype(np.int8)

    Xr = frame.covariates[:, list(design.rerand_covariates)]
    strata = frame.stratum if design.stratified else None
    forms = balance_forms(design, centered_scatter(Xr, strata)[1])
    for attempt in range(1, design.max_attempts + 1):
        arms = propose()
        try:
            n1n0 = arm_product(arms)
            if strata is not None and design.stratified_statistic == "stratum_weighted":
                imb = _stratum_dagger(Xr, arms, strata)
            else:
                imb = Xr[arms == 1].mean(axis=0) - Xr[arms == 0].mean(axis=0)
        except ValidationError:
            continue
        dists = []
        for positions, weight, threshold in forms:
            dists.append(balance_distance(imb[positions], weight / n1n0))
            if not dists[-1] < threshold:
                break
        else:
            tiered = bool(design.tiers)
            return Allocation(
                arms, attempt, None if tiered else dists[0], imb, tuple(dists) if tiered else None
            )
    raise NonTerminationError(
        f"no proposal satisfied the balance criterion within "
        f"{design.max_attempts} attempts; consider a larger threshold t"
    )


def _assert_same_allocation(alloc, expected):
    np.testing.assert_array_equal(alloc.arms, expected.arms)
    assert alloc.attempts == expected.attempts
    np.testing.assert_array_equal(alloc.imbalance, expected.imbalance)
    if expected.accepted_distance is None:
        assert alloc.accepted_distance is None
    else:
        assert alloc.accepted_distance == pytest.approx(expected.accepted_distance, rel=1e-12)
    if expected.tier_distances is None:
        assert alloc.tier_distances is None
    else:
        assert alloc.tier_distances == pytest.approx(expected.tier_distances, rel=1e-12)


def _oracle_frame(n, q, seed, strata=False):
    """Correlated covariates on unequal strata of sizes about n/2, n/3 and n/6."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, q)) @ (np.eye(q) + 0.4 * rng.normal(size=(q, q))) + 3.0
    labels = np.array(["a", "a", "a", "b", "b", "c"] * (n // 6))
    return TrialFrame(
        covariates=x,
        covariate_names=tuple(f"x{j}" for j in range(q)),
        stratum=labels if strata else None,
    )


_ORACLE_SCHEMES = {
    "simple": dict(scheme="rerandomized"),
    "stratified_pooled": dict(scheme="stratified_rerandomized", block_size=2),
    "stratum_weighted": dict(
        scheme="stratified_rerandomized", block_size=2, stratified_statistic="stratum_weighted"
    ),
}
_ORACLE_CRITERIA = {
    "mahalanobis": dict(threshold_t=2.0),
    "general": dict(threshold_t=2.0, distance="general"),
    "tiered": dict(
        tiers=(
            Tier(indices=(2,), threshold=1.0),
            Tier(indices=(0, 1, 2), threshold=2.5, distance="general"),
        )
    ),
}


class TestWhitenedProposals:
    """``rerandomize`` checks each proposal in whitened coordinates; the retired
    per-proposal ``balance_distance`` loop is the reference."""

    @pytest.mark.parametrize("criterion", list(_ORACLE_CRITERIA))
    @pytest.mark.parametrize("scheme", list(_ORACLE_SCHEMES))
    def test_matches_the_per_proposal_loop(self, scheme, criterion):
        frame = _oracle_frame(90, 3, 1, strata=scheme != "simple")  # odd strata: partial blocks
        design = Design(
            pi=0.5, rerand_covariates=(0, 1, 2), **_ORACLE_SCHEMES[scheme],
            **_ORACLE_CRITERIA[criterion],
        )
        for seed in range(50):
            _assert_same_allocation(
                rerandomize(frame, design, seed), _reference_rerandomize(frame, design, seed)
            )

    @pytest.mark.parametrize("scheme", list(_ORACLE_SCHEMES))
    def test_matches_at_q10(self, scheme):
        frame = _oracle_frame(234, 10, 2, strata=scheme != "simple")
        design = Design(
            pi=0.5, rerand_covariates=tuple(range(10)), threshold_t=8.0,
            **_ORACLE_SCHEMES[scheme],
        )
        for seed in range(50):
            _assert_same_allocation(
                rerandomize(frame, design, seed), _reference_rerandomize(frame, design, seed)
            )

    @pytest.mark.parametrize("statistic", ["pooled", "stratum_weighted"])
    def test_degenerate_proposals_at_tiny_n_are_counted(self, statistic):
        # simple: an arm is empty in 1/4 of the proposals at n = 3; stratified: a
        # two-unit stratum's prefix of a permuted block of 4 lacks an arm in 1/3
        simple = _oracle_frame(6, 2, 3)
        simple = TrialFrame(covariates=simple.covariates[:3], covariate_names=("x0", "x1"))
        stratified = TrialFrame(
            covariates=_oracle_frame(6, 2, 4).covariates,
            covariate_names=("x0", "x1"),
            stratum=np.array(["a", "a", "b", "b", "b", "b"]),
        )
        cases = [
            (simple, Design(pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1),
                            threshold_t=50.0)),
            (stratified, Design(pi=0.5, scheme="stratified_rerandomized",
                                rerand_covariates=(0, 1), threshold_t=50.0, block_size=4,
                                stratified_statistic=statistic)),
        ]
        redrawn = 0
        for frame, design in cases:
            for seed in range(50):
                alloc = rerandomize(frame, design, seed)
                _assert_same_allocation(alloc, _reference_rerandomize(frame, design, seed))
                redrawn += alloc.attempts > 1
        assert redrawn > 10

    @pytest.mark.parametrize("scheme", list(_ORACLE_SCHEMES))
    def test_max_attempts_raises_as_the_loop_does(self, scheme):
        frame = _oracle_frame(60, 3, 5, strata=scheme != "simple")
        design = Design(
            pi=0.5, rerand_covariates=(0, 1, 2), threshold_t=1e-6, max_attempts=7,
            **_ORACLE_SCHEMES[scheme],
        )
        with pytest.raises(NonTerminationError) as expected:
            _reference_rerandomize(frame, design, 0)
        with pytest.raises(NonTerminationError) as raised:
            rerandomize(frame, design, 0)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("criterion", list(_ORACLE_CRITERIA))
    @pytest.mark.parametrize("degenerate", ["constant", "collinear"])
    @pytest.mark.parametrize("scheme", list(_ORACLE_SCHEMES))
    def test_singular_weight_message_is_the_loops(self, scheme, degenerate, criterion):
        x = _oracle_frame(60, 3, 6).covariates.copy()
        if degenerate == "constant":
            x[:, 2] = 1.5
        else:
            x[:, 2] = 2.0 * x[:, 0] - x[:, 1]
        frame = TrialFrame(
            covariates=x,
            covariate_names=("x0", "x1", "x2"),
            stratum=_oracle_frame(60, 3, 6, strata=True).stratum if scheme != "simple" else None,
        )
        design = Design(
            pi=0.5, rerand_covariates=(0, 1, 2), **_ORACLE_SCHEMES[scheme],
            **_ORACLE_CRITERIA[criterion],
        )
        try:
            _reference_rerandomize(frame, design, 0)
        except SingularMatrixError as exc:
            expected = str(exc)
        else:  # the general criterion's diagonal is not singular for collinear columns
            assert degenerate == "collinear" and criterion != "mahalanobis"
            _assert_same_allocation(
                rerandomize(frame, design, 0), _reference_rerandomize(frame, design, 0)
            )
            return
        with pytest.raises(SingularMatrixError) as raised:
            rerandomize(frame, design, 0)
        assert str(raised.value) == expected

    def test_a_singular_later_tier_raises_before_any_proposal(self):
        # the loop checked a tier's weight only for proposals that passed the tiers
        # before it, so it ran out of attempts here; the weights are now checked first
        x = _oracle_frame(60, 3, 7).covariates.copy()
        x[:, 2] = 1.5
        frame = TrialFrame(covariates=x, covariate_names=("x0", "x1", "x2"))
        design = Design(
            pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1, 2), max_attempts=5,
            tiers=(Tier(indices=(0,), threshold=1e-12), Tier(indices=(1, 2), threshold=1.0)),
        )
        with pytest.raises(NonTerminationError):
            _reference_rerandomize(frame, design, 0)
        with pytest.raises(SingularMatrixError, match=r"covariate block\(s\) \{1\}"):
            rerandomize(frame, design, 0)

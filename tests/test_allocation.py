import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rerand import (
    Design,
    DistanceSpec,
    Tier,
    TrialFrame,
    balance_distance,
    chi_square_cdf,
    imbalance_simple,
    imbalance_stratified,
    imbalance_stratified_dagger,
    permuted_block_assign,
    rerandomize,
    simple_assign,
)
from rerand.errors import (
    NonTerminationError,
    SingularMatrixError,
    ValidationError,
)
from rerand.allocation import balance_forms


class TestSimpleAssign:
    def test_degenerate_probability_one(self):
        assert simple_assign(5, 1.0, seed=3).tolist() == [1, 1, 1, 1, 1]

    def test_sample_mean_matches_binomial(self):
        arms = simple_assign(100_000, 0.3, seed=11)
        assert abs(arms.mean() - 0.3) < 0.01  # binomial CI oracle: 7 sigma

    def test_deterministic_given_seed(self):
        a = simple_assign(50, 0.4, seed=9)
        b = simple_assign(50, 0.4, seed=9)
        np.testing.assert_array_equal(a, b)


class TestPermutedBlocks:
    def test_exact_balance_within_complete_blocks(self):
        strata = np.array(["a"] * 4 + ["b"] * 4, dtype=object)
        arms = permuted_block_assign(strata, 0.5, 2, seed=1)
        assert arms[:4].sum() == 2
        assert arms[4:].sum() == 2

    def test_quarter_pi_block_four(self):
        arms = permuted_block_assign(np.array(["a"] * 4, dtype=object), 0.25, 4, seed=2)
        assert arms.sum() == 1

    def test_partial_block_outcomes(self):
        # enumeration oracle: 5 units at pi=0.5, k=2 give 2 full blocks (2
        # treated) plus a one-unit prefix of a fresh block (0 or 1 treated)
        counts = {
            int(permuted_block_assign(np.array(["a"] * 5, dtype=object), 0.5, 2, s).sum())
            for s in range(60)
        }
        assert counts == {2, 3}

    def test_prefix_imbalance_bounded_by_block_size(self):
        strata = np.array(["a"] * 13 + ["b"] * 7, dtype=object)
        for seed in range(25):
            arms = permuted_block_assign(strata, 0.5, 4, seed)
            for label in ("a", "b"):
                sub = arms[strata == label]
                prefix = np.cumsum(sub)
                sizes = np.arange(1, len(sub) + 1)
                assert np.all(np.abs(prefix - 0.5 * sizes) < 4)

    def test_non_integer_pi_k_rejected(self):
        with pytest.raises(ValidationError, match="not integer"):
            permuted_block_assign(np.array(["a"] * 4, dtype=object), 0.3, 2, 0)


class TestImbalance:
    def test_hand_arithmetic(self):
        imb, vhat = imbalance_simple(np.array([1.0, 2, 3, 4]), np.array([1, 1, 0, 0]))
        assert imb == pytest.approx([-2.0])
        np.testing.assert_allclose(vhat, [[1.25]], atol=1e-12)

    def test_constant_column_is_flagged_singular(self):
        imb, vhat = imbalance_simple(np.ones(6), np.array([1, 1, 1, 0, 0, 0]))
        with pytest.raises(SingularMatrixError, match="zero variance"):
            balance_distance(imb, vhat)

    def test_single_arm_rejected(self):
        with pytest.raises(ValidationError, match="both arms"):
            imbalance_simple(np.arange(4.0), np.ones(4, dtype=int))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_arm_complement_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 2))
        arms = np.array([1, 1, 1, 0, 0, 0, 1, 0, 1, 0])
        i1, v1 = imbalance_simple(x, arms)
        i2, v2 = imbalance_simple(x, 1 - arms)
        np.testing.assert_allclose(i1, -i2, atol=1e-12)
        np.testing.assert_allclose(v1, v2, atol=1e-15)

    def test_stratified_hand_arithmetic(self):
        # strata {s1: [x=1 treated, x=3 control], s2: [x=2 control, x=6 treated]}
        xr = np.array([1.0, 3.0, 2.0, 6.0])
        arms = np.array([1, 0, 0, 1])
        strata = np.array(["s1", "s1", "s2", "s2"], dtype=object)
        imb, vhat = imbalance_stratified(xr, arms, strata)
        assert imb == pytest.approx([1.0])
        np.testing.assert_allclose(vhat, [[2.5]], atol=1e-12)

    def test_one_stratum_variance_matches_simple_formula(self):
        rng = np.random.default_rng(7)
        xr = rng.normal(size=(12, 2))
        arms = np.array([1, 0] * 6)
        strata = np.array(["only"] * 12, dtype=object)
        i_s, v_s = imbalance_simple(xr, arms)
        i_t, v_t = imbalance_stratified(xr, arms, strata)
        np.testing.assert_allclose(i_s, i_t, atol=1e-14)
        # with a single stratum the two variance displays coincide exactly
        np.testing.assert_allclose(v_s, v_t, atol=1e-14)

    def test_within_stratum_constant_gives_zero_variance(self):
        xr = np.array([1.0, 1.0, 5.0, 5.0])
        arms = np.array([1, 0, 1, 0])
        strata = np.array(["a", "a", "b", "b"], dtype=object)
        _, vhat = imbalance_stratified(xr, arms, strata)
        np.testing.assert_allclose(vhat, [[0.0]], atol=1e-12)

    def test_dagger_hand_arithmetic(self):
        xr = np.array([1.0, 3.0, 2.0, 6.0])
        arms = np.array([1, 0, 0, 1])
        strata = np.array(["s1", "s1", "s2", "s2"], dtype=object)
        # 0.5*(1-3) + 0.5*(6-2) = 1
        assert imbalance_stratified_dagger(xr, arms, strata) == pytest.approx([1.0])

    def test_dagger_single_stratum_is_mean_difference(self):
        xr = np.array([2.0, 4.0, 1.0, 3.0])
        arms = np.array([1, 1, 0, 0])
        strata = np.array(["s"] * 4, dtype=object)
        assert imbalance_stratified_dagger(xr, arms, strata) == pytest.approx([1.0])

    def test_dagger_zero_under_exact_balance(self):
        xr = np.array([1.0, 1.0, 4.0, 4.0])
        arms = np.array([1, 0, 1, 0])
        strata = np.array(["a", "a", "b", "b"], dtype=object)
        assert imbalance_stratified_dagger(xr, arms, strata) == pytest.approx([0.0])

    def test_dagger_requires_both_arms_per_stratum(self):
        with pytest.raises(ValidationError, match="lacks one arm"):
            imbalance_stratified_dagger(
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
        _, vhat = imbalance_stratified(xr, arms, strata)
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
                imbalance_stratified_dagger(xr, arms, strata),
                _reference_dagger(xr, arms, strata),
                rtol=1e-12,
                atol=1e-14,
            )
        else:
            with pytest.raises(ValidationError, match="lacks one arm"):
                imbalance_stratified_dagger(xr, arms, strata)


def _reference_imbalance_variance_stratified(Xr, arms, strata):
    """The stratum loop that ``imbalance_stratified`` replaced (its V-hat).

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
    """The stratum loop that ``imbalance_stratified_dagger`` replaced."""
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
            sub = alloc.arms[frame.stratum == label]
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
            distance=DistanceSpec(kind="general"),
        )
        alloc = rerandomize(frame, design, seed=11)
        diag = np.diag(np.diag(alloc.imbalance_variance))
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
                Tier(indices=(2, 5), threshold=3.0, distance=DistanceSpec(kind="general")),
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
                Tier(indices=(0, 1), threshold=0.2, distance=DistanceSpec(kind="general")),
            ),
        )
        alloc = rerandomize(frame, design, seed)
        forms = balance_forms(design, alloc.imbalance_variance)
        expected = [
            balance_distance(alloc.imbalance[positions], weight)
            for positions, weight, _ in forms
        ]
        assert alloc.tier_distances == pytest.approx(expected, rel=1e-12)
        assert all(d < t for d, (_, _, t) in zip(alloc.tier_distances, forms))

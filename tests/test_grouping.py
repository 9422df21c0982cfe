"""The one label grouping (``data_model.factorize``) and the code built on it.

The ``_reference_*`` functions are the per-module label loops that the shared
grouping replaced, kept verbatim (up to removed helper names) as oracles.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import rerand.allocation
import rerand.data_model
import rerand.dml
import rerand.inference
import rerand.mestimators
import rerand.simlab
from rerand import (
    Design,
    EstimandSpec,
    EstimateResult,
    TrialFrame,
    estimate_mixed_ancova,
    make_folds,
    scheme_plugins,
)
from rerand.allocation import _permuted_block_draw
from rerand.data_model import Grouping, factorize
from rerand.errors import ValidationError
from rerand.mestimators import (
    _check_full_rank,
    _ols,
    expand_model_columns,
    solve_estimating_equations,
)
from rerand.simlab import SimEstimator, apply_estimator, scheme_inference

from conftest import block_arms, fd_jacobian, unit_labels

DIFF = EstimandSpec("difference")
RATIO = EstimandSpec("ratio")


def _shuffled(labels, seed):
    labels = np.asarray(labels, dtype=object)
    return labels[np.random.default_rng(seed).permutation(labels.size)]


def _strata_panel():
    """(name, stratum labels): the fixed panel every grouping oracle runs on."""
    rng = np.random.default_rng(20241018)
    return [
        # n = 10,000 units in 200 strata of uneven size
        ("large", np.array([f"site-{v}" for v in rng.integers(0, 200, 10_000)], dtype=object)),
        # singleton strata beside one large stratum
        ("singletons", _shuffled([f"u{i}" for i in range(7)] + ["shared"] * 9, 1)),
        # odd stratum sizes, so most strata end in a partial block
        ("odd", _shuffled(np.repeat(["a", "b", "c", "d", "e"], [1, 3, 5, 13, 27]), 2)),
        # string order differs from numeric order: "10" < "2"
        ("numeric", _shuffled(np.repeat(["2", "10", "1", "20", "3"], [11, 7, 9, 14, 6]), 3)),
    ]


PANEL = _strata_panel()
PANEL_IDS = [name for name, _ in PANEL]
BLOCKS = [(0.5, 2), (0.25, 4), (0.5, 4), (0.5, 6), (0.3, 10)]


class TestFactorize:
    @pytest.mark.parametrize("name,strata", PANEL, ids=PANEL_IDS)
    def test_matches_numpy_unique(self, name, strata):
        groups = factorize(strata)
        labels, codes = np.unique(strata, return_inverse=True)
        assert groups.labels.tolist() == labels.tolist()
        np.testing.assert_array_equal(groups.codes, codes.ravel())
        np.testing.assert_array_equal(groups.counts, np.bincount(codes.ravel()))

    def test_numeric_strings_sort_as_strings_and_integers_as_numbers(self):
        assert factorize(np.array(["2", "10", "1"], dtype=object)).labels.tolist() == [
            "1", "10", "2",
        ]
        assert factorize(np.array([2, 10, 1])).labels.tolist() == [1, 2, 10]

    @pytest.mark.parametrize("name,strata", PANEL, ids=PANEL_IDS)
    def test_members_are_ascending_rows_in_label_order(self, name, strata):
        groups = factorize(strata)
        for label, rows in zip(groups.labels, groups.members):
            np.testing.assert_array_equal(rows, np.flatnonzero(strata == label))

    def test_integer_codes_regroup_identically(self):
        strata = PANEL[0][1]
        groups = factorize(strata)
        again = factorize(groups.codes)
        np.testing.assert_array_equal(again.codes, groups.codes)
        np.testing.assert_array_equal(again.counts, groups.counts)

    def test_frame_groupings_are_computed_once(self):
        frame = TrialFrame(
            covariates=np.zeros((4, 1)),
            covariate_names=("x",),
            stratum=["b", "a", "b", "a"],
            cluster=["c2", "c10", "c2", "c1"],
        )
        assert isinstance(frame.stratum, Grouping) and isinstance(frame.cluster, Grouping)
        assert frame.stratum.labels.tolist() == ["a", "b"]
        assert frame.cluster.labels.tolist() == ["c1", "c10", "c2"]
        assert frame.cluster.codes.tolist() == [2, 1, 2, 0]
        bare = TrialFrame(covariates=np.zeros((2, 1)), covariate_names=("x",))
        assert bare.stratum is None and bare.cluster is None

    def test_arrays_are_read_only(self):
        groups = factorize(np.array(["b", "a", "b"], dtype=object))
        for arr in (groups.labels, groups.codes, groups.counts, groups.first_rows, *groups.members):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        assert groups.first_rows.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "labels,codes,message",
        [
            (["a"], [0, 1, 0, 1], r"grouping code outside range\(1\)"),
            (["a", "b"], [0, -1], r"grouping code outside range\(2\)"),
            (["a"], [0.0, 0.0], "1-d integer array"),
            (["a"], [[0, 0]], "1-d integer array"),
            (["b", "a"], [1, 0, 0, 1], "strictly increasing"),
            (["a", "a"], [0, 1, 1, 0], "strictly increasing"),
        ],
        ids=[
            "code_past_the_labels", "negative_code", "float_codes", "two_d_codes",
            "unsorted_labels", "repeated_labels",
        ],
    )
    def test_codes_that_name_no_label_are_rejected(self, labels, codes, message):
        with pytest.raises(ValidationError, match=message):
            Grouping(labels=np.array(labels, dtype=object), codes=np.array(codes))

    def test_counts_are_derived_from_the_codes(self):
        groups = Grouping(labels=np.array(["a", "b", "c"], dtype=object), codes=[2, 0, 2, 2])
        assert groups.counts.tolist() == [1, 0, 3]
        with pytest.raises(TypeError):
            Grouping(labels=np.array(["a"], dtype=object), codes=[0, 0], counts=[2])

    @pytest.mark.parametrize("name,strata", PANEL, ids=PANEL_IDS)
    def test_weighted_sums_equal_sums_of_the_products(self, name, strata):
        rng = np.random.default_rng(8)
        groups = factorize(strata)
        values, weights = rng.normal(size=(strata.size, 3)), rng.normal(size=strata.size)
        for x in (values, values[:, 0]):  # (n, p) and (n,)
            products = x * (weights[:, None] if x.ndim == 2 else weights)
            np.testing.assert_array_equal(groups.sums(x, weights), groups.sums(products))

    def test_common_values_names_the_first_mixed_group(self):
        groups = factorize(np.array(["b", "a", "c", "b", "c"], dtype=object))
        assert groups.common_values(np.array([1, 0, 1, 1, 1]), "{}").tolist() == [0, 1, 1]
        with pytest.raises(ValidationError, match="^group 'b'$"):
            groups.common_values(np.array([1, 0, 0, 0, 1]), "group '{}'")


# ---------------------------------------------------------------------------
# Permuted blocks.


def _reference_permuted_block_draw(rng, strata, pi, k):
    ones = int(round(pi * k))
    base = np.zeros(k, dtype=np.int8)
    base[:ones] = 1

    n = len(strata)
    arms = np.empty(n, dtype=np.int8)
    for label in sorted(set(strata.tolist())):
        idx = np.flatnonzero(strata == label)
        n_s = idx.size
        blocks = [rng.permutation(base) for _ in range(-(-n_s // k))]
        arms[idx] = np.concatenate(blocks)[:n_s]
    return arms


class TestPermutedBlockOracle:
    @pytest.mark.parametrize("pi,k", BLOCKS)
    @pytest.mark.parametrize("name,strata", PANEL, ids=PANEL_IDS)
    def test_arms_and_stream_match_the_block_loop(self, name, strata, pi, k):
        for seed in (0, 7):
            expected_rng = np.random.default_rng(seed)
            expected = [_reference_permuted_block_draw(expected_rng, strata, pi, k) for _ in range(2)]
            rng = np.random.default_rng(seed)
            got = [_permuted_block_draw(rng, factorize(strata), pi, k) for _ in range(2)]
            # the second draw starts where the first left the stream
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
            assert rng.integers(2**62) == expected_rng.integers(2**62)
            np.testing.assert_array_equal(block_arms(strata, pi, k, seed), expected[0])

    def test_many_blocks_in_one_stratum(self):
        strata = np.array(["only"] * 10_000, dtype=object)
        for k in (2, 4, 6, 10):
            pi = 0.5 if k != 10 else 0.3
            expected = _reference_permuted_block_draw(np.random.default_rng(3), strata, pi, k)
            np.testing.assert_array_equal(block_arms(strata, pi, k, 3), expected)


# ---------------------------------------------------------------------------
# Stratum-by-arm folds and stratum dummies.


def _reference_make_folds_stratum_arm(frame, K, seed):
    rng = np.random.default_rng(seed)
    assignment = np.empty(frame.n_units, dtype=np.int64)
    arms = frame.require_arms()
    strata = unit_labels(frame.stratum)
    for label in sorted(set(strata.tolist())):
        for a in (0, 1):
            cell = np.flatnonzero((strata == label) & (arms == a))
            if cell.size < K:
                raise ValidationError(
                    f"cell (arm={a}, stratum='{label}') has {cell.size} units, "
                    f"fewer than K={K}"
                )
            perm = rng.permutation(cell.size)
            assignment[cell[perm]] = np.arange(cell.size) % K
    return assignment


def _reference_stratum_dummies(frame):
    columns, labels = [], []
    strata = unit_labels(frame.stratum)
    for level in sorted(set(strata.tolist()))[1:]:
        columns.append((strata == level).astype(float))
        labels.append(f"stratum={level}")
    return columns, labels


def _panel_frame(strata, seed=0):
    rng = np.random.default_rng(seed)
    n = strata.size
    arms = block_arms(strata, 0.5, 2, seed)
    return TrialFrame(
        covariates=rng.normal(size=(n, 1)),
        covariate_names=("x1",),
        outcome=rng.normal(size=n),
        arm=arms,
        stratum=strata,
    )


class TestFoldAndDummyOracles:
    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("name,strata", PANEL, ids=PANEL_IDS)
    def test_stratum_arm_folds_match_the_cell_loop(self, name, strata, K):
        frame = _panel_frame(strata)
        try:
            expected = _reference_make_folds_stratum_arm(frame, K, seed=11)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                make_folds(frame, K, "stratum_arm", seed=11)
            assert str(caught.value) == str(exc)
            return
        np.testing.assert_array_equal(make_folds(frame, K, "stratum_arm", seed=11), expected)

    @pytest.mark.parametrize("name,strata", PANEL, ids=PANEL_IDS)
    def test_stratum_dummies_match_the_level_loop(self, name, strata):
        frame = _panel_frame(strata)
        columns, _ = _reference_stratum_dummies(frame)
        X = expand_model_columns(frame, ["x1", "stratum"])
        np.testing.assert_array_equal(X, np.column_stack([frame.column("x1"), *columns]))


# ---------------------------------------------------------------------------
# The mixed model: the per-cluster loops it used before the grouping.


def _reference_design(frame, covariates, interactions, arms):
    """[1, A, X, A*(X - mean X)] with every unit's arm set to ``arms``."""
    X = expand_model_columns(frame, covariates)
    X_int = X - X.mean(axis=0) if interactions else X[:, :0]
    arms = np.asarray(arms, dtype=float)
    return np.column_stack([np.ones(frame.n_units), arms, X, arms[:, None] * X_int])


class _ReferenceClusterData:
    def __init__(self, frame, covariates, interactions):
        arms = frame.require_arms()
        clusters = unit_labels(frame.cluster)
        self.labels = sorted(set(clusters.tolist()))
        self.members = [np.flatnonzero(clusters == lab) for lab in self.labels]
        self.sizes = np.array([len(m) for m in self.members])
        self.arms = np.empty(len(self.labels), dtype=np.int8)
        for c, idx in enumerate(self.members):
            cluster_arms = set(arms[idx].tolist())
            if len(cluster_arms) != 1:
                raise ValidationError(f"cluster '{self.labels[c]}' mixes treatment arms")
            self.arms[c] = cluster_arms.pop()
        self.y = frame.outcome
        self.Z = _reference_design(frame, covariates, interactions, arms)
        self.Z1 = _reference_design(frame, covariates, interactions, np.full(frame.n_units, 1.0))
        self.Z0 = _reference_design(frame, covariates, interactions, np.full(frame.n_units, 0.0))
        self.z_sum = np.vstack([self.Z[idx].sum(axis=0) for idx in self.members])
        self.y_sum = np.array([self.y[idx].sum() for idx in self.members])
        self.ZtZ = self.Z.T @ self.Z
        self.Zty = self.Z.T @ self.y
        self.yty = float(self.y @ self.y)
        self.n_obs = int(self.sizes.sum())

    def gls_beta(self, sigma2, tau2):
        c = tau2 / (sigma2 + self.sizes * tau2)
        M = self.ZtZ - (self.z_sum * c[:, None]).T @ self.z_sum
        rhs = self.Zty - self.z_sum.T @ (c * self.y_sum)
        return np.linalg.solve(M, rhs)

    def neg2_loglik(self, sigma2, tau2):
        beta = self.gls_beta(sigma2, tau2)
        resid_sum = self.y_sum - self.z_sum @ beta
        c = tau2 / (sigma2 + self.sizes * tau2)
        rss = self.yty - 2 * beta @ self.Zty + beta @ self.ZtZ @ beta
        quad = (rss - (c * resid_sum**2).sum()) / sigma2
        logdet = self.n_obs * math.log(sigma2) + np.log(
            1.0 + self.sizes * tau2 / sigma2
        ).sum()
        return float(self.n_obs * math.log(2 * math.pi) + logdet + quad)


def _reference_estimate_mixed_ancova(frame, covariates, interactions, estimand):
    data = _ReferenceClusterData(frame, covariates, interactions)
    _check_full_rank(data.Z)

    beta_ols = _ols(data.Z, data.y, np.ones(data.n_obs))
    resid = data.y - data.Z @ beta_ols
    v_resid = max(float(resid @ resid) / max(data.n_obs - data.Z.shape[1], 1), 1e-8)
    cluster_means = np.array(
        [resid[idx].mean() for idx in data.members if len(idx) > 0]
    )
    v_between = max(float(np.var(cluster_means)), 1e-8)

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
    sigma2, tau2 = float(best.x[0]), float(max(best.x[1], 0.0))
    boundary = tau2 <= 1e-6 * sigma2 or (data.sizes == 1).all()
    if boundary:
        sigma2 = sigma2 + tau2 if (data.sizes == 1).all() else sigma2
        tau2 = 0.0
    return _reference_mixed_stack(frame, data, estimand, sigma2, tau2, boundary)


def _reference_mixed_stack(frame, data, estimand, sigma2, tau2, boundary):
    p = data.Z.shape[1]
    n_clusters = len(data.labels)
    beta_init = data.gls_beta(sigma2, tau2)

    def cluster_psi(theta):
        delta, m1, m0 = theta[:3]
        beta = theta[3 : 3 + p]
        s2 = theta[3 + p]
        t2 = 0.0 if boundary else theta[4 + p]
        dim = 3 + p + (1 if boundary else 2)
        out = np.empty((n_clusters, dim))
        resid = data.y - data.Z @ beta
        pred1 = data.Z1 @ beta
        pred0 = data.Z0 @ beta
        contrast = estimand.value(m1, m0) - delta
        for c, idx in enumerate(data.members):
            N = data.sizes[c]
            r = resid[idx]
            r_sum = r.sum()
            denom = s2 + N * t2
            vr = r / s2 - (t2 * r_sum / (s2 * denom)) * 1.0
            out[c, 0] = contrast
            out[c, 1] = m1 - pred1[idx].mean()
            out[c, 2] = m0 - pred0[idx].mean()
            out[c, 3 : 3 + p] = data.Z[idx].T @ vr
            trace_v = N / s2 - t2 * N / (s2 * denom)
            out[c, 3 + p] = -trace_v + vr @ vr
            if not boundary:
                out[c, 4 + p] = -N / denom + (r_sum / denom) ** 2
        return out

    mu1 = float(np.mean([np.mean((data.Z1 @ beta_init)[idx]) for idx in data.members]))
    mu0 = float(np.mean([np.mean((data.Z0 @ beta_init)[idx]) for idx in data.members]))
    head = [estimand.value(mu1, mu0), mu1, mu0]
    tail = [sigma2] if boundary else [sigma2, tau2]
    theta0 = np.concatenate([head, beta_init, tail])
    theta, if_head, diag = solve_estimating_equations(
        cluster_psi, fd_jacobian(cluster_psi), theta0
    )
    if not boundary and theta[4 + p] < 0:
        return _reference_mixed_stack(frame, data, estimand, float(theta[3 + p]), 0.0, True)
    return EstimateResult(
        delta_hat=float(theta[0]),
        mu_hat=(float(theta[1]), float(theta[2])),
        theta_hat=theta,
        if_values=if_head[:, 0],  # the influence values of this stack's Delta row
        solver_diag=diag,
        details={"sigma2": float(theta[3 + p]), "tau2": 0.0 if boundary else float(theta[4 + p])},
    )


def _mixed_frame(seed, m, low, high, tau):
    """m clusters of low..high units (labels "0".."m-1": "10" sorts before "2")."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(low, high + 1, m)
    cluster = np.repeat(np.arange(m), sizes)
    order = rng.permutation(cluster.size)  # clusters interleave in row order
    cluster = cluster[order]
    arms = np.tile([1, 0], m // 2 + 1)[cluster]
    x = rng.normal(size=(cluster.size, 2))
    y = (
        1.0 + 1.5 * arms + x @ [0.8, -0.5]
        + rng.normal(0.0, tau, m)[cluster] + rng.normal(0.0, 0.8, cluster.size)
    )
    return TrialFrame(
        covariates=x, covariate_names=("x1", "x2"), outcome=y, arm=arms,
        cluster=cluster.astype(str),
    )


MIXED_PANEL = [
    ("interior", dict(seed=1, m=12, low=2, high=9, tau=1.0), False, DIFF),
    ("interactions", dict(seed=2, m=40, low=1, high=12, tau=0.7), True, DIFF),
    ("ratio", dict(seed=3, m=16, low=3, high=6, tau=1.2), False, RATIO),
    ("near_boundary", dict(seed=4, m=10, low=2, high=5, tau=0.0), False, DIFF),
    ("all_singletons", dict(seed=5, m=30, low=1, high=1, tau=0.5), False, DIFF),
]


class TestMixedOracle:
    @pytest.mark.parametrize(
        "name,shape,interactions,estimand", MIXED_PANEL, ids=[p[0] for p in MIXED_PANEL]
    )
    def test_matches_the_cluster_loops(self, name, shape, interactions, estimand):
        frame = _mixed_frame(**shape)
        got = estimate_mixed_ancova(frame, ("x1", "x2"), interactions, estimand)
        expected = _reference_estimate_mixed_ancova(frame, ("x1", "x2"), interactions, estimand)
        assert got.delta_hat == pytest.approx(expected.delta_hat, rel=1e-12, abs=0)
        assert got.details["sigma2"] == pytest.approx(expected.details["sigma2"], rel=1e-12, abs=0)
        # tau^2 agrees to rtol 1e-10 here, not 1e-12: the loop oracle takes
        # tau^2 from an L-BFGS-B search with finite-difference gradients and a
        # Newton pass that stops at residual 1e-10, so it moves tau^2 by up to
        # 9e-11 (delta-hat by 6e-12) when only the rows of these frames are
        # permuted, while the profiled root is stable to 1e-12 (next test)
        assert got.details["tau2"] == pytest.approx(expected.details["tau2"], rel=1e-10, abs=0)
        scale = np.abs(expected.if_values).max()
        np.testing.assert_allclose(got.if_values, expected.if_values, rtol=0, atol=1e-8 * scale)

    @pytest.mark.parametrize(
        "name,shape,interactions,estimand", MIXED_PANEL, ids=[p[0] for p in MIXED_PANEL]
    )
    def test_row_permutations_agree(self, name, shape, interactions, estimand):
        frame = _mixed_frame(**shape)
        base = estimate_mixed_ancova(frame, ("x1", "x2"), interactions, estimand)
        rng = np.random.default_rng(17)
        for _ in range(5):
            rows = rng.permutation(frame.n_units)
            permuted = TrialFrame(
                covariates=frame.covariates[rows], covariate_names=frame.covariate_names,
                outcome=frame.outcome[rows], arm=frame.arm[rows],
                cluster=unit_labels(frame.cluster)[rows],
            )
            got = estimate_mixed_ancova(permuted, ("x1", "x2"), interactions, estimand)
            assert got.delta_hat == pytest.approx(base.delta_hat, rel=1e-12, abs=0)
            for key in ("sigma2", "tau2"):
                assert got.details[key] == pytest.approx(base.details[key], rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# Analysis units of the mixed model under stratified designs.


def _stratified_cluster_frame(span: bool):
    """40 clusters of 6 units; with ``span`` every cluster has units in a and b."""
    rng = np.random.default_rng(8)
    cluster = np.repeat(np.arange(40), 6)
    if span:
        stratum = np.tile(["a", "b"], 120)
    else:
        stratum = np.where(cluster % 4 < 2, "a", "b")
    arms = (cluster % 2)
    y = 1.0 + arms + rng.normal(size=40)[cluster] + rng.normal(size=240)
    return TrialFrame(
        covariates=rng.normal(size=(240, 1)), covariate_names=("x",), outcome=y,
        arm=arms, stratum=stratum, cluster=[f"c{c}" for c in cluster],
    )


class TestMixedAnalysisUnits:
    EST = SimEstimator(kind="mixed", covariates=("x",))

    def test_cluster_spanning_strata_is_rejected(self):
        frame = _stratified_cluster_frame(span=True)
        design = Design(pi=0.5, scheme="stratified")
        result = apply_estimator(self.EST, frame, design, 1, 0)
        with pytest.raises(ValidationError, match="cluster 'c0' spans more than one stratum"):
            scheme_inference(self.EST, result, frame, design, 0.05)

    def test_spanning_is_irrelevant_without_a_stratified_design(self):
        frame = _stratified_cluster_frame(span=True)
        design = Design(pi=0.5, scheme="simple")
        result = apply_estimator(self.EST, frame, design, 1, 0)
        info = scheme_inference(self.EST, result, frame, design, 0.05)
        assert info["n_units"] == 40

    def test_nested_clusters_take_their_stratum(self):
        frame = _stratified_cluster_frame(span=False)
        design = Design(pi=0.5, scheme="stratified")
        result = apply_estimator(self.EST, frame, design, 1, 0)
        info = scheme_inference(self.EST, result, frame, design, 0.05)
        # clusters in label order: c0, c1, c10, c11, ..., c19, c2, c20, ...
        index = np.array(sorted(range(40), key=lambda c: f"c{c}"))
        cluster_arms = index % 2
        cluster_strata = np.where(index % 4 < 2, "a", "b").astype(object)
        assert info["v_scheme"] == scheme_plugins(
            result.if_values, cluster_arms, 0.5, None, factorize(cluster_strata)
        )[0]


# ---------------------------------------------------------------------------
# Labels are factorized once per frame.


@pytest.mark.parametrize("distance", ["mahalanobis", "general"])
def test_stratified_ancova_factorizes_object_labels_once(monkeypatch, distance):
    original = rerand.data_model.factorize
    kinds = []

    def counting(values):
        kinds.append(np.asarray(values).dtype.kind)
        return original(values)

    modules = (
        rerand.data_model, rerand.allocation, rerand.inference,
        rerand.mestimators, rerand.dml, rerand.simlab,
    )
    for module in modules:
        if getattr(module, "factorize", None) is original:
            monkeypatch.setattr(module, "factorize", counting)

    rng = np.random.default_rng(5)
    strata = np.array([f"site-{v}" for v in rng.integers(0, 20, 2_000)], dtype=object)
    x = rng.normal(size=(2_000, 2))
    arms = block_arms(strata, 0.5, 2, seed=4)
    kinds.clear()  # counted from the frame's construction on
    frame = TrialFrame(
        covariates=x, covariate_names=("x1", "x2"),
        outcome=1.0 + arms + x @ [1.0, -1.0] + rng.normal(size=2_000),
        arm=arms, stratum=strata,
    )
    design = Design(
        pi=0.5, scheme="stratified_rerandomized", rerand_covariates=(0, 1),
        threshold_t=1.0, distance=distance,
    )
    est = SimEstimator(kind="ancova", covariates=("x1", "x2", "stratum"))
    result = apply_estimator(est, frame, design, 1, 0)
    scheme_inference(est, result, frame, design, 0.05)
    assert kinds.count("O") == 1

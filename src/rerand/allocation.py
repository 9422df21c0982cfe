"""Treatment allocation and covariate-balance machinery.

``rerandomize`` is the one assignment entry: it draws independent coin flips
or stratified permuted blocks under a ``Design`` and, for rerandomized
schemes, redraws until the balance criterion is met. Alongside it are
``Allocation``, ``chi_square_cdf``, ``balance_distance``, ``balance_forms``
and the V-hat(I) parts ``centered_scatter`` and ``arm_product``.

Everything here is a pure function of (inputs, seed): callers may run many
allocations concurrently with distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .data_model import Design, Grouping, TrialFrame, group_sums, validate_design
from .errors import NonTerminationError, SingularMatrixError, ValidationError


@dataclass(frozen=True)
class Allocation:
    """An accepted treatment assignment with its balance bookkeeping.

    ``accepted_distance`` is present only when a finite-threshold balance
    criterion was actually checked; tiered designs record per-tier distances
    instead. ``imbalance`` is the accepted draw's statistic (I, or its
    stratified counterpart).
    """

    arms: np.ndarray
    attempts: int
    accepted_distance: float | None
    imbalance: np.ndarray
    tier_distances: tuple[float, ...] | None = None


def chi_square_cdf(q: int, t: float) -> float:
    """P(chi^2_q < t) via the regularized lower incomplete gamma function."""
    if int(q) != q or q < 1:
        raise ValidationError("degrees of freedom must be a positive integer")
    if t < 0:
        raise ValidationError("t must be nonnegative")
    return float(gammainc(q / 2.0, t / 2.0))  # 1 at t = inf


def _permuted_block_draw(
    rng: np.random.Generator, strata: Grouping, pi: float, k: int
) -> np.ndarray:
    """Stratified permuted-block assignment, for a design ``validate_design`` passed.

    Within each stratum, consecutive units are assigned from size-k blocks
    containing exactly pi*k ones in uniformly random order; a fresh block is
    sampled whenever the previous one is exhausted, and the final partial
    block uses only the prefix it needs.
    """
    ones = int(round(pi * k))
    base = np.zeros(k, dtype=np.int8)
    base[:ones] = 1

    arms = np.empty(strata.codes.size, dtype=np.int8)
    for idx in strata.members:
        # one call permutes every block's row, drawing as per-block permutations do
        blocks = rng.permuted(np.tile(base, (-(-idx.size // k), 1)), axis=1)
        arms[idx] = blocks.ravel()[: idx.size]
    return arms


def centered_scatter(Xr: np.ndarray, strata: Grouping | None) -> tuple[np.ndarray, np.ndarray]:
    """X^r centered at its overall mean, or at its ``strata`` means, and its scatter
    matrix; V-hat(I) of an assignment is scatter / ``arm_product(arms)``."""
    centered = Xr - Xr.mean(axis=0) if strata is None else strata.centered(Xr)
    return centered, centered.T @ centered


def arm_product(arms: np.ndarray) -> int:
    """N1 N0 of a 0/1 assignment; raises ValidationError when an arm is empty."""
    n1 = int(arms.sum())
    if n1 == 0 or n1 == arms.size:
        raise ValidationError("both arms must be non-empty")
    return n1 * (arms.size - n1)


def _stratum_dagger(Xr: np.ndarray, arms: np.ndarray, strata: Grouping) -> np.ndarray:
    """Stratum-weighted imbalance over a stratum grouping."""
    cells = 2 * strata.codes + (arms == 1)
    cell_n = np.bincount(cells, minlength=2 * strata.labels.size).reshape(-1, 2)
    empty = np.flatnonzero(cell_n.min(axis=1) == 0)
    if empty.size:
        raise ValidationError(f"stratum '{strata.labels[empty[0]]}' lacks one arm")
    means = group_sums(cells, Xr, 2 * strata.labels.size).reshape(-1, 2, Xr.shape[1])
    means = means / cell_n[:, :, None]
    return (strata.counts / arms.size) @ (means[:, 1] - means[:, 0])


def balance_distance(imbalance: np.ndarray, weight: np.ndarray) -> float:
    """Quadratic form I^T W^-1 I through an SPD factorization.

    Raises :class:`SingularMatrixError` when the reciprocal condition estimate
    of W falls below 1e-12; a pseudo-inverse is deliberately not used, since a
    singular weight matrix signals degenerate rerandomization covariates.
    """
    imbalance = np.atleast_1d(np.asarray(imbalance, dtype=float))
    if imbalance.size == 0:
        return 0.0
    weight = np.atleast_2d(np.asarray(weight, dtype=float))
    if not np.allclose(weight, weight.T, rtol=0, atol=1e-10 * max(1.0, abs(weight).max())):
        raise ValidationError("weight matrix must be symmetric")
    eigvals = np.linalg.eigvalsh(weight)
    top = eigvals[-1]
    if top <= 0 or eigvals[0] / top < 1e-12:
        raise SingularMatrixError(_describe_singular(weight))
    solved = np.linalg.solve(weight, imbalance)
    return float(imbalance @ solved)


def _describe_singular(weight: np.ndarray) -> str:
    diag = np.diag(weight)
    scale = abs(weight).max()
    degenerate = [str(j) for j in np.flatnonzero(diag <= 1e-12 * max(scale, 1e-300))]
    if degenerate:
        return (
            "imbalance variance is numerically singular: covariate block(s) "
            f"{{{', '.join(degenerate)}}} have (near-)zero variance"
        )
    return "imbalance variance is numerically singular: collinear covariate block"


def balance_forms(design: Design, scale: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The balance criterion as one (X^r positions, weight, threshold) form per
    tier of ``design.criterion``, the weight realized on the tier's block of
    ``scale``, a q x q multiple c Var(I): the block itself (Mahalanobis) or its
    diagonal (``general``). An imbalance I passes the criterion when
    I[positions]' (weight / c)^-1 I[positions] < threshold for every form.
    """
    forms = []
    for tier in design.criterion:
        positions = np.array([design.rerand_covariates.index(j) for j in tier.indices], np.intp)
        weight = scale[np.ix_(positions, positions)]
        if tier.distance == "general":
            weight = np.diag(np.diag(weight))
        forms.append((positions, weight, tier.threshold))
    return forms


def rerandomize(frame: TrialFrame, design: Design, seed: int) -> Allocation:
    """Draw assignments under the design, redrawing until balance is accepted.

    One master seed drives the whole proposal stream, so the realized
    allocation is reproducible from (seed, design, frame). Non-rerandomized
    schemes and infinite thresholds accept the first proposal. Degenerate
    proposals that leave an arm (or a stratum-arm cell, for the
    stratum-weighted statistic) empty are rejected and counted.
    """
    validate_design(design, frame)
    rng = np.random.default_rng(seed)
    n = frame.n_units

    def propose() -> np.ndarray:
        if design.stratified:
            return _permuted_block_draw(rng, frame.stratum, design.pi, design.block_size)
        return (rng.random(n) < design.pi).astype(np.int8)

    if design.q < 1:
        return Allocation(propose(), 1, None, np.zeros(0))
    Xr = frame.covariates[:, list(design.rerand_covariates)]
    strata = frame.stratum if design.stratified else None
    _, scatter = centered_scatter(Xr, strata)
    dagger = strata is not None and design.stratified_statistic == "stratum_weighted"

    def statistic(arms: np.ndarray) -> tuple[np.ndarray, int]:
        n1n0 = arm_product(arms)
        if dagger:
            return _stratum_dagger(Xr, arms, strata), n1n0
        return Xr[arms == 1].mean(axis=0) - Xr[arms == 0].mean(axis=0), n1n0

    if not design.rerandomized or all(math.isinf(tier.threshold) for tier in design.criterion):
        arms = propose()
        return Allocation(arms, 1, None, statistic(arms)[0])

    forms = balance_forms(design, scatter)
    for attempt in range(1, design.max_attempts + 1):
        arms = propose()
        try:
            imb, n1n0 = statistic(arms)
        except ValidationError:
            continue  # degenerate proposal: count it and redraw
        dists = []
        for positions, weight, threshold in forms:
            dists.append(balance_distance(imb[positions], weight / n1n0))
            if not dists[-1] < threshold:
                break
        else:
            tiered = bool(design.tiers)
            accepted = None if tiered else dists[0]
            tier_dists = tuple(dists) if tiered else None
            return Allocation(arms, attempt, accepted, imb, tier_dists)
    raise NonTerminationError(
        f"no proposal satisfied the balance criterion within "
        f"{design.max_attempts} attempts; consider a larger threshold t"
    )

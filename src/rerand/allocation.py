"""Treatment allocation and covariate-balance machinery.

``rerandomize`` is the one assignment entry: it draws independent coin flips
or stratified permuted blocks under a ``Design`` and, for rerandomized
schemes, redraws until the balance criterion is met. Alongside it are
``Allocation``, ``balance_distance``, ``balance_forms`` and the V-hat(I) parts
``centered_scatter`` and ``arm_product``.

Every balance quadratic form I' W^-1 I, the acceptance rule's and R^2's alike,
is the squared norm |L^-1 I|^2 of I whitened by ``_whitener``, the one checked factorization.

Everything here is a pure function of (inputs, seed): callers may run many
allocations concurrently with distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    matrix; V-hat(I) of an assignment is scatter / ``arm_product(arms)``. An overflow
    leaves inf in the scatter, for ``_check_weight`` to report without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Quadratic form I' W^-1 I of a finite q-vector (or scalar) I and a q x q weight W,
    as |L^-1 I|^2 with L^-1 = ``_whitener(W)``.

    Raises :class:`ValidationError` for mismatched shapes, a non-finite entry or an
    asymmetric W, and :class:`SingularMatrixError` when W is numerically singular; a
    pseudo-inverse is deliberately not used, since a singular weight matrix signals
    degenerate rerandomization covariates.
    """
    imbalance = np.atleast_1d(np.asarray(imbalance, dtype=float))
    weight = np.atleast_2d(np.asarray(weight, dtype=float))
    if imbalance.ndim != 1 or weight.shape != (imbalance.size,) * 2:
        raise ValidationError(f"an imbalance of shape {imbalance.shape} and a weight of shape "
                              f"{weight.shape} do not make a quadratic form")
    if not np.all(np.isfinite(imbalance)):
        raise ValidationError("imbalance must be finite")
    if imbalance.size == 0:
        return 0.0
    whitened = _whitener(weight) @ imbalance
    return float(whitened @ whitened)


def _check_weight(weight: np.ndarray) -> None:
    """The one test of a weight W before it is factored: :class:`ValidationError` for a
    non-finite entry (an overflowed scatter) or asymmetry beyond 1e-10 of the largest entry
    (at least 1), :class:`SingularMatrixError` for an eigenvalue ratio below 1e-12 or NaN."""
    if not np.isfinite(weight).all():
        i, j = np.argwhere(~np.isfinite(weight))[0]
        raise ValidationError(f"weight matrix must be finite: entry ({i}, {j}) is {weight[i, j]}")
    atol = 1e-10 * max(1.0, abs(weight).max())
    if not np.all(abs(weight - weight.T) <= atol):
        raise ValidationError("weight matrix must be symmetric")
    eigvals = np.linalg.eigvalsh(weight)
    top = eigvals[-1]
    if not (top > 0 and eigvals[0] / top >= 1e-12):
        raise SingularMatrixError(_describe_singular(weight))


def _whitener(weight: np.ndarray) -> np.ndarray:
    """L^-1 of (W + W') / 2 = L L' for a W that ``_check_weight`` passes; halving first
    cannot overflow, and keeps an exactly symmetric W, such as a scatter C'C, bit for bit
    unless an entry is subnormal."""
    _check_weight(weight)
    return np.linalg.inv(np.linalg.cholesky(weight / 2 + weight.T / 2))


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
    dagger = strata is not None and design.stratified_statistic == "stratum_weighted"

    def statistic(arms: np.ndarray) -> np.ndarray:
        arm_product(arms)  # an empty arm raises
        if dagger:
            return _stratum_dagger(Xr, arms, strata)
        return Xr[arms == 1].mean(axis=0) - Xr[arms == 0].mean(axis=0)

    if not design.rerandomized or all(math.isinf(tier.threshold) for tier in design.criterion):
        arms = propose()
        return Allocation(arms, 1, None, statistic(arms))

    # A form's distance I' (weight / N1 N0)^-1 I is a squared norm in whitened
    # coordinates. With weight = L L' and W the form's X^r block centered at its overall
    # mean times L^-T, it is n^2 / (N1 N0) |arms @ W|^2 for the pooled statistic and
    # N1 N0 |dagger(W)|^2 for the stratum-weighted one: both are linear in X^r and blind
    # to a constant shift. L^-1 is formed on the q x q weight, so whitening is one
    # (n x q)(q x q) product and each proposal one product with the n x (sum of q) W.
    centered = Xr - Xr.mean(axis=0)
    blocks, cuts, start = [], [], 0
    for positions, weight, threshold in balance_forms(design, centered_scatter(Xr, strata)[1]):
        blocks.append(centered[:, positions] @ _whitener(weight).T)
        cuts.append((slice(start, start + positions.size), threshold))
        start += positions.size
    whitened = np.hstack(blocks)
    for attempt in range(1, design.max_attempts + 1):
        arms = propose()
        try:
            n1n0 = arm_product(arms)
            z = _stratum_dagger(whitened, arms, strata) if dagger else arms @ whitened
        except ValidationError:
            continue  # degenerate proposal: count it and redraw
        scale = n1n0 if dagger else n * n / n1n0
        dists = []
        for cut, threshold in cuts:
            dists.append(float(scale * (z[cut] @ z[cut])))
            if not dists[-1] < threshold:
                break
        else:
            tiered = bool(design.tiers)
            accepted = None if tiered else dists[0]
            tier_dists = tuple(dists) if tiered else None
            return Allocation(arms, attempt, accepted, statistic(arms), tier_dists)
    raise NonTerminationError(
        f"no proposal satisfied the balance criterion within "
        f"{design.max_attempts} attempts; consider a larger threshold t"
    )

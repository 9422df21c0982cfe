"""Simulation harness: data-generating processes, truth, and metric reports.

The built-in families draw three baseline variables (x1 normal with mean 1, a
binary stratum whose rate depends on x1, and an independent standard-normal
x2), then continuous or binary potential outcomes with an arm-by-stratum-by-
x2^2 interaction and a logistic missingness mechanism. ``custom`` exposes the
same term menu with free coefficients, which is enough to build correctly and
incorrectly specified working models on demand.

The ground truth f(E Y(1), E Y(0)) is a deterministic quadrature over the
covariate law (``true_delta``). Replicate r's data depend only on
(master_seed, r); workers never share state, so reports are
parallelism-invariant, and wall-clock time stays out of the report payload.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from . import dml as dml_mod
from . import inference, mestimators
from ._seeds import derive_seed
from .allocation import balance_forms, rerandomize
from .data_model import Design, EstimandSpec, Grouping, TrialFrame, factorize
from .errors import DiagnosticWarning, NumericError, RerandError, ValidationError

ESTIMATOR_KINDS = ("unadjusted", "ancova", "glm2", "drwls", "mixed", "dml")
DGP_COVARIATES = ("x1", "x2")  # the covariate columns of every built-in DGP
_STRATUM_LABELS = np.array(["0", "1"], dtype=object)  # the 0/1 stratum draws as labels


@dataclass(frozen=True)
class CustomDgp:
    """Coefficient records over the shared covariate law.

    Outcome mean: y_intercept + y_arm*a + y_x1*x1 + y_x2*x2 + y_stratum*s
    + y_arm_stratum_x2sq*a*s*x2^2 + y_exp_x1*exp(x1) + y_abs_x2*|x2|;
    continuous outcomes add N(0, y_sd^2) noise, binary outcomes pass the mean
    through expit. Missingness: expit of the analogous r_* linear form with an
    extra r_x2sq*x2^2 term.
    """

    binary: bool = False
    y_intercept: float = 0.0
    y_arm: float = 0.0
    y_x1: float = 0.0
    y_x2: float = 0.0
    y_stratum: float = 0.0
    y_arm_stratum_x2sq: float = 0.0
    y_exp_x1: float = 0.0
    y_abs_x2: float = 0.0
    y_sd: float = 1.0
    r_intercept: float = 0.6
    r_arm: float = 0.6
    r_x1: float = 0.0
    r_x2: float = 1.0
    r_stratum: float = 1.0
    r_x2sq: float = 0.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):  # binary is a bool, and finite
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValidationError(f"dgp.{field.name}: coefficient must be finite, got {value}")


_SEC7_CONTINUOUS = CustomDgp(
    binary=False, y_arm_stratum_x2sq=4.0, y_exp_x1=2.0, y_abs_x2=1.0, y_sd=1.0
)
_SEC7_BINARY = CustomDgp(
    binary=True, y_intercept=-4.0, y_arm_stratum_x2sq=4.0, y_exp_x1=1.0, y_abs_x2=-1.0
)


@dataclass(frozen=True)
class DgpSpec:
    family: str = "continuous_sec7"
    n: int = 400
    missingness: bool = False
    custom: CustomDgp | None = None

    def __post_init__(self) -> None:
        if self.family not in ("continuous_sec7", "binary_sec7", "custom"):
            raise ValidationError(f"unknown DGP family '{self.family}'")
        if self.family == "custom" and self.custom is None:
            raise ValidationError("custom family requires coefficient records")
        if self.n < 2:
            raise ValidationError("n must be at least 2")

    def coefficients(self) -> CustomDgp:
        if self.family == "continuous_sec7":
            return _SEC7_CONTINUOUS
        if self.family == "binary_sec7":
            return _SEC7_BINARY
        return self.custom


@dataclass(frozen=True)
class CompleteTrial:
    """Complete data with both potential outcomes retained."""

    x1: np.ndarray
    x2: np.ndarray
    s: np.ndarray
    y: tuple[np.ndarray, np.ndarray]  # (y(0), y(1))
    r: tuple[np.ndarray, np.ndarray]  # (r(0), r(1))
    missingness: bool

    @cached_property
    def allocation_frame(self) -> TrialFrame:
        """The pre-allocation frame; ``reveal`` shares its columns and strata. The strata
        group the 0/1 draws as ``factorize`` groups their text: only the labels present,
        ``"0"`` before ``"1"``."""
        lo, hi = int(self.s.min()), int(self.s.max())
        return TrialFrame(
            covariates=np.column_stack([self.x1, self.x2]),
            covariate_names=DGP_COVARIATES,
            stratum=Grouping(_STRATUM_LABELS[lo : hi + 1], np.subtract(self.s, lo, dtype=np.intp)),
        )

    def reveal(self, arms: np.ndarray) -> TrialFrame:
        arms = np.asarray(arms)
        y = np.where(arms == 1, self.y[1], self.y[0]).astype(float)
        if self.missingness:
            robs = np.where(arms == 1, self.r[1], self.r[0])
            y = np.where(robs == 1, y, np.nan)
        return dataclasses.replace(self.allocation_frame, outcome=y, arm=arms)


def _stratum_rate(x1):
    """P(s = 1 | x1)."""
    return 0.4 + 0.2 * (x1 < 1.0)


def _outcome_mean(coef: CustomDgp, a: int, x1, x2, s):
    """Arm ``a``'s outcome mean (binary outcomes: its logit)."""
    return (
        coef.y_intercept + coef.y_arm * a + coef.y_x1 * x1 + coef.y_x2 * x2 + coef.y_stratum * s
        + coef.y_arm_stratum_x2sq * a * s * x2**2 + coef.y_exp_x1 * np.exp(x1)
        + coef.y_abs_x2 * np.abs(x2)
    )


def _potential_draws(coef: CustomDgp, rng: np.random.Generator, n: int):
    x1 = rng.normal(1.0, 1.0, n)
    s = (rng.random(n) < _stratum_rate(x1)).astype(np.int8)
    x2 = rng.normal(0.0, 1.0, n)
    ys = []
    for a in (0, 1):
        mean = _outcome_mean(coef, a, x1, x2, s)
        if coef.binary:
            ys.append((rng.random(n) < expit(mean)).astype(float))
        else:
            ys.append(mean + coef.y_sd * rng.normal(0.0, 1.0, n))
    rs = []
    for a in (0, 1):
        logit = (
            coef.r_intercept
            + coef.r_arm * a
            + coef.r_x1 * x1
            + coef.r_x2 * x2
            + coef.r_stratum * s
            + coef.r_x2sq * x2**2
        )
        rs.append((rng.random(n) < expit(logit)).astype(np.int8))
    return x1, x2, s, ys, rs


def generate_trial(dgp: DgpSpec, seed: int) -> CompleteTrial:
    """Draw one complete-data trial; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    x1, x2, s, ys, rs = _potential_draws(dgp.coefficients(), rng, dgp.n)
    return CompleteTrial(
        x1=x1,
        x2=x2,
        s=s,
        y=(ys[0], ys[1]),
        r=(rs[0], rs[1]),
        missingness=dgp.missingness,
    )


_PANEL_NODES = 128  # Gauss-Legendre nodes per panel of the truth rule


def _normal_rule(mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E g(x), x ~ N(mean, 1), on two panels that meet at
    ``mean`` and end 10 sd from it."""
    t, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    offsets = np.concatenate([-5.0 * (1.0 + t[::-1]), 5.0 * (1.0 + t)])
    weights = np.concatenate([w[::-1], w]) * np.exp(-0.5 * offsets**2)
    return mean + offsets, weights * 5.0 / math.sqrt(2.0 * math.pi)


def true_delta(dgp: DgpSpec, estimand: EstimandSpec) -> float:
    """Ground truth f(E Y(1), E Y(0)) by tensor quadrature: x1's panels meet where
    its stratum rate steps, x2's where |x2| kinks, and s is summed exactly. The
    integrand is the outcome mean (the noise has mean 0), or its expit if binary."""
    coef = dgp.coefficients()
    (x1, w1), (x2, w2) = _normal_rule(1.0), _normal_rule(0.0)
    rate = _stratum_rate(x1)
    mu = [0.0, 0.0]
    for a, s in ((0, 0), (0, 1), (1, 0), (1, 1)):
        mean = _outcome_mean(coef, a, x1[:, None], x2[None, :], s)
        mu[a] += (w1 * (rate if s else 1.0 - rate)) @ ((expit(mean) if coef.binary else mean) @ w2)
    return float(estimand.value(mu[1], mu[0]))


@functools.cache  # one process may run many simulations of one DGP (a benchmark does)
def _truth(dgp: DgpSpec, contrast: str) -> float:
    return true_delta(dgp, EstimandSpec(contrast))


# ---------------------------------------------------------------------------
# Estimator specs and the replicated runner.


@dataclass(frozen=True)
class SimEstimator:
    """One analysis arm of a simulation: estimator kind plus its options."""

    kind: str
    label: str = ""
    estimand: str = "difference"
    covariates: tuple[str, ...] = ("x1", "x2", "stratum")
    interactions: bool = False
    link: str = "identity"
    missing_covariates: tuple[str, ...] | None = None
    outcome_learner: dml_mod.LearnerSpec | None = None
    missingness_learner: dml_mod.LearnerSpec | None = None
    folds: int = 5
    fold_mode: str = "plain"

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValidationError(f"unknown estimator kind '{self.kind}'")
        self.estimand_spec()  # raises on an unknown contrast
        if self.link not in ("identity", "logit"):
            raise ValidationError(f"unknown link '{self.link}'")
        if self.folds < 2:
            raise ValidationError("folds must be at least 2")
        if self.fold_mode not in dml_mod.FOLD_MODES:
            raise ValidationError(f"unknown fold mode '{self.fold_mode}'")
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    def estimand_spec(self) -> EstimandSpec:
        return EstimandSpec(self.estimand)


@dataclass(frozen=True)
class SimConfig:
    dgp: DgpSpec
    design: Design
    estimators: tuple[SimEstimator, ...]
    replicates: int = 1000
    master_seed: int = 0
    alpha: float = 0.05
    workers: int = 1
    keep_replicates: bool = False

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValidationError("replicates must be at least 1")
        if self.workers < 1:
            raise ValidationError(f"workers must be at least 1, got {self.workers}")
        inference._check_alpha(self.alpha)
        if not self.estimators:
            raise ValidationError("at least one estimator is required")
        if any(est.kind == "mixed" for est in self.estimators):
            raise ValidationError("estimator 'mixed' needs clusters; the simulation DGPs have none")
        for i, est in enumerate(self.estimators):
            if est.label in [other.label for other in self.estimators[:i]]:
                raise ValidationError(f"two estimators are labelled '{est.label}'")
            for name in (*est.covariates, *(est.missing_covariates or ())):
                if name not in (*DGP_COVARIATES, "stratum"):
                    raise ValidationError(
                        f"estimator '{est.label}': no covariate named '{name}' "
                        "(the simulation DGPs have x1, x2 and stratum)"
                    )
        self.design.check_columns(len(DGP_COVARIATES))


@dataclass(frozen=True)
class EstimatorReport:
    label: str
    bias: float
    ese: float | None  # None with one replicate
    ase_star: float
    cp_normal: float
    cp_true: float
    mean_r2_hat: float | None  # None without X^r
    replicates_used: int
    failures: int
    diagnostic_warnings: int
    interval_method: str  # CIResult.method of ci_true; distinct methods joined by "+"


@dataclass(frozen=True)
class SimReport:
    config_hash: str
    master_seed: int
    n: int
    replicates: int
    alpha: float
    truth: dict[str, float]  # contrast -> computed Delta*
    design: dict
    rows: tuple[EstimatorReport, ...]
    elapsed_seconds: float
    per_replicate: dict | None = None

    def to_dict(self) -> dict:
        """Canonical payload: excludes wall-clock time so that reruns with the
        same master seed are byte-identical regardless of worker count."""
        payload = {
            "schema": 2,  # truth maps each contrast to one number
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "n": self.n,
            "replicates": self.replicates,
            "alpha": self.alpha,
            "truth": self.truth,
            "design": self.design,
            "estimators": [dataclasses.asdict(row) for row in self.rows],
        }
        if self.per_replicate is not None:
            payload["per_replicate"] = self.per_replicate
        return payload

    def to_json(self) -> str:
        return canonical_json(self.to_dict(), indent=2)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def canonical_json(obj, indent: int | None = None) -> str:
    """Sorted-key JSON text of ``obj``, with numpy values as Python numbers and
    non-finite floats as "inf", "-inf" or "nan". Indented text is a file body
    and ends in a newline."""
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=indent)
    return text if indent is None else text + "\n"


def canonical_digest(obj) -> str:
    """SHA-256 hex digest of ``canonical_json(obj)``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def config_hash(config: SimConfig) -> str:
    """Hash of the statistical configuration (worker count excluded)."""
    payload = dataclasses.asdict(config)
    payload.pop("workers", None)
    payload.pop("keep_replicates", None)
    return canonical_digest(payload)


def apply_estimator(
    est: SimEstimator, frame: TrialFrame, design: Design, rep_seed: int, index: int
):
    estimand = est.estimand_spec()
    if est.kind == "unadjusted":
        return mestimators.estimate_unadjusted(frame, estimand)
    if est.kind == "ancova":
        return mestimators.estimate_ancova(
            frame, est.covariates, est.interactions, estimand
        )
    if est.kind == "glm2":
        return mestimators.estimate_gcomp_logistic(
            frame, est.covariates, True, estimand
        )
    if est.kind == "drwls":
        return mestimators.estimate_drwls(
            frame,
            est.covariates,
            est.missing_covariates or est.covariates,
            est.link,
            est.interactions,
            estimand,
        )
    if est.kind == "mixed":
        return mestimators.estimate_mixed_ancova(
            frame, est.covariates, est.interactions, estimand
        )
    outcome_learner = est.outcome_learner or dml_mod.LearnerSpec(kind="stump_ensemble")
    missingness_learner = est.missingness_learner
    if missingness_learner is None and frame.observed.min() == 0:
        missingness_learner = dml_mod.LearnerSpec(kind="glm", link="logit")
    return dml_mod.estimate_dml(
        frame,
        outcome_learner,
        missingness_learner,
        est.folds,
        est.fold_mode,
        estimand,
        derive_seed(rep_seed, "dml", index),
        design.pi,
    )


def _analysis_units(est: SimEstimator, frame: TrialFrame, design: Design):
    """Arms, the stratum grouping (stratified designs only) and X^r per analysis unit.

    Mixed-model units are clusters in label order, with their units' mean X^r
    and the arm and stratum those units must share (the estimator checks arms).
    """
    Xr = frame.covariates[:, list(design.rerand_covariates)]
    strata = frame.stratum if design.stratified else None
    if est.kind != "mixed":
        return frame.arm, strata, Xr
    clusters = frame.cluster
    arms = frame.arm[clusters.first_rows]
    Xr = clusters.sums(Xr) / clusters.counts[:, None]
    if strata is not None:
        message = "cluster '{}' spans more than one stratum"
        strata = factorize(clusters.common_values(strata.codes, message))
    return arms, strata, Xr


def _replicate(config: SimConfig, truth: dict, r: int) -> dict:
    rep_seed = derive_seed(config.master_seed, "replicate", r)
    trial = generate_trial(config.dgp, derive_seed(rep_seed, "data"))
    alloc = rerandomize(
        trial.allocation_frame, config.design, derive_seed(rep_seed, "alloc")
    )
    frame = trial.reveal(alloc.arms)
    design = config.design
    out = {}
    for idx, est in enumerate(config.estimators):
        record: dict = {"failed": False}
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DiagnosticWarning)
                result = apply_estimator(est, frame, design, rep_seed, idx)
                info = scheme_inference(est, result, frame, design, config.alpha)
                delta_star = truth[est.estimand]
                normal_ci, true_ci = info["ci_normal"], info["ci_true"]
                record.update(
                    delta=result.delta_hat,
                    v_hat=info["v_hat"],
                    r2_hat=info["r2_hat"],
                    ase=info["ase"],
                    cover_normal=normal_ci.lower <= delta_star <= normal_ci.upper,
                    cover_true=true_ci.lower <= delta_star <= true_ci.upper,
                    interval_method=true_ci.method,
                )
                record["warnings"] = sum(
                    1 for w in caught if issubclass(w.category, DiagnosticWarning)
                )
        except (RerandError, np.linalg.LinAlgError) as exc:
            record = {"failed": True, "error": f"{type(exc).__name__}: {exc}", "warnings": 0}
        out[est.label] = record
    return out


def scheme_inference(est: SimEstimator, result, frame: TrialFrame, design: Design, alpha: float) -> dict:
    """Scheme-appropriate variance, R^2, and both interval types.

    ``v_hat``, ``ase`` and ``ci_normal`` use the simple-randomization sandwich
    formula; ``ci_true`` is the design's limit law at the scheme's plug-ins, by
    ``inference.confidence_interval``. A design that does not rerandomize is
    the law at t = inf; one Mahalanobis criterion over all of X^r is its
    scalar-R^2 form, any other criterion the projection form at n V-hat(I). It
    makes two sandwich passes, ``variance_simple`` and ``scheme_plugins``;
    cross-fitted (DML) estimates pass their folds to both, the stratified one
    only stratum-arm folds.
    """
    arms, strata, Xr = _analysis_units(est, frame, design)
    ifv = result.if_values
    n_units = len(ifv)
    fold_ids = result.details["fold_plan"] if est.kind == "dml" else None
    v_simple = inference.variance_simple(ifv, fold_ids=fold_ids)
    if strata is not None and est.fold_mode != "stratum_arm":
        fold_ids = None
    v_scheme, r2, c_hat, n_var_i = inference.scheme_plugins(
        ifv, arms, design.pi, Xr if design.q else None, strata, fold_ids
    )

    t, projection = math.inf, None  # simple randomization is the law at t = inf
    if design.rerandomized:
        first, *rest = design.criterion
        exact = not rest and first.distance == "mahalanobis" and (
            sorted(first.indices) == sorted(design.rerand_covariates)
        )
        t = first.threshold if exact else design.threshold_t
        if not exact:
            projection = (c_hat, n_var_i, balance_forms(design, n_var_i))
    spec = inference.LimitSpec(V=v_scheme, R2=r2 or 0.0, q=design.q, t=t, projection=projection)
    return {
        "v_hat": v_simple,
        "r2_hat": r2,
        "ase": math.sqrt(v_simple / n_units),
        "ci_normal": inference.normal_interval(result.delta_hat, v_simple, n_units, alpha),
        "ci_true": inference.confidence_interval(result.delta_hat, spec, n_units, alpha),
    }


def _worker(args) -> tuple[int, dict]:
    config, truth, r = args
    return r, _replicate(config, truth, r)


def run_simulation(config: SimConfig) -> SimReport:
    """Run the replicated experiment and aggregate the metric table.

    Estimator failures inside a replicate are recorded and excluded; more
    than 2% failures for any estimator fails the whole run.
    """
    start = time.monotonic()
    truth = {est.estimand: _truth(config.dgp, est.estimand) for est in config.estimators}

    tasks = [(config, truth, r) for r in range(config.replicates)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = dict(pool.map(_worker, tasks, chunksize=8))
    else:
        results = dict(map(_worker, tasks))

    rows = []
    per_replicate: dict = {} if config.keep_replicates else None
    for est in config.estimators:
        records = [results[r][est.label] for r in range(config.replicates)]
        good = [rec for rec in records if not rec["failed"]]
        failures = len(records) - len(good)
        if failures > 0.02 * config.replicates:
            raise NumericError(
                f"estimator '{est.label}' failed in {failures} of "
                f"{config.replicates} replicates (> 2%)"
            )
        deltas = np.array([rec["delta"] for rec in good])
        r2s = [rec["r2_hat"] for rec in good if rec["r2_hat"] is not None]
        rows.append(
            EstimatorReport(
                label=est.label,
                bias=float(deltas.mean() - truth[est.estimand]),
                ese=float(deltas.std(ddof=1)) if len(good) >= 2 else None,
                ase_star=float(np.mean([rec["ase"] for rec in good])),
                cp_normal=float(np.mean([rec["cover_normal"] for rec in good])),
                cp_true=float(np.mean([rec["cover_true"] for rec in good])),
                mean_r2_hat=float(np.mean(r2s)) if r2s else None,
                replicates_used=len(good),
                failures=failures,
                diagnostic_warnings=int(sum(rec.get("warnings", 0) for rec in records)),
                interval_method="+".join(sorted({r["interval_method"] for r in good})),
            )
        )
        if per_replicate is not None:
            per_replicate[est.label] = {
                "delta": [rec["delta"] for rec in good],
                "v_hat": [rec["v_hat"] for rec in good],
                "r2_hat": [rec["r2_hat"] for rec in good],
            }

    design_summary = dataclasses.asdict(config.design)
    return SimReport(
        config_hash=config_hash(config),
        master_seed=config.master_seed,
        n=config.dgp.n,
        replicates=config.replicates,
        alpha=config.alpha,
        truth=truth,
        design=design_summary,
        rows=tuple(rows),
        elapsed_seconds=time.monotonic() - start,
        per_replicate=per_replicate,
    )


def report_csv_lines(report: SimReport) -> list[str]:
    """Plot-ready CSV mirror of the per-estimator metric table: one column per
    ``EstimatorReport`` field, floats as repr and None as an empty cell."""
    names = [field.name for field in dataclasses.fields(EstimatorReport)]

    def cell(value) -> str:
        return "" if value is None else repr(float(value)) if isinstance(value, float) else str(value)

    rows = (",".join(cell(getattr(row, name)) for name in names) for row in report.rows)
    return [",".join(names), *rows]

"""The benchmark's workloads, each a closed loop over public CLI commands.

Every input is made from the workload seed; the program sees only the files
written here. Each ``step`` runs one or more commands through
``rerand.cli.run_command``, times them, checks their outputs and returns a
``Step``. Work between commands (writing inputs, reading outputs, checks) is
not timed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from rerand.cli import run_command


@dataclass
class Step:
    units: int = 0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    latencies_ms: dict = field(default_factory=dict)  # command -> [ms]


def _timed(tracer, command: str, unit, argv: list[str], step: Step):
    """Run one CLI command, add its wall time to ``step``; return its outcome."""
    start = time.perf_counter()
    if tracer is None:
        outcome = run_command(argv)
    else:
        with tracer.span(f"cli.{command}", unit=unit):
            outcome = run_command(argv)
    elapsed = time.perf_counter() - start
    step.seconds += elapsed
    step.latencies_ms.setdefault(command, []).append(elapsed * 1e3)
    return outcome


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _chi2_quantile(q: int, p: float) -> float:
    """t with P(chi^2_q < t) = p."""
    return float(2.0 * gammaincinv(q / 2.0, p))


# ---------------------------------------------------------------------------
# Simulation workloads: repeated `rerand simulate` runs.

SIM_CONTINUOUS = """\
dgp.family = continuous_sec7
dgp.n = 400
dgp.missingness = false
design.pi = 0.5
design.scheme = rerandomized
design.rerand = x1,x2
design.t = 1.0
estimator = unadjusted label=Unadjusted
estimator = ancova covariates=x1,x2,stratum label=ANCOVA
replicates = {replicates}
master_seed = {master_seed}
alpha = 0.05
ci_draws = 10000
workers = 1
truth.difference = 2.0, 0.0015
"""

SIM_BINARY_DML = """\
dgp.family = binary_sec7
dgp.n = 400
dgp.missingness = true
design.pi = 0.5
design.scheme = stratified_rerandomized
design.rerand = x1,x2
design.t = 1.0
design.block_size = 2
estimator = drwls link=logit interactions=false estimand=ratio label=DR-WLS
estimator = dml estimand=ratio fold_mode=stratum-arm folds=5 learners=stump:200:0.1,glm:logit label=DML
replicates = {replicates}
master_seed = {master_seed}
alpha = 0.05
ci_draws = 10000
workers = 1
truth.ratio = 1.4809031279609284, 0.0006303535956919716
"""

# A pooled bias further than this many standard errors from the frozen truth
# is a wrong answer, not bad luck.
BIAS_SIGMAS = 8.0


class SimWorkload:
    """`rerand simulate` runs shaped like the demo configs, one per step.

    Command 0 (and the untimed warm-up) use the workload seed as master seed;
    command i > 0 uses a seed derived from (workload seed, i), so no two
    timed commands share work. The warm-up and command 0 must produce
    byte-identical reports.
    """

    unit = "replicate"

    def __init__(self, template: str, labels: tuple[str, ...], replicates: int, workdir: str, seed: int):
        self.template = template
        self.labels = labels
        self.replicates = replicates
        self.workdir = workdir
        self.seed = seed
        self.index = 0
        self.hashes: dict[int, list[str]] = {}  # master seed -> report sha256s
        self.rows: dict[str, list] = {}  # label -> (bias, ese, used) per distinct report

    def master_seed(self, i: int) -> int:
        if i == 0:
            return self.seed
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1, np.uint64)[0] >> 1)

    def _config(self, i: int) -> str:
        path = os.path.join(self.workdir, "sim.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.template.format(replicates=self.replicates, master_seed=self.master_seed(i)))
        return path

    def setup(self) -> None:
        self._config(0)

    def warmup(self) -> Step:
        return self._command(None, 0, self._config(0))

    def step(self, tracer) -> Step:
        i = self.index
        self.index += 1
        return self._command(tracer, i, self._config(i))

    def _command(self, tracer, i: int, config: str) -> Step:
        step = Step(attempted=self.replicates * len(self.labels))
        report_path = os.path.join(self.workdir, "report.json")
        outcome = _timed(tracer, "simulate", i, ["simulate", "--config", config, "--out", report_path], step)
        if outcome.exit_code != 0:
            step.failed = step.attempted
            step.errors.append(f"simulate exited with code {outcome.exit_code}")
            return step
        with open(report_path, "rb") as handle:
            payload = handle.read()
        self.hashes.setdefault(self.master_seed(i), []).append(hashlib.sha256(payload).hexdigest())
        report = json.loads(payload)
        failures, errors = check_sim_report(report, self.labels, self.replicates)
        first_of_seed = len(self.hashes[self.master_seed(i)]) == 1
        if first_of_seed and not errors:
            for row in report["estimators"]:
                self.rows.setdefault(row["label"], []).append(
                    (row["bias"], row["ese"], row["replicates_used"]))
        step.failed = failures
        step.errors.extend(errors)
        step.units = self.replicates
        return step

    def final_errors(self) -> list[str]:
        errors = pooled_bias_errors(self.rows)
        seen = self.hashes.get(self.seed, [])
        if len(set(seen)) > 1:
            errors.append(f"{len(set(seen))} distinct reports for master seed {self.seed} in one process")
        return errors

    def summary(self) -> dict:
        """SHA-256 of every report, by master seed; ``report_sha256`` holds
        the distinct ones for the workload seed."""
        return {
            "report_sha256": sorted(set(self.hashes.get(self.seed, []))),
            "report_sha256_by_master_seed": {str(k): v for k, v in self.hashes.items()},
        }


def check_sim_report(report: dict, labels, replicates: int) -> tuple[int, list[str]]:
    """Estimator-replicate failures in a SimReport payload, and what is wrong with it."""
    errors = []
    failures = 0
    if report.get("replicates") != replicates:
        errors.append(f"report has {report.get('replicates')} replicates, expected {replicates}")
    rows = {row.get("label"): row for row in report.get("estimators", [])}
    for label in labels:
        row = rows.get(label)
        if row is None:
            errors.append(f"report lacks estimator '{label}'")
            continue
        failures += row.get("failures", replicates)
        for key in ("bias", "ese", "ase_star"):
            if not _finite(row.get(key)):
                errors.append(f"{label}: {key} is {row.get(key)!r}")
        if row.get("failures", replicates) > 0.02 * replicates:
            errors.append(f"{label}: {row.get('failures')} failures exceed 2% of {replicates}")
        used = row.get("replicates_used", 0)
        if used + row.get("failures", 0) != replicates:
            errors.append(f"{label}: {used} used + {row.get('failures')} failed != {replicates}")
    return failures, errors


def pooled_bias_errors(rows_by_label: dict) -> list[str]:
    """Bias pooled over every report of a run, against its standard error.

    ``rows_by_label`` maps a label to the (bias, ese, replicates_used) of each
    report; reports use distinct master seeds, so their replicates are
    independent draws around the same truth.
    """
    errors = []
    for label, rows in rows_by_label.items():
        used = sum(n for _, _, n in rows)
        dof = sum(n - 1 for _, _, n in rows)
        if dof < 1:
            continue
        bias = sum(b * n for b, _, n in rows) / used
        se = math.sqrt(sum((n - 1) * e * e for _, e, n in rows) / dof / used)
        if abs(bias) > BIAS_SIGMAS * se:
            errors.append(f"{label}: pooled bias {bias:.4g} beyond {BIAS_SIGMAS} standard errors ({se:.3g})")
    return errors


# ---------------------------------------------------------------------------
# design-large: allocate, then analyze twice, then a planning interval.


class DesignWorkload:
    """An analyst's loop over large stratified trials.

    Each trial draws a fresh cohort (n = 10,000, 10 covariates, 20 string
    strata), runs `allocate` under stratified rerandomization on all 10
    covariates with blocks of 2, adds an outcome with a known effect, and
    runs `analyze` twice (unadjusted; ANCOVA on x0..x4 plus stratum, leaving
    x5..x9 to the limit law so that R^2 > 0). It then runs `ci` at q = 10
    and 1% acceptance with the unadjusted estimate: the interval a tighter
    design would have given.

    The allocation accepts ALLOCATE_ACCEPTANCE of proposals. At 1% a trial
    would spend a geometric number of proposals (mean 100, about 25 ms each
    at n = 10,000 when this was written) in allocation, and a run of a few
    dozen seconds would hold too few trials for its throughput to repeat
    from seed to seed; the 1% case stays in the benchmark through the `ci`
    command, whose cost does not depend on luck.
    """

    unit = "trial"
    N = 10_000
    P = 10
    STRATA = 20
    EFFECT = 0.5
    ALLOCATE_ACCEPTANCE = 0.2
    CI_ACCEPTANCE = 0.01
    # |delta_hat - EFFECT| beyond this many sandwich standard errors is wrong
    EFFECT_SIGMAS = 8.0
    ANCOVA_COVARIATES = "x0,x1,x2,x3,x4,stratum"

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.index = 0
        self.t_allocate = _chi2_quantile(self.P, self.ALLOCATE_ACCEPTANCE)
        self.t_ci = _chi2_quantile(self.P, self.CI_ACCEPTANCE)
        self.design = os.path.join(workdir, "design.cfg")
        self.cohort_csv = os.path.join(workdir, "cohort.csv")
        self.alloc_csv = os.path.join(workdir, "allocated.csv")
        self.analysis_csv = os.path.join(workdir, "analysis.csv")
        self.cohort = None
        self.attempts: list[int] = []

    def setup(self) -> None:
        names = ",".join(f"x{j}" for j in range(self.P))
        with open(self.design, "w", encoding="utf-8") as handle:
            handle.write(
                "pi = 0.5\n"
                "scheme = stratified_rerandomized\n"
                f"rerand = {names}\n"
                f"t = {self.t_allocate!r}\n"
                "block_size = 2\n"
            )
        self.cohort = self._write_cohort(0)

    def _write_cohort(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        mix = np.eye(self.P) + 0.3 * rng.standard_normal((self.P, self.P)) / math.sqrt(self.P)
        X = rng.standard_normal((self.N, self.P)) @ mix
        strata = rng.integers(0, self.STRATA, self.N)
        labels = [f"site{s:02d}" for s in range(self.STRATA)]
        rows = [
            labels[s] + "," + ",".join(map(repr, x))
            for s, x in zip(strata.tolist(), X.tolist())
        ]
        header = "stratum," + ",".join(f"x{j}" for j in range(self.P))
        with open(self.cohort_csv, "w", encoding="utf-8") as handle:
            handle.write(header + "\n" + "\n".join(rows) + "\n")
        return {"X": X, "strata": strata, "rows": rows, "header": header, "rng": rng}

    def warmup(self) -> Step:
        return self._trial(None, 0)

    def step(self, tracer) -> Step:
        self.index += 1
        self.cohort = self._write_cohort(self.index)
        return self._trial(tracer, self.index)

    def _trial(self, tracer, i: int) -> Step:
        step = Step()
        cohort = self.cohort
        rng = cohort["rng"]
        seeds = [str(int(s)) for s in rng.integers(0, 2**31, 4)]

        step.attempted += 1
        outcome = _timed(tracer, "allocate", i, [
            "allocate", "--design", self.design, "--data", self.cohort_csv,
            "--seed", seeds[0], "--out", self.alloc_csv,
        ], step)
        if outcome.exit_code != 0:
            step.failed += 1
            step.errors.append(f"allocate exited with code {outcome.exit_code}")
            return step
        arms = self._read_arms()
        with open(self.alloc_csv + ".meta.json", encoding="utf-8") as handle:
            meta = json.load(handle)
        self.attempts.append(meta["attempts"])
        step.errors.extend(self._check_allocation(cohort, arms, meta))

        beta = np.linspace(1.0, 0.2, self.P)
        shift = np.linspace(-1.0, 1.0, self.STRATA)[cohort["strata"]]
        y = self.EFFECT * arms + cohort["X"] @ beta + shift + rng.standard_normal(self.N)
        with open(self.analysis_csv, "w", encoding="utf-8") as handle:
            handle.write("outcome,arm," + cohort["header"] + "\n")
            handle.write("\n".join(
                f"{yi!r},{ai},{row}" for yi, ai, row in zip(y.tolist(), arms.tolist(), cohort["rows"])
            ) + "\n")

        results = {}
        for name, extra, seed in (
            ("unadjusted", ["--estimator", "unadjusted"], seeds[1]),
            ("ancova", ["--estimator", "ancova", "--covariates", self.ANCOVA_COVARIATES], seeds[2]),
        ):
            out = os.path.join(self.workdir, f"{name}.json")
            step.attempted += 1
            outcome = _timed(tracer, "analyze", i, [
                "analyze", "--data", self.analysis_csv, "--design", self.design,
                "--seed", seed, "--out", out, *extra,
            ], step)
            if outcome.exit_code != 0:
                step.failed += 1
                step.errors.append(f"analyze {name} exited with code {outcome.exit_code}")
                continue
            with open(out, encoding="utf-8") as handle:
                results[name] = json.load(handle)
            step.errors.extend(self._check_analysis(name, results[name]))

        if "unadjusted" in results:
            base = results["unadjusted"]
            out = os.path.join(self.workdir, "ci.json")
            step.attempted += 1
            outcome = _timed(tracer, "ci", i, [
                "ci", "--delta", repr(base["delta_hat"]), "--v", repr(base["V_hat"]),
                "--r2", repr(base["R2_hat"]), "--q", str(self.P), "--t", repr(self.t_ci),
                "--n", str(self.N), "--seed", seeds[3], "--out", out,
            ], step)
            if outcome.exit_code != 0:
                step.failed += 1
                step.errors.append(f"ci exited with code {outcome.exit_code}")
            else:
                with open(out, encoding="utf-8") as handle:
                    ci = json.load(handle)
                if not ci["lower"] < base["delta_hat"] < ci["upper"]:
                    step.errors.append(f"ci {ci['lower']}..{ci['upper']} misses delta_hat")
        if not step.failed:
            step.units = 1
        return step

    def _read_arms(self) -> np.ndarray:
        with open(self.alloc_csv, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            col = next(reader).index("arm")
            return np.array([int(row[col]) for row in reader], dtype=np.int64)

    def _check_allocation(self, cohort: dict, arms: np.ndarray, meta: dict) -> list[str]:
        """The accepted draw is balanced within blocks and its Mahalanobis
        distance, recomputed here, matches the reported one and beats t."""
        errors = []
        strata = cohort["strata"]
        if arms.shape != (self.N,):
            return [f"allocated CSV has {arms.shape[0]} rows, expected {self.N}"]
        treated = np.bincount(strata, weights=arms, minlength=self.STRATA)
        sizes = np.bincount(strata, minlength=self.STRATA)
        if np.any(np.abs(2 * treated - sizes) > 1):
            errors.append("a stratum is unbalanced beyond one block of 2")
        X = cohort["X"]
        n1 = arms.sum()
        n0 = self.N - n1
        imbalance = X[arms == 1].mean(axis=0) - X[arms == 0].mean(axis=0)
        means = np.zeros((self.STRATA, self.P))
        np.add.at(means, strata, X)
        means /= np.maximum(sizes, 1)[:, None]
        scatter = X.T @ X / self.N - (means.T * (sizes / self.N)) @ means
        vhat = self.N / (n1 * n0) * scatter
        distance = float(imbalance @ np.linalg.solve(vhat, imbalance))
        reported = meta.get("accepted_distance")
        if not _finite(reported) or not reported < self.t_allocate:
            errors.append(f"accepted distance {reported!r} not below t = {self.t_allocate}")
        elif abs(distance - reported) > 1e-6 * max(1.0, distance):
            errors.append(f"accepted distance {reported} but recomputed {distance}")
        return errors

    def _check_analysis(self, name: str, result: dict) -> list[str]:
        errors = []
        delta = result.get("delta_hat")
        v_hat = result.get("V_hat")
        if not (_finite(delta) and _finite(v_hat) and v_hat > 0):
            return [f"{name}: delta_hat {delta!r}, V_hat {v_hat!r}"]
        for key in ("ci", "ci_normal"):
            interval = result[key]
            if not interval["lower"] < delta < interval["upper"]:
                errors.append(f"{name}: {key} {interval['lower']}..{interval['upper']} misses delta_hat")
        r2 = result.get("R2_hat")
        if not (_finite(r2) and 0.0 <= r2 <= 1.0):
            errors.append(f"{name}: R2_hat {r2!r}")
        if abs(delta - self.EFFECT) > self.EFFECT_SIGMAS * math.sqrt(v_hat / self.N):
            errors.append(f"{name}: delta_hat {delta} far from the true effect {self.EFFECT}")
        return errors

    def final_errors(self) -> list[str]:
        return []

    def summary(self) -> dict:
        return {
            "allocate_acceptance_nominal": self.ALLOCATE_ACCEPTANCE,
            "allocate_t": self.t_allocate,
            "ci_acceptance_nominal": self.CI_ACCEPTANCE,
            "ci_t": self.t_ci,
            "allocate_attempts_mean": float(np.mean(self.attempts)) if self.attempts else None,
        }


def make(name: str, workdir: str, seed: int):
    if name == "sim-continuous":
        return SimWorkload(SIM_CONTINUOUS, ("Unadjusted", "ANCOVA"), 100, workdir, seed)
    if name == "sim-binary-dml":
        return SimWorkload(SIM_BINARY_DML, ("DR-WLS", "DML"), 5, workdir, seed)
    if name == "design-large":
        return DesignWorkload(workdir, seed)
    raise ValueError(f"unknown workload '{name}'")

"""Command-line front end: allocate / analyze / ci / simulate.

Every run logs its fully resolved configuration and master seed, and every
output file embeds (or is accompanied by) a hash of that configuration, so
outputs are regenerable from the log alone. Exit codes: 0 success, 2 usage
error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .data_model import (
    Design,
    DistanceSpec,
    Tier,
    load_csv,
    validate_design,
    write_csv,
)
from .dml import LearnerSpec
from .errors import DataError, NumericError, RerandError
from .inference import LimitSpec, confidence_interval
from .simlab import (
    DGP_COVARIATES,
    ESTIMATOR_KINDS,
    CustomDgp,
    DgpSpec,
    SimConfig,
    SimEstimator,
    apply_estimator,
    canonical_digest,
    canonical_json,
    config_hash,
    report_csv_lines,
    run_simulation,
    scheme_inference,
)
from ._seeds import derive_seed
from .allocation import rerandomize

log = logging.getLogger("rerand")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass
class CommandOutcome:
    exit_code: int
    files: list[str] = field(default_factory=list)
    log_records: list[dict] = field(default_factory=list)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def _all_option_strings(self) -> list[str]:
        options = list(self._option_string_actions)
        for action in self._subparsers._group_actions if self._subparsers else []:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    options.extend(sub._option_string_actions)
        return options

    def error(self, message: str) -> None:  # type: ignore[override]
        if "unrecognized arguments:" in message:
            stray = message.split("unrecognized arguments:")[1].split()
            options = self._all_option_strings()
            for token in stray:
                hits = difflib.get_close_matches(token, options, n=1)
                if hits:
                    message += f" (did you mean '{hits[0]}'?)"
                    break
        raise _UsageError(message)


_DESIGN_KEYS = (
    "pi", "scheme", "rerand", "t", "distance", "tier", "block_size", "max_attempts", "statistic",
)
_SIM_KEYS = (
    "dgp.family", "dgp.n", "dgp.missingness",
    *(f"dgp.{f.name}" for f in dataclasses.fields(CustomDgp)),
    *(f"design.{key}" for key in _DESIGN_KEYS),
    "estimator", "replicates", "master_seed", "alpha", "ci_draws", "workers",
    "truth.difference", "truth.ratio", "truth_draws", "keep_replicates",
)
_REPEATED_KEYS = ("tier", "design.tier", "estimator")


def _parse_kv_file(path: str, keys: tuple[str, ...]) -> dict:
    """Parse a `key = value` config file over the known ``keys``.

    A '#' at the start of a line or after whitespace starts a comment that
    runs to the end of the line. `tier`, `design.tier` and `estimator` repeat
    and map to lists; any other key keeps its last value. A line that is not
    `key = value`, or whose key is not in ``keys``, raises :class:`DataError`
    naming the file and line.
    """
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = _uncommented(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise DataError(f"{path}:{lineno}: unknown key '{key}'")
        if key in _REPEATED_KEYS:
            values.setdefault(key, []).append(value)
        else:
            values[key] = value
    return values


def _uncommented(line: str) -> str:
    """``line`` up to its first '#' that starts the line or follows whitespace."""
    for i, char in enumerate(line):
        if char == "#" and (i == 0 or line[i - 1].isspace()):
            return line[:i]
    return line


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise DataError(f"expected a boolean, got '{text}'")


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{name}: '{text}' must be an integer") from None


def _parse_float(text: str, name: str) -> float:
    """A float; 'inf' and 'infinity' (any case, optional sign) are accepted."""
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{name}: '{text}' must be a number") from None


def _resolve_columns(tokens: str, names: tuple[str, ...]) -> tuple[int, ...]:
    out = []
    for token in tokens.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lstrip("-").isdigit():
            out.append(_parse_int(token, "covariate column"))
        else:
            try:
                out.append(names.index(token))
            except ValueError:
                raise DataError(f"no covariate column named '{token}'") from None
    return tuple(out)


def design_from_config(cfg: dict, names: tuple[str, ...]) -> Design:
    """A design from config keys; column tokens are indices or covariate ``names``."""
    rerand = cfg.get("rerand", "")
    indices = _resolve_columns(rerand, names) if rerand else ()
    distance = DistanceSpec(kind=cfg.get("distance", "mahalanobis"))
    tiers = []
    for spec in cfg.get("tier", []):
        parts = [p.strip() for p in spec.split(":")]
        if len(parts) < 2:
            raise DataError(f"tier spec '{spec}' needs 'columns : threshold'")
        tier_idx = _resolve_columns(parts[0], names)
        kind = parts[2] if len(parts) > 2 else "mahalanobis"
        tiers.append(
            Tier(
                indices=tier_idx,
                threshold=_parse_float(parts[1], f"tier '{spec}'"),
                distance=DistanceSpec(kind=kind),
            )
        )
    return Design(
        pi=_parse_float(cfg.get("pi", "0.5"), "pi"),
        scheme=cfg.get("scheme", "simple"),
        rerand_covariates=indices,
        threshold_t=_parse_float(cfg.get("t", "inf"), "t"),
        distance=distance,
        tiers=tuple(tiers),
        block_size=_parse_int(cfg.get("block_size", "2"), "block_size"),
        max_attempts=_parse_int(cfg.get("max_attempts", "1000000"), "max_attempts"),
        stratified_statistic=cfg.get("statistic", "pooled"),
    )


def _parse_learner(token: str) -> LearnerSpec | None:
    token = token.strip()
    if token in ("", "none"):
        return None
    parts = token.split(":")
    kind = parts[0]
    name = f"learner '{token}'"
    if kind == "glm":
        return LearnerSpec(kind="glm", link=parts[1] if len(parts) > 1 else "identity")
    if kind == "knn":
        return LearnerSpec(
            kind="knn", k_neighbors=_parse_int(parts[1], name) if len(parts) > 1 else 5
        )
    if kind == "stump":
        return LearnerSpec(
            kind="stump_ensemble",
            trees=_parse_int(parts[1], name) if len(parts) > 1 else 200,
            learning_rate=_parse_float(parts[2], name) if len(parts) > 2 else 0.1,
        )
    raise DataError(f"unknown learner token '{token}'")


def _estimator_from_tokens(spec: str) -> SimEstimator:
    tokens = spec.split()
    if not tokens:
        raise DataError("empty estimator spec")
    kind = tokens[0]
    kwargs: dict = {"kind": kind}
    for token in tokens[1:]:
        if "=" not in token:
            raise DataError(f"estimator option '{token}' is not key=value")
        key, _, value = token.partition("=")
        if key == "covariates":
            kwargs["covariates"] = tuple(v for v in value.split(",") if v)
        elif key == "missing_covariates":
            kwargs["missing_covariates"] = tuple(v for v in value.split(",") if v)
        elif key == "interactions":
            kwargs["interactions"] = _parse_bool(value)
        elif key in ("estimand", "label", "link"):
            kwargs[key] = value
        elif key == "folds":
            kwargs["folds"] = _parse_int(value, "estimator option folds")
        elif key == "fold_mode":
            kwargs["fold_mode"] = value.replace("-", "_")
        elif key == "learners":
            outcome, _, miss = value.partition(",")
            kwargs["outcome_learner"] = _parse_learner(outcome)
            kwargs["missingness_learner"] = _parse_learner(miss)
        else:
            raise DataError(f"unknown estimator option '{key}'")
    return SimEstimator(**kwargs)


def sim_config_from_file(path: str) -> SimConfig:
    cfg = _parse_kv_file(path, _SIM_KEYS)

    custom = None
    custom_fields = {f.name for f in dataclasses.fields(CustomDgp)}
    custom_kwargs = {}
    for key, value in cfg.items():
        if key.startswith("dgp.") and key[4:] in custom_fields:
            name = key[4:]
            custom_kwargs[name] = (
                _parse_bool(value) if name == "binary" else _parse_float(value, key)
            )
    family = cfg.get("dgp.family", "continuous_sec7")
    if family == "custom":
        custom = CustomDgp(**custom_kwargs)
    dgp = DgpSpec(
        family=family,
        n=_parse_int(cfg.get("dgp.n", "400"), "dgp.n"),
        missingness=_parse_bool(cfg.get("dgp.missingness", "false")),
        custom=custom,
    )

    design = design_from_config(
        {k[7:]: v for k, v in cfg.items() if k.startswith("design.")}, DGP_COVARIATES
    )

    estimators = tuple(
        _estimator_from_tokens(spec) for spec in cfg.get("estimator", [])
    )
    if not estimators:
        raise DataError("config defines no estimators")

    truth = None
    for contrast in ("difference", "ratio"):
        key = f"truth.{contrast}"
        if key in cfg:
            parts = [p.strip() for p in cfg[key].split(",")]
            if len(parts) != 2:
                raise DataError(f"{key} must be 'delta_star, mcse'")
            truth = truth or {}
            truth[contrast] = (_parse_float(parts[0], key), _parse_float(parts[1], key))

    workers = _parse_int(os.environ.get("RERAND_WORKERS", cfg.get("workers", "1")), "workers")
    return SimConfig(
        dgp=dgp,
        design=design,
        estimators=estimators,
        replicates=_parse_int(cfg.get("replicates", "1000"), "replicates"),
        master_seed=_parse_int(cfg.get("master_seed", "0"), "master_seed"),
        alpha=_parse_float(cfg.get("alpha", "0.05"), "alpha"),
        ci_draws=_parse_int(cfg.get("ci_draws", "10000"), "ci_draws"),
        workers=workers,
        truth=truth,
        truth_draws=_parse_int(cfg.get("truth_draws", "10000000"), "truth_draws"),
        keep_replicates=_parse_bool(cfg.get("keep_replicates", "false")),
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="rerand", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rerand {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="assign treatment under a design")
    p_alloc.add_argument("--design", required=True, help="design config file")
    p_alloc.add_argument("--data", required=True, help="input CSV")
    p_alloc.add_argument("--seed", required=True, type=int)
    p_alloc.add_argument("--out", required=True, help="output CSV (arm appended)")

    p_an = sub.add_parser("analyze", help="estimate a treatment effect")
    p_an.add_argument("--data", required=True)
    p_an.add_argument("--estimator", required=True, choices=ESTIMATOR_KINDS)
    p_an.add_argument("--estimand", default="difference", choices=["difference", "ratio"])
    p_an.add_argument("--covariates", default=None, help="comma list; 'stratum' expands dummies")
    p_an.add_argument("--missing-covariates", dest="missing_covariates", default=None)
    p_an.add_argument("--interactions", action="store_true")
    p_an.add_argument("--link", default="identity", choices=["identity", "logit"])
    p_an.add_argument("--learners", default="stump:200:0.1,glm:logit")
    p_an.add_argument("--folds", type=int, default=5)
    p_an.add_argument("--fold-mode", dest="fold_mode", default="plain", choices=["plain", "stratum-arm"])
    p_an.add_argument("--design", default=None, help="design config for scheme-aware inference")
    p_an.add_argument("--alpha", type=float, default=0.05)
    p_an.add_argument("--draws", type=int, default=10_000, help="projection-form draws, >= 1000")
    p_an.add_argument("--seed", type=int, default=0, help="seeds DML folds and the draws")
    p_an.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p_ci = sub.add_parser("ci", help="confidence interval from the limit law")
    p_ci.add_argument("--delta", required=True, type=float)
    p_ci.add_argument("--v", required=True, type=float)
    p_ci.add_argument("--r2", required=True, type=float)
    p_ci.add_argument("--q", required=True, type=int)
    p_ci.add_argument("--t", required=True, type=float)
    p_ci.add_argument("--n", required=True, type=int)
    p_ci.add_argument("--alpha", type=float, default=0.05)
    p_ci.add_argument("--draws", type=int, default=10_000, help="ignored by quadrature")
    p_ci.add_argument("--seed", type=int, default=0, help="ignored by quadrature")
    p_ci.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="run a replicated experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="JSON report path")
    p_sim.add_argument("--csv", default=None, help="optional CSV mirror")
    return parser


def _emit(payload: dict, out_path: str | None, outcome: CommandOutcome) -> None:
    text = canonical_json(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        outcome.files.append(out_path)
    else:
        sys.stdout.write(text)


def _cmd_allocate(args, outcome: CommandOutcome) -> None:
    frame = load_csv(args.data)
    design = design_from_config(_parse_kv_file(args.design, _DESIGN_KEYS), frame.covariate_names)
    validate_design(design, frame)
    resolved = {"design": dataclasses.asdict(design), "seed": args.seed}
    resolved["data_sha256"] = _file_sha256(args.data)
    digest = canonical_digest(resolved)
    _log_record(outcome, "allocate", resolved, digest, data=args.data)
    alloc = rerandomize(frame, design, args.seed)
    write_csv(frame.with_columns(arm=alloc.arms), args.out)
    outcome.files.append(args.out)
    meta = {
        "attempts": alloc.attempts,
        "accepted_distance": alloc.accepted_distance,
        "tier_distances": alloc.tier_distances,
        "imbalance": alloc.imbalance,
        "seed": args.seed,
        "config_hash": digest,
        "design": dataclasses.asdict(design),
    }
    _emit(meta, args.out + ".meta.json", outcome)


def _cmd_analyze(args, outcome: CommandOutcome) -> None:
    frame = load_csv(args.data)
    frame.require_arms()
    covs = args.covariates
    if covs is None:
        names = list(frame.covariate_names)
        if frame.stratum is not None:
            names.append("stratum")
        covariates = tuple(names)
    else:
        covariates = tuple(v for v in covs.split(",") if v)
    outcome_l, _, miss_l = args.learners.partition(",")
    est = SimEstimator(
        kind=args.estimator,
        estimand=args.estimand,
        covariates=covariates,
        interactions=args.interactions,
        link=args.link,
        missing_covariates=tuple(v for v in (args.missing_covariates or "").split(",") if v)
        or None,
        outcome_learner=_parse_learner(outcome_l),
        missingness_learner=_parse_learner(miss_l),
        folds=args.folds,
        fold_mode=args.fold_mode.replace("-", "_"),
    )
    if args.design:
        cfg = _parse_kv_file(args.design, _DESIGN_KEYS)
        design = design_from_config(cfg, frame.covariate_names)
        validate_design(design, frame)
    else:
        design = Design(pi=0.5, scheme="simple")
    resolved = {
        "estimator": dataclasses.asdict(est),
        "design": dataclasses.asdict(design),
        "alpha": args.alpha,
        "draws": args.draws,
        "seed": args.seed,
        "data_sha256": _file_sha256(args.data),
    }
    digest = canonical_digest(resolved)
    _log_record(outcome, "analyze", resolved, digest, data=args.data)
    result = apply_estimator(est, frame, design, derive_seed(args.seed, "analyze"), 0)
    info = scheme_inference(
        est, result, frame, design, args.alpha, args.draws, derive_seed(args.seed, "ci")
    )
    payload = {
        "delta_hat": result.delta_hat,
        "V_hat": info["v_hat"],
        "R2_hat": info["r2_hat"],
        "ci": {
            "lower": info["ci_true"].lower,
            "upper": info["ci_true"].upper,
            "alpha": args.alpha,
            "v_qt": info["ci_true"].v_qt,
        },
        "ci_normal": {"lower": info["ci_normal"].lower, "upper": info["ci_normal"].upper},
        "method": {
            "estimator": est.kind,
            "estimand": est.estimand,
            "scheme": design.scheme,
            "n_units": len(result.if_values),
            "interval": info["ci_true"].method,
        },
        "config_hash": digest,
    }
    _emit(payload, args.out, outcome)


def _cmd_ci(args, outcome: CommandOutcome) -> None:
    resolved = {k: getattr(args, k) for k in ("delta", "v", "r2", "q", "t", "n", "alpha")}
    digest = canonical_digest(resolved)
    _log_record(outcome, "ci", resolved, digest)
    spec = LimitSpec(V=args.v, R2=args.r2, q=args.q, t=args.t)
    ci = confidence_interval(args.delta, spec, args.n, args.alpha, args.draws, args.seed)
    payload = {
        "lower": ci.lower,
        "upper": ci.upper,
        "v_qt": ci.v_qt,
        "method": {"draws": ci.draws, "alpha": ci.alpha, "q": args.q, "t": args.t,
                   "interval": ci.method},
        "config_hash": digest,
    }
    _emit(payload, args.out, outcome)


def _cmd_simulate(args, outcome: CommandOutcome) -> None:
    config = sim_config_from_file(args.config)
    resolved = dataclasses.asdict(config)
    digest = config_hash(config)
    _log_record(outcome, "simulate", resolved, digest)
    report = run_simulation(config)
    log.info("simulate finished in %.1fs", report.elapsed_seconds)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    outcome.files.append(args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(report_csv_lines(report)) + "\n")
        outcome.files.append(args.csv)


def _file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _log_record(
    outcome: CommandOutcome, command: str, resolved: dict, digest: str, data: str | None = None
) -> None:
    """Log the resolved config and its hash, and beside them the unhashed ``data`` path."""
    record = dict(command=command, config=resolved, config_hash=digest, version=__version__)
    if data is not None:
        record["data"] = data
    text = canonical_json(record)
    outcome.log_records.append(json.loads(text))
    log.info("resolved config: %s", text)


def run_command(argv: list[str]) -> CommandOutcome:
    """Dispatch one CLI invocation; returns its outcome instead of exiting."""
    outcome = CommandOutcome(exit_code=EXIT_OK)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "allocate": _cmd_allocate,
            "analyze": _cmd_analyze,
            "ci": _cmd_ci,
            "simulate": _cmd_simulate,
        }[args.command]
        handler(args, outcome)
    except SystemExit as exc:  # argparse --version / --help
        outcome.exit_code = int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        outcome.exit_code = EXIT_USAGE
    except (FileNotFoundError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        outcome.exit_code = EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        outcome.exit_code = EXIT_NUMERIC
    except RerandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        outcome.exit_code = EXIT_NUMERIC
    return outcome


def main() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    sys.exit(run_command(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()

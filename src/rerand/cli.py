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
import functools
import hashlib
import logging
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .data_model import CsvRecords, Design, Tier, load_csv, validate_design
from .dml import LearnerSpec
from .errors import DataError, NumericError, ValidationError
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
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise DataError(f"{path}:{lineno}: unknown key '{key}'")
        if key in ("tier", "design.tier", "estimator"):
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


# Parsers: (text, name) -> value; ``name`` (the key) goes into the error message.


def _text(text: str, name: str) -> str:
    return text


def _parse_bool(text: str, name: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise DataError(f"{name}: expected a boolean, got '{text}'")


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


def _names(text: str, name: str) -> tuple[str, ...]:
    return tuple(v for v in text.split(",") if v)


def _record(cls, table: dict, values: dict, **fields):
    """A ``cls`` from the keys of ``values`` that ``table`` maps to (field, parser).

    A key's parser gives its field's value (a tuple of fields takes a tuple of
    values); a field no key sets comes from ``fields``, else keeps the default
    of ``cls``, whose own checks then run.
    """
    for key, (field, parse) in table.items():
        if key in values:
            value = parse(values[key], key)
            fields.update(zip(field, value) if isinstance(field, tuple) else [(field, value)])
    return cls(**fields)


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


def _tier(spec: str, names: tuple[str, ...]) -> Tier:
    parts = [p.strip() for p in spec.split(":")]
    if not 2 <= len(parts) <= 3:
        raise DataError(f"tier spec '{spec}' needs 'columns : threshold [: distance]'")
    columns, threshold, *distance = parts  # no distance: Tier's default
    threshold = _parse_float(threshold, f"tier '{spec}'")
    return Tier(_resolve_columns(columns, names), threshold, *distance)


def _design_fields(names: tuple[str, ...]) -> dict:
    """Design-file key -> (Design field, parser); columns are indices or covariate ``names``."""
    return {
        "pi": ("pi", _parse_float),
        "scheme": ("scheme", _text),
        "rerand": ("rerand_covariates", lambda text, key: _resolve_columns(text, names)),
        "t": ("threshold_t", _parse_float),
        "distance": ("distance", _text),
        "tier": ("tiers", lambda specs, key: tuple(_tier(spec, names) for spec in specs)),
        "block_size": ("block_size", _parse_int),
        "max_attempts": ("max_attempts", _parse_int),
        "statistic": ("stratified_statistic", _text),
    }


_DESIGN_KEYS = tuple(_design_fields(()))


def design_from_config(cfg: dict, names: tuple[str, ...]) -> Design:
    """A design from design-file keys; column tokens are indices or covariate ``names``."""
    return _record(Design, _design_fields(names), cfg)


_LEARNERS = {  # token kind -> (LearnerSpec kind, its fields in token order)
    "glm": ("glm", (("link", _text),)),
    "knn": ("knn", (("k_neighbors", _parse_int),)),
    "stump": ("stump_ensemble", (("trees", _parse_int), ("learning_rate", _parse_float))),
}


def _parse_learner(token: str) -> LearnerSpec | None:
    """``kind[:value...]`` (or 'none'); values fill the kind's fields in order."""
    token = token.strip()
    if token in ("", "none"):
        return None
    kind, *values = token.split(":")
    if kind not in _LEARNERS:
        raise DataError(f"unknown learner token '{token}'")
    spec_kind, fields = _LEARNERS[kind]
    name = f"learner '{token}'"
    parsed = {field: parse(value, name) for (field, parse), value in zip(fields, values)}
    return LearnerSpec(kind=spec_kind, **parsed)


_ESTIMATOR_FIELDS = {  # option -> (SimEstimator field, parser); also analyze's flags
    "label": ("label", _text),
    "estimand": ("estimand", _text),
    "covariates": ("covariates", _names),
    "missing_covariates": ("missing_covariates", _names),
    "interactions": ("interactions", _parse_bool),
    "link": ("link", _text),
    "folds": ("folds", _parse_int),
    "fold_mode": ("fold_mode", lambda text, key: text.replace("-", "_")),
    "learners": (  # outcome,missingness
        ("outcome_learner", "missingness_learner"),
        lambda text, key: tuple(map(_parse_learner, text.split(",", 1))),
    ),
}


def _estimator(kind: str, options: dict, **fields) -> SimEstimator:
    """The ``kind`` estimator from ``options`` (option -> text); a field no option sets
    comes from ``fields``, else keeps its default."""
    for key in options:
        if key not in _ESTIMATOR_FIELDS:
            raise DataError(f"unknown estimator option '{key}'")
    return _record(SimEstimator, _ESTIMATOR_FIELDS, options, kind=kind, **fields)


def _estimator_line(spec: str) -> SimEstimator:
    """An `estimator = kind key=value ...` line."""
    tokens = spec.split()
    if not tokens:
        raise DataError("empty estimator spec")
    for token in tokens[1:]:
        if "=" not in token:
            raise DataError(f"estimator option '{token}' is not key=value")
    return _estimator(tokens[0], dict(token.split("=", 1) for token in tokens[1:]))


_DGP_FIELDS = {
    "dgp.family": ("family", _text),
    "dgp.n": ("n", _parse_int),
    "dgp.missingness": ("missingness", _parse_bool),
}
_CUSTOM_FIELDS = {
    f"dgp.{f.name}": (f.name, _parse_bool if f.name == "binary" else _parse_float)
    for f in dataclasses.fields(CustomDgp)
}
_SIM_FIELDS = {
    "estimator": ("estimators", lambda specs, key: tuple(map(_estimator_line, specs))),
    "replicates": ("replicates", _parse_int),
    "master_seed": ("master_seed", _parse_int),
    "alpha": ("alpha", _parse_float),
    "workers": ("workers", _parse_int),
    "keep_replicates": ("keep_replicates", _parse_bool),
}
_SIM_KEYS = (
    *_DGP_FIELDS, *_CUSTOM_FIELDS, *(f"design.{key}" for key in _DESIGN_KEYS), *_SIM_FIELDS,
    "truth.difference", "truth.ratio", "ci_draws",  # ignored: no truth or interval is drawn
)


def sim_config_from_file(path: str) -> SimConfig:
    """A simulation config from a `simulate` file; RERAND_WORKERS overrides `workers`."""
    cfg = _parse_kv_file(path, _SIM_KEYS)
    if "RERAND_WORKERS" in os.environ:
        cfg["workers"] = os.environ["RERAND_WORKERS"]
    custom = _record(CustomDgp, _CUSTOM_FIELDS, cfg)  # its keys parse under any family
    custom = custom if cfg.get("dgp.family") == "custom" else None
    dgp = _record(DgpSpec, _DGP_FIELDS, cfg, custom=custom)
    design = design_from_config(
        {k[7:]: v for k, v in cfg.items() if k.startswith("design.")}, DGP_COVARIATES
    )
    return _record(SimConfig, _SIM_FIELDS, cfg, dgp=dgp, design=design, estimators=())


@functools.cache  # parsing leaves a parser as it was: one serves every run_command
def _build_parser() -> _Parser:
    parser = _Parser(prog="rerand", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rerand {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="assign treatment under a design")
    p_alloc.add_argument("--design", required=True, help="design config file")
    p_alloc.add_argument("--data", required=True, help="input CSV")
    p_alloc.add_argument("--seed", required=True, type=int)
    p_alloc.add_argument("--out", required=True, help="output CSV: the input's records with arm")

    p_an = sub.add_parser("analyze", help="estimate a treatment effect")
    p_an.add_argument("--data", required=True)
    # each estimator flag left unset keeps the SimEstimator field's default
    p_an.add_argument("--estimator", required=True, choices=ESTIMATOR_KINDS)
    p_an.add_argument("--estimand", help="difference or ratio")
    p_an.add_argument(
        "--covariates", help="comma list; 'stratum' expands dummies (default: every covariate)"
    )
    p_an.add_argument("--missing-covariates", dest="missing_covariates")
    p_an.add_argument("--interactions", action="store_const", const="true")
    p_an.add_argument("--link", help="identity or logit")
    p_an.add_argument("--learners", default="stump:200:0.1,glm:logit")  # hashed as resolved
    p_an.add_argument("--folds")
    p_an.add_argument("--fold-mode", dest="fold_mode", help="plain or stratum-arm")
    p_an.add_argument("--design", default=None, help="design config for scheme-aware inference")
    p_an.add_argument("--alpha", type=float, default=0.05)
    p_an.add_argument("--seed", type=int, default=0, help="seeds DML folds")
    p_an.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p_ci = sub.add_parser("ci", help="confidence interval from the limit law")
    p_ci.add_argument("--delta", required=True, type=float)
    p_ci.add_argument("--v", required=True, type=float)
    p_ci.add_argument("--r2", required=True, type=float)
    p_ci.add_argument("--q", required=True, type=int)
    p_ci.add_argument("--t", required=True, type=float)
    p_ci.add_argument("--n", required=True, type=int)
    p_ci.add_argument("--alpha", type=float, default=0.05)
    p_ci.add_argument("--seed", type=int, default=0, help="ignored: the interval is deterministic")
    p_ci.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="run a replicated experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="JSON report path")
    p_sim.add_argument("--csv", default=None, help="optional CSV mirror")
    return parser


def _emit(payload: dict, out_path: str | None) -> None:
    text = canonical_json(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_allocate(args) -> None:
    data_hash, records = hashlib.sha256(), CsvRecords()
    frame = load_csv(args.data, data_hash, records)
    cfg = _parse_kv_file(args.design, _DESIGN_KEYS)
    design = validate_design(design_from_config(cfg, frame.covariate_names), frame)
    resolved = {"design": dataclasses.asdict(design), "seed": args.seed}
    resolved["data_sha256"] = data_hash.hexdigest()
    digest = canonical_digest(resolved)
    _log_record("allocate", resolved, digest, data=args.data)
    alloc = rerandomize(frame, design, args.seed)
    records.write_with_arm(alloc.arms, args.out)
    meta = {
        "attempts": alloc.attempts,
        "accepted_distance": alloc.accepted_distance,
        "tier_distances": alloc.tier_distances,
        "imbalance": alloc.imbalance,
        "seed": args.seed,
        "config_hash": digest,
        "design": dataclasses.asdict(design),
    }
    _emit(meta, args.out + ".meta.json")


def _cmd_analyze(args) -> None:
    data_hash = hashlib.sha256()
    frame = load_csv(args.data, data_hash)
    frame.require_arms()
    options = {k: v for k, v in vars(args).items() if k in _ESTIMATOR_FIELDS and v is not None}
    stratum = ("stratum",) if frame.stratum is not None else ()
    est = _estimator(args.estimator, options, covariates=frame.covariate_names + stratum)
    cfg = _parse_kv_file(args.design, _DESIGN_KEYS) if args.design else {}
    design = validate_design(design_from_config(cfg, frame.covariate_names), frame)
    resolved = {
        "estimator": dataclasses.asdict(est),
        "design": dataclasses.asdict(design),
        "alpha": args.alpha,
        "seed": args.seed,
        "data_sha256": data_hash.hexdigest(),
    }
    digest = canonical_digest(resolved)
    _log_record("analyze", resolved, digest, data=args.data)
    result = apply_estimator(est, frame, design, derive_seed(args.seed, "analyze"), 0)
    info = scheme_inference(est, result, frame, design, args.alpha)
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
    _emit(payload, args.out)


def _cmd_ci(args) -> None:
    resolved = {k: getattr(args, k) for k in ("delta", "v", "r2", "q", "t", "n", "alpha")}
    digest = canonical_digest(resolved)
    _log_record("ci", resolved, digest)
    if math.isnan(args.delta):
        raise ValidationError("delta must be a number, not NaN")
    if math.isinf(args.delta):
        raise ValidationError("delta must be finite")
    spec = LimitSpec(V=args.v, R2=args.r2, q=args.q, t=args.t)
    ci = confidence_interval(args.delta, spec, args.n, args.alpha)
    payload = {
        "lower": ci.lower,
        "upper": ci.upper,
        "v_qt": ci.v_qt,
        "method": {"alpha": ci.alpha, "q": args.q, "t": args.t, "interval": ci.method},
        "config_hash": digest,
    }
    _emit(payload, args.out)


def _cmd_simulate(args) -> None:
    config = sim_config_from_file(args.config)
    resolved = dataclasses.asdict(config)
    digest = config_hash(config)
    _log_record("simulate", resolved, digest)
    report = run_simulation(config)
    log.info("simulate finished in %.1fs", report.elapsed_seconds)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(report_csv_lines(report)) + "\n")


def _log_record(command: str, resolved: dict, digest: str, data: str | None = None) -> None:
    """Log the resolved config and its hash, and beside them the unhashed ``data`` path."""
    record = dict(command=command, config=resolved, config_hash=digest, version=__version__)
    if data is not None:
        record["data"] = data
    log.info("resolved config: %s", canonical_json(record))


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
        handler(args)
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
    return outcome


def main() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    sys.exit(run_command(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()

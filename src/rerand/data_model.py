"""Shared data currency: trial datasets, designs, estimands, and result records.

A :class:`TrialFrame` holds one two-arm experiment's per-unit records as dense
column-major arrays. Frames are immutable after construction and safe to share
across workers. CSV ingestion follows the reserved column names documented in
:func:`load_csv`.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DataError, ParseError, ValidationError

RESERVED_COLUMNS = ("outcome", "observed", "arm", "stratum", "cluster")

SCHEMES = ("simple", "stratified", "rerandomized", "stratified_rerandomized")

# Balance-distance rules: Mahalanobis, or ``general``, whose weight is the
# diagonal of the componentwise sample variances of the imbalance statistic.
DISTANCES = ("mahalanobis", "general")


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself if it is a read-only array that owns its data, else a read-only copy."""
    if isinstance(arr, np.ndarray) and not arr.flags.writeable and arr.flags.owndata:
        return arr
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


def _first_fault(columns: dict, names: tuple = (), faults: list | tuple = ()) -> tuple | None:
    """(row index, column, error) of the earliest-row fault among ``faults`` (such as parse
    errors) and the cells of ``columns``, or None. Within a row the order is outcome (±inf),
    observed (outside {0,1}, or disagreeing with its outcome cell), arm (outside {0,1}),
    the (n, p) ``covariates`` named ``names`` (non-finite), then stratum and cluster
    (blank); on one cell ``faults`` come first. A role not in ``columns`` is not checked."""
    found = list(faults)

    def first(role: str, bad, head: str, tail: str = "") -> None:
        rows = np.flatnonzero(bad)
        if rows.size:
            found.append((rows[0], role, ValidationError(f"{head}{rows[0] + 1}{tail}")))

    if "outcome" in columns:
        first("outcome", np.isinf(columns["outcome"]), "non-finite outcome at row ")
    for role in ("observed", "arm"):
        if role in columns:
            first(role, ~np.isin(columns[role], (0, 1)), role + " value not in {0,1} at row ")
    if "observed" in columns:
        first("observed", columns["observed"] != ~np.isnan(columns["outcome"]),
              "observed indicator disagrees with outcome cell at row ")
    if "covariates" in columns and not np.isfinite(columns["covariates"]).all():
        for name, values in zip(names, columns["covariates"].T):
            first(name, ~np.isfinite(values), "non-finite covariate at row ", f", column '{name}'")
    for role in ("stratum", "cluster"):
        cells = columns.get(role, ())
        if not all(map(str.strip, set(cells))):
            first(role, [not cell.strip() for cell in cells], f"empty {role} label at row ")
    order = ("outcome", "observed", "arm", *names, "stratum", "cluster")
    return min(found, key=lambda fault: (fault[0], order.index(fault[1])), default=None)


@dataclass(frozen=True, eq=False)
class Grouping:
    """Units partitioned by label: the one rule for strata, clusters and folds.

    ``labels`` are the distinct labels in sorted order, ``codes`` each unit's
    index into them and ``counts`` the group sizes (derived from ``codes``), so
    group-wise sums run in label order whatever the hash seed; ``members`` lists
    rows in ascending order and ``first_rows`` each group's first row. All arrays
    are read-only. Labels that are not 1-d and strictly increasing, and codes that
    are not 1-d integers in ``range(labels.size)``, raise :class:`ValidationError`.
    """

    labels: np.ndarray
    codes: np.ndarray
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        labels, codes = _readonly(self.labels), _readonly(self.codes)
        if labels.ndim != 1 or not np.all(labels[1:] > labels[:-1]):
            raise ValidationError("grouping labels must be a 1-d, strictly increasing array")
        if codes.ndim != 1 or codes.dtype.kind not in "iu" or not np.can_cast(codes.dtype, np.intp):
            raise ValidationError("grouping codes must be a 1-d integer array")
        if codes.size and not 0 <= codes.min() <= codes.max() < labels.size:
            raise ValidationError(f"grouping code outside range({labels.size})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "counts", _readonly(np.bincount(codes, minlength=labels.size)))

    @cached_property
    def members(self) -> list[np.ndarray]:
        rows = _readonly(np.argsort(self.codes, kind="stable"))
        return np.split(rows, np.cumsum(self.counts)[:-1])

    @cached_property
    def first_rows(self) -> np.ndarray:
        return _readonly([rows[0] for rows in self.members])

    def sums(self, values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        return group_sums(self.codes, values, self.labels.size, weights)

    def centered(self, values: np.ndarray) -> np.ndarray:
        """(n, p) values minus the mean of each unit's group."""
        return values - (self.sums(values) / self.counts[:, None])[self.codes]

    def common_values(self, values: np.ndarray, message: str) -> np.ndarray:
        """The one value each group's units share; a group holding two raises
        :class:`ValidationError` with ``message.format(label)`` (first in label order)."""
        values = np.asarray(values)
        first = values[self.first_rows]
        mixed = self.codes[values != first[self.codes]]
        if mixed.size:
            raise ValidationError(message.format(self.labels[mixed.min()]))
        return first


def factorize(values: np.ndarray) -> Grouping:
    """Group units by label; labels are compared with Python's ``<`` and ``==``."""
    values = np.asarray(values)
    items = values.ravel().tolist()
    distinct = set(items)
    levels = sorted(distinct)
    code_of = {level: code for code, level in enumerate(levels)}
    codes = np.fromiter(map(code_of.__getitem__, items), dtype=np.intp, count=len(items))
    labels = np.array(levels, dtype=values.dtype)
    labels.setflags(write=False)  # read-only arrays that own their data are kept, not copied
    codes.setflags(write=False)
    return Grouping(labels, codes)


def group_sums(
    codes: np.ndarray, values: np.ndarray, size: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per-group sums of an (n,) array or (n, p) columns, each added in row order; with
    per-row ``weights``, of each column times them, formed one column at a time."""
    if values.ndim == 1:
        return np.bincount(codes, values if weights is None else values * weights, minlength=size)
    sums = np.empty((size, values.shape[1]))
    for j, column in enumerate(values.T):  # one column at a time: no (n, p) index array
        weighted = column if weights is None else column * weights
        sums[:, j] = np.bincount(codes, weighted, minlength=size)
    return sums


@dataclass(frozen=True)
class TrialFrame:
    """Immutable per-unit trial data.

    Parameters
    ----------
    covariates : (n, p) float array, all entries finite.
    covariate_names : p column labels.
    outcome : optional (n,) float array with NaN for missing outcomes, none ±inf.
    arm : optional (n,) 0/1 array; absent for pre-allocation frames.
    stratum : optional (n,) labels; all units have one or none do.
    cluster : optional (n,) identifiers partitioning units into clusters.

    A column of the wrong length raises first, then the earliest row's bad value: within
    a row the outcome, the arm, then covariates in column order. ``observed`` is derived
    from ``outcome``. ``stratum`` and ``cluster`` are held as their :class:`Grouping`
    (None when absent): labels are grouped once, here, by their ``str`` (so ``"10"``
    sorts before ``"2"``), and a ``Grouping`` given is kept. ``dataclasses.replace(frame,
    arm=...)`` re-runs every check but shares the groupings and read-only arrays.
    """

    covariates: np.ndarray
    covariate_names: tuple[str, ...]
    outcome: np.ndarray | None = None
    arm: np.ndarray | None = None
    stratum: Grouping | None = None
    cluster: Grouping | None = None

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim != 2:
            raise ValidationError("covariates must be a 2-d array")
        n, p = cov.shape
        names = tuple(self.covariate_names)
        if len(names) != p:
            raise ValidationError(f"{len(names)} covariate names for {p} columns")
        columns = {"covariates": cov}
        for name, dtype in (("outcome", float), ("arm", None)):
            if getattr(self, name) is not None:
                columns[name] = np.asarray(getattr(self, name), dtype=dtype)
                if columns[name].shape != (n,):
                    raise ValidationError(f"{name} length does not match covariates")
        for name in ("stratum", "cluster"):
            groups = getattr(self, name)
            if groups is not None and not isinstance(groups, Grouping):
                groups = factorize(np.array([str(v) for v in groups], dtype=object))
                object.__setattr__(self, name, groups)
            if groups is not None and groups.codes.shape != (n,):
                raise ValidationError(f"{name} length does not match covariates")
        fault = _first_fault(columns, names)
        if fault:
            raise fault[2]
        if "arm" in columns:
            columns["arm"] = columns["arm"].astype(np.int8, copy=False)
        for name, values in columns.items():
            object.__setattr__(self, name, _readonly(values))
        object.__setattr__(self, "covariate_names", names)

    @cached_property
    def observed(self) -> np.ndarray | None:
        """(n,) read-only int8 response indicator, 1 where the outcome is not NaN; None
        without an outcome."""
        if self.outcome is None:
            return None
        return _readonly((~np.isnan(self.outcome)).astype(np.int8))

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.covariate_names.index(name)
        except ValueError:
            raise ValidationError(f"no covariate named '{name}'") from None
        return self.covariates[:, j]

    def require_arms(self) -> np.ndarray:
        if self.arm is None:
            raise ValidationError("frame has no treatment assignment")
        return self.arm

    def require_outcomes(self) -> np.ndarray:
        if self.outcome is None or not np.any(self.observed == 1):
            raise ValidationError("frame has no observed outcomes")
        return self.outcome


@dataclass(frozen=True)
class Tier:
    """One tier of the balance criterion: covariate indices, threshold, and
    distance rule (one of ``DISTANCES``)."""

    indices: tuple[int, ...]
    threshold: float
    distance: str = "mahalanobis"


@dataclass(frozen=True)
class Design:
    """Randomization scheme specification.

    ``rerand_covariates`` indexes into the frame's covariate columns and
    defines X^r (dimension q), which a rerandomized scheme needs; the balance
    criterion is ``tiers`` (over columns of X^r) or, without them,
    ``threshold_t`` and ``distance`` (one of ``DISTANCES``); a tiered design
    takes neither a finite ``threshold_t`` nor a ``general`` distance.
    ``block_size`` only matters for stratified schemes, where it is at least 2
    and pi * block_size is integral. Every check that needs no frame runs
    here; :func:`validate_design` runs the rest.
    """

    pi: float = 0.5
    scheme: str = "simple"
    rerand_covariates: tuple[int, ...] = ()
    threshold_t: float = math.inf
    distance: str = "mahalanobis"
    tiers: tuple[Tier, ...] = ()
    block_size: int = 2
    max_attempts: int = 1_000_000
    stratified_statistic: str = "pooled"

    def __post_init__(self) -> None:
        for distance in (self.distance, *(tier.distance for tier in self.tiers)):
            if distance not in DISTANCES:
                raise ValidationError(f"unknown distance kind '{distance}'")
        if not 0.0 < self.pi < 1.0:
            raise ValidationError("pi must lie in (0, 1)")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme '{self.scheme}'")
        if not all(tier.threshold > 0 for tier in self.criterion):  # NaN fails too
            raise ValidationError("balance thresholds must be positive")
        if self.tiers and not math.isinf(self.threshold_t):
            raise ValidationError("a tiered design takes its thresholds from its tiers, not t")
        if self.tiers and self.distance != "mahalanobis":
            raise ValidationError(
                "a tiered design takes its distances from its tiers, not distance"
            )
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be at least 1")
        if self.stratified_statistic not in ("pooled", "stratum_weighted"):
            raise ValidationError(
                f"unknown stratified statistic '{self.stratified_statistic}'"
            )
        object.__setattr__(
            self, "rerand_covariates", tuple(int(j) for j in self.rerand_covariates)
        )
        object.__setattr__(self, "tiers", tuple(self.tiers))
        if self.rerandomized and not self.rerand_covariates:
            raise ValidationError("rerandomized scheme requires at least one X^r column")
        if self.stratified and self.block_size < 2:
            raise ValidationError("block size must be at least 2")
        if self.stratified and abs(math.remainder(self.pi * self.block_size, 1.0)) > 1e-9:
            raise ValidationError(f"pi*k not integer: pi={self.pi}, k={self.block_size}")
        for tier in self.tiers:
            if not set(tier.indices) <= set(self.rerand_covariates):
                raise ValidationError("tier indices must be a subset of rerand_covariates")

    def check_columns(self, n_covariates: int) -> None:
        """Raise unless each X^r index names one of ``n_covariates`` covariate columns."""
        for j in self.rerand_covariates:
            if not 0 <= j < n_covariates:
                raise ValidationError(f"rerandomization covariate index {j} out of range")

    @property
    def rerandomized(self) -> bool:
        return self.scheme in ("rerandomized", "stratified_rerandomized")

    @property
    def stratified(self) -> bool:
        return self.scheme in ("stratified", "stratified_rerandomized")

    @property
    def q(self) -> int:
        return len(self.rerand_covariates)

    @property
    def criterion(self) -> tuple[Tier, ...]:
        """The tiers a proposal must all pass; without tiers, one over all of X^r."""
        return self.tiers or (Tier(self.rerand_covariates, self.threshold_t, self.distance),)


def validate_design(design: Design, frame: TrialFrame) -> Design:
    """Check a design against a frame (its X^r columns exist, and strata if the scheme is
    stratified); returns the design unchanged if valid."""
    design.check_columns(frame.n_covariates)
    if design.stratified and frame.stratum is None:
        raise ValidationError(f"scheme '{design.scheme}' requires strata")
    return design


@dataclass(frozen=True)
class EstimandSpec:
    """Scale of the treatment effect: difference or ratio of arm means."""

    contrast: str = "difference"

    def __post_init__(self) -> None:
        if self.contrast not in ("difference", "ratio"):
            raise ValidationError(f"unknown contrast '{self.contrast}'")

    def value(self, mu1: float, mu0: float) -> float:
        if self.contrast == "difference":
            return mu1 - mu0
        if mu0 == 0:
            raise ValidationError("ratio estimand undefined: control mean is 0")
        return mu1 / mu0

    def gradient(self, mu1: float, mu0: float) -> tuple[float, float]:
        """(f1', f0'): partial derivatives at (mu1, mu0)."""
        if self.contrast == "difference":
            return 1.0, -1.0
        if mu0 == 0:
            raise ValidationError("ratio estimand undefined: control mean is 0")
        return 1.0 / mu0, -mu1 / mu0**2


@dataclass(frozen=True)
class SolverDiag:
    iterations: int
    residual_norm: float


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with per-unit influence values and solver diagnostics.

    ``if_values`` has one entry per analysis unit (clusters for the
    mixed-model estimator) and averages to zero up to solver tolerance.
    """

    delta_hat: float
    mu_hat: tuple[float, float] | None
    theta_hat: np.ndarray
    if_values: np.ndarray
    solver_diag: SolverDiag
    details: dict = field(default_factory=dict)


def _blank_is_nan(cell: str) -> float:
    """An outcome cell: blank means missing (NaN), anything else goes to ``float``."""
    return float(cell) if cell.strip() else math.nan


def _record_lines(handle, count: list[int]):
    """``handle``'s lines, counted in ``count[0]``. A blank line (numpy skips it, csv
    reads an empty row) or one over ``csv.field_size_limit()`` raises ValueError."""
    limit = csv.field_size_limit()
    for count[0], line in enumerate(handle, start=1):
        if len(line) > limit or line in ("\n", "\r\n", "\r"):
            raise ValueError("text for the cell-by-cell parse")
        yield line


def _c_columns(handle, start: int, header: list[str]) -> tuple[int, dict, list] | None:
    """The rows from ``start`` in one ``np.loadtxt`` pass: labels str, all else float64,
    the outcome through ``_blank_is_nan`` if a pass without it fails, as
    ``_cell_by_cell`` returns them (with no faults). None if numpy or ``_record_lines``
    rejects the text or a record spans lines (where a field could pass csv's size limit
    unseen)."""
    dtype = [(f"f{j}", object if name in ("stratum", "cluster") else float)
             for j, name in enumerate(header)]
    outcome = {header.index("outcome"): _blank_is_nan} if "outcome" in header else None
    for converters in (None, outcome) if outcome else (None,):
        handle.seek(start)
        lines = [0]
        try:
            table = np.loadtxt(_record_lines(handle, lines), dtype=dtype, delimiter=",",
                               comments=None, quotechar='"', converters=converters, ndmin=1)
        except ValueError:
            continue
        if len(table) != lines[0]:
            return None
        return len(table), {name: table[f"f{j}"] for j, name in enumerate(header)}, []
    return None


def _cell_by_cell(reader, header: list[str]) -> tuple[int, dict, list]:
    """The rows of csv ``reader`` parsed cell by cell by ``float``: the row count, the
    columns, and a (row index, column, ParseError) fault for each numeric column with a
    bad cell, whose values from there on are 0, unparsed (a fault they show in
    ``_first_fault`` ranks after it). A bad row width or an oversized field raises at once."""
    rows: list[list[str]] = []
    try:
        for cells in reader:
            rows.append(cells)
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise ParseError(f"row {len(rows) + 1}: {exc}") from None
    for i, cells in enumerate(rows, start=1):
        if len(cells) != len(header):
            raise ParseError(f"row {i} has {len(cells)} cells, expected {len(header)}")
    columns = dict(zip(header, zip(*rows) if rows else [()] * len(header)))
    faults = []
    for name in [name for name in header if name not in ("stratum", "cluster")]:
        parse = _blank_is_nan if name == "outcome" else float
        values = np.zeros(len(rows))
        for i, cell in enumerate(columns[name]):
            try:
                values[i] = parse(cell)
            except ValueError:
                message = f"malformed numeric cell '{cell}' at row {i + 1}, column '{name}'"
                faults.append((i, name, ParseError(message)))
                break
        columns[name] = values
    return len(rows), columns, faults


def _open_text(path, hasher) -> io.TextIOWrapper:
    """The UTF-8 file at ``path`` from one read, less a leading byte-order mark, lines
    decoded as they are read; ``hasher`` (if given) is updated with the file's bytes."""
    with open(path, "rb") as file:
        data = file.read()
    if hasher is not None:
        hasher.update(data)
    pos, step = 0, 1 << 16  # checked a step at a time: no copy of the whole text
    while pos < len(data):
        try:
            pos += codecs.utf_8_decode(data[pos : pos + step], "strict", pos + step >= len(data))[1]
        except UnicodeDecodeError as exc:
            message = f"{path}: not UTF-8 text ({exc.reason} at byte {pos + exc.start})"
            raise DataError(message) from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def load_csv(path, hasher=None) -> TrialFrame:
    """Load a trial CSV into a :class:`TrialFrame`.

    The header row is required. Columns named ``outcome``, ``observed``,
    ``arm``, ``stratum``, ``cluster`` (all optional) play their reserved
    roles; every other column is a covariate. Numbers are parsed by numpy's C
    reader in one pass; text it rejects or would read otherwise than ``csv`` (``1_000``,
    a blank line) is parsed again by ``float`` cell by cell, which gives the frame or
    names the first bad cell. Empty outcome cells mean missing. The frame derives
    ``observed`` from the outcome, so an ``observed`` column needs an ``outcome`` column
    (checked with the header) and must agree with it. A row of the wrong width or an
    oversized field is named next. Of the cell faults (a malformed number, a ±inf
    outcome, an observed or arm value outside {0,1}, an observed value that disagrees
    with its outcome cell, a non-finite covariate, a blank stratum or cluster label) the
    earliest row's is named, and within a row the outcome, observed and arm cells come
    first, then covariates, then labels. Text that is not UTF-8 raises
    :class:`DataError` (naming the bad byte's offset in the file), a field over
    ``csv.field_size_limit()`` :class:`ParseError`. A ``hasher`` (such as
    ``hashlib.sha256()``) is updated with the bytes of the file as read. Memory: the
    file's bytes plus the parsed columns; no copy of the whole text.
    """
    with _open_text(path, hasher) as handle:  # closing frees the bytes before the frame is built
        reader = csv.reader(iter(handle.readline, ""))  # not next(handle), which stops tell()
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"header row: {exc}") from None
        if header is None:
            raise DataError(f"{path}: empty file")
        duplicates = [name for i, name in enumerate(header) if name in header[:i]]
        if duplicates:
            raise DataError(f"duplicate column name '{duplicates[0]}'")
        if "observed" in header and "outcome" not in header:
            raise ValidationError("observed given without outcome column")

        start = handle.tell()  # no rows go cell by cell: numpy would warn of no data
        parsed = _c_columns(handle, start, header) if header and handle.read(1) else None
        if parsed is None:
            handle.seek(start)
            parsed = _cell_by_cell(reader, header)
    n, columns, faults = parsed
    covariate_names = tuple(name for name in header if name not in RESERVED_COLUMNS)
    covariates = np.empty((n, len(covariate_names)))
    for j, name in enumerate(covariate_names):
        covariates[:, j] = columns[name]
    cells = {role: columns[role] for role in RESERVED_COLUMNS if role in columns}
    if faults or _first_fault(cells):  # a valid file's covariates are checked once, by the frame
        raise _first_fault({**cells, "covariates": covariates}, covariate_names, faults)[2]
    groups = {role: factorize(np.asarray(columns[role], dtype=object))  # cells are str already
              for role in ("stratum", "cluster") if role in columns}
    return TrialFrame(covariates, covariate_names, outcome=columns.get("outcome"),
                      arm=columns.get("arm"), **groups)


_WRITE_BLOCK_CELLS = 8192  # cells per write, so the transient text stays bounded in rows and columns


def _number_fields(values: np.ndarray, rows: slice) -> list[str]:
    """Integers below 1e16 without a point, NaN (a missing outcome) blank, others by repr."""
    values = values[rows]
    floats = values.tolist()
    fields = list(map(repr, floats))
    special = np.isnan(values) | ((values == np.trunc(values)) & (np.abs(values) < 1e16))
    for i in np.flatnonzero(special).tolist():
        fields[i] = "" if math.isnan(floats[i]) else str(int(floats[i]))
    return fields


def _label_fields(groups: Grouping):
    """Each distinct label quoted once as csv.writer quotes it, then expanded by code."""
    buffer, ends = io.StringIO(), [0]
    writer = csv.writer(buffer)
    for label in groups.labels.tolist():
        writer.writerow((label, ""))  # a second field: csv writes a lone "" as '""'
        ends.append(buffer.tell())
    text = buffer.getvalue()
    quoted = np.array([text[a : b - 3] for a, b in zip(ends, ends[1:])], dtype=object)
    return lambda rows: quoted[groups.codes[rows]].tolist()


def write_csv(frame: TrialFrame, path) -> None:
    """Write a frame in the canonical reserved-name CSV layout.

    Numbers are written at full round-trip precision and labels quoted by csv's
    rules, with CRLF line ends, so write -> load -> write is byte-stable. Rows
    are formatted in blocks of at most ``_WRITE_BLOCK_CELLS`` cells (at least
    one row), so the text held at once does not grow with the rows or columns.
    """
    integers = lambda values: lambda rows: list(map(str, values[rows].tolist()))
    columns: list = []  # (name, row slice -> that slice's CSV fields)
    if frame.outcome is not None:
        columns.append(("outcome", partial(_number_fields, frame.outcome)))
        columns.append(("observed", integers(frame.observed)))
    if frame.arm is not None:
        columns.append(("arm", integers(frame.arm)))
    for name, groups in (("stratum", frame.stratum), ("cluster", frame.cluster)):
        if groups is not None:
            columns.append((name, _label_fields(groups)))
    for name, values in zip(frame.covariate_names, frame.covariates.T):
        columns.append((name, partial(_number_fields, values)))

    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow([name for name, _ in columns])
        block_rows = max(1, _WRITE_BLOCK_CELLS // max(1, len(columns)))
        for start in range(0, frame.n_units, block_rows):
            rows = slice(start, min(start + block_rows, frame.n_units))
            fields = [column(rows) for _, column in columns]
            if len(fields) == 1:  # csv writes a row whose only field is empty as ""
                fields[0] = [field or '""' for field in fields[0]]
            lines = map(",".join, zip(*fields)) if fields else [""] * (rows.stop - start)
            handle.write("\r\n".join(lines) + "\r\n")

import codecs
import csv
import hashlib
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from typing import Callable, Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rerand import (
    Design,
    EstimandSpec,
    Tier,
    TrialFrame,
    load_csv,
    validate_design,
    write_csv,
)
from rerand import data_model
from rerand.data_model import _WRITE_BLOCK_ROWS, RESERVED_COLUMNS
from rerand.errors import DataError, ParseError, ValidationError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_empty_outcome_cell_means_missing(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_lines(
            path,
            [
                "outcome,arm,x1",
                "1.5,1,0.1",
                ",0,0.2",
                "2.5,1,0.3",
                "3.5,0,0.4",
            ],
        )
        frame = load_csv(path)
        assert frame.observed.sum() == 3
        assert np.isnan(frame.outcome[1])

    def test_bad_arm_value_cites_row(self, tmp_path):
        path = tmp_path / "trial.csv"
        rows = [f"{i}.0,1,0.0" for i in range(1, 10)]
        rows[6] = "7.0,2,0.0"  # data row 7
        write_lines(path, ["outcome,arm,x1"] + rows)
        with pytest.raises(ValidationError, match="row 7"):
            load_csv(path)

    def test_malformed_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_lines(path, ["outcome,arm,x1", "1.0,1,0.1", "2.0,0,oops"])
        with pytest.raises(ParseError, match="row 2.*x1"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("outcome,arm,x\n1,0,abc\nxyz,1,2\n", ParseError,
             "malformed numeric cell 'abc' at row 1, column 'x'"),
            ("outcome,arm,x\n1,5,2\nxyz,1,2\n", ValidationError, "arm value not in {0,1} at row 1"),
            ("outcome,arm,stratum,x\n1,0,,2\n1,7,a,2\n", ValidationError,
             "empty stratum label at row 1"),
        ],
        ids=["bad_covariate_above_bad_outcome", "bad_arm_above_bad_outcome",
             "empty_label_above_bad_arm"],
    )
    def test_first_fault_is_the_earliest_rows(self, tmp_path, text, error, message):
        path = tmp_path / "trial.csv"
        path.write_text(text)
        with pytest.raises(error) as raised:
            load_csv(path)
        assert str(raised.value) == message

    def test_round_trip_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(5)
        frame = TrialFrame(
            covariates=rng.normal(size=(20, 3)),
            covariate_names=("a", "b", "c"),
            outcome=np.where(rng.random(20) < 0.8, rng.normal(size=20), np.nan),
            arm=(rng.random(20) < 0.5).astype(int),
            stratum=np.array(["s1", "s2"] * 10),
        )
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_csv(frame, first)
        reloaded = load_csv(first)
        write_csv(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(frame.covariates, reloaded.covariates)
        np.testing.assert_array_equal(frame.observed, reloaded.observed)
        obs = frame.observed == 1
        np.testing.assert_array_equal(frame.outcome[obs], reloaded.outcome[obs])

    def test_observed_column_must_agree_with_outcome(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_lines(path, ["outcome,observed,arm,x1", "1.0,1,1,0.1", ",1,0,0.2"])
        with pytest.raises(ValidationError, match="disagrees"):
            load_csv(path)

    def test_arm_column_optional_for_preallocation_data(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_lines(path, ["x1,stratum", "0.5,a", "0.25,b"])
        frame = load_csv(path)
        assert frame.arm is None
        with pytest.raises(ValidationError):
            frame.require_arms()

    def test_duplicate_column_names_rejected(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_lines(path, ["x1,x1", "0.5,1.0"])
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_utf8_bom_is_not_part_of_the_first_name(self, tmp_path):
        text = "outcome,arm,stratum,x1\r\n1.5,1,a,0.5\r\n,0,b,0.25\r\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        frame = load_csv(bom)
        assert_same_frame(frame, load_csv(plain))
        assert frame.covariate_names == ("x1",)
        np.testing.assert_array_equal(frame.observed, [1, 0])

    def test_text_that_is_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("stratum,x1\ncaf\xe9,0.5\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv: not UTF-8"):
            load_csv(path)

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
    def test_offset_of_bytes_that_are_not_utf8_counts_from_the_start(self, tmp_path, bom):
        # the fault sits past the first 64 KiB of the file, behind a two-byte
        # character that spans bytes 65535-65536, with and without a BOM
        head = bom + b"stratum,x1\n" + b"a,0.5\n" * 10_000
        head += b"a" * (65535 - len(head)) + "\u00e9,0.5\n".encode()
        path = tmp_path / "late.csv"
        path.write_bytes(head)
        assert load_csv(path).n_units == 10_001
        path.write_bytes(head + b"caf\xe9,0.5\n")
        with pytest.raises(DataError, match=f"invalid continuation byte at byte {len(head) + 3}\\)"):
            load_csv(path)

    def test_peak_memory_is_bounded_by_the_file_size(self, tmp_path):
        # 10,000 rows x 13 columns of ASCII: the file's bytes and the parsed columns,
        # where a 4-byte-per-character copy of the text peaked at about 5.6 times the file
        rng = np.random.default_rng(60)
        n, names = 10_000, [f"x{j}" for j in range(10)]
        path = tmp_path / "large.csv"
        write_csv(
            TrialFrame(
                covariates=rng.normal(size=(n, 10)), covariate_names=tuple(names),
                outcome=rng.normal(size=n), arm=np.arange(n) % 2,
                stratum=np.array([f"s{k}" for k in rng.integers(0, 20, size=n)]),
            ),
            path,
        )
        load_csv(path)  # first-call imports and caches stay out of the count
        tracemalloc.start()
        try:
            load_csv(path, hashlib.sha256())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.stat().st_size

    @pytest.mark.parametrize("kind", ["long_label", "long_number", "two_line_label"])
    def test_field_over_csv_limit_names_its_row(self, tmp_path, kind):
        limit = csv.field_size_limit()
        half = "a" * (limit // 2 + 1)
        row = {
            "long_label": f"0,{'a' * (limit + 1)},1",
            "long_number": f"0,a,{'0' * (limit + 1)}",  # float reads it as 0.0
            "two_line_label": f'0,"{half}\n{half}",1',  # each line is under the limit
        }[kind]
        path = tmp_path / "trial.csv"
        path.write_text(f"arm,stratum,x1\n1,a,0\n{row}\n")
        with pytest.raises(ParseError, match="^row 2: field larger than field limit"):
            load_csv(path)
        assert csv.field_size_limit() == limit

    def test_field_at_csv_limit_loads(self, tmp_path):
        path = tmp_path / "trial.csv"
        label = "a" * csv.field_size_limit()
        path.write_text(f"arm,stratum,x1\n1,{label},0\n0,b,{'0' * len(label)}\n")
        frame = load_csv(path)
        assert frame.stratum.tolist() == [label, "b"]
        assert frame.covariates.tolist() == [[0.0], [0.0]]

    def test_header_name_over_csv_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("arm," + "x" * (csv.field_size_limit() + 1) + "\n1,0\n")
        with pytest.raises(ParseError, match="^header row: field larger than field limit"):
            load_csv(path)

    def test_writer_output_takes_the_c_reader(self, tmp_path, monkeypatch):
        frame = TrialFrame(
            covariates=np.array([[0.5, -1e-300], [2.0, 3.0], [-0.0, 1e16]]),
            covariate_names=("x,1", 'say "x"'),
            outcome=np.array([1.5, np.nan, -2.0]),
            arm=np.array([1, 0, 1]),
            stratum=["a,b", 'say "hi"', "a,b"],
            cluster=["c1", "c2", "#3"],
        )
        path = tmp_path / "trial.csv"
        write_csv(frame, path)
        monkeypatch.setattr(data_model, "_cell_by_cell", lambda *args: pytest.fail("cell by cell"))
        assert_same_frame(load_csv(path), _reference_load_csv(path))


class TestTrialFrame:
    def test_arrays_are_immutable(self, four_row_frame):
        with pytest.raises(ValueError):
            four_row_frame.covariates[0, 0] = 9.0

    def test_observed_outside_zero_one_names_its_row(self):
        with pytest.raises(ValidationError, match="observed value not in .* at row 3"):
            TrialFrame(
                covariates=np.zeros((4, 1)),
                covariate_names=("x",),
                outcome=np.array([1.0, 2.0, 3.0, np.nan]),
                observed=np.array([1, 1, 2, 0]),
            )

    def test_non_finite_covariate_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            TrialFrame(
                covariates=np.array([[np.inf]]), covariate_names=("x",)
            )

    def test_groupings_carry_over_to_a_frame_with_new_columns(self):
        frame = TrialFrame(
            covariates=np.zeros((4, 1)),
            covariate_names=("x",),
            stratum=["b", "a", "b", "a"],
            cluster=["c1", "c1", "c2", "c2"],
        )
        assert "stratum_groups" not in frame.with_columns(arm=[1, 0, 1, 0]).__dict__
        strata, clusters = frame.stratum_groups, frame.cluster_groups
        assigned = frame.with_columns(arm=[1, 0, 1, 0])
        assert assigned.stratum_groups is strata
        assert assigned.cluster_groups is clusters
        relabeled = frame.with_columns(stratum=["a", "a", "b", "b"])
        assert relabeled.cluster_groups is clusters
        assert relabeled.stratum_groups.codes.tolist() == [0, 0, 1, 1]


class TestValidateDesign:
    def frame(self, strata=True):
        return TrialFrame(
            covariates=np.arange(8.0).reshape(4, 2),
            covariate_names=("x1", "x2"),
            stratum=np.array(["a", "a", "b", "b"]) if strata else None,
        )

    def test_half_pi_block_two_is_ok(self):
        design = Design(pi=0.5, scheme="stratified", block_size=2)
        assert validate_design(design, self.frame()) is design

    def test_non_integer_pi_k_rejected(self):
        design = Design(pi=0.25, scheme="stratified", block_size=2)
        with pytest.raises(ValidationError, match="not integer"):
            validate_design(design, self.frame())

    def test_stratified_rerandomized_requires_strata(self):
        design = Design(
            pi=0.5,
            scheme="stratified_rerandomized",
            rerand_covariates=(0,),
            threshold_t=1.0,
        )
        with pytest.raises(ValidationError, match="strata"):
            validate_design(design, self.frame(strata=False))

    def test_rerandomized_requires_covariates(self):
        design = Design(pi=0.5, scheme="rerandomized", threshold_t=1.0)
        with pytest.raises(ValidationError, match="X\\^r"):
            validate_design(design, self.frame())

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
    def test_nonpositive_or_nan_thresholds_are_rejected(self, threshold):
        common = dict(pi=0.5, scheme="rerandomized", rerand_covariates=(0, 1))
        with pytest.raises(ValidationError, match="balance thresholds must be positive"):
            Design(threshold_t=threshold, **common)
        with pytest.raises(ValidationError, match="balance thresholds must be positive"):
            Design(tiers=(Tier((0,), 1.0), Tier((1,), threshold)), **common)


class TestEstimandSpec:
    def test_difference_gradient(self):
        assert EstimandSpec("difference").gradient(3.0, 2.0) == (1.0, -1.0)

    def test_ratio_gradient(self):
        f1, f0 = EstimandSpec("ratio").gradient(4.0, 2.0)
        assert f1 == pytest.approx(0.5)
        assert f0 == pytest.approx(-1.0)

    def test_ratio_rejects_zero_control_mean(self):
        with pytest.raises(ValidationError):
            EstimandSpec("ratio").value(1.0, 0.0)


# Valid CSV texts: each loads to the same frame under both readers, and that
# frame writes to the same bytes under both writers.
VALID_CSV = {
    "empty_and_nan_outcomes": "outcome,arm,x1\n,1,0.5\nnan,0,0.25\n1.5,1,0\n-nan,0,1\n",
    "negative_zero": "outcome,arm,x1\n-0.0,1,-0.0\n0.0,0,0\n",
    "large_integral_floats": (
        "outcome,arm,x1,x2\n"
        "9999999999999998,1,1e16,-1e16\n"
        "1e16,0,12345678901234567890,1.0000000000000002e16\n"
    ),
    "subnormal_and_huge": "outcome,arm,x1\n5e-324,1,1e308\n-1e308,0,2.2250738585072014e-308\n",
    "whitespace_and_underscores": "outcome,arm,x1\n 1.5 ,1, 2\n1_000,0,1e-3\n",
    "quoted_labels": (
        "outcome,arm,stratum,cluster,x1\n"
        '1,1,"a,b","say ""hi""",0.5\n'
        '2,0,"line\nbreak",c 1,0.25\n'
    ),
    "numeric_looking_labels": "arm,stratum,x1\n1,10,0.5\n0,2,0.25\n1,10,1\n0,2,2\n",
    "zero_rows": "outcome,arm,stratum,x1\n",
    "no_covariates": "outcome,arm\n1,0\n2,1\n",
    "explicit_observed": "outcome,observed,arm,x1\n1.5,1,1,0\n,0,0,1\n2.5,1.0,1,2\n",
    "arm_as_float": "outcome,arm,x1\n1,1.0,0\n2,0.0,1\n",
    "crlf_line_ends": "outcome,arm,stratum,x1\r\n1.5,1,a,0.5\r\n,0,b,0.25\r\n",
    "bare_cr_line_ends": "outcome,arm,stratum,x1\r1.5,1,a,0.5\r,0,b,0.25\r",
    "quoted_newline_in_header": 'outcome,arm,"x\n1","y\r\n2"\n1,1,0.5,1\n2,0,0.25,2\n',
    "hash_in_label": "arm,stratum,x1\n1,#a,0.5\n0,b # c,0.25\n",
    "quoted_numeric_cells": 'outcome,arm,x1\n"1.5",1,"0.5"\n"",0,-1\n2," 1 "," 3"\n',
    "header_only_no_final_newline": "outcome,arm,stratum,x1",
}

# Malformed CSV texts: both readers raise the same class, naming the same row
# (and, for a ParseError, the same column).
MALFORMED_CSV = {
    "bad_outcome": "outcome,arm,x1\n1,1,0\nabc,0,1\nx,1,0\n",
    "bad_observed": "outcome,observed,arm,x1\n1,1,1,0\n2,yes,0,1\n",
    "bad_arm": "outcome,arm,x1\n1,1,0\n2,one,1\n3,0,2\n",
    "bad_covariate": "outcome,arm,x1,x2\n1,1,0,0\n2,0,1,1.2.3\n3,1,2e,?\n",
    "row_width": "outcome,arm,x1\n1,1,0\n2,0\n",
    "duplicate_header": "x1,x2,x1\n1,2,3\n",
    "empty_file": "",
    "arm_two": "outcome,arm,x1\n1,1,0\n2,0,1\n3,2,2\n",
    "observed_two": "outcome,observed,arm,x1\n1,1,1,0\n2,2,0,1\n",
    "empty_stratum": "arm,stratum,x1\n1,a,0\n0, ,1\n",
    "empty_cluster": "arm,cluster,x1\n1,c1,0\n0,,1\n",
    "blank_line_mid_file": "outcome,arm,x1\n1,1,0\n\n2,0,1\n",
    "blank_line_at_end": "outcome,arm,x1\n1,1,0\n2,0,1\n\n",
    "blank_crlf_line_after_header": "outcome,arm,x1\r\n\r\n1,1,0\r\n",
    "ragged_row_after_multiline_label": 'arm,stratum,x1\n1,"a\nb",0\n0,c,1,2\n',
    "observed_outside_zero_one_above_a_bad_cell": "outcome,observed\n0,1e3\n0,\n",
    "arm_outside_zero_one_above_a_bad_cell": "arm,x1\n1,0\n-1,0\nx,0\n",
    "observed_outside_zero_one_before_a_bad_arm": "outcome,observed,arm\n1,2,1\n1,1,x\n",
    "empty_label_above_a_bad_covariate": "arm,stratum,x1\n1,,0\n0,a,abc\n",
    "empty_label_above_an_arm_outside_zero_one": "arm,stratum,x1\n1,,0\n2,a,1\n",
}


_TEXT_ALPHABET = "0123456789.eE+-_ ,\"\n\r#a\u00e9"
# 0 and 1 twice, so that arm and observed columns often hold valid values
_CELLS = st.sampled_from(
    ["0", "1", "0", "1", "1.0", "-0.0", "1e3", " 2 ", "1_0", "", '"1"', '""', "a"]
)
_NAMES = st.lists(
    st.sampled_from(RESERVED_COLUMNS + ("x1", "x2")), min_size=1, max_size=4, unique=True
)


@st.composite
def _csv_texts(draw) -> str:
    """Text over ``_TEXT_ALPHABET``: arbitrary, or a header of column names over rows
    of cells (some arbitrary), most with the header's width, split by any line end."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(alphabet=_TEXT_ALPHABET, max_size=40))
    names = draw(_NAMES)
    cells = st.one_of(_CELLS, _CELLS, _CELLS, st.text(alphabet=_TEXT_ALPHABET, max_size=3))
    width = st.sampled_from([len(names)] * 8 + [len(names) - 1, len(names) + 1])
    row = width.flatmap(lambda k: st.lists(cells, min_size=k, max_size=k))
    rows = draw(st.lists(row, max_size=4))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [",".join(cells) + draw(ends) for cells in [names, *rows]]
    tail = draw(st.sampled_from(["", "", "", "\n"]))  # "\n" after a line end: a blank line
    return "".join(lines) + tail


def _large_frame() -> TrialFrame:
    """More rows than two write blocks, ending in a partial block."""
    n = 2 * _WRITE_BLOCK_ROWS + 3
    rng = np.random.default_rng(10)
    return TrialFrame(
        covariates=np.column_stack([rng.normal(size=n), rng.integers(-5, 5, n)]),
        covariate_names=("x", "count"),
        outcome=np.where(rng.random(n) < 0.9, rng.normal(size=n), np.nan),
        arm=rng.integers(0, 2, n),
        stratum=[f"s{i % 7}" for i in range(n)],
        cluster=[f"c,{i % 301}" for i in range(n)],
    )


_BOUNDARY_FLOATS = [
    1e16 - 2, -(1e16 - 2), 1e16, -1e16, -0.0, 5e-324, 2.0**53 + 2, 0.5, 1e308,
]
_AWKWARD_LABELS = ["a,b", 'say "hi"', "cr\rx", "lf\nx", "a,\r\nb", '"', ",", "plain", " pad "]

# Frames beyond the reach of the hypothesis panel; each is written to the same
# bytes by the column-wise writer and the row-wise oracle.
WRITER_FRAMES = {
    "several_blocks": _large_frame,
    "lone_empty_stratum": lambda: TrialFrame(
        covariates=np.zeros((4, 0)), covariate_names=(), stratum=["", "a", "", '""']
    ),
    "lone_empty_cluster": lambda: TrialFrame(
        covariates=np.zeros((2, 0)), covariate_names=(), cluster=["", ""]
    ),
    "empty_label_beside_others": lambda: TrialFrame(
        covariates=np.zeros((2, 1)), covariate_names=("x",), stratum=["", "b"]
    ),
    "no_columns": lambda: TrialFrame(covariates=np.zeros((3, 0)), covariate_names=()),
    "integer_boundaries": lambda: TrialFrame(
        covariates=np.array([_BOUNDARY_FLOATS, _BOUNDARY_FLOATS[::-1]]).T,
        covariate_names=("x", "y"),
        outcome=np.array(_BOUNDARY_FLOATS),
        arm=np.arange(len(_BOUNDARY_FLOATS)) % 2,
    ),
    "awkward_labels": lambda: TrialFrame(
        covariates=np.arange(len(_AWKWARD_LABELS), dtype=float)[:, None] / 4,
        covariate_names=("x,1",),
        stratum=_AWKWARD_LABELS,
        cluster=_AWKWARD_LABELS[::-1],
    ),
    "unobserved_outcomes": lambda: TrialFrame(
        covariates=np.ones((4, 1)),
        covariate_names=("x",),
        outcome=np.array([np.nan, 2.5, np.nan, -0.0]),
        arm=np.array([0, 1, 1, 0]),
    ),
    "only_unobserved_outcomes": lambda: TrialFrame(
        covariates=np.zeros((2, 0)), covariate_names=(), outcome=np.array([np.nan, np.nan])
    ),
}


def assert_same_frame(a: TrialFrame, b: TrialFrame) -> None:
    """Equal arrays down to dtype, memory layout, NaN payload and the sign of zero."""
    assert a.covariate_names == b.covariate_names
    for name in ("covariates", "outcome", "observed", "arm", "stratum", "cluster"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        assert (x.dtype, x.shape, x.strides) == (y.dtype, y.shape, y.strides), name
        if x.dtype == object:
            assert x.tolist() == y.tolist(), name
        else:
            assert x.tobytes() == y.tobytes(), name


def _error_site(exc: Exception) -> tuple:
    row = re.search(r"row (\d+)", str(exc))
    column = re.search(r"column '([^']*)'", str(exc))
    return (
        type(exc),
        row and row.group(1),
        column.group(1) if column and isinstance(exc, ParseError) else None,
    )


def _load_strict(load, path: Path) -> TrialFrame:
    """``load(path)`` with every warning an error, so that none (such as numpy's
    "input contained no data") escapes the loader."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load(path)


def _load_or_error(load, path: Path) -> TrialFrame | DataError:
    try:
        return _load_strict(load, path)
    except DataError as exc:
        return exc


def _write_bytes(writer, frame: TrialFrame, path: Path) -> bytes:
    writer(frame, path)
    return path.read_bytes()


class TestCsvMatchesRowWiseOracle:
    @pytest.mark.parametrize("name", sorted(VALID_CSV))
    def test_valid_panel(self, name, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(VALID_CSV[name], encoding="utf-8", newline="")
        frame = _load_strict(load_csv, path)
        assert_same_frame(frame, _reference_load_csv(path))
        written = _write_bytes(write_csv, frame, tmp_path / "new.csv")
        assert written == _write_bytes(_reference_write_csv, frame, tmp_path / "old.csv")
        reloaded = _load_strict(load_csv, tmp_path / "new.csv")
        assert _write_bytes(write_csv, reloaded, tmp_path / "again.csv") == written

    @pytest.mark.parametrize("name", sorted(WRITER_FRAMES))
    def test_writer_panel(self, name, tmp_path):
        frame = WRITER_FRAMES[name]()
        written = _write_bytes(write_csv, frame, tmp_path / "new.csv")
        assert written == _write_bytes(_reference_write_csv, frame, tmp_path / "old.csv")

    @pytest.mark.parametrize("name", sorted(MALFORMED_CSV))
    def test_malformed_panel(self, name, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(MALFORMED_CSV[name], encoding="utf-8", newline="")
        with pytest.raises(DataError) as expected:
            _reference_load_csv(path)
        with pytest.raises(DataError) as actual:
            _load_strict(load_csv, path)
        assert _error_site(actual.value) == _error_site(expected.value)

    @given(text=_csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_matches_oracle(self, text):
        """The loader gives the frame or the error (class and message) of its
        cell-by-cell parse alone, and the row-wise oracle's frame or the class,
        row and (for a ParseError) column of its error."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "in.csv")
            path.write_text(text, encoding="utf-8", newline="")
            loaded = _load_or_error(load_csv, path)
            with mock.patch.object(data_model, "_c_columns", return_value=None):
                cell_by_cell = _load_or_error(load_csv, path)
            expected = _load_or_error(_reference_load_csv, path)
        assert isinstance(loaded, TrialFrame) == isinstance(cell_by_cell, TrialFrame)
        assert isinstance(loaded, TrialFrame) == isinstance(expected, TrialFrame)
        if isinstance(loaded, TrialFrame):
            assert_same_frame(loaded, cell_by_cell)
            assert_same_frame(loaded, expected)
        else:
            assert (type(loaded), str(loaded)) == (type(cell_by_cell), str(cell_by_cell))
            assert _error_site(loaded) == _error_site(expected)

    def test_numeric_labels_stay_strings(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(VALID_CSV["numeric_looking_labels"], encoding="utf-8")
        frame = load_csv(path)
        assert frame.stratum.tolist() == ["10", "2", "10", "2"]
        assert frame.stratum_groups.labels.tolist() == ["10", "2"]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_matches_oracle(self, data):
        frame = data.draw(_frames())
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
            written = _write_bytes(write_csv, frame, new)
            assert written == _write_bytes(_reference_write_csv, frame, old)
            loaded = load_csv(new)
            assert_same_frame(loaded, _reference_load_csv(new))
            assert _write_bytes(write_csv, loaded, old) == written


_LABEL_TEXT = st.text(alphabet="ab1 ,\"\n\r\u00e9", min_size=1, max_size=4).filter(str.strip)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e16, -1e16, 9999999999999998.0, 1e308, 2.0**53 + 2]
)


@st.composite
def _frames(draw) -> TrialFrame:
    n = draw(st.integers(0, 6))
    names = draw(
        st.lists(
            st.text(alphabet="xy1 ,\"\n", min_size=1, max_size=3).filter(
                lambda name: name not in RESERVED_COLUMNS
            ),
            max_size=3,
            unique=True,
        )
    )
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
    covariates = np.array(
        [column(_FLOATS) for _ in names], dtype=float
    ).reshape(len(names), n).T
    outcome = None
    if draw(st.booleans()):
        outcome = np.array(column(_FLOATS | st.just(np.nan)), dtype=float)
    arm = np.array(column(st.sampled_from([0, 1]))) if draw(st.booleans()) else None
    stratum = column(_LABEL_TEXT) if draw(st.booleans()) else None
    cluster = column(_LABEL_TEXT) if draw(st.booleans()) else None
    return TrialFrame(
        covariates=covariates,
        covariate_names=tuple(names),
        outcome=outcome,
        arm=arm,
        stratum=stratum,
        cluster=cluster,
    )


# ---------------------------------------------------------------------------
# Oracles: the row-wise CSV reader and writer that the column-wise ones
# replaced, kept verbatim, except that the reader checks its cells one row at a
# time, so that the earliest row's fault is the one it names. The column-wise
# code must give the same bytes, the same frames and, on malformed input, the
# same exception class, row and column.


def _reference_parse_float(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"malformed numeric cell '{text}' at row {row}, column '{col}'"
        ) from None
    return value


def _reference_load_csv(path, schema: Mapping[str, str] | None = None) -> TrialFrame:
    """Load a trial CSV into a :class:`TrialFrame`.

    The header row is required. Columns named ``outcome``, ``observed``,
    ``arm``, ``stratum``, ``cluster`` (all optional) play their reserved
    roles; every other column is a covariate. ``schema`` may remap reserved
    roles to differently-named columns, e.g. ``{"outcome": "y"}``. Empty
    outcome cells mean missing (observed = 0); when an explicit ``observed``
    column is also present the two encodings must agree.
    """
    schema = dict(schema or {})
    role_of: dict[str, str] = {}
    for role in RESERVED_COLUMNS:
        role_of[schema.get(role, role)] = role

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        data_rows = list(reader)

    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DataError(f"duplicate column name '{name}'")
        seen.add(name)
    for role, column in schema.items():
        if column not in header:
            raise DataError(f"schema maps '{role}' to missing column '{column}'")

    roles = [role_of.get(name) for name in header]
    covariate_names = [name for name, role in zip(header, roles) if role is None]
    columns: dict[str, list] = {name: [] for name in header}
    for i, cells in enumerate(data_rows, start=1):
        if len(cells) != len(header):
            raise ParseError(f"row {i} has {len(cells)} cells, expected {len(header)}")
        for name, cell in zip(header, cells):
            columns[name].append(cell)

    n = len(data_rows)

    def reserved(role: str) -> list[str] | None:
        for name, r in zip(header, roles):
            if r == role:
                return columns[name]
        return None

    outcome_cells = reserved("outcome")
    observed_cells = reserved("observed")
    arm_cells = reserved("arm")
    outcome = None if outcome_cells is None else np.empty(n)
    observed = None if observed_cells is None else np.empty(n, dtype=np.int8)
    arm = None if arm_cells is None else np.empty(n, dtype=np.int8)
    covariates = np.empty((n, len(covariate_names)))
    # row by row; within a row outcome, observed, arm, covariates, then labels
    for i in range(n):
        if outcome_cells is not None:
            cell = outcome_cells[i]
            outcome[i] = (
                np.nan if cell.strip() == "" else _reference_parse_float(cell, i + 1, "outcome")
            )
        for role, cells, values in (("observed", observed_cells, observed), ("arm", arm_cells, arm)):
            if cells is not None:
                value = _reference_parse_float(cells[i], i + 1, role)
                if value not in (0.0, 1.0):
                    raise ValidationError(f"{role} value {cells[i]} not in {{0,1}} at row {i + 1}")
                values[i] = int(value)
        for j, name in enumerate(covariate_names):
            covariates[i, j] = _reference_parse_float(columns[name][i], i + 1, name)
        for role in ("stratum", "cluster"):
            cells = reserved(role)
            if cells is not None and cells[i].strip() == "":
                raise ValidationError(f"empty {role} label at row {i + 1}")

    def labels(role: str) -> np.ndarray | None:
        cells = reserved(role)
        return None if cells is None else np.array(cells, dtype=object)

    return TrialFrame(
        covariates=covariates,
        covariate_names=tuple(covariate_names),
        outcome=outcome,
        observed=observed,
        arm=arm,
        stratum=labels("stratum"),
        cluster=labels("cluster"),
    )


def _reference_format_float(x: float) -> str:
    # repr gives the shortest string that round-trips at full precision
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _reference_write_csv(frame: TrialFrame, path) -> None:
    """Write a frame in the canonical reserved-name CSV layout.

    Numeric fields are written at full round-trip precision, so
    write -> load -> write is byte-stable.
    """
    header: list[str] = []
    getters: list[Callable[[int], str]] = []
    if frame.outcome is not None:
        header += ["outcome", "observed"]
        getters.append(
            lambda i: "" if frame.observed[i] == 0 else _reference_format_float(frame.outcome[i])
        )
        getters.append(lambda i: str(int(frame.observed[i])))
    if frame.arm is not None:
        header.append("arm")
        getters.append(lambda i: str(int(frame.arm[i])))
    if frame.stratum is not None:
        header.append("stratum")
        getters.append(lambda i: str(frame.stratum[i]))
    if frame.cluster is not None:
        header.append("cluster")
        getters.append(lambda i: str(frame.cluster[i]))
    for j, name in enumerate(frame.covariate_names):
        header.append(name)
        getters.append(lambda i, j=j: _reference_format_float(frame.covariates[i, j]))

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(frame.n_units):
            writer.writerow([get(i) for get in getters])

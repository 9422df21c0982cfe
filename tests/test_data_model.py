import codecs
import csv
import hashlib
import io
import math
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from itertools import chain
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
)
from rerand import data_model
from rerand.data_model import _ECHO_BLOCK_BYTES, RESERVED_COLUMNS, CsvRecords, factorize
from rerand.errors import DataError, ParseError, ValidationError

from conftest import unit_labels


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
            ("outcome,observed,x\n,1,0\n1,1,abc\n", ValidationError,
             "observed indicator disagrees with outcome cell at row 1"),
            ("outcome,arm,x\n1,0,inf\n1,1,abc\n", ValidationError,
             "non-finite covariate at row 1, column 'x'"),
            ("outcome,arm,x\n1,0,1\ninf,1,2\n1,2,abc\n", ValidationError,
             "non-finite outcome at row 2"),
            ("outcome,arm,a{b}\n1,0,inf\n", ValidationError,
             "non-finite covariate at row 1, column 'a{b}'"),
            ("outcome,arm,x{}\n1,0,1\n1,1,-inf\n", ValidationError,
             "non-finite covariate at row 2, column 'x{}'"),
            ("outcome,arm,x{0}\n1,0,nan\n", ValidationError,
             "non-finite covariate at row 1, column 'x{0}'"),
        ],
        ids=["bad_covariate_above_bad_outcome", "bad_arm_above_bad_outcome",
             "empty_label_above_bad_arm", "disagreeing_observed_above_bad_covariate",
             "infinite_covariate_above_bad_covariate", "infinite_outcome_above_bad_arm",
             "braces_in_covariate_name", "empty_braces_in_covariate_name",
             "index_braces_in_covariate_name"],
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
        _reference_write_csv(frame, first)
        reloaded = load_csv(first)
        _reference_write_csv(reloaded, second)
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

    def test_observed_outside_zero_one_names_its_row(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_lines(path, ["outcome,observed,x", "1,1,0", "2,1,0", "3,2,0", ",0,0"])
        with pytest.raises(ValidationError, match="observed value not in .* at row 3"):
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
        _reference_write_csv(
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

    def test_echo_peak_memory_is_below_the_file_size(self, tmp_path):
        # 2,000 rows x 150 covariates: beyond the bytes the loader kept, the echo holds
        # its record offsets and one block of text at a time
        rng = np.random.default_rng(62)
        n, k = 2_000, 150
        frame = TrialFrame(
            covariates=rng.normal(size=(n, k)), covariate_names=tuple(f"x{j}" for j in range(k)),
        )
        path, out = tmp_path / "wide.csv", tmp_path / "allocated.csv"
        _reference_write_csv(frame, path)
        records = CsvRecords()
        load_csv(path, records=records)
        tracemalloc.start()
        try:
            records.write_with_arm(np.arange(n) % 2, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        assert_echoes(path, out, np.arange(n) % 2)

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
        assert unit_labels(frame.stratum).tolist() == [label, "b"]
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
        _reference_write_csv(frame, path)
        monkeypatch.setattr(data_model, "_cell_by_cell", lambda *args: pytest.fail("cell by cell"))
        assert_same_frame(load_csv(path), _reference_load_csv(path))


class TestTrialFrame:
    def test_arrays_are_immutable(self, four_row_frame):
        with pytest.raises(ValueError):
            four_row_frame.covariates[0, 0] = 9.0

    def test_observed_is_derived_from_the_outcome_and_read_only(self):
        frame = TrialFrame(
            covariates=np.zeros((4, 1)),
            covariate_names=("x",),
            outcome=np.array([1.0, np.nan, 3.0, np.nan]),
        )
        assert frame.observed.dtype == np.int8 and frame.observed.tolist() == [1, 0, 1, 0]
        assert not frame.observed.flags.writeable
        with pytest.raises(AttributeError):
            frame.observed = np.ones(4, dtype=np.int8)
        assert TrialFrame(covariates=np.zeros((4, 1)), covariate_names=("x",)).observed is None
        with pytest.raises(TypeError):
            TrialFrame(covariates=np.zeros((1, 1)), covariate_names=("x",), observed=[1])

    def test_new_outcomes_with_missing_cells_replace_the_old(self):
        frame = TrialFrame(
            covariates=np.zeros((3, 1)), covariate_names=("x",), outcome=np.array([1.0, 2.0, 3.0])
        )
        revealed = replace(frame, outcome=np.array([np.nan, 2.0, 5.0]))
        assert revealed.observed.tolist() == [0, 1, 1]
        assert frame.observed.tolist() == [1, 1, 1]

    @pytest.mark.parametrize(
        "columns,message",
        [
            (dict(outcome=[1.0, np.inf, 2.0], arm=[2, 0, 1]), "arm value not in {0,1} at row 1"),
            (dict(outcome=[1.0, 2.0, -np.inf], arm=[1, 0, 2]), "non-finite outcome at row 3"),
            (dict(covariates=[[0.0], [np.nan], [0.0]], arm=[1, 5, 0]),
             "arm value not in {0,1} at row 2"),
            (dict(covariates=[[0.0], [np.nan], [0.0]], arm=[1, 0, 5]),
             "non-finite covariate at row 2, column 'x'"),
        ],
        ids=["bad_arm_before_inf_outcome", "inf_outcome_before_bad_arm_same_row",
             "bad_arm_before_nan_covariate_same_row", "nan_covariate_above_bad_arm"],
    )
    def test_constructor_names_the_earliest_bad_row(self, columns, message):
        columns = {"covariates": np.zeros((3, 1)), **columns}
        with pytest.raises(ValidationError) as raised:
            TrialFrame(covariate_names=("x",), **columns)
        assert str(raised.value) == message

    @pytest.mark.parametrize("name", ["a{b}", "x{}", "x{0}"])
    def test_braces_in_a_covariate_name_are_named_verbatim(self, name):
        with pytest.raises(ValidationError) as raised:
            TrialFrame(covariates=np.array([[0.0], [np.inf]]), covariate_names=(name,))
        assert str(raised.value) == f"non-finite covariate at row 2, column '{name}'"

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
        assigned = replace(frame, arm=[1, 0, 1, 0])
        assert assigned.stratum is frame.stratum
        assert assigned.cluster is frame.cluster
        relabeled = replace(frame, stratum=["a", "a", "b", "b"])
        assert relabeled.cluster is frame.cluster
        assert relabeled.stratum.codes.tolist() == [0, 0, 1, 1]

    def test_a_grouping_is_kept_as_given(self):
        groups = factorize(np.array(["b", "a", "b"], dtype=object))
        frame = TrialFrame(
            covariates=np.zeros((3, 1)), covariate_names=("x",), stratum=groups, cluster=groups
        )
        assert frame.stratum is groups and frame.cluster is groups

    @pytest.mark.parametrize("name", ["stratum", "cluster"])
    def test_a_grouping_of_the_wrong_length_is_rejected_as_labels_are(self, name):
        labels = np.array(["b", "a", "b"], dtype=object)
        for column in (labels, factorize(labels)):
            with pytest.raises(ValidationError, match=f"^{name} length does not match covariates$"):
                TrialFrame(covariates=np.zeros((4, 1)), covariate_names=("x",), **{name: column})

    def test_new_arms_group_no_labels_again(self, monkeypatch):
        frame = TrialFrame(
            covariates=np.zeros((4, 1)),
            covariate_names=("x",),
            stratum=["b", "a", "b", "a"],
            cluster=["c1", "c1", "c2", "c2"],
        )
        calls = []
        monkeypatch.setattr(data_model, "factorize", lambda values: calls.append(values))
        assigned = replace(frame, arm=[1, 0, 1, 0])
        assert calls == []
        assert assigned.stratum is frame.stratum and assigned.cluster is frame.cluster

    def test_new_arms_share_the_columns_the_frame_owns(self):
        rng = np.random.default_rng(3)
        frame = TrialFrame(
            covariates=rng.normal(size=(6, 3)),
            covariate_names=("x1", "x2", "x3"),
            outcome=np.array([1.0, np.nan, 2.0, 3.0, np.nan, 4.0]),
            arm=np.tile([1, 0], 3),
        )
        arms = np.tile([0, 1], 3)
        assigned = replace(frame, arm=arms)
        assert assigned.covariates is frame.covariates
        assert assigned.outcome is frame.outcome
        np.testing.assert_array_equal(assigned.observed, frame.observed)
        assert assigned.arm.tolist() == arms.tolist() and not np.shares_memory(assigned.arm, arms)

    def test_writable_inputs_and_read_only_views_are_copied(self):
        x = np.arange(8.0).reshape(4, 2)
        frame = TrialFrame(covariates=x, covariate_names=("x1", "x2"))
        assert not np.shares_memory(frame.covariates, x)
        x[0, 0] = 9.0
        assert frame.covariates[0, 0] == 0.0
        view = frame.covariates[:, :1]
        assert not view.flags.writeable
        narrow = TrialFrame(covariates=view, covariate_names=("x1",))
        assert narrow.covariates.flags.owndata
        assert not np.shares_memory(narrow.covariates, frame.covariates)


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
        with pytest.raises(ValidationError, match="not integer"):
            Design(pi=0.25, scheme="stratified", block_size=2)

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
        with pytest.raises(ValidationError, match="X\\^r"):
            Design(pi=0.5, scheme="rerandomized", threshold_t=1.0)

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
    "observed_disagrees_above_a_bad_cell": "outcome,observed,x\n,1,0\n1,1,abc\n",
    "infinite_covariate_above_a_bad_cell": "outcome,arm,x\n1,0,inf\n1,1,abc\n",
    "infinite_outcome_above_a_bad_cell": "outcome,arm,x\n1,0,1\ninf,1,2\n1,2,abc\n",
    "quote_open_at_the_end": 'outcome,stratum\n1,a\n2,"b\n',
    "quote_open_at_the_end_of_a_lone_cell": 'outcome\n1\n"\n',
    "quote_open_at_the_end_above_a_bad_cell": 'outcome,stratum\nx,a\n2,"b,c',
    "quote_open_at_the_end_of_the_header": 'x,"y\n',
}


_TEXT_ALPHABET = "0123456789.eE+-_ ,\"\n\r#a\u00e9"
# 0 and 1 twice, so that arm and observed columns often hold valid values
_CELLS = st.sampled_from(
    ["0", "1", "0", "1", "1.0", "-0.0", "1e3", " 2 ", "1_0", "", '"1"', '""', "a",
     "inf", "-inf", "nan"]
)
_NAMES = st.lists(
    st.sampled_from(RESERVED_COLUMNS + ("x1", "x2", "x{0}")), min_size=1, max_size=4, unique=True
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


_AWKWARD_LABELS = ["a,b", 'say "hi"', "cr\rx", "lf\nx", "a,\r\nb", '"', ",", "plain", " pad "]


def _several_blocks_frame() -> TrialFrame:
    """A frame whose text spans three echo blocks, with records over two lines."""
    n = 3 * _ECHO_BLOCK_BYTES // 40 + 3
    rng = np.random.default_rng(10)
    return TrialFrame(
        covariates=np.column_stack([rng.normal(size=n), rng.integers(-5, 5, n)]),
        covariate_names=("x", "count"),
        outcome=np.where(rng.random(n) < 0.9, rng.normal(size=n), np.nan),
        stratum=[_AWKWARD_LABELS[i % len(_AWKWARD_LABELS)] for i in range(n)],
        cluster=[f"c,{i % 301}" for i in range(n)],
    )


# Texts the loader accepts, each echoed with arms: one case per line-end, quoting and
# arm-column layout that the echo must keep byte for byte.
ECHO_CSV = {
    "byte_order_mark": "\ufeffstratum,x1\r\na,0.5\r\nb,0.25\r\n",
    "lf_line_ends": "stratum,x1\na,0.5\nb,0.25\n",
    "cr_line_ends": "stratum,x1\ra,0.5\rb,0.25\r",
    "crlf_line_ends": "stratum,x1\r\na,0.5\r\nb,0.25\r\n",
    "mixed_line_ends": "stratum,x1\ra,0.5\r\nb,0.25\nc,1\r",
    "last_row_without_line_end": "stratum,x1\r\na,0.5\nb,0.25",
    "header_only": "stratum,x1\n",
    "header_only_without_line_end": "stratum,x1",
    "quoted_comma_quote_and_line_ends": (
        'stratum,x1\n"a,b",1\n"say ""hi""",2\n"two\nlines",3\n"cr\r\nlf\rcr",4\n'
    ),
    "multi_line_last_row_without_line_end": 'stratum,x1\r\na,1\r\n"two\nlines",2',
    "multi_line_header": '"x\n1",stratum\n1,a\n2,b\n',
    "quotes_inside_fields": 'stratum,x1\n"a"b,1\na"b,2\n"c""",3\n"""",4\n',
    "non_ascii_labels": "stratum,x1\ncaf\u00e9,1\n\u6771\u4eac,2\ne\u0301,3\n",
    "bom_crlf_multi_line_label": '\ufeffstratum,x1\r\n"a\r\nb",0.5\r\nc,1\r\n',
    "arm_in_the_middle": 'x1,arm,stratum\n1,0,"a,b"\n2, 1 ,c\n3,"1.0",d\n4,0,"e\nf"\n',
    "arm_first_without_final_line_end": "arm,x1\r\n1,0.5\r\n0,0.25",
    "arm_last_after_a_quoted_name": '"x,1",arm\r\n0.5,"0"\r\n0.25,1\r\n',
    "arm_only": "arm\n1\n0\n",
    "arm_beside_a_quoted_newline": 'stratum,arm\n"x\r\ny",1\n"z",0\n',
    "no_columns": "\n\n\n",
    "one_column_of_empty_outcomes": 'outcome\n""\n1\n""\n',
}


def _records(text: str) -> list[tuple[str, str]]:
    """(text, line end) of each record of ``text`` (no byte-order mark), its physical
    lines grouped by ``csv.reader.line_num``."""
    lines = io.StringIO(text, newline="").readlines()
    reader, records, start = csv.reader(lines), [], 0
    for _ in reader:
        record, start = "".join(lines[start : reader.line_num]), reader.line_num
        body = record.rstrip("\r\n")
        records.append((body, record[len(body) :]))
    return records


def _field_spans(body: str) -> list[tuple[int, int]]:
    """(start, stop) of each field of one record by csv's default dialect, walked one
    character at a time: a quote opens a field, a doubled quote inside it is text, a
    lone one closes it, and a comma outside it ends the field."""
    spans, start, state = [], 0, "start"
    for i, char in enumerate(body):
        if state == "quoted" or (state == "quote" and char == '"'):
            state = "quote" if state == "quoted" and char == '"' else "quoted"
            continue
        if char == ",":
            spans.append((start, i))
            start, state = i + 1, "start"
        elif state == "start" and char == '"':
            state = "quoted"
        else:
            state = "plain"
    return spans + [(start, len(body))]


def _without_arm_cells(text: str, column: int | None) -> tuple[str, list[str]]:
    """``text`` with its arm cells taken out, and those cells. With ``column`` None they
    are every record's last field, with the comma before it; else field ``column`` of
    every row."""
    kept, cells = [], []
    for i, (body, end) in enumerate(_records(text)):
        spans = _field_spans(body)
        if column is None:
            start, stop = (spans[-2][1] if len(spans) > 1 else 0), spans[-1][1]
            cells.append(body[spans[-1][0] : stop])
        elif i == 0:
            start = stop = 0
        else:
            start, stop = spans[column]
            cells.append(body[start:stop])
        kept.append(body[:start] + body[stop:] + end)
    return "".join(kept), cells


def _echo(source: Path, out: Path, arms) -> None:
    records = CsvRecords()
    load_csv(source, records=records)
    records.write_with_arm(np.asarray(arms), out)


def _flipped_arms(frame: TrialFrame) -> np.ndarray:
    """New arms that differ from any the frame has."""
    return np.arange(frame.n_units) % 2 if frame.arm is None else 1 - frame.arm


def assert_echoes(source: Path, out: Path, arms) -> None:
    """``out`` is ``source`` echoed with ``arms``: it loads as ``source`` does with those
    arms, and taking its arm cells out gives back ``source``'s bytes, with a line end
    after a last record that had none (the record before it's, else CRLF)."""
    frame = _load_strict(load_csv, source)
    assert_same_frame(_load_strict(load_csv, out), replace(frame, arm=arms))
    text, echoed = source.read_bytes().decode(), out.read_bytes().decode()
    bom = "\ufeff" if text.startswith("\ufeff") else ""
    assert echoed.startswith(bom)
    text, echoed = text[len(bom) :], echoed[len(bom) :]
    if not text.endswith(("\r", "\n")):
        records = _records(text)
        text += records[-2][1] if len(records) > 1 else "\r\n"
    header = next(csv.reader(io.StringIO(text, newline="")))
    column = header.index("arm") if "arm" in header else None
    kept, cells = _without_arm_cells(echoed, column)
    assert cells == ["arm"] * (column is None) + [str(arm) for arm in np.asarray(arms).tolist()]
    assert kept == (text if column is None else _without_arm_cells(text, column)[0])


class TestEcho:
    @pytest.mark.parametrize("name", sorted(ECHO_CSV))
    def test_echo_panel(self, name, tmp_path):
        source, out = tmp_path / "in.csv", tmp_path / "out.csv"
        source.write_bytes(ECHO_CSV[name].encode())
        arms = _flipped_arms(load_csv(source))
        _echo(source, out, arms)
        assert_echoes(source, out, arms)

    def test_echo_spans_several_blocks(self, tmp_path):
        source, out = tmp_path / "in.csv", tmp_path / "out.csv"
        _reference_write_csv(_several_blocks_frame(), source)
        assert source.stat().st_size > 3 * _ECHO_BLOCK_BYTES
        arms = np.random.default_rng(11).integers(0, 2, load_csv(source).n_units)
        _echo(source, out, arms)
        assert_echoes(source, out, arms)

    def test_output_keeps_the_byte_order_mark(self, tmp_path):
        source, out = tmp_path / "in.csv", tmp_path / "out.csv"
        source.write_bytes(ECHO_CSV["byte_order_mark"].encode())
        _echo(source, out, [1, 0])
        assert out.read_bytes() == codecs.BOM_UTF8 + b"stratum,x1,arm\r\na,0.5,1\r\nb,0.25,0\r\n"

    @pytest.mark.parametrize(
        "text,arms,echoed",
        [
            ("x\r\n1\n2", [1, 0], "x,arm\r\n1,1\n2,0\n"),
            ("x\r1\r\n2", [0, 1], "x,arm\r1,0\r\n2,1\r\n"),
            ('stratum\n"a\r\nb"', [1], 'stratum,arm\n"a\r\nb",1\n'),
            ("x", [], "x,arm\r\n"),
            ('"a\nb"', [], '"a\nb",arm\r\n'),
            ("x,arm\r\n1,0", [1], "x,arm\r\n1,1\r\n"),
            (ECHO_CSV["arm_in_the_middle"], [1, 0, 0, 1],
             'x1,arm,stratum\n1,1,"a,b"\n2,0,c\n3,0,d\n4,1,"e\nf"\n'),
        ],
        ids=["last_row_after_lf", "last_row_after_crlf", "last_multi_line_row", "lone_header",
             "lone_multi_line_header", "last_row_with_arm", "arm_cells_in_place"],
    )
    def test_echo_bytes(self, tmp_path, text, arms, echoed):
        source, out = tmp_path / "in.csv", tmp_path / "out.csv"
        source.write_bytes(text.encode())
        _echo(source, out, arms)
        assert out.read_bytes() == echoed.encode()

    def test_allocate_writes_the_echo(self, tmp_path):
        from rerand import rerandomize
        from rerand.cli import run_command

        source, out = tmp_path / "in.csv", tmp_path / "out.csv"
        source.write_bytes(ECHO_CSV["bom_crlf_multi_line_label"].encode())
        design = tmp_path / "design.cfg"
        design.write_text("pi = 0.5\nscheme = stratified\n")
        argv = ["allocate", "--design", str(design), "--data", str(source), "--seed", "4"]
        assert run_command(argv + ["--out", str(out)]).exit_code == 0
        arms = rerandomize(load_csv(source), Design(scheme="stratified"), 4).arms
        assert_echoes(source, out, arms)


def assert_same_frame(a: TrialFrame, b: TrialFrame) -> None:
    """Equal arrays down to dtype, memory layout, NaN payload and the sign of zero;
    label columns are equal Groupings: the same labels, codes and counts."""
    assert a.covariate_names == b.covariate_names
    arrays = [(name, getattr(a, name), getattr(b, name))
              for name in ("covariates", "outcome", "observed", "arm")]
    for name in ("stratum", "cluster"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            arrays.append((name, x, y))
        else:
            arrays += [(f"{name}.{part}", getattr(x, part), getattr(y, part))
                       for part in ("labels", "codes", "counts")]
    for name, x, y in arrays:
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
        arms = _flipped_arms(frame)
        _echo(path, tmp_path / "out.csv", arms)
        assert_echoes(path, tmp_path / "out.csv", arms)

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
            if isinstance(loaded, TrialFrame):
                out, arms = Path(tmp, "out.csv"), _flipped_arms(loaded)
                _echo(path, out, arms)
                assert_echoes(path, out, arms)
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
        assert unit_labels(frame.stratum).tolist() == ["10", "2", "10", "2"]
        assert frame.stratum.labels.tolist() == ["10", "2"]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_matches_oracle(self, data):
        frame = data.draw(_frames())
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
            written = _write_bytes(_reference_write_csv, frame, new)
            loaded = load_csv(new)
            assert_same_frame(loaded, _reference_load_csv(new))
            assert _write_bytes(_reference_write_csv, loaded, old) == written
            out, arms = Path(tmp, "out.csv"), _flipped_arms(loaded)
            _echo(new, out, arms)
            assert_echoes(new, out, arms)


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
# replaced, kept verbatim, except that the reader checks each row in full (its
# cells and the frame's row checks) before the next, so that the earliest row's
# fault is the one it names, and checks the observed column itself. The column-wise
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
    column is also present the two encodings must agree, and it needs an outcome
    column.
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

    with open(path, newline="", encoding="utf-8") as handle:
        # a line after the last record joins it if the file ends inside a quoted field
        try:
            closed = len(list(csv.reader(chain(handle, ["x"])))) == len(data_rows) + 2
        except csv.Error:
            closed = False

    roles = [role_of.get(name) for name in header]
    if "observed" in roles and "outcome" not in roles:
        raise ValidationError("observed given without outcome column")
    covariate_names = [name for name, role in zip(header, roles) if role is None]
    columns: dict[str, list] = {name: [] for name in header}
    for i, cells in enumerate(data_rows, start=1):
        if len(cells) != len(header):
            raise ParseError(f"row {i} has {len(cells)} cells, expected {len(header)}")
        for name, cell in zip(header, cells):
            columns[name].append(cell)

    n = len(data_rows)
    if not closed:
        raise ParseError(f"{f'row {n}' if n else 'header row'}: the file ends inside a quoted field")

    def reserved(role: str) -> list[str] | None:
        for name, r in zip(header, roles):
            if r == role:
                return columns[name]
        return None

    outcome_cells = reserved("outcome")
    observed_cells = reserved("observed")
    arm_cells = reserved("arm")
    outcome = None if outcome_cells is None else np.empty(n)
    arm = None if arm_cells is None else np.empty(n, dtype=np.int8)
    covariates = np.empty((n, len(covariate_names)))
    # row by row, each row checked in full before the next; within a row outcome,
    # observed, arm, covariates, then labels
    for i in range(n):
        if outcome_cells is not None:
            cell = outcome_cells[i]
            outcome[i] = (
                np.nan if cell.strip() == "" else _reference_parse_float(cell, i + 1, "outcome")
            )
            if np.isinf(outcome[i]):
                raise ValidationError(f"outcome {cell} is not finite at row {i + 1}")
        for role, cells in (("observed", observed_cells), ("arm", arm_cells)):
            if cells is not None:
                value = _reference_parse_float(cells[i], i + 1, role)
                if value not in (0.0, 1.0):
                    raise ValidationError(f"{role} value {cells[i]} not in {{0,1}} at row {i + 1}")
                if role == "observed" and value != (not np.isnan(outcome[i])):
                    raise ValidationError(f"observed {cells[i]} contradicts the outcome at row {i + 1}")
                if role == "arm":
                    arm[i] = int(value)
        for j, name in enumerate(covariate_names):
            covariates[i, j] = _reference_parse_float(columns[name][i], i + 1, name)
            if not np.isfinite(covariates[i, j]):
                raise ValidationError(f"covariate {name} is not finite at row {i + 1}")
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
        getters.append(lambda i, strata=unit_labels(frame.stratum): str(strata[i]))
    if frame.cluster is not None:
        header.append("cluster")
        getters.append(lambda i, clusters=unit_labels(frame.cluster): str(clusters[i]))
    for j, name in enumerate(frame.covariate_names):
        header.append(name)
        getters.append(lambda i, j=j: _reference_format_float(frame.covariates[i, j]))

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(frame.n_units):
            writer.writerow([get(i) for get in getters])

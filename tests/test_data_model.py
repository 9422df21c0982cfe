import numpy as np
import pytest

from rerand import (
    Design,
    EstimandSpec,
    TrialFrame,
    load_csv,
    validate_design,
    write_csv,
)
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

    def test_schema_remaps_reserved_roles(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_lines(path, ["y,treat,x1", "1.0,1,0.5", "2.0,0,0.25"])
        frame = load_csv(path, schema={"outcome": "y", "arm": "treat"})
        assert frame.covariate_names == ("x1",)
        assert frame.arm.tolist() == [1, 0]

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

    def test_schema_mapping_to_missing_column_rejected(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_lines(path, ["x1", "0.5"])
        with pytest.raises(DataError, match="missing column 'y'"):
            load_csv(path, schema={"outcome": "y"})


class TestTrialFrame:
    def test_arrays_are_immutable(self, four_row_frame):
        with pytest.raises(ValueError):
            four_row_frame.covariates[0, 0] = 9.0

    def test_non_finite_covariate_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            TrialFrame(
                covariates=np.array([[np.inf]]), covariate_names=("x",)
            )


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

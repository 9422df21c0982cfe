import json

import numpy as np
import pytest

from rerand.cli import run_command


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def trial_csv(tmp_path):
    rng = np.random.default_rng(21)
    lines = ["outcome,arm,stratum,x1,x2"]
    for i in range(80):
        arm = i % 2
        stratum = (i // 2) % 2
        x1, x2 = (float(v) for v in rng.normal(size=2))
        y = float(1.0 + 2.0 * arm + x1 - x2 + 0.5 * stratum + rng.normal())
        lines.append(f"{y!r},{arm},s{stratum},{x1!r},{x2!r}")
    return write(tmp_path / "trial.csv", "\n".join(lines) + "\n")


@pytest.fixture
def unassigned_csv(tmp_path):
    rng = np.random.default_rng(22)
    lines = ["stratum,x1,x2"]
    for i in range(60):
        x1, x2 = (float(v) for v in rng.normal(size=2))
        lines.append(f"s{i % 2},{x1!r},{x2!r}")
    return write(tmp_path / "units.csv", "\n".join(lines) + "\n")


@pytest.fixture
def design_cfg(tmp_path):
    return write(
        tmp_path / "design.cfg",
        "pi = 0.5\nscheme = rerandomized\nrerand = x1,x2\nt = 1.0\n",
    )


class TestCi:
    def test_normal_quantile_oracle(self, capsys):
        outcome = run_command(
            [
                "ci", "--delta", "0", "--v", "1", "--r2", "0", "--q", "2",
                "--t", "1", "--n", "100", "--alpha", "0.05",
                "--draws", "1000000", "--seed", "7",
            ]
        )
        assert outcome.exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] == pytest.approx(-0.196, abs=0.003)
        assert payload["upper"] == pytest.approx(0.196, abs=0.003)
        assert payload["v_qt"] == pytest.approx(0.22926, abs=1e-5)

    def test_numeric_error_exit_code(self, capsys):
        outcome = run_command(
            [
                "ci", "--delta", "0", "--v", "1", "--r2", "0.5", "--q", "3",
                "--t", "1e-7", "--n", "100", "--draws", "2000", "--seed", "1",
            ]
        )
        assert outcome.exit_code == 4


class TestAllocate:
    def test_repeated_runs_are_byte_identical(self, tmp_path, unassigned_csv, design_cfg):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            outcome = run_command(
                [
                    "allocate", "--design", design_cfg, "--data", unassigned_csv,
                    "--seed", "1", "--out", str(out),
                ]
            )
            assert outcome.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["attempts"] >= 1
        assert meta["accepted_distance"] < 1.0
        assert "config_hash" in meta

    def test_arm_column_appended(self, tmp_path, unassigned_csv, design_cfg):
        out = tmp_path / "alloc.csv"
        run_command(
            [
                "allocate", "--design", design_cfg, "--data", unassigned_csv,
                "--seed", "3", "--out", str(out),
            ]
        )
        header = out.read_text().splitlines()[0].split(",")
        assert "arm" in header


class TestAnalyze:
    def test_missing_file_is_a_data_error(self):
        outcome = run_command(
            ["analyze", "--estimator", "ancova", "--data", "missingfile.csv"]
        )
        assert outcome.exit_code == 3

    def test_ancova_matches_library(self, trial_csv, capsys):
        outcome = run_command(
            [
                "analyze", "--estimator", "ancova", "--data", trial_csv,
                "--covariates", "x1,x2,stratum",
            ]
        )
        assert outcome.exit_code == 0
        payload = json.loads(capsys.readouterr().out)

        from rerand import EstimandSpec, estimate_ancova, load_csv

        frame = load_csv(trial_csv)
        expected = estimate_ancova(
            frame, ("x1", "x2", "stratum"), False, EstimandSpec("difference")
        )
        assert payload["delta_hat"] == pytest.approx(expected.delta_hat, abs=1e-12)
        assert payload["method"]["scheme"] == "simple"

    def test_design_aware_analysis_reports_r2(self, trial_csv, design_cfg, capsys):
        outcome = run_command(
            [
                "analyze", "--estimator", "unadjusted", "--data", trial_csv,
                "--design", design_cfg, "--draws", "2000",
            ]
        )
        assert outcome.exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["R2_hat"] <= 1.0
        assert payload["ci"]["lower"] < payload["delta_hat"] < payload["ci"]["upper"]

    def test_dml_estimator_runs(self, trial_csv, capsys):
        outcome = run_command(
            [
                "analyze", "--estimator", "dml", "--data", trial_csv,
                "--learners", "stump:50:0.2,none", "--folds", "4",
                "--fold-mode", "stratum-arm",
            ]
        )
        assert outcome.exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"]["estimator"] == "dml"

    @pytest.mark.parametrize("learners", ["stump:-3:0.1,none", "stump:200:nan,none", "knn:0,none"])
    def test_invalid_learner_is_a_data_error(self, trial_csv, learners, capsys):
        outcome = run_command(
            ["analyze", "--estimator", "dml", "--data", trial_csv, "--learners", learners]
        )
        assert outcome.exit_code == 3
        assert "must be" in capsys.readouterr().err

    def test_drwls_on_missing_outcomes(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        lines = ["outcome,arm,x1"]
        for i in range(100):
            arm = i % 2
            x1 = float(rng.normal())
            y = float(arm + x1 + rng.normal())
            cell = "" if rng.random() < 0.25 else repr(y)
            lines.append(f"{cell},{arm},{x1!r}")
        path = write(tmp_path / "missing.csv", "\n".join(lines) + "\n")
        outcome = run_command(
            ["analyze", "--estimator", "drwls", "--data", path, "--covariates", "x1"]
        )
        assert outcome.exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_hat"] == pytest.approx(1.0, abs=0.8)

    def test_mixed_estimator_on_cluster_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(32)
        lines = ["outcome,arm,cluster,x1"]
        for c in range(8):
            arm = c % 2
            noise = float(rng.normal(0, 0.5))
            for _ in range(5):
                x1 = float(rng.normal())
                y = float(1.0 + 2.0 * arm + x1 + noise + rng.normal(0, 0.5))
                lines.append(f"{y!r},{arm},c{c},{x1!r}")
        path = write(tmp_path / "clusters.csv", "\n".join(lines) + "\n")
        outcome = run_command(
            ["analyze", "--estimator", "mixed", "--data", path, "--covariates", "x1"]
        )
        assert outcome.exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"]["n_units"] == 8

    def test_design_config_with_tier_lines(self, tmp_path, unassigned_csv):
        cfg = write(
            tmp_path / "tiered.cfg",
            "pi = 0.5\nscheme = rerandomized\nrerand = x1,x2\n"
            "tier = x1 : 1.0\ntier = x2 : 2.0\n",
        )
        out = tmp_path / "alloc.csv"
        outcome = run_command(
            ["allocate", "--design", cfg, "--data", unassigned_csv,
             "--seed", "2", "--out", str(out)]
        )
        assert outcome.exit_code == 0
        meta = json.loads((tmp_path / "alloc.csv.meta.json").read_text())
        assert meta["tier_distances"][0] < 1.0
        assert meta["tier_distances"][1] < 2.0


class TestUsage:
    def test_unknown_flag_suggests_alternative(self, capsys):
        outcome = run_command(
            ["ci", "--delta", "0", "--v", "1", "--r2", "0", "--q", "2",
             "--t", "1", "--n", "100", "--seeed", "7"]
        )
        assert outcome.exit_code == 2
        assert "--seed" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        outcome = run_command(["--version"])
        assert outcome.exit_code == 0
        assert "rerand" in capsys.readouterr().out

    def test_help_exits_cleanly(self, capsys):
        assert run_command(["--help"]).exit_code == 0
        assert "allocate" in capsys.readouterr().out


class TestSimulate:
    def test_small_run_writes_report_and_csv(self, tmp_path, capsys):
        config = write(
            tmp_path / "sim.cfg",
            "\n".join(
                [
                    "dgp.family = continuous_sec7",
                    "dgp.n = 100",
                    "design.scheme = rerandomized",
                    "design.rerand = x1,x2",
                    "design.t = 1.0",
                    "estimator = unadjusted label=Unadjusted",
                    "estimator = ancova covariates=x1,x2,stratum label=ANCOVA",
                    "replicates = 4",
                    "master_seed = 5",
                    "ci_draws = 2000",
                    "truth.difference = 2.0, 0.0015",
                ]
            )
            + "\n",
        )
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        outcome = run_command(
            ["simulate", "--config", config, "--out", str(out), "--csv", str(csv_out)]
        )
        assert outcome.exit_code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert {row["label"] for row in report["estimators"]} == {"Unadjusted", "ANCOVA"}
        assert csv_out.read_text().startswith("estimator,")

    def test_mixed_estimator_fails_at_config_time(self, tmp_path, monkeypatch):
        config = write(
            tmp_path / "sim.cfg",
            "dgp.family = continuous_sec7\ndgp.n = 80\ndesign.scheme = simple\n"
            "estimator = mixed covariates=x1\nreplicates = 20\n",
        )
        replicates = []
        monkeypatch.setattr("rerand.simlab._replicate", lambda *a: replicates.append(a))
        outcome = run_command(["simulate", "--config", config, "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 3
        assert replicates == []

    def test_worker_count_env_override(self, tmp_path, monkeypatch):
        config = write(
            tmp_path / "sim.cfg",
            "\n".join(
                [
                    "dgp.family = continuous_sec7",
                    "dgp.n = 80",
                    "design.scheme = simple",
                    "estimator = unadjusted",
                    "replicates = 2",
                    "ci_draws = 2000",
                    "truth.difference = 2.0, 0.0015",
                    "workers = 1",
                ]
            )
            + "\n",
        )
        monkeypatch.setenv("RERAND_WORKERS", "2")
        from rerand.cli import sim_config_from_file

        assert sim_config_from_file(config).workers == 2

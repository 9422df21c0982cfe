import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rerand.cli import run_command

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
                "ci", "--delta", "0", "--v", "1", "--r2", "0.5", "--q", "10",
                "--t", "1e-300", "--n", "100", "--draws", "2000", "--seed", "1",
            ]
        )
        assert outcome.exit_code == 4

    def test_nan_threshold_is_a_data_error(self, capsys):
        outcome = run_command(
            ["ci", "--delta", "0", "--v", "1", "--r2", "0.5", "--q", "2", "--t", "nan", "--n", "100"]
        )
        assert outcome.exit_code == 3
        assert "t must be a number, not NaN" in capsys.readouterr().err

    def test_tiny_acceptance_succeeds(self, capsys):
        outcome = run_command(
            [
                "ci", "--delta", "0", "--v", "1", "--r2", "0.5", "--q", "3",
                "--t", "1e-7", "--n", "100", "--draws", "2000", "--seed", "1",
            ]
        )
        assert outcome.exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] < 0 < payload["upper"]


    def test_draws_and_seed_do_not_change_the_output(self, tmp_path):
        outputs = []
        for draws, seed in (("1000", "7"), ("50000", "8")):
            out = tmp_path / f"ci_{seed}.json"
            outcome = run_command(
                [
                    "ci", "--delta", "0.1", "--v", "1", "--r2", "0.5", "--q", "2",
                    "--t", "1", "--n", "100", "--draws", draws, "--seed", seed,
                    "--out", str(out),
                ]
            )
            assert outcome.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["method"]["interval"] == "quadrature"
        assert payload["method"]["draws"] == 0

    def test_few_draws_are_accepted_and_unused(self, tmp_path):
        outputs = []
        for draws in ("5", "1000"):
            out = tmp_path / f"ci_{draws}.json"
            argv = ["ci", "--delta", "0.1", "--v", "1", "--r2", "0.5", "--q", "2", "--t", "1",
                    "--n", "100", "--draws", draws, "--out", str(out)]
            assert run_command(argv).exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestModuleEntryPoints:
    """``python -m rerand`` and ``python -m rerand.cli`` run the CLI."""

    @staticmethod
    def run(args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", *args], env=env, cwd=cwd, capture_output=True, text=True,
            timeout=120,
        )

    def test_package_runs_allocate(self, tmp_path, unassigned_csv, design_cfg):
        out = tmp_path / "alloc.csv"
        proc = self.run(
            ["rerand", "allocate", "--design", design_cfg, "--data", unassigned_csv,
             "--seed", "1", "--out", str(out)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        ref = tmp_path / "ref.csv"
        run_command(
            ["allocate", "--design", design_cfg, "--data", unassigned_csv,
             "--seed", "1", "--out", str(ref)]
        )
        assert out.read_bytes() == ref.read_bytes()
        assert (tmp_path / "alloc.csv.meta.json").exists()

    def test_cli_module_prints_version(self, tmp_path):
        from rerand import __version__

        proc = self.run(["rerand.cli", "--version"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"rerand {__version__}"

    def test_import_does_not_run_the_cli(self):
        import rerand

        assert "rerand.__main__" not in sys.modules
        assert not hasattr(rerand, "__main__")


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

    def test_config_hash_follows_data_bytes_not_path(
        self, tmp_path, unassigned_csv, trial_csv, design_cfg
    ):
        commands = {
            unassigned_csv: ["allocate", "--design", design_cfg, "--seed", "1",
                             "--out", str(tmp_path / "alloc.csv")],
            trial_csv: ["analyze", "--estimator", "unadjusted",
                        "--out", str(tmp_path / "analysis.json")],
        }
        for data, argv in commands.items():
            text = Path(data).read_text()
            (tmp_path / "elsewhere").mkdir(exist_ok=True)
            copy = write(tmp_path / "elsewhere" / "copy.csv", text)
            # one edited byte: the last digit of the last row
            edited = write(tmp_path / "edited.csv", text[:-2] + "19"[text[-2] == "1"] + "\n")
            digests = []
            for path in (data, copy, edited):
                outcome = run_command(argv + ["--data", path])
                assert outcome.exit_code == 0
                record = outcome.log_records[0]
                assert record["data"] == path and "data" not in record["config"]
                digests.append(record["config_hash"])
            assert digests[0] == digests[1] != digests[2]

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
        assert payload["method"]["interval"] == "normal"

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
        assert payload["method"]["interval"] == "quadrature"

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

    @pytest.mark.parametrize(
        "learners",
        ["stump:-3:0.1,none", "stump:200:nan,none", "knn:0,none", "stump:abc,none",
         "stump:200:fast,none", "knn:x,none"],
    )
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

    def test_mixed_cluster_spanning_strata_is_a_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        lines = ["outcome,arm,cluster,stratum,x1"]
        for c in range(40):
            for j in range(4):
                x1, y = (float(v) for v in rng.normal(size=2))
                lines.append(f"{y + c % 2!r},{c % 2},c{c},{'ab'[j % 2]},{x1!r}")
        path = write(tmp_path / "clusters.csv", "\n".join(lines) + "\n")
        design = write(tmp_path / "design.cfg", "pi = 0.5\nscheme = stratified\n")
        outcome = run_command(
            ["analyze", "--estimator", "mixed", "--data", path, "--covariates", "x1",
             "--design", design]
        )
        assert outcome.exit_code == 3
        assert "cluster 'c0' spans more than one stratum" in capsys.readouterr().err

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


SIM_LINES = (
    "dgp.family = continuous_sec7\ndgp.n = 80\ndesign.scheme = rerandomized\n"
    "design.rerand = x1,x2\nestimator = unadjusted\nreplicates = 2\nci_draws = 2000\n"
    "truth.difference = 2.0, 0.0015\n"
)


class TestConfigKeys:
    def test_design_tier_repeats_in_a_simulation_config(self, tmp_path):
        from rerand.cli import sim_config_from_file

        config = write(
            tmp_path / "sim.cfg",
            SIM_LINES + "design.tier = x1 : 0.05\ndesign.tier = x2 : 0.5 : general\n",
        )
        tiers = sim_config_from_file(config).design.tiers
        assert [(tier.indices, tier.threshold) for tier in tiers] == [((0,), 0.05), ((1,), 0.5)]
        assert tiers[1].distance.kind == "general"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("tier = x1 : 0.05", "sim.cfg:9: unknown key 'tier'"),
            ("design.threshold = 0.05", "sim.cfg:9: unknown key 'design.threshold'"),
            ("design.tier = x1 : 0.05\ndesign.t = 1.0", "thresholds from its tiers"),
            ("design.t = nan", "balance thresholds must be positive"),
            ("design.tier = x1 : nan", "balance thresholds must be positive"),
        ],
    )
    def test_simulation_config_errors(self, tmp_path, monkeypatch, capsys, line, message):
        config = write(tmp_path / "sim.cfg", SIM_LINES + line + "\n")
        replicates = []
        monkeypatch.setattr("rerand.simlab._replicate", lambda *a: replicates.append(a))
        outcome = run_command(["simulate", "--config", config, "--out", str(tmp_path / "r.json")])
        assert outcome.exit_code == 3
        assert message in capsys.readouterr().err
        assert replicates == []

    @pytest.mark.parametrize("command", ["allocate", "analyze"])
    @pytest.mark.parametrize(
        "lines, message",
        [
            ("threshold = 0.05\n", "design.cfg:4: unknown key 'threshold'"),
            ("tier = x1 : 0.5\nt = 1.0\n", "thresholds from its tiers"),
            ("t = nan\n", "balance thresholds must be positive"),
            ("tier = x1 : 0.5\ntier = x2 : nan\n", "balance thresholds must be positive"),
        ],
    )
    def test_design_file_errors(
        self, tmp_path, trial_csv, capsys, command, lines, message
    ):
        design = write(
            tmp_path / "design.cfg", "pi = 0.5\nscheme = rerandomized\nrerand = x1,x2\n" + lines
        )
        options = {
            "allocate": ["--seed", "1", "--out", str(tmp_path / "a.csv")],
            "analyze": ["--estimator", "unadjusted"],
        }[command]
        outcome = run_command([command, "--data", trial_csv, "--design", design, *options])
        assert outcome.exit_code == 3
        assert message in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_bytes((SIM_LINES + "# caf\xe9\n").encode("latin-1"))
        out = str(tmp_path / "r.json")
        outcome = run_command(["simulate", "--config", str(config), "--out", out])
        assert outcome.exit_code == 3
        assert "sim.cfg: not UTF-8" in capsys.readouterr().err

    def test_csv_that_is_not_utf8_is_a_data_error(self, tmp_path, design_cfg, capsys):
        data = tmp_path / "units.csv"
        data.write_bytes("stratum,x1,x2\ncaf\xe9,0.5,1.0\nbar,0.1,0.2\n".encode("latin-1"))
        outcome = run_command(
            ["allocate", "--design", design_cfg, "--data", str(data), "--seed", "1",
             "--out", str(tmp_path / "a.csv")]
        )
        assert outcome.exit_code == 3
        assert "units.csv: not UTF-8" in capsys.readouterr().err

    def test_oversized_csv_cell_is_a_data_error(self, tmp_path, design_cfg, capsys):
        data = tmp_path / "units.csv"
        label = "b" * (csv.field_size_limit() + 1)
        data.write_text(f"stratum,x1,x2\na,0.5,1.0\n{label},0.1,0.2\n")
        outcome = run_command(
            ["allocate", "--design", design_cfg, "--data", str(data), "--seed", "1",
             "--out", str(tmp_path / "a.csv")]
        )
        assert outcome.exit_code == 3
        assert "row 2: field larger than field limit" in capsys.readouterr().err

    def test_comment_starts_at_a_hash_after_whitespace(self):
        from rerand.cli import _uncommented

        assert _uncommented("label=a#1  # note\n") == "label=a#1  "
        assert _uncommented("\t# whole line\n") == "\t"
        assert _uncommented("t = 1.0\n") == "t = 1.0\n"

    def test_readme_config_blocks_load(self, tmp_path, monkeypatch):
        from rerand.cli import (
            _DESIGN_KEYS,
            _parse_kv_file,
            design_from_config,
            sim_config_from_file,
        )

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = {
            block.split("\n", 1)[0]: block
            for block in re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        }
        design = write(tmp_path / "design.cfg", blocks["# design.cfg"])
        parsed = design_from_config(_parse_kv_file(design, _DESIGN_KEYS), ("x1", "x2"))
        assert (parsed.scheme, parsed.distance.kind, parsed.stratified_statistic) == (
            "stratified_rerandomized", "mahalanobis", "pooled"
        )
        monkeypatch.delenv("RERAND_WORKERS", raising=False)
        config = sim_config_from_file(write(tmp_path / "sim.cfg", blocks["# sim.cfg"]))
        assert (config.dgp.family, config.workers, config.truth) == (
            "continuous_sec7", 2, {"difference": (2.0, 0.0015)}
        )


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("estimator", "dml learners=stump:abc,none"),
            ("estimator", "dml folds=five"),
            ("replicates", "abc"),
            ("master_seed", "1.5"),
            ("ci_draws", "lots"),
            ("alpha", "5%"),
            ("workers", "two"),
            ("dgp.n", "4e2"),
            ("dgp.y_arm", "big"),
            ("design.block_size", "two"),
            ("design.t", "1.0x"),
            ("design.pi", "half"),
            ("truth.difference", "2.0, abc"),
        ],
    )
    def test_malformed_number_is_a_data_error(self, tmp_path, monkeypatch, key, value):
        lines = {
            "dgp.family": "continuous_sec7",
            "dgp.n": "80",
            "design.scheme": "stratified",
            "estimator": "dml learners=stump:50:0.1,none",
            "replicates": "2",
            "ci_draws": "2000",
            "truth.difference": "2.0, 0.0015",
        }
        lines[key] = value
        config = write(
            tmp_path / "sim.cfg", "".join(f"{k} = {v}\n" for k, v in lines.items())
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


_RUN_SCRIPT = """
import multiprocessing
import sys

from rerand.cli import run_command

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    sys.exit(run_command(sys.argv[2:]).exit_code)
"""


class TestDeterminism:
    """Output bytes depend only on (inputs, seed): not on the hash seed, the
    worker count or the multiprocessing start method. Each run is a fresh
    interpreter, since runs that share one process share its hash seed."""

    @staticmethod
    def run(tmp_path, args, hash_seed, start_method="spawn", workers=None):
        script = tmp_path / "run_rerand.py"
        script.write_text(_RUN_SCRIPT, encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        env.pop("RERAND_WORKERS", None)
        if workers is not None:
            env["RERAND_WORKERS"] = str(workers)
        proc = subprocess.run(
            [sys.executable, str(script), start_method, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_stratified_analyze_is_independent_of_hash_seed(self, tmp_path):
        rng = np.random.default_rng(31)
        labels = [f"site-{name}" for name in rng.permutation(10_000)[:20]]
        lines = ["outcome,arm,stratum,x1,x2"]
        for i in range(400):
            stratum = labels[i % 20]
            arm = (i // 20) % 2
            x1, x2 = (float(v) for v in rng.normal(size=2))
            y = float(1.0 + arm + x1 - x2 + rng.normal())
            lines.append(f"{y!r},{arm},{stratum},{x1!r},{x2!r}")
        data = write(tmp_path / "trial.csv", "\n".join(lines) + "\n")
        design = write(
            tmp_path / "design.cfg",
            "pi = 0.5\nscheme = stratified_rerandomized\nrerand = x1,x2\nt = 1.0\n",
        )
        outputs = []
        for hash_seed in (0, 1):
            out = tmp_path / f"analyze_{hash_seed}.json"
            self.run(
                tmp_path,
                ["analyze", "--data", data, "--estimator", "ancova", "--design", design,
                 "--draws", "2000", "--out", str(out)],
                hash_seed,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_stratified_simulation_is_independent_of_workers_and_start_method(
        self, tmp_path
    ):
        config = write(
            tmp_path / "sim.cfg",
            "\n".join(
                [
                    "dgp.family = continuous_sec7",
                    "dgp.n = 120",
                    "design.scheme = stratified_rerandomized",
                    "design.rerand = x1,x2",
                    "design.t = 1.0",
                    "estimator = ancova covariates=x1,x2,stratum label=ANCOVA",
                    "replicates = 16",
                    "master_seed = 11",
                    "ci_draws = 1000",
                    "truth.difference = 2.0, 0.0015",
                ]
            )
            + "\n",
        )
        # hash seeds 0 and 2 iterate the DGP's stratum labels {"0", "1"} in
        # opposite orders, so a sum that follows set order would show
        reports = []
        for hash_seed, workers in ((0, 1), (2, 2)):
            out = tmp_path / f"report_{workers}.json"
            self.run(
                tmp_path,
                ["simulate", "--config", config, "--out", str(out)],
                hash_seed,
                workers=workers,
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

"""The rerand benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``sim-continuous``, ``sim-binary-dml`` and
``design-large``. Run it from the root of a source checkout; the program is
imported from ``src/`` and runs serially (``workers = 1``, BLAS pinned to one
thread, PYTHONHASHSEED left as the caller set it). Each run

1. sets up: imports, writes the first inputs. ``setup_s`` is the median wall
   time of SETUP_SAMPLES fresh processes doing exactly that;
2. runs one untimed warm-up unit;
3. runs units in a closed loop for S seconds without tracing;
4. with ``--trace 1``, runs S more seconds with every layer boundary wrapped
   (layers.py) and derives the per-layer metrics from the spans.

Every output is checked (workloads.py). Standard output ends with a table,
one JSON line with the full report and run metadata, and then the result
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
per-layer metric whose layer did not run, or a percentile with fewer than ten
samples beyond it, reads 0 there and is listed under ``absent`` in the
report. Reports, hashes and spans are also written to ``perfbench/out/``.

Exit status is 0 whenever a result was printed (check ``correct``), and 2
when the program or its sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
from tracing import Tracer, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("sim-continuous", "sim-binary-dml", "design-large")

END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description="rerand benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", dest="setup_only", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import rerand from this checkout's src/; None when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rerand", "cli.py")):
        return None
    sys.path.insert(0, src)
    import rerand

    if not os.path.abspath(rerand.__file__).startswith(src + os.sep):
        return None
    return rerand


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def _measure_setup(args, workdir: str) -> list[float]:
    """Wall times of fresh processes that import the program and write inputs."""
    times = []
    for k in range(SETUP_SAMPLES):
        target = os.path.join(workdir, f"setup{k}")
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only", target,
        ]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        shutil.rmtree(target, ignore_errors=True)
    return times


class Phase:
    """Totals of the steps run in one timed phase."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies_ms: dict[str, list[float]] = {}

    def add(self, step) -> None:
        self.units += step.units
        self.seconds += step.seconds
        self.attempted += step.attempted
        self.failed += step.failed
        self.errors.extend(step.errors)
        for command, values in step.latencies_ms.items():
            self.latencies_ms.setdefault(command, []).extend(values)

    @property
    def units_per_s(self) -> float:
        """Units completed per second of timed command wall time."""
        return self.units / self.seconds if self.seconds > 0 else 0.0


def run_phase(workload, seconds: float, tracer=None) -> Phase:
    """Run steps until ``seconds`` of wall time have passed (at least one)."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        phase.add(workload.step(tracer))
        if time.perf_counter() >= deadline:
            return phase


def _latency_table(phase: Phase) -> dict:
    table = {}
    for command, values in sorted(phase.latencies_ms.items()):
        table[f"{command}_ms_p50"] = {"value": percentile(values, 50), "unit": "ms", "samples": len(values)}
        table[f"{command}_ms_p90"] = {"value": percentile(values, 90), "unit": "ms", "samples": len(values)}
    return table


def _record_hashes(args, summary: dict) -> int | None:
    """Append this run's report hash for the workload seed to a ledger kept
    across runs in this checkout; return the number of distinct hashes
    recorded so far for (workload, seed)."""
    hashes = summary.get("report_sha256")
    if hashes is None:
        return None
    ledger = os.path.join(OUT_DIR, "report-hashes.jsonl")
    with open(ledger, "a", encoding="utf-8") as handle:
        for digest in hashes:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed, "sha256": digest}) + "\n")
    seen = set()
    with open(ledger, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry["workload"] == args.workload and entry["seed"] == args.seed:
                seen.add(entry["sha256"])
    return len(seen)


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    rerand = _import_program()
    if rerand is None:
        print(f"perfbench: no rerand package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_only:
        os.makedirs(args.setup_only, exist_ok=True)
        workloads.make(args.workload, args.setup_only, args.seed).setup()
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, rerand, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, rerand, workloads, workdir: str) -> int:
    workload = workloads.make(args.workload, workdir, args.seed)
    workload.setup()
    setup_times = _measure_setup(args, workdir)
    warm = workload.warmup()
    plain = run_phase(workload, args.seconds)
    phases = [plain]
    report = {"meta": _metadata(args), "unit": workload.unit, "setup_s_samples": setup_times}

    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = run_phase(workload, args.seconds, tracer)
        finally:
            tracer.restore()
        phases.append(traced)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        values, samples, notes = layers.layer_metrics(tracer.spans, rerand.chi_square_cdf)
        values["trace.units_per_s_untraced"] = plain.units_per_s
        values["trace.units_per_s_traced"] = traced.units_per_s
        values["trace.overhead_pct"] = (
            (plain.units_per_s / traced.units_per_s - 1.0) * 100.0 if traced.units_per_s else None
        )
        samples["trace.units_per_s_untraced"] = plain.units
        samples["trace.units_per_s_traced"] = traced.units
        samples["trace.overhead_pct"] = traced.units
        report.update(missing_attributes=tracer.missing, layer_notes=notes, spans=len(tracer.spans))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "units_per_s": plain.units_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"setup_s": len(setup_times), "units_per_s": plain.units, "peak_rss_mb": 1}
        units = dict(END_TO_END)

    attempted = warm.attempted + sum(p.attempted for p in phases)
    failed = warm.failed + sum(p.failed for p in phases)
    errors = warm.errors + [e for p in phases for e in p.errors] + workload.final_errors()
    summary = workload.summary()
    report.update(
        workload_summary=summary,
        distinct_report_hashes_for_seed=_record_hashes(args, summary),
        failed_frac=failed / attempted,
        timed_units=plain.units,
        timed_seconds=plain.seconds,
        latencies=_latency_table(plain),
        absent=[name for name in units if values.get(name) is None],
        errors=errors[:20],
        metrics={
            name: {"value": values.get(name), "unit": unit, "samples": samples.get(name)}
            for name, unit in units.items()
        },
    )
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)

    print(f"{args.workload} seed={args.seed} trace={args.trace} unit={workload.unit}")
    rows = list(report["metrics"].items()) + list(report["latencies"].items())
    rows.append(("failed_frac", {"value": report["failed_frac"], "unit": "ratio", "samples": attempted}))
    for name, entry in rows:
        shown = "absent" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {name:45s} {shown:>12s} {entry['unit']:6s} n={entry['samples']}")
    for error in errors[:5]:
        print(f"  check failed: {error}")
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values.get(name) or 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

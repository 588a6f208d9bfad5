"""evidkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/evidkit`. The benchmark
makes the workload's inputs from the seed, runs the workload in one worker
process for S seconds and checks every op's output. The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics from a run that alternates untraced and traced ops. The
line before it is the run's meta block.

Every time in the end-to-end metrics is scaled to a reference host speed
by a fixed kernel timed around it (see hostspeed.py); the meta line also
holds the unscaled values. Set-up time is taken as the median over four
set-up-only processes and the measuring process itself. Scratch files go
to .perfbench_work/ and are removed at the end; traced spans are kept in
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from inputs import WORKLOADS, make_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
# Child processes are killed once a run has taken --seconds plus this long,
# so that a 25 s run ends within 180 s even if the program hangs.
RUN_GRACE_S = 145


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Single-process workers with BLAS threads capped at the core count."""
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def meta() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "blas_threads": nproc(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def run_worker(spec_path: Path, seconds: float, trace: int, setup_only: bool, deadline: float,
               spans_out=None) -> dict:
    result = spec_path.with_name(f"result-{os.getpid()}.json")
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path),
        "--seconds", str(seconds), "--trace", str(trace), "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    # The program prints to stdout; keep that off ours, whose last line is the result.
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=sys.stderr, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def fit_checkpoint(spec: dict, deadline: float) -> None:
    """Train the score workload's checkpoint with the program's own CLI."""
    out = Path(spec["checkpoint"]).parent
    cmd = [sys.executable, "-m", "evidkit.cli", "train", "--config", spec["fit_config"], "--out", str(out)]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=sys.stderr, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"checkpoint training exited with {proc.returncode}")


def measure(workload: str, seed: int, seconds: float, trace: int, work: Path) -> tuple[dict, dict]:
    """(unscaled end-to-end values, result) for one run."""
    deadline = time.monotonic() + seconds + RUN_GRACE_S
    spec = make_spec(workload, seed, work, ROOT / "src")
    if "fit_config" in spec:
        fit_checkpoint(spec, deadline)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    raw = {}
    if trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        res = run_worker(spec_path, seconds, 1, False, deadline, out_dir / f"spans-{workload}.npz")
        values = res["layers"]
        units = metric_units("per_layer")
    else:
        setups = [run_worker(spec_path, seconds, 0, True, deadline) for _ in range(SETUP_PROBES)]
        res = run_worker(spec_path, seconds, 0, False, deadline)
        setups.append(res)
        times, scaled = res["op_times"], res["op_scaled"]
        print(f"{workload}: op times {[round(t, 4) for t in times]}", file=sys.stderr)
        print(f"{workload}: scaled op times {[round(t, 4) for t in scaled]}", file=sys.stderr)
        values = {
            "items_per_s": res["items_per_op"] * len(scaled) / sum(scaled),
            "op_s_p50": statistics.median(scaled),
            "setup_s": statistics.median(r["setup_scaled"] for r in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        raw = {
            "items_per_s": res["items_per_op"] * len(times) / sum(times),
            "op_s_p50": statistics.median(times),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
        }
        units = metric_units("end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"no value for {sorted(missing)}")
    attempted = len(res["op_times"])
    return raw, {
        "correct": res["failed"] == 0,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if not (ROOT / "src" / "evidkit" / "__init__.py").is_file():
        print(f"error: no evidkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        raw, out = measure(args.workload, args.seed, args.seconds, args.trace, work)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": {"workload": args.workload, "seed": args.seed, **meta()}, "unscaled": raw}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload once and print every metric by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs `run.py` for each workload in turn (untraced, and traced too with
--trace), prints the meta block and one table row per metric, and writes
the whole report to .perfbench_out/report.json. `failed_ops` is each run's
failed ops divided by ops attempted; the `unscaled.*` rows are the end-to-end
times before scaling to the reference host speed. Exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=seconds + 300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    meta = json.loads(meta_line)
    return meta["meta"], meta["unscaled"], json.loads(result_line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", action="store_true", help="also run the traced per-layer pass")
    args = p.parse_args(argv)

    report = {"runs": []}
    for trace in (0, 1) if args.trace else (0,):
        for workload in WORKLOADS:
            meta, unscaled, result = run_one(workload, args.seed, args.seconds, trace)
            report.setdefault("meta", {k: v for k, v in meta.items() if k != "workload"})
            report["runs"].append({"workload": workload, "trace": trace, "unscaled": unscaled, **result})

    print(json.dumps(report["meta"]))
    print(f"{'workload':16s} {'trace':5s} {'metric':30s} {'value':>16s}  unit")
    for run in report["runs"]:
        rows = [("failed_ops", run["failed"] / run["attempted"], "fraction"), ("ops", run["attempted"], "count")]
        rows += [(name, m["value"], m["unit"]) for name, m in run["metrics"].items()]
        rows += [(f"unscaled.{name}", value, run["metrics"][name]["unit"]) for name, value in run["unscaled"].items()]
        for name, value, unit in rows:
            print(f"{run['workload']:16s} {run['trace']:<5d} {name:30s} {value:16.6g}  {unit}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    return 0 if all(run["correct"] for run in report["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())

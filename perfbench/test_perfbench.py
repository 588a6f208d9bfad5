"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`
from the repository root (about a minute on two cores)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from inputs import WORKLOADS, make_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts made by the program that must repeat exactly between two traced
# runs with the same seed.
EXACT_COUNTS = (
    "special.calls",
    "evidence.calls",
    "losses.calls",
    "gradcheck.loss_evals",
    "network.flops",
    "network.forward_rows_per_item",
)

# train-red at the seed commit: 4 states per sample-step in training and
# the per-epoch statistics pass plus the evaluations, and 23 special-function
# calls per sample-step once edl_kl is annealed in (epochs 1..59).
TRAIN_RED_SEED_COUNTS = {"evidence.calls": 60_450, "special.calls": 339_250}


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, seconds: float = 1.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


def test_inputs_repeat_from_seed(tmp_path):
    files = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        work = tmp_path / tag
        work.mkdir()
        make_spec("score", seed, work, ROOT / "src")
        files[tag] = {p.name: p.read_bytes() for p in sorted(work.glob("*.csv"))}
    assert files["a"] and files["a"] == files["b"]
    assert files["a"]["ind.csv"] != files["c"]["ind.csv"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [result_of(run_bench(workload, 3, trace=1))["metrics"] for _ in range(2)]
    assert set(runs[0]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert runs[0][m["name"]]["unit"] == m["unit"]
    for name in EXACT_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    if workload == "train-red":
        for name, want in TRAIN_RED_SEED_COUNTS.items():
            assert runs[0][name]["value"] == want, name
    accounted = sum(v["value"] for k, v in runs[0].items() if k.endswith(".self_s"))
    accounted += runs[0]["op.remainder_s"]["value"]
    assert accounted == pytest.approx(runs[0]["op.traced_s"]["value"], rel=1e-9)


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_bench("gradcheck", 5, trace=0)
    out = result_of(proc)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())
    unscaled = json.loads(proc.stdout.strip().splitlines()[-2])["unscaled"]
    assert set(unscaled) == {"items_per_s", "op_s_p50", "setup_s"}
    assert all(v > 0 for v in unscaled.values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train-red", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_score_check_rejects_a_wrong_record(tmp_path):
    import run
    import worker

    spec = make_spec("score", 2, tmp_path, ROOT / "src")
    run.fit_checkpoint(spec, deadline=time.monotonic() + 150)
    sys.path.insert(0, str(ROOT / "src"))
    w = worker.ScoreWorkload(spec)
    w.setup()
    assert w.check(w.op())
    rec = Path(w.rec_ind)
    lines = rec.read_text().splitlines()
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        fields[2] = repr(float(fields[2]) * (1.0 + 1e-6))
        lines[i] = ",".join(fields)
    rec.write_text("\n".join(lines) + "\n")
    assert not w.check((0, 0, 0))

"""One workload in one process: set up, run timed ops, check every output.

Started by run.py as `python3 worker.py --spec SPEC --seconds S --trace 0|1
--result OUT`. Set-up time runs from the first statement of this file
(before NumPy and evidkit are imported) to the first timed op. The result
is a JSON object written to OUT.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402


def _fail(msg: str) -> bool:
    print(f"check failed: {msg}", file=sys.stderr)
    return False


class TrainWorkload:
    """One op is one `run_experiment` on a benchmark-made CSV dataset."""

    entries = (("evidkit.trainer", "run_experiment"),)

    def __init__(self, spec: dict) -> None:
        self.spec = spec

    def setup(self) -> None:
        from evidkit import trainer

        self.trainer = trainer
        self.cfg = trainer.ExperimentConfig.from_dict(self.spec["config"])
        self.cfg.validate()
        train = self.cfg.train_data.build()
        if self.cfg.test_data is not None:
            self.cfg.test_data.build()
        self.items = self.cfg.epochs * train.n

    def op(self):
        return self.trainer.run_experiment(self.cfg)

    def check(self, result) -> bool:
        losses = [log.train_loss for log in result.logs]
        if len(losses) != self.cfg.epochs or not all(math.isfinite(v) for v in losses):
            return _fail(f"train losses not all finite: {losses}")
        floor = self.spec.get("acc_floor")
        if floor is not None and not result.final_test_acc >= floor:
            return _fail(f"final test accuracy {result.final_test_acc} below {floor}")
        return True


class GradcheckWorkload:
    """One op is the full finite-difference oracle grid."""

    entries = (("evidkit.gradcheck", "run_grid"),)

    def __init__(self, spec: dict) -> None:
        self.spec = spec

    def setup(self) -> None:
        from evidkit import gradcheck

        self.gradcheck = gradcheck
        if len(gradcheck.grid_cells()) != self.spec["cells"]:
            raise RuntimeError(f"grid does not have {self.spec['cells']} cells")
        self.items = self.spec["cells"] * self.spec["n_cases"]

    def op(self):
        return self.gradcheck.run_grid(n_cases=self.spec["n_cases"], seed=self.spec["grid_seed"])

    def check(self, cells) -> bool:
        if len(cells) != self.spec["cells"]:
            return _fail(f"{len(cells)} cells, expected {self.spec['cells']}")
        bad = [c.name for c in cells if not c.passed]
        if bad:
            return _fail(f"gradient cells failed: {bad}")
        return True


def _oracle_state(layers: list, x: np.ndarray):
    """Vacuity and mean evidence under exp evidence, from checkpoint weights."""
    h = x
    for layer in layers:
        w = np.asarray(layer["weights"], dtype=float).reshape(layer["out_dim"], layer["in_dim"])
        h = h @ w.T + np.asarray(layer["biases"], dtype=float)
        if layer["hidden"]:
            h = np.maximum(h, 0.0)
    e = np.exp(np.minimum(h, 30.0))
    k = e.shape[1]
    s = k + e.sum(axis=1)
    return k / s, e.sum(axis=1) / k, e


def _brute_auroc(pos: np.ndarray, neg: np.ndarray) -> float:
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


class ScoreWorkload:
    """One op scores the in-distribution and OOD CSVs with a fixed checkpoint
    through `evidkit evaluate`, then runs `evidkit report` on the records."""

    entries = (("evidkit.cli", "main"),)
    sample_rows = 256  # per file, for the row checks
    auroc_rows = 200  # per side, for the brute-force AUROC check

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        work = Path(spec["work"])
        self.rec_ind = str(work / "records_ind.csv")
        self.rec_ood = str(work / "records_ood.csv")
        self.report_dir = str(work / "report")
        self.check_dir = work / "check"

    def setup(self) -> None:
        from evidkit import cli
        from evidkit.datasets import load_csv
        from evidkit.network import load_checkpoint

        self.cli = cli
        load_checkpoint(self.spec["checkpoint"])
        ind = load_csv(self.spec["ind_csv"])
        ood = load_csv(self.spec["ood_csv"])
        self.items = ind.n + ood.n

    def op(self):
        ck = self.spec["checkpoint"]
        main = self.cli.main
        return (
            main(["evaluate", "--checkpoint", ck, "--data", self.spec["ind_csv"], "--out", self.rec_ind]),
            main(["evaluate", "--checkpoint", ck, "--data", self.spec["ood_csv"], "--out", self.rec_ood]),
            main(["report", "--records", self.rec_ind, "--ood-records", self.rec_ood, "--out", self.report_dir]),
        )

    def check(self, codes) -> bool:
        if codes != (0, 0, 0):
            return _fail(f"exit codes {codes}")
        summary = json.loads((Path(self.report_dir) / "summary.json").read_text())
        if summary["score_kind"] != "vacuity":
            return _fail(f"score kind {summary['score_kind']}")
        if not summary["auroc"] >= self.spec["auroc_floor"]:
            return _fail(f"vacuity AUROC {summary['auroc']} below {self.spec['auroc_floor']}")
        layers = json.loads(Path(self.spec["checkpoint"]).read_text())["layers"]
        rng = np.random.default_rng(self.spec["sample_seed"])
        records = {}
        for csv, rec, ood in ((self.spec["ind_csv"], self.rec_ind, False), (self.spec["ood_csv"], self.rec_ood, True)):
            data_lines = Path(csv).read_text().splitlines()[1:]
            rec_lines = Path(rec).read_text().splitlines()
            records[ood] = rec_lines
            rec_lines = rec_lines[1:]
            if len(rec_lines) != len(data_lines):
                return _fail(f"{rec}: {len(rec_lines)} records for {len(data_lines)} rows")
            idx = rng.choice(len(data_lines), self.sample_rows, replace=False)
            x = np.array([[float(v) for v in data_lines[i].split(",")[:-1]] for i in idx])
            o_vac, o_me, o_e = _oracle_state(layers, x)
            for j, i in enumerate(idx):
                pred, actual, nu, me, _, is_ood = rec_lines[i].split(",")
                nu, me = float(nu), float(me)
                if int(actual) != int(data_lines[i].split(",")[-1]) or bool(int(is_ood)) != ood:
                    return _fail(f"{rec} row {i}: label or OOD flag differs from the input")
                # sum(b) = sum(e)/S = mean_evidence * vacuity
                if abs(me * nu + nu - 1.0) > 1e-12:
                    return _fail(f"{rec} row {i}: sum(b) + vacuity = {me * nu + nu!r}")
                if abs(nu - o_vac[j]) > 1e-9 * o_vac[j] or abs(me - o_me[j]) > 1e-9 * max(o_me[j], 1e-300):
                    return _fail(f"{rec} row {i}: vacuity/evidence differ from the reference head")
                top = np.sort(o_e[j])[::-1]
                if top[0] - top[1] > 1e-9 * top[0] and int(pred) != int(np.argmax(o_e[j])):
                    return _fail(f"{rec} row {i}: predicted class differs from the reference head")
        return self._check_auroc(records, rng)

    def _check_auroc(self, records: dict, rng) -> bool:
        """The program's AUROC on a subsample equals the pairwise count."""
        self.check_dir.mkdir(exist_ok=True)
        vac, paths = {}, []
        for ood, lines in records.items():
            idx = np.sort(rng.choice(len(lines) - 1, self.auroc_rows, replace=False)) + 1
            picked = [lines[i] for i in idx]
            vac[ood] = np.array([float(line.split(",")[2]) for line in picked])
            path = self.check_dir / f"sub_{int(ood)}.csv"
            path.write_text("\n".join([lines[0]] + picked) + "\n")
            paths.append(str(path))
        code = self.cli.main(["report", "--records", paths[0], "--ood-records", paths[1], "--out", str(self.check_dir)])
        if code != 0:
            return _fail(f"report on the subsample exited {code}")
        got = json.loads((self.check_dir / "summary.json").read_text())["auroc"]
        want = _brute_auroc(vac[True], vac[False])
        if abs(got - want) > 1e-12:
            return _fail(f"subsample AUROC {got!r} != pairwise count {want!r}")
        return True


WORKLOADS = {
    "train-red": TrainWorkload,
    "train-relu-wide": TrainWorkload,
    "gradcheck": GradcheckWorkload,
    "score": ScoreWorkload,
}


def _run_op(workload, tracer=None):
    """(seconds, scaled seconds, passed) for one op; an op that raises counts
    as failed.

    The op is bracketed by the host-speed reference kernel, which gives its
    time at the reference speed. With a tracer, the op runs under the
    benchmark's op span with the layer wrappers installed; the output check
    always runs untraced.
    """
    before = hostspeed.reference_s()
    if tracer is not None:
        tracer.reset()
        tracer.install(workload.entries)
    ok = True
    t = time.perf_counter()
    try:
        out = tracer.op_span(workload.op) if tracer is not None else workload.op()
    except Exception:
        traceback.print_exc()
        ok = False
    finally:
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
    scaled = hostspeed.scale(dt, before, hostspeed.reference_s())
    if ok:
        try:
            ok = bool(workload.check(out))
        except Exception:
            traceback.print_exc()
            ok = False
    return dt, scaled, ok


def _timed(workload, seconds: float) -> dict:
    times, scaled, failed = [], [], 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        dt, sc, ok = _run_op(workload)
        times.append(dt)
        scaled.append(sc)
        failed += not ok
    return {"op_times": times, "op_scaled": scaled, "failed": failed}


def _traced(workload, seconds: float, spans_out: str | None) -> dict:
    """Alternate untraced and traced ops; per-layer numbers from traced ones."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, rows, failed = [], [], [], 0
    last = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            dt, sc, ok = _run_op(workload)
            plain.append((dt, sc))
        else:
            dt, sc, ok = _run_op(workload, tracer)
            traced.append((dt, sc))
            if ok:
                rows.append(layer_metrics(tracer, workload.items))
                last = tracer.arrays()
        failed += not ok
    if spans_out and last is not None:
        np.savez(spans_out, names=np.array(tracer.names), **last)
    layers = {}
    if rows:
        # All numbers from one op, the traced op of median wall time, so the
        # layer self times add up to its wall time exactly.
        layers = sorted(rows, key=lambda r: r["op.traced_s"])[(len(rows) - 1) // 2]
        # Scaled times, so that a change of host speed between the
        # alternating ops does not show as overhead.
        layers["trace.overhead"] = statistics.median(sc for _, sc in traced) / statistics.median(
            sc for _, sc in plain
        )
    return {"op_times": [dt for dt, _ in plain + traced], "failed": failed, "layers": layers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spec", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    spec = json.loads(Path(args.spec).read_text())
    sys.path.insert(0, spec["src"])
    workload = WORKLOADS[spec["workload"]](spec)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    # The set-up has no kernel run before it (the kernel needs NumPy), so
    # its reference time is the mean of three runs after it.
    setup_scaled = hostspeed.scale(setup_s, *(hostspeed.reference_s() for _ in range(3)))
    import evidkit

    if not Path(evidkit.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise RuntimeError(f"evidkit imported from {evidkit.__file__}, not from {spec['src']}")

    result = {"setup_s": setup_s, "setup_scaled": setup_scaled, "items_per_op": workload.items}
    if not args.setup_only:
        if args.trace:
            result.update(_traced(workload, args.seconds, args.spans_out))
        else:
            result.update(_timed(workload, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

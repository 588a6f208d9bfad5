"""Command-line entry point.

Subcommands: gen-data, train, evaluate, gradcheck, sweep, census, report.
Exit codes: 0 success, 1 validation error, 2 runtime failure. All numeric
output uses 17 significant digits. EVIDKIT_OUT sets the default output
directory for commands that take --out DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .datasets import save_csv
from .evidence import Activation
from .gradcheck import DEFAULT_CASES, DEFAULT_H, DEFAULT_SEED, DEFAULT_TOL, RED, run_grid
from .losses import Loss
from .metrics import (
    CensusBuckets,
    RecordColumns,
    accuracy_vacuity_curve,
    auroc,
    evidence_census,
    save_records,
    topk_confident_accuracy,
    vacuity_summary,
)
from .network import load_checkpoint, save_checkpoint
from .regularizers import IncReg
from .trainer import (
    ConfigError,
    DataConfig,
    ExperimentConfig,
    _check_types,
    _member,
    evaluate,
    run_experiment,
    save_epoch_csv,
    sweep,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise _UsageError(message)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("EVIDKIT_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_config(path: str) -> dict:
    """The JSON object in a config file; any other content is a ConfigError."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {p}: expected a JSON object")
    return doc


def _load_config(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig.from_dict(_read_config(path))
    cfg.validate()
    return cfg


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated numbers, got {text!r}") from None


def cmd_gen_data(args) -> int:
    cfg = DataConfig(
        kind=args.kind,
        d=args.d,
        seed=args.seed,
        k=args.k,
        n_per_class=args.n_per_class,
        stddev=args.stddev,
        radius=args.radius,
        shift=_parse_floats(args.shift, "--shift") if args.shift else None,
    )
    cfg.validate("dataset")
    ds = cfg.build()
    save_csv(ds, args.out)
    print(f"wrote {ds.n} samples (K={ds.k}, D={ds.d}, ood={ds.ood}) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args)
    result = run_experiment(cfg)
    records, ood = result.columns, result.ood_columns
    # every metric is computed before the first file is written, so a run
    # whose metrics fail leaves no partial output
    metrics = {
        "name": cfg.name,
        "final_train_acc": result.final_train_acc,
        "final_test_acc": result.final_test_acc,
        "census": evidence_census(records).as_dict(),
        "mean_vacuity": vacuity_summary(records)[0],
    }
    if ood is not None:
        metrics["mean_vacuity_ood"] = ood.mean_vacuity
        metrics["auroc_vacuity"] = auroc(ood.vacuity, records.vacuity)
    save_epoch_csv(result.logs, cfg.zero_ev_taus, out / "epochs.csv")
    save_checkpoint(result.net, out / "checkpoint.json")
    save_records(records, out / "records.csv")
    if ood is not None:
        save_records(ood, out / "ood_records.csv")
    (out / "metrics.json").write_text(json.dumps(metrics, indent=1))
    print(f"final test accuracy: {_fmt(result.final_test_acc)}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    net = load_checkpoint(args.checkpoint)
    data = DataConfig(kind="csv", path=args.data)
    data.validate("data")
    ds = data.build()
    act = Activation(args.activation)
    records = evaluate(net, ds, act, baseline=args.baseline)
    out = Path(args.out) if args.out else _out_dir(args) / "records.csv"
    save_records(records, out)
    print(f"evaluated {len(records)} samples, accuracy {_fmt(records.accuracy)}, records at {out}")
    return EXIT_OK


def _grid_reg(name) -> str:
    """A gradcheck regularizer label: an IncReg value or RED."""
    return name if name == RED else IncReg(name).value


def cmd_gradcheck(args) -> int:
    doc = _read_config(args.config) if args.config else {}
    where = f"config {args.config}: "
    names = {"losses": Loss, "activations": Activation, "regularizers": _grid_reg}
    fields = {"samples": "int", "h": "float", "tol": "float"} | dict.fromkeys(names, "list")
    _check_types(fields, doc, where)
    grid = {
        k: [_member(parse, v, where + k, "name") for v in doc[k]]
        for k, parse in names.items()
        if k in doc
    }
    samples = args.samples if args.samples is not None else doc.get("samples", DEFAULT_CASES)
    h = args.h if args.h is not None else float(doc.get("h", DEFAULT_H))
    tol = args.tol if args.tol is not None else float(doc.get("tol", DEFAULT_TOL))
    # each value is reported by where it came from: its flag, else the config
    settings = ("samples", "h", "tol")
    name = {k: f"--{k}" if getattr(args, k) is not None else where + k for k in settings}
    if samples < 1:
        raise ConfigError(f"{name['samples']}: must be >= 1")
    # NaN fails both comparisons; an infinite tol would pass every cell
    if not 0 < h < math.inf:
        raise ConfigError(f"{name['h']}: must be finite and > 0")
    if not 0 < tol < math.inf:
        raise ConfigError(f"{name['tol']}: must be finite and > 0")
    results = run_grid(
        losses=grid.get("losses"),
        acts=grid.get("activations"),
        regs=grid.get("regularizers"),
        n_cases=samples,
        h=h,
        tol=tol,
        seed=args.seed,
        corrupt=args.corrupt,
    )
    failed = []
    for cell in results:
        status = "ok" if cell.passed else "FAIL"
        print(
            f"{status:4s} {cell.name:32s} cases={cell.n_cases} "
            f"max_rel_err={_fmt(cell.max_err)} skipped_coords={cell.n_skipped}"
        )
        if not cell.passed:
            failed.append(cell)
    if failed:
        worst = max(failed, key=lambda c: c.max_err)
        print(
            f"error: gradient check failed for {worst.name} "
            f"(max_rel_err={_fmt(worst.max_err)}; worst case {worst.worst_detail})",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    print(f"all {len(results)} cells passed (tol={_fmt(tol)}, h={_fmt(h)})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    grid = _parse_floats(args.grid, "--grid")
    if not grid:
        raise ConfigError("--grid: must be nonempty")
    if args.workers < 1:
        raise ConfigError("--workers: must be >= 1")
    out = _out_dir(args)
    rows = sweep(cfg, grid, workers=args.workers)
    census_cols = ",".join(f"census_{c}" for c in CensusBuckets.COLUMNS)
    lines = [f"lambda1,seed,final_train_acc,final_test_acc,{census_cols},mean_test_vacuity"]
    for row in rows:
        census = ",".join(map(str, row.census.as_dict().values()))
        lines.append(
            f"{_fmt(row.lambda1)},{row.seed},{_fmt(row.final_train_acc)},"
            f"{_fmt(row.final_test_acc)},{census},{_fmt(row.mean_test_vacuity)}"
        )
        print(
            f"lambda1={row.lambda1:g}: train_acc={_fmt(row.final_train_acc)} "
            f"test_acc={_fmt(row.final_test_acc)}"
        )
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"sweep table at {out / 'sweep.csv'}")
    return EXIT_OK


def _write_census(census: CensusBuckets, path: Path) -> None:
    counts = census.as_dict()
    rows = ([*counts, "n"], [*counts.values(), census.n])
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))


def cmd_census(args) -> int:
    census = evidence_census(RecordColumns.load(args.records))
    out = Path(args.out) if args.out else _out_dir(args) / "census.csv"
    _write_census(census, out)
    print(f"census of {census.n} records at {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    records = RecordColumns.load(args.records)
    ood = RecordColumns.load(args.ood_records) if args.ood_records else None
    out = _out_dir(args)
    thresholds = _parse_floats(args.thresholds, "--thresholds") if args.thresholds else None
    fractions = _parse_floats(args.fractions, "--fractions") if args.fractions else None

    curve = accuracy_vacuity_curve(records, thresholds)
    lines = ["threshold,coverage,accuracy"]
    for t, cov, acc in curve:
        lines.append(f"{_fmt(t)},{_fmt(cov)},{'' if acc is None else _fmt(acc)}")
    (out / "accuracy_vacuity.csv").write_text("\n".join(lines) + "\n")

    topk = topk_confident_accuracy(records, fractions)
    lines = ["fraction,count,accuracy"]
    for f, acc in topk:
        count = int(np.ceil(f * len(records)))
        lines.append(f"{_fmt(f)},{count},{_fmt(acc)}")
    (out / "topk.csv").write_text("\n".join(lines) + "\n")

    _write_census(evidence_census(records), out / "census.csv")

    # InD and OOD are told apart by each record's flag, in either file
    mean_ind, mean_ood = vacuity_summary(records, ood)
    summary = {
        "n": len(records),
        "n_ood": 0 if ood is None else len(ood),
        "accuracy": records.accuracy,
        "mean_vacuity_ind": mean_ind,
        "mean_vacuity_ood": mean_ood,
        "auroc": None,
        "score_kind": None,
    }
    if mean_ood is not None:
        sets = [c for c in (records, ood) if c is not None]
        softmax = not any(np.isnan(c.max_softmax).any() for c in sets)
        summary["score_kind"] = "one_minus_max_softmax" if softmax else "vacuity"
        scores = [(1.0 - c.max_softmax if softmax else c.vacuity, c.is_ood) for c in sets]
        summary["auroc"] = auroc(
            np.concatenate([s[flag] for s, flag in scores]),
            np.concatenate([s[~flag] for s, flag in scores]),
        )
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    print(f"report written to {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="evidkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset CSV plus metadata sidecar")
    p.add_argument("--kind", required=True, choices=["toy4", "blobs"])
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--d", type=int, default=DataConfig.d)
    p.add_argument("--seed", type=int, default=DataConfig.seed)
    p.add_argument("--k", type=int, default=DataConfig.k)
    p.add_argument("--n-per-class", type=int, default=DataConfig.n_per_class)
    p.add_argument("--stddev", type=float, default=DataConfig.stddev)
    p.add_argument("--radius", type=float, default=DataConfig.radius)
    p.add_argument("--shift", help="comma-separated translation; marks the set OOD")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (default: EVIDKIT_OUT or .)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--activation", default="exp", choices=[a.value for a in Activation])
    p.add_argument("--baseline", action="store_true", help="softmax-baseline records")
    p.add_argument("--out", help="records CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    p.add_argument("--config", help="optional JSON narrowing the grid")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--corrupt", help="cell loss:act:reg to fault-inject (self-test)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="run a lambda1 sweep from a base config")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="comma-separated lambda1 values")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="output directory (default: EVIDKIT_OUT or .)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("census", help="zero-evidence census of a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out", help="census CSV path")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("report", help="metric files from records (and optional OOD records)")
    p.add_argument("--records", required=True)
    p.add_argument("--ood-records")
    p.add_argument("--out", help="output directory (default: EVIDKIT_OUT or .)")
    p.add_argument("--thresholds", help="accuracy-vacuity thresholds, comma-separated")
    p.add_argument("--fractions", help="top-K fractions, comma-separated")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

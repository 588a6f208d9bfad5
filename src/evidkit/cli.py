"""Command-line entry point.

Subcommands: gen-data, train, evaluate, gradcheck, sweep, census, report.
Exit codes: 0 success, 1 validation error, 2 runtime failure. CSV files
and stdout give floats with 17 significant digits; JSON files give each
float as its shortest round-trip repr. EVIDKIT_OUT sets the default output
directory for commands that take --out DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from ._arrays import write_csv
from ._schema import member, read_object
from .datasets import save_csv
from .evidence import Activation
from .gradcheck import DEFAULT_CASES, DEFAULT_H, DEFAULT_SEED, DEFAULT_TOL, RED, _check_settings, run_grid
from .losses import Loss
from .metrics import (
    CensusBuckets,
    RecordColumns,
    _ood_auroc,
    accuracy_vacuity_curve,
    evidence_census,
    save_records,
    topk_confident_accuracy,
    vacuity_summary,
)
from .network import load_checkpoint, save_checkpoint
from .regularizers import IncReg
from .trainer import (
    ConfigError, DataConfig, ExperimentConfig, _check_lambda1, evaluate, run_experiment,
    save_epoch_csv, sweep,
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


def _load_config(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig.from_dict(read_object(path, "config"))
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
        "mean_vacuity": records.mean_vacuity,
    }
    if ood is not None:
        metrics["mean_vacuity_ood"] = ood.mean_vacuity
        # scored by vacuity in every arm, with the sides split as report splits them
        metrics["auroc_vacuity"] = _ood_auroc(records, ood, "vacuity")[1]
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
    where = f"config {args.config}: "
    names = {"losses": Loss, "activations": Activation, "regularizers": _grid_reg}
    fields = dict.fromkeys(names, "list[str]")
    doc = read_object(args.config, "config", fields, ()) if args.config else {}
    grid = {
        k: [member(parse, v, where + k, "name") for v in doc[k]]
        for k, parse in names.items()
        if k in doc
    }
    _check_settings(args.samples, args.h, args.tol, args.seed, ["--samples", "--h", "--tol", "--seed"])
    results = run_grid(
        losses=grid.get("losses"),
        acts=grid.get("activations"),
        regs=grid.get("regularizers"),
        n_cases=args.samples,
        h=args.h,
        tol=args.tol,
        seed=args.seed,
        corrupt=args.corrupt,
    )
    if args.json:
        # one cell a line, max_err as float.hex(): the form of tests/data/gradcheck_n20_seed7.json
        rows = [json.dumps(dataclasses.asdict(c) | {"max_err": c.max_err.hex()}) for c in results]
        Path(args.json).write_text("[\n" + ",\n".join(rows) + "\n]\n")
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
    print(f"all {len(results)} cells passed (tol={_fmt(args.tol)}, h={_fmt(args.h)})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    grid = _check_lambda1(_parse_floats(args.grid, "--grid"), "--grid")
    out = _out_dir(args)
    rows = sweep(cfg, grid)
    for row in rows:
        print(
            f"lambda1={row.lambda1:g}: train_acc={_fmt(row.final_train_acc)} "
            f"test_acc={_fmt(row.final_test_acc)}"
        )
    header = ["lambda1", "seed", "final_train_acc", "final_test_acc"]
    header += [f"census_{c}" for c in CensusBuckets.COLUMNS] + ["mean_test_vacuity"]
    ints = np.array([(row.seed, *row.census.as_dict().values()) for row in rows], np.int64)
    f = np.array([(r.lambda1, r.final_train_acc, r.final_test_acc, r.mean_test_vacuity) for r in rows])
    write_csv(out / "sweep.csv", ",".join(header), [f[:, 0], ints[:, 0], f[:, 1:3], ints[:, 1:], f[:, 3]])
    print(f"sweep table at {out / 'sweep.csv'}")
    return EXIT_OK


def _write_census(census: CensusBuckets, path: Path) -> None:
    counts = census.as_dict()
    write_csv(path, ",".join([*counts, "n"]), [np.array([[*counts.values(), census.n]])])


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

    # an accuracy of None becomes NaN, an empty field
    curve = np.array(accuracy_vacuity_curve(records, thresholds), float).reshape(-1, 3)
    write_csv(out / "accuracy_vacuity.csv", "threshold,coverage,accuracy", list(curve.T))

    f, acc = np.array(topk_confident_accuracy(records, fractions), float).reshape(-1, 2).T
    count = np.ceil(f * len(records)).astype(np.int64)
    write_csv(out / "topk.csv", "fraction,count,accuracy", [f, count, acc])

    _write_census(evidence_census(records), out / "census.csv")

    # InD and OOD are told apart by each record's flag, in either file
    mean_ind, mean_ood = vacuity_summary(records, ood)
    score_kind, score = _ood_auroc(records, ood)
    summary = {
        "n": len(records),
        "n_ood": 0 if ood is None else len(ood),
        "accuracy": records.accuracy,
        "mean_vacuity_ind": mean_ind,
        "mean_vacuity_ood": mean_ood,
        "auroc": score,
        "score_kind": score_kind,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    print(f"report written to {out}")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was
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
    p.add_argument("--samples", type=int, default=DEFAULT_CASES)
    p.add_argument("--h", type=float, default=DEFAULT_H)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--corrupt", help="cell loss:act:reg to fault-inject (self-test)")
    p.add_argument("--json", help="also write every cell's result to this JSON file")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="run a lambda1 sweep from a base config")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="comma-separated lambda1 values")
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
    except (RuntimeError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

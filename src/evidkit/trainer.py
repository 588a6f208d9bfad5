"""Experiment orchestration: declarative configs, a deterministic training
loop with per-epoch logging, held-out/OOD evaluation, and lambda1 sweeps.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import BlobSpec, Dataset, circle_means, load_csv, make_blobs, make_ood_shift, make_toy4
from .evidence import Activation, evidence_state, predict_class
from .losses import Loss, softmax
from .metrics import CENSUS_THRESHOLDS, CensusBuckets, RecordColumns, _count_at_most, evidence_census
from .network import (
    Network,
    OptKind,
    OptimizerState,
    backward,
    dense_specs,
    forward,
    init_network,
    step,
)
from .regularizers import IncReg, anneal_eta1, composite_loss

__all__ = [
    "ConfigError",
    "DataConfig",
    "OptConfig",
    "ExperimentConfig",
    "EpochLog",
    "RunResult",
    "SweepRow",
    "run_experiment",
    "evaluate",
    "sweep",
    "derive_sweep_seed",
    "epoch_csv_header",
    "save_epoch_csv",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


# Value types accepted per field annotation; a bool is never taken for a number.
_JSON_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool, "list": list}


def _matches(kind: str, value) -> bool:
    """Whether value fits the annotation kind; list[T] checks every element,
    and annotations with no JSON type pass."""
    if kind.startswith("list[") and kind.endswith("]"):
        return isinstance(value, list) and all(_matches(kind[5:-1], v) for v in value)
    if kind not in _JSON_TYPES:
        return True
    ok = isinstance(value, _JSON_TYPES[kind]) and (kind == "bool" or not isinstance(value, bool))
    # a float must be finite: JSON may spell NaN, Infinity or 1e400
    return ok and (kind != "float" or abs(value) <= sys.float_info.max)


def _check_types(types: dict, doc: dict, where: str) -> None:
    """ConfigError naming the first field of doc not in types, else the first that
    does not match its annotation; None matches an optional one, and other
    annotations pass."""
    extra = doc.keys() - types
    if extra:
        raise ConfigError(f"{where}{sorted(extra)[0]}: unknown field")
    for name, value in doc.items():
        kind, _, optional = types[name].partition(" | ")
        if not (value is None and optional) and not _matches(kind, value):
            expected = kind.replace("float", "finite float")
            raise ConfigError(f"{where}{name}: expected {expected}, got {value!r}")


def _member(enum, value, where: str, what: str):
    """enum(value), or a ConfigError naming the field and the bad value."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(f"{where}: unknown {what} {value!r}") from None


@dataclass
class DataConfig:
    """Declarative dataset description: toy4, blobs, or a CSV file."""

    kind: str
    d: int = 2
    seed: int = 0
    k: int = 4
    n_per_class: int = 50
    stddev: float = 1.0
    radius: float = 6.0
    means: list[list[float]] | None = None  # explicit (K, D) means; otherwise circle placement
    shift: list[float] | None = None  # translation marking the set out-of-distribution
    path: str | None = None  # CSV path for kind="csv"

    def validate(self, where: str) -> None:
        if self.kind not in ("toy4", "blobs", "csv"):
            raise ConfigError(f"{where}.kind: expected toy4, blobs, or csv, got {self.kind!r}")
        if self.kind == "csv":
            if not self.path:
                raise ConfigError(f"{where}.path: required for kind=csv")
            if not Path(self.path).exists():
                raise ConfigError(f"{where}.path: dataset file not found: {self.path}")
            return
        if self.d < 2:
            raise ConfigError(f"{where}.d: must be >= 2")
        if self.kind == "blobs":
            if self.k < 2:
                raise ConfigError(f"{where}.k: must be >= 2")
            if self.n_per_class < 1:
                raise ConfigError(f"{where}.n_per_class: must be >= 1")
            if self.stddev <= 0:
                raise ConfigError(f"{where}.stddev: must be > 0")
            if self.means is not None:
                # row by row, so ragged means are named here, not by NumPy
                if [np.shape(row) for row in self.means] != [(self.d,)] * self.k:
                    raise ConfigError(f"{where}.means: expected shape ({self.k}, {self.d})")
        if self.shift is not None:
            s = np.asarray(self.shift, dtype=float)
            if s.shape != (self.d,):
                raise ConfigError(f"{where}.shift: expected {self.d} components")

    def build(self) -> Dataset:
        if self.kind == "toy4":
            return make_toy4(self.d, self.seed)
        if self.kind == "blobs":
            means = (
                np.asarray(self.means, dtype=float)
                if self.means is not None
                else circle_means(self.k, self.d, self.radius)
            )
            spec = BlobSpec(
                k=self.k, means=means, stddev=self.stddev, n_per_class=self.n_per_class,
                seed=self.seed,
            )
            if self.shift is not None:
                return make_ood_shift(spec, np.asarray(self.shift, dtype=float))
            return make_blobs(spec)
        return load_csv(self.path)


@dataclass
class OptConfig:
    kind: str = "sgd_momentum"
    lr: float = 0.1
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self, where: str = "optimizer") -> None:
        _member(OptKind, self.kind, f"{where}.kind", "optimizer")
        # OptimizerState holds the ranges of the fields; its messages lead with the field
        try:
            self.build()
        except ValueError as err:
            raise ConfigError(f"{where}.{err}") from None

    def build(self) -> OptimizerState:
        return OptimizerState(**dataclasses.asdict(self))


@dataclass
class ExperimentConfig:
    name: str
    train_data: DataConfig
    test_data: DataConfig | None = None
    ood_data: DataConfig | None = None
    hidden_dims: list[int] = field(default_factory=lambda: [16])
    loss: str = "ev_mse"
    activation: str = "exp"
    inc_reg: str = "none"
    lambda1: float = 0.0
    use_correct_reg: bool = False
    optimizer: OptConfig = field(default_factory=OptConfig)
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 1
    zero_ev_taus: list[float] = field(default_factory=lambda: list(CENSUS_THRESHOLDS))

    def validate(self) -> None:
        loss = _member(Loss, self.loss, "loss", "loss kind")
        act = _member(Activation, self.activation, "activation", "activation")
        inc = _member(IncReg, self.inc_reg, "inc_reg", "regularizer")
        if self.lambda1 < 0:
            raise ConfigError("lambda1: must be >= 0")
        if self.use_correct_reg and act != Activation.EXP:
            raise ConfigError("use_correct_reg: requires activation=exp")
        if loss == Loss.SOFTMAX_CE and (inc != IncReg.NONE or self.use_correct_reg):
            raise ConfigError("inc_reg: the softmax baseline takes no evidential regularizers")
        for name in ("epochs", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if not self.hidden_dims or any(int(h) < 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims: need at least one positive width")
        if any(t < 0 for t in self.zero_ev_taus):
            raise ConfigError("zero_ev_taus: thresholds must be >= 0")
        for name in ("train_data", "test_data", "ood_data"):
            if getattr(self, name) is not None:
                getattr(self, name).validate(name)
        self.optimizer.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        doc = dict(doc)

        def sub(cls, value, where):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object")
            _check_types({f.name: f.type for f in dataclasses.fields(cls)}, value, f"{where}.")
            return cls(**value)

        types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
        extra = doc.keys() - types
        if extra:
            raise ConfigError(f"config field {sorted(extra)[0]!r}: unknown field")
        if "train_data" not in doc:
            raise ConfigError("train_data: required")
        if "name" not in doc:
            raise ConfigError("name: required")
        _check_types(types, doc, "")
        for key in ("train_data", "test_data", "ood_data", "optimizer"):
            # a null optional config stays None; a null required one is rejected
            if key in doc and not (doc[key] is None and types[key].endswith("| None")):
                doc[key] = sub(OptConfig if key == "optimizer" else DataConfig, doc[key], key)
        return ExperimentConfig(**doc)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    zero_ev: dict  # tau -> count over the training set
    mean_vacuity: float


@dataclass
class RunResult:
    config: ExperimentConfig
    logs: list
    net: Network
    columns: RecordColumns  # last epoch's evaluation of the test set (train set if none)
    ood_columns: RecordColumns | None = None

    @property
    def records(self) -> list:
        """The final evaluation as SampleRecords, built on each access."""
        return self.columns.to_records()

    @property
    def ood_records(self) -> list | None:
        """The OOD evaluation as SampleRecords, built on each access."""
        return None if self.ood_columns is None else self.ood_columns.to_records()

    @property
    def final_train_acc(self) -> float:
        return self.logs[-1].train_acc

    @property
    def final_test_acc(self) -> float:
        return self.logs[-1].test_acc


def evaluate(
    net: Network, ds: Dataset, act: Activation, baseline: bool = False
) -> RecordColumns:
    """One record per sample, as columns; never mutates the network."""
    if net.out_dim != ds.k:
        raise ValueError(f"network emits {net.out_dim} logits but dataset has {ds.k} classes")
    logits = forward(net, ds.features)[0]
    st = evidence_state(act, logits)
    pred = logits.argmax(axis=1) if baseline else predict_class(st)
    max_sm = softmax(logits).max(axis=1) if baseline else np.full(ds.n, np.nan)
    mean_ev = st.evidence.sum(axis=1) / st.k
    return RecordColumns(pred, ds.labels, st.vacuity, mean_ev, max_sm, np.full(ds.n, ds.ood))


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Train per the config; deterministic for a fixed seed."""
    cfg.validate()
    train = cfg.train_data.build()
    test = cfg.test_data.build() if cfg.test_data is not None else None
    ood = cfg.ood_data.build() if cfg.ood_data is not None else None

    loss_kind = Loss(cfg.loss)
    act = Activation(cfg.activation)
    inc = IncReg(cfg.inc_reg)
    baseline = loss_kind == Loss.SOFTMAX_CE
    specs = dense_specs(train.d, [int(h) for h in cfg.hidden_dims], train.k)
    net_seed, shuffle_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(2)
    )
    net = init_network(specs, net_seed)
    opt = cfg.optimizer.build()
    shuffle_rng = np.random.default_rng(shuffle_seed)

    x, labels = train.features, train.labels
    n = train.n
    logs = []
    for epoch in range(cfg.epochs):
        eta1 = anneal_eta1(cfg.lambda1, epoch)
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = perm[start : start + cfg.batch_size]
            logits, cache = forward(net, x[rows])
            if not np.all(np.isfinite(logits)):
                raise RuntimeError(
                    f"non-finite logits at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            batch_loss, g = composite_loss(
                loss_kind, inc, act, logits, labels[rows],
                eta1=eta1, use_correct_reg=cfg.use_correct_reg,
            )
            # cumsum adds strictly left to right, keeping epochs.csv bit-stable.
            batch_loss = float(np.cumsum(batch_loss)[-1])
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            loss_sum += batch_loss
            step(net, opt, backward(net, cache, g / len(rows)))
        stats = evaluate(net, train, act, baseline)
        # the last epoch always evaluates, so columns end as the run's result
        if test is None:
            columns = stats
        elif epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            columns = evaluate(net, test, act, baseline)
        logs.append(
            EpochLog(
                epoch=epoch,
                train_loss=loss_sum / n,
                train_acc=stats.accuracy,
                test_acc=columns.accuracy,
                zero_ev=_count_at_most(stats, cfg.zero_ev_taus),
                mean_vacuity=stats.mean_vacuity,
            )
        )
    ood_columns = evaluate(net, ood, act, baseline) if ood is not None else None
    return RunResult(config=cfg, logs=logs, net=net, columns=columns, ood_columns=ood_columns)


def epoch_csv_header(taus) -> str:
    zero_cols = ",".join(f"zero_ev_{repr(float(t))}" for t in taus)
    return f"epoch,train_loss,train_acc,test_acc,{zero_cols},mean_vacuity"


def save_epoch_csv(logs, taus, path) -> None:
    lines = [epoch_csv_header(taus)]
    for log in logs:
        zero = ",".join(str(log.zero_ev[float(t)]) for t in taus)
        lines.append(
            f"{log.epoch},{log.train_loss:.17g},{log.train_acc:.17g},"
            f"{log.test_acc:.17g},{zero},{log.mean_vacuity:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class SweepRow:
    lambda1: float
    seed: int
    final_train_acc: float
    final_test_acc: float
    census: CensusBuckets
    mean_test_vacuity: float


def derive_sweep_seed(base_seed: int, index: int) -> int:
    """Stable per-grid-point seed, independent of worker scheduling."""
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


def _sweep_point(args: tuple) -> SweepRow:
    base, lam, index = args
    cfg = dataclasses.replace(
        base, lambda1=lam, seed=derive_sweep_seed(base.seed, index), name=f"{base.name}-lam{lam:g}"
    )
    result = run_experiment(cfg)
    return SweepRow(
        lambda1=float(lam),
        seed=cfg.seed,
        final_train_acc=result.final_train_acc,
        final_test_acc=result.final_test_acc,
        census=evidence_census(result.columns),
        mean_test_vacuity=result.columns.mean_vacuity,
    )


def sweep(base: ExperimentConfig, grid, workers: int = 1) -> list:
    """Run one experiment per lambda1 grid point; rows come back in grid order."""
    grid = [float(g) for g in grid]
    if not grid:
        raise ConfigError("sweep grid: must be nonempty")
    base.validate()
    args = [(base, lam, i) for i, lam in enumerate(grid)]
    if workers <= 1:
        return [_sweep_point(a) for a in args]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(_sweep_point, args)

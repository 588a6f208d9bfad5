"""Experiment orchestration: declarative configs, a deterministic training
loop with per-epoch logging, held-out/OOD evaluation, and lambda1 sweeps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._arrays import all_finite
from ._csv import write_csv
from ._schema import ConfigError, check_fields, member
from .datasets import BlobSpec, Dataset, circle_means, load_csv, make_blobs, make_ood_shift, make_toy4
from .evidence import Activation, evidence_state, predict_class
from .losses import Loss, softmax
from .metrics import CENSUS_THRESHOLDS, RecordColumns, _count_at_most, evidence_census
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


# The fields each data kind reads; DataConfig.validate holds every other field at its default.
_KIND_READS = {
    "toy4": ("d", "seed"),
    "blobs": ("d", "seed", "k", "n_per_class", "stddev", "radius", "means", "shift"),
    "csv": ("path",),
}


@dataclass
class DataConfig:
    """Declarative dataset description: toy4, blobs, or a CSV file. A field its
    kind does not read (_KIND_READS) must keep its default, and one equal to its
    default counts as unset; every default passes every range rule."""

    kind: str
    d: int = 2
    seed: int = 0
    k: int = 4
    n_per_class: int = 50
    stddev: float = 1.0
    radius: float = 6.0
    means: list[list[float]] | None = None  # explicit (K, D) means; otherwise circle placement
    shift: list[float] | None = None  # translation marking the set out-of-distribution
    path: str | None = None

    def validate(self, where: str) -> None:
        if self.kind not in _KIND_READS:
            raise ConfigError(f"{where}.kind: expected toy4, blobs, or csv, got {self.kind!r}")
        for f in dataclasses.fields(self)[1:]:
            value = getattr(self, f.name)
            is_set = value is not None if f.default is None else value != f.default
            if is_set and f.name not in _KIND_READS[self.kind]:
                kinds = " or ".join(kind for kind, reads in _KIND_READS.items() if f.name in reads)
                raise ConfigError(f"{where}.{f.name}: only {kinds} data takes {f.name}")
        if self.kind == "csv" and not self.path:
            raise ConfigError(f"{where}.path: required for kind=csv")
        if self.path and not Path(self.path).is_file():
            raise ConfigError(f"{where}.path: dataset file not found: {self.path}")
        if self.seed < 0:
            raise ConfigError(f"{where}.seed: must be >= 0")
        if self.d < 2:
            raise ConfigError(f"{where}.d: must be >= 2")
        if self.k < 2:
            raise ConfigError(f"{where}.k: must be >= 2")
        if self.n_per_class < 1:
            raise ConfigError(f"{where}.n_per_class: must be >= 1")
        if not 0 < self.stddev < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"{where}.stddev: must be > 0 and finite")
        if not np.isfinite(self.radius):
            raise ConfigError(f"{where}.radius: must be finite")
        if self.means is not None:
            # row by row, so ragged means are named here, not by NumPy
            if [np.shape(row) for row in self.means] != [(self.d,)] * self.k:
                raise ConfigError(f"{where}.means: expected shape ({self.k}, {self.d})")
            if not np.isfinite(np.asarray(self.means, dtype=float)).all():
                raise ConfigError(f"{where}.means: must be finite")
        if self.shift is not None:
            s = np.asarray(self.shift, dtype=float)
            if s.shape != (self.d,):
                raise ConfigError(f"{where}.shift: expected {self.d} components")
            if not np.isfinite(s).all():
                raise ConfigError(f"{where}.shift: must be finite")

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
    momentum: float = OptimizerState.momentum
    beta1: float = OptimizerState.beta1
    beta2: float = OptimizerState.beta2
    eps: float = OptimizerState.eps

    def validate(self, where: str = "optimizer") -> None:
        member(OptKind, self.kind, f"{where}.kind", "optimizer")
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
        loss = member(Loss, self.loss, "loss", "loss kind")
        act = member(Activation, self.activation, "activation", "activation")
        inc = member(IncReg, self.inc_reg, "inc_reg", "regularizer")
        _check_lambda1([self.lambda1], "lambda1")
        if self.use_correct_reg and act != Activation.EXP:
            raise ConfigError("use_correct_reg: requires activation=exp")
        if loss == Loss.SOFTMAX_CE and (inc != IncReg.NONE or self.use_correct_reg):
            raise ConfigError("inc_reg: the softmax baseline takes no evidential regularizers")
        for name in ("epochs", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if not self.hidden_dims or any(int(h) < 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims: need at least one positive width")
        if any(not t >= 0 for t in self.zero_ev_taus):  # NaN fails the comparison
            raise ConfigError("zero_ev_taus: thresholds must be >= 0")
        # compared as floats, so 0.1 and 0.10, or 0.0 and -0.0, are one threshold
        if len(set(map(float, self.zero_ev_taus))) < len(self.zero_ev_taus):
            raise ConfigError("zero_ev_taus: thresholds must be distinct")
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
        return _from_dict(ExperimentConfig, doc, "")


def _from_dict(cls, doc: dict, where: str):
    """cls(**doc) once the rule has checked every field; an object is a nested
    config, built the same way. A field with no default is required."""
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]
    doc = dict(check_fields({f.name: f.type for f in fields}, doc, where, required))
    for f in fields:
        if isinstance(doc.get(f.name), dict):
            sub = OptConfig if f.name == "optimizer" else DataConfig
            doc[f.name] = _from_dict(sub, doc[f.name], f"{where}{f.name}.")
    return cls(**doc)


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
    return _records(forward(net, ds.features)[0], ds, act, baseline)


def _records(logits: np.ndarray, ds: Dataset, act: Activation, baseline: bool) -> RecordColumns:
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
    # a set the network cannot score is refused before any training
    for name, ds in (("test_data", test), ("ood_data", ood)):
        if ds is not None and ds.k != train.k:
            raise ConfigError(f"{name}: {ds.k} classes, but train_data has {train.k}")
        if ds is not None and ds.d != train.d:
            raise ConfigError(f"{name}: {ds.d} features per sample, but train_data has {train.d}")

    loss_kind = Loss(cfg.loss)
    act = Activation(cfg.activation)
    inc = IncReg(cfg.inc_reg)
    baseline = loss_kind == Loss.SOFTMAX_CE
    objective = (loss_kind, inc, act, cfg.use_correct_reg)
    specs = dense_specs(train.d, [int(h) for h in cfg.hidden_dims], train.k)
    net_seed, shuffle_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(2)
    )
    net = init_network(specs, net_seed)
    opt = cfg.optimizer.build()
    shuffle_rng = np.random.default_rng(shuffle_seed)

    def scored(ds: Dataset, name: str, epoch: int) -> RecordColumns:
        logits = forward(net, ds.features)[0]
        _check_finite(logits, f"logits at epoch {epoch}, evaluating {name}")
        return _records(logits, ds, act, baseline)

    x, labels = train.features, train.labels
    n = train.n
    logs = []
    for epoch in range(cfg.epochs):
        eta1 = anneal_eta1(cfg.lambda1, epoch)
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            rows = perm[start : start + cfg.batch_size]
            batch_loss, _, grad = _mini_batch(
                net, x[rows], labels[rows], objective, eta1, f"at epoch {epoch}, batch {batch}"
            )
            loss_sum += batch_loss
            try:
                step(net, opt, grad)
            except ValueError as err:  # backward's vector fits the net: an entry is not finite
                raise RuntimeError(f"{err} at epoch {epoch}, batch {batch}") from None
        stats = scored(train, "train_data", epoch)
        # the last epoch always evaluates, so columns end as the run's result
        if test is None:
            columns = stats
        elif epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            columns = scored(test, "test_data", epoch)
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
    ood_columns = scored(ood, "ood_data", cfg.epochs - 1) if ood is not None else None
    return RunResult(config=cfg, logs=logs, net=net, columns=columns, ood_columns=ood_columns)


def _mini_batch(net: Network, x: np.ndarray, gt: np.ndarray, objective: tuple, eta1, where: str):
    """One mini-batch up to the optimizer step: the forward pass, the
    finiteness checks, the objective (loss kind, regularizer, activation,
    correct-evidence flag) at weight eta1, the batch loss and the backward
    pass. Returns the batch loss, summed left to right as epochs.csv has
    always had it, the objective's logit gradient (one row per sample) and
    backward's gradient vector of the batch-mean loss, which step takes. A
    non-finite logit or loss is a runtime failure that names `where` the batch is."""
    loss_kind, inc, act, use_correct_reg = objective
    logits, cache = forward(net, x)
    _check_finite(logits, f"logits {where}")
    loss, g = composite_loss(loss_kind, inc, act, logits, gt, eta1=eta1, use_correct_reg=use_correct_reg)
    batch_loss = float(np.add.accumulate(loss)[-1])
    if not math.isfinite(batch_loss):
        raise RuntimeError(f"non-finite loss {where}")
    return batch_loss, g, backward(net, cache, g / len(x))


def _check_finite(x, what: str) -> None:
    """A run that diverges is a runtime failure that says where it was found."""
    if not all_finite(np.asarray(x)):
        raise RuntimeError(f"non-finite {what}")


def epoch_csv_header(taus) -> str:
    zero_cols = [f"zero_ev_{repr(float(t))}" for t in taus]
    return ",".join(["epoch", "train_loss", "train_acc", "test_acc", *zero_cols, "mean_vacuity"])


def save_epoch_csv(logs, taus, path) -> None:
    """Write epochs.csv: one row per EpochLog, floats as "%.17g" writes them."""
    ints = [(log.epoch, *(log.zero_ev[float(t)] for t in taus)) for log in logs]
    ints = np.array(ints, np.int64).reshape(len(logs), 1 + len(taus))
    floats = [(log.train_loss, log.train_acc, log.test_acc, log.mean_vacuity) for log in logs]
    floats = np.array(floats, float).reshape(len(logs), 4)
    write_csv(path, epoch_csv_header(taus), [ints[:, 0], floats[:, :3], ints[:, 1:], floats[:, 3]])


@dataclass
class SweepRow:
    lambda1: float
    seed: int
    final_train_acc: float
    final_test_acc: float
    census: dict[str, int]  # evidence_census(RunResult.columns)
    mean_test_vacuity: float


def derive_sweep_seed(base_seed: int, index: int) -> int:
    """Stable per-grid-point seed: it depends only on the base seed and the index."""
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


def _sweep_point(base: ExperimentConfig, lam: float, index: int) -> SweepRow:
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


def _check_lambda1(values, name: str) -> list[float]:
    """The lambda1 rule for a config's value or a sweep's whole grid, checked
    before any point runs: nonempty, each value >= 0 and finite."""
    values = [float(v) for v in values]
    if not values:
        raise ConfigError(f"{name}: must be nonempty")
    for lam in values:
        if not 0 <= lam < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"{name}: must be >= 0 and finite, got {lam!r}")
    return values


def sweep(base: ExperimentConfig, grid) -> list:
    """One row per lambda1 grid point, in grid order, each run in this process."""
    grid = _check_lambda1(grid, "sweep grid")
    base.validate()
    return [_sweep_point(base, lam, i) for i, lam in enumerate(grid)]

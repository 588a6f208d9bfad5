"""Layer microbenchmarks: the fixed cost of one training mini-batch, piece by
piece, and the read path's two CSV loaders.

The file name keeps it out of the collected suite, which runs it once untimed
through tests/test_bench_layers.py. Time it with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_layers.py --benchmark-only

It times the rb-red objective on one (32, 5) mini-batch, the special-function
kernel on the (32, 5) argument that objective passes it (the 4 non-gt
alpha~ and A per row) and on the (4020, 100) argument of one K = 100 group
of the gradient oracle (20 ev_log:exp:edl_kl cases), one Adam step on a
small (2 -> 16 -> 5) and a wide (64 -> 1024 -> 1024 -> 10) network, with
the gradient vector backward returns, forward + backward + step together on
the small network (batch 32, Adam), one whole rb-red training mini-batch at
eta1 = 1 on that network (the trainer's mini-batch function, then step),
gate 05's single-sample pair (evidence_state under ReLU at K = 5, then
loss_ev_mse), and one (cell, K) group of the gradient oracle at K = 5 for
each of two cells: 12 ev_log:exp:edl_kl cases, and 12 ev_ce:exp:none cases,
whose objective makes one kernel call on [S, alpha_gt], and one cell's case
draws in the oracle (50 ev_log:exp:edl_kl cases over DEFAULT_KS, from one
rng.random block), and the oracle's whole grid as the
benchmark's gradcheck workload runs it (all 39 cells, 50 cases each). It also times
load_csv and RecordColumns.load on 30,000 rows each,
written as save_csv and save_records write them: a D = 2 dataset, evidential
records with no max_softmax, and softmax-baseline records with every
max_softmax present; and it times save_csv and save_records writing those
same rows back, and save_records writing the 30,000 softmax-baseline records,
so the writer's filled and all-empty float columns are both timed.
It times load_checkpoint on a 2 -> 300 -> 200 -> 5 network (62,105
parameters, the shape of the trainer's blocked-step pin), whose reading is
mostly the JSON parse and the type check of every weight. And it times the
vacuity AUROC that `report --ood-records` computes in the benchmark's score
workload: 30,000 OOD rows ranked against 30,000 in-distribution rows, scored
by that workload's recipe (the criterion-08 model on its blobs). Last, it
times one epoch of the benchmark's train-relu-wide recipe (64 -> 1024 ->
1024 -> 10, ev_mse under ReLU, Adam at lr 0.001, batch 256) on a fixed
1000-row blob set: run_experiment at one epoch, so the blobs and the
network are built too, then four mini-batches and the scoring pass.
"""

import dataclasses
import math
import zlib

import numpy as np
import pytest

from evidkit import regularizers, trainer
from evidkit.datasets import Dataset, load_csv, save_csv
from evidkit.evidence import Activation, evidence_state
from evidkit.gradcheck import DEFAULT_KS, DEFAULT_SEED, _draw_cases, check_case, run_grid
from evidkit.losses import Loss, loss_ev_mse
from evidkit.metrics import RecordColumns, auroc, save_records
from evidkit.network import (
    OptimizerState,
    OptKind,
    backward,
    dense_specs,
    forward,
    init_network,
    load_checkpoint,
    save_checkpoint,
    step,
)
from evidkit.regularizers import IncReg, composite_loss
from evidkit.special import gamma_family
from evidkit.trainer import DataConfig, ExperimentConfig, OptConfig, evaluate, run_experiment


def test_composite_loss_rb_red(benchmark):
    rng = np.random.default_rng(0)
    o = rng.normal(size=(32, 5)) * 3.0
    gt = rng.integers(5, size=32)
    benchmark(
        composite_loss, Loss.EV_LOG, IncReg.EDL_KL, Activation.EXP, o, gt,
        eta1=1.0, use_correct_reg=True,
    )


def test_gamma_family(benchmark):
    rng = np.random.default_rng(0)  # the mini-batch of test_composite_loss_rb_red
    o = rng.normal(size=(32, 5)) * 3.0
    gt = rng.integers(5, size=32)
    seen = []  # the argument the objective's one kernel call passes: K-1 non-gt alpha~ and A
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularizers, "gamma_family", lambda z: seen.append(z) or gamma_family(z))
        composite_loss(Loss.EV_LOG, IncReg.EDL_KL, Activation.EXP, o, gt, eta1=1.0, use_correct_reg=True)
    [z] = seen
    assert z.shape == (32, 5)
    benchmark(gamma_family, z)


def test_gamma_family_k100_oracle_group(benchmark):
    rng = np.random.default_rng(7)
    o = rng.uniform(-4.0, 4.0, size=(20, 100))
    gt, epoch = rng.integers(100, size=20), rng.integers(1, 13, size=20)
    seen = []  # the argument the oracle's one objective call passes the kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularizers, "gamma_family", lambda z: seen.append(z) or gamma_family(z))
        check_case(Loss.EV_LOG, Activation.EXP, "edl_kl", o, gt, lambda1=1.0, epoch=epoch)
    [z] = seen
    assert z.shape == (4020, 100)
    benchmark(gamma_family, z)


@pytest.mark.parametrize(
    "in_dim, hidden, out_dim", [(2, [16], 5), (64, [1024, 1024], 10)], ids=["2-16-5", "wide"]
)
def test_adam_step(benchmark, in_dim, hidden, out_dim):
    net = init_network(dense_specs(in_dim, hidden, out_dim), seed=0)
    logits, cache = forward(net, np.random.default_rng(2).normal(size=(32, in_dim)))
    grad = backward(net, cache, logits / 32.0)
    # a tiny rate keeps the parameters near their start over many rounds
    benchmark(step, net, OptimizerState(kind=OptKind.ADAM_LIKE, lr=1e-9), grad)


def test_forward_backward_step_2_16_5(benchmark):
    # backward returns the gradient vector that step then walks whole, so work
    # moves between the two; compare their sum across commits, not each alone
    net = init_network(dense_specs(2, [16], 5), seed=0)
    x = np.random.default_rng(2).normal(size=(32, 2))
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=1e-9)

    def mini_batch():
        logits, cache = forward(net, x)
        step(net, opt, backward(net, cache, logits / 32.0))

    benchmark(mini_batch)


def test_rb_red_mini_batch_2_16_5(benchmark):
    # what run_experiment does per mini-batch of the train-red workload once
    # edl_kl is annealed in: forward, the rb-red objective, backward and step
    net = init_network(dense_specs(2, [16], 5), seed=0)
    rng = np.random.default_rng(5)
    x, gt = rng.normal(0.0, 6.0, size=(32, 2)), rng.integers(5, size=32)
    opt = OptimizerState(kind=OptKind.ADAM_LIKE, lr=1e-9)
    objective = (Loss.EV_LOG, IncReg.EDL_KL, Activation.EXP, True)

    def mini_batch():
        _, _, grad = trainer._mini_batch(net, x, gt, objective, 1.0, "in the benchmark")
        step(net, opt, grad)

    benchmark(mini_batch)


def test_gate_05_single_sample_pair(benchmark):
    # one iteration of criterion 05's loop: a (K,) state under ReLU, then ev_mse
    rng = np.random.default_rng(31337)
    e, gt = np.exp(rng.uniform(-30.0, 30.0, 5)), int(rng.integers(5))
    benchmark(lambda: loss_ev_mse(evidence_state(Activation.RELU, e), gt))


def test_check_case_group(benchmark):
    rng = np.random.default_rng(3)
    o = rng.uniform(-4.0, 4.0, size=(12, 5))
    gt, epoch = rng.integers(5, size=12), rng.integers(1, 13, size=12)
    lambda1 = rng.uniform(0.25, 2.0, size=12)
    benchmark(check_case, Loss.EV_LOG, Activation.EXP, "edl_kl", o, gt, lambda1=lambda1, epoch=epoch)


def test_check_case_group_ev_ce(benchmark):
    rng = np.random.default_rng(3)
    o = rng.uniform(-4.0, 4.0, size=(12, 5))
    gt = rng.integers(5, size=12)
    benchmark(check_case, Loss.EV_CE, Activation.EXP, "none", o, gt)


def test_draw_cases_one_cell(benchmark):
    # run_grid's draws for one cell: its generator, seeded as run_grid seeds it, then its cases
    entropy = [DEFAULT_SEED, zlib.crc32(b"ev_log:exp:edl_kl")]
    draws = benchmark(lambda: _draw_cases(np.random.default_rng(entropy), DEFAULT_KS, 50, Activation.EXP))
    assert len(draws[0]) == 50


def test_run_grid_workload_op(benchmark):
    # one op of the benchmark's gradcheck workload: the draws and every K stage of the grid
    cells = benchmark(run_grid, n_cases=50)
    assert len(cells) == 39 and all(cell.passed for cell in cells)


READ_ROWS = 30_000


@pytest.fixture(scope="module")
def read_path_files(tmp_path_factory):
    rng = np.random.default_rng(4)
    n = READ_ROWS
    out = tmp_path_factory.mktemp("read_path")
    save_csv(Dataset(rng.normal(0.0, 5.0, (n, 2)), rng.integers(0, 3, n), 3, "bench"), out / "data.csv")
    records = RecordColumns(
        predicted=rng.integers(0, 3, n),
        actual=rng.integers(0, 3, n),
        vacuity=rng.uniform(0.01, 1.0, n),
        mean_evidence=np.exp(rng.normal(size=n)),
        max_softmax=np.full(n, np.nan),
        is_ood=rng.random(n) < 0.5,
    )
    save_records(records, out / "records.csv")
    baseline = dataclasses.replace(records, max_softmax=rng.uniform(1 / 3, 1.0, n))
    save_records(baseline, out / "baseline_records.csv")
    return out


def test_load_csv(benchmark, read_path_files):
    benchmark(load_csv, read_path_files / "data.csv")


def test_record_columns_load(benchmark, read_path_files):
    benchmark(RecordColumns.load, read_path_files / "records.csv")


def test_record_columns_load_baseline(benchmark, read_path_files):
    benchmark(RecordColumns.load, read_path_files / "baseline_records.csv")


def test_save_csv(benchmark, read_path_files, tmp_path):
    benchmark(save_csv, load_csv(read_path_files / "data.csv"), tmp_path / "data.csv")


def test_save_records(benchmark, read_path_files, tmp_path):
    benchmark(save_records, RecordColumns.load(read_path_files / "records.csv"), tmp_path / "records.csv")


def test_save_records_baseline(benchmark, read_path_files, tmp_path):
    records = RecordColumns.load(read_path_files / "baseline_records.csv")
    benchmark(save_records, records, tmp_path / "records.csv")


def test_load_checkpoint(benchmark, tmp_path):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(init_network(dense_specs(2, [300, 200], 5), seed=6), path)
    benchmark(load_checkpoint, path)


def test_auroc_score_op(benchmark):
    fit = ExperimentConfig.from_dict({
        "name": "ood-red",
        "train_data": {
            "kind": "blobs", "k": 3, "n_per_class": 50, "stddev": 0.25, "radius": 10.0, "seed": 11,
        },
        "hidden_dims": [32], "loss": "ev_log", "activation": "exp", "inc_reg": "edl_kl",
        "lambda1": 2.0, "use_correct_reg": True, "optimizer": {"kind": "adam_like", "lr": 0.005},
        "epochs": 60, "batch_size": 32, "seed": 5, "eval_every": 60,
    })
    net = run_experiment(fit).net
    # 10,000 rows per class; the OOD blobs sit near the origin, shifted 20 sigma at 300 degrees
    shift = [5.0 * math.cos(math.radians(300.0)), 5.0 * math.sin(math.radians(300.0))]
    blobs = dict(kind="blobs", k=3, n_per_class=10_000, stddev=0.25)
    ind = DataConfig(**blobs, radius=10.0, seed=1).build()
    ood = DataConfig(**blobs, radius=0.5, seed=2, shift=shift).build()
    ind_vac, ood_vac = (evaluate(net, ds, Activation.EXP).vacuity for ds in (ind, ood))
    benchmark(auroc, ood_vac, ind_vac)


def test_train_relu_wide_epoch(benchmark):
    # the wide net's parameters, slots and gradient dwarf the 1000 rows, as in the workload
    cfg = ExperimentConfig(
        name="relu-wide",
        train_data=DataConfig(kind="blobs", d=64, k=10, n_per_class=100, seed=0),
        hidden_dims=[1024, 1024], loss="ev_mse", activation="relu",
        optimizer=OptConfig(kind="adam_like", lr=0.001), epochs=1, batch_size=256, seed=0,
    )
    result = benchmark(run_experiment, cfg)
    assert result.net.param_count() == 1_126_410

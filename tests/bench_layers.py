"""Layer microbenchmarks: the fixed cost of one training mini-batch, piece by piece.

The file name keeps it out of the test suite. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_layers.py --benchmark-only

It times the rb-red objective on one (32, 5) mini-batch, the special-function
kernel on the (32, 6) argument that objective passes it, one Adam step on
a small (2 -> 16 -> 5) and a wide (64 -> 1024 -> 1024 -> 10) network, with
the gradients backward returns, and one (cell, K) group of the gradient
oracle: 12 ev_log:exp:edl_kl cases at K = 5.
"""

import numpy as np
import pytest

from evidkit.evidence import Activation
from evidkit.gradcheck import check_case
from evidkit.losses import Loss
from evidkit.network import (
    OptimizerState,
    OptKind,
    backward,
    dense_specs,
    forward,
    init_network,
    step,
)
from evidkit.regularizers import IncReg, composite_loss
from evidkit.special import gamma_family


def test_composite_loss_rb_red(benchmark):
    rng = np.random.default_rng(0)
    o = rng.normal(size=(32, 5)) * 3.0
    gt = rng.integers(5, size=32)
    benchmark(
        composite_loss, Loss.EV_LOG, IncReg.EDL_KL, Activation.EXP, o, gt,
        eta1=1.0, use_correct_reg=True,
    )


def test_gamma_family(benchmark):
    alpha = 1.0 + np.exp(np.random.default_rng(1).normal(size=(32, 5)) * 2.0)
    benchmark(gamma_family, np.concatenate((alpha, alpha.sum(axis=1, keepdims=True)), axis=1))


@pytest.mark.parametrize(
    "in_dim, hidden, out_dim", [(2, [16], 5), (64, [1024, 1024], 10)], ids=["2-16-5", "wide"]
)
def test_adam_step(benchmark, in_dim, hidden, out_dim):
    net = init_network(dense_specs(in_dim, hidden, out_dim), seed=0)
    logits, cache = forward(net, np.random.default_rng(2).normal(size=(32, in_dim)))
    grads = backward(net, cache, logits / 32.0)
    # a tiny rate keeps the parameters near their start over many rounds
    benchmark(step, net, OptimizerState(kind=OptKind.ADAM_LIKE, lr=1e-9), grads)


def test_check_case_group(benchmark):
    rng = np.random.default_rng(3)
    o = rng.uniform(-4.0, 4.0, size=(12, 5))
    gt, epoch = rng.integers(5, size=12), rng.integers(1, 13, size=12)
    lambda1 = rng.uniform(0.25, 2.0, size=12)
    benchmark(check_case, Loss.EV_LOG, Activation.EXP, "edl_kl", o, gt, lambda1=lambda1, epoch=epoch)

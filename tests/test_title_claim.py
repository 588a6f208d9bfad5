"""The paper's title claim on real training runs: under ReLU evidence, a
training sample at zero total evidence gets an exactly-zero logit gradient
row, so it adds nothing to the step and is never learned from.

Every mini-batch of gate 06's stall arm and of gate 07's rb-relu base is
checked bit for bit. The converse (a zero gradient row at nonzero evidence)
is counted and printed, not asserted.
"""

import numpy as np
import pytest

from evidkit import trainer
from evidkit.evidence import activation_apply
from evidkit.network import forward
from evidkit.trainer import ExperimentConfig, run_experiment

# gate 06's stall arm: ev_mse + ReLU, no regularizer, on the 4-point toy set
TOY_STALL = {
    "name": "toy-stall",
    "train_data": {"kind": "toy4", "d": 2, "seed": 0},
    "hidden_dims": [16],
    "optimizer": {"kind": "sgd_momentum", "lr": 0.05},
    "epochs": 200,
    "batch_size": 4,
    "seed": 0,
    "eval_every": 1,
    "zero_ev_taus": [0.0, 0.01, 0.1, 1.0],
    "loss": "ev_mse",
    "activation": "relu",
    "inc_reg": "none",
    "lambda1": 0.0,
}
# gate 07's ReLU base: ev_log + edl_kl + ReLU on 5-class blobs
RB_RELU = {
    "name": "rb-relu",
    "train_data": {"kind": "blobs", "k": 5, "n_per_class": 50, "stddev": 1.0,
                   "radius": 6.0, "seed": 21},
    "test_data": {"kind": "blobs", "k": 5, "n_per_class": 30, "stddev": 1.0,
                  "radius": 6.0, "seed": 22},
    "hidden_dims": [16],
    "loss": "ev_log",
    "inc_reg": "edl_kl",
    "lambda1": 0.0,
    "optimizer": {"kind": "adam_like", "lr": 0.005},
    "epochs": 60,
    "batch_size": 32,
    "seed": 3,
    "eval_every": 60,
    "activation": "relu",
    "use_correct_reg": False,
}
RUNS = {
    "toy-stall": TOY_STALL,
    "rb-relu-lambda1-0": RB_RELU,
    "rb-relu-lambda1-1": {**RB_RELU, "lambda1": 1.0},
}


@pytest.mark.parametrize("run", list(RUNS))
def test_zero_evidence_rows_get_an_exactly_zero_gradient_row(monkeypatch, run):
    mini_batch = trainer._mini_batch
    counts = {"batches": 0, "zero_evidence": 0, "zero_grad_with_evidence": 0}
    broken = []

    def checked(net, x, gt, objective, eta1, where):
        logits = forward(net, x)[0]  # the parameters do not change inside the call
        out = mini_batch(net, x, gt, objective, eta1, where)
        zero_evidence = ~activation_apply(objective[2], logits).any(axis=1)
        zero_grad = ~out[1].any(axis=1)
        counts["batches"] += 1
        counts["zero_evidence"] += int(np.count_nonzero(zero_evidence))
        counts["zero_grad_with_evidence"] += int(np.count_nonzero(zero_grad & ~zero_evidence))
        if (zero_evidence & ~zero_grad).any():
            broken.append(f"{where}: rows {np.flatnonzero(zero_evidence & ~zero_grad).tolist()}")
        return out

    monkeypatch.setattr(trainer, "_mini_batch", checked)
    run_experiment(ExperimentConfig.from_dict(RUNS[run]))
    print(f"{run}: {counts}")
    assert counts["batches"] > 0 and counts["zero_evidence"] > 0, counts
    assert not broken, f"zero-evidence rows with a nonzero gradient row: {broken[:5]}"

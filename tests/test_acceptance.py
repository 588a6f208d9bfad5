"""Acceptance suite: ten gate criteria, one test (one pass/fail line) each.

Every tolerance and recipe here is pinned; changing one is a contract
change, not a test fix.
"""

import math
import time

import numpy as np

from evidkit.datasets import make_toy4
from evidkit.evidence import Activation, activation_grad, evidence_state
from evidkit.gradcheck import run_grid
from evidkit.losses import Loss, grad_logits, loss_ev_mse
from evidkit.metrics import (
    RecordColumns,
    accuracy_vacuity_curve,
    auroc,
    evidence_census,
    topk_confident_accuracy,
)
from evidkit.network import backward, dense_specs, forward, init_network
from evidkit.regularizers import reg_correct
from evidkit.special import digamma, trigamma
from evidkit.trainer import ExperimentConfig, run_experiment, sweep

EVIDENTIAL = (Loss.EV_MSE, Loss.EV_CE, Loss.EV_LOG)

EULER_GAMMA = 0.57721566490153286060651209008240243104
PI2_OVER_6 = 1.64493406684822643647241516664602518922


def test_criterion_01_gradient_oracle_grid():
    """All 39 valid loss x activation x regularizer cells pass 200-case
    central finite differences (h=1e-5) at relative tolerance 1e-4 in
    under 60 seconds."""
    t0 = time.monotonic()
    results = run_grid(n_cases=200, h=1e-5, tol=1e-4, ks=(2, 3, 5, 10), seed=2024)
    elapsed = time.monotonic() - t0
    assert len(results) == 39
    failed = [r.name for r in results if not r.passed]
    assert failed == [], f"cells failed finite differences: {failed}"
    assert all(r.n_cases == 200 for r in results)
    assert max(r.max_err for r in results) <= 1e-4
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


def test_criterion_02_zero_evidence_plateau_gradient_exactness():
    """ReLU with all logits <= 0: every evidential loss gradient is exactly
    the zero vector for every network parameter, end to end through
    backward. SoftPlus/exp at uniform logits -20: gradient norm <= 1e-7."""
    net = init_network(dense_specs(2, [16], 4), seed=0)
    ds = make_toy4(2, seed=0)
    logits, _ = forward(net, ds.features)
    # Shift the output bias so this parameter setting genuinely produces
    # negative logits everywhere on the dataset.
    net.biases[-1] -= logits.max() + 1.0
    logits, cache = forward(net, ds.features)
    assert np.all(logits < 0.0)
    for kind in EVIDENTIAL:
        d = np.zeros_like(logits)
        for i, row in enumerate(logits):
            g = grad_logits(kind, Activation.RELU, row, int(ds.labels[i])).grad
            assert np.all(g == 0.0), f"{kind.value}: logit gradient not exactly zero"
            d[i] = g
        grad = backward(net, cache, d)
        assert np.all(grad == 0.0), f"{kind.value}: parameter gradient not exactly zero"
    for act in (Activation.SOFTPLUS, Activation.EXP):
        for kind in EVIDENTIAL:
            for k in (2, 4, 10):
                g = grad_logits(kind, act, np.full(k, -20.0), 0).grad
                norm = float(np.linalg.norm(g))
                assert norm <= 1e-7, f"{kind.value}/{act.value} K={k}: norm {norm}"


def test_criterion_03_activation_gradient_ordering():
    """Over 1e5 sampled o <= 0: grad(exp) >= grad(softplus) >= grad(relu)
    with zero violations, and the exp/softplus ratio equals 1 + exp(o)
    to 1e-12."""
    rng = np.random.default_rng(12345)
    o = rng.uniform(-40.0, 0.0, 100_000)
    g_exp = activation_grad(Activation.EXP, o)
    g_sp = activation_grad(Activation.SOFTPLUS, o)
    g_relu = activation_grad(Activation.RELU, o)
    assert int((g_exp < g_sp).sum()) == 0
    assert int((g_sp < g_relu).sum()) == 0
    ratio = g_exp / g_sp
    expect = 1.0 + np.exp(o)
    err = np.abs(ratio - expect) / expect
    assert float(err.max()) <= 1e-12


def test_criterion_04_correct_evidence_gradient_exactness():
    """The correct-evidence regularizer's gt-logit gradient is -vacuity to
    within 1e-9 (it is exact), all other coordinates are exactly zero,
    and in the zero-evidence limit the gt gradient is -1 +- 1e-9."""
    rng = np.random.default_rng(77)
    for _ in range(500):
        k = int(rng.integers(2, 11))
        o = rng.uniform(-20.0, 4.0, k)
        gt = int(rng.integers(k))
        st = evidence_state(Activation.EXP, o)
        pair = reg_correct(st, gt)
        assert abs(pair.grad[gt] - (-st.vacuity)) <= 1e-9
        assert pair.grad[gt] == -st.vacuity  # in fact exact
        off = np.delete(pair.grad, gt)
        assert np.all(off == 0.0)
    # zero-evidence limit: deeply negative uniform logits
    for k in (2, 5, 10):
        st = evidence_state(Activation.EXP, np.full(k, -30.0))
        pair = reg_correct(st, 0)
        assert abs(pair.grad[0] - (-1.0)) <= 1e-9


def test_criterion_05_ev_mse_loss_bounded():
    """Over 1e5 random Dirichlet states the EV_MSE loss lies in [0, 2]
    with zero violations."""
    rng = np.random.default_rng(31337)
    violations = 0
    for _ in range(100_000):
        k = int(rng.integers(2, 11))
        # log-uniform evidence spans tiny to clamp-scale concentrations
        e = np.exp(rng.uniform(-30.0, 30.0, k))
        st = evidence_state(Activation.RELU, e)  # relu(e) = e for e >= 0
        loss = loss_ev_mse(st, int(rng.integers(k)))
        if not 0.0 <= loss <= 2.0:
            violations += 1
    assert violations == 0


def _toy_cfg(variant: str) -> ExperimentConfig:
    doc = {
        "name": f"toy-{variant}",
        "train_data": {"kind": "toy4", "d": 2, "seed": 0},
        "hidden_dims": [16],
        "optimizer": {"kind": "sgd_momentum", "lr": 0.05},
        "epochs": 200,
        "batch_size": 4,
        "seed": 0,
        "eval_every": 1,
        "zero_ev_taus": [0.0, 0.01, 0.1, 1.0],
    }
    if variant == "softmax":
        doc.update({"loss": "softmax_ce", "activation": "relu"})
    elif variant == "stall":
        doc.update({"loss": "ev_mse", "activation": "relu", "inc_reg": "none", "lambda1": 0.0})
    else:  # correct-evidence arm
        doc.update(
            {
                "loss": "ev_mse",
                "activation": "exp",
                "inc_reg": "none",
                "lambda1": 0.0,
                "use_correct_reg": True,
            }
        )
    return ExperimentConfig.from_dict(doc)


def test_criterion_06_toy4_stall_reproduction():
    """On the 4-point toy set: the softmax baseline reaches 100% train
    accuracy within 200 epochs; EV_MSE+ReLU (lambda1=0) plateaus below
    100% with at least one sample pinned in the tau=0 zero-evidence
    census for the final 50 epochs; the correct-evidence arm reaches
    100%. Each run under 10 seconds."""
    t0 = time.monotonic()
    softmax = run_experiment(_toy_cfg("softmax"))
    t_softmax = time.monotonic() - t0
    assert any(log.train_acc == 1.0 for log in softmax.logs)

    t0 = time.monotonic()
    stall = run_experiment(_toy_cfg("stall"))
    t_stall = time.monotonic() - t0
    assert stall.logs[-1].train_acc < 1.0
    assert all(log.zero_ev[0.0] >= 1 for log in stall.logs[-50:])

    t0 = time.monotonic()
    red = run_experiment(_toy_cfg("red"))
    t_red = time.monotonic() - t0
    assert any(log.train_acc == 1.0 for log in red.logs)

    for name, t in (("softmax", t_softmax), ("stall", t_stall), ("red", t_red)):
        assert t < 10.0, f"{name} run took {t:.1f}s"


def _robustness_base(arm: str) -> ExperimentConfig:
    doc = {
        "name": f"rb-{arm}",
        "train_data": {
            "kind": "blobs", "k": 5, "n_per_class": 50, "stddev": 1.0,
            "radius": 6.0, "seed": 21,
        },
        "test_data": {
            "kind": "blobs", "k": 5, "n_per_class": 30, "stddev": 1.0,
            "radius": 6.0, "seed": 22,
        },
        "hidden_dims": [16],
        "loss": "ev_log",
        "inc_reg": "edl_kl",
        "lambda1": 0.0,
        "optimizer": {"kind": "adam_like", "lr": 0.005},
        "epochs": 60,
        "batch_size": 32,
        "seed": 3,
        "eval_every": 60,
    }
    if arm == "red":
        doc.update({"activation": "exp", "use_correct_reg": True})
    else:
        doc.update({"activation": "relu", "use_correct_reg": False})
    return ExperimentConfig.from_dict(doc)


def test_criterion_07_robustness_to_lambda1():
    """Across lambda1 in {0, 0.1, 1, 10} on 5-class blobs, the final test
    accuracy spread of the correct-evidence model is strictly smaller
    than the spread of the ReLU evidential model. Total under 5 minutes."""
    grid = [0.0, 0.1, 1.0, 10.0]
    t0 = time.monotonic()
    red_rows = sweep(_robustness_base("red"), grid)
    relu_rows = sweep(_robustness_base("relu"), grid)
    elapsed = time.monotonic() - t0
    red_accs = [r.final_test_acc for r in red_rows]
    relu_accs = [r.final_test_acc for r in relu_rows]
    red_spread = max(red_accs) - min(red_accs)
    relu_spread = max(relu_accs) - min(relu_accs)
    assert red_spread < relu_spread, (
        f"spreads: red {red_spread:.4f} (accs {red_accs}) vs "
        f"relu {relu_spread:.4f} (accs {relu_accs})"
    )
    assert elapsed < 300.0, f"sweeps took {elapsed:.1f}s"


def test_criterion_08_ood_vacuity_direction_and_auroc():
    """A blobs-trained correct-evidence model scores a 20-sigma-shifted OOD
    set with higher mean vacuity than in-distribution data and separates
    the two at vacuity-score AUROC >= 0.95. Under 2 minutes."""
    stddev = 0.25
    shift_len = 20.0 * stddev
    ang = math.radians(300.0)
    doc = {
        "name": "ood-red",
        "train_data": {
            "kind": "blobs", "k": 3, "n_per_class": 50, "stddev": stddev,
            "radius": 10.0, "seed": 11,
        },
        "test_data": {
            "kind": "blobs", "k": 3, "n_per_class": 30, "stddev": stddev,
            "radius": 10.0, "seed": 12,
        },
        "ood_data": {
            "kind": "blobs", "k": 3, "n_per_class": 40, "stddev": stddev,
            "radius": 0.5, "seed": 13,
            "shift": [shift_len * math.cos(ang), shift_len * math.sin(ang)],
        },
        "hidden_dims": [32],
        "loss": "ev_log",
        "activation": "exp",
        "inc_reg": "edl_kl",
        "lambda1": 2.0,
        "use_correct_reg": True,
        "optimizer": {"kind": "adam_like", "lr": 0.005},
        "epochs": 60,
        "batch_size": 32,
        "seed": 5,
        "eval_every": 60,
    }
    t0 = time.monotonic()
    result = run_experiment(ExperimentConfig.from_dict(doc))
    elapsed = time.monotonic() - t0
    ind_vac = result.columns.vacuity.tolist()
    ood_vac = result.ood_columns.vacuity.tolist()
    mean_ind = sum(ind_vac) / len(ind_vac)
    mean_ood = sum(ood_vac) / len(ood_vac)
    assert mean_ood > mean_ind, f"mean vacuity OOD {mean_ood} <= InD {mean_ind}"
    score = auroc(ood_vac, ind_vac)
    assert score >= 0.95, f"vacuity AUROC {score}"
    assert elapsed < 120.0, f"run took {elapsed:.1f}s"


def test_criterion_09_metric_oracles():
    """AUROC equals brute-force pairwise comparison exactly on lists up to
    200 elements; census, top-K, and curve match hand enumeration on a
    7-record fixture."""
    rng = np.random.default_rng(2718)
    for trial in range(10):
        n_pos = int(rng.integers(1, 201))
        n_neg = int(rng.integers(1, 201))
        pos = rng.integers(0, 21, n_pos).astype(float)  # heavy ties
        neg = rng.integers(0, 21, n_neg).astype(float)
        total = 0.0
        for p in pos:
            for q in neg:
                if p > q:
                    total += 1.0
                elif p == q:
                    total += 0.5
        assert auroc(pos, neg) == total / (n_pos * n_neg), f"trial {trial}"

    def r(vac, correct, me):
        return (0, 0 if correct else 1, vac, me, math.nan, False)

    fixture = RecordColumns(*zip(
        r(0.05, True, 0.005),
        r(0.20, True, 0.05),
        r(0.20, False, 0.2),
        r(0.55, True, 0.5),
        r(0.70, False, 1.0),
        r(0.90, True, 3.0),
        r(0.95, False, 0.009),
    ))
    census = evidence_census(fixture)
    assert (census["le_0.01"], census["le_0.1"], census["le_1.0"], census["gt_1.0"]) == (2, 3, 6, 1)

    curve = accuracy_vacuity_curve(fixture, thresholds=[0.2, 0.5, 0.7, 1.0])
    assert curve[0] == (0.2, 3 / 7, 2 / 3)
    assert curve[1] == (0.5, 3 / 7, 2 / 3)
    assert curve[2] == (0.7, 5 / 7, 3 / 5)
    assert curve[3] == (1.0, 1.0, 4 / 7)

    topk = topk_confident_accuracy(fixture, fractions=[0.15, 0.5, 1.0])
    assert topk == [(0.15, 1.0), (0.5, 3 / 4), (1.0, 4 / 7)]


def test_criterion_10_special_function_accuracy():
    """digamma(1) = -gamma and trigamma(1) = pi^2/6 within 1e-12, and both
    recurrences hold within 1e-12 across a wide argument range."""
    assert abs(digamma(1.0) - (-EULER_GAMMA)) <= 1e-12
    assert abs(trigamma(1.0) - PI2_OVER_6) <= 1e-12
    rng = np.random.default_rng(555)
    xs = np.concatenate(
        [rng.uniform(0.01, 2.0, 300), rng.uniform(2.0, 50.0, 300), rng.uniform(50.0, 1e4, 100)]
    )
    for x in xs:
        x = float(x)
        lhs = digamma(x + 1.0)
        rhs = digamma(x) + 1.0 / x
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        lhs = trigamma(x + 1.0)
        rhs = trigamma(x) - 1.0 / (x * x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(trigamma(x)))

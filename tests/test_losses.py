"""Tests for the evidential losses, the softmax baseline, and their gradients."""

import math

import numpy as np
import pytest

from evidkit.evidence import Activation, evidence_state
from evidkit.losses import (
    EVIDENTIAL_LOSSES,
    Loss,
    _gather,
    _labels,
    grad_logits,
    loss_ev_ce,
    loss_ev_log,
    loss_ev_mse,
    loss_softmax_ce,
    softmax,
)
from evidkit.regularizers import IncReg, composite_loss, reg_edl_kl

# mpmath (50-digit) oracle: psi(12) - psi(3) for alpha=(3,1,2,6), gt=0
EV_CE_ORACLE_3126 = 1.519877344877344877345


def state_from_alpha(alpha):
    """Build a state with the exact alpha via RELU evidence = alpha - 1."""
    alpha = np.asarray(alpha, dtype=float)
    return evidence_state(Activation.RELU, alpha - 1.0)


def test_label_rule():
    assert _labels(2, (4,)).tolist() == [False, False, True, False]
    assert _labels(np.array([1, 0], dtype=np.uint8), (2, 2)).tolist() == [
        [False, True],
        [True, False],
    ]
    # every term checks its labels: a float label is not read as its
    # integer part, nor a bool as class 1
    for gt, message in (
        (3, "label 3 out of range for 3 classes"),
        (-1, "label -1 out of range for 3 classes"),
        (1.5, "labels must be integers, got dtype float64"),
        (True, "labels must be integers, got dtype bool"),
        (math.nan, "labels must be integers, got dtype float64"),
        (np.array([0.0, 1.0]), "labels must be integers, got dtype float64"),
    ):
        o = np.zeros(np.shape(gt) + (3,))
        st = evidence_state(Activation.EXP, o)
        for term in (
            lambda: loss_ev_log(st, gt),
            lambda: reg_edl_kl(st, gt),
            lambda: composite_loss(Loss.EV_MSE, IncReg.NONE, Activation.EXP, o, gt),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                term()


def test_labels_must_match_the_batch_shape():
    # a scalar label with an (N, K) batch is rejected by name in every term,
    # neither broadcast over the rows nor met with numpy's IndexError
    o = np.zeros((4, 3))
    st = evidence_state(Activation.EXP, o)
    for term in (
        lambda: loss_ev_log(st, 1),
        lambda: loss_ev_mse(st, 1),
        lambda: reg_edl_kl(st, 1),
        lambda: loss_softmax_ce(o, 1),
        lambda: composite_loss(Loss.EV_MSE, IncReg.NONE, Activation.EXP, o, 1),
        lambda: composite_loss(Loss.EV_LOG, IncReg.EDL_KL, Activation.EXP, o, 1, eta1=1.0),
    ):
        with pytest.raises(ValueError, match=r"^labels of shape \(\) do not match logits of shape"):
            term()
    with pytest.raises(ValueError, match=r"^labels of shape \(3,\) do not match .* \(4, 3\)$"):
        loss_ev_log(st, np.array([0, 1, 2]))
    with pytest.raises(ValueError, match=r"^labels of shape \(1,\) do not match .* \(3,\)$"):
        loss_ev_log(evidence_state(Activation.EXP, o[0]), np.array([1]))


def test_mask_gather_equals_the_multiply_sum_bit_for_bit():
    rng = np.random.default_rng(8)
    for n, k in ((1, 2), (7, 3), (64, 10), (200, 100)):
        gt = rng.integers(k, size=n)
        alpha = 1.0 + np.exp(rng.uniform(-30.0, 30.0, (n, k)))
        logits = rng.uniform(-800.0, 800.0, (n, k))
        y = _labels(gt, (n, k))
        for x in (alpha, logits):
            # the former gather: a float one-hot times x, summed over the row
            old = (x * y.astype(float)).sum(axis=-1)
            assert _gather(x, y).tobytes() == old.tobytes()
            assert _gather(x[0], y[0]) == old[0]


def test_ev_mse_worked_examples():
    # K=2, alpha=(1,1), y=(1,0) -> 2/3
    assert loss_ev_mse(state_from_alpha([1.0, 1.0]), 0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    # saturated correct prediction -> tiny
    assert loss_ev_mse(state_from_alpha([1e6, 1.0]), 0) <= 1e-5


def test_ev_mse_sum_form_matches_pair_form():
    # independent oracle: L = 2 - 2 a_gt/S - 2 sum_{i<j} a_i a_j / (S (S+1))
    rng = np.random.default_rng(21)
    for _ in range(300):
        k = int(rng.integers(2, 8))
        alpha = 1.0 + rng.uniform(0.0, 20.0, k)
        gt = int(rng.integers(k))
        s = float(alpha.sum())
        pairs = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                pairs += alpha[i] * alpha[j]
        want = 2.0 - 2.0 * alpha[gt] / s - 2.0 * pairs / (s * (s + 1.0))
        st = state_from_alpha(alpha)
        assert loss_ev_mse(st, gt) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_ev_mse_range_property():
    rng = np.random.default_rng(22)
    for _ in range(2000):
        k = int(rng.integers(2, 10))
        alpha = 1.0 + np.exp(rng.uniform(-40.0, 30.0, k))
        st = state_from_alpha(alpha)
        val = loss_ev_mse(st, int(rng.integers(k)))
        assert 0.0 <= val <= 2.0


def test_ev_ce_worked_examples():
    # digamma recurrence oracles: psi(n+1)-psi(n) = 1/n
    assert loss_ev_ce(state_from_alpha([1.0, 1.0]), 0) == pytest.approx(1.0, rel=1e-12)
    assert loss_ev_ce(state_from_alpha([2.0, 1.0]), 0) == pytest.approx(0.5, rel=1e-12)
    assert loss_ev_ce(state_from_alpha([3.0, 1.0]), 0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert loss_ev_ce(state_from_alpha([3.0, 1.0, 2.0, 6.0]), 0) == pytest.approx(
        EV_CE_ORACLE_3126, rel=1e-12
    )


def test_ev_ce_harmonic_identity_property():
    # for integer alpha, psi(S) - psi(a_gt) = H_{S-1} - H_{a_gt-1} exactly
    rng = np.random.default_rng(23)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        alpha = rng.integers(1, 12, k).astype(float)
        gt = int(rng.integers(k))
        s = int(alpha.sum())
        want = sum(1.0 / n for n in range(int(alpha[gt]), s))
        assert loss_ev_ce(state_from_alpha(alpha), gt) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_ev_log_worked_examples():
    assert loss_ev_log(state_from_alpha([1.0, 1.0]), 0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert loss_ev_log(state_from_alpha([2.0, 1.0]), 0) == pytest.approx(
        math.log(3.0) - math.log(2.0), rel=1e-12
    )
    assert loss_ev_log(state_from_alpha([999.0, 1.0]), 0) == pytest.approx(
        math.log(1000.0 / 999.0), rel=1e-9
    )


def test_losses_nonnegative_property():
    rng = np.random.default_rng(24)
    for _ in range(500):
        k = int(rng.integers(2, 8))
        st = evidence_state(Activation.EXP, rng.uniform(-5.0, 5.0, k))
        gt = int(rng.integers(k))
        assert loss_ev_ce(st, gt) >= 0.0
        assert loss_ev_log(st, gt) >= 0.0
        assert loss_ev_mse(st, gt) >= 0.0


def test_softmax_ce_worked_examples():
    pair = loss_softmax_ce(np.array([0.0, 0.0]), 0)
    assert pair.loss == pytest.approx(math.log(2.0), rel=1e-12)
    assert pair.grad == pytest.approx([-0.5, 0.5], rel=1e-12)
    pair = loss_softmax_ce(np.array([100.0, 0.0]), 0)
    assert pair.loss == pytest.approx(0.0, abs=1e-12)
    assert pair.grad == pytest.approx([0.0, 0.0], abs=1e-12)


def test_softmax_ce_against_independent_logsumexp():
    rng = np.random.default_rng(25)
    for _ in range(300):
        k = int(rng.integers(2, 9))
        o = rng.uniform(-30.0, 30.0, k)
        gt = int(rng.integers(k))
        m = o.max()
        want = m + math.log(np.exp(o - m).sum()) - o[gt]
        pair = loss_softmax_ce(o, gt)
        assert pair.loss == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert float(pair.grad.sum()) == pytest.approx(0.0, abs=1e-12)
        assert ((pair.grad >= -1.0) & (pair.grad <= 1.0)).all()


def test_softmax_handles_extreme_logits():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(p).all()
    assert float(p.sum()) == pytest.approx(1.0, rel=1e-12)


def test_grad_logits_worked_example_ev_log_exp():
    pair = grad_logits(Loss.EV_LOG, Activation.EXP, np.array([0.0, 0.0]), 0)
    assert pair.grad == pytest.approx([-0.25, 0.25], rel=1e-12)
    assert pair.loss == pytest.approx(math.log(2.0), rel=1e-12)


def test_grad_logits_zero_under_relu_negative_logits():
    o = np.array([-1.0, -2.0])
    for kind in EVIDENTIAL_LOSSES:
        pair = grad_logits(kind, Activation.RELU, o, 0)
        assert (pair.grad == 0.0).all()


def test_grad_logits_matches_finite_differences():
    rng = np.random.default_rng(26)
    h = 1e-5
    value_fn = {
        Loss.EV_MSE: loss_ev_mse,
        Loss.EV_CE: loss_ev_ce,
        Loss.EV_LOG: loss_ev_log,
    }
    for kind in EVIDENTIAL_LOSSES:
        for act in Activation:
            for _ in range(40):
                k = int(rng.integers(2, 6))
                o = rng.uniform(-4.0, 4.0, k)
                if act == Activation.RELU:
                    o[np.abs(o) < 0.05] += 0.1
                gt = int(rng.integers(k))
                pair = grad_logits(kind, act, o, gt)
                for i in range(k):
                    op, om = o.copy(), o.copy()
                    op[i] += h
                    om[i] -= h
                    fd = (
                        value_fn[kind](evidence_state(act, op), gt)
                        - value_fn[kind](evidence_state(act, om), gt)
                    ) / (2.0 * h)
                    scale = max(abs(fd), abs(pair.grad[i]))
                    if scale < 1e-6:
                        assert abs(fd - pair.grad[i]) <= 1e-7
                    else:
                        assert abs(fd - pair.grad[i]) / scale <= 1e-4


def test_ev_log_grad_saturates_at_one_for_incorrect_class():
    # as a non-gt logit grows under EXP, its gradient tends to 1 - y_k = 1
    pair = grad_logits(Loss.EV_LOG, Activation.EXP, np.array([0.0, 25.0]), 0)
    assert pair.grad[1] == pytest.approx(1.0, rel=1e-9)


def test_softmax_ce_via_grad_logits_ignores_activation():
    o = np.array([0.3, -1.2, 0.8])
    pairs = [grad_logits(Loss.SOFTMAX_CE, act, o, 1) for act in Activation]
    for p in pairs[1:]:
        assert p.loss == pairs[0].loss
        assert (p.grad == pairs[0].grad).all()


def test_gt_out_of_range_rejected():
    st = state_from_alpha([1.0, 1.0])
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            loss_ev_mse(st, bad)
        with pytest.raises(ValueError):
            grad_logits(Loss.EV_MSE, Activation.RELU, np.array([0.5, 0.5]), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", list(Loss))
def test_every_loss_refuses_non_finite_logits_before_its_labels(kind, bad):
    # label 5 is out of range too: the logits are named first, as the state names them
    o = np.array([[0.0, 1.0], [bad, 0.0]])
    calls = [
        lambda: composite_loss(kind, IncReg.NONE, Activation.EXP, o, [0, 5]),
        lambda: grad_logits(kind, Activation.EXP, o, [0, 5]),
        lambda: grad_logits(kind, Activation.EXP, o[1], 5),
    ]
    if kind == Loss.SOFTMAX_CE:
        calls.append(lambda: loss_softmax_ce(o, [0, 5]))
    for call in calls:
        with pytest.raises(ValueError, match="^logits must be finite$"):
            call()

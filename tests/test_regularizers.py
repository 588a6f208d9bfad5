"""Tests for the incorrect- and correct-evidence regularizers and the composite."""

import math

import numpy as np
import pytest

from evidkit.evidence import Activation, evidence_state
from evidkit.losses import EVIDENTIAL_LOSSES, Loss, grad_logits
from evidkit.regularizers import (
    CORRECT_REG_EPS,
    IncReg,
    anneal_eta1,
    composite_loss,
    reg_adl_sum,
    reg_correct,
    reg_edl_kl,
    reg_units_belief,
)
from evidkit.special import digamma, log_gamma, trigamma

# mpmath (50-digit) oracle: KL(Dir(2.5,1.75,1) || Dir(1,1,1))
EDL_KL_ORACLE_K3 = 0.3983372745853511849869


def state_from_alpha(alpha):
    alpha = np.asarray(alpha, dtype=float)
    return evidence_state(Activation.RELU, alpha - 1.0)


def fd_grad(reg_fn, act, o, gt, h=1e-6):
    o = np.asarray(o, dtype=float)
    g = np.zeros_like(o)
    for i in range(o.shape[0]):
        op, om = o.copy(), o.copy()
        op[i] += h
        om[i] -= h
        g[i] = (reg_fn(evidence_state(act, op), gt).loss
                - reg_fn(evidence_state(act, om), gt).loss) / (2.0 * h)
    return g


def test_edl_kl_zero_at_all_ones():
    pair = reg_edl_kl(state_from_alpha([1.0, 1.0, 1.0]), 1)
    assert pair.loss == pytest.approx(0.0, abs=1e-14)
    assert pair.grad == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)


def test_edl_kl_worked_example_k2():
    # K=2, alpha=(1,2), y=(1,0): alpha_tilde=(1,2) -> ln2 - 1/2
    pair = reg_edl_kl(state_from_alpha([1.0, 2.0]), 0)
    assert pair.loss == pytest.approx(math.log(2.0) - 0.5, rel=1e-12)


def test_edl_kl_frozen_oracle_k3():
    # alpha=(2.5,1.75,4.0), gt=2 -> alpha_tilde=(2.5,1.75,1)
    pair = reg_edl_kl(state_from_alpha([2.5, 1.75, 4.0]), 2)
    assert pair.loss == pytest.approx(EDL_KL_ORACLE_K3, rel=1e-12)


def test_edl_kl_gt_gradient_exactly_zero():
    rng = np.random.default_rng(31)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        o = rng.uniform(0.1, 4.0, k)  # positive evidence everywhere
        gt = int(rng.integers(k))
        pair = reg_edl_kl(evidence_state(Activation.EXP, o), gt)
        assert pair.grad[gt] == 0.0


def test_edl_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(32)
    for _ in range(60):
        k = int(rng.integers(2, 6))
        o = rng.uniform(-3.0, 3.0, k)
        gt = int(rng.integers(k))
        pair = reg_edl_kl(evidence_state(Activation.EXP, o), gt)
        fd = fd_grad(reg_edl_kl, Activation.EXP, o, gt)
        assert pair.grad == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_edl_kl_nonnegative_property():
    rng = np.random.default_rng(33)
    for _ in range(300):
        k = int(rng.integers(2, 8))
        st = evidence_state(Activation.EXP, rng.uniform(-6.0, 6.0, k))
        assert reg_edl_kl(st, int(rng.integers(k))).loss >= 0.0


def test_edl_kl_exp_gradient_grows_with_alpha():
    # under EXP the non-gt gradient does not vanish for large alpha
    mags = []
    for a in (10.0, 100.0, 1000.0):
        o = np.array([0.0, math.log(a - 1.0)])
        pair = reg_edl_kl(evidence_state(Activation.EXP, o), 0)
        mags.append(abs(pair.grad[1]))
    assert mags[0] < mags[1] < mags[2]
    # under RELU at the same alphas the gradient magnitude shrinks instead
    mags_relu = []
    for a in (10.0, 100.0, 1000.0):
        o = np.array([0.0, a - 1.0])
        pair = reg_edl_kl(evidence_state(Activation.RELU, o), 0)
        mags_relu.append(abs(pair.grad[1]))
    assert mags_relu[0] > mags_relu[1] > mags_relu[2]


def test_adl_sum_examples():
    assert reg_adl_sum(state_from_alpha([2.0, 3.0]), 0).loss == pytest.approx(2.0)
    assert reg_adl_sum(state_from_alpha([1.0, 1.0]), 0).loss == 0.0
    assert reg_adl_sum(state_from_alpha([6.0, 2.0, 2.0]), 0).loss == pytest.approx(2.0)


def test_adl_sum_grad():
    o = np.array([0.5, -0.2, 1.0])
    st = evidence_state(Activation.EXP, o)
    pair = reg_adl_sum(st, 0)
    assert pair.grad[0] == 0.0
    assert pair.grad == pytest.approx(fd_grad(reg_adl_sum, Activation.EXP, o, 0), rel=1e-6)


def test_units_belief_examples():
    # e=(1,2), K=2, S=5, y=(1,0) -> 2/5
    assert reg_units_belief(state_from_alpha([2.0, 3.0]), 0).loss == pytest.approx(0.4)
    assert reg_units_belief(state_from_alpha([1.0, 1.0]), 0).loss == 0.0


def test_units_belief_bounded_and_grad_matches_fd():
    rng = np.random.default_rng(34)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        o = rng.uniform(-3.0, 3.0, k)
        gt = int(rng.integers(k))
        st = evidence_state(Activation.EXP, o)
        pair = reg_units_belief(st, gt)
        assert 0.0 <= pair.loss <= 1.0
        fd = fd_grad(reg_units_belief, Activation.EXP, o, gt)
        assert pair.grad == pytest.approx(fd, rel=1e-5, abs=1e-8)


def edl_kl_per_function_calls(state, gt):
    """reg_edl_kl in its expression form: one special-function call per term."""
    k = state.k
    y = np.arange(k) == np.asarray(gt)[..., None]
    at = np.where(y, 1.0, state.alpha)
    a_sum = at.sum(axis=-1)
    loss = (
        log_gamma(a_sum)
        - log_gamma(float(k))
        - np.cumsum(log_gamma(at), axis=-1)[..., -1]
        + np.cumsum((at - 1.0) * (digamma(at) - digamma(a_sum)[..., None]), axis=-1)[..., -1]
    )
    coef = (at - 1.0) * trigamma(at) - ((a_sum - k) * trigamma(a_sum))[..., None]
    return loss, np.where(y, 0.0, coef) * state.dact


def test_edl_kl_calls_each_special_function_once(monkeypatch):
    import evidkit.regularizers as regs

    calls = []
    fn = regs.gamma_family
    monkeypatch.setattr(regs, "gamma_family", lambda z: calls.append(np.shape(z)) or fn(z))
    rng = np.random.default_rng(41)
    o = rng.uniform(-6.0, 6.0, (33, 5))
    gt = rng.integers(5, size=33)
    st = evidence_state(Activation.EXP, o)
    got = reg_edl_kl(st, gt)
    # one kernel call covers log_gamma, digamma and trigamma of the K-1 non-gt
    # alpha~ and A; alpha~ = 1 at gt, which the sums never need
    assert calls == [(33, 5)]
    loss, grad = edl_kl_per_function_calls(st, gt)
    assert np.array_equal(got.loss, loss)
    assert np.array_equal(got.grad, grad)
    # a single state is a batch of one: same values, Python-float loss
    one = reg_edl_kl(evidence_state(Activation.EXP, o[3]), int(gt[3]))
    assert isinstance(one.loss, float)
    assert one.loss == got.loss[3]
    assert np.array_equal(one.grad, got.grad[3])


def test_incorrect_regs_zero_when_no_incorrect_evidence():
    # non-gt evidence all zero: value 0 and grad 0 for every incorrect reg
    st = evidence_state(Activation.RELU, np.array([3.0, -1.0, -2.0]))
    for fn in (reg_edl_kl, reg_adl_sum, reg_units_belief):
        pair = fn(st, 0)
        assert pair.loss == pytest.approx(0.0, abs=1e-14)
        assert pair.grad == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)


def test_reg_correct_zero_loss_at_unit_evidence():
    st = evidence_state(Activation.EXP, np.array([0.0, 0.0]))
    pair = reg_correct(st, 0)
    # loss = -0.5 * ln(1 + eps) ~ -0.5 eps, essentially 0
    assert pair.loss == pytest.approx(0.0, abs=1e-8)


def test_reg_correct_grad_is_exactly_minus_vacuity_at_gt():
    rng = np.random.default_rng(35)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        o = rng.uniform(-30.0, 4.0, k)
        gt = int(rng.integers(k))
        st = evidence_state(Activation.EXP, o)
        pair = reg_correct(st, gt)
        assert pair.grad[gt] == -st.vacuity  # exact, not approximate
        off = np.delete(pair.grad, gt)
        assert (off == 0.0).all()
        assert -1.0 <= pair.grad[gt] < 0.0


def test_reg_correct_zero_evidence_limit_is_minus_one():
    st = evidence_state(Activation.EXP, np.array([-500.0, -500.0, -500.0]))
    assert st.vacuity == 1.0  # evidence underflowed to 0 in the strength sum
    pair = reg_correct(st, 1)
    assert pair.grad[1] == -1.0


def test_reg_correct_weight_override_and_loss_value():
    st = evidence_state(Activation.EXP, np.array([1.0, 0.0]))
    pair = reg_correct(st, 0, weight=0.25)
    want = -0.25 * math.log(math.e + CORRECT_REG_EPS)
    assert pair.loss == pytest.approx(want, rel=1e-12)
    assert pair.grad[0] == -0.25


def test_reg_correct_rejects_nonpositive_gt_evidence():
    st = evidence_state(Activation.RELU, np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        reg_correct(st, 0)


def test_reg_correct_rejects_every_head_but_exp():
    # positive gt evidence is not enough: the term is defined on the exp head only
    for act in (Activation.RELU, Activation.SOFTPLUS):
        st = evidence_state(act, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="requires the exp activation"):
            reg_correct(st, 0)


def test_anneal_eta1():
    assert anneal_eta1(1.0, 5) == 0.5
    assert anneal_eta1(1.0, 10) == 1.0
    assert anneal_eta1(1.0, 17) == 1.0
    assert anneal_eta1(0.0, 7) == 0.0
    assert anneal_eta1(2.0, 0) == 0.0
    with pytest.raises(ValueError):
        anneal_eta1(-0.5, 3)
    with pytest.raises(ValueError):
        anneal_eta1(1.0, -1)


@pytest.mark.parametrize("lambda1", [math.nan, math.inf, [1.0, math.nan]])
def test_anneal_eta1_rejects_a_non_finite_lambda1(lambda1):
    with pytest.raises(ValueError, match="lambda1 must be >= 0 and finite"):
        anneal_eta1(lambda1, 3)


def test_composite_rejects_negative_eta1():
    o = np.array([0.4, -1.0])
    for eta1 in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="eta1 must be >= 0"):
            composite_loss(Loss.EV_MSE, IncReg.EDL_KL, Activation.EXP, o, 0, eta1=eta1)


BAD_WEIGHTS = [math.nan, math.inf, -math.inf, -1.0, np.float64(math.nan), np.array(math.inf)]


@pytest.mark.parametrize("eta1", BAD_WEIGHTS + [[0.5, math.nan], [1.0, math.inf], [-1.0, 0.5]])
def test_composite_rejects_an_eta1_that_is_not_finite_and_nonnegative(eta1):
    # NaN passed the old `eta1 < 0` test and came back as a NaN loss and gradient
    o = np.array([[0.4, -1.0, 2.0], [1.5, 0.2, -0.3]])
    with pytest.raises(ValueError, match="^eta1 must be >= 0 and finite$"):
        composite_loss(Loss.EV_LOG, IncReg.EDL_KL, Activation.EXP, o, [0, 2], eta1=eta1)


@pytest.mark.parametrize("weight", BAD_WEIGHTS)
def test_the_correct_evidence_weight_must_be_finite_and_nonnegative(weight):
    # weight=-1 flipped the sign of the term, and NaN made it NaN
    o = np.array([0.4, -1.0, 2.0])
    with pytest.raises(ValueError, match="^weight must be >= 0 and finite$"):
        reg_correct(evidence_state(Activation.EXP, o), 1, weight=weight)
    with pytest.raises(ValueError, match="^correct_weight must be >= 0 and finite$"):
        composite_loss(
            Loss.EV_LOG, IncReg.NONE, Activation.EXP, o, 1, use_correct_reg=True, correct_weight=weight
        )


@pytest.mark.parametrize("epoch", [math.nan, math.inf, -1, np.array([3.0, math.nan])])
def test_anneal_eta1_rejects_an_epoch_that_is_not_finite_and_nonnegative(epoch):
    with pytest.raises(ValueError, match="^epoch must be >= 0 and finite$"):
        anneal_eta1(1.0, epoch)


def test_every_finite_nonnegative_weight_is_taken_as_given():
    o = np.array([[0.4, -1.0, 2.0], [1.5, 0.2, -0.3]])
    want = composite_loss(Loss.EV_LOG, IncReg.EDL_KL, Activation.EXP, o, [0, 2], eta1=1.0)
    for eta1 in (1, np.float64(1.0), np.array(1.0), np.array([1.0, 1.0]), [1, 1]):
        got = composite_loss(Loss.EV_LOG, IncReg.EDL_KL, Activation.EXP, o, [0, 2], eta1=eta1)
        assert np.array_equal(got.loss, want.loss) and np.array_equal(got.grad, want.grad)
    for weight in (0.0, -0.0, 0.25, np.array([0.0, 1e300])):
        reg_correct(evidence_state(Activation.EXP, o), [0, 2], weight=weight)
    assert anneal_eta1(0.0, 0.0) == 0.0


def test_composite_degenerate_equals_plain_loss():
    o = np.array([0.4, -1.0, 2.0])
    for kind in EVIDENTIAL_LOSSES:
        for act in Activation:
            got = composite_loss(
                kind, IncReg.NONE, act, o, 1, eta1=anneal_eta1(0.0, 50), use_correct_reg=False
            )
            want = grad_logits(kind, act, o, 1)
            assert got.loss == want.loss
            assert (got.grad == want.grad).all()


def test_composite_is_weighted_sum_of_parts():
    o = np.array([0.5, -0.3, 1.2])
    gt = 2
    eta1 = anneal_eta1(0.8, 7)
    st = evidence_state(Activation.EXP, o)
    base = grad_logits(Loss.EV_CE, Activation.EXP, o, gt)
    inc = reg_edl_kl(st, gt)
    cor = reg_correct(st, gt)
    got = composite_loss(
        Loss.EV_CE, IncReg.EDL_KL, Activation.EXP, o, gt, eta1=eta1, use_correct_reg=True
    )
    assert got.loss == pytest.approx(base.loss + eta1 * inc.loss + cor.loss, rel=1e-12)
    assert got.grad == pytest.approx(base.grad + eta1 * inc.grad + cor.grad, rel=1e-12)


def test_composite_epoch_zero_skips_incorrect_term():
    o = np.array([0.5, -0.3])
    eta1 = anneal_eta1(5.0, 0)
    got = composite_loss(Loss.EV_MSE, IncReg.EDL_KL, Activation.SOFTPLUS, o, 0, eta1=eta1)
    want = grad_logits(Loss.EV_MSE, Activation.SOFTPLUS, o, 0)
    assert got.loss == want.loss
    assert (got.grad == want.grad).all()


def test_composite_correct_reg_requires_exp():
    eta1 = anneal_eta1(0.0, 3)
    for act in (Activation.RELU, Activation.SOFTPLUS):
        with pytest.raises(ValueError):
            composite_loss(
                Loss.EV_MSE, IncReg.NONE, act, np.array([1.0, 1.0]), 0,
                eta1=eta1, use_correct_reg=True,
            )


def test_composite_correct_reg_survives_exp_underflow():
    # exp(-750) underflows to 0; the gt gradient is still exactly -vacuity
    o = np.array([-750.0, 0.0, 1.0])
    st = evidence_state(Activation.EXP, o)
    assert st.evidence[0] == 0.0
    got = composite_loss(
        Loss.EV_LOG, IncReg.NONE, Activation.EXP, o, 0,
        eta1=anneal_eta1(0.0, 3), use_correct_reg=True,
    )
    assert np.isfinite(got.loss)
    assert np.isfinite(got.grad).all()
    assert got.grad[0] == -st.vacuity


def test_composite_frozen_weight_matches_manual():
    o = np.array([0.2, 0.9])
    st = evidence_state(Activation.EXP, o)
    got = composite_loss(
        Loss.EV_LOG, IncReg.NONE, Activation.EXP, o, 1,
        eta1=anneal_eta1(0.0, 12), use_correct_reg=True, correct_weight=0.5,
    )
    base = grad_logits(Loss.EV_LOG, Activation.EXP, o, 1)
    cor = reg_correct(st, 1, weight=0.5)
    assert got.loss == pytest.approx(base.loss + cor.loss, rel=1e-12)
    assert got.grad == pytest.approx(base.grad + cor.grad, rel=1e-12)

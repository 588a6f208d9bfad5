"""Tests for activations and the Dirichlet evidence state."""

import math

import numpy as np
import pytest

from evidkit.evidence import (
    LOGIT_CLAMP,
    Activation,
    activation_apply,
    activation_grad,
    evidence_state,
    is_zero_evidence,
    predict_class,
)


def test_activation_values():
    assert activation_apply(Activation.RELU, -3.0) == 0.0
    assert activation_apply(Activation.RELU, 2.5) == 2.5
    assert activation_apply(Activation.SOFTPLUS, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert activation_apply(Activation.EXP, 0.0) == 1.0
    assert activation_apply(Activation.EXP, 1.0) == pytest.approx(math.e, rel=1e-15)


def test_activation_grads():
    assert activation_grad(Activation.RELU, -1.0) == 0.0
    assert activation_grad(Activation.RELU, 0.0) == 0.0  # defined as 0 at the kink
    assert activation_grad(Activation.RELU, 1e-12) == 1.0
    assert activation_grad(Activation.SOFTPLUS, 0.0) == 0.5
    assert activation_grad(Activation.EXP, 2.0) == pytest.approx(math.exp(2.0), rel=1e-15)


def test_activation_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for kind in Activation:
        for _ in range(200):
            o = float(rng.uniform(-6.0, 6.0))
            if kind == Activation.RELU and abs(o) < 1e-3:
                continue  # kink
            fd = (
                activation_apply(kind, o + h) - activation_apply(kind, o - h)
            ) / (2.0 * h)
            assert activation_grad(kind, o) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_softplus_grad_is_sigmoid_stable_at_extremes():
    assert activation_grad(Activation.SOFTPLUS, 800.0) == 1.0
    assert activation_grad(Activation.SOFTPLUS, -800.0) == 0.0
    assert np.isfinite(activation_apply(Activation.SOFTPLUS, 800.0))
    assert activation_apply(Activation.SOFTPLUS, 800.0) == 800.0


def test_evidence_state_exp_worked_example():
    st = evidence_state(Activation.EXP, [0.0, 0.0])
    assert st.evidence == pytest.approx([1.0, 1.0])
    assert st.alpha == pytest.approx([2.0, 2.0])
    assert st.strength == 4.0
    assert st.vacuity == 0.5
    assert st.beliefs == pytest.approx([0.25, 0.25])
    assert st.k == 2


def test_evidence_state_relu_zero_evidence_example():
    st = evidence_state(Activation.RELU, [-1.0, -2.0])
    assert st.evidence == pytest.approx([0.0, 0.0])
    assert st.alpha == pytest.approx([1.0, 1.0])
    assert st.strength == 2.0
    assert st.vacuity == 1.0
    assert st.beliefs == pytest.approx([0.0, 0.0])


def test_evidence_state_softplus_worked_example():
    st = evidence_state(Activation.SOFTPLUS, [0.0, 0.0, 0.0])
    ln2 = math.log(2.0)
    assert st.evidence == pytest.approx([ln2, ln2, ln2], rel=1e-12)
    assert st.strength == pytest.approx(3.0 + 3.0 * ln2, rel=1e-12)
    assert st.vacuity == pytest.approx(3.0 / (3.0 + 3.0 * ln2), rel=1e-12)


def test_beliefs_plus_vacuity_is_one_property():
    rng = np.random.default_rng(11)
    for kind in Activation:
        for _ in range(300):
            k = int(rng.integers(2, 12))
            o = rng.uniform(-10.0, 10.0, k)
            st = evidence_state(kind, o)
            assert float(st.beliefs.sum() + st.vacuity) == pytest.approx(1.0, abs=1e-12)
            assert st.vacuity == pytest.approx(st.k / st.strength, rel=1e-12)
            assert (st.alpha >= 1.0).all()


def test_vacuity_one_iff_zero_evidence():
    st = evidence_state(Activation.RELU, [-5.0, -0.1, -3.0])
    assert st.vacuity == 1.0
    st2 = evidence_state(Activation.RELU, [-5.0, 0.7, -3.0])
    assert st2.vacuity < 1.0


def test_exp_clamp_behavior():
    st = evidence_state(Activation.EXP, [40.0, 0.0])
    assert st.evidence[0] == math.exp(LOGIT_CLAMP)
    assert np.isfinite(st.strength)
    # ordering preserved even past the clamp
    st2 = evidence_state(Activation.EXP, [40.0, 50.0])
    assert st2.evidence[0] == st2.evidence[1] == math.exp(LOGIT_CLAMP)
    # the head itself clamps, so its value and slope stay finite far out
    assert activation_apply(Activation.EXP, 800.0) == math.exp(LOGIT_CLAMP)
    assert activation_grad(Activation.EXP, 800.0) == math.exp(LOGIT_CLAMP)


def test_activation_grad_ordering_unit_scale():
    rng = np.random.default_rng(13)
    o = rng.uniform(-40.0, 0.0, 2000)
    ge = np.array([activation_grad(Activation.EXP, float(v)) for v in o])
    gs = np.array([activation_grad(Activation.SOFTPLUS, float(v)) for v in o])
    gr = np.array([activation_grad(Activation.RELU, float(v)) for v in o])
    assert (ge >= gs).all()
    assert (gs >= gr).all()
    assert (gr == 0.0).all()
    # identity: exp grad / softplus grad = 1 + exp(o)
    ratio = ge / gs
    assert ratio == pytest.approx(1.0 + np.exp(o), rel=1e-12)


def test_predict_class_examples_and_tie_break():
    assert predict_class(evidence_state(Activation.RELU, [0.0, 5.0, 1.0])) == 1
    assert predict_class(evidence_state(Activation.RELU, [2.0, 2.0])) == 0
    assert predict_class(evidence_state(Activation.RELU, [-1.0, -1.0])) == 0
    # argmax of alpha agrees with argmax of evidence
    st = evidence_state(Activation.EXP, [0.3, 1.2, -0.5])
    assert predict_class(st) == int(np.argmax(st.alpha))


def test_is_zero_evidence_examples():
    st = evidence_state(Activation.RELU, [-1.0, -1.0])
    assert is_zero_evidence(st, 0.0)
    st2 = evidence_state(Activation.RELU, [0.005, 0.005])
    assert is_zero_evidence(st2, 0.01)
    st3 = evidence_state(Activation.RELU, [3.0, 0.0])
    assert not is_zero_evidence(st3, 0.01)  # mean 1.5
    with pytest.raises(ValueError):
        is_zero_evidence(st, -0.1)


def test_evidence_state_input_validation():
    with pytest.raises(ValueError):
        evidence_state(Activation.EXP, [1.0])  # K < 2
    with pytest.raises(ValueError):
        evidence_state(Activation.EXP, [[[1.0, 2.0]]])  # neither (K,) nor (N, K)
    with pytest.raises(ValueError):
        evidence_state(Activation.EXP, [1.0, float("nan")])
    with pytest.raises(ValueError):
        evidence_state(Activation.EXP, [1.0, float("inf")])


def test_evidence_state_is_immutable():
    st = evidence_state(Activation.EXP, [0.0, 0.0])
    with pytest.raises(Exception):
        st.vacuity = 0.1
    with pytest.raises(Exception):
        st.evidence[0] = 99.0


def test_batched_state_matches_per_row_states():
    rng = np.random.default_rng(17)
    o = rng.uniform(-40.0, 40.0, (9, 6))
    for kind in Activation:
        batch = evidence_state(kind, o)
        assert batch.k == 6
        assert batch.strength.shape == batch.vacuity.shape == (9,)
        zero = is_zero_evidence(batch, 0.01)
        for i, row in enumerate(o):
            one = evidence_state(kind, row)
            assert type(one.strength) is float and type(one.vacuity) is float
            assert one.strength == batch.strength[i] and one.vacuity == batch.vacuity[i]
            assert np.array_equal(one.beliefs, batch.beliefs[i])
            assert predict_class(one) == predict_class(batch)[i]
            assert is_zero_evidence(one, 0.01) == zero[i]

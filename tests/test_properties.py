"""Property tests of the batched evidential core over extreme but legal inputs.

Logits span [-800, 800] (exp clamping, exp underflow, ReLU dead zones) and
K runs up to 100. Every valid loss x evidence head x regularizer config is
drawn. The batched objective must equal per-row batch-of-one calls exactly,
and every value must stay finite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evidkit.evidence import Activation, evidence_state
from evidkit.losses import EVIDENTIAL_LOSSES, Loss, loss_ev_mse
from evidkit.regularizers import IncReg, anneal_eta1, composite_loss

# Deterministic draws keep the suite repeatable; no example database is kept.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

LOGIT = st.floats(-800.0, 800.0, allow_nan=False)


@st.composite
def batches(draw, max_k=100, max_n=6):
    k = draw(st.integers(2, max_k))
    n = draw(st.integers(1, max_n))
    logits = draw(arrays(float, (n, k), elements=LOGIT))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return logits, labels


@st.composite
def configs(draw):
    """(loss, head, incorrect regularizer, weights) as the config validator allows."""
    kind = draw(st.sampled_from(list(Loss)))
    act = draw(st.sampled_from(list(Activation)))
    evidential = kind in EVIDENTIAL_LOSSES
    inc = draw(st.sampled_from(list(IncReg))) if evidential else IncReg.NONE
    use_correct = evidential and act == Activation.EXP and draw(st.booleans())
    weights = dict(
        eta1=anneal_eta1(draw(st.floats(0.0, 2.0)), draw(st.integers(0, 12))),
        use_correct_reg=use_correct,
    )
    return kind, act, inc, weights


@PROPERTY
@given(batches(), configs())
def test_batched_composite_equals_per_row_and_is_finite(batch, config):
    logits, labels = batch
    kind, act, inc, weights = config
    got = composite_loss(kind, inc, act, logits, labels, **weights)
    assert got.loss.shape == labels.shape and got.grad.shape == logits.shape
    assert np.all(np.isfinite(got.loss)) and np.all(np.isfinite(got.grad))
    for row, gt, loss, grad in zip(logits, labels, got.loss, got.grad):
        one = composite_loss(kind, inc, act, row, int(gt), **weights)
        assert isinstance(one.loss, float)
        assert one.loss == loss
        assert np.array_equal(one.grad, grad)


@PROPERTY
@given(batches(), st.sampled_from(list(Activation)))
def test_beliefs_and_vacuity_sum_to_one(batch, act):
    logits, _ = batch
    state = evidence_state(act, logits)
    assert np.all(np.abs(state.beliefs.sum(axis=1) + state.vacuity - 1.0) <= 1e-12)
    assert np.all((state.vacuity > 0.0) & (state.vacuity <= 1.0))


@PROPERTY
@given(batches(), st.sampled_from(list(Activation)))
def test_ev_mse_stays_in_zero_two(batch, act):
    logits, labels = batch
    loss = loss_ev_mse(evidence_state(act, logits), labels)
    assert np.all((loss >= 0.0) & (loss <= 2.0))

"""Tests for the hand-rolled special functions.

Frozen high-precision oracles below were computed with mpmath at 50 digits
in a separate environment; mpmath is not a dependency of this package or
of the tests.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evidkit.special import (
    _LIFT_RUNGS,
    _TRIGAMMA_MIN_Z,
    digamma,
    gamma_family,
    log_gamma,
    trigamma,
)

EULER_GAMMA = 0.5772156649015328606065
PI2_OVER_6 = 1.644934066848226436472
PI2_OVER_2 = 4.934802200544679309417

# (z, digamma(z)) pairs, mpmath mp.dps=50
DIGAMMA_ORACLE = [
    (0.1, -10.42375494041107679517),
    (0.5, -1.963510026021423479441),
    (1.0, -EULER_GAMMA),
    (1.5, 0.03648997397857652055902),
    (2.0, 0.4227843350984671393935),
    (3.7, 1.167153539361511385874),
    (7.25, 1.910453526883736028382),
    (12.0, 2.442661679975812016738),
    (25.5, 3.218942472883919766545),
    (1e6, 13.81551005796419077077),
]

TRIGAMMA_ORACLE = [
    (0.1, 101.4332991507927588172),
    (0.5, PI2_OVER_2),
    (1.0, PI2_OVER_6),
    (2.0, 0.6449340668482264364724),
    (2.3, 0.5425374586652584076169),
    (5.75, 0.1899074119392527676988),
    (11.0, 0.0951663356816857461222),
    (1e6, 1.000000500000166666667e-6),
]

LOG_GAMMA_ORACLE = [
    (0.5, 0.5723649429247000870717),
    (3.7, 1.428072326665387921872),
    (12.0, 17.50230784587388583929),
]


def test_digamma_frozen_oracle():
    for z, want in DIGAMMA_ORACLE:
        got = digamma(z)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13), z


def test_trigamma_frozen_oracle():
    for z, want in TRIGAMMA_ORACLE:
        got = trigamma(z)
        assert got == pytest.approx(want, rel=1e-13), z


def test_log_gamma_frozen_oracle():
    for z, want in LOG_GAMMA_ORACLE:
        assert log_gamma(z) == pytest.approx(want, rel=1e-13), z


def test_trigamma_one_matches_basel_series_oracle():
    # Independent oracle: psi_1(1) = sum 1/n^2. Partial sum plus the
    # integral tail bracket [1/(N+1), 1/N] pins the value to ~1e-9.
    n_terms = 40000
    partial = sum(1.0 / n**2 for n in range(1, n_terms + 1))
    lo = partial + 1.0 / (n_terms + 1)
    hi = partial + 1.0 / n_terms
    assert lo <= trigamma(1.0) <= hi


def test_digamma_integer_harmonic_identity():
    # psi(n) = -gamma + H_{n-1} exactly, for integer n
    h = 0.0
    for n in range(1, 30):
        assert digamma(float(n)) == pytest.approx(-EULER_GAMMA + h, rel=1e-13, abs=1e-13)
        h += 1.0 / n


def test_digamma_recurrence_property():
    rng = np.random.default_rng(101)
    for _ in range(500):
        z = float(rng.uniform(0.05, 50.0))
        assert digamma(z + 1.0) == pytest.approx(digamma(z) + 1.0 / z, rel=1e-12, abs=1e-12)


def test_trigamma_recurrence_property():
    rng = np.random.default_rng(102)
    for _ in range(500):
        z = float(rng.uniform(0.05, 50.0))
        assert trigamma(z + 1.0) == pytest.approx(trigamma(z) - 1.0 / z**2, rel=1e-12, abs=1e-12)


def test_digamma_is_derivative_of_log_gamma():
    # central differences of log_gamma as an independent cross-check
    rng = np.random.default_rng(103)
    h = 1e-6
    for _ in range(50):
        z = float(rng.uniform(0.5, 40.0))
        fd = (log_gamma(z + h) - log_gamma(z - h)) / (2.0 * h)
        assert digamma(z) == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_trigamma_is_derivative_of_digamma():
    rng = np.random.default_rng(104)
    h = 1e-6
    for _ in range(50):
        z = float(rng.uniform(0.5, 40.0))
        fd = (digamma(z + h) - digamma(z - h)) / (2.0 * h)
        assert trigamma(z) == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_log_gamma_matches_math_lgamma():
    rng = np.random.default_rng(105)
    for _ in range(200):
        z = float(rng.uniform(0.05, 1000.0))
        assert log_gamma(z) == math.lgamma(z)


def test_trigamma_positive_and_decreasing():
    zs = np.linspace(0.1, 60.0, 300)
    vals = [trigamma(float(z)) for z in zs]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("fn", [digamma, trigamma, log_gamma, gamma_family])
@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
def test_non_positive_or_non_finite_rejected(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@pytest.mark.parametrize(
    "fn, z, bound",
    [(trigamma, 1e-300, "1.49"), (trigamma, 1.4e-154, "1.49"), (digamma, 5e-324, "5.56")],
)
def test_arguments_whose_result_overflows_are_rejected(fn, z, bound):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning escapes
        with pytest.raises(ValueError, match=rf"{fn.__name__} overflows .* below {bound}"):
            fn(z)
        with pytest.raises(ValueError, match=fn.__name__):
            fn(np.array([2.0, z]))
        # just above the bound the result is finite
        at = 1.5e-154 if fn is trigamma else 5.57e-309
        assert math.isfinite(fn(at))


def loop_digamma(z):
    """Reference: the step-by-step recurrence and series on one float."""
    acc = 0.0
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    poly = 1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (1 / 240 - w * (1 / 132 - w * (691 / 32760)))))
    return acc + (math.log(z) - 0.5 / z - w * poly)


def loop_trigamma(z):
    acc = 0.0
    while z < 10.0:
        acc += 1.0 / (z * z)
        z += 1.0
    w = 1.0 / (z * z)
    poly = 1 / 6 - w * (1 / 30 - w * (1 / 42 - w * (1 / 30 - w * (5 / 66 - w * (691 / 2730)))))
    return acc + (1.0 / z + 0.5 * w + (w / z) * poly)


def test_batched_lift_equals_step_by_step_loop_exactly():
    rng = np.random.default_rng(108)
    z = np.concatenate(
        [np.exp(rng.uniform(-30.0, 32.0, 3000)), rng.uniform(0.0, 10.0, 3000)[1:],
         [1e-150, 9.999999999999998, 10.0, 1.0]]
    )
    assert np.array_equal(digamma(z), [loop_digamma(v) for v in z.tolist()])
    assert np.array_equal(trigamma(z), [loop_trigamma(v) for v in z.tolist()])


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (6,), (1, 6), (40, 1), (40, 6)])
def test_rung_sums_equal_the_step_by_step_loop_for_every_shape(shape):
    # one axis-0 reduce sums the rungs; over a single column NumPy would sum
    # them in another order, which the ladder's pad column rules out
    rng = np.random.default_rng(109)
    for _ in range(200 // math.prod(shape) + 1):
        z = rng.uniform(1e-3, 10.0, shape)  # every argument takes all 10 rungs
        flat = z.reshape(-1).tolist()
        _, dg, tg = gamma_family(z)
        for got, loop in (
            (digamma(z), loop_digamma), (dg, loop_digamma),
            (trigamma(z), loop_trigamma), (tg, loop_trigamma),
        ):
            got = np.asarray(got)
            assert got.shape == shape
            assert got.tobytes() == np.array([loop(v) for v in flat]).tobytes()


@pytest.mark.parametrize("fn", [digamma, trigamma, log_gamma])
def test_array_argument_is_elementwise_and_scalar_gives_float(fn):
    rng = np.random.default_rng(106)
    z = np.exp(rng.uniform(-5.0, 30.0, (7, 13)))  # below and far above the lift
    got = fn(z)
    assert got.shape == z.shape
    assert all(got[i, j] == fn(float(z[i, j])) for i in range(7) for j in range(13))
    assert type(fn(2.5)) is float


def test_scipy_oracle_over_log_uniform_range():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(107)
    z = np.exp(rng.uniform(0.0, math.log(1e14), 20_000))
    for ours, ref in (
        (digamma(z), special.digamma(z)),
        (trigamma(z), special.polygamma(1, z)),
        (log_gamma(z), special.gammaln(z)),
    ):
        assert np.all(np.abs(ours - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


# the lift region below 10 gets draws of its own
ARGUMENT = st.floats(_TRIGAMMA_MIN_Z, 20.0) | st.floats(_TRIGAMMA_MIN_Z, 1e14)


@st.composite
def kernel_arguments(draw):
    """A scalar, or an (N, K+1) array as reg_edl_kl passes, with K up to 100."""
    if draw(st.booleans()):
        return draw(ARGUMENT)
    shape = (draw(st.integers(1, 6)), draw(st.integers(2, 100)) + 1)
    return draw(arrays(float, shape, elements=ARGUMENT))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kernel_arguments())
def test_gamma_family_equals_the_three_functions_bit_for_bit(z):
    for got, fn in zip(gamma_family(z), (log_gamma, digamma, trigamma)):
        want = fn(z)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_gamma_family_refills_a_large_ladder_with_the_same_bits():
    # a ladder of about 290 KB, near the gradient oracle's largest, takes the
    # one path every size takes: trigamma on a copy, digamma on the ladder
    lo, hi = math.log(_TRIGAMMA_MIN_Z), math.log(1e14)
    z = np.exp(np.random.default_rng(0).uniform(lo, hi, (300, 11)))
    assert _LIFT_RUNGS * z.nbytes > 1 << 18
    for got, fn in zip(gamma_family(z), (log_gamma, digamma, trigamma)):
        assert got.tobytes() == fn(z).tobytes()

"""Log-gamma, digamma, and trigamma for positive real arguments.

Each function works elementwise on an array of any shape, so one call
covers a whole (N, K) batch; a scalar argument returns a float.

Digamma and trigamma use upward recurrence to push the argument above a
threshold, then a de Moivre asymptotic series. Accuracy is well below
1e-12 relative in the working range, so special-function error is
negligible next to the 1e-5 finite-difference steps used in gradient
checks.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["log_gamma", "digamma", "trigamma"]

# Arguments at or above this are handled by the asymptotic series directly;
# smaller arguments are lifted via the recurrences psi(z+1) = psi(z) + 1/z
# and psi1(z+1) = psi1(z) - 1/z**2.
_ASYMPTOTIC_Z = 10.0
# Rungs 0..10 of the recurrence ladder: 10 unit steps lift any z > 0 past 10.
_LIFT_RUNGS = 11
# Smallest arguments accepted. digamma(z) ~ -1/z, which overflows below
# _DIGAMMA_MIN_Z. trigamma(z) ~ 1/z**2: below _TRIGAMMA_MIN_Z, z*z is no
# longer a normal float, and 1/z**2 overflows at about half of it.
_MIN_POSITIVE = math.nextafter(0.0, 1.0)
_TRIGAMMA_MIN_Z = math.sqrt(sys.float_info.min)
_DIGAMMA_MIN_Z = math.nextafter(1.0 / sys.float_info.max, 1.0)


def _unbox(x):
    """A 0-d result as a Python scalar; any other array as is."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _check_arg(z, name: str, min_z: float = _MIN_POSITIVE) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    ok = (z >= min_z) & (z < math.inf)  # NaN fails both
    if not ok.all():
        bad = float(z[~ok].flat[0])
        if 0.0 < bad < math.inf:
            raise ValueError(f"{name} overflows for arguments below {min_z!r}, got {bad!r}")
        raise ValueError(f"{name} requires a positive finite argument, got {bad!r}")
    return z


def _elementwise(fn, z: np.ndarray) -> np.ndarray:
    """A math-module function per element: libm results, which np.log's
    vector kernel misses in the last bit for about 1 argument in 1e4. The
    memoryview hands out one Python float at a time, so no list is built."""
    return np.fromiter(map(fn, memoryview(z.ravel())), float, count=z.size).reshape(z.shape)


def _lift(z, name: str, min_z: float, step) -> tuple[np.ndarray, np.ndarray]:
    """Lift every entry of z to at least _ASYMPTOTIC_Z by the unit recurrence.

    Returns (lifted z, acc) with f(z) = acc + f(lifted z), where step(v)
    overwrites v with f(v) - f(v + 1). Rung j of the ladder is z + 1 + ... + 1,
    rounded after each addition, and both cumsums add in rung order, so every
    entry gets exactly what a step-by-step loop gives it. The ladder is the
    one (rungs, *z.shape) buffer: it is reused in place for the steps.
    """
    z = _check_arg(z, name, min_z)
    ladder = np.ones((_LIFT_RUNGS,) + z.shape)
    ladder[0] = z
    np.cumsum(ladder, axis=0, out=ladder)
    high = ladder >= _ASYMPTOTIC_Z
    # the lifted argument is the first rung at or past the threshold
    lifted = ladder.min(axis=0, where=high, initial=np.inf)
    step(ladder)
    np.copyto(ladder, 0.0, where=high)
    # a copy, so the ladder is freed on return rather than kept by a view
    return lifted, np.cumsum(ladder, axis=0, out=ladder)[-1].copy()


def _nested(w, coefs) -> np.ndarray:
    """c_0 - w*(c_1 - w*(... - w*c_n)), built from the innermost term out."""
    poly = coefs[-1]
    for c in reversed(coefs[:-1]):
        poly = c - w * poly
    return poly


def log_gamma(z):
    """Natural log of the gamma function, ln Gamma(z), for z > 0."""
    return _unbox(_elementwise(math.lgamma, _check_arg(z, "log_gamma")))


def digamma(z):
    """Digamma psi(z) = d/dz ln Gamma(z) for z >= about 5.6e-309, below
    which -1/z and so psi(z) overflow.

    Satisfies the recurrence psi(z+1) = psi(z) + 1/z to ~1e-15 absolute.
    """
    z, acc = _lift(z, "digamma", _DIGAMMA_MIN_Z, lambda v: np.divide(-1.0, v, out=v))
    w = 1.0 / (z * z)
    # psi(z) ~ ln z - 1/(2z) - sum_k B_2k / (2k z^2k)
    poly = _nested(w, (1 / 12, 1 / 120, 1 / 252, 1 / 240, 1 / 132, 691 / 32760))
    return _unbox(acc + (_elementwise(math.log, z) - 0.5 / z - w * poly))


def trigamma(z):
    """Trigamma psi1(z) = d/dz psi(z) for z >= about 1.5e-154, below which
    z*z is no longer a normal float and 1/z**2 soon overflows.

    Satisfies the recurrence psi1(z+1) = psi1(z) - 1/z**2 and, for z >= 1,
    the bound 1/z**2 < psi1(z) < 1/z**2 + pi**2/6.
    """
    z, acc = _lift(
        z, "trigamma", _TRIGAMMA_MIN_Z, lambda v: np.divide(1.0, np.multiply(v, v, out=v), out=v)
    )
    w = 1.0 / (z * z)
    # psi1(z) ~ 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k+1)
    poly = _nested(w, (1 / 6, 1 / 30, 1 / 42, 1 / 30, 5 / 66, 691 / 2730))
    return _unbox(acc + (1.0 / z + 0.5 * w + (w / z) * poly))

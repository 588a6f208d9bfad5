"""Log-gamma, digamma, and trigamma for positive real arguments.

Each function works elementwise on an array of any shape, so one call
covers a whole (N, K) batch; a scalar argument returns a float.
gamma_family returns all three functions from one pass, built on the
private _psi_pair, which gives digamma and trigamma alone from one pass
(the ev_ce loss's one kernel call).

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

__all__ = ["log_gamma", "digamma", "trigamma", "gamma_family"]

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
    # a NaN makes the min NaN, which fails the test; the mask is built only
    # to name the first bad entry
    if z.size and not (z.min() >= min_z and z.max() < math.inf):
        bad = float(z[~((z >= min_z) & (z < math.inf))].flat[0])
        if 0.0 < bad < math.inf:
            raise ValueError(f"{name} overflows for arguments below {min_z!r}, got {bad!r}")
        raise ValueError(f"{name} requires a positive finite argument, got {bad!r}")
    return z


def _elementwise(fn, z: np.ndarray) -> np.ndarray:
    """A math-module function per element: libm results. np.log's vector
    kernel (NumPy 2.4, AVX-512, 3M log-uniform draws per range) misses them
    in the last bit for 0.47% of arguments in [0.5, 2], 0.14% in [1, 10] and
    4e-6 over [1e-300, 1e300]. digamma takes the log of its lifted argument,
    which is always >= 10, and there np.log matched all 3M draws in [10, 20];
    but no sample proves the two equal, so the pass stays. The memoryview
    hands out one Python float at a time, so no list is built."""
    return np.fromiter(map(fn, memoryview(z.ravel())), float, count=z.size).reshape(z.shape)


def _lift(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ladder, low, lifted) for lifting every entry of z, and the pad, to at
    least _ASYMPTOTIC_Z by the unit recurrence. The (_LIFT_RUNGS, z.size + 1)
    ladder's rung 0 is z flattened and a pad of _ASYMPTOTIC_Z, and rung j is
    rung 0 + 1 + ... + 1, rounded after each addition: what a cumsum over the
    rungs gives, at a fraction of its cost. low marks the rungs below the
    threshold, and lifted is the first rung past them: the rungs increase, so
    it is rung low.sum() of each column.

    A series sums its steps over the rungs with low as the numerator of each
    divide, so a rung past the threshold adds 0.0. Over the 2 or more columns
    the pad ensures, that reduce adds the rungs in order, as a step-by-step
    loop adds them."""
    ladder = np.empty((_LIFT_RUNGS, z.size + 1))
    ladder[0, :-1] = z.reshape(-1)
    ladder[0, -1] = _ASYMPTOTIC_Z
    for prev, rung in zip(ladder, ladder[1:]):
        np.add(prev, 1.0, out=rung)
    low = ladder < _ASYMPTOTIC_Z
    return ladder, low, ladder[low.sum(axis=0), np.arange(z.size + 1)]


def _unpad(x: np.ndarray, shape: tuple):
    """A result over a padded ladder's columns, without the pad, in z's shape."""
    return _unbox(x[:-1].reshape(shape))


def _psi(ladder, low, z, w) -> np.ndarray:
    """digamma from the ladder, which is overwritten, at the lifted z; w = 1/z**2.
    psi(v) - psi(v + 1) = -1/v: the series minus the sum of 1/v over the low
    rungs, which rounds as adding the negated sum does."""
    acc = np.add.reduce(np.divide(low, ladder, out=ladder), axis=0)
    # psi(z) ~ ln z - 1/(2z) - sum_k B_2k / (2k z^2k), each step in place
    poly = _nested(w, (1 / 12, 1 / 120, 1 / 252, 1 / 240, 1 / 132, 691 / 32760))
    out = _elementwise(math.log, z)
    out -= 0.5 / z
    out -= np.multiply(w, poly, out=poly)
    out -= acc
    return out


def _psi1(ladder, low, z, w) -> np.ndarray:
    """trigamma from the ladder, which is overwritten, at the lifted z; w = 1/z**2."""
    # psi1(v) - psi1(v + 1) = 1/v**2
    acc = np.add.reduce(np.divide(low, np.multiply(ladder, ladder, out=ladder), out=ladder), axis=0)
    # psi1(z) ~ 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k+1), each step in place
    poly = _nested(w, (1 / 6, 1 / 30, 1 / 42, 1 / 30, 5 / 66, 691 / 2730))
    out = np.divide(1.0, z)
    out += 0.5 * w
    out += np.multiply(np.divide(w, z), poly, out=poly)
    out += acc
    return out


def _nested(w, coefs) -> np.ndarray:
    """c_0 - w*(c_1 - w*(... - w*c_n)), built from the innermost term out in
    one fresh array."""
    poly = np.multiply(w, coefs[-1])
    for c in coefs[-2:0:-1]:
        np.subtract(c, poly, out=poly)
        poly *= w
    return np.subtract(coefs[0], poly, out=poly)


def log_gamma(z):
    """Natural log of the gamma function, ln Gamma(z), for z > 0."""
    return _unbox(_elementwise(math.lgamma, _check_arg(z, "log_gamma")))


def digamma(z):
    """Digamma psi(z) = d/dz ln Gamma(z) for z >= about 5.6e-309, below
    which -1/z and so psi(z) overflow.

    Satisfies the recurrence psi(z+1) = psi(z) + 1/z to ~1e-15 absolute.
    """
    z = _check_arg(z, "digamma", _DIGAMMA_MIN_Z)
    ladder, low, lifted = _lift(z)
    return _unpad(_psi(ladder, low, lifted, 1.0 / (lifted * lifted)), z.shape)


def trigamma(z):
    """Trigamma psi1(z) = d/dz psi(z) for z >= about 1.5e-154, below which
    z*z is no longer a normal float and 1/z**2 soon overflows.

    Satisfies the recurrence psi1(z+1) = psi1(z) - 1/z**2 and, for z >= 1,
    the bound 1/z**2 < psi1(z) < 1/z**2 + pi**2/6.
    """
    z = _check_arg(z, "trigamma", _TRIGAMMA_MIN_Z)
    ladder, low, lifted = _lift(z)
    return _unpad(_psi1(ladder, low, lifted, 1.0 / (lifted * lifted)), z.shape)


def _psi_pair(z, name: str):
    """(z as checked, digamma(z), trigamma(z)), each equal to its own function's
    result bit for bit, from one argument check and one lift ladder; for z >=
    about 1.5e-154, as trigamma requires. name is the caller, for the error."""
    z = _check_arg(z, name, _TRIGAMMA_MIN_Z)
    ladder, low, lifted = _lift(z)
    w = np.multiply(lifted, lifted)
    np.divide(1.0, w, out=w)
    # each series overwrites its ladder: trigamma takes a copy, digamma the original
    tg = _psi1(ladder.copy(), low, lifted, w)
    dg = _psi(ladder, low, lifted, w)
    return z, _unpad(dg, z.shape), _unpad(tg, z.shape)


def gamma_family(z):
    """(log_gamma(z), digamma(z), trigamma(z)), each equal to its own function's
    result bit for bit: the digamma and trigamma pair plus lgamma, for z >=
    about 1.5e-154, as trigamma requires."""
    z, dg, tg = _psi_pair(z, "gamma_family")
    return _unbox(_elementwise(math.lgamma, z)), dg, tg

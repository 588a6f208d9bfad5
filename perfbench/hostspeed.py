"""Host-speed reference: a fixed CPU kernel timed next to every measured span.

On the shared 2-vCPU virtual machine the benchmark was tuned on, the
median op of a 25 s `gradcheck` run ranged from 1.3 s to 3.0 s within one
hour, with no steal time reported and CPU time equal to wall time. Host
speed moves in spells of seconds to minutes, and a median over one run
cannot remove a spell that covers the whole run. Instead, every timed op
and every set-up is bracketed by this kernel, and its time is scaled to
the reference speed:

    scaled_s = measured_s * REF_NOMINAL_S / reference_s

where `reference_s` is the mean of the kernel's time just before and just
after the op (after it, for a set-up). The kernel mixes the kinds of work
evidkit does on one core: a pure-Python loop, NumPy calls on tiny arrays,
and a small matrix product in NumPy's own loops. It leaves out BLAS: a
two-thread product waits for the slower vCPU, and its time moved far more
than any workload's did. The kernel does not touch evidkit, so a change to
the program moves `measured_s` and leaves `reference_s` alone.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the host the benchmark was tuned on (Python
# 3.11, NumPy 2.4), so scaled times are seconds at that host's usual speed.
REF_NOMINAL_S = 0.056

_VEC = np.linspace(0.1, 1.0, 5)
_MAT = np.random.default_rng(0).normal(size=(64, 64))


def _kernel() -> float:
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    total = float(acc)
    for _ in range(4_000):
        e = np.exp(_VEC)
        total += float(e.sum() / (5.0 + e.sum()))
    for _ in range(35):
        total += float(np.einsum("ij,jk->ik", _MAT, _MAT)[0, 0])
    return total


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def scale(measured_s: float, *reference: float) -> float:
    """`measured_s` at the reference speed, from the kernel times around it."""
    return measured_s * REF_NOMINAL_S * len(reference) / sum(reference)

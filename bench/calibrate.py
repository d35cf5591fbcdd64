"""A fixed reference computation that measures how fast the machine runs now.

On a shared virtual machine the same code runs up to 1.6 times slower for
tens of seconds, or drifts over minutes, as other tenants load the physical
cores; such a phase can span a whole run.  ``kernel`` is a fixed mix of the
kinds of work the program does (interpreter loops, ``Fraction`` and bigint
arithmetic, small numpy arrays), written in the benchmark so that no change
to the program moves it.  A run times it right after each item, and
:func:`scaled` converts a time to reference seconds: what it would have
taken while the kernel took REFERENCE_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Best time of ``kernel`` on the machine the bounds were set on (2 vCPUs,
#: Python 3.11, numpy 2.4).  Only the ratio to it matters, and it is the same
#: constant for every commit, so it need not match another machine.
REFERENCE_S = 0.0106


def kernel() -> None:
    import numpy as np  # after the caller has set the BLAS thread count

    total = 0
    for i in range(30000):
        total += i * i
    f = Fraction(0)
    for k in range(1, 600):
        f += Fraction(k, k + 1)
    x, y = 3 ** 30000, 7 ** 25000
    for _ in range(5):
        x * y
    a = np.linspace(0.01, 1.0, 900).reshape(30, 30)
    for _ in range(250):
        a = np.exp(np.log(a + 1e-3) * 0.5)
        a = a / a.sum(axis=1, keepdims=True)


def timed() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` in reference seconds, given the kernel time taken right after."""
    return seconds * REFERENCE_S / kernel_s

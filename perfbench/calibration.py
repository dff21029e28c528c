"""Machine-speed probe, for timing on a shared host.

On a host shared with other tenants, the speed of a core drifts by tens of
percent over minutes. The drift hits the interpreter, numpy and sparse
factorisations alike, and no number of passes in one run averages it out.
``probe`` times a fixed mix of those three kinds of work. It is code of the
benchmark, not of the program, so a change to the program cannot move it.
run.py probes between passes and scales each pass time by
``REFERENCE_S / probe time``. That gives seconds at the speed the host had
when ``REFERENCE_S`` was measured.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median probe time on the host where the benchmark was defined (2 cores,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
REFERENCE_S = 0.16

_N = 20000


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(400_000):
        acc += (i % 7) * 0.5
    x = np.linspace(1.0, 2.0, _N)
    for _ in range(400):
        x = np.sqrt(x * x + 1.0) - 0.5
    main = np.full(_N, 2.5)
    off = np.full(_N - 1, -1.0)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    rhs = np.ones(_N)
    for _ in range(8):
        x = spla.splu(A).solve(rhs)
    if not np.isfinite(acc + x[0]):
        raise ArithmeticError("probe produced a non-finite value")
    return perf_counter() - t0

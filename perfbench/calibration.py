"""Host-speed calibration: a fixed piece of work that uses none of
``trefftzdg``, timed beside every measured command.

The machines this benchmark runs on are shared: on a 2-core VM the same
fixed computation took anywhere between 0.052 s and 0.09 s, in phases
lasting from seconds to minutes.  A command's time and the calibration
time measured just before and after it rose and fell together
(correlation 0.8-0.9 over 99 samples), so the benchmark reports times as
``measured * REFERENCE_S / calibration``: seconds at the speed at which
the calibration takes ``REFERENCE_S``.  Because the calibration runs no
code of the program, a change to the program moves these times in full.

The work mixes what the workloads spend their time on: interpreted
Python loops, small dense matrix products and SVDs, streaming array
arithmetic and a sparse LU.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

#: nominal duration of one calibration; reported times are scaled to it
REFERENCE_S = 0.1

_N = 50
_LAPLACE_1D = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_MATRIX = (
    sparse.kron(sparse.eye(_N), _LAPLACE_1D)
    + sparse.kron(_LAPLACE_1D, sparse.eye(_N))
    + 0.1 * sparse.eye(_N * _N)
).tocsc()
_RHS = np.ones(_N * _N)
_SMALL = np.linspace(0.0, 1.0, 28 * 28).reshape(28, 28)
_LONG = np.linspace(0.0, 1.0, 200_000)


def calibrate():
    """Run the fixed work once; returns its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(80_000):
        total += i * i % 7
    table = {}
    for i in range(30_000):
        table[i % 97] = table.get(i % 97, 0) + i
    for _ in range(200):
        np.linalg.svd((_SMALL @ _SMALL.T)[:10, :15])
    for _ in range(20):
        np.sqrt(_LONG * _LONG + 1.0).sum()
    for _ in range(3):
        splu(_MATRIX).solve(_RHS)
    return time.perf_counter() - start

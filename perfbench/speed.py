"""Machine-speed calibration for the reported times.

The benchmark machine (2 cores, shared) runs in phases of tens of seconds
with different speeds: the same certify-exact round takes about 150 ms in
a fast phase and 300 ms in a slow one, and a fresh process lands in either.
Raw wall times of separate runs therefore spread by 30-40%.  A fixed
kernel of the same kind of work as the pipeline (small complex LAPACK
calls, matrix products and interpreter work) slows down with the machine,
so the benchmark times it after every operation and scales each round's
times by ``REFERENCE_S`` over the round's median kernel time.  Reported
times are thus wall times at the reference speed, at which the kernel
takes ``REFERENCE_S``.  The raw figures are printed to standard error
alongside.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
# Bound here, at import, so that a traced pass, which replaces
# numpy.linalg.svd, neither records nor slows the kernel's calls.
from numpy.linalg import inv, svd

#: The kernel's median time on the reference machine (2-core VM, Python
#: 3.11, numpy 2.4 with one OpenBLAS thread) in a fast phase.
REFERENCE_S = 0.0032

_rng = np.random.default_rng(20151002)
_WIDE = [_rng.standard_normal((6, 12)) + 1j * _rng.standard_normal((6, 12))
         for _ in range(8)]
_SQUARE = [_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
           for _ in range(8)]
_LARGE = _rng.standard_normal((40, 80)) + 1j * _rng.standard_normal((40, 80))


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    start = perf_counter()
    acc = 0.0
    for _ in range(8):
        for wide, square in zip(_WIDE, _SQUARE):
            acc += svd(wide, compute_uv=False)[0]
            acc += abs(inv(square)[0, 0]) + abs((square @ square)[0, 0])
            acc += sum({i: 2 * i for i in range(20)}.values())
    acc += svd(_LARGE, full_matrices=False)[1][0]
    elapsed = perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed

"""A fixed calibration kernel that measures how fast the host is right now.

The 2-vCPU host this benchmark was written on alternates, every few
seconds and sometimes for minutes, between two speeds about 1.6x apart,
with no steal time visible inside the VM. Timing metrics are therefore
scaled by the kernel's duration measured next to them:

    scaled = measured * REFERENCE_KERNEL_S / kernel duration nearby

so they read as if the kernel always took REFERENCE_KERNEL_S. The kernel
mixes what kincal's hot paths do (small matrix products and solves,
elementwise trigonometry, interpreter-level float arithmetic) and uses
no kincal code, so a faster kincal never makes the kernel faster.
Never change it: that would rescale every timing metric.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_KERNEL_S = 2.0e-3

_A = np.linspace(-1.0, 1.0, 36 * 36).reshape(36, 36)
_S = _A @ _A.T + 36.0 * np.eye(36)


def _kernel() -> float:
    total = 0.0
    for _ in range(40):
        product = _A @ _S
        solved = np.linalg.solve(_S, product[:, :3])
        total += float(np.sin(solved).sum()) + math.sqrt(abs(total) % 7.0 + 1.0)
        for j in range(30):
            total += j * 0.5
    return total


def probe() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start

"""Reference kernels: fixed pieces of work that measure the machine's speed.

On a shared virtual machine the speed of one vCPU changes from second to
second, by up to a factor of two, as other tenants come and go, and the
change is not the same for all code: small-array Python work slows about
twice as much as large LAPACK factorizations.  Timing a kernel that does the
same kind of work as a solve, right before and right after it, tells how fast
the machine ran that solve.  Dividing the solve's time by the kernel's and
multiplying by the kernel's ``REF_S`` expresses the solve in seconds at the
reference speed, the speed at which the kernel takes ``REF_S`` seconds.  A
change to the program moves those seconds as much as it moves wall time; a
change in the machine's speed moves them much less.

The kernels use numpy only, never homtrack, so no change to the program can
move them.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20240607)
_SMALL = _RNG.standard_normal((3, 3))
_VEC = _RNG.standard_normal(3)
_MAT100 = _RNG.standard_normal((100, 101))
_MAT200 = _RNG.standard_normal((200, 201))
_RHS200 = _RNG.standard_normal(200)


def _python(reps: int) -> float:
    """Python calls on 3-vectors: the per-call overhead of the homotopy maps,
    the tracker and scipy's integrator on the paper's small systems."""
    acc = 0.0
    for _ in range(reps):
        y = _SMALL @ _VEC + np.abs(_VEC)
        acc += float(np.linalg.norm(y)) + float(np.max(y))
    return acc


def _svd() -> float:
    """A full SVD per ODE right-hand side at stacked dimension 60-120, with
    its Python overhead."""
    return _python(100) + sum(float(np.linalg.svd(_MAT100)[1][0]) for _ in range(4))


def _lstsq() -> float:
    """The pc tracker's corrector least squares and per-point SVD at stacked
    dimension 200."""
    z = np.linalg.lstsq(_MAT200, _RHS200, rcond=None)[0]
    return float(z[0]) + float(np.linalg.svd(_MAT200)[1][0])


KERNELS = {"python": lambda: _python(400), "svd": _svd, "lstsq": _lstsq}

# each kernel's time at the reference speed, close to its median time on a
# 2-vCPU x86-64 VM with BLAS threads pinned to 1
REF_S = {"python": 0.004, "svd": 0.011, "lstsq": 0.018}


def reference_s(kernel: str) -> float:
    """Time of one run of ``kernel``, in seconds."""
    run = KERNELS[kernel]
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0

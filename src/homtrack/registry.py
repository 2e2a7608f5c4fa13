"""Benchmark problem registry.

Four classic scalar/small systems (ex1..ex4), randomly generated monotone
affine complementarity instances (lcp-rand-<n>-<seed>), and a fixed linear
complementarity instance per dimension (ncp-lin-<n>).  Each entry carries the
default run parameters of the experiment table it belongs to.
"""

from __future__ import annotations

import re
from typing import Dict, Union

import numpy as np

from .ncp import NcpInstance, lcp_instance
from .problems import Problem

Array = np.ndarray

EX3_MATRIX = np.array([
    [1.0, 0.5, 0.3],
    [0.6, 1.0, 0.1],
    [0.2, 0.4, 1.0],
])
EX3_RHS = np.array([5.0, 7.0, 4.0])


def _ex1_f(x: Array) -> Array:
    return np.array([2.0 * x[0] - 4.0 + np.sin(2.0 * np.pi * x[0])])


def _ex1_jac(x: Array) -> Array:
    return np.array([[2.0 + 2.0 * np.pi * np.cos(2.0 * np.pi * x[0])]])


def _ex1_jac_block(x: Array) -> Array:
    return (2.0 + 2.0 * np.pi * np.cos(2.0 * np.pi * x)).reshape(-1, 1, 1)


def _ex2_f(v: Array) -> Array:
    x, q = v
    return np.array([x * x + q * q - 1.0, np.sin(x) - q])


def _ex2_jac(v: Array) -> Array:
    x, q = v
    return np.array([[2.0 * x, 2.0 * q], [np.cos(x), -1.0]])


def _ex2_jac_block(v: Array) -> Array:
    x, q = v.T
    out = np.empty((len(v), 2, 2))
    out[:, 0, 0] = 2.0 * x
    out[:, 0, 1] = 2.0 * q
    out[:, 1, 0] = np.cos(x)
    out[:, 1, 1] = -1.0
    return out


def _ex3_f(x: Array) -> Array:
    return EX3_MATRIX @ x - EX3_RHS


def _ex3_jac(x: Array) -> Array:
    return EX3_MATRIX.copy()


def _ex3_jac_block(x: Array) -> Array:
    return np.broadcast_to(EX3_MATRIX, (len(x), 3, 3))


def _ex4_f(x: Array) -> Array:
    t = x[0]
    return np.array([np.arctan(100.0 * t) / np.pi
                     + np.sin(5.0 * t / (t * t + 0.2)) / 2.0
                     + 0.1 * t])


def _ex4_jac(x: Array) -> Array:
    t = x[0]
    u = 5.0 * t / (t * t + 0.2)
    du = 5.0 * (0.2 - t * t) / (t * t + 0.2) ** 2
    return np.array([[100.0 / (np.pi * (1.0 + (100.0 * t) ** 2))
                      + np.cos(u) * du / 2.0
                      + 0.1]])


def _ex4_jac_block(t: Array) -> Array:
    # _ex4_jac squares numpy scalars with ``** 2``, which is libm's pow; on an
    # array ``** 2`` is a multiply, which rounds differently about once in a
    # thousand points, while float_power calls pow for every element
    u = 5.0 * t / (t * t + 0.2)
    du = 5.0 * (0.2 - t * t) / np.float_power(t * t + 0.2, 2)
    return (100.0 / (np.pi * (1.0 + np.float_power(100.0 * t, 2)))
            + np.cos(u) * du / 2.0
            + 0.1).reshape(-1, 1, 1)


_PROBLEMS: Dict[str, Problem] = {
    "ex1": Problem(dim=1, f=_ex1_f, jac=_ex1_jac, name="ex1",
                   box=np.array([[-100.0, 100.0]]), jac_block=_ex1_jac_block),
    "ex2": Problem(dim=2, f=_ex2_f, jac=_ex2_jac, name="ex2",
                   box=np.array([[-100.0, 100.0], [-100.0, 100.0]]),
                   jac_block=_ex2_jac_block),
    "ex3": Problem(dim=3, f=_ex3_f, jac=_ex3_jac, name="ex3",
                   box=np.array([[-100.0, 100.0]] * 3), jac_block=_ex3_jac_block),
    "ex4": Problem(dim=1, f=_ex4_f, jac=_ex4_jac, name="ex4",
                   box=np.array([[-2.0, 2.0]]), jac_block=_ex4_jac_block),
}

# run parameters mirroring each experiment table's caption
DEFAULTS: Dict[str, dict] = {
    "ex1": dict(method="nfph", alpha=50.0, sf=2.5, cn=70, anchor=[0.0]),
    "ex2": dict(method="nfph", alpha=50.0, sf=20.0, cn=70, anchor=[0.0, 0.0]),
    "ex3": dict(method="nfph", alpha=50.0, sf=30.0, cn=50, anchor=[0.0, 0.0, 0.0]),
    "ex4": dict(method="nfph", alpha=75.0, sf=5.0, cn=70, anchor=[0.2]),
}
_NCP_DEFAULTS = dict(method="nfph", alpha=1.0, sf=50.0, cn=100, beta=1.0)

# method rows making up each problem's headline table
TABLE_METHODS: Dict[str, list] = {
    "ex1": [("nfph", 0.001), ("nfph", 50.0), ("fph", None), ("nh", None)],
    "ex2": [("nfph", 0.001), ("nfph", 50.0), ("fph", None), ("nh", None)],
    "ex3": [("nfph", 0.001), ("nfph", 50.0), ("fph", None), ("nh", None)],
    "ex4": [("nfph", 0.001), ("nfph", 1.0), ("nfph", 75.0), ("fph", None), ("nh", None)],
}

_LCP_RAND = re.compile(r"^lcp-rand-(\d+)-(\d+)$")
_NCP_LIN = re.compile(r"^ncp-lin-(\d+)$")


def make_random_lcp(n: int, seed: int) -> NcpInstance:
    """Monotone affine instance: M = B^T B + I with B ~ U[-1, 1], q ~ U[-1, 1].

    M is positive definite by construction, so the instance has a unique
    solution reachable by enumeration.
    """
    rng = np.random.default_rng(seed)
    B = rng.uniform(-1.0, 1.0, size=(n, n))
    M = B.T @ B + np.eye(n)
    q = rng.uniform(-1.0, 1.0, size=n)
    return lcp_instance(M, q, name=f"lcp-rand-{n}-{seed}")


def make_linear_ncp(n: int) -> NcpInstance:
    """Deterministic tridiagonal monotone instance with forcing q = -1."""
    M = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    q = -np.ones(n)
    return lcp_instance(M, q, name=f"ncp-lin-{n}")


def registry_get(problem_id: str) -> Union[Problem, NcpInstance]:
    """Look up a benchmark instance by id.

    Ids: ex1..ex4, lcp-rand-<n>-<seed>, ncp-lin-<n>.
    """
    if problem_id in _PROBLEMS:
        return _PROBLEMS[problem_id]
    m = _LCP_RAND.match(problem_id)
    if m:
        return make_random_lcp(int(m.group(1)), int(m.group(2)))
    m = _NCP_LIN.match(problem_id)
    if m:
        return make_linear_ncp(int(m.group(1)))
    raise KeyError(f"unknown problem id {problem_id!r}")


def registry_defaults(problem_id: str) -> dict:
    """Default run parameters for an id (table captions for ex1..ex4)."""
    registry_get(problem_id)  # validate
    if problem_id in DEFAULTS:
        return dict(DEFAULTS[problem_id])
    return dict(_NCP_DEFAULTS)


def list_problems() -> list:
    return sorted(_PROBLEMS) + ["lcp-rand-<n>-<seed>", "ncp-lin-<n>"]

"""Benchmark problem registry.

Four classic scalar/small systems (ex1..ex4), randomly generated monotone
affine complementarity instances (lcp-rand-<n>-<seed>), and a fixed linear
complementarity instance per dimension (ncp-lin-<n>).  Each id, or id
family, has one caption entry: the run parameters and the (method, alpha)
rows of the experiment table it belongs to.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, Tuple, Union

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


def _quiet_past(limit: float):
    """Run a map of a 1-vector x as it is while |x[0]| < limit, and with
    numpy's overflow and invalid-value warnings off beyond: the values are
    the same, and the map's finiteness checks type a non-finite one."""
    def wrap(fn):
        @functools.wraps(fn)
        def quiet(x: Array) -> Array:
            if abs(x[0]) < limit:
                return fn(x)
            with np.errstate(over="ignore", invalid="ignore"):
                return fn(x)
        return quiet
    return wrap


# ex4's squares stay finite while |t| < 1e77: (t * t + 0.2) ** 2 overflows at
# about 1.2e77, (100 t) ** 2 at 1.3e152, and t * t at 1.3e154, past which F'
# is NaN
@_quiet_past(1e77)
def _ex4_f(x: Array) -> Array:
    t = x[0]
    return np.array([np.arctan(100.0 * t) / np.pi
                     + np.sin(5.0 * t / (t * t + 0.2)) / 2.0
                     + 0.1 * t])


@_quiet_past(1e77)
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


# the id families: a template whose <fields> are integers, and its builder
_FAMILIES: Dict[str, Callable[..., NcpInstance]] = {
    "lcp-rand-<n>-<seed>": make_random_lcp, "ncp-lin-<n>": make_linear_ncp}

# each table's caption, by id or family template: the run parameters it sets,
# BenchmarkSpec's defaults holding the rest, and its (method, alpha) rows;
# complementarity ids take only nfph, so their table sweeps the shift scale
_SQUARE_ROWS = (("nfph", 0.001), ("nfph", 50.0), ("fph", None), ("nh", None))
_NCP_CAPTION = (dict(alpha=1.0, sf=50.0, cn=100), (("nfph", 0.001), ("nfph", 1.0), ("nfph", 50.0)))
_CAPTIONS: Dict[str, Tuple[dict, tuple]] = {
    "ex1": (dict(alpha=50.0, sf=2.5, cn=70, anchor=[0.0]), _SQUARE_ROWS),
    "ex2": (dict(alpha=50.0, sf=20.0, cn=70, anchor=[0.0, 0.0]), _SQUARE_ROWS),
    "ex3": (dict(alpha=50.0, sf=30.0, cn=50, anchor=[0.0, 0.0, 0.0]), _SQUARE_ROWS),
    "ex4": (dict(alpha=75.0, sf=5.0, cn=70, anchor=[0.2]),
            (("nfph", 0.001), ("nfph", 1.0), ("nfph", 75.0), ("fph", None), ("nh", None))),
    "lcp-rand-<n>-<seed>": _NCP_CAPTION,
    "ncp-lin-<n>": _NCP_CAPTION,
}


def _parse(problem_id: str) -> Tuple[str, tuple]:
    """The id's key, the id itself or its family's template, and the integer
    arguments of the family's builder (none for a fixed problem)."""
    if problem_id in _PROBLEMS:
        return problem_id, ()
    for template in _FAMILIES:
        m = re.match(re.sub(r"<\w+>", r"(\\d+)", template) + "$", problem_id)
        if m:
            return template, tuple(int(g) for g in m.groups())
    raise KeyError(f"unknown problem id {problem_id!r}")


def registry_get(problem_id: str) -> Union[Problem, NcpInstance]:
    """The instance of an id (see ``list_problems``); a family id builds a
    new one."""
    key, args = _parse(problem_id)
    return _FAMILIES[key](*args) if args else _PROBLEMS[key]


def registry_defaults(problem_id: str) -> dict:
    """The caption of an id's table, as ``BenchmarkSpec`` overrides, found
    without building the instance."""
    return dict(_CAPTIONS[_parse(problem_id)[0]][0])


def table_methods(problem_id: str) -> tuple:
    """The (method, alpha) rows of an id's table, found without building it."""
    return _CAPTIONS[_parse(problem_id)[0]][1]


def list_problems() -> list:
    return sorted(_PROBLEMS) + list(_FAMILIES)

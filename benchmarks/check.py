"""Correctness check for one ``homtrack solve --out json`` command.

The oracles are independent of the program: the ex1..ex4 roots are written
out here, ex3 is solved directly, and complementarity instances are rebuilt
from their ids so the complementarity residual is computed from M and q, not
by homtrack's own ``comp_residual``.
"""

from __future__ import annotations

import json
import re
from typing import List, Optional

import numpy as np

ROOT_TOL = 1e-6
COMP_TOL = 1e-8
FNEW_TOL = 1e-12

_EX3_M = np.array([[1.0, 0.5, 0.3], [0.6, 1.0, 0.1], [0.2, 0.4, 1.0]])
_EX3_Q = np.array([5.0, 7.0, 4.0])

ROOTS = {
    "ex1": np.array([2.0]),
    "ex2": np.array([-0.7390851, -0.6736120]),
    "ex3": np.linalg.solve(_EX3_M, _EX3_Q),
    "ex4": np.array([0.0]),
}


def lcp_data(problem: str) -> Optional[tuple]:
    """(M, q) of an ``lcp-rand-<n>-<seed>`` or ``ncp-lin-<n>`` id, else None."""
    m = re.fullmatch(r"lcp-rand-(\d+)-(\d+)", problem)
    if m:
        n = int(m.group(1))
        rng = np.random.default_rng(int(m.group(2)))
        B = rng.uniform(-1.0, 1.0, size=(n, n))
        M = B.T @ B + np.eye(n)
        return M, rng.uniform(-1.0, 1.0, size=n)
    m = re.fullmatch(r"ncp-lin-(\d+)", problem)
    if m:
        n = int(m.group(1))
        return 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1), -np.ones(n)
    return None


def comp_residual(M, q, x) -> float:
    """Worst violation of x >= 0, Mx + q >= 0 and x_i (Mx + q)_i = 0."""
    w = M @ x + q
    return float(max(np.max(np.concatenate([-x, -w, np.abs(x * w)])), 0.0))


def check_solve(problem: str, rc: Optional[int], error: Optional[str],
                stdout: str) -> List[str]:
    """Reasons the solve failed its check; an empty list means it passed."""
    if error is not None:
        return [f"raised {error}"]
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON report ({type(exc).__name__})"]
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    row = rows[0]
    if row.get("nsol") is None or row.get("fnew") is None:
        return ["no polished solution"]
    nsol = np.asarray(row["nsol"], dtype=float)
    fnew = np.asarray(row["fnew"], dtype=float)
    problems = []
    if not np.all(np.isfinite(fnew)) or np.max(np.abs(fnew)) > FNEW_TOL:
        problems.append(f"|fnew|_inf = {np.max(np.abs(fnew)):.3e} > {FNEW_TOL:g}")
    if problem in ROOTS:
        root = ROOTS[problem]
        err = np.max(np.abs(nsol - root)) if nsol.shape == root.shape else np.inf
        if not err <= ROOT_TOL:
            problems.append(f"nsol is {err:.3e} from the oracle root")
    else:
        data = lcp_data(problem)
        if data is None:
            return [f"no oracle for {problem!r}"]
        M, q = data
        n = q.shape[0]
        if nsol.shape != (2 * n,):
            return [f"nsol has shape {nsol.shape}, expected ({2 * n},)"]
        res = comp_residual(M, q, nsol[:n])
        if not res <= COMP_TOL:
            problems.append(f"complementarity residual {res:.3e} > {COMP_TOL:g}")
    return problems

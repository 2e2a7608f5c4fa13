"""Span tracer that wraps homtrack's public functions from outside the program.

``Tracer.installed()`` replaces each traced function at every module binding
(``homtrack.tracking.normal_flow_correct``, ``homtrack.refine.eval_F``, the
``homtrack`` package namespace, ...), the homotopy classes' ``rho`` and
``rho_jacobian`` methods, and the factorizations and solves of
``numpy.linalg`` and ``scipy.linalg``.  Every binding is restored on exit.

A wrapped call records a span (name, start, end, parent, solve id) in memory
only while a solve is open (``Tracer.solve``); outside one the wrappers pass
straight through, so the benchmark's own checks are never counted.  Counters
read from arguments and return values (``OdeResult.nfev``, corrector
iterations, ``flagged`` from ``cross_lambda1``, ...) accumulate next to the
spans.  ``summary`` turns both into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

LINALG_PREFIX = "linalg."


def _mn(a):
    shape = np.shape(a)
    m, n = (shape[-2], shape[-1]) if len(shape) >= 2 else (shape[0], 1)
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch, max(m, n), min(m, n)


def _nrhs(b) -> int:
    shape = np.shape(b)
    return shape[-1] if len(shape) >= 2 else 1


def _arg(args, kwargs, pos, name, default):
    return kwargs.get(name, args[pos] if len(args) > pos else default)


# Leading-term flop counts (Golub & Van Loan) computed from argument shapes,
# not measured.  l x k is the matrix with l >= k, r the number of right-hand
# sides.
def _svd_flop(args, kwargs):
    b, l, k = _mn(args[0])
    if _arg(args, kwargs, 2, "compute_uv", True):
        return b * (4 * l * k * k + 22 * k ** 3)
    return b * (4 * l * k * k - 4 * k ** 3 / 3)


def _lstsq_flop(args, kwargs):
    b, l, k = _mn(args[0])
    return b * (4 * l * k * k - 4 * k ** 3 / 3 + 2 * l * k * _nrhs(args[1]))


def _qr_flop(args, kwargs):
    b, l, k = _mn(args[0])
    return b * (4 * l * k * k - 4 * k ** 3 / 3)


def _cubic(coef):
    def flop(args, kwargs):
        b, _, k = _mn(args[0])
        return b * coef * k ** 3
    return flop


def _solve_flop(args, kwargs):
    b, _, k = _mn(args[0])
    return b * (2 * k ** 3 / 3 + 2 * k * k * _nrhs(args[1]))


def _tri_flop(sweeps):
    def flop(args, kwargs):
        n = np.shape(args[1])[0]  # the right-hand side carries the order
        return sweeps * n * n * _nrhs(args[1])
    return flop


# module -> function -> (kind, flop model)
LINALG = {
    "numpy.linalg": {
        "svd": ("svd", _svd_flop), "pinv": ("svd", _svd_flop),
        "det": ("det", _cubic(2 / 3)), "slogdet": ("det", _cubic(2 / 3)),
        "lstsq": ("lstsq", _lstsq_flop), "qr": ("qr", _qr_flop),
        "solve": ("solve", _solve_flop), "inv": ("solve", _cubic(2.0)),
        "cholesky": ("solve", _cubic(1 / 3)),
    },
    "scipy.linalg": {
        "svd": ("svd", _svd_flop), "det": ("det", _cubic(2 / 3)),
        "lstsq": ("lstsq", _lstsq_flop), "qr": ("qr", _qr_flop),
        "solve": ("solve", _solve_flop), "lu_factor": ("solve", _cubic(2 / 3)),
        "cho_factor": ("solve", _cubic(1 / 3)), "lu_solve": ("solve", _tri_flop(2)),
        "cho_solve": ("solve", _tri_flop(2)), "solve_triangular": ("solve", _tri_flop(1)),
    },
}


def _flop(model, args, kwargs) -> float:
    if model is None:
        return 0.0
    try:
        return float(model(args, kwargs))
    except (TypeError, ValueError, IndexError):  # an unusual call signature
        return 0.0


def _add(key, amount):
    def after(counts, out):
        counts[key] += amount(out)
    return after


def _targets():
    """(owner module, attribute, span name, counter hook) of every traced
    homtrack function.  Methods are given as ``Class.method``."""
    return [
        ("homtrack.tracking", "solve_ivp", "tracking.integrate",
         lambda c, out: c.update({"tracking.integrate.nfev": out.nfev,
                                  "tracking.integrate.steps": len(out.t) - 1})),
        ("homtrack.tracking", "normal_flow_correct", "tracking.correct",
         _add("tracking.correct.iters", lambda out: out[1])),
        ("homtrack.tracking", "checkpoint_scan", "tracking.scan", None),
        ("homtrack.tracking", "cross_lambda1", "tracking.land",
         _add("tracking.land.flagged", lambda out: int(bool(out[1])))),
        ("homtrack.tracking", "track", "tracking.track",
         _add("tracking.points", lambda out: len(out.points))),
        ("homtrack.problems", "HomotopyMap.rho", "problems.rho", None),
        ("homtrack.problems", "HomotopyMap.rho_jacobian", "problems.rho_jac", None),
        ("homtrack.problems", "eval_F", "problems.F", None),
        ("homtrack.problems", "jacobian", "problems.jac", None),
        ("homtrack.ncp", "NcpHomotopy.rho", "ncp.rho", None),
        ("homtrack.ncp", "NcpHomotopy.rho_jacobian", "ncp.rho_jac", None),
        ("homtrack.ncp", "eval_Fmu", "ncp.Fmu", None),
        ("homtrack.refine", "newton_polish", "refine.polish",
         lambda c, out: c.update({"refine.polish.iters": out.iterations,
                                  "refine.polish.unconverged": int(not out.converged)})),
        ("homtrack.diagnostics", "check_assumption1", "diagnostics",
         _add("diagnostics.samples", lambda out: out.samples)),
        ("homtrack.diagnostics", "check_start_ball", "diagnostics",
         _add("diagnostics.samples", lambda out: out.samples)),
        ("homtrack.registry", "registry_get", "registry.get", None),
        ("homtrack.bench", "run_benchmark", "bench.run", None),
        ("homtrack.bench", "emit_table", "bench.emit",
         _add("bench.emit.bytes", lambda out: len(out.encode()))),
    ]


class Tracer:
    """Spans and counters of one benchmark process, kept in memory."""

    def __init__(self):
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.solve_of: List[int] = []
        self.flop: List[float] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._solve: Optional[int] = None

    # -- recording -----------------------------------------------------
    def _open(self, name: str, flop: float) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve_of.append(self._solve)
        self.flop.append(flop)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, after=None, flop=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._solve is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name, _flop(flop, args, kwargs))
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".fails"] += 1
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer.counts, out)
            return out

        return traced

    @contextlib.contextmanager
    def solve(self, solve_id: int, name: str = "cli.solve"):
        """Record spans for the calls made inside, under one root span."""
        if self._solve is not None:
            raise RuntimeError("solves do not nest")
        self._solve = solve_id
        idx = self._open(name, 0.0)
        try:
            yield
        finally:
            self._close(idx)
            self._solve = None

    # -- installation --------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at every binding; restore on exit."""
        import scipy.linalg  # noqa: F401  (its functions are wrapped below)
        import homtrack.cli  # noqa: F401  (so its bindings are found)

        patches = []  # (owner, attribute, original)

        def patch(owner, attr, wrapped):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

        targets = _targets()
        for module, _, _, _ in targets:
            importlib.import_module(module)
        homtrack = [m for k, m in sys.modules.items()
                    if m is not None and (k == "homtrack" or k.startswith("homtrack."))]
        try:
            for module, attr, name, after in targets:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    patch(cls, meth, self.wrap(getattr(cls, meth), name, after))
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(original, name, after)
                for mod in homtrack:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        patch(mod, key, wrapped)
            for module, funcs in LINALG.items():
                owner = sys.modules[module]
                for attr, (kind, flop) in funcs.items():
                    original = getattr(owner, attr)
                    wrapped = self.wrap(original, LINALG_PREFIX + kind, flop=flop)
                    patch(owner, attr, wrapped)
                    for mod in homtrack:
                        for key in [k for k, v in vars(mod).items() if v is original]:
                            patch(mod, key, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------
    def self_times(self) -> List[float]:
        """Span duration minus the time its child spans cover."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.name))]

    def summary(self) -> Dict[str, float]:
        """Per-layer totals over every recorded span.

        ``<name>.calls``, ``<name>.s`` (inclusive) and ``<name>.self_s`` for
        every span name, ``<name>.fails`` for raised exceptions, the hook
        counters, and ``tracking.linalg.*`` for the
        outermost linear-algebra spans whose nearest enclosing layer span is
        in ``tracking``.
        """
        out: Dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        for i, name in enumerate(self.name):
            p = self.parent[i]
            if name.startswith(LINALG_PREFIX):
                if p >= 0 and self.name[p].startswith(LINALG_PREFIX):
                    continue  # counted with the enclosing factorization
                if p < 0 or not self.name[p].startswith("tracking."):
                    continue
                kind = name[len(LINALG_PREFIX):]
                out["tracking.linalg.calls"] += 1
                out[f"tracking.linalg.{kind}.calls"] += 1
                out["tracking.linalg.s"] += self.end[i] - self.start[i]
                out["tracking.linalg.gflop"] += self.flop[i] / 1e9
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += self.end[i] - self.start[i]
            out[f"{name}.self_s"] += selfs[i]
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)

    def write_spans(self, path: str):
        """Gzipped JSON lines, one array per span: [name, solve, start, end,
        parent], times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.name):
                fh.write(json.dumps([name, self.solve_of[i], round(self.start[i] - t0, 7),
                                     round(self.end[i] - t0, 7), self.parent[i]],
                                    separators=(",", ":")) + "\n")

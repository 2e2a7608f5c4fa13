"""Experiment runner: one homotopy solve per spec, table/CSV/JSON reports.

Benchmark runs default to the adjugate tangent field because that is the
parametrization under which the reference experiment tables (interval counts,
branch selection on symmetric problems) are reproducible; the library-level
tracker default remains unit arclength.  Timing covers tracking plus
polishing only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, asdict
from typing import List, Optional, Sequence, Union

import numpy as np

from .diagnostics import HypothesisReport, check_assumption1, check_start_ball
from .ncp import NcpHomotopy, NcpInstance
from .problems import (HOMOTOPY_KINDS, DomainError, HomotopyMap, Problem, check_alpha,
                       check_positive, eval_F, scaled_residual)
from .refine import merit, newton_polish
from .registry import registry_defaults, registry_get, table_methods
from .tracking import STATUS_DOMAIN, CurveTrace, TrackerConfig, track

Array = np.ndarray

TABLE_COLUMNS = ("method", "N_c", "hsol", "nsol", "fhom", "fnew", "time(s)")
OUTPUT_FORMATS = ("table", "json", "csv")

# samples of the assumption-1 check that runs with every nfph row
DIAGNOSTICS_SAMPLES = 2000


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything needed to reproduce one table row.  The field defaults hold
    every run setting that no table caption in the registry sets."""

    problem: str
    method: str = "nfph"
    alpha: float = 50.0
    strategy: str = "ode"
    sf: float = 5.0
    cn: int = 70
    anchor: Optional[Sequence[float]] = None
    beta: float = 1.0
    out: str = "table"
    seed: int = 0
    ode_field: str = "adjugate"
    ball_radius: Optional[float] = None

    def __post_init__(self):
        if self.method not in HOMOTOPY_KINDS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "nfph":
            check_alpha(self.alpha)
        if self.ball_radius is not None:
            check_positive(self.ball_radius, "ball_radius")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.out not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output format {self.out!r}")

    @classmethod
    def for_problem(cls, problem_id: str, **overrides) -> "BenchmarkSpec":
        """Spec of the problem's table caption with ``overrides`` on top.  An
        override of None keeps the caption's value, or else the field's
        default; an unknown keyword raises a TypeError."""
        params = registry_defaults(problem_id)
        params.update({k: v for k, v in overrides.items() if v is not None})
        return cls(problem=problem_id, **params)


@dataclass
class SolveReport:
    """One table row.  fhom and fnew are the scaled residuals of hsol and
    nsol on ``target``, computed once by ``run_benchmark``; ``n_c`` is the
    trace's N_c."""

    method_label: str
    n_c: Optional[int]
    hsol: Optional[Array]
    nsol: Optional[Array]
    fhom: Optional[Array]
    fnew: Optional[Array]
    time_s: float
    status: str
    converged: bool
    diagnostics: List[HypothesisReport] = field(default_factory=list)
    trace: Optional[CurveTrace] = None
    target: Optional[Problem] = None  # the system fhom and fnew are measured on

    def row_dict(self) -> dict:
        return {
            "method": self.method_label,
            "Nc": self.n_c,
            "hsol": None if self.hsol is None else [float(v) for v in self.hsol],
            "nsol": None if self.nsol is None else [float(v) for v in self.nsol],
            "fhom": None if self.fhom is None else [float(v) for v in self.fhom],
            "fnew": None if self.fnew is None else [float(v) for v in self.fnew],
            "time_s": float(self.time_s),
            "status": self.status,
        }


def method_label(method: str, alpha: Optional[float]) -> str:
    if method == "nfph":
        return f"NFPH(alpha={alpha:g})"
    return method.upper()


def build_homotopy(spec: BenchmarkSpec) -> Union[HomotopyMap, NcpHomotopy]:
    """The spec's homotopy context: an ``NcpHomotopy`` for a complementarity
    id, else a ``HomotopyMap`` on the square system, which starts at the
    origin when the spec has no anchor (``for_problem`` takes the caption's)."""
    instance = registry_get(spec.problem)
    if isinstance(instance, NcpInstance):
        if spec.method != "nfph":
            raise ValueError("complementarity runs support only the nfph method")
        return NcpHomotopy(instance, spec.alpha, spec.anchor, spec.beta)
    anchor = np.zeros(instance.dim) if spec.anchor is None else spec.anchor
    alpha = spec.alpha if spec.method == "nfph" else None
    return HomotopyMap(kind=spec.method, problem=instance, anchor=anchor, alpha=alpha)


def tracker_config(spec: BenchmarkSpec) -> TrackerConfig:
    return TrackerConfig(
        strategy=spec.strategy,
        s_max=spec.sf,
        checkpoints=spec.cn,
        ode_field=spec.ode_field,
    )


def run_benchmark(spec: BenchmarkSpec) -> SolveReport:
    """Track, polish, and assemble one report row.

    Tracker failures are reported through the status field rather than
    raised; the partial trace stays attached for inspection.
    """
    try:
        hmap = build_homotopy(spec)
    except DomainError:
        # the map is not finite at the anchor, so the curve has no start point
        hmap = None
    cfg = tracker_config(spec)

    t0 = time.perf_counter()
    # with no start point pc has taken 0 steps and ode found no interval
    trace = (track(hmap, cfg) if hmap is not None
             else CurveTrace(points=[], status=STATUS_DOMAIN,
                             n_c=0 if cfg.strategy == "pc" else None))
    hsol = trace.hsol
    nsol = None
    converged = False
    target = hmap.problem if hmap is not None else None
    if hsol is not None:
        polish = newton_polish(target, hsol)
        nsol = polish.x
        converged = trace.success and polish.converged
    elapsed = time.perf_counter() - t0

    fhom = scaled_residual(target, hsol) if hsol is not None else None
    fnew = scaled_residual(target, nsol) if nsol is not None else None

    diagnostics: List[HypothesisReport] = []
    if isinstance(hmap, HomotopyMap) and hmap.kind == "nfph":
        diagnostics.append(check_assumption1(target, hmap.alpha, n_samples=DIAGNOSTICS_SAMPLES,
                                             seed=spec.seed))
        if spec.ball_radius is not None:
            diagnostics.append(check_start_ball(target, hmap.alpha, hmap.anchor,
                                                spec.ball_radius))

    return SolveReport(
        method_label=method_label(spec.method, spec.alpha),
        n_c=trace.n_c,
        hsol=hsol,
        nsol=nsol,
        fhom=fhom,
        fnew=fnew,
        time_s=elapsed,
        status=trace.status,
        converged=converged,
        diagnostics=diagnostics,
        trace=trace,
        target=target,
    )


def run_table(problem_id: str, **overrides) -> List[SolveReport]:
    """One report per (method, alpha) row of the registry's ``table_methods``,
    each spec built by ``for_problem`` with ``overrides``."""
    return [run_benchmark(BenchmarkSpec.for_problem(problem_id, method=method, alpha=alpha,
                                                    **overrides))
            for method, alpha in table_methods(problem_id)]


def _fmt_vec(vec: Optional[Array], fmt: str) -> str:
    if vec is None:
        return "-"
    return ";".join(fmt % float(v) for v in np.atleast_1d(vec))


def _rows(reports: Sequence[SolveReport]) -> List[List[str]]:
    rows = []
    for r in reports:
        rows.append([
            r.method_label,
            "-" if r.n_c is None else str(r.n_c),
            _fmt_vec(r.hsol, "%.7f"),
            _fmt_vec(r.nsol, "%.7f"),
            _fmt_vec(r.fhom, "%.8e"),
            _fmt_vec(r.fnew, "%.8e"),
            "%.4f" % r.time_s,
        ])
    return rows


def emit_table(reports: Sequence[SolveReport], fmt: str = "table",
               spec: Optional[BenchmarkSpec] = None) -> str:
    """Render reports as an aligned text table, RFC-4180 CSV, or JSON.

    JSON mode round-trips every numeric field exactly; vector cells in the
    text/CSV modes are semicolon-joined.
    """
    if not reports:
        raise ValueError("emit_table needs at least one report")
    if fmt == "json":
        payload = {
            "spec": None if spec is None else asdict(spec),
            "rows": [r.row_dict() for r in reports],
            "diagnostics": [d.to_dict() for r in reports for d in r.diagnostics],
        }
        return json.dumps(payload, indent=2)
    rows = _rows(reports)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt != "table":
        raise ValueError(f"unknown table format {fmt!r}")
    widths = [max(len(TABLE_COLUMNS[i]), *(len(row[i]) for row in rows))
              for i in range(len(TABLE_COLUMNS))]
    lines = ["  ".join(TABLE_COLUMNS[i].ljust(widths[i]) for i in range(len(widths)))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(widths))))
    return "\n".join(lines) + "\n"


def emit_merit_samples(problem_id: str, lo: float, hi: float, count: int) -> List[tuple]:
    """Uniform samples (x, theta(x)) of the squared-residual merit of a scalar
    problem over the finite interval [lo, hi], ready for external plotting.
    theta is the polish's ``merit``, so it reads inf where F(x)^2 overflows."""
    problem = registry_get(problem_id)
    if not isinstance(problem, Problem) or problem.dim != 1:
        raise ValueError("merit sampling requires a scalar problem")
    if count < 2:
        raise ValueError("need at least two samples")
    # a non-finite bound makes the span non-finite too
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"merit bounds must be finite, with a finite span hi - lo, "
                         f"got lo={lo}, hi={hi}")
    return [(float(x), merit(eval_F(problem, np.array([x])), 1.0))
            for x in np.linspace(lo, hi, count)]


def merit_csv(rows: Sequence[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["x", "theta"])
    for x, th in rows:
        writer.writerow([repr(x), repr(th)])
    return buf.getvalue()


def trace_jsonl(trace: CurveTrace, target: Problem) -> str:
    """One JSON object per accepted point: {s, lambda, x, residual}."""
    lines = []
    for p in trace.points:
        lines.append(json.dumps({
            "s": float(p.s),
            "lambda": float(p.lam),
            "x": [float(v) for v in p.x],
            "residual": float(np.max(np.abs(scaled_residual(target, p.x)))),
        }))
    return "\n".join(lines) + ("\n" if lines else "")

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
import time
from dataclasses import dataclass, field, asdict
from typing import List, Optional, Sequence, Union

import numpy as np

from .diagnostics import HypothesisReport, check_assumption1, check_start_ball
from .ncp import NcpHomotopy, NcpInstance, SmoothingParams, comp_residual
from .problems import DomainError, HomotopyMap, Problem, eval_F, scaled_residual
from .refine import PolishConfig, newton_polish
from .registry import TABLE_METHODS, registry_defaults, registry_get
from .tracking import STATUS_DOMAIN, CurveTrace, TrackerConfig, track

Array = np.ndarray

TABLE_COLUMNS = ("method", "N_c", "hsol", "nsol", "fhom", "fnew", "time(s)")

# samples of the assumption-1 check that runs with every nfph row
DIAGNOSTICS_SAMPLES = 2000


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything needed to reproduce one table row."""

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
        if self.method not in ("nfph", "fph", "nh"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "nfph" and not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite for nfph, got {self.alpha}")
        if self.ball_radius is not None and not 0 < self.ball_radius < np.inf:
            raise ValueError(f"ball_radius must be positive and finite, got {self.ball_radius}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.out not in ("table", "json", "csv"):
            raise ValueError(f"unknown output format {self.out!r}")

    @classmethod
    def for_problem(cls, problem_id: str, **overrides) -> "BenchmarkSpec":
        """Spec seeded with the problem's table-caption defaults."""
        params = registry_defaults(problem_id)
        params.update({k: v for k, v in overrides.items() if v is not None})
        keep = {k: params[k] for k in params
                if k in cls.__dataclass_fields__}
        return cls(problem=problem_id, **keep)


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
    comp_res: Optional[float] = None  # complementarity runs only
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


def build_homotopy(spec: BenchmarkSpec):
    """Instantiate the homotopy context (plain or complementarity) for a spec."""
    instance = registry_get(spec.problem)
    if isinstance(instance, NcpInstance):
        if spec.method != "nfph":
            raise ValueError("complementarity runs support only the nfph method")
        if spec.anchor is not None:
            params = SmoothingParams(beta=spec.beta, alpha=spec.alpha, anchor=spec.anchor)
        else:
            params = SmoothingParams.default(instance, beta=spec.beta, alpha=spec.alpha)
        return NcpHomotopy(instance, params), instance
    anchor = np.asarray(
        spec.anchor if spec.anchor is not None
        else registry_defaults(spec.problem).get("anchor", np.zeros(instance.dim)),
        dtype=float,
    )
    alpha = spec.alpha if spec.method == "nfph" else None
    return HomotopyMap(kind=spec.method, problem=instance, anchor=anchor, alpha=alpha), instance


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
        hmap, instance = build_homotopy(spec)
    except DomainError:
        # the map is not finite at the anchor, so the curve has no start point
        hmap = instance = None
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
        polish = newton_polish(target, hsol, PolishConfig())
        nsol = polish.x
        converged = trace.success and polish.converged
    elapsed = time.perf_counter() - t0

    fhom = scaled_residual(target, hsol) if hsol is not None else None
    fnew = scaled_residual(target, nsol) if nsol is not None else None

    diagnostics: List[HypothesisReport] = []
    if spec.method == "nfph" and isinstance(instance, Problem):
        diagnostics.append(check_assumption1(instance, hmap.alpha, n_samples=DIAGNOSTICS_SAMPLES,
                                             seed=spec.seed))
        if spec.ball_radius is not None:
            diagnostics.append(check_start_ball(instance, hmap.alpha, hmap.anchor,
                                                spec.ball_radius))

    comp = None
    if isinstance(instance, NcpInstance) and nsol is not None:
        comp = comp_residual(instance, nsol[: instance.dim])

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
        comp_res=comp,
        target=target,
    )


def run_table(problem_id: str, **overrides) -> List[SolveReport]:
    """Run the standard method matrix for one problem (one report per row).

    Complementarity ids only support the SPD-shifted method, so their matrix
    sweeps the shift scale instead of the start map.
    """
    if isinstance(registry_get(problem_id), NcpInstance):
        rows = [("nfph", 0.001), ("nfph", 1.0), ("nfph", 50.0)]
    else:
        rows = TABLE_METHODS.get(problem_id, TABLE_METHODS["ex1"])
    reports = []
    for method, alpha in rows:
        spec = BenchmarkSpec.for_problem(problem_id, method=method, alpha=alpha, **overrides)
        reports.append(run_benchmark(spec))
    return reports


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


def emit_merit_samples(problem: Union[str, Problem], lo: float, hi: float,
                       count: int) -> List[tuple]:
    """Uniform samples (x, theta(x)) of the squared-residual merit of a scalar
    problem, ready for external plotting."""
    if isinstance(problem, str):
        problem = registry_get(problem)
    if not isinstance(problem, Problem) or problem.dim != 1:
        raise ValueError("merit sampling requires a scalar problem")
    if count < 2:
        raise ValueError("need at least two samples")
    xs = np.linspace(lo, hi, count)
    rows = []
    for x in xs:
        f = eval_F(problem, np.array([x]))[0]
        rows.append((float(x), 0.5 * float(f) ** 2))
    return rows


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


def all_converged(reports: Sequence[SolveReport]) -> bool:
    """True when every solve converged; a converged solve's trace succeeded."""
    return all(r.converged for r in reports)

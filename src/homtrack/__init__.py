"""Homotopy continuation for square nonlinear systems and complementarity
problems: three start maps, two zero-curve trackers, Newton polishing, and a
benchmark harness reproducing the reference experiment tables."""

from .bench import (BenchmarkSpec, SolveReport, emit_merit_samples, emit_table,
                    run_benchmark, run_table, trace_jsonl)
from .diagnostics import HypothesisReport, check_assumption1, check_start_ball
from .ncp import (NcpHomotopy, NcpInstance, comp_residual, eval_Fmu,
                  eval_Fmu_jacobian, lcp_enumerate, lcp_instance, min_ncp,
                  phi_mu, to_problem)
from .problems import (DomainError, HomotopyMap, Problem, eval_F, fd_jacobian,
                       jacobian, scaled_residual)
from .refine import (MeritResult, PolishConfig, PolishResult, merit_descent,
                     newton_polish)
from .registry import list_problems, registry_defaults, registry_get
from .tracking import (CorrectorError, CurveTrace, RankDeficientError,
                       TrackerConfig, TrackPoint, cross_lambda1,
                       hermite_predict, normal_flow_correct, ode_track,
                       pc_track, track)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

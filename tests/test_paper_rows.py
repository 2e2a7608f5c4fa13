"""The 17 ex1..ex4 table rows, pinned.

Each row is solved as ``homtrack solve --strategy ode --ode-field adjugate
--out json`` with the problem's caption defaults.  ``N_c`` and the status must
match exactly, and ``hsol`` and ``nsol`` within 1e-9: these rows are the fixed
contract of the paper's tables, so a change that moves them is a regression
unless it shows that the pinned numbers were wrong.

The same rows, traced under each tangent choice, must also advance along the
curve at every recorded step.
"""

import json

import numpy as np
import pytest

from homtrack import BenchmarkSpec
from homtrack.bench import build_homotopy, tracker_config
from homtrack.cli import main
from homtrack.tracking import STATUS_EXHAUSTED, track

EX2_ROOT = [-0.7390851332151607, -0.6736120291832148]

# (problem, method, alpha or None for the caption default, N_c, status,
# hsol, nsol)
ROWS = [
    ("ex1", "nfph", 0.001, 15, "reached_lambda1", [2.0], [2.0]),
    ("ex1", "nfph", 50.0, 2, "reached_lambda1", [2.0], [2.0]),
    ("ex1", "fph", None, 21, "reached_lambda1", [2.0], [2.0]),
    ("ex1", "nh", None, 15, "reached_lambda1", [2.0], [2.0]),
    ("ex2", "nfph", 0.001, 3, "reached_lambda1", EX2_ROOT, EX2_ROOT),
    ("ex2", "nfph", 50.0, 1, "reached_lambda1", EX2_ROOT, EX2_ROOT),
    ("ex2", "fph", None, 6, "reached_lambda1", EX2_ROOT, EX2_ROOT),
    ("ex2", "nh", None, 3, "reached_lambda1", EX2_ROOT, EX2_ROOT),
    ("ex3", "nfph", 0.001, 3, "reached_lambda1",
     [1.671554252199414, 5.865102639296188, 1.3196480938416417],
     [1.671554252199414, 5.865102639296188, 1.3196480938416417]),
    ("ex3", "nfph", 50.0, 1, "reached_lambda1",
     [1.6715542521994133, 5.865102639296188, 1.3196480938416422],
     [1.6715542521994133, 5.865102639296188, 1.3196480938416422]),
    ("ex3", "fph", None, 2, "reached_lambda1",
     [1.6715542521994144, 5.865102639296187, 1.3196480938416424],
     [1.6715542521994144, 5.865102639296187, 1.3196480938416424]),
    ("ex3", "nh", None, 3, "reached_lambda1",
     [1.6715542521994136, 5.865102639296188, 1.3196480938416424],
     [1.6715542521994136, 5.865102639296188, 1.3196480938416424]),
    ("ex4", "nfph", 0.001, 37, "reached_lambda1", [8.68539643180679e-24], [8.68539643180679e-24]),
    ("ex4", "nfph", 1.0, 19, "reached_lambda1", [0.0], [0.0]),
    ("ex4", "nfph", 75.0, 1, "reached_lambda1", [0.0], [0.0]),
    ("ex4", "fph", None, 7, "reached_lambda1",
     [-1.7577588016751838e-24], [-1.7577588016751838e-24]),
    ("ex4", "nh", None, 38, "reached_lambda1",
     [3.2311742677852644e-27], [3.2311742677852644e-27]),
]


@pytest.mark.parametrize("problem,method,alpha,n_c,status,hsol,nsol", ROWS)
def test_paper_row(capsys, problem, method, alpha, n_c, status, hsol, nsol):
    argv = ["solve", "--problem", problem, "--method", method, "--strategy", "ode",
            "--ode-field", "adjugate", "--out", "json"]
    if alpha is not None:
        argv += ["--alpha", repr(alpha)]
    assert main(argv) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["Nc"] == n_c
    assert row["status"] == status
    np.testing.assert_allclose(row["hsol"], hsol, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(row["nsol"], nsol, rtol=0.0, atol=1e-9)


def _trace(problem, **overrides):
    spec = BenchmarkSpec.for_problem(problem, **overrides)
    return track(build_homotopy(spec), tracker_config(spec))


def _backward_steps(points):
    """Indices k of the recorded steps that go against the tangent they start
    from, (w_{k+1} - w_k) . t_k < 0."""
    return [k for k, (p, q) in enumerate(zip(points, points[1:]))
            if float((q.coords - p.coords) @ p.tangent) < 0.0]


@pytest.mark.parametrize("strategy,ode_field", [("ode", "adjugate"), ("ode", "arclength"),
                                                ("pc", None)])
@pytest.mark.parametrize("problem,method,alpha", [row[:3] for row in ROWS])
def test_every_step_advances_along_its_tangent(problem, method, alpha, strategy, ode_field):
    trace = _trace(problem, method=method, alpha=alpha, strategy=strategy, ode_field=ode_field)
    assert _backward_steps(trace.points) == []


# with a budget of 1000, these arclength traces reached lam = 1 only by
# turning back along the curve just before ex4's fold near lam = 0.85;
# following the curve forward, they spend the budget, as pc does
@pytest.mark.parametrize("method,alpha", [("nfph", 0.001), ("nh", None)])
def test_arclength_trace_does_not_turn_back_at_the_ex4_fold(method, alpha):
    trace = _trace("ex4", method=method, alpha=alpha, strategy="ode", ode_field="arclength",
                   sf=1000.0)
    assert trace.status == STATUS_EXHAUSTED
    assert _backward_steps(trace.points) == []

"""The 17 ex1..ex4 table rows, pinned.

Each row is solved as ``homtrack solve --strategy ode --ode-field adjugate
--out json`` with the problem's caption defaults.  ``N_c`` and the status must
match exactly, and ``hsol`` and ``nsol`` within 1e-9: these rows are the fixed
contract of the paper's tables, so a change that moves them is a regression
unless it shows that the pinned numbers were wrong.
"""

import json

import numpy as np
import pytest

from homtrack.cli import main

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

"""The solve commands that make up one pass of each benchmark workload.

One operation is one ``homtrack solve ... --out json`` command.  The workload
seed picks the ``lcp-rand-<n>-<seed>`` instances and is passed as the CLI
``--seed``; every other input is fixed here, not read from the program, so a
change to the registry's table matrix cannot silently change the workload.

``ncp-lin-100 --alpha 50`` under ode/adjugate is deliberately absent: it
aborts after 0.14 s with an SVD ``LinAlgError``, and a fix would turn it into
a solve of more than 10 s that the ``wall_s`` gate would read as a regression.
It belongs in a robustness workload of its own.
"""

from __future__ import annotations

from typing import List, Tuple

# the 17 method rows of the ex1..ex4 tables: (problem, method, alpha);
# alpha None keeps the caption default, which fph and nh do not use
PAPER_ROWS = [
    ("ex1", "nfph", 0.001), ("ex1", "nfph", 50.0), ("ex1", "fph", None), ("ex1", "nh", None),
    ("ex2", "nfph", 0.001), ("ex2", "nfph", 50.0), ("ex2", "fph", None), ("ex2", "nh", None),
    ("ex3", "nfph", 0.001), ("ex3", "nfph", 50.0), ("ex3", "fph", None), ("ex3", "nh", None),
    ("ex4", "nfph", 0.001), ("ex4", "nfph", 1.0), ("ex4", "nfph", 75.0),
    ("ex4", "fph", None), ("ex4", "nh", None),
]

# alpha sweep of `homtrack table` on a complementarity id
NCP_ALPHAS = (0.001, 1.0, 50.0)

WORKLOADS = ("paper-tables", "lcp-ode", "ncp-pc")

# Pass time of each workload at the reference speed of its kernel,
# measured on a 2-vCPU x86-64 VM with BLAS threads pinned to 1.  It fixes the
# number of passes a run makes from ``--seconds``, so that a faster or slower
# program is measured over the same number of repetitions.
NOMINAL_PASS_S = {"paper-tables": 0.9, "lcp-ode": 24.0, "ncp-pc": 7.3}
MIN_PASSES = 2

# the reference kernel (``reference.py``) that does the kind of work that
# dominates each workload's solves, and the one whose speed drifts most like
# a worker's set-up time (imports, page faults and the warm-up solve)
KERNEL = {"paper-tables": "python", "lcp-ode": "svd", "ncp-pc": "lstsq"}
SETUP_KERNEL = "svd"

# one small solve per workload along the same code path, run untimed by
# every fresh worker; fixed ids so set-up time does not depend on the seed
WARMUP = {
    "paper-tables": ["--problem", "ex2", "--method", "nfph", "--alpha", "50"],
    "lcp-ode": ["--problem", "lcp-rand-10-0", "--strategy", "ode", "--ode-field", "adjugate"],
    "ncp-pc": ["--problem", "ncp-lin-20", "--strategy", "pc"],
}


def _cli(args: List[str], seed: int) -> List[str]:
    return ["solve", *args, "--out", "json", "--seed", str(seed)]


def solves(workload: str, seed: int) -> List[List[str]]:
    """The argument lists of ``homtrack`` for one pass of ``workload``."""
    if seed < 0:
        raise ValueError("the workload seed must be a non-negative integer")
    if workload == "paper-tables":
        out = []
        for problem, method, alpha in PAPER_ROWS:
            args = ["--problem", problem, "--method", method,
                    "--strategy", "ode", "--ode-field", "adjugate"]
            if alpha is not None:
                args += ["--alpha", repr(alpha)]
            out.append(_cli(args, seed))
        return out
    if workload == "lcp-ode":
        out = []
        for field in ("adjugate", "arclength"):
            for problem, alphas in ((f"lcp-rand-30-{seed}", NCP_ALPHAS),
                                    (f"lcp-rand-60-{seed}", (1.0,))):
                for alpha in alphas:
                    out.append(_cli(["--problem", problem, "--alpha", repr(alpha),
                                     "--strategy", "ode", "--ode-field", field], seed))
        return out
    if workload == "ncp-pc":
        cases = [("ncp-lin-100", a) for a in NCP_ALPHAS] + [(f"lcp-rand-100-{seed}", 1.0)]
        return [_cli(["--problem", p, "--alpha", repr(a), "--strategy", "pc"], seed)
                for p, a in cases]
    raise KeyError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def passes(workload: str, seconds: float) -> int:
    """Passes of an untraced run: about ``seconds`` of measured solves at the
    reference speed, and at least ``MIN_PASSES``."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def schedule(workload: str, seed: int, npass: int) -> List[Tuple[int, int]]:
    """(pass, solve index) of every solve a run makes, in order."""
    return [(p, i) for p in range(npass) for i in range(len(solves(workload, seed)))]


def warmup(workload: str) -> List[str]:
    if workload not in WARMUP:
        raise KeyError(f"unknown workload {workload!r}")
    return _cli(WARMUP[workload], 0)


def problem_of(argv: List[str]) -> str:
    return argv[argv.index("--problem") + 1]

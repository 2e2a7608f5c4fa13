"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance below is pinned; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

import homtrack as ht
from homtrack.bench import build_homotopy, tracker_config
from homtrack.tracking import ODE_RTOL, PC_PATH_TOL, STATUS_REACHED, STATUS_RESIDUAL

EX1_METHODS = [("nfph", 0.001), ("nfph", 50.0), ("fph", None), ("nh", None)]

COLLECTED_SPECS = []  # (spec, report) pairs shared with criterion 10


def _run(spec):
    report = ht.run_benchmark(spec)
    COLLECTED_SPECS.append((spec, report))
    return report


def _spec(pid, method, alpha, **kw):
    return ht.BenchmarkSpec.for_problem(pid, method=method,
                                        alpha=alpha if alpha is not None else 50.0,
                                        **kw)


@pytest.fixture(scope="module")
def ex1_runs():
    runs = {}
    for sf in (2.5, 5.0):
        for method, alpha in EX1_METHODS:
            runs[(sf, method, alpha)] = _run(_spec("ex1", method, alpha, sf=sf, cn=70))
    return runs


@pytest.fixture(scope="module")
def ex2_runs():
    runs = {}
    for sf in (20.0, 5.0):
        for method, alpha in EX1_METHODS:
            runs[(sf, method, alpha)] = _run(_spec("ex2", method, alpha, sf=sf, cn=70))
    return runs


@pytest.fixture(scope="module")
def lcp_runs():
    runs = {}
    for n in (2, 3, 4, 6):
        for seed in range(5):
            pid = f"lcp-rand-{n}-{seed}"
            with np.errstate(all="ignore"):
                import warnings
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    runs[pid] = _run(ht.BenchmarkSpec.for_problem(pid))
    return runs


def test_criterion_1_example1_roots(ex1_runs):
    for (sf, method, alpha), rep in ex1_runs.items():
        label = f"ex1 {method} alpha={alpha} S_f={sf}"
        assert rep.nsol is not None, label
        assert abs(rep.nsol[0] - 2.0) <= 1e-6, label
        assert abs(rep.hsol[0] - 2.0) <= 5e-2, label
    print("\ncriterion 1 PASS: all four methods at S_f in {2.5, 5} give "
          "nsol = 2 (1e-6) and hsol within 5e-2")


def test_criterion_2_example1_efficiency_ordering(ex1_runs):
    nc = {(m, a): ex1_runs[(2.5, m, a)].n_c for m, a in EX1_METHODS}
    assert nc[("nfph", 50.0)] <= 5
    assert nc[("nfph", 50.0)] < nc[("nh", None)] <= nc[("fph", None)]
    print(f"criterion 2 PASS: N_c ordering NFPH(50)={nc[('nfph', 50.0)]} < "
          f"NH={nc[('nh', None)]} <= FPH={nc[('fph', None)]}")


def test_criterion_3_example2_roots(ex2_runs):
    # independent oracle: x^2 + sin(x)^2 = 1 with x < 0 means cos(x) = -x
    x_root = brentq(lambda t: np.cos(t) + t, -1.0, 0.0, xtol=1e-14)
    oracle = np.array([x_root, np.sin(x_root)])
    stated = np.array([-0.7390851, -0.6736120])
    assert np.max(np.abs(oracle - stated)) <= 1e-6
    for (sf, method, alpha), rep in ex2_runs.items():
        label = f"ex2 {method} alpha={alpha} S_f={sf}"
        assert np.max(np.abs(rep.nsol - stated)) <= 1e-6, label
        assert np.max(np.abs(rep.nsol - oracle)) <= 1e-6, label
        assert np.max(np.abs(rep.fnew)) <= 1e-9, label
    print("criterion 3 PASS: all four method rows of both tables hit "
          "(-0.7390851, -0.6736120) with |fnew| <= 1e-9")


def test_criterion_4_example3_linear_oracle():
    rep = _run(_spec("ex3", "nfph", 50.0, sf=30.0, cn=50))
    oracle = np.linalg.solve(np.array([[1, .5, .3], [.6, 1, .1], [.2, .4, 1]]),
                             np.array([5.0, 7.0, 4.0]))
    stated = np.array([1.6715543, 5.8651026, 1.3196481])
    assert np.max(np.abs(rep.nsol - oracle)) <= 1e-6
    assert np.max(np.abs(rep.nsol - stated)) <= 1e-6
    print("criterion 4 PASS: ex3 nsol matches the direct linear solve to 1e-6")


def test_criterion_5_example4_homotopy_success():
    rep = _run(_spec("ex4", "nfph", 75.0, sf=5.0, cn=70, anchor=[0.2]))
    assert rep.status == STATUS_REACHED
    assert abs(rep.hsol[0]) <= 1e-3
    assert abs(rep.nsol[0]) <= 1e-9
    print(f"criterion 5 PASS: ex4 NFPH(75) reached lambda=1, hsol={rep.hsol[0]:.2e}, "
          f"nsol={rep.nsol[0]:.2e}")


def test_criterion_6_example4_merit_descent_failure():
    p = ht.registry_get("ex4")
    res = ht.merit_descent(p, np.array([0.5]), tol=1e-3, maxit=1000)
    assert res.status == "local_min"
    assert 0.15 <= res.x[0] <= 0.35
    assert np.max(np.abs(ht.eval_F(p, res.x))) > 1e-3
    print(f"criterion 6 PASS: merit descent from 0.5 stalls at x={res.x[0]:.5f} "
          "(local minimum, residual above 1e-3)")


def test_criterion_7_closed_form_curve_check():
    line = ht.Problem(dim=1, f=lambda x: x - 2.0, jac=lambda x: np.eye(1), name="line")
    hmap = ht.HomotopyMap(kind="fph", problem=line, anchor=np.zeros(1))
    cfg = ht.TrackerConfig(strategy="ode", s_max=5.0, checkpoints=70)
    trace = ht.track(hmap, cfg)
    assert trace.status == STATUS_REACHED
    assert 31 <= trace.n_c <= 33  # ceil(sqrt(5) / (5/71)) = 32
    assert abs(trace.hsol[0] - 2.0) <= 1e-6
    print(f"criterion 7 PASS: straight-line curve gives N_c={trace.n_c} "
          "(32 +- 1) and hsol=2 to 1e-6")


def test_criterion_8_smoothing_property_suite():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        a, b = rng.uniform(-10, 10, 2)
        mu = rng.uniform(0.0, 5.0)
        d = ht.phi_mu(a, b, mu)
        fa, fb = a - d / 2, b - d / 2
        assert fa >= -1e-12 and fb >= -1e-12
        assert abs(fa * fb - mu * mu) <= 1e-10 * (1 + a * a + b * b)
        assert ht.phi_mu(a, b, mu) == ht.phi_mu(b, a, mu)
        assert ht.phi_mu(a, b, 0.0) == ht.min_ncp(a, b)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        x = rng.uniform(-10, 10, n)
        y = rng.uniform(-10, 10, n)
        mu = rng.uniform(0.0, 3.0)
        gap = np.linalg.norm(ht.phi_mu(x, y, mu) - ht.phi_mu(x, y, 0.0))
        assert gap <= 2.0 * mu * np.sqrt(n) + 1e-9
    print("criterion 8 PASS: smoothing identities and distance bound hold on "
          "10^4 random samples")


def test_criterion_9_ncp_oracle_equivalence(lcp_runs):
    for pid, rep in lcp_runs.items():
        inst = ht.registry_get(pid)
        n = inst.dim
        label = pid
        assert rep.converged, label
        assert ht.comp_residual(inst, rep.nsol[:n]) <= 1e-8, label
        sols = ht.lcp_enumerate(inst.M, inst.q)
        assert any(np.max(np.abs(rep.nsol[:n] - s)) <= 1e-6 for s in sols), label
        interior = [p for p in rep.trace.points if p.lam < 1.0]
        assert interior, label
        assert min(float(np.min(p.x[n:])) for p in interior) > 0.0, label
    print("criterion 9 PASS: 20 monotone LCPs solved, matched to enumeration, "
          "slack half positive at every checkpoint")


def test_criterion_10_numerical_hygiene(ex1_runs, ex2_runs, lcp_runs):
    rng = np.random.default_rng(77)
    h = 1e-6

    # analytic problem Jacobians vs central differences
    for pid in ("ex1", "ex2", "ex3", "ex4"):
        p = ht.registry_get(pid)
        for _ in range(100):
            x = rng.uniform(-2, 2, p.dim)
            jac = p.jac(x)
            fd = ht.fd_jacobian(p, x)
            assert np.max(np.abs(jac - fd)) / (1 + np.max(np.abs(jac))) <= 1e-5

    # homotopy Jacobians vs differences of the homotopy value
    for pid in ("ex1", "ex2", "ex3", "ex4"):
        p = ht.registry_get(pid)
        for kind in ("nfph", "fph", "nh"):
            alpha = 5.0 if kind == "nfph" else None
            m = ht.HomotopyMap(kind=kind, problem=p, anchor=np.zeros(p.dim), alpha=alpha)
            for _ in range(100):
                lam = rng.uniform(0.02, 0.98)
                x = rng.uniform(-2, 2, p.dim)
                jac = m.rho_jacobian(lam, x)
                fd = np.empty_like(jac)
                for j in range(p.dim):
                    e = np.zeros(p.dim)
                    e[j] = h
                    fd[:, j + 1] = (m.rho(lam, x + e) - m.rho(lam, x - e)) / (2 * h)
                fd[:, 0] = (m.rho(lam + h, x) - m.rho(lam - h, x)) / (2 * h)
                assert np.max(np.abs(jac - fd)) / (1 + np.max(np.abs(jac))) <= 1e-5

    # smoothed-system Jacobian vs differences
    inst = ht.registry_get("lcp-rand-4-3")
    for _ in range(100):
        z = rng.uniform(-2, 2, 8)
        mu = rng.uniform(0.05, 2.0)
        jac = ht.eval_Fmu_jacobian(inst, z, mu)
        fd = np.empty_like(jac)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd[:, j] = (ht.eval_Fmu(inst, z + e, mu) - ht.eval_Fmu(inst, z - e, mu)) / (2 * h)
        assert np.max(np.abs(jac - fd)) / (1 + np.max(np.abs(jac))) <= 1e-5

    # tracker invariants on every benchmark run executed by this suite
    import warnings

    checked = 0
    for spec, rep in COLLECTED_SPECS:
        trace = rep.trace
        if trace is None or not trace.points:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hmap = build_homotopy(spec)
        cfg = tracker_config(spec)
        pts = trace.points
        svals = [p.s for p in pts]
        assert all(b > a for a, b in zip(svals, svals[1:])), spec.problem
        for p in pts:
            assert abs(np.linalg.norm(p.tangent) - 1.0) <= 1e-12, spec.problem
        for p, q in zip(pts, pts[1:]):
            assert float(p.tangent @ q.tangent) > 0.0, spec.problem
        tol = PC_PATH_TOL if cfg.strategy == "pc" else 10.0 * ODE_RTOL
        for p in pts:
            res = np.max(np.abs(hmap.rho(p.lam, p.x))) / (1.0 + np.linalg.norm(p.x))
            assert res <= tol, (spec.problem, p.lam, res)
        if trace.status == STATUS_REACHED:
            assert abs(pts[-1].lam - 1.0) <= 1e-9, spec.problem
        assert trace.status in (STATUS_REACHED, STATUS_RESIDUAL), spec.problem
        checked += 1
    assert checked >= 30
    print(f"criterion 10 PASS: Jacobian consistency at 1e-5 and tracker "
          f"invariants on {checked} benchmark runs")

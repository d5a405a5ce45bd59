"""Acceptance suite: one test per shipped guarantee, at the stated
tolerance and runtime budget. Each test prints as a single pass/fail line
under pytest -v."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ousym import (ConstantForce, KozlovConvergenceProblem, LinearForce,
                   OUConvergenceProblem, SymmetryGenerator, build_ou_system,
                   classify_invariants, classify_symmetries,
                   convergence_study, duals, euler_maruyama,
                   euler_maruyama_ensemble, exact_solve_linear,
                   expdecay_residual_scan, max_invariant_residual,
                   max_residuals, parse_force_expression, sample_probes,
                   sample_wiener, scale_by_invariant, solve_reference_problem,
                   solve_wsym_linear_constraint, structure_constants)


class Budget:
    """Wall-clock guard for one criterion."""

    def __init__(self, seconds):
        self.cap = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.cap, \
            f"runtime {elapsed:.1f}s exceeded the {self.cap}s budget"


def linear_1d():
    return build_ou_system(1, [3.0], [1.0], LinearForce([[4.0]]))


def test_criterion_01_linear_1d_certified_rates():
    budget = Budget(5)
    sys1 = linear_1d()
    probes = sample_probes(sys1, count=100, seed=42)
    alg = classify_symmetries(sys1, probes=probes)
    assert alg.case_tag == "LinearPair1D"
    assert len(alg.generators) == 2
    # independent oracle: the rates are the roots of k^2 - 3k - 4
    oracle = sorted(np.roots([1.0, -3.0, -4.0]).real)
    rates = sorted(float(np.real(g.family.kappa)) for g in alg.generators)
    assert rates == pytest.approx(oracle, abs=1e-12)
    assert rates == pytest.approx([-1.0, 4.0], abs=1e-12)
    for g in alg.generators:
        mf, ms = max_residuals(g, sys1, probes)
        assert max(mf, ms) <= 1e-6
    budget.check()


def test_criterion_02_perturbed_rate_is_rejected():
    budget = Budget(5)
    sys1 = linear_1d()
    probes = sample_probes(sys1, count=100, seed=42)
    gen = SymmetryGenerator.exp_decay(1, 4.0 + 1e-2, 1)
    mf, ms = max_residuals(gen, sys1, probes)
    assert max(mf, ms) >= 1e-3
    budget.check()


def test_criterion_03_no_symmetry_verdict_with_scan():
    budget = Budget(60)
    kappas = np.arange(-10.0, 10.0 + 5e-4, 1e-3)

    cubic = build_ou_system(1, [1.0], [1.0], parse_force_expression("x1^3", 1))
    alg = classify_symmetries(cubic)
    assert alg.case_tag == "NoRealSimple"
    assert alg.generators == ()
    scan = expdecay_residual_scan(cubic, kappas, i=1)
    assert float(np.min(scan)) >= 1e-2

    iso2 = build_ou_system(
        2, [1.0, 1.0], [1.0, 1.0],
        parse_force_expression("(1 + x1^2 + x2^2)*x1; (1 + x1^2 + x2^2)*x2", 2))
    alg2 = classify_symmetries(iso2)
    assert alg2.case_tag == "NoRealSimple"
    for i in (1, 2):
        scan2 = expdecay_residual_scan(iso2, kappas, i=i)
        assert float(np.min(scan2)) >= 1e-2
    budget.check()


def test_criterion_04_constant_force_invariants_exact():
    budget = Budget(10)
    systems = [
        (build_ou_system(1, [1.0], [2.0], ConstantForce([0.5])),
         [0.1, -0.2]),
        (build_ou_system(3, [1.0, 2.5, 0.7], [2.0, 0.3, 1.1],
                         ConstantForce([0.5, -1.0, 0.2])),
         [0.1, -0.2, 0.3, 0.0, 0.1, -0.1]),
    ]
    for sysk, x0 in systems:
        inv = classify_invariants(sysk)
        assert inv.basis_kind == "ChiBasis"
        probes = sample_probes(sysk, count=100, seed=17)
        for g in inv.generators:
            assert max_invariant_residual(g, sysk, probes) <= 1e-10
        # the same combination telescopes exactly along Euler-Maruyama
        n = sysk.n
        grid = sample_wiener(n, 0.0, 1.0, 10000, seed=1)
        path = euler_maruyama(sysk, x0, grid)
        w = grid.cumulative()
        for i in range(n):
            beta, mu = sysk.beta[i], sysk.mu[i]
            c = sysk.force.c[i]
            chi = (w[i] - path.states[:, n + i] / mu
                   - (beta / mu) * path.states[:, i]
                   + (c / mu) * path.times)
            assert np.max(np.abs(chi - chi[0])) <= 1e-12
    budget.check()


def test_criterion_05_linear_regular_has_no_invariant():
    budget = Budget(5)
    for sysk in (linear_1d(),
                 build_ou_system(2, [3.0, 3.0], [0.5, 0.5],
                                 LinearForce([[0.0, 1.0], [1.0, 0.0]]))):
        inv = classify_invariants(sysk)
        assert inv.basis_kind == "Empty"
        assert inv.affine_nullspace_dim == 0
    budget.check()


def test_criterion_06_lie_and_module_structure():
    budget = Budget(30)
    # the two linear-mode generators commute
    sys1 = linear_1d()
    alg = classify_symmetries(sys1)
    assert len(alg.commutators) == 1
    assert dict(alg.commutators[0])["max_abs_bracket"] <= 1e-10

    # constant force: full commutator table against the predicted
    # coefficients for scaling functions {1, chi, sin chi, chi^2}
    sysc = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    algc = classify_symmetries(sysc)
    table = structure_constants(algc)
    assert len(table) > 0
    assert max(row["max_discrepancy"] for row in table) <= 1e-8

    # module closure: sin(chi) X is again a symmetry
    X = SymmetryGenerator.exp_decay(1, sysc.beta[0], 1)

    def sin_chi(p):
        return duals.sin(p.chi(sysc, 0))

    scaled = scale_by_invariant(X, sin_chi, sysc)
    probes = sample_probes(sysc, count=100, seed=3)
    mf, ms = max_residuals(scaled, sysc, probes)
    assert max(mf, ms) <= 1e-6
    budget.check()


def test_criterion_07_wsym_constraint_dimensions():
    budget = Budget(5)
    L_swap = np.array([[0.0, 1.0], [1.0, 0.0]])

    def oracle_dim(L, B):
        # entrywise assembly of sum_k L[i,k] R[k,j] - B[i,i] R[i,j]
        # + R[i,j] B[j,j] = 0, vec row-major; rank via SVD
        m = L.shape[0]
        M = np.zeros((m * m, m * m))
        for i in range(m):
            for j in range(m):
                row = i * m + j
                for k in range(m):
                    M[row, k * m + j] += L[i, k]
                M[row, i * m + j] += B[j, j] - B[i, i]
        s = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(s <= 1e-10 * s[0]))

    cases = [
        (L_swap, np.diag([2.0, 2.0]), 0),   # isotropic friction, regular L
        (L_swap, np.diag([1.0, 2.0]), 0),   # anisotropic friction
        (np.zeros((2, 2)), np.diag([1.0, 2.0]), 2),  # free case
    ]
    for L, B, expected in cases:
        basis = solve_wsym_linear_constraint(L, B)
        assert len(basis) == expected
        assert oracle_dim(L, B) == expected
        for R in basis:
            # with distinct friction rates only diagonal R commutes with B
            assert np.max(np.abs(R - np.diag(np.diag(R)))) <= 1e-12
    budget.check()


def test_criterion_08_strong_order_one_exact_vs_em():
    budget = Budget(120)
    ladder = [8, 16, 32, 64, 128]
    cases = [
        (build_ou_system(1, [1.0], [2.0], ConstantForce([0.5])),
         [0.3, -0.2]),
        (build_ou_system(1, [3.0], [1.0], LinearForce([[-2.0]])),
         [0.5, 0.1]),
        (build_ou_system(1, [1.0], [1.0], LinearForce([[-5.0]])),
         [1.0, 0.0]),
    ]
    for sysk, x0 in cases:
        rep = convergence_study(OUConvergenceProblem(sysk), x0, 0.0, 1.0,
                                ladder, n_paths=200, seed=0, refine=64)
        assert rep.used_paths == 200
        assert 0.8 <= rep.fitted_order <= 1.2

    # the complex-rate solver must return a genuinely real path
    complex_sys = cases[2][0]
    grid = sample_wiener(1, 0.0, 1.0, 1000, seed=5)
    path = exact_solve_linear(complex_sys, [1.0, 0.0], grid)
    assert path.meta["max_imag_leakage"] <= 1e-10
    budget.check()


def test_criterion_09_reference_fixtures():
    budget = Budget(60)
    grid = sample_wiener(1, 0.0, 1.0, 512, seed=14)
    _, cert = solve_reference_problem("gbm", {"a": 1.0, "b": 0.5,
                                              "x0": 1.0}, grid)
    assert cert["max_invariant_deviation"] <= 1e-12

    gridk = sample_wiener(1, 0.0, 1.0, 256, seed=15)
    path, certk = solve_reference_problem("kozlovexp", {"y0": 2.0}, gridk)
    w = gridk.cumulative()[0]
    target = np.log(np.exp(2.0) + (path.times - 0.0) + w)
    assert np.max(np.abs(path.states[:, 0] - target)) <= 1e-12
    assert certk["max_transform_defect"] <= 1e-10

    rep = convergence_study(KozlovConvergenceProblem(), [2.0], 0.0, 1.0,
                            [16, 32, 64, 128, 256], n_paths=200, seed=0,
                            refine=16)
    assert 0.35 <= rep.fitted_order <= 0.7
    budget.check()


def test_criterion_10_stationary_velocity_variance():
    budget = Budget(60)
    beta, mu, n_paths = 1.0, 1.0, 10000
    sysf = build_ou_system(1, [beta], [mu], ConstantForce([0.0]))
    terminal = euler_maruyama_ensemble(sysf, [0.0, 0.0], 0.0, 12.0, 6000,
                                       n_paths, seed=0)
    target = mu ** 2 / (2.0 * beta)
    band = 3.0 * target * np.sqrt(2.0 / (n_paths - 1))
    assert abs(np.var(terminal[:, 1], ddof=1) - target) <= band
    budget.check()


def test_criterion_11_byte_identical_across_thread_counts(tmp_path):
    budget = Budget(120)
    system = tmp_path / "system.json"
    system.write_text(json.dumps({
        "n": 1, "beta": [1.0], "mu": [2.0],
        "force": {"type": "constant", "c": [0.5]}}))
    commands = [
        ["converge", "--system", str(system), "--paths", "40",
         "--ladder", "3", "--base-steps", "8", "--refine", "8",
         "--seed", "2"],
        ["simulate", "--system", str(system), "--steps", "200",
         "--seed", "3"],
        ["classify", "--system", str(system)],
        ["reference", "--problem", "gbm", "--steps", "100"],
    ]
    # the subprocesses import the same ousym as this test run
    src = os.path.dirname(os.path.dirname(duals.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in commands:
        outputs = set()
        for threads in ("1", "4", "8"):
            env = dict(os.environ, OUSYM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-m", "ousym"] + argv,
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.add(proc.stdout)
        assert len(outputs) == 1, f"{argv[0]} output varies with threads"
    budget.check()

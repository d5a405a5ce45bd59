"""Wiener grids, Euler-Maruyama, exact solvers, convergence, CSV."""

import io
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from ousym import (ConstantForce, DimensionMismatch, DomainExit,
                   GBMConvergenceProblem, InvalidGrid,
                   KozlovConvergenceProblem, LinearForce, NonFiniteState,
                   NotDiagonalizable, OUConvergenceProblem, OusymError,
                   WienerGrid, WrongForceClass, build_ou_system,
                   classify_symmetries, coarsen, convergence_study,
                   euler_maruyama, euler_maruyama_ensemble,
                   exact_solve_constant, exact_solve_linear, integrate,
                   parse_force_expression, read_path_csv, sample_wiener,
                   solve_reference_problem, symmetry,
                   write_convergence_csv, write_path_csv)
from ousym.classify import _eigenmodes, mode_rates
from ousym.model import _TOL
from oracles import _mode_quadrature as whole_mode_quadrature
from oracles import (euler_maruyama_general, exact_constant_paths,
                     exact_linear_paths, gbm_exact_terminals, ito_integral,
                     kozlov_exact_terminals, one_window)


def manual_grid(increments, t0=0.0, t1=1.0):
    inc = np.asarray(increments, dtype=float)
    return WienerGrid(t0=t0, t1=t1, steps=inc.shape[1], n_proc=inc.shape[0],
                      seed=0, path_index=0, increments=inc,
                      derivation="manual")


def test_wiener_determinism_and_keying():
    a = sample_wiener(2, 0.0, 1.0, 100, seed=7, path_index=3)
    b = sample_wiener(2, 0.0, 1.0, 100, seed=7, path_index=3)
    assert np.array_equal(a.increments, b.increments)
    c = sample_wiener(2, 0.0, 1.0, 100, seed=7, path_index=4)
    assert not np.array_equal(a.increments, c.increments)
    d = sample_wiener(2, 0.0, 1.0, 100, seed=8, path_index=3)
    assert not np.array_equal(a.increments, d.increments)


def test_wiener_statistics():
    g = sample_wiener(1, 0.0, 1.0, 100000, seed=0)
    ratio = np.var(g.increments) / g.dt
    assert 0.98 <= ratio <= 1.02
    assert abs(np.mean(g.increments)) <= 3.0 * np.sqrt(g.dt / 100000)


def test_grid_validation():
    with pytest.raises(InvalidGrid):
        sample_wiener(1, 0.0, 1.0, 0)
    with pytest.raises(InvalidGrid):
        sample_wiener(1, 1.0, 0.0, 10)
    with pytest.raises(InvalidGrid):
        sample_wiener(1, 0.0, 1.0, 10, seed=-1)
    # the one integer rule: a bool, a float or a string is not an integer;
    # counts start at 1, the seed and the path index at 0
    for bad in (1.5, True, "3", -1):
        with pytest.raises(InvalidGrid, match="n_proc must be"):
            sample_wiener(bad, 0.0, 1.0, 4)
        with pytest.raises(InvalidGrid, match="seed must be"):
            sample_wiener(1, 0.0, 1.0, 4, seed=bad)
        with pytest.raises(InvalidGrid, match="path_index must be"):
            sample_wiener(1, 0.0, 1.0, 4, path_index=bad)
    with pytest.raises(InvalidGrid, match="n_proc must be"):
        sample_wiener(0, 0.0, 1.0, 4)
    with pytest.raises(InvalidGrid, match="seed must be"):
        sample_wiener(1, 0.0, 1.0, 4, seed=False)
    # the seed and the path index are the two 64-bit words of the key
    for big in (2 ** 64, 10 ** 30):
        with pytest.raises(InvalidGrid, match="seed must be"):
            sample_wiener(1, 0.0, 1.0, 4, seed=big)
        with pytest.raises(InvalidGrid, match="path_index must be"):
            sample_wiener(1, 0.0, 1.0, 4, path_index=big)
    top = 2 ** 64 - 1
    assert sample_wiener(1, 0.0, 1.0, 4, seed=top, path_index=top).seed == top


def test_keys_at_and_above_2_63_are_distinct_streams():
    # a list key >= 2**63 became float64 in numpy, so 2**63 and 2**63 + 1
    # drew the same numbers; below 2**63 the stream is the list-keyed one
    for kw in ("seed", "path_index"):
        a, b = (sample_wiener(1, 0.0, 1.0, 4, **{kw: k}).increments
                for k in (2 ** 63, 2 ** 63 + 1))
        assert not np.array_equal(a, b)
    for seed, idx in ((0, 0), (7, 3), (2 ** 63 - 1, 2 ** 62 + 5)):
        ref = np.random.Generator(np.random.Philox(
            key=[seed, idx])).standard_normal((1, 4))
        ref *= np.sqrt(0.25)
        got = sample_wiener(1, 0.0, 1.0, 4, seed=seed, path_index=idx)
        assert got.increments.tobytes() == ref.tobytes()


def test_coarsen_sums_increments():
    g = sample_wiener(2, 0.0, 2.0, 12, seed=1)
    c = coarsen(g, 3)
    assert c.steps == 4
    assert np.allclose(c.increments[:, 0], g.increments[:, :3].sum(axis=1))
    # terminal Brownian value unchanged
    assert np.allclose(c.cumulative()[:, -1], g.cumulative()[:, -1])
    with pytest.raises(InvalidGrid):
        coarsen(g, 5)


# True is a bool, not a count, for step counts and coarsening factors too
@pytest.mark.parametrize("steps", [True, 0, 2.0, "4", 1.5, -1])
def test_wiener_rejects_a_bad_step_count(steps):
    with pytest.raises(InvalidGrid, match="steps must be a positive integer"):
        sample_wiener(1, 0.0, 1.0, steps)
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    with pytest.raises(InvalidGrid, match="steps must be a positive integer"):
        euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, steps, 3)


@pytest.mark.parametrize("factor", [True, 0, 2.0, "2"])
def test_coarsen_rejects_a_bad_factor(factor):
    g = sample_wiener(1, 0.0, 1.0, 4, seed=1)
    with pytest.raises(InvalidGrid, match="coarsening factor must be"):
        coarsen(g, factor)


def test_step_counts_take_numpy_integers():
    g = sample_wiener(1, 0.0, 1.0, np.int64(4), seed=1)
    assert np.array_equal(
        g.increments, sample_wiener(1, 0.0, 1.0, 4, seed=1).increments)
    assert np.array_equal(coarsen(g, np.int64(2)).increments,
                          coarsen(g, 2).increments)
    # and so do the process count, the seed and the path index
    h = sample_wiener(np.int64(2), 0.0, 1.0, 4, seed=np.int64(3),
                      path_index=np.int64(5))
    want = sample_wiener(2, 0.0, 1.0, 4, seed=3, path_index=5)
    assert np.array_equal(h.increments, want.increments)
    assert (h.n_proc, h.seed, h.path_index) == (2, 3, 5)


def test_em_matches_ode_for_tiny_noise():
    # c constant, beta friction: v(t) = c/b + (v0 - c/b) e^{-bt}
    b, c = 1.5, 0.7
    sys1 = build_ou_system(1, [b], [1e-10], ConstantForce([c]))
    g = sample_wiener(1, 0.0, 1.0, 20000, seed=2)
    path = euler_maruyama(sys1, [0.0, 0.0], g)
    v_exact = (c / b) * (1.0 - np.exp(-b))
    x_exact = (c / b) * 1.0 - (c / b ** 2) * (1.0 - np.exp(-b))
    assert path.terminal()[1] == pytest.approx(v_exact, abs=1e-3)
    assert path.terminal()[0] == pytest.approx(x_exact, abs=1e-3)


def test_em_blowup_guard():
    sys1 = build_ou_system(1, [0.1], [1.0], LinearForce([[50.0]]))
    g = sample_wiener(1, 0.0, 20.0, 200, seed=3)
    with pytest.raises(NonFiniteState):
        euler_maruyama(sys1, [1.0, 0.0], g)


def test_exact_constant_against_ivp():
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    b, c, mu = 1.3, -0.4, 1e-12
    sys1 = build_ou_system(1, [b], [mu], ConstantForce([c]))
    g = sample_wiener(1, 0.0, 2.0, 256, seed=4)
    path = exact_solve_constant(sys1, [0.3, -0.2], g)

    def rhs(t, y):
        return [y[1], c - b * y[1]]

    sol = solve_ivp(rhs, (0.0, 2.0), [0.3, -0.2], rtol=1e-11, atol=1e-12,
                    dense_output=True)
    ref = sol.sol(2.0)
    assert path.terminal()[0] == pytest.approx(ref[0], abs=1e-8)
    assert path.terminal()[1] == pytest.approx(ref[1], abs=1e-8)


def test_exact_constant_chi_conserved_with_noise():
    sys1 = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    g = sample_wiener(1, 0.0, 2.0, 5000, seed=5)
    path = exact_solve_constant(sys1, [0.3, -0.2], g)
    w = g.cumulative()[0]
    t = path.times
    chi = w - path.states[:, 1] / 2.0 - 0.5 * path.states[:, 0] + 0.25 * t
    assert np.max(np.abs(chi - chi[0])) <= 1e-10


def test_exact_constant_monte_carlo_mean():
    b, c, mu = 1.0, 0.5, 0.5
    sys1 = build_ou_system(1, [b], [mu], ConstantForce([c]))
    n_paths = 200
    terms = np.empty(n_paths)
    for idx in range(n_paths):
        g = sample_wiener(1, 0.0, 1.0, 64, seed=11, path_index=idx)
        terms[idx] = exact_solve_constant(sys1, [0.0, 0.0], g).terminal()[0]
    x_det = (c / b) - (c / b ** 2) * (1.0 - np.exp(-b))
    se = np.std(terms, ddof=1) / np.sqrt(n_paths)
    assert abs(np.mean(terms) - x_det) <= 3.0 * se


def test_exact_linear_against_ivp():
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    alpha, beta, mu = 4.0, 3.0, 1e-12
    sys1 = build_ou_system(1, [beta], [mu], LinearForce([[alpha]]))
    g = sample_wiener(1, 0.0, 1.0, 128, seed=6)
    path = exact_solve_linear(sys1, [0.2, -0.1], g)

    def rhs(t, y):
        return [y[1], alpha * y[0] - beta * y[1]]

    sol = solve_ivp(rhs, (0.0, 1.0), [0.2, -0.1], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    ref = sol.sol(1.0)
    assert path.terminal()[0] == pytest.approx(ref[0], rel=1e-8)
    assert path.terminal()[1] == pytest.approx(ref[1], rel=1e-8)


def test_exact_linear_affine_offset():
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    # F = Lx + K handled by shifting to the fixed point
    beta, mu = 2.0, 1e-12
    sys1 = build_ou_system(1, [beta], [mu], LinearForce([[-2.0]], [1.0]))
    g = sample_wiener(1, 0.0, 3.0, 256, seed=7)
    path = exact_solve_linear(sys1, [0.0, 0.0], g)

    def rhs(t, y):
        return [y[1], -2.0 * y[0] + 1.0 - beta * y[1]]

    sol = solve_ivp(rhs, (0.0, 3.0), [0.0, 0.0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    ref = sol.sol(3.0)
    assert path.terminal()[0] == pytest.approx(ref[0], abs=1e-8)
    assert path.terminal()[1] == pytest.approx(ref[1], abs=1e-8)


def gaussian_transition(sys_, s0, t):
    """Mean and covariance of the OU state at time t from s0, in closed form:
    ds = (A s + b) dt + G dW with A = [[0, I], [L, -B]], b = (0, K),
    G = (0, diag(mu)). The mean is expm of the affine-augmented A applied
    to (s0, 1); the covariance int_0^t e^{As} G G^T e^{A^T s} ds comes from
    Van Loan's block exponential (IEEE TAC 1978): with
    expm([[-A, G G^T], [0, A^T]] t) = [[., F12], [0, F22]], it is
    F22^T F12."""
    expm = pytest.importorskip("scipy.linalg").expm
    n = sys_.n
    if isinstance(sys_.force, ConstantForce):
        L, K = np.zeros((n, n)), np.asarray(sys_.force.c, dtype=float)
    else:
        L, K = np.asarray(sys_.force.L), np.asarray(sys_.force.K)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [L, -np.diag(sys_.beta)]])
    G = np.vstack((np.zeros((n, n)), np.diag(sys_.mu)))
    aug = np.zeros((2 * n + 1, 2 * n + 1))
    aug[:2 * n, :2 * n] = A
    aug[n:2 * n, 2 * n] = K
    mean = (expm(aug * t) @ np.append(s0, 1.0))[:2 * n]
    Z = np.zeros((2 * n, 2 * n))
    E = expm(np.block([[-A, G @ G.T], [Z, A.T]]) * t)
    return mean, E[2 * n:, 2 * n:].T @ E[:2 * n, 2 * n:]


def _near_singular_mode_bases():
    """(family, L, beta, x0) near the two ways the mode basis is lost:
    near-defective L = s [[-1, 1], [0, -1 + eps]] (n = 2) and near-critical
    lambda = -beta^2 / 4 (1 - eps) (n = 1)."""
    for beta in (0.3, 3.0, 30.0):
        for s in (0.01, 1.0, 100.0):
            for eps in np.logspace(-2, -12, 41):
                yield ("defective", s * np.array([[-1.0, 1.0],
                                                  [0.0, -1.0 + eps]]),
                       beta, [0.5, -0.3, 0.2, 0.1])
    for beta in (0.2, 2.0, 20.0):
        for eps in np.logspace(-6, -17, 45):
            for x0 in ([1.0, 0.0], [0.5, -0.3]):
                yield ("critical", [[-beta * beta / 4.0 * (1.0 - eps)]],
                       beta, x0)


def test_exact_linear_solver_meets_expm_or_refuses_the_mode_basis():
    # mu = 1e-200 leaves the drift alone, so the terminal state is
    # expm(A) x0. The witness is the eigenvector matrix's relative smallest
    # singular value or min |sqrt(beta^2 + 4 lam)| / |kappa+|, whichever is
    # smaller: below model._TOL classify and the solver refuse the basis,
    # and every accepted input is within 1e-7 of expm relative to the
    # largest entry (4.2e-8 at worst, near-critical at beta = 0.2)
    expm = pytest.importorskip("scipy.linalg").expm
    verdicts = set()
    for family, L, beta, x0 in _near_singular_mode_bases():
        n = len(L)
        sys_ = build_ou_system(n, [beta] * n, [1e-200] * n, LinearForce(L))
        lams, M = np.linalg.eig(L)
        sv = np.linalg.svd(M, compute_uv=False)
        root = np.sqrt((beta * beta + 4.0 * lams).astype(complex))
        witness = min(sv[-1] / sv[0],
                      *np.abs(root) / np.abs((beta + root) / 2.0))
        grid = sample_wiener(n, 0.0, 1.0, 64, seed=0)
        verdicts.add((family, witness >= _TOL))
        if witness < _TOL:
            for refused in (lambda: exact_solve_linear(sys_, x0, grid),
                            lambda: classify_symmetries(sys_)):
                with pytest.raises(NotDiagonalizable, match="witness"):
                    refused()
            continue
        A = np.block([[np.zeros((n, n)), np.eye(n)],
                      [np.asarray(L), -beta * np.eye(n)]])
        want = expm(A) @ x0
        got = exact_solve_linear(sys_, x0, grid).terminal()
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max(), (
            family, beta, L)
    assert verdicts == {(family, ok) for family in ("defective", "critical")
                        for ok in (True, False)}


@pytest.mark.parametrize("force", [LinearForce([[-1.0]]),
                                   ConstantForce([0.3])],
                         ids=["linear", "constant"])
def test_exact_paths_have_strong_order_one(force):
    # the drift is closed form, but each step's noise integral is the
    # left-point sum exp(kappa t_j) dW_j: against the exact path of the
    # same Brownian path on 8192 steps (400 paths from default_rng(0),
    # x0 = (0.5, 0) on [0, 1]), the mean max-abs terminal error on 8 to
    # 128 steps halves as the step halves (ratios 1.95 to 1.98 here)
    problem = OUConvergenceProblem(build_ou_system(1, [1.0], [1.0], force))
    inc = np.random.default_rng(0).normal(0.0, np.sqrt(1.0 / 8192),
                                          (400, 1, 8192))
    ref = problem.exact_terminals([0.5, 0.0], 0.0, 1.0, inc)[0]
    errors = np.array([np.abs(problem.exact_terminals(
        [0.5, 0.0], 0.0, 1.0,
        inc.reshape(400, 1, steps, 8192 // steps).sum(axis=3))[0]
        - ref).max(axis=1).mean() for steps in (8, 16, 32, 64, 128)])
    ratios = errors[:-1] / errors[1:]
    assert np.all((ratios > 1.8) & (ratios < 2.2)), ratios
    assert 0.03 < errors[0] < 0.06


@pytest.mark.parametrize("sys_,solver", [
    (build_ou_system(2, [1.0, 2.0], [0.5, 1.5], ConstantForce([0.3, -0.2])),
     exact_solve_constant),
    # eigenvalues -3 +- i: complex mode rates, plus an affine offset
    (build_ou_system(2, [1.0, 1.0], [0.6, 0.6],
                     LinearForce([[-3.0, 1.0], [-1.0, -3.0]], [0.3, -0.1])),
     exact_solve_linear),
], ids=["constant-n2", "linear-iso-n2-complex"])
def test_exact_ensemble_matches_gaussian_transition(sys_, solver):
    s0, t1, steps, n_paths = np.array([0.4, -0.2, 0.3, 0.1]), 1.5, 512, 3000
    mean, cov = gaussian_transition(sys_, s0, t1)
    term = np.array([solver(sys_, s0, sample_wiener(
        2, 0.0, t1, steps, seed=31, path_index=i)).terminal()
        for i in range(n_paths)])
    # the solvers' left-point noise quadrature biases the covariance by
    # about beta * dt (< 0.6% here), far inside these sampling bands
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(term.mean(axis=0) - mean)
                  <= 5.0 * sd / np.sqrt(n_paths))
    band = np.sqrt((np.outer(sd, sd) ** 2 + cov ** 2) / (n_paths - 1))
    assert np.all(np.abs(np.cov(term.T) - cov) <= 5.0 * band)


def test_exact_linear_mode_increments():
    # reconstruct y_+ from the path and check dy_+ = alpha_+(t) dw exactly
    alpha, beta, mu = 4.0, 3.0, 1.0
    sys1 = build_ou_system(1, [beta], [mu], LinearForce([[alpha]]))
    g = sample_wiener(1, 0.0, 1.0, 200, seed=8)
    path = exact_solve_linear(sys1, [0.2, -0.1], g)
    kp, km = 4.0, -1.0
    t = path.times
    x, v = path.states[:, 0], path.states[:, 1]
    y_p = np.exp(kp * t) * (km * x + v) / (km - kp)
    dy = np.diff(y_p)
    expected = mu * np.exp(kp * t[:-1]) / (km - kp) * g.increments[0]
    assert np.max(np.abs(dy - expected)) <= 1e-9 * np.max(np.abs(y_p))


def test_exact_linear_complex_modes_real_output():
    sys1 = build_ou_system(1, [1.0], [1.0], LinearForce([[-5.0]]))
    g = sample_wiener(1, 0.0, 1.0, 500, seed=9)
    path = exact_solve_linear(sys1, [1.0, 0.0], g)
    assert path.meta["max_imag_leakage"] <= 1e-10
    em = euler_maruyama(sys1, [1.0, 0.0], g)
    assert np.max(np.abs(path.terminal() - em.terminal())) <= 0.05


def test_exact_linear_2d_isotropic():
    L = np.array([[0.0, 1.0], [1.0, 0.0]])
    sys2 = build_ou_system(2, [3.0, 3.0], [0.5, 0.5], LinearForce(L))
    g = sample_wiener(2, 0.0, 1.0, 2048, seed=10)
    ex = exact_solve_linear(sys2, [0.5, -0.3, 0.1, 0.2], g)
    em = euler_maruyama(sys2, [0.5, -0.3, 0.1, 0.2], g)
    assert np.max(np.abs(ex.terminal() - em.terminal())) <= 0.01


def parent_exact_linear_paths(sys, x0, t, inc):
    """The exact linear solver with every mode in complex arithmetic, as it
    was before real eigenvectors ran in float64: the oracle for
    integrate._exact_linear_paths."""
    n = sys.n
    x, v = integrate._split_state(n, x0)
    L = np.asarray(sys.force.L, dtype=float)
    K = np.asarray(sys.force.K, dtype=float)
    shift = np.linalg.solve(L, K) if np.any(K != 0.0) else np.zeros(n)
    beta = sys.beta[0]
    mu = sys.mu[0]
    lams, M, _ = _eigenmodes(L, beta)
    Minv = np.linalg.inv(M)
    q0 = Minv @ (x + shift).astype(complex)
    p0 = Minv @ v.astype(complex)
    dW = Minv @ inc.astype(complex)
    q = np.empty((inc.shape[0], n, t.shape[0]), dtype=complex)
    p = np.empty_like(q)
    for i in range(n):
        kp, km = mode_rates(beta, lams[i])
        yp0 = np.exp(kp * t[0]) * (km * q0[i] + p0[i]) / (km - kp)
        ym0 = np.exp(km * t[0]) * (kp * q0[i] + p0[i]) / (kp - km)
        ap = mu * np.exp(kp * t[:-1]) / (km - kp)
        am = mu * np.exp(km * t[:-1]) / (kp - km)
        yp = np.empty((inc.shape[0], t.shape[0]), dtype=complex)
        ym = np.empty_like(yp)
        yp[:, 0] = yp0
        ym[:, 0] = ym0
        np.cumsum(ap * dW[:, i], axis=1, out=yp[:, 1:])
        yp[:, 1:] += yp0
        np.cumsum(am * dW[:, i], axis=1, out=ym[:, 1:])
        ym[:, 1:] += ym0
        ep = np.exp(-kp * t)
        em = np.exp(-km * t)
        q[:, i] = ep * yp + em * ym
        p[:, i] = -kp * ep * yp - km * em * ym
    s_path = M @ q
    v_path = M @ p
    leak = np.maximum(np.max(np.abs(s_path.imag), axis=(1, 2)),
                      np.max(np.abs(v_path.imag), axis=(1, 2)))
    states = np.empty((inc.shape[0], t.shape[0], 2 * n))
    states[:, :, :n] = s_path.real.transpose(0, 2, 1) - shift
    states[:, :, n:] = v_path.real.transpose(0, 2, 1)
    return states, leak


def rotated(lams, angle=0.6):
    """Symmetric 2x2 matrix with eigenvalues lams."""
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, -s], [s, c]])
    return Q @ np.diag(lams) @ Q.T


# beta = 1.5: lambda = -0.2 gives a real mode, lambda = -2.0 a conjugate pair
MIXED_ISO2 = build_ou_system(2, [1.5, 1.5], [0.8, 0.8],
                             LinearForce(rotated([-0.2, -2.0]), [0.4, -0.3]))
# complex lambda = -3 +- i: complex eigenvectors, leakage above 0
COMPLEX_ISO2 = build_ou_system(2, [1.0, 1.0], [0.6, 0.6],
                               LinearForce([[-3.0, 1.0], [-1.0, -3.0]]))


def guarded_both_ways(exact_paths, sys_, x0, t, inc):
    """_guarded's study result (terminal states, leakage, skip mask), and
    its solve result (every state, leakage, mask) after it when the study
    rejects no path; when it rejects one, the solve must raise."""
    study = integrate._guarded(exact_paths, sys_, x0, t, inc, study=True)
    if study[2].any():
        with pytest.raises(NonFiniteState):
            integrate._guarded(exact_paths, sys_, x0, t, inc)
        return study
    return study + integrate._guarded(exact_paths, sys_, x0, t, inc)


@pytest.mark.parametrize("sys_,x0,scale", [
    (build_ou_system(1, [1.0], [0.7], LinearForce([[-3.0]])),
     [0.5, -0.2], None),
    (build_ou_system(1, [2.5], [1.3], LinearForce([[-1.0]], [0.3])),
     [0.5, -0.2], None),
    (MIXED_ISO2, [0.1, 0.2, -0.3, 0.4], None),
    (COMPLEX_ISO2, [0.4, -0.2, 0.3, 0.1], None),
    # path 0 leaves [-BLOWUP_GUARD, BLOWUP_GUARD] without overflowing
    (MIXED_ISO2, [0.1, 0.2, -0.3, 0.4], 1e14),
], ids=["pair-n1", "real-n1", "mixed-iso2", "complex-iso2", "blow-up"])
def test_exact_linear_paths_equal_the_complex_oracle(monkeypatch, sys_, x0,
                                                     scale):
    # bit for bit, states and leakage, the real and complex branches alike,
    # in one window and in 16 windows of 16 steps, every state kept or the
    # terminal ones
    steps = 256
    t = np.linspace(0.0, 1.5, steps + 1)
    inc = np.random.default_rng(3).standard_normal((6, sys_.n, steps)) \
        * np.sqrt(1.5 / steps)
    if scale is not None:
        inc[0] *= scale
    oracle = one_window(parent_exact_linear_paths)
    for window_values, windows in ((integrate.WINDOW_VALUES, 1), (1, 16)):
        monkeypatch.setattr(integrate, "WINDOW_VALUES", window_values)
        assert len(integrate._windows(steps, 6 * sys_.n)) == windows
        got = guarded_both_ways(integrate._exact_linear_paths, sys_, x0, t,
                                inc)
        want = guarded_both_ways(oracle, sys_, x0, t, inc)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    leak = got[1]
    if sys_ is COMPLEX_ISO2:
        assert np.all(leak > 0.0)
    elif scale is not None:
        assert leak.tolist() == [np.inf] + [0.0] * 5
    else:
        assert np.all(leak == 0.0)


@pytest.mark.parametrize("sys_,x0", [
    (MIXED_ISO2, [0.1, 0.2, -0.3, 0.4]),
    (COMPLEX_ISO2, [0.4, -0.2, 0.3, 0.1]),
], ids=["mixed-iso2", "complex-iso2"])
def test_study_with_the_complex_oracle_gives_the_same_report(
        monkeypatch, sys_, x0):
    # the complex system's relative limit sits inside the range of its
    # paths' leakage over their largest |state| (2.8e-17 to 5.0e-17), so
    # the study skips some paths by leakage
    if sys_ is COMPLEX_ISO2:
        monkeypatch.setattr(symmetry, "CERT_REL", 4e-17)
    args = (x0, 0.0, 1.0, [8, 16, 32])
    kw = {"n_paths": 24, "seed": 4, "refine": 8}
    rep = convergence_study(OUConvergenceProblem(sys_), *args, **kw)
    # 16 windows of 16 steps per block
    monkeypatch.setattr(integrate, "WINDOW_VALUES", 1)
    assert rep == convergence_study(OUConvergenceProblem(sys_), *args, **kw)
    monkeypatch.setattr(integrate, "_exact_linear_paths",
                        one_window(parent_exact_linear_paths))
    want = convergence_study(OUConvergenceProblem(sys_), *args, **kw)
    assert rep == want
    if sys_ is COMPLEX_ISO2:
        assert 0 < rep.skipped_paths < rep.n_paths


# generic complex eigenvectors (no zero real or imaginary part in M), so
# every complex product rounds; eigenvalues -2.5 +- 1.32i
GENERIC_COMPLEX_ISO2 = build_ou_system(
    2, [1.0, 1.0], [0.6, 0.6],
    LinearForce([[-3.0, 2.0], [-1.0, -2.0]], [0.2, 0.1]))
GENERIC_COMPLEX_ISO3 = build_ou_system(
    3, [0.9] * 3, [0.5] * 3,
    LinearForce([[-3.0, 2.0, 0.0], [-1.0, -2.0, 0.5], [0.3, 0.0, -1.0]],
                [0.1, -0.2, 0.3]))
WINDOW_CASES = {
    "constant-n1": build_ou_system(1, [1.3], [0.9], ConstantForce([-0.4])),
    "constant-n2": build_ou_system(2, [1.0, 2.0], [0.5, 1.5],
                                   ConstantForce([0.3, -0.2])),
    # anisotropic, three components; 2.759 ** 2 (libm's pow) is not
    # 2.759 * 2.759, so a c / beta ** 2 taken on arrays shows here
    "constant-n3": build_ou_system(3, [0.7, 2.759, 1.9], [0.5, -1.2, 2.0],
                                   ConstantForce([0.3, -0.4, 0.25])),
    "pair-n1": build_ou_system(1, [1.0], [0.7], LinearForce([[-3.0]])),
    "real-n1": build_ou_system(1, [2.5], [1.3], LinearForce([[-1.0]], [0.3])),
    "mixed-iso2": MIXED_ISO2,
    "complex-iso2": COMPLEX_ISO2,
    "generic-complex-iso2": GENERIC_COMPLEX_ISO2,
    "generic-complex-iso3": GENERIC_COMPLEX_ISO3,
}


def windowed_and_oracle(sys_, x0, t, inc):
    """The windowed solver's windows joined into (states, leakage), checked
    to tile the rows in order, and the whole-array oracle's pair."""
    if isinstance(sys_.force, ConstantForce):
        windowed, oracle = (integrate._exact_constant_paths,
                            exact_constant_paths)
    else:
        windowed, oracle = integrate._exact_linear_paths, exact_linear_paths
    parts, leak, end = [], np.zeros(inc.shape[0]), 0
    with np.errstate(all="ignore"):
        for k0, k1, x, v, part in windowed(sys_, x0, t, inc):
            assert k0 == end and k1 > k0
            end = k1
            parts.append(np.concatenate((x, v), axis=2))
            leak = np.maximum(leak, part)
        want = oracle(sys_, x0, t, inc)
    assert end == t.shape[0]
    return (np.concatenate(parts, axis=1), leak), want


def test_windowed_exact_paths_equal_the_whole_array_oracle():
    # bit for bit, states and leakage, over windows of 16 to 64 steps whose
    # last one is 0, 1 (joined to the one before) or 2 steps past a window
    # boundary, with paths that blow up, overflow or turn NaN part way; a
    # zero initial state (the command line's default) starts some mode
    # branches at -0.0
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.seed(22)
    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(case=st.sampled_from(sorted(WINDOW_CASES)),
                      width=st.sampled_from([16, 32, 64]),
                      windows=st.integers(0, 4), tail=st.integers(0, 2),
                      paths=st.integers(1, 4),
                      trouble=st.sampled_from([None, "blow-up", "inf",
                                               "nan"]),
                      zero_start=st.booleans(), seed=st.integers(0, 999))
    def check(case, width, windows, tail, paths, trouble, zero_start, seed):
        steps = windows * width + tail
        hypothesis.assume(steps > 0)
        sys_ = WINDOW_CASES[case]
        n = sys_.n
        rng = np.random.default_rng(seed)
        x0 = np.zeros(2 * n) if zero_start else rng.uniform(-0.5, 0.5, 2 * n)
        t = np.linspace(0.0, 1.5, steps + 1)
        inc = rng.standard_normal((paths, n, steps)) * np.sqrt(1.5 / steps)
        at = (paths - 1, n - 1, int(rng.integers(steps)))
        if trouble == "blow-up":
            inc[-1] *= 1e14
        elif trouble is not None:
            inc[at] = np.inf if trouble == "inf" else np.nan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrate, "WINDOW_VALUES", width * paths * n)
            got, want = windowed_and_oracle(sys_, x0, t, inc)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            # and through the guard, as a study and, on a path it
            # accepts, as a solve
            oracle = one_window(exact_constant_paths if isinstance(
                sys_.force, ConstantForce) else exact_linear_paths)
            got = guarded_both_ways(
                integrate.OUConvergenceProblem(sys_)._exact_paths, sys_, x0,
                t, inc)
            want = guarded_both_ways(oracle, sys_, x0, t, inc)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            assert got[2][-1] == (trouble is not None)

    check()


@pytest.mark.parametrize("y0", [-0.0, 0.7, complex(-0.0, -0.0),
                                complex(0.3, -0.2)])
def test_mode_branch_over_windows_equals_one_cumsum(y0):
    # windows of 16 steps, the last one 8 steps and the final state; a
    # branch starting at -0.0 keeps its sign, as the whole-array branch does
    rng = np.random.default_rng(2)
    dw = rng.standard_normal((3, 40))
    a = rng.standard_normal(40) * (1.0 if isinstance(y0, float) else 1 - 2j)
    parts, start = [], None
    for k0, k1 in ((0, 16), (16, 32), (32, 41)):
        y, start = integrate._mode_quadrature(y0, a[k0:k1], dw[:, k0:k1],
                                              start)
        parts.append(y[:, :k1 - k0])
    want = whole_mode_quadrature(y0, a, dw)
    got = np.concatenate(parts, axis=1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [8192, 8193, 8194],
                         ids=["tail-0", "tail-1", "tail-2"])
@pytest.mark.parametrize("sys_", [MIXED_ISO2, GENERIC_COMPLEX_ISO2],
                         ids=["mixed-iso2", "generic-complex-iso2"])
def test_a_study_block_equals_the_oracle_at_the_default_window(sys_, steps):
    # a 32-path block of a study on the iso2 system: 512-step windows; with
    # one step past the last boundary, a one-step window would make
    # Minv @ dW a one-column product, which BLAS rounds differently
    inc = np.random.default_rng(7).standard_normal((32, 2, steps)) \
        * np.sqrt(1.0 / steps)
    t = np.linspace(0.0, 1.0, steps + 1)
    windows = integrate._windows(steps, 32 * 2)
    assert windows[0] == (0, 512) and len(windows) == 16 + (steps > 8193)
    got, want = windowed_and_oracle(sys_, [0.1, 0.2, -0.3, 0.4], t, inc)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_windows_tile_the_rows_in_aligned_steps_of_two_or_more():
    for per_step in (1, 2, 7, 48, 64, 1000, 3000, 40000):
        width = integrate._windows(10 ** 6, per_step)[0][1]
        # a power of two, at least 16, within the values budget if it can be
        assert width >= 16 and width & (width - 1) == 0
        assert width * per_step <= max(integrate.WINDOW_VALUES,
                                       16 * per_step) < 2 * width * per_step
        for steps in (1, 2, 3, width - 1, width, width + 1, width + 2,
                      3 * width, 3 * width + 1, 3 * width + 2):
            windows = integrate._windows(steps, per_step)
            assert windows[0][0] == 0 and windows[-1][1] == steps + 1
            assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
            assert all(k0 % width == 0 for k0, _ in windows)
            # steps in a window: k1 - k0, or one fewer in the last
            sizes = [k1 - k0 for k0, k1 in windows[:-1]]
            sizes.append(windows[-1][1] - windows[-1][0] - 1)
            assert min(sizes) >= min(2, steps)
            assert max(sizes) <= width + 1
    # the sizes that the study and the single solves get by default
    assert integrate._windows(8192, 64)[:2] == [(0, 512), (512, 1024)]
    assert len(integrate._windows(100000, 2)) == 7
    # an empty batch is windowed as a batch of one
    assert integrate._windows(8192, 0) == integrate._windows(8192, 1)
    for sys_ in (WINDOW_CASES["constant-n2"], GENERIC_COMPLEX_ISO2):
        term, skip = OUConvergenceProblem(sys_).exact_terminals(
            [0.1] * 4, 0.0, 1.0, np.zeros((0, 2, 8)))
        assert term.shape == (0, 4) and skip.shape == (0,)


@pytest.mark.parametrize("sys_", [
    build_ou_system(1, [1.0], [1.0], ConstantForce([0.3])),
    build_ou_system(1, [4.0], [1.0], LinearForce([[-2.0]])),
    build_ou_system(1, [1.0], [1.0], LinearForce([[-4.0]])),
], ids=["constant", "overdamped", "underdamped"])
def test_exact_terminals_stay_below_the_full_state_array(sys_):
    # one default study block at n = 1: 64 paths of 8192 steps; its full
    # state array (paths, steps + 1, 2n) would take 8.4 MB
    inc = np.random.default_rng(5).standard_normal((64, 1, 8192)) / 90.5
    full = 64 * 8193 * 2 * 8
    problem = OUConvergenceProblem(sys_)
    problem.exact_terminals([0.3, -0.2], 0.0, 1.0, inc)  # warm-up
    tracemalloc.start()
    try:
        term, skip = problem.exact_terminals([0.3, -0.2], 0.0, 1.0, inc)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        t = np.linspace(0.0, 1.0, 8193)
        oracle = (exact_constant_paths if isinstance(sys_.force, ConstantForce)
                  else exact_linear_paths)
        states, _ = oracle(sys_, [0.3, -0.2], t, inc)
        oracle_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full <= oracle_peak
    assert term.tobytes() == np.ascontiguousarray(states[:, -1]).tobytes()
    assert not skip.any()


def scalar_oracle(problem, x0, t0, t1, inc):
    """The whole-block reference of a GBM or Kozlov adapter."""
    if isinstance(problem, KozlovConvergenceProblem):
        return kozlov_exact_terminals(x0, t0, t1, inc)
    return gbm_exact_terminals(problem.a, problem.b, x0, t0, t1, inc)


SCALAR_REFERENCES = pytest.mark.parametrize("problem,x0", [
    (GBMConvergenceProblem(1.0, 0.5), [1.0]),
    (GBMConvergenceProblem(-0.3, 1.7), [-2.0]),
    (KozlovConvergenceProblem(), [0.0]),
    (KozlovConvergenceProblem(), [-1.0]),
], ids=["gbm", "gbm-negative", "kozlov", "kozlov-low"])


@pytest.mark.parametrize("steps", [10, 48, 49, 50],
                         ids=["one-window", "three-windows", "tail-1-joined",
                              "tail-2"])
@SCALAR_REFERENCES
def test_streamed_scalar_references_equal_the_whole_block_oracle(
        monkeypatch, problem, x0, steps):
    # windows of 16 steps; at 49 steps the last window would hold one step
    # and joins the one before. Path 0 dips below the Kozlov floor at
    # states 4 and 5 only, path 1 at state 16 only, on a window boundary
    # from 17 steps on; paths 2 and 3 turn NaN and -inf part way
    paths = 6
    monkeypatch.setattr(integrate, "WINDOW_VALUES", 16 * paths)
    rng = np.random.default_rng(steps)
    inc = rng.standard_normal((paths, 1, steps)) * np.sqrt(1.5 / steps)
    inc[0, 0, 3], inc[0, 0, 5] = -5.0, 5.0
    if steps > 16:
        inc[1, 0, 15], inc[1, 0, 16] = -5.0, 5.0
    inc[2, 0, steps // 2] = np.nan
    inc[3, 0, steps - 3] = -np.inf
    assert len(integrate._windows(steps, paths)) == {10: 1, 48: 3, 49: 3,
                                                      50: 4}[steps]
    term, skip = problem.exact_terminals(x0, 0.5, 2.0, inc)
    want_term, want_skip = scalar_oracle(problem, x0, 0.5, 2.0, inc)
    assert np.array_equal(term, want_term, equal_nan=True)
    assert np.array_equal(skip, want_skip)
    if isinstance(problem, KozlovConvergenceProblem):
        # the dips are caught although the last window is above the floor
        dipped = [0, 1] if steps > 16 else [0]
        assert skip[dipped].all() and np.isfinite(term[dipped]).all()


@SCALAR_REFERENCES
def test_scalar_references_stay_below_the_whole_block(problem, x0):
    # one default study block: 64 paths of 8192 steps, whose increments
    # take 4.2 MB; the whole-block reference builds arrays of that size
    inc = np.random.default_rng(3).standard_normal((64, 1, 8192)) / 90.5
    problem.exact_terminals(x0, 0.0, 1.0, inc)  # warm-up
    tracemalloc.start()
    try:
        term, skip = problem.exact_terminals(x0, 0.0, 1.0, inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    want_term, want_skip = scalar_oracle(problem, x0, 0.0, 1.0, inc)
    assert np.array_equal(term, want_term, equal_nan=True)
    assert np.array_equal(skip, want_skip)
    assert skip.any() == isinstance(problem, KozlovConvergenceProblem)


def test_one_bit_generator_draws_each_keys_own_stream():
    # _philox_increments resets one Philox per call to each path's key;
    # every row is the stream of a fresh Philox(key=[seed, idx]). 3 x 7
    # draws leave the 4-value buffer part full between paths
    keys = [0, 5, 2 ** 63 + 5, 2 ** 64 - 1]
    for seed in keys:
        inc = integrate._philox_increments(3, 0.0, 1.0, 7, seed, keys)
        for row, idx in zip(inc, keys):
            key = np.array([seed, idx], dtype=np.uint64)
            ref = np.random.Generator(np.random.Philox(key=key)) \
                .standard_normal((3, 7)) * np.sqrt(1.0 / 7)
            assert row.tobytes() == ref.tobytes()


def test_ito_integral_oracle():
    g = manual_grid([[0.3, -0.1]])
    out = ito_integral(lambda t: t, g)
    assert np.allclose(out, [0.0, 0.0, -0.05], atol=1e-15)
    # integrating 1 recovers the Brownian path itself
    ones = ito_integral(lambda t: np.ones_like(t), g)
    assert np.allclose(ones, g.cumulative()[0])


def test_ito_isometry():
    # Var of int_0^1 e^t dw = (e^2 - 1) / 2
    n_paths, vals = 2000, []
    for idx in range(n_paths):
        g = sample_wiener(1, 0.0, 1.0, 64, seed=13, path_index=idx)
        vals.append(ito_integral(np.exp, g)[-1])
    target = (np.e ** 2 - 1.0) / 2.0
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.05)


def test_convergence_smoke_constant():
    sys1 = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    rep = convergence_study(OUConvergenceProblem(sys1), [0.3, -0.2],
                            0.0, 1.0, [8, 16, 32], n_paths=40, seed=0,
                            refine=32)
    assert rep.used_paths == 40
    assert 0.7 <= rep.fitted_order <= 1.3
    assert all(rep.errors[i] > rep.errors[i + 1]
               for i in range(len(rep.errors) - 1))


def test_a_one_rung_study_fits_no_order():
    # a slope through one point is no order: fitted_order is NaN, and
    # numpy's poorly-conditioned fit is not attempted, so nothing warns
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = convergence_study(OUConvergenceProblem(sys1), [0.0, 0.0], 0.0,
                                1.0, [8], n_paths=20)
    assert np.isnan(one.fitted_order) and type(one.fitted_order) is float
    assert one.used_paths == 20 and len(one.errors) == 1
    two = convergence_study(OUConvergenceProblem(sys1), [0.0, 0.0], 0.0,
                            1.0, [8, 16], n_paths=20)
    assert two.fitted_order == np.polyfit(np.log(two.dts),
                                          np.log(two.errors), 1)[0]


# True is a bool, not a count, for the ensemble and the study alike
@pytest.mark.parametrize("n_paths", [0, -3, 2.5, "4", True])
def test_convergence_rejects_a_bad_path_count(n_paths):
    problem = GBMConvergenceProblem(1.0, 0.5)
    with pytest.raises(InvalidGrid, match="n_paths must be >= 1"):
        convergence_study(problem, [1.0], 0.0, 1.0, [4, 8], n_paths=n_paths,
                          refine=2)


def test_convergence_takes_numpy_integer_counts():
    problem = GBMConvergenceProblem(1.0, 0.5)
    plain = convergence_study(problem, [1.0], 0.0, 1.0, [4, 8], n_paths=5,
                              refine=4)
    numpy_ints = convergence_study(problem, [1.0], 0.0, 1.0, [4, 8],
                                   n_paths=np.int64(5), refine=np.int64(4))
    assert numpy_ints == plain
    assert type(numpy_ints.refine) is int and type(numpy_ints.n_paths) is int
    rungs = convergence_study(problem, [1.0], 0.0, 1.0,
                              np.array([4, 8]), n_paths=5, refine=4)
    assert rungs == plain
    assert all(type(s) is int for s in rungs.ladder_steps)


@pytest.mark.parametrize("ladder,match", [
    ([8.7, 16.2], "positive integers"),
    ([True, 2], "positive integers"),
    (["4", 8], "positive integers"),
    ([-1, 8], "positive integers"),
    ([], "non-empty"),
    ([8, 4], "strictly increasing"),
    ([4, 4], "strictly increasing"),
    ([4, 6], "does not divide"),
], ids=["floats", "bool", "string", "negative", "empty", "decreasing",
        "repeated", "not-dividing"])
def test_convergence_rejects_a_bad_ladder(ladder, match):
    # floats are refused, not truncated to the rungs below them
    problem = GBMConvergenceProblem(1.0, 0.5)
    with pytest.raises(InvalidGrid, match=match):
        convergence_study(problem, [1.0], 0.0, 1.0, ladder, n_paths=2,
                          refine=1)


def test_initial_state_is_2n_numbers_in_any_nesting():
    sys2 = build_ou_system(2, [1.0, 2.0], [0.5, 1.5],
                           LinearForce([[-1.0, 0.3], [0.2, -2.0]]))
    g = sample_wiener(2, 0.0, 1.0, 40, seed=4)
    x, v = [0.3, -0.2], [0.1, 0.4]
    paths = [euler_maruyama(sys2, x0, g).states
             for x0 in (x + v, np.array([x, v]), (x, v))]
    assert all(np.array_equal(paths[0], other) for other in paths[1:])
    with pytest.raises(DimensionMismatch):
        euler_maruyama(sys2, ([0.1], [0.2, 0.3, 0.4]), g)
    with pytest.raises(DimensionMismatch):
        euler_maruyama(sys2, (x, v[:1]), g)
    with pytest.raises(NonFiniteState, match="initial state is not finite"):
        euler_maruyama(sys2, x + [np.nan, 0.4], g)
    constant = build_ou_system(2, [1.0, 1.0], [0.5, 0.5],
                               ConstantForce([0.1, 0.2]))
    with pytest.raises(NonFiniteState, match="initial state is not finite"):
        exact_solve_constant(constant, x + [0.1, np.inf], g)


@pytest.mark.parametrize("problem", [GBMConvergenceProblem(1.0, 0.5),
                                     KozlovConvergenceProblem()],
                         ids=["gbm", "kozlov"])
def test_scalar_fixtures_judge_the_initial_state_as_ou_does(problem):
    # one finite number in any nesting; a second number, none at all or a
    # non-finite one is refused by the rule of an OU state, in the study
    # and on one grid alike
    grid = sample_wiener(1, 0.0, 1.0, 8, seed=1)
    reports = [convergence_study(problem, x0, 0.0, 1.0, [2, 4], n_paths=4,
                                 refine=2)
               for x0 in ([1.5], 1.5, np.array([[1.5]]))]
    assert reports[0] == reports[1] == reports[2]
    for x0, error, match in [
            ([1.0, 99.0], DimensionMismatch, "needs d = 1 entries, got 2"),
            ([], DimensionMismatch, "needs d = 1 entries, got 0"),
            ([[1.0], [2.0, 3.0]], DimensionMismatch,
             "does not flatten to d = 1 numbers"),
            ({"y0": 1.0}, DimensionMismatch,
             "does not flatten to d = 1 numbers"),
            ([np.nan], NonFiniteState, "initial state is not finite"),
            ([np.inf], NonFiniteState, "initial state is not finite")]:
        with pytest.raises(error, match=match):
            convergence_study(problem, x0, 0.0, 1.0, [2, 4], n_paths=4,
                              refine=2)
        with pytest.raises(error, match=match):
            problem.exact_terminal(x0, grid)
        with pytest.raises(error, match=match):
            problem.em_terminal(x0, grid)
    # the OU messages keep their text
    sys2 = build_ou_system(2, [1.0, 1.0], [0.5, 0.5],
                           ConstantForce([0.1, 0.2]))
    with pytest.raises(DimensionMismatch,
                       match=r"^initial state needs 2n = 4 entries, got 3$"):
        euler_maruyama(sys2, [0.0] * 3, sample_wiener(2, 0.0, 1.0, 8))


def test_exact_solvers_refuse_what_they_do_not_cover():
    g1 = sample_wiener(1, 0.0, 1.0, 8, seed=1)
    g2 = sample_wiener(2, 0.0, 1.0, 8, seed=1)
    linear = build_ou_system(1, [1.0], [1.0], LinearForce([[-1.0]]))
    with pytest.raises(WrongForceClass, match="needs a constant force"):
        exact_solve_constant(linear, [0.0, 0.0], g1)
    aniso = build_ou_system(2, [1.0, 2.0], [1.0, 1.0],
                            LinearForce([[-1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(WrongForceClass, match="isotropic"):
        exact_solve_linear(aniso, [0.0] * 4, g2)
    # a singular L has no shift that absorbs a nonzero K
    singular = build_ou_system(2, [1.0, 1.0], [1.0, 1.0],
                               LinearForce([[1.0, 1.0], [1.0, 1.0]],
                                           [1.0, 0.0]))
    with pytest.raises(WrongForceClass, match="regular matrix"):
        exact_solve_linear(singular, [0.0] * 4, g2)
    # a grid drives as many processes as the system has coordinates
    with pytest.raises(DimensionMismatch, match="grid drives 2 processes"):
        exact_solve_linear(linear, [0.0, 0.0], g2)
    with pytest.raises(DimensionMismatch, match="grid drives 1 processes"):
        euler_maruyama(aniso, [0.0] * 4, g1)


def test_convergence_gbm_order_half_smoke():
    rep = convergence_study(GBMConvergenceProblem(1.0, 0.5), [1.0],
                            0.0, 1.0, [16, 64, 256], n_paths=60, seed=1,
                            refine=16)
    assert 0.3 <= rep.fitted_order <= 0.75


def test_reference_gbm_certificate():
    g = sample_wiener(1, 0.0, 1.0, 512, seed=14)
    path, cert = solve_reference_problem(
        "gbm", {"a": 1.0, "b": 0.5, "x0": 1.5}, g)
    assert cert["max_invariant_deviation"] <= 1e-12
    assert path.states.shape == (513, 1)
    expected = 1.5 * np.exp(0.875 * path.times + 0.5 * g.cumulative()[0])
    assert np.allclose(path.states[:, 0], expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("problem,params", [
    ("gbm", {"a": np.nan, "b": 0.5}),
    ("gbm", {"a": 1.0, "b": np.inf}),
    ("gbm", {"a": 1.0, "b": 0.5, "x0": np.nan}),
    ("kozlovexp", {"y0": np.nan}),
    ("kozlovexp", {"y0": -np.inf}),
])
def test_reference_rejects_non_finite_parameters(problem, params):
    g = sample_wiener(1, 0.0, 1.0, 8, seed=1)
    with pytest.raises(OusymError, match="must be finite"):
        solve_reference_problem(problem, params, g)


@pytest.mark.parametrize("problem,params,steps", [
    ("gbm", {"a": 900.0, "b": 0.5}, 10),      # exp overflows, inf * 0
    ("gbm", {"a": -900.0, "b": 0.5}, 10),     # exp underflows, 0 * inf
    ("gbm", {"a": 5.0, "b": 0.5, "x0": 1e308}, 64),
    ("kozlovexp", {"y0": 800.0}, 64),
])
def test_reference_rejects_an_overflowing_closed_form(problem, params, steps):
    # finite parameters, non-finite path or certificate: an error, and no
    # numpy warning on the way
    g = sample_wiener(1, 0.0, 1.0, steps, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OusymError, match="closed form is not finite"):
            solve_reference_problem(problem, params, g)


def test_reference_kozlov_formula_and_noise_free():
    g = sample_wiener(1, 0.0, 1.0, 256, seed=15)
    path, cert = solve_reference_problem("kozlovexp", {"y0": 2.0}, g)
    w = g.cumulative()[0]
    expected = np.log(np.exp(2.0) + path.times + w)
    assert np.allclose(path.states[:, 0], expected, atol=1e-12)
    assert cert["max_transform_defect"] <= 1e-10

    flat = manual_grid(np.zeros((1, 8)), t1=2.0)
    path0, _ = solve_reference_problem("kozlovexp", {"y0": 2.0}, flat)
    assert np.allclose(path0.states[:, 0],
                       np.log(np.exp(2.0) + path0.times), atol=1e-14)


def test_reference_kozlov_domain_exit():
    g = sample_wiener(1, 0.0, 1.0, 64, seed=16)
    with pytest.raises(DomainExit):
        solve_reference_problem("kozlovexp", {"y0": -25.0}, g)


def test_em_general_matches_ou_em():
    sys1 = build_ou_system(1, [1.5], [0.8], ConstantForce([0.2]))
    g = sample_wiener(1, 0.0, 1.0, 100, seed=17)

    def drift(y):
        return np.array([y[1], 0.2 - 1.5 * y[1]])

    def sigma(y):
        return np.array([[0.0], [0.8]])

    a = euler_maruyama(sys1, [0.1, 0.0], g)
    b = euler_maruyama_general(drift, sigma, [0.1, 0.0], g)
    assert np.allclose(a.states, b.states, atol=1e-14)


def test_ensemble_matches_single_paths(monkeypatch):
    # 11 paths in chunks of 4: three blocks, the last one partial, so with
    # two threads two blocks are drawn ahead
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.0]))
    monkeypatch.setattr(integrate, "ENSEMBLE_PATHS", 4)
    for threads in ("1", "2"):
        monkeypatch.setenv("OUSYM_THREADS", threads)
        term = euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 50, 11,
                                       seed=19)
        for idx in range(11):
            g = sample_wiener(1, 0.0, 1.0, 50, seed=19, path_index=idx)
            single = euler_maruyama(sys1, [0.0, 0.0], g)
            assert np.array_equal(term[idx], single.terminal())


def test_ensemble_property_rows_are_single_paths():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def force(kind, n, seed):
        if kind == "constant":
            return ConstantForce(np.linspace(-0.7, 0.4, n))
        if kind == "linear":
            # dense, so that each force component is a rounded sum
            rng = np.random.default_rng(seed)
            return LinearForce(rng.normal(size=(n, n)) - 2.0 * np.eye(n),
                               rng.normal(size=n))
        # ^ on a numpy scalar and on an array must round alike
        return parse_force_expression("; ".join(
            f"-0.9*x{i + 1}^3 + 1.1*sin(x{(i + 1) % n + 1})"
            f" + 0.2*abs(x{i + 1})^2.5" for i in range(n)), n)

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(kind=st.sampled_from(["constant", "linear",
                                            "expression"]),
                      n=st.integers(1, 3), chunk=st.integers(1, 9),
                      n_paths=st.integers(1, 23), seed=st.integers(0, 99),
                      threads=st.sampled_from(["1", "2"]))
    def check(kind, n, chunk, n_paths, seed, threads):
        sys_ = build_ou_system(n, [1.5] * n, [0.8] * n,
                               force(kind, n, seed))
        x0 = [1.3] * (2 * n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("OUSYM_THREADS", threads)
            mp.setattr(integrate, "ENSEMBLE_PATHS", chunk)
            term = euler_maruyama_ensemble(sys_, x0, 0.0, 1.0, 12, n_paths,
                                           seed=seed)
        assert term.shape == (n_paths, 2 * n)
        for idx in range(n_paths):
            g = sample_wiener(n, 0.0, 1.0, 12, seed=seed, path_index=idx)
            assert np.array_equal(term[idx],
                                  euler_maruyama(sys_, x0, g).terminal())

    check()


def traced_draws(monkeypatch, tamper=None):
    """Record the thread and first index of every block draw; tamper(first
    index, increments) may change a block or raise."""
    seen = []
    draw = integrate._philox_increments

    def wrapped(n_proc, t0, t1, steps, seed, indices):
        seen.append((threading.current_thread(), indices[0]))
        inc = draw(n_proc, t0, t1, steps, seed, indices)
        if tamper is not None:
            tamper(indices[0], inc)
        return inc

    monkeypatch.setattr(integrate, "_philox_increments", wrapped)
    return seen


@pytest.mark.parametrize("threads,workers", [("1", 0), ("2", 1)])
def test_prefetch_draws_ahead_on_one_worker(monkeypatch, threads, workers):
    monkeypatch.setenv("OUSYM_THREADS", threads)
    seen = traced_draws(monkeypatch)
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    monkeypatch.setattr(integrate, "ENSEMBLE_PATHS", 3)
    before = threading.active_count()
    euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 20, 10)
    assert threading.active_count() == before
    assert [i0 for _, i0 in seen] == [0, 3, 6, 9]
    # the first block is drawn in the calling thread, the rest ahead
    assert seen[0][0] is threading.current_thread()
    assert len({t for t, _ in seen[1:]}
               - {threading.current_thread()}) == workers


def test_blowup_in_second_block_stops_the_worker(monkeypatch):
    monkeypatch.setenv("OUSYM_THREADS", "2")

    def blow_up(i0, inc):
        if i0 == 4:
            inc[...] = 1e300

    seen = traced_draws(monkeypatch, blow_up)
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    monkeypatch.setattr(integrate, "ENSEMBLE_PATHS", 4)
    before = threading.active_count()
    with pytest.raises(NonFiniteState):
        euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 20, 16)
    assert threading.active_count() == before
    # block 2 was being drawn ahead while block 1 blew up
    assert [i0 for _, i0 in seen] == [0, 4, 8]


def test_draw_error_reaches_the_caller_unchanged(monkeypatch):
    monkeypatch.setenv("OUSYM_THREADS", "2")
    err = RuntimeError("draw failed")

    def fail(i0, _inc):
        if i0 == 8:
            raise err

    traced_draws(monkeypatch, fail)
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    monkeypatch.setattr(integrate, "ENSEMBLE_PATHS", 4)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 20, 16)
    assert info.value is err
    assert threading.active_count() == before
    # blocks of 4 paths of 32 fine steps in the study too
    monkeypatch.setattr(integrate, "BLOCK_VALUES", 4 * 32)
    with pytest.raises(RuntimeError) as info:
        convergence_study(OUConvergenceProblem(sys1), [0.0, 0.0], 0.0, 1.0,
                          [8, 16], n_paths=16, refine=2)
    assert info.value is err
    assert threading.active_count() == before


@pytest.mark.parametrize("n_paths", [0, -3, 2.5, "3", True])
def test_ensemble_rejects_a_bad_path_count(n_paths):
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    with pytest.raises(InvalidGrid, match="n_paths must be >= 1"):
        euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 10, n_paths)


def test_ensemble_takes_a_numpy_integer_path_count():
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    assert np.array_equal(
        euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 10, np.int64(3)),
        euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 10, 3))


def test_ensemble_blocks_do_not_depend_on_the_shape(monkeypatch):
    # ENSEMBLE_PATHS paths per block whatever n and steps are
    seen = traced_draws(monkeypatch)
    monkeypatch.setattr(integrate, "ENSEMBLE_PATHS", 5)
    for n, steps in ((1, 10), (2, 10), (2, 80)):
        sys_ = build_ou_system(n, [1.0] * n, [1.0] * n,
                               ConstantForce([0.3] * n))
        seen.clear()
        euler_maruyama_ensemble(sys_, [0.0] * (2 * n), 0.0, 1.0, steps, 12)
        assert [i0 for _, i0 in seen] == [0, 5, 10]


@pytest.mark.parametrize("beta,mu", [([1.0], [2.5]),
                                     ([1.0, 1.5], [0.7, 1.9])])
def test_ensemble_applies_mu(beta, mu):
    n, t1, steps, n_paths, seed = len(mu), 6.0, 600, 4000, 23
    sys_ = build_ou_system(n, beta, mu, ConstantForce([0.0] * n))
    x0 = [0.0] * (2 * n)
    term = euler_maruyama_ensemble(sys_, x0, 0.0, t1, steps, n_paths,
                                   seed=seed)
    # first and last rows of each chunk of ENSEMBLE_PATHS = 2048
    for idx in (0, 1, 2047, 2048, n_paths - 1):
        g = sample_wiener(n, 0.0, t1, steps, seed=seed, path_index=idx)
        single = euler_maruyama(sys_, x0, g).terminal()
        assert np.max(np.abs(term[idx] - single)) <= 1e-12
    # the velocities are stationary OU by t1: variance mu^2 / (2 beta)
    for i in range(n):
        target = mu[i] ** 2 / (2.0 * beta[i])
        band = 3.0 * target * np.sqrt(2.0 / (n_paths - 1))
        assert abs(np.var(term[:, n + i], ddof=1) - target) <= band


def nan_drift(x):
    return np.full_like(x, np.nan)


def test_nan_states_are_caught():
    g = sample_wiener(1, 0.0, 1.0, 10, seed=1)
    with pytest.raises(NonFiniteState):
        euler_maruyama_general(nan_drift, lambda x: np.ones((1, 1)), [0.5],
                               g)
    # 0/0 in the force: max(|x|, |v|) > guard alone would let NaN through
    sys1 = build_ou_system(1, [1.0], [1.0],
                           parse_force_expression("x1/x1", 1))
    with pytest.raises(NonFiniteState):
        euler_maruyama(sys1, [0.0, 0.0], g)
    with pytest.raises(NonFiniteState):
        euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 10, 3)

    class NaNDrift(GBMConvergenceProblem):
        def drift(self, x):
            return nan_drift(x)

    with pytest.raises(NonFiniteState):
        NaNDrift(1.0, 0.5).em_terminal([1.0], g)
    # in a study every path blows up, so every path is skipped
    with pytest.raises(OusymError, match="every path was skipped"):
        convergence_study(NaNDrift(1.0, 0.5), [1.0], 0.0, 1.0, [8, 16],
                          n_paths=5, refine=2)


# one force per class that drives x past the guard 1e3 from (1, 0) with
# beta 0.1, and one that makes the force NaN there (constant and linear
# forces reject NaN entries, so only an expression can)
BLOWUP_FORCES = {
    "constant": ConstantForce([50.0]),
    "linear": LinearForce([[50.0]]),
    "expression": parse_force_expression("50*x1 + 0.1*x1^3", 1),
}
NAN_FORCES = {
    "expression": parse_force_expression("(x1 - 1)/(x1 - 1)", 1),
}


def one_and_two_paths(force, strict, t1=20.0, steps=200):
    """_ou_em on one path, which takes the scalar kernel, and on a 2-row
    batch of the same increments, which takes the batch loop: each
    outcome, a (terminal, blown) pair or the NonFiniteState raised. Both
    read the guard BLOWUP_GUARD when called."""
    sys1 = build_ou_system(1, [0.1], [1.0], force)
    inc = sample_wiener(1, 0.0, t1, steps, seed=3).increments[None]
    outcomes = []
    for batch in (inc, np.concatenate((inc, inc))):
        try:
            outcomes.append(integrate._ou_em(sys1, [1.0, 0.0], 0.0, t1,
                                             batch, strict=strict))
        except NonFiniteState as exc:
            outcomes.append(exc)
    return outcomes


@pytest.mark.parametrize("force", [
    pytest.param(force, id=f"{kind}-forces{j}")
    for j, forces in enumerate([BLOWUP_FORCES, NAN_FORCES])
    for kind, force in forces.items()])
def test_scalar_kernel_guard_matches_the_batch_loop(monkeypatch, force):
    monkeypatch.setattr(integrate, "BLOWUP_GUARD", 1e3)
    one, two = one_and_two_paths(force, strict=True)
    assert isinstance(one, NonFiniteState)
    assert str(one) == str(two)
    (term1, blown1), (term2, blown2) = one_and_two_paths(force, strict=False)
    assert blown1.tolist() == [True] and blown2.tolist() == [True, True]
    assert not np.all(np.abs(term1) <= 1e3)
    assert np.array_equal(term1[0], term2[0], equal_nan=True)


def test_scalar_kernel_passes_division_by_zero_to_the_guard():
    # numpy scalars turn 1/0 into inf; Python floats would raise. The guard
    # reports it, so neither one path nor an ensemble prints a warning
    sys1 = build_ou_system(1, [1.0], [1.0], parse_force_expression("1/x1", 1))
    g = sample_wiener(1, 0.0, 1.0, 10, seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteState, match="at step 1 "):
            euler_maruyama(sys1, [0.0, 0.0], g)
        with pytest.raises(NonFiniteState, match="at step 1 "):
            euler_maruyama_ensemble(sys1, [0.0, 0.0], 0.0, 1.0, 10, 3)
    assert [str(w.message) for w in caught] == []


class CappedGBM(GBMConvergenceProblem):
    """GBM whose drift turns NaN above a level, so some paths blow up."""

    def drift(self, x):
        return np.where(x > 1.6, np.nan, self.a * x)


def oracle_exact(problem, x0, grid):
    """Exact terminal state on one grid, written apart from the library's
    batched closed forms; DomainExit or NonFiniteState where a study skips
    the path."""
    t, w = grid.times, grid.cumulative()[0]
    if isinstance(problem, KozlovConvergenceProblem):
        x = np.exp(x0[0]) + (t - t[0]) + w
        if not np.all(x > 1e-9):  # the whole fine path, NaN included
            raise DomainExit("the transformed state touched the floor")
        return np.log(x[-1:])
    if isinstance(problem, GBMConvergenceProblem):
        a, b = problem.a, problem.b
        return x0[0] * np.exp((a - 0.5 * b ** 2) * (t[-1] - t[0])
                              + b * w[-1:])
    if isinstance(problem.sys.force, ConstantForce):
        return exact_solve_constant(problem.sys, x0, grid).terminal()
    return exact_solve_linear(problem.sys, x0, grid).terminal()


def oracle_em(problem, x0, grid):
    """Euler-Maruyama terminal state on one grid through the public
    single-path schemes; NonFiniteState on a blow-up."""
    if isinstance(problem, OUConvergenceProblem):
        return euler_maruyama(problem.sys, x0, grid).terminal()
    return euler_maruyama_general(
        problem.drift, lambda y: problem.sigma(y).reshape(1, 1), x0,
        grid).terminal()


def per_path_study(problem, x0, t1, ladder, n_paths, seed, refine):
    """Plain loop over path indices with the oracle terminals."""
    finest = ladder[-1] * refine
    rows = []
    for idx in range(n_paths):
        fine = sample_wiener(problem.n_proc, 0.0, t1, finest, seed=seed,
                             path_index=idx)
        try:
            ref = oracle_exact(problem, x0, fine)
            rows.append([float(np.max(np.abs(
                oracle_em(problem, x0, coarsen(fine, finest // s)) - ref)))
                for s in ladder])
        except (DomainExit, NonFiniteState):
            continue
    errors = tuple(float(e) for e in np.array(rows).mean(axis=0))
    return errors, len(rows), n_paths - len(rows)


STUDY_CASES = pytest.mark.parametrize("problem,x0,t1,ladder,refine", [
    (KozlovConvergenceProblem(), [-1.0], 4.0, [16, 32], 8),
    # two paths here touch the floor on the fine grid while EM survives
    (KozlovConvergenceProblem(), [0.0], 4.0, [2, 4], 64),
    (OUConvergenceProblem(build_ou_system(
        2, [2.0, 2.0], [0.7, 0.7],
        LinearForce([[-2.0, 1.0], [-1.0, -2.0]], [0.3, -0.1]))),
     [0.5, -0.3, 0.1, 0.2], 1.0, [8, 16, 32], 4),
    (GBMConvergenceProblem(1.0, 0.5), [1.0], 1.0, [16, 64], 4),
    (CappedGBM(1.0, 0.5), [1.0], 1.0, [16, 64], 4),
], ids=["kozlov", "kozlov-exits", "linear-iso-n2", "gbm", "gbm-nan-drift"])


@STUDY_CASES
def test_batched_study_equals_per_path_loop(monkeypatch, problem, x0, t1,
                                            ladder, refine):
    finest = ladder[-1] * refine
    # blocks of 8 paths: 29 paths end in a partial block
    monkeypatch.setattr(integrate, "BLOCK_VALUES",
                        8 * problem.n_proc * finest)
    n_paths, seed = 29, 5
    rep = convergence_study(problem, x0, 0.0, t1, ladder, n_paths=n_paths,
                            seed=seed, refine=refine)
    errors, used, skipped = per_path_study(problem, x0, t1, ladder, n_paths,
                                           seed, refine)
    assert rep.errors == errors
    assert rep.used_paths == used
    assert rep.skipped_paths == skipped
    if problem.name == "kozlov-exp" or isinstance(problem, CappedGBM):
        assert 0 < skipped < n_paths


@STUDY_CASES
def test_single_grid_pair_equals_the_oracle(problem, x0, t1, ladder, refine):
    # exact_terminal / em_terminal: the same numbers, or the same exception
    # class where a study would skip the path
    finest = ladder[-1] * refine
    for idx in range(29):
        fine = sample_wiener(problem.n_proc, 0.0, t1, finest, seed=5,
                             path_index=idx)
        pairs = [(problem.exact_terminal, oracle_exact, fine)] + [
            (problem.em_terminal, oracle_em, coarsen(fine, finest // s))
            for s in ladder]
        for method, oracle, grid in pairs:
            try:
                expected = oracle(problem, x0, grid)
            except (DomainExit, NonFiniteState) as exc:
                with pytest.raises(type(exc)):
                    method(x0, grid)
            else:
                assert np.array_equal(method(x0, grid), expected)


def test_study_skips_by_whole_path_leakage(monkeypatch):
    # complex modes leave roundoff-sized imaginary parts that differ by
    # path; a relative limit between them must skip exactly the paths
    # whose single-path solve reports more leakage than the limit times
    # the path's largest |state|
    sys2 = build_ou_system(2, [1.0, 1.0], [0.6, 0.6],
                           LinearForce([[-3.0, 1.0], [-1.0, -3.0]]))
    x0, ladder, refine, n_paths = [0.4, -0.2, 0.3, 0.1], [8, 16], 4, 12
    paths = [exact_solve_linear(sys2, x0, sample_wiener(
        2, 0.0, 1.0, ladder[-1] * refine, seed=2, path_index=i))
        for i in range(n_paths)]
    leaks = [path.meta["max_imag_leakage"] for path in paths]
    sizes = [np.abs(path.states).max() for path in paths]
    rel = float(np.median([leak / size for leak, size in zip(leaks, sizes)]))
    monkeypatch.setattr(symmetry, "CERT_REL", rel)
    problem = OUConvergenceProblem(sys2)
    rep = convergence_study(problem, x0, 0.0, 1.0,
                            ladder, n_paths=n_paths, seed=2, refine=refine)
    over = [leak > rel * size for leak, size in zip(leaks, sizes)]
    assert 0 < rep.skipped_paths == sum(over)
    for i, leak in enumerate(leaks):
        grid = sample_wiener(2, 0.0, 1.0, ladder[-1] * refine, seed=2,
                             path_index=i)
        if over[i]:
            with pytest.raises(NonFiniteState):
                problem.exact_terminal(x0, grid)
        else:
            problem.exact_terminal(x0, grid)


@pytest.mark.parametrize("sys_", [
    build_ou_system(1, [1.0], [1.0], ConstantForce([1e14])),
    build_ou_system(1, [1e150], [1.0], ConstantForce([1.0])),
    build_ou_system(1, [1.0], [1.0], LinearForce([[1e300]])),
    build_ou_system(1, [1.0], [1.0], ConstantForce([-1e14])),
], ids=["beyond-guard", "inf", "nan", "below-guard"])
def test_exact_solvers_keep_the_blow_up_guard(sys_):
    # a single solve raises where a study skips the path, without warnings
    grid = sample_wiener(1, 0.0, 1.0, 16, seed=1)
    solve = (exact_solve_constant if isinstance(sys_.force, ConstantForce)
             else exact_solve_linear)
    problem = OUConvergenceProblem(sys_)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            solve(sys_, [0.0, 0.0], grid)
        with pytest.raises(NonFiniteState):
            problem.exact_terminal([0.0, 0.0], grid)
        _, skip = problem.exact_terminals([0.0, 0.0], 0.0, 1.0,
                                          grid.increments[None])
    assert skip.tolist() == [True]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 2e12, -2e12])
def test_exact_guard_fails_each_out_of_range_state(bad):
    # one bad entry in path 1 of 2, at the last step of its last component
    # in the first, the middle or the last of three windows
    t = np.linspace(0.0, 1.0, 7)
    inc = np.zeros((2, 1, 6))
    bounds = [(0, 2), (2, 4), (4, 7)]
    for window, (_, row) in enumerate(bounds):
        def exact_paths(sys, x0, t, inc):
            for j, (k0, k1) in enumerate(bounds):
                x, v = np.zeros((2, k1 - k0, 1)), np.zeros((2, k1 - k0, 1))
                if j == window:
                    v[1, -1, -1] = bad
                yield k0, k1, x, v, 0.0

        states, leak, skip = integrate._guarded(
            exact_paths, None, None, t, inc, study=True)
        assert leak.tolist() == [0.0, np.inf]
        assert skip.tolist() == [False, True]
        # a study keeps the terminal states alone
        assert states.shape == (2, 2)
        if row == 7:
            assert np.array_equal(states[1, -1], bad, equal_nan=True)
            states[1, -1] = 0.0
        assert not states.any()
        with pytest.raises(NonFiniteState,
                           match="^exact path is NaN or beyond"):
            integrate._guarded(exact_paths, None, None, t, inc)


def test_exact_solve_linear_reads_the_leakage_limit_when_called(
        monkeypatch):
    # the single-path solver and the study adapter judge the leakage of one
    # grid, relative to the path's largest |state|, against the same
    # CERT_REL, read at call time
    sys2 = build_ou_system(2, [1.0, 1.0], [0.6, 0.6],
                           LinearForce([[-3.0, 1.0], [-1.0, -3.0]]))
    x0 = [0.4, -0.2, 0.3, 0.1]
    grid = sample_wiener(2, 0.0, 1.0, 64, seed=2)
    path = exact_solve_linear(sys2, x0, grid)
    leak = path.meta["max_imag_leakage"]
    size = np.abs(path.states).max()
    assert 0.0 < leak <= symmetry.CERT_REL * size
    problem = OUConvergenceProblem(sys2)
    monkeypatch.setattr(symmetry, "CERT_REL", leak / size / 2)
    with pytest.raises(NonFiniteState, match="^imaginary leakage "):
        exact_solve_linear(sys2, x0, grid)
    with pytest.raises(NonFiniteState):
        problem.exact_terminal(x0, grid)
    # (leak / size) * size rounds back to leak here
    monkeypatch.setattr(symmetry, "CERT_REL", leak / size)
    assert np.array_equal(exact_solve_linear(sys2, x0, grid).terminal(),
                          problem.exact_terminal(x0, grid))


def test_ensemble_thread_count_invariance(monkeypatch):
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    results = []
    monkeypatch.setattr(integrate, "ENSEMBLE_PATHS", 8)
    for k in ("1", "3"):
        monkeypatch.setenv("OUSYM_THREADS", k)
        results.append(euler_maruyama_ensemble(
            sys1, [0.0, 0.0], 0.0, 1.0, 80, 37, seed=20))
    assert np.array_equal(results[0], results[1])


def test_convergence_thread_count_invariance(monkeypatch):
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    reports = []
    for k in ("1", "4"):
        monkeypatch.setenv("OUSYM_THREADS", k)
        reports.append(convergence_study(
            OUConvergenceProblem(sys1), [0.0, 0.0], 0.0, 1.0, [8, 16],
            n_paths=24, seed=3, refine=8))
    assert reports[0].errors == reports[1].errors
    assert reports[0].fitted_order == reports[1].fitted_order


def test_path_csv_round_trip(tmp_path):
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.5]))
    g = sample_wiener(1, 0.0, 1.0, 20, seed=21)
    path = euler_maruyama(sys1, [0.3, -0.2], g)
    dest = tmp_path / "path.csv"
    write_path_csv(path, str(dest))
    meta, labels, times, states = read_path_csv(str(dest))
    assert labels == ("x1", "v1")
    assert meta["seed"] == "21"
    assert np.array_equal(times, path.times)
    assert np.array_equal(states, path.states)


def test_path_csv_golden_bytes_and_exact_read_back():
    vals = np.array([-0.0, 5e-324, 1e-5, 1e16, np.inf, np.nan])
    times = vals.copy()
    states = np.column_stack((np.roll(vals, -1), -np.roll(vals, -2)))
    path = integrate.Path(times=times, states=states, labels=("x1", "v1"),
                          meta={"seed": 3, "scheme": "golden", "note": "a=b"})
    buf = io.StringIO()
    write_path_csv(path, buf)
    # the per-value formatting the bulk writer replaced
    expected = "# note=a=b\n# scheme=golden\n# seed=3\nt,x1,v1\n"
    for k in range(len(times)):
        row = [repr(float(times[k]))]
        row += [repr(float(val)) for val in states[k]]
        expected += ",".join(row) + "\n"
    assert buf.getvalue() == expected
    assert expected.splitlines()[4] == "-0.0,5e-324,-1e-05"
    meta, labels, t, st = read_path_csv(io.StringIO(buf.getvalue()))
    assert meta == {"note": "a=b", "scheme": "golden", "seed": "3"}
    assert labels == ("x1", "v1")
    for got, want in ((t, times), (st, states)):
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64),
                              want[~nan].view(np.int64))


def test_read_path_csv_line_grammar():
    text = ("# a = 1\n\n  t,x1  \n# mid=2\n0.0,1.5\n\n  0.5 , -2.0  \n"
            "# no value here\n1.0,1e-3\n# end=3\n")
    meta, labels, times, states = read_path_csv(io.StringIO(text))
    assert meta == {"a": "1", "mid": "2", "end": "3"}
    assert labels == ("x1",)
    assert times.tolist() == [0.0, 0.5, 1.0]
    assert states.tolist() == [[1.5], [-2.0], [1e-3]]


@pytest.mark.parametrize("rows,line", [
    ("0.0,1.0,2.0\n0.1,1.0\n", 5),              # ragged: a cell short
    ("0.0,1.0,2.0,9.0\n0.1,1.0,2.0,9.0\n", 4),  # every row one cell long
    ("0.0,1.0,2.0\n\n0.1,1.0,2.0,\n", 6),       # trailing comma
], ids=["ragged", "extra-cell", "trailing-comma"])
def test_read_path_csv_rejects_malformed_rows(rows, line):
    text = "# seed=1\n\nt,x1,v1\n" + rows
    with pytest.raises(DimensionMismatch, match=f"line {line} "):
        read_path_csv(io.StringIO(text))


def test_read_path_csv_header_only(tmp_path):
    dest = tmp_path / "empty.csv"
    dest.write_text("# seed=1\nt,x1,x2,v1,v2\n")
    meta, labels, times, states = read_path_csv(str(dest))
    assert labels == ("x1", "x2", "v1", "v2")
    assert times.shape == (0,)
    assert states.shape == (0, 4)


def test_convergence_csv_format():
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.3]))
    rep = convergence_study(OUConvergenceProblem(sys1), [0.0, 0.0],
                            0.0, 1.0, [8, 16, 32], n_paths=10, seed=4,
                            refine=8)
    buf = io.StringIO()
    write_convergence_csv(rep, buf)
    lines = buf.getvalue().strip().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "dt,strong_error"
    assert len(data) == 4  # header plus one row per rung
    assert lines[-1].startswith("# fitted_order=")
    assert any(ln.startswith("# seed=4") for ln in lines)
    # floats round-trip
    dt0, err0 = data[1].split(",")
    assert float(dt0) == rep.dts[0]
    assert float(err0) == rep.errors[0]


def test_kozlov_convergence_skips_domain_exits():
    rep = convergence_study(KozlovConvergenceProblem(), [-1.0],
                            0.0, 4.0, [16, 32], n_paths=30, seed=5,
                            refine=8)
    # y0 = -1 puts the floor within reach for some paths; the report must
    # still balance
    assert rep.used_paths + rep.skipped_paths == 30
    assert rep.used_paths > 0

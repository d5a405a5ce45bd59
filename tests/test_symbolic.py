"""The hyper-dual engine against a symbolic oracle.

The Ito Laplacian, both determining blocks of a generator, the invariance
conditions of chi and the force's Jacobian and Hessians are built here with
sympy.diff straight from the SDE of the OU system,

    dx_i = v_i dt,  dv_i = (F_i(x) - beta_i v_i) dt + mu_i dw_i,

with ghost Wiener coordinates z_i that no state depends on, and evaluated
with mpmath at 30 digits at the library's probes. Each row (one equation or
one derivative) is kept as its list of terms, and the library's value must
agree with the row's sum to 1e-12 times its largest term at every probe.
"""

import numpy as np
import pytest

from ousym import (ConstantForce, InvariantCandidate, LinearForce,
                   SymmetryGenerator, build_ou_system, classify_symmetries,
                   duals, f_residual, invariant_residual, ito_laplacian,
                   parse_force_expression, point, sample_probes,
                   sigma_residual, stack_probes)
from ousym.model import default_x_probes

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

REL = 1e-12

FORCES = {
    "cubic": ("x1^3 - x2*x3; 2*x2^3 + x1*x2*x3; x3^3 - x1^2*x2", 3),
    "radial": ("(0.8 + 1.3*(x1^2 + x2^2))*x1; (0.8 + 1.3*(x1^2 + x2^2))*x2",
               2),
    "sin": ("sin(x1*x2) + 0.3*x1; cos(x1) - x2^3", 2),
    "abs": ("abs(x1)*x1 - 0.4*x2; abs(x2 - x1)*x2^2", 2),
    "norm": ("norm(x)*x1; norm(x)^2 - x2 + norm(x)^3", 2),
}

SYSTEMS = {
    "constant-n1": (1, [1.3], [0.7], ConstantForce([0.5])),
    "constant-n2": (2, [0.9, 1.6], [1.2, -0.8],
                    parse_force_expression("0.4; -0.3", 2)),
    "linear-real-n1": (1, [3.0], [1.0], LinearForce([[4.0]])),
    "linear-complex-n1": (1, [1.0], [1.7], LinearForce([[-5.0]], [0.6])),
    "linear-n2": (2, [1.5, 1.5], [0.8, 0.8],
                  LinearForce([[-1.0, 0.5], [-0.7, -2.0]], [0.3, -0.2])),
    "cubic-n1": (1, [1.1], [0.9], parse_force_expression("x1^3 - 0.5*x1", 1)),
    **{f"{name}-n2": (2, [1.2, 1.2], [0.6, 0.6],
                      parse_force_expression(FORCES[name][0], 2))
       for name in ("radial", "sin", "abs", "norm")},
}


def _exact(c):
    """A float as the rational number it is."""
    return sympy.Rational(float(c))


def _force_expr(force, x):
    """F(x) as sympy expressions: an expression force from its rendering,
    with ^ as ** and norm(x) expanded; a linear or constant one from its
    entries."""
    if hasattr(force, "trees"):
        names = {f"x{i + 1}": xi for i, xi in enumerate(x)}
        norm = "sqrt(" + " + ".join(f"x{i + 1}**2" for i in range(len(x)))
        return [sympy.sympify(
            t.render().replace("^", "**").replace("norm(x)", norm + ")"),
            locals=dict(names, abs=sympy.Abs), rational=True)
            for t in force.trees]
    if hasattr(force, "L"):
        return [sum((_exact(l) * xj for l, xj in zip(row, x)), _exact(k))
                for row, k in zip(force.L, force.K)]
    return [_exact(c) for c in force.c]


class SymbolicOU:
    """The extended space (x, v, t; w, z) of an n-dim OU system in sympy
    symbols, with its drift and diffusion."""

    def __init__(self, sys):
        n = sys.n
        self.x, self.v, self.w, self.z = (
            sympy.symbols(f"{b}1:{n + 1}", real=True) for b in "xvwz")
        self.t = sympy.Symbol("t", real=True)
        self.S = self.x + self.v
        self.W = self.w + self.z
        self.F = _force_expr(sys.force, self.x)
        self.drift = list(self.v) + [
            f - _exact(b) * v for f, b, v in zip(self.F, sys.beta, self.v)]
        self.sigma = sympy.zeros(2 * n, 2 * n)
        for i, mu in enumerate(sys.mu):
            self.sigma[n + i, i] = _exact(mu)
        self.point = point(x=self.x, v=self.v, t=self.t, w=self.w, z=self.z)

    def laplacian_terms(self, f):
        """Delta f = sum_k d2f/dW_k^2 + 2 sum_jk sigma_jk d2f/dS_j dW_k
        + sum_jl (sigma sigma^T)_jl d2f/dS_j dS_l, term by term; the terms
        of zero coefficients are left out."""
        sig, a = self.sigma, self.sigma * self.sigma.T
        S, W = self.S, self.W
        return ([sympy.diff(f, w, w) for w in W]
                + [2 * sig[j, k] * sympy.diff(f, S[j], W[k])
                   for j in range(len(S)) for k in range(len(W))
                   if sig[j, k] != 0]
                + [a[j, l] * sympy.diff(f, S[j], S[l])
                   for j in range(len(S)) for l in range(len(S))
                   if a[j, l] != 0])

    def dw_terms(self, f, k):
        """The dW_k coefficient of df: d f/dW_k + sum_j sigma_jk df/dS_j."""
        return [sympy.diff(f, self.W[k])] + [
            self.sigma[j, k] * sympy.diff(f, s)
            for j, s in enumerate(self.S) if self.sigma[j, k] != 0]

    def determining_rows(self, phi, R):
        """Both determining blocks of the generator (phi, R): the dt rows
            d_t phi^i + f^j d_j phi^i - phi^j d_j f^i + (1/2) Delta phi^i,
        then the dw rows, state-major,
            dhat_k phi^i + sigma^j_k d_j phi^i - sigma^i_m R^m_k
        (the term -phi^j d_j sigma^i_k vanishes: sigma is constant)."""
        S, f, sig = self.S, self.drift, self.sigma
        rows = [[sympy.diff(p, self.t)]
                + [fj * sympy.diff(p, s) for fj, s in zip(f, S)]
                + [-pj * sympy.diff(f[i], s) for pj, s in zip(phi, S)]
                + [term / 2 for term in self.laplacian_terms(p)]
                for i, p in enumerate(phi)]
        for i, p in enumerate(phi):
            for k in range(len(self.W)):
                rows.append(self.dw_terms(p, k) + [
                    -sig[i, m] * _exact(R[m, k]) for m in range(len(self.W))])
        return rows

    def invariance_rows(self, theta, n):
        """The invariance conditions of theta: the dW coefficients of the n
        active Wiener coordinates, then the dt coefficient
        d_t theta + f^j d_j theta + (1/2) Delta theta."""
        return [self.dw_terms(theta, k) for k in range(n)] + [
            [sympy.diff(theta, self.t)]
            + [fj * sympy.diff(theta, s) for fj, s in zip(self.drift, self.S)]
            + [term / 2 for term in self.laplacian_terms(theta)]]

    def evaluate(self, rows, probes):
        """Each row's sum and largest |term| at each probe, at 30 digits:
        two float arrays (rows, probes)."""
        rows = [[term for term in row if term != 0] for row in rows]
        args = self.S + (self.t,) + self.W
        fn = sympy.lambdify(args, [term for row in rows for term in row],
                            modules="mpmath", cse=True)
        sums = np.zeros((len(rows), len(probes)))
        scales = np.zeros_like(sums)
        with mpmath.workdps(30):
            for b, q in enumerate(probes):
                values = fn(*(mpmath.mpf(float(c)) for c in
                              (*q.x, *q.v, q.t, *q.w, *q.z)))
                at = 0
                for a, row in enumerate(rows):
                    terms = values[at:at + len(row)]
                    at += len(row)
                    sums[a, b] = float(mpmath.fsum(terms))
                    scales[a, b] = float(max(map(abs, terms), default=0))
        return sums, scales


def _assert_rows_match(library, sums, scales):
    library = np.asarray(library, dtype=float).reshape(sums.shape)
    err = np.abs(library - sums)
    worst = np.unravel_index(np.argmax(err - REL * scales), err.shape)
    assert np.all(err <= REL * scales), (
        worst, library[worst], sums[worst], scales[worst])


def _system(name):
    return build_ou_system(*SYSTEMS[name])


def _probes(sys):
    return sample_probes(sys, count=32, seed=0)


def _scalar(q, m):
    """A field in every block, written once for duals and for sympy."""
    return (m.sin(q.x[0] * q.v[-1]) * m.exp(-0.3 * q.t)
            + q.w[0] * q.w[-1] * q.v[0] + q.z[-1] * q.x[-1] ** 3
            + q.v[-1] ** 2 * q.w[0] - m.cos(q.x[0]) * q.z[0] * q.t
            + m.exp(0.2 * q.v[0] * q.w[-1]))


def _alpha(q, m):
    """A scaling factor with every second derivative the Laplacian reads."""
    return m.sin(q.v[0] * q.w[-1] + 0.5 * q.x[0]) + 0.4 * q.v[-1] ** 2


def _mode(A, B, kappa, t):
    """xi(t) = exp(-a t) (A cos(b t) + B sin(b t)) for kappa = a + i b."""
    a, b = _exact(kappa.real), _exact(kappa.imag)
    return [sympy.exp(-a * t) * (_exact(Ai) * sympy.cos(b * t)
                                 + _exact(Bi) * sympy.sin(b * t))
            for Ai, Bi in zip(A, B)]


def _generators(sys):
    """(library generator, its phi in sympy) pairs: the emitted generators,
    then the first of them (or a fixed mode when none is emitted) at another
    rate, so that its residuals are not zero, and that mode scaled by
    _alpha, so that its Laplacian is not zero.

    Every emitted generator is xi(t) d/dx + xi'(t) d/dv with xi a mode of
    rate kappa (0 for a translation): Re or Im of M exp(-kappa t). Its
    values at t = 0 give A = xi(0) and xi'(0) = -a A + b B."""
    n = sys.n
    sym = SymbolicOU(sys)
    out = []
    bases = []
    for g in classify_symmetries(sys).generators:
        kappa = complex(getattr(g.family, "kappa", 0.0))
        phi0 = np.array(g.phi(point(x=[0.0] * n, v=[0.0] * n, t=0.0)),
                        dtype=float)
        A, dA = phi0[:n], phi0[n:]
        B = (dA + kappa.real * A) / kappa.imag if kappa.imag else 0.0 * A
        xi = _mode(A, B, kappa, sym.t)
        out.append((g, xi + [sympy.diff(c, sym.t) for c in xi]))
        bases.append((A, B, kappa))
    A, B, kappa = (bases or [(np.eye(n)[0], np.zeros(n), 0.6 + 0.9j)])[0]
    rate = 1.1 * kappa + 0.1
    g = SymmetryGenerator.linear_mode(A + 1j * B, rate, n, "re")
    xi = _mode(A, B, rate, sym.t)
    phi = xi + [sympy.diff(c, sym.t) for c in xi]
    alpha = _alpha(sym.point, sympy)
    out.append((g, phi))
    out.append((g.scaled(lambda q: _alpha(q, duals), "alpha"),
                [alpha * c for c in phi]))
    return sym, out


# the Laplacian reads n and mu alone: one system per (n, mu)
@pytest.mark.parametrize("name", [name for name in SYSTEMS if name not in (
    "sin-n2", "abs-n2", "norm-n2")])
def test_ito_laplacian_matches_sympy(name):
    sys = _system(name)
    sym = SymbolicOU(sys)
    probes = _probes(sys)
    for f in (_scalar, _alpha):
        sums, scales = sym.evaluate(
            [sym.laplacian_terms(f(sym.point, sympy))], probes)
        library = ito_laplacian(lambda q: f(q, duals), sys,
                                stack_probes(probes))
        _assert_rows_match(library, sums, scales)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_determining_blocks_match_sympy(name):
    sys = _system(name)
    probes = _probes(sys)
    stacked = stack_probes(probes)
    sym, gens = _generators(sys)
    for g, phi in gens:
        sums, scales = sym.evaluate(sym.determining_rows(phi, g.R), probes)
        # the dt rows, then the dw rows state-major, each over the probes
        library = [np.reshape(block(g, sys, stacked), (-1, len(probes)))
                   for block in (f_residual, sigma_residual)]
        _assert_rows_match(np.concatenate(library), sums, scales)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_chi_invariance_conditions_match_sympy(name):
    # chi_i = w_i - v_i/mu_i - (beta_i/mu_i) x_i + (c_i/mu_i) t, c = F(0):
    # an invariant for a constant force, a candidate for any other
    sys = _system(name)
    sym = SymbolicOU(sys)
    probes = _probes(sys)
    c = [f.subs({xi: 0 for xi in sym.x}) for f in sym.F]
    for i in range(sys.n):
        mu, beta = _exact(sys.mu[i]), _exact(sys.beta[i])
        chi = (sym.w[i] - sym.v[i] / mu - beta / mu * sym.x[i]
               + c[i] / mu * sym.t)
        sums, scales = sym.evaluate(sym.invariance_rows(chi, sys.n), probes)
        library = invariant_residual(InvariantCandidate.chi(sys, i + 1), sys,
                                     stack_probes(probes))
        _assert_rows_match(library, sums, scales)


@pytest.mark.parametrize("name", list(FORCES))
def test_force_jacobian_and_hessians_match_sympy(name):
    source, n = FORCES[name]
    force = parse_force_expression(source, n)
    x = sympy.symbols(f"x1:{n + 1}", real=True)
    F = _force_expr(force, x)
    cols = [np.array(c) for c in zip(*default_x_probes(n))]
    fn = sympy.lambdify(
        x, [[sympy.diff(f, a) for a in x] for f in F]
        + [[sympy.diff(f, a, b) for a in x for b in x] for f in F],
        modules=["mpmath", {"DiracDelta": lambda x: 0}])
    J, H = force.jacobian(cols), np.array(force.hessians(cols))
    with mpmath.workdps(30):
        for k in range(cols[0].size):
            rows = fn(*(mpmath.mpf(float(c[k])) for c in cols))
            for i in range(n):
                for row, lib in ((rows[i], J[i, :, k]),
                                 (rows[n + i], H[i, :, :, k].ravel())):
                    exact = np.array([float(e) for e in row])
                    scale = float(max(abs(e) for e in row))
                    assert np.all(np.abs(lib - exact) <= REL * scale), (
                        i, k, lib, exact)

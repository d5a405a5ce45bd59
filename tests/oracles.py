"""Reference implementations that the tests compare the library against.

Derivatives: central finite differences, with step
cbrt(machine eps) * max(1, |coord|): independent of the hyper-dual engine,
and accurate to about 1e-6 relative for first derivatives and 1e-4 for
second ones, which is the tolerance the tests that call them use.

Exact OU paths: the whole-array solvers exact_constant_paths and
exact_linear_paths, which build every state of every path at once and
return (states (paths, steps + 1, 2n), leakage (paths,)). The library
streams the same arithmetic over time windows; the tests require its
states and leakage to equal these bit for bit.

Scalar fixture references: gbm_exact_terminals and kozlov_exact_terminals,
which evaluate the closed forms along the whole block's Wiener path. The
library streams the same sums over time windows; the tests require its
terminals and skip masks to equal these bit for bit.

Paths and integrals on one grid: euler_maruyama_general, Euler-Maruyama
for an Ito system given as callables, and ito_integral, left-endpoint
sums of int a(t) dw.

Generator fields: two_profile_linear_mode_phi, a mode field's phi from
one profile for the column and another for -kappa times it, and
per_entry_extended_field, which tests R's entries one by one at every
evaluation. The library takes the envelope once per mode field and reads
R once per extended field; the tests require the same bits.
"""

import numpy as np

from ousym import duals, integrate
from ousym.calculus import _contract, _probe_shape, extended_coords
from ousym.classify import _eigenmodes, mode_rates
from ousym.duals import value
from ousym.errors import (DimensionMismatch, EvaluationDomainError,
                          NonFiniteState, WrongForceClass)
from ousym.integrate import Path, _grid_meta, _split_state
from ousym.model import ConstantForce, LinearForce

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _fd_step(val):
    return _CBRT_EPS * np.maximum(1.0, np.abs(val))


def fd_derivative(f, p, coord, order=1, coord2=None):
    """First or second derivative of a scalar field at p by central
    differences; coord2 means the mixed second derivative, as for
    ousym.derivative."""
    c1 = coord
    v1 = p.coord(c1)
    h1 = _fd_step(value(v1))
    if order == 1 and coord2 is None:
        return (f(p.with_coord(c1, v1 + h1))
                - f(p.with_coord(c1, v1 - h1))) / (2 * h1)
    c2 = coord2 or c1
    if c2 == c1:
        return (f(p.with_coord(c1, v1 + h1)) - 2 * f(p)
                + f(p.with_coord(c1, v1 - h1))) / (h1 * h1)
    v2 = p.coord(c2)
    h2 = _fd_step(value(v2))
    pp = f(p.with_coord(c1, v1 + h1).with_coord(c2, v2 + h2))
    pm = f(p.with_coord(c1, v1 + h1).with_coord(c2, v2 - h2))
    mp = f(p.with_coord(c1, v1 - h1).with_coord(c2, v2 + h2))
    mm = f(p.with_coord(c1, v1 - h1).with_coord(c2, v2 - h2))
    return (pp - pm - mp + mm) / (4 * h1 * h2)


def _fd_field_jet(F, p):
    """Values and Jacobian of the vector field F at p, shaped as
    calculus._field_jet's: F at p and at p +- h along each coordinate. A
    coordinate along which F leaves its domain (EvaluationDomainError) gives
    NaN partials, left for _contract to drop or reject."""
    coords = extended_coords(p)
    shape = _probe_shape(p)
    vals = [value(c) for c in F(p)]
    rows = [[] for _ in vals]
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in coords:
            v = p.coord(c)
            h = _fd_step(value(v))
            try:
                diffs = [(u - d) / (2 * h) for u, d in zip(
                    F(p.with_coord(c, v + h)), F(p.with_coord(c, v - h)))]
            except EvaluationDomainError:
                diffs = [np.nan] * len(vals)
            for row, d in zip(rows, diffs):
                row.append(d)
    if len(vals) != len(coords):
        raise DimensionMismatch(f"vector field has {len(vals)} components "
                                f"for {len(coords)} coordinates")
    return (duals._stacked(vals, shape),
            duals._stacked([duals._stacked(row, shape) for row in rows],
                           (len(coords),) + shape))


def fd_lie_bracket(X, Y, p):
    """[X, Y] at p from central-difference Jacobians (2N + 1 evaluations of
    each field for N coordinates), contracted as ousym.lie_bracket
    contracts; a field without N components raises DimensionMismatch."""
    vals, jac = map(np.stack, zip(*(_fd_field_jet(F, p) for F in (X, Y))))
    return list(_contract(vals, jac, [0], [1])[0])


# --- whole-array exact OU solvers ---

def _cumulative(inc):
    """Running sums (..., steps + 1) of increments (..., steps), from 0."""
    out = np.zeros(inc.shape[:-1] + (inc.shape[-1] + 1,))
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


def exact_constant_paths(sys, x0, t, inc):
    """Constant-force states (paths, steps + 1, 2n) on the times t, from
    increments (paths, n, steps). Real arithmetic: the leakage is zero."""
    if not isinstance(sys.force, ConstantForce):
        raise WrongForceClass("exact_solve_constant needs a constant force")
    n = sys.n
    x, v = _split_state(n, x0)
    states = np.empty((inc.shape[0], t.shape[0], 2 * n))
    for i in range(n):
        b, m, c = sys.beta[i], sys.mu[i], sys.force.c[i]
        # I(t_k) = sum_{j<k} exp(b t_j) dw_j, the quadrature for z
        integ = _cumulative(np.exp(b * t[:-1]) * inc[:, i])
        z0 = -np.exp(b * t[0]) / b * v[i]
        y0 = x[i] + v[i] / b
        z = z0 - (c / b ** 2) * (np.exp(b * t) - np.exp(b * t[0])) \
            - (m / b) * integ
        y = y0 + (c / b) * (t - t[0]) + (m / b) * _cumulative(inc[:, i])
        vi = -b * np.exp(-b * t) * z
        states[:, :, n + i] = vi
        states[:, :, i] = y - vi / b
    return states, np.zeros(inc.shape[0])


def _mode_quadrature(y0, a, dw):
    """One mode branch (paths, steps + 1): y0, then y0 plus the running
    sums of a * dw along the steps of dw (paths, steps)."""
    y = np.empty((dw.shape[0], dw.shape[1] + 1), dtype=np.result_type(a, dw))
    y[:, 0] = y0
    np.cumsum(a * dw, axis=1, out=y[:, 1:])
    y[:, 1:] += y0
    return y


def exact_linear_paths(sys, x0, t, inc):
    """Eigenmode states (paths, steps + 1, 2n) on the times t, from
    increments (paths, n, steps), and each path's largest imaginary part
    over its whole path (paths,).

    When the eigenvector matrix M, its inverse and the initial modes are
    real (every symmetric L, every L with a real spectrum), the modes run
    in float64 and the leakage is exactly 0.0: a real mode takes the real
    parts of its complex coefficients, and a conjugate pair is formed from
    its + branch alone, its - branch being the bitwise conjugate. Otherwise
    the modes run in complex arithmetic and the leakage is measured."""
    if not isinstance(sys.force, LinearForce):
        raise WrongForceClass("exact_solve_linear needs a linear force")
    if not sys.isotropic:
        raise WrongForceClass(
            "the exact linear solver covers n = 1 or isotropic systems")
    n = sys.n
    x, v = _split_state(n, x0)
    L = np.asarray(sys.force.L, dtype=float)
    K = np.asarray(sys.force.K, dtype=float)
    if np.any(K != 0.0):
        try:
            shift = np.linalg.solve(L, K)
        except np.linalg.LinAlgError:
            raise WrongForceClass(
                "affine offset needs a regular matrix to absorb")
    else:
        shift = np.zeros(n)
    beta = sys.beta[0]
    mu = sys.mu[0]

    lams, M, _ = _eigenmodes(L, beta)
    Minv = np.linalg.inv(M)

    s0 = x + shift
    q0 = Minv @ s0.astype(complex)
    p0 = Minv @ v.astype(complex)
    real = not (M.imag.any() or Minv.imag.any() or q0.imag.any()
                or p0.imag.any())
    if real:
        M, Minv = M.real, Minv.real
    else:
        inc = inc.astype(complex)
    dW = Minv @ inc  # per-mode noise, (paths, n, steps)

    q = np.empty((inc.shape[0], n, t.shape[0]), dtype=M.dtype)
    p = np.empty_like(q)
    for i in range(n):
        kp, km = mode_rates(beta, lams[i])
        # complex exp even for a real mode: real exp rounds differently
        yp0 = np.exp(kp * t[0]) * (km * q0[i] + p0[i]) / (km - kp)
        ym0 = np.exp(km * t[0]) * (kp * q0[i] + p0[i]) / (kp - km)
        ap = mu * np.exp(kp * t[:-1]) / (km - kp)
        am = mu * np.exp(km * t[:-1]) / (kp - km)
        ep = np.exp(-kp * t)
        em = np.exp(-km * t)
        if real and kp.imag != 0.0:
            # conjugate pair: q = a + conj(a), p = -b - conj(b)
            yp = _mode_quadrature(yp0, ap, dW[:, i])
            a = (ep * yp).real
            b = ((kp * ep) * yp).real
            q[:, i] = a + a
            p[:, i] = -b - b
            continue
        if real:
            kp, km, yp0, ym0 = kp.real, km.real, yp0.real, ym0.real
            ap, am, ep, em = ap.real, am.real, ep.real, em.real
        yp = _mode_quadrature(yp0, ap, dW[:, i])
        ym = _mode_quadrature(ym0, am, dW[:, i])
        q[:, i] = ep * yp + em * ym
        p[:, i] = -kp * ep * yp - km * em * ym
    s_path = M @ q  # (paths, n, steps + 1)
    v_path = M @ p
    if real:
        leak = np.zeros(inc.shape[0])
    else:
        leak = np.maximum(np.max(np.abs(s_path.imag), axis=(1, 2)),
                          np.max(np.abs(v_path.imag), axis=(1, 2)))
    states = np.empty((inc.shape[0], t.shape[0], 2 * n))
    states[:, :, :n] = s_path.real.transpose(0, 2, 1) - shift
    states[:, :, n:] = v_path.real.transpose(0, 2, 1)
    return states, leak


def one_window(exact_paths):
    """A whole-array solver in the window interface that
    ousym.integrate._guarded reads: the whole path as one window
    (0, steps + 1, x, v, leakage)."""
    def windows(sys, x0, t, inc):
        states, leak = exact_paths(sys, x0, t, inc)
        n = states.shape[2] // 2
        yield 0, states.shape[1], states[:, :, :n], states[:, :, n:], leak
    return windows


# --- whole-block scalar fixture references ---

def gbm_exact_terminals(a, b, x0, t0, t1, inc):
    """GBM terminal states (paths, 1) from increments (paths, 1, steps),
    through the whole block's Wiener path, and a mask that skips no
    path."""
    w = _cumulative(inc)[:, :, -1]
    x = float(x0[0]) * np.exp((a - 0.5 * b ** 2) * (t1 - t0) + b * w)
    return x, np.zeros(inc.shape[0], dtype=bool)


def kozlov_exact_terminals(x0, t0, t1, inc):
    """Kozlov terminal states (paths, 1) from increments (paths, 1, steps),
    through the whole block's transformed path x = exp(y0) + (t - t0) + w,
    and the mask of paths where x is not above 1e-9 at some time (NaN
    included)."""
    t = np.linspace(t0, t1, inc.shape[2] + 1)
    x = np.exp(float(x0[0])) + (t - t0) + _cumulative(inc)
    with np.errstate(invalid="ignore"):
        return np.log(x[:, :, -1]), (~(x > 1e-9))[:, 0].any(axis=1)


# --- single-grid Euler-Maruyama and Ito integrals ---

def euler_maruyama_general(drift, sigma, x0, grid):
    """Euler-Maruyama for a plain Ito system given as callables, in its
    own loop, not the library's.

    drift(x) -> (d,), sigma(x) -> (d, n_proc), x0 length d; the columns
    are labelled x1..xd, and a state outside [-BLOWUP_GUARD, BLOWUP_GUARD]
    or NaN raises NonFiniteState. The guard is integrate.BLOWUP_GUARD as
    it is when called.
    """
    states = np.empty((grid.steps + 1, np.size(x0)))
    states[0] = np.ravel(x0)
    d, dt, guard = states.shape[1], grid.dt, integrate.BLOWUP_GUARD
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(grid.steps):
            s = states[k]
            f = np.asarray(drift(s), dtype=float)
            g = np.asarray(sigma(s), dtype=float).reshape(d, grid.n_proc)
            states[k + 1] = s + f * dt + g @ grid.increments[:, k]
            if not np.abs(states[k + 1]).max() <= guard:
                raise NonFiniteState(f"path blew up at step {k + 1}")
    return Path(times=grid.times, states=states,
                labels=tuple(f"x{i + 1}" for i in range(d)),
                meta=_grid_meta(grid, "euler-maruyama"))


def ito_integral(a, grid, proc=0):
    """Left-endpoint sums of int a(t) dw along one driving process.

    Returns an array of length steps + 1; entry k is the integral over
    [t0, t_k], so the first entry is 0.
    """
    ts = grid.times[:-1]
    try:
        vals = np.asarray(a(ts), dtype=float)
        if vals.shape != ts.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(a(t)) for t in ts])
    return _cumulative(vals * grid.increments[proc])


# --- generator fields, each piece evaluated where it is used ---

def _t_profile(C, kappa, part):
    """Closure t -> part of C exp(-kappa t), kappa = a + i b, deciding the
    part and taking exp(-a t), cos(b t) and sin(b t) at every call."""
    a, b = float(np.real(kappa)), float(np.imag(kappa))
    Cr = [float(np.real(c)) for c in C]
    Ci = [float(np.imag(c)) for c in C]

    def profile(t):
        envelope = duals.exp(-a * t)
        if b == 0.0:
            if part == "re":
                return [envelope * cr for cr in Cr]
            return [envelope * ci for ci in Ci]
        cosb = duals.cos(b * t)
        sinb = duals.sin(b * t)
        if part == "re":
            return [envelope * (cr * cosb + ci * sinb)
                    for cr, ci in zip(Cr, Ci)]
        return [envelope * (ci * cosb - cr * sinb)
                for cr, ci in zip(Cr, Ci)]

    return profile


def two_profile_linear_mode_phi(column, kappa, part):
    """phi of the mode field part[column exp(-kappa t)] d/dx +
    part[-kappa column exp(-kappa t)] d/dv, from two profiles."""
    column = np.asarray(column, dtype=complex)
    xi_profile = _t_profile(column, kappa, part)
    eta_profile = _t_profile(-kappa * column, kappa, part)
    return lambda p: xi_profile(p.t) + eta_profile(p.t)


def per_entry_extended_field(phi, R, proc):
    """The extended field of phi and R over proc's coordinates: phi, 0 on
    t, R w on the Wiener coordinates, testing every entry of R when the
    field is evaluated."""
    def field(p):
        comps = list(phi(p))
        comps.append(0.0)
        wcoords = [p.coord(c) for c in proc.wiener_coords]
        for k in range(len(wcoords)):
            h = 0.0
            for m in range(len(wcoords)):
                if R[k, m] != 0.0:
                    h = h + R[k, m] * wcoords[m]
            comps.append(h)
        return comps

    return field

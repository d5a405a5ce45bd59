"""Extended-point derivatives, the Ito Laplacian, and Lie brackets."""

import warnings

import numpy as np
import pytest

from ousym import (ConstantForce, EmptyProbeSet, GBMConvergenceProblem,
                   KozlovConvergenceProblem, LinearForce,
                   SymmetryGenerator, build_ou_system, derivative,
                   expdecay_residual_scan, extended_coords, ito_laplacian,
                   lie_bracket, max_residuals, parse_force_expression,
                   point, sample_probes, stack_probes)
from ousym import duals
from ousym.calculus import _gradients, ito_laplacian_components
from ousym.errors import DimensionMismatch, NonFiniteResult

from oracles import fd_derivative, fd_lie_bracket


def _sys(n=1, beta=(1.0,), mu=(1.0,), c=(0.0,)):
    return build_ou_system(n, list(beta), list(mu), ConstantForce(list(c)))


def test_derivative_orders():
    p = point(x=[3.0], v=[0.0])
    f = lambda q: q.x[0] * q.x[0]
    assert derivative(f, p, ("x", 0)) == pytest.approx(6.0, abs=1e-13)
    assert derivative(f, p, ("x", 0), order=2) == pytest.approx(2.0,
                                                                abs=1e-13)
    g = lambda q: q.x[0] * q.v[0]
    p2 = point(x=[1.7], v=[-0.4])
    assert derivative(g, p2, ("x", 0), coord2=("v", 0)) == pytest.approx(
        1.0, abs=1e-13)


def test_derivative_at_a_point_of_mixed_shapes_matches_plain_points():
    # x holds probes and v one plain float; the derivative along v has the
    # probe shape and the bits of the plain points, where v ** 2.5 goes
    # through Python's float power, not np.power
    x = np.array([0.3, -1.2, 2.0, 0.7, -0.05])
    f = lambda q: q.v[0] ** 2.5 * q.x[0] + duals.sin(q.x[0] * q.v[0])
    # np.power and Python's power differ on a few percent of inputs
    for v in np.random.default_rng(4).uniform(0.2, 3.0, 30).tolist():
        p = point(x=[x], v=[v], t=0.4)
        for args in [(("v", 0),), (("v", 0), 2), (("x", 0), 2, ("v", 0)),
                     (("v", 0), 2, ("t", 0))]:
            mixed = derivative(f, p, *args)
            plain = [derivative(f, point(x=[xk], v=[v], t=0.4), *args)
                     for xk in x.tolist()]
            assert mixed.shape == x.shape
            assert mixed.tobytes() == np.array(plain).tobytes(), (v, args)


def test_dual_and_fd_engines_agree():
    p = point(x=[0.7], v=[-0.3], t=0.4, w=[0.2])

    def f(q):
        return duals.sin(q.x[0] * q.v[0]) + duals.exp(-q.t) * q.w[0]

    for c in [("x", 0), ("v", 0), ("t", 0), ("w", 0)]:
        d_dual = derivative(f, p, c)
        d_fd = fd_derivative(f, p, c)
        assert d_fd == pytest.approx(d_dual, rel=1e-6, abs=1e-8)
    d2_dual = derivative(f, p, ("x", 0), coord2=("v", 0))
    d2_fd = fd_derivative(f, p, ("x", 0), coord2=("v", 0))
    assert d2_fd == pytest.approx(d2_dual, rel=1e-4, abs=1e-6)

    # a nonlinear field in every block at n=3, anisotropic beta/mu, on a
    # stacked probe set: gradient and Ito Laplacian against central
    # differences
    mu = (0.6, 1.7, 2.4)
    sys3 = build_ou_system(3, [0.9, 1.6, 2.2], list(mu),
                           ConstantForce([0.1, -0.4, 0.3]))
    stacked = stack_probes(sample_probes(sys3, count=5, seed=9))
    stacked = stacked.with_coord(("z", 1), stacked.x[2] * 0.5)

    def g(q):
        return (duals.sin(q.x[0] * q.v[1]) * duals.exp(-0.3 * q.t)
                + q.w[0] * q.w[2] * q.v[2] + q.z[1] * q.x[2] ** 3
                + q.v[0] ** 2 * q.w[1] - duals.cos(q.x[1]) * q.z[0] * q.t)

    _, (grad,) = _gradients(lambda q: [g(q)], stacked)
    for b, c in enumerate(extended_coords(stacked)):
        fd = fd_derivative(g, stacked, c)
        assert np.allclose(derivative(g, stacked, c), fd,
                           rtol=1e-6, atol=1e-8)
        assert np.allclose(grad[b], fd, rtol=1e-6, atol=1e-8)
    lap_fd = 0.0
    for i in range(3):
        w, v, z = ("w", i), ("v", i), ("z", i)
        lap_fd = lap_fd + sum(
            coef * fd_derivative(g, stacked, a, coord2=b)
            for coef, a, b in ((1.0, w, w), (1.0, z, z), (2.0 * mu[i], v, w),
                               (mu[i] ** 2, v, v)))
    assert np.allclose(ito_laplacian(g, sys3, stacked), lap_fd,
                       rtol=1e-4, atol=1e-6)

    # Jacobian and Hessians of a cubic expression force
    force = parse_force_expression(
        "x1^3 - x2*x3; 2*x2^3 + x1*x2*x3; x3^3 - x1^2*x2", 3)
    x = [0.7, -1.1, 0.4]
    at = point(x=x, v=[0.0] * 3)

    def comp(i):
        return lambda q: force.evaluate(q.x)[i]

    J = force.jacobian(x)
    H = force.hessians(x)
    for i in range(3):
        for j in range(3):
            xj = ("x", j)
            assert J[i, j] == pytest.approx(
                fd_derivative(comp(i), at, xj), rel=1e-6, abs=1e-8)
            for k in range(3):
                assert H[i][j, k] == pytest.approx(
                    fd_derivative(comp(i), at, xj, coord2=("x", k)),
                    rel=1e-4, abs=1e-4)
    # stacked probe columns give every probe's Jacobian and Hessians at once,
    # each equal to its own single-point result and exactly symmetric
    pts = [x, [-0.3, 0.9, 1.6], [1.2, 0.05, -0.8]]
    cols = [np.array(c) for c in zip(*pts)]
    Js, Hs = force.jacobian(cols), force.hessians(cols)
    assert Js.shape == (3, 3, 3)
    for k, pt in enumerate(pts):
        assert np.array_equal(Js[..., k], force.jacobian(pt))
        for Hi_k, Hi in zip(Hs, force.hessians(pt)):
            assert np.array_equal(Hi_k[..., k], Hi)
            assert np.array_equal(Hi, Hi.T)


def test_ito_laplacian_oracles():
    # Delta(v1 w1) = 2 sigma_{v1,w1} = 2 mu
    sys2 = _sys(mu=(2.0,))
    p = point(x=[0.3], v=[0.5], t=0.1, w=[0.2])
    assert ito_laplacian(lambda q: q.v[0] * q.w[0], sys2, p) == \
        pytest.approx(4.0, abs=1e-12)
    # Delta(v1^2) = 2 mu^2
    sys3 = _sys(mu=(3.0,))
    assert ito_laplacian(lambda q: q.v[0] * q.v[0], sys3, p) == \
        pytest.approx(18.0, abs=1e-12)
    # Delta(w1^2) = 2 from the pure Wiener second derivative
    assert ito_laplacian(lambda q: q.w[0] * q.w[0], sys3, p) == \
        pytest.approx(2.0, abs=1e-12)
    # x coordinates carry no diffusion at all
    assert ito_laplacian(lambda q: q.x[0] * q.x[0], sys3, p) == \
        pytest.approx(0.0, abs=1e-14)


def test_ito_laplacian_linearity():
    sys1 = _sys(mu=(2.0,))
    p = point(x=[0.1], v=[-0.7], t=0.0, w=[1.1])
    f = lambda q: q.v[0] * q.w[0]
    g = lambda q: q.v[0] * q.v[0]
    lhs = ito_laplacian(lambda q: 2.0 * f(q) - 3.0 * g(q), sys1, p)
    rhs = 2.0 * ito_laplacian(f, sys1, p) - 3.0 * ito_laplacian(g, sys1, p)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_ito_laplacian_on_custom_process():
    # GBM: Delta f = b^2 x^2 f'' for state-only f
    gbm = GBMConvergenceProblem(1.0, 0.5).sys
    p = point(x=[2.0])
    val = ito_laplacian(lambda q: q.x[0] ** 3, gbm, p)
    assert val == pytest.approx(0.25 * 4.0 * 6.0 * 2.0, rel=1e-12)

    # sigma varies with the state (GBM b x, Kozlov exp(-y)): on stacked
    # probes, Delta f = sigma^2 f_xx + 2 sigma f_xw + f_ww by central
    # differences
    def f(q):
        return q.x[0] ** 3 * duals.exp(-q.t) + duals.sin(q.x[0] * q.w[0])

    x, w = ("x", 0), ("w", 0)
    koz = KozlovConvergenceProblem().sys
    for proc, sigma in ((gbm, lambda y: 0.5 * y), (koz, lambda y: np.exp(-y))):
        stacked = stack_probes(sample_probes(proc, count=6, seed=3,
                                             box=(0.2, 2.0)))
        s = sigma(stacked.x[0])
        oracle = (s * s * fd_derivative(f, stacked, x, order=2)
                  + 2.0 * s * fd_derivative(f, stacked, x, coord2=w)
                  + fd_derivative(f, stacked, w, order=2))
        assert np.allclose(ito_laplacian(f, proc, stacked), oracle,
                           rtol=1e-4, atol=1e-6)


def test_what_overflows_raises_without_a_numpy_warning():
    # exp(800 t) overflows at t = 1.5: derivative and lie_bracket refuse
    # the result with NonFiniteResult, and numpy prints nothing first
    steep = build_ou_system(1, [1.0], [1.0], LinearForce([[2.0]]))
    X = SymmetryGenerator.exp_decay(1, -800.0, 1)
    T = SymmetryGenerator.translation(1, 1)
    p = point(x=[0.5], v=[0.1], t=1.5, w=[0.2])
    t, x = ("t", 0), ("x", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kwargs in ({}, {"order": 2}, {"coord2": x}):
            with pytest.raises(NonFiniteResult, match="^derivative "):
                derivative(lambda q: X.phi(q)[0], p, t, **kwargs)
        with pytest.raises(NonFiniteResult, match="^lie_bracket "):
            lie_bracket(X.as_extended_field(steep),
                        T.as_extended_field(steep), p)


def test_ito_laplacian_components_batched():
    sys1 = _sys(mu=(2.0,))
    probes = sample_probes(sys1, count=7, seed=0)
    stacked = stack_probes(probes)

    def fvec(q):
        return [q.v[0] * q.w[0], q.v[0] * q.v[0]]

    lap = ito_laplacian_components(fvec, sys1, stacked)
    assert np.allclose(np.asarray(lap[0]), 4.0)
    assert np.allclose(np.asarray(lap[1]), 8.0)


def test_lie_bracket_textbook():
    # [d/dx, x d/dx] = d/dx on the extended space
    sys1 = _sys()
    coords = extended_coords(point(x=[0.0], v=[0.0]))
    nc = len(coords)
    ix = coords.index(("x", 0))

    def X(p):
        out = [0.0] * nc
        out[ix] = 1.0
        return out

    def Y(p):
        out = [0.0] * nc
        out[ix] = p.x[0]
        return out

    p = point(x=[0.8], v=[0.1], t=0.2, w=[0.4])
    br = lie_bracket(X, Y, p)
    expected = [0.0] * nc
    expected[ix] = 1.0
    assert np.allclose([float(np.asarray(b)) for b in br], expected,
                       atol=1e-13)


def test_lie_bracket_antisymmetry_and_jacobi():
    sys1 = _sys()
    p0 = point(x=[0.8], v=[0.1], t=0.2, w=[0.4])
    coords = extended_coords(p0)
    nc = len(coords)

    rng = np.random.default_rng(2)

    def make_field(seed):
        r = np.random.default_rng(seed)
        picks = r.integers(0, nc, size=2)
        coeffs = r.uniform(-1, 1, size=2)

        def F(p):
            vals = [p.coord(c) for c in coords]
            out = [0.0] * nc
            out[int(picks[0])] = coeffs[0] * duals.sin(vals[int(picks[1])])
            out[int(picks[1])] = coeffs[1] * vals[int(picks[0])] ** 2
            return out

        return F

    X, Y, Z = make_field(1), make_field(2), make_field(3)

    def as_floats(vec):
        return np.array([float(np.asarray(e)) for e in vec])

    br_xy = as_floats(lie_bracket(X, Y, p0))
    br_yx = as_floats(lie_bracket(Y, X, p0))
    assert np.allclose(br_xy, -br_yx, atol=1e-10)

    # Jacobi via nested numerical brackets (fd on the outer level)
    def bracket_field(A, B):
        def F(p):
            return lie_bracket(A, B, p)
        return F

    # vector-seeded brackets at stacked probes against central differences
    # and against the same brackets taken one probe at a time
    probes = sample_probes(sys1, count=6, seed=8)
    stacked = stack_probes(probes)
    for A, B in ((X, Y), (Y, Z), (Z, X)):
        dual = lie_bracket(A, B, stacked)
        fd = fd_lie_bracket(A, B, stacked)
        for d, e in zip(dual, fd):
            assert np.allclose(d, e, rtol=1e-6, atol=1e-8)
        pointwise = np.array([as_floats(lie_bracket(A, B, q))
                              for q in probes]).T
        assert np.allclose(np.array(dual), pointwise, rtol=1e-14, atol=1e-15)

    j1 = as_floats(fd_lie_bracket(X, bracket_field(Y, Z), p0))
    j2 = as_floats(fd_lie_bracket(Y, bracket_field(Z, X), p0))
    j3 = as_floats(fd_lie_bracket(Z, bracket_field(X, Y), p0))
    assert np.max(np.abs(j1 + j2 + j3)) < 1e-5


def test_empty_probe_list_raises_empty_probe_set():
    sys1 = build_ou_system(1, [3.0], [1.0], LinearForce([[4.0]]))
    with pytest.raises(EmptyProbeSet):
        stack_probes([])
    with pytest.raises(EmptyProbeSet):
        max_residuals(SymmetryGenerator.translation(1, 1), sys1, [])
    with pytest.raises(EmptyProbeSet):
        expdecay_residual_scan(sys1, [1.0], probes=[])


def test_infinite_partial_stays_in_its_own_coordinate():
    # sqrt(x2) has an infinite x2-partial at x2 = 0; derivatives along the
    # other coordinates must stay finite, as with one coordinate seeded
    p = point(x=[0.7, 0.0], v=[-1.3, 0.4])
    f = lambda q: q.x[0] * q.v[0] + duals.sqrt(q.x[1])
    assert derivative(f, p, ("x", 0)) == -1.3
    assert derivative(f, p, ("x", 0), coord2=("v", 0)) == 1.0
    assert derivative(f, p, ("v", 0), order=2) == 0.0

    coords = extended_coords(p)
    ix, iv = coords.index(("x", 0)), coords.index(("v", 0))

    def X(q):
        out = [0.0] * len(coords)
        out[ix] = 1.0
        return out

    def Y(q):
        out = [0.0] * len(coords)
        out[iv] = q.x[0] * duals.sqrt(q.x[1]) + 1.0
        return out

    stacked = stack_probes([p, point(x=[0.2, 0.5], v=[0.1, 0.0])])
    with np.errstate(divide="ignore", invalid="ignore"):
        _, (grad,) = _gradients(lambda q: [f(q)], stacked)
        dual = lie_bracket(X, Y, stacked)
    assert grad[ix].tolist() == [-1.3, 0.1]
    assert grad[coords.index(("x", 1))][0] == np.inf
    fd = fd_lie_bracket(X, Y, stacked)
    for d, e in zip(dual, fd):
        assert np.allclose(d, e, rtol=1e-6, atol=1e-8)


def test_lie_bracket_engines_agree_on_dense_fields():
    # every component depends on several coordinates, so every entry of the
    # bracket sums terms from every column of both Jacobians
    sys2 = build_ou_system(2, [0.9, 1.4], [1.1, 0.7],
                           ConstantForce([0.2, -0.3]))
    stacked = stack_probes(sample_probes(sys2, count=5, seed=6))
    nc = len(extended_coords(stacked))

    def X(q):
        c = [q.coord(a) for a in extended_coords(q)]
        return [duals.sin(c[a] * c[(a + 1) % nc]) + 0.3 * c[(a + 3) % nc]
                for a in range(nc)]

    def Y(q):
        c = [q.coord(a) for a in extended_coords(q)]
        return [duals.exp(-0.2 * c[(a + 2) % nc]) * c[a] for a in range(nc)]

    dual = np.array(lie_bracket(X, Y, stacked))
    fd = np.array(fd_lie_bracket(X, Y, stacked))
    assert dual.shape == (nc, 5)
    assert np.min(np.max(np.abs(dual), axis=1)) > 1e-2
    assert np.allclose(fd, dual, rtol=1e-6, atol=1e-8)
    assert np.array_equal(np.array(lie_bracket(Y, X, stacked)), -dual)


def test_lie_bracket_rejects_wrong_component_count():
    # a field with one component too few is a shape error, for the library
    # and for the central-difference oracle alike
    p = point(x=[0.8, -0.2], v=[0.1, 0.5], t=0.2, w=[0.4, 0.3])
    nc = len(extended_coords(p))

    def full(q):
        return [q.x[0]] + [0.0] * (nc - 1)

    def short(q):
        return [q.x[0]] + [0.0] * (nc - 2)

    stacked = stack_probes([p, point(x=[0.2, 0.5], v=[0.1, 0.0])])
    for bracket in (lie_bracket, fd_lie_bracket):
        for q in (p, stacked):
            with pytest.raises(DimensionMismatch):
                bracket(full, short, q)
            with pytest.raises(DimensionMismatch):
                bracket(short, full, q)


def test_sample_probes_shape_and_range():
    sys2 = build_ou_system(2, [1.0, 2.0], [1.0, 1.0],
                           ConstantForce([0.0, 0.0]))
    probes = sample_probes(sys2, count=10, seed=4)
    assert len(probes) == 10
    for p in probes:
        assert len(p.x) == 2 and len(p.v) == 2
        assert len(p.w) == 2 and len(p.z) == 2
        assert all(abs(c) <= 2.0 for c in p.x + p.v + p.w)
        assert 0.0 <= p.t <= 2.0
        assert all(c == 0.0 for c in p.z)


def _per_probe_sample(proc, count, seed, box=(-2.0, 2.0)):
    """Probes from one Generator.uniform call per block and probe: the
    oracle of sample_probes' single draw."""
    nx = sum(1 for c in proc.state_coords if c[0] == "x")
    nv = sum(1 for c in proc.state_coords if c[0] == "v")
    nw = sum(1 for c in proc.wiener_coords if c[0] == "w")
    nz = sum(1 for c in proc.wiener_coords if c[0] == "z")
    lo, hi = box
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(count):
        x = tuple(rng.uniform(lo, hi, nx))
        v = tuple(rng.uniform(lo, hi, nv))
        t = float(rng.uniform(0.0, 2.0))
        w = tuple(rng.uniform(lo, hi, nw))
        probes.append(point(x=x, v=v, t=t, w=w, z=[0.0] * nz))
    return probes


def _bits(p):
    return [(type(c), np.float64(c).tobytes())
            for c in (*p.x, *p.v, p.t, *p.w, *p.z)]


@pytest.mark.parametrize("seed", [0, 3, 11, 12345])
def test_sample_probes_match_per_probe_draws(seed):
    procs = [build_ou_system(n, [1.0] * n, [1.0] * n, ConstantForce([0.0] * n))
             for n in (1, 2, 5)] + [GBMConvergenceProblem(0.3, 0.5).sys]
    for proc in procs:
        for count, box in [(1, (-2.0, 2.0)), (7, (-2.0, 2.0)),
                           (32, (-0.5, 3.0))]:
            probes = sample_probes(proc, count=count, seed=seed, box=box)
            oracle = _per_probe_sample(proc, count, seed, box)
            assert [_bits(p) for p in probes] == [_bits(p) for p in oracle]
            assert type(probes[0].t) is float
            assert all(type(c) is np.float64
                       for c in probes[0].x + probes[0].v + probes[0].w)
    assert sample_probes(procs[0], count=0) == []
    assert sample_probes(procs[0], count=-3) == []


def test_stacked_probes_hold_each_coordinate_in_order():
    probes = sample_probes(build_ou_system(2, [1.0] * 2, [1.0] * 2,
                                           ConstantForce([0.0] * 2)),
                           count=6, seed=1)
    p = stack_probes(probes)
    for c in extended_coords(p):
        assert p.coord(c).tobytes() == np.array(
            [float(q.coord(c)) for q in probes]).tobytes()


def test_chi_values():
    sys1 = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    p = point(x=[1.0], v=[2.0], t=3.0, w=[4.0])
    # chi = w - v/mu - (beta/mu) x + (c/mu) t
    assert p.chi(sys1, 0) == pytest.approx(4.0 - 1.0 - 0.5 + 0.75)


def test_chi_reads_c_from_the_force_at_the_origin():
    # c is F(0), whatever the force's class: the same bits for a constant,
    # a linear force with L = 0 and an expression; a force undefined at 0
    # gives NaN, with no warning and no exception
    p = point(x=[1.0], v=[2.0], t=3.0, w=[4.0])
    forces = [ConstantForce([1.5]), LinearForce([[0.0]], [1.5]),
              parse_force_expression("1.5", 1)]
    chis = [p.chi(build_ou_system(1, [1.0], [2.0], f), 0) for f in forces]
    assert len(set(chis)) == 1
    # a linear force's c is K; chi is then a candidate, not an invariant
    lin = build_ou_system(1, [1.0], [2.0], LinearForce([[-2.0]], [0.7]))
    assert p.chi(lin, 0) == 4.0 - 2.0 / 2.0 - 0.5 * 1.0 + (0.7 / 2.0) * 3.0
    odd = build_ou_system(1, [1.0], [2.0], parse_force_expression("x1/x1", 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(p.chi(odd, 0))


@pytest.mark.parametrize("text", ["x1^0 + x1^1", "2^x1", "abs(x1)*x1"])
def test_dual_derivative_of_powers_and_abs_matches_fd(text):
    # the constant powers 0 and 1, a variable exponent and abs each have
    # their own hyper-dual rule
    tree = parse_force_expression(text, 1).trees[0]

    def f(q):
        return tree.evaluate(list(q.x))

    for x in (-0.8, 0.6, 1.3):
        p = point(x=[x], v=[0.0])
        d_dual = derivative(f, p, ("x", 0))
        d_fd = fd_derivative(f, p, ("x", 0))
        assert d_fd == pytest.approx(d_dual, rel=1e-6, abs=1e-8)


def test_first_power_has_a_finite_jacobian_at_zero():
    # p * x^(p - 1) would read 0^0 and 0 * 0^-1 at x = 0
    f = parse_force_expression("x1^1", 1)
    assert np.array_equal(f.jacobian([0.0]), [[1.0]])
    assert np.array_equal(f.hessians([0.0])[0], [[0.0]])


def test_lie_bracket_engines_agree_with_a_wiener_matrix():
    # both fields act on the Wiener coordinates through R, and Y depends on
    # them, so R w enters the bracket through X's values and Jacobian
    sys1 = _sys(c=(0.3,))
    X = SymmetryGenerator(SymmetryGenerator.exp_decay(1, 0.8, 1).phi, 2, 2,
                          R=[[0.4, 0.7], [-0.7, -0.1]])
    Y = SymmetryGenerator(lambda q: [q.w[0] * q.x[0], q.z[0] * q.t], 2, 2,
                          R=[[0.5, 0.0], [0.0, -0.2]])
    fx, fy = X.as_extended_field(sys1), Y.as_extended_field(sys1)
    probes = sample_probes(sys1, count=4, seed=2)
    probes = [q.with_coord(("z", 0), 0.6 - q.x[0]) for q in probes]
    for p in (probes[0], stack_probes(probes)):
        dual = np.array(lie_bracket(fx, fy, p))
        fd = np.array(fd_lie_bracket(fx, fy, p))
        assert np.max(np.abs(dual[-2:])) > 1e-2
        assert np.allclose(fd, dual, rtol=1e-6, atol=1e-8)

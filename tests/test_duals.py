"""Hyper-dual arithmetic: exact first, second, and mixed derivatives."""

import math
import operator

import numpy as np
import pytest

from ousym import duals
from ousym.duals import HyperDual, value
from ousym.errors import EvaluationDomainError


def d1(f, x, h_seed=1.0):
    return f(HyperDual(x, h_seed, 0.0, 0.0)).f1


def d2(f, x):
    # seed both directions at the same coordinate: f12 is the second
    # derivative
    return f(HyperDual(x, 1.0, 1.0, 0.0)).f12


def test_square_first_and_second():
    f = lambda s: s * s
    assert d1(f, 3.0) == pytest.approx(6.0, abs=1e-14)
    assert d2(f, 3.0) == pytest.approx(2.0, abs=1e-14)


def test_mixed_partial_of_product():
    # f(x, v) = x * v, d2f/dxdv = 1 exactly
    x = HyperDual(1.7, 1.0, 0.0, 0.0)
    v = HyperDual(-0.4, 0.0, 1.0, 0.0)
    assert (x * v).f12 == 1.0


def test_product_and_quotient_rules():
    def f(s):
        return (s * s + 1.0) / (s - 2.0)

    s0 = 0.5
    # hand derivative: ((2s)(s-2) - (s^2+1)) / (s-2)^2
    num = 2 * s0 * (s0 - 2) - (s0 * s0 + 1)
    assert d1(f, s0) == pytest.approx(num / (s0 - 2) ** 2, rel=1e-14)


def test_chain_through_transcendentals():
    def f(s):
        return duals.exp(duals.sin(s)) + duals.log(duals.sqrt(s) + 1.0)

    s0 = 1.3
    h = 1e-6
    fd = (f(s0 + h) - f(s0 - h)) / (2 * h)
    assert d1(f, s0) == pytest.approx(fd, rel=1e-8)
    fd2 = (f(s0 + h) - 2 * f(s0) + f(s0 - h)) / h ** 2
    assert d2(f, s0) == pytest.approx(fd2, rel=1e-3)


def test_power_rules():
    assert d1(lambda s: s ** 3, 2.0) == pytest.approx(12.0, abs=1e-12)
    assert d2(lambda s: s ** 3, 2.0) == pytest.approx(12.0, abs=1e-12)
    # negative base with integer exponent is fine
    assert value((-2.0 + 0.0 * HyperDual(1.0)) ** 2) == 4.0
    # hyper-dual exponent
    g = lambda s: HyperDual(2.0) ** s
    assert d1(g, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)


def test_repr_shows_all_four_parts():
    assert repr(HyperDual(1.0, 2.0, 0.0, 0.5)) == \
        "HyperDual(1.0, 2.0, 0.0, 0.5)"


def test_fractional_power_of_negative_base_raises():
    with pytest.raises(EvaluationDomainError):
        HyperDual(-1.5, 1.0) ** 0.5


@pytest.mark.parametrize("base", [-1.5, np.array([-0.5, -1.5]),
                                  HyperDual(-1.5, 1.0)],
                         ids=["float", "array", "hyperdual"])
def test_power_refuses_a_fractional_power_of_a_negative_base(base):
    with pytest.raises(EvaluationDomainError):
        duals.power(base, 0.5)
    # an integral power of a negative base is real
    assert np.all(duals.value(duals.power(base, 3.0)) < 0.0)


def test_power_of_plain_operands_rounds_like_np_power():
    # the ufunc, not Python's float power, for scalars as for arrays
    rng = np.random.default_rng(2)
    for a, b in rng.uniform(0.1, 10.0, (200, 2)):
        got = duals.power(float(a), float(b))
        assert np.float64(got).tobytes() == np.power(a, b).tobytes()


def test_log_sqrt_domain():
    with pytest.raises(EvaluationDomainError):
        duals.log(HyperDual(-1.0, 1.0))
    with pytest.raises(EvaluationDomainError):
        duals.sqrt(HyperDual(-1.0, 1.0))


def test_abs_derivative():
    assert d1(lambda s: abs(s), -3.0) == -1.0
    assert d1(lambda s: abs(s), 3.0) == 1.0


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_comparisons_let_a_callable_branch_on_a_seeded_coordinate(op):
    # each comparison reads the value part, against a float or a HyperDual,
    # so a piecewise callable takes the derivative of the branch it is on
    compare = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
               ">=": operator.ge}[op]
    below = op in ("<", "<=")  # True where a value under 0 compares True

    def f(s):
        return s * s if compare(s, 0.0) == below else 3.0 * s

    assert d1(f, -2.0) == -4.0 and d2(f, -2.0) == 2.0
    assert d1(f, 2.0) == 3.0 and d2(f, 2.0) == 0.0
    one = HyperDual(1.0, 0.0, 1.0)
    assert compare(HyperDual(0.5, 1.0), one) == below
    assert compare(HyperDual(1.5, 1.0), one) != below


def test_numpy_scalars_defer():
    # np.float64 * HyperDual must route through the reflected op
    x = HyperDual(2.0, 1.0)
    y = np.float64(3.0) * x
    assert isinstance(y, HyperDual)
    assert y.f == 6.0 and y.f1 == 3.0
    z = np.float64(1.0) - x
    assert isinstance(z, HyperDual)
    assert z.f == -1.0 and z.f1 == -1.0


def test_array_valued_parts_broadcast():
    t = HyperDual(np.array([0.0, 1.0, 2.0]), 1.0)
    e = duals.exp(-t)
    assert np.allclose(e.f, np.exp([-0.0, -1.0, -2.0]))
    assert np.allclose(e.f1, -np.exp([-0.0, -1.0, -2.0]))


def _jet_fixture(s):
    x, y = s
    return [x * y, x ** 3, 2.0]


def _hand_jet(x, y):
    """Values, gradients and Hessians of _jet_fixture, component first."""
    zero = np.zeros_like(x * y)
    vals = np.array([x * y, x ** 3, 2.0 + zero])
    grads = np.array([[y, x], [3.0 * x * x, zero], [zero, zero]])
    hess = np.array([[[zero, 1.0 + zero], [1.0 + zero, zero]],
                     [[6.0 * x, zero], [zero, zero]],
                     [[zero, zero], [zero, zero]]])
    return vals, grads, hess


def test_jet_at_a_scalar_point():
    # one seed axis in front of the (empty) probe shape; e2 = e1 gives the
    # second derivative along each coordinate
    vals, d1, d12 = duals.jet(_jet_fixture, [1.5, -0.5], np.eye(2),
                              np.eye(2))
    hv, hg, hh = _hand_jet(1.5, -0.5)
    assert vals.shape == (3,) and d1.shape == d12.shape == (3, 2)
    np.testing.assert_allclose(vals, hv, rtol=1e-15)
    np.testing.assert_allclose(d1, hg, rtol=1e-15)
    np.testing.assert_allclose(d12, np.diagonal(hh, axis1=1, axis2=2),
                               rtol=1e-15)
    # the plain component gets zero derivatives at full shape
    assert np.array_equal(d1[2], np.zeros(2))
    assert duals.jet(_jet_fixture, [1.5, -0.5], np.eye(2))[2] is None


def test_jet_at_stacked_probes():
    # the seed axis leads a length-1 axis that shares it between probes
    x, y = np.array([0.3, -1.2, 2.0, 0.7]), np.array([1.1, 0.4, -0.6, 0.0])
    vals, d1, _ = duals.jet(_jet_fixture, [x, y],
                            np.eye(2).reshape(2, 1, 2))
    hv, hg, _ = _hand_jet(x, y)
    assert vals.shape == (3, 4) and d1.shape == (3, 2, 4)
    np.testing.assert_allclose(vals, hv, rtol=1e-15)
    np.testing.assert_allclose(d1, hg, rtol=1e-15)
    assert np.array_equal(d1[2], np.zeros((2, 4)))


def test_jet_with_two_seed_axes():
    # e1 = I on the first seed axis and e2 = I on the second, as for force
    # Hessians: d1 does not read e2, d12 holds every Hessian entry
    x, y = np.array([0.3, -1.2, 2.0]), np.array([1.1, 0.4, -0.6])
    eye = np.eye(2)
    vals, d1, d12 = duals.jet(_jet_fixture, [x, y],
                              eye.reshape(2, 1, 1, 2),
                              eye.reshape(1, 2, 1, 2))
    hv, hg, hh = _hand_jet(x, y)
    assert vals.shape == (3, 3)
    assert d1.shape == d12.shape == (3, 2, 2, 3)
    np.testing.assert_allclose(vals, hv, rtol=1e-15)
    for k in range(2):
        np.testing.assert_allclose(d1[:, :, k], hg, rtol=1e-15)
    np.testing.assert_allclose(d12, hh, rtol=1e-15)
    assert np.array_equal(d12[2], np.zeros((2, 2, 3)))


@pytest.mark.parametrize("e1_shape, probe", [
    ((2,), ()), ((2,), (4,)), ((2, 1, 2), (4,)), ((3, 2, 1, 2), (1, 5)),
    ((1, 4, 2), (4,))], ids=["plain", "shared", "one-seed-axis",
                            "two-seed-axes", "per-probe-seed"])
def test_jet_output_shape_is_the_seeds_by_values_shape(e1_shape, probe):
    # the shape is fixed before fn runs: the seed axes broadcast against
    # the probe shape of the values; vals keep the probe part
    rng = np.random.default_rng(5)
    x, y = (rng.uniform(-1.0, 1.0, probe) if probe else 0.7 for _ in "xy")
    e1 = rng.uniform(-1.0, 1.0, e1_shape)
    vals, d1, d12 = duals.jet(_jet_fixture, [x, y], e1, e1)
    full = np.broadcast_shapes(e1_shape[:-1], probe)
    assert vals.shape == (3,) + full[len(full) - len(probe):]
    assert d1.shape == d12.shape == (3,) + full
    # a plain component is broadcast to the full shape with zero
    # derivatives
    assert np.array_equal(vals[2], np.full(vals.shape[1:], 2.0))
    assert not d1[2].any() and not d12[2].any()


def test_jet_refuses_a_component_wider_than_the_seeds_and_values():
    # a component may not add axes of its own to the output shape
    rates = np.array([[0.5], [1.0], [2.0]])
    x, y = np.array([[0.3, -1.2]]), np.array([[1.1, 0.4]])
    with pytest.raises(ValueError):
        duals.jet(lambda s: [s[0] * rates, s[1]], [x, y],
                  np.eye(2).reshape(2, 1, 1, 2))


def test_facade_passes_plain_floats_through():
    assert duals.exp(0.0) == 1.0
    assert duals.sin(0.0) == 0.0
    assert value(2.5) == 2.5

"""Determining-equation residuals, invariants, and the W-matrix constraint."""

import warnings

import numpy as np
import pytest

from ousym import (ConstantForce, DimensionMismatch, GBMConvergenceProblem,
                   InvariantCandidate, KozlovConvergenceProblem,
                   LinearForce, NonFiniteResult, NotAnInvariant,
                   SymmetryGenerator, affine_invariant_nullspace,
                   build_ou_system, expdecay_residual_scan, f_residual,
                   invariant_residual, ito_laplacian,
                   ito_laplacian_components, lie_bracket,
                   max_invariant_residual, max_residuals,
                   parse_force_expression, point, sample_probes,
                   scale_by_invariant, sigma_residual,
                   solve_wsym_linear_constraint, stack_probes)
from ousym import duals, model, symmetry
from ousym.calculus import (_field_jet, _ito_jet, derivative,
                            extended_coords)
from oracles import per_entry_extended_field, two_profile_linear_mode_phi


def test_sigma_residual_unit_entry_oracle():
    # phi = w1 d/dx1 on a mu=1 system: the dw-block residual picks up
    # d(phi_x)/dw = 1 in the (x1 row, w1 column) entry and nothing else
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.0]))

    def phi(p):
        return [p.w[0], 0.0]

    X = SymmetryGenerator(phi, 2, 2)
    p = point(x=[0.4], v=[-0.2], t=0.3, w=[0.6])
    rows = sigma_residual(X, sys1, p)
    assert float(np.asarray(rows[0][0])) == pytest.approx(1.0, abs=1e-13)
    assert float(np.asarray(rows[1][0])) == pytest.approx(0.0, abs=1e-13)


def test_rotation_with_its_wiener_rotation_certifies():
    # isotropic OU with L = lam I: rotating x and v together by a skew S is
    # a W-symmetry when R rotates the active Wiener processes by the same S
    S = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    sys3 = build_ou_system(3, [1.2] * 3, [0.7] * 3,
                           LinearForce(-0.8 * np.eye(3)))
    R = np.zeros((6, 6))
    R[:3, :3] = S

    def phi(p):
        return [sum(S[i, j] * q[j] for j in range(3))
                for q in (p.x, p.v) for i in range(3)]

    probes = sample_probes(sys3, count=20, seed=4)
    mf, ms = max_residuals(SymmetryGenerator(phi, 6, 6, R=R), sys3, probes)
    assert mf <= 1e-12 and ms <= 1e-12
    # the dw block is sigma S - sigma R: R -> -R leaves 2 mu S on the v rows
    rows = sigma_residual(SymmetryGenerator(phi, 6, 6, R=-R), sys3,
                          stack_probes(probes))
    expected = np.zeros((6, 6))
    expected[3:, :3] = 2 * 0.7 * S
    assert np.allclose(rows, expected[..., None], rtol=0.0, atol=1e-12)


def test_state_dependent_sigma_enters_the_dw_block():
    # GBM dx = a x dt + b x dw: the scaling x d/dx is a symmetry, and for
    # phi = x^2 the dw block is sigma phi' - phi sigma' = b x^2
    gbm = GBMConvergenceProblem(0.7, 0.4).sys
    probes = sample_probes(gbm, count=20, seed=8, box=(0.2, 2.0))
    scaling = SymmetryGenerator(lambda p: [p.x[0]], 1, 1)
    mf, ms = max_residuals(scaling, gbm, probes)
    assert mf <= 1e-12 and ms <= 1e-12
    stacked = stack_probes(probes)
    square = SymmetryGenerator(lambda p: [p.x[0] * p.x[0]], 1, 1)
    assert np.allclose(sigma_residual(square, gbm, stacked)[0][0],
                       0.4 * stacked.x[0] ** 2, rtol=1e-13, atol=0.0)


def _entrywise_blocks(X, sys, p):
    """Reference for both determining blocks and the size of each block's
    entries at each probe, the largest sum of the absolute values of an
    entry's terms: loops over the entries, one derivative() call per
    partial, the Laplacian from its second-order terms."""
    S, W = sys.state_coords, sys.wiener_coords
    sig = [[np.asarray(e) for e in row] for row in sys.sigma(p)]
    phi, f = X.phi(p), sys.drift(p)

    def d(g, a, b=None):
        return derivative(g, p, a, coord2=b)

    fres, sres, fsize, ssize = [], [], [], []
    for i in range(len(S)):
        def phi_i(q, i=i):
            return X.phi(q)[i]

        def f_i(q, i=i):
            return sys.drift(q)[i]

        lap = sum(d(phi_i, w, w) for w in W)
        for k, w in enumerate(W):
            for j, a in enumerate(S):
                lap = lap + 2.0 * sig[j][k] * d(phi_i, a, w)
                for m, b in enumerate(S):
                    lap = lap + sig[j][k] * sig[m][k] * d(phi_i, a, b)
        fterms = [d(phi_i, ("t", 0)), 0.5 * lap] + [
            t for j, a in enumerate(S)
            for t in (f[j] * d(phi_i, a), -phi[j] * d(f_i, a))]
        fres.append(sum(fterms))
        fsize.append(sum(map(np.abs, fterms)))
        row, sizes = [], []
        for k, w in enumerate(W):
            def sig_ik(q, i=i, k=k):
                return sys.sigma(q)[i][k]

            transport = [sig[j][k] * d(phi_i, a) for j, a in enumerate(S)]
            dk = d(phi_i, w) + sum(transport)
            rest = [-phi[j] * d(sig_ik, a) for j, a in enumerate(S)] + [
                -sig[i][m] * X.R[m, k] for m in range(len(W))]
            row.append(dk + sum(rest))
            # D_k phi is one term, and its sigma parts count again
            sizes.append(sum(map(np.abs, [dk] + transport + rest)))
        sres.append(row)
        ssize.append(sizes)
    return (fres, sres, np.max(fsize, axis=0),
            np.max(np.array(ssize), axis=(0, 1)))


def test_residual_blocks_match_an_entrywise_reference():
    # the array form against the equations written entry by entry: a
    # nonlinear anisotropic OU with a generator in every block and a
    # nonzero R, and GBM, whose sigma depends on the state
    sys2 = build_ou_system(2, [0.9, 1.7], [0.6, 1.4], parse_force_expression(
        "sin(x1) * x2; x1^3 - 0.5*x2", 2))
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    R = np.diag(rng.standard_normal(4)) + (A - A.T)

    def phi(p):
        return [p.x[0] * p.w[0] + duals.sin(p.v[1] * p.t), p.w[1] * p.x[1],
                p.w[1] * p.w[0] * p.x[1], duals.exp(-p.t) * p.z[0] * p.v[0]]

    a, b = 0.7, 0.4
    cases = [(SymmetryGenerator(phi, 4, 4, R=R), sys2, (-2.0, 2.0)),
             (SymmetryGenerator(lambda p: [p.x[0] * p.w[0] + p.t], 1, 1,
                                R=[[0.4]]), GBMConvergenceProblem(a, b).sys,
             (0.2, 2.0))]
    for X, proc, box in cases:
        p = stack_probes(sample_probes(proc, count=12, seed=5, box=box))
        p = p.with_coord(("z", 0), 0.3 * p.x[0]) if p.z else p
        blocks = symmetry._residual_blocks(X, proc, p)
        for got, ref in zip(blocks, _entrywise_blocks(X, proc, p)):
            assert np.allclose(got, np.array(ref), rtol=1e-12, atol=1e-12)


def test_exp_decay_zero_residual_on_matching_linear_force():
    # kappa solving kappa^2 - beta kappa - alpha = 0 makes the residual
    # vanish identically
    sys1 = build_ou_system(1, [3.0], [1.0], LinearForce([[4.0]]))
    probes = sample_probes(sys1, count=40, seed=1)
    for kappa in (4.0, -1.0):
        X = SymmetryGenerator.exp_decay(1, kappa, 1)
        mf, ms = max_residuals(X, sys1, probes)
        assert mf <= 1e-12 and ms <= 1e-12


def test_perturbed_rate_leaves_residual():
    sys1 = build_ou_system(1, [3.0], [1.0], LinearForce([[4.0]]))
    probes = sample_probes(sys1, count=40, seed=1)
    X = SymmetryGenerator.exp_decay(1, 4.01, 1)
    mf, ms = max_residuals(X, sys1, probes)
    assert max(mf, ms) >= 1e-3


def test_translation_symmetry_constant_force_only():
    sysc = build_ou_system(1, [1.0], [1.0], ConstantForce([0.7]))
    sysl = build_ou_system(1, [1.0], [1.0], LinearForce([[1.0]]))
    probes_c = sample_probes(sysc, count=30, seed=2)
    probes_l = sample_probes(sysl, count=30, seed=2)
    Y = SymmetryGenerator.translation(1, 1)
    mf, ms = max_residuals(Y, sysc, probes_c)
    assert max(mf, ms) <= 1e-13
    mf, ms = max_residuals(Y, sysl, probes_l)
    assert max(mf, ms) >= 0.1  # d/dx is not a symmetry of a linear force


def test_residual_linearity_in_the_generator():
    sys1 = build_ou_system(1, [2.0], [1.5], ConstantForce([0.3]))
    p = point(x=[0.5], v=[0.4], t=0.6, w=[0.1])
    X = SymmetryGenerator.exp_decay(1, 2.0, 1)
    Y = SymmetryGenerator.translation(1, 1)

    def lin_comb(q):
        return [2.0 * a + 3.0 * b for a, b in zip(X.phi(q), Y.phi(q))]

    Z = SymmetryGenerator(lin_comb, 2, 2)
    rz = np.array([float(np.asarray(e)) for e in f_residual(Z, sys1, p)])
    rx = np.array([float(np.asarray(e)) for e in f_residual(X, sys1, p)])
    ry = np.array([float(np.asarray(e)) for e in f_residual(Y, sys1, p)])
    assert np.allclose(rz, 2.0 * rx + 3.0 * ry, atol=1e-12)


def test_invariant_residual_chi_and_gbm():
    sys1 = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    chi = InvariantCandidate.chi(sys1, 1)
    probes = sample_probes(sys1, count=50, seed=3)
    assert max_invariant_residual(chi, sys1, probes) <= 1e-12

    # the GBM invariant x exp(-(a - b^2/2) t - b w)
    gbm = GBMConvergenceProblem(1.0, 0.5).sys
    a, b = 1.0, 0.5

    def theta(p):
        return p.x[0] * duals.exp(-(a - 0.5 * b * b) * p.t - b * p.w[0])

    cand = InvariantCandidate(theta=theta, label="Theta_gbm")
    probes = sample_probes(gbm, count=30, seed=5, box=(0.2, 2.0))
    assert max_invariant_residual(cand, gbm, probes) <= 1e-10


def test_kozlov_sde_keeps_its_closed_form_invariant():
    # x = exp(y) turns the SDE that Euler-Maruyama steps into dx = dt + dw,
    # the closed form of its reference, so exp(y) - t - w is an invariant;
    # with 0.49 in place of 0.5 in the drift it is not
    cand = InvariantCandidate(
        theta=lambda p: duals.exp(p.x[0]) - p.t - p.w[0],
        label="Theta_kozlov")
    koz = KozlovConvergenceProblem().sys
    probes = sample_probes(koz, count=30, seed=5, box=(0.2, 2.0))
    assert max_invariant_residual(cand, koz, probes) <= 1e-10

    class OffDrift(KozlovConvergenceProblem):
        def drift(self, y):
            return duals.exp(-y) - 0.49 * duals.exp(-2.0 * y)

    assert not max_invariant_residual(cand, OffDrift().sys, probes) <= 1e-10


def test_non_invariant_has_residual():
    sys1 = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    cand = InvariantCandidate(theta=lambda p: p.x[0], label="x1")
    probes = sample_probes(sys1, count=20, seed=6)
    assert max_invariant_residual(cand, sys1, probes) >= 0.1


def test_chi_render_and_affine_record():
    sys1 = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    chi = InvariantCandidate.chi(sys1, 1)
    assert chi.affine.a_w[0] == 1.0
    assert chi.affine.a_v[0] == -0.5
    assert chi.affine.a_x[0] == -0.5
    assert chi.affine.a_t == 0.25
    text = chi.render()
    assert "w1" in text and "t" in text


def test_the_certified_chi_is_the_evaluated_chi():
    # InvariantCandidate.chi, which classify_invariants certifies, evaluates
    # ExtendedPoint.chi, which verify and structure_constants read: the
    # same bits at every probe, not only the same value to rounding
    sys2 = build_ou_system(2, [0.7, 1.9], [1.0, 1.5],
                           ConstantForce([0.3, -0.4]))
    p = stack_probes(sample_probes(sys2, count=200, seed=1))
    for i in (1, 2):
        got = np.asarray(InvariantCandidate.chi(sys2, i)(p))
        want = np.asarray(p.chi(sys2, i - 1))
        assert got.tobytes() == want.tobytes()


def test_scale_by_invariant():
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.2]))
    X = SymmetryGenerator.exp_decay(1, 1.0, 1)
    chi = InvariantCandidate.chi(sys1, 1)
    probes = sample_probes(sys1, count=40, seed=7)

    scaled = scale_by_invariant(X, chi, sys1)
    mf, ms = max_residuals(scaled, sys1, probes)
    assert max(mf, ms) <= 1e-10  # module closure

    def sin_chi(p):
        return duals.sin(p.chi(sys1, 0))

    scaled2 = scale_by_invariant(X, sin_chi, sys1)
    mf, ms = max_residuals(scaled2, sys1, probes)
    assert max(mf, ms) <= 1e-10

    with pytest.raises(NotAnInvariant):
        scale_by_invariant(X, lambda p: p.v[0], sys1)
    assert scaled.family.to_json() == {
        "kind": "ModuleScaled", "scaling": "chi1",
        "base": {"kind": "ExpDecay", "i": 1, "kappa": 1.0}}


def test_imaginary_part_of_a_real_rate_mode():
    # a real rate with an imaginary column: the Im part is the real mode
    sys1 = build_ou_system(1, [3.0], [1.0], LinearForce([[4.0]]))
    X = SymmetryGenerator.linear_mode([2j], 4.0, 1, part="im")
    assert X.phi(point(x=[0.0], v=[0.0], t=0.5)) == pytest.approx(
        [2.0 * np.exp(-2.0), -8.0 * np.exp(-2.0)], rel=1e-15)
    probes = sample_probes(sys1, count=10, seed=3)
    assert max(max_residuals(X, sys1, probes)) <= 1e-10


def _bits(values):
    """Type, dtype, shape and bytes of each entry of a list or tuple."""
    return [(type(v), np.asarray(v).dtype, np.shape(v),
             np.asarray(v).tobytes()) for v in values]


def assert_same_bits(new, old, proc, probes):
    """new and old, two vector callables on points, agree bit for bit at a
    plain probe and at the stacked probes: their values, their Ito jets
    (values, state and t partials, dw terms, Laplacian) and, for a field
    over every coordinate, their field jets (values and Jacobian)."""
    for p in (probes[0], stack_probes(probes)):
        assert _bits(new(p)) == _bits(old(p))
        assert _bits(_ito_jet(new, proc, p)) == _bits(_ito_jet(old, proc, p))
        if len(new(p)) == len(extended_coords(p)):
            assert _bits(_field_jet(new, p)) == _bits(_field_jet(old, p))


ISO3 = build_ou_system(3, [1.1] * 3, [0.6] * 3,
                       LinearForce([[-1.0, 0.4, 0.0], [0.2, -2.0, 0.3],
                                    [0.0, -0.5, -0.7]]))


@pytest.mark.parametrize("kappa", [1.7, -0.4, 0.8 + 1.3j, -0.5 - 2.1j])
@pytest.mark.parametrize("part", ["re", "im"])
def test_a_mode_field_has_the_bits_of_its_two_profile_oracle(kappa, part):
    # one profile over (column, -kappa column) takes the envelope, cos and
    # sin once per evaluation; each of its 2n components keeps the bits of
    # a profile for the column and one for -kappa times it
    column = np.array([0.3 - 1.2j, -0.7 + 0.4j, 1.1 + 0.0j])
    X = SymmetryGenerator.linear_mode(column, kappa, 3, part)
    old = two_profile_linear_mode_phi(column, kappa, part)
    probes = sample_probes(ISO3, count=16, seed=3)
    assert_same_bits(X.phi, old, ISO3, probes)
    assert_same_bits(X.as_extended_field(ISO3),
                     per_entry_extended_field(old, X.R, ISO3), ISO3, probes)


SPARSE_R = np.zeros((6, 6))
SPARSE_R[[0, 3, 5], [0, 3, 5]] = [0.5, -1.25, -0.0]
SPARSE_R[1, 4], SPARSE_R[4, 1] = 0.75, -0.75
DENSE_A = np.random.default_rng(8).standard_normal((6, 6))


@pytest.mark.parametrize("R", [np.zeros((6, 6)), SPARSE_R,
                               DENSE_A - DENSE_A.T],
                         ids=["zero", "sparse-skew-plus-diagonal",
                              "dense-skew"])
def test_an_extended_field_reads_R_as_its_per_entry_oracle(R):
    # R's nonzero entries are read when the field is built; each R w
    # component sums them from 0.0 in column order, as a test of every
    # entry at every evaluation does (a -0.0 entry counts as zero in both)
    mode = SymmetryGenerator.linear_mode([0.3, -0.7, 1.1], 1.7, 3)
    X = SymmetryGenerator(mode.phi, 6, 6, R=R)
    probes = sample_probes(ISO3, count=16, seed=5)
    assert_same_bits(X.as_extended_field(ISO3),
                     per_entry_extended_field(mode.phi, R, ISO3), ISO3,
                     probes)


def test_scale_by_a_chi_whose_laplacian_is_not_finite_fails_by_name():
    # x1/x1 is 0/0 at the origin, where chi reads c: chi's Laplacian is
    # NaN, a failed invariance condition like every other failed check
    odd = build_ou_system(1, [1.0], [2.0], parse_force_expression("x1/x1", 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAnInvariant, match=(
                r"^chi1 fails the invariance conditions: nan at term size "
                r"nan > limit nan$")):
            scale_by_invariant(SymmetryGenerator.translation(1, 1),
                               InvariantCandidate.chi(odd, 1), odd)


def test_a_laplacian_that_is_not_finite_is_a_nan_residual():
    # exp(800 t) overflows at the probes, so phi's Ito Laplacian is not
    # finite: the residuals report NaN, as what overflows elsewhere does,
    # and the differentiation API refuses it, both without a numpy warning
    steep = build_ou_system(1, [1.0], [1.0], LinearForce([[2.0]]))
    X = SymmetryGenerator.exp_decay(1, -800.0, 1)
    p = point(x=[0.5], v=[0.1], t=1.5, w=[0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mf, ms = max_residuals(X, steep, sample_probes(steep))
        with pytest.raises(NonFiniteResult, match="^ito_laplacian "):
            ito_laplacian(lambda q: X.phi(q)[0], steep, p)
        with pytest.raises(NonFiniteResult, match="^ito_laplacian "):
            ito_laplacian_components(X.phi, steep, p)
    assert np.isnan(mf) and np.isnan(ms)


@pytest.mark.parametrize("R", [
    [[0.0, 0.0, 0.0, 1.0], [0.0] * 4, [0.0] * 4, [-1.0, 0.0, 0.0, 0.0]],
    [[1.0]]], ids=["4x4-skew", "1x1"])
def test_R_must_match_the_wiener_coordinates_of_the_process(R):
    # a constant n = 1 system has 2 Wiener coordinates (w1 and its ghost
    # z1); an R of any other size is refused wherever it is read against
    # the process, not cut down to fit or read out of bounds
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.5]))
    size = len(R)
    X = SymmetryGenerator(lambda p: [0.0, 0.0], 2, size, R=R)
    p = point(x=[0.5], v=[0.1], t=0.3, w=[0.2])
    match = rf"^R is {size}x{size}, the process has 2 Wiener coordinates$"
    with pytest.raises(DimensionMismatch, match=match):
        X.as_extended_field(sys1)
    with pytest.raises(DimensionMismatch, match=match):
        max_residuals(X, sys1, [p])
    with pytest.raises(DimensionMismatch, match=match):
        lie_bracket(X.as_extended_field(sys1),
                    SymmetryGenerator.translation(1, 1).as_extended_field(
                        sys1), p)


def test_rendering_of_unit_and_constant_terms():
    # a coefficient of exactly -1 prints as a bare minus sign
    assert SymmetryGenerator.linear_mode([1.0], 1.0, 1).label == \
        "exp(-t)*(d/dx1 - d/dv1)"
    assert repr(SymmetryGenerator.translation(1, 1)) == \
        "SymmetryGenerator(d/dx1)"
    # a constant term, and a record with no terms at all
    assert symmetry.render_affine(symmetry.AffineRecord(
        a_x=(1.0,), a_v=(0.0,), a_w=(0.0,), a_t=0.0, a_0=2.5)) == "x1 + 2.5"
    assert symmetry.render_affine(symmetry.AffineRecord(
        a_x=(0.0,), a_v=(0.0,), a_w=(0.0,), a_t=0.0)) == "0"
    # a candidate given as a callable renders as its label
    assert InvariantCandidate(theta=lambda p: p.x[0],
                              label="x1").render() == "x1"


def test_scaling_with_nonzero_R_is_rejected():
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.0]))
    R = np.zeros((2, 2))
    R[0, 0] = 1.0
    W = SymmetryGenerator(lambda p: [0.0, 0.0], 2, 2, R=R)
    chi = InvariantCandidate.chi(sys1, 1)
    with pytest.raises(DimensionMismatch):
        scale_by_invariant(W, chi, sys1)


def test_R_validation():
    # off-diagonal part must be skew-symmetric
    R_bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DimensionMismatch, match=(
            r"^R is not skew off its diagonal: 2\.000e\+00 at term size "
            r"2\.000e\+00 > limit 2\.000e-12$")):
        SymmetryGenerator(lambda p: [0.0, 0.0], 2, 2, R=R_bad)
    R_ok = np.array([[0.5, 1.0], [-1.0, 0.3]])
    SymmetryGenerator(lambda p: [0.0, 0.0], 2, 2, R=R_ok)


@pytest.mark.parametrize("R", [[[np.nan, 0.0], [0.0, 0.0]],
                               [[0.0, np.inf], [-np.inf, 0.0]]],
                         ids=["nan-diagonal", "inf-skew"])
def test_R_that_is_not_finite_is_refused(R):
    # nan > tol is False and inf - inf is NaN: a non-finite R used to pass
    # the skew check and give a NaN sigma-residual; it is refused up
    # front, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult, match="^R must be finite$"):
            SymmetryGenerator(lambda p: [0.0, 0.0], 2, 2, R=R)


@pytest.mark.parametrize("i", [1.5, 0, 3, -1, True, "1"])
def test_component_index_is_an_integer_in_range(i):
    # one check for the factories, chi and the scan, before any work: the
    # scan never reads its (empty) probe list
    sys2 = build_ou_system(2, [1.0, 2.0], [1.0, 1.5],
                           ConstantForce([0.1, 0.2]))
    with pytest.raises(DimensionMismatch, match="outside 1..2"):
        SymmetryGenerator.exp_decay(i, 1.0, 2)
    with pytest.raises(DimensionMismatch, match="outside 1..2"):
        SymmetryGenerator.translation(i, 2)
    with pytest.raises(DimensionMismatch, match="outside 1..2"):
        InvariantCandidate.chi(sys2, i)
    with pytest.raises(DimensionMismatch, match="outside 1..2"):
        expdecay_residual_scan(sys2, [1.0], i=i, probes=[])


def test_chi_of_any_force_is_a_candidate_the_certificate_judges():
    # chi's c is the force at the origin; the chi of a constant force,
    # whatever its class, is an invariant, and any other chi fails its
    # invariance conditions rather than being refused up front
    probes = sample_probes(build_ou_system(
        1, [1.0], [2.0], ConstantForce([0.0])), count=16, seed=4)
    const = [build_ou_system(1, [1.0], [2.0], f) for f in (
        ConstantForce([1.5]), LinearForce([[0.0]], [1.5]),
        parse_force_expression("1.5", 1))]
    records = {InvariantCandidate.chi(s, 1).affine for s in const}
    assert len(records) == 1 and records.pop().a_t == 1.5 / 2.0
    for s in const:
        assert max_invariant_residual(InvariantCandidate.chi(s, 1), s,
                                      probes) <= 1e-12
    lin = build_ou_system(1, [1.0], [2.0], LinearForce([[-2.0]], [0.7]))
    chi = InvariantCandidate.chi(lin, 1)
    assert chi.affine.a_t == 0.7 / 2.0
    # d chi = (c - F(x)) / mu dt = x dt here
    assert max_invariant_residual(chi, lin, probes) == pytest.approx(
        max(abs(p.x[0]) for p in probes), rel=1e-12)


def test_component_index_accepts_numpy_integers():
    sys2 = build_ou_system(2, [1.0, 2.0], [1.0, 1.5],
                           ConstantForce([0.1, 0.2]))
    i = np.int64(2)
    X = SymmetryGenerator.exp_decay(i, 2.0, 2)
    Y = SymmetryGenerator.translation(i, 2)
    assert (X.label, Y.label) == ("exp(-2t)*(d/dx2 - 2*d/dv2)", "d/dx2")
    assert type(X.family.i) is int and type(Y.family.i) is int
    assert InvariantCandidate.chi(sys2, i).label == "chi2"
    probes = sample_probes(sys2, count=8, seed=1)
    assert np.array_equal(
        expdecay_residual_scan(sys2, [1.0, 2.0], i=i, probes=probes),
        expdecay_residual_scan(sys2, [1.0, 2.0], i=2, probes=probes))


def test_wsym_constraint_oracles():
    B = np.diag([1.0, 2.0])
    L_swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert solve_wsym_linear_constraint(L_swap, B) == []

    basis = solve_wsym_linear_constraint(np.zeros((2, 2)), B)
    assert len(basis) == 2
    for R in basis:
        # solutions for L=0 must commute with B, i.e. stay diagonal here
        assert np.allclose(R - np.diag(np.diag(R)), 0.0, atol=1e-12)

    L_reg = np.array([[2.0, 1.0], [0.0, 3.0]])
    assert solve_wsym_linear_constraint(L_reg, np.eye(2)) == []


def test_wsym_solutions_satisfy_equation():
    B = np.diag([1.0, 1.0])
    L = np.array([[0.0, -2.0], [2.0, 0.0]])
    for R in solve_wsym_linear_constraint(L, B):
        assert np.allclose(L @ R, B @ R - R @ B, atol=1e-12)
        assert np.linalg.norm(R) == pytest.approx(1.0, rel=1e-10)


def test_affine_nullspace_dimensions():
    sysc = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    dim, basis = affine_invariant_nullspace(sysc)
    assert dim == 1
    rec = basis[0]
    # the null vector must be proportional to chi: a_w : a_v : a_x : a_t
    # as 1 : -1/mu : -beta/mu : c/mu
    scale = rec.a_w[0]
    assert rec.a_v[0] / scale == pytest.approx(-0.5, abs=1e-9)
    assert rec.a_x[0] / scale == pytest.approx(-0.5, abs=1e-9)
    assert rec.a_t / scale == pytest.approx(0.25, abs=1e-9)

    sysl = build_ou_system(1, [3.0], [1.0], LinearForce([[4.0]]))
    dim, _ = affine_invariant_nullspace(sysl)
    assert dim == 0

    sysc3 = build_ou_system(3, [1.0, 2.0, 0.5], [1.0, 3.0, 2.0],
                            ConstantForce([0.5, -1.0, 2.0]))
    dim, _ = affine_invariant_nullspace(sysc3)
    assert dim == 3


def test_wsym_constraint_rejects_non_finite_input():
    # a NaN off the diagonal of B passes the diagonality check (NaN > 0 is
    # false), so the null-space solve itself must refuse it
    B = np.diag([1.0, 2.0])
    B[0, 1] = np.nan
    with pytest.raises(NonFiniteResult):
        solve_wsym_linear_constraint(np.zeros((2, 2)), B)
    L = np.eye(2)
    L[1, 0] = np.inf
    with pytest.raises(NonFiniteResult):
        solve_wsym_linear_constraint(L, np.eye(2))


def test_affine_nullspace_rejects_overflowing_force():
    sys1 = build_ou_system(1, [1.0], [1.0],
                           parse_force_expression("exp(400*x1)", 1))
    with pytest.raises(NonFiniteResult):
        affine_invariant_nullspace(sys1)


def test_non_finite_rejections_do_not_warn():
    # the finite checks refuse these inputs before numpy warns about them
    sys1 = build_ou_system(1, [1.0], [1.0],
                           parse_force_expression("exp(400*x1)", 1))
    L = np.eye(2)
    L[1, 0] = np.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteResult):
            affine_invariant_nullspace(sys1)
        with pytest.raises(NonFiniteResult):
            solve_wsym_linear_constraint(L, np.eye(2))
    assert [str(w.message) for w in caught] == []


def test_residuals_of_an_overflowing_force_do_not_warn():
    # exp(800) overflows at x1 = 2: every residual shows it as inf or NaN,
    # and the invariant gate refuses it, without a numpy warning
    sys1 = build_ou_system(1, [1.0], [1.0],
                           parse_force_expression("exp(400*x1)", 1))
    X = SymmetryGenerator.translation(1, 1)
    p = point(x=[2.0], v=[0.5], t=0.3, w=[0.1], z=[0.0])

    def alpha(q):
        return q.v[0]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAnInvariant):
            scale_by_invariant(X, alpha, sys1)
        worst = max_invariant_residual(alpha, sys1,
                                       sample_probes(sys1, count=8, seed=1))
        conditions = invariant_residual(alpha, sys1, p)
        fres = f_residual(X, sys1, p)
        sres = sigma_residual(X, sys1, p)
        mf, ms = max_residuals(X, sys1, [p])
    assert not np.isfinite(worst) and not np.all(np.isfinite(conditions))
    assert np.isnan(mf)
    assert np.isnan(fres).all() and np.array_equal(sres, np.zeros((2, 2)))
    assert ms == 0.0


def test_null_space_rejects_inf():
    # an SVD of a matrix with an inf entry returns without error; taken at
    # face value it would give a full null space
    A = np.eye(3)
    A[1, 2] = np.inf
    with pytest.raises(NonFiniteResult):
        symmetry._null_space(A)


def test_null_space_rank_rule():
    # singular values 1, 2e-8, 5e-9 and 0: the one rank rule counts those
    # at least model._TOL = 1e-8 times the largest, so the null space has
    # dimension 2 at every scale of A; an all-zero or empty matrix has
    # rank 0
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    A = U @ np.diag([1.0, 2e-8, 5e-9, 0.0]) @ V.T
    for scale in (1e-200, 1.0, 1e200):
        assert symmetry._null_space(scale * A).shape == (4, 2)
    for Z in (np.zeros((2, 3)), np.zeros((0, 3))):
        assert symmetry._null_space(Z).shape == (3, 3)


@pytest.fixture(scope="module")
def null_space_inputs():
    """Every matrix that solve_wsym_linear_constraint and
    affine_invariant_nullspace pass to _null_space on seeded systems: the
    W-constraint matrices for n = 1..8 (generic L and B; L = 0 with
    repeated B entries; isotropic B with a rank-deficient symmetric L) and
    the column-scaled affine systems of constant and linear forces for
    n = 1..4."""
    seen = []
    solve = symmetry._null_space

    def record(A):
        seen.append(A.copy())
        return solve(A)

    rng = np.random.default_rng(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry, "_null_space", record)
        for n in range(1, 9):
            solve_wsym_linear_constraint(rng.normal(size=(n, n)),
                                         np.diag(rng.normal(size=n)))
            solve_wsym_linear_constraint(
                np.zeros((n, n)), np.diag(rng.integers(1, 3, n) * 1.0))
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            d = rng.normal(size=n)
            d[:max(1, n // 2)] = 0.0
            solve_wsym_linear_constraint(Q @ np.diag(d) @ Q.T, 1.7 * np.eye(n))
        for n in range(1, 5):
            beta, mu = rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n)
            for force in (ConstantForce(rng.uniform(-3.0, 3.0, n)),
                          LinearForce(rng.normal(size=(n, n)),
                                      rng.normal(size=n))):
                affine_invariant_nullspace(
                    build_ou_system(n, beta, mu, force))
    return seen


def test_null_space_oracles(null_space_inputs):
    dims, shapes = [], set()
    for A in null_space_inputs:
        ns = symmetry._null_space(A)
        smax = np.linalg.norm(A, 2)
        dims.append(ns.shape[1])
        shapes.add("tall" if A.shape[0] > A.shape[1] else "square")
        assert ns.shape == (A.shape[1], A.shape[1] - np.linalg.matrix_rank(
            A, tol=model._TOL * smax))
        assert np.allclose(ns.T @ ns, np.eye(ns.shape[1]), atol=1e-12)
        assert np.max(np.abs(A @ ns), initial=0.0) <= 1e-12 * smax
    # both callers (the square W-constraint matrices and the tall affine
    # systems), and both empty and non-empty null spaces, were seen
    assert shapes == {"tall", "square"}
    assert min(dims) == 0 and max(dims) > 0


def test_null_space_matches_scipy(null_space_inputs):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for A in null_space_inputs:
        assert np.array_equal(symmetry._null_space(A),
                              scipy_linalg.null_space(A, rcond=model._TOL))


def _full_svd_null_space(A):
    """The null space from numpy's full SVD, U and all, at the one rank
    rule: the oracle of the one that skips U."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[model._rank_rule(s)[0]:].T


def test_null_space_matches_the_full_svd(null_space_inputs):
    # the tall affine systems and the square n^2 W-constraint matrices, then
    # wide ones (the only shape that needs the full vh)
    rng = np.random.default_rng(8)
    wide = [rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
            for m, n, k in [(3, 7, 2), (1, 4, 1), (5, 9, 5)]]
    shapes = set()
    for A in null_space_inputs + wide:
        shapes.add("tall" if A.shape[0] > A.shape[1] else
                   "square" if A.shape[0] == A.shape[1] else "wide")
        assert np.array_equal(symmetry._null_space(A),
                              _full_svd_null_space(A))
    assert shapes == {"tall", "square", "wide"}


def _wsym_families():
    """600 W-constraint systems whose null-space dimension is known by
    construction, from default_rng(0). 300 rank-r L = s U diag(d) V^T
    (n from 2 to 6, r from 1 to n - 1, d_i in [0.1, 3] for i < r and 0
    after, s = 10^U(-3, 3)) with isotropic B = b I (b = 10^U(-2, 2)):
    L R = 0, so dimension n (n - r). 300 diagonal L and B with distinct
    b_i and one resonant entry l_i = b_i - b_j (i != j), both scaled by
    10^U(-3, 3): R_ij alone is free, so dimension 1."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = np.zeros(n)
        d[:r] = rng.uniform(0.1, 3.0, r)
        L = 10 ** rng.uniform(-3, 3) * (U @ np.diag(d) @ V.T)
        yield L, 10 ** rng.uniform(-2, 2) * np.eye(n), n * (n - r)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        b = rng.uniform(0.5, 3.0, n)
        lam = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
        i, j = rng.choice(n, 2, replace=False)
        lam[i] = b[i] - b[j]
        scale = 10 ** rng.uniform(-3, 3)
        yield scale * np.diag(lam), scale * np.diag(b), 1


def test_wsym_dimension_is_known_by_construction():
    # the one rank rule on the unscaled Kronecker columns finds every
    # dimension; eps * max(M, N) missed some of the rank-deficient L, and
    # column scaling would turn the resonant column, zero up to rounding,
    # into a unit column
    found = [(len(solve_wsym_linear_constraint(L, B)), want)
             for L, B, want in _wsym_families()]
    assert len(found) == 600
    assert [(k, got, want) for k, (got, want) in enumerate(found)
            if got != want] == []


def test_affine_nullspace_dimension_property():
    # constant forces have the n chi invariants; a linear force with a
    # regular matrix has no affine invariant
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def vec(n, lo, hi):
        return st.lists(st.floats(lo, hi), min_size=n, max_size=n)

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(data=st.data(), n=st.integers(1, 4))
    def check(data, n):
        beta, mu = data.draw(vec(n, 0.2, 3.0)), data.draw(vec(n, 0.2, 3.0))
        c = data.draw(vec(n, -3.0, 3.0))
        dim, _ = affine_invariant_nullspace(
            build_ou_system(n, beta, mu, ConstantForce(c)))
        assert dim == n
        # L = U diag(s) V^T with orthogonal U, V: smallest singular value
        # min(s) >= 0.1
        U, _ = np.linalg.qr(np.reshape(data.draw(vec(n * n, -1.0, 1.0)),
                                       (n, n)))
        V, _ = np.linalg.qr(np.reshape(data.draw(vec(n * n, -1.0, 1.0)),
                                       (n, n)))
        s = data.draw(vec(n, 0.1, 3.0))
        L = U @ np.diag(s) @ V.T
        K = data.draw(vec(n, -3.0, 3.0))
        dim, _ = affine_invariant_nullspace(
            build_ou_system(n, beta, mu, LinearForce(L, K)))
        assert dim == 0

    check()


@pytest.mark.parametrize("entries", [
    [[1.0], [np.nan]],
    [[np.nan], [1.0]],
    [0.5, np.array([2.0, np.nan, -3.0])],
    [np.array([-4.0, 1.0]), 0.0, np.float64(np.nan)],
])
def test_max_abs_propagates_nan_in_any_entry(entries):
    from ousym.symmetry import _max_abs
    assert np.isnan(_max_abs(entries))
    finite = [np.nan_to_num(np.asarray(e, dtype=float)) for e in entries]
    assert _max_abs(finite) == max(float(np.max(np.abs(e))) for e in finite)


def test_nan_invariant_residual_is_not_an_invariant(monkeypatch):
    from ousym import symmetry
    sys1 = build_ou_system(1, [1.0], [1.0], ConstantForce([0.2]))
    conditions = symmetry._invariant_conditions
    monkeypatch.setattr(symmetry, "_invariant_conditions", lambda *a: (
        conditions(*a)[0] * np.nan, conditions(*a)[1]))
    with pytest.raises(NotAnInvariant):
        scale_by_invariant(SymmetryGenerator.exp_decay(1, 1.0, 1),
                           InvariantCandidate.chi(sys1, 1), sys1)

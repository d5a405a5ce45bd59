"""Determining-equation residuals, invariants, and the W-matrix constraint."""

import numpy as np
import pytest

from ousym import (ConstantForce, DimensionMismatch, InvariantCandidate,
                   LinearForce, NotAnInvariant, SymmetryGenerator,
                   affine_invariant_nullspace, build_ou_system, f_residual,
                   gbm_process, invariant_residual, max_invariant_residual,
                   max_residuals, point, residual_report, sample_probes,
                   scale_by_invariant, sigma_residual,
                   solve_wsym_linear_constraint)
from ousym import duals


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
    gbm = gbm_process(1.0, 0.5)
    a, b = 1.0, 0.5

    def theta(p):
        return p.x[0] * duals.exp(-(a - 0.5 * b * b) * p.t - b * p.w[0])

    cand = InvariantCandidate(theta=theta, label="Theta_gbm")
    probes = sample_probes(gbm, count=30, seed=5, box=(0.2, 2.0))
    assert max_invariant_residual(cand, gbm, probes) <= 1e-10


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
    with pytest.raises(DimensionMismatch):
        SymmetryGenerator(lambda p: [0.0, 0.0], 2, 2, R=R_bad)
    R_ok = np.array([[0.5, 1.0], [-1.0, 0.3]])
    SymmetryGenerator(lambda p: [0.0, 0.0], 2, 2, R=R_ok)


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


def test_residual_report_fields():
    sys1 = build_ou_system(1, [3.0], [1.0], LinearForce([[4.0]]))
    X = SymmetryGenerator.exp_decay(1, 4.0, 1)
    p = point(x=[0.5], v=[0.1], t=0.2, w=[0.3])
    rep = residual_report(X, sys1, p)
    assert rep.max_abs <= 1e-12
    assert len(rep.f_residual) == 2
    assert len(rep.sigma_residual) == 2
    # one column per formal process (active w1 plus ghost z1)
    assert len(rep.sigma_residual[0]) == 2


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
    monkeypatch.setattr(symmetry, "max_invariant_residual",
                        lambda *_a: np.nan)
    with pytest.raises(NotAnInvariant):
        scale_by_invariant(SymmetryGenerator.exp_decay(1, 1.0, 1),
                           InvariantCandidate.chi(sys1, 1), sys1)

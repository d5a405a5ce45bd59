"""Closed-form classification of invariants and symmetry algebras."""

import dataclasses
import json
import warnings
from unittest import mock

import numpy as np
import pytest

from ousym import (CertificationFailed, ConstantForce, LinearForce,
                   NonFiniteEvaluation, NonFiniteResult, NonPositiveFriction,
                   NotDiagonalizable, UnclassifiableForce,
                   affine_invariant_nullspace, build_ou_system,
                   classify_invariants, classify_symmetries,
                   expdecay_residual_scan, extended_coords, lie_bracket,
                   max_invariant_residual, max_residuals, mode_rates,
                   parse_force_expression, point, sample_probes,
                   stack_probes, structure_constants)
from ousym import classify, duals
from ousym.calculus import _contract, _field_jet
from ousym.classify import _quick_bracket_table, default_scaling_functions
from ousym.symmetry import SymmetryGenerator


def lin1d(alpha, beta=3.0, mu=1.0):
    return build_ou_system(1, [beta], [mu], LinearForce([[alpha]]))


def _swap():
    return LinearForce([[0.0, 1.0], [1.0, 0.0]])


# the paper's case table, one system per row of classify_symmetries:
# name -> (system, case_tag, force_tag, annotation, module_rank,
# generator count, W-constraint candidate count)
CASE_TABLE = {
    "constant": (
        build_ou_system(3, [1.0, 2.0, 0.5], [1.0, 3.0, 2.0],
                        ConstantForce([0.5, -1.0, 2.0])),
        "ConstantModule", "Constant",
        "X-set spans an abelian ideal; module over the chi ring has rank 2n",
        6, 6, 0),
    "linear-1d": (
        lin1d(4.0), "LinearPair1D", "LinearRegular",
        "2n commuting generators from the eigenmodes of L", 0, 2, 0),
    "linear-iso": (
        build_ou_system(2, [3.0, 3.0], [1.0, 1.0], _swap()),
        "LinearAbelian2n", "LinearRegular",
        "2n commuting generators from the eigenmodes of L", 0, 4, 0),
    "cubic": (
        build_ou_system(1, [1.0], [1.0], parse_force_expression("x1^3", 1)),
        "NoRealSimple", "NonlinearSecondOrderRegular",
        "second-order regular nonlinear force admits no real simple "
        "symmetry (ghost scalings disregarded)", 0, 0, 0),
    "linear-degenerate": (
        build_ou_system(2, [1.0, 1.0], [1.0, 1.0],
                        LinearForce(np.diag([1.0, 0.0]))),
        "TheoryIncomplete", "LinearDegenerate",
        "degenerate linear force: closed-form theory needs a regular "
        "matrix; attached W-constraint null-space basis is uncertified",
        0, 0, 2),
    "linear-aniso": (
        build_ou_system(2, [1.0, 2.0], [1.0, 1.0], _swap()),
        "TheoryIncomplete", "LinearRegular",
        "anisotropic linear force: only the necessary W-matrix constraint "
        "is solved; candidates are not certified symmetries", 0, 0, 0),
    "nonlinear-degenerate": (
        build_ou_system(2, [1.0, 1.0], [1.0, 1.0],
                        parse_force_expression("x1^2; x1^2", 2)),
        "TheoryIncomplete", "NonlinearSecondOrderDegenerate",
        "nonlinear force with degenerate component Hessians: outside the "
        "classified cases", 0, 0, 0),
    "nonlinear-aniso": (
        build_ou_system(2, [1.0, 2.0], [1.0, 1.0],
                        parse_force_expression("x1^2 + x2^2; x1^2 + x2^2",
                                               2)),
        "TheoryIncomplete", "NonlinearSecondOrderRegular",
        "anisotropic nonlinear force: outside the classified cases",
        0, 0, 0),
}


@pytest.mark.parametrize("name", CASE_TABLE)
def test_each_row_of_the_case_table(name):
    # every verdict, with its annotation and counts, as the JSON prints it
    sys_, *row = CASE_TABLE[name]
    data = classify_symmetries(sys_).to_json()
    assert [data["case_tag"], data["force_tag"], data["annotation"],
            data["module_rank"], len(data["generators"]),
            len(data["wsym_candidates"])] == row


@pytest.mark.parametrize("name", ["constant", "linear-1d", "linear-iso"])
def test_the_certificate_refuses_every_emitted_object_moved_by_1e9(name):
    # the certificate's power on each certified row of the case table: the
    # emitted generators pass, and each exp-decay rate, mode rate and mode
    # column moved by a relative 1e-9 is refused (refusal was measured
    # from 3.2e-12 to 1e-11 relative); a column of one entry only scales
    # its mode, so columns are moved from n = 2 on
    sys_ = CASE_TABLE[name][0]
    n = sys_.n
    probes = sample_probes(sys_, count=32, seed=0)
    alg = classify_symmetries(sys_, probes=probes)
    classify._certify(list(alg.generators), sys_, probes)
    eigenmodes = classify._eigenmodes

    def moved_rates(beta, lam):
        return tuple((1.0 + 1e-9) * k for k in mode_rates(beta, lam))

    def moved_columns(L, beta):
        lams, M, rates = eigenmodes(L, beta)
        # the first entry of every column: a new direction for n >= 2
        M = M.copy()
        M[0] *= 1.0 + 1e-9
        return lams, M, rates

    if alg.case_tag == "ConstantModule":
        moved = [SymmetryGenerator.exp_decay(g.family.i,
                                             (1.0 + 1e-9) * g.family.kappa, n)
                 for g in alg.generators if hasattr(g.family, "kappa")]
        assert len(moved) == n
    else:
        patches = [("mode_rates", moved_rates)]
        if n > 1:
            patches.append(("_eigenmodes", moved_columns))
        moved = []
        for attr, patched in patches:
            with mock.patch.object(classify, attr, patched):
                gens, _ = classify._emit_linear_modes(sys_, sys_.force.L)
            assert [g.family.part for g in gens] == [
                g.family.part for g in alg.generators]
            moved += gens
        assert len(moved) == len(patches) * 2 * n
    for g in moved:
        with pytest.raises(CertificationFailed):
            classify._certify([g], sys_, probes)


def test_1d_linear_kappa_pair_matches_root_oracle():
    sys1 = CASE_TABLE["linear-1d"][0]
    alg = classify_symmetries(sys1)
    assert alg.case_tag == "LinearPair1D"
    assert len(alg.generators) == 2
    kappas = sorted(g.family.kappa.real for g in alg.generators)
    roots = sorted(np.roots([1.0, -3.0, -4.0]))
    assert kappas == pytest.approx(list(roots), abs=1e-12)
    assert kappas == pytest.approx([-1.0, 4.0], abs=1e-12)


def test_kappa_identities():
    for alpha, beta in [(4.0, 3.0), (2.0, 1.0), (-0.2, 2.0)]:
        kp, km = mode_rates(beta, alpha)
        assert kp + km == pytest.approx(beta, rel=1e-13)
        assert kp * km == pytest.approx(-alpha, rel=1e-13)


def test_complex_rates_conjugate():
    kp, km = mode_rates(1.0, -5.0)
    assert kp.imag != 0.0
    assert kp == pytest.approx(np.conj(km))
    assert (kp + km).real == pytest.approx(1.0)


def test_1d_complex_pair_certified():
    sys1 = build_ou_system(1, [1.0], [1.0], LinearForce([[-5.0]]))
    alg = classify_symmetries(sys1)
    assert alg.case_tag == "LinearPair1D"
    assert len(alg.generators) == 2
    parts = sorted(g.family.part for g in alg.generators)
    assert parts == ["im", "re"]
    probes = sample_probes(sys1, count=60, seed=2)
    for g in alg.generators:
        mf, ms = max_residuals(g, sys1, probes)
        assert max(mf, ms) <= 1e-10


def test_nd_isotropic_linear_abelian():
    sys2 = CASE_TABLE["linear-iso"][0]  # eigenvalues +-1
    alg = classify_symmetries(sys2)
    assert alg.case_tag == "LinearAbelian2n"
    assert len(alg.generators) == 4
    # rates from the eigenvalue pair {1, -1} with beta = 3
    expect = set()
    for lam in (1.0, -1.0):
        kp, km = mode_rates(3.0, lam)
        expect |= {round(kp.real, 9), round(km.real, 9)}
    got = {round(g.family.kappa.real, 9) for g in alg.generators}
    assert got == expect
    probes = sample_probes(sys2, count=40, seed=3)
    for g in alg.generators:
        assert max(max_residuals(g, sys2, probes)) <= 1e-8


def test_nd_generators_independent():
    L = np.array([[1.0, 2.0], [-2.0, 1.0]])  # complex eigenvalues
    sys2 = build_ou_system(2, [1.0, 1.0], [1.0, 1.0], LinearForce(L))
    alg = classify_symmetries(sys2)
    assert len(alg.generators) == 4
    p = point(x=[0.0, 0.0], v=[0.0, 0.0], t=0.3, w=[0.0, 0.0])
    rows = []
    for g in alg.generators:
        rows.append([float(np.asarray(c)) for c in g.phi(p)])
    assert np.linalg.matrix_rank(np.array(rows), tol=1e-8) == 4


def test_pairwise_brackets_vanish():
    sys1 = lin1d(4.0)
    alg = classify_symmetries(sys1)
    fa = alg.generators[0].as_extended_field(sys1)
    fb = alg.generators[1].as_extended_field(sys1)
    for p in sample_probes(sys1, count=20, seed=4):
        br = lie_bracket(fa, fb, p)
        assert max(float(np.max(np.abs(np.asarray(e)))) for e in br) <= 1e-10


def _searched_linear_modes(sys, L):
    """The mode emitter that searched for each complex mode's conjugate
    partner with a tolerance, kept as the oracle of _emit_linear_modes."""
    def is_real_vec(vec, tol=1e-12):
        return float(np.max(np.abs(np.imag(vec)))) <= tol * max(
            1.0, float(np.max(np.abs(vec))))

    n = sys.n
    beta = sys.beta[0]
    lams, M, _ = classify._eigenmodes(L, beta)
    modes = []
    for i in range(n):
        kp, km = mode_rates(beta, lams[i])
        col = M[:, i]
        modes.append({"kappa": kp, "col": col})
        modes.append({"kappa": km, "col": col})
    gens = []
    used = [False] * len(modes)
    for a, mode in enumerate(modes):
        if used[a]:
            continue
        used[a] = True
        kap, col = mode["kappa"], mode["col"]
        if abs(kap.imag) <= 1e-12 * max(1.0, abs(kap)) and is_real_vec(col):
            gens.append(SymmetryGenerator.linear_mode(col, kap.real, n, "re"))
            continue
        partner = None
        for b in range(a + 1, len(modes)):
            if used[b]:
                continue
            if (np.isclose(modes[b]["kappa"], np.conj(kap), atol=1e-10)
                    and np.allclose(modes[b]["col"], np.conj(col),
                                    atol=1e-10)):
                partner = b
                break
        if partner is None:
            raise NotDiagonalizable(
                "complex eigenmode without a conjugate partner")
        used[partner] = True
        gens.append(SymmetryGenerator.linear_mode(col, kap, n, "re"))
        gens.append(SymmetryGenerator.linear_mode(col, kap, n, "im"))
    eigen_data = {
        "eigenvalues": [complex(z) for z in lams],
        "kappa_pairs": [tuple(mode_rates(beta, lams[i])) for i in range(n)],
        "M": [[complex(z) for z in row] for row in M],
    }
    return gens, eigen_data


def _drawn_force_matrices(rng, n):
    """Symmetric, general real, skew minus I/2 (complex pairs), lambda I,
    and underdamped (strongly negative spectrum, rotated) force matrices."""
    A = rng.normal(size=(n, n))
    yield (A + A.T) / 2.0
    yield A
    yield (A - A.T) / 2.0 - 0.5 * np.eye(n)
    yield rng.uniform(-3.0, 3.0) * np.eye(n)
    yield -rng.uniform(1.0, 4.0) * np.eye(n) + 0.3 * (A - A.T)


@pytest.mark.parametrize("n", range(1, 7))
def test_linear_modes_match_the_partner_search(n):
    # eig's own conjugate pairing gives the labels, families and eigen data
    # of the tolerance search over modes
    rng = np.random.default_rng(100 + n)
    kinds = set()
    for _ in range(8):
        for L in _drawn_force_matrices(rng, n):
            sys_ = build_ou_system(n, [float(rng.uniform(0.3, 2.5))] * n,
                                   [1.0] * n, LinearForce(L))
            got, want = (emit(sys_, L) for emit in (
                classify._emit_linear_modes, _searched_linear_modes))
            assert [g.label for g in got[0]] == [g.label for g in want[0]]
            assert [repr(g.family) for g in got[0]] == [
                repr(g.family) for g in want[0]]
            assert repr(got[1]) == repr(want[1])
            kinds |= {"complex" if lam.imag else
                      "real rates" if kp.imag == 0 else "real, rate pair"
                      for lam, (kp, _) in zip(got[1]["eigenvalues"],
                                              got[1]["kappa_pairs"])}
    # each of the three emission rules was reached (a real L of size 1 has
    # no complex eigenvalue)
    assert kinds == {"real rates", "real, rate pair"} | (
        {"complex"} if n > 1 else set())


def test_critically_damped_raises():
    # beta^2 + 4 lambda = 0: 4 - 4 = 0 with lambda = -1, beta = 2
    sys1 = build_ou_system(1, [2.0], [1.0], LinearForce([[-1.0]]))
    with pytest.raises(NotDiagonalizable):
        classify_symmetries(sys1)


def test_defective_matrix_raises():
    L = np.array([[1.0, 1.0], [0.0, 1.0]])  # Jordan block
    sys2 = build_ou_system(2, [3.0, 3.0], [1.0, 1.0], LinearForce(L))
    with pytest.raises(NotDiagonalizable, match="witness"):
        classify_symmetries(sys2)


@pytest.mark.parametrize("beta,error", [
    (-1.0, NonPositiveFriction), (0.0, NonPositiveFriction),
    (np.nan, NonFiniteEvaluation), (np.inf, NonFiniteEvaluation),
    (-np.inf, NonFiniteEvaluation)])
def test_mode_rates_refuse_a_friction_that_is_not_finite_and_positive(
        beta, error):
    # as OUSystem does; kappa- = -lam / kappa+ needs kappa+ != 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            mode_rates(beta, 0.0)
    assert mode_rates(1.0, 0.0) == (1.0, 0.0)


def _ordinary_linear_systems():
    """An n = 1 grid (beta from 0.1 to 100, lambda = +-1e-4 to +-100) and
    300 isotropic systems drawn from default_rng(5): n from 2 to 4, beta =
    10^U(-1, 2), L = N(0, 1) * 10^U(-3, 2)."""
    for beta in np.logspace(-1, 2, 7):
        for lam in np.concatenate([np.logspace(-4, 2, 7),
                                   -np.logspace(-4, 2, 7)]):
            yield lin1d(lam, beta=beta)
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        beta = 10 ** rng.uniform(-1, 2)
        L = rng.normal(size=(n, n)) * 10 ** rng.uniform(-3, 2)
        yield build_ou_system(n, [beta] * n, [1.0] * n, LinearForce(L))


def test_ordinary_linear_systems_all_certify():
    # kappa- = -lam / kappa+ does not cancel when beta^2 >> |lam|, so no
    # true mode is refused by the relative rule; a refusal here is a defect
    count = 0
    for sys_ in _ordinary_linear_systems():
        alg = classify_symmetries(sys_)
        assert alg.case_tag == (
            "LinearPair1D" if sys_.n == 1 else "LinearAbelian2n")
        assert len(alg.generators) == 2 * sys_.n
        count += 1
    assert count == 398


def test_mode_rates_match_mpmath():
    # each rate of the systems above within 4 eps relative of the roots of
    # kappa^2 - beta kappa - lam = 0 at 30 digits
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for sys_ in _ordinary_linear_systems():
            lams, _, rates = classify._eigenmodes(sys_.force.L,
                                                   sys_.beta[0])
            beta = mpmath.mpf(sys_.beta[0])
            for lam, pair in zip(lams, rates):
                root = mpmath.sqrt(beta * beta
                                   + 4 * mpmath.mpc(lam.real, lam.imag))
                for got, want in zip(pair, ((beta + root) / 2,
                                            (beta - root) / 2)):
                    worst = max(worst, float(
                        abs(mpmath.mpc(got.real, got.imag) - want)
                        / abs(want)))
    assert worst <= 4 * np.finfo(float).eps


def test_anisotropic_linear_theory_incomplete():
    sys2 = CASE_TABLE["linear-aniso"][0]
    alg = classify_symmetries(sys2)
    assert alg.case_tag == "TheoryIncomplete"
    assert alg.generators == ()
    # the attached W-constraint null space is empty for this pair
    assert alg.wsym_candidates == ()


def test_degenerate_linear_theory_incomplete():
    sys2 = CASE_TABLE["linear-degenerate"][0]
    alg = classify_symmetries(sys2)
    assert alg.case_tag == "TheoryIncomplete"


def test_degenerate_nonlinear_theory_incomplete():
    # isotropic n = 2, both component Hessians singular at every probe
    sys2 = CASE_TABLE["nonlinear-degenerate"][0]
    alg = classify_symmetries(sys2)
    assert alg.force_tag == "NonlinearSecondOrderDegenerate"
    assert alg.case_tag == "TheoryIncomplete"
    assert alg.generators == () and alg.module_rank == 0
    assert structure_constants(alg) == []


def test_constant_module():
    sys3 = CASE_TABLE["constant"][0]
    alg = classify_symmetries(sys3)
    assert alg.case_tag == "ConstantModule"
    assert alg.module_rank == 6
    assert len(alg.generators) == 6
    kinds = [type(g.family).__name__ for g in alg.generators]
    assert kinds.count("ExpDecay") == 3
    assert kinds.count("Translation") == 3
    # X rates are the frictions
    rates = sorted(g.family.kappa for g in alg.generators
                   if type(g.family).__name__ == "ExpDecay")
    assert rates == [0.5, 1.0, 2.0]


def test_nonlinear_regular_no_real_simple():
    sys1 = CASE_TABLE["cubic"][0]
    alg = classify_symmetries(sys1)
    assert alg.case_tag == "NoRealSimple"
    assert alg.generators == ()

    f2 = parse_force_expression("(1 + norm(x)^2)*x1; (1 + norm(x)^2)*x2", 2)
    sys2 = build_ou_system(2, [1.0, 1.0], [1.0, 1.0], f2)
    alg2 = classify_symmetries(sys2)
    assert alg2.case_tag == "NoRealSimple"


def test_invariants_chi_basis():
    sys1 = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    inv = classify_invariants(sys1)
    assert inv.basis_kind == "ChiBasis"
    assert len(inv.generators) == 1
    assert inv.affine_nullspace_dim == 1


def test_invariants_empty_for_linear_regular():
    inv = classify_invariants(lin1d(4.0))
    assert inv.basis_kind == "Empty"
    assert inv.generators == ()
    assert inv.affine_nullspace_dim == 0


def test_invariants_unclassified_annotated():
    sys1 = build_ou_system(1, [1.0], [1.0],
                           parse_force_expression("x1^3", 1))
    inv = classify_invariants(sys1)
    assert inv.basis_kind == "Empty"
    assert "not classified" in inv.annotation
    assert inv.affine_nullspace_dim == 0


def _invariant_sweep():
    """216 systems and their (basis kind, affine null-space dimension): n
    from 1 to 3, beta in logspace(-2, 3, 6) and mu in logspace(-4, 6, 6),
    each with the regular linear force L = -I + 0.3 (superdiagonal), which
    has no invariant, and with the constant force c = linspace(-1, 1, n),
    which has the n chi."""
    for n in (1, 2, 3):
        L = -np.eye(n) + 0.3 * np.eye(n, k=1)
        for beta in np.logspace(-2, 3, 6):
            for mu in np.logspace(-4, 6, 6):
                for force, want in (
                        (LinearForce(L), ("Empty", 0)),
                        (ConstantForce(np.linspace(-1.0, 1.0, n)),
                         ("ChiBasis", n))):
                    yield build_ou_system(n, [beta] * n, [mu] * n,
                                          force), want


def test_invariant_verdict_agrees_with_its_null_space_at_every_scale():
    # every verdict comes with the dimension it needs, from mu = 1e-4 to
    # 1e6; with unscaled columns every linear system at mu = 1e6 gave n
    found = [(classify_invariants(s), want) for s, want in _invariant_sweep()]
    got = [(inv.basis_kind, inv.affine_nullspace_dim) for inv, _ in found]
    assert len(found) == 216
    assert [(k, g) for k, (g, (_, want)) in enumerate(zip(got, found))
            if g != want] == []


def test_invariant_verdict_that_contradicts_its_null_space_is_refused():
    # L = diag(1, 2e-8) has full rank at model._TOL, so it is LinearRegular,
    # but at beta = 100 its affine conditions have a null vector: the
    # verdict is refused, naming both numbers
    sys2 = build_ou_system(2, [100.0] * 2, [1.0] * 2,
                           LinearForce(np.diag([1.0, 2e-8])))
    with pytest.raises(CertificationFailed, match="^affine null-space "
                       "dimension 1 contradicts the LinearRegular verdict, "
                       "which needs 0$"):
        classify_invariants(sys2)


def test_unclassifiable_force_propagates():
    f = parse_force_expression("x1^3", 1)
    sys1 = build_ou_system(1, [1.0], [1.0], f)
    bad_probes = [point(x=[0.0]), point(x=[1.0])]
    with pytest.raises(UnclassifiableForce):
        classify_symmetries(sys1, probes=bad_probes)


def test_structure_constants_constant_module():
    sys1 = build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))
    alg = classify_symmetries(sys1)
    rows = structure_constants(alg)
    assert len(rows) == 48  # 4 f's x 4 g's x 3 bracket kinds
    assert max(r["max_discrepancy"] for r in rows) <= 1e-8


def test_a_constant_force_of_any_class_gets_the_constant_answers():
    # classify_force calls an expression "1.5" and a linear force with
    # L = 0 constant; the chi basis, the module and its structure table
    # follow, bit for bit those of ConstantForce([1.5])
    systems = [build_ou_system(2, [1.0, 0.5], [2.0, 1.5], f) for f in (
        ConstantForce([1.5, -0.25]),
        LinearForce(np.zeros((2, 2)), [1.5, -0.25]),
        parse_force_expression("1.5; -0.25", 2))]
    answers = [(json.dumps(classify_invariants(s).to_json()),
                json.dumps(classify_symmetries(s).to_json()),
                json.dumps(structure_constants(classify_symmetries(s))))
               for s in systems]
    assert answers[1] == answers[0] and answers[2] == answers[0]
    assert json.loads(answers[0][0])["basis_kind"] == "ChiBasis"


def test_a_nearly_constant_linear_force_fails_chi_certification():
    # L = 1e-9 is within classify_force's tolerance of zero, so the force
    # is tagged Constant; its chi drifts by 1e-9 x / mu per unit time, and
    # its exp-decay generator by 1e-9 exp(-t) per unit x, both far above
    # the relative rule's 1e-12 of their terms
    sys1 = build_ou_system(1, [1.0], [1.0], LinearForce([[1e-9]]))
    with pytest.raises(CertificationFailed, match="^generator exp"):
        classify_symmetries(sys1)
    with pytest.raises(CertificationFailed, match="chi1 failed"):
        classify_invariants(sys1)


def test_structure_constants_linear_case():
    alg = classify_symmetries(lin1d(4.0))
    rows = structure_constants(alg)
    assert len(rows) == 1
    assert rows[0]["predicted"] == "0"
    assert rows[0]["max_discrepancy"] <= 1e-10


def _counted(gens):
    """Copies of gens whose phi counts its plain and its seeded calls."""
    counts = [{"plain": 0, "seeded": 0} for _ in gens]
    out = []
    for g, count in zip(gens, counts):
        def phi(p, g=g, count=count):
            seeded = isinstance(p.t, duals.HyperDual)
            count["seeded" if seeded else "plain"] += 1
            return g.phi(p)
        out.append(SymmetryGenerator(phi, g.state_dim, g.wiener_dim, R=g.R,
                                     family=g.family, label=g.label))
    return out, counts


def test_brackets_take_one_jet_per_field():
    # isotropic n=4: each of the 2n generators is in 2n-1 pairs of the
    # bracket table, but its extended field is evaluated once
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    L = Q @ np.diag([0.6, 1.1, 1.9, 2.7]) @ Q.T
    sys4 = build_ou_system(4, [1.3] * 4, [0.8] * 4, LinearForce(L))
    alg = classify_symmetries(sys4)
    assert alg.case_tag == "LinearAbelian2n"
    gens, counts = _counted(alg.generators)
    table = _quick_bracket_table(gens, sys4, sample_probes(sys4, seed=2))
    assert len(table) == 8 * 7 // 2
    assert counts == [{"plain": 0, "seeded": 1}] * 8
    assert [dict(row)["max_abs_bracket"] for row in table] == [
        dict(row)["max_abs_bracket"] for row in alg.commutators]

    # constant n=2 module: one jet per scaled field f * X_i and f * Y_i,
    # plus one plain evaluation of each base field for the predictions
    sys2 = build_ou_system(2, [1.0, 2.0], [1.5, 0.7],
                           ConstantForce([0.3, -0.4]))
    alg = classify_symmetries(sys2)
    gens, counts = _counted(alg.generators)
    rows = structure_constants(dataclasses.replace(alg, generators=gens))
    assert rows == structure_constants(alg)
    nf = len(default_scaling_functions())
    assert counts == [{"plain": 1, "seeded": nf}] * 4


def _iso_linear(n):
    """Isotropic linear system with distinct eigenvalues of L; for n >= 2
    the lowest, -1.5 < -beta^2/4, gives a complex pair of modes."""
    rng = np.random.default_rng(40 + n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lams = [0.6] if n == 1 else np.linspace(-1.5, 2.7, n)
    return build_ou_system(n, [1.3] * n, [0.8] * n,
                           LinearForce(Q @ np.diag(lams) @ Q.T))


def _constant(n):
    rng = np.random.default_rng(50 + n)
    return build_ou_system(n, rng.uniform(0.5, 2.5, n),
                           rng.uniform(0.5, 2.0, n),
                           ConstantForce(rng.uniform(-1.0, 1.0, n)))


def _contract_one(X, Y):
    """One pair's bracket, summed coordinate by coordinate over the
    coordinates where X or Y is nonzero: the oracle of the stacked
    contraction."""
    (Xv, dX), (Yv, dY) = X, Y
    out = np.zeros(Xv.shape)
    for b in range(len(Xv)):
        if np.any(Xv[b] != 0.0) or np.any(Yv[b] != 0.0):
            out = out + Xv[b] * dY[:, b] - Yv[b] * dX[:, b]
    return out


@pytest.mark.parametrize("make, n", [(_iso_linear, n) for n in range(1, 9)]
                         + [(_constant, n) for n in range(1, 5)])
def test_bracket_table_matches_per_pair_brackets(make, n):
    # every pair contracted at once equals lie_bracket and a plain sum,
    # pair by pair, bit for bit. The modes commute exactly; the two extra
    # fields move along and depend on every x and v, so their brackets sum
    # many nonzero terms. The first has an infinite z1-partial, with z1
    # dead in every pair (no field moves along a ghost), so its brackets
    # stay finite
    sys_ = make(n)
    gens = list(classify_symmetries(sys_).generators)

    def extra(shift, pole):
        def phi(p):
            out = []
            for a in range(2 * n):
                acc = p.x[0] * duals.sqrt(p.z[0]) if pole else 0.0
                for x, v in zip(p.x, p.v):
                    acc = acc + duals.sin(x + shift * a) * v
                out.append(acc)
            return out
        return SymmetryGenerator(phi, 2 * n, 2 * n, label=f"extra{shift}")

    gens += [extra(0.1, True), extra(-0.7, False)]
    probes = sample_probes(sys_, seed=n)[:4]
    p = stack_probes(probes)
    fields = [g.as_extended_field(sys_) for g in gens]
    with np.errstate(divide="ignore", invalid="ignore"):
        table = classify._pairwise_brackets(gens, sys_, probes)
        expected = [(gens[a].label, gens[b].label, float(np.max(np.abs(
            lie_bracket(fields[a], fields[b], p)))))
            for a in range(len(gens)) for b in range(a + 1, len(gens))]
        jets = [_field_jet(F, p) for F in fields]
        oracle = [float(np.max(np.abs(_contract_one(jets[a], jets[b]))))
                  for a in range(len(gens)) for b in range(a + 1, len(gens))]
    assert len(table) == (2 * n + 2) * (2 * n + 1) // 2
    assert table == expected
    assert [worst for _, _, worst in table] == oracle


def test_contract_masks_dead_coordinates_per_pair():
    # pair (A, B) has an infinite partial along z1, where both of its
    # fields vanish; pair (C, D) moves along z1, so z1 is live in the stack
    # but dead in (A, B), whose bracket must stay finite
    p = stack_probes(sample_probes(build_ou_system(
        1, [1.0], [1.0], ConstantForce([0.0])), count=4, seed=6))
    coords = extended_coords(p)
    ix, iv, iz = (coords.index(c) for c in (("x", 0), ("v", 0), ("z", 0)))

    def field(entries):
        def F(q):
            out = [0.0] * len(coords)
            for i, make in entries.items():
                out[i] = make(q)
            return out
        return F

    A = field({ix: lambda q: q.x[0] * duals.sqrt(q.z[0]) + q.v[0]})
    B = field({iv: lambda q: q.x[0] * q.t})
    C = field({ix: lambda q: q.v[0], iz: lambda q: q.w[0]})
    D = field({iv: lambda q: q.z[0] + q.x[0] * q.x[0]})
    pairs = [(A, B), (C, D)]
    with np.errstate(divide="ignore", invalid="ignore"):
        jets = [[_field_jet(F, p) for F in pair] for pair in pairs]
        singles = [lie_bracket(X, Y, p) for X, Y in pairs]
    assert np.isinf(jets[0][0][1][ix, iz]).all()
    # the fields A, B, C, D stacked once; the pairs by index
    vals, jac = (np.stack(a) for a in zip(*(j for pair in jets for j in pair)))
    stacked = _contract(vals, jac, [0, 2], [1, 3])
    for k, (jx, jy) in enumerate(jets):
        assert stacked[k].tobytes() == _contract_one(jx, jy).tobytes()
        assert stacked[k].tobytes() == np.array(singles[k]).tobytes()
    # a live non-finite entry still raises: C moves along z1 and A's
    # z1-partial is infinite
    with pytest.raises(NonFiniteResult):
        _contract(vals, jac, [0], [2])


def test_structure_rows_match_per_pair_brackets():
    # constant n = 2, 3: every predicted relation holds, and each X X row
    # (predicted 0) is the max |lie_bracket| of its two scaled fields, bit
    # for bit
    fns = dict(default_scaling_functions())
    for n in (2, 3):
        sys_ = _constant(n)
        alg = classify_symmetries(sys_)
        probes = sample_probes(sys_, count=5, seed=3)
        rows = structure_constants(alg, probes)
        assert len(rows) == 3 * len(fns) ** 2 * n * n
        assert max(r["max_discrepancy"] for r in rows) <= 1e-8
        p = stack_probes(probes)

        def scaled(label):
            f, i = label.split("*X")
            return alg.generators[int(i) - 1].scaled(
                lambda q: fns[f]([q.chi(sys_, k) for k in range(n)]),
                f).as_extended_field(sys_)

        xx = [r for r in rows if "*Y" not in r["left"] + r["right"]]
        assert len(xx) == len(fns) ** 2 * n * n
        for r in xx:
            assert r["max_discrepancy"] == np.max(np.abs(lie_bracket(
                scaled(r["left"]), scaled(r["right"]), p)))


def test_classify_takes_one_drift_jet_per_probe_set():
    # the 8 generators of an isotropic n = 4 system share one seeded
    # evaluation of the drift
    sys4 = _iso_linear(4)
    drift, seeded = sys4.drift, []

    def counted(p):
        seeded.append(isinstance(p.x[0], duals.HyperDual))
        return drift(p)

    sys4.drift = counted
    alg = classify_symmetries(sys4)
    assert alg.case_tag == "LinearAbelian2n" and len(alg.generators) == 8
    assert seeded.count(True) == 1


def test_certificates_take_one_evaluation_per_object(monkeypatch):
    # the determining equations read one jet of phi, the invariance
    # conditions one jet of Theta; the affine solve takes one jet of all
    # the coordinate functions at once
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    L = Q @ np.diag([0.6, 1.1, 1.9, 2.7]) @ Q.T
    sys4 = build_ou_system(4, [1.3] * 4, [0.8] * 4, LinearForce(L))
    probes = sample_probes(sys4, seed=2)
    emitted = classify_symmetries(sys4).generators
    gens, counts = _counted(emitted)
    for g in gens:
        max_residuals(g, sys4, probes)
    assert counts == [{"plain": 0, "seeded": 1}] * 8
    gens, counts = _counted(emitted)
    classify._certify(gens, sys4, probes)
    assert counts == [{"plain": 0, "seeded": 1}] * 8

    sys2 = build_ou_system(2, [1.0, 2.0], [1.5, 0.7],
                           ConstantForce([0.3, -0.4]))
    for g in classify_invariants(sys2).generators:
        calls = []

        def theta(p, g=g):
            calls.append(isinstance(p.t, duals.HyperDual))
            return g(p)

        max_invariant_residual(theta, sys2, sample_probes(sys2, count=5))
        assert calls == [True]

    jets = []
    real_jet = duals.jet
    monkeypatch.setattr(duals, "jet",
                        lambda *a: jets.append(1) or real_jet(*a))
    for sys_ in (lin1d(4.0), sys4):
        jets.clear()
        affine_invariant_nullspace(sys_)
        assert len(jets) == 1


def _scaled(sys_, lam, a):
    """sys_ seen on the time scale t / lam and the space scale a x: the SDE
    maps to itself with (beta, mu, c, L, K) -> (lam beta, lam^(3/2) a mu,
    lam^2 a c, lam^2 L, lam^2 a K), and its rates are lam times sys_'s."""
    f = sys_.force
    force = (ConstantForce(lam ** 2 * a * np.asarray(f.c))
             if isinstance(f, ConstantForce) else
             LinearForce(lam ** 2 * np.asarray(f.L),
                         lam ** 2 * a * np.asarray(f.K)))
    return build_ou_system(sys_.n, [lam * b for b in sys_.beta],
                           [lam ** 1.5 * a * m for m in sys_.mu], force)


def _rates(alg):
    """The rates of the emitted generators (translations have none), in
    one order for the algebra of any scale."""
    rates = [complex(g.family.kappa) for g in alg.generators
             if hasattr(g.family, "kappa")]
    return np.array(sorted(rates, key=lambda z: (z.real, z.imag)))


def test_emitted_modes_certify_and_moved_rates_fail():
    # criterion 2 as a metamorphic property over scalings (_scaled): a
    # constant system and an affine regular isotropic linear one away from
    # critical damping, with time scaled by lam in [0.1, 10] and space by
    # a in [1e-3, 1e3] (the four corners and one drawn scale), keep their
    # case, generator count and invariant basis, their rates scale by lam,
    # and every certificate passes; the same generators with their rates
    # moved by 1e-9 relative each fail
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.seed(27)
    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(data=st.data(), n=st.integers(1, 4),
                      lam=st.floats(-1.0, 1.0), a=st.floats(-3.0, 3.0))
    def check(data, n, lam, a):
        unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
        iso, L = _draw_iso_linear(data, st, n)
        constant = build_ou_system(
            n, data.draw(st.lists(st.floats(0.5, 2.5), min_size=n,
                                  max_size=n)),
            data.draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n)),
            ConstantForce(data.draw(unit)))
        affine = build_ou_system(n, iso.beta, iso.mu,
                                 LinearForce(L, data.draw(unit)))
        for base in (constant, affine):
            alg0, inv0 = classify_symmetries(base), classify_invariants(base)
            for scale in ((0.1, 1e-3), (0.1, 1e3), (10.0, 1e-3), (10.0, 1e3),
                          (10.0 ** lam, 10.0 ** a)):
                _check_scaled(base, alg0, inv0, *scale)

    check()


def _check_scaled(base, alg0, inv0, lam, a):
    """The scaled system's algebra and invariants against base's (alg0,
    inv0), and its generators with their rates moved by 1e-9 relative."""
    sys_ = _scaled(base, lam, a)
    n = sys_.n
    probes = sample_probes(sys_, count=32, seed=0)
    alg = classify_symmetries(sys_, probes=probes)
    assert alg.case_tag == alg0.case_tag
    assert len(alg.generators) == len(alg0.generators) == 2 * n
    np.testing.assert_allclose(_rates(alg), lam * _rates(alg0), rtol=1e-9)
    inv = classify_invariants(sys_, probes=probes)
    assert (inv.basis_kind, len(inv.generators)) == (
        inv0.basis_kind, len(inv0.generators))

    def moved_rates(b, lam):
        return tuple((1.0 + 1e-9) * k for k in mode_rates(b, lam))

    if alg.case_tag == "ConstantModule":
        moved = [SymmetryGenerator.exp_decay(i, (1.0 + 1e-9) * b, n)
                 for i, b in enumerate(sys_.beta, 1)]
    else:
        with mock.patch.object(classify, "mode_rates", moved_rates):
            moved, _ = classify._emit_linear_modes(sys_, sys_.force.L)
        assert [g.family.part for g in moved] == [
            g.family.part for g in alg.generators]
    for g in moved:
        with pytest.raises(CertificationFailed):
            classify._certify([g], sys_, probes)


def test_structure_constants_flag_a_mismatched_system():
    # negative control: the predictions use the system's beta/mu, the
    # generators were built for another one, so some relation must fail
    sys2 = build_ou_system(2, [1.0, 2.0], [1.5, 0.7],
                           ConstantForce([0.3, -0.4]))
    alg = classify_symmetries(sys2)
    assert max(r["max_discrepancy"] for r in structure_constants(alg)) <= 1e-8
    other = build_ou_system(2, [1.6, 0.9], [0.8, 1.2],
                            ConstantForce([0.3, -0.4]))
    rows = structure_constants(dataclasses.replace(alg, system=other))
    assert max(r["max_discrepancy"] for r in rows) > 1e-3


def test_residual_scan_dips_at_true_rate():
    sys1 = lin1d(4.0)
    kappas = np.arange(3.5, 4.5, 0.001)
    vals = expdecay_residual_scan(sys1, kappas, i=1)
    k_best = kappas[int(np.argmin(vals))]
    assert k_best == pytest.approx(4.0, abs=2e-3)
    assert vals.min() <= 1e-8
    assert vals.max() >= 1e-2


def test_residual_scan_floor_for_cubic():
    sys1 = build_ou_system(1, [1.0], [1.0],
                           parse_force_expression("x1^3", 1))
    kappas = np.arange(-10.0, 10.0001, 0.01)  # coarse smoke version
    vals = expdecay_residual_scan(sys1, kappas, i=1)
    assert vals.min() >= 1e-2


SCAN_SYSTEMS = pytest.mark.parametrize("sys_", [
    build_ou_system(2, [0.7, 1.9], [1.0, 1.5], ConstantForce([0.3, -0.4])),
    lin1d(4.0),
    build_ou_system(2, [1.2, 1.2], [0.8, 0.8],
                    LinearForce([[-2.0, 1.5], [-0.5, 1.0]], [0.3, 0.0])),
    build_ou_system(1, [1.0], [1.0], parse_force_expression("x1^3", 1)),
    build_ou_system(2, [1.0, 2.5], [1.0, 0.5], parse_force_expression(
        "x1*x2 + sin(x2) - 4*x2; 6*x1 + x1^3 - 2*x2^2", 2)),
], ids=["constant-n2", "linear-n1", "linear-n2", "cubic-n1", "coupled-n2"])


@SCAN_SYSTEMS
def test_scan_closed_form_matches_the_determining_equations(sys_):
    # oracle: each rate's scan value against max_residuals of the generator
    # itself, within 1e-12 times the largest term size of the closed form
    probes = sample_probes(sys_, count=16, seed=4)
    xs = [np.array([p.x[j] for p in probes]) for j in range(sys_.n)]
    ts = np.array([p.t for p in probes])
    jac = sys_.force.jacobian(xs)
    kappas = np.concatenate([np.linspace(-6.0, 6.0, 61), [4.0, -1.0]])
    for i in range(1, sys_.n + 1):
        beta = sys_.beta[i - 1]
        vals = expdecay_residual_scan(sys_, kappas, i=i, probes=probes)
        assert vals.shape == kappas.shape
        for k, val in zip(kappas, vals):
            expected = max(max_residuals(
                SymmetryGenerator.exp_decay(i, float(k), sys_.n), sys_,
                probes))
            size = np.max(np.exp(-k * ts) * (
                k * k + abs(beta * k) + np.abs(jac[:, i - 1]).max(axis=0)))
            assert abs(val - expected) <= 1e-12 * size, (i, k)


def test_scan_minimum_is_rechecked_on_the_determining_equations(
        monkeypatch):
    sys1 = lin1d(4.0)
    kappas = np.linspace(3.0, 5.0, 201)
    expdecay_residual_scan(sys1, kappas)
    # the generic path disagreeing at the minimum is a failed certificate
    blocks = classify._residual_blocks
    monkeypatch.setattr(classify, "_residual_blocks", lambda *a: (
        blocks(*a)[0] + 1e-3, *blocks(*a)[1:]))
    with pytest.raises(CertificationFailed, match="kappa=4.0"):
        expdecay_residual_scan(sys1, kappas)


def test_scan_of_an_empty_rate_list_is_empty():
    sys1 = lin1d(4.0)
    assert expdecay_residual_scan(sys1, []).shape == (0,)
    assert expdecay_residual_scan(sys1, [[3.0, 4.0]]).shape == (2,)


def test_scan_of_a_steep_force_is_finite_without_warnings():
    sys1 = build_ou_system(1, [1.0], [1.0],
                           parse_force_expression("exp(400*x1)", 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = expdecay_residual_scan(sys1, np.linspace(-10.0, 10.0, 201))
        # exp(-kappa t) overflows at kappa = -400, t near 2
        steep = expdecay_residual_scan(sys1, [-400.0, 1.0])
        # with every rate overflowing there is nothing to re-check
        only = expdecay_residual_scan(sys1, [-400.0])
    assert np.all(np.isfinite(vals)) and vals.min() >= 1e-2
    assert steep[0] == np.inf and np.isfinite(steep[1])
    assert only.tolist() == [np.inf]


def test_a_nan_score_does_not_hide_the_recheck(monkeypatch):
    # a NaN rate, and an infinite or huge one (inf - inf, 0 * inf), score
    # NaN; the smallest score that is not NaN is still re-checked, without
    # a numpy warning, and a grid with no NaN score keeps its bits
    sys1 = build_ou_system(1, [1.0], [1.0],
                           parse_force_expression("-x1^3 + x1", 1))
    rechecked = []
    blocks = classify._residual_blocks

    def spy(X, *args):
        rechecked.append(X.family.kappa)
        return blocks(X, *args)

    monkeypatch.setattr(classify, "_residual_blocks", spy)
    clean = expdecay_residual_scan(sys1, [0.5, 1.0])
    assert clean.tolist() == [4.821966095631581, 2.9630928932021123]
    assert rechecked == [1.0]
    for rate in (np.nan, np.inf, 1e200):
        rechecked.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = expdecay_residual_scan(sys1, [0.5, 1.0, rate])
        assert rechecked == [1.0], rate
        assert scores[:2].tobytes() == clean.tobytes() and np.isnan(scores[2])


def test_no_real_simple_symmetry_for_regular_cubic_forces():
    # the negative result as a property: a regular cubic force (a radial
    # cubic plus the cube of each coordinate, one sign) on an isotropic
    # system has no
    # real simple symmetry, and no exp-decay rate in [-10, 10] comes close;
    # a regular linear 1D force does have its two rates, and the scan finds
    # them
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kappas = np.linspace(-10.0, 10.0, 2001)

    @hypothesis.settings(max_examples=15, deadline=None)
    @hypothesis.given(n=st.integers(1, 3), beta=st.floats(0.5, 2.5),
                      mu=st.floats(0.3, 2.0), a=st.floats(-2.0, 2.0),
                      s=st.floats(0.5, 2.0), c=st.floats(0.5, 2.0),
                      sign=st.sampled_from([-1.0, 1.0]))
    def cubic(n, beta, mu, a, s, c, sign):
        r2 = " + ".join(f"x{j + 1}^2" for j in range(n))
        force = parse_force_expression("; ".join(
            f"{sign!r}*({s!r}*x{i + 1}*({a!r} + {r2}) + {c!r}*x{i + 1}^3)"
            for i in range(n)), n)
        sys_ = build_ou_system(n, [beta] * n, [mu] * n, force)
        alg = classify_symmetries(sys_)
        assert (alg.case_tag, alg.generators) == ("NoRealSimple", ())
        for i in range(1, n + 1):
            assert expdecay_residual_scan(sys_, kappas, i=i).min() >= 1e-2

    @hypothesis.settings(max_examples=15, deadline=None)
    @hypothesis.given(beta=st.floats(0.5, 2.5), data=st.data())
    def linear(beta, data):
        lam = data.draw(st.floats(-3.0, 3.0).filter(
            lambda lam: abs(lam) >= 0.3 and beta ** 2 + 4 * lam >= 1.0))
        sys1 = lin1d(lam, beta=beta)
        rates = [k.real for k in mode_rates(beta, lam)]
        assert expdecay_residual_scan(sys1, rates).max() <= 1e-8

    cubic()
    linear()


def test_algebra_json_serializable():
    for sys_ in [lin1d(4.0),
                 build_ou_system(1, [1.0], [1.0], LinearForce([[-5.0]])),
                 build_ou_system(1, [1.0], [2.0], ConstantForce([0.5]))]:
        alg = classify_symmetries(sys_)
        payload = alg.to_json()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["case_tag"] == alg.case_tag
        assert len(back["generators"]) == len(alg.generators)
        inv = classify_invariants(sys_)
        json.dumps(inv.to_json(), sort_keys=True)


def test_nan_residual_fails_certification(monkeypatch):
    from ousym import CertificationFailed, classify
    sys1 = lin1d(-4.0)
    blocks = classify._residual_blocks
    # a NaN entry in either block, after or before finite ones, fails
    for at in (0, 1):
        def nan_at(*a, at=at):
            out = list(blocks(*a))
            out[at] = np.where(np.arange(out[at].size).reshape(
                out[at].shape) == out[at].size - 1, np.nan, out[at])
            return tuple(out)

        monkeypatch.setattr(classify, "_residual_blocks", nan_at)
        with pytest.raises(CertificationFailed, match="nan at term size"):
            classify_symmetries(sys1)
    conditions = classify._invariant_conditions
    monkeypatch.setattr(classify, "_invariant_conditions", lambda *a: (
        conditions(*a)[0] * np.nan, conditions(*a)[1]))
    with pytest.raises(CertificationFailed):
        classify_invariants(
            build_ou_system(1, [1.0], [2.0], ConstantForce([0.5])))


def _draw_iso_linear(data, st, n):
    """A regular isotropic linear n-dim system away from critical damping,
    drawn from hypothesis data, and its force matrix."""
    beta = data.draw(st.floats(0.5, 2.5))
    mu = data.draw(st.floats(0.3, 2.0))
    # |lambda| >= 0.3, |beta^2 + 4 lambda| >= 1, eigenvalues 0.1 apart
    lams = []
    for _ in range(n):
        lams.append(data.draw(st.floats(-3.0, 3.0).filter(
            lambda lam: abs(lam) >= 0.3 and abs(beta ** 2 + 4 * lam) >= 1
            and all(abs(lam - m) >= 0.1 for m in lams))))
    Q, _ = np.linalg.qr(np.reshape(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                           max_size=n * n)), (n, n)))
    L = Q @ np.diag(lams) @ Q.T
    return build_ou_system(n, [beta] * n, [mu] * n, LinearForce(L)), L


def test_relabelling_coordinates_keeps_the_algebra():
    # metamorphic: L -> P L P^T on a regular isotropic linear system keeps
    # the case, the module rank and the multiset of rates
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def rates(alg):
        # a conjugate pair of rates is emitted through either member
        return sorted((k.real, abs(k.imag)) for k in (
            complex(g.family.kappa) for g in alg.generators))

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(data=st.data(), n=st.integers(2, 4))
    def check(data, n):
        sys_, L = _draw_iso_linear(data, st, n)
        P = np.eye(n)[data.draw(st.permutations(range(n)))]
        moved = build_ou_system(n, sys_.beta, sys_.mu,
                                LinearForce(P @ L @ P.T))
        a, b = classify_symmetries(sys_), classify_symmetries(moved)
        assert (b.case_tag, b.module_rank) == (a.case_tag, a.module_rank)
        assert len(b.generators) == len(a.generators) == 2 * n
        np.testing.assert_allclose(rates(b), rates(a), rtol=1e-9,
                                   atol=1e-12)

    check()


def test_verdict_does_not_depend_on_probe_order():
    # the probe list read backwards gives the same case, generators and
    # module rank; the commutator table reads only the first 4 probes, so
    # it may differ
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(data=st.data(), n=st.integers(1, 3),
                      kind=st.sampled_from(["constant", "linear", "cubic"]),
                      seed=st.integers(0, 2 ** 16))
    def check(data, n, kind, seed):
        if kind == "linear":
            sys_, _ = _draw_iso_linear(data, st, n)
        else:
            coef = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n,
                                      max_size=n))
            force = ConstantForce(coef) if kind == "constant" else (
                parse_force_expression("; ".join(
                    f"{c!r}*x{i + 1}^3" for i, c in enumerate(coef)), n))
            sys_ = build_ou_system(
                n, data.draw(st.lists(st.floats(0.5, 2.5), min_size=n,
                                      max_size=n)),
                data.draw(st.lists(st.floats(0.3, 2.0), min_size=n,
                                   max_size=n)), force)
        probes = sample_probes(sys_, count=32, seed=seed)
        a = classify_symmetries(sys_, probes=probes)
        b = classify_symmetries(sys_, probes=probes[::-1])
        assert (b.case_tag, b.module_rank) == (a.case_tag, a.module_rank)
        assert [g.label for g in b.generators] == [
            g.label for g in a.generators]

    check()

"""System construction, force fields, and probe-based force classification."""

import numpy as np
import pytest

from ousym import (ConstantForce, DimensionMismatch, EmptyProbeSet,
                   ExpressionForce, HyperDual, LinearForce,
                   NonFiniteEvaluation, NonPositiveFriction, OUSystem,
                   UnclassifiableForce, ZeroNoise, build_ou_system,
                   classify_force, default_x_probes, parse_force_expression,
                   system_from_json, system_to_json)


def test_build_validations():
    with pytest.raises(DimensionMismatch):
        build_ou_system(2, [1.0], [1.0, 1.0], ConstantForce([0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        build_ou_system(1, [1.0], [1.0], ConstantForce([0.0, 0.0]))
    with pytest.raises(NonPositiveFriction):
        build_ou_system(1, [0.0], [1.0], ConstantForce([0.0]))
    with pytest.raises(NonPositiveFriction):
        build_ou_system(1, [-2.0], [1.0], ConstantForce([0.0]))
    with pytest.raises(ZeroNoise):
        build_ou_system(1, [1.0], [0.0], ConstantForce([0.0]))


@pytest.mark.parametrize("beta, mu", [
    ([np.nan], [1.0]), ([np.inf], [1.0]), ([-np.inf], [1.0]),
    ([1.0], [np.nan]), ([1.0], [np.inf]), ([1.0], [-np.inf]),
    ([10 ** 400], [1.0]), ([1.0], [-10 ** 400])],
    ids=["beta-nan", "beta-inf", "beta-minus-inf", "mu-nan", "mu-inf",
         "mu-minus-inf", "beta-huge-int", "mu-minus-huge-int"])
def test_build_rejects_non_finite_friction_and_noise(beta, mu):
    # NaN fails both `b <= 0` and `m == 0`, so it needs its own check, and
    # -inf friction is non-finite before it is non-positive; an integer too
    # large for a float is infinite
    with pytest.raises(NonFiniteEvaluation, match="must be finite"):
        build_ou_system(1, beta, mu, ConstantForce([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 10 ** 400,
                                 -10 ** 400],
                         ids=["nan", "inf", "minus-inf", "huge-int",
                              "minus-huge-int"])
def test_constant_and_linear_forces_reject_non_finite_entries(bad):
    # NaN slips past any check built from ordering comparisons; an integer
    # too large for a float is read as an infinite entry
    with pytest.raises(NonFiniteEvaluation, match="must be finite"):
        ConstantForce([0.5, bad])
    with pytest.raises(NonFiniteEvaluation, match="must be finite"):
        LinearForce([[1.0, 0.0], [bad, 2.0]])
    with pytest.raises(NonFiniteEvaluation, match="must be finite"):
        LinearForce([[1.0, 0.0], [0.0, 2.0]], [0.0, bad])
    with pytest.raises(NonFiniteEvaluation, match="must be finite"):
        system_from_json({"n": 1, "beta": [1.0], "mu": [1.0],
                          "force": {"type": "constant", "c": [bad]}})


def test_reprs_show_the_parameters():
    sys1 = build_ou_system(1, [1.5], [0.5], ConstantForce([0.2]))
    assert repr(sys1) == ("OUSystem(n=1, beta=[1.5], mu=[0.5], "
                          "force=ConstantForce(c=[0.2]), isotropic=True)")
    assert repr(LinearForce([[1.0]], [0.5])) == \
        "LinearForce(L=[[1.0]], K=[0.5])"
    parsed = parse_force_expression("x1^2; sin(x2)", 2)
    assert repr(parsed) == "ExpressionForce(n=2, 'x1^2; sin(x2)')"
    # without its source text a force renders its trees
    assert repr(ExpressionForce(2, parsed.trees)) == \
        "ExpressionForce(n=2, 'x1^2.0; sin(x2)')"


def test_isotropy_flag():
    iso = build_ou_system(2, [1.0, 1.0], [2.0, 2.0],
                          ConstantForce([0.0, 0.0]))
    assert iso.isotropic
    aniso = build_ou_system(2, [1.0, 2.0], [2.0, 2.0],
                            ConstantForce([0.0, 0.0]))
    assert not aniso.isotropic


def test_sigma_layout():
    sys = build_ou_system(2, [1.0, 1.0], [3.0, 5.0],
                          ConstantForce([0.0, 0.0]))
    sig = sys.sigma()
    # state rows (x1, x2, v1, v2) by formal processes (w1, w2, z1, z2):
    # x rows vanish, mu_i sits at (v_i, w_i), ghost columns vanish
    assert sig.shape == (4, 4)
    expected = np.zeros((4, 4))
    expected[2, 0] = 3.0
    expected[3, 1] = 5.0
    assert np.array_equal(sig, expected)


def test_drift_layout():
    sys = build_ou_system(1, [2.0], [1.0], LinearForce([[4.0]]))
    from ousym import point
    p = point(x=[0.5], v=[-1.0])
    dr = sys.drift(p)
    assert dr[0] == -1.0                    # dx = v dt
    assert dr[1] == 4.0 * 0.5 - 2.0 * -1.0  # dv = (F - beta v) dt


def test_linear_force_jacobian_exact():
    L = np.array([[1.0, 2.0], [0.0, -3.0]])
    f = LinearForce(L, [0.5, 0.0])
    jac = f.jacobian([0.3, 0.7])
    assert np.array_equal(jac, L)
    hess = f.hessians([0.3, 0.7])
    assert all(np.array_equal(h, np.zeros((2, 2))) for h in hess)


def test_expression_force_matches_linear_pointwise():
    f = parse_force_expression("4*x1 + 3", 1)
    lin = LinearForce([[4.0]], [3.0])
    for x in default_x_probes(1):
        assert f.evaluate(list(x))[0] == pytest.approx(
            lin.evaluate(list(x))[0], rel=1e-13)
    jac = f.jacobian([0.7])
    assert jac[0][0] == pytest.approx(4.0, abs=1e-13)


def test_classify_constant():
    fc = classify_force(ConstantForce([1.0, -2.0]))
    assert fc.tag == "Constant"


def test_classify_linear_regular_recovers_matrix():
    fc = classify_force(LinearForce([[4.0]]))
    assert fc.tag == "LinearRegular"
    assert fc.L.shape == (1, 1)
    assert fc.L[0, 0] == pytest.approx(4.0)

    fc2 = classify_force(parse_force_expression("4*x1", 1))
    assert fc2.tag == "LinearRegular"
    assert fc2.L[0, 0] == pytest.approx(4.0, abs=1e-9)


def test_classify_linear_degenerate():
    fc = classify_force(LinearForce([[1.0, 0.0], [0.0, 0.0]]))
    assert fc.tag == "LinearDegenerate"
    assert fc.rank == 1


@pytest.mark.parametrize("diag", [
    pytest.param((s, s * r), id=f"s{s:g}-r{r:g}")
    for s in (1e-3, 0.5, 1e3) for r in (5e-9, 1.8e-8, 1e-6)]
    + [pytest.param((1.0, 0.0), id="one-zero")])
def test_rank_agrees_with_the_tag(diag):
    # one SVD decides both: the smallest relative singular value is below
    # 1e-8 exactly when one singular value is not counted in the rank
    fc = classify_force(LinearForce(np.diag(diag)))
    regular = diag[1] / diag[0] > 1e-8
    assert fc.tag == ("LinearRegular" if regular else "LinearDegenerate")
    assert fc.rank == (2 if regular else 1)


def test_classify_cubic_second_order_regular():
    fc = classify_force(parse_force_expression("x1^3", 1))
    assert fc.tag == "NonlinearSecondOrderRegular"


def test_classify_isotropic_family_second_order_regular():
    f = parse_force_expression("(1 + norm(x)^2)*x1; (1 + norm(x)^2)*x2", 2)
    fc = classify_force(f)
    assert fc.tag == "NonlinearSecondOrderRegular"


@pytest.mark.parametrize("source,n", [
    ("x1*(1 + x1^2 + x2^2 + x3^2); x2*(1 + x1^2 + x2^2 + x3^2); "
     "x3*(1 + x1^2 + x2^2 + x3^2)", 3),
    ("-0.9*x1^3 + 1.1*sin(x2); exp(x1)*x2 - sqrt(abs(x2) + 1)", 2),
    ("x1^2 / (1 + x1^2)", 1)], ids=["radial-n3", "mixed-n2", "ratio-n1"])
def test_jacobian_seeds_first_order_only(source, n, monkeypatch):
    from ousym import duals
    f = parse_force_expression(source, n)
    cols = [c for c in np.random.default_rng(5).uniform(-2.0, 2.0, (n, 7))]
    point = [float(c[0]) for c in cols]
    second = []
    jet = duals.jet

    def recording(fn, values, e1, e2=None):
        second.append(e2 is not None)
        return jet(fn, values, e1, e2)

    monkeypatch.setattr(duals, "jet", recording)
    for x in (point, cols):
        # the same bits as the Jacobian of the full pass, signed zeros too
        J, full = f.jacobian(x), f._derivatives(x)[1]
        assert J.shape == full.shape == (n, n) + np.shape(x[0])
        assert J.tobytes() == full.tobytes()
    # jacobian seeds e1 alone; the full pass seeds e2 as well
    assert second == [False, True, False, True]


def test_classify_nonlinear_degenerate_hessian():
    # the second component is linear, so its Hessian is singular everywhere
    # and the force cannot be second-order regular
    f = parse_force_expression("x1^3; x2", 2)
    fc = classify_force(f)
    assert fc.tag == "NonlinearSecondOrderDegenerate"


def test_classify_probe_disagreement():
    # each way the probes can disagree, at two probes that split it
    for text, n, probes, why in [
            # x1^3 has zero jacobian and zero hessian exactly at the origin
            ("x1^3", 1, [(0.0,), (1.0,)], "Jacobian vanishes at some"),
            # piecewise linear: zero Hessians, slope -1 then 1
            ("abs(x1)", 1, [(-1.0,), (1.0,)], "probe-dependent Jacobian"),
            # linear at the origin to second order, cubic beyond
            ("x1^3 + x1", 1, [(0.0,), (1.0,)], "Hessians vanish at some"),
            # the first component's Hessian [[2 x2, 2 x1], [2 x1, 0]] is
            # singular at x1 = 0 only
            ("x1^2*x2; x1*x2", 2, [(0.0, 1.0), (1.0, 1.0)],
             "regularity differs")]:
        f = parse_force_expression(text, n)
        with pytest.raises(UnclassifiableForce, match=why):
            classify_force(f, probes=probes)


@pytest.mark.parametrize("probes, error", [
    ([], EmptyProbeSet), ([(0.5, 1.0)], DimensionMismatch),
    ([(0.5,), (np.nan,)], NonFiniteEvaluation)],
    ids=["empty", "wrong-length", "nan"])
def test_classify_force_checks_its_probes_before_evaluating(probes, error):
    f = parse_force_expression("x1^3", 1)
    f.evaluate = None  # any evaluation would raise TypeError
    with pytest.raises(error):
        classify_force(f, probes=probes)


def test_classify_force_names_the_probe_with_a_non_finite_value():
    f = parse_force_expression("1/x1", 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteEvaluation) as exc:
            classify_force(f, probes=[(0.5,), (0.0,), (-0.5,)])
    assert str(exc.value) == "force non-finite at probe (0.0,)"


def test_classify_force_reports_the_first_probe_that_fails():
    # at x1 = 0 the value -1 is finite but the derivatives of sqrt are not;
    # at x1 = 1 the value itself is infinite. Whichever probe comes first
    # names the error, as a loop over the probes in order would.
    f = parse_force_expression("sqrt(x1) + 1/(x1 - 1)", 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteEvaluation) as early:
            classify_force(f, probes=[(0.5,), (0.0,), (1.0,)])
        with pytest.raises(NonFiniteEvaluation) as late:
            classify_force(f, probes=[(0.5,), (1.0,), (0.0,)])
    assert str(early.value) == "force derivatives non-finite at (0.0,)"
    assert str(late.value) == "force non-finite at probe (1.0,)"


def test_classification_order_independent():
    probes = default_x_probes(1)
    f = parse_force_expression("x1^3", 1)
    a = classify_force(f, probes=probes)
    b = classify_force(f, probes=list(reversed(probes)))
    assert a.tag == b.tag


def test_classify_force_evaluates_the_force_once():
    # values, Jacobians and Hessians at every probe come from one seeded
    # evaluation of the force
    for text, n in (("x1^3 - 2*x1", 1),
                    ("x1*x2 + x3; sin(x2) + x3^2; x1^2*x3 - x2", 3)):
        force = parse_force_expression(text, n)
        calls = []
        force.evaluate = lambda x, calls=calls, plain=force.evaluate: (
            calls.append(isinstance(x[0], HyperDual)) or plain(x))
        classify_force(force)
        assert calls == [True]


def test_hessians_symmetric():
    f = parse_force_expression("x1^2*x2 + sin(x1*x2); exp(x1)*x2^2", 2)
    for h in [np.asarray(m) for m in f.hessians([0.4, -0.9])]:
        assert np.allclose(h, h.T, atol=1e-12)
    # at stacked probes the mirrored triangle makes them exactly symmetric
    cols = [np.array([0.4, 1.7, 0.7]), np.array([-0.9, -1.8, 1.8])]
    for h in f.hessians(cols):
        assert h.shape == (2, 2, 3)
        assert np.array_equal(h, np.swapaxes(h, 0, 1))


def test_json_round_trip():
    sys = build_ou_system(2, [1.0, 2.0], [3.0, 4.0],
                          LinearForce([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.0]))
    data = system_to_json(sys)
    again = system_from_json(data)
    assert again.n == 2
    assert list(again.beta) == [1.0, 2.0]
    assert list(again.mu) == [3.0, 4.0]
    assert np.array_equal(np.asarray(again.force.L), np.asarray(sys.force.L))

    expr = {"n": 1, "beta": [1.0], "mu": [1.0],
            "force": {"type": "expr", "components": "x1^3"}}
    sys2 = system_from_json(expr)
    assert isinstance(sys2.force, ExpressionForce)
    assert sys2.force.evaluate([2.0])[0] == pytest.approx(8.0)
    data2 = system_to_json(sys2)
    assert system_from_json(data2).force.evaluate([2.0])[0] == \
        pytest.approx(8.0)

    sys3 = build_ou_system(2, [1.5, 0.5], [2.0, 1.0],
                           ConstantForce([0.25, -3.0]))
    data3 = system_to_json(sys3)
    assert data3["force"] == {"type": "constant", "c": [0.25, -3.0]}
    assert system_to_json(system_from_json(data3)) == data3


def test_custom_process_fixtures():
    from ousym import (GBMConvergenceProblem, KozlovConvergenceProblem,
                       point)
    gbm = GBMConvergenceProblem(1.0, 0.5).sys
    p = point(x=[2.0])
    assert gbm.drift(p)[0] == pytest.approx(2.0)
    assert gbm.sigma(p)[0][0] == pytest.approx(1.0)
    koz = KozlovConvergenceProblem().sys
    p = point(x=[0.0])
    assert koz.drift(p)[0] == pytest.approx(1.0 - 0.5)
    assert koz.sigma(p)[0][0] == pytest.approx(1.0)

"""Negative controls: every benchmark check fails on a deliberately wrong
output and passes on the right one. Also checks that the generator only
emits systems of the class they claim.

    python3 -m pytest perfbench/tests -q
"""

import io
import json

import numpy as np
import pytest

import checks
import gen
import ousym
import workloads

SEEDS = (0, 1, 2)


def ok(found):
    return all(c.ok for c in found)


def write_system(tmp_path, data):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    return str(path)


def verify_cli(tmp_path, case, spec):
    res = workloads.run_cli(["verify", "--system",
                             write_system(tmp_path, case["system"]),
                             "--generator", spec, "--seed",
                             str(case["probe_seed"])])
    assert res.code == 0, res.err
    return json.loads(res.out)


def test_perturbed_rate_fails_verify(tmp_path):
    case = gen.generate("certify", 0)["cases"]["iso1"]
    kappa = float(case["verify"].split("kappa=")[1])
    assert ok(checks.verify_payload(
        verify_cli(tmp_path, case, case["verify"]), True))
    bad = verify_cli(tmp_path, case, f"expdecay:i=1,kappa={kappa + 1e-2!r}")
    assert not ok(checks.verify_payload(bad, True))


def test_rejection_check_fails_on_a_true_symmetry():
    assert not ok(checks.verify_payload({"max_residual": 1e-14}, False))
    assert ok(checks.verify_payload({"max_residual": 0.5}, False))


def test_wrong_case_tag_and_generator_count_fail():
    case = gen.generate("certify", 0)["cases"]["iso4"]
    good = {"case_tag": "LinearAbelian2n", "generators": [{}] * 8}
    assert ok(checks.classify_payload(good, case))
    assert not ok(checks.classify_payload(
        dict(good, case_tag="TheoryIncomplete"), case))
    assert not ok(checks.classify_payload(dict(good, generators=[{}] * 7),
                                          case))


def test_wrong_nullspace_dimension_fails():
    case = gen.generate("certify", 0)["cases"]["const3"]
    good = {"basis_kind": "ChiBasis", "generators": [{}] * 3,
            "affine_nullspace_dim": 3}
    assert ok(checks.invariants_payload(good, case))
    assert not ok(checks.invariants_payload(
        dict(good, affine_nullspace_dim=0), case))
    assert not ok(checks.invariants_payload(dict(good, basis_kind="Empty"),
                                            case))


def test_structure_and_scan_floors():
    assert ok(checks.structure_rows([{"max_discrepancy": 1e-14}]))
    assert not ok(checks.structure_rows([{"max_discrepancy": 1e-6}]))
    assert not ok(checks.structure_rows([]))
    assert ok(checks.scan_minimum(np.full(5, 0.5), 5))
    assert not ok(checks.scan_minimum(np.array([0.5, 1e-3]), 2))
    assert not ok(checks.scan_minimum(np.full(4, 0.5), 5))


def test_convergence_bands():
    assert ok(checks.convergence(200, 200, 1.0, checks.OU_ORDER, 5, 5))
    assert not ok(checks.convergence(199, 200, 1.0, checks.OU_ORDER))
    assert not ok(checks.convergence(200, 200, 0.5, checks.OU_ORDER))
    assert not ok(checks.convergence(200, 200, 1.0, checks.KOZLOV_ORDER))
    assert not ok(checks.convergence(200, 200, 1.0, checks.OU_ORDER, 4, 5))


def exact_path():
    sys_ = ousym.build_ou_system(2, [1.0, 2.0], [0.5, 1.5],
                                 ousym.ConstantForce([0.3, -0.2]))
    grid = ousym.sample_wiener(2, 0.0, 1.0, 50, seed=3)
    return ousym.exact_solve_constant(sys_, [0.1, 0.2, -0.1, 0.0], grid)


def test_truncated_csv_fails_roundtrip():
    path = exact_path()
    buf = io.StringIO()
    ousym.write_path_csv(path, buf)
    text = buf.getvalue()
    _, labels, times, states = ousym.read_path_csv(io.StringIO(text))
    assert ok(checks.csv_roundtrip(labels, times, states, path))
    cut = text[:text.rstrip("\n").rfind("\n") + 1]
    _, labels, times, states = ousym.read_path_csv(io.StringIO(cut))
    assert not ok(checks.csv_roundtrip(labels, times, states, path))


def test_perturbed_state_fails_chi_telescoping():
    data = {"n": 1, "beta": [1.5], "mu": [0.7],
            "force": {"type": "constant", "c": [0.4]}}
    sys_ = ousym.system_from_json(data)
    grid = ousym.sample_wiener(1, 0.0, 1.0, 1000, seed=4)
    path = ousym.euler_maruyama(sys_, [0.2, -0.1], grid)
    w = grid.cumulative()
    assert ok(checks.chi_telescoping(path.times, path.states, w, data))
    states = path.states.copy()
    states[500, 1] += 1e-9
    assert not ok(checks.chi_telescoping(path.times, states, w, data))
    assert not ok(checks.chi_telescoping(path.times, states[:-1], w, data))


def test_imag_leakage_limit():
    assert ok(checks.imag_leakage({"max_imag_leakage": "1e-15"}))
    assert not ok(checks.imag_leakage({"max_imag_leakage": "1e-8"}))
    assert not ok(checks.imag_leakage({}))


def test_ensemble_checks_catch_a_dropped_mu():
    rng = np.random.default_rng(0)
    beta, mu = 1.2, 2.5
    right = rng.normal(0.0, mu / np.sqrt(2 * beta), 10000)
    assert ok(checks.ensemble_variance(right, beta, mu))
    assert not ok(checks.ensemble_variance(right / mu, beta, mu))
    rows = rng.normal(size=(3, 2))
    assert ok(checks.ensemble_paths(rows, rows.copy()))
    assert not ok(checks.ensemble_paths(rows / mu, rows))


def test_expression_oracle_and_exit_code():
    oracle = np.ones((10, 2))
    assert ok(checks.expr_oracle(oracle.copy(), oracle))
    assert not ok(checks.expr_oracle(oracle + 1e-6, oracle))
    assert not ok(checks.expr_oracle(oracle[:-1], oracle))
    assert ok(checks.exit_code(0))
    assert not ok(checks.exit_code(1, "error: bad"))


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_systems_are_of_their_class(seed):
    cert = gen.generate("certify", seed)["cases"]
    for name, case in cert.items():
        sys_ = ousym.system_from_json(case["system"])
        s = case["system"]
        tag = ousym.classify_force(sys_.force).tag
        if case["kind"] == "linear":
            assert tag == "LinearRegular", name
            assert sys_.isotropic, name
            lam = np.linalg.eigvals(np.array(s["force"]["L"]))
            beta = s["beta"][0]
            assert np.min(np.abs(lam)) >= 0.5 - 1e-9, name
            assert np.min(np.abs(lam + beta * beta / 4)) >= 0.2, name
            assert (np.max(np.abs(lam.imag)) > 0) == (name == "iso2"), name
        elif case["kind"] == "constant":
            assert tag == "Constant", name
            assert len(set(s["beta"])) == s["n"] == len(set(s["mu"])), name
        else:
            assert tag == "NonlinearSecondOrderRegular", name
            assert s["n"] == 1 or sys_.isotropic, name
    conv = gen.generate("converge", seed)["cases"]
    for name, case in conv.items():
        s = case["system"]
        if s["force"]["type"] == "linear":
            lam = np.linalg.eigvals(np.array(s["force"]["L"]))
            beta = s["beta"][0]
            assert np.min(np.abs(lam)) >= 0.5 - 1e-9, name
            assert np.min(np.abs(lam + beta * beta / 4)) >= 0.2 - 1e-9, name
            rates_complex = np.min(beta * beta + 4 * lam.real) < 0
            assert rates_complex == (name == "underdamped1") or name == "iso2"
    ens = gen.generate("paths", seed)["ensemble"]
    assert ens["system"]["mu"][0] >= 2.0

"""End-to-end checks of the command-line entry point via main()."""

import contextlib
import io
import json
import math
import re
import time
import warnings

import pytest

from ousym import cli
from ousym.cli import main, parse_generator_spec
from ousym.model import system_from_json


def write_system(tmp_path, name, payload):
    dest = tmp_path / name
    dest.write_text(json.dumps(payload))
    return str(dest)


@pytest.fixture
def linear_system(tmp_path):
    return write_system(tmp_path, "lin.json", {
        "n": 1, "beta": [3.0], "mu": [1.0],
        "force": {"type": "linear", "L": [[4.0]]}})


@pytest.fixture
def cubic_system(tmp_path):
    return write_system(tmp_path, "cube.json", {
        "n": 1, "beta": [1.0], "mu": [1.0],
        "force": {"type": "expr", "components": "x1 + x1^3"}})


@pytest.fixture
def constant_system(tmp_path):
    return write_system(tmp_path, "const.json", {
        "n": 1, "beta": [1.0], "mu": [2.0],
        "force": {"type": "constant", "c": [0.5]}})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_linear_json(linear_system, capsys):
    code, out, err = run(capsys, "classify", "--system", linear_system)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["case_tag"] == "LinearPair1D"
    # complex values serialize as [re, im]
    assert all(g["family"]["kappa"][1] == 0.0 for g in payload["generators"])
    rates = sorted(g["family"]["kappa"][0] for g in payload["generators"])
    assert rates == pytest.approx([-1.0, 4.0])
    # reaching exit 0 means every generator passed certification


def test_classify_cubic_no_simple_symmetries(cubic_system, capsys):
    code, out, err = run(capsys, "classify", "--system", cubic_system)
    assert code == 0
    payload = json.loads(out)
    assert payload["case_tag"] == "NoRealSimple"
    assert payload["generators"] == []


def test_invariants_constant_chi_basis(constant_system, capsys):
    code, out, _ = run(capsys, "invariants", "--system", constant_system)
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_kind"] == "ChiBasis"
    assert len(payload["generators"]) == 1
    assert payload["generators"][0]["label"] == "chi1"
    assert payload["affine_nullspace_dim"] == 1


def test_verify_shorthand_true_rate(linear_system, capsys):
    code, out, _ = run(capsys, "verify", "--system", linear_system,
                       "--generator", "expdecay:i=1,kappa=4")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] <= 1e-10


def test_verify_perturbed_rate_fails_loudly(linear_system, capsys):
    code, out, _ = run(capsys, "verify", "--system", linear_system,
                       "--generator", "expdecay:i=1,kappa=4.01")
    assert code == 0
    assert json.loads(out)["max_residual"] >= 1e-3


def test_verify_max_residual_keeps_nan(linear_system, capsys, monkeypatch):
    # a NaN sigma-residual after a finite f-residual must reach max_residual
    monkeypatch.setattr(cli, "max_residuals",
                        lambda *_a: (0.0, float("nan")))
    code, out, _ = run(capsys, "verify", "--system", linear_system,
                       "--generator", "expdecay:i=1,kappa=4")
    assert code == 0
    assert math.isnan(json.loads(out)["max_residual"])


def test_verify_without_probes_is_a_validation_error(linear_system, capsys):
    code, out, err = run(capsys, "verify", "--system", linear_system,
                         "--generator", "expdecay:i=1,kappa=4",
                         "--probes", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_verify_json_spec_matches_shorthand(linear_system, capsys):
    spec = json.dumps({"family": "expdecay", "i": 1, "kappa": 4.0})
    code_a, out_a, _ = run(capsys, "verify", "--system", linear_system,
                           "--generator", spec)
    code_b, out_b, _ = run(capsys, "verify", "--system", linear_system,
                           "--generator", "expdecay:i=1,kappa=4.0")
    assert code_a == code_b == 0
    assert json.loads(out_a)["max_residual"] == \
        json.loads(out_b)["max_residual"]


@pytest.mark.parametrize("spec, shorthand", [
    ({"family": "translation", "i": 1}, "translation:i=1"),
    ({"family": "modulescaled", "f": "sin(chi1)",
      "base": {"family": "expdecay", "i": 1, "kappa": 1.0}},
     "modulescaled:base=expdecay,i=1,kappa=1.0,f=sin(chi1)")],
    ids=["translation", "modulescaled"])
def test_verify_json_spec_prints_what_its_shorthand_prints(
        constant_system, capsys, spec, shorthand):
    code_a, out_a, err_a = run(capsys, "verify", "--system", constant_system,
                               "--generator", json.dumps(spec))
    code_b, out_b, err_b = run(capsys, "verify", "--system", constant_system,
                               "--generator", shorthand)
    assert code_a == code_b == 0 and err_a == err_b == ""
    assert out_a == out_b
    assert json.loads(out_a)["max_residual"] <= 1e-6


def test_verify_scaled_generator(constant_system, capsys):
    code, out, _ = run(
        capsys, "verify", "--system", constant_system, "--generator",
        "modulescaled:base=expdecay,i=1,kappa=1.0,f=sin(chi1)")
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-6


def test_parse_generator_spec_rejects_unknown_family():
    sys1 = system_from_json({"n": 1, "beta": [1.0], "mu": [1.0],
                             "force": {"type": "constant", "c": [0.0]}})
    with pytest.raises(Exception):
        parse_generator_spec("rotation:i=1", sys1)


def test_simulate_writes_csv(constant_system, tmp_path, capsys):
    dest = tmp_path / "path.csv"
    code, out, _ = run(capsys, "simulate", "--system", constant_system,
                       "--x0", "0.3,-0.2", "--steps", "50",
                       "--seed", "9", "--out", str(dest))
    assert code == 0
    lines = dest.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any(ln == "# seed=9" for ln in meta)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "t,x1,v1"
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 51


def test_simulate_stdout_when_no_out(constant_system, capsys):
    code, out, _ = run(capsys, "simulate", "--system", constant_system,
                       "--steps", "5")
    assert code == 0
    assert "t,x1,v1" in out


@pytest.mark.parametrize("x0", ["1,,0", "1,0,", " , 1, 0"],
                         ids=["inner", "trailing", "leading"])
@pytest.mark.parametrize("command", ["simulate", "solve", "converge"])
def test_a_blank_x0_cell_exits_one(constant_system, capsys, command, x0):
    # a blank cell is refused, not dropped: dropped, each of these would
    # run from (1, 0) on this n = 1 system
    code, out, err = run(capsys, command, "--system", constant_system,
                         "--x0", x0)
    assert code == 1 and out == ""
    assert err.startswith("error: ValueError: could not convert string")


def test_solve_picks_exact_scheme(constant_system, linear_system, tmp_path,
                                  capsys):
    for sys_path, scheme in ((constant_system, "exact-rectified"),
                             (linear_system, "exact-eigenmodes")):
        dest = tmp_path / "solved.csv"
        code, _, _ = run(capsys, "solve", "--system", sys_path,
                         "--steps", "20", "--out", str(dest))
        assert code == 0
        assert f"# scheme={scheme}" in dest.read_text()


def test_solve_rejects_a_non_finite_force(tmp_path, capsys):
    # an integer too large for a float is refused as inf is
    for force in ({"type": "constant", "c": [float("nan")]},
                  {"type": "linear", "L": [[float("inf")]]},
                  {"type": "linear", "L": [[10 ** 400]]},
                  {"type": "linear", "L": [[1.0]], "K": [-10 ** 400]}):
        system = write_system(tmp_path, "bad.json", {
            "n": 1, "beta": [1.0], "mu": [1.0], "force": force})
        code, out, err = run(capsys, "solve", "--system", system,
                             "--steps", "5")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must be finite" in err


@pytest.mark.parametrize("force,beta", [
    # 1e300 squared overflows a Python float
    ({"type": "constant", "c": [1e300]}, 1e300),
    # exp(beta t) overflows to inf in numpy
    ({"type": "constant", "c": [1.0]}, 1e150),
    # rates of +-1e150 make the eigenmode path NaN
    ({"type": "linear", "L": [[1e300]]}, 1.0),
    # a finite path that passes the blow-up guard near t = 0.01
    ({"type": "constant", "c": [1e14]}, 1.0),
], ids=["python-overflow", "numpy-overflow", "nan", "beyond-guard"])
@pytest.mark.parametrize("argv", [["solve", "--steps", "5"],
                                  ["converge", "--paths", "4", "--ladder",
                                   "1"]], ids=["solve", "converge"])
def test_exact_solution_out_of_range_exits_one(tmp_path, capsys, force,
                                               beta, argv):
    system = write_system(tmp_path, "huge.json", {
        "n": 1, "beta": [beta], "mu": [1.0], "force": force})
    with warnings.catch_warnings():
        # a numpy warning would surface as an internal error
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--system", system)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Warning" not in err


UNDERFLOW = {"n": 1, "beta": [1e-300], "mu": [1.0],
             "force": {"type": "constant", "c": [2.5]}}


@pytest.mark.parametrize("payload,argv", [
    # c / beta^2 with beta^2 = 0.0 in Python floats
    (UNDERFLOW, ["solve", "--steps", "5"]),
    (UNDERFLOW, ["converge", "--paths", "4", "--ladder", "1"]),
    # beta / mu = inf in chi, inf * 0 in the Ito jet
    ({"n": 1, "beta": [1e300], "mu": [1e-300],
      "force": {"type": "constant", "c": [1.0]}}, ["invariants"]),
    # exp(-kappa t) overflows in the certificate of an eigenmode
    ({"n": 1, "beta": [1e-300], "mu": [1.0],
      "force": {"type": "linear", "L": [[1e300]], "K": [0.0]}},
     ["classify"]),
], ids=["solve-underflow", "converge-underflow", "invariants-inf-chi",
        "classify-overflowing-mode"])
def test_out_of_range_parameters_exit_one_without_warnings(
        tmp_path, capsys, payload, argv):
    system = write_system(tmp_path, "edge.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--system", system)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Warning" not in err


def test_a_mode_that_overflows_at_the_probes_fails_certification_by_name(
        tmp_path, capsys):
    # exp(445.7 t) overflows at the probes, so the mode's Ito Laplacian is
    # not finite: the certificate fails, naming the generator, with a NaN
    # entry, as any other failed determining equation does; the decaying
    # mode before it, whose sizes underflow to ~4e-313, passes by the
    # rule's floor at the smallest normal float
    system = write_system(tmp_path, "steep.json", {
        "n": 1, "beta": [3.0], "mu": [1.0],
        "force": {"type": "linear", "L": [[200000.0]]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "classify", "--system", system)
    assert code == 1 and out == ""
    assert err == (
        "error: generator exp(445.7161111t)*(d/dx1 + 445.7161111*d/dv1) "
        "failed the determining equations: nan at term size nan > limit "
        "nan\n")


HUGE_LINEAR = {"n": 1, "beta": [1.0], "mu": [1.0],
               "force": {"type": "linear", "L": [[1e308]]}}
STEEP_LINEAR = {"n": 1, "beta": [1.0], "mu": [1.0],
                "force": {"type": "linear", "L": [[2.0]]}}
CONSTANT = {"n": 1, "beta": [1.0], "mu": [1.0],
            "force": {"type": "constant", "c": [0.5]}}
# generator specs whose residuals overflow on a fitting system
OVERFLOWING_SPECS = [
    "expdecay:i=1,kappa=-800",
    "modulescaled:base=expdecay,i=1,kappa=1,f=exp(1000*chi1)"]


@pytest.mark.parametrize("payload,argv,expected", [
    (HUGE_LINEAR, ["classify"], 1),
    (HUGE_LINEAR, ["invariants"], 1),
    # the documented NaN payload, also where the Laplacian is not finite
    (HUGE_LINEAR, ["verify", "--generator", "expdecay:i=1,kappa=1"], 0),
    (STEEP_LINEAR, ["verify", "--generator", OVERFLOWING_SPECS[0]], 0),
    (CONSTANT, ["verify", "--generator", OVERFLOWING_SPECS[1]], 0),
], ids=["classify-1e308", "invariants-1e308", "verify-1e308",
        "verify-steep-rate", "verify-overflowing-scale"])
def test_overflow_puts_no_warning_on_stderr(tmp_path, capsys, payload, argv,
                                            expected):
    system = write_system(tmp_path, "edge.json", payload)
    with warnings.catch_warnings():
        # a numpy warning raised here would end the command with exit 2
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--system", system)
    assert code == expected and "Warning" not in err
    if expected == 0:
        assert math.isnan(json.loads(out)["max_residual"])
    else:
        assert out == "" and err.startswith("error: ")


def _malformed(path, value):
    """CONSTANT with the field at path (a key sequence) set to value."""
    payload = json.loads(json.dumps(CONSTANT))
    *head, last = path
    target = payload
    for key in head:
        target = target[key]
    target[last] = value
    return payload


_EXPR = {"type": "expr", "components": "x1"}


@pytest.mark.parametrize("payload", [
    _malformed(["beta"], 1.0),
    _malformed(["beta"], [None]),
    _malformed(["beta"], [[1.0]]),
    _malformed(["mu"], None),
    _malformed(["force", "c"], 5),
    _malformed(["force", "c"], [None]),
    _malformed(["force", "c"], [[1.0]]),
    _malformed(["force"], dict(_EXPR, components=5)),
    _malformed(["force"], dict(_EXPR, components=[5])),
    _malformed(["force"], dict(_EXPR, components=None)),
    # True is a bool, not a count
    _malformed(["n"], True),
    # a string is not a list of numbers, nor is a list of strings
    _malformed(["beta"], "1"),
    _malformed(["mu"], "1"),
    _malformed(["force", "c"], "0"),
    _malformed(["beta"], ["1.0"]),
    {"n": 2, "beta": "12", "mu": "11", "force": {"type": "constant",
                                                  "c": "00"}},
    # integers too large for a float raised OverflowError (exit 2)
    _malformed(["beta"], [10 ** 400]),
    _malformed(["force"], {"type": "linear", "L": [[10 ** 400]]}),
], ids=["beta-number", "beta-null-entry", "beta-nested", "mu-null",
        "c-number", "c-null-entry", "c-nested", "components-number",
        "components-number-entry", "components-null", "n-true",
        "beta-string", "mu-string", "c-string", "beta-string-entry",
        "all-strings", "beta-huge-int", "L-huge-int"])
def test_malformed_system_files_exit_one(tmp_path, capsys, payload):
    system = write_system(tmp_path, "bad.json", payload)
    code, out, err = run(capsys, "classify", "--system", system)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "TypeError" not in err
    assert "OverflowError" not in err


@pytest.mark.parametrize("force", [
    {"type": "expr", "components": ["1.5"]},
    {"type": "linear", "L": [[0.0]], "K": [1.5]}], ids=["expr", "linear"])
def test_invariants_follow_the_force_class_not_its_type(tmp_path, capsys,
                                                        force):
    # a force classify calls constant gets the chi basis, with c = F(0);
    # the output is byte for byte that of the constant force
    outputs = []
    for f in (force, {"type": "constant", "c": [1.5]}):
        system = write_system(tmp_path, "sys.json", {
            "n": 1, "beta": [1.0], "mu": [2.0], "force": f})
        code, out, err = run(capsys, "invariants", "--system", system)
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["basis_kind"] == "ChiBasis"
    assert payload["generators"][0]["a_t"] == 1.5 / 2.0


def test_solve_and_converge_refuse_an_expression_force_alike(cubic_system,
                                                             capsys):
    # the exact solver is chosen in one place, which names no function the
    # user did not call and says nothing true of one command only
    errors = []
    for command in ("solve", "converge"):
        code, out, err = run(capsys, command, "--system", cubic_system,
                             "--x0", "0.1,0")
        assert code == 1 and out == ""
        errors.append(err)
    assert errors == ["error: no exact solver for this force class\n"] * 2


@pytest.mark.parametrize("command, expected", [
    ("classify", "generator d/dx1 failed the determining equations: "
                 "1.776e-15 at term size 1.776e-15 > limit 1.776e-27"),
    ("invariants", "chi1 failed invariance certification: nan at term "
                   "size nan > limit nan")],
    ids=["classify-1", "invariants-1"])
def test_a_force_undefined_at_the_origin_exits_cleanly(tmp_path, capsys,
                                                       command, expected):
    # x1/x1 is the constant 1 at every probe and 0/0 at the origin, where
    # chi reads c: the chi then fails certification by name, its NaN
    # Laplacian counted as a failed condition, with no warning. The
    # translation's only nonzero term is the roundoff of d(x1/x1)/dx1, so
    # its residual is all of its size and it fails too
    system = write_system(tmp_path, "odd.json", {
        "n": 1, "beta": [1.0], "mu": [1.0],
        "force": {"type": "expr", "components": ["x1/x1"]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--system", system)
    assert code == 1 and "Warning" not in err
    assert out == "" and err == f"error: {expected}\n"


def _one_d(force, beta=3.0, mu=1.0):
    return {"n": 1, "beta": [beta], "mu": [mu], "force": force}


def _linear_1d(L):
    return _one_d({"type": "linear", "L": [[L]]})


def _expr_1d(source):
    return _one_d({"type": "expr", "components": [source]})


ISO2_ROTATION = {"n": 2, "beta": [1.0, 1.0], "mu": [1.0, 1.0],
                 "force": {"type": "linear",
                           "L": [[-1.0, 2.0], [-2.0, -1.0]]}}


@pytest.mark.parametrize("payload, argv, expected", [
    *[(_linear_1d(110.0), ["classify", "--seed", str(seed)], 0)
      for seed in range(10)],
    *[(_linear_1d(L), ["classify"], 0) for L in (200.0, 1000.0, 1e4)],
    (_expr_1d("x1 + 1e-9*x1^2"), ["classify"], "generator "),
    (_expr_1d("x1 + 1e-9*x1^3"), ["classify"], "generator "),
    (_linear_1d(1e-9), ["classify"], "generator "),
    (_linear_1d(1e-9), ["invariants"], "chi1 "),
    (_expr_1d("1e6*(sin(x1)^2 + cos(x1)^2)"), ["classify"], 0),
    (_expr_1d("1e6*(sin(x1)^2 + cos(x1)^2)"), ["invariants"], 0),
    (_one_d({"type": "constant", "c": [0.3]}, mu=49.0), ["invariants"], 0),
    (_one_d({"type": "constant", "c": [0.3]}, mu=0.1), ["invariants"], 0),
    (ISO2_ROTATION, ["solve", "--x0", "1e8,-1e8,0,0"], 0),
], ids=[*[f"L110-seed{seed}" for seed in range(10)], "L200", "L1000",
        "L1e4", "quadratic-1e-9", "cubic-1e-9", "L1e-9-classify",
        "L1e-9-invariants", "trig-classify", "trig-invariants",
        "constant-mu49", "constant-mu0.1", "iso2-x0-1e8"])
def test_verdicts_follow_the_relative_rule(tmp_path, capsys, payload, argv,
                                           expected):
    # one relative rule decides every certificate: a true symmetry or
    # invariant passes at any scale and probe seed, and an object off by
    # 1e-9 of its terms fails, by name (expected is the start of the
    # error after "error: "). classify and invariants agree on the two
    # forces tagged constant. At mu = 49, D_1 chi is 1.1e-16 where its
    # terms are 1 and -49/49, so a dw condition is sized by all of its
    # terms; the rotation's exact path leaks 7.5e-9 from states of 1.7e8
    system = write_system(tmp_path, "system.json", payload)
    code, out, err = run(capsys, argv[0], "--system", system, *argv[1:])
    if expected == 0:
        assert (code, err) == (0, "")
    else:
        assert code == 1 and out == ""
        assert err.startswith(f"error: {expected}"), err


def test_verify_scales_by_the_chi_of_a_linear_force(tmp_path, capsys):
    # the chi of a non-constant force is a candidate: verify prints its
    # residuals, which certification would refuse
    system = write_system(tmp_path, "lin.json", {
        "n": 1, "beta": [1.0], "mu": [1.0],
        "force": {"type": "linear", "L": [[-2.0]]}})
    code, out, err = run(capsys, "verify", "--system", system, "--generator",
                         "modulescaled:base=expdecay,i=1,kappa=1,f=chi1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["generator"] == "chi1*[exp(-t)*(d/dx1 - 1*d/dv1)]"
    assert 1e-6 < payload["max_residual"] < math.inf


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", str(10 ** 30)],
    ["simulate", "--path-index", str(10 ** 30)],
    ["simulate", "--seed", str(2 ** 64)],
    ["converge", "--seed", str(2 ** 64), "--paths", "2", "--ladder", "1"]],
    ids=["simulate-seed", "simulate-path-index", "simulate-seed-2-64",
         "converge-seed"])
def test_keys_beyond_64_bits_exit_one(tmp_path, capsys, argv):
    # seed and path index are the two 64-bit words of the Philox key
    system = write_system(tmp_path, "const.json", CONSTANT)
    code, out, err = run(capsys, *argv, "--steps" if argv[0] == "simulate"
                         else "--base-steps", "4", "--system", system)
    assert code == 1 and out == ""
    assert "must be an int in [0, 2**64)" in err


@pytest.mark.parametrize("spec", [
    # the base recursed until RecursionError
    "modulescaled:base=modulescaled,i=1,kappa=1,f=chi1",
    json.dumps({"family": "modulescaled",
                "base": {"family": "modulescaled", "i": 1}, "f": "chi1"}),
    # a JSON base that is not an object raised TypeError
    json.dumps({"family": "modulescaled", "base": 3, "f": "chi1"}),
], ids=["shorthand-scaled-base", "json-scaled-base", "json-number-base"])
def test_bad_modulescaled_bases_exit_one(tmp_path, capsys, spec):
    system = write_system(tmp_path, "const.json", CONSTANT)
    code, out, err = run(capsys, "verify", "--system", system,
                         "--generator", spec)
    assert code == 1 and out == ""
    assert err.startswith("error: modulescaled"), err


# values a system file may hold: non-finite, zero, negative, extreme
EDGE_VALUES = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 0.5,
               1.0, 2.0, 1e300, -1e300, 1e-300, -1e-300]
EDGE_EXPRESSIONS = ["x1^3 + x1", "1/x1", "exp(400*x1)", "sqrt(x1)",
                    "log(x1)", "-x1^3", "0"]
# small step and path counts; every command a system file can drive
EDGE_COMMANDS = [
    ["classify", "--probes", "4"],
    ["invariants", "--probes", "4"],
    ["verify", "--probes", "4", "--generator", "expdecay:i=1,kappa=2"],
    ["verify", "--probes", "4", "--generator", "translation:i=1"],
    ["simulate", "--steps", "5"],
    ["solve", "--steps", "5"],
    ["converge", "--paths", "3", "--ladder", "2", "--base-steps", "2",
     "--refine", "2"],
    *(["verify", "--probes", "4", "--generator", spec]
      for spec in OVERFLOWING_SPECS),
]
# the count options, by the commands that take them; a drawn value
# overrides the command's own (argparse keeps the last)
COUNT_OPTIONS = {"--steps": ("simulate", "solve"),
                 "--paths": ("converge",), "--ladder": ("converge",),
                 "--probes": ("classify", "invariants", "verify")}
BAD_COUNTS = ["0", "-1", "-7", "abc", "1.5", ""]
_NON_FINITE_TOKEN = re.compile(r"(?<![A-Za-z])(nan|inf|infinity)(?![A-Za-z])",
                               re.IGNORECASE)


def test_every_system_file_gives_finite_output_or_exits_one(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def number(valid):
        # three draws in four from values the field accepts, extremes
        # included, so that systems often build; the rest from all of them
        return st.one_of(*[st.sampled_from(valid)] * 3,
                         st.sampled_from(EDGE_VALUES))

    @st.composite
    def vector(draw, n, valid):
        # one vector in eight has a mismatched length
        size = n if draw(st.integers(0, 7)) else draw(st.integers(0, 3))
        return draw(st.lists(number(valid), min_size=size, max_size=size))

    entries = [0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, 1e308, -1e308]

    @st.composite
    def system_file(draw):
        n = draw(st.integers(1, 2))
        kind = draw(st.sampled_from(["constant", "linear", "expr"]))
        if kind == "constant":
            force = {"type": "constant", "c": draw(vector(n, entries))}
        elif kind == "linear":
            force = {"type": "linear",
                     "L": [draw(vector(n, entries)) for _ in range(n)],
                     "K": draw(vector(n, entries))}
        else:
            force = {"type": "expr", "components": [
                draw(st.sampled_from(EDGE_EXPRESSIONS)).replace(
                    "x1", f"x{i + 1}") for i in range(n)]}
        payload = {"n": n,
                   "beta": draw(vector(n, [0.5, 2.0, 1e300, 1e-300])),
                   "mu": draw(vector(n, [1.0, -1.0, 1e300, 1e-300])),
                   "force": force}
        # one file in four has a field of a malformed shape: a number where
        # a list goes, null, a nested list, or numbers for the expressions
        if draw(st.integers(0, 3)) == 3:
            field = draw(st.sampled_from(["beta", "mu", "force"]))
            shape = draw(st.sampled_from([1.0, None, [[1.0]] * n, [5] * n]))
            if field == "force":
                force[{"constant": "c", "linear": "K",
                       "expr": "components"}[kind]] = shape
            else:
                payload[field] = shape
        return payload

    # no count at all, or one bad count for the commands that take it
    counts = st.one_of(st.none(), st.tuples(st.sampled_from(
        sorted(COUNT_OPTIONS)), st.sampled_from(BAD_COUNTS)))
    system = tmp_path / "edge.json"

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(payload=system_file(), count=counts)
    def check(payload, count):
        # json writes NaN and Infinity tokens, which json.load reads back
        system.write_text(json.dumps(payload))
        for argv in EDGE_COMMANDS:
            if count is not None and argv[0] in COUNT_OPTIONS[count[0]]:
                argv = [*argv, *count]
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([*argv, "--system", str(system)])
            assert code in (0, 1), (argv, err.getvalue())
            # a ResourceWarning may come from collecting another test's file
            shown = [str(w.message) for w in caught
                     if not issubclass(w.category, ResourceWarning)]
            assert not shown, (argv, shown)
            assert "Warning" not in err.getvalue(), argv
            if code == 0:
                text = out.getvalue()
                if argv[0] == "verify":
                    # a NaN residual is printed as NaN on purpose
                    text = text.replace("NaN", "")
                assert not _NON_FINITE_TOKEN.search(text), (argv, text)

    check()


def test_solve_cubic_force_is_an_error(cubic_system, capsys):
    code, _, err = run(capsys, "solve", "--system", cubic_system,
                       "--steps", "20")
    assert code == 1
    assert err.startswith("error:")


def test_converge_csv_shape(constant_system, capsys):
    code, out, _ = run(capsys, "converge", "--system", constant_system,
                       "--paths", "10", "--ladder", "3",
                       "--base-steps", "8", "--refine", "8")
    assert code == 0
    lines = out.strip().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "dt,strong_error"
    assert len(data) == 4
    assert lines[-1].startswith("# fitted_order=")


def test_a_one_rung_ladder_fits_no_order(tmp_path, capsys):
    # one rung gives one point, through which no order is fitted: the CSV
    # ends in a NaN order, and numpy's poorly-conditioned fit, which
    # warned on stderr, is not attempted
    system = write_system(tmp_path, "c.json", CONSTANT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "converge", "--system", system,
                             "--ladder", "1", "--paths", "20")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-3:] == ["dt,strong_error", "0.125,0.02747565027975249",
                          "# fitted_order=nan"]


@pytest.mark.parametrize("paths", ["0", "-3"])
def test_converge_rejects_a_path_count_below_one(constant_system, capsys,
                                                 paths):
    code, out, err = run(capsys, "converge", "--system", constant_system,
                         "--paths", paths)
    assert code == 1 and out == ""
    assert err == "error: n_paths must be >= 1\n"


def test_converge_out_file_matches_stdout(constant_system, tmp_path, capsys):
    args = ["converge", "--system", constant_system, "--paths", "6",
            "--ladder", "2", "--base-steps", "4", "--refine", "4"]
    dest = tmp_path / "report.csv"
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args, "--out", str(dest))
    assert code_a == code_b == 0 and out_b == ""
    assert dest.read_text() == out_a


GOLDEN_CONVERGE = [
    ({"n": 1, "beta": [1.5], "mu": [0.8],
      "force": {"type": "constant", "c": [0.4]}},
     ["--x0=0.3,-0.2", "--seed", "5"],
     "# problem=ou-constant\n"
     "# seed=5\n"
     "# n_paths=37\n"
     "# used_paths=37\n"
     "# refine=8\n"
     "dt,strong_error\n"
     "0.125,0.029181460246308227\n"
     "0.0625,0.01938817221204019\n"
     "0.03125,0.00983825994548509\n"
     "# fitted_order=0.7842884992020404\n"),
    ({"n": 2, "beta": [2.0, 2.0], "mu": [0.7, 0.7],
      "force": {"type": "linear", "L": [[-2.0, 1.0], [-1.0, -2.0]],
                "K": [0.3, -0.1]}},
     ["--x0=0.5,-0.3,0.1,0.2", "--seed", "6"],
     "# problem=ou-linear\n"
     "# seed=6\n"
     "# n_paths=37\n"
     "# used_paths=37\n"
     "# refine=8\n"
     "dt,strong_error\n"
     "0.125,0.07109558952052432\n"
     "0.0625,0.03324610866706797\n"
     "0.03125,0.015958862715829622\n"
     "# fitted_order=1.0777011099879878\n"),
]


@pytest.mark.parametrize("payload,extra,expected", GOLDEN_CONVERGE,
                         ids=["constant-n1", "linear-iso-n2"])
def test_converge_golden_output(tmp_path, capsys, payload, extra, expected):
    # pinned stdout: any change to the noise keying, the coarsening, the
    # solvers' arithmetic or the report format shows up here
    system = write_system(tmp_path, "golden.json", payload)
    code, out, err = run(capsys, "converge", "--system", system,
                         "--paths", "37", "--ladder", "3",
                         "--base-steps", "8", "--refine", "8", *extra)
    assert code == 0 and err == ""
    assert out == expected


def test_reference_gbm_certificate(capsys):
    code, out, _ = run(capsys, "reference", "--problem", "gbm",
                       "--steps", "200")
    assert code == 0
    cert = json.loads(out)
    assert cert["max_invariant_deviation"] <= 1e-12
    assert cert["steps"] == 200


def test_reference_kozlov_certificate(tmp_path, capsys):
    dest = tmp_path / "koz.csv"
    code, out, _ = run(capsys, "reference", "--problem", "kozlovexp",
                       "--y0", "2.0", "--steps", "100", "--out", str(dest))
    assert code == 0
    cert = json.loads(out)
    assert cert["max_transform_defect"] <= 1e-10
    assert cert["domain_margin"] > 0
    assert "t,y1" in dest.read_text()


@pytest.mark.parametrize("args", [
    ["--problem", "kozlovexp", "--y0", "nan"],
    ["--problem", "gbm", "--x0", "nan"],
    ["--problem", "gbm", "--a", "inf"],
    ["--problem", "gbm", "--b", "nan"],
])
def test_reference_rejects_non_finite_parameters(tmp_path, capsys, args):
    dest = tmp_path / "ref.csv"
    code, out, err = run(capsys, "reference", *args, "--steps", "20",
                         "--out", str(dest))
    assert code == 1 and out == ""
    assert err.startswith("error: reference parameters must be finite")
    assert not dest.exists()


@pytest.mark.parametrize("args", [
    ["--problem", "gbm", "--a", "900", "--steps", "10"],
    ["--problem", "kozlovexp", "--y0", "800"],
])
def test_reference_rejects_an_overflowing_closed_form(tmp_path, capsys, args):
    dest = tmp_path / "ref.csv"
    with warnings.catch_warnings():
        # a numpy warning would surface as an internal error
        warnings.simplefilter("error")
        code, out, err = run(capsys, "reference", *args, "--out", str(dest))
    assert code == 1 and out == ""
    assert err.startswith("error: reference closed form is not finite")
    assert not dest.exists()


def test_missing_system_file_exits_one(capsys):
    code, _, err = run(capsys, "classify", "--system", "/nope/missing.json")
    assert code == 1
    assert err.startswith("error:")


def test_bad_json_system_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "classify", "--system", str(bad))
    assert code == 1


def test_refused_allocation_exits_one(linear_system, capsys, monkeypatch):
    # a count too large for memory is an input error, not an internal one
    def refuse(*_a, **_k):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with "
                          "shape (10000000000000, 1, 1) and data type float64")

    monkeypatch.setattr(cli.integrate, "convergence_study", refuse)
    code, out, err = run(capsys, "converge", "--system", linear_system,
                         "--paths", "10000000000000", "--ladder", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: MemoryError: Unable to allocate 72.8 TiB")


@pytest.mark.parametrize("base, refine, ladder, refused", [
    (8, 64, 54, False), (8, 64, 55, True), (3, 3, 60, False),
    (3, 3, 61, True), (8, 64, 10 ** 30, True)])
def test_ladder_is_sized_before_its_rungs_are_formed(
        linear_system, capsys, monkeypatch, base, refine, ladder, refused):
    # the finest grid, base * 2**(ladder - 1) * refine steps, may hold at
    # most 2**63 - 1 steps; the check reads bit lengths, so a huge ladder
    # is refused at once, with no rung formed
    rungs = []

    def record(problem, x0, t0, t1, ladder_steps, **_):
        rungs.append(ladder_steps)
        raise MemoryError("recorded")

    monkeypatch.setattr(cli.integrate, "convergence_study", record)
    start = time.perf_counter()
    code, out, err = run(capsys, "converge", "--system", linear_system,
                         "--base-steps", str(base), "--refine", str(refine),
                         "--ladder", str(ladder))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    if refused:
        assert rungs == []
        assert err == f"error: ladder {ladder} needs over 2**63 - 1 steps\n"
    else:
        assert rungs[0][-1] * refine <= 2 ** 63 - 1
        assert rungs[0][-1] * refine * 2 > 2 ** 63 - 1


def test_bad_expression_reports_offset(tmp_path, capsys):
    path = write_system(tmp_path, "broken.json", {
        "n": 1, "beta": [1.0], "mu": [1.0],
        "force": {"type": "expr", "components": "4*x1 +"}})
    code, _, err = run(capsys, "classify", "--system", str(path))
    assert code == 1
    assert "offset 7" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_x0_dimension_mismatch(constant_system, capsys):
    code, _, err = run(capsys, "simulate", "--system", constant_system,
                       "--x0", "1.0", "--steps", "5")
    assert code == 1
    assert "2n" in err


def test_module_entry_point():
    import ousym.__main__  # noqa: F401 - import works; guard not triggered

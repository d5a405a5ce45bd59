"""Source-layout rules for the ousym package, checked on its source text."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import ousym

SRC = Path(ousym.__file__).resolve().parent


def _callers(pattern, allowed):
    """Modules other than `allowed` whose source matches `pattern`."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert re.search(pattern, sources[allowed])
    return [name for name, text in sources.items()
            if name != allowed and re.search(pattern, text)]


def test_hyperduals_are_built_only_in_duals():
    # every seeded coordinate comes from duals.jet
    assert _callers(r"\bHyperDual\(", "duals.py") == []


def test_brackets_go_through_calculus():
    # every bracket is one _field_jet per field, then _contract
    assert _callers(r"\blie_bracket\(", "calculus.py") == []


def _calling_functions(names):
    """(module, top-level function) pairs whose body calls any of names,
    by plain or attribute name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name in names:
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_residuals_read_one_ito_jet_per_object():
    # determining equations, invariance conditions and Laplacians come from
    # one Ito jet of the object; full Jacobians are for bracket jets and for
    # the drift and sigma (taken once per probe set by _drift_jet), never
    # for a generator's phi or a Theta
    assert _calling_functions({"_ito_jet"}) == {
        ("symmetry.py", "_residual_blocks"),
        ("symmetry.py", "_invariant_conditions"),
        ("calculus.py", "ito_laplacian_components")}
    assert _calling_functions({"_gradients"}) == {
        ("calculus.py", "_field_jet"), ("symmetry.py", "_drift_jet")}
    tree = ast.parse((SRC / "symmetry.py").read_text())
    fields = [ast.unparse(node.args[0]) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_gradients"]
    assert fields
    for field in fields:
        assert field == "sys.drift" or re.fullmatch(
            r"lambda q: \[e for row in sys\.sigma\(q\) for e in row\]",
            field), field


def test_differentiation_has_one_engine():
    # hyper-duals only: no engine switch, no finite-difference step and no
    # domain-error fallback in the library; the central differences are a
    # test oracle (tests/oracles.py)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                assert "engine" not in params, (path.name, node.lineno)
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            assert name not in ("_fd_step", "_CBRT_EPS"), path.name
    calculus = ast.parse((SRC / "calculus.py").read_text())
    imported = {alias.name for node in ast.walk(calculus)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "EvaluationDomainError" not in imported
    # _field_jet reads the Jacobian from _gradients and checks its shape
    field_jet = next(top for top in calculus.body
                     if getattr(top, "name", None) == "_field_jet")
    assert {ast.unparse(node.func) for node in ast.walk(field_jet)
            if isinstance(node, ast.Call)} == {"_gradients", "len",
                                                "DimensionMismatch"}


def test_coordinates_are_seeded_only_through_jet():
    # the calculus jets, derivative(), the force's derivatives and the
    # structure check's scaling partials; nothing else seeds coordinates
    assert _calling_functions({"jet"}) == {
        ("calculus.py", "_jet"), ("calculus.py", "derivative"),
        ("model.py", "ForceField"), ("classify.py", "structure_constants")}


def test_chi_is_written_once():
    # ExtendedPoint.chi is the one chi formula: it alone reads the force at
    # the origin to evaluate chi; InvariantCandidate.chi reads it only for
    # its record's a_t
    assert _calling_functions({"_force_at_origin"}) == {
        ("calculus.py", "ExtendedPoint"),
        ("symmetry.py", "InvariantCandidate")}
    candidate = next(top for top in ast.parse(
        (SRC / "symmetry.py").read_text()).body
        if getattr(top, "name", None) == "InvariantCandidate")
    reads = [node for node in ast.walk(candidate) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_force_at_origin"]
    a_t = [kw.value for node in ast.walk(candidate)
           if isinstance(node, ast.Call)
           and getattr(node.func, "id", None) == "AffineRecord"
           for kw in node.keywords if kw.arg == "a_t"]
    assert len(reads) == 1 and len(a_t) == 1
    assert reads[0] in list(ast.walk(a_t[0]))
    # one evaluator and one way to scale a generator by a chi function
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            assert name not in ("_affine_callable", "_chi_expression"), (
                path.name)
    assert _calling_functions({"_chi_vector"}) == {
        ("classify.py", "_chi_scaled"), ("classify.py", "structure_constants")}


def _top_readers(module, names):
    """Top-level statements of module (by defined name) that load any of
    names."""
    found = set()
    for top in ast.parse((SRC / module).read_text()).body:
        label = getattr(top, "name", None) or ast.unparse(
            getattr(top, "targets", [top])[0])
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id in names
                    and isinstance(node.ctx, ast.Load)):
                found.add(label)
    return found


def test_operator_precedence_is_read_from_one_table():
    # the binary operators' levels are written once, in _BINARY, which
    # the tree node and the parser both read
    assert _top_readers("expressions.py",
                        {"_P_ADD", "_P_MUL", "_P_POW"}) == {"_BINARY"}
    assert _top_readers("expressions.py", {"_BINARY"}) == {"BinOp",
                                                           "_Parser"}


def test_np_power_is_called_only_in_duals_power():
    # one place holds the fractional-power rule and numpy's rounding
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "power"
                        and getattr(node.value, "id", None) == "np"):
                    found.add((path.name, getattr(top, "name", None)))
    assert found == {("duals.py", "power")}


def test_the_flat_coordinate_order_is_written_once():
    # _flat lists a point's coordinates and _at inverts it; nothing else
    # rebuilds the order coordinate by coordinate
    assert not any(re.search(r"\.coord\(\w+\) for \w+ in extended_coords",
                             p.read_text()) for p in SRC.glob("*.py"))
    assert _calling_functions({"_flat"}) == {
        ("calculus.py", "ExtendedPoint"), ("calculus.py", "stack_probes"),
        ("calculus.py", "_probe_shape"), ("calculus.py", "_jet")}


def test_extended_points_are_built_in_three_places():
    # the tuple-normalising constructor, the probe sampler, and _at, which
    # every other point (stacked probes, a replaced coordinate) goes through
    assert _calling_functions({"ExtendedPoint"}) == {
        ("calculus.py", "point"), ("calculus.py", "sample_probes"),
        ("calculus.py", "_at")}


def test_threads_start_only_in_the_noise_block_iterator():
    # one worker draws the next block of noise; nothing else runs threads
    assert _calling_functions({"Thread", "ThreadPoolExecutor",
                               "ProcessPoolExecutor", "Pool",
                               "start_new_thread"}) == {
        ("integrate.py", "_increment_blocks")}


def test_philox_draws_only_in_sampling_and_the_block_iterator():
    assert _calling_functions({"_philox_increments"}) == {
        ("integrate.py", "sample_wiener"),
        ("integrate.py", "_increment_blocks")}


def test_euler_maruyama_loops_are_pinned():
    # one batch loop; one-path OU batches step on Python floats instead, and
    # euler_maruyama, which keeps every state, steps its path there itself,
    # so the batch entry point takes no record it could leave unwritten
    assert _calling_functions({"_em_batch"}) == {
        ("integrate.py", "_ou_em"), ("integrate.py", "_ScalarProblem")}
    assert _calling_functions({"_em_one_path"}) == {
        ("integrate.py", "_ou_em"), ("integrate.py", "euler_maruyama")}
    ou_em = _function("integrate.py", "_ou_em")
    assert "record" not in [a.arg for a in ou_em.args.args]


def test_each_fixture_sde_is_written_once():
    # a scalar fixture's drift and sigma live on its convergence adapter,
    # which Euler-Maruyama steps and whose sys is the Ito process the
    # residuals read; Kozlov's drift is written once
    assert _calling_functions({"CustomItoProcess"}) == {
        ("integrate.py", "_ScalarProblem")}
    assert sum(p.read_text().count("exp(-2.0")
               for p in SRC.glob("*.py")) == 1
    # exports that no library code calls live in the test oracles
    for name in ("gbm_process", "kozlov_exp_process",
                 "euler_maruyama_general", "ito_integral"):
        assert name not in ousym.__all__ and not hasattr(ousym, name)


def test_force_forms_live_on_the_force_classes():
    # the EM loops read F from the force; integrate.py tests the force
    # class only where it picks a closed form, and `solve` and `converge`
    # pick it in one place, _exact_solver
    found = set()
    for top in ast.parse((SRC / "integrate.py").read_text()).body:
        scopes = [(top.name, top)] if isinstance(top, ast.FunctionDef) else [
            (f"{top.name}.{f.name}", f) for f in getattr(top, "body", [])
            if isinstance(f, ast.FunctionDef)]
        for name, scope in scopes:
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and ast.unparse(node.args[1]).endswith("Force")):
                    found.add(name)
    assert found == {"_exact_constant_paths", "_exact_linear_paths",
                     "_exact_solver"}
    assert _calling_functions({"_exact_solver"}) == {
        ("cli.py", "_solve_exact"), ("integrate.py", "OUConvergenceProblem")}
    assert "Force" not in (SRC / "cli.py").read_text()
    readers = {attr: {top.name for top in ast.parse(
        (SRC / "integrate.py").read_text()).body for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == attr}
        for attr in ("_rows", "_floats")}
    assert readers == {"_rows": {"_ou_em"}, "_floats": {"_em_one_path"}}
    assert "_force_fn" not in (SRC / "integrate.py").read_text()


def test_state_that_no_caller_reads_is_gone():
    # one SVD decides a linear force's tag and rank; ForceClass keeps no
    # copy of its input and nothing that restates the tag
    assert not [p.name for p in SRC.glob("*.py")
                if "matrix_rank" in p.read_text()]
    assert [f.name for f in ousym.ForceClass.__dataclass_fields__.values()
            ] == ["tag", "L", "rank", "detail"]
    proc = ousym.GBMConvergenceProblem(1.0, 0.5).sys
    assert not [a for a in ("n_state", "n_wiener", "name") if hasattr(proc, a)]
    # the batch loop keeps terminal states only, a path CSV's header is its
    # path's meta, and the test oracle steps Euler-Maruyama in its own loop,
    # so the oracle shares no code with the loop it checks
    em_batch = _function("integrate.py", "_em_batch")
    assert "record" not in [a.arg for a in em_batch.args.args]
    oracles = Path(__file__).with_name("oracles.py").read_text()
    assert "_em_batch" not in oracles
    writer = _function("integrate.py", "write_path_csv")
    assert [a.arg for a in writer.args.args] == ["path", "dest"]
    for name in ("ResidualReport", "residual_report"):
        assert name not in ousym.__all__ and not hasattr(ousym, name)


def test_every_import_is_read():
    # a name a module imports is read in that module; __init__.py imports
    # to export
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        assert imported <= read, (path.name, imported - read)


def test_eigenmodes_come_from_one_helper():
    # eig, the complex cast, the defective-matrix check and the rates live
    # together: the mode emitter and the exact solver read one mode basis
    assert _calling_functions({"eig"}) == {("classify.py", "_eigenmodes")}
    assert _calling_functions({"_eigenmodes"}) == {
        ("classify.py", "_emit_linear_modes"),
        ("integrate.py", "_exact_linear_paths")}
    assert _calling_functions({"mode_rates"}) == {
        ("classify.py", "_eigenmodes")}
    integrate = ast.parse((SRC / "integrate.py").read_text())
    assert [alias.name for node in ast.walk(integrate)
            if isinstance(node, ast.ImportFrom) and node.module == "classify"
            for alias in node.names] == ["_eigenmodes"]


def test_the_case_table_certifies_at_one_site():
    # the constant and the isotropic linear case choose their generators
    # and fall through to one certificate and one bracket table; every
    # TheoryIncomplete verdict is one return
    calls = [ast.unparse(node.func) for node in ast.walk(
        _function("classify.py", "classify_symmetries"))
        if isinstance(node, ast.Call)]
    assert calls.count("_certify") == calls.count("_quick_bracket_table") == 1
    assert sum(isinstance(node, ast.Constant)
               and node.value == "TheoryIncomplete"
               for node in ast.walk(ast.parse(
                   (SRC / "classify.py").read_text()))) == 1


def test_every_private_name_is_read():
    # every _-prefixed function or class defined in the package is read
    # somewhere in it, as a name, an attribute or an import; a helper no
    # caller needs is deleted
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined.add((path.name, node.name))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    assert defined
    assert {(module, name) for module, name in defined
            if name not in read} == set()


def test_fixture_closed_forms_are_written_once():
    # the certificate path and the study's batched terminals share them
    assert _calling_functions({"_gbm_exponent"}) == {
        ("integrate.py", "solve_reference_problem"),
        ("integrate.py", "GBMConvergenceProblem")}
    assert _calling_functions({"_kozlov_transform"}) == {
        ("integrate.py", "solve_reference_problem"),
        ("integrate.py", "KozlovConvergenceProblem")}


def test_single_grid_adapter_pair_is_written_once():
    # every adapter's exact_terminal / em_terminal is its batched method on
    # a batch of one, defined on the shared base class
    text = (SRC / "integrate.py").read_text()
    assert re.findall(r"def (exact|em)_terminal\(", text) == ["exact", "em"]


def test_coarsening_is_written_once():
    assert _calling_functions({"_coarsened"}) == {
        ("integrate.py", "coarsen"), ("integrate.py", "convergence_study")}


def test_the_integer_rule_is_written_once():
    # counts, seeds, path indices, rungs, components and n all go through
    # model._is_count; nothing else tests for an integer type
    defined, typed = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "_is_count"):
                    defined.add(path.name)
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and "np.integer" in ast.unparse(node.args[1])):
                    typed.add((path.name, getattr(top, "name", None)))
    assert defined == {"model.py"}
    assert typed == {("model.py", "_is_count")}


def test_certification_has_one_tolerance():
    # every certificate (the determining equations, the chi basis, an
    # invariant's scaling, the exp-decay scan's re-check, R's skew part
    # and an exact path's imaginary leakage) is decided by symmetry._judge,
    # the one relative rule, which alone reads the one constant CERT_REL;
    # the only other tolerance name left is classify_force's model._TOL
    names, literals = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            label = getattr(top, "name", None) or ast.unparse(
                getattr(top, "targets", [top])[0])
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name and re.fullmatch(r"\w*_TOL\w*|CERT_REL", name):
                    names.add((path.name, label, name))
                if isinstance(node, ast.Constant) and node.value == 1e-12:
                    literals.add((path.name, label))
    assert {(module, name) for module, _, name in names
            if name != "CERT_REL"} == {("model.py", "_TOL")}
    assert {entry[:2] for entry in names if entry[2] == "CERT_REL"} == {
        ("symmetry.py", "CERT_REL"), ("symmetry.py", "_judge")}
    # mode_rates' critical-damping test is not a certificate
    assert literals == {("symmetry.py", "CERT_REL"),
                        ("classify.py", "mode_rates")}
    assert _calling_functions({"_judge"}) == {
        ("classify.py", "_certify"), ("classify.py", "classify_invariants"),
        ("classify.py", "expdecay_residual_scan"),
        ("symmetry.py", "scale_by_invariant"),
        ("symmetry.py", "SymmetryGenerator"), ("integrate.py", "_guarded")}


def test_exact_paths_stream_through_one_splitter_into_one_consumer():
    # the two exact path functions and the GBM and Kozlov references cut
    # the path with the one window splitter; nothing calls the path
    # functions: they are handed to _guarded, which folds their windows
    assert _calling_functions({"_windows"}) == {
        ("integrate.py", "_exact_constant_paths"),
        ("integrate.py", "_exact_linear_paths"),
        ("integrate.py", "GBMConvergenceProblem"),
        ("integrate.py", "KozlovConvergenceProblem")}
    assert _calling_functions({"_exact_constant_paths",
                               "_exact_linear_paths"}) == set()
    assert _calling_functions({"exact_paths"}) == {
        ("integrate.py", "_guarded")}


def test_running_sums_carry_across_windows_in_one_helper():
    # every cumsum is _cumulative's; a sum continued from the window before
    # (a second argument) is taken by the constant solver, the GBM and
    # Kozlov references and, for the linear solver, by _mode_quadrature
    assert _calling_functions({"cumsum"}) == {("integrate.py", "_cumulative")}
    carried = set()
    for top in ast.parse((SRC / "integrate.py").read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_cumulative"
                    and len(node.args) + len(node.keywords) == 2):
                carried.add(top.name)
    assert carried == {"_exact_constant_paths", "_mode_quadrature",
                       "GBMConvergenceProblem", "KozlovConvergenceProblem"}
    assert _calling_functions({"_mode_quadrature"}) == {
        ("integrate.py", "_exact_linear_paths")}


def _function(module, *names):
    """The function at the dotted path names in module's source."""
    scope = ast.parse((SRC / module).read_text())
    for name in names:
        scope = next(node for node in ast.walk(scope)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and node.name == name)
    return scope


def test_fixed_work_is_done_once():
    # the constant solver's one loop runs over the time windows, with no
    # loop over the components in it and one pair of running sums carried
    constant = _function("integrate.py", "_exact_constant_paths")
    loops = [node for node in ast.walk(constant)
             if isinstance(node, (ast.For, ast.While))]
    assert [ast.unparse(loop.iter.func) for loop in loops] == ["_windows"]
    assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension))
                   for stmt in loops[0].body for node in ast.walk(stmt))
    carried = [ast.unparse(node) for node in ast.walk(loops[0])
               if isinstance(node, ast.Assign)
               and ast.unparse(node.targets[0]) == "ends"]
    assert carried == [
        "ends = (integ[:, :, -1].copy(), w[:, :, -1].copy())"]
    # a mode field builds one profile for its 2n components
    mode = _function("symmetry.py", "SymmetryGenerator", "linear_mode")
    assert [ast.unparse(node.func) for node in ast.walk(mode)
            if isinstance(node, ast.Call)].count("_complex_profile") == 1
    # an extended field reads R where it is built: its closure compares
    # nothing
    field = _function("symmetry.py", "SymmetryGenerator",
                      "as_extended_field", "field")
    assert not any(isinstance(node, ast.Compare) for node in ast.walk(field))


def test_certification_has_one_failure_rule():
    # a residual that cannot be evaluated is NaN, which fails its gate: no
    # module turns NonFiniteResult back into a NaN, the Ito jet returns its
    # Laplacian as computed, and the public Laplacian refuses it
    handlers = [path.name for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ExceptHandler) and node.type
                and "NonFiniteResult" in ast.unparse(node.type)]
    assert handlers == []

    def calls(name):
        return [ast.unparse(node.func)
                for node in ast.walk(_function("calculus.py", name))
                if isinstance(node, ast.Call)]

    assert "_check_finite" not in calls("_ito_jet")
    assert "_check_finite" in calls("ito_laplacian_components")


def test_R_is_read_against_the_process_in_one_place():
    # R's entries are taken, and its size checked against the process, by
    # _r_entries, which the extended field and the dw block both call
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                callers += [(path.name, node.name) for call in ast.walk(node)
                            if isinstance(call, ast.Call)
                            and getattr(call.func, "id", None) == "_r_entries"]
    assert sorted(callers) == [("symmetry.py", "_residual_blocks"),
                               ("symmetry.py", "as_extended_field")]


def test_residual_overflow_policy_is_set_where_residuals_are_computed():
    # the drift jet, the determining blocks and the invariance conditions
    # silence numpy's overflow warnings themselves, so no caller has to;
    # the exp-decay scan keeps its own for the closed form
    found = {pair for pair in _calling_functions({"errstate"})
             if pair[0] in ("symmetry.py", "classify.py")}
    assert found == {("symmetry.py", "_drift_jet"),
                     ("symmetry.py", "_residual_blocks"),
                     ("symmetry.py", "_invariant_conditions"),
                     ("classify.py", "expdecay_residual_scan")}


def test_certification_reads_no_force_class():
    # calculus, symmetry and classify decide from the force's values and
    # derivatives and from the certificates: no force class is imported,
    # named or tested with isinstance there (integrate.py's choice of exact
    # solver keeps its dispatch on purpose)
    for name in ("calculus.py", "symmetry.py", "classify.py"):
        tree = ast.parse((SRC / name).read_text())
        named = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(tree)}
        named |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not {n for n in named if n and re.fullmatch(
            r"\w*Force|ForceField", n)}, name
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "isinstance"
                    and "Force" in ast.unparse(node.args[1])], name


def test_brackets_contract_index_pairs_of_one_stack():
    # _contract takes the stacked jets and the two index arrays; no caller
    # gathers per-pair operand copies such as jac[left] or vals[right]
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "_contract"):
                    calls.append((path.name, top.name,
                                  len(node.args) + len(node.keywords)))
    assert {(m, f) for m, f, _ in calls} == {
        ("calculus.py", "lie_bracket"), ("classify.py", "_pairwise_brackets"),
        ("classify.py", "structure_constants")}
    assert {k for _, _, k in calls} == {4}
    gathers = [ast.unparse(node) for node in ast.walk(
        ast.parse((SRC / "classify.py").read_text()))
        if isinstance(node, ast.Subscript)
        and ast.unparse(node.slice) in ("left", "right")]
    assert gathers == []


def test_isotropy_is_one_rule():
    # OUSystem.isotropic is true for every n = 1 system, so no condition
    # that reads it also reads n
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            test = node if isinstance(node, ast.BoolOp) else getattr(
                node, "test", None)
            if test is None:
                continue
            names = {getattr(sub, "id", None) or getattr(sub, "attr", None)
                     for sub in ast.walk(test)}
            if "isotropic" in names:
                readers.add(path.name)
                assert "n" not in names, (path.name, ast.unparse(test))
    assert readers == {"classify.py", "integrate.py"}


def _run_python(code, *args):
    """Run code in a fresh interpreter that imports this ousym."""
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_import_loads_neither_scipy_nor_a_thread_pool():
    proc = _run_python(
        "import sys, ousym; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'concurrent.futures'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# argv[1] is "block" or "open", argv[2] a JSON list of ousym command lines;
# prints a JSON list of [exit code, stdout] and whether scipy imported
_CLI_WITH_OPTIONAL_SCIPY_BLOCK = """
import contextlib, io, json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


if sys.argv[1] == "block":
    sys.meta_path.insert(0, BlockScipy())
from ousym.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
try:
    import scipy.linalg
    scipy_imports = True
except ImportError:
    scipy_imports = False
print(json.dumps({"results": results, "scipy_imports": scipy_imports}))
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    systems = {
        "constant": {"n": 1, "beta": [1.0], "mu": [2.0],
                     "force": {"type": "constant", "c": [0.5]}},
        "linear": {"n": 1, "beta": [3.0], "mu": [1.0],
                   "force": {"type": "linear", "L": [[4.0]]}},
        # anisotropic: classify solves the W-matrix constraint
        "aniso": {"n": 2, "beta": [1.0, 2.0], "mu": [1.0, 1.0],
                  "force": {"type": "linear",
                            "L": [[0.0, 1.0], [1.0, 0.0]]}},
    }
    path = {}
    for name, payload in systems.items():
        path[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    commands = [
        ["classify", "--system", path["aniso"]],
        ["classify", "--system", path["constant"]],
        ["invariants", "--system", path["constant"]],
        ["invariants", "--system", path["linear"]],
        ["verify", "--system", path["linear"],
         "--generator", "expdecay:i=1,kappa=4"],
        ["converge", "--system", path["constant"], "--paths", "8",
         "--ladder", "2", "--base-steps", "4", "--refine", "4"],
        ["simulate", "--system", path["constant"], "--steps", "20"],
    ]
    runs = {}
    for mode in ("block", "open"):
        proc = _run_python(_CLI_WITH_OPTIONAL_SCIPY_BLOCK, mode,
                           json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    assert not runs["block"]["scipy_imports"]
    for argv, blocked, open_ in zip(commands, runs["block"]["results"],
                                    runs["open"]["results"]):
        assert blocked[0] == 0, argv
        assert blocked == open_ and blocked[1], argv

"""The three workloads as ordered lists of ops.

An op is one thing a user waits for: a CLI command run in-process through
ousym.cli.main(argv) with stdout captured, or one public library call. Each
op carries its correctness checks and, for the traced run, a replay of the
library calls underneath it (see spans.py).

certify   certification stack only (model, expressions, calculus, symmetry,
          classify); no integration.
converge  many short paths: per-path Wiener draws, coarsen, exact solvers
          and single-path EM, through `ousym converge` and the Kozlov study.
paths     batched ensemble, long single paths, expression forces and large
          CSV writes and reads.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import gen
import ousym
from ousym import cli as ousym_cli
from ousym.symmetry import ExpDecay, Translation


@dataclass
class Op:
    id: str                       # "<family>:<case>", unique in a workload
    family: str                   # CLI command or library call
    span: str                     # top span name in the traced run
    run: Callable                 # () -> result; the timed part
    check: Callable               # result -> [checks.Check]
    replay: Callable = None       # (tracer, top span, result) -> None
    attrs: dict = field(default_factory=dict)
    out_file: str = None          # CSV written by the op, for the digest


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ousym_cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def digest(op, result):
    """sha256 of a CLI op's stdout and of the file it wrote, if any."""
    out = {}
    if isinstance(result, CliResult):
        out["stdout"] = hashlib.sha256(result.out.encode()).hexdigest()
    if op.out_file and os.path.exists(op.out_file):
        with open(op.out_file, "rb") as fh:
            out["file"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _write_system(work, name, data):
    path = os.path.join(work, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _cli_checked(more):
    """Exit-code check first; payload checks only when the command ran."""
    def check(res):
        out = checks.exit_code(res.code, res.err)
        if res.code == 0:
            out += more(res)
        return out
    return check


def _x0_arg(x0):
    return ",".join(repr(float(v)) for v in x0)


def _prefix(tr, top, data, probe_seed):
    with tr.span("model.system_from_json", replays=top):
        sys_ = ousym.system_from_json(data)
    with tr.span("calculus.sample_probes", replays=top):
        probes = ousym.sample_probes(sys_, count=32, seed=probe_seed)
    return sys_, probes


def _bracket_spans(tr, parent, fields, probes, **attrs):
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            for p in probes:
                with tr.span("calculus.lie_bracket", replays=parent, **attrs):
                    ousym.lie_bracket(fields[a], fields[b], p)


# --- certify ---

def _replay_classify(case):
    def replay(tr, top, _res):
        sys_, probes = _prefix(tr, top, case["system"], case["probe_seed"])
        n = sys_.n
        with tr.span("classify.classify_symmetries", replays=top, n=n) as cs:
            alg = ousym.classify_symmetries(sys_, probes=probes)
        with tr.span("classify.to_json", replays=top):
            alg.to_json()
        with tr.span("model.classify_force", replays=cs, n=n):
            ousym.classify_force(sys_.force, probes=[p.x for p in probes])
        for g in alg.generators:
            with tr.span("symmetry.max_residuals", replays=cs, n=n,
                         certified=1):
                ousym.max_residuals(g, sys_, probes)
        fields = [g.as_extended_field(sys_) for g in alg.generators]
        _bracket_spans(tr, cs, fields, probes[:4], n=n)
        if alg.generators:
            stacked = ousym.stack_probes(probes)
            with tr.span("calculus.ito_laplacian_components", extra=True,
                         n=n):
                ousym.ito_laplacian_components(alg.generators[0].phi, sys_,
                                               stacked)
    return replay


def _replay_invariants(case):
    def replay(tr, top, _res):
        sys_, probes = _prefix(tr, top, case["system"], case["probe_seed"])
        n = sys_.n
        with tr.span("classify.classify_invariants", replays=top, n=n) as ci:
            inv = ousym.classify_invariants(sys_, probes=probes)
        with tr.span("classify.to_json", replays=top):
            inv.to_json()
        with tr.span("model.classify_force", replays=ci, n=n):
            ousym.classify_force(sys_.force, probes=[p.x for p in probes])
        with tr.span("symmetry.affine_invariant_nullspace", replays=ci, n=n):
            ousym.affine_invariant_nullspace(sys_, probes=probes)
        for g in inv.generators:
            with tr.span("symmetry.max_invariant_residual", replays=ci):
                ousym.max_invariant_residual(g, sys_, probes)
    return replay


def _replay_verify(case):
    def replay(tr, top, _res):
        with tr.span("model.system_from_json", replays=top):
            sys_ = ousym.system_from_json(case["system"])
        with tr.span("cli.parse_generator_spec", replays=top):
            g = ousym_cli.parse_generator_spec(case["verify"], sys_)
        with tr.span("calculus.sample_probes", replays=top):
            probes = ousym.sample_probes(sys_, count=32,
                                         seed=case["probe_seed"])
        with tr.span("symmetry.max_residuals", replays=top, n=sys_.n):
            ousym.max_residuals(g, sys_, probes)
    return replay


def _replay_structure(alg, probes):
    def replay(tr, top, _res):
        sys_ = alg.system
        n = sys_.n
        X = [g for g in alg.generators if isinstance(g.family, ExpDecay)]
        Y = [g for g in alg.generators if isinstance(g.family, Translation)]

        def scaled(base, fn):
            return base.scaled(
                lambda p: fn([p.chi(sys_, i) for i in range(n)]),
                "f").as_extended_field(sys_)

        fns = [f for _, f in ousym.default_scaling_functions()]
        for f in fns:
            for g in fns:
                for i in range(n):
                    for j in range(n):
                        for A, B in ((X[i], X[j]), (X[i], Y[j]),
                                     (Y[i], Y[j])):
                            fa, fb = scaled(A, f), scaled(B, g)
                            for p in probes:
                                with tr.span("calculus.lie_bracket",
                                             replays=top, n=n):
                                    ousym.lie_bracket(fa, fb, p)
    return replay


def certify_ops(inp, work, reduced=False):
    cases = inp["cases"]
    if reduced:
        cases = {k: cases[k] for k in ("iso1", "iso2", "iso4", "iso8",
                                       "const2", "cubic1")}
    ops = []
    for name, case in cases.items():
        path = _write_system(work, name, case["system"])
        common = ["--system", path, "--probes", "32",
                  "--seed", str(case["probe_seed"])]
        n = case["system"]["n"]
        ops.append(Op(
            f"classify:{name}", "classify", "cli.main",
            lambda argv=["classify"] + common: run_cli(argv),
            _cli_checked(lambda r, case=case: checks.classify_payload(
                json.loads(r.out), case)),
            _replay_classify(case), {"n": n, "case": name}))
        ops.append(Op(
            f"invariants:{name}", "invariants", "cli.main",
            lambda argv=["invariants"] + common: run_cli(argv),
            _cli_checked(lambda r, case=case: checks.invariants_payload(
                json.loads(r.out), case)),
            _replay_invariants(case), {"n": n, "case": name}))
        ops.append(Op(
            f"verify:{name}", "verify", "cli.main",
            lambda argv=["verify", "--generator", case["verify"]] + common:
                run_cli(argv),
            _cli_checked(lambda r, case=case: checks.verify_payload(
                json.loads(r.out), case["verify_holds"])),
            _replay_verify(case), {"n": n, "case": name}))

    const2 = cases["const2"]
    sys2 = ousym.system_from_json(const2["system"])
    alg2 = ousym.classify_symmetries(
        sys2, probes=ousym.sample_probes(sys2, 32, seed=const2["probe_seed"]))
    probes5 = ousym.sample_probes(sys2, count=5,
                                  seed=inp["structure_probe_seed"])
    ops.append(Op(
        "structure:const2", "structure", "classify.structure_constants",
        lambda: ousym.structure_constants(alg2, probes=probes5),
        checks.structure_rows, _replay_structure(alg2, probes5), {"n": 2}))

    scan = cases[inp["scan_case"]]
    sys_s = ousym.system_from_json(scan["system"])
    lo, hi, count = inp["scan_kappas"]
    kappas = np.linspace(lo, hi, count)
    probes_s = ousym.sample_probes(sys_s, 32, seed=scan["probe_seed"])
    ops.append(Op(
        f"scan:{inp['scan_case']}", "scan", "classify.expdecay_residual_scan",
        lambda: ousym.expdecay_residual_scan(sys_s, kappas, i=1,
                                             probes=probes_s),
        lambda vals: checks.scan_minimum(vals, count)))
    return ops


# --- converge ---

LADDER = [8, 16, 32, 64, 128]   # the converge command's defaults
REFINE = 64


def _replay_converge(case, paths):
    def replay(tr, top, _res):
        with tr.span("model.system_from_json", replays=top):
            sys_ = ousym.system_from_json(case["system"])
        x0, seed, n = case["x0"], case["seed"], sys_.n
        problem = ousym.OUConvergenceProblem(sys_)
        with tr.span("integrate.convergence_study", replays=top) as cs:
            rep = ousym.convergence_study(problem, x0, 0.0, 1.0, LADDER,
                                          n_paths=paths, seed=seed,
                                          refine=REFINE)
        with tr.span("integrate.write_convergence_csv", replays=top,
                     rows=len(LADDER), bytes=0) as w:
            buf = io.StringIO()
            ousym.write_convergence_csv(rep, buf)
        w["attrs"]["bytes"] = len(buf.getvalue().encode())
        if isinstance(sys_.force, ousym.ConstantForce):
            exact, kind = ousym.exact_solve_constant, "constant"
        else:
            exact, kind = ousym.exact_solve_linear, "linear"
        finest = LADDER[-1] * REFINE
        for idx in range(paths):
            with tr.span("integrate.sample_wiener", replays=cs):
                fine = ousym.sample_wiener(n, 0.0, 1.0, finest, seed=seed,
                                           path_index=idx)
            with tr.span("integrate.exact_solve", replays=cs, kind=kind,
                         steps=finest):
                exact(sys_, x0, fine)
            for s in LADDER:
                with tr.span("integrate.coarsen", replays=cs):
                    g = ousym.coarsen(fine, finest // s)
                with tr.span("integrate.euler_maruyama", replays=cs,
                             steps=s):
                    ousym.euler_maruyama(sys_, x0, g)
    return replay


def _replay_fixture(fx):
    def replay(tr, top, _res):
        problem = ousym.KozlovConvergenceProblem()
        ladder, x0 = fx["ladder"], [fx["y0"]]
        finest = ladder[-1] * fx["refine"]
        for idx in range(fx["paths"]):
            with tr.span("integrate.sample_wiener", replays=top):
                fine = ousym.sample_wiener(1, 0.0, 1.0, finest,
                                           seed=fx["seed"], path_index=idx)
            try:
                with tr.span("integrate.kozlov_exact_terminal", replays=top):
                    problem.exact_terminal(x0, fine)
                for s in ladder:
                    with tr.span("integrate.coarsen", replays=top):
                        g = ousym.coarsen(fine, finest // s)
                    with tr.span("integrate.euler_maruyama_general",
                                 replays=top, steps=s):
                        problem.em_terminal(x0, g)
            except (ousym.DomainExit, ousym.NonFiniteState):
                continue
    return replay


def _converge_check(paths):
    def more(res):
        meta, rows = checks.parse_convergence_csv(res.out)
        return checks.convergence(
            int(meta.get("used_paths", -1)), paths,
            float(meta.get("fitted_order", "nan")), checks.OU_ORDER,
            len(rows), len(LADDER))
    return _cli_checked(more)


def converge_ops(inp, work, reduced=False):
    ops = []
    paths = inp["paths"]
    for name, case in inp["cases"].items():
        path = _write_system(work, name, case["system"])
        argv = ["converge", "--system", path, "--x0=" + _x0_arg(case["x0"]),
                "--seed", str(case["seed"])]
        if paths != 200:
            argv += ["--paths", str(paths)]
        ops.append(Op(f"converge:{name}", "converge", "cli.main",
                      lambda argv=argv: run_cli(argv), _converge_check(paths),
                      _replay_converge(case, paths),
                      {"n": case["system"]["n"], "case": name}))
    fx = inp["fixture"]

    def fixture():
        return ousym.convergence_study(
            ousym.KozlovConvergenceProblem(), [fx["y0"]], 0.0, 1.0,
            fx["ladder"], n_paths=fx["paths"], seed=fx["seed"],
            refine=fx["refine"])

    ops.append(Op(
        "fixture:kozlov", "fixture", "integrate.convergence_study", fixture,
        lambda rep: checks.convergence(rep.used_paths, fx["paths"],
                                       rep.fitted_order,
                                       checks.KOZLOV_ORDER),
        _replay_fixture(fx)))
    return ops


# --- paths ---

@contextlib.contextmanager
def _threads(value):
    old = os.environ.get("OUSYM_THREADS")
    os.environ["OUSYM_THREADS"] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ["OUSYM_THREADS"]
        else:
            os.environ["OUSYM_THREADS"] = old


def _grid_argv(command, path, g):
    return [command, "--system", path, "--x0=" + _x0_arg(g["x0"]),
            "--t1", repr(g["t1"]), "--steps", str(g["steps"]),
            "--seed", str(g["seed"]), "--path-index", str(g["path_index"])]


def _grid(g):
    return ousym.sample_wiener(g["system"]["n"], 0.0, g["t1"], g["steps"],
                               seed=g["seed"], path_index=g["path_index"])


def _replay_path(g, solver, out):
    """system_from_json, sample_wiener, the solver and write_path_csv."""
    def replay(tr, top, _res):
        with tr.span("model.system_from_json", replays=top):
            sys_ = ousym.system_from_json(g["system"])
        with tr.span("integrate.sample_wiener", replays=top,
                     steps=g["steps"]):
            grid = _grid(g)
        name, fn, attrs = solver(sys_)
        with tr.span(name, replays=top, steps=g["steps"], **attrs):
            path = fn(sys_, g["x0"], grid)
        rows = path.times.shape[0]
        with tr.span("integrate.write_path_csv", replays=top, rows=rows,
                     bytes=0) as w:
            if out is None:
                buf = io.StringIO()
                ousym.write_path_csv(path, buf)
            else:
                ousym.write_path_csv(path, out)
        w["attrs"]["bytes"] = (len(buf.getvalue().encode()) if out is None
                               else os.path.getsize(out))
    return replay


def _em_solver(_sys):
    return "integrate.euler_maruyama", ousym.euler_maruyama, {}


def _exact_solver(sys_):
    if isinstance(sys_.force, ousym.ConstantForce):
        return ("integrate.exact_solve", ousym.exact_solve_constant,
                {"kind": "constant"})
    return ("integrate.exact_solve", ousym.exact_solve_linear,
            {"kind": "linear"})


def _expr_oracle(g):
    """Plain-float Euler-Maruyama for F = -a x^3 + b sin x (independent of
    the expression evaluator)."""
    a, b = g["oracle"]["a"], g["oracle"]["b"]
    beta, mu = g["system"]["beta"][0], g["system"]["mu"][0]
    grid = _grid(g)
    dt, inc = grid.dt, grid.increments[0]
    x, v = g["x0"]
    out = np.empty((g["steps"] + 1, 2))
    out[0] = x, v
    for k in range(g["steps"]):
        f = -a * x ** 3.0 + b * math.sin(x)
        x, v = x + v * dt, v + (f - beta * v) * dt + mu * inc[k]
        out[k + 1] = x, v
    return out


def _solve_check(g):
    def more(_res):
        sys_ = ousym.system_from_json(g["system"])
        meta, labels, times, states = ousym.read_path_csv(g["out"])
        solver = _exact_solver(sys_)[1]
        path = solver(sys_, g["x0"], _grid(g))
        out = checks.csv_roundtrip(labels, times, states, path)
        if solver is ousym.exact_solve_linear:
            out += checks.imag_leakage(meta)
        return out
    return _cli_checked(more)


def paths_ops(inp, work, reduced=False):
    ops = []
    ens = inp["ensemble"]
    sys_e = ousym.system_from_json(ens["system"])
    path_steps = ens["paths"] * ens["steps"]

    def ensemble():
        return ousym.euler_maruyama_ensemble(
            sys_e, ens["x0"], 0.0, ens["t1"], ens["steps"], ens["paths"],
            seed=ens["seed"])

    def ensemble_check(terminal):
        singles = [ousym.euler_maruyama(
            sys_e, ens["x0"], ousym.sample_wiener(
                1, 0.0, ens["t1"], ens["steps"], seed=ens["seed"],
                path_index=i)).terminal() for i in ens["sampled"]]
        return (checks.ensemble_variance(terminal[:, 1], sys_e.beta[0],
                                         sys_e.mu[0])
                + checks.ensemble_paths(terminal[ens["sampled"]], singles))

    def ensemble_replay(tr, top, _res):
        with _threads("1"), tr.span("integrate.euler_maruyama_ensemble",
                                    extra=True, threads=1,
                                    path_steps=path_steps):
            ensemble()

    ops.append(Op("ensemble:const1", "ensemble",
                  "integrate.euler_maruyama_ensemble", ensemble,
                  ensemble_check, ensemble_replay,
                  {"path_steps": path_steps}))

    sim = dict(inp["simulate"])
    sim["out"] = os.path.join(work, "simulate.csv")
    sim_path = _write_system(work, "simulate", sim["system"])
    ops.append(Op(
        "simulate:const2", "simulate", "cli.main",
        lambda argv=_grid_argv("simulate", sim_path, sim) + [
            "--out", sim["out"]]: run_cli(argv),
        _cli_checked(lambda _r: []),
        _replay_path(sim, _em_solver, os.path.join(work, "replay.csv")),
        {"steps": sim["steps"]}, out_file=sim["out"]))

    def readback_check(res):
        _meta, labels, times, states = res
        w = _grid(sim).cumulative()
        return (checks.row_count(len(times), sim["steps"] + 1)
                + checks.chi_telescoping(times, states, w, sim["system"]))

    ops.append(Op("readback:const2", "readback", "integrate.read_path_csv",
                  lambda: ousym.read_path_csv(sim["out"]), readback_check,
                  attrs={"rows": sim["steps"] + 1}))

    ex = dict(inp["simulate_expr"])
    ex_path = _write_system(work, "simulate_expr", ex["system"])

    def expr_check(res):
        _m, _l, _t, states = ousym.read_path_csv(io.StringIO(res.out))
        return checks.expr_oracle(states, _expr_oracle(ex))

    def expr_replay(tr, top, res):
        _replay_path(ex, _em_solver, None)(tr, top, res)
        force = ousym.system_from_json(ex["system"]).force
        point = [np.float64(ex["x0"][0])]
        calls = 2000
        with tr.span("expressions.evaluate", extra=True, calls=calls):
            for _ in range(calls):
                force.evaluate(point)

    ops.append(Op(
        "simulate_expr:expr1", "simulate_expr", "cli.main",
        lambda argv=_grid_argv("simulate", ex_path, ex): run_cli(argv),
        _cli_checked(expr_check), expr_replay, {"steps": ex["steps"]}))

    for name in ("solve_constant", "solve_linear"):
        g = dict(inp[name])
        g["out"] = os.path.join(work, f"{name}.csv")
        path = _write_system(work, name, g["system"])
        ops.append(Op(
            f"solve:{name[6:]}2", "solve", "cli.main",
            lambda argv=_grid_argv("solve", path, g) + ["--out", g["out"]]:
                run_cli(argv),
            _solve_check(g),
            _replay_path(g, _exact_solver, os.path.join(work, "replay.csv")),
            {"steps": g["steps"]}, out_file=g["out"]))
    return ops


WORKLOAD_OPS = {"certify": certify_ops, "converge": converge_ops,
            "paths": paths_ops}


def build(workload, seed, work, reduced=False):
    """Generate the inputs and turn them into ops (this is set-up time)."""
    os.makedirs(work, exist_ok=True)
    inp = gen.generate(workload, seed, reduced=reduced)
    return WORKLOAD_OPS[workload](inp, work, reduced=reduced)

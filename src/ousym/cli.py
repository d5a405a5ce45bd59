"""Command-line surface.

Subcommands:
    classify    print the symmetry algebra of a system as JSON
    invariants  print the invariant set of a system as JSON
    verify      print max determining-equation residuals for one generator
    simulate    write an Euler-Maruyama path as CSV
    solve       write an exact path (constant or linear force) as CSV
    converge    write a strong-convergence report as CSV
    reference   run a closed-form fixture and print its certificate

Exit codes: 0 success, 1 validation error (bad arguments or any library
error), 2 internal error. JSON is printed with sorted keys and CSV floats
with repr, so identical seeds give byte-identical output.
"""

import argparse
import functools
import json
import re
import sys

from . import classify as _classify
from . import integrate, model
from .calculus import sample_probes
from .errors import InvalidGrid, OusymError
from .expressions import parse_expression
from .symmetry import SymmetryGenerator, _max_abs, max_residuals


class _UsageError(OusymError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _load_system(path):
    with open(path) as fh:
        data = json.load(fh)
    return model.system_from_json(data)


def _parse_x0(text, n):
    if text is None:
        return [0.0] * (2 * n)
    # a blank cell is a ValueError; the solvers check the count (2n) and
    # that every value is finite
    return [float(c) for c in text.split(",")]


def _shorthand_fields(rest):
    """key=value pairs, comma separated; an f= key swallows the rest."""
    fields = {}
    while rest:
        key, eq, rest = rest.partition("=")
        key = key.strip()
        if not eq:
            raise _UsageError(f"generator spec: expected key=value at "
                              f"{key!r}")
        if key == "f":
            fields["f"] = rest
            break
        cell, _, rest = rest.partition(",")
        fields[key] = cell.strip()
    return fields


def _generator_from_fields(kind, fields, sys):
    n = sys.n
    kind = kind.strip().lower()
    if kind == "expdecay":
        return SymmetryGenerator.exp_decay(
            int(fields["i"]), float(fields["kappa"]), n)
    if kind == "translation":
        return SymmetryGenerator.translation(int(fields["i"]), n)
    if kind == "modulescaled":
        if fields["base"].strip().lower() not in ("expdecay", "translation"):
            raise _UsageError(f"modulescaled base must be expdecay or "
                              f"translation, got {fields['base']!r}")
        base = _generator_from_fields(fields["base"], fields, sys)
        if "f" not in fields:
            raise _UsageError("modulescaled needs an f=<expression> field")
        # an expression in chi1..chin, read as one in x1..xn
        tree = parse_expression(
            re.sub(r"\bchi(\d+)\b", r"x\1", fields["f"]), n)
        return _classify._chi_scaled(base, sys, tree.evaluate, fields["f"])
    raise _UsageError(f"unknown generator family {kind!r} "
                      f"(known: expdecay, translation, modulescaled)")


def parse_generator_spec(spec, sys):
    """Inline JSON ({"family": ...}) or shorthand like
    "expdecay:i=1,kappa=2" / "modulescaled:base=expdecay,i=1,kappa=2,f=...".
    """
    spec = spec.strip()
    if spec.startswith("{"):
        data = json.loads(spec)
        fam = data.pop("family", None)
        if fam is None:
            raise _UsageError('generator JSON needs a "family" key')
        if str(fam).lower() == "modulescaled":
            base_data = data.get("base", {})
            if not isinstance(base_data, dict):
                raise _UsageError("modulescaled JSON needs base to be an "
                                  "object")
            base_fam = base_data.pop("family", None)
            if base_fam is None:
                raise _UsageError('modulescaled JSON needs base.family')
            fields = {k: str(v) for k, v in base_data.items()}
            fields["base"] = str(base_fam)
            if "f" in data:
                fields["f"] = str(data["f"])
            return _generator_from_fields("modulescaled", fields, sys)
        return _generator_from_fields(
            str(fam), {k: str(v) for k, v in data.items()}, sys)
    name, sep, rest = spec.partition(":")
    if not sep:
        raise _UsageError(
            "generator spec must be JSON or family:key=value,...")
    return _generator_from_fields(name, _shorthand_fields(rest), sys)


def _emit_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _probe_args(p):
    p.add_argument("--probes", type=int, default=32,
                   help="number of probe points (default 32)")
    p.add_argument("--seed", type=int, default=0,
                   help="probe sampling seed (default 0)")


def _grid_args(p, steps_default=1000):
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=steps_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--path-index", type=int, default=0)


def build_parser():
    parser = _Parser(prog="ousym",
                     description="Symmetry analysis and exact integration "
                                 "of the OU process in a force field")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="symmetry algebra as JSON")
    p.add_argument("--system", required=True)
    _probe_args(p)

    p = sub.add_parser("invariants", help="invariant set as JSON")
    p.add_argument("--system", required=True)
    _probe_args(p)

    p = sub.add_parser("verify", help="residuals of one generator")
    p.add_argument("--system", required=True)
    p.add_argument("--generator", required=True,
                   help='JSON or shorthand, e.g. "expdecay:i=1,kappa=2"')
    _probe_args(p)

    p = sub.add_parser("simulate", help="Euler-Maruyama path as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", help="2n comma-separated values (default zeros)")
    _grid_args(p)
    p.add_argument("--out", help="CSV file (default stdout)")

    p = sub.add_parser("solve", help="exact path as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", help="2n comma-separated values (default zeros)")
    _grid_args(p)
    p.add_argument("--out", help="CSV file (default stdout)")

    p = sub.add_parser("converge", help="strong-convergence report as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", help="2n comma-separated values (default zeros)")
    p.add_argument("--paths", type=int, default=200)
    p.add_argument("--ladder", type=int, default=5,
                   help="number of rungs (default 5)")
    p.add_argument("--base-steps", type=int, default=8,
                   help="steps on the coarsest rung (default 8)")
    p.add_argument("--refine", type=int, default=64,
                   help="reference grid refinement factor (default 64)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV file (default stdout)")

    p = sub.add_parser("reference", help="closed-form fixture certificate")
    p.add_argument("--problem", required=True,
                   choices=["gbm", "kozlovexp"])
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--y0", type=float, default=2.0)
    _grid_args(p)
    p.add_argument("--out", help="also write the path CSV here")
    return parser


def _cmd_classified(classifier):
    """A command printing classifier(system, probes) as JSON."""
    def run(args):
        sys_ = _load_system(args.system)
        probes = sample_probes(sys_, count=args.probes, seed=args.seed)
        payload = classifier(sys_, probes=probes).to_json()
        payload["probes"] = args.probes
        payload["seed"] = args.seed
        _emit_json(payload)
        return 0
    return run


def _cmd_verify(args):
    sys_ = _load_system(args.system)
    gen = parse_generator_spec(args.generator, sys_)
    probes = sample_probes(sys_, count=args.probes, seed=args.seed)
    mf, ms = max_residuals(gen, sys_, probes)
    _emit_json({"generator": gen.label,
                "max_f_residual": mf,
                "max_sigma_residual": ms,
                "max_residual": _max_abs((mf, ms)),
                "probes": args.probes,
                "seed": args.seed})
    return 0


def _solve_exact(sys_, x0, grid):
    solve = (integrate.exact_solve_constant
             if isinstance(sys_.force, model.ConstantForce)
             else integrate.exact_solve_linear)
    return solve(sys_, x0, grid)


def _cmd_path(solver):
    """A command writing solver(system, x0, grid) as CSV."""
    def run(args):
        sys_ = _load_system(args.system)
        x0 = _parse_x0(args.x0, sys_.n)
        grid = integrate.sample_wiener(sys_.n, args.t0, args.t1, args.steps,
                                       seed=args.seed,
                                       path_index=args.path_index)
        path = solver(sys_, x0, grid)
        integrate.write_path_csv(path, args.out or sys.stdout)
        return 0
    return run


def _cmd_converge(args):
    # the finest grid, base_steps * 2**(ladder - 1) * refine steps, is sized
    # by its bit length, so that no rung of a refused ladder is formed
    if (args.base_steps * args.refine).bit_length() + args.ladder > 64:
        raise InvalidGrid(f"ladder {args.ladder} needs over 2**63 - 1 steps")
    sys_ = _load_system(args.system)
    x0 = _parse_x0(args.x0, sys_.n)
    ladder = [args.base_steps * (2 ** k) for k in range(args.ladder)]
    problem = integrate.OUConvergenceProblem(sys_)
    report = integrate.convergence_study(
        problem, x0, args.t0, args.t1, ladder, n_paths=args.paths,
        seed=args.seed, refine=args.refine)
    integrate.write_convergence_csv(report, args.out or sys.stdout)
    return 0


def _cmd_reference(args):
    grid = integrate.sample_wiener(1, args.t0, args.t1, args.steps,
                                   seed=args.seed,
                                   path_index=args.path_index)
    if args.problem == "gbm":
        params = {"a": args.a, "b": args.b, "x0": args.x0}
    else:
        params = {"y0": args.y0}
    path, cert = integrate.solve_reference_problem(args.problem, params,
                                                   grid)
    if args.out:
        integrate.write_path_csv(path, args.out)
    cert["seed"] = args.seed
    cert["steps"] = args.steps
    _emit_json(cert)
    return 0


_COMMANDS = {
    "classify": _cmd_classified(_classify.classify_symmetries),
    "invariants": _cmd_classified(_classify.classify_invariants),
    "verify": _cmd_verify,
    "simulate": _cmd_path(integrate.euler_maruyama),
    "solve": _cmd_path(_solve_exact),
    "converge": _cmd_converge,
    "reference": _cmd_reference,
}


# built on the first main() call, not at import; parse_args leaves it as is
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except OusymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            MemoryError) as exc:
        # numpy's MemoryError names the size of the refused allocation
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

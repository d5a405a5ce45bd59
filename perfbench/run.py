"""ousym benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src. One
client in one process issues the workload's ops back to back in a fixed
order, checks every output, and repeats whole passes until --seconds have
elapsed. --trace 1 makes one traced pass instead (see spans.py) and reports
the per-layer metrics. `--workload all` runs every workload in turn and
prints all their metrics.

The last line of stdout is one JSON object: correct, attempted (ops run),
failed (failed correctness checks) and metrics. Run outputs, CLI output
digests and the span trace go to .perfbench_work/ in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_RUNS = 7

SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ousym
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
"""


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "ousym", "__init__.py")):
        sys.exit(f"perfbench: no ousym sources at {SRC}; run from the root "
                 f"of a checkout of the repository")
    sys.path[:0] = [SRC, HERE]
    import ousym
    if not os.path.realpath(ousym.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: imported ousym from {ousym.__file__}, not "
                 f"from {SRC}")
    return ousym


def measure_setup(workload, seed, work):
    """Median wall time of fresh interpreters that import ousym and build
    the workload's inputs, up to the first timed op."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, HERE,
                        workload, str(seed), work],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def environment(ousym):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "ousym.thread_count": ousym.thread_count(),
            "OUSYM_THREADS": os.environ.get("OUSYM_THREADS", "unset"),
            "processes": 1}


class Tally:
    """Ops attempted and checks failed, with each failure's name."""

    def __init__(self, checks_mod):
        self.checks = checks_mod
        self.attempted = 0
        self.failures = []

    def run_op(self, op, timed):
        """Run one op and its checks; returns (result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = timed()
        except Exception:
            res = None
            found = [self.checks.Check(f"{op.id}.raised", False,
                                       traceback.format_exc(limit=3))]
        secs = time.perf_counter() - t0
        if res is not None:
            try:
                found = op.check(res)
            except Exception:
                found = [self.checks.Check(f"{op.id}.check_raised", False,
                                           traceback.format_exc(limit=3))]
        for c in found:
            if not c.ok:
                self.failures.append((op.id, c))
        return res, secs

    @property
    def failed(self):
        return len(self.failures)

    @property
    def correct(self):
        return all(c.name in self.checks.KNOWN_DEFECTS
                   for _, c in self.failures)


def _median(xs):
    return statistics.median(xs)


def named_metrics(workload, passes, ops):
    """The workload's own headline figures (printed, not gated)."""
    def op_med(op_id):
        return _median([p[op_id] for p in passes])

    out = {}
    if workload == "certify":
        out["classify_n8_s"] = (op_med("classify:iso8"), "s")
        out["structure_n2_s"] = (op_med("structure:const2"), "s")
        verdict_ops = [o.id for o in ops
                       if o.family in ("classify", "invariants", "verify")]
        out["verdicts_per_s"] = (_median(
            [len(verdict_ops) / sum(p[i] for i in verdict_ops)
             for p in passes]), "1/s")
    elif workload == "converge":
        cli_ops = [o.id for o in ops if o.family == "converge"]
        out["converge_cli_s"] = (_median(
            [_median([p[i] for i in cli_ops]) for p in passes]), "s")
        out["converge_fixture_s"] = (op_med("fixture:kozlov"), "s")
    else:
        ens = next(o for o in ops if o.family == "ensemble")
        out["ensemble_msteps_per_s"] = (
            ens.attrs["path_steps"] / 1e6 / op_med(ens.id), "Msteps/s")
        out["simulate_s"] = (op_med("simulate:const2"), "s")
        out["simulate_expr_s"] = (op_med("simulate_expr:expr1"), "s")
        solve_ops = [o.id for o in ops if o.family == "solve"]
        out["solve_s"] = (_median(
            [_median([p[i] for i in solve_ops]) for p in passes]), "s")
    return out


def timed_run(ops, seconds, tally, workloads):
    passes, digests, first = [], {}, True
    t0 = time.perf_counter()
    while True:
        durs = {}
        for op in ops:
            res, secs = tally.run_op(op, op.run)
            durs[op.id] = secs
            if res is not None:
                d = workloads.digest(op, res)
                if first:
                    digests[op.id] = d
                elif d != digests.get(op.id):
                    tally.failures.append((op.id, tally.checks.Check(
                        "output.deterministic", False,
                        "output differs from the first pass")))
        passes.append(durs)
        first = False
        if time.perf_counter() - t0 >= seconds:
            return passes, digests


def end_to_end(passes, ops, setup_s):
    """setup_s, wall_s (one pass: the sum of its op times, checks
    excluded) and family_geomean_s: the geometric mean over op families
    (one per CLI command or library call) of the family's time per pass,
    so that a slower small command moves it as much as a slower big one."""
    families = {}
    for o in ops:
        families.setdefault(o.family, []).append(o.id)
    fam_meds = [_median([sum(p[i] for i in ids) for p in passes])
                for ids in families.values()]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (_median([sum(p.values()) for p in passes]), "s"),
        "family_geomean_s": (math.exp(
            sum(math.log(m) for m in fam_meds) / len(fam_meds)), "s"),
    }


# --- traced run ---

def traced_pass(tr, ops, tally=None):
    for op in ops:
        tr.op = op.id
        with tr.span("bench.op"):
            top = []

            def timed(op=op):
                with tr.span(op.span, family=op.family, **op.attrs) as s:
                    top.append(s)
                    return op.run()

            if tally is not None:
                res, _ = tally.run_op(op, timed)
            else:
                res = timed()
            if op.replay is not None and res is not None:
                op.replay(tr, top[0], res)


def per_layer(tr, dur, span_cost):
    """Every per-layer metric of BENCHMARK.json from the recorded spans.

    Unit costs come from the run's own workload where it exercises the
    layer and otherwise from the reduced fill passes; counts come from the
    run's own workload only, so they are 0 where it never calls the layer.
    """
    selfs = tr.self_times()
    own = [s for s in tr.spans if not s["op"].startswith("fill:")]
    fill = [s for s in tr.spans if s["op"].startswith("fill:")]

    def op_of(s):
        return s["op"][5:] if s["op"].startswith("fill:") else s["op"]

    def pick(name, op=None, family=None, extra=None, **attrs):
        def ok(s):
            return (s["name"] == name
                    and (op is None or op_of(s) == op)
                    and (family is None or op_of(s).split(":")[0] == family)
                    and (extra is None or s["extra"] == extra)
                    and all(s["attrs"].get(k) == v for k, v in attrs.items()))
        found = [s for s in own if ok(s)] or [s for s in fill if ok(s)]
        if not found:
            raise RuntimeError(f"no span for {name} {op} {family} {attrs}")
        return found

    def med(spans, scale=1.0):
        return _median([dur(s) for s in spans]) * scale

    def per_unit(spans, key, scale):
        return sum(dur(s) for s in spans) / sum(
            s["attrs"][key] for s in spans) * scale

    def count(name, key=None, **attrs):
        spans = [s for s in own if s["name"] == name
                 and all(s["attrs"].get(k) == v for k, v in attrs.items())]
        return sum(s["attrs"][key] for s in spans) if key else len(spans)

    m = {}
    m["model.classify_force_s"] = (med(pick("model.classify_force",
                                            op="classify:iso8")), "s")
    m["model.system_from_json_s"] = (med(pick("model.system_from_json")), "s")
    ev = pick("expressions.evaluate")
    m["expressions.force_eval_us"] = (per_unit(ev, "calls", 1e6), "us")
    m["calculus.lie_bracket_s"] = (med(pick("calculus.lie_bracket")), "s")
    m["calculus.lie_bracket_calls"] = (count("calculus.lie_bracket"), "count")
    for n in (1, 2, 4, 8):
        iso = f"iso{n}"
        m[f"calculus.ito_laplacian_s.n{n}"] = (med(pick(
            "calculus.ito_laplacian_components", op=f"classify:{iso}")), "s")
        m[f"symmetry.max_residuals_ms_per_generator.n{n}"] = (med(pick(
            "symmetry.max_residuals", op=f"classify:{iso}"), 1e3), "ms")
        m[f"symmetry.affine_nullspace_s.n{n}"] = (med(pick(
            "symmetry.affine_invariant_nullspace",
            op=f"invariants:{iso}")), "s")
    m["symmetry.generators_certified"] = (count("symmetry.max_residuals",
                                                certified=1), "count")
    for n in (1, 2, 4, 8):
        m[f"classify.classify_symmetries_s.n{n}"] = (med(pick(
            "classify.classify_symmetries", op=f"classify:iso{n}")), "s")
        m[f"classify.classify_invariants_s.n{n}"] = (med(pick(
            "classify.classify_invariants", op=f"invariants:iso{n}")), "s")
    m["classify.expdecay_scan_s"] = (med(pick(
        "classify.expdecay_residual_scan")), "s")
    cs8 = pick("classify.classify_symmetries", op="classify:iso8")
    m["classify.self_s"] = (_median([selfs[s["id"]] for s in cs8]), "s")

    m["integrate.sample_wiener_us_per_path"] = (med(pick(
        "integrate.sample_wiener", family="converge"), 1e6), "us")
    m["integrate.coarsen_us"] = (med(pick("integrate.coarsen",
                                          family="converge"), 1e6), "us")
    m["integrate.em_ns_per_path_step"] = (per_unit(pick(
        "integrate.euler_maruyama", family="converge"), "steps", 1e9), "ns")
    m["integrate.em_ns_per_path_step.long"] = (per_unit(pick(
        "integrate.euler_maruyama", family="simulate"), "steps", 1e9), "ns")
    for kind in ("constant", "linear"):
        m[f"integrate.exact_ns_per_path_step.{kind}"] = (per_unit(pick(
            "integrate.exact_solve", family="converge", kind=kind),
            "steps", 1e9), "ns")
    m["integrate.em_path_steps"] = (count("integrate.euler_maruyama",
                                          "steps"), "count")
    m["integrate.em_general_ns_per_path_step"] = (per_unit(pick(
        "integrate.euler_maruyama_general"), "steps", 1e9), "ns")
    t1 = per_unit(pick("integrate.euler_maruyama_ensemble", extra=True),
                  "path_steps", 1e9)
    tn = per_unit(pick("integrate.euler_maruyama_ensemble", extra=False),
                  "path_steps", 1e9)
    m["integrate.ensemble_ns_per_path_step.threads1"] = (t1, "ns")
    m["integrate.ensemble_ns_per_path_step.threadsN"] = (tn, "ns")
    m["integrate.ensemble_thread_speedup"] = (t1 / tn, "ratio")
    m["integrate.write_path_csv_us_per_row"] = (per_unit(pick(
        "integrate.write_path_csv"), "rows", 1e6), "us")
    m["integrate.read_path_csv_us_per_row"] = (per_unit(pick(
        "integrate.read_path_csv"), "rows", 1e6), "us")
    m["integrate.csv_rows"] = (
        count("integrate.write_path_csv", "rows")
        + count("integrate.write_convergence_csv", "rows"), "count")
    m["integrate.csv_bytes"] = (
        count("integrate.write_path_csv", "bytes")
        + count("integrate.write_convergence_csv", "bytes"), "bytes")
    for cmd in ("classify", "invariants", "verify", "converge", "simulate",
                "solve"):
        m[f"cli.overhead_s.{cmd}"] = (_median([selfs[s["id"]] for s in pick(
            "cli.main", family=cmd)]), "s")
    tops = [s for s in tr.op_spans() if not s["op"].startswith("fill:")]
    m["trace.span_cost_us"] = (span_cost * 1e6, "us")
    m["trace.overhead_share"] = (len(own) * span_cost
                                 / sum(dur(s) for s in tops), "share")
    return m


def traced_run(workload, ops, seed, tally, workloads, trace_mod):
    tr = trace_mod.Tracer()
    traced_pass(tr, ops, tally)
    for other in workloads.WORKLOAD_OPS:
        if other == workload:
            continue
        fill_work = os.path.join(WORK, f"fill-{other}-{seed}")
        fill_ops = workloads.build(other, seed, fill_work, reduced=True)
        for op in fill_ops:
            op.id = f"fill:{op.id}"
        traced_pass(tr, fill_ops)
        _remove_csv(fill_work)
    return tr


def _remove_csv(work):
    for name in os.listdir(work):
        if name.endswith(".csv"):
            os.remove(os.path.join(work, name))


def run_workload(workload, args, ousym, modules):
    workloads, checks_mod, trace_mod = modules
    work = os.path.join(WORK, f"{workload}-{args.seed}-t{args.trace}")
    setup_s, setup_all = measure_setup(workload, args.seed, work)
    ops = workloads.build(workload, args.seed, work)
    tally = Tally(checks_mod)
    report = {"workload": workload, "seed": args.seed,
              "environment": environment(ousym),
              "setup_samples_s": setup_all}
    lines = []
    if args.trace:
        tr = traced_run(workload, ops, args.seed, tally, workloads, trace_mod)
        metrics = per_layer(tr, trace_mod.dur, trace_mod.span_cost_s())
        own_ops = {op.id for op in ops}
        layers = tr.layer_self_times(lambda op_id: op_id in own_ops)
        traced_ops = sum(trace_mod.dur(s) for s in tr.op_spans()
                         if s["op"] in own_ops)
        report.update(layer_self_s=layers, traced_op_s=traced_ops)
        tr.write(os.path.join(work, "trace.jsonl"))
        lines.append("self time per layer (traced pass, replays "
                     "subtracted): " + ", ".join(
                         f"{k}={v:.4f}s" for k, v in sorted(layers.items())))
        lines.append(f"traced ops took {traced_ops:.4f} s in total; compare "
                     f"wall_s of a --trace 0 run for the tracing overhead")
    else:
        passes, digests = timed_run(ops, args.seconds, tally, workloads)
        metrics = end_to_end(passes, ops, setup_s)
        named = named_metrics(workload, passes, ops)
        report.update(passes=passes, digests=digests,
                      named={k: v[0] for k, v in named.items()})
        combined = hashlib.sha256(json.dumps(
            digests, sort_keys=True).encode()).hexdigest()
        lines.append(f"passes={len(passes)} ops/pass={len(ops)} "
                     f"outputs_sha256={combined}")
        for k, (v, unit) in named.items():
            lines.append(f"{workload:8s} {k:28s} {v:.6g} {unit}")
    share = tally.failed / tally.attempted
    lines.append(f"attempted={tally.attempted} failed={tally.failed} "
                 f"failed_share={share:.4f} share")
    seen = {}
    for op_id, c in tally.failures:
        seen.setdefault((op_id, c.name, c.detail), 0)
        seen[(op_id, c.name, c.detail)] += 1
    for (op_id, name, detail), times in seen.items():
        known = checks_mod.KNOWN_DEFECTS.get(name)
        lines.append(f"FAILED x{times} {op_id} {name}: {detail}"
                     + (f" [known defect: {known}]" if known else ""))
    for k, (v, unit) in metrics.items():
        lines.append(f"{workload:8s} {k:44s} {v:.6g} {unit}")
    report.update(metrics={k: v[0] for k, v in metrics.items()},
                  failures=[(i, c.name, c.detail) for i, c in tally.failures],
                  attempted=tally.attempted, failed=tally.failed)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    _remove_csv(work)
    return tally, metrics, lines, report["environment"]


def _check_declared(metrics, traced):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    found = {k: v["unit"] for k, v in metrics.items()}
    if declared != found:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(declared.items()) ^ set(found.items()))}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["certify", "converge", "paths", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    ousym = _import_library()
    import checks
    import spans as trace_mod
    import workloads
    modules = (workloads, checks, trace_mod)
    names = (list(workloads.WORKLOAD_OPS) if args.workload == "all"
             else [args.workload])
    correct, attempted, failed, metrics = True, 0, 0, {}
    env = None
    for name in names:
        tally, m, lines, env = run_workload(name, args, ousym, modules)
        for line in lines:
            print(line)
        correct &= tally.correct
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in m.items()})
    if args.workload != "all":
        _check_declared(metrics, args.trace)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record alternated benchmark pairs of a parent checkout and this tree.

    python3 tools/bench.py pairs --base DIR --workload certify --pairs 10

Runs `python3 perfbench/run.py --workload W --seed S --seconds T` in the
checkout DIR (the parent, "base") and in this working tree ("change"),
K times each. Pair k runs seed FIRST_SEED + k on both sides, and which
side runs first alternates between pairs. Each run's last stdout line is
the benchmark's JSON summary: correct, attempted, failed and the gated
metrics. The script writes BENCH_<label>.json at the root of this tree,
holding the commits, nproc, Python and numpy; each side's median, first
and third quartile of every gated metric; the pairs each side won per
metric (ties count for neither); each side's failed and attempted
totals; and, per pair, whether the two sides' outputs_sha256 (the digest
of every op's output, from the run's `passes=... outputs_sha256=...` line)
matched. BENCHMARK.json gives the gated metrics, whether lower or higher is
better, and the run length.

The exit status is 1, after the file is written, when on some seed the two
sides' outputs digests differ (or a run printed none) or either side
failed an op; each such seed is printed to stderr.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
# seeds from 100 on are held out: perfbench's default seed 0 and the seeds
# just above it are the ones looked at while a change is written
FIRST_SEED = 100


def last_json(stdout):
    """The JSON object on the last non-blank line of a run's stdout."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    return json.loads(lines[-1])


def outputs_digest(stdout):
    """The outputs_sha256 field of a run's `passes=...` line; None if the
    run printed no such line."""
    for line in stdout.splitlines():
        if line.startswith("passes="):
            for field in line.split():
                key, _, val = field.partition("=")
                if key == "outputs_sha256":
                    return val
    return None


def same_outputs(base, change):
    """True when both runs recorded one and the same outputs digest."""
    digest = base.get("outputs_sha256")
    return digest is not None and digest == change.get("outputs_sha256")


def quartiles(values):
    """(Q1, median, Q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs, spec):
    """Median and quartiles of each gated metric over one side's runs,
    plus the failed and attempted totals."""
    out = {"failed": sum(r["failed"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs),
           "correct": all(r["correct"] for r in runs), "metrics": {}}
    for m in spec:
        q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"]
                                 for r in runs])
        out["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                     "unit": m["unit"]}
    return out


def pair_wins(pairs, spec):
    """Per metric, the pairs each side won; a tie counts for neither."""
    wins = {}
    for m in spec:
        sign = 1.0 if m["better"] == "lower" else -1.0
        count = {"base": 0, "change": 0, "ties": 0}
        for base, change in pairs:
            d = sign * (change["metrics"][m["name"]]["value"]
                        - base["metrics"][m["name"]]["value"])
            count["change" if d < 0 else "base" if d > 0 else "ties"] += 1
        wins[m["name"]] = count
    return wins


def report(pairs, spec, meta):
    """The BENCH file's content from (base, change) run summaries."""
    return dict(meta, pairs=len(pairs), pair_wins=pair_wins(pairs, spec),
                outputs_match=[same_outputs(b, c) for b, c in pairs],
                **{side: summarize([p[k] for p in pairs], spec)
                   for k, side in enumerate(SIDES)})


def faults(pairs):
    """One line per seed whose outputs digests differ between the sides or
    where either side failed an op; empty when the pairs are clean."""
    out = []
    for base, change in pairs:
        if not same_outputs(base, change):
            out.append(f"seed {base['seed']}: outputs_sha256 "
                       f"{base.get('outputs_sha256')} (base) != "
                       f"{change.get('outputs_sha256')} (change)")
        for side, run in zip(SIDES, (base, change)):
            if run["failed"] > 0:
                out.append(f"seed {base['seed']}: {side} failed "
                           f"{run['failed']} of {run['attempted']} ops")
    return out


def _git(path, *args):
    return subprocess.run(["git", "-C", path, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _commit(path):
    """HEAD of the checkout at path, with -dirty if a tracked file other
    than a BENCH_*.json differs from it: this script writes those, so a
    second workload recorded in one tree still reads as clean."""
    try:
        head = _git(path, "rev-parse", "HEAD")
        dirty = _git(path, "status", "--porcelain", "--untracked-files=no",
                     "--", ".", ":(exclude)BENCH_*.json")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def _run(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, check=True, capture_output=True, text=True)
    return dict(last_json(proc.stdout),
                outputs_sha256=outputs_digest(proc.stdout))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    q = sub.add_parser("pairs", help="alternated runs of DIR and this tree")
    q.add_argument("--base", required=True,
                   help="checkout of the parent commit")
    q.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    q.add_argument("--pairs", type=int, default=10)
    q.add_argument("--label", help="file name part (default: workload)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    seconds = bench["run_seconds"]
    dirs = {"base": os.path.abspath(args.base), "change": ROOT}
    # the commits measured, read before the first run
    commits = {side: _commit(d) for side, d in dirs.items()}
    pairs = []
    for k in range(args.pairs):
        seed = FIRST_SEED + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs = {}
        for side in order:
            runs[side] = _run(dirs[side], args.workload, seed, seconds)
            runs[side]["seed"] = seed
        pairs.append((runs["base"], runs["change"]))
        print(f"pair {k + 1}/{args.pairs} seed {seed}: " + "; ".join(
            f"{m['name']} {runs['base']['metrics'][m['name']]['value']:.4g}"
            f" -> {runs['change']['metrics'][m['name']]['value']:.4g}"
            for m in bench["end_to_end"]) + "; outputs "
            + ("match" if same_outputs(runs["base"], runs["change"])
               else "DIFFER"), flush=True)
    meta = {"workload": args.workload, "seconds": seconds,
            "seeds": [FIRST_SEED + k for k in range(args.pairs)],
            "first_side": "alternates, base first in pair 1",
            "commits": commits,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "runs": [{"base": b, "change": c} for b, c in pairs]}
    out = report(pairs, bench["end_to_end"], meta)
    dest = os.path.join(ROOT, f"BENCH_{args.label or args.workload}.json")
    with open(dest, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, count in out["pair_wins"].items():
        med = [out[side]["metrics"][name]["median"] for side in SIDES]
        print(f"{name}: median {med[0]:.4g} -> {med[1]:.4g}, change won "
              f"{count['change']}/{len(pairs)}")
    print(f"outputs matched on {sum(out['outputs_match'])}/{len(pairs)} "
          f"seeds")
    print(f"wrote {dest}")
    bad = faults(pairs)
    for line in bad:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

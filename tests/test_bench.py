"""tools/bench.py on canned benchmark output; no benchmark is run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
SPEC = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(wall, rate, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def test_last_json_reads_the_summary_line(bench):
    line = json.dumps(summary(0.25, 4.0))
    stdout = ("passes=3 ops/pass=32 outputs_sha256=ab\n"
              "environment: nproc=2\n" + line + "\n\n")
    assert bench.last_json(stdout) == summary(0.25, 4.0)
    with pytest.raises(ValueError):
        bench.last_json("\n")


def test_outputs_digest_reads_the_passes_line(bench):
    stdout = ("passes=27 ops/pass=32 outputs_sha256=7c8a\n"
              "certify  classify_s  0.01 s\n"
              "attempted=864 failed=0 failed_share=0.0000 share\n"
              + json.dumps(summary(0.25, 4.0)) + "\n")
    assert bench.outputs_digest(stdout) == "7c8a"
    # a traced run prints no passes line
    assert bench.outputs_digest("attempted=3 failed=0\n{}\n") is None


def test_report_marks_the_seeds_whose_outputs_match(bench):
    def run(digest):
        return dict(summary(1.0, 1.0), outputs_sha256=digest)

    pairs = [(run("ab"), run("ab")), (run("ab"), run("cd")),
             (run(None), run(None))]
    out = bench.report(pairs, SPEC, {})
    assert out["outputs_match"] == [True, False, False]


def test_report_quartiles_wins_and_failures(bench):
    pairs = [(summary(w, 1.0), summary(w - 0.1, r))
             for w, r in [(1.0, 2.0), (2.0, 1.0), (3.0, 0.5), (4.0, 1.0),
                          (5.0, 3.0)]]
    pairs[1] = (pairs[1][0], summary(2.5, 1.0, failed=2))
    out = bench.report(pairs, SPEC, {"workload": "w"})
    assert out["workload"] == "w" and out["pairs"] == 5
    base = out["base"]["metrics"]["wall_s"]
    assert (base["q1"], base["median"], base["q3"]) == (2.0, 3.0, 4.0)
    assert out["change"]["metrics"]["rate"]["median"] == 1.0
    # lower wall_s wins; higher rate wins; equal values are ties
    assert out["pair_wins"]["wall_s"] == {"base": 1, "change": 4, "ties": 0}
    assert out["pair_wins"]["rate"] == {"base": 1, "change": 2, "ties": 2}
    assert (out["base"]["failed"], out["change"]["failed"]) == (0, 2)
    assert out["change"]["attempted"] == 50 and not out["change"]["correct"]


def test_one_pair_has_degenerate_quartiles(bench):
    out = bench.report([(summary(1.0, 1.0), summary(0.5, 1.0))], SPEC, {})
    q = out["change"]["metrics"]["wall_s"]
    assert q["q1"] == q["median"] == q["q3"] == 0.5


# ten base runs whose interquartile range (0.045) is within the bound
TIGHT = [1.0 + 0.01 * k for k in range(10)]


@pytest.mark.parametrize("base,change,verdict", [
    # 10/10 wins, and the medians 0.2 apart, beyond the base IQR
    (TIGHT, [b - 0.2 for b in TIGHT], "better"),
    # a median 16% lower from 8 wins in 10 pairs claims nothing
    (TIGHT, [1.2, 1.2] + [0.84 * b for b in TIGHT[2:]], "same"),
    (TIGHT, [1.5 * b for b in TIGHT], "worse"),
    (TIGHT, [b + 0.01 for b in TIGHT], "same"),
    # a base IQR of 4.5 at a median of 5.5, beyond the bound
    ([float(k) for k in range(1, 11)],
     [float(k) for k in range(10, 0, -1)], "unresolved"),
    # the same spread tells nothing, even when the change medians worse
    ([float(k) for k in range(1, 11)], [9.0] * 10, "unresolved"),
    # a wide base, but every change run beats every base run
    ([1.0] * 5 + [3.0] * 5, [0.99] * 10, "same"),
], ids=["better", "pr-30", "worse", "within-bound", "spread",
        "spread-and-worse", "spread-but-every-run-beats"])
def test_verdict_per_metric(bench, base, change, verdict):
    # wall_s is lower-better; rate, higher-better, mirrors it
    pairs = [(summary(b, 1.0), summary(c, 1.0))
             for b, c in zip(base, change)]
    out = bench.report(pairs, SPEC, {})
    assert out["verdicts"]["wall_s"] == verdict
    mirrored = [(summary(1.0, -b), summary(1.0, -c))
                for b, c in zip(base, change)]
    assert bench.report(mirrored, SPEC, {})["verdicts"]["rate"] == verdict


def test_commit_ignores_the_bench_files_it_writes(bench, tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "BENCH_certify.json").write_text("{}\n")
    (tmp_path / "code.py").write_text("x = 1\n")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
        "-m", "init")
    head = bench._commit(str(tmp_path))
    assert len(head) == 40 and not head.endswith("-dirty")
    # a BENCH file recorded by an earlier workload leaves the tree clean
    (tmp_path / "BENCH_certify.json").write_text('{"pairs": 10}\n')
    assert bench._commit(str(tmp_path)) == head
    # any other edited file marks it dirty
    (tmp_path / "code.py").write_text("x = 2\n")
    assert bench._commit(str(tmp_path)) == head + "-dirty"


def canned_runs(monkeypatch, bench, tmp_path, runs):
    """Point main at tmp_path and make each run return the next canned
    summary, in the order main asks for them."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": SPEC}))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "_commit", lambda path: "abc")
    queue = iter(runs)
    monkeypatch.setattr(bench, "_run", lambda *_a: dict(next(queue)))


@pytest.mark.parametrize("second,code", [
    ({"digest": "ab"}, 0),
    ({"digest": "cd"}, 1),
    ({"digest": None}, 1),
    ({"digest": "ab", "failed": 1}, 1),
], ids=["clean", "outputs-differ", "no-digest", "failed-op"])
def test_pairs_exits_one_on_a_digest_mismatch_or_a_failed_op(
        monkeypatch, capsys, bench, tmp_path, second, code):
    def run(digest, failed=0):
        return dict(summary(1.0, 1.0, failed=failed), outputs_sha256=digest)

    # pair 1 runs base then change; pair 2 runs change then base
    runs = [run("ab"), run("ab"), run(**second), run("ab")]
    canned_runs(monkeypatch, bench, tmp_path, runs)
    assert bench.main(["pairs", "--base", str(tmp_path), "--workload", "w",
                       "--pairs", "2"]) == code
    # the BENCH file is written either way, with a verdict per metric,
    # which is printed too
    out = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert out["pairs"] == 2
    assert out["verdicts"] == {"wall_s": "same", "rate": "same"}
    captured = capsys.readouterr()
    assert "wall_s: median 1 -> 1, change won 0/2: same" in captured.out
    err = captured.err
    if code:
        assert err.startswith("FAIL seed 101: ")
    else:
        assert err == ""

"""Per-op correctness checks.

Each check is a pure function of an op's output (and the generated inputs)
and returns a list of Check records; a failed check is counted, never
raised, so one bad op does not stop the run. tests/test_controls.py feeds
each check a deliberately wrong output to show that it can fail.
"""

from dataclasses import dataclass

import numpy as np

VERIFY_TOL = 1e-6          # certified generator: max residual at most this
REJECT_FLOOR = 1e-3        # non-symmetry: max residual at least this
STRUCTURE_TOL = 1e-8
SCAN_FLOOR = 1e-2
OU_ORDER = (0.8, 1.2)
KOZLOV_ORDER = (0.35, 0.7)
CHI_TOL = 1e-12
IMAG_TOL = 1e-10
PATH_EQ_TOL = 1e-12
EXPR_ORACLE_TOL = 1e-9

# Checks that fail on the current library because of a known defect. They
# still run and still count in `failed`; they only leave `correct` alone.
KNOWN_DEFECTS = {
    "ensemble.variance": "euler_maruyama_ensemble never multiplies the "
                         "noise by mu",
    "ensemble.path_equals_single": "euler_maruyama_ensemble never "
                                   "multiplies the noise by mu",
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _c(name, ok, detail=""):
    return Check(name, bool(ok), detail)


def exit_code(code, stderr=""):
    return [_c("cli.exit_code", code == 0,
               f"exit {code} {stderr.strip()[-200:]}")]


def classify_payload(payload, case):
    tag, gens = payload.get("case_tag"), len(payload.get("generators", ()))
    return [_c("classify.case_tag", tag == case["expect_tag"],
               f"{tag} vs {case['expect_tag']}"),
            _c("classify.generators", gens == case["generators"],
               f"{gens} vs {case['generators']}")]


def invariants_payload(payload, case):
    dim = payload.get("affine_nullspace_dim")
    kind = "ChiBasis" if case["kind"] == "constant" else "Empty"
    n_inv = case["system"]["n"] if case["kind"] == "constant" else 0
    return [_c("invariants.nullspace_dim", dim == case["nullspace_dim"],
               f"{dim} vs {case['nullspace_dim']}"),
            _c("invariants.basis", payload.get("basis_kind") == kind
               and len(payload.get("generators", ())) == n_inv,
               f"{payload.get('basis_kind')} with "
               f"{len(payload.get('generators', ()))} generators")]


def verify_payload(payload, holds):
    r = payload.get("max_residual", float("nan"))
    if holds:
        return [_c("verify.residual", r <= VERIFY_TOL,
                   f"{r:.3e} <= {VERIFY_TOL:.0e}")]
    return [_c("verify.rejects", r >= REJECT_FLOOR,
               f"{r:.3e} >= {REJECT_FLOOR:.0e}")]


def structure_rows(rows):
    worst = max((row["max_discrepancy"] for row in rows), default=np.inf)
    return [_c("structure.discrepancy", len(rows) > 0
               and worst <= STRUCTURE_TOL, f"{worst:.3e} over {len(rows)}")]


def scan_minimum(values, expected_len):
    values = np.asarray(values, dtype=float)
    low = float(np.min(values)) if values.size else -np.inf
    return [_c("scan.minimum", values.shape == (expected_len,)
               and low >= SCAN_FLOOR, f"min {low:.3e} over {values.size}")]


def parse_convergence_csv(text):
    """(meta, rows) from write_convergence_csv output."""
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
        elif line and line[0].isdigit():
            rows.append(tuple(float(c) for c in line.split(",")))
    return meta, rows


def convergence(used, paths, order, band, rungs=None, expected_rungs=None):
    out = [_c("converge.used_paths", used == paths, f"{used} of {paths}"),
           _c("converge.order", band[0] <= order <= band[1],
              f"{order:.4f} in {band}")]
    if expected_rungs is not None:
        out.append(_c("converge.rungs", rungs == expected_rungs,
                      f"{rungs} vs {expected_rungs}"))
    return out


def csv_roundtrip(labels, times, states, path):
    ok = (tuple(labels or ()) == tuple(path.labels)
          and np.shape(states) == path.states.shape
          and np.array_equal(times, path.times)
          and np.array_equal(states, path.states))
    return [_c("csv.roundtrip", ok, f"{np.shape(states)} vs "
               f"{path.states.shape}")]


def chi_telescoping(times, states, w, system):
    """chi_i = w_i - v_i/mu_i - (beta_i/mu_i) x_i + (c_i/mu_i) t is constant
    along every constant-force Euler-Maruyama path."""
    n = system["n"]
    if np.shape(states) != (w.shape[1], 2 * n):
        return [_c("paths.chi_telescoping", False,
                   f"{np.shape(states)} rows for {w.shape[1]} grid points")]
    worst = 0.0
    for i in range(n):
        beta, mu = system["beta"][i], system["mu"][i]
        c = system["force"]["c"][i]
        chi = (w[i] - states[:, n + i] / mu - (beta / mu) * states[:, i]
               + (c / mu) * times)
        worst = max(worst, float(np.max(np.abs(chi - chi[0]))))
    return [_c("paths.chi_telescoping", worst <= CHI_TOL,
               f"{worst:.3e} <= {CHI_TOL:.0e}")]


def imag_leakage(meta):
    leak = float(meta.get("max_imag_leakage", "nan"))
    return [_c("paths.imag_leakage", leak <= IMAG_TOL,
               f"{leak:.3e} <= {IMAG_TOL:.0e}")]


def ensemble_variance(terminal_v, beta, mu):
    """Sample variance within 3 sigma of the stationary mu^2 / (2 beta)."""
    m = len(terminal_v)
    target = mu * mu / (2.0 * beta)
    band = 3.0 * target * np.sqrt(2.0 / (m - 1))
    var = float(np.var(terminal_v, ddof=1))
    return [_c("ensemble.variance", abs(var - target) <= band,
               f"{var:.4f} vs {target:.4f} +- {band:.4f}")]


def ensemble_paths(rows, singles):
    worst = max(float(np.max(np.abs(np.asarray(r) - np.asarray(s))))
                for r, s in zip(rows, singles))
    return [_c("ensemble.path_equals_single", worst <= PATH_EQ_TOL,
               f"{worst:.3e} <= {PATH_EQ_TOL:.0e}")]


def expr_oracle(states, oracle):
    ok = np.shape(states) == np.shape(oracle)
    worst = float(np.max(np.abs(states - oracle))) if ok else np.inf
    return [_c("paths.expr_oracle", ok and worst <= EXPR_ORACLE_TOL,
               f"{worst:.3e} <= {EXPR_ORACLE_TOL:.0e}")]


def row_count(rows, expected):
    return [_c("csv.rows", rows == expected, f"{rows} vs {expected}")]

"""Seeded input generator for the benchmark workloads.

Every system (beta, mu, force), initial state and probe/path seed is drawn
from the workload seed; the library only ever sees the generated inputs.
The *shape* of each input (dimension, force class, real or complex rates,
step counts) is fixed per workload, so the cost of a pass does not depend on
the seed: only the numbers change.

Validity constraints (each generated system is of the class it claims):
- regular linear forces have eigenvalues with |lambda| >= 0.5 and at least
  0.2 away from the critical damping value -beta^2/4, with distinct real
  eigenvalues at least 0.12 apart;
- isotropic systems repeat one beta and one mu in every component;
- "real-rate" isotropic systems keep every lambda > -beta^2/4 and make e1 an
  eigenvector, so exp(-kappa t)(d/dx1 - kappa d/dv1) is a certified mode
  that the verify command can express;
- the complex n=2 system has eigenvalues a +- ib with b >= 0.5;
- anisotropic constant systems draw distinct beta_i and mu_i.
"""

import numpy as np

WORKLOADS = ("certify", "converge", "paths")

# Parameter ranges, recorded here and summarised in BENCHMARK.json.
BETA_RANGE = (0.8, 2.5)
MU_RANGE = (0.5, 2.0)
LAMBDA_RANGE = (0.5, 3.0)          # real-rate isotropic eigenvalues
ENSEMBLE_MU_RANGE = (2.0, 3.0)     # mu != 1 keeps the ensemble defect visible
SCAN_KAPPAS = (-10.0, 10.0, 20001)


def _rng(workload, seed):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _seed(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def _u(rng, lo_hi):
    return float(rng.uniform(*lo_hi))


def _away(rng, lo_hi, forbidden, gap):
    """Uniform draw from lo_hi at least `gap` from each forbidden value."""
    while True:
        v = _u(rng, lo_hi)
        if all(abs(v - f) >= gap for f in forbidden):
            return v


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _system(n, beta, mu, force):
    return {"n": n, "beta": [float(b) for b in beta],
            "mu": [float(m) for m in mu], "force": force}


def _linear(L):
    return {"type": "linear", "L": np.asarray(L, dtype=float).tolist(),
            "K": [0.0] * len(L)}


def _num(x):
    """A float literal the force grammar accepts (negatives in parens)."""
    return f"({x!r})" if x < 0 else repr(x)


def iso_real_linear(rng, n):
    """Isotropic regular linear system with real rates and e1 an eigenvector.

    L = S diag(lam) S^-1 with S = [[1, s], [0, Q]], Q orthogonal, so L e1 =
    lam_1 e1 and the rest of L is dense.
    """
    beta, mu = _u(rng, BETA_RANGE), _u(rng, MU_RANGE)
    lo, hi = LAMBDA_RANGE
    lam = lo + (hi - lo) * (np.arange(n) + rng.uniform(0.2, 0.8, n)) / n
    lam = rng.permutation(lam)
    S = np.eye(n)
    if n > 1:
        S[0, 1:] = rng.uniform(-0.5, 0.5, n - 1)
        S[1:, 1:] = _orthogonal(rng, n - 1)
    L = S @ np.diag(lam) @ np.linalg.inv(S)
    L[1:, 0] = 0.0  # exact zeros: e1 is an eigenvector to rounding
    kappa = float(beta + np.sqrt(beta * beta + 4.0 * lam[0])) / 2.0
    return {"system": _system(n, [beta] * n, [mu] * n, _linear(L)),
            "kind": "linear", "expect_tag": "LinearPair1D" if n == 1
            else "LinearAbelian2n", "generators": 2 * n, "nullspace_dim": 0,
            "verify": f"expdecay:i=1,kappa={kappa!r}", "verify_holds": True}


def iso_complex_linear2(rng):
    """Isotropic n=2 linear system whose force has eigenvalues a +- ib."""
    beta, mu = _u(rng, BETA_RANGE), _u(rng, MU_RANGE)
    a = _away(rng, (-1.0, 1.0), [0.0], 0.3)
    b = _u(rng, (0.5, 2.0))
    th = _u(rng, (0.0, np.pi))
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    S = rot @ np.diag([1.0, _u(rng, (0.6, 1.5))])
    L = S @ np.array([[a, -b], [b, a]]) @ np.linalg.inv(S)
    # no real mode exists, so verify must reject a plain exp-decay field
    return {"system": _system(2, [beta] * 2, [mu] * 2, _linear(L)),
            "kind": "linear", "expect_tag": "LinearAbelian2n",
            "generators": 4, "nullspace_dim": 0,
            "verify": f"expdecay:i=1,kappa={beta!r}", "verify_holds": False}


def aniso_constant(rng, n):
    beta = BETA_RANGE[0] + (BETA_RANGE[1] - BETA_RANGE[0]) * (
        np.arange(n) + rng.uniform(0.2, 0.8, n)) / n
    mu = MU_RANGE[0] + (MU_RANGE[1] - MU_RANGE[0]) * (
        np.arange(n) + rng.uniform(0.2, 0.8, n)) / n
    beta = [float(b) for b in rng.permutation(beta)]
    mu = [float(m) for m in rng.permutation(mu)]
    c = rng.uniform(-2.0, 2.0, n)
    if n % 2:
        spec = (f"modulescaled:base=expdecay,i=1,kappa={beta[0]!r},"
                f"f=sin(chi1)")
    else:
        spec = f"expdecay:i={n},kappa={beta[-1]!r}"
    return {"system": _system(n, beta, mu,
                              {"type": "constant", "c": c.tolist()}),
            "kind": "constant", "expect_tag": "ConstantModule",
            "generators": 2 * n, "nullspace_dim": n, "verify": spec,
            "verify_holds": True}


def cubic1(rng):
    a = _u(rng, (0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
    b = _u(rng, (-1.0, 1.0))
    beta, mu = _u(rng, BETA_RANGE), _u(rng, MU_RANGE)
    expr = f"{_num(a)}*x1^3 + {_num(b)}*x1"
    return {"system": _system(1, [beta], [mu],
                              {"type": "expr", "components": [expr]}),
            "kind": "nonlinear", "expect_tag": "NoRealSimple",
            "generators": 0, "nullspace_dim": 0,
            "verify": f"expdecay:i=1,kappa={beta!r}", "verify_holds": False}


def radial2(rng):
    k, a = _u(rng, (0.5, 1.5)), _u(rng, (0.5, 1.5))
    beta, mu = _u(rng, BETA_RANGE), _u(rng, MU_RANGE)
    g = f"({k!r} + {a!r}*(x1^2 + x2^2))"
    return {"system": _system(2, [beta] * 2, [mu] * 2,
                              {"type": "expr",
                               "components": [f"{g}*x1", f"{g}*x2"]}),
            "kind": "nonlinear", "expect_tag": "NoRealSimple",
            "generators": 0, "nullspace_dim": 0,
            "verify": f"expdecay:i=1,kappa={beta!r}", "verify_holds": False}


def certify_inputs(rng):
    cases = {}
    for n in (1, 2, 4, 8):
        cases[f"iso{n}"] = (iso_complex_linear2(rng) if n == 2
                            else iso_real_linear(rng, n))
    for n in (1, 2, 3, 4):
        cases[f"const{n}"] = aniso_constant(rng, n)
    cases["cubic1"] = cubic1(rng)
    cases["radial2"] = radial2(rng)
    for case in cases.values():
        case["probe_seed"] = _seed(rng)
    return {"cases": cases, "structure_probe_seed": _seed(rng),
            "scan_case": "cubic1", "scan_kappas": SCAN_KAPPAS}


def _linear1(rng, complex_rates):
    if complex_rates:
        beta = _u(rng, (0.5, 1.5))
        lam = _u(rng, (-4.0, -beta * beta / 4.0 - 1.0))
    else:
        beta = _u(rng, (2.0, 3.0))
        lam = _u(rng, (-beta * beta / 4.0 + 0.2, -0.5))
    return _system(1, [beta], [_u(rng, MU_RANGE)], _linear([[lam]]))


def converge_inputs(rng, reduced=False):
    beta2 = _u(rng, (1.0, 2.0))
    lam2 = [_away(rng, (-2.0, -0.5), [-beta2 * beta2 / 4.0], 0.2)
            for _ in range(2)]
    while abs(lam2[0] - lam2[1]) < 0.12:
        lam2[1] = _away(rng, (-2.0, -0.5), [-beta2 * beta2 / 4.0], 0.2)
    Q = _orthogonal(rng, 2)
    systems = {
        "const1": _system(1, [_u(rng, BETA_RANGE)], [_u(rng, MU_RANGE)],
                          {"type": "constant",
                           "c": [_u(rng, (-1.0, 1.0))]}),
        "overdamped1": _linear1(rng, complex_rates=False),
        "underdamped1": _linear1(rng, complex_rates=True),
        "iso2": _system(2, [beta2] * 2, [_u(rng, MU_RANGE)] * 2,
                        _linear(Q @ np.diag(lam2) @ Q.T)),
    }
    cases = {name: {"system": s,
                    "x0": rng.uniform(-1.0, 1.0, 2 * s["n"]).tolist(),
                    "seed": _seed(rng)}
             for name, s in systems.items()}
    fixture = {"y0": _u(rng, (1.5, 2.5)), "seed": _seed(rng),
               "ladder": [16, 32, 64, 128, 256], "refine": 16,
               "paths": 200}
    # CLI defaults: 200 paths, ladder 5 from 8 steps, refine 64
    paths = 200
    if reduced:
        cases = {k: cases[k] for k in ("const1", "iso2")}
        paths = fixture["paths"] = 20
    return {"cases": cases, "paths": paths, "fixture": fixture}


def paths_inputs(rng, reduced=False):
    scale = 5 if reduced else 1
    ens_sys = _system(1, [_u(rng, (0.8, 1.5))], [_u(rng, ENSEMBLE_MU_RANGE)],
                      {"type": "constant", "c": [_u(rng, (-1.0, 1.0))]})
    ensemble = {"system": ens_sys, "x0": rng.uniform(-1.0, 1.0, 2).tolist(),
                "t1": 12.0, "steps": 6000, "paths": 10000 // scale,
                "seed": _seed(rng)}
    ensemble["sampled"] = sorted(int(i) for i in rng.choice(
        ensemble["paths"], 3, replace=False))

    const2 = aniso_constant(rng, 2)["system"]
    a, b = _u(rng, (0.5, 1.5)), _u(rng, (0.5, 1.5))
    expr = _system(1, [_u(rng, BETA_RANGE)], [_u(rng, MU_RANGE)],
                   {"type": "expr",
                    "components": [f"-{a!r}*x1^3 + {b!r}*sin(x1)"]})
    beta = _u(rng, (0.8, 1.5))
    lam = [-beta * beta / 4.0 - _u(rng, (0.5, 2.0)) for _ in range(2)]
    while abs(lam[0] - lam[1]) < 0.12:
        lam[1] = -beta * beta / 4.0 - _u(rng, (0.5, 2.0))
    Q = _orthogonal(rng, 2)
    lin2 = _system(2, [beta] * 2, [_u(rng, MU_RANGE)] * 2,
                   _linear(Q @ np.diag(lam) @ Q.T))

    def grid(system, steps):
        return {"system": system,
                "x0": rng.uniform(-1.0, 1.0, 2 * system["n"]).tolist(),
                "t1": 10.0, "steps": steps // scale, "seed": _seed(rng),
                "path_index": int(rng.integers(0, 1000))}

    simulate_expr = grid(expr, 20000)
    simulate_expr["oracle"] = {"a": a, "b": b}
    return {"ensemble": ensemble,
            "simulate": grid(const2, 100000),
            "simulate_expr": simulate_expr,
            "solve_constant": grid(const2, 100000),
            "solve_linear": grid(lin2, 100000)}


def generate(workload, seed, reduced=False):
    """All inputs of one workload as plain data (JSON-serialisable)."""
    rng = _rng(workload, seed)
    if workload == "certify":
        return certify_inputs(rng)
    if workload == "converge":
        return converge_inputs(rng, reduced)
    if workload == "paths":
        return paths_inputs(rng, reduced)
    raise ValueError(f"unknown workload {workload!r}")

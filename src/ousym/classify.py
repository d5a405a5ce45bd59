"""Case analysis: invariant ring and simple-symmetry algebra of an OU system.

The closed-form answers implemented here:

- Constant force: the invariant ring is generated by the n affine functions
  chi_i = w_i - v_i/mu_i - (beta_i/mu_i) x_i + (c_i/mu_i) t, and the symmetry
  set is a rank-2n module over that ring, generated by
  X_i = exp(-beta_i t)(d/dx_i - beta_i d/dv_i) and Y_i = d/dx_i.
- Regular linear force, isotropic (every n = 1 system is): no nontrivial
  invariants; exactly 2n commuting generators built from the eigenmodes of
  L with rates kappa_i_pm = (beta pm sqrt(beta^2 + 4 lambda_i)) / 2, the
  slower taken as -lambda_i / kappa_i_+ so that it does not cancel. They
  are a basis when L's eigenvector matrix is regular and no mode has
  kappa_i_+ = kappa_i_-.
- Second-order regular nonlinear force, isotropic: no real simple symmetry
  at all (the ghost scalings z d/dz are disregarded).
- Everything else is reported as TheoryIncomplete: for linear force the
  necessary linear constraint L R = [B, R] is solved and its null-space basis
  attached as uncertified candidates.

classify_symmetries follows this table: the two cases with generators only
choose them and their case fields, and one _certify and one bracket table
serve both; every TheoryIncomplete verdict is one return, its annotation
naming the row (degenerate linear, anisotropic linear, isotropic nonlinear
with degenerate Hessians, anisotropic nonlinear). The linear-mode basis
(eig, the rates, and the one scale-free witness that the 2n modes form a
basis, decided at classify_force's model._TOL) is formed once, by
_eigenmodes, which the mode emitter and the exact linear solver both read.

The case is decided by classify_force from the force's derivatives at the
probes, never from its Python class: an expression "1.5" or a linear force
with L = 0 is a constant force, and c is the force at the origin. Every
emitted generator and invariant is re-certified numerically against the
determining equations; classification output is checked, not trusted.
Each certificate is decided by symmetry._judge, the one relative rule:
every residual entry must be within CERT_REL = 1e-12 of its size (floored
at the smallest normal float), and a NaN entry fails. A force within
classify_force's 1e-8 of linear or of constant therefore gets no
certified generator unless the generator solves its equations to 1e-12.

The chi that classify_invariants certifies is ExtendedPoint.chi, the one
chi formula. verify's modulescaled generators and structure_constants read
it through _chi_scaled, the one way to scale a generator by a function of
the chi vector.
"""

from dataclasses import dataclass

import numpy as np

from . import duals
from .calculus import _contract, _field_jet, sample_probes, stack_probes
from .errors import (CertificationFailed, NonFiniteEvaluation,
                     NonPositiveFriction, NotDiagonalizable)
from .model import _TOL, _relative_rank, classify_force
from .symmetry import (ExpDecay, InvariantCandidate, SymmetryGenerator,
                       Translation, _component, _drift_jet, _family_json,
                       _invariant_conditions, _judge, _max_abs,
                       _residual_blocks, affine_invariant_nullspace,
                       solve_wsym_linear_constraint)


@dataclass(frozen=True)
class InvariantSet:
    basis_kind: str  # "Empty" | "ChiBasis"
    generators: tuple = ()
    annotation: str = ""
    affine_nullspace_dim: int = 0

    def to_json(self):
        return {
            "basis_kind": self.basis_kind,
            "generators": [
                {"label": g.label, "render": g.render(),
                 "a_x": list(g.affine.a_x), "a_v": list(g.affine.a_v),
                 "a_w": list(g.affine.a_w), "a_t": g.affine.a_t,
                 "a_0": g.affine.a_0}
                for g in self.generators],
            "annotation": self.annotation,
            "affine_nullspace_dim": self.affine_nullspace_dim,
        }


@dataclass(frozen=True)
class SymmetryAlgebra:
    case_tag: str  # NoRealSimple | LinearPair1D | LinearAbelian2n |
                   # ConstantModule | TheoryIncomplete
    system: object
    generators: tuple = ()
    module_rank: int = 0
    commutators: tuple = ()
    eigen_data: dict | None = None
    wsym_candidates: tuple = ()
    annotation: str = ""
    force_tag: str = ""

    def to_json(self):
        data = {
            "case_tag": self.case_tag,
            "force_tag": self.force_tag,
            "module_rank": self.module_rank,
            "generators": [{"label": g.label, "family": _family_json(g.family)}
                           for g in self.generators],
            "annotation": self.annotation,
            "commutators": [dict(row) for row in self.commutators],
        }
        if self.eigen_data is not None:
            data["eigen_data"] = {
                "eigenvalues": [_cplx(z) for z in self.eigen_data["eigenvalues"]],
                "kappa_pairs": [[_cplx(a), _cplx(b)]
                                for a, b in self.eigen_data["kappa_pairs"]],
                "M": [[_cplx(z) for z in row] for row in self.eigen_data["M"]],
            }
        data["wsym_candidates"] = [m.tolist() for m in self.wsym_candidates]
        return data


def _cplx(z):
    z = complex(z)
    return [z.real, z.imag]


def classify_invariants(sys, probes=None):
    """Invariant ring generators, or certified emptiness: each chi's
    invariance conditions must pass symmetry._judge, the one certification
    rule, at every probe, and the verdict must agree with the dimension
    of the affine null space, its own evidence: n for a constant force,
    0 for a regular linear one. A disagreement raises CertificationFailed
    and names both numbers."""
    if probes is None:
        probes = sample_probes(sys, count=32, seed=0)
    fc = classify_force(sys.force, probes=[p.x for p in probes])
    dim, _basis = affine_invariant_nullspace(sys, probes=probes)
    # the annotation of each verdict and the dimension it needs
    annotation, need = {
        "Constant": ("constant force: chi basis", sys.n),
        "LinearRegular": ("regular linear force admits no nontrivial "
                          "invariant", 0)}.get(fc.tag, (
            f"force class {fc.tag}: not classified by theory; affine "
            f"null-space solve attached as numerical check", dim))
    if dim != need:
        raise CertificationFailed(
            f"affine null-space dimension {dim} contradicts the {fc.tag} "
            f"verdict, which needs {need}")
    gens = ([InvariantCandidate.chi(sys, i) for i in range(1, sys.n + 1)]
            if fc.tag == "Constant" else [])
    p = stack_probes(probes)
    for g in gens:
        # what overflows, or is NaN where c = F(0) is undefined, fails the
        # gate below
        why = _judge(*_invariant_conditions(lambda q: [g(q)], sys, p))[1]
        if why:
            raise CertificationFailed(
                f"{g.label} failed invariance certification: {why}")
    return InvariantSet(basis_kind="ChiBasis" if gens else "Empty",
                        generators=tuple(gens), annotation=annotation,
                        affine_nullspace_dim=dim)


def mode_rates(beta, lam):
    """The kappa pairs (kappa+, kappa-) of the eigenvalues lam of L, one or
    an array of them, as complex values of lam's shape, for a finite
    beta > 0: kappa+ = (beta + sqrt(beta^2 + 4 lam)) / 2 and
    kappa- = -lam / kappa+, which does not cancel. When the root is
    purely imaginary, kappa- = (beta - sqrt) / 2, the exact conjugate of
    kappa+. Nothing else is refused: _eigenmodes decides whether the
    modes form a basis. numpy does not warn: a beta whose square overflows
    gives NaN rates, which _eigenmodes' witness refuses."""
    if not np.isfinite(beta):
        raise NonFiniteEvaluation(f"beta must be finite, got {beta}")
    if beta <= 0.0:
        raise NonPositiveFriction(f"beta must be positive, got {beta}")
    lam = np.asarray(lam, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sqrt(beta * beta + 4.0 * lam)
        kp = (beta + sq) / 2.0
        # 0.0 - lam, not -lam: a real lam keeps kappa-'s imaginary part +0.0
        km = np.where(sq.real == 0.0, (beta - sq) / 2.0, (0.0 - lam) / kp)
    return kp[()], km[()]


def _eigenmodes(L, beta):
    """The one linear-mode basis, read by _emit_linear_modes and the exact
    linear solver: L's eigenvalues lams and eigenvector matrix M, both
    complex, and each eigenvalue's kappa pair, from one call of
    mode_rates.

    The 2n modes' values at t = 0 are diag(M, M) times one block
    [[1, 1], [-kappa+, -kappa-]] per mode, so they form a basis when M is
    regular and no mode has kappa+ = kappa-. The one witness is the
    smaller of M's smallest relative singular value (model._relative_rank,
    the one rank rule's SVD) and min |kappa+ - kappa-| / |kappa+|. A
    witness below model._TOL, or NaN, raises NotDiagonalizable, naming
    it."""
    lams, M = np.linalg.eig(np.asarray(L, dtype=float))
    lams, M = lams.astype(complex), M.astype(complex)
    kp, km = mode_rates(beta, lams)
    # a NaN gap or singular value makes the witness NaN
    witness = np.min(np.abs(kp - km) / np.abs(kp),
                     initial=_relative_rank(M)[1])
    if not witness >= _TOL:
        raise NotDiagonalizable(f"the linear modes are not a basis: witness "
                                f"{witness:.3e} < {_TOL:.0e}")
    return lams, M, list(zip(kp, km))


def _emit_linear_modes(sys, L):
    """2n generators from the eigenmodes of L (_eigenmodes), pairing
    complex conjugate modes into real/imaginary parts, and the eigen data
    SymmetryAlgebra prints; classify_symmetries certifies them.

    eig lists each conjugate pair of eigenvalues together, the one with
    positive imaginary part first, with conjugate columns; the second is
    skipped. A real eigenvalue gives kappa+ then kappa- when its rates are
    real, else the real and imaginary parts of kappa+; a complex one gives
    the real and imaginary parts of kappa+, then of kappa-.
    """
    n = sys.n
    lams, M, rates = _eigenmodes(L, sys.beta[0])
    gens = []
    for lam, col, (kp, km) in zip(lams, M.T, rates):
        if lam.imag < 0:
            continue
        if lam.imag == 0 and kp.imag == 0:
            gens += [SymmetryGenerator.linear_mode(col, k.real, n, "re")
                     for k in (kp, km)]
            continue
        for k in (kp,) if lam.imag == 0 else (kp, km):
            gens += [SymmetryGenerator.linear_mode(col, k, n, part)
                     for part in ("re", "im")]
    return gens, {"eigenvalues": [complex(z) for z in lams],
                  "kappa_pairs": rates,
                  "M": [[complex(z) for z in row] for row in M]}


def _certify(gens, sys, probes):
    """Each entry of both determining blocks of every generator must pass
    symmetry._judge, the one certification rule, at every probe."""
    p = stack_probes(probes)
    # a residual that cannot be evaluated is NaN and fails the gate below,
    # as what overflows does (a mode whose exp(-kappa t) overflows at the
    # probes has a NaN Laplacian)
    drift = _drift_jet(sys, p)
    for g in gens:
        fres, sres, fsize, ssize = _residual_blocks(g, sys, p, drift)
        why = _judge(fres, fsize)[1] or _judge(sres, ssize)[1]
        if why:
            raise CertificationFailed(
                f"generator {g.label} failed the determining equations: {why}")


def _pairwise_brackets(gens, sys, probes):
    """(left, right, max |[left, right]|) over the stacked probes, for every
    pair of generators; each generator's jet is taken once, and all pairs
    are contracted at once, by index into the one stack of jets. Every
    emitted algebra has at least 2 generators."""
    p = stack_probes(probes)
    vals, jac = map(np.stack, zip(*(_field_jet(g.as_extended_field(sys), p)
                                    for g in gens)))
    left, right = np.triu_indices(len(gens), 1)
    # stacked probes: one probe axis after the coordinates
    worst = np.abs(_contract(vals, jac, left, right)).max(axis=(1, 2))
    return [(gens[a].label, gens[b].label, float(w))
            for a, b, w in zip(left, right, worst)]


def _quick_bracket_table(gens, sys, probes):
    """Pairwise max |[A, B]| over the first 4 probes, for the emitted
    basis."""
    return tuple((("left", left), ("right", right), ("max_abs_bracket", worst))
                 for left, right, worst
                 in _pairwise_brackets(gens, sys, probes[:4]))


def classify_symmetries(sys, probes=None):
    """Emit the simple-symmetry algebra for the closed-form cases; each
    emitted generator must meet the determining equations (_certify).

    The paper's case table: a constant force and an isotropic regular
    linear force each choose their generators and case fields, and the
    one certificate and bracket table below serve both; an isotropic
    regular nonlinear force has no real simple symmetry; everything else
    is TheoryIncomplete, with the W-constraint candidates of a linear
    force attached."""
    if probes is None:
        probes = sample_probes(sys, count=32, seed=0)
    fc = classify_force(sys.force, probes=[p.x for p in probes])
    n = sys.n
    if fc.tag == "Constant":
        gens = [SymmetryGenerator.exp_decay(i, b, n)
                for i, b in enumerate(sys.beta, 1)]
        gens += [SymmetryGenerator.translation(i, n) for i in range(1, n + 1)]
        case = dict(case_tag="ConstantModule", module_rank=2 * n,
                    annotation="X-set spans an abelian ideal; module over "
                               "the chi ring has rank 2n")
    elif fc.tag == "LinearRegular" and sys.isotropic:
        gens, eigen_data = _emit_linear_modes(sys, fc.L)
        case = dict(case_tag="LinearPair1D" if n == 1 else "LinearAbelian2n",
                    eigen_data=eigen_data,
                    annotation="2n commuting generators from the eigenmodes "
                               "of L")
    elif fc.tag == "NonlinearSecondOrderRegular" and sys.isotropic:
        return SymmetryAlgebra(
            case_tag="NoRealSimple", system=sys,
            annotation="second-order regular nonlinear force admits no "
                       "real simple symmetry (ghost scalings disregarded)",
            force_tag=fc.tag)
    else:
        if fc.tag == "LinearDegenerate":
            why = ("degenerate linear force: closed-form theory needs a "
                   "regular matrix; attached W-constraint null-space basis "
                   "is uncertified")
        elif fc.L is not None:
            why = ("anisotropic linear force: only the necessary W-matrix "
                   "constraint is solved; candidates are not certified "
                   "symmetries")
        elif sys.isotropic:
            why = ("nonlinear force with degenerate component Hessians: "
                   "outside the classified cases")
        else:
            why = "anisotropic nonlinear force: outside the classified cases"
        return SymmetryAlgebra(
            case_tag="TheoryIncomplete", system=sys, annotation=why,
            wsym_candidates=() if fc.L is None else tuple(
                solve_wsym_linear_constraint(fc.L, np.diag(sys.beta))),
            force_tag=fc.tag)
    _certify(gens, sys, probes)
    return SymmetryAlgebra(
        system=sys, generators=tuple(gens),
        commutators=_quick_bracket_table(gens, sys, probes),
        force_tag=fc.tag, **case)


def expdecay_residual_scan(sys, kappas, i=1, probes=None):
    """Brute-force no-symmetry search: for each rate in kappas, the max
    determining-equation residual of exp(-kappa t)(d/dx_i - kappa d/dv_i)
    over the probes. A NoRealSimple verdict is evidenced by the minimum of
    this scan staying well above zero.

    The residuals come from their closed form. phi depends on t only, so
    the dw block and the Ito Laplacian vanish and the x rows of the dt
    block cancel; the v rows are
        r_a(kappa, p) = exp(-kappa t_p) ((kappa^2 - beta_i kappa) delta_ai
                                         - dF_a/dx_i(x_p)),
    so the force Jacobian is taken once at the probes. The rate where the
    scan is smallest is re-evaluated through the determining equations
    (the blocks of SymmetryGenerator.exp_decay); the difference of the two
    maxima must pass symmetry._judge against the largest size of an entry
    of the blocks, or CertificationFailed is raised. A rate whose
    exp(-kappa t) overflows scores inf; a rate that is NaN or infinite, or
    whose terms overflow where exp(-kappa t) is 0, scores NaN. The rate
    re-checked is that of the smallest score that is not NaN; when no
    score is finite, there is no rate to re-check. NaN scores stay NaN in
    the result.
    """
    idx = _component(i, sys.n) - 1
    if probes is None:
        probes = sample_probes(sys, count=32, seed=0)
    st = stack_probes(probes)
    k = np.asarray(kappas, dtype=float).reshape(-1, 1)
    beta = sys.beta[idx]
    dF = sys.force.jacobian(st.x)[:, idx]  # (n, probes)
    # r_a for a != i does not depend on the rate; exp(-kappa t) > 0 factors
    # out of the max over a; a rate where it overflows scores inf
    off = np.delete(np.abs(dF), idx, axis=0).max(axis=0, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (np.exp(-k * st.t) * np.maximum(
            np.abs(k * k - beta * k - dF[idx]), off)).max(axis=1)
    # the smallest score that is not NaN is re-checked, if it is finite
    low = np.fmin.reduce(out, initial=np.inf)
    if np.isfinite(low):
        kap = float(k[np.nanargmin(out), 0])
        fres, sres, fsize, ssize = _residual_blocks(
            SymmetryGenerator.exp_decay(idx + 1, kap, sys.n), sys, st)
        worst = _max_abs([fres, sres])
        why = _judge(worst - low, _max_abs([fsize, ssize]))[1]
        if why:
            raise CertificationFailed(
                f"exp-decay scan at kappa={kap}: closed form {low:.3e}, "
                f"determining equations {worst:.3e}, difference {why}")
    return out


# --- commutator structure verification ---

def default_scaling_functions():
    """(label, callable on the chi vector) samples exercising both
    derivative terms of the module commutation relations."""
    return [
        ("1", lambda chis: 1.0),
        ("chi1", lambda chis: chis[0]),
        ("sin(chi1)", lambda chis: duals.sin(chis[0])),
        ("chi1^2", lambda chis: chis[0] * chis[0]),
    ]


def _chi_vector(sys, p):
    return [p.chi(sys, i) for i in range(sys.n)]


def _chi_scaled(X, sys, fn, label):
    """X scaled by fn of the chi vector (ExtendedPoint.chi at each point):
    the one way a generator is scaled by a function of the chi
    invariants."""
    return X.scaled(lambda p: fn(_chi_vector(sys, p)), label)


def structure_constants(alg, probes=None):
    """Verify the commutator table of the emitted algebra numerically.

    Returns a list of rows {left, right, predicted, max_discrepancy}. For
    the constant-force module, with f and g each of
    default_scaling_functions(), the predictions are
        [X_f^i, X_g^j] = 0
        [X_f^i, Y_g^j] = (beta_j/mu_j) f_j g X^i
        [Y_f^i, Y_g^j] = (beta_j/mu_j) f_j g Y^i - (beta_i/mu_i) f g_i Y^j
    with f_j the partial of f in chi_j. Each bracket comes from one jet per
    scaled field f X^i and f Y^i; each prediction is the right-hand side
    evaluated at the probes, from f, its chi-partials and the base fields'
    values, so it does not reuse the bracket. For the linear cases every
    pairwise bracket is predicted to vanish.
    """
    sys = alg.system
    if probes is None:
        probes = sample_probes(sys, count=5, seed=3)
    rows = []

    if alg.case_tag in ("LinearPair1D", "LinearAbelian2n"):
        return [{"left": left, "right": right, "predicted": "0",
                 "max_discrepancy": worst}
                for left, right, worst
                in _pairwise_brackets(alg.generators, sys, probes)]

    if alg.case_tag != "ConstantModule":
        return rows

    sample_fs = default_scaling_functions()
    n = sys.n
    X = [g for g in alg.generators if isinstance(g.family, ExpDecay)]
    Y = [g for g in alg.generators if isinstance(g.family, Translation)]
    p = stack_probes(probes)
    chis = _chi_vector(sys, p)
    fns = [f for _, f in sample_fs]
    shape = np.shape(p.t)

    def stacked(entries):
        return np.stack([duals._stacked(e, shape) for e in entries])

    # each f and its chi-partials at the probes, fv[k] and dv[k, j], the
    # partials from one jet per f seeded along every chi; the base fields'
    # values vX[i] and vY[i], one row per coordinate
    fv = duals._stacked([f(chis) for f in fns], shape)
    dv = np.stack([duals.jet(lambda s, f=f: [f(s)], chis,
                             np.eye(n)[:, None])[1][0] for f in fns])
    vX, vY = (stacked([g.as_extended_field(sys)(p) for g in G])
              for G in (X, Y))

    # the jets of fns[k] * G[i], each taken once, stacked k-major, the X
    # jets then the Y jets; bracket k is [left[k], right[k]], three
    # (X X, X Y, Y Y) per (a, b, i, j), in the order of the rows below
    vals, jac = map(np.stack, zip(*[
        _field_jet(_chi_scaled(g, sys, f, label).as_extended_field(sys), p)
        for G in (X, Y) for label, f in sample_fs for g in G]))
    ka, kb, ki, kj = (ix.ravel()
                      for ix in np.indices((len(fns), len(fns), n, n)))
    xl, xr, off = ka * n + ki, kb * n + kj, len(fns) * n
    left = np.stack([xl, xl, xl + off], axis=1).ravel()
    right = np.stack([xr, xr + off, xr + off], axis=1).ravel()
    brackets = _contract(vals, jac, left, right)

    # the predictions at [a, b, i, j]: cj = (beta_j/mu_j) f_j g and
    # ci = -(beta_i/mu_i) f g_i; 0, cj X^i and cj Y^i + ci Y^j
    coef = np.array([bt / mu for bt, mu in zip(sys.beta, sys.mu)])[:, None]
    cj = ((coef * dv)[:, None] * fv[None, :, None])[:, :, None, :, None]
    ci = ((-coef * fv[:, None])[:, None] * dv[None])[:, :, :, None, None]
    cx = cj * vX[:, None]
    predicted = np.stack([np.zeros_like(cx), cx, cj * vY[:, None] + ci * vY],
                         axis=4)
    worst = np.abs(brackets.reshape(predicted.shape) - predicted).max(
        axis=(5, 6))

    for a, (fl, _) in enumerate(sample_fs):
        for b, (gl, _) in enumerate(sample_fs):
            for i in range(n):
                for j in range(n):
                    xx, xy, yy = map(float, worst[a, b, i, j])
                    rows.append({
                        "left": f"{fl}*X{i + 1}", "right": f"{gl}*X{j + 1}",
                        "predicted": "0", "max_discrepancy": xx})
                    rows.append({
                        "left": f"{fl}*X{i + 1}", "right": f"{gl}*Y{j + 1}",
                        "predicted": f"(beta{j + 1}/mu{j + 1})*"
                                     f"d{j + 1}[{fl}]*{gl}*X{i + 1}",
                        "max_discrepancy": xy})
                    rows.append({
                        "left": f"{fl}*Y{i + 1}", "right": f"{gl}*Y{j + 1}",
                        "predicted": f"(beta{j + 1}/mu{j + 1})*"
                                     f"d{j + 1}[{fl}]*{gl}*Y{i + 1} - "
                                     f"(beta{i + 1}/mu{i + 1})*{fl}*"
                                     f"d{i + 1}[{gl}]*Y{j + 1}",
                        "max_discrepancy": yy})
    return rows

"""Symmetry generators and the numerical determining-equation machinery.

A simple W-symmetry of an Ito system dx = f dt + sigma dw is a vector field
phi over the state plus a constant matrix R = D + S (diagonal plus
skew-symmetric) acting on the Wiener processes, with no action on time. It
must satisfy two determining blocks at every point:

    (dt)  d_t phi^i + (f^j d_j phi^i - phi^j d_j f^i) + (1/2) Delta phi^i = 0
    (dw)  dhat_k phi^i + (sigma^j_k d_j phi^i - phi^j d_j sigma^i_k)
          - sigma^i_m R^m_k = 0

where d_j runs over state coordinates, dhat_k over Wiener coordinates, and
Delta is the Ito Laplacian. A scalar function Theta(x, t; w) is an invariant
(d Theta = 0 along the dynamics) iff n+1 conditions hold: one per active
Wiener process and one for the dt coefficient. An InvariantCandidate is
such a Theta given as a callable; InvariantCandidate.chi evaluates
ExtendedPoint.chi, the one chi formula, and carries its coefficients as an
AffineRecord, data for render() and to_json that is never evaluated.

Everything here is evaluated pointwise at probes with exact forward-mode
derivatives; nothing is trusted symbolically.

Every certificate is decided by one relative rule, _judge, with one
constant, CERT_REL = 1e-12: an entry r of a residual passes when
|r| <= max(CERT_REL * size, tiny), its size being the largest sum of the
absolute values of the terms of an entry of its block at its probe, and
tiny the smallest normal float, the floor for sizes that underflow. A
residual that is NaN or infinite fails. _residual_blocks and
_invariant_conditions return the sizes beside the residuals, from the
same Ito jet; the classify gates, scale_by_invariant, R's skew check and
the exact solver's leakage test all call _judge.

Every null space is taken by _null_space, whose rank is decided by
model._rank_rule, the one rank rule of the package (singular values at
least model._TOL times the largest): the affine-invariant solve applies
it to its conditions with each column scaled to a largest |entry| of 1,
the W-matrix constraint to its Kronecker matrix as it is.
"""

from dataclasses import dataclass

import numpy as np

from . import duals
from .calculus import (_force_at_origin, _gradients, _ito_jet,
                       extended_coords, sample_probes, stack_probes)
from .duals import value
from .errors import DimensionMismatch, NonFiniteResult, NotAnInvariant
from .model import _is_count, _rank_rule

# the one certification limit, relative to an entry's size (_judge)
CERT_REL = 1e-12


# --- structured family tags ---

@dataclass(frozen=True)
class ExpDecay:
    """exp(-kappa t) (d/dx_i - kappa d/dv_i)."""
    i: int
    kappa: float

    def to_json(self):
        return {"kind": "ExpDecay", "i": self.i, "kappa": self.kappa}


@dataclass(frozen=True)
class Translation:
    """d/dx_i."""
    i: int

    def to_json(self):
        return {"kind": "Translation", "i": self.i}


@dataclass(frozen=True)
class LinearMode:
    """Real or imaginary part of column M exp(-kappa t), complex kappa allowed."""
    kappa: complex
    part: str  # "re" | "im"

    def to_json(self):
        return {"kind": "LinearMode",
                "kappa": [self.kappa.real, self.kappa.imag], "part": self.part}


@dataclass(frozen=True)
class ModuleScaled:
    base: object
    scaling: str

    def to_json(self):
        return {"kind": "ModuleScaled", "scaling": self.scaling,
                "base": _family_json(self.base)}


GENERIC = "Generic"


def _family_json(fam):
    """JSON form of a family tag: a family dataclass or a plain name."""
    if fam is None or isinstance(fam, str):
        return {"kind": fam or "Generic"}
    return fam.to_json()


def _complex_profile(C, kappa, part):
    """Closure p -> part of C exp(-kappa p.t), for a complex constant
    vector C.

    Re: e^{-at} (Re C cos bt + Im C sin bt)
    Im: e^{-at} (Im C cos bt - Re C sin bt)
    for kappa = a + i b, the part picked here, once; Im takes its sine term
    as + (-Re C) sin bt, which rounds as - Re C sin bt does. Works with
    HyperDual t.
    """
    a, b = float(np.real(kappa)), float(np.imag(kappa))
    Cr = [float(np.real(c)) for c in C]
    Ci = [float(np.imag(c)) for c in C]
    # the coefficients of cos bt and of sin bt
    cos_c, sin_c = (Cr, Ci) if part == "re" else (Ci, [-c for c in Cr])

    def profile(p):
        envelope = duals.exp(-a * p.t)
        if b == 0.0:
            return [envelope * c for c in cos_c]
        cosb = duals.cos(b * p.t)
        sinb = duals.sin(b * p.t)
        return [envelope * (c * cosb + s * sinb)
                for c, s in zip(cos_c, sin_c)]

    return profile


def _component(i, n):
    """i itself, as an int, if it is an integer in 1..n; DimensionMismatch
    otherwise."""
    if not (_is_count(i) and i <= n):
        raise DimensionMismatch(f"component i={i} outside 1..{n}")
    return int(i)


class SymmetryGenerator:
    """Coefficient bundle phi over the state plus the constant W-matrix R."""

    def __init__(self, phi, state_dim, wiener_dim, R=None, family=GENERIC,
                 label="generator"):
        self.phi = phi
        self.state_dim = state_dim
        self.wiener_dim = wiener_dim
        self.R = (np.zeros((wiener_dim, wiener_dim)) if R is None
                  else np.array(R, dtype=float))
        if self.R.shape != (wiener_dim, wiener_dim):
            raise DimensionMismatch(
                f"R must be {wiener_dim}x{wiener_dim}, got {self.R.shape}")
        if not np.all(np.isfinite(self.R)):
            raise NonFiniteResult("R must be finite")
        offdiag = self.R - np.diag(np.diag(self.R))
        # an entry's terms are R_km and R_mk: at most 2 max |offdiag| each
        why = _judge(offdiag + offdiag.T, 2 * abs(offdiag).max(initial=0))[1]
        if why:
            raise DimensionMismatch(f"R is not skew off its diagonal: {why}")
        self.family = family
        self.label = label

    def __repr__(self):
        return f"SymmetryGenerator({self.label})"

    def as_extended_field(self, proc):
        """Vector field over extended_coords: phi, 0 on t, R w on Wiener.
        R's nonzero entries are read here, once (_r_entries); each R w
        component sums its row's entries from 0.0, in column order."""
        entries = _r_entries(self.R, proc)

        def field(p):
            w = [p.coord(c) for c in proc.wiener_coords]
            Rw = [0.0] * len(w)
            for k, m, r in entries:
                Rw[k] = Rw[k] + r * w[m]
            return [*self.phi(p), 0.0, *Rw]  # no action on time

        return field

    # -- closed-form families on the OU system (state dim 2n) --

    @staticmethod
    def exp_decay(i, kappa, n):
        """exp(-kappa t) (d/dx_i - kappa d/dv_i) on an n-dim OU system."""
        i = _component(i, n)
        idx = i - 1

        def phi(p):
            g = duals.exp(-kappa * p.t)
            out = [0.0] * (2 * n)
            out[idx] = g
            out[n + idx] = -kappa * g
            return out

        return SymmetryGenerator(
            phi, 2 * n, 2 * n, family=ExpDecay(i=i, kappa=kappa),
            label=_render_expdecay(i, kappa))

    @staticmethod
    def translation(i, n):
        """d/dx_i on an n-dim OU system."""
        i = _component(i, n)
        idx = i - 1

        def phi(p):
            out = [0.0] * (2 * n)
            out[idx] = 1.0
            return out

        return SymmetryGenerator(phi, 2 * n, 2 * n, family=Translation(i=i),
                                 label=f"d/dx{i}")

    @staticmethod
    def linear_mode(column, kappa, n, part="re"):
        """Mode field xi = part[M e^{-kappa t}], eta = part[-kappa M
        e^{-kappa t}], M the column: one profile over the 2n constants
        (M, -kappa M), so each evaluation takes e^{-a t} (and cos bt and
        sin bt) once for xi and eta."""
        column = np.asarray(column, dtype=complex)
        if column.shape != (n,):
            raise DimensionMismatch(f"column must have length {n}")
        phi = _complex_profile(np.concatenate([column, -kappa * column]),
                               kappa, part)
        return SymmetryGenerator(
            phi, 2 * n, 2 * n, family=LinearMode(kappa=complex(kappa), part=part),
            label=_render_linear_mode(column, kappa, part, n))

    def scaled(self, alpha_fn, scaling_label):
        """alpha-scaled copy, alpha a callable on points; alpha is not
        checked here (scale_by_invariant validates it first, and
        structure_constants scales by functions of the chi invariants)."""
        base_phi = self.phi

        def phi(p):
            a = alpha_fn(p)
            return [a * c for c in base_phi(p)]

        if np.any(self.R != 0.0):
            raise DimensionMismatch(
                "scaling a generator with nonzero R is not supported: "
                "R must remain a constant matrix")
        return SymmetryGenerator(
            phi, self.state_dim, self.wiener_dim, R=None,
            family=ModuleScaled(base=self.family, scaling=scaling_label),
            label=f"{scaling_label}*[{self.label}]")


def _r_entries(R, proc):
    """R's nonzero entries as (row, col, value), row-major: how R is read
    against the process. R must be W x W for proc's W Wiener coordinates,
    else DimensionMismatch."""
    size = len(proc.wiener_coords)
    if R.shape != (size, size):
        raise DimensionMismatch(f"R is {R.shape[0]}x{R.shape[1]}, the process "
                                f"has {size} Wiener coordinates")
    return [(k, m, R[k, m]) for k, m in zip(*np.nonzero(R))]


def _fmt(x):
    return f"{x:.10g}"


def _exp_head(rate):
    """Render exp(rate*t) with unit rates compressed."""
    if rate == 1.0:
        return "exp(t)"
    if rate == -1.0:
        return "exp(-t)"
    return f"exp({_fmt(rate)}t)"


def _render_expdecay(i, kappa):
    head = _exp_head(-kappa) if kappa != 0 else "1"
    sign = "-" if kappa >= 0 else "+"
    return f"{head}*(d/dx{i} {sign} {_fmt(abs(kappa))}*d/dv{i})"


def _join_signed(terms):
    """Signed terms joined by " + ", or by " - " before a term that starts
    with a minus; "0" for no terms."""
    out = terms[0] if terms else "0"
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _coef_str(c, complex_mode):
    c = complex(c)
    if complex_mode:
        return f"({_fmt(c.real)}{c.imag:+.10g}i)*"
    if c.real == 1.0:
        return ""
    if c.real == -1.0:
        return "-"
    return f"{_fmt(c.real)}*"


def _render_linear_mode(column, kappa, part, n):
    kappa = complex(kappa)
    complex_mode = (kappa.imag != 0.0) or bool(np.any(np.imag(column) != 0))
    terms = []
    for k in range(n):
        c = complex(column[k])
        if c != 0:
            terms.append(f"{_coef_str(c, complex_mode)}d/dx{k + 1}")
    for k in range(n):
        c = -kappa * complex(column[k])
        if c != 0:
            terms.append(f"{_coef_str(c, complex_mode)}d/dv{k + 1}")
    core = _join_signed(terms)
    if complex_mode:
        tag = "Re" if part == "re" else "Im"
        return (f"{tag}[exp(-({_fmt(kappa.real)}{kappa.imag:+.10g}i)t)"
                f"*({core})]")
    return f"{_exp_head(-kappa.real)}*({core})"


# --- invariant candidates ---

@dataclass(frozen=True)
class AffineRecord:
    """Theta = a_x . x + a_v . v + a_w . w + a_t t + a_0."""
    a_x: tuple
    a_v: tuple
    a_w: tuple
    a_t: float
    a_0: float = 0.0


class InvariantCandidate:
    """A scalar field Theta(x, v, t; w): the callable theta on points,
    which every check evaluates. affine, when given, holds the field's
    coefficients as data, for render() and InvariantSet.to_json; it is
    never evaluated."""

    def __init__(self, theta, affine=None, label="Theta"):
        self.theta = theta
        self.affine = affine
        self.label = label

    def __call__(self, p):
        return self.theta(p)

    @staticmethod
    def chi(sys, i):
        """chi_i as a candidate that evaluates ExtendedPoint.chi, the one
        chi formula, with its coefficients as an affine record: a_w = 1,
        a_v = -1/mu_i, a_x = -beta_i/mu_i and a_t = c_i/mu_i, c =
        _force_at_origin(sys). An invariant when the force is the constant
        c; for any other force a candidate that fails its invariance
        conditions."""
        n = sys.n
        i = _component(i, n)
        idx = i - 1
        mu_i, beta_i = sys.mu[idx], sys.beta[idx]
        affine = AffineRecord(
            a_x=tuple(-(beta_i / mu_i) if j == idx else 0.0 for j in range(n)),
            a_v=tuple(-1.0 / mu_i if j == idx else 0.0 for j in range(n)),
            a_w=tuple(1.0 if j == idx else 0.0 for j in range(n)),
            a_t=_force_at_origin(sys)[idx] / mu_i,
            a_0=0.0)
        return InvariantCandidate(lambda p: p.chi(sys, idx), affine=affine,
                                  label=f"chi{i}")

    def render(self):
        if self.affine is None:
            return self.label
        return render_affine(self.affine)


def render_affine(affine):
    parts = []
    for coeffs, stem in ((affine.a_w, "w"), (affine.a_v, "v"),
                         (affine.a_x, "x")):
        for j, c in enumerate(coeffs):
            if c != 0.0:
                parts.append((c, f"{stem}{j + 1}"))
    if affine.a_t != 0.0:
        parts.append((affine.a_t, "t"))
    if affine.a_0 != 0.0 or not parts:
        parts.append((affine.a_0, ""))
    terms = []
    for c, name in parts:
        mag = abs(c)
        term = name if (mag == 1.0 and name) else (
            f"{_fmt(mag)}*{name}" if name else _fmt(mag))
        terms.append(f"-{term}" if c < 0 else term)
    return _join_signed(terms)


# --- residual evaluation ---

def _drift_jet(sys, p):
    """What the determining equations read of the system at p: the drift's
    values and Jacobian, and the Jacobian of a state-dependent sigma (None
    for a constant one). It does not depend on the generator, so every
    generator checked at p can share one. What overflows shows as a
    non-finite entry, not as a numpy warning, here and in the residuals."""
    with np.errstate(over="ignore", invalid="ignore"):
        fvals, ddrift = _gradients(sys.drift, p)
        dsig = None
        if not sys.sigma_is_constant:
            _, dsig = _gradients(
                lambda q: [e for row in sys.sigma(q) for e in row], p)
    return fvals, ddrift, dsig


def _judge(r, size):
    """The one certification rule. An entry r passes when
    |r| <= max(CERT_REL * size, tiny): size is the scale of the terms that
    r adds up (the largest sum of their absolute values over r's block, see
    _residual_blocks), tiny the smallest normal float, the floor for sizes
    that underflow. A residual that is NaN or infinite fails, as does a NaN
    size. r and size broadcast together.

    Returns (ok, why): the verdict per entry, and None when every entry
    passes, else "|r| at term size s > limit l" for the worst entry that
    fails: the first NaN residual, else the largest |r|."""
    r = np.abs(r)
    limit = np.maximum(CERT_REL * size, np.finfo(float).tiny)
    ok = (r <= limit) & np.isfinite(r)
    if ok.all():
        return ok, None
    k = np.argmax(np.where(ok, -1.0, r))  # the first NaN, else the largest
    r, size, limit = (a.flat[k] for a in np.broadcast_arrays(r, size, limit))
    return ok, f"{r:.3e} at term size {size:.3e} > limit {limit:.3e}"


def _residual_blocks(X, sys, p, drift=None):
    """Both determining blocks of X at p: the dt block (one row per state
    coord) and the dw block (state rows, Wiener columns), then the size of
    each block's entries at each probe (probe axes only, for _judge), from
    one Ito jet of phi plus the system's _drift_jet at p (taken here when
    not given).

    A dt entry's terms are d_t phi, (1/2) Delta phi, each f^j d_j phi and
    each phi^j d_j f; a dw entry's are D_k phi, each sigma_jk d_j phi, each
    phi^j d_j sigma and each sigma R term. An entry's size is the largest
    sum of |terms| over the entries of its block at its probe: a mode from
    eig is accurate in norm, not entry by entry, so an entry whose own
    terms all nearly vanish is judged on the scale of its block."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi, dphi, dphi_t, dw, lap, ssize = _ito_jet(X.phi, sys, p)
        coords = extended_coords(p)
        S = [coords.index(c) for c in sys.state_coords]
        if len(phi) != len(S):
            raise DimensionMismatch(f"generator has {len(phi)} components "
                                    f"for state dim {len(S)}")
        fvals, ddrift, dsig = drift or _drift_jet(sys, p)
        # in the order they are summed; x - y rounds as x + (-y) does
        terms = [dphi_t, 0.5 * lap] + [t for j, Sj in enumerate(S) for t in (
            fvals[j] * dphi[:, j], -(phi[j] * ddrift[:, Sj]))]
        fres, fsize = sum(terms[1:], terms[0]), np.abs(np.stack(terms)).sum(0)
        sres = dw
        if dsig is not None:
            dsig = dsig.reshape(dw.shape[:2] + dsig.shape[1:])
            pulls = [-(phi[j] * dsig[:, :, Sj]) for j, Sj in enumerate(S)]
            sres, ssize = sum(pulls, sres), ssize + sum(map(np.abs, pulls))
        sig = sys.sigma(p)
        for m, k, r in _r_entries(X.R, sys):
            for i, row in enumerate(sig):
                sres[i, k] = sres[i, k] - row[m] * r
                ssize[i, k] = ssize[i, k] + np.abs(row[m] * r)
    return fres, sres, fsize.max(axis=0), ssize.max(axis=(0, 1))


def f_residual(X, sys, p):
    """Left side of the dt determining block, one entry per state coord."""
    return _residual_blocks(X, sys, p)[0]


def sigma_residual(X, sys, p):
    """Left side of the dw determining block: state rows, Wiener columns."""
    return _residual_blocks(X, sys, p)[1]


def _invariant_conditions(fvec, sys, p):
    """The invariance conditions of every component of fvec at p, from one
    Ito jet: the active dw coefficients, then the dt one; condition axis
    first, then the components. Returns them and each one's size for
    _judge: a dw condition's terms are D_k Theta and each sigma_jk d_j
    Theta, the dt one's d_t Theta, (1/2) Delta Theta and each f^j d_j
    Theta, and a condition's size is the largest sum of |terms| over its
    block at its probe (as in _residual_blocks), the dw conditions of a
    component being one block and its dt condition another. What
    overflows shows as a non-finite condition, not as a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, dth, dth_t, dw, lap, dw_size = _ito_jet(fvec, sys, p)
        terms = [dth_t, 0.5 * lap] + [dth[:, j] * value(f)
                                      for j, f in enumerate(sys.drift(p))]
        acc, size = sum(terms[1:], terms[0]), np.abs(np.stack(terms)).sum(0)
    W = list(sys.wiener_coords)
    active = [W.index(c) for c in sys.active_wiener_coords]
    dw_size = dw_size[:, active].max(axis=1, initial=0.0)
    return (np.concatenate([np.swapaxes(dw[:, active], 0, 1), acc[None]]),
            np.stack([dw_size] * len(active) + [size]))


def invariant_residual(theta, sys, p):
    """n+1 invariance conditions: active dw coefficients, then the dt one."""
    return _invariant_conditions(lambda q: [theta(q)], sys, p)[0][:, 0]


def _max_abs(entries):
    """Largest |entry| over residual entries (scalars or probe arrays);
    NaN if any entry holds NaN, wherever it sits."""
    return float(np.max(np.abs(np.concatenate(
        [np.ravel(e) for e in entries]))))


def max_residuals(X, sys, probes):
    """Max |f-residual| and |sigma-residual| over a probe set (batched).
    What overflows shows as a non-finite maximum, not as a numpy warning,
    and a residual that cannot be evaluated (a Laplacian that is not
    finite) as a NaN one, not as an error."""
    fres, sres = _residual_blocks(X, sys, stack_probes(probes))[:2]
    return _max_abs([fres]), _max_abs([sres])


def max_invariant_residual(theta, sys, probes):
    return _max_abs(invariant_residual(theta, sys, stack_probes(probes)))


def scale_by_invariant(X, alpha, sys, probes=None):
    """Multiply a generator by an invariant; validates alpha first: each
    of its invariance conditions at the probes must pass _judge against
    its size, and a condition that cannot be evaluated (NaN) fails
    (NotAnInvariant)."""
    if probes is None:
        probes = sample_probes(sys, count=50, seed=7)
    label = getattr(alpha, "label", "alpha")
    why = _judge(*_invariant_conditions(lambda q: [alpha(q)], sys,
                                        stack_probes(probes)))[1]
    if why:
        raise NotAnInvariant(f"{label} fails the invariance conditions: {why}")
    return X.scaled(alpha, label)


# --- linear W-symmetry constraint ---

def _null_space(A):
    """Orthonormal basis (columns) of the null space of A by SVD, its rank
    decided by model._rank_rule, the one rank rule: singular values below
    _TOL times the largest count as zero. A non-finite A raises
    NonFiniteResult."""
    if not np.all(np.isfinite(A)):
        raise NonFiniteResult("null-space matrix is not finite")
    # U is never read; vh is square either way, and only a wide A needs
    # the full one for its null rows
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    return vh[_rank_rule(s)[0]:].T


def solve_wsym_linear_constraint(L, B):
    """Basis of solutions R of  L R = B R - R B  (B diagonal).

    Vectorized column-major: [(I kron L) - (I kron B) + (B^T kron I)] vec R = 0;
    the null space is computed by SVD, at the one rank rule (_null_space).
    The Kronecker columns are not scaled: a resonant column, zero up to
    rounding, would become a unit column. Empty list means only R = 0
    solves.
    """
    L = np.asarray(L, dtype=float)
    B = np.asarray(B, dtype=float)
    if L.shape != B.shape or L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionMismatch("L and B must be square of equal size")
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(B))):
        raise NonFiniteResult("L and B must be finite")
    if np.max(np.abs(B - np.diag(np.diag(B)))) > 0.0:
        raise DimensionMismatch("B must be diagonal")
    n = L.shape[0]
    eye = np.eye(n)
    M = np.kron(eye, L) - np.kron(eye, B) + np.kron(B.T, eye)
    ns = _null_space(M)
    return [ns[:, k].reshape((n, n), order="F") for k in range(ns.shape[1])]


# --- affine invariant solver ---

def affine_invariant_nullspace(sys, probes=None):
    """Solve the invariance conditions over affine Theta (constant excluded).

    Coefficients are ordered (a_x, a_v, a_w, a_t); a_0 never enters any
    condition, so constants are quotiented out. The a_v column carries mu
    and the force, so each column of the stacked conditions is scaled to a
    largest |entry| of 1 before the one rank rule (_null_space) decides
    the dimension; the null vectors are mapped back and re-orthonormalized.
    Returns (dimension, list of AffineRecord basis elements); conditions
    that are not finite raise NonFiniteResult.
    """
    n = sys.n
    if probes is None:
        probes = sample_probes(sys, count=max(32, 3 * n + 4), seed=11)
    # column c holds the conditions on coordinate function c, probes inner;
    # a zero column is not scaled, nor one that is not finite, which
    # _null_space rejects
    rows = _invariant_conditions(lambda q: [*q.x, *q.v, *q.w, q.t], sys,
                                 stack_probes(probes))[0]
    A = np.swapaxes(rows, 1, 2).reshape(-1, 3 * n + 1)
    scale = np.abs(A).max(axis=0)
    scale = np.where((scale > 0.0) & (scale < np.inf), scale, 1.0)
    ns = np.linalg.qr(_null_space(A / scale) / scale[:, None])[0]
    return ns.shape[1], [AffineRecord(
        a_x=tuple(vec[0:n]), a_v=tuple(vec[n:2 * n]),
        a_w=tuple(vec[2 * n:3 * n]), a_t=float(vec[3 * n]), a_0=0.0)
        for vec in ns.T]

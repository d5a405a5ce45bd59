"""System definitions: force fields, the OU system, and force classification.

The dynamics integrated and analysed everywhere in this package are

    dx^i = v^i dt
    dv^i = (F^i(x) - beta_i v^i) dt + mu_i dw^i

with finite beta_i > 0 and mu_i != 0. The state has dimension 2n; the
driving Wiener space is formally 2n-dimensional, with n active processes w
and n ghost processes z that never enter the equations. The diffusion matrix
is therefore block-degenerate: zero rows for the x components, diagonal mu
on the v rows, zero columns for the ghosts.
"""

from dataclasses import dataclass

import numpy as np

from . import duals
from .errors import (DimensionMismatch, EmptyProbeSet, NonFiniteEvaluation,
                     NonPositiveFriction, UnclassifiableForce, ZeroNoise)
from .expressions import parse_force_expression


# relative threshold of every zero and singularity decision in classify_force
# and of every rank (_rank_rule)
_TOL = 1e-8


def _float_array(values):
    """np.array(values, dtype=float), reading an integer too large for a
    float as +-inf, as JSON reads 1e400: the finite checks refuse both."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        if isinstance(values, int):
            return np.array(np.inf if values > 0 else -np.inf)
        return np.array([_float_array(v) for v in values])


def _numbers(values, what):
    """values as a tuple of floats, an integer read by _float_array;
    anything but a flat sequence of numbers raises DimensionMismatch. A
    string is not one: float() would read it character by character, or
    read "1.5" as a number."""
    try:
        vals = list(values)
        if isinstance(values, str) or any(isinstance(v, str) for v in vals):
            raise TypeError
        return tuple(float(_float_array(v) if isinstance(v, int) else v)
                     for v in vals)
    except TypeError:
        raise DimensionMismatch(
            f"{what} must be a list of numbers, got {values!r}") from None


def _is_count(k, low=1):
    """True for an int or numpy integer >= low. The one rule for every
    integer argument (counts, seeds, path indices, rungs, components, n):
    a bool, a float and a string are not integers, whatever their value."""
    return (isinstance(k, (int, np.integer)) and not isinstance(k, bool)
            and k >= low)


def default_x_probes(n):
    """32 probe points in [-2, 2]^n, seed 0, for force classification."""
    rng = np.random.default_rng(0)
    return [tuple(row) for row in rng.uniform(-2.0, 2.0, size=(32, n))]


class ForceField:
    """Base class: a map R^n -> R^n with derivative access.

    evaluate() accepts plain floats, numpy arrays (batched points), or
    HyperDual coordinates, and returns one entry per component.
    """

    n = 0

    def evaluate(self, x):
        raise NotImplementedError

    def _rows(self, x):
        """F on a (paths, n) batch of positions: a (paths, n) array, or
        one (n,) row that every path shares."""
        out = np.empty(x.shape)
        for j, col in enumerate(self.evaluate(list(x.T))):
            out[:, j] = col
        return out

    def _floats(self, xs):
        """F at one position given as a list of Python floats, as floats."""
        # numpy scalars give the guard inf or NaN where Python floats raise
        return [float(f) for f in self.evaluate([np.float64(s) for s in xs])]

    def _derivatives(self, x, second=True):
        """Values, Jacobian and Hessians of F at x, from one evaluation.

        x is a point of floats or of stacked probe columns (arrays of one
        shape). e1 = I runs along the first seed axis and e2 = I along the
        second, so f1 carries dF^i/dx^j (f1 never reads e2) and f12 carries
        d2F^i/dx^j dx^k. Returns the values of shape (n,), the Jacobian of
        shape (n, n) and the Hessians of shape (n, n, n), component first,
        all followed by the probe axes. second=False seeds e1 alone and
        returns None for the Hessians; the Jacobian has the same bits.
        """
        n = self.n
        pad = (1,) * len(np.broadcast_shapes(*map(np.shape, x)))
        eye = np.eye(n)
        vals, d1, d12 = duals.jet(
            self.evaluate, x, eye.reshape((n, 1) + pad + (n,)),
            eye.reshape((1, n) + pad + (n,)) if second else None)
        if not second:
            return vals, d1[:, :, 0], None
        # (j, k) and (k, j) can round differently; mirror the upper triangle
        upper = np.triu(np.ones((n, n), dtype=bool)).reshape((n, n) + pad)
        return vals, d1[:, :, 0], np.where(upper, d12, np.swapaxes(d12, 1, 2))

    def jacobian(self, x):
        """dF^i/dx^j at x, exact via hyper-duals, seeded to first order
        only (see _derivatives).

        x is a point of floats or of stacked probe columns (arrays of one
        shape); the result has shape (n, n) followed by the probe axes.
        """
        return self._derivatives(x, second=False)[1]

    def hessians(self, x):
        """List of the n symmetric matrices (H_i)_{jk} = d2 F^i / dx^j dx^k.

        x is as for jacobian; each matrix has shape (n, n) followed by the
        probe axes.
        """
        return list(self._derivatives(x)[2])


class ConstantForce(ForceField):
    """F(x) = c with finite entries. Jacobian is exactly zero."""

    def __init__(self, c):
        self.c = _numbers(c, "constant force c")
        if not all(np.isfinite(self.c)):
            raise NonFiniteEvaluation(
                f"constant force must be finite, got {list(self.c)}")
        self.n = len(self.c)
        self._row = np.array(self.c)

    def evaluate(self, x):
        return list(self.c)

    def _rows(self, x):
        return self._row

    def _floats(self, xs):
        return self.c

    def __repr__(self):
        return f"ConstantForce(c={list(self.c)})"


class LinearForce(ForceField):
    """F(x) = L x + K with finite entries. The Jacobian returned is L
    itself, exactly."""

    def __init__(self, L, K=None):
        self.L = _float_array(L)
        if self.L.ndim != 2 or self.L.shape[0] != self.L.shape[1]:
            raise DimensionMismatch("L must be a square matrix")
        self.n = self.L.shape[0]
        self.K = np.zeros(self.n) if K is None else _float_array(K)
        if self.K.shape != (self.n,):
            raise DimensionMismatch("K length must match L")
        if not (np.isfinite(self.L).all() and np.isfinite(self.K).all()):
            raise NonFiniteEvaluation(
                f"linear force must be finite, got L = {self.L.tolist()} "
                f"and K = {self.K.tolist()}")

    def evaluate(self, x):
        out = []
        for i in range(self.n):
            acc = self.K[i]
            for j in range(self.n):
                if self.L[i, j] != 0.0:
                    acc = acc + self.L[i, j] * x[j]
            out.append(acc)
        return out

    def _rows(self, x):
        # a stacked matmul rounds like L @ x on each path; x @ L.T does not
        return (self.L @ x[..., None])[..., 0] + self.K

    def _floats(self, xs):
        # the matrix-vector product rounds like _rows; a row sum does not
        return (self.L.dot(xs) + self.K).tolist()

    def __repr__(self):
        return f"LinearForce(L={self.L.tolist()}, K={self.K.tolist()})"


class ExpressionForce(ForceField):
    """F given by parsed component expressions over x1..xn."""

    def __init__(self, n, trees, source=None):
        if len(trees) != n:
            raise DimensionMismatch(
                f"{len(trees)} component trees for dimension {n}")
        self.n = n
        self.trees = tuple(trees)
        self.source = source

    def evaluate(self, x):
        xs = list(x)
        return [tree.evaluate(xs) for tree in self.trees]

    def __repr__(self):
        src = self.source or "; ".join(t.render() for t in self.trees)
        return f"ExpressionForce(n={self.n}, {src!r})"


@dataclass(frozen=True)
class ForceClass:
    """Outcome of the regularity decision tree. For a linear tag, L is the
    Jacobian and rank the count of its singular values at least _TOL times
    its largest: the tag is LinearRegular exactly when rank == n."""

    tag: str  # Constant | LinearRegular | LinearDegenerate |
              # NonlinearSecondOrderRegular | NonlinearSecondOrderDegenerate
    L: np.ndarray | None = None
    rank: int | None = None
    detail: str = ""


def _rank_rule(s):
    """The one rank rule of the package, on the singular values s of each
    matrix of a stack, largest first: the count of those at least _TOL
    times the largest, and the smallest over the largest (0 and 0 for a
    zero matrix, 0 and 1 for a matrix without singular values)."""
    top = s[..., :1]
    rel = s / np.where(top == 0.0, 1.0, top)
    return (rel >= _TOL).sum(axis=-1), rel.min(axis=-1, initial=1.0)


def _relative_rank(M):
    """_rank_rule of one SVD of each matrix of the stack M."""
    return _rank_rule(np.linalg.svd(M, compute_uv=False))


def classify_force(force, probes=None):
    """Classify a force field at probe points, from one seeded evaluation
    of the force over all of them.

    Decision tree: zero Jacobian at every probe -> Constant; zero Hessians
    with a Jacobian L of full rank (resp. lower rank) -> LinearRegular
    (resp. LinearDegenerate); otherwise second-order regularity is decided
    by the full rank of all n component Hessian matrices at every probe.
    Every rank is _relative_rank's, from one SVD. Probes that disagree
    raise UnclassifiableForce.
    """
    if probes is None:
        probes = default_x_probes(force.n)
    probes = [tuple(float(c) for c in p) for p in probes]
    if len(probes) == 0:
        raise EmptyProbeSet("classify_force needs at least one probe")
    for p in probes:
        if len(p) != force.n:
            raise DimensionMismatch(
                f"probe of length {len(p)} for dimension {force.n}")
        if not all(np.isfinite(c) for c in p):
            raise NonFiniteEvaluation(f"non-finite probe {p}")

    # every probe at once, as stacked columns; the probe axis first below;
    # what overflows fails the finite checks that follow
    with np.errstate(over="ignore", invalid="ignore"):
        values, jac, hess = (np.moveaxis(a, -1, 0) for a in
                             force._derivatives(
                                 [np.array(c) for c in zip(*probes)]))
    bad_value = ~np.isfinite(values).all(axis=1)
    bad = bad_value | ~(np.isfinite(jac).all(axis=(1, 2))
                        & np.isfinite(hess).all(axis=(1, 2, 3)))
    if bad.any():
        k = int(np.argmax(bad))
        if bad_value[k]:
            raise NonFiniteEvaluation(f"force non-finite at probe {probes[k]}")
        raise NonFiniteEvaluation(
            f"force derivatives non-finite at {probes[k]}")

    atol = _TOL * max(1.0, float(np.abs(values).max()),
                      float(np.abs(jac).max()))
    jac_zero = np.abs(jac).max(axis=(1, 2)) <= atol
    hess_zero = np.abs(hess).max(axis=(1, 2, 3)) <= atol

    if jac_zero.all():
        return ForceClass(tag="Constant", detail="zero Jacobian at all probes")
    if jac_zero.any():
        raise UnclassifiableForce(
            "Jacobian vanishes at some probes but not others")

    if hess_zero.all():
        L = jac[0]
        if float(np.abs(jac - L).max()) > atol:
            raise UnclassifiableForce(
                "zero Hessians but probe-dependent Jacobian")
        rank, rel = _relative_rank(L)
        tag = "LinearRegular" if rank == force.n else "LinearDegenerate"
        return ForceClass(tag=tag, L=L.copy(), rank=int(rank),
                          detail=f"smallest relative singular value {rel:.3e}")
    if hess_zero.any():
        raise UnclassifiableForce(
            "Hessians vanish at some probes but not others")

    regular = (_relative_rank(hess)[0] == force.n).all(axis=1)
    if regular.all():
        tag = "NonlinearSecondOrderRegular"
    elif not regular.any():
        tag = "NonlinearSecondOrderDegenerate"
    else:
        raise UnclassifiableForce(
            "Hessian regularity differs between probes: "
            f"{int(regular.sum())}/{len(regular)} probes regular")
    return ForceClass(tag=tag,
                      detail="all component Hessians tested at every probe")


class OUSystem:
    """The 2n-dimensional OU system with degenerate diffusion.

    State coordinate order is (x1..xn, v1..vn); Wiener coordinate order is
    (w1..wn, z1..zn) with the ghosts z last. sigma() is constant: mu_i sits
    at row v_i, column w_i, everything else is zero.
    """

    sigma_is_constant = True

    def __init__(self, n, beta, mu, force):
        if not _is_count(n):
            raise DimensionMismatch(f"n must be a positive integer, got {n!r}")
        beta = _numbers(beta, "beta")
        mu = _numbers(mu, "mu")
        if len(beta) != n or len(mu) != n:
            raise DimensionMismatch(
                f"beta/mu lengths {len(beta)}/{len(mu)} do not match n={n}")
        if force.n != n:
            raise DimensionMismatch(
                f"force dimension {force.n} does not match n={n}")
        if not all(np.isfinite(beta + mu)):
            raise NonFiniteEvaluation(
                f"beta and mu must be finite, got {beta} and {mu}")
        if any(b <= 0.0 for b in beta):
            raise NonPositiveFriction(f"beta must be positive, got {beta}")
        if any(m == 0.0 for m in mu):
            raise ZeroNoise(f"mu must be nonzero, got {mu}")
        self.n = int(n)
        self.beta = beta
        self.mu = mu
        self.force = force
        self.isotropic = (len(set(beta)) == 1) and (len(set(mu)) == 1)
        self.state_coords = tuple([("x", i) for i in range(n)]
                                  + [("v", i) for i in range(n)])
        self.wiener_coords = tuple([("w", i) for i in range(n)]
                                   + [("z", i) for i in range(n)])
        self.active_wiener_coords = self.wiener_coords[:n]
        self._sigma = np.zeros((2 * n, 2 * n))
        for i in range(n):
            self._sigma[n + i, i] = mu[i]

    def drift(self, p):
        """Drift over state coords at an extended point (dual-friendly)."""
        F = self.force.evaluate(p.x)
        out = list(p.v)
        for i in range(self.n):
            out.append(F[i] - self.beta[i] * p.v[i])
        return out

    def sigma(self, p=None):
        """Constant diffusion matrix over (state) x (wiener) coordinates."""
        return self._sigma

    def __repr__(self):
        return (f"OUSystem(n={self.n}, beta={list(self.beta)}, "
                f"mu={list(self.mu)}, force={self.force!r}, "
                f"isotropic={self.isotropic})")


def build_ou_system(n, beta, mu, force):
    """Validated constructor for OUSystem."""
    return OUSystem(n, beta, mu, force)


class CustomItoProcess:
    """A general Ito process dx = f dt + sigma dw for reference fixtures.

    State coords are ("x", i); Wiener coords ("w", k); no velocities, no
    ghosts. drift_fn and sigma_fn must accept extended points whose
    coordinates may be HyperDual.
    """

    sigma_is_constant = False

    def __init__(self, n_state, n_wiener, drift_fn, sigma_fn):
        self._drift_fn = drift_fn
        self._sigma_fn = sigma_fn
        self.state_coords = tuple(("x", i) for i in range(n_state))
        self.wiener_coords = tuple(("w", k) for k in range(n_wiener))
        self.active_wiener_coords = self.wiener_coords

    def drift(self, p):
        return self._drift_fn(p)

    def sigma(self, p):
        return self._sigma_fn(p)


# --- JSON system schema ---

def system_from_json(data):
    """Build an OUSystem from the documented JSON dict schema.

    {"n": int, "beta": [...], "mu": [...],
     "force": {"type": "constant", "c": [...]}
            | {"type": "linear", "L": [[...]], "K": [...]}
            | {"type": "expr", "components": [".."] or "e1; e2"}}
    """
    try:
        n = data["n"]
        beta = data["beta"]
        mu = data["mu"]
        fdata = data["force"]
        ftype = fdata["type"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed system spec: missing {exc}") from None
    if ftype == "constant":
        force = ConstantForce(fdata["c"])
    elif ftype == "linear":
        force = LinearForce(fdata["L"], fdata.get("K"))
    elif ftype == "expr":
        comps = fdata["components"]
        if not isinstance(comps, str):
            if not (isinstance(comps, (list, tuple))
                    and all(isinstance(c, str) for c in comps)):
                raise DimensionMismatch(
                    f"components must be a string or a list of strings, "
                    f"got {comps!r}")
            comps = "; ".join(comps)
        force = parse_force_expression(comps, n)
    else:
        raise DimensionMismatch(f"unknown force type {ftype!r}")
    return build_ou_system(n, beta, mu, force)


def system_to_json(sys):
    """Serialize an OUSystem back to the JSON dict schema."""
    if isinstance(sys.force, ConstantForce):
        fdata = {"type": "constant", "c": list(sys.force.c)}
    elif isinstance(sys.force, LinearForce):
        fdata = {"type": "linear", "L": sys.force.L.tolist(),
                 "K": sys.force.K.tolist()}
    elif isinstance(sys.force, ExpressionForce):
        fdata = {"type": "expr",
                 "components": [t.render() for t in sys.force.trees]}
    else:
        raise DimensionMismatch(f"unserializable force {sys.force!r}")
    return {"n": sys.n, "beta": list(sys.beta), "mu": list(sys.mu),
            "force": fdata}

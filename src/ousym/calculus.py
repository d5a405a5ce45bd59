"""Differentiation engine on the extended space (x, v, t; w, z).

Coordinates are addressed by (block, index) pairs, e.g. ("x", 0), ("v", 2),
("w", 1), ("z", 0), or ("t", 0). Scalar fields are plain callables on
ExtendedPoint; vector fields on the extended space return one component per
entry of extended_coords(p), in the order x-block, v-block, t, w-block,
z-block. That flat order is written once: _flat lists a point's coordinates
in it and _at builds a point back from such a list.

The one engine is hyper-dual numbers (exact to rounding), all seeded by
duals.jet in vector mode, so each field is evaluated once per derivative
need rather than once per coordinate. _ito_jet is the one evaluation behind
every determining equation and invariance condition: e1 holds a unit row per
state coordinate and one for t, then the rows
D_k = d/dW_k + sum_j sigma_jk d/dS_j; e2 is zero on the unit rows and D on
the rest. It gives the values, the state and time partials, the dw-block
terms and the Ito Laplacian, and refuses nothing: a determining equation
or invariance condition that cannot be evaluated is NaN, which fails its
gate. The public derivative, ito_laplacian(_components) and lie_bracket
raise NonFiniteResult on a result that is not finite. _gradients seeds
e1 = I for full Jacobians (bracket jets, the drift and sigma).
derivative() seeds only the coordinates it is asked for, and hands the jet
p's probe shape as one more, unread value, so that a plain seeded
coordinate stays a float.

Every Lie bracket goes through two steps: _field_jet takes one field's
values and Jacobian once, from one seeded evaluation, and _contract forms
[X, Y] for index pairs into one stack of jets, with a live-coordinate mask
per pair. lie_bracket is the two steps for one pair; the bracket table
and structure_constants take each field's jet once, stack the jets and
contract all of their pairs in one call.

ExtendedPoint.chi is the one chi formula. classify_invariants certifies
it, through InvariantCandidate.chi, and verify's f=chi1 and
structure_constants evaluate it.

Probes come from one uniform draw per probe set (sample_probes), and
stack_probes builds their (coordinates, probes) array in one go. The
drift's Jacobian, which every determining equation reads, is taken once
per stacked probe set by symmetry._drift_jet.
"""

import numpy as np

from dataclasses import dataclass

from . import duals
from .errors import DimensionMismatch, EmptyProbeSet, NonFiniteResult


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the extended space; coordinates may be floats, arrays
    (batched points), or HyperDuals (during differentiation)."""

    x: tuple
    v: tuple
    t: object
    w: tuple
    z: tuple

    def coord(self, c):
        block, i = c
        if block == "t":
            return self.t
        return getattr(self, block)[i]

    def with_coord(self, c, val):
        vals = _flat(self)
        vals[extended_coords(self).index(c)] = val
        return _at(self, vals)

    def chi(self, sys, i):
        """The characteristic combination of the OU system,
        chi_i = w_i - v_i / mu_i - (beta_i / mu_i) x_i + rho_i t with
        rho_i = c_i / mu_i, summed left to right; c = _force_at_origin(sys).
        It is an invariant when the force is the constant c; for any other
        force it is a candidate that fails the invariance conditions."""
        rho_i = _force_at_origin(sys)[i] / sys.mu[i]
        return (self.w[i] - self.v[i] / sys.mu[i]
                - (sys.beta[i] / sys.mu[i]) * self.x[i] + rho_i * self.t)


def _force_at_origin(sys):
    """F(0) of an OU system as floats: the c of the chi invariants, the
    constant itself for a ConstantForce. Evaluated on numpy scalars with
    their warnings off, so a force undefined at 0 (x1/x1) gives NaN, which
    fails certification, rather than raising or warning."""
    with np.errstate(all="ignore"):
        return sys.force._floats([0.0] * sys.n)


def point(x=(), v=(), t=0.0, w=None, z=None):
    """Convenience constructor with tuple normalization and ghost defaults."""
    x = tuple(x)
    v = tuple(v)
    w = tuple(w) if w is not None else tuple(0.0 for _ in x)
    z = tuple(z) if z is not None else tuple(0.0 for _ in w)
    return ExtendedPoint(x=x, v=v, t=t, w=w, z=z)


def extended_coords(p):
    """Coordinate addresses of p in canonical order."""
    return ([("x", i) for i in range(len(p.x))]
            + [("v", i) for i in range(len(p.v))]
            + [("t", 0)]
            + [("w", i) for i in range(len(p.w))]
            + [("z", i) for i in range(len(p.z))])


def sample_probes(proc, count=32, seed=0, box=(-2.0, 2.0)):
    """Seeded uniform probe points for residual certification.

    x, v, w are uniform in `box`, t uniform in [0, 2], ghosts z fixed at
    zero. Deterministic in (seed, count).
    """
    nx = sum(1 for c in proc.state_coords if c[0] == "x")
    nv = sum(1 for c in proc.state_coords if c[0] == "v")
    nw = sum(1 for c in proc.wiener_coords if c[0] == "w")
    nz = sum(1 for c in proc.wiener_coords if c[0] == "z")
    lo, hi = box
    # one draw for all probes, a row per probe with columns x, v, t, w,
    # scaled as Generator.uniform scales (lo + (hi - lo) * u): the numbers
    # of one uniform call per block and probe, bit for bit
    u = np.random.default_rng(seed).random((max(count, 0), nx + nv + 1 + nw))
    xvw = lo + (hi - lo) * u
    z = tuple(0.0 for _ in range(nz))
    return [ExtendedPoint(x=tuple(row[:nx]), v=tuple(row[nx:nx + nv]),
                          t=float(2.0 * ut), w=tuple(row[nx + nv + 1:]), z=z)
            for row, ut in zip(xvw, u[:, nx + nv])]


def stack_probes(probes):
    """Bundle a probe list into one ExtendedPoint with array coordinates;
    an empty list raises EmptyProbeSet."""
    if len(probes) == 0:
        raise EmptyProbeSet("stacking needs at least one probe")
    return _at(probes[0], list(np.array([_flat(p) for p in probes],
                                        dtype=float).T))


def _flat(p):
    """p's coordinates as a list in extended_coords order; _at inverts it."""
    return [*p.x, *p.v, p.t, *p.w, *p.z]


def _at(p, vals):
    """p with its coordinates replaced by vals, in extended_coords order."""
    i = len(p.x)
    j = i + len(p.v)
    k = j + 1 + len(p.w)
    return ExtendedPoint(x=tuple(vals[:i]), v=tuple(vals[i:j]), t=vals[j],
                         w=tuple(vals[j + 1:k]), z=tuple(vals[k:]))


def _probe_shape(p):
    """Broadcast shape of p's coordinates: () for a plain point."""
    return np.broadcast_shapes(*set(map(np.shape, _flat(p))))


def _jet(fvec, p, e1, e2=None):
    """duals.jet of fvec over all of p's coordinates, in extended_coords
    order."""
    return duals.jet(lambda s: fvec(_at(p, s)), _flat(p), e1, e2)


def _gradients(fvec, p):
    """Values and Jacobian of every component of fvec at p, one pass.

    Returns (vals, jac) at full shape: vals[a] is component a and jac[a, b]
    is d(component a)/d(coordinate b), coordinates in extended_coords(p)
    order, then the probe axes.
    """
    n = len(extended_coords(p))
    lead = (n,) + (1,) * len(_probe_shape(p))
    return _jet(fvec, p, np.eye(n).reshape(lead + (n,)))[:2]


def _check_finite(out, what):
    if not np.all(np.isfinite(out)):
        raise NonFiniteResult(f"{what} is not finite")
    return out


def derivative(f, p, coord, order=1, coord2=None):
    """First or second derivative of a scalar field at p, exact to
    rounding.

    coord/coord2 are (block, index) pairs; giving coord2 means the mixed
    second derivative.
    """
    if coord2 is not None:
        order = 2
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    # seed only the coordinates asked for; the rest stay plain. A seeded
    # float stays a float (as an array, ** would go through np.power); one
    # more value, never read, carries p's probe shape into the jet
    pair = [coord] if coord2 in (None, coord) else [coord, coord2]

    def at(seeds):
        q = p
        for c, s in zip(pair, seeds):
            q = q.with_coord(c, s)
        return [f(q)]

    eye = np.eye(len(pair) + 1)
    # what overflows is refused below, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        _, d1, d12 = duals.jet(
            at, [p.coord(c) for c in pair]
            + [np.broadcast_to(0.0, _probe_shape(p))],
            eye[0], None if order == 1 else eye[len(pair) - 1])
    return _check_finite((d1 if order == 1 else d12)[0], "derivative")


def _ito_jet(fvec, proc, p):
    """The Ito jet of every component of fvec at p, from one evaluation:
    (vals, d_state, d_t, dw_terms, lap, dw_size) at full shape, the
    component axis first. d_state[a, j] is the partial along state
    coordinate j, dw_terms[a, k] the dw-block term D_k . grad along Wiener
    coordinate k, and lap[a] the Ito Laplacian, as computed: a Laplacian
    that is not finite stays in the jet, for the residuals that read it to
    report. dw_size[a, k] = |dw_terms[a, k]| + sum_j |sigma_jk
    d_state[a, j]|, the part of a dw entry's size (symmetry._judge) that
    D_k contributes.

    e1 holds a unit row per state coordinate and one for t, then the rows
    D_k = d/dW_k + sum_j sigma_jk d/dS_j (S over the full state, W over the
    full active + ghost Wiener coordinates); e2 is zero on the unit rows and
    D on the rest. Then
        Delta f = sum_k d2f/dW_k dW_k + 2 sum_{j,k} sigma_jk d2f/dS_j dW_k
                  + sum_{j,l} (sigma sigma^T)_jl d2f/dS_j dS_l
                = sum_k (D_k . grad)^2 f
    is the sum of the second derivatives over the D rows.
    """
    coords = extended_coords(p)
    S = [coords.index(c) for c in proc.state_coords]
    W = [coords.index(c) for c in proc.wiener_coords]
    sig = proc.sigma(p)
    k0 = len(S) + 1
    e1 = np.zeros((k0 + len(W),) + _probe_shape(p) + (len(coords),))
    for r, c in enumerate(S + [coords.index(("t", 0))]):
        e1[r, ..., c] = 1.0
    for k, w in enumerate(W):
        e1[k0 + k, ..., w] = 1.0
        for j, s in enumerate(S):
            e1[k0 + k, ..., s] = sig[j][k]
    e2 = e1.copy()
    e2[:k0] = 0.0
    vals, d1, d12 = _jet(fvec, p, e1, e2)
    d_state, dw = d1[:, :k0 - 1], d1[:, k0:]
    # sum_j |sigma_jk| |d_state[a, j]| as a matmul over probes: e1's D rows
    # hold sigma_jk at p's probes, in the state columns
    sig = np.moveaxis(np.abs(e1[k0:][..., S]), (0, -1), (-1, -2))
    dw_size = np.abs(dw) + np.moveaxis(np.moveaxis(
        np.abs(d_state), (0, 1), (-2, -1)) @ sig, (-2, -1), (0, 1))
    return vals, d_state, d1[:, k0 - 1], dw, d12[:, k0:].sum(axis=1), dw_size


def ito_laplacian_components(fvec, proc, p):
    """Ito Laplacian applied to each component of a vector-valued callable,
    from one evaluation (see _ito_jet); a Laplacian that is not finite
    raises NonFiniteResult, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _check_finite(_ito_jet(fvec, proc, p)[4], "ito_laplacian")


def ito_laplacian(f, sys, p):
    """Ito Laplacian of a scalar field for the given process at p."""
    return ito_laplacian_components(lambda q: [f(q)], sys, p)[0]


def _field_jet(F, p):
    """Values and Jacobian of the vector field F at p, from one
    vector-seeded pass (_gradients).

    Returns (vals, jac) at full shape: vals[a] is component a and jac[a, b]
    is d(component a)/d(coordinate b), coordinates in extended_coords(p)
    order, then p's probe axes. A Jacobian entry that is not finite is left
    for _contract to drop or reject. A field without one component per
    coordinate raises DimensionMismatch.
    """
    vals, jac = _gradients(F, p)
    if len(vals) != jac.shape[1]:
        raise DimensionMismatch(f"vector field has {len(vals)} components "
                                f"for {jac.shape[1]} coordinates")
    return vals, jac


def _contract(vals, jac, left, right):
    """[X, Y] = sum_b X_b dY[:, b] - Y_b dX[:, b] for the pairs
    (X, Y) = (left[k], right[k]) of stacked _field_jet results: vals and
    jac carry one leading field axis, left and right index it, and the
    result has one leading pair axis, one row per coordinate after it. Per
    pair, the coordinates are summed in order, and the pairs' operands are
    read one live coordinate at a time: no pair gets a copy of a whole
    Jacobian.

    Coordinates where both fields of a pair vanish at every probe are
    skipped for that pair, so a non-finite partial along such a coordinate
    cannot turn its bracket into NaN; any other non-finite entry raises
    NonFiniteResult.
    """
    nonzero = (vals != 0.0).any(axis=tuple(range(2, vals.ndim)))
    live = nonzero[left] | nonzero[right]
    out = np.zeros((len(live),) + vals.shape[1:])
    pairs = (len(live),) + (1,) * (vals.ndim - 1)
    # out + X_b dY[:, b] - Y_b dX[:, b], left to right, on the pairs where b
    # is live; a dead coordinate's 0 * inf may be NaN and is not added
    with np.errstate(invalid="ignore"):
        for b in np.flatnonzero(live.any(axis=0)):
            where = live[:, b].reshape(pairs)
            np.add(out, vals[left, b, None] * jac[right, :, b], out=out,
                   where=where)
            np.subtract(out, vals[right, b, None] * jac[left, :, b],
                        out=out, where=where)
    return _check_finite(out, "lie_bracket")


def lie_bracket(X, Y, p):
    """Commutator [X, Y] = (X . grad) Y - (Y . grad) X at p.

    X and Y are vector fields over extended_coords(p); the result is a list
    in that same coordinate order. Each field's jet (values and Jacobian) is
    taken once by _field_jet, from one evaluation seeded along every
    coordinate, then the two jets are contracted by _contract. A field
    without one component per coordinate raises DimensionMismatch, and a
    bracket that is not finite NonFiniteResult, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals, jac = map(np.stack, zip(*(_field_jet(F, p) for F in (X, Y))))
        return list(_contract(vals, jac, [0], [1])[0])

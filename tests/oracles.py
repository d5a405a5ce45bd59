"""Reference derivatives that the tests compare the library against.

Central finite differences, with step cbrt(machine eps) * max(1, |coord|):
independent of the hyper-dual engine, and accurate to about 1e-6 relative
for first derivatives and 1e-4 for second ones, which is the tolerance the
tests that call them use.
"""

import numpy as np

from ousym import duals
from ousym.calculus import _contract, _probe_shape, extended_coords
from ousym.duals import value
from ousym.errors import DimensionMismatch, EvaluationDomainError

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _fd_step(val):
    return _CBRT_EPS * np.maximum(1.0, np.abs(val))


def fd_derivative(f, p, coord, order=1, coord2=None):
    """First or second derivative of a scalar field at p by central
    differences; coord2 means the mixed second derivative, as for
    ousym.derivative."""
    c1 = coord
    v1 = p.coord(c1)
    h1 = _fd_step(value(v1))
    if order == 1 and coord2 is None:
        return (f(p.with_coord(c1, v1 + h1))
                - f(p.with_coord(c1, v1 - h1))) / (2 * h1)
    c2 = coord2 or c1
    if c2 == c1:
        return (f(p.with_coord(c1, v1 + h1)) - 2 * f(p)
                + f(p.with_coord(c1, v1 - h1))) / (h1 * h1)
    v2 = p.coord(c2)
    h2 = _fd_step(value(v2))
    pp = f(p.with_coord(c1, v1 + h1).with_coord(c2, v2 + h2))
    pm = f(p.with_coord(c1, v1 + h1).with_coord(c2, v2 - h2))
    mp = f(p.with_coord(c1, v1 - h1).with_coord(c2, v2 + h2))
    mm = f(p.with_coord(c1, v1 - h1).with_coord(c2, v2 - h2))
    return (pp - pm - mp + mm) / (4 * h1 * h2)


def _fd_field_jet(F, p):
    """Values and Jacobian of the vector field F at p, shaped as
    calculus._field_jet's: F at p and at p +- h along each coordinate. A
    coordinate along which F leaves its domain (EvaluationDomainError) gives
    NaN partials, left for _contract to drop or reject."""
    coords = extended_coords(p)
    shape = _probe_shape(p)
    vals = [value(c) for c in F(p)]
    rows = [[] for _ in vals]
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in coords:
            v = p.coord(c)
            h = _fd_step(value(v))
            try:
                diffs = [(u - d) / (2 * h) for u, d in zip(
                    F(p.with_coord(c, v + h)), F(p.with_coord(c, v - h)))]
            except EvaluationDomainError:
                diffs = [np.nan] * len(vals)
            for row, d in zip(rows, diffs):
                row.append(d)
    if len(vals) != len(coords):
        raise DimensionMismatch(f"vector field has {len(vals)} components "
                                f"for {len(coords)} coordinates")
    return (duals._stacked(vals, shape),
            duals._stacked([duals._stacked(row, shape) for row in rows],
                           (len(coords),) + shape))


def fd_lie_bracket(X, Y, p):
    """[X, Y] at p from central-difference Jacobians (2N + 1 evaluations of
    each field for N coordinates), contracted as ousym.lie_bracket
    contracts; a field without N components raises DimensionMismatch."""
    vals, jac = map(np.stack, zip(*(_fd_field_jet(F, p) for F in (X, Y))))
    return list(_contract(vals, jac, [0], [1])[0])

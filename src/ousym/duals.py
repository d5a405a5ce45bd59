"""Hyper-dual numbers: forward-mode first and second derivatives.

A HyperDual carries four components (f, f1, f2, f12) representing
f(p) + f1*e1 + f2*e2 + f12*e1*e2 with e1^2 = e2^2 = 0. Seeding e1 along one
direction and e2 along another (or the same one) yields exact first, second,
and mixed directional derivatives, with no truncation error.

Components may be floats or numpy arrays; arithmetic broadcasts. jet() uses
that to carry a whole stack of directions at once (vector, or "chunk", mode):
one evaluation returns a full gradient, Hessian or set of directional second
derivatives at every probe. jet() is the only place that seeds coordinates,
and it fixes the output shape from the seeds and the values before the
function runs: a component broadcasts to that shape and cannot widen it.

The math facade (exp, log, sqrt, power, ...) takes floats, arrays or
HyperDuals alike, and holds each domain rule once, e.g. that a fractional
power of a negative base raises EvaluationDomainError.
"""

import numpy as np

from .errors import EvaluationDomainError


class HyperDual:
    __slots__ = ("f", "f1", "f2", "f12")

    # Refuse numpy's elementwise handling so ndarray <op> HyperDual falls back
    # to our reflected methods instead of producing object arrays.
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, f, f1=0.0, f2=0.0, f12=0.0):
        self.f = f
        self.f1 = f1
        self.f2 = f2
        self.f12 = f12

    def __repr__(self):
        return f"HyperDual({self.f!r}, {self.f1!r}, {self.f2!r}, {self.f12!r})"

    # -- arithmetic --

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.f + other.f, self.f1 + other.f1,
                             self.f2 + other.f2, self.f12 + other.f12)
        return HyperDual(self.f + other, self.f1, self.f2, self.f12)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.f, -self.f1, -self.f2, -self.f12)

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.f - other.f, self.f1 - other.f1,
                             self.f2 - other.f2, self.f12 - other.f12)
        return HyperDual(self.f - other, self.f1, self.f2, self.f12)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.f * other.f,
                self.f1 * other.f + self.f * other.f1,
                self.f2 * other.f + self.f * other.f2,
                self.f12 * other.f + self.f1 * other.f2
                + self.f2 * other.f1 + self.f * other.f12,
            )
        return HyperDual(self.f * other, self.f1 * other,
                         self.f2 * other, self.f12 * other)

    __rmul__ = __mul__

    def _reciprocal(self):
        inv = 1.0 / self.f
        return _chain(self, inv, -inv * inv, 2.0 * inv * inv * inv)

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, HyperDual):
            # x^y = exp(y log x); requires x > 0
            return exp(p * log(self))
        if p == 0:
            one = np.ones_like(self.f) if isinstance(self.f, np.ndarray) else 1.0
            return HyperDual(one)
        if p == 1:
            return HyperDual(self.f, self.f1, self.f2, self.f12)
        if p == 2:
            return self * self
        _check_power(self.f, p)
        v = self.f ** p
        d1 = p * self.f ** (p - 1)
        d2 = p * (p - 1) * self.f ** (p - 2)
        chain = _chain_at_pole if np.any(self.f == 0.0) else _chain
        return chain(self, v, d1, d2)

    def __rpow__(self, base):
        return exp(self * log(base))

    def __abs__(self):
        s = np.sign(self.f)
        return _chain(self, np.abs(self.f), s, 0.0)

    # Comparisons act on the value part, so that a user callable that
    # branches on a coordinate (if x < 0: ...) works on seeded points.

    def __lt__(self, other):
        return self.f < value(other)

    def __le__(self, other):
        return self.f <= value(other)

    def __gt__(self, other):
        return self.f > value(other)

    def __ge__(self, other):
        return self.f >= value(other)


def value(x):
    """Value part of a scalar-or-HyperDual."""
    return x.f if isinstance(x, HyperDual) else x


def jet(fn, values, e1, e2=None):
    """Evaluate fn once on the coordinates values, seeded along e1 (and e2).

    Coordinate a is seeded as HyperDual(values[a], e1[..., a], e2[..., a],
    0). The last axis of e1 (and e2) runs over the coordinates. Its other
    axes broadcast against the probe axes of values, aligned on the right:
    the axes in front of the probe axes are seed axes, one direction per
    entry, and a probe-aligned axis of length 1 shares a direction between
    probes. fn takes the list of seeded coordinates and returns a sequence
    of components, each a HyperDual or a plain value.

    Returns (vals, d1, d12), each with the component axis first. The
    output shape is fixed before fn runs: the seed axes broadcast against
    the probe shape of values. vals has its probe part, and d1 and d12
    have all of it; d1 holds the derivative of each component along every
    e1 direction and d12, given e2, the second derivative along every
    (e1, e2) pair (else None). A plain component has zero derivatives. A
    component must broadcast to that shape; it cannot widen it.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = None if e2 is None else np.asarray(e2, dtype=float)
    probe = np.broadcast_shapes(*map(np.shape, values))
    full = np.broadcast_shapes(e1.shape[:-1], probe,
                               () if e2 is None else e2.shape[:-1])
    out = fn([HyperDual(v, e1[..., a], 0.0 if e2 is None else e2[..., a], 0.0)
              for a, v in enumerate(values)])
    return (_stacked([value(c) for c in out], full[len(full) - len(probe):]),
            _stacked([getattr(c, "f1", 0.0) for c in out], full),
            None if e2 is None else
            _stacked([getattr(c, "f12", 0.0) for c in out], full))


def _stacked(entries, shape):
    """One array of the entries, each broadcast to shape, the entry axis
    first."""
    out = np.empty((len(entries),) + shape, np.result_type(*entries))
    for i, e in enumerate(entries):
        out[i] = e
    return out


def _chain(x, v, d1, d2):
    # unary chain rule: g(x) for g with value v, derivatives d1, d2 at x.f
    return HyperDual(v, d1 * x.f1, d1 * x.f2, d1 * x.f12 + d2 * x.f1 * x.f2)


def _chain_at_pole(x, v, d1, d2):
    """_chain for a g whose derivatives may be infinite at x.f (sqrt at 0).

    A seed direction whose component is 0 carries no derivative of x, so it
    gets an exact 0 there, as an unseeded coordinate would, not inf * 0 = nan.
    """
    def times(d, part):
        with np.errstate(invalid="ignore"):
            return np.where(np.asarray(part) == 0.0, 0.0, d * part)
    return HyperDual(v, times(d1, x.f1), times(d1, x.f2),
                     times(d1, x.f12) + times(d2, x.f1 * x.f2))


# -- math facade: accepts floats, numpy arrays, or HyperDuals --

def exp(x):
    if isinstance(x, HyperDual):
        v = np.exp(x.f)
        return _chain(x, v, v, v)
    return np.exp(x)


def _check_power(base, p):
    """A fractional constant power of a negative base has no real value."""
    if (np.ndim(p) == 0 and not float(p).is_integer()
            and np.any(np.asarray(base) < 0)):
        raise EvaluationDomainError("fractional power of a negative base")


def power(a, b):
    """a ** b for plain or hyper-dual operands; a fractional constant power
    of a negative base raises EvaluationDomainError."""
    if isinstance(a, HyperDual) or isinstance(b, HyperDual):
        return a ** b
    _check_power(a, b)
    # the ufunc on scalars rounds like on arrays; scalar ** calls libm
    return np.power(a, b)


def log(x):
    if np.any(value(x) <= 0.0):
        raise EvaluationDomainError("log argument must be positive")
    if isinstance(x, HyperDual):
        inv = 1.0 / x.f
        return _chain(x, np.log(x.f), inv, -inv * inv)
    return np.log(x)


def sqrt(x):
    if np.any(value(x) < 0.0):
        raise EvaluationDomainError("sqrt argument must be nonnegative")
    if isinstance(x, HyperDual):
        v = np.sqrt(x.f)
        chain = _chain_at_pole if np.any(v == 0.0) else _chain
        return chain(x, v, 0.5 / v, -0.25 / (v * x.f))
    return np.sqrt(x)


def sin(x):
    if isinstance(x, HyperDual):
        return _chain(x, np.sin(x.f), np.cos(x.f), -np.sin(x.f))
    return np.sin(x)


def cos(x):
    if isinstance(x, HyperDual):
        return _chain(x, np.cos(x.f), -np.sin(x.f), -np.cos(x.f))
    return np.cos(x)


def absolute(x):
    if isinstance(x, HyperDual):
        return abs(x)
    return np.abs(x)

"""Path generation: Wiener grids, Euler-Maruyama, exact rectified solvers,
strong-convergence studies, reference fixtures, and CSV output.

What the exact OU solvers take exactly is the drift, in closed form. The
noise integrals, exp(kappa s) dW over each step, are left-point sums
exp(kappa t_j) dW_j of the grid's increments, of strong order 1, as
Euler-Maruyama's are for this additive noise: a convergence study takes
its reference on a grid refine times finer than its finest rung.

Randomness is counter-based (Philox keyed by (seed, path_index)), so every
path is reproducible in isolation and a batch of paths gives the same
numbers as the paths one at a time. Stepping runs in the calling thread:
ensembles and convergence studies step whole batches of paths through one
Euler-Maruyama loop, and a single path steps on Python floats through the
same operations, so it equals its row of any batch bit for bit. Each force
class holds the two forms of F these loops read: _rows on a (paths, n)
batch and _floats on one position of Python floats. Ensembles
and convergence studies take their noise from _increment_blocks, where one
worker thread draws the next block of paths while the caller steps the
current one (OUSYM_THREADS=1 turns the worker off); the numbers never
depend on it. Coarsening a grid sums consecutive increments, which is what
lets an exact solution on a fine grid serve as the reference for
Euler-Maruyama on coarser rungs driven by the same noise.

A convergence study talks to an adapter (OUConvergenceProblem,
GBMConvergenceProblem, KozlovConvergenceProblem) through two batched maps,
exact_terminals and em_terminals, from increments (paths, n_proc, steps)
to terminal states and a mask of paths to skip. Every adapter also has the
single-grid pair exact_terminal / em_terminal, which is the batched pair on
a batch of one and raises DomainExit or NonFiniteState where a study would
skip the path. The GBM and Kozlov SDEs are written once, as the elementwise
drift and sigma of their adapters, which Euler-Maruyama steps on arrays
and whose sys is the SDE as an Ito process for the residual machinery.
Their closed forms are written once, batched, and serve both the adapters
and solve_reference_problem.

Each rejection rule is written once. Every exact OU path, one grid or a
study's batch, passes _guarded, which reads one number per path, its
largest |state|: the blow-up guard bounds it, and the path's largest
imaginary part must pass symmetry._judge, the one certification rule,
against it. An overflow in a closed form raises nothing and warns of
nothing: it is an inf or NaN state, which the guard rejects. A single
solve raises NonFiniteState where a study skips the path. The exact OU
solvers yield their paths in time windows of about WINDOW_VALUES values
(_windows); _guarded folds the size and the leakage over the windows and
keeps every state for a single solve but only the terminal states for a
study, so a study never builds a block's whole path; the GBM and Kozlov
references sum the Wiener path over the same windows. An initial state,
an OU system's 2n numbers or a scalar fixture's one, is judged by
_flat_state. Every integer argument (steps, n_proc, seed, path_index,
path counts, rungs, factors) is judged by model._is_count; seed and
path_index are the two 64-bit words of a Philox key, so each is also
below 2**64.
"""

import os
from contextlib import closing, nullcontext
from dataclasses import dataclass

import numpy as np

from . import duals
from .classify import _eigenmodes
from .errors import (DimensionMismatch, DomainExit, InvalidGrid,
                     NonFiniteState, OusymError, WrongForceClass)
from .model import ConstantForce, CustomItoProcess, LinearForce, _is_count
from .symmetry import _judge

BLOWUP_GUARD = 1e12
# fine increments drawn at once by convergence_study; bounds its memory
BLOCK_VALUES = 1 << 19
# values (paths * n * steps) an exact path is built from at once: the
# exact solvers stream the path over time windows of this size
WINDOW_VALUES = 1 << 15
# paths stepped at once by euler_maruyama_ensemble
ENSEMBLE_PATHS = 2048


def thread_count():
    """OUSYM_THREADS or the CPU count. Above 1, ensembles and convergence
    studies draw the next block of noise on one worker thread while the
    current block steps; 1 keeps everything in the calling thread. No
    output depends on it."""
    raw = os.environ.get("OUSYM_THREADS", "").strip()
    if raw:
        try:
            k = int(raw)
        except ValueError:
            raise InvalidGrid(f"OUSYM_THREADS is not an integer: {raw!r}")
        if k < 1:
            raise InvalidGrid("OUSYM_THREADS must be >= 1")
        return k
    return os.cpu_count() or 1


# --- Wiener grids ---

@dataclass(frozen=True)
class WienerGrid:
    t0: float
    t1: float
    steps: int
    n_proc: int
    seed: int
    path_index: int
    increments: np.ndarray  # (n_proc, steps), N(0, dt) entries
    derivation: str

    @property
    def dt(self):
        return (self.t1 - self.t0) / self.steps

    @property
    def times(self):
        return np.linspace(self.t0, self.t1, self.steps + 1)

    def cumulative(self):
        """w values at grid times, (n_proc, steps + 1), w(t0) = 0."""
        return _cumulative(self.increments)


def _cumulative(inc, start=None):
    """Running sums (..., steps + 1) of increments (..., steps), left to
    right, from 0; or, for a window of steps that continues a longer sum,
    from start, the running sum that ends the window before. start goes in
    as the first entry of the cumsum, so every sum is added in the order of
    one cumsum over all steps and has its bits."""
    out = np.empty(inc.shape[:-1] + (inc.shape[-1] + 1,), dtype=inc.dtype)
    if start is None:
        out[..., 0] = 0.0
        np.cumsum(inc, axis=-1, out=out[..., 1:])
        return out
    out[..., 0] = start
    out[..., 1:] = inc
    return np.cumsum(out, axis=-1, out=out)


def _philox_increments(n_proc, t0, t1, steps, seed, indices):
    """N(0, dt) increments (len(indices), n_proc, steps); row j is the path
    keyed (seed, indices[j]), drawn row-major as (n_proc, steps)."""
    if not _is_count(steps):
        raise InvalidGrid(f"steps must be a positive integer, got {steps!r}")
    if not (np.isfinite(t0) and np.isfinite(t1)) or not t1 > t0:
        raise InvalidGrid(f"need finite t1 > t0, got [{t0}, {t1}]")
    if not _is_count(n_proc):
        raise InvalidGrid(
            f"n_proc must be a positive integer, got {n_proc!r}")
    if not (_is_count(seed, 0) and seed < 2 ** 64):
        raise InvalidGrid(f"seed must be an int in [0, 2**64), got {seed!r}")
    out = np.empty((len(indices), int(n_proc), int(steps)))
    # one bit generator, set to each path's key with counter 0 and an empty
    # buffer: Philox(key=...) would first seed a SeedSequence from OS
    # entropy, once per path, only to discard it
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    for row, idx in zip(out, indices):
        bits.state = {
            "bit_generator": "Philox",
            # a uint64 key: from a list, numpy makes keys >= 2**63 float64
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": np.array([seed, idx], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=row)
    out *= np.sqrt((t1 - t0) / steps)
    return out


def _increment_blocks(n_proc, t0, t1, steps, seed, n_paths, block):
    """(first_index, increments) over paths [0, n_paths) in blocks of at
    most block paths, each drawn by _philox_increments.

    With more than one block and thread_count() > 1, one worker thread
    draws block j + 1 while the caller works on block j (Philox fills
    release the GIL), so two blocks are alive at once. Closing the iterator
    shuts the worker down; an error in a draw is raised here unchanged.
    """
    def draw(i0):
        return _philox_increments(n_proc, t0, t1, steps, seed,
                                  range(i0, min(i0 + block, n_paths)))

    starts = range(0, n_paths, block)
    if len(starts) < 2 or thread_count() < 2:
        for i0 in starts:
            yield i0, draw(i0)
        return
    import concurrent.futures  # loaded only when a worker is needed
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as worker:
        inc = draw(starts[0])
        for i0, ahead in zip(starts, starts[1:]):
            nxt = worker.submit(draw, ahead)
            yield i0, inc
            inc = nxt.result()
        yield starts[-1], inc


def sample_wiener(n_proc, t0, t1, steps, seed=0, path_index=0):
    """Draw one path's increments with a counter-based generator.

    The key is (seed, path_index), each an integer in [0, 2**64): any path
    of any ensemble can be regenerated alone, and a batch of paths draws
    exactly these numbers.
    """
    if not (_is_count(path_index, 0) and path_index < 2 ** 64):
        raise InvalidGrid(f"path_index must be an int in [0, 2**64), "
                          f"got {path_index!r}")
    inc = _philox_increments(n_proc, t0, t1, steps, seed, [path_index])[0]
    return WienerGrid(
        t0=float(t0), t1=float(t1), steps=int(steps), n_proc=int(n_proc),
        seed=int(seed), path_index=int(path_index), increments=inc,
        derivation="philox(key=(seed, path_index)); row-major draws of "
                   "shape (n_proc, steps) scaled by sqrt(dt)")


def _coarsened(inc, factor):
    """Sums of factor consecutive increments along the last axis of inc."""
    return inc.reshape(inc.shape[:-1] + (inc.shape[-1] // factor,
                                         factor)).sum(axis=-1)


def coarsen(grid, factor):
    """Sum consecutive increments: same Brownian path on a coarser grid."""
    if not _is_count(factor):
        raise InvalidGrid(f"coarsening factor must be a positive integer, "
                          f"got {factor!r}")
    if grid.steps % factor != 0:
        raise InvalidGrid(f"{grid.steps} steps cannot be coarsened by "
                          f"{factor}")
    if factor == 1:
        return grid
    return WienerGrid(
        t0=grid.t0, t1=grid.t1, steps=grid.steps // int(factor),
        n_proc=grid.n_proc, seed=grid.seed, path_index=grid.path_index,
        increments=_coarsened(grid.increments, int(factor)),
        derivation=grid.derivation + f" | coarsened x{int(factor)}")


# --- paths ---

@dataclass(frozen=True)
class Path:
    times: np.ndarray          # (steps + 1,)
    states: np.ndarray         # (steps + 1, d)
    labels: tuple              # d column names
    meta: dict                 # provenance: seed, path_index, steps, scheme

    def terminal(self):
        return self.states[-1]


def _flat_state(x0, size, name):
    """x0 as size finite floats, in any nesting that flattens to them: the
    one rule for an initial state, an OU system's 2n numbers or a scalar
    fixture's one. name is the count's symbol in the messages."""
    try:
        flat = np.asarray(x0, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(
            f"initial state does not flatten to {name} = {size} numbers: "
            f"{exc}") from None
    if flat.size != size:
        raise DimensionMismatch(
            f"initial state needs {name} = {size} entries, got {flat.size}")
    if not np.all(np.isfinite(flat)):
        raise NonFiniteState("initial state is not finite")
    return flat


def _split_state(n, x0):
    """x and v from x0: 2n numbers, x then v, in any nesting that flattens
    to 2n floats (a flat sequence, a (2, n) array, an (x, v) pair)."""
    flat = _flat_state(x0, 2 * n, "2n")
    return flat[:n], flat[n:]


def _ou_labels(n):
    return tuple(f"x{i + 1}" for i in range(n)) + tuple(
        f"v{i + 1}" for i in range(n))


def _blew_up(k, t0, dt):
    return NonFiniteState(f"path blew up at step {k + 1} "
                          f"(t = {t0 + (k + 1) * dt})")


def _em_batch(step, state, inc, t0, dt, strict=True):
    """The Euler-Maruyama loop over a (paths, d) batch; returns the terminal
    states and the (paths,) mask of paths that blew up, i.e. failed
    max |state| <= BLOWUP_GUARD (NaN fails it; the guard is read once per
    call). step(s, dw, out) writes the next states into out; inc is
    (paths, n_proc, steps). strict raises at the first blow-up. Only the
    terminal states are kept: a whole path is stepped by _em_one_path.
    """
    guard = BLOWUP_GUARD
    blown = np.zeros(state.shape[0], dtype=bool)
    spare = (np.empty_like(state), np.empty_like(state))
    # overflow, NaN and division by zero are what the guard reports
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(inc.shape[2]):
            out = spare[k % 2]
            step(state, inc[:, :, k], out)
            # the whole-batch test is cheap; the per-path one is not
            if not np.abs(out).max() <= guard:
                if strict:
                    raise _blew_up(k, t0, dt)
                blown |= ~(np.abs(out).max(axis=1) <= guard)
            state = out
    return state, blown


def _em_one_path(sys, x, v, inc, t0, dt, record, strict):
    """_em_batch for the euler_maruyama scheme on one path, stepped on
    Python floats: on a (1, 2n) batch numpy call overhead is most of a
    step. Every operation is the batch step's, in its order, so the path
    equals that path's row of any batch bit for bit, guard included.
    inc is (n, steps); returns the (1, 2n) terminal state and blown mask,
    and fills record, unless it is None, with all (steps + 1, 1, 2n)
    states. Its callers: _ou_em on a one-path batch (record None) and
    euler_maruyama.
    """
    F = sys.force._floats
    guard = BLOWUP_GUARD
    x, v = x.tolist(), v.tolist()
    beta, mu = sys.beta, sys.mu
    row = x + v
    rows = [row]
    blown = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, dw in enumerate(inc.T.tolist()):
            f = F(x)
            x, v = ([a + b * dt for a, b in zip(x, v)],
                    [b + (fi - be * b) * dt + m * w
                     for b, fi, be, m, w in zip(v, f, beta, mu, dw)])
            row = x + v
            for s in row:
                if not abs(s) <= guard:
                    if strict:
                        raise _blew_up(k, t0, dt)
                    blown = True
                    break
            if record is not None:
                rows.append(row)
    if record is not None:
        record[:, 0] = rows
    return np.array([row]), np.array([blown])


def _ou_em(sys, x0, t0, t1, inc, strict=True):
    """_em_batch with the euler_maruyama scheme, driven by inc
    (paths, n, steps), keeping terminal states only; a one-path batch goes
    to _em_one_path. euler_maruyama, which keeps every state, calls
    _em_one_path itself."""
    n = sys.n
    x, v = _split_state(n, x0)
    dt = (t1 - t0) / inc.shape[2]
    if inc.shape[0] == 1:
        return _em_one_path(sys, x, v, inc[0], t0, dt, None, strict)
    beta = np.asarray(sys.beta, dtype=float)
    mu = np.asarray(sys.mu, dtype=float)
    F = sys.force._rows

    def step(s, dw, out):
        x, v = s[:, :n], s[:, n:]
        np.add(x, v * dt, out=out[:, :n])
        out[:, n:] = v + (F(x) - beta * v) * dt + mu * dw

    start = np.tile(np.concatenate((x, v)), (inc.shape[0], 1))
    return _em_batch(step, start, inc, t0, dt, strict)


def _grid_meta(grid, scheme):
    return {"seed": grid.seed, "path_index": grid.path_index,
            "steps": grid.steps, "t0": grid.t0, "t1": grid.t1,
            "scheme": scheme, "derivation": grid.derivation}


def euler_maruyama(sys, x0, grid):
    """Explicit first-order scheme on one path:
        x_{k+1} = x_k + v_k dt
        v_{k+1} = v_k + (F(x_k) - beta v_k) dt + mu dw_k
    x0 holds 2n numbers, x then v. NonFiniteState when a state leaves
    [-BLOWUP_GUARD, BLOWUP_GUARD] or is NaN. The path steps on Python
    floats and rounds like the batched ensemble loop.
    """
    inc = _one_path(sys.n, grid)[0]
    x, v = _split_state(sys.n, x0)
    record = np.empty((grid.steps + 1, 1, 2 * sys.n))
    _em_one_path(sys, x, v, inc, grid.t0, grid.dt, record, strict=True)
    return Path(times=grid.times, states=record[:, 0],
                labels=_ou_labels(sys.n),
                meta=_grid_meta(grid, "euler-maruyama"))


def euler_maruyama_ensemble(sys, x0, t0, t1, steps, n_paths, seed=0):
    """Terminal states of n_paths Euler-Maruyama paths, (n_paths, 2n).

    Row i is driven by the increments keyed (seed, i), so it equals
    euler_maruyama on sample_wiener(..., path_index=i). Up to
    ENSEMBLE_PATHS paths are stepped together; their increments take
    ENSEMBLE_PATHS * n * steps floats, and while one chunk steps the next
    is drawn, so peak memory is two chunks of increments (one with
    OUSYM_THREADS=1).
    """
    if not _is_count(n_paths):
        raise InvalidGrid("n_paths must be >= 1")
    out = np.empty((n_paths, 2 * sys.n))
    with closing(_increment_blocks(sys.n, t0, t1, steps, seed, n_paths,
                                   ENSEMBLE_PATHS)) as blocks:
        for i0, inc in blocks:
            out[i0:i0 + len(inc)], _ = _ou_em(sys, x0, t0, t1, inc)
    return out


# --- exact solvers ---

def _one_path(n, grid):
    """The grid's increments as a batch of one, (1, n, steps)."""
    if grid.n_proc != n:
        raise DimensionMismatch(
            f"grid drives {grid.n_proc} processes, system has n = {n}")
    return grid.increments[None]


def _windows(steps, per_step):
    """The time windows an exact path is built in: row ranges (k0, k1) that
    cover the states 0..steps in order. Window k0..k1 - 1 takes the steps
    k0..min(k1, steps) - 1; per_step is the values one step holds (paths *
    n, 0 for an empty batch), so a window holds about WINDOW_VALUES values.

    Window starts are multiples of a power of two, at least 16, so every
    column of a window product (M @ q, Minv @ dW) keeps its place modulo
    BLAS's unrolling and rounds as in one product over the whole path; a
    last window of one step joins the window before it, since a one-column
    product goes to gemv and rounds differently."""
    width = 1 << max(4, (WINDOW_VALUES // max(per_step, 1)).bit_length() - 1)
    starts = list(range(0, steps, width))
    if len(starts) > 1 and steps - starts[-1] < 2:
        del starts[-1]
    return list(zip(starts, starts[1:] + [steps + 1]))


def _guarded(exact_paths, sys, x0, t, inc, study=False):
    """exact_paths(sys, x0, t, inc) under the one rule that rejects an exact
    path. exact_paths yields the path in time windows (k0, k1, x, v, leak):
    the states of rows k0..k1 - 1 as x and v (paths, k1 - k0, n) and the
    window's largest imaginary part per path (paths,) or 0.0. Each path's
    largest |state| and its leakage are folded over the windows.

    The rule reads that one size per path: a path is rejected when it fails
    size <= BLOWUP_GUARD (NaN fails it; its leakage is set to inf) or when
    its leakage fails symmetry._judge against the size (CERT_REL read at
    call time). numpy does not warn, and an overflow anywhere in the
    closed form is an inf or NaN state that the guard rejects.

    A study (study=True) keeps the terminal states (paths, 2n) and skips
    the rejected paths; a solve keeps every state (paths, steps + 1, 2n)
    and raises NonFiniteState on a rejected path. Returns those states,
    each path's leakage and the (paths,) mask of rejected paths."""
    paths, n = inc.shape[:2]
    rows = t.shape[0]
    states = np.empty((paths, 2 * n) if study else (paths, rows, 2 * n))
    size = np.zeros(paths)
    leak = np.zeros(paths)
    with np.errstate(all="ignore"):
        for k0, k1, x, v, part in exact_paths(sys, x0, t, inc):
            for s in (x, v):
                # NaN propagates, and fails the guard
                size = np.maximum(size, np.abs(s).max(axis=(1, 2)))
            leak = np.maximum(leak, part)
            if not study:
                states[:, k0:k1, :n] = x
                states[:, k0:k1, n:] = v
            elif k1 == rows:
                states[:, :n] = x[:, -1]
                states[:, n:] = v[:, -1]
    ok = size <= BLOWUP_GUARD
    if not (study or ok.all()):
        raise NonFiniteState("exact path is NaN or beyond BLOWUP_GUARD")
    leak = np.where(ok, leak, np.inf)
    clean, why = _judge(leak, size)
    if why and not study:
        raise NonFiniteState(f"imaginary leakage {why}")
    return states, leak, ~clean


def _exact_constant_paths(sys, x0, t, inc):
    """Constant-force states on the times t, from increments
    (paths, n, steps), in the time windows of _guarded. Real arithmetic:
    the leakage is zero.

    The components run as one block: beta, mu, c and the coefficients
    derived from them are (n, 1) columns, each window takes one running
    sum of exp(beta t) dw and one of dw over the whole (paths, n, steps)
    block, and one pair of sums carries over to the next window. Each
    entry is computed as the per-component formula computes it, operand
    for operand. Nothing raises on overflow: c / beta^2 is formed on numpy
    scalars, so a square that overflows, or underflows to 0, gives inf or
    NaN states, which _guarded's one rule rejects."""
    if not isinstance(sys.force, ConstantForce):
        raise WrongForceClass("exact_solve_constant needs a constant force")
    x, v = _split_state(sys.n, x0)
    paths, n, steps = inc.shape
    b = np.array(sys.beta)[:, None]
    mb = np.array(sys.mu)[:, None] / b
    cy = np.array(sys.force.c)[:, None] / b
    # on numpy scalars (b[:, 0]), whose ** is libm's pow, as Python's is:
    # an array's b ** 2 (b * b) misses its last bit now and then
    cz = np.array([[ci / bi ** 2] for bi, ci in zip(b[:, 0], sys.force.c)])
    e0 = np.exp(b * t[0])
    z0 = -e0 / b * v[:, None]
    y0 = x[:, None] + v[:, None] / b
    # running sums that end the window before: I (below) and w
    ends = (None, None)
    for k0, k1 in _windows(steps, paths * n):
        tr, ts, r = t[k0:k1], t[k0:min(k1, steps)], k1 - k0
        dw = inc[:, :, k0:min(k1, steps)]
        # I(t_k) = sum_{j<k} exp(b t_j) dw_j, the quadrature for z
        integ = _cumulative(np.exp(b * ts) * dw, ends[0])
        w = _cumulative(dw, ends[1])
        ends = (integ[:, :, -1].copy(), w[:, :, -1].copy())
        # in place, operand for operand:
        # z = z0 - cz (exp(b t) - exp(b t0)) - mb I,
        # y = y0 + cy (t - t0) + mb w, v = -b exp(-b t) z, x = y - v / b
        z = np.multiply(mb, integ[:, :, :r], out=integ[:, :, :r])
        np.subtract(z0 - cz * (np.exp(b * tr) - e0), z, out=z)
        y = np.multiply(mb, w[:, :, :r], out=w[:, :, :r])
        np.add(y0 + cy * (tr - t[0]), y, out=y)
        vs = np.multiply(-b * np.exp(-b * tr), z)
        xs = np.subtract(y, np.divide(vs, b, out=z), out=y)
        yield k0, k1, xs.transpose(0, 2, 1), vs.transpose(0, 2, 1), 0.0


def exact_solve_constant(sys, x0, grid):
    """Exact constant-force solution through the rectifying variables

        y_i = x_i + v_i / beta_i          (straight line plus scaled noise)
        z_i = -(exp(beta_i t) / beta_i) v_i

    which reduce both equations to pure quadrature. The drift terms are
    exact; the noise quadrature of z, exp(beta_i t) dw, is the left-point
    sum over the grid's increments, of strong order 1 (the one of y, dw
    alone, is exact). x0 holds 2n numbers, x then v. NonFiniteState when
    a state leaves [-BLOWUP_GUARD, BLOWUP_GUARD] or is NaN, as in
    euler_maruyama.
    """
    states, _, _ = _guarded(_exact_constant_paths, sys, x0, grid.times,
                            _one_path(sys.n, grid))
    return Path(times=grid.times, states=states[0], labels=_ou_labels(sys.n),
                meta=_grid_meta(grid, "exact-rectified"))


def _mode_quadrature(y0, a, dw, start=None):
    """One mode branch over one window of steps, (paths, steps + 1): y0
    plus the running sums of a * dw (paths, steps), continued from start,
    the raw running sum that ends the window before (None on the first
    window, where the branch starts at y0 itself). Returns the branch and
    the raw running sum that ends this window."""
    raw = _cumulative(a * dw, start)
    end = raw[:, -1].copy()
    y = np.add(raw, y0, out=raw)
    if start is None:
        y[:, 0] = y0
    return y, end


def _exact_linear_paths(sys, x0, t, inc):
    """Eigenmode states on the times t, from increments (paths, n, steps),
    in the time windows of _guarded, with each window's largest imaginary
    part per path.

    When the eigenvector matrix M and its inverse are real (every
    symmetric L, every L with a real spectrum), the modes run
    in float64 and the leakage is exactly 0.0: a real mode takes the real
    parts of its complex coefficients, and a conjugate pair is formed from
    its + branch alone, its - branch being the bitwise conjugate. Otherwise
    the modes run in complex arithmetic and the leakage is measured."""
    if not isinstance(sys.force, LinearForce):
        raise WrongForceClass("exact_solve_linear needs a linear force")
    if not sys.isotropic:
        raise WrongForceClass(
            "the exact linear solver covers n = 1 or isotropic systems")
    n = sys.n
    x, v = _split_state(n, x0)
    L, K = sys.force.L, sys.force.K
    if np.any(K != 0.0):
        try:
            shift = np.linalg.solve(L, K)
        except np.linalg.LinAlgError:
            raise WrongForceClass(
                "affine offset needs a regular matrix to absorb")
    else:
        shift = np.zeros(n)
    beta = sys.beta[0]
    mu = sys.mu[0]

    _, M, rates = _eigenmodes(L, beta)
    Minv = np.linalg.inv(M)

    q0 = Minv @ (x + shift).astype(complex)
    p0 = Minv @ v.astype(complex)
    # q0 and p0 are real whenever M and Minv are
    real = not (M.imag.any() or Minv.imag.any())
    if real:
        M, Minv = M.real, Minv.real
    modes = []
    for i, (kp, km) in enumerate(rates):
        yp0 = np.exp(kp * t[0]) * (km * q0[i] + p0[i]) / (km - kp)
        ym0 = np.exp(km * t[0]) * (kp * q0[i] + p0[i]) / (kp - km)
        modes.append((kp, km, yp0, ym0))
    # raw running sums that end the window before, per mode and branch
    ends = [[None, None] for _ in range(n)]
    paths, _, steps = inc.shape
    for k0, k1 in _windows(steps, paths * n):
        tr, ts, r = t[k0:k1], t[k0:min(k1, steps)], k1 - k0
        dw = inc[:, :, k0:min(k1, steps)]
        dW = Minv @ (dw if real else dw.astype(complex))  # per-mode noise
        q = np.empty((paths, n, r), dtype=M.dtype)
        p = np.empty_like(q)
        for i, (kp, km, yp0, ym0) in enumerate(modes):
            # complex exp even for a real mode: real exp rounds differently
            ap = mu * np.exp(kp * ts) / (km - kp)
            ep = np.exp(-kp * tr)
            if real and kp.imag != 0.0:
                # conjugate pair: q = a + conj(a), p = -b - conj(b)
                yp, ends[i][0] = _mode_quadrature(yp0, ap, dW[:, i],
                                                  ends[i][0])
                a = (ep * yp[:, :r]).real
                b = ((kp * ep) * yp[:, :r]).real
                np.add(a, a, out=q[:, i])
                np.subtract(-b, b, out=p[:, i])
                continue
            am = mu * np.exp(km * ts) / (kp - km)
            em = np.exp(-km * tr)
            if real:
                kp, km, yp0, ym0 = kp.real, km.real, yp0.real, ym0.real
                ap, am, ep, em = ap.real, am.real, ep.real, em.real
            yp, ends[i][0] = _mode_quadrature(yp0, ap, dW[:, i], ends[i][0])
            ym, ends[i][1] = _mode_quadrature(ym0, am, dW[:, i], ends[i][1])
            yp, ym = yp[:, :r], ym[:, :r]
            # in place, operand for operand: q = ep yp + em ym and
            # p = (-kp ep) yp - (km em) ym
            np.add(ep * yp, em * ym, out=q[:, i])
            np.subtract(np.multiply(-kp * ep, yp, out=yp),
                        np.multiply(km * em, ym, out=ym), out=p[:, i])
        s_path = M @ q  # (paths, n, r)
        v_path = M @ p
        leak = 0.0 if real else np.maximum(
            np.max(np.abs(s_path.imag), axis=(1, 2)),
            np.max(np.abs(v_path.imag), axis=(1, 2)))
        yield (k0, k1, s_path.real.transpose(0, 2, 1) - shift,
               v_path.real.transpose(0, 2, 1), leak)


def exact_solve_linear(sys, x0, grid):
    """Exact solution for a regular linear force (n = 1 or isotropic).

    In eigenmode coordinates q = M^-1 x each mode splits into two processes
        y_pm = exp(kappa_pm t) (kappa_mp q + p) / (kappa_mp - kappa_pm)
    whose drift vanishes identically, leaving the quadratures
        dy_pm = mu exp(kappa_pm t) / (kappa_mp - kappa_pm) dW~.
    The drift is thus exact; each quadrature is the left-point sum over
    the grid's increments, of strong order 1. An affine offset K is
    absorbed by the shift L^-1 K, which cancels when L is nearly singular
    (a known defect): with n = 1, beta = 1, mu = 1e-200, K = [1] and
    x0 = (0.5, 0) on [0, 1], the terminal state is 1.9e-4 relative off
    expm at L = [[1e-12]] and 8.2e-3 at L = [[1e-14]]; a singular L with
    K != 0 raises WrongForceClass.
    With real eigenvectors (every symmetric L, every L with a real
    spectrum) the modes run in float64, a conjugate pair of rates is taken
    once, and meta["max_imag_leakage"] is exactly 0.0. Complex eigenvectors
    are carried in complex arithmetic and the imaginary part of the
    reassembled state is checked against the path's largest |state| by
    symmetry._judge, the one certification rule. x0 holds 2n numbers,
    x then v. NonFiniteState when a state leaves [-BLOWUP_GUARD,
    BLOWUP_GUARD] or is NaN, as in euler_maruyama.
    """
    states, leak, _ = _guarded(_exact_linear_paths, sys, x0, grid.times,
                               _one_path(sys.n, grid))
    meta = _grid_meta(grid, "exact-eigenmodes")
    meta["max_imag_leakage"] = float(leak[0])
    return Path(times=grid.times, states=states[0], labels=_ou_labels(sys.n),
                meta=meta)


def _exact_solver(sys):
    """The one choice of exact solver, by sys's force class, for `solve`
    and `converge`: (single-path solver, path generator, problem name)."""
    if isinstance(sys.force, ConstantForce):
        return exact_solve_constant, _exact_constant_paths, "ou-constant"
    if isinstance(sys.force, LinearForce):
        return exact_solve_linear, _exact_linear_paths, "ou-linear"
    raise WrongForceClass("no exact solver for this force class")


# --- convergence studies ---

@dataclass(frozen=True)
class ConvergenceReport:
    problem: str
    ladder_steps: tuple
    dts: tuple
    errors: tuple              # mean strong error per rung
    fitted_order: float
    n_paths: int
    used_paths: int
    skipped_paths: int
    seed: int
    refine: int


class _ConvergenceProblem:
    """Base of the convergence adapters (protocol: convergence_study). The
    single-grid pair runs a subclass's batched maps on a batch of one and
    raises where the study would skip the path."""

    exact_skip = NonFiniteState  # raised by exact_terminal on a skip

    def exact_terminal(self, x0, grid):
        """Exact terminal state (d,) on one grid."""
        term, skip = self.exact_terminals(x0, grid.t0, grid.t1,
                                          _one_path(self.n_proc, grid))
        if skip[0]:
            raise self.exact_skip(f"{self.name}: exact solution skipped")
        return term[0]

    def em_terminal(self, x0, grid):
        """Euler-Maruyama terminal state (d,) on one grid."""
        term, blown = self.em_terminals(x0, grid.t0, grid.t1,
                                        _one_path(self.n_proc, grid))
        if blown[0]:
            raise NonFiniteState(f"{self.name}: Euler-Maruyama blew up")
        return term[0]


class OUConvergenceProblem(_ConvergenceProblem):
    """Adapter pairing the OU exact solver with Euler-Maruyama."""

    def __init__(self, sys):
        self.sys = sys
        self.n_proc = sys.n
        _, self._exact_paths, self.name = _exact_solver(sys)

    def exact_terminals(self, x0, t0, t1, inc):
        t = np.linspace(t0, t1, inc.shape[2] + 1)
        term, _, skip = _guarded(self._exact_paths, self.sys, x0, t, inc,
                                 study=True)
        return term, skip

    def em_terminals(self, x0, t0, t1, inc):
        return _ou_em(self.sys, x0, t0, t1, inc, strict=False)


class _ScalarProblem(_ConvergenceProblem):
    """A scalar fixture dy = drift(y) dt + sigma(y) dw, written once:
    drift and sigma act elementwise on an array, which Euler-Maruyama
    steps, and on a hyper-dual, through sys, the fixture's Ito process."""

    n_proc = 1

    @property
    def sys(self):
        """The fixture as an Ito process on extended points, for the
        residual and invariance checks."""
        return CustomItoProcess(1, 1, lambda p: [self.drift(p.x[0])],
                                lambda p: [[self.sigma(p.x[0])]])

    def _start(self, x0):
        """The one number the fixture starts from, judged as an OU state is
        (_flat_state)."""
        return float(_flat_state(x0, 1, "d")[0])

    def em_terminals(self, x0, t0, t1, inc):
        dt = (t1 - t0) / inc.shape[2]

        def step(y, dw, out):
            np.add(y + self.drift(y) * dt, self.sigma(y) * dw, out=out)

        start = np.full((inc.shape[0], 1), self._start(x0))
        return _em_batch(step, start, inc, t0, dt, strict=False)


class GBMConvergenceProblem(_ScalarProblem):
    """dx = a x dt + b x dw with the exponential closed form."""

    def __init__(self, a, b):
        self.a, self.b = float(a), float(b)
        self.name = "gbm"

    def drift(self, x):
        return self.a * x

    def sigma(self, x):
        return self.b * x

    def exact_terminals(self, x0, t0, t1, inc):
        # the Wiener value at t1, summed window by window: each window's
        # running sum continues from the one that ended the window before
        # (the last window's slice stops at the last step)
        w = None
        for k0, k1 in _windows(inc.shape[2], inc.shape[0]):
            w = _cumulative(inc[:, :, k0:k1], w)[:, :, -1]
        x = self._start(x0) * np.exp(
            _gbm_exponent(self.a, self.b, t1 - t0, w))
        return x, np.zeros(inc.shape[0], dtype=bool)


class KozlovConvergenceProblem(_ScalarProblem):
    """dy = (exp(-y) - exp(-2y)/2) dt + exp(-y) dw, solvable through
    x = exp(y)."""

    name = "kozlov-exp"
    exact_skip = DomainExit

    def drift(self, y):
        return duals.exp(-y) - 0.5 * duals.exp(-2.0 * y)

    def sigma(self, y):
        return duals.exp(-y)

    def exact_terminals(self, x0, t0, t1, inc):
        # x and its floor mask window by window, the running sums carried
        # as in GBMConvergenceProblem: w holds states k0..k1, the last of
        # which starts the next window, and the last window ends at t1
        y0 = self._start(x0)
        s = np.linspace(t0, t1, inc.shape[2] + 1) - t0
        end, skip = None, np.zeros(inc.shape[0], dtype=bool)
        for k0, k1 in _windows(inc.shape[2], inc.shape[0]):
            w = _cumulative(inc[:, :, k0:k1], end)
            end = w[:, :, -1]
            x, below = _kozlov_transform(y0, s[k0:k1 + 1], w)
            skip |= below[:, 0].any(axis=1)
        with np.errstate(invalid="ignore"):
            return np.log(x[:, :, -1]), skip


def convergence_study(problem, x0, t0, t1, ladder_steps, n_paths=200,
                      seed=0, refine=64):
    """Strong error of Euler-Maruyama against the exact solution.

    The reference uses the exact solver on a refine-times-finer grid (its
    noise integrals are left-point sums, of strong order 1, so the finer
    grid keeps its own error small next to Euler-Maruyama's); each
    rung re-drives Euler-Maruyama with the coarsened copy of the same
    noise. Paths where any solver exits its domain or blows up are skipped
    whole (deterministically, by path index) and counted.

    fitted_order is the slope of log error against log dt, fitted by least
    squares over the rungs; a one-rung ladder fits no order, and its
    fitted_order is NaN.

    Paths go in blocks of at most BLOCK_VALUES fine increments; the next
    block is drawn while the current one runs, so two blocks of increments
    are alive at once (one with OUSYM_THREADS=1). Beyond them, each rung
    holds the coarsened copy of the block it steps, and the OU, GBM and
    Kozlov references stream over time windows of about WINDOW_VALUES
    values, keeping only the terminal states, so they add a few
    window-sized arrays.

    problem is an adapter: it has n_proc, name and exact_terminals /
    em_terminals(x0, t0, t1, inc), which map increments
    (paths, n_proc, steps) on [t0, t1] to terminal states (paths, d) and a
    (paths,) mask of paths to skip. The adapters here also have
    exact_terminal / em_terminal(x0, grid): the same maps on one grid as a
    batch of one, raising DomainExit or NonFiniteState on a skipped path.
    """
    ladder = list(ladder_steps)
    if not ladder or not all(_is_count(s) for s in ladder):
        raise InvalidGrid(f"ladder_steps must be a non-empty list of "
                          f"positive integers, got {ladder!r}")
    ladder = [int(s) for s in ladder]
    if sorted(set(ladder)) != ladder:
        raise InvalidGrid("ladder_steps must be strictly increasing")
    if not _is_count(refine):
        raise InvalidGrid("refine must be a positive integer")
    if not _is_count(n_paths):
        raise InvalidGrid("n_paths must be >= 1")
    finest = ladder[-1] * refine
    for s in ladder:
        if finest % s != 0:
            raise InvalidGrid(
                f"rung {s} does not divide the finest grid {finest}")
    m = problem.n_proc
    block = max(1, BLOCK_VALUES // (m * finest))
    errs = np.zeros((n_paths, len(ladder)))
    skip = np.zeros(n_paths, dtype=bool)
    with closing(_increment_blocks(m, t0, t1, finest, seed, n_paths,
                                   block)) as blocks:
        for i0, fine in blocks:
            rows = slice(i0, i0 + len(fine))
            ref, skip[rows] = problem.exact_terminals(x0, t0, t1, fine)
            for r, s in enumerate(ladder):
                em, blown = problem.em_terminals(
                    x0, t0, t1, _coarsened(fine, finest // s))
                skip[rows] |= blown
                # skipped paths may hold inf or NaN; their errors are unused
                with np.errstate(invalid="ignore"):
                    errs[rows, r] = np.max(np.abs(em - ref), axis=1)

    used = int(np.sum(~skip))
    if used == 0:
        raise OusymError("every path was skipped; nothing to average")
    means = errs[~skip].mean(axis=0)
    dts = [(t1 - t0) / s for s in ladder]
    # one rung fits no slope
    slope = (np.polyfit(np.log(dts), np.log(means), 1)[0] if len(ladder) > 1
             else np.nan)
    return ConvergenceReport(
        problem=problem.name, ladder_steps=tuple(ladder), dts=tuple(dts),
        errors=tuple(float(e) for e in means), fitted_order=float(slope),
        n_paths=int(n_paths), used_paths=used,
        skipped_paths=int(n_paths - used), seed=seed, refine=int(refine))


# --- reference fixtures ---

def _gbm_exponent(a, b, s, w):
    """(a - b^2/2) s + b w, elementwise: the GBM state is x0 times its exp
    at elapsed time s and Wiener value w."""
    return (a - 0.5 * b ** 2) * s + b * w


def _kozlov_transform(y0, s, w):
    """x = exp(y0) + s + w, elementwise: the Kozlov state is log x at
    elapsed time s and Wiener value w. Also the mask where x is not above
    the floor 1e-9 (NaN included), i.e. where the solution exits."""
    x = np.exp(y0) + s + w
    return x, ~(x > 1e-9)


def solve_reference_problem(problem_id, params, grid):
    """Closed-form path plus a self-check certificate for the fixtures.

    "gbm": params a, b, x0. The path is x0 exp[(a - b^2/2)(t - t0) + b w];
    the certificate evaluates the known invariant
    Theta = x exp[-(a - b^2/2)(t - t0) - b w] along the path and reports its
    worst deviation from x0.

    "kozlovexp": params y0. The path is y = log(exp(y0) + (t - t0) + w);
    DomainExit if the transformed state touches 1e-9. The certificate
    re-applies the transform and reports the worst defect plus the domain
    margin.

    The closed forms are the ones the convergence adapters use, here on
    every time of one grid. OusymError if a parameter, the path or the
    certificate is not finite.
    """
    pid = str(problem_id).strip().lower()
    if pid == "gbm":
        p = {"a": params["a"], "b": params["b"], "x0": params.get("x0", 1.0)}
    elif pid == "kozlovexp":
        p = {"y0": params.get("y0", 2.0)}
    else:
        raise OusymError(f"unknown reference problem: {problem_id!r} "
                         f"(known: gbm, kozlovexp)")
    p = {key: float(value) for key, value in p.items()}
    if not np.all(np.isfinite(list(p.values()))):
        raise OusymError(f"reference parameters must be finite, got {p}")
    t = grid.times
    w = grid.cumulative()[0]
    # an overflow is reported by the finite check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if pid == "gbm":
            exponent = _gbm_exponent(p["a"], p["b"], t - grid.t0, w)
            xs = p["x0"] * np.exp(exponent)
            theta = xs * np.exp(-exponent)
            cert = {"problem": "gbm",
                    "invariant": "x*exp(-(a - b^2/2)*(t - t0) - b*w)",
                    "max_invariant_deviation": float(
                        np.max(np.abs(theta - p["x0"])))}
            path = Path(times=t, states=xs.reshape(-1, 1), labels=("x1",),
                        meta=_grid_meta(grid, "exact-gbm"))
        else:
            acc, below = _kozlov_transform(p["y0"], t - grid.t0, w)
            if below.any():
                raise DomainExit(f"transformed state reached the floor at "
                                 f"t = {t[np.argmax(below)]}")
            ys = np.log(acc)
            defect = np.exp(ys) - acc
            cert = {"problem": "kozlovexp",
                    "transform": "x = exp(y), dx = dt + dw",
                    "max_transform_defect": float(np.max(np.abs(defect))),
                    "domain_margin": float(np.min(acc))}
            path = Path(times=t, states=ys.reshape(-1, 1), labels=("y1",),
                        meta=_grid_meta(grid, "exact-kozlov"))
    numbers = [v for v in cert.values() if isinstance(v, float)]
    if not (np.all(np.isfinite(path.states)) and np.all(np.isfinite(numbers))):
        raise OusymError(f"reference closed form is not finite for {p}: "
                         f"the path or its certificate overflows")
    return path, cert


# --- CSV output ---

def _open_dest(dest):
    """dest itself, left open, if it can be written to; else the file at
    that path, opened for writing. Either way a context manager."""
    if hasattr(dest, "write"):
        return nullcontext(dest)
    return open(dest, "w", newline="")


def write_path_csv(path, dest):
    """A comment header with path.meta, one "# key=value" line per key in
    sorted order, then t plus one column per label."""
    with _open_dest(dest) as fh:
        for key in sorted(path.meta):
            fh.write(f"# {key}={path.meta[key]}\n")
        fh.write("t," + ",".join(path.labels) + "\n")
        # repr of a Python float is repr(float(v)) of the numpy value
        table = np.column_stack((path.times, path.states)).astype(
            float, copy=False)
        rows, cols = table.shape
        fh.write((",".join(["%r"] * cols) + "\n") * rows
                 % tuple(table.ravel().tolist()))


def write_convergence_csv(report, dest):
    with _open_dest(dest) as fh:
        fh.write(f"# problem={report.problem}\n")
        fh.write(f"# seed={report.seed}\n")
        fh.write(f"# n_paths={report.n_paths}\n")
        fh.write(f"# used_paths={report.used_paths}\n")
        fh.write(f"# refine={report.refine}\n")
        fh.write("dt,strong_error\n")
        for dt, err in zip(report.dts, report.errors):
            fh.write(f"{repr(float(dt))},{repr(float(err))}\n")
        fh.write(f"# fitted_order={repr(float(report.fitted_order))}\n")


def read_path_csv(src):
    """Inverse of write_path_csv; returns (meta, labels, times, states).

    Comment lines may appear anywhere and blank lines are skipped. The
    first other line is the header; a data line whose cell count differs
    from the header's raises DimensionMismatch. states is (rows, labels).
    """
    if hasattr(src, "read"):
        text = src.read()
    else:
        with open(src) as fh:
            text = fh.read()
    meta = {}
    labels = None
    rows = []
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, _, val = body.partition("=")
                meta[k.strip()] = val.strip()
            continue
        if labels is None:
            labels = tuple(line.split(",")[1:])
            continue
        if line.count(",") != len(labels):
            raise DimensionMismatch(
                f"line {number} has {line.count(',') + 1} cells, the "
                f"header has {len(labels) + 1}")
        rows.append(line)
    # one conversion; numpy parses each cell as float() does
    values = np.array(",".join(rows).split(",") if rows else [],
                      dtype=float).reshape(len(rows), 1 + len(labels or ()))
    return meta, labels, values[:, 0], values[:, 1:]

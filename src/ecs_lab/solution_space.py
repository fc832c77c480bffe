"""The symplectic space of transverse Jacobi-type solutions.

Solutions of the V-valued linear ODE

    u''(t) = f(t) u(t) + A u(t)

form a 2m-dimensional space E, represented here by Cauchy data
(value, derivative) at the model's base time, `default_base_t()`. The
pairing

    Omega(u, w) = <u'(t), w(t)> - <u(t), w'(t)>

is independent of t (differentiate and use self-adjointness of f + A), is
nondegenerate, and makes E a symplectic vector space. Since Omega does not
depend on t, the base time is only a choice of representation, and each
model makes it once. The associated Heisenberg group R x E with product

    (r, u)(r', u') = (r + r' - Omega(u, u'), u + u')

acts on the model by isometries. It is the subgroup sigma = id of the full
isometry group; elements and the group law (IsoElement, iso_compose) live
in isometry_group.

Propagation uses the fundamental matrix of the first-order system,
integrated by this module's `solve_ivp` over fixed segments on either side
of the base time. The segment edges depend only on the model, so a query's
answer never depends on the queries before it. Each integrated segment's
steps go straight into a per-direction table of DOP853 interpolant terms.
Each model has one flow, built on first use and shared by everything that
uses the model.

An element of E is a plain (2m,) array of its Cauchy data, the value block
followed by the derivative block, so the vector-space operations are array
arithmetic. `solution_at` takes such a vector (or a stack of them, one per
time) and a time or an array of times and makes one `CauchyFlow.matrices`
lookup for all of them: one search of the step tables and one vectorized
dense-output evaluation, each entry bit-identical to SciPy's dense output
at its time. Callers that need u at many times pass them in one array.

`solve_ivp` is the package's one DOP853 (Hairer, Norsett and Wanner,
Solving ODEs I, II.10). It repeats SciPy's DOP853 to the bit and always
returns its steps as table rows; `_StepTable` is the one dense-output
reader of those rows, for the flow's segments and for the geodesics
module's runs alike. It loads scipy.integrate on its first call, for
DOP853's coefficient table only, so importing the package and checks that
integrate nothing (curvature) never load it.

The stepper and the right-hand sides it calls are the hot loop of every
integration, and they keep one dispatch rule. Their small products call
`ndarray.dot` (or `np.dot` with `out=`), the BLAS routine that `@` calls,
with the same bits at about half the per-call cost at these sizes. The
step control (t, h, the direction and the stage nodes) runs on Python
floats. nfev is counted by the stepper, not by a wrapper around the
right-hand side, and still equals SciPy's. It is also the one evaluation
budget: past `_MAX_EVALS` any run (a flow segment, geodesic, plunge or
transport run) ends with status -1.
"""

from __future__ import annotations

from functools import cache
from math import inf, nextafter
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .model_geometry import ModelManifold

# Queries are refused closer than this to a finite interval endpoint, where
# singular profiles blow up.
ENDPOINT_BARRIER = 1e-8

_RTOL = 1e-13
_ATOL = 1e-13

# Any run of the stepper fails after this many evaluations (scenario runs
# need a few thousand): on an overflowing or stiff profile the steps can
# shrink without end while the solver never reports a failure.
_MAX_EVALS = 100_000

_DONE = "The solver successfully reached the end of the integration interval."


class IntegrationError(RuntimeError):
    """An integration that could not be completed."""


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


@cache
def _tableau():
    """DOP853's coefficient tables, read from SciPy's public class once."""
    from scipy.integrate import DOP853 as M

    return M.A, M.B, M.C, M.E3, M.E5, M.D, M.A_EXTRA, M.C_EXTRA


def solve_ivp(fun, t_span, y0, *, rtol, atol):
    """DOP853 for one run, repeating SciPy's `solve_ivp(fun, t_span, y0,
    method="DOP853", rtol=rtol, atol=atol, dense_output=True)` operation
    for operation: its initial step choice, steps, error norm and
    interpolant terms. It keeps no solver or dense-output objects. Returns
    SciPy's nfev (the three extra interpolation stages of every step
    included), status (0, or -1 when the step size underflows or is NaN or
    a step attempt starts past `_MAX_EVALS` evaluations), success and
    message, the end state y_end and one row per step, in the order the
    steps were taken: its end t, t_old, h, y_old and the seven
    interpolant terms (steps, 7, n) in SciPy's order, each bit-identical
    to what SciPy's Dop853DenseOutput of the step holds. `_StepTable`
    reads the rows at any time.

    fun may return any sequence of n numbers: each stage is written into
    its float row of the stage array, as SciPy converts it. nfev is 1 for
    the start, 1 for the initial step choice, 12 per attempted step and 3
    per accepted one.
    """
    A, B, C, E3, E5, D, A_EXTRA, C_EXTRA = _tableau()
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    n = y.size
    # Each row field and the shape of one step's entry.
    shapes = {"t": (), "t_old": (), "h": (), "y_old": (n,), "terms": (7, n)}
    rows = {key: [] for key in shapes}
    K = np.empty((16, n))      # 13 step stages, then 3 interpolation stages
    K[0] = fun(t, y)
    nfev = 1

    def result(status, message):
        fields = {key: np.reshape(rows[key], (-1, *shape))
                  for key, shape in shapes.items()}
        return SimpleNamespace(**fields, y_end=y, nfev=nfev, status=status,
                               success=status >= 0, message=message)

    if t == t_bound:    # no step
        return result(0, _DONE)
    direction = 1.0 if t_bound > t else -1.0
    # common.select_initial_step, with max_step = inf
    fy = K[0]
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_bound - t))
    d2 = _rms((fun(t + h0 * direction, y + h0 * direction * fy) - fy) / scale) / h0
    nfev = 2
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, abs(t_bound - t)))

    # (c, a, the earlier stages) for each later stage, as views of K
    stages = [(float(C[s]), A[s, :s], K[:s].T) for s in range(1, 12)]
    extra = [(float(c), a[:s], K[:s].T)
             for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), 13)]
    K12, K13 = K[:12].T, K[:13].T

    while True:
        # rk.RungeKutta._step_impl
        min_step = 10 * abs(nextafter(t, direction * inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs != h_abs:    # a NaN step fails no comparison
                return result(-1, "Step size is NaN: the start state or its "
                                  "right-hand side is not finite.")
            if h_abs < min_step:
                return result(-1, "Required step size is less than spacing "
                                  "between numbers.")
            if nfev > _MAX_EVALS:
                return result(-1, f"more than {_MAX_EVALS} evaluations in one "
                                  f"segment")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for s, (c, a, earlier) in enumerate(stages, 1):
                K[s] = fun(t + c * h, y + earlier.dot(a) * h)
            y_new = y + h * K12.dot(B)
            K[12] = fun(t + h, y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            # DOP853._estimate_error_norm
            err5 = np.linalg.norm(K13.dot(E5) / scale) ** 2
            err3 = np.linalg.norm(K13.dot(E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = float(h_abs * err5 / np.sqrt((err5 + 0.01 * err3) * n))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        t_old, y_old, t, y = t, y, t_new, y_new
        # DOP853._dense_output_impl: the interpolant terms
        for s, (c, a, earlier) in enumerate(extra, 13):
            K[s] = fun(t_old + c * h, y_old + earlier.dot(a) * h)
        nfev += 3
        F = np.empty((7, n))
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (K[12] + K[0])
        F[3:] = h * D.dot(K)
        K[0] = K[12]    # the next step's first stage
        for key, value in zip(rows, (t, t_old, h, y_old, F)):
            rows[key].append(value)
        if direction * (t - t_bound) >= 0:
            return result(0, _DONE)


def _check_t(model: ModelManifold, t: float) -> float:
    t = float(t)
    lo, hi = model.interval
    if not (lo < t < hi):
        raise ValueError(f"time {t} outside the model interval {model.interval}")
    # t is finite here, so an infinite end is never within the barrier.
    if t - lo < ENDPOINT_BARRIER:
        raise ValueError(f"time {t} within the endpoint barrier at {lo}")
    if hi - t < ENDPOINT_BARRIER:
        raise ValueError(f"time {t} within the endpoint barrier at {hi}")
    return t


class _StepTable:
    """The DOP853 dense output of a run in one direction, one row per solver
    step, in the order the steps were taken: a geodesic or transport run,
    or the segments of one direction of a flow.

    A row holds the step's end key sign * t, its start time t_old, its
    length h, the state y_old at its start and the seven terms of its
    interpolant (as SciPy's Dop853DenseOutput holds them), kept highest
    term first. Each term is its own (steps, n) array, so adding a segment
    copies the table one term at a time. `tip` is the state at the end of
    the last segment, where the next segment starts: the start state while
    the table has no step.
    """

    def __init__(self, sign: float, start: np.ndarray):
        self.sign = sign
        self.tip = start
        self.keys = self.t_old = self.h = np.empty(0)
        self.y_old = np.empty((0, start.size))
        self.terms = [self.y_old] * 7

    def append(self, sol) -> None:
        """Copy the step rows of a `solve_ivp` run."""
        for j in range(7):
            self.terms[j] = np.concatenate([self.terms[j], sol.terms[:, 6 - j]])
        self.y_old = np.concatenate([self.y_old, sol.y_old])
        self.keys = np.append(self.keys, self.sign * sol.t)
        self.t_old = np.append(self.t_old, sol.t_old)
        self.h = np.append(self.h, sol.h)
        self.tip = sol.y_end

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """The state at each of the times t, one row each, on the step that
        holds it: a time on a step end reads the step that ends there, and
        a time past the last end reads the last step, so the search leaves
        the last end out. A table with no step reads its start state, as
        SciPy reads an empty span. The arithmetic is SciPy's, term by term,
        so every entry is bit-identical to SciPy's OdeSolution at its
        time."""
        if not self.h.size:
            return np.tile(self.tip, (t.size, 1))
        step = self.keys[:-1].searchsorted(self.sign * t)
        x = (t - self.t_old.take(step)) / self.h.take(step)
        # x spread over the row, so that no product broadcasts.
        x = x[:, None].repeat(self.y_old.shape[1], 1)
        x1 = 1 - x
        y = np.zeros(x.shape)
        for term, w in zip(self.terms, (x, x1, x, x1, x, x1, x)):
            y += term.take(step, axis=0)
            y *= w
        y += self.y_old.take(step, axis=0)
        return y


class CauchyFlow:
    """Fundamental solution Phi(t <- t0) of u'' = (f + A) u.

    Phi(t) is the 2m x 2m matrix sending Cauchy data (value, deriv) at the
    model's base time t0 = base_t to Cauchy data at t. Each direction from
    t0 is cut into fixed segments: toward an infinite end the distance from
    t0 doubles (1, 2, 4, ...), toward a finite end the distance left to it
    halves, down to the endpoint barrier. A segment is integrated once, on
    first use, from the end state of the segment before it, and its steps
    are copied into the direction's step table; one that fails (status -1,
    over the stepper's evaluation budget too) is not kept, and every later
    query past its start raises its IntegrationError again without
    integrating. A lookup is a search over the step ends and one
    dense-output evaluation, vectorized over a batch of times, so Phi(t) is
    the same whatever was queried before and whatever else is in the batch.
    """

    def __init__(self, model: ModelManifold):
        self.model = model
        self.base_t = _check_t(model, model.default_base_t())
        self.m = model.m
        # Per direction (+1 forward, -1 backward): sign * t at the end of each
        # integrated segment, and the steps of those segments.
        self._ends = {1.0: [], -1.0: []}
        self._steps = {sign: _StepTable(sign, np.eye(2 * self.m).ravel())
                       for sign in (1.0, -1.0)}
        # The message of the segment that failed, per direction.
        self._failed = {1.0: None, -1.0: None}
        # f(t) Id + A for the right-hand side, rewritten in place: its
        # diagonal is A's diagonal plus f(t).
        self._fa = np.array(model.A, dtype=float)
        self._fa_diag = self._fa.reshape(-1)[::self.m + 1]
        self._A_diag = self._fa_diag.copy()

    def _rhs(self, t, y):
        # Phi = [[U], [U']] flattened has derivative [[U'], [(f + A) U]].
        m, half = self.m, y.size // 2
        np.add(self._A_diag, self.model.profile.value_slope(t)[0], out=self._fa_diag)
        # A new array on every call: the solver keeps it as a stage.
        out = np.empty_like(y)
        out[:half] = y[half:]
        np.dot(self._fa, y[:half].reshape(m, 2 * m), out=out[half:].reshape(m, 2 * m))
        return out

    def _edge(self, sign: float, k: int) -> float:
        """End time of segment k = 0, 1, ... in the given direction."""
        end = self.model.interval[1] if sign > 0 else self.model.interval[0]
        if not np.isfinite(end):
            return self.base_t + sign * 2.0 ** k
        gap = abs(end - self.base_t) / 2.0 ** (k + 1)
        return end - sign * max(gap, ENDPOINT_BARRIER)

    def _extend(self, sign: float, key: float) -> None:
        """Integrate segments in one direction until one ends at key =
        sign * t or past it, or the barrier edge is reached."""
        ends, steps = self._ends[sign], self._steps[sign]
        while not ends or key > ends[-1]:
            stop = self._edge(sign, len(ends))
            if ends and sign * stop <= ends[-1]:
                break   # the barrier edge; t lies past it only by rounding
            if self._failed[sign]:
                raise IntegrationError(self._failed[sign])
            start = sign * ends[-1] if ends else self.base_t
            sol = solve_ivp(self._rhs, (start, stop), steps.tip,
                            rtol=_RTOL, atol=_ATOL)
            if not sol.success:
                self._failed[sign] = f"flow integration failed: {sol.message}"
                raise IntegrationError(self._failed[sign])
            steps.append(sol)
            ends.append(sign * stop)

    def matrices(self, ts) -> np.ndarray:
        """Phi(t <- base_t) at every time of ts, shape ts.shape + (2m, 2m).

        Each entry is bit-identical to the scalar lookup of its time. A
        batch with a time that fails raises what the first failing time,
        in order, raises alone.
        """
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        n = 2 * self.m
        if not flat.size:
            return np.empty(ts.shape + (n, n))
        try:
            lo = _check_t(self.model, np.minimum.reduce(flat))
            hi = _check_t(self.model, np.maximum.reduce(flat))
            if hi > self.base_t:
                self._extend(1.0, hi)
            if lo < self.base_t:
                self._extend(-1.0, -lo)
        except (ValueError, IntegrationError):
            if flat.size == 1:
                raise
            # One time at a time, in order, until the first failing one.
            for t in flat:
                self.matrices(t)
            raise
        # One-sided batches skip both masks and the unused direction's table;
        # without this fork a scalar lookup takes more than twice as long.
        if lo > self.base_t:
            out = self._steps[1.0](flat)
        elif hi < self.base_t:
            out = self._steps[-1.0](flat)
        else:
            out = np.empty((flat.size, n * n))
            for sign, steps in self._steps.items():
                pick = sign * flat > sign * self.base_t
                out[pick] = steps(flat[pick])
            out[flat == self.base_t] = np.eye(n).ravel()
        return out.reshape(ts.shape + (n, n))

    def matrix(self, t: float) -> np.ndarray:
        """Phi(t <- base_t) as a (2m, 2m) array: the batch of one."""
        return self.matrices(float(t))


def flow(model: ModelManifold) -> CauchyFlow:
    """The fundamental flow of the model, built on first use."""
    if model._flow is None:
        model._flow = CauchyFlow(model)
    return model._flow


def solution_at(model: ModelManifold, data, t) -> tuple[np.ndarray, np.ndarray]:
    """(u(t), u'(t)) of the solution with Cauchy data `data` at the base
    time.

    t is a time or an array of times, and data one (2m,) vector or a stack
    of them, shape (..., 2m), broadcast against t's shape; the values stack
    on the broadcast shape, (...) -> (..., m). All times are one
    CauchyFlow.matrices lookup, and an entry is bit-identical to asking for
    its time and data alone. Data of the wrong size raises ValueError.
    """
    d = np.asarray(data, dtype=float)
    data = (flow(model).matrices(t) @ d[..., None])[..., 0]
    m = model.m
    return data[..., :m], data[..., m:]


def omega(model: ModelManifold, x, y) -> float:
    """Symplectic pairing <u', w> - <u, w'> of the solutions with Cauchy
    data x and y, evaluated at the base time."""
    m = model.m
    gram = model.space.gram
    return float(x[m:] @ gram @ y[:m] - x[:m] @ gram @ y[m:])


def omega_matrix(model: ModelManifold) -> np.ndarray:
    """Matrix of Omega in Cauchy coordinates (value block, deriv block).

    Omega(x, y) = x^T J y with J = [[0, -gram], [gram, 0]]; in particular
    det J = det(gram)^2 != 0, so the pairing is a symplectic form.
    """
    m = model.m
    gram = model.space.gram
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = -gram
    J[m:, :m] = gram
    return J


def omega_drift(model: ModelManifold, x, y, ts: Iterable[float]) -> float:
    """max deviation of Omega evaluated from propagated data along ts.

    Constancy of Omega in t is the first nontrivial conservation law of the
    system; this is the direct numerical witness. Each of x and y is one
    batched lookup over all of ts.
    """
    base = omega(model, x, y)
    ts = np.fromiter(ts, dtype=float)
    uv, ud = solution_at(model, x, ts)
    wv, wd = solution_at(model, y, ts)
    vals = model.space.inner(ud, wv) - model.space.inner(uv, wd)
    return float(np.max(np.abs(vals - base), initial=0.0))


def random_solution(model: ModelManifold, rng: np.random.Generator) -> np.ndarray:
    """Cauchy data (value, deriv) with standard normal entries."""
    m = model.m
    return np.concatenate([rng.standard_normal(m), rng.standard_normal(m)])

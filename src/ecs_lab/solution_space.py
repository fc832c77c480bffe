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
integrated with a high-order adaptive scheme (SciPy's DOP853) over fixed
segments on either side of the base time. The segment edges depend only on
the model, so a query's answer never depends on the queries before it. Each
integrated segment's steps are copied into a per-direction table of
dense-output interpolants, and SciPy's result is dropped. Each model has
one flow, built on first use and shared by everything that uses the model.

An element of E is a plain (2m,) array of its Cauchy data, the value block
followed by the derivative block, so the vector-space operations are array
arithmetic. `solution_at` takes such a vector and a time or an array of
times and makes one `CauchyFlow.matrices` lookup for all of them: one
search of the step tables and one vectorized dense-output evaluation, each
entry bit-identical to SciPy's dense output at its time. Callers that need
u at many times pass them in one array.

The flow integrates through this module's `solve_ivp`, which imports
SciPy's integrator on its first call, so importing the package and checks
that integrate nothing (curvature) never load it. Geodesic and transport
runs use the geodesics module's own DOP853 instead.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .model_geometry import ModelManifold

# Queries are refused closer than this to a finite interval endpoint, where
# singular profiles blow up.
ENDPOINT_BARRIER = 1e-8

_RTOL = 1e-13
_ATOL = 1e-13

# A flow segment fails after this many right-hand-side evaluations (the
# shipped models need a few hundred): on an overflowing profile the steps
# can shrink without end while the solver never reports a failure.
_MAX_EVALS = 100_000


class IntegrationError(RuntimeError):
    """An integration that could not be completed."""


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first integration.

    CauchyFlow calls this module-level name at call time, so replacing it
    swaps the integrator of every flow segment. Geodesic and transport runs
    call `geodesics.solve_ivp`, which replacing this name does not touch.
    """
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


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
    """The DOP853 dense output of one direction of a flow, one row per solver
    step, in the order the steps were taken.

    A row holds the step's end key sign * t, its start time t_old, its
    length h, the state y_old at its start and the seven terms of its
    interpolant (SciPy's Dop853DenseOutput; Hairer, Norsett and Wanner,
    Solving ODEs I, II.10), kept highest term first. Each term is its own
    (steps, 4m^2) array, so adding a segment copies the table one term at a
    time. `tip` is the state at the end of the last segment, where the next
    segment starts.
    """

    def __init__(self, sign: float, n: int):
        self.sign = sign
        self.tip = np.eye(n).ravel()
        self.keys = self.t_old = self.h = np.empty(0)
        self.y_old = np.empty((0, n * n))
        self.F = [self.y_old] * 7

    def append(self, sol) -> None:
        """Copy the steps of a segment's solve_ivp result."""
        steps = sol.sol.interpolants
        F = np.stack([step.F for step in steps])
        for j in range(7):
            self.F[j] = np.concatenate([self.F[j], F[:, 6 - j]])
        self.y_old = np.concatenate([self.y_old, [step.y_old for step in steps]])
        self.keys = np.append(self.keys, [self.sign * step.t for step in steps])
        self.t_old = np.append(self.t_old, [step.t_old for step in steps])
        self.h = np.append(self.h, [step.h for step in steps])
        self.tip = sol.y[:, -1].copy()

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Flattened Phi at the times t, each on the step that holds it: a
        time on a step end reads the step that ends there, and a time past
        the last end reads the last step, so the search leaves the last end
        out. The arithmetic is SciPy's, term by term, so every entry is
        bit-identical to SciPy's OdeSolution at its time."""
        step = self.keys[:-1].searchsorted(self.sign * t)
        x = (t - self.t_old.take(step)) / self.h.take(step)
        # x spread over the row, so that no product broadcasts.
        x = x[:, None].repeat(self.y_old.shape[1], 1)
        x1 = 1 - x
        y = np.zeros(x.shape)
        for F, w in zip(self.F, (x, x1, x, x1, x, x1, x)):
            y += F.take(step, axis=0)
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
    are copied into the direction's step table; one that fails is not kept,
    and every later query past its start raises its IntegrationError again
    without integrating. A lookup is a search over the step ends and one
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
        self._steps = {sign: _StepTable(sign, 2 * self.m) for sign in (1.0, -1.0)}
        # The message of the segment that failed, per direction.
        self._failed = {1.0: None, -1.0: None}

    def _rhs(self, t, y):
        self._evals += 1
        if self._evals > _MAX_EVALS:
            raise IntegrationError(f"flow integration failed: more than "
                                   f"{_MAX_EVALS} evaluations in one segment")
        m = self.m
        M = y.reshape(2 * m, 2 * m)
        # A new array on every call: the solver keeps it as the first stage
        # of the next step.
        out = np.empty_like(M)
        out[:m] = M[m:]
        np.matmul(self.model.f_plus_A(t), M[:m], out=out[m:])
        return out.ravel()

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
            self._evals = 0
            try:
                sol = solve_ivp(
                    self._rhs, (start, stop), steps.tip,
                    method="DOP853", rtol=_RTOL, atol=_ATOL, dense_output=True,
                )
                if not sol.success:
                    raise IntegrationError(f"flow integration failed: {sol.message}")
            except IntegrationError as exc:
                self._failed[sign] = str(exc)
                raise
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
        if lo > self.base_t:
            out = self._steps[1.0](flat)
        elif hi < self.base_t:
            out = self._steps[-1.0](flat)
        else:
            out = np.empty((flat.size, n * n))
            for sign, steps in self._steps.items():
                pick = sign * flat > sign * self.base_t
                if pick.any():
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

    t is a time or an array of times; the values stack on its shape,
    (...) -> (..., m). All times are one CauchyFlow.matrices lookup, and
    an entry is bit-identical to asking for its time alone. Data of the
    wrong size raises ValueError.
    """
    d = np.asarray(data, dtype=float).reshape(-1)
    data = flow(model).matrices(t) @ d
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

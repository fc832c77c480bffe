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
integrated with a high-order adaptive scheme and dense output over fixed
segments on either side of the base time. The segment edges depend only on
the model, so a query's answer never depends on the queries before it. Each
model has one flow, built on first use and shared by everything that uses
the model.

An element of E is a plain (2m,) array of its Cauchy data, the value block
followed by the derivative block, so the vector-space operations are array
arithmetic. `solution_at` takes such a vector and a time or an array of
times and makes one `CauchyFlow.matrix` lookup per time; callers that need
u at many times pass them in one array.

The flow integrates through this module's `solve_ivp`, which imports
SciPy's integrator on its first call, so importing the package and checks
that integrate nothing (curvature) never load it. Geodesic and transport
runs use the geodesics module's own DOP853 instead.
"""

from __future__ import annotations

from bisect import bisect_left
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
    if np.isfinite(lo) and t - lo < ENDPOINT_BARRIER:
        raise ValueError(f"time {t} within the endpoint barrier at {lo}")
    if np.isfinite(hi) and hi - t < ENDPOINT_BARRIER:
        raise ValueError(f"time {t} within the endpoint barrier at {hi}")
    return t


class CauchyFlow:
    """Fundamental solution Phi(t <- t0) of u'' = (f + A) u.

    Phi(t) is the 2m x 2m matrix sending Cauchy data (value, deriv) at the
    model's base time t0 = base_t to Cauchy data at t. Each direction from
    t0 is cut into fixed segments: toward an infinite end the distance from
    t0 doubles (1, 2, 4, ...), toward a finite end the distance left to it
    halves, down to the endpoint barrier. A segment is integrated once, on
    first use, from the end state of the segment before it; one that fails
    is not kept, and every later query past its start raises its
    IntegrationError again without integrating. A query is a bisect over
    the segment ends and one dense-output evaluation, so matrix(t) is the
    same whatever was queried before.
    """

    def __init__(self, model: ModelManifold):
        self.model = model
        self.base_t = _check_t(model, model.default_base_t())
        self.m = model.m
        # Per direction (+1 forward, -1 backward): sign * t at the end of each
        # integrated segment, and the segment's dense solution.
        self._ends = {1.0: [], -1.0: []}
        self._sols = {1.0: [], -1.0: []}
        # The message of the segment that failed, per direction.
        self._failed = {1.0: None, -1.0: None}

    def _rhs(self, t, y):
        self._evals += 1
        if self._evals > _MAX_EVALS:
            raise IntegrationError(f"flow integration failed: more than "
                                   f"{_MAX_EVALS} evaluations in one segment")
        m = self.m
        M = y.reshape(2 * m, 2 * m)
        top = M[m:, :]
        bot = self.model.f_plus_A(t) @ M[:m, :]
        return np.vstack([top, bot]).ravel()

    def _edge(self, sign: float, k: int) -> float:
        """End time of segment k = 0, 1, ... in the given direction."""
        end = self.model.interval[1] if sign > 0 else self.model.interval[0]
        if not np.isfinite(end):
            return self.base_t + sign * 2.0 ** k
        gap = abs(end - self.base_t) / 2.0 ** (k + 1)
        return end - sign * max(gap, ENDPOINT_BARRIER)

    def matrix(self, t: float) -> np.ndarray:
        """Phi(t <- base_t) as a (2m, 2m) array."""
        t = _check_t(self.model, t)
        n = 2 * self.m
        if t == self.base_t:
            return np.eye(n)
        sign = 1.0 if t > self.base_t else -1.0
        ends, sols = self._ends[sign], self._sols[sign]
        while not ends or sign * t > ends[-1]:
            stop = self._edge(sign, len(ends))
            if ends and sign * stop <= ends[-1]:
                break   # the barrier edge; t lies past it only by rounding
            if self._failed[sign]:
                raise IntegrationError(self._failed[sign])
            start = sign * ends[-1] if ends else self.base_t
            y0 = sols[-1].y[:, -1] if sols else np.eye(n).ravel()
            self._evals = 0
            try:
                sol = solve_ivp(
                    self._rhs, (start, stop), y0,
                    method="DOP853", rtol=_RTOL, atol=_ATOL, dense_output=True,
                )
                if not sol.success:
                    raise IntegrationError(f"flow integration failed: {sol.message}")
            except IntegrationError as exc:
                self._failed[sign] = str(exc)
                raise
            sols.append(sol)
            ends.append(sign * stop)
        i = min(bisect_left(ends, sign * t), len(ends) - 1)
        return sols[i].sol(t).reshape(n, n)


def flow(model: ModelManifold) -> CauchyFlow:
    """The fundamental flow of the model, built on first use."""
    if model._flow is None:
        model._flow = CauchyFlow(model)
    return model._flow


def solution_at(model: ModelManifold, data, t) -> tuple[np.ndarray, np.ndarray]:
    """(u(t), u'(t)) of the solution with Cauchy data `data` at the base
    time.

    t is a time or an array of times; the values stack on its shape,
    (...) -> (..., m). Each time is one scalar CauchyFlow.matrix lookup,
    so an entry is bit-identical to asking for its time alone. Data of the
    wrong size raises ValueError in the first lookup.
    """
    fl = flow(model)
    t = np.asarray(t, dtype=float)
    d = np.asarray(data, dtype=float).reshape(-1)
    data = np.array([fl.matrix(x) @ d for x in t.ravel()])
    data = data.reshape(t.shape + d.shape)
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
    system; this is the direct numerical witness.
    """
    base = omega(model, x, y)
    gram = model.space.gram
    worst = 0.0
    for t in ts:
        uv, ud = solution_at(model, x, t)
        wv, wd = solution_at(model, y, t)
        val = float(ud @ gram @ wv - uv @ gram @ wd)
        worst = max(worst, abs(val - base))
    return worst


def random_solution(model: ModelManifold, rng: np.random.Generator) -> np.ndarray:
    """Cauchy data (value, deriv) with standard normal entries."""
    m = model.m
    return np.concatenate([rng.standard_normal(m), rng.standard_normal(m)])

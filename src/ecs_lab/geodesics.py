"""Geodesics, second-order transport along leaf curves, and the two
structural maps of the appendices built on them: leafwise geodesic
variations, and the straightening of a transverse null geodesic.

Geodesic equations of the model metric in chart coordinates, with
kappa_t = f'(t) <v, v> and kappa_v = 2 gram (f + A) v:

    t'' = 0
    s'' = -kappa_t t'^2 - 2 (kappa_v . v') t'
    v'' = t'^2 (f(t) + A) v

so t is always affine in the parameter, the leaves {t} x R x V are flat and
totally geodesic (every Christoffel symbol with both lower indices along a
leaf vanishes), and the transverse dynamics is the same linear operator
f + A that drives the solution space. A geodesic with t' = 1 is therefore
known in closed form (`geodesic_closed_form`): it is the image of the chart
line (t, E (t - t0), 0), E its conserved energy, under the Heisenberg
isometry of `isometry_group.straightening_element`, read from the group
action and its Jacobian, so this module looks nothing up in the solution
space itself. Appendix A's variation keeps that geodesic as its endpoint
curve, and Appendix B's straightening map is the same isometry; one helper
checks both against `geodesic`, which integrates the equations above.

Every integration goes through `solve_ivp`, the package's one DOP853
(`solution_space.solve_ivp`, bound here by name), at rtol = atol = 1e-12
with one of two right-hand sides: the geodesic equations and second-order
transport. A run's steps fill one step table (`solution_space._StepTable`,
the reader the flow uses too), and all of its samples are one vectorized
lookup of it, each bit-identical to SciPy's DOP853 dense output there.
Since t is affine, a run that heads for a finite interval endpoint is known
to do so in advance: it stops at a small barrier before the endpoint, at a
parameter given in closed form, and is integrated in x = log|t - endpoint|
so that its steps need not shrink near the singularity; its samples,
uniform in the parameter, crowd into the last steps in x. The geodesic
right-hand side applies f v + A v rather than forming f + A, and keeps the
stepper's dispatch rule (`solution_space`): its products are `ndarray.dot`
calls, with the bits of `@`, and it writes the derivative into one new
array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as _P

from .isometry_group import IsoElement, iso_action, iso_apply, straightening_element
from .model_geometry import ChartPoint, ModelManifold
from .solution_space import ENDPOINT_BARRIER, IntegrationError, _StepTable, solve_ivp

_RTOL = 1e-12
_ATOL = 1e-12


def christoffel_closed_form(model: ModelManifold, t: float, v: np.ndarray) -> np.ndarray:
    """The nonzero Christoffel symbols in closed form.

    Gamma^s_tt = kappa_t, Gamma^s_{t i} = Gamma^s_{i t} = kappa_{v_i},
    Gamma^k_tt = -((f + A) v)_k, everything else zero. It is independent
    of the generic metric-jet pipeline (`curvature_at(...).christoffel`),
    and the tests compare the two on every roster model.
    """
    n, m = model.dim, model.m
    gram = model.space.gram
    f1 = float(model.profile.derivative(t, 1))
    fa = model.f_plus_A(t)
    kappa_t = f1 * float(v @ gram @ v)
    kappa_v = 2.0 * (gram @ (fa @ v))
    G = np.zeros((n, n, n))
    G[1, 0, 0] = kappa_t
    G[1, 0, 2:] = kappa_v
    G[1, 2:, 0] = kappa_v
    G[2:, 0, 0] = -(fa @ v)
    return G


def _geodesic_rhs(model: ModelManifold, edge: Optional[float] = None,
                  dt0: float = 1.0):
    """The geodesic equations as a first-order system in tau or, given a
    finite interval end `edge` and the constant t' = dt0, in
    x = log|t - edge|, where dtau/dx = (t - edge) / dt0."""
    gram = model.space.gram
    A, profile = model.A, model.profile
    m = model.m

    def rhs(tau, y):
        t, dt = y.item(0), y.item(2 + m)
        v, dv = y[2:2 + m], y[4 + m:]
        f, f1 = profile.value_slope(t)
        fav = f * v + A.dot(v)
        out = np.empty(y.size)
        out[:2 + m] = y[2 + m:]
        out[2 + m] = 0.0
        # s'' = -kappa_t t'^2 - 2 (kappa_v . v') t' with kappa_v = 2 gram fav
        out[3 + m] = -dt * (f1 * v.dot(gram).dot(v) * dt + 4.0 * fav.dot(gram).dot(dv))
        out[4 + m:] = dt * dt * fav
        if edge is not None:
            out *= (t - edge) / dt0
        return out

    return rhs


def _run(rhs, span, y0: np.ndarray, at: np.ndarray, what: str) -> np.ndarray:
    """Integrate y' = rhs(tau, y) over span from y0 and read the run at
    the times `at`, one row each, from its step table."""
    sol = solve_ivp(rhs, span, y0, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise IntegrationError(f"{what} integration failed: {sol.message}")
    steps = _StepTable(np.sign(span[1] - span[0]), y0)
    steps.append(sol)
    return steps(at)


@dataclass
class GeodesicResult:
    """Sampled geodesic: states are rows (t, s, v, t', s', v')."""

    taus: np.ndarray
    states: np.ndarray
    hit_boundary: bool
    boundary_tau: Optional[float]

    def t_values(self) -> np.ndarray:
        return self.states[:, 0]


def _plunge_edge(model: ModelManifold, t0: float, t_end: float) -> Optional[float]:
    """The finite interval end whose barrier a run from t0 to t_end crosses,
    or None. t is affine along geodesics, so this is known in advance."""
    lo, hi = model.interval
    if not lo + ENDPOINT_BARRIER < t0 < hi - ENDPOINT_BARRIER:
        return None
    if t_end <= lo + ENDPOINT_BARRIER:
        return lo
    if t_end >= hi - ENDPOINT_BARRIER:
        return hi
    return None


def geodesic(model: ModelManifold, point: ChartPoint, velocity,
             tau_span: tuple[float, float], samples: int = 129) -> GeodesicResult:
    """Integrate the geodesic with given initial point and velocity.

    The parameter runs over tau_span, from the initial condition at
    tau_span[0]; the span may be backward. Since t = t0 + t0' (tau - tau0),
    a run whose t would pass within ENDPOINT_BARRIER of a finite interval
    end is known to do so before integrating. Such a run stops at that
    barrier, at boundary_tau = tau0 + (barrier - t0) / t0' in closed form,
    and sets hit_boundary. It is integrated in x = log|t - edge| down to
    log(ENDPOINT_BARRIER), where steps need not shrink with the distance to
    the edge, and sampled at x(tau). Every other run integrates in tau.
    """
    velocity = np.asarray(velocity, dtype=float).reshape(-1)
    if velocity.shape != (model.dim,):
        raise ValueError("velocity must have the chart dimension")
    y0 = np.concatenate([point.coords(), velocity])
    tau0, tau1 = tau_span
    t0, dt0 = point.t, velocity[0]
    edge = _plunge_edge(model, t0, t0 + dt0 * (tau1 - tau0))

    if edge is None:
        span, end = tau_span, tau1
    else:
        barrier = edge + np.sign(t0 - edge) * ENDPOINT_BARRIER
        end = tau0 + (barrier - t0) / dt0
        span = (np.log(abs(t0 - edge)), np.log(ENDPOINT_BARRIER))
    taus = np.linspace(tau0, end, samples)
    xs = taus if edge is None else np.log(np.abs(t0 - edge + dt0 * (taus - tau0)))
    states = _run(_geodesic_rhs(model, edge, dt0), span, y0, xs, "geodesic")
    return GeodesicResult(taus=taus, states=states, hit_boundary=edge is not None,
                          boundary_tau=None if edge is None else float(end))


def energy_report(model: ModelManifold, result: GeodesicResult) -> dict:
    """Conservation of g(x', x') along the run.

    Returns the drift relative to the largest term magnitude encountered,
    which keeps the measure honest on runs into the singular end where
    individual terms blow up.
    """
    m = model.m
    X = result.states
    t, v = X[:, 0], X[:, 2:2 + m]
    dt, ds, dv = X[:, 2 + m], X[:, 3 + m], X[:, 4 + m:]
    term1 = model.kappa(t, v) * dt * dt
    term2 = dt * ds
    term3 = model.space.norm_sq(dv)
    energies = term1 + term2 + term3
    scale = max(1.0, float(np.max(np.abs(term1) + np.abs(term2) + np.abs(term3))))
    drift = float(np.max(np.abs(energies - energies[0])))
    return {"drift_rel": drift / scale}


def t_affinity_report(result: GeodesicResult) -> dict:
    """Deviation of t(tau) from its least-squares affine fit.

    Zero on geodesics. Large on curves with nonconstant t' (the converse
    fails: any curve inside a leaf has constant t, hence residual zero, so
    this detects non-geodesy only transversally).
    """
    taus, ts = result.taus, result.t_values()
    A = np.vstack([taus, np.ones_like(taus)]).T
    coef, *_ = np.linalg.lstsq(A, ts, rcond=None)
    fit = A @ coef
    residual = float(np.max(np.abs(ts - fit)))
    t_range = float(np.max(ts) - np.min(ts))
    return {"residual": residual, "t_range": t_range, "slope": float(coef[0])}


def affine_transport_residual(model: ModelManifold,
                              curve: Callable[[float], tuple[ChartPoint, np.ndarray]],
                              Z0) -> float:
    """Affine decay of second-order transported fields along leaf curves.

    Along a curve inside one leaf, let Z be parallel with Z(0) = Z0 and let
    X solve the second-order problem (covariant X'' = 0) with X(0) = Z0 and
    (covariant X')(0) = -Z0. Then X(s) = (1 - s) Z(s); in particular X
    vanishes at s = 1 regardless of the curve. Returns the largest deviation
    from that profile over 31 equispaced s in [0, 1.5].

    The integration keeps the full Christoffel terms even though the leaf
    values make most of them drop, so the identity is confirmed rather than
    assumed.
    """
    Z0 = np.asarray(Z0, dtype=float).reshape(-1)
    n = model.dim

    def gam(s):
        pt, vel = curve(s)
        G = christoffel_closed_form(model, pt.t, pt.v)
        return np.einsum("abc,b->ac", G, vel)

    def rhs(s, state):
        M = gam(s)
        Z, X, Y = state[:n], state[n:2 * n], state[2 * n:]
        return np.concatenate([-M @ Z, Y - M @ X, -M @ Y])

    state0 = np.concatenate([Z0, Z0, -Z0])
    s = np.linspace(0.0, 1.5, 31)
    states = _run(rhs, (0.0, 1.5), state0, s, "transport")
    Z, X = states[:, :n], states[:, n:2 * n]
    worst = float(np.max(np.abs(X - (1.0 - s)[:, None] * Z)))
    return worst / max(1.0, float(np.max(np.abs(Z0))))


# ---------------------------------------------------------------------------
# leafwise geodesic variations
# ---------------------------------------------------------------------------

class PolyCurve:
    """A t-parametrized transverse curve y(t) = (t, s_y(t), v_y(t)) with
    polynomial components, so derivatives of any order are exact."""

    def __init__(self, s_coeffs: Sequence[float], v_coeffs):
        self.s_coeffs = np.asarray(s_coeffs, dtype=float)
        self.v_coeffs = np.asarray(v_coeffs, dtype=float)
        if self.v_coeffs.ndim != 2:
            raise ValueError("v_coeffs must be (m, degree+1)")

    def s(self, t, order: int = 0):
        """s_y or its derivative at a time or an array of times."""
        return _P.polyval(t, _P.polyder(self.s_coeffs, m=order))

    def v(self, t, order: int = 0) -> np.ndarray:
        """v_y or its derivative, shape (m,) + shape of t."""
        return _P.polyval(t, _P.polyder(self.v_coeffs, m=order, axis=1).T)


@dataclass
class VariationField:
    """The leafwise deviation field z = x - y along a transverse curve y,
    kept as its endpoint curve x = y + z: a geodesic sampled on t_grid as
    rows (t, s, v, t', s', v'). The variation is x(t, s) = y(t) + s z(t):
    the leaves are flat, so the leafwise exponential is coordinate addition.
    """

    curve: PolyCurve
    t_grid: np.ndarray
    x: np.ndarray


def geodesic_closed_form(model: ModelManifold, point: ChartPoint, sdot0: float,
                         vdot0, ts) -> np.ndarray:
    """The geodesic with t' = 1 through `point` with velocity (1, sdot0,
    vdot0) at the times ts, as rows (t, s, v, t', s', v') like
    `GeodesicResult.states`, with no geodesic equation integrated.

    Its energy E = kappa(t0, v0) + sdot0 + <vdot0, vdot0> is conserved, and
    it is the image of the line l(t) = (t, E (t - t0), 0) under the
    straightening element g of the null geodesic through `point` with
    velocity vdot0: positions g(l(t)), velocities Dg(l(t)) (1, E, 0).
    """
    ts = np.asarray(ts, dtype=float)
    g = straightening_element(model, point, vdot0)
    energy = float(model.kappa(point.t, point.v) + sdot0 + model.space.norm_sq(vdot0))
    line = np.zeros(ts.shape + (model.dim,))
    line[..., 0] = ts
    line[..., 1] = energy * (ts - point.t)
    tangent = np.zeros(model.dim)
    tangent[:2] = 1.0, energy
    image, jacobian = iso_action(model, g, line)
    return np.concatenate([image, jacobian @ tangent], axis=-1)


def variation_field(model: ModelManifold, curve: PolyCurve,
                    z0: tuple[float, np.ndarray], zdot0: tuple[float, np.ndarray],
                    t_span: tuple[float, float], samples: int = 129) -> VariationField:
    """The variation whose endpoint curve x = y + z is the geodesic with
    t' = 1 through y(t_a) + z0 with velocity y'(t_a) + zdot0, t_a =
    t_span[0]: x is `geodesic_closed_form` on the grid.
    """
    ts = np.linspace(t_span[0], t_span[1], samples)
    t_a = ts[0]
    start = ChartPoint(t_a, curve.s(t_a) + z0[0], curve.v(t_a) + z0[1])
    x = geodesic_closed_form(model, start, curve.s(t_a, 1) + zdot0[0],
                             curve.v(t_a, 1) + zdot0[1], ts)
    return VariationField(curve=curve, t_grid=ts, x=x)


def _geodesic_gap(model: ModelManifold, start: np.ndarray,
                  curve: np.ndarray) -> np.ndarray:
    """Largest coordinate gap, sample by sample, between positions `curve`,
    shape (k, n), at k uniform times from start's t to curve[-1, 0], and
    the geodesic that `geodesic` integrates from the state `start` =
    (t, s, v, t', s', v') with t' = 1, so that its parameter is t - t0."""
    n = model.dim
    run = geodesic(model, ChartPoint(start[0], start[1], start[2:n]), start[n:],
                   (0.0, curve[-1, 0] - start[0]), samples=len(curve))
    return np.max(np.abs(run.states[:, :n] - curve), axis=1)


def terminal_curve_residual(model: ModelManifold, field: VariationField) -> float:
    """Independent check that x(., 1) = y + z is a geodesic.

    Integrates a geodesic from the endpoint curve's first state with the
    geodesic integrator and compares positions along the grid, relative to
    the position scale.
    """
    positions = field.x[:, :model.dim]
    gap = _geodesic_gap(model, field.x[0], positions)
    return float(np.max(gap)) / max(1.0, float(np.max(np.abs(positions))))


def affine_defect_residual(model: ModelManifold, field: VariationField) -> float:
    """The geodesic defect of the V-part of x(., s) is (1 - s) times the
    defect of the base curve; this checks that affine decay exactly.

    defect_v(t, s) = v_y'' + s z_v'' - (f + A)(v_y + s z_v), evaluated
    algebraically from the integrated field, must equal (1 - s) defect_v(t, 0)
    at 7 equispaced s in [-1, 2]. Every t of the field's grid and every s
    are evaluated at once.
    """
    ts = field.t_grid
    fa = model.A + model.profile.value(ts)[:, None, None] * np.eye(model.m)

    def apply(x):
        """(f(t) + A) x per grid time, for x of shape (..., len(ts), m)."""
        return (fa @ x[..., None])[..., 0]

    v_y = field.curve.v(ts).T
    vdd_y = field.curve.v(ts, 2).T
    z_v = field.x[:, 2:2 + model.m] - v_y
    base = vdd_y - apply(v_y)
    zdd_v = apply(z_v) + apply(v_y) - vdd_y
    s = np.linspace(-1.0, 2.0, 7)[:, None, None]
    defect = vdd_y + s * zdd_v - apply(v_y + s * z_v)
    worst = float(np.max(np.abs(defect - (1.0 - s) * base)))
    return worst / max(1.0, float(np.max(np.abs(base))))


# ---------------------------------------------------------------------------
# straightening a transverse null geodesic
# ---------------------------------------------------------------------------

def straightened_axis_residual(model: ModelManifold, g: IsoElement,
                               point: ChartPoint, vdot0,
                               t_span: tuple[float, float]) -> float:
    """max |g(t, 0, 0) - x(t)| over the t-span, where x is the null geodesic
    through `point` with transverse velocity vdot0 and g is meant to be its
    straightening element (`isometry_group.straightening_element`).

    The null geodesic starts from `point` with t' = 1 and
    s'(t0) = -kappa(t0, v0) - <vdot0, vdot0>, and `geodesic` integrates it
    from t0 forward to one end of the span and backward to the other; each
    run is compared with g's image of the t-axis at 9 parameters.
    """
    vdot0 = np.asarray(vdot0, dtype=float).reshape(-1)
    sdot0 = -float(model.kappa(point.t, point.v)) - float(model.space.norm_sq(vdot0))
    start = np.concatenate([point.coords(), [1.0, sdot0], vdot0])
    axis = np.zeros((len(t_span), 9, model.dim))
    axis[..., 0] = [np.linspace(point.t, end, 9) for end in t_span]
    images = iso_apply(model, g, axis)
    return float(max(np.max(_geodesic_gap(model, start, image)) for image in images))

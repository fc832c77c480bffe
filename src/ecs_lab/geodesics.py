"""Geodesics, second-order transport along leaf curves, and the two
structural maps built on them: leafwise geodesic variations and the
chart-straightening of a transverse null geodesic.

Geodesic equations of the model metric in chart coordinates, with
kappa_t = f'(t) <v, v> and kappa_v = 2 gram (f + A) v:

    t'' = 0
    s'' = -kappa_t t'^2 - 2 (kappa_v . v') t'
    v'' = t'^2 (f(t) + A) v

so t is always affine in the parameter, the leaves {t} x R x V are flat and
totally geodesic (every Christoffel symbol with both lower indices along a
leaf vanishes), and the transverse dynamics is the same linear operator
f + A that drives the solution space.

Every integration goes through `_solve`: an explicit high-order adaptive
scheme at tight tolerances with dense output. Since t is affine, a run that
heads for a finite interval endpoint is known to do so in advance: it stops
at a small barrier before the endpoint, at a parameter given in closed form,
and is integrated in x = log|t - endpoint| so that its steps need not shrink
near the singularity. The right-hand sides apply f v + A v rather than
forming f + A; everything else reads kappa from `ModelManifold.kappa`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model_geometry import ChartPoint, ModelManifold, metric_at
from .solution_space import ENDPOINT_BARRIER, solve_ivp

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


def _solve(rhs, span, y0, what: str):
    """The integrator policy of this module: DOP853 at rtol = atol = 1e-12
    with dense output. Returns the dense solution; raises RuntimeError,
    naming what was integrated, when the solver fails."""
    sol = solve_ivp(rhs, span, y0, method="DOP853",
                    rtol=_RTOL, atol=_ATOL, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"{what} integration failed: {sol.message}")
    return sol.sol


def _geodesic_rhs(model: ModelManifold, edge: Optional[float] = None,
                  dt0: float = 1.0):
    """The geodesic equations as a first-order system in tau or, given a
    finite interval end `edge` and the constant t' = dt0, in
    x = log|t - edge|, where dtau/dx = (t - edge) / dt0."""
    gram = model.space.gram
    A, profile = model.A, model.profile
    m = model.m

    def rhs(tau, y):
        t, dt = float(y[0]), float(y[2 + m])
        v, dv = y[2:2 + m], y[4 + m:]
        f, f1 = profile.value_slope(t)
        fav = f * v + A @ v
        # s'' = -kappa_t t'^2 - 2 (kappa_v . v') t' with kappa_v = 2 gram fav
        dds = -dt * (f1 * float(v @ gram @ v) * dt + 4.0 * float(fav @ gram @ dv))
        out = np.concatenate((y[2 + m:], (0.0, dds), dt * dt * fav))
        if edge is not None:
            out *= (t - edge) / dt0
        return out

    return rhs


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
    dense = _solve(_geodesic_rhs(model, edge, dt0), span, y0, "geodesic")

    taus = np.linspace(tau0, end, samples)
    if edge is None:
        return GeodesicResult(taus=taus, states=dense(taus).T,
                              hit_boundary=False, boundary_tau=None)
    xs = np.log(np.abs(t0 - edge + dt0 * (taus - tau0)))
    return GeodesicResult(taus=taus, states=dense(xs).T,
                          hit_boundary=True, boundary_tau=float(end))


def energy_report(model: ModelManifold, result: GeodesicResult) -> dict:
    """Conservation of g(x', x') along the run.

    Returns the absolute drift and the drift relative to the largest term
    magnitude encountered, which keeps the measure honest on runs into the
    singular end where individual terms blow up.
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
    return {"drift_abs": drift, "drift_rel": drift / scale, "energy0": float(energies[0])}


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
    return {"residual": residual, "t_range": t_range,
            "slope": float(coef[0]), "intercept": float(coef[1])}


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
    dense = _solve(rhs, (0.0, 1.5), state0, "transport")
    worst = 0.0
    scale = max(1.0, float(np.max(np.abs(Z0))))
    for s in np.linspace(0.0, 1.5, 31):
        st = dense(s)
        Z, X = st[:n], st[n:2 * n]
        worst = max(worst, float(np.max(np.abs(X - (1.0 - s) * Z))))
    return worst / scale


# ---------------------------------------------------------------------------
# leafwise geodesic variations
# ---------------------------------------------------------------------------

def _polyder(c: np.ndarray, order: int, axis: int = 0) -> np.ndarray:
    return np.polynomial.polynomial.polyder(c, m=order, axis=axis) if order else c


class PolyCurve:
    """A t-parametrized transverse curve y(t) = (t, s_y(t), v_y(t)) with
    polynomial components, so derivatives of any order are exact."""

    def __init__(self, s_coeffs: Sequence[float], v_coeffs):
        self.s_coeffs = np.asarray(s_coeffs, dtype=float)
        self.v_coeffs = np.asarray(v_coeffs, dtype=float)
        if self.v_coeffs.ndim != 2:
            raise ValueError("v_coeffs must be (m, degree+1)")
        # Coefficients of orders 0-2, v's as (degree+1, m) columns, so that
        # one polyval evaluates every component.
        self._s = [_polyder(self.s_coeffs, k) for k in range(3)]
        self._v = [_polyder(self.v_coeffs, k, axis=1).T for k in range(3)]

    @property
    def m(self) -> int:
        return self.v_coeffs.shape[0]

    def s(self, t: float, order: int = 0) -> float:
        c = self._s[order] if order < 3 else _polyder(self.s_coeffs, order)
        return float(np.polynomial.polynomial.polyval(t, c))

    def v(self, t: float, order: int = 0) -> np.ndarray:
        c = self._v[order] if order < 3 else _polyder(self.v_coeffs, order, axis=1).T
        return np.polynomial.polynomial.polyval(t, c)


@dataclass
class VariationField:
    """The leafwise deviation field z(t) = (z_s, z_v) along a transverse
    curve y, sampled with its t-derivative on t_grid. The variation is
    x(t, s) = y(t) + s z(t): the leaves are flat, so the leafwise
    exponential is coordinate addition. z is integrated so that the
    endpoint curve x(., 1) = y + z is a geodesic.
    """

    curve: PolyCurve
    t_grid: np.ndarray
    z_s: np.ndarray
    z_v: np.ndarray
    zdot_s: np.ndarray
    zdot_v: np.ndarray


def variation_field(model: ModelManifold, curve: PolyCurve,
                    z0: tuple[float, np.ndarray], zdot0: tuple[float, np.ndarray],
                    t_span: tuple[float, float], samples: int = 129) -> VariationField:
    """Integrate the deviation field equations along the curve.

    The V-part solves z_v'' = (f + A) z_v + (f + A) v_y - v_y'' (the
    Jacobi-type operator with the curve's own geodesic defect as source) and
    the s-part balances the full s-geodesic equation of y + z, including the
    terms quadratic in z.
    """
    m = model.m
    gram = model.space.gram
    A, profile = model.A, model.profile

    def rhs(t, y):
        z_s, zd_s = y[0], y[1]
        z_v = y[2:2 + m]
        zd_v = y[2 + m:]
        f, f1 = profile.value_slope(t)
        v_y = curve.v(t)
        vd_y = curve.v(t, 1)
        vdd_y = curve.v(t, 2)
        sdd_y = curve.s(t, 2)
        fa_z = f * z_v + A @ z_v
        fa_v = f * v_y + A @ v_y

        zdd_v = fa_z + fa_v - vdd_y
        linear = (
            2.0 * f1 * float(v_y @ gram @ z_v)
            + 4.0 * float(vd_y @ gram @ fa_z)
            + 4.0 * float(fa_v @ gram @ zd_v)
        )
        source = sdd_y + f1 * float(v_y @ gram @ v_y) \
            + 4.0 * float(fa_v @ gram @ vd_y)
        quadratic = f1 * float(z_v @ gram @ z_v) \
            + 4.0 * float(fa_z @ gram @ zd_v)
        zdd_s = -(linear + source + quadratic)

        out = np.empty_like(y)
        out[0], out[1] = zd_s, zdd_s
        out[2:2 + m] = zd_v
        out[2 + m:] = zdd_v
        return out

    y0 = np.concatenate([[z0[0], zdot0[0]], np.asarray(z0[1], dtype=float),
                         np.asarray(zdot0[1], dtype=float)])
    dense = _solve(rhs, t_span, y0, "variation")

    ts = np.linspace(t_span[0], t_span[1], samples)
    Y = dense(ts).T
    return VariationField(curve=curve, t_grid=ts, z_s=Y[:, 0], z_v=Y[:, 2:2 + m],
                          zdot_s=Y[:, 1], zdot_v=Y[:, 2 + m:])


def terminal_curve_residual(model: ModelManifold, field: VariationField) -> float:
    """Independent check that x(., 1) = y + z is a geodesic.

    Re-integrates a geodesic from the endpoint curve's initial data with the
    geodesic integrator and compares positions along the grid, relative to
    the position scale.
    """
    curve = field.curve
    ts = field.t_grid
    t_a = ts[0]
    p0 = ChartPoint(t_a, curve.s(t_a) + field.z_s[0], curve.v(t_a) + field.z_v[0])
    vel0 = np.concatenate([
        [1.0, curve.s(t_a, 1) + field.zdot_s[0]],
        curve.v(t_a, 1) + field.zdot_v[0],
    ])
    res = geodesic(model, p0, vel0, (0.0, ts[-1] - t_a), samples=ts.size)
    worst = 0.0
    scale = 1.0
    for i, t in enumerate(ts):
        expected = np.concatenate([
            [t, curve.s(t) + field.z_s[i]],
            curve.v(t) + field.z_v[i],
        ])
        got = res.states[i, : model.dim]
        worst = max(worst, float(np.max(np.abs(got - expected))))
        scale = max(scale, float(np.max(np.abs(expected))))
    return worst / scale


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
    z_v = field.z_v
    base = vdd_y - apply(v_y)
    zdd_v = apply(z_v) + apply(v_y) - vdd_y
    s = np.linspace(-1.0, 2.0, 7)[:, None, None]
    defect = vdd_y + s * zdd_v - apply(v_y + s * z_v)
    worst = float(np.max(np.abs(defect - (1.0 - s) * base)))
    return worst / max(1.0, float(np.max(np.abs(base))))


# ---------------------------------------------------------------------------
# straightening a transverse null geodesic
# ---------------------------------------------------------------------------

@dataclass
class TransverseNullGeodesic:
    """A null geodesic parametrized by t, stored as a dense solution of
    (s, s', v, v') over a t-window, with s'(t) pinned by the null condition
    kappa + s' + <v', v'> = 0 at the initial time (and conserved)."""

    model: ModelManifold
    t_window: tuple[float, float]
    _dense: object

    def state(self, t: float):
        y = self._dense(t)
        m = self.model.m
        return y[0], y[1], y[2:2 + m], y[2 + m:]

    def null_residual(self, t: float) -> float:
        s, sd, v, vd = self.state(t)
        space = self.model.space
        return abs(float(self.model.kappa(t, v)) + sd + float(space.norm_sq(vd)))


def transverse_null_geodesic(model: ModelManifold, t0: float, s0: float,
                             v0, vdot0, t_window: tuple[float, float]) -> TransverseNullGeodesic:
    """Build the unique t-parametrized null geodesic through (t0, s0, v0)
    with transverse velocity vdot0; s'(t0) is forced by nullness."""
    m = model.m
    gram = model.space.gram
    v0 = np.asarray(v0, dtype=float).reshape(-1)
    vdot0 = np.asarray(vdot0, dtype=float).reshape(-1)
    sdot0 = -float(model.kappa(t0, v0)) - float(vdot0 @ gram @ vdot0)
    A, profile = model.A, model.profile

    def rhs(t, y):
        v = y[2:2 + m]
        vd = y[2 + m:]
        f, f1 = profile.value_slope(t)
        fav = f * v + A @ v
        kappa_t = f1 * float(v @ gram @ v)
        kappa_v = 2.0 * (gram @ fav)
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = -kappa_t - 2.0 * float(kappa_v @ vd)
        out[2:2 + m] = vd
        out[2 + m:] = fav
        return out

    y0 = np.concatenate([[s0, sdot0], v0, vdot0])
    lo, hi = sorted(t_window)
    fwd = _solve(rhs, (t0, hi), y0, "null geodesic")
    bwd = _solve(rhs, (t0, lo), y0, "null geodesic")

    def dense(t):
        return fwd(t) if t >= t0 else bwd(t)

    return TransverseNullGeodesic(model=model, t_window=(lo, hi), _dense=dense)


def straightening_map(geo: TransverseNullGeodesic, t: float, s: float, v) -> ChartPoint:
    """F(t, s, v) = (t, s_x(t) + s - 2 <v, v_x'(t)>, v_x(t) + v).

    A local self-isometry of the model carrying the curves (t, const, 0),
    which are null geodesics along the t-axis, onto s-translates of the
    given null geodesic. Equivalently: any transverse null geodesic can be
    straightened onto the t-axis by a chart change that preserves the metric
    form on the nose. The pullback identity F* g = g is exact up to the
    conservation of the null invariant along x.
    """
    model = geo.model
    gram = model.space.gram
    v = np.asarray(v, dtype=float).reshape(-1)
    s_x, sd_x, v_x, vd_x = geo.state(t)
    new_s = s_x + s - 2.0 * float(v @ gram @ vd_x)
    return ChartPoint(t, new_s, v_x + v)


def straightening_jacobian(geo: TransverseNullGeodesic, t: float, v) -> np.ndarray:
    """Analytic Jacobian of the straightening map (independent of s)."""
    model = geo.model
    n, m = model.dim, model.m
    gram = model.space.gram
    v = np.asarray(v, dtype=float).reshape(-1)
    s_x, sd_x, v_x, vd_x = geo.state(t)
    vdd_x = model.f_plus_A(t) @ v_x
    J = np.zeros((n, n))
    J[0, 0] = 1.0
    J[1, 0] = sd_x - 2.0 * float(v @ gram @ vdd_x)
    J[1, 1] = 1.0
    J[1, 2:] = -2.0 * (gram @ vd_x)
    J[2:, 0] = vd_x
    J[2:, 2:] = np.eye(m)
    return J


def straightening_pullback_residual(geo: TransverseNullGeodesic,
                                    t_grid, s_grid, v_grid) -> dict:
    """max over the grid of |J^T g(F(x)) J - g_hat(x)| where g_hat is the
    model metric at the source point; exactness rests on the null invariant,
    whose worst drift is reported alongside."""
    model = geo.model
    worst = 0.0
    null_worst = 0.0
    count = 0
    for t in t_grid:
        null_worst = max(null_worst, geo.null_residual(float(t)))
        for s in s_grid:
            for v in v_grid:
                src = ChartPoint(float(t), float(s), v)
                img = straightening_map(geo, float(t), float(s), v)
                J = straightening_jacobian(geo, float(t), v)
                G_img = metric_at(model, img.coords())
                G_src = metric_at(model, src.coords())
                worst = max(worst, float(np.max(np.abs(J.T @ G_img @ J - G_src))))
                count += 1
    return {"pullback_residual": worst, "null_residual": null_worst,
            "points": count}

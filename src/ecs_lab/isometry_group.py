"""The isometry group of a model manifold.

Elements are triples. The structural part sigma = (q, p, C) must satisfy

    C A C^{-1} = q^2 A,      C an isometry of (V, <.,.>),
    q I + p = I,             f(t) = q^2 f(q t + p) on I,

and the full group is the semidirect product of these sigma with the
Heisenberg factor R x E. An element (sigma, r, u) acts on the chart by

    Phi(t, s, v) = (q t + p,
                    -<u'(T), 2 C v + u(T)> + q^{-1} s + r,
                    C v + u(T)),            T = q t + p,

and the composition law twists the Heisenberg part by the induced action
sigma . u = C u((. - p)/q) on solutions:

    (sigma, r, u)(sigma', r', u')
        = (sigma sigma', r + q^{-1} r' - Omega(u, sigma . u'), u + sigma . u').

The solution part u is a plain (2m,) array of Cauchy data at the model's
base time, as in solution_space, so u + sigma . u' is array addition. In
those coordinates sigma . is one matrix, `sigma_matrix`, and `sigma_act`
applies it. One sigma acts many times (in its checks, its inverse and every
product it enters), so an SElement keeps its matrix, read-only, for the
model it was last asked about. `sigma_matrices` fills the matrices of many
elements from one flow lookup of their source times; `sigma_matrix` is its
case of one. A sigma that fixes the base time (q = 1, p = +-0) needs no
lookup at all, since the flow there is the identity. Omega rescales under
sigma by q^{-1} and the action of sigma on E has determinant q^{2 - n};
both show up as checks on that matrix here and in tests.

The Jacobian of the action is computed analytically (the map is affine in
(s, v) and its t-derivative only needs u'' = (f + A) u), which keeps
pullback residuals at integrator accuracy instead of finite-difference
accuracy.

The action works on chart coordinates x = (t, s, v) stacked on leading
axes, shape (..., n), so one call moves a whole point set; a single point
is its `ChartPoint.coords()`. Elements stack too: `stack_elements` puts k
elements on a leading axis, and `iso_apply`, `iso_jacobian` and
`pullback_residual` then move points x of shape (k, P, n), element i moving
x[i]. A single element is the case in which (q, p, C, r, u) broadcast as
they are; every product keeps one element's operand shapes, so a stacked
call equals the k one-element calls bit for bit. One call costs one flow
lookup of (u(T), u'(T)) for all its elements and points:
`pullback_residual` shares it between the image and the Jacobian and
returns the images, so a caller that needs Phi x as well does not look u
up again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .model_geometry import ChartPoint, ModelManifold, metric_at
from .pseudo_linear import _as_matrix
from .solution_space import flow, omega, omega_matrix, solution_at


@dataclass
class SElement:
    """Structural part (q, p, C) of an isometry.

    The element keeps its action matrix on E (`sigma_matrix`) for the last
    model it was asked about, as (model, matrix).
    """

    q: float
    p: float
    C: np.ndarray
    _matrix: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        self.q = float(self.q)
        self.p = float(self.p)
        self.C = _as_matrix(self.C)
        if self.q <= 0:
            raise ValueError("q must be positive")


@dataclass
class IsoElement:
    """Isometry (sigma, r, u); u is Cauchy data at the model base time."""

    sigma: SElement
    r: float
    u: np.ndarray

    def __post_init__(self):
        self.r = float(self.r)
        self.u = np.asarray(self.u, dtype=float).reshape(-1)


class IsoStack(NamedTuple):
    """(q, p, C, r, u) of k elements stacked on a leading axis, shaped to
    broadcast over one point axis: q, p and r (k, 1), C (k, 1, m, m) and
    u (k, 1, 2m)."""

    q: np.ndarray
    p: np.ndarray
    C: np.ndarray
    r: np.ndarray
    u: np.ndarray


def stack_elements(elems: Sequence[IsoElement]) -> IsoStack:
    """The elements stacked, to move points x of shape (k, P, n) in one call."""
    return IsoStack(np.array([[g.sigma.q] for g in elems]),
                    np.array([[g.sigma.p] for g in elems]),
                    np.array([[g.sigma.C] for g in elems]),
                    np.array([[g.r] for g in elems]),
                    np.array([[g.u] for g in elems]))


def _parts(g: IsoElement | IsoStack):
    """(q, p, C, r, u): a stack's arrays, or one element's own values."""
    if isinstance(g, IsoStack):
        return g
    return g.sigma.q, g.sigma.p, g.sigma.C, g.r, g.u


def s_membership(model: ModelManifold, elem: SElement) -> dict:
    """Residuals of the three structural conditions on (q, p, C).

    f-equivariance |f(t) - q^2 f(q t + p)| is sampled on 64 Chebyshev nodes
    of the model's compact window and is infinite when their image leaves I;
    interval equivariance is checked exactly on endpoints. Since q > 0, each
    end maps to an end of its own kind, so only the finite ends have a
    residual |q e + p - e|.
    """
    q, p, C = elem.q, elem.p, elem.C
    gram = model.space.gram
    conj = float(np.max(np.abs(C @ model.A @ np.linalg.inv(C) - q * q * model.A)))
    iso = float(np.max(np.abs(C.T @ gram @ C - gram)))
    interval_res = max((abs(q * e + p - e) for e in model.interval if np.isfinite(e)),
                       default=0.0)

    w0, w1 = model.compact_window()
    k = np.arange(64)
    ts = 0.5 * (w0 + w1) + 0.5 * (w1 - w0) * np.cos((2 * k + 1) * np.pi / 128)
    images = q * ts + p
    lo, hi = model.interval
    if np.any(images <= lo) or np.any(images >= hi):
        equiv = float("inf")
    else:
        fv = np.asarray(model.profile.value(ts), dtype=float)
        fi = np.asarray(model.profile.value(images), dtype=float)
        scale = max(1.0, float(np.max(np.abs(fv))))
        equiv = float(np.max(np.abs(fv - q * q * fi))) / scale
    return {
        "conjugation_residual": conj,
        "isometry_residual": iso,
        "interval_residual": interval_res,
        "equivariance_residual": equiv,
    }


def sigma_matrices(model: ModelManifold,
                   sigmas: Sequence[SElement]) -> list[np.ndarray]:
    """Matrices of the induced actions (sigma . u)(t) = C u((t - p)/q) on E
    in Cauchy coordinates: the model's flow to (t0 - p)/q from its base
    time t0, then C on values and C/q on derivatives (the chain rule
    divides by q).

    Each element keeps its matrix, read-only, and returns it on later calls
    with the same model: its omega-scaling and determinant checks, its
    inverse and every composition it takes part in act by one matrix, and
    each would otherwise look the flow up again. The elements that keep no
    matrix yet share one flow lookup (`CauchyFlow.matrix` for one element),
    and none when each fixes t0: the flow at t0 is the identity, which the
    lookup would return bit for bit. A lookup that raises stores nothing.
    """
    todo = [s for s in sigmas if s._matrix is None or s._matrix[0] is not model]
    if todo:
        m = model.m
        fl = flow(model)
        ts = [(fl.base_t - s.p) / s.q for s in todo]
        if all(t == fl.base_t for t in ts):
            phi = np.eye(2 * m)     # the flow at t0, as a lookup returns it
        elif len(ts) == 1:
            phi = fl.matrix(ts[0])
        else:
            phi = fl.matrices(ts)
        block = np.zeros((len(todo), 2 * m, 2 * m))
        for s, b in zip(todo, block):
            b[:m, :m] = s.C
            b[m:, m:] = s.C / s.q
        matrices = block @ phi
        matrices.flags.writeable = False
        for s, matrix in zip(todo, matrices):
            s._matrix = (model, matrix)
    return [s._matrix[1] for s in sigmas]


def sigma_matrix(model: ModelManifold, elem: SElement) -> np.ndarray:
    """The matrix of one element's induced action on E (`sigma_matrices`).

    The kept matrix is read here first: `sigma_act` asks for it in every
    product, and a call of `sigma_matrices` would add half a microsecond.
    """
    kept = elem._matrix
    if kept is None or kept[0] is not model:
        return sigma_matrices(model, [elem])[0]
    return kept[1]


def sigma_act(model: ModelManifold, elem: SElement, u: np.ndarray) -> np.ndarray:
    """sigma . u, as Cauchy data."""
    return sigma_matrix(model, elem) @ u


def iso_identity(model: ModelManifold) -> IsoElement:
    m = model.m
    return IsoElement(SElement(1.0, 0.0, np.eye(m)), 0.0, np.zeros(2 * m))


def straightening_element(model: ModelManifold, point: ChartPoint,
                          vdot0) -> IsoElement:
    """The Heisenberg element g = (id, r, u) that straightens the null
    geodesic x(t) = (t, s_x(t), v_x(t)) through `point` with transverse
    velocity vdot0 (Appendix B): g(t, s, v) = (t, s_x(t) + s - 2 <v, v_x'(t)>,
    v_x(t) + v), so g carries the t-axis onto x.

    v_x is the solution u of E with Cauchy data (v0, vdot0) at t0, and along
    a null geodesic s_x = r - <u, u'> with r = s0 + <v0, vdot0>.
    """
    data = np.linalg.solve(flow(model).matrix(point.t),
                           np.concatenate([point.v, vdot0]))
    r = point.s + float(model.space.inner(point.v, vdot0))
    return IsoElement(iso_identity(model).sigma, r, data)


def _lookup(model: ModelManifold, g: tuple, x: np.ndarray):
    """T = q t + p, C v, (u(T), u'(T)) and 2 C v + u(T) at chart coordinates
    x, for the element parts g = (q, p, C, r, u) broadcast against them: the
    one flow lookup, and the terms that the image and the Jacobian share."""
    q, p, C, _, u = g
    T = q * x[..., 0] + p
    Cv = (C @ x[..., 2:, None])[..., 0]
    u_val, u_der = solution_at(model, u, T)
    return T, Cv, u_val, u_der, 2.0 * Cv + u_val


def _image(model: ModelManifold, g: tuple, x: np.ndarray,
           T, Cv, u_val, u_der, w) -> np.ndarray:
    q, _, _, r, _ = g
    new_s = -model.space.inner(u_der, w) + x[..., 1] / q + r
    return np.concatenate([T[..., None], new_s[..., None], Cv + u_val], axis=-1)


def _jacobian(model: ModelManifold, g: tuple, x: np.ndarray,
              T, Cv, u_val, u_der, w) -> np.ndarray:
    """The map is affine in (s, v); the only curved direction is t, where the
    derivative of u(T) is q u'(T) and of u'(T) is q (f(T) + A) u(T)."""
    q, _, C, _, _ = g
    n = model.dim
    space = model.space
    u_dd = model.profile.value(T)[..., None] * u_val + (model.A @ u_val[..., None])[..., 0]
    J = np.zeros(x.shape[:-1] + (n, n))
    J[..., 0, 0] = q
    J[..., 1, 0] = -q * (space.inner(u_dd, w) + space.inner(u_der, u_der))
    J[..., 1, 1] = 1.0 / q
    J[..., 1, 2:] = -2.0 * (C.swapaxes(-1, -2) @ space.gram @ u_der[..., None])[..., 0]
    J[..., 2:, 0] = J[..., 0, 0, None] * u_der    # q at each point
    J[..., 2:, 2:] = C
    return J


def iso_apply(model: ModelManifold, g: IsoElement | IsoStack, x) -> np.ndarray:
    """Images of chart coordinates x = (t, s, v): shape (..., n) -> (..., n)
    for one element, (k, P, n) -> (k, P, n) for a stack of k."""
    x = np.asarray(x, dtype=float)
    g = _parts(g)
    return _image(model, g, x, *_lookup(model, g, x))


def iso_jacobian(model: ModelManifold, g: IsoElement | IsoStack, x) -> np.ndarray:
    """Analytic Jacobians of the action at chart coordinates x: shape
    (..., n) -> (..., n, n), with x as in `iso_apply`."""
    x = np.asarray(x, dtype=float)
    g = _parts(g)
    return _jacobian(model, g, x, *_lookup(model, g, x))


def pullback_residual(model: ModelManifold, g: IsoElement | IsoStack,
                      x) -> tuple[np.ndarray, np.ndarray]:
    """max |J^T g(Phi x) J - g(x)|, the pointwise isometry defect, and the
    images Phi x, at chart coordinates x as in `iso_apply`.

    Returns residuals of the shape of x without its last axis, and images
    of the shape of x; the image and the Jacobian share one lookup of u(T),
    u'(T).
    """
    x = np.asarray(x, dtype=float)
    g = _parts(g)
    shared = _lookup(model, g, x)
    image = _image(model, g, x, *shared)
    J = _jacobian(model, g, x, *shared)
    pulled = np.swapaxes(J, -1, -2) @ metric_at(model, image) @ J
    return np.max(np.abs(pulled - metric_at(model, x)), axis=(-2, -1)), image


def iso_compose(model: ModelManifold, a: IsoElement, b: IsoElement) -> IsoElement:
    """Group law (sigma, r, u)(sigma', r', u')."""
    sa, sb = a.sigma, b.sigma
    sigma = SElement(sa.q * sb.q, sa.q * sb.p + sa.p, sa.C @ sb.C)
    moved = sigma_act(model, sa, b.u)
    r = a.r + b.r / sa.q - omega(model, a.u, moved)
    return IsoElement(sigma, r, a.u + moved)


def iso_inverse(model: ModelManifold, a: IsoElement) -> IsoElement:
    """Inverse element; sigma inverts as an affine map and u pulls back."""
    sa = a.sigma
    inv_sigma = SElement(1.0 / sa.q, -sa.p / sa.q, np.linalg.inv(sa.C))
    u_star = -sigma_act(model, inv_sigma, a.u)
    return IsoElement(inv_sigma, -sa.q * a.r, u_star)


def iso_distance(a: IsoElement, b: IsoElement) -> float:
    """Largest coordinate difference of (q, p, C, r, u-data) between two
    elements of one model."""
    return max(abs(a.sigma.q - b.sigma.q), abs(a.sigma.p - b.sigma.p),
               float(np.max(np.abs(a.sigma.C - b.sigma.C))), abs(a.r - b.r),
               float(np.max(np.abs(a.u - b.u))))


def classify_holonomy(elements: list[IsoElement]) -> str:
    """'dilational' when some element rescales t (|q - 1| > 1e-12), else
    'translational'."""
    if any(abs(g.sigma.q - 1.0) > 1e-12 for g in elements):
        return "dilational"
    return "translational"


def omega_scaling_residual(model: ModelManifold, elem: SElement,
                           pairs: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Residual of Omega(sigma.u, sigma.w) = q^{-1} Omega(u, w) over pairs
    (x, y) of Cauchy data, as (M x)^T J (M y) against x^T J y / q with M the
    sigma matrix and J the matrix of Omega."""
    M = sigma_matrix(model, elem)
    J = omega_matrix(model)
    worst = 0.0
    for x, y in pairs:
        worst = max(worst, abs((M @ x) @ J @ (M @ y) - x @ J @ y / elem.q))
    return float(worst)


def sigma_det_residual(model: ModelManifold, elem: SElement) -> float:
    """Residual of det(sigma|E) = q^{2-n}; |det C| = 1 and the flow between
    q-related times contributes the rest."""
    M = sigma_matrix(model, elem)
    expected = elem.q ** (2 - model.dim)
    return abs(float(np.linalg.det(M)) - expected) / abs(expected)

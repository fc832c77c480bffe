"""Model manifolds and their curvature.

The underlying manifold is I x R x V with coordinates (t, s, v^1..v^m) and
metric

    g = kappa(t, v) dt^2 + dt ds + <dv, dv>,
    kappa(t, v) = f(t) <v, v> + <A v, v>,

where (V, <.,.>) is a pseudo-Euclidean space, A is a traceless self-adjoint
endomorphism and f is a nonconstant profile function on the open interval I.
The dt ds cross term carries coefficient 1/2 in the matrix of g, so that
g(2 dt-dual, ds-dual) = 1. Index order throughout: 0 = t, 1 = s, 2.. = v.

Curvature is computed from analytic metric jets (derivatives through third
order in closed form, never finite differences) pushed through a generic
coordinate pipeline, so the same pipeline can digest deliberately perturbed
metrics in tests.

Curvature conventions:
    R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
                + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb},
with R(e_c, e_d) e_b = R^a_{bcd} e_a, Ric_{bd} = R^a_{bad}, and the Weyl
tensor in its fully lowered form.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .pseudo_linear import PseudoEuclideanSpace, validate_A, _as_matrix

_INF = float("inf")


# ---------------------------------------------------------------------------
# profile functions
# ---------------------------------------------------------------------------

def _is_finite(value) -> bool:
    """A JSON number of finite float value (not a bool, string or NaN)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _finite_list(value, length: Optional[int] = None) -> bool:
    """A JSON list of finite numbers, of the given length if one is given."""
    return isinstance(value, list) and all(_is_finite(x) for x in value) \
        and (length is None or len(value) == length)


# The one data key of each profile kind besides "kind".
_PROFILE_KEYS = {"homogeneous": "c", "polynomial": "coefficients",
                 "sum-of-powers": "terms"}


class ProfileF:
    """Base class for the curvature profile f.

    Subclasses provide value(t) and derivative(t, order), both vectorized
    over t; from_dict reads the scenario form. natural_interval() is the
    largest interval on which the formula is smooth ((0, inf) for the
    singular kinds, all of R for polynomials).
    """

    def value(self, t):
        raise NotImplementedError

    def derivative(self, t, order: int = 1):
        raise NotImplementedError

    def value_slope(self, t: float) -> tuple[float, float]:
        """f(t) and f'(t) at one scalar t, as floats."""
        return float(self.value(t)), float(self.derivative(t, 1))

    def natural_interval(self) -> tuple[float, float]:
        raise NotImplementedError

    def spread(self, window: tuple[float, float]) -> tuple[float, float]:
        """max f - min f and max |f| over 17 equispaced nodes of a compact
        window."""
        ts = np.linspace(window[0], window[1], 17)
        vals = np.asarray([self.value(t) for t in ts], dtype=float)
        return float(np.max(vals) - np.min(vals)), float(np.max(np.abs(vals)))

    def is_constant(self, window: tuple[float, float]) -> bool:
        """Numeric nonconstancy probe on a compact window."""
        spread, peak = self.spread(window)
        return spread <= 1e-14 * max(1.0, peak)

    @staticmethod
    def from_dict(d: dict) -> "ProfileF":
        """The profile of a scenario's `profile` object. Raises ValueError on
        an unknown kind, a missing or unknown key, or a value not of the
        documented form: `c` a number, a string such as "0.7j" or
        [re, im]; `coefficients` a list of numbers; `terms` a list of
        [coeff, power] pairs."""
        if not isinstance(d, dict):
            raise ValueError(f"profile must be a JSON object, got {d!r}")
        kind = d.get("kind")
        key = _PROFILE_KEYS.get(kind) if isinstance(kind, str) else None
        if key is None:
            raise ValueError(f"unknown profile kind: {kind!r}")
        unknown = set(d) - {"kind", key}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)} in a {kind} profile")
        if key not in d:
            raise ValueError(f"a {kind} profile needs {key!r}")
        value = d[key]
        if kind == "homogeneous":
            if isinstance(value, str):
                return HomogeneousProfile(complex(value))
            if _is_finite(value):
                return HomogeneousProfile(value)
            if _finite_list(value, 2):
                return HomogeneousProfile(complex(*value))
            raise ValueError(f"c must be a number, a string such as '0.7j' or "
                             f"[re, im], got {value!r}")
        if kind == "polynomial":
            if not _finite_list(value):
                raise ValueError(f"coefficients must be a list of finite numbers, "
                                 f"got {value!r}")
            return PolynomialProfile(value)
        if not isinstance(value, list) or not all(_finite_list(t, 2) for t in value):
            raise ValueError(f"terms must be a list of [coeff, power] pairs of "
                             f"finite numbers, got {value!r}")
        return SumOfPowersProfile([tuple(term) for term in value])


class HomogeneousProfile(ProfileF):
    """f(t) = (c^2 - 1/4) / t^2 on (0, inf).

    c may be real (taken >= 0) or purely imaginary, so that c^2 is real;
    these are exactly the profiles invariant under t -> q t up to the q^2
    equivariance law, which is why models built on them carry dilational
    symmetry.
    """

    def __init__(self, c):
        c = complex(c)
        if not cmath.isfinite(c):
            raise ValueError(f"c must be finite, got {c}")
        if min(abs(c.real), abs(c.imag)) > 1e-12 * max(1.0, abs(c)):
            raise ValueError("c must be real or purely imaginary (c^2 real)")
        if abs(c.imag) <= 1e-12 * max(1.0, abs(c)):
            c = complex(abs(c.real), 0.0)
        else:
            c = complex(0.0, abs(c.imag))
        self.c = c
        # c^2 by products, so an overflow is inf rather than an exception
        self.h = c.real * c.real - c.imag * c.imag - 0.25
        if not math.isfinite(self.h):
            raise ValueError(f"c^2 must be finite, got c = {c}")

    def value(self, t):
        return self.h / np.asarray(t) ** 2

    def derivative(self, t, order: int = 1):
        # d^k/dt^k t^{-2} = (-1)^k (k+1)! t^{-(k+2)}
        k = order
        sign = -1.0 if k % 2 else 1.0
        return sign * self.h * float(math.factorial(k + 1)) / np.asarray(t) ** (k + 2)

    def value_slope(self, t: float) -> tuple[float, float]:
        f = self.h / (t * t)
        return f, -2.0 * f / t

    def natural_interval(self):
        return (0.0, _INF)

    def __repr__(self):
        return f"HomogeneousProfile(c={self.c})"


class PolynomialProfile(ProfileF):
    """f given by polynomial coefficients in ascending order."""

    def __init__(self, coefficients: Sequence[float]):
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.ndim != 1 or self.coefficients.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")
        # Metric jets and the Christoffel symbols ask for orders 1-3 on every
        # call; value_slope serves the ODE right-hand sides.
        self._derived = {k: np.polynomial.polynomial.polyder(self.coefficients, m=k)
                         for k in (1, 2, 3)}
        self._descending = [float(a) for a in self.coefficients[::-1]]

    def value(self, t):
        return np.polynomial.polynomial.polyval(t, self.coefficients)

    def derivative(self, t, order: int = 1):
        d = self._derived.get(order)
        if d is None:
            d = np.polynomial.polynomial.polyder(self.coefficients, m=order)
        return np.polynomial.polynomial.polyval(t, d)

    def value_slope(self, t: float) -> tuple[float, float]:
        f = f1 = 0.0
        for a in self._descending:
            f1 = f1 * t + f
            f = f * t + a
        return f, f1

    def natural_interval(self):
        return (-_INF, _INF)

    def __repr__(self):
        return f"PolynomialProfile({list(self.coefficients)})"


class SumOfPowersProfile(ProfileF):
    """f(t) = sum a_i t^{e_i} with real exponents, defined on (0, inf)."""

    def __init__(self, terms: Sequence[tuple[float, float]]):
        self.terms = [(float(a), float(e)) for a, e in terms]
        if not self.terms:
            raise ValueError("need at least one term")
        if not all(math.isfinite(a) and math.isfinite(e) for a, e in self.terms):
            raise ValueError("terms must be finite")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return sum(a * t ** e for a, e in self.terms)

    def derivative(self, t, order: int = 1):
        t = np.asarray(t, dtype=float)
        out = 0.0
        for a, e in self.terms:
            coef = a
            for k in range(order):
                coef *= (e - k)
            out = out + coef * t ** (e - order)
        return out

    def natural_interval(self):
        return (0.0, _INF)

    def __repr__(self):
        return f"SumOfPowersProfile({self.terms})"


# ---------------------------------------------------------------------------
# points and models
# ---------------------------------------------------------------------------

@dataclass
class ChartPoint:
    """A point (t, s, v) of the model chart, or points stacked on leading
    axes: t and s of shape (...), v of shape (..., m)."""

    t: float
    s: float
    v: np.ndarray

    def __post_init__(self):
        self.t, self.s = (float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
                          for x in (self.t, self.s))
        self.v = np.asarray(self.v, dtype=float).reshape(np.shape(self.t) + (-1,))

    def coords(self) -> np.ndarray:
        """Chart coordinates (t, s, v), shape (..., n)."""
        return np.concatenate([np.asarray(self.t)[..., None],
                               np.asarray(self.s)[..., None], self.v], axis=-1)


@dataclass
class ModelManifold:
    """The model I x R x V with the metric described in the module docstring.

    Use ecs() for validated construction; the plain constructor validates
    nothing (for flat or otherwise degenerate comparison metrics in tests).
    An instance holds its solution-space flow (`solution_space.flow`), built
    on first use, so nothing global leaks between models.
    """

    space: PseudoEuclideanSpace
    A: np.ndarray
    profile: ProfileF
    interval: tuple[float, float]
    _flow: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.A = _as_matrix(self.A)
        lo, hi = self.interval
        self.interval = (float(lo), float(hi))
        if not self.interval[0] < self.interval[1]:
            raise ValueError("interval must be nonempty and ordered")

    @classmethod
    def ecs(cls, space: PseudoEuclideanSpace, A, profile: ProfileF,
            interval: Optional[tuple[float, float]] = None) -> "ModelManifold":
        """Validated constructor. Raises on structural violations."""
        A = _as_matrix(A)
        if space.dim < 2:
            raise ValueError("model needs dim V >= 2 (total dimension >= 4)")
        val = validate_A(space, A)
        if not val.ok():
            raise ValueError(
                "A must be a nonzero traceless self-adjoint endomorphism; "
                f"residuals: self_adjoint={val.self_adjoint_residual:.3e}, "
                f"trace={val.trace_residual:.3e}, norm={val.norm:.3e}"
            )
        nat = profile.natural_interval()
        if interval is None:
            interval = nat
        if interval[0] < nat[0] or interval[1] > nat[1]:
            raise ValueError(f"interval {interval} exceeds the profile domain {nat}")
        model = cls(space=space, A=A, profile=profile, interval=tuple(interval))
        if profile.is_constant(model.compact_window()):
            raise ValueError("profile f must be nonconstant on the interval")
        return model

    # -- basic geometry -----------------------------------------------------

    @property
    def m(self) -> int:
        return self.space.dim

    @property
    def dim(self) -> int:
        return self.space.dim + 2

    def compact_window(self) -> tuple[float, float]:
        """A canonical compact subinterval used for sampling and checks."""
        lo, hi = self.interval
        if np.isfinite(lo) and np.isfinite(hi):
            quarter = 0.25 * (hi - lo)
            return (lo + quarter, hi - quarter)
        if lo == 0.0 and hi == _INF:
            return (0.25, 4.0)
        if np.isfinite(lo):
            return (lo + 0.5, lo + 2.5)
        if np.isfinite(hi):
            return (hi - 2.5, hi - 0.5)
        return (-2.0, 2.0)

    def default_base_t(self) -> float:
        """Canonical base time: 1 on (0, inf), otherwise the window center."""
        lo, hi = self.interval
        if lo == 0.0 and hi == _INF:
            return 1.0
        if np.isfinite(lo) and np.isfinite(hi):
            return 0.5 * (lo + hi)
        if lo == -_INF and hi == _INF:
            return 0.0
        w = self.compact_window()
        return 0.5 * (w[0] + w[1])

    def f_plus_A(self, t: float) -> np.ndarray:
        """The endomorphism f(t) Id + A that drives every ODE in sight."""
        fa = self.A.copy()
        fa.flat[::self.m + 1] += float(self.profile.value(t))
        return fa

    def kappa(self, t, v):
        """kappa(t, v) = f(t) <v, v> + <A v, v>, stacked over the leading axes
        of t and v (shapes (...) and (..., m))."""
        v = np.asarray(v, dtype=float)
        lo, hi = self.interval
        if not np.logical_and(lo < t, t < hi).all():
            raise ValueError(f"t = {t} lies outside the interval {self.interval}")
        Av = (self.A @ v[..., None])[..., 0]
        return self.profile.value(t) * self.space.norm_sq(v) + self.space.inner(Av, v)

    def validation_residuals(self) -> dict:
        """Structural residuals for reporting (never raises)."""
        val = validate_A(self.space, self.A)
        return {
            "self_adjoint_residual": val.self_adjoint_residual,
            "trace_residual": val.trace_residual,
            "A_norm": val.norm,
            "f_spread": self.profile.spread(self.compact_window())[0],
        }


# ---------------------------------------------------------------------------
# metric jets
# ---------------------------------------------------------------------------

def metric_at(model: ModelManifold, x) -> np.ndarray:
    """Matrix of g at chart coordinates x = (t, s, v), index order (t, s, v).

    x may stack points on leading axes: shape (..., n) gives (..., n, n).
    """
    x = np.asarray(x, dtype=float)
    n = model.dim
    g = np.zeros(x.shape[:-1] + (n, n))
    g[..., 0, 0] = model.kappa(x[..., 0], x[..., 2:])
    g[..., 0, 1] = g[..., 1, 0] = 0.5
    g[..., 2:, 2:] = model.space.gram
    return g


def metric_jet(model: ModelManifold, point: ChartPoint):
    """(g, dg, ddg, dddg) at the point, all in closed form.

    Layouts: dg[e,a,b] = d_e g_ab, ddg[e,f,a,b], dddg[e,f,h,a,b], symmetric
    in the derivative slots. Only the kappa corner of g depends on the point
    and only through (t, v), so the nonzero entries are the t/v derivatives
    of kappa. A stacked point gives every array its leading axes.
    """
    n = model.dim
    gram = model.space.gram
    A = model.A
    t, v = point.t, point.v
    lead = np.shape(t)
    f = model.profile
    f1 = f.derivative(t, 1)
    f2 = f.derivative(t, 2)
    f3 = f.derivative(t, 3)
    f0 = f.value(t)
    vv = model.space.norm_sq(v)
    gv = (gram @ v[..., None])[..., 0]
    # symmetric since gram A is symmetric
    fa_gram = np.multiply.outer(f0, gram) + gram @ A
    f1_gv = (2.0 * f1)[..., None] * gv
    f2_gv = (2.0 * f2)[..., None] * gv
    f1_gram = np.multiply.outer(2.0 * f1, gram)

    g = metric_at(model, point.coords())

    dg = np.zeros(lead + (n, n, n))
    dg[..., 0, 0, 0] = f1 * vv
    dg[..., 2:, 0, 0] = 2.0 * (fa_gram @ v[..., None])[..., 0]

    ddg = np.zeros(lead + (n, n, n, n))
    ddg[..., 0, 0, 0, 0] = f2 * vv
    ddg[..., 0, 2:, 0, 0] = f1_gv
    ddg[..., 2:, 0, 0, 0] = f1_gv
    ddg[..., 2:, 2:, 0, 0] = 2.0 * fa_gram

    dddg = np.zeros(lead + (n, n, n, n, n))
    dddg[..., 0, 0, 0, 0, 0] = f3 * vv
    dddg[..., 0, 0, 2:, 0, 0] = f2_gv
    dddg[..., 0, 2:, 0, 0, 0] = f2_gv
    dddg[..., 2:, 0, 0, 0, 0] = f2_gv
    dddg[..., 0, 2:, 2:, 0, 0] = f1_gram
    dddg[..., 2:, 0, 2:, 0, 0] = f1_gram
    dddg[..., 2:, 2:, 0, 0, 0] = f1_gram
    return g, dg, ddg, dddg


# ---------------------------------------------------------------------------
# generic curvature pipeline
# ---------------------------------------------------------------------------

@dataclass
class CurvaturePack:
    """Curvature data at a point, or at points stacked on leading axes. All
    tensors are in coordinate components, Riemann and Weyl fully lowered,
    covariant derivatives with the derivative index first. `scale` =
    max(1, max |R|) is the curvature scale that the characteristic checks
    divide by, one per point."""

    g: np.ndarray
    g_inv: np.ndarray
    christoffel: np.ndarray      # Gamma[a,b,c] = Gamma^a_{bc}
    riemann: np.ndarray          # R[a,b,c,d] lowered
    ricci: np.ndarray
    scalar: float
    weyl: np.ndarray             # W[a,b,c,d] lowered
    nabla_riemann: np.ndarray    # (nabla_e R)[a,b,c,d]
    nabla_ricci: np.ndarray      # (nabla_e Ric)[b,d]
    nabla_weyl: np.ndarray       # (nabla_e W)[a,b,c,d]

    @cached_property
    def scale(self) -> float:
        # fmax, like Python's max(1.0, x), reads a NaN peak as 1
        return np.fmax(1.0, _peak(self.riemann, 4))


def _peak(T, order: int):
    """max |T| over its last `order` axes: one value per stacked point."""
    return np.max(np.abs(T), axis=tuple(range(-order, 0)))


def _tail_transpose(T, axes):
    """T with its last len(axes) axes permuted as np.transpose(T, axes)
    would permute them; leading point axes stay in front."""
    k = T.ndim - len(axes)
    return T.transpose(*range(k), *(k + a for a in axes))


def _kn_with_g(g, P):
    """Kulkarni-Nomizu product g /\\ P over the last two axes of P,
    (g /\\ P)_abcd = g_ac P_bd - g_ad P_bc + P_ac g_bd - P_ad g_bc; leading
    axes of g and P broadcast."""
    X = g[..., :, None, :, None] * P[..., None, :, None, :]
    X += P[..., :, None, :, None] * g[..., None, :, None, :]
    return X - X.swapaxes(-1, -2)


def _lower_christoffel(dg):
    """S[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc from dg[e,a,b] = d_e g_ab,
    over the last three axes of dg; leading axes are carried along."""
    X = dg.swapaxes(-3, -2)
    return X + X.swapaxes(-1, -2) - dg


def curvature_from_jet(g, dg, ddg, dddg) -> CurvaturePack:
    """Assemble curvature from metric jets by exact tensor algebra.

    Works for any metric jet, not only the model family; tests feed it
    perturbed metrics to confirm the characteristic identities fail off the
    family. The jet must be symmetric: g is symmetric, and dg, ddg and dddg
    are symmetric in their derivative slots and in their last two slots.

    Points may be stacked on leading axes of every array (g of shape
    (..., n, n)); every field of the pack then carries them. Each matrix
    product keeps the operand shapes of one point, so NumPy makes the same
    BLAS call per point and a stacked pack equals the per-point packs bit
    for bit.

    Every contraction is one matrix product on reshaped operands (batched
    over leading axes where an index is carried along), and the
    Kulkarni-Nomizu products are broadcast outer products. Derivatives of
    g^-1 enter only through d_e g^-1 = -g^-1 (d_e g) g^-1, so

        d_e Gamma       = g^-1 (d_e S / 2 - d_e g Gamma),
        d_e d_f Gamma   = g^-1 (d_e d_f S / 2 - d_e d_f g Gamma
                                - d_e g d_f Gamma - d_f g d_e Gamma),

    with S[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc. The Weyl tensor is
    W = R - g /\\ P with the Schouten tensor
    P = (Ric - scal g / (2 (n - 1))) / (n - 2), where /\\ is the
    Kulkarni-Nomizu product. Since nabla g = 0 holds algebraically for any
    symmetric jet, nabla W is taken from nabla R by the same identity:

        nabla_e W = nabla_e R - g /\\ nabla_e P,
        nabla_e Ric_bd = g^{ac} nabla_e R_abcd,
        nabla_e scal = g^{bd} nabla_e Ric_bd,

    that is nabla W = nabla R - (g /\\ nabla Ric) / (n - 2)
    + (nabla scal) gg / ((n - 1) (n - 2)) with gg = (g /\\ g) / 2.
    """
    lead = g.shape[:-2]
    n = g.shape[-1]
    n2, n3 = n * n, n * n * n
    ginv = np.linalg.inv(g)
    g_e = g[..., None, :, :]          # broadcast over a derivative index

    S, dS, ddS = (_lower_christoffel(d) for d in (dg, ddg, dddg))

    # Gamma^a_{bc}, its derivatives [e,a,(bc)] and [e,f,a,(bc)].
    gam = 0.5 * (ginv @ S.reshape(lead + (n, n2)))
    gam_e = gam[..., None, :, :]
    dgam = ginv[..., None, :, :] @ (0.5 * dS.reshape(lead + (n, n, n2)) - dg @ gam_e)
    dg_dgam = dg[..., :, None, :, :] @ dgam[..., None, :, :, :]
    ddgam = ginv[..., None, None, :, :] @ (
        0.5 * ddS.reshape(lead + (n, n, n, n2))
        - ddg @ gam_e[..., None, :, :]
        - dg_dgam
        - dg_dgam.swapaxes(-4, -3)
    )
    gamma = gam.reshape(lead + (n, n, n))
    # Arrays of order four and five are dropped after their last use: held
    # to the end, they would set the peak memory of a verify-model run.
    del dS, ddS, dg_dgam

    # R^a_{bcd} = K[a,b,c,d] - K[a,b,d,c] with
    # K = d_c Gamma^a_{db} + Gamma^a_{cx} Gamma^x_{db}; likewise its derivative.
    gam_rows = gam.reshape(lead + (n2, n))                           # [(a,c), x]
    quad = (gam_rows @ gam).reshape(lead + (n, n, n, n))             # [a,c,d,b]
    K = (_tail_transpose(dgam.reshape(lead + (n, n, n, n)), (1, 3, 0, 2))
         + _tail_transpose(quad, (0, 3, 1, 2)))
    r_up = K - K.swapaxes(-2, -1)
    del quad, K
    dquad = ((dgam.reshape(lead + (n3, n)) @ gam).reshape(lead + (n, n, n, n, n))
             + (gam_rows[..., None, :, :] @ dgam.reshape(lead + (n, n, n2)))
             .reshape(lead + (n, n, n, n, n)))
    dK = (_tail_transpose(ddgam.reshape(lead + (n, n, n, n, n)), (0, 2, 4, 1, 3))
          + _tail_transpose(dquad, (0, 1, 4, 2, 3)))
    dr_up = dK - dK.swapaxes(-2, -1)
    del dgam, ddgam, dquad, dK

    r_flat = r_up.reshape(lead + (n, n3))
    riem = (g @ r_flat).reshape(lead + (n, n, n, n))
    ric = np.trace(r_up, axis1=-4, axis2=-2)
    scal = (ginv.reshape(lead + (1, n2)) @ ric.reshape(lead + (n2, 1)))[..., 0, 0][()]
    schouten = (ric - scal[..., None, None] / (2 * (n - 1)) * g) / (n - 2)
    weyl = riem - _kn_with_g(g, schouten)

    # nabla_e R_abcd = d_e R_abcd - Gamma^x_{e.} R with x in each slot in turn.
    nabla_riem = ((dg.reshape(lead + (n2, n)) @ r_flat).reshape(lead + (n, n, n3))
                  + g_e @ dr_up.reshape(lead + (n, n, n3)))
    nabla_riem = nabla_riem.reshape(lead + (n, n, n, n, n))
    del dr_up
    gamma_t = gam.swapaxes(-1, -2)                                   # [(e,i), x]
    for slot in range(4):
        term = gamma_t @ np.moveaxis(riem, slot - 4, -4).reshape(lead + (n, n3))
        nabla_riem -= np.moveaxis(term.reshape(lead + (n, n, n, n, n)), -4, slot - 4)
    del term

    ginv_col = ginv.reshape(lead + (n2, 1))
    nabla_ric = (_tail_transpose(nabla_riem, (0, 2, 4, 1, 3)).reshape(lead + (n3, n2))
                 @ ginv_col).reshape(lead + (n, n, n))                # [e,b,d]
    nabla_scal = (nabla_ric.reshape(lead + (n, n2)) @ ginv_col)[..., 0]
    nabla_schouten = (nabla_ric
                      - nabla_scal[..., None, None] / (2 * (n - 1)) * g_e) / (n - 2)

    return CurvaturePack(
        g=g, g_inv=ginv, christoffel=gamma, riemann=riem, ricci=ric,
        scalar=scal, weyl=weyl, nabla_riemann=nabla_riem, nabla_ricci=nabla_ric,
        nabla_weyl=nabla_riem - _kn_with_g(g_e, nabla_schouten),
    )


def curvature_at(model: ModelManifold, point: ChartPoint) -> CurvaturePack:
    """Curvature of the model metric at a chart point, or at points stacked
    on leading axes (bit-identical to evaluating them one by one)."""
    return curvature_from_jet(*metric_jet(model, point))


# ---------------------------------------------------------------------------
# characteristic checks
# ---------------------------------------------------------------------------
#
# Each check reads a pack, and a point where the check needs one, and gives
# one value per point: a float for a single point, an array of the leading
# shape for stacked points.

def parallel_weyl_residual(pack: CurvaturePack) -> float:
    """max |nabla W| relative to the curvature scale; 0 on the model family."""
    return _peak(pack.nabla_weyl, 5) / pack.scale


def nabla_riemann_norm(pack: CurvaturePack) -> float:
    """max |nabla R| relative to the curvature scale; strictly positive off
    local symmetry, which is what separates these models from symmetric
    spaces."""
    return _peak(pack.nabla_riemann, 5) / pack.scale


def ricci_profile_residuals(model: ModelManifold, point: ChartPoint,
                            pack: CurvaturePack) -> dict:
    """Residuals of Ric = (2 - n) f dt x dt and, since dt is parallel
    (Gamma^t_ab = 0), of nabla Ric = (2 - n) f' dt x dt x dt, each relative
    to max(1, |its closed-form entry|). The second reads the third metric
    derivatives, which Ric and nabla W do not constrain."""
    n = model.dim
    ric = np.zeros(pack.ricci.shape)
    ric[..., 0, 0] = (2.0 - n) * model.profile.value(point.t)
    nabla_ric = np.zeros(pack.nabla_ricci.shape)
    nabla_ric[..., 0, 0, 0] = (2.0 - n) * model.profile.derivative(point.t, 1)
    return {
        "ricci": _peak(pack.ricci - ric, 2) / np.fmax(1.0, _peak(ric, 2)),
        "nabla_ricci": (_peak(pack.nabla_ricci - nabla_ric, 3)
                        / np.fmax(1.0, _peak(nabla_ric, 3))),
    }


def weyl_nonzero_norm(pack: CurvaturePack) -> float:
    """max |W| relative to curvature scale; bounded away from 0 on the family
    because the Weyl V-block is the nonzero endomorphism A."""
    return _peak(pack.weyl, 4) / pack.scale


def christoffel_pattern_residual(pack: CurvaturePack) -> float:
    """max |Gamma^a_{bc}| over pairs (b, c) tangent to the leaf {t} x R x V.

    Identically zero on the family: both lower indices in every nonzero
    Christoffel symbol involve t. This is the structural fact behind the
    leaves being flat and totally geodesic with exp = coordinate addition.
    """
    return _peak(pack.christoffel[..., :, 1:, 1:], 3)


def weyl_tidal_operator(model: ModelManifold, point: ChartPoint,
                        pack: CurvaturePack) -> np.ndarray:
    """The V-block of v -> W(u, v) u for the observer u = 2 d/dt, divided by
    dt(u)^2 so the result is independent of the observer's scale.

    On the family this recovers the endomorphism A exactly, which makes A a
    curvature observable rather than a construction input. Here dt is the
    1-form g(2 d/ds, .), i.e. dt(u) = u^t, so the operator is the V-block of
    W^a_{ttd}. Only pack is read.
    """
    return (pack.g_inv @ pack.weyl[..., :, 0, 0, :])[..., 2:, 2:]


def olszak_span_check(pack: CurvaturePack) -> dict:
    """Residuals showing span(d/ds) is the distinguished null parallel line.

    null_residual: |g(d/ds, d/ds)|. parallel_residual: max |Gamma^a_{b s}|,
    zero meaning nabla_X d/ds is proportional to d/ds (here actually zero).
    dt_residual: the 1-form g(2 d/ds, .) equals dt entrywise.
    """
    g = pack.g
    dt = np.zeros(g.shape[-1])
    dt[0] = 1.0
    return {
        "null_residual": np.abs(g[..., 1, 1]),
        "parallel_residual": _peak(pack.christoffel[..., :, :, 1], 2),
        "dt_residual": _peak(2.0 * g[..., 1, :] - dt, 1),
    }


def curvature_identity_residuals(pack: CurvaturePack) -> dict:
    """Classical identities any curvature tensor must satisfy; used as an
    internal consistency oracle for the jet pipeline."""
    R = pack.riemann
    scale = pack.scale
    lead = R.shape[:-4]
    n2 = R.shape[-1] ** 2
    pair_sym = _peak(R - _tail_transpose(R, (2, 3, 0, 1)), 4)
    skew_ab = _peak(R + R.swapaxes(-4, -3), 4)
    skew_cd = _peak(R + R.swapaxes(-2, -1), 4)
    first_bianchi = _peak(
        R + _tail_transpose(R, (0, 2, 3, 1)) + _tail_transpose(R, (0, 3, 1, 2)), 4)
    nR = pack.nabla_riemann
    second_bianchi = _peak(nR + _tail_transpose(nR, (3, 1, 2, 4, 0))
                           + _tail_transpose(nR, (4, 1, 2, 0, 3)), 5)
    w_trace = _peak(pack.weyl.swapaxes(-3, -2).reshape(lead + (n2, n2))
                    @ pack.g_inv.reshape(lead + (n2, 1)), 2)
    return {
        "pair_symmetry": pair_sym / scale,
        "skew_first_pair": skew_ab / scale,
        "skew_second_pair": skew_cd / scale,
        "first_bianchi": first_bianchi / scale,
        "second_bianchi": second_bianchi / scale,
        "weyl_traceless": w_trace / scale,
    }


def random_chart_point(model: ModelManifold, rng: np.random.Generator) -> ChartPoint:
    """Uniform t in the model's compact window, normal s and v."""
    lo, hi = model.compact_window()
    t = rng.uniform(lo, hi)
    s = float(rng.standard_normal())
    v = rng.standard_normal(model.m)
    return ChartPoint(t, s, v)

"""Checks of program outputs against formulas evaluated here, apart from the
program: each takes plain arrays and scenario data and returns the largest
violation found, or raises `CheckFailed` when it exceeds the budget.

The budgets are those of the acceptance table (README, AC02/AC04/AC06/AC07/
AC11); the formulas come from the paper's closed forms.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with the closed form."""


def _require(ok: bool, what: str, value: float, budget: float):
    if not ok:
        raise CheckFailed(f"{what}: {value:.3e} exceeds {budget:.1e}")


def profile_value(profile: dict, t: float) -> float:
    """f(t) from the scenario's profile entry."""
    if profile["kind"] == "homogeneous":
        c = complex(*profile["c"])
        return ((c * c).real - 0.25) / (t * t)
    if profile["kind"] == "polynomial":
        return float(sum(a * t ** k for k, a in enumerate(profile["coefficients"])))
    raise ValueError(f"no closed form for profile {profile['kind']!r}")


def check_ricci(ricci: np.ndarray, profile: dict, t: float, n: int,
                budget: float = 1e-9) -> float:
    """Ric = (2 - n) f(t) dt (x) dt, relative to max(1, |(2 - n) f|)."""
    expected = np.zeros((n, n))
    expected[0, 0] = (2.0 - n) * profile_value(profile, t)
    scale = max(1.0, abs(expected[0, 0]))
    err = float(np.max(np.abs(np.asarray(ricci) - expected))) / scale
    _require(err <= budget, "Ricci profile", err, budget)
    return err


def check_tidal(tidal: np.ndarray, A, budget: float = 1e-8) -> float:
    """The Weyl tidal operator returns the scenario's A."""
    A = np.asarray(A, dtype=float)
    err = float(np.max(np.abs(np.asarray(tidal) - A))) / max(1.0, float(np.max(np.abs(A))))
    _require(err <= budget, "tidal operator", err, budget)
    return err


def check_t_affine(taus, t_values, t0: float, dt0: float,
                   budget: float = 1e-8) -> float:
    """t(tau) = t0 + tau t0', since t'' = 0 along every geodesic."""
    taus = np.asarray(taus, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    line = t0 + taus * dt0
    scale = max(1.0, float(np.max(np.abs(line))))
    err = float(np.max(np.abs(t_values - line))) / scale
    _require(err <= budget, "t affine in tau", err, budget)
    return err


def check_plunge_end(boundary_tau: float, t0: float, dt0: float,
                     barrier: float = 1e-8, budget: float = 1e-9) -> float:
    """A plunge stops where the affine t = t0 + tau t0' meets the barrier."""
    expected = (t0 - barrier) / abs(dt0)
    err = abs(float(boundary_tau) - expected) / max(1.0, expected)
    _require(err <= budget, "plunge end", err, budget)
    return err


def spectral_exponents(m: int, c: complex) -> np.ndarray:
    """kappa = m + 1/2 - 2j -+ c for j = 1..m."""
    return np.array([m + 0.5 - 2 * j + sign * complex(c)
                     for j in range(1, m + 1) for sign in (-1.0, 1.0)])


def symplectic_matrix(gram) -> np.ndarray:
    """J with Omega(u, w) = x_u^T J x_w for Cauchy data x = (value, deriv):
    Omega(u, w) = <u', w> - <u, w'>."""
    G = np.asarray(gram, dtype=float)
    m = G.shape[0]
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = -G
    J[m:, :m] = G
    return J


def _greedy_match(predicted: np.ndarray, computed: np.ndarray) -> float:
    """Largest error of a nearest-first pairing of two multisets, relative
    above unit scale."""
    free = list(np.asarray(computed, dtype=complex))
    worst = 0.0
    for p in sorted(np.asarray(predicted, dtype=complex), key=abs, reverse=True):
        k = int(np.argmin([abs(p - z) for z in free]))
        worst = max(worst, abs(p - free.pop(k)) / max(1.0, abs(p)))
    return worst


def check_sigma_q(M: np.ndarray, q: float, m: int, c: complex, gram,
                  eig_budget: float = 1e-6, det_budget: float = 1e-7,
                  omega_budget: float = 1e-9) -> dict:
    """sigma_q on E: eigenvalues q^kappa, det q^(2 - n) = q^(-m), and
    sigma^T J sigma = J / q."""
    M = np.asarray(M, dtype=float)
    predicted = np.exp(np.log(q) * spectral_exponents(m, c))
    eig = _greedy_match(predicted, np.linalg.eigvals(M))
    _require(eig <= eig_budget, f"sigma_q eigenvalues at q = {q:g}", eig, eig_budget)
    want = q ** (-m)
    det = abs(float(np.linalg.det(M)) - want) / want
    _require(det <= det_budget, f"det sigma_q at q = {q:g}", det, det_budget)
    J = symplectic_matrix(gram)
    omega = float(np.max(np.abs(M.T @ J @ M - J / q)))
    _require(omega <= omega_budget, f"sigma_q^T J sigma_q at q = {q:g}",
             omega, omega_budget)
    return {"eigenvalues": eig, "determinant": det, "omega": omega}


def check_identical(reports: list[bytes], name: str) -> None:
    """Every repetition of a scenario wrote the same report bytes."""
    first = reports[0]
    for k, other in enumerate(reports[1:], start=1):
        if other != first:
            raise CheckFailed(f"{name}: report of repetition {k} differs "
                              "from the first")

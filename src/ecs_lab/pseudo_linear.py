"""Pseudo-Euclidean linear algebra.

Scalar products of arbitrary signature, self-adjoint endomorphisms, the
genericity rank test, adapted bases for nilpotent operators of full order,
and the one-parameter family of scaling isometries attached to such a basis.

Everything here is plain numpy on small dense matrices (dim V = m, typically
2 to 5). Numerical rank decisions use a relative singular value cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Relative singular-value threshold for rank decisions: sigma is "zero" when
# sigma <= RANK_RTOL * sigma_max.
RANK_RTOL = 1e-8


class NotGenericNilpotent(ValueError):
    """Raised when an adapted basis is requested for an operator that is
    not nilpotent with A^(m-1) != 0."""


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass
class PseudoEuclideanSpace:
    """A finite-dimensional real vector space with a nondegenerate symmetric
    bilinear form, stored as its Gram matrix in the reference basis.

    The form is allowed to be indefinite; nothing here assumes positivity.
    """

    gram: np.ndarray

    def __post_init__(self):
        self.gram = _as_matrix(self.gram)
        sym_err = float(np.max(np.abs(self.gram - self.gram.T)))
        if sym_err > 1e-12 * max(1.0, float(np.max(np.abs(self.gram)))):
            raise ValueError("Gram matrix must be symmetric")
        self.gram = 0.5 * (self.gram + self.gram.T)
        sv = np.linalg.svd(self.gram, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise ValueError("Gram matrix is degenerate")
        self.gram_inv = np.linalg.inv(self.gram)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def signature(self) -> tuple[int, int]:
        """Return (n_plus, n_minus) counting positive and negative eigenvalues."""
        ev = np.linalg.eigvalsh(self.gram)
        return int(np.sum(ev > 0)), int(np.sum(ev < 0))

    def inner(self, x, y):
        """Scalar product of vectors given in the reference basis.

        x and y may stack vectors on leading axes, shape (..., m); the result
        has the broadcast leading shape, one product per vector.
        """
        xg = np.asarray(x, dtype=float) @ self.gram
        return (xg[..., None, :] @ np.asarray(y, dtype=float)[..., :, None])[..., 0, 0]

    def norm_sq(self, x):
        return self.inner(x, x)

    def skew_basis(self) -> list[np.ndarray]:
        """Basis of the Lie algebra of the isometry group of the form.

        B is an infinitesimal isometry iff <Bx,y> + <x,By> = 0, i.e.
        gram @ B is skew-symmetric. A basis is gram^{-1} (E_ij - E_ji), i < j,
        so the dimension is m(m-1)/2.
        """
        m = self.dim
        out = []
        for i in range(m):
            for j in range(i + 1, m):
                s = np.zeros((m, m))
                s[i, j] = 1.0
                s[j, i] = -1.0
                out.append(self.gram_inv @ s)
        return out


@dataclass
class AValidation:
    """Residuals for the structural requirements on the endomorphism A.

    All entries are absolute residuals; ok() applies a single relative
    tolerance, 1e-10. Construction never raises, so callers can report
    diagnostics.
    """

    self_adjoint_residual: float
    trace_residual: float
    norm: float

    def ok(self) -> bool:
        scale = max(1.0, self.norm)
        return (
            self.self_adjoint_residual <= 1e-10 * scale
            and self.trace_residual <= 1e-10 * scale
            and self.norm > 1e-10
        )


def validate_A(space: PseudoEuclideanSpace, A) -> AValidation:
    """Check that A is self-adjoint for the form, traceless and nonzero.

    Self-adjointness <Ax,y> = <x,Ay> is equivalent to gram @ A being
    symmetric, so the residual is the asymmetry of gram @ A.
    """
    A = _as_matrix(A)
    ga = space.gram @ A
    return AValidation(
        self_adjoint_residual=float(np.max(np.abs(ga - ga.T))),
        trace_residual=abs(float(np.trace(A))),
        norm=float(np.max(np.abs(A))) if A.size else 0.0,
    )


@dataclass
class GenericityResult:
    is_generic: bool
    isotropy_dim: int


def genericity_test(space: PseudoEuclideanSpace, A) -> GenericityResult:
    """Decide whether A has trivial centralizer inside the isometry algebra.

    The linear map B -> [A, B] is restricted to the m(m-1)/2-dimensional
    algebra of infinitesimal isometries; A is generic when this map is
    injective. The rank is computed from the SVD of the stacked commutators
    with the relative cutoff RANK_RTOL. Non-self-adjoint input is rejected
    since the commutator map only lands in the right space for self-adjoint
    A.
    """
    A = _as_matrix(A)
    check = validate_A(space, A)
    scale = max(1.0, float(np.max(np.abs(A))))
    if check.self_adjoint_residual > 1e-8 * scale:
        raise ValueError(
            "genericity test needs a self-adjoint operator, residual "
            f"{check.self_adjoint_residual:.3e}"
        )
    basis = space.skew_basis()
    expected = len(basis)
    if expected == 0:
        return GenericityResult(True, 0)
    cols = np.column_stack([(A @ B - B @ A).ravel() for B in basis])
    sv = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv[0] > 0 else 0
    return GenericityResult(
        is_generic=(rank == expected),
        isotropy_dim=expected - rank,
    )


def nilpotent_order(A) -> Optional[int]:
    """Smallest k with A^k numerically zero, or None if A is not nilpotent.

    Powers of the max-norm-normalized matrix are compared against 1e-10, which
    keeps the test scale invariant. Only exponents up to dim V matter.
    """
    A = _as_matrix(A)
    m = A.shape[0]
    norm = float(np.max(np.abs(A)))
    if norm == 0.0:
        # The zero matrix already satisfies A^1 = 0.
        return 1
    P = A / norm
    for k in range(1, m + 1):
        P_k = np.linalg.matrix_power(P, k)
        if float(np.max(np.abs(P_k))) <= 1e-10:
            return k
    return None


@dataclass
class FitBasis:
    """Basis v_1..v_m adapted to a nilpotent self-adjoint A of full order.

    Properties (up to numerical residuals, see tests):
      A v_j = v_{j-1} (with v_0 = 0), and <v_i, v_j> = epsilon when
      i + j = m + 1 and 0 otherwise. Columns of `vectors` are the v_j in the
      reference basis; epsilon is +1 or -1. `inverse` is the inverse of
      `vectors`, computed once: every scaling isometry and the generator
      change basis through it.
    """

    vectors: np.ndarray
    epsilon: float
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.inverse = np.linalg.inv(self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def fit_basis(space: PseudoEuclideanSpace, A) -> FitBasis:
    """Construct the adapted basis for a nilpotent A with A^{m-1} != 0.

    The bilinear form (x, y) -> <A^{m-1} x, y> is symmetric of rank one, so
    it is epsilon times a square on a line. A seed w is taken from the
    reference basis vector maximizing |<A^{m-1} e, e>| and normalized to
    <A^{m-1} w, w> = epsilon. The cyclic vector v_m = w + sum c_k A^k w is
    then corrected order by order so that <A^j v_m, v_m> = 0 for
    j = 0..m-2, which is a triangular system in the c_k; finally
    v_j = A^{m-j} v_m.
    """
    A = _as_matrix(A)
    m = space.dim
    if m < 2:
        raise ValueError("adapted basis needs dim V >= 2")
    order = nilpotent_order(A)
    if order is None or order != m:
        raise NotGenericNilpotent(
            "A is not nilpotent of full order: need A^(m-1) != 0 and A^m = 0"
        )

    powers = [np.eye(m)]
    for _ in range(m - 1):
        powers.append(A @ powers[-1])
    top = powers[m - 1]

    # Seed vector: the rank-one form <A^{m-1} x, x> restricted to the
    # reference basis diagonal; its largest entry fixes sign and scale.
    diag = np.array([space.inner(top @ e, e) for e in np.eye(m)])
    i_star = int(np.argmax(np.abs(diag)))
    val = diag[i_star]
    if abs(val) <= 1e-14 * max(1.0, float(np.max(np.abs(top)))):
        # All diagonal entries tiny would mean the rank-one form vanishes,
        # contradicting A^{m-1} != 0 for a self-adjoint nilpotent.
        raise NotGenericNilpotent("degenerate seed for adapted basis construction")
    epsilon = 1.0 if val > 0 else -1.0
    w = np.eye(m)[i_star] / np.sqrt(abs(val))

    # Moments g_p = <A^p w, w>; g_{m-1} = epsilon, g_p = 0 for p >= m.
    g = np.array([space.inner(powers[p] @ w, w) for p in range(m)])

    # Solve for the correction coefficients, c_0 = 1.
    c = np.zeros(m)
    c[0] = 1.0
    for r in range(1, m):
        acc = 0.0
        for k in range(r + 1):
            for l in range(r + 1):
                if (k, l) in ((0, r), (r, 0)) or k + l > r:
                    continue
                acc += c[k] * c[l] * g[m - 1 - r + k + l]
        c[r] = -acc / (2.0 * epsilon)

    v_m = sum(c[k] * (powers[k] @ w) for k in range(m))
    cols = [powers[m - j] @ v_m for j in range(1, m + 1)]
    return FitBasis(vectors=np.column_stack(cols), epsilon=epsilon)


def scaling_isometry(space: PseudoEuclideanSpace, fit: FitBasis, q: float,
                     delta: float = 1.0) -> np.ndarray:
    """The isometry C_q with C_q v_j = delta * q^{m+1-2j} v_j.

    Returned in the reference basis. It preserves the form because the
    adapted Gram couples v_j with v_{m+1-j} and the exponents there cancel,
    and it conjugates A to q^2 A because the exponent steps by 2 along the
    shift. delta must be +1 or -1. The change of basis back is the fit's
    kept `inverse`, so a call inverts nothing.
    """
    if q <= 0:
        raise ValueError("scaling parameter q must be positive")
    if delta not in (1.0, -1.0, 1, -1):
        raise ValueError("delta must be +1 or -1")
    m = fit.dim
    d = delta * np.array([q ** (m + 1 - 2 * j) for j in range(1, m + 1)])
    return fit.vectors @ np.diag(d) @ fit.inverse


def random_self_adjoint(space: PseudoEuclideanSpace,
                        rng: np.random.Generator) -> np.ndarray:
    """Random traceless self-adjoint endomorphism: gram^-1 s with s a
    symmetric N(0,1) matrix, minus its trace part."""
    m = space.dim
    s = rng.standard_normal((m, m))
    s = 0.5 * (s + s.T)
    M = space.gram_inv @ s
    return M - (np.trace(M) / m) * np.eye(m)


def density_experiment(space: PseudoEuclideanSpace, A, scale: float,
                       trials: int, rng: np.random.Generator) -> Optional[float]:
    """Fraction of random traceless self-adjoint perturbations of A, of norm
    at most `scale`, that are generic. Values near 1 back the claim that
    genericity is the typical case. With zero trials the fraction is
    undefined and None is returned."""
    A = _as_matrix(A)
    if trials == 0:
        return None
    hits = 0
    for _ in range(trials):
        M = random_self_adjoint(space, rng)
        nm = float(np.max(np.abs(M)))
        if nm > 0:
            M *= rng.uniform(0.0, 1.0) * scale / nm
        if genericity_test(space, A + M).is_generic:
            hits += 1
    return hits / trials

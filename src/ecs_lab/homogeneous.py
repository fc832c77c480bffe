"""Dilational structure of the homogeneous models.

For the profile f(t) = (c^2 - 1/4)/t^2 on I = (0, inf), with A nilpotent of
full order in an adapted basis, the structural group contains the dilations
sigma_q = (q, 0, C_q), where C_q is the scaling isometry of the adapted
basis. Their action on the solution space E,

    (sigma_q . u)(t) = C_q u(t / q),

has eigenvalues q^{kappa} with exponents

    kappa_j^{-+} = m + 1/2 - 2j -+ c,   j = 1..m,

so its one-parameter generator B = d/d(log q) sigma_q has the kappa as
eigenvalues. The kernel E_0 of B is one-dimensional exactly when 2c is an
odd integer (one exponent hits zero), otherwise zero; E = E_0 + E_plus is
the induced algebraic splitting, with E_plus the range of B.

On the subgroup G_0 (elements with sigma = sigma_q) the map

    J(a, z, q, w) = (q, a (1 - q^{-1}) + Omega(z, sigma_q z + (1 + q^{-1}) w),
                     (sigma_q - 1) z + w),      z in E_plus, w in E_0,

parametrizes elements by their maximal commuting class: two elements with
q, q' != 1 commute exactly when they share (a, z). Elements of G_0 are
plain isometry_group.IsoElement values IsoElement(hm.dilation(q), r, data),
with u given as Cauchy data, and they compose by iso_compose. This module
carries the dilations, the generator, the splitting, J and its inverse, the
commutation test, the conjugation spectrum, and the samplers of group
elements and commuting classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model_geometry import HomogeneousProfile, ModelManifold
from .pseudo_linear import (
    FitBasis,
    PseudoEuclideanSpace,
    fit_basis,
    scaling_isometry,
)
from .solution_space import omega, omega_matrix, random_solution
from .isometry_group import IsoElement, SElement, iso_compose, sigma_act, sigma_matrix

# Relative cutoff separating the kernel of the generator from its range: an
# eigenvalue of B (an exponent kappa) at most KERNEL_RTOL times its spectral
# radius counts as kernel. The smallest nonzero |kappa| across the supported
# parameter range stays above 0.2, while the closed-form B puts a kernel
# eigenvalue at roundoff (near 1e-16 relative), so 1e-4 splits the gap safely.
KERNEL_RTOL = 1e-4

# Residual at or below which commute_test counts a pair as commuting, by
# either route.
COMMUTE_TOL = 1e-8


def standard_homogeneous_space(m: int, epsilon: float = 1.0) -> tuple[PseudoEuclideanSpace, np.ndarray]:
    """Canonical pair: anti-diagonal Gram with entries epsilon and the upper
    shift A e_j = e_{j-1}, which is self-adjoint for that Gram and nilpotent
    of full order."""
    gram = epsilon * np.fliplr(np.eye(m))
    A = np.eye(m, k=1)
    return PseudoEuclideanSpace(gram), A


@dataclass
class HomogeneousModel:
    """A model with homogeneous profile, full-order nilpotent A, I = (0, inf),
    together with the adapted basis that defines its scaling isometries."""

    model: ModelManifold
    fit: FitBasis
    c: complex

    @property
    def m(self) -> int:
        return self.model.m

    @classmethod
    def standard(cls, m: int, c) -> "HomogeneousModel":
        space, A = standard_homogeneous_space(m)
        return cls.from_model(ModelManifold.ecs(space, A, HomogeneousProfile(c)))

    @classmethod
    def from_model(cls, model: ModelManifold) -> "HomogeneousModel":
        if not isinstance(model.profile, HomogeneousProfile):
            raise ValueError("model profile is not homogeneous")
        if model.interval != (0.0, float("inf")):
            raise ValueError("homogeneous structure needs I = (0, inf)")
        return cls(model=model, fit=fit_basis(model.space, model.A),
                   c=model.profile.c)

    def dilation(self, q: float, delta: float = 1.0) -> SElement:
        """The structural element sigma_q = (q, 0, C_q)."""
        return SElement(q, 0.0, scaling_isometry(self.model.space, self.fit, q, delta))

    def sigma_q_matrix(self, q: float) -> np.ndarray:
        """Matrix of sigma_q on E in Cauchy coordinates at t = 1."""
        return sigma_matrix(self.model, self.dilation(q))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectral_exponents(m: int, c: complex) -> np.ndarray:
    """The 2m exponents kappa_j^{-+} = m + 1/2 - 2j -+ c, complex in general."""
    c = complex(c)
    out = []
    for j in range(1, m + 1):
        base = m + 0.5 - 2 * j
        out.extend([base - c, base + c])
    return np.asarray(out, dtype=complex)


@dataclass
class SpectrumCheck:
    """Predicted and computed eigenvalues, the largest error of their
    matching and the matched pair (predicted, computed) that has it."""

    predicted: np.ndarray
    computed: np.ndarray
    max_rel_error: float
    worst_pair: tuple[complex, complex]


def _spectrum_check(predicted: np.ndarray, matrix: np.ndarray) -> SpectrumCheck:
    """The eigenvalues of `matrix` matched against the predicted multiset.

    Each error is measured relative to |predicted| above unit scale and
    absolutely below it (a predicted eigenvalue of exactly 0 is matched by
    absolute error). The matching minimizes the sum of the errors, not their
    max, so `max_rel_error` is an upper bound on the best achievable max: it
    can overstate it, never understate it."""
    from scipy.optimize import linear_sum_assignment

    computed = np.linalg.eigvals(matrix)
    pr = np.asarray(predicted, dtype=complex)
    co = np.asarray(computed, dtype=complex)
    scale = np.maximum(np.abs(pr)[:, None], 1.0)
    cost = np.abs(pr[:, None] - co[None, :]) / scale
    rows, cols = linear_sum_assignment(cost)
    k = int(np.argmax(cost[rows, cols]))
    return SpectrumCheck(predicted, computed, float(cost[rows[k], cols[k]]),
                         (complex(pr[rows[k]]), complex(co[cols[k]])))


def dilation_spectrum_check(hm: HomogeneousModel, sigma: SElement) -> SpectrumCheck:
    """Eigenvalues of the dilation sigma = sigma_q (`hm.dilation(q)`) on E
    against the predicted q^kappa multiset."""
    return _spectrum_check(np.exp(np.log(sigma.q) * spectral_exponents(hm.m, hm.c)),
                           sigma_matrix(hm.model, sigma))


def generator_matrix(hm: HomogeneousModel) -> np.ndarray:
    """Generator B = d/dr|_{r=0} sigma_{e^r} in closed form.

    sigma_q = diag(C_q, C_q / q) Phi(1/q <- 1) with C_q = P diag(q^{m+1-2j})
    P^{-1}; differentiating at q = 1 and using u'' = (f + A) u at t = 1 gives
    B = [[D, -I], [-(f(1) + A), D - I]] with D = P diag(m+1-2j) P^{-1}.
    """
    m = hm.m
    P = hm.fit.vectors
    D = P @ np.diag([m + 1.0 - 2 * j for j in range(1, m + 1)]) @ np.linalg.inv(P)
    eye = np.eye(m)
    return np.block([[D, -eye], [-hm.model.f_plus_A(1.0), D - eye]])


def generator_spectrum_check(hm: HomogeneousModel) -> SpectrumCheck:
    return _spectrum_check(spectral_exponents(hm.m, hm.c), generator_matrix(hm))


# Pade-13 numerator coefficients and the 1-norm up to which the Pade-13
# approximant of exp is accurate to double precision (Higham, SIAM J. Matrix
# Anal. Appl. 26(4), 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by Pade-13 scaling and squaring (Higham 2005), with NumPy alone:
    scipy.linalg.expm solves through SciPy's own BLAS, whose thread pool can
    take milliseconds to serve a solve this small."""
    norm = np.linalg.norm(A, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = A / 2.0 ** s
    b = _PADE13
    eye = np.eye(len(A))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def exponential_consistency_residual(hm: HomogeneousModel, sigma: SElement) -> float:
    """Residual of expm(log(q) B) = sigma_q for the dilation sigma = sigma_q:
    the closed-form generator against the integrated dilation."""
    M = sigma_matrix(hm.model, sigma)
    E = _expm(np.log(sigma.q) * generator_matrix(hm))
    return float(np.max(np.abs(E - M))) / max(1.0, float(np.max(np.abs(M))))


# ---------------------------------------------------------------------------
# kernel/range splitting of the generator
# ---------------------------------------------------------------------------

@dataclass
class SpectralSplit:
    """Algebraic splitting E = E_0 + E_plus: e0 spans ker B, eplus spans
    range B. The splitting is direct but not Omega-orthogonal."""

    e0: np.ndarray      # (2m, k), k in {0, 1}
    eplus: np.ndarray   # (2m, 2m - k)

    @property
    def kernel_dim(self) -> int:
        return self.e0.shape[1]

    def combined(self) -> np.ndarray:
        return np.hstack([self.eplus, self.e0])

    def decompose(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (plus_part, zero_part) of data in the split basis."""
        coeff = np.linalg.solve(self.combined(), data)
        k = self.eplus.shape[1]
        return coeff[:k], coeff[k:]


def expected_kernel_dim(c: complex) -> int:
    """dim ker B is 1 exactly when 2c is an odd integer (a kappa vanishes)."""
    c = complex(c)
    if abs(c.imag) > 1e-12:
        return 0
    two_c = 2.0 * c.real
    return 1 if abs(two_c - round(two_c)) < 1e-12 and round(two_c) % 2 != 0 else 0


def spectral_split(hm: HomogeneousModel) -> SpectralSplit:
    """Bases of ker B and range B from the SVD of the generator B.

    The kernel dimension counts small eigenvalues, not small singular
    values: the spectral radius grows like c but the largest singular value
    like c^2, and against that the unit singular values of B's -I block
    would pass for a kernel at large c."""
    B = generator_matrix(hm)
    modulus = np.abs(np.linalg.eigvals(B))
    k = int(np.sum(modulus <= KERNEL_RTOL * modulus.max()))
    U, sv, Vt = np.linalg.svd(B)
    e0 = Vt[2 * hm.m - k:, :].T if k else np.zeros((2 * hm.m, 0))
    eplus = U[:, : 2 * hm.m - k]
    return SpectralSplit(e0=e0, eplus=eplus)


# ---------------------------------------------------------------------------
# the subgroup G_0 and its commuting classes
# ---------------------------------------------------------------------------

@dataclass
class CommuteTest:
    """Outcome of the two commutation routes for a pair of group elements.

    `direct` compares the coordinates of ab and ba. `criterion` evaluates
    the closed-form characterization: the solution parts must satisfy
    (sigma_q - 1) u_hat = (sigma_qhat - 1) u, and the central parts the
    matching scalar equation. The two booleans agree up to roundoff at
    COMMUTE_TOL.
    """

    direct: bool
    criterion: bool
    direct_residual: float
    criterion_residual: float

    @property
    def agree(self) -> bool:
        return self.direct == self.criterion


def commute_test(hm: HomogeneousModel, a: IsoElement, b: IsoElement) -> CommuteTest:
    model = hm.model
    # The dilation parts of G_0 commute, so ab = ba is decided by r and u.
    ab = iso_compose(model, a, b)
    ba = iso_compose(model, b, a)
    direct_residual = max(
        abs(ab.r - ba.r),
        float(np.max(np.abs(ab.u - ba.u))),
    )

    moved_b = sigma_act(model, a.sigma, b.u)
    moved_a = sigma_act(model, b.sigma, a.u)
    solution_eq = float(np.max(np.abs((moved_b - b.u) - (moved_a - a.u))))
    central_eq = abs(
        a.r * (1.0 - 1.0 / b.sigma.q) - b.r * (1.0 - 1.0 / a.sigma.q)
        - omega(model, a.u, moved_b) + omega(model, b.u, moved_a))
    criterion_residual = max(solution_eq, central_eq)

    return CommuteTest(
        direct=bool(direct_residual <= COMMUTE_TOL),
        criterion=bool(criterion_residual <= COMMUTE_TOL),
        direct_residual=direct_residual,
        criterion_residual=criterion_residual,
    )


@dataclass
class TransitivityReport:
    """Sampled evidence that commutation is transitive away from the center.

    Each trial builds x, y, z in one commuting class (shared (a, z) labels
    through class_map, all dilation parts away from 1), verifies the two
    premises xy = yx and yz = zy, and then tests the conclusion xz = zx.
    A counterexample would be a trial with both premises holding and the
    conclusion failing.
    """

    triples: int
    premise_failures: int
    counterexamples: int
    worst_conclusion_residual: float


def transitive_commutation_check(hm: HomogeneousModel,
                                 split: SpectralSplit,
                                 n_triples: int,
                                 rng: np.random.Generator) -> TransitivityReport:
    premise_failures = 0
    counterexamples = 0
    worst = 0.0
    for _ in range(n_triples):
        x, y, z = sample_class(hm, split, rng, 3)[3]
        if not (commute_test(hm, x, y).direct and commute_test(hm, y, z).direct):
            premise_failures += 1
            continue
        conclusion = commute_test(hm, x, z)
        worst = max(worst, conclusion.direct_residual)
        if not conclusion.direct:
            counterexamples += 1
    return TransitivityReport(n_triples, premise_failures, counterexamples, worst)


def conjugation_matrix(hm: HomogeneousModel, g: IsoElement) -> np.ndarray:
    """Matrix of x -> g x g^{-1} restricted to the Heisenberg factor, in
    coordinates (r, u-data). Block triangular: the center scales by 1/q and
    the E-block is sigma_q, so the spectrum is {1/q} union spec(sigma_q)."""
    m2 = 2 * hm.m
    q = g.sigma.q
    M = sigma_matrix(hm.model, g.sigma)
    J = omega_matrix(hm.model)
    out = np.zeros((1 + m2, 1 + m2))
    out[0, 0] = 1.0 / q
    # r-row: conjugating (0, u') picks up -2 Omega(u, sigma_q u').
    out[0, 1:] = -2.0 * (g.u @ J @ M)
    out[1:, 1:] = M
    return out


def conjugation_spectrum_check(hm: HomogeneousModel, g: IsoElement) -> SpectrumCheck:
    q = g.sigma.q
    predicted = np.concatenate([[complex(1.0 / q)],
                                np.exp(np.log(q) * spectral_exponents(hm.m, hm.c))])
    return _spectrum_check(predicted, conjugation_matrix(hm, g))


def class_map(hm: HomogeneousModel, a: float, z_data, q: float, w_data) -> IsoElement:
    """J(a, z, q, w): the element of the commuting class labeled (a, z) with
    dilation q and kernel displacement w, both given as Cauchy-data arrays."""
    model = hm.model
    sq = hm.dilation(q)
    sz = sigma_act(model, sq, z_data)
    r = a * (1.0 - 1.0 / q) + omega(model, z_data, sz + (1.0 + 1.0 / q) * w_data)
    return IsoElement(sq, r, (sz - z_data) + w_data)


def class_map_inverse(hm: HomogeneousModel, g: IsoElement,
                      split: SpectralSplit) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Recover (a, z, q, w) from an element with q != 1.

    u decomposes along E = E_plus + E_0; z solves (sigma_q - 1) z = u_plus on
    E_plus (invertible there for q != 1), w is the kernel part, and a is read
    off the r-equation.
    """
    q = g.sigma.q
    if abs(q - 1.0) < 1e-10:
        raise ValueError("class parametrization needs q != 1")
    model = hm.model
    M = sigma_matrix(model, g.sigma)
    u_plus_coeff, u_zero_coeff = split.decompose(g.u)
    u_plus = split.eplus @ u_plus_coeff
    w_data = split.e0 @ u_zero_coeff

    # Solve (M - I) z = u_plus within E_plus.
    shifted = (M - np.eye(2 * hm.m)) @ split.eplus
    coeff, *_ = np.linalg.lstsq(shifted, u_plus, rcond=None)
    z_data = split.eplus @ coeff

    sz = M @ z_data
    off = omega(model, z_data, sz + (1.0 + 1.0 / q) * w_data)
    a = (g.r - off) / (1.0 - 1.0 / q)
    return a, z_data, q, w_data


def shifted_invertibility(hm: HomogeneousModel, sigma: SElement,
                          split: SpectralSplit) -> dict:
    """Smallest singular value of (sigma_q - 1)|E_plus (in the split basis)
    and the norm of (sigma_q - 1) on E_0, for the dilation sigma = sigma_q;
    the first must stay away from 0 for q != 1, the second near 0 always."""
    shifted = sigma_matrix(hm.model, sigma) - np.eye(2 * hm.m)
    img = shifted @ split.eplus
    coeff = np.linalg.solve(split.combined(), img)
    k = split.eplus.shape[1]
    on_plus = coeff[:k, :]
    leak = float(np.max(np.abs(coeff[k:, :]))) if split.kernel_dim else 0.0
    sv = np.linalg.svd(on_plus, compute_uv=False)
    kernel_norm = float(np.max(np.abs(shifted @ split.e0))) if split.kernel_dim else 0.0
    return {
        "min_singular_value": float(sv[-1]),
        "range_leak_into_kernel": leak,
        "kernel_fixed_residual": kernel_norm,
    }


# ---------------------------------------------------------------------------
# sampling group elements
# ---------------------------------------------------------------------------

def sample_isometries(model: ModelManifold, rng: np.random.Generator,
                      count: int) -> list[IsoElement]:
    """Random elements (sigma, r, u) of the isometry group of `model`.

    Where the model carries dilations (`HomogeneousModel.from_model`
    succeeds), sigma is sigma_q with q in [1/2, 2] and either sign delta of
    the scaling isometry; otherwise sigma = (1, 0, +-Id).
    """
    try:
        hm = HomogeneousModel.from_model(model)
    except ValueError:
        hm = None
    out = []
    for _ in range(count):
        r = float(rng.standard_normal())
        u = random_solution(model, rng)
        if hm is not None:
            q = float(np.exp(rng.uniform(-np.log(2.0), np.log(2.0))))
            sigma = hm.dilation(q, 1.0 if rng.uniform() < 0.5 else -1.0)
        else:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            sigma = SElement(1.0, 0.0, sign * np.eye(model.m))
        out.append(IsoElement(sigma, r, u))
    return out


def away_from_one(rng: np.random.Generator) -> float:
    """A dilation parameter log-uniform on [1/4, 4], moved off
    |q - 1| <= 0.05 by a factor 1.1, where the class parametrization needs
    q != 1."""
    q = float(np.exp(rng.uniform(-np.log(4.0), np.log(4.0))))
    return q if abs(q - 1.0) > 0.05 else q * 1.1


def sample_class(hm: HomogeneousModel, split: SpectralSplit, rng: np.random.Generator,
                 size: int) -> tuple[float, np.ndarray, list, list[IsoElement]]:
    """`size` members of one random commuting class. Draws the labels a and
    z in E_plus, then for each member w in E_0 and q = away_from_one.
    Returns (a, z, [(q, w), ...], [J(a, z, q, w), ...])."""
    a = float(rng.standard_normal())
    z = split.eplus @ rng.standard_normal(split.eplus.shape[1])
    labels = []
    for _ in range(size):
        w = split.e0 @ rng.standard_normal(split.kernel_dim)
        labels.append((away_from_one(rng), w))
    return a, z, labels, [class_map(hm, a, z, q, w) for q, w in labels]

"""Homogeneous models: dilation and generator spectra, the kernel/range
splitting, the commuting-class parametrization, conjugation, and the
commutation criterion with its transitivity consequence.

Hand-frozen spectra used below, from kappa_j = m + 1/2 - 2j -+ c:

    m=2, c=0.3:  {0.2, 0.8, -1.8, -1.2}
    m=2, c=3/2:  {-1, 2, -3, 0}
    m=2, c=1/4, q=4:  sigma_q eigenvalues {sqrt(2), 2 sqrt(2), 4^{-7/4}, 4^{-5/4}}

Every exponent list sums to -m (pair the -+c terms and sum the arithmetic
progression), which the checksum test uses across the grid.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from ecs_lab.homogeneous import (
    COMMUTE_TOL,
    HomogeneousModel,
    _expm,
    class_map,
    class_map_inverse,
    commutator_residual,
    commute_criterion_residual,
    conjugation_matrix,
    conjugation_spectrum_check,
    dilation_spectrum_check,
    expected_kernel_dim,
    exponential_consistency_residual,
    generator_matrix,
    generator_spectrum_check,
    sample_class,
    shifted_invertibility,
    spectral_exponents,
    spectral_split,
    standard_homogeneous_space,
    transitive_commutation_check,
)
from ecs_lab.isometry_group import (
    IsoElement,
    iso_apply,
    iso_compose,
    iso_distance,
    iso_identity,
    iso_inverse,
    pullback_residual,
)
from ecs_lab.model_geometry import random_chart_point
from ecs_lab.solution_space import CauchyFlow, flow

GRID = [(2, 0.3), (2, 1.5), (3, 0.25), (3, 0.7j)]


def model_for(m, c):
    return HomogeneousModel.standard(m, c)


def multiset_close(values, expected, tol=1e-6):
    a = np.sort_complex(np.asarray(values, dtype=complex))
    b = np.sort_complex(np.asarray(expected, dtype=complex))
    return np.max(np.abs(a - b)) < tol


class TestSpectralExponents:
    def test_frozen_m2(self):
        kappa = spectral_exponents(2, 0.3)
        assert multiset_close(kappa, [0.2, 0.8, -1.8, -1.2], tol=1e-14)
        kappa = spectral_exponents(2, 1.5)
        assert multiset_close(kappa, [-1.0, 2.0, -3.0, 0.0], tol=1e-14)

    def test_checksum(self):
        for m, c in GRID + [(5, 0.25), (4, 1.3j)]:
            kappa = spectral_exponents(m, c)
            assert abs(kappa.sum() - (-m)) < 1e-12

    def test_imaginary_c_pairs(self):
        kappa = spectral_exponents(2, 0.7j)
        assert multiset_close(kappa, [0.5 - 0.7j, 0.5 + 0.7j,
                                      -1.5 - 0.7j, -1.5 + 0.7j], tol=1e-14)


class TestDilationSpectrum:
    def test_frozen_eigenvalues(self):
        hm = model_for(2, 0.25)
        chk = dilation_spectrum_check(hm, hm.dilation(4.0))
        expected = [np.sqrt(2.0), 2.0 * np.sqrt(2.0),
                    4.0 ** -1.75, 4.0 ** -1.25]
        assert multiset_close(chk.computed, expected)
        assert chk.max_rel_error < 1e-6

    def test_grid(self):
        for m, c in GRID:
            hm = model_for(m, c)
            for q in (0.5, 2.0):
                assert dilation_spectrum_check(hm, hm.dilation(q)).max_rel_error < 1e-6

    def test_imaginary_c_moduli(self):
        # kappa = base -+ i 0.7, so |q^kappa| = q^base regardless of the
        # imaginary part
        hm = model_for(2, 0.7j)
        q = 3.0
        chk = dilation_spectrum_check(hm, hm.dilation(q))
        moduli = np.sort(np.abs(chk.computed))
        expected = np.sort([q ** 0.5, q ** 0.5, q ** -1.5, q ** -1.5])
        assert np.max(np.abs(moduli - expected)) < 1e-6

    def test_determinant_checksum(self):
        # product of eigenvalues is q^{sum kappa} = q^{-m} = q^{2-n}
        hm = model_for(3, 0.25)
        chk = dilation_spectrum_check(hm, hm.dilation(2.0))
        assert abs(np.prod(chk.computed) - 2.0 ** -3) < 1e-9


class TestGeneratorB:
    def test_frozen_spectrum_m2(self):
        hm = model_for(2, 0.3)
        B = generator_matrix(hm)
        eigs = np.linalg.eigvals(B)
        assert multiset_close(eigs, [0.2, 0.8, -1.8, -1.2])

    def test_closed_form_needs_no_flow(self):
        hm = model_for(3, 1.5)
        generator_matrix(hm)
        assert hm.model._flow is None

    def test_trace_checksum(self):
        for m, c in GRID:
            hm = model_for(m, c)
            assert abs(np.trace(generator_matrix(hm)) - (-m)) < 1e-8

    def test_grid(self):
        for m, c in GRID:
            hm = model_for(m, c)
            assert generator_spectrum_check(hm).max_rel_error < 1e-6

    def test_exponential_consistency(self):
        for m, c in [(2, 0.3), (3, 1.5)]:
            hm = model_for(m, c)
            for q in (0.5, 2.0, 4.0):
                assert exponential_consistency_residual(hm, hm.dilation(q)) < 1e-6

    # scipy.linalg.expm is the reference. Both are Pade approximants with
    # scaling and squaring but choose degree and scaling differently, and
    # squaring amplifies roundoff, so they agree to a relative 1e-11
    # (about 5e4 eps), far below the 1e-6 budget of the check.
    EXPM_RTOL = 1e-11

    @pytest.mark.parametrize("m,c", GRID)
    def test_expm_matches_scipy_on_generators(self, m, c):
        B = generator_matrix(model_for(m, c))
        for q in (0.25, 0.5, 2.0, 4.0):
            ref = expm(np.log(q) * B)
            got = _expm(np.log(q) * B)
            assert np.max(np.abs(got - ref)) <= self.EXPM_RTOL * np.max(np.abs(ref))

    def test_expm_matches_scipy_across_norms(self):
        # 1-norms from 1e-3 to 50: below and above the Pade-13 threshold
        # 5.37, so up to four squarings run.
        rng = np.random.default_rng(41)
        for norm in np.geomspace(1e-3, 50.0, 15):
            for n in (2, 6, 10):
                A = rng.standard_normal((n, n))
                A *= norm / np.linalg.norm(A, 1)
                ref = expm(A)
                assert np.max(np.abs(_expm(A) - ref)) <= self.EXPM_RTOL * np.max(np.abs(ref))


class TestKernelSplit:
    def test_expected_dims(self):
        assert expected_kernel_dim(0.3) == 0
        assert expected_kernel_dim(1.5) == 1
        assert expected_kernel_dim(0.5) == 1
        assert expected_kernel_dim(2.5) == 1
        assert expected_kernel_dim(1.0) == 0
        assert expected_kernel_dim(0.7j) == 0

    def test_split_matches_prediction(self):
        for m, c in GRID + [(3, 1.5)]:
            hm = model_for(m, c)
            split = spectral_split(hm)
            assert split.kernel_dim == expected_kernel_dim(c)

    @pytest.mark.parametrize("m,c", [(2, 100.0), (3, 300.0), (5, 1e3),
                                     (2, 1e20), (3, 1e20), (5, 1e20)])
    def test_large_c_has_no_kernel(self, m, c):
        # the largest singular value of B grows like c^2, its eigenvalues
        # like c: the kernel is counted against the eigenvalues
        assert spectral_split(model_for(m, c)).kernel_dim == 0

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_kernel_cases_keep_their_dimension(self, m):
        for j in range(1, m + 1):
            c = m + 0.5 - 2 * j
            if abs(c) != 0.5:     # c = +-1/2 makes the profile vanish
                assert spectral_split(model_for(m, c)).kernel_dim == 1, c

    def test_kernel_annihilated(self):
        hm = model_for(2, 1.5)
        B = generator_matrix(hm)
        split = spectral_split(hm)
        assert split.kernel_dim == 1
        assert np.max(np.abs(B @ split.e0)) < 1e-8

    def test_split_is_direct(self):
        hm = model_for(3, 1.5)
        split = spectral_split(hm)
        combined = split.combined()
        assert combined.shape == (6, 6)
        assert abs(np.linalg.det(combined)) > 1e-6
        rng = np.random.default_rng(5)
        data = rng.standard_normal(6)
        plus, zero = split.decompose(data)
        rebuilt = split.eplus @ plus + split.e0 @ zero
        assert np.max(np.abs(rebuilt - data)) < 1e-10


class TestShiftedInvertibility:
    def test_gap_and_kernel(self):
        for m, c in [(2, 0.3), (2, 1.5)]:
            hm = model_for(m, c)
            split = spectral_split(hm)
            for q in (0.25, 0.5, 2.0, 4.0):
                res = shifted_invertibility(hm, hm.dilation(q), split)
                assert res["min_singular_value"] > 1e-2
                assert res["kernel_fixed_residual"] < 1e-9
                assert res["range_leak_into_kernel"] < 1e-7


class TestG0:
    def rand_element(self, hm, rng, q=None):
        if q is None:
            q = float(np.exp(rng.uniform(-np.log(3.0), np.log(3.0))))
        return IsoElement(hm.dilation(q), float(rng.standard_normal()),
                          rng.standard_normal(2 * hm.m))

    def test_group_axioms(self):
        rng = np.random.default_rng(91)
        hm = model_for(2, 1.5)
        model = hm.model
        e = iso_identity(model)
        for _ in range(5):
            a = self.rand_element(hm, rng)
            b = self.rand_element(hm, rng)
            c = self.rand_element(hm, rng)
            ainv = iso_inverse(model, a)
            assert iso_distance(iso_compose(model, a, ainv), e) < 1e-9
            assert iso_distance(iso_compose(model, ainv, a), e) < 1e-9
            lhs = iso_compose(model, iso_compose(model, a, b), c)
            rhs = iso_compose(model, a, iso_compose(model, b, c))
            assert iso_distance(lhs, rhs) < 1e-9

    def test_nonpositive_q_rejected(self):
        hm = model_for(2, 0.3)
        with pytest.raises(ValueError):
            IsoElement(hm.dilation(-1.0), 0.0, np.zeros(4))


ROUTES = (commutator_residual, commute_criterion_residual)


class TestCommuteTest:
    def test_identity_commutes_with_everything(self):
        rng = np.random.default_rng(93)
        hm = model_for(2, 0.3)
        e = iso_identity(hm.model)
        for _ in range(5):
            g = IsoElement(hm.dilation(float(np.exp(rng.normal()))),
                           float(rng.normal()), rng.standard_normal(4))
            for route in ROUTES:
                assert route(hm.model, e, g) <= COMMUTE_TOL

    def test_center_does_not_commute_with_dilations(self):
        # (1, r, 0) with r != 0 fails against q != 1: conjugation scales the
        # center by 1/q, and the criterion's central equation r (1 - 1/q) != 0
        # says the same thing.
        hm = model_for(2, 0.3)
        central = IsoElement(hm.dilation(1.0), 2.0, np.zeros(4))
        dil = IsoElement(hm.dilation(2.0), 0.0, np.zeros(4))
        for route in ROUTES:
            assert route(hm.model, central, dil) > COMMUTE_TOL
        assert commutator_residual(hm.model, central, dil) == pytest.approx(1.0, abs=1e-12)

    def test_heisenberg_pair(self):
        hm = model_for(2, 0.3)
        e1 = np.eye(4)[0]
        e_conj = np.eye(4)[3]     # deriv slot paired to e1 by the flip Gram
        a = IsoElement(hm.dilation(1.0), 0.0, e1)
        b = IsoElement(hm.dilation(1.0), 0.0, e_conj)
        # Omega-orthogonal data commutes
        c = IsoElement(hm.dilation(1.0), 0.0, np.eye(4)[1])
        for route in ROUTES:
            assert route(hm.model, a, b) > COMMUTE_TOL
            assert route(hm.model, a, c) <= COMMUTE_TOL

    def test_same_class_members_commute(self):
        rng = np.random.default_rng(94)
        for m, c in [(2, 0.3), (2, 1.5)]:
            hm = model_for(m, c)
            split = spectral_split(hm)
            z = split.eplus @ rng.standard_normal(split.eplus.shape[1])
            w = split.e0 @ rng.standard_normal(split.kernel_dim) \
                if split.kernel_dim else np.zeros(2 * hm.m)
            a_label = 0.8
            x = class_map(hm, a_label, z, hm.dilation(2.0), w)
            y = class_map(hm, a_label, z, hm.dilation(0.3), w)
            for route in ROUTES:
                assert route(hm.model, x, y) <= COMMUTE_TOL
            assert commutator_residual(hm.model, x, y) < 1e-10

    def test_same_class_members_commute_as_chart_maps(self):
        # Class members are isometries of the chart, and they commute as
        # maps, not only as coordinates; a member of another class does not.
        rng = np.random.default_rng(102)
        for m, c in [(2, 0.3), (3, 1.5), (3, 0.7j)]:
            hm = model_for(m, c)
            model = hm.model
            split = spectral_split(hm)
            z = split.eplus @ rng.standard_normal(split.eplus.shape[1])
            w = split.e0 @ rng.standard_normal(split.kernel_dim) \
                if split.kernel_dim else np.zeros(2 * hm.m)
            x = class_map(hm, 0.8, z, hm.dilation(2.0), w)
            y = class_map(hm, 0.8, z, hm.dilation(0.3), w)
            other = class_map(hm, -0.5, z, hm.dilation(0.3), w)

            def defect(g, h, pts):
                gh = iso_apply(model, g, iso_apply(model, h, pts))
                hg = iso_apply(model, h, iso_apply(model, g, pts))
                return float(np.max(np.abs(gh - hg)))

            pts = np.array([random_chart_point(model, rng).coords() for _ in range(4)])
            assert defect(x, y, pts) < 1e-8
            assert max(np.max(pullback_residual(model, g, pts)[0])
                       for g in (x, y)) < 1e-8
            assert defect(x, other, pts) > 1e-3

    def test_routes_agree_on_random_pairs(self):
        rng = np.random.default_rng(95)
        hm = model_for(2, 1.5)
        disagreements = 0
        for _ in range(200):
            a = IsoElement(hm.dilation(float(np.exp(rng.uniform(-1.2, 1.2)))),
                           float(rng.normal()), rng.standard_normal(4))
            b = IsoElement(hm.dilation(float(np.exp(rng.uniform(-1.2, 1.2)))),
                           float(rng.normal()), rng.standard_normal(4))
            direct, criterion = (route(hm.model, a, b) <= COMMUTE_TOL for route in ROUTES)
            if direct != criterion:
                disagreements += 1
        assert disagreements == 0


class TestTransitivity:
    def test_no_counterexamples(self):
        rng = np.random.default_rng(96)
        for m, c in [(2, 0.3), (2, 1.5)]:
            hm = model_for(m, c)
            split = spectral_split(hm)
            rep = transitive_commutation_check(hm, split, 40, rng)
            assert rep.triples == 40
            assert rep.premise_failures == 0
            assert rep.counterexamples == 0
            assert rep.worst_conclusion_residual < 1e-8


class TestClassMap:
    def test_round_trip_from_labels(self):
        rng = np.random.default_rng(97)
        for m, c in [(2, 0.3), (2, 1.5), (3, 1.5)]:
            hm = model_for(m, c)
            split = spectral_split(hm)
            for _ in range(10):
                a = float(rng.standard_normal())
                z = split.eplus @ rng.standard_normal(split.eplus.shape[1])
                w = split.e0 @ rng.standard_normal(split.kernel_dim) \
                    if split.kernel_dim else np.zeros(2 * hm.m)
                q = float(np.exp(rng.uniform(-np.log(4.0), np.log(4.0))))
                if abs(q - 1.0) < 0.05:
                    q *= 1.3
                g = class_map(hm, a, z, hm.dilation(q), w)
                a2, z2, w2 = class_map_inverse(hm, g, split)
                assert abs(a2 - a) < 1e-8
                assert g.sigma.q == q
                assert np.max(np.abs(z2 - z)) < 1e-8
                assert np.max(np.abs(w2 - w)) < 1e-8

    def test_round_trip_from_element(self):
        rng = np.random.default_rng(98)
        hm = model_for(2, 1.5)
        split = spectral_split(hm)
        for _ in range(10):
            g = IsoElement(hm.dilation(float(np.exp(rng.uniform(0.1, 1.0)))),
                           float(rng.normal()), rng.standard_normal(4))
            a, z, w = class_map_inverse(hm, g, split)
            back = class_map(hm, a, z, hm.dilation(g.sigma.q), w)
            assert iso_distance(back, g) < 1e-8

    def test_q_one_rejected(self):
        hm = model_for(2, 0.3)
        g = IsoElement(hm.dilation(1.0), 0.5, np.ones(4))
        with pytest.raises(ValueError):
            class_map_inverse(hm, g, spectral_split(hm))

    def test_class_members_share_one_lookup(self, monkeypatch):
        # sample_class looks the members' dilations up together, and
        # class_map then reads each member's kept matrix.
        hm = model_for(3, 0.25)
        split = spectral_split(hm)
        sizes = []
        matrices = CauchyFlow.matrices
        monkeypatch.setattr(CauchyFlow, "matrices",
                            lambda self, ts: sizes.append(np.size(ts)) or matrices(self, ts))
        for size in (2, 3, 7):
            sizes.clear()
            members = sample_class(hm, split, np.random.default_rng(size), size)[3]
            assert sizes == [size] and len(members) == size

    def test_inverse_acts_through_the_element(self, monkeypatch):
        # class_map already looked up the dilation's matrix on g.sigma, so
        # the inverse reads that matrix instead of the flow.
        hm = model_for(2, 0.3)
        split = spectral_split(hm)
        g = class_map(hm, 0.4, split.eplus @ np.ones(split.eplus.shape[1]),
                      hm.dilation(2.0), np.zeros(4))
        calls = []
        lookup = CauchyFlow.matrix
        monkeypatch.setattr(CauchyFlow, "matrix",
                            lambda self, t: calls.append(t) or lookup(self, t))
        class_map_inverse(hm, g, split)
        assert calls == []


class TestConjugation:
    def test_matrix_matches_group_conjugation(self):
        # (r, u) of g h g^-1 for Heisenberg elements h = (id, r, u) against
        # the matrix applied to (r, u), for class members g. The spectrum
        # check cannot see the matrix's r-row (its eigenvalues do not depend
        # on it), so the r-row is tested here, with both faults planted.
        rng = np.random.default_rng(99)
        gaps = {"matrix": [], "r-row zeroed": [], "r-row x 1e3": []}
        for m, c in GRID + [(5, 1.5)]:
            hm = model_for(m, c)
            model = hm.model
            for g in sample_class(hm, spectral_split(hm), rng, 10)[3]:
                h = IsoElement(iso_identity(model).sigma, float(rng.normal()),
                               rng.standard_normal(2 * m))
                conj = iso_compose(model, iso_compose(model, g, h),
                                   iso_inverse(model, g))
                assert abs(conj.sigma.q - 1.0) < 1e-12
                got = np.concatenate([[conj.r], conj.u])
                vec = np.concatenate([[h.r], h.u])
                M = conjugation_matrix(hm, g)
                for name, factor in [("matrix", 1.0), ("r-row zeroed", 0.0),
                                     ("r-row x 1e3", 1e3)]:
                    planted = M.copy()
                    planted[0, 1:] *= factor
                    gaps[name].append(np.max(np.abs(planted @ vec - got))
                                      / np.max(np.abs(got)))
        # Relative to max |(r, u)| of g h g^-1: at most 1.8e-11 for the
        # matrix, and every sample sees each fault (at least 0.015 and 15).
        assert max(gaps["matrix"]) < 1e-10
        assert min(gaps["r-row zeroed"]) > 1e-3
        assert min(gaps["r-row x 1e3"]) > 1.0

    def test_spectrum_prediction(self):
        rng = np.random.default_rng(100)
        for m, c in [(2, 0.3), (2, 1.5), (3, 0.25)]:
            hm = model_for(m, c)
            for _ in range(4):
                q = float(np.exp(rng.uniform(-np.log(3.0), np.log(3.0))))
                if abs(q - 1.0) < 0.05:
                    q *= 1.2
                g = IsoElement(hm.dilation(q), float(rng.normal()),
                               rng.standard_normal(2 * hm.m))
                assert conjugation_spectrum_check(hm, g).max_rel_error < 1e-6

    def test_frozen_example(self):
        hm = model_for(2, 0.25)
        g = IsoElement(hm.dilation(2.0), 0.3, np.array([0.1, -0.2, 0.4, 0.0]))
        chk = conjugation_spectrum_check(hm, g)
        expected = [0.5, 2.0 ** 0.25, 2.0 ** 0.75, 2.0 ** -1.75, 2.0 ** -1.25]
        assert multiset_close(chk.computed, expected)


class TestStandardSpace:
    def test_shift_and_gram(self):
        space, A = standard_homogeneous_space(3)
        assert np.array_equal(A, np.eye(3, k=1))
        assert np.array_equal(space.gram, np.fliplr(np.eye(3)))
        # self-adjointness of the shift for the anti-diagonal Gram
        assert np.max(np.abs(space.gram @ A - A.T @ space.gram)) == 0.0

    def test_base_anchored_at_one(self):
        hm = model_for(2, 0.3)
        assert flow(hm.model).base_t == 1.0


class TestNormalizeToStandard:
    """f(t) = h t^-2 is the standard profile (c^2 - 1/4) t^-2 with
    c^2 = h + 1/4."""

    def test_flat_case_makes_invalid_model(self):
        # h = 0 gives c = 1/2, whose profile is identically zero; the
        # validated constructor refuses it
        with pytest.raises(ValueError):
            HomogeneousModel.standard(2, 0.5)

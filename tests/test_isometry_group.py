"""Isometry group: membership residuals, the induced action on solutions,
the chart action with its analytic Jacobian, and the group operations."""

import numpy as np
import pytest

from ecs_lab.homogeneous import HomogeneousModel, sample_isometries
from ecs_lab.isometry_group import (
    IsoElement,
    SElement,
    _lookup,
    _parts,
    classify_holonomy,
    iso_action,
    iso_apply,
    iso_compose,
    iso_distance,
    iso_identity,
    iso_inverse,
    omega_scaling_residual,
    pullback_residual,
    s_membership,
    sigma_det_residual,
    sigma_matrices,
    sigma_matrix,
    stack_elements,
)
from ecs_lab.model_geometry import (
    ChartPoint,
    HomogeneousProfile,
    ModelManifold,
    PolynomialProfile,
    random_chart_point,
)
from ecs_lab.pseudo_linear import PseudoEuclideanSpace
from ecs_lab.solution_space import CauchyFlow, flow, random_solution, solution_at


def membership_alone(model, elem):
    """s_membership's residuals for one element, as the formulas read: the
    reference for the stacked call."""
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
        fv = model.profile.value(ts)
        scale = max(1.0, float(np.max(np.abs(fv))))
        equiv = float(np.max(np.abs(fv - q * q * model.profile.value(images)))) / scale
    return {"conjugation_residual": conj, "isometry_residual": iso,
            "interval_residual": interval_res, "equivariance_residual": equiv}


class TestSMembership:
    def test_stacked_call_equals_each_element_alone(self, roster):
        # The roster's sampled elements (q = 1 and C = +-Id on the polynomial
        # models) with, on the homogeneous ones, a dilation shifted so that
        # its images leave I, and a stretch of a finite interval next to a
        # member: one call per model equals each element alone, bit for bit.
        rng = np.random.default_rng(46)
        finite = ModelManifold.ecs(PseudoEuclideanSpace(np.eye(2)), np.diag([1.0, -1.0]),
                                   PolynomialProfile([0.0, 1.0]), (-1.0, 2.0))
        cases = [(entry.model, [g.sigma for g in sample_isometries(entry.model, rng, 12)]
                  + ([SElement(2.0, -1.0, entry.hm.dilation(2.0).C)] if entry.hm else []))
                 for entry in roster]
        cases.append((finite, [SElement(2.0, 0.5, np.eye(2)), SElement(1.0, 0.0, -np.eye(2))]))
        leaving = 0
        for model, elems in cases:
            stacked = s_membership(model, elems)
            assert stacked == [membership_alone(model, e) for e in elems]
            assert stacked == [s_membership(model, [e])[0] for e in elems]
            leaving += sum(r["equivariance_residual"] == np.inf for r in stacked)
        assert leaving == 4

    def test_dilation_is_structural(self, roster):
        hm = roster[1].hm
        for q in (0.25, 0.5, 2.0, 4.0):
            res = s_membership(hm.model, [hm.dilation(q)])[0]
            assert max(res.values()) < 1e-12

    def test_sign_diagonal_on_polynomial(self, roster):
        model = roster[0].model
        elem = SElement(1.0, 0.0, np.diag([1.0, -1.0]))
        res = s_membership(model, [elem])[0]
        assert max(res.values()) < 1e-14

    def test_dilation_fails_on_polynomial_profile(self, roster):
        model = roster[0].model
        elem = SElement(2.0, 0.0, np.eye(2))
        res = s_membership(model, [elem])[0]
        assert res["equivariance_residual"] > 1e-2

    def test_non_isometric_c_detected(self, roster):
        model = roster[0].model
        elem = SElement(1.0, 0.0, np.diag([2.0, 0.5]))
        res = s_membership(model, [elem])[0]
        assert res["isometry_residual"] > 1.0
        assert res["conjugation_residual"] < 1e-14

    def test_q_without_matching_c_detected(self, roster):
        hm = roster[1].hm
        elem = SElement(2.0, 0.0, np.eye(2))
        res = s_membership(hm.model, [elem])[0]
        assert res["conjugation_residual"] > 1.0
        assert res["equivariance_residual"] < 1e-14

    def test_interval_shift_detected(self, roster):
        hm = roster[1].hm          # interval (0, inf)
        good = hm.dilation(2.0)
        elem = SElement(good.q, 1.0, good.C)
        res = s_membership(hm.model, [elem])[0]
        assert res["interval_residual"] >= 1.0

    def test_interval_residual_is_the_worst_finite_end(self):
        # sigma = (2, 0.5, I) moves the ends of (-1, 2) to -1.5 and 4.5:
        # residuals 0.5 and 2.5. The real line has no finite end to move.
        space = PseudoEuclideanSpace(np.eye(2))
        A, profile = np.diag([1.0, -1.0]), PolynomialProfile([0.0, 1.0])
        elem = SElement(2.0, 0.5, np.eye(2))
        finite = ModelManifold.ecs(space, A, profile, (-1.0, 2.0))
        assert s_membership(finite, [elem])[0]["interval_residual"] == 2.5
        line = ModelManifold.ecs(space, A, profile)
        assert s_membership(line, [elem])[0]["interval_residual"] == 0.0

    def test_sampled_elements_are_members(self, roster):
        # The library sampler on the roster, and on a homogeneous profile whose
        # diagonal A carries no dilations, so that only q = 1 is sampled.
        rng = np.random.default_rng(44)
        diagonal = ModelManifold.ecs(PseudoEuclideanSpace(np.eye(2)),
                                     np.diag([1.0, -1.0]), HomogeneousProfile(0.3))
        for model in [entry.model for entry in roster] + [diagonal]:
            for g in sample_isometries(model, rng, 10):
                assert max(s_membership(model, [g.sigma])[0].values()) < 1e-9
        assert {g.sigma.q for g in sample_isometries(diagonal, rng, 6)} == {1.0}

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            SElement(-2.0, 0.0, np.eye(2))
        with pytest.raises(ValueError):
            SElement(0.0, 0.0, np.eye(2))


class TestSigmaAction:
    def test_pointwise_formula(self, roster):
        # sigma . u, built from Cauchy data at the base time alone, must
        # evaluate to C u((t - p)/q) at every other time as well.
        rng = np.random.default_rng(51)
        hm = roster[3].hm
        model = hm.model
        u = random_solution(model, rng)
        for q in (0.5, 3.0):
            elem = hm.dilation(q)
            moved = sigma_matrix(model, elem) @ u
            for t in (0.4, 1.7, 5.0):
                mv, md = solution_at(model, moved, t)
                uv, ud = solution_at(model, u, (t - elem.p) / q)
                assert np.max(np.abs(mv - elem.C @ uv)) < 1e-9
                assert np.max(np.abs(md - (elem.C @ ud) / q)) < 1e-9

    def test_matrix_matches_action(self, roster):
        # the matrix against the formula at the base time: C u(src) and
        # C u'(src) / q with src = (t0 - p) / q, t0 the model's base time
        rng = np.random.default_rng(52)
        hm = roster[1].hm
        model = hm.model
        elem = hm.dilation(1.7)
        M = sigma_matrix(model, elem)
        for _ in range(5):
            u = random_solution(model, rng)
            uv, ud = solution_at(model, u, (model.default_base_t() - elem.p) / elem.q)
            expected = np.concatenate([elem.C @ uv, elem.C @ ud / elem.q])
            assert np.max(np.abs(M @ u - expected)) < 1e-10

    def test_omega_rescales(self, roster, iso_sampler):
        rng = np.random.default_rng(53)
        for entry in (roster[1], roster[3], roster[5]):
            model = entry.model
            pairs = [(random_solution(model, rng), random_solution(model, rng))
                     for _ in range(6)]
            for q in (0.25, 2.0):
                elem = entry.hm.dilation(q)
                assert omega_scaling_residual(model, elem, pairs) < 1e-9

    def test_determinant_character(self, roster):
        for entry in (roster[1], roster[3], roster[5]):
            for q in (0.25, 0.5, 2.0, 4.0):
                elem = entry.hm.dilation(q)
                assert sigma_det_residual(entry.model, elem) < 1e-9


class TestElementMatrix:
    """An SElement keeps its sigma matrix for the model it was last asked
    about; nothing else holds it."""

    def test_one_lookup_per_sigma(self, roster, iso_sampler, monkeypatch):
        # Omega scaling, the determinant, the inverse and both compositions
        # with it act by sigma or sigma^-1: one flow lookup each.
        entry = roster[3]
        model = entry.model
        rng = np.random.default_rng(54)
        g = next(g for g in iso_sampler(entry, rng, 10) if g.sigma.q != 1.0)
        pairs = [(random_solution(model, rng), random_solution(model, rng))]
        used = []
        matrices = CauchyFlow.matrices

        def recording_matrices(self, ts):
            used.append(np.asarray(ts, dtype=float).copy())
            return matrices(self, ts)

        monkeypatch.setattr(CauchyFlow, "matrices", recording_matrices)
        omega_scaling_residual(model, g.sigma, pairs)
        sigma_det_residual(model, g.sigma)
        g_inv = iso_inverse(model, g)
        iso_compose(model, g, g_inv)
        iso_compose(model, g_inv, g)
        t0 = model.default_base_t()
        assert [float(t) for t in used] == [(t0 - g.sigma.p) / g.sigma.q,
                                            (t0 - g_inv.sigma.p) / g_inv.sigma.q]

    def test_matrix_is_kept_read_only(self, roster):
        hm = roster[1].hm
        elem = hm.dilation(1.7)
        M = sigma_matrix(hm.model, elem)
        assert sigma_matrix(hm.model, elem) is M
        fresh = SElement(elem.q, elem.p, elem.C.copy())
        assert np.array_equal(M, sigma_matrix(hm.model, fresh))
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 0.0
        # The kept matrix is no part of the element's value.
        assert "_matrix" not in repr(elem)
        assert SElement(elem.q, elem.p, elem.C)._matrix is None

    def test_each_model_gets_its_own_matrix(self, roster):
        # Both models share A, so sigma_2 of one is sigma_2 of the other.
        hm = roster[1].hm
        other = HomogeneousModel.standard(hm.m, 0.7).model
        elem = hm.dilation(2.0)
        expected = {id(model): sigma_matrix(model, SElement(elem.q, elem.p, elem.C))
                    for model in (hm.model, other)}
        assert not np.array_equal(*expected.values())
        for model in (hm.model, other, hm.model, other):
            assert np.array_equal(sigma_matrix(model, elem), expected[id(model)])

    def test_failed_lookup_is_not_kept(self, roster):
        # Source time (t0 - p)/q = (1 - 2)/1 = -1 lies outside I = (0, inf).
        hm = roster[1].hm
        elem = SElement(1.0, 2.0, np.eye(hm.m))
        for _ in range(2):
            with pytest.raises(ValueError, match="outside the model interval"):
                sigma_matrix(hm.model, elem)
            with pytest.raises(ValueError, match="outside the model interval"):
                sigma_matrices(hm.model, [elem])
        assert elem._matrix is None


class TestStackedElements:
    """k stacked elements give what k one-element calls give, bit for bit:
    every product keeps one element's operand shapes."""

    @pytest.mark.parametrize("size", [1, 2])
    def test_stacked_calls_equal_one_element_calls(self, roster, iso_sampler, size):
        # Five elements in blocks of `size`: with 2, the last block holds one.
        rng = np.random.default_rng(75)
        for entry in roster:
            model = entry.model
            elems = iso_sampler(entry, rng, 5)
            X = np.array([random_chart_point(model, rng).coords() for _ in range(4)])
            for i in range(0, len(elems), size):
                block = elems[i:i + size]
                g = stack_elements(block)
                x = np.broadcast_to(X, (len(block),) + X.shape)
                shared = _lookup(model, g, x)
                images = iso_apply(model, g, x)
                action_images, jacobians = iso_action(model, g, x)
                residuals, pull_images = pullback_residual(model, g, x)
                matrices = sigma_matrices(model, [SElement(e.sigma.q, e.sigma.p, e.sigma.C)
                                                  for e in block])
                for k, e in enumerate(block):
                    one = _lookup(model, _parts(e), X)
                    assert all(np.array_equal(a[k], b) for a, b in zip(shared, one))
                    res, img = pullback_residual(model, e, X)
                    single_images, single_jacobians = iso_action(model, e, X)
                    for stacked, single in ((images[k], iso_apply(model, e, X)),
                                            (action_images[k], single_images),
                                            (jacobians[k], single_jacobians),
                                            (residuals[k], res),
                                            (pull_images[k], img)):
                        assert np.array_equal(stacked, single)
                    fresh = SElement(e.sigma.q, e.sigma.p, e.sigma.C)
                    assert np.array_equal(matrices[k], sigma_matrix(model, fresh))

    def test_stacked_sigma_matrices_fill_each_element(self, roster, monkeypatch):
        # One lookup fills every element's kept matrix; kept ones add none.
        hm = roster[3].hm
        model = hm.model
        sigmas = [hm.dilation(q) for q in (0.5, 0.8, 1.7)]
        sigma_matrix(model, sigmas[1])
        used = []
        matrices = CauchyFlow.matrices
        monkeypatch.setattr(CauchyFlow, "matrices",
                            lambda self, ts: used.append(np.shape(ts)) or matrices(self, ts))
        out = sigma_matrices(model, sigmas)
        assert used == [(2,)]
        for sigma, matrix in zip(sigmas, out):
            assert sigma._matrix[1] is matrix and not matrix.flags.writeable
        assert sigma_matrices(model, sigmas) == out and used == [(2,)]

    def test_base_time_sigma_needs_no_lookup(self, roster, monkeypatch):
        # q = 1 and p = +-0 read the flow at t0, the identity: the matrix is
        # the looked-up one bit for bit, without a lookup.
        looked_up = {}
        for entry in roster:
            model = entry.model
            m = model.m
            phi = flow(model).matrix(flow(model).base_t)
            for sign in (1.0, -1.0):
                block = np.zeros((2 * m, 2 * m))
                block[:m, :m] = block[m:, m:] = sign * np.eye(m)
                looked_up[entry.name, sign] = block @ phi
        calls = []
        monkeypatch.setattr(CauchyFlow, "matrices", lambda self, ts: calls.append(ts))
        for entry in roster:
            model = entry.model
            for sign in (1.0, -1.0):
                for p in (0.0, -0.0):
                    sigma = SElement(1.0, p, sign * np.eye(model.m))
                    assert (sigma_matrix(model, sigma).tobytes()
                            == looked_up[entry.name, sign].tobytes())
            # Heisenberg products and inverses fix t0 too.
            h1 = IsoElement(iso_identity(model).sigma, 0.5, np.ones(2 * model.m))
            h2 = IsoElement(iso_identity(model).sigma, -1.0, np.arange(2.0 * model.m))
            iso_compose(model, iso_compose(model, h1, h2),
                        iso_compose(model, iso_inverse(model, h1), iso_inverse(model, h2)))
        assert calls == []


class TestChartAction:
    def test_identity_fixes_points(self, roster):
        rng = np.random.default_rng(61)
        model = roster[2].model
        pt = random_chart_point(model, rng)
        image = iso_identity(model)
        out = iso_apply(model, image, pt.coords())
        assert np.array_equal(out, pt.coords())

    def test_central_translation_moves_s_only(self, roster):
        model = roster[0].model
        g = IsoElement(SElement(1.0, 0.0, np.eye(2)), 2.5, np.zeros(2 * model.m))
        pt = ChartPoint(0.3, -1.0, np.array([0.4, 0.7]))
        out = iso_apply(model, g, pt.coords())
        assert out[0] == pt.t
        assert np.array_equal(out[2:], pt.v)
        assert out[1] == pytest.approx(pt.s + 2.5, abs=1e-14)

    def test_dilation_rescales_t(self, roster):
        hm = roster[1].hm
        g = IsoElement(hm.dilation(3.0), 0.0, np.zeros(2 * hm.m))
        pt = ChartPoint(0.7, 0.2, np.array([1.0, -2.0]))
        out = iso_apply(hm.model, g, pt.coords())
        assert out[0] == pytest.approx(2.1, abs=1e-14)
        assert out[1] == pytest.approx(0.2 / 3.0, abs=1e-14)

    def test_pullback_vanishes_for_group_elements(self, roster, iso_sampler):
        rng = np.random.default_rng(62)
        for entry in roster:
            for g in iso_sampler(entry, rng, 6):
                pt = random_chart_point(entry.model, rng)
                assert pullback_residual(entry.model, g, pt.coords())[0] < 1e-9

    def test_pullback_detects_non_isometry(self, roster):
        rng = np.random.default_rng(63)
        model = roster[0].model
        bad = IsoElement(SElement(1.0, 0.0, np.diag([2.0, 0.5])),
                         0.0, np.zeros(2 * model.m))
        pt = random_chart_point(model, rng)
        assert pullback_residual(model, bad, pt.coords())[0] > 1e-2

    def test_stack_matches_single_points(self, roster, iso_sampler):
        # A stack of k points gives what k separate calls give.
        rng = np.random.default_rng(65)
        for entry in roster:
            model = entry.model
            g = iso_sampler(entry, rng, 1)[0]
            X = np.array([random_chart_point(model, rng).coords() for _ in range(5)])
            images = iso_apply(model, g, X)
            action_images, jacobians = iso_action(model, g, X)
            residuals, pull_images = pullback_residual(model, g, X)
            assert images.shape == X.shape and residuals.shape == (5,)
            assert np.array_equal(pull_images, images)
            assert np.array_equal(action_images, images)
            for k, x in enumerate(X):
                res, img = pullback_residual(model, g, x)
                for stacked, single in ((images[k], iso_apply(model, g, x)),
                                        (pull_images[k], img),
                                        (jacobians[k], iso_action(model, g, x)[1])):
                    scale = np.max(np.abs(single))
                    assert np.max(np.abs(stacked - single)) <= 1e-14 * scale
                assert abs(residuals[k] - res) <= 1e-14 * max(res, 1.0)
            # Leading axes of any shape stack alike.
            assert np.array_equal(iso_apply(model, g, X.reshape(5, 1, -1))[:, 0],
                                  images)

    def test_jacobian_against_finite_differences(self, roster, iso_sampler):
        rng = np.random.default_rng(64)
        h = 1e-6
        for entry in (roster[1], roster[2]):
            model = entry.model
            g = iso_sampler(entry, rng, 1)[0]
            x0 = random_chart_point(model, rng).coords()
            J = iso_action(model, g, x0)[1]
            n = model.dim
            fd = np.zeros((n, n))
            for e in range(n):
                step = np.zeros(n)
                step[e] = h
                hi = iso_apply(model, g, x0 + step)
                lo = iso_apply(model, g, x0 - step)
                fd[:, e] = (hi - lo) / (2 * h)
            assert np.max(np.abs(J - fd)) < 1e-5


class TestGroupOperations:
    def test_action_is_homomorphism(self, roster, iso_sampler):
        rng = np.random.default_rng(71)
        for entry in roster:
            model = entry.model
            a, b = iso_sampler(entry, rng, 2)
            ab = iso_compose(model, a, b)
            for _ in range(4):
                x = random_chart_point(model, rng).coords()
                via_product = iso_apply(model, ab, x)
                via_steps = iso_apply(model, a, iso_apply(model, b, x))
                assert np.max(np.abs(via_product - via_steps)) < 1e-9

    def test_inverse(self, roster, iso_sampler):
        rng = np.random.default_rng(72)
        for entry in (roster[1], roster[4]):
            model = entry.model
            a = iso_sampler(entry, rng, 1)[0]
            inv = iso_inverse(model, a)
            assert iso_distance(iso_compose(model, a, inv),
                                iso_identity(model)) < 1e-9
            assert iso_distance(iso_compose(model, inv, a),
                                iso_identity(model)) < 1e-9
            x = random_chart_point(model, rng).coords()
            back = iso_apply(model, inv, iso_apply(model, a, x))
            assert np.max(np.abs(back - x)) < 1e-9

    def test_associativity(self, roster, iso_sampler):
        rng = np.random.default_rng(73)
        entry = roster[3]
        model = entry.model
        for _ in range(10):
            a, b, c = iso_sampler(entry, rng, 3)
            lhs = iso_compose(model, iso_compose(model, a, b), c)
            rhs = iso_compose(model, a, iso_compose(model, b, c))
            assert iso_distance(lhs, rhs) < 1e-9

    def test_characters(self, roster, iso_sampler):
        rng = np.random.default_rng(74)
        entry = roster[5]
        model = entry.model
        a, b = iso_sampler(entry, rng, 2)
        ab = iso_compose(model, a, b)
        # q, (q, p) and C are homomorphisms of the composition law.
        sa, sb, sab = a.sigma, b.sigma, ab.sigma
        assert (sab.q, sab.p) == pytest.approx((sa.q * sb.q, sa.q * sb.p + sa.p),
                                               rel=1e-14)
        assert np.allclose(sab.C, sa.C @ sb.C, atol=1e-13)


class TestClassifyHolonomy:
    def test_dilational_when_q_moves(self, roster):
        hm = roster[1].hm
        model = hm.model
        els = [iso_identity(model),
               IsoElement(hm.dilation(2.0), 0.0, np.zeros(2 * model.m))]
        assert classify_holonomy(els) == "dilational"

    def test_translational_when_q_fixed(self, roster):
        rng = np.random.default_rng(81)
        model = roster[0].model
        sigma_id = SElement(1.0, 0.0, np.eye(model.m))
        els = [IsoElement(sigma_id, rng.standard_normal(),
                          random_solution(model, rng))
               for _ in range(5)]
        assert classify_holonomy(els) == "translational"
        assert classify_holonomy([]) == "translational"

"""Metric, Christoffel symbols, curvature tensors and their invariants.

The quantitative core is a comparison against a frozen oracle: every tensor
of the pipeline was recomputed in exact rational arithmetic for one
non-diagonal m = 2 model (tests/oracles/) and must be reproduced here to
near machine precision. The rest are structural identities, finite
difference cross-checks of the analytic jets, and negative controls showing
that each identity genuinely fails off the family.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import ecs_lab.cli as cli
from ecs_lab.model_geometry import (
    ChartPoint,
    CurvaturePack,
    HomogeneousProfile,
    ModelManifold,
    PolynomialProfile,
    ProfileF,
    SumOfPowersProfile,
    christoffel_pattern_residual,
    curvature_at,
    curvature_from_jet,
    curvature_identity_residuals,
    metric_at,
    metric_jet,
    nabla_riemann_norm,
    olszak_span_check,
    parallel_weyl_residual,
    random_chart_point,
    ricci_profile_residuals,
    weyl_nonzero_norm,
    weyl_tidal_operator,
)
from ecs_lab.pseudo_linear import PseudoEuclideanSpace
from ecs_lab.homogeneous import HomogeneousModel


def oracle_model(curvature_oracle):
    space = PseudoEuclideanSpace(np.array(curvature_oracle["gram"]))
    return ModelManifold.ecs(
        space, np.array(curvature_oracle["A"]),
        PolynomialProfile(curvature_oracle["f_coefficients"]))


def oracle_point(curvature_oracle):
    p = curvature_oracle["point"]
    return ChartPoint(p["t"], p["s"], np.array(p["v"]))


def flat_model():
    space = PseudoEuclideanSpace(np.diag([1.0, -1.0]))
    return ModelManifold(space, np.zeros((2, 2)),
                         PolynomialProfile([0.0]), (-np.inf, np.inf))


def reference_curvature_from_jet(g, dg, ddg, dddg) -> CurvaturePack:
    """The term-by-term einsum pipeline that curvature_from_jet replaced,
    kept as the reference it must agree with."""
    n = g.shape[0]
    ginv = np.linalg.inv(g)
    dginv = -np.einsum("ax,exy,yb->eab", ginv, dg, ginv)
    ddginv = (
        -np.einsum("fax,exy,yb->efab", dginv, dg, ginv)
        - np.einsum("ax,efxy,yb->efab", ginv, ddg, ginv)
        - np.einsum("ax,exy,fyb->efab", ginv, dg, dginv)
    )

    # S[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc and its derivatives.
    S = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    dS = (
        np.transpose(ddg, (0, 2, 1, 3))
        + np.transpose(ddg, (0, 2, 3, 1))
        - ddg
    )
    ddS = (
        np.transpose(dddg, (0, 1, 3, 2, 4))
        + np.transpose(dddg, (0, 1, 3, 4, 2))
        - dddg
    )

    gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, S)
    dgamma = 0.5 * (
        np.einsum("ead,dbc->eabc", dginv, S)
        + np.einsum("ad,edbc->eabc", ginv, dS)
    )
    ddgamma = 0.5 * (
        np.einsum("efad,dbc->efabc", ddginv, S)
        + np.einsum("ead,fdbc->efabc", dginv, dS)
        + np.einsum("fad,edbc->efabc", dginv, dS)
        + np.einsum("ad,efdbc->efabc", ginv, ddS)
    )

    # R^a_{bcd} and its coordinate derivative.
    r_up = (
        np.transpose(dgamma, (1, 3, 0, 2))
        - np.transpose(dgamma, (1, 3, 2, 0))
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )
    dr_up = (
        np.transpose(ddgamma, (0, 2, 4, 1, 3))
        - np.transpose(ddgamma, (0, 2, 4, 3, 1))
        + np.einsum("eacx,xdb->eabcd", dgamma, gamma)
        + np.einsum("acx,exdb->eabcd", gamma, dgamma)
        - np.einsum("eadx,xcb->eabcd", dgamma, gamma)
        - np.einsum("adx,excb->eabcd", gamma, dgamma)
    )

    riem = np.einsum("ax,xbcd->abcd", g, r_up)
    driem = (
        np.einsum("eax,xbcd->eabcd", dg, r_up)
        + np.einsum("ax,exbcd->eabcd", g, dr_up)
    )

    ric = np.einsum("abad->bd", r_up)
    dric = np.einsum("eabad->ebd", dr_up)
    scal = float(np.einsum("bd,bd->", ginv, ric))
    dscal = np.einsum("ebd,bd->e", dginv, ric) + np.einsum("bd,ebd->e", ginv, dric)

    def kn(P, Q):
        """Kulkarni-Nomizu style wedge of two symmetric 2-tensors."""
        return (
            np.einsum("ac,bd->abcd", P, Q)
            - np.einsum("ad,bc->abcd", P, Q)
            + np.einsum("bd,ac->abcd", P, Q)
            - np.einsum("bc,ad->abcd", P, Q)
        )

    gg = np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g)
    weyl = riem - kn(g, ric) / (n - 2) + scal * gg / ((n - 1) * (n - 2))

    def dkn(P, dP, Q, dQ):
        return (
            np.einsum("eac,bd->eabcd", dP, Q) + np.einsum("ac,ebd->eabcd", P, dQ)
            - np.einsum("ead,bc->eabcd", dP, Q) - np.einsum("ad,ebc->eabcd", P, dQ)
            + np.einsum("ebd,ac->eabcd", dP, Q) + np.einsum("bd,eac->eabcd", P, dQ)
            - np.einsum("ebc,ad->eabcd", dP, Q) - np.einsum("bc,ead->eabcd", P, dQ)
        )

    dgg = (
        np.einsum("eac,bd->eabcd", dg, g) + np.einsum("ac,ebd->eabcd", g, dg)
        - np.einsum("ead,bc->eabcd", dg, g) - np.einsum("ad,ebc->eabcd", g, dg)
    )
    dweyl = (
        driem
        - dkn(g, dg, ric, dric) / (n - 2)
        + (np.einsum("e,abcd->eabcd", dscal, gg) + scal * dgg) / ((n - 1) * (n - 2))
    )

    def nabla04(T, dT):
        """Covariant derivative of a (0,4) tensor, derivative index first."""
        return (
            dT
            - np.einsum("xea,xbcd->eabcd", gamma, T)
            - np.einsum("xeb,axcd->eabcd", gamma, T)
            - np.einsum("xec,abxd->eabcd", gamma, T)
            - np.einsum("xed,abcx->eabcd", gamma, T)
        )

    nabla_riem = nabla04(riem, driem)
    return CurvaturePack(
        g=g, g_inv=ginv, christoffel=gamma, riemann=riem, ricci=ric,
        scalar=scal, weyl=weyl, nabla_riemann=nabla_riem,
        nabla_ricci=np.einsum("ac,eabcd->ebd", ginv, nabla_riem),
        nabla_weyl=nabla04(weyl, dweyl),
    )


PACK_FIELDS = ("g", "g_inv", "christoffel", "riemann", "ricci", "scalar",
               "weyl", "nabla_riemann", "nabla_ricci", "nabla_weyl")


def pack_distance(got, want):
    """Largest entry difference over every CurvaturePack field, relative to
    max(1, max |R|) of the reference."""
    scale = max(1.0, float(np.max(np.abs(want.riemann))))
    return max(float(np.max(np.abs(np.asarray(getattr(got, name))
                                   - np.asarray(getattr(want, name)))))
               for name in PACK_FIELDS) / scale


def symmetrized(T, k):
    """T symmetrized over its first k slots and over its last two."""
    perms = list(itertools.permutations(range(k)))
    S = sum(np.transpose(T, p + tuple(range(k, T.ndim))) for p in perms) / len(perms)
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def perturbed_jet(jet, rng, eps):
    """A symmetric jet off the model family: each order gets eps times a
    random tensor with the jet's symmetries."""
    return tuple(J + eps * symmetrized(rng.standard_normal(J.shape), k)
                 for k, J in enumerate(jet))


def stacked(points):
    """The chart points stacked on one leading axis."""
    return ChartPoint(*(np.array([getattr(pt, key) for pt in points]) for key in "tsv"))


def assert_stack_of(got, per_point, fields):
    """Each field of the stacked result equals the per-point results bit for
    bit."""
    for name in fields:
        want = np.stack([np.asarray(getattr(p, name)) for p in per_point])
        assert np.array_equal(np.asarray(getattr(got, name)), want), name


def polynomial_model(n):
    """A polynomial-profile model of total dimension n with diagonal A."""
    m = n - 2
    gram = np.diag([1.0] * (m // 2 + 1) + [-1.0] * (m - m // 2 - 1))
    A = np.linspace(1.0, -1.0, m)
    return ModelManifold.ecs(PseudoEuclideanSpace(gram), np.diag(A),
                             PolynomialProfile([0.0, 1.0, 0.5, 0.1]))


class TestProfiles:
    def test_polynomial_derivatives(self):
        f = PolynomialProfile([0.0, 1.0, 0.0, 0.1])   # t + t^3/10
        assert f.value(2.0) == pytest.approx(2.8)
        assert f.derivative(2.0, 1) == pytest.approx(1.0 + 1.2)
        assert f.derivative(2.0, 2) == pytest.approx(1.2)
        assert f.derivative(2.0, 3) == pytest.approx(0.6)

    def test_homogeneous_values_and_derivatives(self):
        c = 1.5                                      # f = 2 / t^2
        f = HomogeneousProfile(c)
        t = 0.7
        h = c * c - 0.25
        assert f.value(t) == pytest.approx(h / t**2, rel=1e-14)
        assert f.derivative(t, 1) == pytest.approx(-2 * h / t**3, rel=1e-14)
        assert f.derivative(t, 2) == pytest.approx(6 * h / t**4, rel=1e-14)
        assert f.derivative(t, 3) == pytest.approx(-24 * h / t**5, rel=1e-14)
        assert f.natural_interval() == (0.0, np.inf)

    def test_homogeneous_imaginary_parameter(self):
        f = HomogeneousProfile(0.7j)                 # c^2 - 1/4 = -0.74
        assert f.value(1.0) == pytest.approx(-0.74)

    def test_sum_of_powers(self):
        f = SumOfPowersProfile([(2.0, -2.0), (1.0, 1.0)])   # 2/t^2 + t
        t = 1.3
        assert f.value(t) == pytest.approx(2 * t**-2 + t, rel=1e-14)
        assert f.derivative(t, 1) == pytest.approx(-4 * t**-3 + 1, rel=1e-14)
        assert f.derivative(t, 3) == pytest.approx(-48 * t**-5, rel=1e-14)

    def test_from_dict_on_literal_specs(self):
        # every accepted spelling
        cases = [
            ({"kind": "polynomial", "coefficients": [1.0, 0.0, 0.5]},
             PolynomialProfile([1.0, 0.0, 0.5])),
            ({"kind": "homogeneous", "c": 0.3}, HomogeneousProfile(0.3)),
            ({"kind": "homogeneous", "c": [0.0, 0.7]}, HomogeneousProfile(0.7j)),
            ({"kind": "homogeneous", "c": "0.7j"}, HomogeneousProfile(0.7j)),
            ({"kind": "sum-of-powers", "terms": [[1.0, -2.0], [3.0, 0.5]]},
             SumOfPowersProfile([(1.0, -2.0), (3.0, 0.5)])),
        ]
        for spec, f in cases:
            g = ProfileF.from_dict(spec)
            assert type(g) is type(f)
            for t in (0.5, 1.0, 2.2):
                assert g.value(t) == pytest.approx(f.value(t), rel=1e-14)
                assert g.derivative(t, 2) == pytest.approx(
                    f.derivative(t, 2), rel=1e-14)

    @pytest.mark.parametrize("build", [
        lambda: HomogeneousProfile(float("nan")),
        lambda: HomogeneousProfile(complex(0.0, float("inf"))),
        lambda: PolynomialProfile([0.0, float("nan")]),
        lambda: PolynomialProfile([0.0, float("inf")]),
        lambda: SumOfPowersProfile([(1.0, float("nan"))]),
        lambda: SumOfPowersProfile([(float("-inf"), 1.0)]),
    ])
    def test_nonfinite_values_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_value_slope_matches_value_and_derivative(self):
        profiles = [
            PolynomialProfile([0.3, -1.0, 0.0, 0.1, 2.0]),
            PolynomialProfile([4.0]),
            HomogeneousProfile(1.5),
            HomogeneousProfile(0.7j),
            SumOfPowersProfile([(1.0, -2.0), (3.0, 0.5)]),
        ]
        for f in profiles:
            for t in (0.05, 0.5, 1.0, 2.2, 7.0):
                value, slope = f.value_slope(t)
                assert isinstance(value, float) and isinstance(slope, float)
                assert value == pytest.approx(f.value(t), rel=1e-14, abs=1e-14)
                assert slope == pytest.approx(f.derivative(t, 1), rel=1e-14, abs=1e-14)

    def test_constancy_detection(self):
        assert PolynomialProfile([3.0]).is_constant((0.0, 1.0))
        assert not PolynomialProfile([3.0, 1e-6]).is_constant((0.0, 1.0))


class TestConstructors:
    def setup_method(self):
        self.space = PseudoEuclideanSpace(np.eye(2))
        self.f = PolynomialProfile([0.0, 1.0])

    def test_valid_model(self):
        model = ModelManifold.ecs(self.space, np.diag([1.0, -1.0]), self.f)
        assert model.dim == 4
        res = model.validation_residuals()
        assert res["self_adjoint_residual"] < 1e-14
        assert res["trace_residual"] < 1e-14
        assert res["A_norm"] > 0.0
        assert res["f_spread"] > 0.0

    def test_rejects_traceful(self):
        with pytest.raises(ValueError):
            ModelManifold.ecs(self.space, np.diag([1.0, 1.0]), self.f)

    def test_rejects_zero_A(self):
        with pytest.raises(ValueError):
            ModelManifold.ecs(self.space, np.zeros((2, 2)), self.f)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(ValueError):
            ModelManifold.ecs(self.space, np.array([[0.0, 1.0], [0.0, 0.0]]),
                              self.f)

    def test_rejects_constant_profile(self):
        with pytest.raises(ValueError):
            ModelManifold.ecs(self.space, np.diag([1.0, -1.0]),
                              PolynomialProfile([2.0]))

    def test_rejects_interval_outside_domain(self):
        with pytest.raises(ValueError):
            ModelManifold.ecs(self.space, np.diag([1.0, -1.0]),
                              HomogeneousProfile(0.3), interval=(-1.0, 1.0))

    def test_raw_bypasses_validation(self):
        # ecs() rejects the zero A and constant f that ModelManifold() accepts
        model = flat_model()
        with pytest.raises(ValueError):
            ModelManifold.ecs(model.space, model.A, model.profile, model.interval)


class TestKappaAndMetric:
    def test_kappa_vanishes_at_leaf_origin(self, roster):
        for entry in roster:
            model = entry.model
            t = model.default_base_t()
            assert model.kappa(t, np.zeros(model.m)) == 0.0

    def test_kappa_hand_value(self):
        space = PseudoEuclideanSpace(np.eye(2))
        model = ModelManifold.ecs(space, np.diag([1.0, -1.0]),
                                  PolynomialProfile([0.0, 1.0]))
        assert model.kappa(3.0, [1.0, 1.0]) == pytest.approx(6.0)   # 3 * 2 + (1 - 1)

    def test_kappa_homogeneous_normalization(self):
        hm = HomogeneousModel.standard(3, 1.5)
        v = np.array([0.0, 1.0, 0.0])     # <v,v> = 1, <Av,v> = 0
        assert hm.model.kappa(1.0, v) == pytest.approx(2.0)

    def test_kappa_rejects_t_outside_the_interval(self):
        model = HomogeneousModel.standard(2, 0.3).model      # I = (0, inf)
        with pytest.raises(ValueError, match="lies outside"):
            model.kappa(-1.0, np.ones(2))
        with pytest.raises(ValueError, match="lies outside"):
            model.kappa(np.array([0.5, 1.0, 0.0]), np.ones((3, 2)))

    def test_metric_block_structure(self, roster):
        rng = np.random.default_rng(21)
        for entry in roster:
            model = entry.model
            pt = random_chart_point(model, rng)
            g = metric_at(model, pt.coords())
            assert g[0, 0] == pytest.approx(model.kappa(pt.t, pt.v), rel=1e-14)
            assert g[0, 1] == 0.5 and g[1, 0] == 0.5
            assert g[1, 1] == 0.0
            assert np.allclose(g[2:, 2:], model.space.gram)
            assert np.max(np.abs(g[1, 2:])) == 0.0
            assert np.max(np.abs(g[0, 2:])) == 0.0
            # determinant is point independent: -det(gram) / 4
            expected = -np.linalg.det(model.space.gram) / 4.0
            assert np.linalg.det(g) == pytest.approx(expected, rel=1e-10)

    def test_metric_signature_adds_null_pair(self):
        space = PseudoEuclideanSpace(np.diag([1.0, 1.0, -1.0]))
        model = ModelManifold.ecs(space, np.diag([1.0, 2.0, -3.0]),
                                  PolynomialProfile([0.0, 1.0]))
        pt = ChartPoint(0.4, -1.0, np.array([0.2, -0.5, 1.0]))
        eig = np.linalg.eigvalsh(metric_at(model, pt.coords()))
        plus, minus = int(np.sum(eig > 0)), int(np.sum(eig < 0))
        assert (plus, minus) == (3, 2)

    def test_outside_interval_rejected(self):
        hm = HomogeneousModel.standard(2, 0.3)
        with pytest.raises(ValueError):
            metric_at(hm.model, [-1.0, 0.0, 0.0, 0.0])


class TestAgainstOracle:
    """Floating pipeline vs frozen exact-arithmetic values."""

    ATOL = 1e-12

    def pack(self, curvature_oracle):
        model = oracle_model(curvature_oracle)
        return curvature_at(model, oracle_point(curvature_oracle))

    def test_kappa(self, curvature_oracle):
        model = oracle_model(curvature_oracle)
        pt = oracle_point(curvature_oracle)
        got = model.kappa(pt.t, pt.v)
        assert got == pytest.approx(curvature_oracle["kappa"], abs=self.ATOL)

    @pytest.mark.parametrize("field", [
        "metric", "christoffel", "riemann", "ricci", "weyl", "nabla_riemann",
    ])
    def test_tensor(self, curvature_oracle, field):
        pack = self.pack(curvature_oracle)
        got = {
            "metric": pack.g,
            "christoffel": pack.christoffel,
            "riemann": pack.riemann,
            "ricci": pack.ricci,
            "weyl": pack.weyl,
            "nabla_riemann": pack.nabla_riemann,
        }[field]
        want = np.array(curvature_oracle[field])
        assert np.max(np.abs(got - want)) < self.ATOL

    def test_scalar_and_parallel_weyl(self, curvature_oracle):
        pack = self.pack(curvature_oracle)
        assert abs(pack.scalar) < self.ATOL
        assert np.max(np.abs(pack.nabla_weyl)) < self.ATOL


class TestJetsAgainstFiniteDifferences:
    """The analytic metric jets are the foundation of every curvature
    number; cross-check them against central differences."""

    def test_first_and_second_jets(self, roster):
        rng = np.random.default_rng(31)
        h = 1e-5
        for entry in roster[:4]:
            model = entry.model
            pt = random_chart_point(model, rng)
            g, dg, ddg, _ = metric_jet(model, pt)
            n = model.dim

            def g_at(coords):
                return metric_at(model, coords)

            x0 = pt.coords()
            for e in range(n):
                step = np.zeros(n)
                step[e] = h
                fd = (g_at(x0 + step) - g_at(x0 - step)) / (2 * h)
                assert np.max(np.abs(fd - dg[e])) < 1e-8

            def dg_at(coords):
                return metric_jet(model, ChartPoint(coords[0], coords[1], coords[2:]))[1]

            for e in range(n):
                step = np.zeros(n)
                step[e] = h
                fd = (dg_at(x0 + step) - dg_at(x0 - step)) / (2 * h)
                assert np.max(np.abs(fd - ddg[e])) < 1e-7

    def test_third_jet(self, roster):
        rng = np.random.default_rng(32)
        h = 1e-4
        model = roster[2].model
        pt = random_chart_point(model, rng)
        n = model.dim
        _, _, _, dddg = metric_jet(model, pt)

        def ddg_at(coords):
            return metric_jet(model, ChartPoint(coords[0], coords[1], coords[2:]))[2]

        x0 = pt.coords()
        for e in range(n):
            step = np.zeros(n)
            step[e] = h
            fd = (ddg_at(x0 + step) - ddg_at(x0 - step)) / (2 * h)
            assert np.max(np.abs(fd - dddg[e])) < 1e-6


class TestCurvatureIdentities:
    def test_classical_symmetries(self, roster):
        rng = np.random.default_rng(41)
        for entry in roster:
            for _ in range(5):
                pt = random_chart_point(entry.model, rng)
                pack = curvature_at(entry.model, pt)
                res = curvature_identity_residuals(pack)
                assert res["pair_symmetry"] < 1e-11
                assert res["skew_first_pair"] < 1e-11
                assert res["skew_second_pair"] < 1e-11
                assert res["first_bianchi"] < 1e-11
                assert res["second_bianchi"] < 1e-10
                assert res["weyl_traceless"] < 1e-10

    def test_parallel_weyl_and_profile(self, roster):
        rng = np.random.default_rng(42)
        for entry in roster:
            for _ in range(5):
                pt = random_chart_point(entry.model, rng)
                pack = curvature_at(entry.model, pt)
                assert parallel_weyl_residual(pack) < 1e-9
                residuals = ricci_profile_residuals(entry.model, pt, pack)
                assert max(residuals.values()) < 1e-9
                assert nabla_riemann_norm(pack) > 1e-4
                assert weyl_nonzero_norm(pack) > 1e-6

    def test_flat_raw_model_is_flat(self):
        model = flat_model()
        pack = curvature_at(model, ChartPoint(0.3, -2.0, np.array([1.0, 2.0])))
        for arr in (pack.riemann, pack.ricci, pack.weyl,
                    pack.nabla_riemann, pack.nabla_weyl):
            assert np.max(np.abs(arr)) == 0.0


class TestAgainstEinsumReference:
    """curvature_from_jet against the einsum pipeline it replaced, field by
    field. The two sum in different orders, so they agree to rounding.

    Both lose accuracy as g grows ill-conditioned: at cond(g) near 5e3 each
    is off a long-double evaluation by up to 2e-11 in nabla W. The perturbed
    jets are therefore taken near v = 0, where cond(g) stays below 200, so
    that the bound measures the algebra rather than the conditioning.
    """

    TOL = 1e-12

    def test_roster_models(self, roster):
        rng = np.random.default_rng(71)
        for entry in roster:
            for _ in range(20):
                jet = metric_jet(entry.model, random_chart_point(entry.model, rng))
                got = curvature_from_jet(*jet)
                assert pack_distance(got, reference_curvature_from_jet(*jet)) < self.TOL

    def test_perturbed_jets(self, roster):
        rng = np.random.default_rng(72)
        for entry in roster:                      # n = 4, 5 and 7
            for _ in range(5):
                pt = random_chart_point(entry.model, rng)
                pt.v *= 0.3
                jet = perturbed_jet(metric_jet(entry.model, pt), rng, 0.05)
                assert np.linalg.cond(jet[0]) < 200
                got = curvature_from_jet(*jet)
                assert pack_distance(got, reference_curvature_from_jet(*jet)) < self.TOL

    def test_n12_polynomial_model(self):
        model = polynomial_model(12)
        rng = np.random.default_rng(73)
        for _ in range(2):
            jet = metric_jet(model, random_chart_point(model, rng))
            got = curvature_from_jet(*jet)
            assert pack_distance(got, reference_curvature_from_jet(*jet)) < self.TOL
            assert parallel_weyl_residual(got) < 1e-9

    @pytest.mark.parametrize("kind", ["roster", "perturbed", "n12"])
    def test_stacked_points_equal_per_point_calls(self, roster, kind):
        # Every matrix product keeps the operand shapes of one point, so a
        # stack must reproduce the per-point results exactly, not to rounding.
        rng = np.random.default_rng(74)
        models = [polynomial_model(12)] if kind == "n12" else [e.model for e in roster]
        for model in models:
            count = 3 if kind == "n12" else 6
            points = [random_chart_point(model, rng) for _ in range(count)]
            jets = [metric_jet(model, pt) for pt in points]
            stacked_jet = metric_jet(model, stacked(points))
            for order in range(4):
                assert np.array_equal(stacked_jet[order],
                                      np.stack([jet[order] for jet in jets]))
            if kind == "perturbed":
                jets = [perturbed_jet(jet, rng, 0.05) for jet in jets]
                stacked_jet = tuple(np.stack(arrays) for arrays in zip(*jets))
            assert_stack_of(curvature_from_jet(*stacked_jet),
                            [curvature_from_jet(*jet) for jet in jets],
                            PACK_FIELDS)

    def test_verify_model_rows_equal_a_per_point_fold(self, roster):
        # The task evaluates blocks of stacked points; its rows must equal the
        # fold of one-point evaluations drawn from the same stream.
        for entry in roster[::2] + roster[1:2]:       # n = 4, 5, 7 and n4-homog
            model = entry.model
            rows = {row["anchor"]: row for row in cli.task_verify_model(
                model, {"points": 7}, np.random.default_rng(75))}
            rng = np.random.default_rng(75)
            lows, highs = [], []
            for _ in range(7):
                pt = random_chart_point(model, rng)
                pack = curvature_at(model, pt)
                ricci = ricci_profile_residuals(model, pt, pack)
                lows.append([nabla_riemann_norm(pack), weyl_nonzero_norm(pack)])
                highs.append([
                    max(ricci.values()), abs(pack.scalar),
                    parallel_weyl_residual(pack), christoffel_pattern_residual(pack),
                    np.max(np.abs(weyl_tidal_operator(model, pt, pack) - model.A)),
                    max(olszak_span_check(pack).values()),
                    max(curvature_identity_residuals(pack).values())])
            want = dict(zip(["curvature.nonparallel-riemann", "curvature.weyl-nonzero"],
                            np.min(lows, axis=0)))
            want.update(zip(["curvature.ricci-profile", "curvature.scalar-zero",
                             "curvature.parallel-weyl", "curvature.leaf-christoffel",
                             "curvature.tidal-endomorphism", "curvature.olszak-line",
                             "curvature.bianchi"], np.max(highs, axis=0)))
            assert {anchor: rows[anchor]["value"] for anchor in want} == want


class TestStackedMemory:
    """verify-model stacks max(1, 2**14 // n**5) points per block, so that no
    fifth-order array of a block is larger than one n = 7 point's."""

    @staticmethod
    def traced_peak(model, point):
        tracemalloc.start()
        try:
            curvature_at(model, point)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_block_peak_is_that_of_one_n7_point(self, roster):
        rng = np.random.default_rng(76)
        by_dim = {entry.model.dim: entry.model for entry in roster[::2]}
        one_n7 = self.traced_peak(by_dim[7], random_chart_point(by_dim[7], rng))
        for n, size in ((4, 16), (5, 5)):
            block = stacked([random_chart_point(by_dim[n], rng) for _ in range(size)])
            assert self.traced_peak(by_dim[n], block) <= 1.1 * one_n7

    @pytest.mark.parametrize("n,size", [(4, 16), (5, 5), (7, 1), (8, 1)])
    def test_task_block_sizes(self, monkeypatch, n, size):
        shapes = []

        def recorder(model, point):
            shapes.append(np.shape(point.t))
            return curvature_at(model, point)

        monkeypatch.setattr(cli, "curvature_at", recorder)
        cli.task_verify_model(polynomial_model(n), {"points": 20},
                              np.random.default_rng(77))
        assert shapes == [(size,)] * (20 // size) + [(20 % size,)] * (20 % size > 0)


class TestNegativeControls:
    """Each identity must fail when its hypothesis is removed."""

    def test_traceful_A_breaks_ricci_profile(self):
        space = PseudoEuclideanSpace(np.eye(2))
        model = ModelManifold(space, np.diag([1.0, 0.5]),
                              PolynomialProfile([0.0, 1.0]),
                              (-np.inf, np.inf))
        pt = ChartPoint(0.8, 0.0, np.array([0.7, -0.4]))
        residuals = ricci_profile_residuals(model, pt, curvature_at(model, pt))
        assert residuals["ricci"] > 1e-3

    def test_zero_A_kills_weyl(self):
        space = PseudoEuclideanSpace(np.eye(2))
        model = ModelManifold(space, np.zeros((2, 2)),
                              PolynomialProfile([0.0, 1.0]),
                              (-np.inf, np.inf))
        pt = ChartPoint(0.8, 0.0, np.array([0.7, -0.4]))
        pack = curvature_at(model, pt)
        assert np.max(np.abs(pack.weyl)) < 1e-13
        assert np.max(np.abs(pack.riemann)) > 0.1    # still curved

    def test_constant_profile_is_locally_symmetric(self):
        space = PseudoEuclideanSpace(np.eye(2))
        model = ModelManifold(space, np.diag([1.0, -1.0]),
                              PolynomialProfile([2.0]),
                              (-np.inf, np.inf))
        pt = ChartPoint(0.8, 0.0, np.array([0.7, -0.4]))
        pack = curvature_at(model, pt)
        assert np.max(np.abs(pack.nabla_riemann)) < 1e-13
        assert np.max(np.abs(pack.nabla_weyl)) < 1e-13

    def test_leaf_dependent_perturbation_breaks_pattern(self):
        """A hand-built jet with a leaf-coordinate dependence in the leaf
        block produces Christoffel symbols with two leaf indices."""
        n, eps = 4, 0.1
        g = np.array([
            [0.0, 0.5, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ])
        dg = np.zeros((n, n, n))
        dg[3, 2, 2] = eps      # d g_{v1 v1} / d v2
        ddg = np.zeros((n, n, n, n))
        dddg = np.zeros((n, n, n, n, n))
        pack = curvature_from_jet(g, dg, ddg, dddg)
        leaf_block = pack.christoffel[:, 1:, 1:]
        assert np.max(np.abs(leaf_block)) > 1e-3


class TestStructuralChecks:
    def test_christoffel_pattern(self, roster):
        rng = np.random.default_rng(51)
        for entry in roster:
            for _ in range(5):
                pt = random_chart_point(entry.model, rng)
                pack = curvature_at(entry.model, pt)
                assert christoffel_pattern_residual(pack) < 1e-13

    def test_tidal_operator_recovers_A(self, roster):
        rng = np.random.default_rng(52)
        for entry in roster:
            model = entry.model
            norm_A = np.max(np.abs(model.A))
            for _ in range(5):
                pt = random_chart_point(model, rng)
                pack = curvature_at(model, pt)
                M = weyl_tidal_operator(model, pt, pack)
                assert np.max(np.abs(M - model.A)) / norm_A < 1e-10
                # Full tidal map v -> W(d/dt, v) d/dt: its t and s rows vanish.
                w_up = np.einsum("ax,xbcd->abcd", pack.g_inv, pack.weyl)
                full = w_up[:, 0, 0, :]
                assert np.max(np.abs(full[:2, :])) < 1e-10 * max(1.0, norm_A)

    def test_tidal_operator_linear_in_A(self):
        space = PseudoEuclideanSpace(np.eye(2))
        f = PolynomialProfile([0.0, 1.0])
        A = np.diag([1.0, -1.0])
        pt = ChartPoint(0.9, 0.2, np.array([0.3, 0.8]))
        one_model = ModelManifold.ecs(space, A, f)
        two_model = ModelManifold.ecs(space, 2 * A, f)
        one = weyl_tidal_operator(one_model, pt, curvature_at(one_model, pt))
        two = weyl_tidal_operator(two_model, pt, curvature_at(two_model, pt))
        assert np.allclose(two, 2 * one, atol=1e-12)

    def test_tidal_operator_zero_for_zero_A(self):
        model = ModelManifold(PseudoEuclideanSpace(np.eye(2)),
                              np.zeros((2, 2)),
                              PolynomialProfile([0.0, 1.0]),
                              (-np.inf, np.inf))
        pt = ChartPoint(0.9, 0.2, np.array([0.3, 0.8]))
        pack = curvature_at(model, pt)
        assert np.max(np.abs(weyl_tidal_operator(model, pt, pack))) < 1e-14

    def test_distinguished_null_direction(self, roster):
        rng = np.random.default_rng(53)
        for entry in roster:
            pt = random_chart_point(entry.model, rng)
            res = olszak_span_check(curvature_at(entry.model, pt))
            assert res["null_residual"] == 0.0
            assert res["parallel_residual"] == 0.0
            assert res["dt_residual"] == 0.0

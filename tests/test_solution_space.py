"""Solution space E: flow accuracy against closed forms, the symplectic
pairing, and the Heisenberg group built on it.

The closed-form oracles are hand-checked solutions of u'' = f u + A u:

  * f = 2/t^2, A = 0:        u = a t^2 + b / t componentwise
  * f = 0, A = upper shift:  cubic polynomials (u2 linear drives u1)
  * f = 2/t^2, A = shift:    u = t^2 e2 + (t^4 / 10) e1
  * f = -0.16/t^2, A = shift with u2 = 0:  u = t^0.8 e1
"""

from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import OdeSolution
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.linalg import expm

import ecs_lab.solution_space as solution_space
from ecs_lab.homogeneous import HomogeneousModel, generator_matrix
from ecs_lab.isometry_group import (
    IsoElement,
    SElement,
    iso_apply,
    iso_compose,
    iso_identity,
    iso_inverse,
    sigma_matrix,
)
from ecs_lab.model_geometry import (
    HomogeneousProfile,
    ModelManifold,
    PolynomialProfile,
)
from ecs_lab.pseudo_linear import PseudoEuclideanSpace
from ecs_lab.solution_space import (
    ENDPOINT_BARRIER,
    CauchyFlow,
    IntegrationError,
    flow,
    omega,
    omega_drift,
    omega_matrix,
    random_solution,
    solution_at,
    _StepTable,
)


def scalar_model():
    """f = 2/t^2 with A = 0: components decouple into Euler equations."""
    space = PseudoEuclideanSpace(np.eye(2))
    return ModelManifold(space, np.zeros((2, 2)),
                         HomogeneousProfile(1.5), (0.0, float("inf")))


def shift_only_model():
    space = PseudoEuclideanSpace(np.eye(2))
    return ModelManifold(space, np.eye(2, k=1),
                         PolynomialProfile([0.0]), (-50.0, 50.0))


class TestClosedForms:
    def test_euler_growing_branch(self):
        # u(t) = t^2 e1 from data (1, 0; 2, 0) at t0 = 1
        model = scalar_model()
        val, der = solution_at(model, [1.0, 0.0, 2.0, 0.0], 2.0)
        assert np.allclose(val, [4.0, 0.0], atol=1e-10)
        assert np.allclose(der, [4.0, 0.0], atol=1e-10)

    def test_euler_decaying_branch(self):
        # u(t) = t^{-1} e2 from data (0, 1; 0, -1) at t0 = 1
        model = scalar_model()
        val, der = solution_at(model, [0.0, 1.0, 0.0, -1.0], 2.0)
        assert np.allclose(val, [0.0, 0.5], atol=1e-10)
        assert np.allclose(der, [0.0, -0.25], atol=1e-10)

    def test_shift_gives_cubics(self):
        # u2 = t forces u1'' = t, so u1 = t^3/6 from zero data
        model = shift_only_model()
        val, der = solution_at(model, [0.0, 0.0, 0.0, 1.0], 3.0)
        assert np.allclose(val, [4.5, 3.0], atol=1e-9)
        assert np.allclose(der, [4.5, 1.0], atol=1e-9)

    def test_coupled_homogeneous(self):
        # c = 3/2: u = t^2 e2 + (t^4/10) e1 solves the full coupled system
        hm = HomogeneousModel.standard(2, 1.5)
        val, der = solution_at(hm.model, [0.1, 1.0, 0.4, 2.0], 2.0)
        assert np.allclose(val, [1.6, 4.0], atol=1e-9)
        assert np.allclose(der, [3.2, 4.0], atol=1e-9)

    def test_power_law_branch(self):
        # c = 0.3: u = t^0.8 e1 (the e1 line is A-invariant trivially)
        hm = HomogeneousModel.standard(2, 0.3)
        val, der = solution_at(hm.model, [1.0, 0.0, 0.8, 0.0], 4.0)
        assert abs(val[0] - 4.0 ** 0.8) < 1e-10
        assert abs(val[1]) < 1e-12
        assert abs(der[0] - 0.8 * 4.0 ** (-0.2)) < 1e-10

    def test_backward_propagation(self):
        model = scalar_model()
        val, der = solution_at(model, [1.0, 0.0, 2.0, 0.0], 0.5)
        assert np.allclose(val, [0.25, 0.0], atol=1e-10)
        assert np.allclose(der, [1.0, 0.0], atol=1e-10)


class TestFlow:
    def test_cached_per_model_and_base(self, roster):
        model = roster[1].model
        assert flow(model) is flow(model)

    def test_identity_at_base(self, roster):
        model = roster[1].model
        assert np.array_equal(flow(model).matrix(1.0), np.eye(4))

    def test_one_flow_serves_every_lookup(self, monkeypatch):
        # solution_at, sigma_matrix and iso_apply all look up the one flow
        # that a model builds, at its base time, on first use. Every lookup,
        # a scalar matrix(t) included, is a matrices call.
        built, used = [], []
        init, matrices = CauchyFlow.__init__, CauchyFlow.matrices

        def counting_init(self, model):
            built.append(self)
            init(self, model)

        def recording_matrices(self, ts):
            used.append(self)
            return matrices(self, ts)

        monkeypatch.setattr(CauchyFlow, "__init__", counting_init)
        monkeypatch.setattr(CauchyFlow, "matrices", recording_matrices)
        hm = HomogeneousModel.standard(2, 0.3)     # a fresh model, no flow yet
        model = hm.model
        rng = np.random.default_rng(13)
        g = IsoElement(hm.dilation(1.7), 0.5, random_solution(model, rng))
        x = np.array([[0.4, 0.1, 0.2, -0.3], [3.0, -0.5, 0.1, 0.6]])
        for lookup in (lambda: solution_at(model, g.u, 2.0),
                       lambda: sigma_matrix(model, hm.dilation(0.6)),
                       lambda: iso_apply(model, g, x)):
            before = len(used)
            lookup()
            assert len(used) > before
        assert built == [flow(model)]
        assert all(fl is built[0] for fl in used)
        assert built[0].base_t == model.default_base_t() == 1.0

    def test_flow_is_symplectic(self, roster):
        # Phi^T J Phi = J is the matrix form of Omega conservation
        for entry in roster[:4]:
            model = entry.model
            J = omega_matrix(model)
            lo, hi = model.compact_window()
            for t in (lo, hi):
                M = flow(model).matrix(t)
                assert np.max(np.abs(M.T @ J @ M - J)) < 1e-9

    @pytest.mark.parametrize("make,window,pairs", [
        (lambda: HomogeneousModel.standard(3, 1.5).model, (0.3, 4.0), 30),
        (lambda: ModelManifold.ecs(               # n5-poly, base 0 in (-2, 2)
            PseudoEuclideanSpace(np.diag([1.0, 1.0, -1.0])),
            np.diag([1.0, 2.0, -3.0]),
            PolynomialProfile([0.0, 2.0, 0.0, 1.0 / 6.0])), (-2.0, 2.0), 10),
    ], ids=["n5-homog", "n5-poly"])
    def test_lookup_ignores_query_history(self, make, window, pairs):
        # matrix(b) must not depend on an earlier query at another time a
        rng = np.random.default_rng(11)
        for _ in range(pairs):
            a, b = rng.uniform(*window, size=2)
            fresh, used = make(), make()
            flow(used).matrix(a)
            assert np.array_equal(flow(fresh).matrix(b), flow(used).matrix(b))

    def test_segments_chain_from_base(self):
        # Only the first segment of each direction starts at the base time:
        # each step starts where the step before it ends, across segment
        # ends too, and each later segment starts from the state at the end
        # of the segment before it.
        model = HomogeneousModel.standard(3, 1.5).model
        fl = flow(model)
        for sign, far in ((1.0, 4.0), (-1.0, 0.3)):
            steps, ends = fl._steps[sign], fl._ends[sign]
            tips = []
            while not ends or sign * far > ends[-1]:
                fl.matrix(fl._edge(sign, len(ends)))     # one more segment
                tips.append(steps.tip.copy())
            assert len(ends) >= 2
            assert steps.t_old[0] == 1.0
            assert np.array_equal(steps.t_old[1:], sign * steps.keys[:-1])
            assert steps.keys[-1] == ends[-1]
            for end, tip in zip(ends, tips):
                first = np.searchsorted(steps.keys, end) + 1
                if first < len(steps.keys):
                    assert np.array_equal(steps.y_old[first], tip)

    @pytest.mark.parametrize("m,c", [(2, 0.3), (3, 1.5), (5, 0.25), (3, 0.7j)])
    def test_matches_dilation_closed_form(self, m, c):
        # sigma_q = diag(C_q, C_q / q) Phi(1/q <- 1) = expm(log q B) on a
        # homogeneous model, so with q = 1/t and C_{1/t}^{-1} = C_t:
        # Phi(t <- 1) = diag(C_t, C_t / t) expm(-log t B), B in closed form.
        hm = HomogeneousModel.standard(m, c)
        B = generator_matrix(hm)
        zero = np.zeros((m, m))
        for t in (0.05, 0.2, 0.5, 0.9, 1.3, 3.0, 7.0, 20.0):
            C = hm.dilation(t).C
            exact = np.block([[C, zero], [zero, C / t]]) @ expm(-np.log(t) * B)
            got = flow(hm.model).matrix(t)
            assert np.max(np.abs(got - exact)) < 1e-9 * np.max(np.abs(exact))

    def test_segment_over_evaluation_budget_fails(self, monkeypatch):
        # A segment that exceeds the evaluation budget raises and is not
        # kept. The flow remembers it: a later lookup past it raises the same
        # error at once, without integrating, while the other direction
        # answers as a fresh flow does.
        model = scalar_model()
        fresh = flow(scalar_model())
        monkeypatch.setattr(solution_space, "_MAX_EVALS", 20)
        with pytest.raises(IntegrationError, match="evaluations in one segment"):
            flow(model).matrix(1.7)
        assert flow(model)._ends[1.0] == []
        assert len(flow(model)._steps[1.0].keys) == 0
        monkeypatch.undo()
        calls = []
        real = solution_space.solve_ivp

        def recorder(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(solution_space, "solve_ivp", recorder)
        with pytest.raises(IntegrationError, match="evaluations in one segment"):
            flow(model).matrix(3.0)
        assert calls == []
        assert np.array_equal(flow(model).matrix(0.7), fresh.matrix(0.7))

    def test_batch_fails_as_its_first_failing_time(self, monkeypatch):
        # 0.7 is looked up before the budget shrinks; the forward segment to
        # 1.7 then overruns it, and 1e-12 lies within the barrier at 0. A
        # batch raises what its first failing time raises alone, whatever
        # comes after it.
        model = scalar_model()
        u = [1.0, 0.0, 0.0, 0.0]
        solution_at(model, u, 0.7)
        monkeypatch.setattr(solution_space, "_MAX_EVALS", 20)
        for ts in ([1.7, 1e-12], [0.7, 1.7, 1e-12]):
            with pytest.raises(IntegrationError, match="evaluations in one segment"):
                solution_at(model, u, ts)
        for ts in ([1e-12, 1.7], [0.7, 1e-12, 1.7]):
            with pytest.raises(ValueError, match="barrier"):
                solution_at(model, u, ts)
        with pytest.raises(ValueError, match="outside"):
            flow(model).matrices([0.7, -1.0, 1.7])

    def test_barrier_refuses_endpoint(self, roster):
        model = roster[1].model           # interval (0, inf)
        u = [1.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            solution_at(model, u, 1e-12)
        with pytest.raises(ValueError):
            solution_at(model, u, -1.0)


class TestFlowLookupMatchesScipy:
    """Lookups against SciPy's own dense output: every segment the flow
    integrated, integrated again by SciPy's solve_ivp with
    dense_output=True and chained from the end states of its OdeResults,
    and their OdeSolutions read with the segment rule of the lookup (a time
    on a segment end reads the segment that ends there, a time past the
    last end the last segment). Every entry must be equal, not close."""

    @staticmethod
    def reference(fl: CauchyFlow, sign: float):
        ref = CauchyFlow(fl.model)
        y0, start, sols = np.eye(2 * fl.m).ravel(), fl.base_t, []
        for k in range(len(fl._ends[sign])):
            stop = fl._edge(sign, k)
            sol = scipy_solve_ivp(
                ref._rhs, (start, stop), y0, method="DOP853",
                rtol=solution_space._RTOL, atol=solution_space._ATOL,
                dense_output=True)
            sols.append(sol.sol)
            y0, start = sol.y[:, -1], stop
        return sols

    @staticmethod
    def read(sols, ends, sign, t):
        return sols[min(bisect_left(ends, sign * t), len(ends) - 1)](t)

    @pytest.mark.parametrize("index", range(6), ids=lambda i: f"roster{i}")
    def test_every_lookup_is_bit_identical(self, roster, index):
        model = roster[index].model
        fl = CauchyFlow(model)              # not the model's shared flow
        n = 2 * fl.m
        lo, hi = model.interval
        # Times in both directions over three or more segments, and the time
        # at the barrier of a finite end (the last segment there ends on it).
        rng = np.random.default_rng(40 + index)
        a, b = (0.1, 10.0) if lo == 0.0 else (-6.0, 6.0)
        ts = list(rng.uniform(a, b, size=40)) + [fl.base_t]
        if np.isfinite(lo):
            ts.append(lo + ENDPOINT_BARRIER)
        fl.matrices(ts)
        for sign in (1.0, -1.0):
            ends, steps = fl._ends[sign], fl._steps[sign]
            assert len(ends) >= 3
            ts += list(sign * steps.keys) + [sign * e for e in ends]
        ts = np.array(ts)
        refs = {sign: (self.reference(fl, sign), fl._ends[sign])
                for sign in (1.0, -1.0)}
        signs = np.sign(ts - fl.base_t)
        expected = [np.eye(n) if sign == 0.0 else
                    self.read(*refs[sign], sign, t).reshape(n, n)
                    for t, sign in zip(ts, signs)]
        got = fl.matrices(ts)
        for t, want, batched in zip(ts, expected, got):
            assert np.array_equal(fl.matrix(t), want)
            assert np.array_equal(batched, want)
        # Past the last end a time reads the last step, as SciPy reads it.
        for sign in (1.0, -1.0):
            sols, ends = refs[sign]
            t = sign * (ends[-1] + 1e-3)
            assert np.array_equal(fl._steps[sign](np.array([t]))[0],
                                  self.read(sols, ends, sign, t))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
    def test_step_choice_matches_ode_solution(self, sign):
        # On the roster's flows a step's interpolant at its end equals the
        # next step's at its start, so the step a time on an end reads does
        # not show. Here random interpolants disagree at their shared ends, in
        # two segments of three steps, read by OdeSolution with the segment
        # rule.
        rng = np.random.default_rng(44)
        ts = 1.0 + sign * np.cumsum(np.r_[0.0, rng.uniform(0.1, 0.5, 6)])
        steps = [Dop853DenseOutput(a, b, rng.standard_normal(4),
                                   rng.standard_normal((7, 4)))
                 for a, b in zip(ts, ts[1:])]
        table = _StepTable(sign, np.zeros(4))
        for part in (steps[:3], steps[3:]):
            table.append(SimpleNamespace(
                t=np.array([step.t for step in part]),
                t_old=np.array([step.t_old for step in part]),
                h=np.array([step.h for step in part]),
                y_old=np.array([step.y_old for step in part]),
                terms=np.array([step.F for step in part]),
                y_end=rng.standard_normal(4)))
        sols = [OdeSolution(ts[:4], steps[:3]), OdeSolution(ts[3:], steps[3:])]
        ends = [sign * ts[3], sign * ts[6]]
        inside = ts[0] + sign * rng.uniform(0.0, abs(ts[-1] - ts[0]), 10)
        times = np.concatenate([ts[1:], inside, [ts[-1] + sign * 0.3]])
        expected = [self.read(sols, ends, sign, t) for t in times]
        assert np.array_equal(table(times), expected)


class TestOmega:
    def test_matrix_blocks(self, roster):
        for entry in roster:
            model = entry.model
            m = model.m
            gram = model.space.gram
            J = omega_matrix(model)
            assert np.array_equal(J[:m, m:], -gram)
            assert np.array_equal(J[m:, :m], gram)
            assert np.array_equal(J[:m, :m], np.zeros((m, m)))
            assert abs(np.linalg.det(J) - np.linalg.det(gram) ** 2) < 1e-10

    def test_matches_pairing_on_basis(self, roster):
        model = roster[2].model
        bas = np.eye(2 * model.m)
        J = omega_matrix(model)
        for i, u in enumerate(bas):
            for j, w in enumerate(bas):
                assert omega(model, u, w) == pytest.approx(J[i, j], abs=1e-14)

    def test_antisymmetry_and_bilinearity(self, roster):
        rng = np.random.default_rng(11)
        model = roster[4].model
        u = random_solution(model, rng)
        w = random_solution(model, rng)
        x = random_solution(model, rng)
        assert omega(model, u, w) == pytest.approx(-omega(model, w, u), abs=1e-13)
        assert omega(model, u, u) == pytest.approx(0.0, abs=1e-13)
        lhs = omega(model, u + 2.5 * w, x)
        rhs = omega(model, u, x) + 2.5 * omega(model, w, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_conserved_along_t(self, roster):
        rng = np.random.default_rng(12)
        for entry in roster:
            model = entry.model
            u = random_solution(model, rng)
            w = random_solution(model, rng)
            lo, hi = model.compact_window()
            ts = np.linspace(lo, hi, 9)
            assert omega_drift(model, u, w, ts) < 1e-9

    def test_drift_matches_pointwise_pairing(self, roster):
        # The batched drift against the pairing taken one time at a time;
        # the sums may round in another order, so the two agree to a few
        # ulps of the largest term.
        rng = np.random.default_rng(14)
        for entry in roster:
            model = entry.model
            gram = model.space.gram
            u = random_solution(model, rng)
            w = random_solution(model, rng)
            lo, hi = model.compact_window()
            ts = np.linspace(lo, hi, 9)
            base = omega(model, u, w)
            worst, scale = 0.0, 0.0
            for t in ts:
                uv, ud = solution_at(model, u, t)
                wv, wd = solution_at(model, w, t)
                terms = (ud @ gram @ wv, uv @ gram @ wd)
                worst = max(worst, abs(terms[0] - terms[1] - base))
                scale = max(scale, *map(abs, terms))
            drift = omega_drift(model, u, w, iter(ts))
            assert abs(drift - worst) <= 8 * np.finfo(float).eps * scale
            assert omega_drift(model, u, w, []) == 0.0


class TestHeisenberg:
    """The factor R x E as the isometries with sigma = id, under the full
    group law."""

    def element(self, model, r, u):
        return IsoElement(SElement(1.0, 0.0, np.eye(model.m)), r, u)

    def sample(self, model, rng):
        return self.element(model, float(rng.standard_normal()),
                            random_solution(model, rng))

    def test_identity_and_inverse(self, roster):
        rng = np.random.default_rng(21)
        model = roster[0].model
        e = iso_identity(model)
        a = self.sample(model, rng)
        left = iso_compose(model, iso_inverse(model, a), a)
        right = iso_compose(model, a, iso_inverse(model, a))
        for prod in (left, right):
            assert abs(prod.r) < 1e-12
            assert np.max(np.abs(prod.u)) < 1e-12
        ae = iso_compose(model, a, e)
        assert ae.r == pytest.approx(a.r, abs=1e-14)
        assert np.array_equal(ae.u, a.u)

    def test_associativity(self, roster):
        rng = np.random.default_rng(22)
        model = roster[3].model
        for _ in range(20):
            a, b, c = (self.sample(model, rng) for _ in range(3))
            lhs = iso_compose(model, iso_compose(model, a, b), c)
            rhs = iso_compose(model, a, iso_compose(model, b, c))
            assert abs(lhs.r - rhs.r) < 1e-11
            assert np.max(np.abs(lhs.u - rhs.u)) < 1e-12

    def test_commutator_is_central(self, roster):
        rng = np.random.default_rng(23)
        model = roster[1].model
        for _ in range(10):
            a, b = self.sample(model, rng), self.sample(model, rng)
            com = iso_compose(model, iso_compose(model, a, b),
                              iso_compose(model, iso_inverse(model, a),
                                          iso_inverse(model, b)))
            assert np.max(np.abs(com.u)) < 1e-12
            assert com.r == pytest.approx(-2.0 * omega(model, a.u, b.u), abs=1e-11)

    def test_noncommutative(self, roster):
        model = roster[0].model
        eye = np.eye(2 * model.m)
        a = self.element(model, 0.0, eye[0])
        b = self.element(model, 0.0, eye[model.m])
        ab = iso_compose(model, a, b)
        ba = iso_compose(model, b, a)
        assert abs(ab.r - ba.r) > 0.5


class TestSolutionArithmetic:
    def test_linear_combinations_propagate_linearly(self, roster):
        model = roster[0].model
        rng = np.random.default_rng(32)
        u = random_solution(model, rng)
        w = random_solution(model, rng)
        t = model.compact_window()[1]
        val, der = solution_at(model, 2.0 * u - w, t)
        uv, ud = solution_at(model, u, t)
        wv, wd = solution_at(model, w, t)
        assert np.allclose(val, 2.0 * uv - wv, atol=1e-10)
        assert np.allclose(der, 2.0 * ud - wd, atol=1e-10)

    def test_wrong_dimension_rejected(self, roster):
        model = roster[0].model                     # m = 2: data of size 4
        short = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            solution_at(model, short, 1.5)
        sigma = SElement(1.0, 0.0, np.eye(model.m))
        good, bad = IsoElement(sigma, 0.0, np.zeros(4)), IsoElement(sigma, 0.0, short)
        for a, b in ((good, bad), (bad, good)):
            with pytest.raises(ValueError):
                iso_compose(model, a, b)

    def test_at_stacks_single_lookups(self, roster):
        # An array of times gives, bit for bit, what each time gives alone:
        # a (3, 4) grid in the compact window, and 20-point sets that span
        # several segments in both directions.
        rng = np.random.default_rng(33)
        for entry in (roster[0], roster[3]):
            model = entry.model
            u = random_solution(model, rng)
            lo, hi = model.compact_window()
            a, b = (0.1, 10.0) if model.interval[0] == 0.0 else (-6.0, 6.0)
            for ts in (rng.uniform(lo, hi, size=(3, 4)), rng.uniform(a, b, size=(4, 20))):
                vals, ders = solution_at(model, u, ts)
                assert vals.shape == ders.shape == ts.shape + (model.m,)
                for idx in np.ndindex(ts.shape):
                    val, der = solution_at(model, u, ts[idx])
                    assert val.shape == (model.m,)
                    assert np.array_equal(vals[idx], val)
                    assert np.array_equal(ders[idx], der)

"""Geodesics and transport: the closed-form Christoffel symbols against the
metric-jet pipeline, the integrator policy, the package's DOP853 against
SciPy's bit for bit (step tables and their lookups), conservation laws,
leaf flatness, boundary behavior on (0, inf) and on a bounded interval,
plunges against the exact dilation flow and the solution flow, deviation
fields with geodesic endpoint curves, and the straightening of transverse
null geodesics by a Heisenberg isometry."""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.linalg import expm

import ecs_lab.geodesics as geodesics
import ecs_lab.solution_space as solution_space
from ecs_lab.cli import main
from ecs_lab.geodesics import (
    GeodesicResult,
    PolyCurve,
    affine_defect_residual,
    affine_transport_residual,
    christoffel_closed_form,
    energy_report,
    geodesic,
    geodesic_closed_form,
    straightened_axis_residual,
    t_affinity_report,
    terminal_curve_residual,
    variation_field,
)
from ecs_lab.homogeneous import HomogeneousModel, generator_matrix
from ecs_lab.isometry_group import (
    iso_apply,
    iso_distance,
    iso_identity,
    pullback_residual,
    straightening_element,
)
from ecs_lab.model_geometry import (
    ChartPoint,
    ModelManifold,
    PolynomialProfile,
    curvature_at,
    random_chart_point,
)
from ecs_lab.pseudo_linear import PseudoEuclideanSpace
from ecs_lab.solution_space import (
    ENDPOINT_BARRIER,
    CauchyFlow,
    IntegrationError,
    _StepTable,
    solution_at,
)


def random_velocity(model, rng, transverse=True):
    vel = rng.standard_normal(model.dim)
    if transverse and abs(vel[0]) < 0.2:
        vel[0] = 0.2 * np.sign(vel[0] or 1.0)
    return vel


class TestChristoffelClosedForm:
    def test_matches_metric_jet_pipeline(self, roster):
        # two independent routes to the same symbols: the closed form and
        # the generic pipeline from metric derivatives
        rng = np.random.default_rng(101)
        for entry in roster:
            model = entry.model
            for _ in range(20):
                pt = random_chart_point(model, rng)
                closed = christoffel_closed_form(model, pt.t, pt.v)
                jet = curvature_at(model, pt).christoffel
                assert np.max(np.abs(closed - jet)) <= 1e-12 * np.max(np.abs(closed))


class TestIntegratorPolicy:
    """Every integration goes through the package's one DOP853, bound by
    name in both modules, and returns its step table. Geodesic and
    transport runs call `geodesics.solve_ivp` at rtol = atol = 1e-12; flow
    segments call `solution_space.solve_ivp` at rtol = atol = 1e-13. Each
    is handed the right-hand side itself, whose qualified name the
    benchmark tracer classifies. A variation field integrates no geodesic:
    it reads the flow."""

    def test_every_integration_uses_the_policy(self, monkeypatch):
        assert geodesics.solve_ivp is solution_space.solve_ivp
        assert solution_space.solve_ivp.__module__ == "ecs_lab.solution_space"
        calls = {geodesics: [], solution_space: []}
        for mod, log in calls.items():
            def recorder(fun, t_span, y0, real=mod.solve_ivp, log=log, **kwargs):
                log.append((fun.__qualname__, t_span, kwargs))
                return real(fun, t_span, y0, **kwargs)

            monkeypatch.setattr(mod, "solve_ivp", recorder)
        model = HomogeneousModel.standard(2, 0.3).model     # a fresh flow on (0, inf)
        m = model.m
        pt = ChartPoint(1.0, 0.2, np.array([0.3, -0.4]))
        regular = geodesic(model, pt, np.array([0.5, 0.1, 0.2, -0.3]), (0.0, 1.0))
        plunge = geodesic(model, pt, np.array([-1.0, 0.1, 0.2, -0.3]), (0.0, 2.0))
        assert not regular.hit_boundary and plunge.hit_boundary
        variation_field(model, PolyCurve([0.1, 0.2], 0.1 * np.ones((m, 2))),
                        (0.1, np.full(m, 0.1)), (0.0, np.zeros(m)), (0.5, 2.0))
        start, vdot0 = ChartPoint(1.0, 0.0, np.full(m, 0.2)), np.full(m, -0.1)
        straightened_axis_residual(model, straightening_element(model, start, vdot0),
                                   start, vdot0, (0.5, 2.0))
        affine_transport_residual(model, leaf_circle(model, t0=1.0),
                                  np.array([1.0, 0.5, -0.3, 0.8]))

        runs = calls[geodesics]
        assert len(runs) == 5
        for _, _, kwargs in runs:
            assert kwargs == {"rtol": 1e-12, "atol": 1e-12}
        # the spans: tau on a regular run, x = log t on a plunge into t = 0
        assert runs[0][1] == (0.0, 1.0)
        assert runs[1][1] == (np.log(pt.t), np.log(ENDPOINT_BARRIER))
        assert runs[4][1] == (0.0, 1.5)
        segments = calls[solution_space]
        assert segments
        for name, _, kwargs in segments:
            assert name == "CauchyFlow._rhs"
            assert kwargs == {"rtol": 1e-13, "atol": 1e-13}

        path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("ecs_lab_bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        kinds = [tracer.RHS_KINDS.get(name) for name, _, _ in runs[:4]]
        assert kinds == ["geodesic"] * 4


    def test_nan_start_state_ends_the_run(self):
        # The right-hand side at this start is [1, 0, 0.1, 0.1, 0.1, 0, nan,
        # inf, inf, inf], so the first step size is NaN. The run must end with
        # status -1 instead of retrying a NaN step without end.
        with np.errstate(all="ignore"):
            model = ModelManifold.ecs(PseudoEuclideanSpace(np.diag([1.0, 1.0, -1.0])),
                                      np.diag([1.0, 2.0, -3.0]),
                                      PolynomialProfile([0, 1e300, 0, 1e300]))
            start = time.perf_counter()
            with pytest.raises(IntegrationError, match="Step size is NaN"):
                geodesic(model, ChartPoint(1e3, 0.0, np.zeros(3)),
                         np.array([1.0, 0.0, 0.1, 0.1, 0.1]), (0.0, 1.0))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("kind", ["flow", "regular", "plunge", "transport"])
    def test_every_kind_of_run_is_bounded(self, roster, monkeypatch, kind):
        # The stepper owns the one evaluation budget, so a run of any kind
        # that needs more than it ends in IntegrationError, named by its
        # kind, instead of running on. The budget is checked once per step
        # attempt, so a run may end up to 15 evaluations past it: transport
        # on the homogeneous model takes 62 and completes, and the transport
        # run is test_transport's, which takes 167.
        model = HomogeneousModel.standard(2, 0.3).model     # a fresh flow
        poly = roster[2].model
        pt = ChartPoint(1.0, 0.2, np.array([0.3, -0.4]))
        runs = {
            "flow": lambda: solution_at(model, np.ones(4), 3.0),
            "regular": lambda: geodesic(model, pt, np.array([0.5, 0.1, 0.2, -0.3]),
                                        (0.0, 1.0)),
            "plunge": lambda: geodesic(model, pt, np.array([-1.0, 0.1, 0.2, -0.3]),
                                       (0.0, 2.0)),
            "transport": lambda: affine_transport_residual(
                poly, leaf_circle(poly, t0=0.5 * sum(poly.compact_window())),
                np.array([1.0, 0.5, -0.3, 0.8, 0.2])),
        }
        what = "geodesic" if kind in ("regular", "plunge") else kind
        monkeypatch.setattr(solution_space, "_MAX_EVALS", 50)
        with pytest.raises(IntegrationError,
                           match=f"^{what} integration failed: .* 50 evaluations"):
            runs[kind]()

    def test_budget_fails_the_geodesic_rows(self, tmp_path, monkeypatch):
        # Through the CLI, geodesic runs over the budget fail their rows
        # with NaN and the run exits 1.
        scenarios = Path(__file__).resolve().parent.parent / "scenarios"
        payload = json.loads((scenarios / "homogeneous_m2.json").read_text())
        payload["tasks"] = [task for task in payload["tasks"]
                            if task["task"] == "geodesic"]
        scenario, report = tmp_path / "scenario.json", tmp_path / "report.json"
        scenario.write_text(json.dumps(payload))
        monkeypatch.setattr(solution_space, "_MAX_EVALS", 50)
        assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 1
        rows = json.loads(report.read_text())["checks"]
        assert rows
        assert all(row["value"] == "nan" and not row["pass"] for row in rows)


class TestStepperMatchesScipy:
    """The package's DOP853 (`solution_space.solve_ivp`) repeats SciPy's
    operation for operation: every step's row holds the bits of SciPy's
    Dop853DenseOutput of that step, and nfev, status, message and end state
    are SciPy's. A `_StepTable` lookup of a run has the bits of SciPy's
    dense output at the same times."""

    @staticmethod
    def assert_rows_match_scipy(fun, t_span, y0, *, rtol, atol):
        """The rows of one run against SciPy's `sol.sol.interpolants`;
        returns SciPy's result. On an empty span SciPy holds one constant
        interpolant, which is no step, and the run has no row."""
        ours = solution_space.solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol)
        sol = scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                              dense_output=True)
        steps = [step for step in sol.sol.interpolants if hasattr(step, "F")]
        n = len(y0)
        assert (ours.nfev, ours.status, ours.success, ours.message) == \
            (sol.nfev, sol.status, sol.success, sol.message)
        for name in ("t_old", "t", "h"):
            assert np.array_equal(getattr(ours, name),
                                  np.array([getattr(step, name) for step in steps]))
        assert np.array_equal(ours.y_old,
                              np.reshape([step.y_old for step in steps], (-1, n)))
        assert np.array_equal(ours.terms,
                              np.reshape([step.F for step in steps], (-1, 7, n)))
        assert np.array_equal(ours.y_end, sol.y[:, -1])
        return sol

    @staticmethod
    def rejected_attempts(sol) -> int:
        """Step attempts SciPy rejected in a run. Two evaluations choose the
        first step, each attempt takes 12 and each accepted step 3 more for
        its interpolant."""
        steps = len(sol.sol.interpolants)
        attempts, extra = divmod(sol.nfev - 2 - 3 * steps, 12)
        assert extra == 0
        return attempts - steps

    def test_table_rows_on_every_roster_flow(self, roster, monkeypatch):
        # Every segment a flow integrates, in both directions, down to the
        # barrier at t = 0 on the homogeneous models, where steps are
        # rejected.
        segments = []
        real = solution_space.solve_ivp

        def recorder(fun, t_span, y0, **kwargs):
            segments.append((fun, t_span, y0.copy(), kwargs))
            return real(fun, t_span, y0, **kwargs)

        monkeypatch.setattr(solution_space, "solve_ivp", recorder)
        for entry in roster:
            fl = CauchyFlow(entry.model)
            lo = entry.model.interval[0]
            fl.matrices([lo + ENDPOINT_BARRIER, 10.0] if lo == 0.0 else [-6.0, 6.0])
        monkeypatch.undo()
        assert len(segments) > 6 * 6
        rejected = 0
        for fun, t_span, y0, kwargs in segments:
            sol = self.assert_rows_match_scipy(fun, t_span, y0, **kwargs)
            rejected += self.rejected_attempts(sol)
        assert rejected > 0

    def test_table_rows_with_rejected_steps_until_underflow(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1: steps are rejected
        # until the step size underflows, and the rows of the steps taken
        # are still SciPy's.
        def rhs(t, y):
            return y * y

        sol = self.assert_rows_match_scipy(rhs, (0.0, 2.0), np.ones(1),
                                           rtol=1e-12, atol=1e-12)
        assert self.rejected_attempts(sol) > 0

    def assert_runs_match_scipy(self, monkeypatch, run):
        """Every integration that run() makes through `geodesics.solve_ivp`:
        its rows are SciPy's, and its one lookup has the bits of SciPy's
        dense output at the same times."""
        runs, lookups = [], []
        real = geodesics.solve_ivp

        def recorder(fun, t_span, y0, **kwargs):
            runs.append((fun, t_span, y0, kwargs))
            return real(fun, t_span, y0, **kwargs)

        class RecordedTable(_StepTable):
            def __call__(self, t):
                out = super().__call__(t)
                lookups.append((t, out))
                return out

        with monkeypatch.context() as mp:
            mp.setattr(geodesics, "solve_ivp", recorder)
            mp.setattr(geodesics, "_StepTable", RecordedTable)
            run()
        assert len(runs) == len(lookups) > 0
        for (fun, t_span, y0, kwargs), (t, out) in zip(runs, lookups):
            sol = self.assert_rows_match_scipy(fun, t_span, y0, **kwargs)
            assert np.array_equal(out, sol.sol(t).T)

    def test_regular_runs(self, roster, monkeypatch):
        rng = np.random.default_rng(197)
        for entry in roster:
            model = entry.model
            for tau in [1.0] * 10 + [-1.0] * 10:
                pt = random_chart_point(model, rng)
                vel = random_velocity(model, rng)
                if entry.kind == "homogeneous":
                    vel[0] = np.sign(tau) * abs(vel[0])     # away from t = 0
                self.assert_runs_match_scipy(monkeypatch, lambda: geodesic(
                    model, pt, vel, (0.0, tau), samples=17))

    def test_plunges(self, roster, monkeypatch):
        rng = np.random.default_rng(199)
        for entry in roster:
            if entry.kind != "homogeneous":
                continue
            for tau in (1e4, -1e4):
                pt = random_chart_point(entry.model, rng)
                vel = random_velocity(entry.model, rng)
                vel[0] = -np.sign(tau) * abs(vel[0])
                self.assert_runs_match_scipy(monkeypatch, lambda: geodesic(
                    entry.model, pt, vel, (0.0, tau), samples=65))

    @pytest.mark.parametrize("dt0,tau_end", [(0.8, 5.0), (0.7, -5.0)])
    def test_walls(self, monkeypatch, dt0, tau_end):
        model = bounded_model()
        pt = ChartPoint(0.5, 0.3, np.array([0.4, -0.6]))
        vel = np.array([dt0, -0.2, 0.5, 0.3])
        self.assert_runs_match_scipy(monkeypatch, lambda: geodesic(
            model, pt, vel, (0.0, tau_end), samples=65))

    def test_transport(self, roster, monkeypatch):
        model = roster[2].model
        curve = leaf_circle(model, t0=0.5 * sum(model.compact_window()))
        self.assert_runs_match_scipy(monkeypatch, lambda: affine_transport_residual(
            model, curve, np.array([1.0, 0.5, -0.3, 0.8, 0.2])))

    def test_empty_span(self, roster, monkeypatch):
        # no step: the run has no row, and every sample is the initial state
        model = roster[0].model
        pt = ChartPoint(0.5, 0.3, np.array([0.4, -0.6]))
        vel = np.array([0.8, -0.2, 0.5, 0.3])
        self.assert_runs_match_scipy(monkeypatch, lambda: geodesic(
            model, pt, vel, (0.0, 0.0), samples=5))

    @pytest.mark.parametrize("tau", [1.5, -1.5])
    def test_step_end_and_past_the_end(self, roster, tau):
        # Unsorted lookups of one run: a sample on a step end reads the step
        # that ends there (the two steps meet there to the bit on these
        # runs), and one a ulp past the span end reads the last step.
        model = roster[3].model
        rhs = geodesics._geodesic_rhs(model)
        y0 = np.array([1.0, 0.2, 0.1, -0.3, 0.4, 0.5, 0.1, 0.2, -0.3, 0.1])
        span = (0.0, tau)
        sol = self.assert_rows_match_scipy(rhs, span, y0, rtol=1e-12, atol=1e-12)
        assert sol.success and sol.t.size > 6
        past = np.nextafter(tau, np.sign(tau) * np.inf)
        samples = np.array([sol.t[3], 0.0, 0.3 * tau, past, sol.t[-2], tau])
        table = _StepTable(np.sign(tau), y0)
        table.append(geodesics.solve_ivp(rhs, span, y0, rtol=1e-12, atol=1e-12))
        assert np.array_equal(table(samples), sol.sol(samples).T)

    @pytest.mark.parametrize("convert", [lambda f: f.tolist(),
                                         lambda f: f.astype(np.float32)],
                             ids=["list", "float32"])
    def test_any_sequence_of_numbers(self, convert):
        # The stepper writes each stage into a float row, as SciPy converts
        # what the right-hand side returns: a Python list or a float32
        # array gives SciPy's rows.
        def rhs(t, y):
            return convert(np.array([y[1], np.cos(t) - y[0]]))

        sol = self.assert_rows_match_scipy(rhs, (0.0, 5.0), np.array([1.0, 0.3]),
                                           rtol=1e-6, atol=1e-6)
        assert sol.success and sol.t.size > 5

    def test_step_size_underflow_fails_as_scipy_does(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1
        def rhs(t, y):
            return y * y

        ours = geodesics.solve_ivp(rhs, (0.0, 2.0), np.ones(1), rtol=1e-12,
                                   atol=1e-12)
        sol = scipy_solve_ivp(rhs, (0.0, 2.0), np.ones(1), method="DOP853",
                              rtol=1e-12, atol=1e-12)
        assert (ours.status, ours.success, ours.message) == \
            (sol.status, sol.success, sol.message) == \
            (-1, False, "Required step size is less than spacing between numbers.")


def reference_geodesic_rhs(model, edge, dt0, y):
    """The geodesic equations of `geodesics._geodesic_rhs` with `@`
    products and one concatenation."""
    m, gram = model.m, model.space.gram
    t, dt = float(y[0]), float(y[2 + m])
    v, dv = y[2:2 + m], y[4 + m:]
    f, f1 = model.profile.value_slope(t)
    fav = f * v + model.A @ v
    dds = -dt * (f1 * float(v @ gram @ v) * dt + 4.0 * float(fav @ gram @ dv))
    out = np.concatenate((y[2 + m:], (0.0, dds), dt * dt * fav))
    if edge is not None:
        out *= (t - edge) / dt0
    return out


class TestGeodesicRhsBits:
    """`_geodesic_rhs` computes its products with `ndarray.dot`, the BLAS
    call that `@` makes, at about half the dispatch cost. Its values keep
    the bits of the `@` form on every roster model, in tau and in x =
    log|t - edge|, at magnitudes 1e-8 to 1e8: a NumPy or BLAS that rounds
    the two forms differently fails here."""

    def test_matches_the_matmul_form(self, roster):
        rng = np.random.default_rng(211)
        for entry in roster:
            model = entry.model
            size = 2 * model.dim
            for edge in (None, 0.0):    # 0.0 is the finite end of (0, inf)
                for _ in range(200):
                    y = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)
                    if entry.kind == "homogeneous":
                        y[0] = abs(y[0])
                    dt0 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, 8)
                    expected = reference_geodesic_rhs(model, edge, dt0, y)
                    assert np.all(np.isfinite(expected))
                    got = geodesics._geodesic_rhs(model, edge, dt0)(rng.uniform(-1, 1), y)
                    assert got.dtype == np.float64
                    assert np.array_equal(got, expected)


class TestGeodesicBasics:
    def test_s_axis_is_geodesic(self, roster):
        model = roster[0].model
        pt = ChartPoint(0.3, -1.0, np.array([0.5, 0.25]))
        vel = np.array([0.0, 1.0, 0.0, 0.0])
        res = geodesic(model, pt, vel, (0.0, 5.0), samples=11)
        assert not res.hit_boundary
        expected_s = pt.s + res.taus
        assert np.max(np.abs(res.states[:, 1] - expected_s)) < 1e-10
        assert np.max(np.abs(res.states[:, 0] - pt.t)) < 1e-12
        assert np.max(np.abs(res.states[:, 2:4] - pt.v)) < 1e-12

    def test_leaves_are_flat_and_complete(self, roster):
        # leafwise geodesics are coordinate lines and run forever
        rng = np.random.default_rng(111)
        for entry in (roster[1], roster[2]):
            model = entry.model
            pt = random_chart_point(model, rng)
            vel = rng.standard_normal(model.dim)
            vel[0] = 0.0
            res = geodesic(model, pt, vel, (0.0, 1e3), samples=9)
            assert not res.hit_boundary
            final = res.states[-1]
            expected = pt.coords() + 1e3 * vel
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(final[: model.dim] - expected)) < 1e-8 * scale
            assert np.max(np.abs(final[model.dim:] - vel)) < 1e-10

    def test_energy_and_t_affinity(self, roster):
        rng = np.random.default_rng(112)
        for entry in roster:
            model = entry.model
            for _ in range(5):
                pt = random_chart_point(model, rng)
                vel = random_velocity(model, rng)
                lo, hi = model.interval
                span = 0.5 if np.isfinite(lo) or np.isfinite(hi) else 2.0
                res = geodesic(model, pt, vel, (0.0, span), samples=33)
                assert energy_report(model, res)["drift_rel"] < 1e-8
                rep = t_affinity_report(res)
                assert rep["residual"] < 1e-8 * max(1.0, rep["t_range"])
                assert rep["slope"] == pytest.approx(vel[0], abs=1e-8)

    def test_negative_dt_hits_boundary(self, roster):
        rng = np.random.default_rng(113)
        model = roster[1].model       # interval (0, inf)
        for _ in range(5):
            pt = random_chart_point(model, rng)
            vel = random_velocity(model, rng)
            vel[0] = -abs(vel[0]) - 0.1
            res = geodesic(model, pt, vel, (0.0, 1e4), samples=17)
            assert res.hit_boundary
            assert res.boundary_tau is not None
            assert res.t_values()[-1] < 1e-6
            # t is exactly affine, so the barrier time is predictable
            expected_tau = (pt.t - ENDPOINT_BARRIER) / abs(vel[0])
            assert res.boundary_tau == pytest.approx(expected_tau, rel=1e-6)

    def test_curved_t_history_flagged(self):
        # an affine fit cannot absorb a circle arc
        taus = np.linspace(0.0, 2.0 * np.pi, 65)
        states = np.zeros((65, 8))
        states[:, 0] = np.cos(taus)
        fake = GeodesicResult(taus=taus, states=states,
                              hit_boundary=False, boundary_tau=None)
        assert t_affinity_report(fake)["residual"] > 0.5

    def test_bad_velocity_shape_rejected(self, roster):
        model = roster[0].model
        pt = ChartPoint(0.1, 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            geodesic(model, pt, np.zeros(3), (0.0, 1.0))


class TestPlungeOracle:
    """A plunge has t' = a != 0, so v(tau) = u(t0 + a tau) for the solution u
    of u'' = (f + A) u with Cauchy data (v0, v0' / a) at t0. On a homogeneous
    model, Phi(t <- 1) = diag(C_t, C_t / t) expm(-log t B) with B in closed
    form, so Phi(t <- t0) = Phi(t <- 1) Phi(t0 <- 1)^-1 is exact."""

    @pytest.mark.parametrize("m,c", [(2, 0.3), (3, 1.5), (5, 0.25)])
    def test_plunge_matches_dilation_closed_form(self, m, c):
        hm = HomogeneousModel.standard(m, c)
        B = generator_matrix(hm)
        zero = np.zeros((m, m))

        def phi(t):
            C = hm.dilation(t).C
            return np.block([[C, zero], [zero, C / t]]) @ expm(-np.log(t) * B)

        rng = np.random.default_rng(171)
        for direction in (1.0, 1.0, -1.0):      # forward twice, then backward
            t0 = rng.uniform(0.25, 4.0)
            pt = ChartPoint(t0, rng.standard_normal(), rng.standard_normal(m))
            vel = rng.standard_normal(m + 2)
            vel[0] = -direction * (abs(vel[0]) + 0.2)
            res = geodesic(hm.model, pt, vel, (0.0, direction * 1e4), samples=257)
            assert res.hit_boundary
            expected_tau = (t0 - ENDPOINT_BARRIER) / abs(vel[0])
            assert abs(direction * res.boundary_tau - expected_tau) \
                <= 1e-12 * expected_tau
            data = np.linalg.solve(phi(t0), np.concatenate([pt.v, vel[2:] / vel[0]]))
            checked = 0
            for tau, row in zip(res.taus, res.states):
                t = t0 + vel[0] * tau
                if t < 1e-6:
                    continue
                exact = (phi(t) @ data)[:m]
                assert np.max(np.abs(row[2:2 + m] - exact)) \
                    <= 1e-9 * np.max(np.abs(exact))
                checked += 1
            assert checked == res.taus.size - 1


def reference_geodesic_closed_form(model, point, sdot0, vdot0, ts):
    """The explicit form of geodesic_closed_form: v is the solution u of E
    with Cauchy data (v0, vdot0) at t0, and energy conservation with
    kappa(t, u) = <u'', u> gives s = r + E (t - t0) - <u, u'> and
    s' = E - kappa(t, u) - <u', u'>, r = s0 + <v0, vdot0>."""
    space = model.space
    g = straightening_element(model, point, vdot0)
    u, du = solution_at(model, g.u, ts)
    energy = model.kappa(point.t, point.v) + sdot0 + space.norm_sq(vdot0)
    s = g.r + energy * (ts - point.t) - space.inner(u, du)
    ds = energy - model.kappa(ts, u) - space.norm_sq(du)
    return np.column_stack([ts, s, u, np.ones_like(ts), ds, du])


class TestClosedForm:
    def test_group_action_matches_the_explicit_formulas(self, roster):
        # The straightening element's image of a line and its Jacobian
        # against the formulas they replaced, per row and relative to the
        # row, down to t = 1e-7 on the homogeneous models.
        rng = np.random.default_rng(197)
        for entry in roster:
            model = entry.model
            lo, hi = model.compact_window()
            ts = (np.geomspace(1e-7, hi, 33) if entry.kind == "homogeneous"
                  else np.linspace(lo, hi, 33))
            for _ in range(3):
                pt = random_chart_point(model, rng)
                vel = random_velocity(model, rng)
                got = geodesic_closed_form(model, pt, vel[1], vel[2:], ts)
                want = reference_geodesic_closed_form(model, pt, vel[1], vel[2:], ts)
                gaps = np.max(np.abs(got - want), axis=1)
                assert np.all(gaps <= 1e-13 * np.max(np.abs(want), axis=1)), entry.name


class TestFlowOracle:
    """t is affine, so a run with t' = a != 0 is the t' = 1 geodesic with
    velocity / a at t = t0 + a tau. `geodesic_closed_form` reads that one
    from the flow; the run integrates the geodesic equations. They must
    agree in every coordinate (t, s, v), on regular runs and on runs that
    reach the barrier at t = 0 of each homogeneous model, which `geodesic`
    integrates in x = log t. Those plunge draws read at most 3.0e-8 (n4-homog)
    relative per sample. With a flow that solves u'' = (f + (1 + 1e-6) A) u,
    the worst of each model's five reads 4.5e-6 or more, though single runs
    can read as little as 1.2e-8."""

    PLUNGE_BUDGET = 1e-7

    def test_regular_runs_match_the_closed_form(self, roster):
        rng = np.random.default_rng(191)
        for entry in roster:
            model = entry.model
            n = model.dim
            checked = 0
            while checked < 10:
                pt = random_chart_point(model, rng)
                vel = random_velocity(model, rng)
                res = geodesic(model, pt, vel, (0.0, 1.0), samples=33)
                if res.hit_boundary:
                    continue
                a = vel[0]
                expected = geodesic_closed_form(model, pt, vel[1] / a, vel[2:] / a,
                                                pt.t + a * res.taus)[:, :n]
                gap = np.max(np.abs(res.states[:, :n] - expected))
                assert gap <= 1e-8 * max(1.0, np.max(np.abs(expected))), entry.name
                checked += 1

    def test_plunges_match_the_closed_form(self, roster):
        rng = np.random.default_rng(193)
        for entry in roster:
            if entry.kind == "homogeneous":
                for _ in range(5):
                    assert plunge_gap(entry.model, rng) <= self.PLUNGE_BUDGET, entry.name

    def test_wrong_flow_exceeds_the_plunge_budget(self, roster, monkeypatch):
        def rhs(self, t, y):
            m = self.m
            M = y.reshape(2 * m, 2 * m)
            fa = self.model.profile.value(t) * np.eye(m) + (1.0 + 1e-6) * self.model.A
            return np.vstack([M[m:], fa @ M[:m]]).ravel()

        monkeypatch.setattr(CauchyFlow, "_rhs", rhs)
        rng = np.random.default_rng(193)
        for entry in roster:
            if entry.kind == "homogeneous":
                model = HomogeneousModel.standard(entry.hm.m, entry.hm.c).model
                assert max(plunge_gap(model, rng) for _ in range(5)) > self.PLUNGE_BUDGET, \
                    entry.name


def plunge_gap(model, rng) -> float:
    """Largest relative gap, per sample, between a plunge into t = 0 and
    `geodesic_closed_form` at t0 + a tau with velocity / a."""
    pt = random_chart_point(model, rng)
    vel = random_velocity(model, rng)
    a = vel[0] = -abs(vel[0])
    res = geodesic(model, pt, vel, (0.0, 1e4), samples=33)
    assert res.hit_boundary
    # the last time is the barrier up to rounding; the flow refuses times past it
    ts = np.maximum(pt.t + a * res.taus, ENDPOINT_BARRIER)
    n = model.dim
    expected = geodesic_closed_form(model, pt, vel[1] / a, vel[2:] / a, ts)[:, :n]
    gaps = np.max(np.abs(res.states[:, :n] - expected), axis=1)
    return float(np.max(gaps / np.maximum(1.0, np.max(np.abs(expected), axis=1))))


def bounded_model():
    """n4-poly's space, A and profile on the interval (-1, 2)."""
    space = PseudoEuclideanSpace(np.eye(2))
    return ModelManifold.ecs(space, np.diag([1.0, -1.0]),
                             PolynomialProfile([0.0, 1.0, 0.0, 0.1]), (-1.0, 2.0))


class TestBoundedEndpoints:
    @pytest.mark.parametrize("t0,dt0,tau_end,wall", [
        (0.5, 0.8, 5.0, 2.0 - ENDPOINT_BARRIER),      # forward into t = 2
        (0.5, 0.7, -5.0, -1.0 + ENDPOINT_BARRIER),    # backward into t = -1
        (2.0 - 1e-7, 0.0, 5.0, None),                 # t' = 0 beside the wall
    ])
    def test_walls(self, t0, dt0, tau_end, wall):
        model = bounded_model()
        pt = ChartPoint(t0, 0.3, np.array([0.4, -0.6]))
        vel = np.array([dt0, -0.2, 0.5, 0.3])
        res = geodesic(model, pt, vel, (0.0, tau_end), samples=65)
        assert energy_report(model, res)["drift_rel"] < 1e-8
        t_end = res.t_values()[-1]
        if wall is None:
            assert not res.hit_boundary and res.boundary_tau is None
            assert res.taus[-1] == tau_end
            assert abs(t_end - 2.0) < 1e-6
            return
        assert res.hit_boundary
        assert res.boundary_tau == pytest.approx((wall - t0) / dt0, rel=1e-14)
        assert res.taus[-1] == res.boundary_tau
        assert abs(t_end - wall) < 1e-6


class TestCachedCoefficients:
    """Curve and profile derivatives evaluate exactly as polyder + polyval,
    within the profile's cached orders and one order above them."""

    P = np.polynomial.polynomial

    def test_poly_curve(self):
        rng = np.random.default_rng(181)
        s_c, v_c = rng.standard_normal(6), rng.standard_normal((3, 6))
        curve = PolyCurve(s_c, v_c)
        for t in rng.uniform(-3.0, 3.0, 50):
            for k in range(4):
                assert curve.s(t, k) == self.P.polyval(t, self.P.polyder(s_c, m=k))
                expected = [self.P.polyval(t, self.P.polyder(c, m=k)) for c in v_c]
                assert np.array_equal(curve.v(t, k), expected)

    def test_polynomial_profile(self):
        rng = np.random.default_rng(182)
        coeffs = rng.standard_normal(7)
        profile = PolynomialProfile(coeffs)
        for t in rng.uniform(-3.0, 3.0, 50):
            for k in range(5):
                assert np.array_equal(profile.derivative(t, k),
                                      self.P.polyval(t, self.P.polyder(coeffs, m=k)))


class TestLeafExp:
    def test_matches_geodesic_time_one(self, roster):
        # the leaves are flat in this chart: the leafwise exponential map is
        # coordinate addition
        rng = np.random.default_rng(121)
        for entry in (roster[0], roster[3]):
            model = entry.model
            pt = random_chart_point(model, rng)
            vel = np.concatenate([[0.0], rng.standard_normal(model.dim - 1)])
            res = geodesic(model, pt, vel, (0.0, 1.0), samples=3)
            assert np.max(np.abs(res.states[-1, : model.dim]
                                 - (pt.coords() + vel))) < 1e-10


def leaf_circle(model, t0, radius=0.8):
    """Closed curve inside the leaf {t0}, moving in (s, v_1)."""
    m = model.m

    def curve(tau):
        v = np.zeros(m)
        v[0] = radius * (np.cos(tau) - 1.0)
        pt = ChartPoint(t0, radius * np.sin(tau), v)
        vel = np.zeros(model.dim)
        vel[1] = radius * np.cos(tau)
        vel[2] = -radius * np.sin(tau)
        return pt, vel

    return curve


class TestAffineTransport:
    def test_decay_profile_along_leaf_curves(self, roster):
        rng = np.random.default_rng(141)
        for entry in (roster[1], roster[2], roster[4]):
            model = entry.model
            t0 = 0.5 * sum(model.compact_window())
            curve = leaf_circle(model, t0=t0)
            Z0 = rng.standard_normal(model.dim)
            Z0[0] = 1.0      # transverse component switches on the symbols
            assert affine_transport_residual(model, curve, Z0) < 1e-9


class TestVariationField:
    def seeded_configuration(self, model, rng, degree=2):
        m = model.m
        s_coeffs = 0.3 * rng.standard_normal(degree + 1)
        v_coeffs = 0.3 * rng.standard_normal((m, degree + 1))
        curve = PolyCurve(s_coeffs, v_coeffs)
        z0 = (float(0.2 * rng.standard_normal()), 0.2 * rng.standard_normal(m))
        zdot0 = (float(0.2 * rng.standard_normal()), 0.2 * rng.standard_normal(m))
        return curve, z0, zdot0

    def test_terminal_curve_is_geodesic(self, roster):
        rng = np.random.default_rng(151)
        for entry in (roster[0], roster[1], roster[3]):
            model = entry.model
            lo, hi = model.compact_window()
            for _ in range(3):
                curve, z0, zdot0 = self.seeded_configuration(model, rng)
                field = variation_field(model, curve, z0, zdot0, (lo, hi),
                                        samples=33)
                assert terminal_curve_residual(model, field) < 1e-6

    def test_affine_defect_decay(self, roster):
        rng = np.random.default_rng(152)
        model = roster[1].model
        lo, hi = model.compact_window()
        curve, z0, zdot0 = self.seeded_configuration(model, rng)
        field = variation_field(model, curve, z0, zdot0, (lo, hi), samples=17)
        assert affine_defect_residual(model, field) < 1e-9

    def test_affine_defect_matches_loop_reference(self, roster):
        # The array form against the per-(t, s) loop it replaced. They agree
        # bit for bit here; 1e-15 (a few eps) allows a BLAS that orders the
        # (f + A) v sums differently.
        rng = np.random.default_rng(153)
        for entry in roster:
            model = entry.model
            lo, hi = model.compact_window()
            for _ in range(2):
                curve, z0, zdot0 = self.seeded_configuration(model, rng)
                field = variation_field(model, curve, z0, zdot0, (lo, hi))
                assert affine_defect_residual(model, field) == pytest.approx(
                    reference_affine_defect_residual(model, field), rel=0, abs=1e-15)

    def test_zero_configuration_stays_zero(self, roster):
        model = roster[1].model
        m = model.m
        curve = PolyCurve([0.0], np.zeros((m, 1)))      # the t-axis
        field = variation_field(model, curve, (0.0, np.zeros(m)),
                                (0.0, np.zeros(m)), (0.5, 2.0), samples=9)
        z = field.x[:, 1:2 + m]     # the curve is the t-axis: z is x's (s, v)
        assert np.max(np.abs(z)) < 1e-12
        assert terminal_curve_residual(model, field) < 1e-10


def reference_affine_defect_residual(model, field):
    """The loop form of affine_defect_residual: one (t, s) pair at a time."""
    worst = 0.0
    scale = 1.0
    for i, t in enumerate(field.t_grid):
        fa = model.f_plus_A(t)
        v_y = field.curve.v(t)
        vdd_y = field.curve.v(t, 2)
        base = vdd_y - fa @ v_y
        z_v = field.x[i, 2:2 + model.m] - v_y
        zdd_v = fa @ z_v + fa @ v_y - vdd_y
        scale = max(scale, float(np.max(np.abs(base))))
        for s in np.linspace(-1.0, 2.0, 7):
            defect = vdd_y + s * zdd_v - fa @ (v_y + s * z_v)
            worst = max(worst, float(np.max(np.abs(defect - (1.0 - s) * base))))
    return worst / scale


def null_start(model, rng, scale):
    """A point at the middle of the model's window and a transverse
    velocity, both with entries of the given scale."""
    lo, hi = model.compact_window()
    return (ChartPoint(0.5 * (lo + hi), float(rng.standard_normal()),
                       scale * rng.standard_normal(model.m)),
            scale * rng.standard_normal(model.m))


def reference_straightening(model, pt, vdot0, x):
    """Appendix B's map F(t, s, v) = (t, s_x(t) + s - 2 <v, v_x'(t)>,
    v_x(t) + v) at chart points x of shape (k, n), with t the time of the
    k-th sample of a null geodesic run from pt; the run comes from
    `geodesic` with t' = 1 and the null s'(t0)."""
    m = model.m
    sdot0 = -float(model.kappa(pt.t, pt.v)) - float(model.space.norm_sq(vdot0))
    run = geodesic(model, pt, np.concatenate([[1.0, sdot0], vdot0]),
                   (0.0, x[-1, 0] - pt.t), samples=len(x))
    s_x, v_x, vd_x = (run.states[:, 1], run.states[:, 2:2 + m],
                      run.states[:, 4 + m:])
    new_s = s_x + x[:, 1] - 2.0 * model.space.inner(x[:, 2:], vd_x)
    return np.column_stack([run.states[:, 0], new_s, v_x + x[:, 2:]])


class TestTransverseNull:
    def test_t_axis_maps_onto_the_null_geodesic(self, roster):
        rng = np.random.default_rng(161)
        for entry in (roster[0], roster[1]):
            model = entry.model
            lo, hi = model.compact_window()
            pt, vdot0 = null_start(model, rng, 0.4)
            g = straightening_element(model, pt, vdot0)
            assert straightened_axis_residual(model, g, pt, vdot0, (lo, hi)) < 1e-9

    def test_zero_data_is_the_identity(self, roster):
        model = roster[1].model
        g = straightening_element(model, ChartPoint(1.3, 0.0, np.zeros(2)),
                                  np.zeros(2))
        assert iso_distance(g, iso_identity(model)) == 0.0
        x = np.array([1.3, 0.7, 0.2, -0.1])
        assert np.max(np.abs(iso_apply(model, g, x) - x)) < 1e-12

    def test_matches_the_reference_map(self, roster):
        # the old chart formula, evaluated on an independent null geodesic
        rng = np.random.default_rng(163)
        for entry in (roster[1], roster[2]):
            model = entry.model
            lo, hi = model.compact_window()
            pt, vdot0 = null_start(model, rng, 0.5)
            g = straightening_element(model, pt, vdot0)
            ts = np.linspace(pt.t, hi - 0.1 * (hi - lo), 9)
            for s in (-1.0, 0.0, 2.0):
                v = 0.5 * rng.standard_normal(model.m)
                x = np.column_stack([ts, np.full(9, s), np.tile(v, (9, 1))])
                want = reference_straightening(model, pt, vdot0, x)
                assert np.max(np.abs(iso_apply(model, g, x) - want)) < 1e-9

    def test_straightening_preserves_metric(self, roster):
        rng = np.random.default_rng(162)
        for entry in (roster[1], roster[0]):
            model = entry.model
            lo, hi = model.compact_window()
            pt, vdot0 = null_start(model, rng, 0.5)
            g = straightening_element(model, pt, vdot0)
            grid = np.array([[[t, s, *(0.5 * rng.standard_normal(model.m))]
                              for s in (-1.0, 0.0, 2.0) for _ in range(3)]
                             for t in np.linspace(lo, hi, 5)])
            residuals, _ = pullback_residual(model, g, grid)
            assert residuals.shape == (5, 9)
            assert np.max(residuals) < 1e-6

    def test_straightening_fixes_t(self, roster):
        model = roster[1].model
        g = straightening_element(model, ChartPoint(1.0, 0.0, [0.3, -0.2]),
                                  np.array([0.1, 0.4]))
        for t in (0.6, 1.0, 2.8):
            assert iso_apply(model, g, np.array([t, 0.0, 0.0, 0.0]))[0] == t

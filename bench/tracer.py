"""Per-layer tracing of ecs-lab from outside the program.

`Tracer.install()` wraps the public functions of the layer modules, two
methods (`CauchyFlow.matrix`, `HomogeneousModel.sigma_q_matrix`), the CLI's
task runners and the `solve_ivp` name that the ODE modules call. Modules
such as `cli`, `homogeneous` and `isometry_group` import functions by name,
so each function is replaced in every `ecs_lab` module that binds it.

Every wrapped call is a span: it counts calls, inclusive time and self time
(inclusive minus the wrapped calls made inside it). Integrations also record
`nfev` and, through a wrapped right-hand side, the time spent evaluating it.
Spans stay in memory; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("pseudo_linear", "model_geometry", "solution_space",
          "isometry_group", "homogeneous", "geodesics")
METHODS = (("solution_space", "CauchyFlow", "matrix"),
           ("homogeneous", "HomogeneousModel", "sigma_q_matrix"))
TASKS = ("verify-model", "spectra", "isometry-check", "tcp-check", "geodesic",
         "classify-group", "appendix-a", "appendix-b")

# Right-hand sides by qualified name -> integration kind.
RHS_KINDS = {
    "CauchyFlow._rhs": "flow",
    "_geodesic_rhs.<locals>.rhs": "geodesic",
    "variation_field.<locals>.rhs": "variation_field",
    "transverse_null_geodesic.<locals>.rhs": "null_geodesic",
}


def _by_dimension(g, *args) -> str:
    return f"model_geometry.curvature_from_jet.n{len(g)}"


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Ode:
    """What an integration span adds: solver evaluations and right-hand side
    time. Calls and totals are in the span `ode.<kind>`."""
    __slots__ = ("nfev", "rhs_calls", "rhs_time")

    def __init__(self):
        self.nfev = 0
        self.rhs_calls = 0
        self.rhs_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.odes: dict[str, Ode] = defaultdict(Ode)
        self._stack: list[float] = []
        self._restore: list = []

    def reset(self):
        self.spans.clear()
        self.odes.clear()

    # -- spans ----------------------------------------------------------------

    def _close(self, key: str, start: float):
        dt = perf_counter() - start
        child = self._stack.pop()
        span = self.spans[key]
        span.calls += 1
        span.total += dt
        span.self_time += dt - child
        if self._stack:
            self._stack[-1] += dt

    def _wrap(self, key, fn):
        """Wrap fn as a span named key, or key(*args) when key is callable."""
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(key(*args) if callable(key) else key, start)
        traced.__wrapped__ = fn
        return traced

    def _wrap_solve_ivp(self, fn):
        def traced(fun, t_span, y0, *args, **kwargs):
            kind = RHS_KINDS.get(getattr(fun, "__qualname__", ""), "other")
            ode_time = [0, 0.0]

            def rhs(t, y):
                start = perf_counter()
                try:
                    return fun(t, y)
                finally:
                    ode_time[0] += 1
                    ode_time[1] += perf_counter() - start

            self._stack.append(0.0)
            start = perf_counter()
            sol = None
            try:
                sol = fn(rhs, t_span, y0, *args, **kwargs)
                return sol
            finally:
                if kind == "geodesic":
                    # status 1: a terminal event, i.e. the barrier at t = 0.
                    kind = "plunge" if sol is not None and sol.status == 1 else "regular"
                self._close(f"ode.{kind}", start)
                rec = self.odes[kind]
                rec.nfev += int(sol.nfev) if sol is not None else 0
                rec.rhs_calls += ode_time[0]
                rec.rhs_time += ode_time[1]
        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ecs_lab" or name.startswith("ecs_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            mod = importlib.import_module(f"ecs_lab.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{attr}"
                if key == "model_geometry.curvature_from_jet":
                    key = _by_dimension
                self._replace_everywhere(fn, self._wrap(key, fn))
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"ecs_lab.{layer}"), cls_name)
            fn = vars(cls)[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        cli = importlib.import_module("ecs_lab.cli")
        for task, fn in list(cli.TASK_RUNNERS.items()):
            self._restore.append((cli.TASK_RUNNERS, task, fn))
            cli.TASK_RUNNERS[task] = self._wrap(f"cli.task.{task}", fn)
        for layer in ("solution_space", "geodesics"):
            mod = importlib.import_module(f"ecs_lab.{layer}")
            fn = mod.solve_ivp
            self._restore.append((mod, "solve_ivp", fn))
            mod.solve_ivp = self._wrap_solve_ivp(fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def table(self) -> dict:
        """All spans and integrations, for the result file."""
        return {
            "spans": {k: {"calls": s.calls, "total_s": s.total,
                          "self_s": s.self_time}
                      for k, s in sorted(self.spans.items())},
            "odes": {k: {"nfev": o.nfev, "rhs_calls": o.rhs_calls, "rhs_s": o.rhs_time}
                     for k, o in sorted(self.odes.items())},
        }


def _per_call_us(total: float, calls: int) -> float:
    return 1e6 * total / calls if calls else 0.0


def layer_metrics(table: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Counts are whole numbers that repeat exactly for a given workload seed;
    `.s` metrics are totals over the pass and `.us` metrics are per call
    (0 when the pass makes no such call).
    """
    spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0},
                        table["spans"])
    odes = defaultdict(lambda: {"nfev": 0, "rhs_calls": 0, "rhs_s": 0.0},
                       table["odes"])
    out: dict[str, tuple[float, str]] = {}

    def count(name, value):
        out[name] = (int(value), "count")

    def seconds(name, value):
        out[name] = (float(value), "s")

    def micros(name, span, field="total_s"):
        out[name] = (_per_call_us(span[field], span["calls"]), "us")

    for task in TASKS:
        seconds(f"cli.task.{task}.s", spans[f"cli.task.{task}"]["total_s"])

    count("model_geometry.curvature_at.calls",
          spans["model_geometry.curvature_at"]["calls"])
    micros("model_geometry.metric_jet.us", spans["model_geometry.metric_jet"])
    for n in (4, 5, 7):
        micros(f"model_geometry.curvature_from_jet.n{n}.us",
               spans[f"model_geometry.curvature_from_jet.n{n}"])

    flow = odes["flow"]
    count("solution_space.flow.integrations", spans["ode.flow"]["calls"])
    count("solution_space.flow.rhs_evals", flow["nfev"])
    seconds("solution_space.flow.integrate_s", spans["ode.flow"]["total_s"])
    out["solution_space.flow.rhs_us"] = (
        _per_call_us(flow["rhs_s"], flow["rhs_calls"]), "us")
    matrix = spans["solution_space.CauchyFlow.matrix"]
    count("solution_space.flow.matrix.calls", matrix["calls"])
    micros("solution_space.flow.lookup_us", matrix, "self_s")

    for kind in ("regular", "plunge"):
        count(f"geodesics.{kind}.calls", spans[f"ode.{kind}"]["calls"])
        count(f"geodesics.{kind}.rhs_evals", odes[kind]["nfev"])
    seconds("geodesics.plunge.s", spans["ode.plunge"]["total_s"])
    count("geodesics.variation_field.rhs_evals", odes["variation_field"]["nfev"])
    seconds("geodesics.variation_field.s",
            spans["geodesics.variation_field"]["total_s"])
    count("geodesics.null_geodesic.rhs_evals", odes["null_geodesic"]["nfev"])
    kinds = ("regular", "plunge", "variation_field", "null_geodesic")
    out["geodesics.rhs_us"] = (_per_call_us(
        sum(odes[k]["rhs_s"] for k in kinds),
        sum(odes[k]["rhs_calls"] for k in kinds)), "us")

    seconds("homogeneous.generator_matrix.s",
            spans["homogeneous.generator_matrix"]["total_s"])
    count("homogeneous.sigma_q_matrix.calls",
          spans["homogeneous.HomogeneousModel.sigma_q_matrix"]["calls"])
    micros("homogeneous.class_map.us", spans["homogeneous.class_map"])
    micros("homogeneous.commute_test.us", spans["homogeneous.commute_test"])
    seconds("homogeneous.spectral_split.s",
            spans["homogeneous.spectral_split"]["total_s"])

    count("isometry_group.iso_apply.calls", spans["isometry_group.iso_apply"]["calls"])
    micros("isometry_group.iso_apply.us", spans["isometry_group.iso_apply"])
    micros("isometry_group.pullback_residual.us",
           spans["isometry_group.pullback_residual"])
    count("isometry_group.sigma_act.calls", spans["isometry_group.sigma_act"]["calls"])
    return out

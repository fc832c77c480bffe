"""Scenario files for the benchmark workloads, generated from a workload seed.

Every workload is a list of scenarios (name, JSON payload) that the runner
writes to disk and feeds to `ecs-lab run`. The models are the Tier-1 roster
of `tests/conftest.py` plus, in `group-campaign`, the imaginary-c model of
the AC07 grid. Nothing here imports the program: the payloads are plain
JSON, so the inputs are fixed by the seed alone.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("curvature-sweep", "ode-campaign", "group-campaign")

# Points per roster model in one curvature-sweep pass.
CURVATURE_POINTS = 75

# One ode-campaign pass per roster model: GEODESICS geodesics over TAU, of
# which exactly PLUNGES plunge to t = 0 on a homogeneous model, plus
# VARIATIONS appendix-a fields and NULL_GEODESICS appendix-b straightenings.
GEODESICS = 4
PLUNGES = 2
TAU = 2.0
VARIATIONS = 2
NULL_GEODESICS = 1

# group-campaign: dilation parameters for `spectra` (plus one drawn from the
# seed, at least 1.5 away from 1 in ratio) and `classify-group`.
SPECTRA_Q = [0.25, 0.5, 2.0, 4.0]
CLASSIFY_Q = [0.5, 2.0]

# The isometry-check (at the AC05 acceptance scale) and tcp-check scenarios
# of group-campaign use one seed that does not depend on the workload seed.
# Rows of both tasks compare against absolute budgets and fail on some
# sampled elements but not others; a fixed seed makes the rows that fail
# for that reason the same in every run.
FIXED_SEED = 11
ISOMETRY_ELEMENTS = 50
ISOMETRY_POINTS = 20

# Rows of the fixed-seed scenarios that fail because of an absolute budget:
# (scenario, anchor). A failing row outside this set makes a run incorrect.
ABSOLUTE_BUDGET_ROWS = frozenset({
    ("fixed-n5-homog", "isometry.action-compatibility"),
    ("fixed-n5-homog", "isometry.inverse"),
    ("fixed-n7-homog", "isometry.action-compatibility"),
})

# Lower barrier of the (0, inf) models, as in `ecs_lab.solution_space`.
ENDPOINT_BARRIER = 1e-8


def _diag(values) -> list[list[float]]:
    n = len(values)
    return [[float(values[i]) if i == j else 0.0 for j in range(n)]
            for i in range(n)]


def polynomial_model(gram_diag, a_diag, coefficients) -> dict:
    return {"gram": _diag(gram_diag), "A": _diag(a_diag),
            "profile": {"kind": "polynomial",
                        "coefficients": [float(c) for c in coefficients]},
            "interval": [None, None]}


def homogeneous_model(m: int, c: complex) -> dict:
    """Anti-diagonal Gram form and upper shift A on (0, inf), as in
    `HomogeneousModel.standard`."""
    c = complex(c)
    gram = [[1.0 if i + j == m - 1 else 0.0 for j in range(m)] for i in range(m)]
    A = [[1.0 if j == i + 1 else 0.0 for j in range(m)] for i in range(m)]
    return {"gram": gram, "A": A,
            "profile": {"kind": "homogeneous", "c": [c.real, c.imag]},
            "interval": [0, None]}


ROSTER = {
    "n4-poly": polynomial_model([1, 1], [1, -1], [0.0, 1.0, 0.0, 0.1]),
    "n4-homog": homogeneous_model(2, 0.3),
    "n5-poly": polynomial_model([1, 1, -1], [1, 2, -3],
                                [0.0, 2.0, 0.0, 1.0 / 6.0]),
    "n5-homog": homogeneous_model(3, 1.5),
    "n7-poly": polynomial_model([1, 1, 1, -1, -1], [2, 1, 0.5, -1, -2.5],
                                [0.0, 1.0, 0.5, 0.1]),
    "n7-homog": homogeneous_model(5, 0.25),
}
IMAGINARY = {"m3-imag": homogeneous_model(3, 0.7j)}
HOMOGENEOUS = ("n4-homog", "n5-homog", "n7-homog", "m3-imag")


def is_homogeneous(spec: dict) -> bool:
    return spec["profile"]["kind"] == "homogeneous"


def derived_seed(seed: int, *keys: int) -> int:
    """A scenario seed drawn from the workload seed and a key path."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _scenario(seed: int, model: dict, tasks: list[dict]) -> dict:
    return {"schema_version": "1", "seed": seed, "model": model, "tasks": tasks}


def predicted_plunges(scenario_seed: int, task_index: int, m: int,
                      count: int, tau: float) -> int:
    """How many of a `geodesic` task's runs reach the barrier at t = 0.

    Mirrors the draws of `task_geodesic` on a (0, inf) model: t uniform on
    the sampling window (1/4, 4), then s, v and the velocity. t is affine
    along geodesics, so a run plunges exactly when t0 + tau t0' falls below
    the barrier.
    """
    rng = np.random.default_rng([scenario_seed, task_index])
    hits = 0
    for _ in range(count):
        t0 = rng.uniform(0.25, 4.0)
        rng.standard_normal()
        rng.standard_normal(m)
        vel = rng.standard_normal(m + 2)
        hits += t0 + tau * vel[0] <= ENDPOINT_BARRIER
    return hits


def _plunge_balanced_seed(seed: int, key: tuple[int, ...], m: int) -> int:
    """First derived seed whose geodesic task has exactly PLUNGES plunges.

    Plunges cost about twenty regular geodesics each, so an unbalanced
    draw would make the pass time depend on the workload seed far more
    than on the program. The seed still decides every geodesic.
    """
    for k in range(10_000):
        cand = derived_seed(seed, *key, k)
        if predicted_plunges(cand, 0, m, GEODESICS, TAU) == PLUNGES:
            return cand
    raise RuntimeError("no plunge-balanced seed found")


def scenarios(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (name, payload) scenarios of one pass of the workload."""
    out: list[tuple[str, dict]] = []
    if workload == "curvature-sweep":
        for k, (name, model) in enumerate(ROSTER.items()):
            out.append((f"curv-{name}", _scenario(
                derived_seed(seed, 1, k), model,
                [{"task": "verify-model", "points": CURVATURE_POINTS}])))
    elif workload == "ode-campaign":
        for k, (name, model) in enumerate(ROSTER.items()):
            m = len(model["gram"])
            scen_seed = (_plunge_balanced_seed(seed, (2, k), m)
                         if is_homogeneous(model) else derived_seed(seed, 2, k))
            out.append((f"ode-{name}", _scenario(scen_seed, model, [
                {"task": "geodesic", "count": GEODESICS, "tau": TAU},
                {"task": "appendix-a", "count": VARIATIONS},
                {"task": "appendix-b", "count": NULL_GEODESICS},
            ])))
    elif workload == "group-campaign":
        models = {**ROSTER, **IMAGINARY}
        for k, name in enumerate(HOMOGENEOUS):
            rng = np.random.default_rng(derived_seed(seed, 3, k))
            q_extra = float(np.exp(rng.choice([-1.0, 1.0]) * rng.uniform(np.log(1.5), np.log(4.0))))
            out.append((f"group-{name}", _scenario(
                derived_seed(seed, 4, k), models[name], [
                    {"task": "spectra", "q_values": [*SPECTRA_Q, q_extra]},
                    {"task": "classify-group", "q_values": CLASSIFY_Q},
                ])))
        for name, model in models.items():
            tasks = [{"task": "isometry-check", "elements": ISOMETRY_ELEMENTS,
                      "points": ISOMETRY_POINTS}]
            if is_homogeneous(model):
                tasks.append({"task": "tcp-check"})
            out.append((f"fixed-{name}", _scenario(FIXED_SEED, model, tasks)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out

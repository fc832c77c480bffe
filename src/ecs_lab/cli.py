"""Scenario-driven verification runner.

`ecs-lab run --scenario cfg.json --report out.json` loads a model
description plus a list of verification tasks, runs every check at pinned
tolerances, and writes a deterministic JSON report. Exit codes: 0 all
checks passed, 1 at least one check failed, 2 the scenario or model failed
validation, 3 unexpected internal error.

Scenario format (JSON):

    {
      "schema_version": "1",
      "seed": 1234,
      "model": {
        "gram": [[...], ...],
        "A": [[...], ...],
        "profile": {"kind": "homogeneous", "c": [1.5, 0.0]},
        "interval": [0, null]          # null encodes an infinite endpoint
      },
      "tasks": [
        {"task": "verify-model", "points": 25},
        {"task": "spectra", "q_values": [0.25, 4.0]},
        ...
      ]
    }

Every check row carries a stable `anchor` id, the measured value, the
tolerance, and the comparison direction ("below" for residuals, "above" for
quantities that must stay away from zero). Budgets are fixed in TOLERANCES;
no scenario key or environment variable changes them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
import scipy

from . import __version__
from .geodesics import (
    PolyCurve,
    affine_defect_residual,
    energy_report,
    geodesic,
    straightened_axis_residual,
    t_affinity_report,
    terminal_curve_residual,
    variation_field,
)
from .homogeneous import (
    HomogeneousModel,
    TransitivityReport,
    away_from_one,
    class_map_inverse,
    commute_test,
    transitive_commutation_check,
    conjugation_spectrum_check,
    dilation_spectrum_check,
    exponential_consistency_residual,
    expected_kernel_dim,
    generator_spectrum_check,
    sample_class,
    sample_isometries,
    shifted_invertibility,
    spectral_split,
)
from .isometry_group import (
    IsoElement,
    classify_holonomy,
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
    stack_elements,
    straightening_element,
)
from .model_geometry import (
    ChartPoint,
    ModelManifold,
    ProfileF,
    PseudoEuclideanSpace,
    _finite_list,
    _is_finite,
    curvature_at,
    curvature_identity_residuals,
    christoffel_pattern_residual,
    nabla_riemann_norm,
    olszak_span_check,
    parallel_weyl_residual,
    random_chart_point,
    ricci_profile_residuals,
    weyl_nonzero_norm,
    weyl_tidal_operator,
)
from .solution_space import IntegrationError, omega, random_solution

SCHEMA_VERSION = "1"


class ScenarioError(Exception):
    """Raised for malformed scenarios or models that fail validation."""


TOLERANCES = {
    "validate.structure": 1e-10,
    "curvature.ricci-profile": 1e-9,
    "curvature.scalar-zero": 1e-9,
    "curvature.parallel-weyl": 1e-9,
    "curvature.nonparallel-riemann": 1e-4,       # above
    "curvature.weyl-nonzero": 1e-6,              # above
    "curvature.leaf-christoffel": 1e-12,
    "curvature.tidal-endomorphism": 1e-8,
    "curvature.olszak-line": 1e-10,
    "curvature.bianchi": 1e-9,
    "isometry.membership": 1e-9,
    "isometry.pullback": 1e-8,
    "isometry.action-compatibility": 1e-8,
    "isometry.inverse": 1e-9,
    "isometry.omega-scaling": 1e-9,
    "isometry.determinant-power": 1e-7,
    "spectra.dilation-eigenvalues": 1e-6,
    "spectra.generator-eigenvalues": 1e-6,
    "spectra.exponential-consistency": 1e-6,
    "spectra.kernel-dimension": 0.5,
    "spectra.shifted-invertibility": 1e-8,       # above
    "group.class-roundtrip": 1e-8,
    "group.commuting-within-class": 1e-8,
    "group.separating-across-classes": 1e-3,     # above
    "group.commute-agreement": 0.5,              # disagreement count
    "group.transitive-commutation": 0.5,         # counterexample count
    "group.conjugation-spectrum": 1e-6,
    "heisenberg.commutator-central": 1e-9,
    "geodesic.energy": 1e-8,
    "geodesic.t-affine": 1e-8,
    "geodesic.boundary-exit": 1e-6,
    "variation.terminal-geodesic": 1e-6,
    "variation.affine-field": 1e-9,
    "reconstruction.pullback-identity": 1e-6,
    "classify.holonomy-type": 0.5,
}

_ABOVE = {
    "curvature.nonparallel-riemann",
    "curvature.weyl-nonzero",
    "spectra.shifted-invertibility",
    "group.separating-across-classes",
}


def _jsonable(x: Any) -> Any:
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return [_jsonable(v) for v in x.tolist()]
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return _jsonable(x.item())
    if isinstance(x, np.complexfloating):
        v = complex(x)
        return [v.real, v.imag]
    if isinstance(x, float) and not np.isfinite(x):
        return repr(x)
    return x


def check(name: str, anchor: str, value: float,
          detail: Optional[dict] = None) -> dict:
    """The report row of one check at its TOLERANCES budget; the runner adds its task."""
    tol = TOLERANCES[anchor]
    if anchor in _ABOVE:
        passed = bool(value > tol)
        direction = "above"
    else:
        passed = bool(value <= tol)
        direction = "below"
    row = {"name": name, "anchor": anchor,
           "value": _jsonable(float(value)), "tolerance": tol,
           "direction": direction, "pass": passed}
    if detail:
        row["detail"] = _jsonable(detail)
    return row


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------

def _decode_interval(raw) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2 \
            or not all(end is None or _is_finite(end) for end in raw):
        raise ScenarioError(f"interval must be a 2-element list of finite "
                            f"numbers or null, got {raw!r}")
    lo = -float("inf") if raw[0] is None else float(raw[0])
    hi = float("inf") if raw[1] is None else float(raw[1])
    return (lo, hi)


# The keys a scenario and its model object may carry; any other is rejected.
SCENARIO_KEYS = {"schema_version", "seed", "model", "tasks"}
MODEL_KEYS = {"gram", "A", "profile", "interval"}


def _reject_unknown(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {where}")


def _matrix(spec: dict, key: str) -> np.ndarray:
    """A model matrix: a list of rows of finite JSON numbers."""
    raw = spec[key]
    if not isinstance(raw, list) or not all(_finite_list(row) for row in raw):
        raise ValueError(f"{key} must be a list of rows of finite numbers")
    return np.asarray(raw, dtype=float)


def build_model(spec: dict) -> ModelManifold:
    _reject_unknown(spec, MODEL_KEYS, "the model")
    try:
        gram = _matrix(spec, "gram")
        A = _matrix(spec, "A")
        profile = ProfileF.from_dict(spec["profile"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad model description: {exc}") from exc
    interval = _decode_interval(spec["interval"]) if "interval" in spec else None
    try:
        space = PseudoEuclideanSpace(gram)
        return ModelManifold.ecs(space, A, profile, interval)
    except ValueError as exc:
        raise ScenarioError(f"model failed validation: {exc}") from exc


@dataclass
class Scenario:
    seed: int
    model_spec: dict
    tasks: list[dict]

    @staticmethod
    def load(path: str, seed_override: Optional[int] = None) -> "Scenario":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a JSON object")
        _reject_unknown(raw, SCENARIO_KEYS, "the scenario")
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schema_version {version!r}")
        if "model" not in raw or not isinstance(raw["model"], dict):
            raise ScenarioError("scenario needs a 'model' object")
        tasks = raw.get("tasks")
        if not isinstance(tasks, list) or not tasks:
            raise ScenarioError("scenario needs a nonempty 'tasks' list")
        tasks = [_task_params(entry) for entry in tasks]
        seed = raw.get("seed", 0) if seed_override is None else seed_override
        if not _is_int(seed) or seed < 0:
            raise ScenarioError(f"seed must be a nonnegative integer, got {seed!r}")
        return Scenario(seed=seed, model_spec=raw["model"], tasks=tasks)


# ---------------------------------------------------------------------------
# task implementations
# ---------------------------------------------------------------------------

def _require_homogeneous(model: ModelManifold, task: str) -> HomogeneousModel:
    """The model's dilation structure; a model without one is invalid for
    `task`."""
    try:
        return HomogeneousModel.from_model(model)
    except ValueError as exc:
        raise ScenarioError(f"task {task!r}: {exc}") from exc


def _is_int(value) -> bool:
    """A JSON integer; JSON true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


# What a sample may raise when its flow or ODE integration fails or its
# values overflow; every other exception is an internal error.
_SAMPLE_FAILURES = (IntegrationError, np.linalg.LinAlgError)


def _or_nan(fn, *args, failed=float("nan")):
    """fn(*args), or `failed` when an argument is None (a sample that could
    not be built), a flow or ODE integration that fn needs fails, or its
    linear algebra meets a value that overflowed. NumPy's max, min and
    argmax propagate NaN, so such a sample fails its row instead of ending
    the run."""
    if any(arg is None for arg in args):
        return failed
    try:
        return fn(*args)
    except _SAMPLE_FAILURES:
        return failed


def _task_params(entry) -> dict:
    """A task entry with every parameter checked and its defaults filled in
    from TASK_PARAMS."""
    if not isinstance(entry, dict) or not isinstance(entry.get("task"), str):
        raise ScenarioError("each task entry needs a 'task' name")
    task = entry["task"]
    if task not in TASK_PARAMS:
        raise ScenarioError(f"unknown task {task!r}")
    _reject_unknown(entry, set(TASK_PARAMS[task]) | {"task"}, f"task {task!r}")
    params = {"task": task}
    for key, default in TASK_PARAMS[task].items():
        value = entry.get(key, default)
        if key == "q_values":
            if not (isinstance(value, list) and value
                    and all(_is_finite(q) and q > 0 for q in value)):
                raise ScenarioError(f"{task} q_values must be a nonempty list of "
                                    f"finite positive numbers, got {value!r}")
            value = [float(q) for q in value]
        elif key == "tau":
            if not _is_finite(value) or value == 0:
                # a zero span samples one point and passes vacuously
                raise ScenarioError(f"{task} tau must be finite and nonzero, got {value!r}")
            value = float(value)
        else:
            # A sample count: fewer than one sample would pass vacuously, and
            # a check over pairs needs two.
            least = 2 if (task, key) in _PAIR_COUNTS else 1
            if not _is_int(value) or value < least:
                raise ScenarioError(f"{task} {key!r} must be an integer of at least "
                                    f"{least}, got {value!r}")
        params[key] = value
    return params


# verify-model evaluates its points in blocks of max(1, _BLOCK_DOUBLES // n**5)
# stacked points: 16 at n = 4, 5 at n = 5 and 1 from n = 7 on. No fifth-order
# array of a block then holds more doubles than one n = 7 point's (7**5), so
# stacking leaves the peak memory where one point at a time puts it.
# isometry-check moves its points by blocks of
# max(1, _BLOCK_DOUBLES // (points * (2m)**2)) elements, whose flow matrices
# then hold no more doubles than the same bound, or than one element's where
# those are more: at 20 points, 51 elements at m = 2, 22 at m = 3, 8 at m = 5
# and 1 from m = 11 on.
_BLOCK_DOUBLES = 2 ** 14


def task_verify_model(model: ModelManifold, params: dict,
                      rng: np.random.Generator) -> list[dict]:
    points = params["points"]
    res = model.validation_residuals()
    rows = [check("structural residuals of (A, f)",
                  "validate.structure",
                  max(res["self_adjoint_residual"], res["trace_residual"]),
                  detail=res)]
    draws = [random_chart_point(model, rng) for _ in range(points)]
    t, s, v = (np.array([getattr(pt, key) for pt in draws]) for key in "tsv")
    size = max(1, _BLOCK_DOUBLES // model.dim ** 5)
    # Per block, the least of each lower bound and the largest of each
    # residual. NumPy's max and min propagate NaN, so a point whose curvature
    # overflows fails its rows instead of dropping out of the fold.
    lows, highs = [], []
    for i in range(0, points, size):
        pt = ChartPoint(t[i:i + size], s[i:i + size], v[i:i + size])
        pack = curvature_at(model, pt)
        lows.append([np.min(nabla_riemann_norm(pack)), np.min(weyl_nonzero_norm(pack))])
        ricci = ricci_profile_residuals(model, pt, pack)
        highs.append([np.max(x) for x in (
            ricci["ricci"],
            ricci["nabla_ricci"],
            np.abs(pack.scalar),
            parallel_weyl_residual(pack),
            christoffel_pattern_residual(pack),
            np.abs(weyl_tidal_operator(model, pt, pack) - model.A),
            list(olszak_span_check(pack).values()),
            list(curvature_identity_residuals(pack).values()),
        )])
    riemann_par, weyl = np.min(lows, axis=0)
    (ricci, nabla_ricci, scalar, weyl_par, leaf, tidal, olszak,
     bianchi) = np.max(highs, axis=0)
    rows.extend([
        check(f"Ricci = (2-n) f dt^2 over {points} points",
              "curvature.ricci-profile", np.max([ricci, nabla_ricci]),
              detail={"ricci": ricci, "nabla_ricci": nabla_ricci}),
        check("scalar curvature vanishes",
              "curvature.scalar-zero", scalar),
        check("Weyl tensor is parallel",
              "curvature.parallel-weyl", weyl_par),
        check("Riemann tensor is not parallel",
              "curvature.nonparallel-riemann", riemann_par),
        check("Weyl tensor does not vanish",
              "curvature.weyl-nonzero", weyl),
        check("leafwise Christoffel symbols vanish",
              "curvature.leaf-christoffel", leaf),
        check("tidal operator recovers A",
              "curvature.tidal-endomorphism", tidal),
        check("null parallel line spanned by d/ds",
              "curvature.olszak-line", olszak),
        check("curvature symmetries and Bianchi identities",
              "curvature.bianchi", bianchi),
    ])
    return rows


def _spectrum_detail(chk) -> dict:
    return {"predicted": chk.predicted, "computed": np.sort_complex(chk.computed)}


def task_spectra(model: ModelManifold, params: dict,
                 rng: np.random.Generator) -> list[dict]:
    hm = _require_homogeneous(model, "spectra")
    q_values = params["q_values"]
    rows = []
    gchk = generator_spectrum_check(hm)
    rows.append(check("generator eigenvalues match m + 1/2 - 2j -+ c",
                      "spectra.generator-eigenvalues", gchk.max_rel_error,
                      detail=_spectrum_detail(gchk)))
    split = spectral_split(hm)
    rows.append(check("kernel dimension matches the odd-integer rule for 2c",
                      "spectra.kernel-dimension",
                      abs(split.kernel_dim - expected_kernel_dim(hm.c)),
                      detail={"kernel_dim": split.kernel_dim,
                              "expected": expected_kernel_dim(hm.c)}))
    for q in q_values:
        # One element per q: it keeps its matrix, so the three checks share
        # one flow lookup.
        sigma = hm.dilation(q)
        dchk = _or_nan(dilation_spectrum_check, hm, sigma, failed=None)
        value = float("nan") if dchk is None else dchk.max_rel_error
        # The matched pair (predicted, computed) with the largest error.
        detail = None if dchk is None else {
            **_spectrum_detail(dchk), "worst_pair": dchk.worst_pair,
            "worst_error": value}
        rows.append(check(f"dilation eigenvalues at q = {q:g}",
                          "spectra.dilation-eigenvalues", value, detail=detail))
        rows.append(check(f"exp(log(q) B) reproduces the dilation at q = {q:g}",
                          "spectra.exponential-consistency",
                          _or_nan(exponential_consistency_residual, hm, sigma)))
        if abs(q - 1.0) > 1e-10:
            inv = _or_nan(shifted_invertibility, hm, sigma, split,
                          failed={"min_singular_value": float("nan")})
            rows.append(check(f"(sigma_q - 1) invertible on the range at q = {q:g}",
                              "spectra.shifted-invertibility",
                              inv["min_singular_value"], detail=inv))
    return rows


def _by_blocks(indices: list[int], size: int, run):
    """run(block) on consecutive blocks of at most `size` of the indices, in
    order. A block whose run meets a sample failure runs again one index at
    a time, so only the samples that fail alone keep NaN values."""
    for i in range(0, len(indices), size):
        block = indices[i:i + size]
        try:
            run(block)
        except _SAMPLE_FAILURES:
            if len(block) > 1:
                _by_blocks(block, 1, run)


def _isometry_values(model: ModelManifold, n_elements: int, n_points: int,
                     rng: np.random.Generator) -> dict[str, np.ndarray]:
    """isometry-check's values, one row per sampled element (per pair for
    "compat" and "composed", the composed images), in two passes over blocks
    of elements and of pairs. Per element block: one lookup for its sigma
    matrices, each element's Omega-scaling and determinant, one stacked
    pullback, then each element's inverse law. Per pair block: the products
    applied, then compared with the stepwise images."""
    elems = sample_isometries(model, rng, n_elements)
    pts = np.array([random_chart_point(model, rng).coords() for _ in range(n_points)])
    pairs = [[(random_solution(model, rng), random_solution(model, rng))
              for _ in range(3)] for _ in range(n_elements)]
    member = np.array([max(s_membership(model, g.sigma).values()) for g in elems])
    size = max(1, _BLOCK_DOUBLES // (n_points * (2 * model.m) ** 2))

    def points_for(block):
        return np.broadcast_to(pts, (len(block),) + pts.shape)

    # A value stays NaN when a flow lookup it or an earlier check of its
    # element needs fails, and worst() picks NaN first, so the element fails
    # its rows.
    omega_res = np.full(n_elements, np.nan)
    det = np.full(n_elements, np.nan)
    pull = np.full((n_elements, n_points), np.nan)
    images = np.full((n_elements, n_points, model.dim), np.nan)
    inverse = np.full(n_elements, np.nan)
    ident = iso_identity(model)

    def element_checks(block):
        sigma_matrices(model, [elems[k].sigma for k in block])
        for k in block:
            omega_res[k] = omega_scaling_residual(model, elems[k].sigma, pairs[k])
            det[k] = sigma_det_residual(model, elems[k].sigma)
        pull[block], images[block] = pullback_residual(
            model, stack_elements([elems[k] for k in block]), points_for(block))
        for k in block:
            g, g_inv = elems[k], iso_inverse(model, elems[k])
            inverse[k] = max(iso_distance(iso_compose(model, g, g_inv), ident),
                             iso_distance(iso_compose(model, g_inv, g), ident))

    # Pair (g, h) = elements (2i, 2i + 1); h(x) is already in images, unless
    # h's lookups failed.
    n_pairs = n_elements // 2
    compat = np.full((n_pairs, n_points), np.nan)
    composed = np.full((n_pairs, n_points, model.dim), np.nan)

    def pair_checks(block):
        products = [iso_compose(model, elems[2 * i], elems[2 * i + 1]) for i in block]
        composed[block] = iso_apply(model, stack_elements(products), points_for(block))
        gs = stack_elements([elems[2 * i] for i in block])
        moved = iso_apply(model, gs, images[[2 * i + 1 for i in block]])
        compat[block] = np.max(np.abs(composed[block] - moved), axis=-1)

    _by_blocks(list(range(n_elements)), size, element_checks)
    live = [i for i in range(n_pairs) if not np.isnan(images[2 * i + 1]).any()]
    _by_blocks(live, size, pair_checks)
    return {"member": member, "pull": pull, "compat": compat, "composed": composed,
            "inverse": inverse, "omega": omega_res, "det": det}


def task_isometry_check(model: ModelManifold, params: dict,
                        rng: np.random.Generator) -> list[dict]:
    n_points = params["points"]
    sampled = _isometry_values(model, params["elements"], n_points, rng)

    def worst(values, scale_of=None, stride=1):
        """The largest value and its element (row index times stride) and
        point, to replay it alone. With scale_of, also the largest coordinate
        the check passed through there, and the value relative to it.
        """
        idx = np.unravel_index(int(np.argmax(values)), values.shape)
        detail = {"worst_element": stride * int(idx[0])}
        if len(idx) > 1:
            detail["worst_point"] = int(idx[1])
        if scale_of is not None:
            scale = float(np.max(np.abs(scale_of[idx])))
            detail["scale"] = scale
            detail["relative"] = float(values[idx]) / scale
        return float(values[idx]), detail

    return [
        check("structural membership residuals",
              "isometry.membership", *worst(sampled["member"])),
        check(f"metric pullback over {n_points} points",
              "isometry.pullback", *worst(sampled["pull"])),
        check("composition law matches composed action",
              "isometry.action-compatibility",
              *worst(sampled["compat"], sampled["composed"], stride=2)),
        check("g g^-1 = g^-1 g = id",
              "isometry.inverse", *worst(sampled["inverse"])),
        check("pairing rescales by 1/q",
              "isometry.omega-scaling", *worst(sampled["omega"])),
        check("determinant on solutions is q^(2-n)",
              "isometry.determinant-power", *worst(sampled["det"])),
    ]


def task_tcp_check(model: ModelManifold, params: dict,
                   rng: np.random.Generator) -> list[dict]:
    hm = _require_homogeneous(model, "tcp-check")
    n_classes, per_class = params["classes"], params["per_class"]
    round_trips = params["round_trips"]
    m2 = 2 * hm.m
    split = spectral_split(hm)

    # A sample contributes NaN when a flow lookup it needs fails (_or_nan),
    # and NumPy's max and min fold every residual below, NaN included. A
    # class that cannot be built is None in each of its pairs; the
    # transitivity check counts as one sample.
    def round_trip():
        a, z, [(q, w)], [g] = sample_class(hm, split, rng, 1)
        a2, z2, q2, w2 = class_map_inverse(hm, g, split)
        err = np.max([abs(a2 - a), np.max(np.abs(z2 - z)),
                      abs(q2 - q), np.max(np.abs(w2 - w))])
        return err / max(1.0, abs(a), float(np.max(np.abs(z))))

    def direct(g1, g2):
        return commute_test(hm, g1, g2).direct_residual

    def disagree(g1, g2):
        return float(not commute_test(hm, g1, g2).agree)

    round_errors = [_or_nan(round_trip) for _ in range(round_trips)]
    within, across = [], []
    classes = []
    for _ in range(n_classes):
        members = _or_nan(lambda: sample_class(hm, split, rng, per_class)[3],
                          failed=[None] * per_class)
        classes.append(members)
        for i in range(per_class):
            for j in range(i + 1, per_class):
                within.append(_or_nan(direct, members[i], members[j]))
    for i in range(n_classes):
        for j in range(i + 1, n_classes):
            across.append(_or_nan(direct, classes[i][0], classes[j][0]))

    agreement_pairs = params["agreement_pairs"]
    disagreements = 0.0
    for k in range(agreement_pairs):
        if k % 3 == 0:
            members = classes[k % n_classes]
            disagreements += _or_nan(disagree, members[0], members[-1])
        else:
            g1 = IsoElement(hm.dilation(away_from_one(rng)),
                            float(rng.standard_normal()), rng.standard_normal(m2))
            g2 = IsoElement(hm.dilation(away_from_one(rng)),
                            float(rng.standard_normal()), rng.standard_normal(m2))
            disagreements += _or_nan(disagree, g1, g2)

    n_triples = params["triples"]
    nan = float("nan")
    transitivity = _or_nan(transitive_commutation_check, hm, split, n_triples, rng,
                           failed=TransitivityReport(n_triples, nan, nan, nan))
    # With every premise failing, no conclusion was tested: the row fails.
    counterexamples = (nan if transitivity.premise_failures == n_triples
                       else float(transitivity.counterexamples))

    worst_conj = np.max([
        _or_nan(lambda g: conjugation_spectrum_check(hm, g).max_rel_error, members[0])
        for members in classes[: max(1, n_classes // 2)]])

    central = []
    sigma_id = iso_identity(model).sigma
    for _ in range(10):
        h1 = IsoElement(sigma_id, float(rng.standard_normal()),
                        random_solution(model, rng))
        h2 = IsoElement(sigma_id, float(rng.standard_normal()),
                        random_solution(model, rng))
        comm = iso_compose(model, iso_compose(model, h1, h2),
                           iso_compose(model, iso_inverse(model, h1),
                                       iso_inverse(model, h2)))
        expected = -2.0 * omega(model, h1.u, h2.u)
        central.extend([abs(comm.r - expected), np.max(np.abs(comm.u))])

    rows = [
        check(f"class parametrization round trip x{round_trips}",
              "group.class-roundtrip", np.max(round_errors)),
        check("elements of one class commute",
              "group.commuting-within-class", np.max(within)),
    ]
    if n_classes >= 2:
        rows.append(check("elements of distinct classes do not commute",
                          "group.separating-across-classes", np.min(across)))
    rows.extend([
        check(f"direct and criterion commutation tests agree x{agreement_pairs}",
              "group.commute-agreement", disagreements,
              detail={"pairs": agreement_pairs}),
        check(f"commutation is transitive on {n_triples} constructed triples",
              "group.transitive-commutation", counterexamples,
              detail={
                  "premise_failures": transitivity.premise_failures,
                  "worst_conclusion_residual":
                      transitivity.worst_conclusion_residual,
              }),
        check("conjugation spectrum is {1/q} + dilation spectrum",
              "group.conjugation-spectrum", worst_conj),
        check("commutators are central with charge -2 Omega",
              "heisenberg.commutator-central", np.max(central)),
    ])
    return rows


def task_geodesic(model: ModelManifold, params: dict,
                  rng: np.random.Generator) -> list[dict]:
    count, tau = params["count"], params["tau"]
    energies, affines, starts, exits = [], [], [], []
    for _ in range(count):
        pt = random_chart_point(model, rng)
        vel = rng.standard_normal(model.dim)
        starts.append((pt.t, float(vel[0])))
        try:
            res = geodesic(model, pt, vel, (0.0, tau))
        except _SAMPLE_FAILURES:
            energies.append(float("nan"))
            affines.append(float("nan"))
            continue
        energies.append(energy_report(model, res)["drift_rel"])
        aff = t_affinity_report(res)
        affines.append(aff["residual"] / max(aff["t_range"], 1.0))
        if res.hit_boundary:
            t_end = res.t_values()[-1]
            lo, hi = model.interval
            exits.append(min(abs(t_end - lo), abs(hi - t_end)))

    def worst_run(values):
        """The largest value and the run it came from, to replay it alone."""
        i = int(np.argmax(values))
        return values[i], {"worst_index": i, "t0": starts[i][0], "dt0": starts[i][1]}

    rows = [
        check(f"energy conservation over {count} geodesics",
              "geodesic.energy", *worst_run(energies)),
        check("t is affine in the parameter",
              "geodesic.t-affine", *worst_run(affines)),
    ]
    if exits:
        rows.append(check(f"boundary exits stop at the endpoint ({len(exits)} hits)",
                          "geodesic.boundary-exit", np.max(exits),
                          detail={"hits": len(exits)}))
    return rows


def task_classify_group(model: ModelManifold, params: dict,
                        rng: np.random.Generator) -> list[dict]:
    q_values = params["q_values"]
    dilational = any(abs(q - 1.0) > 1e-12 for q in q_values)
    hm = _require_homogeneous(model, "classify-group") if dilational else None
    elems = []
    for q in q_values:
        sigma = hm.dilation(q) if dilational else iso_identity(model).sigma
        elems.append(IsoElement(sigma, float(rng.standard_normal()),
                                random_solution(model, rng)))
    got = classify_holonomy(elems)
    expected = "dilational" if dilational else "translational"
    return [check(f"group sample classified as {got}",
                  "classify.holonomy-type", 0.0 if got == expected else 1.0,
                  detail={"classified": got, "expected": expected,
                          "q_values": q_values})]


def task_appendix_a(model: ModelManifold, params: dict,
                    rng: np.random.Generator) -> list[dict]:
    count = params["count"]
    lo, hi = model.compact_window()
    m = model.m
    residuals = []
    for _ in range(count):
        curve = PolyCurve(0.3 * rng.standard_normal(3),
                          0.3 * rng.standard_normal((m, 3)))
        z0 = (float(rng.standard_normal()), 0.5 * rng.standard_normal(m))
        zdot0 = (float(rng.standard_normal()), 0.5 * rng.standard_normal(m))
        try:
            fld = variation_field(model, curve, z0, zdot0, (lo, hi))
            residuals.append((terminal_curve_residual(model, fld),
                              affine_defect_residual(model, fld)))
        except _SAMPLE_FAILURES:
            residuals.append((float("nan"), float("nan")))
    # NumPy's max propagates NaN, so a failed sample fails its rows.
    terminal, affine = np.max(residuals, axis=0)
    return [
        check(f"endpoint curve of {count} variations is geodesic",
              "variation.terminal-geodesic", terminal),
        check("transverse defect decays affinely in s",
              "variation.affine-field", affine),
    ]


def task_appendix_b(model: ModelManifold, params: dict,
                    rng: np.random.Generator) -> list[dict]:
    count = params["count"]
    lo, hi = model.compact_window()
    m = model.m
    t_grid = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)
    residuals = []
    for _ in range(count):
        pt = ChartPoint(0.5 * (lo + hi), float(rng.standard_normal()),
                        0.5 * rng.standard_normal(m))
        vdot0 = 0.5 * rng.standard_normal(m)
        v_grid = [rng.standard_normal(m) for _ in range(3)]
        grid = np.array([[[[t, s, *v] for v in v_grid] for s in (-1.0, 0.0, 1.0)]
                         for t in t_grid])
        try:
            g = straightening_element(model, pt, vdot0)
            residuals.append((
                np.max(pullback_residual(model, g, grid)[0]),
                straightened_axis_residual(model, g, pt, vdot0,
                                           (t_grid[0], t_grid[-1]))))
        except _SAMPLE_FAILURES:
            residuals.append((float("nan"), float("nan")))
    # g is an isometry whatever its data; the axis part checks that it
    # carries the t-axis onto the null geodesic that geodesic() integrates.
    pull, axis = np.max(residuals, axis=0)
    return [check(f"straightening of {count} null geodesics pulls g back to g "
                  "and maps the t-axis onto the null geodesic",
                  "reconstruction.pullback-identity", np.max([pull, axis]),
                  detail={"pullback": pull, "axis": axis})]


TASK_RUNNERS = {
    "verify-model": task_verify_model,
    "spectra": task_spectra,
    "isometry-check": task_isometry_check,
    "tcp-check": task_tcp_check,
    "geodesic": task_geodesic,
    "classify-group": task_classify_group,
    "appendix-a": task_appendix_a,
    "appendix-b": task_appendix_b,
}

# The parameters of each task and their defaults. A task entry may carry
# only these keys besides "task"; Scenario.load checks every value, so a bad
# one exits 2 before any task runs.
TASK_PARAMS = {
    "verify-model": {"points": 25},
    "spectra": {"q_values": [0.25, 0.5, 2.0, 4.0]},
    "isometry-check": {"elements": 10, "points": 5},
    "tcp-check": {"classes": 5, "per_class": 3, "round_trips": 20,
                  "agreement_pairs": 30, "triples": 20},
    "geodesic": {"count": 20, "tau": 2.0},
    "classify-group": {"q_values": [1.0]},
    "appendix-a": {"count": 5},
    "appendix-b": {"count": 3},
}
# The counts that a check compares in pairs, which must be at least 2.
_PAIR_COUNTS = {("isometry-check", "elements"), ("tcp-check", "per_class")}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_scenario(scenario: Scenario) -> dict:
    model = build_model(scenario.model_spec)
    rows = []
    for index, entry in enumerate(scenario.tasks):
        rng = np.random.default_rng([scenario.seed, index])
        for row in TASK_RUNNERS[entry["task"]](model, entry, rng):
            row["task"] = entry["task"]
            rows.append(row)
    passed = sum(1 for r in rows if r["pass"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.system().lower(),
        },
        "scenario": {
            "seed": scenario.seed,
            "model": scenario.model_spec,
            "tasks": [entry["task"] for entry in scenario.tasks],
        },
        "checks": rows,
        "summary": {
            "total": len(rows),
            "passed": passed,
            "failed": len(rows) - passed,
        },
    }
    return report


def write_report(report: dict, path: str):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecs-lab",
        description="scenario-driven verification of the model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write a report")
    run_p.add_argument("--scenario", required=True, help="scenario JSON path")
    run_p.add_argument("--report", required=True, help="report JSON output path")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    args = parser.parse_args(argv)

    if args.command == "run":
        if "ECS_LAB_TOL_SCALE" in os.environ:
            print("ECS_LAB_TOL_SCALE is not supported; budgets are fixed", file=sys.stderr)
            return 2
        try:
            scenario = Scenario.load(args.scenario, seed_override=args.seed)
            report = run_scenario(scenario)
        except ScenarioError as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # pragma: no cover - defensive
            print(f"internal error: {exc!r}", file=sys.stderr)
            return 3
        try:
            write_report(report, args.report)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 3
        summary = report["summary"]
        status = "PASS" if summary["failed"] == 0 else "FAIL"
        print(f"{status}: {summary['passed']}/{summary['total']} checks passed")
        return 0 if summary["failed"] == 0 else 1
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())

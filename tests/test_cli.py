"""Command line runner: exit codes, report schema, determinism and seed
behavior."""

import copy
import json
import math
import re
import subprocess
import sys
import tracemalloc
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import ecs_lab.cli as cli
import ecs_lab.model_geometry as model_geometry
from ecs_lab.cli import TASK_PARAMS, build_model, main
from ecs_lab.geodesics import energy_report, geodesic, t_affinity_report
from ecs_lab.homogeneous import HomogeneousModel, sample_isometries
from ecs_lab.isometry_group import (
    IsoElement,
    iso_apply,
    iso_compose,
    iso_distance,
    iso_identity,
    iso_inverse,
    omega_scaling_residual,
    pullback_residual,
    s_membership,
    sigma_det_residual,
    straightening_element,
)
from ecs_lab.model_geometry import random_chart_point
from ecs_lab.solution_space import CauchyFlow, IntegrationError, random_solution

SCENARIOS = Path(__file__).parent.parent / "scenarios"

HOMOGENEOUS = {
    "schema_version": "1",
    "seed": 7,
    "model": {
        "gram": [[0.0, 1.0], [1.0, 0.0]],
        "A": [[0.0, 1.0], [0.0, 0.0]],
        "profile": {"kind": "homogeneous", "c": [0.3, 0.0]},
        "interval": [0, None],
    },
    "tasks": [
        {"task": "verify-model", "points": 4},
        {"task": "spectra", "q_values": [2.0]},
        {"task": "geodesic", "count": 3, "tau": 1.0},
        {"task": "classify-group", "q_values": [1.0, 2.0]},
    ],
}

POLYNOMIAL_MODEL = {
    "gram": [[1.0, 0.0], [0.0, 1.0]],
    "A": [[1.0, 0.0], [0.0, -1.0]],
    "profile": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
}

# Homogeneous profiles without the dilation structure: A is not nilpotent,
# or the interval is not (0, inf). Their group elements all have q = 1.
WITHOUT_DILATIONS = {
    "diagonal-A": {**HOMOGENEOUS["model"], "A": [[1.0, 0.0], [0.0, -1.0]],
                   "gram": [[1.0, 0.0], [0.0, 1.0]]},
    "finite-interval": {**HOMOGENEOUS["model"], "interval": [0.5, 3]},
}


# The rows of the group tasks that no flow lookup feeds.
FLOW_FREE_ROWS = {
    "isometry-check": {"isometry.membership"},
    "spectra": {"spectra.generator-eigenvalues", "spectra.kernel-dimension"},
    "tcp-check": {"heisenberg.commutator-central"},
}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, extra_args=(), report_name="report.json"):
    scenario = write_scenario(tmp_path, payload)
    report = tmp_path / report_name
    code = main(["run", "--scenario", scenario, "--report", str(report),
                 *extra_args])
    data = json.loads(report.read_text()) if report.exists() else None
    return code, data


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, report = run_cli(tmp_path, HOMOGENEOUS)
        assert code == 0
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] == len(report["checks"])

    def test_missing_file_is_two(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "absent.json"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_invalid_json_is_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["run", "--scenario", str(path),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_unknown_task_is_two(self, tmp_path):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "no-such-task"}]
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    def test_invalid_model_is_two(self, tmp_path):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["model"]["A"] = [[1.0, 0.0], [0.0, 1.0]]    # nonzero trace
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    def test_spectra_on_polynomial_is_two(self, tmp_path):
        payload = {
            "schema_version": "1",
            "seed": 1,
            "model": POLYNOMIAL_MODEL,
            "tasks": [{"task": "spectra"}],
        }
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    def test_dilational_classify_on_polynomial_is_two(self, tmp_path):
        payload = {
            "schema_version": "1",
            "seed": 1,
            "model": POLYNOMIAL_MODEL,
            "tasks": [{"task": "classify-group", "q_values": [2.0]}],
        }
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    def test_nonpositive_q_is_two(self, tmp_path):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "classify-group", "q_values": [-1.0]}]
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    def test_bad_schema_version_is_two(self, tmp_path):
        # Only the string "1" is a schema version; the number 1 is not.
        payload = copy.deepcopy(HOMOGENEOUS)
        for version in ("99", 1):
            payload["schema_version"] = version
            code, _ = run_cli(tmp_path, payload)
            assert code == 2

    def test_unknown_option_is_two(self, tmp_path):
        for option in (("--parallel", "2"), ("--csv", "out.csv")):
            with pytest.raises(SystemExit) as exc:
                run_cli(tmp_path, HOMOGENEOUS, extra_args=option)
            assert exc.value.code == 2

    @pytest.mark.parametrize("task,key,value", [
        ("verify-model", "points", 0),
        ("geodesic", "count", 0),
        ("isometry-check", "elements", -3),
        ("isometry-check", "elements", 1),
        ("isometry-check", "points", 0),
        ("appendix-a", "count", 0),
        ("appendix-b", "count", 0),
        ("tcp-check", "classes", 0),
        ("tcp-check", "per_class", 0),
        ("tcp-check", "per_class", 1),
        ("tcp-check", "round_trips", 0),
        ("tcp-check", "agreement_pairs", 0),
        ("tcp-check", "triples", 0),
    ])
    def test_count_below_one_is_two(self, tmp_path, task, key, value):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": task, key: value}]
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    @pytest.mark.parametrize("task", ["spectra", "classify-group"])
    def test_empty_q_values_is_two(self, tmp_path, task):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": task, "q_values": []}]
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    @pytest.mark.parametrize("task,key,value", [
        ("verify-model", "points", 2.7),
        ("verify-model", "points", 2.0),
        ("verify-model", "points", True),
        ("geodesic", "count", "abc"),
        ("geodesic", "count", None),
        ("isometry-check", "elements", [4]),
        ("tcp-check", "per_class", "3"),
    ])
    def test_non_integer_count_is_two(self, tmp_path, task, key, value):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": task, key: value}]
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    @pytest.mark.parametrize("task", ["spectra", "classify-group"])
    @pytest.mark.parametrize("q_values", [
        2.0, [[2.0]], [float("nan")], [float("inf")], ["2"], [True], [0.0], None,
    ])
    def test_bad_q_values_is_two(self, tmp_path, task, q_values):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": task, "q_values": q_values}]
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    @pytest.mark.parametrize("tau", [
        float("nan"), float("inf"), -float("inf"), 0, 0.0, "2", None, True,
    ])
    def test_bad_tau_is_two(self, tmp_path, tau):
        # a nonfinite span never finishes integrating; a zero one is vacuous
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "geodesic", "count": 1, "tau": tau}]
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    @pytest.mark.parametrize("tolerances", [
        [1], "abc", 1e-3, {"geodesic.energy": "abc"}, {"geodesic.energy": None},
        {"geodesic.energy": True}, {"geodesic.energy": float("nan")},
        {"geodesic.energy": float("inf")}, {"geodesic.energy": 0.0},
        {"geodesic.energy": -1e-8},
        # a well-formed override that would turn a known failure into a pass
        {"isometry.action-compatibility": 1.0, "isometry.inverse": 1.0},
        {"no.such.anchor": 1.0},
    ])
    def test_bad_tolerances_is_two(self, tmp_path, monkeypatch, tolerances):
        # Budgets are fixed, so a scenario that carries a "tolerances" object
        # is refused, whatever it holds, before any task runs.
        ran = []
        monkeypatch.setitem(cli.TASK_RUNNERS, "verify-model",
                            lambda *args: ran.append(1) or [])
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "verify-model", "points": 1}]
        payload["tolerances"] = tolerances
        code, report = run_cli(tmp_path, payload)
        assert code == 2 and report is None and not ran

    @pytest.mark.parametrize("interval", [
        ["a", None], [0, "1"], [True, None], [0, [1]], [0, float("nan")],
        [0, float("inf")], [0], "0, inf",
    ])
    def test_bad_interval_is_two(self, tmp_path, interval):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["model"]["interval"] = interval
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    @pytest.mark.parametrize("entry", [
        {"task": "classify-group", "q_valuez": [2.0]},
        {"task": "verify-model", "point": 4},
        {"task": "geodesic", "count": 1, "tau": 1.0, "seed": 3},
        {"task": ["geodesic"]},
        {"task": None},
        {"task": "geodesic", "count": 0},
        {"task": "geodesic", "count": 1, "tau": 0.0},
        {"task": "isometry-check", "elements": 1},
        {"task": "tcp-check", "triples": True},
        {"task": "spectra", "q_values": [2.0, -1.0]},
        {"task": "classify-group", "q_values": []},
        {"task": "appendix-a", "count": 2.5},
    ])
    def test_bad_task_entry_is_two_before_any_task_runs(self, tmp_path, monkeypatch,
                                                         entry):
        ran = []
        monkeypatch.setitem(cli.TASK_RUNNERS, "verify-model",
                            lambda *args: ran.append(1) or [])
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "verify-model", "points": 1}, entry]
        code, _ = run_cli(tmp_path, payload)
        assert code == 2 and not ran

    @pytest.mark.parametrize("profile", [
        {"kind": "homogeneous", "c": float("nan")},
        {"kind": "homogeneous", "c": [float("nan"), 0.0]},
        {"kind": "homogeneous", "c": "nan"},
        {"kind": "homogeneous", "c": "1e999j"},
        {"kind": "homogeneous", "c": 1e200},
        {"kind": "homogeneous", "c": [1.5]},
        {"kind": "homogeneous", "c": [1.5, 0, 7]},
        {"kind": "homogeneous", "c": [1.5, "0"]},
        {"kind": "homogeneous", "c": True},
        {"kind": "homogeneous", "c": "abc"},
        {"kind": "homogeneous", "c": None},
        {"kind": "homogeneous"},
        {"kind": "polynomial", "coefficients": [0.0, float("nan")]},
        {"kind": "polynomial", "coefficients": [0, 1e999]},
        {"kind": "polynomial", "coefficients": ["0", "1"]},
        {"kind": "polynomial", "coefficients": [False, True]},
        {"kind": "polynomial", "coefficients": 1.0},
        {"kind": "sum-of-powers", "terms": [[1.0, float("nan")]]},
        {"kind": "sum-of-powers", "terms": [[1.0]]},
        {"kind": "sum-of-powers", "terms": [[1.0, 1.0, 2.0]]},
        {"kind": "sum-of-powers", "terms": [1.0, 1.0]},
        {"kind": ["polynomial"], "coefficients": [0.0, 1.0]},
        3, None, [0.3],
        {"kind": "sum_of_powers", "terms": [[1.0, -2.0], [3.0, 0.5]]},
    ])
    def test_bad_profile_is_two(self, tmp_path, profile):
        # NaN values used to pass with every "below" row at 0.0 (and hang a
        # geodesic task); short or long c, overflowing coefficients, a
        # non-object profile and the undocumented "sum_of_powers" spelling
        # used to exit 3 or be accepted
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["model"]["profile"] = profile
        payload["tasks"] = [{"task": "verify-model", "points": 2},
                            {"task": "geodesic", "count": 2, "tau": 1.0}]
        code, report = run_cli(tmp_path, payload)
        assert code == 2 and report is None

    def test_overflowing_curvature_fails_its_rows(self, tmp_path):
        # finite coefficients whose curvature overflows: NaN residuals fail
        # their rows instead of dropping out of the worst-case fold
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["model"]["profile"] = {"kind": "polynomial",
                                       "coefficients": [0, 1e300, 0, 1e300]}
        payload["tasks"] = [{"task": "verify-model", "points": 3}]
        with np.errstate(all="ignore"):
            code, report = run_cli(tmp_path, payload)
        failed = {row["anchor"] for row in report["checks"] if not row["pass"]}
        assert code == 1
        assert {"curvature.parallel-weyl", "curvature.nonparallel-riemann",
                "curvature.weyl-nonzero"} <= failed

    @pytest.mark.parametrize("task", ["geodesic", "appendix-a", "appendix-b",
                                      "isometry-check", "spectra", "tcp-check"])
    def test_overflowing_profile_fails_ode_rows(self, tmp_path, task):
        # finite profiles on which every integration fails: each failed
        # sample contributes NaN, so the task's rows read "nan" and fail
        # instead of ending the run with an internal error. The group tasks
        # run on homogeneous_m2 with c = 1e20, whose flow fails in both
        # directions; the rows that need no flow keep their values.
        if task in FLOW_FREE_ROWS:
            payload = json.loads((SCENARIOS / "homogeneous_m2.json").read_text())
            payload["model"]["profile"]["c"] = 1e20
            payload["tasks"] = [{"task": task}]
        else:
            payload = json.loads((SCENARIOS / "polynomial_m3.json").read_text())
            payload["model"]["profile"]["coefficients"] = [0, 1e300, 0, 1e300]
            payload["tasks"] = [{"task": task, "count": 1}]
        with np.errstate(all="ignore"):
            code, report = run_cli(tmp_path, payload)
        assert code == 1
        flow_rows = [row for row in report["checks"]
                     if row["anchor"] not in FLOW_FREE_ROWS.get(task, ())]
        assert flow_rows
        assert all(row["value"] == "nan" and not row["pass"] for row in flow_rows)
        if task == "appendix-b":
            # strict JSON: NaN in detail is written as "nan" too
            assert report["checks"][0]["detail"] == {"pullback": "nan", "axis": "nan"}

    def test_overflowed_flow_values_fail_spectra_rows(self, tmp_path, monkeypatch):
        # A flow segment can succeed with values so large that sigma_q
        # overflows (homogeneous_m2 with c = 1e3 does, after seconds of
        # integration). Its eigenvalues then raise LinAlgError, and the rows
        # read "nan" and fail instead of ending the run.
        monkeypatch.setattr(CauchyFlow, "matrix",
                            lambda self, t: np.full((2 * self.m, 2 * self.m), np.inf))
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "spectra", "q_values": [2.0]}]
        with np.errstate(all="ignore"):
            code, report = run_cli(tmp_path, payload)
        assert code == 1
        flow_rows = [row for row in report["checks"]
                     if row["anchor"] not in FLOW_FREE_ROWS["spectra"]]
        assert [row["value"] for row in flow_rows] == ["nan"] * 3

    @pytest.mark.parametrize("profile", [
        {"kind": "homogeneous", "c": 0.3},
        {"kind": "homogeneous", "c": "0.7j"},
        {"kind": "homogeneous", "c": [0.0, 0.7]},
        {"kind": "polynomial", "coefficients": [0, 1, 0, 0.1]},
        {"kind": "sum-of-powers", "terms": [[1.0, 1.0], [2, -2]]},
    ])
    def test_documented_profile_forms_are_accepted(self, tmp_path, profile):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["model"]["profile"] = profile
        payload["tasks"] = [{"task": "verify-model", "points": 2},
                            {"task": "geodesic", "count": 2, "tau": 1.0}]
        code, report = run_cli(tmp_path, payload)
        assert code == 0 and report["summary"]["failed"] == 0

    @pytest.mark.parametrize("key,value", [
        ("gram", [["0", "1"], ["1", "0"]]),
        ("gram", [[float("nan"), 1.0], [1.0, 0.0]]),
        ("gram", [0.0, 1.0]),
        ("A", [[False, True], [False, False]]),
        ("A", [[0.0, float("inf")], [0.0, 0.0]]),
        ("A", "[[0, 1], [0, 0]]"),
    ])
    def test_bad_model_matrix_is_two(self, tmp_path, key, value):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["model"][key] = value
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    @pytest.mark.parametrize("where,key,value", [
        ("scenario", "tolerance", {"geodesic.energy": 1e-30}),
        ("scenario", "task", "verify-model"),
        ("model", "intervall", [0, None]),
        ("model", "c", 0.3),
        ("profile", "coefficients", [0.0, 1.0]),
        ("profile", "C", 0.3),
        ("scenario", "tolerances", {"geodesic.energy": 1e-3}),
    ])
    def test_unknown_key_is_two(self, tmp_path, where, key, value):
        # a misspelled "tolerance" used to run with the default budgets, and
        # "tolerances" is unknown too now that budgets are fixed
        payload = copy.deepcopy(HOMOGENEOUS)
        target = {"scenario": payload, "model": payload["model"],
                  "profile": payload["model"]["profile"]}[where]
        target[key] = value
        code, report = run_cli(tmp_path, payload)
        assert code == 2 and report is None

    @pytest.mark.parametrize("name", sorted(WITHOUT_DILATIONS))
    def test_model_without_dilations_samples_q_one(self, tmp_path, name):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["model"] = WITHOUT_DILATIONS[name]
        payload["tasks"] = [{"task": "isometry-check", "elements": 4, "points": 3},
                            {"task": "classify-group", "q_values": [1.0]}]
        code, report = run_cli(tmp_path, payload)
        assert code == 0 and report["summary"]["failed"] == 0
        payload["tasks"] = [{"task": "classify-group", "q_values": [1.0, 2.0]}]
        code, _ = run_cli(tmp_path, payload, report_name="dilational.json")
        assert code == 2

    def test_backward_tau_is_accepted(self, tmp_path):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "geodesic", "count": 2, "tau": -1}]
        code, _ = run_cli(tmp_path, payload)
        assert code == 0

    @pytest.mark.parametrize("seed", ["7", 7.5, True, -1, None])
    def test_bad_seed_is_two(self, tmp_path, seed):
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["seed"] = seed
        code, _ = run_cli(tmp_path, payload)
        assert code == 2

    def test_negative_seed_option_is_two(self, tmp_path):
        code, _ = run_cli(tmp_path, HOMOGENEOUS, extra_args=("--seed", "-1"))
        assert code == 2

    def test_documented_sum_of_powers_spelling(self, tmp_path):
        payload = {
            "schema_version": "1",
            "seed": 1,
            "model": {
                "gram": [[1.0, 0.0], [0.0, 1.0]],
                "A": [[1.0, 0.0], [0.0, -1.0]],
                "profile": {"kind": "sum-of-powers", "terms": [[1.0, 1.0]]},
                "interval": [0.0, None],
            },
            "tasks": [{"task": "verify-model", "points": 2}],
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        assert report["summary"]["failed"] == 0

    def test_sum_of_powers_model_passes_every_row(self, tmp_path):
        # The third profile kind on a model the flow and geodesic tasks can
        # reach: nilpotent A on (0, inf), no dilations.
        payload = {
            "schema_version": "1",
            "seed": 3,
            "model": {
                "gram": [[0.0, 1.0], [1.0, 0.0]],
                "A": [[0.0, 1.0], [0.0, 0.0]],
                "profile": {"kind": "sum-of-powers",
                            "terms": [[1.0, 0.5], [-0.3, 1.5]]},
                "interval": [0.0, None],
            },
            "tasks": [{"task": "verify-model", "points": 3},
                      {"task": "isometry-check", "elements": 4, "points": 3},
                      {"task": "geodesic", "count": 3, "tau": 1.0},
                      {"task": "appendix-a", "count": 2},
                      {"task": "appendix-b", "count": 2}],
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        assert report["summary"] == {"total": 22, "passed": 22, "failed": 0}

    def test_task_crash_is_three(self, tmp_path, monkeypatch):
        def crash(model, params, rng):
            raise RuntimeError("integration failed")

        monkeypatch.setitem(cli.TASK_RUNNERS, "geodesic", crash)
        code, _ = run_cli(tmp_path, HOMOGENEOUS)
        assert code == 3

    def test_failing_checks_are_one(self, tmp_path, monkeypatch):
        # A planted fault: a vanishing Weyl norm fails its "above" row.
        monkeypatch.setattr(cli, "weyl_nonzero_norm", lambda pack: 0.0)
        code, report = run_cli(tmp_path, HOMOGENEOUS)
        assert code == 1
        failed = [row["anchor"] for row in report["checks"] if not row["pass"]]
        assert failed == ["curvature.weyl-nonzero"]

    @pytest.mark.parametrize("raw", ["1.0", "1e-12", "banana", "-2", "inf", "nan"])
    def test_tol_scale_env_is_two(self, tmp_path, monkeypatch, raw):
        # Every budget is fixed in the tolerance table.
        monkeypatch.setenv("ECS_LAB_TOL_SCALE", raw)
        code, _ = run_cli(tmp_path, HOMOGENEOUS)
        assert code == 2


class TestOneSidedIntervals:
    # A half-line interval samples in a window next to its finite end and
    # takes the window's centre as base time; geodesics leave through that
    # end.
    @pytest.mark.parametrize("interval, window", [([0.5, None], (1.0, 3.0)),
                                                  ([None, 1.0], (-1.5, 0.5))])
    def test_polynomial_model_passes_every_row(self, tmp_path, interval, window):
        payload = json.loads((SCENARIOS / "polynomial_m3.json").read_text())
        payload["model"]["interval"] = interval
        payload["tasks"] = [
            {"task": "verify-model", "points": 5},
            {"task": "isometry-check", "elements": 6, "points": 4},
            {"task": "geodesic", "count": 6, "tau": 4},
            {"task": "appendix-a", "count": 2},
            {"task": "appendix-b", "count": 2},
            {"task": "classify-group"},
        ]
        model = build_model(payload["model"])
        assert model.compact_window() == window
        assert model.default_base_t() == sum(window) / 2
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        assert [row["anchor"] for row in report["checks"] if not row["pass"]] == []
        exits = next(row for row in report["checks"]
                     if row["anchor"] == "geodesic.boundary-exit")
        assert exits["detail"]["hits"] >= 1


class TestReportSchema:
    def test_check_row_keys(self, tmp_path):
        _, report = run_cli(tmp_path, HOMOGENEOUS)
        required = {"task", "name", "anchor", "value", "tolerance",
                    "direction", "pass"}
        for row in report["checks"]:
            assert required <= set(row)
            assert set(row) <= required | {"detail"}
            assert row["direction"] in ("below", "above")
            assert isinstance(row["pass"], bool)

    def test_report_header(self, tmp_path):
        _, report = run_cli(tmp_path, HOMOGENEOUS)
        assert set(report) == {"schema_version", "tool_version", "environment",
                               "scenario", "checks", "summary"}
        assert report["schema_version"] == "1"
        assert report["scenario"]["seed"] == 7
        assert report["scenario"]["tasks"] == [
            "verify-model", "spectra", "geodesic", "classify-group"]
        assert {"python", "numpy", "scipy", "platform"} <= set(report["environment"])

    def test_rows_carry_the_table_budgets(self, tmp_path):
        _, report = run_cli(tmp_path, HOMOGENEOUS)
        for row in report["checks"]:
            assert row["tolerance"] == cli.TOLERANCES[row["anchor"]]


class TestWorstRunDetail:
    def test_geodesic_rows_replay_their_worst_run(self, tmp_path):
        # The task draws from default_rng([seed, task index]); the detail
        # names the run, which replays alone to the reported value.
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "geodesic", "count": 4, "tau": 2.0}]
        _, report = run_cli(tmp_path, payload)
        model = build_model(payload["model"])

        def affinity(res):
            aff = t_affinity_report(res)
            return aff["residual"] / max(aff["t_range"], 1.0)

        measures = {
            "geodesic.energy": lambda res: energy_report(model, res)["drift_rel"],
            "geodesic.t-affine": affinity,
        }
        for anchor, measure in measures.items():
            row = next(r for r in report["checks"] if r["anchor"] == anchor)
            detail = row["detail"]
            rng = np.random.default_rng([payload["seed"], 0])
            for _ in range(detail["worst_index"] + 1):
                pt = random_chart_point(model, rng)
                vel = rng.standard_normal(model.dim)
            assert (pt.t, vel[0]) == (detail["t0"], detail["dt0"])
            assert measure(geodesic(model, pt, vel, (0.0, 2.0))) == row["value"]

    def test_isometry_rows_replay_their_worst_element(self, tmp_path):
        # The task draws its elements, then its points, from
        # default_rng([seed, task index]); the detail names the element (for
        # action-compatibility, g of the pair (g, h) = elements k, k + 1) and
        # the point, which replay alone to the reported value.
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "isometry-check", "elements": 6, "points": 4}]
        _, report = run_cli(tmp_path, payload)
        rows = {r["anchor"]: r for r in report["checks"]}
        model = build_model(payload["model"])
        rng = np.random.default_rng([payload["seed"], 0])
        elems = sample_isometries(model, rng, 6)
        pts = [random_chart_point(model, rng).coords() for _ in range(4)]

        def witness(anchor):
            detail = rows[anchor]["detail"]
            return rows[anchor], elems[detail["worst_element"]], \
                pts[detail.get("worst_point", 0)], detail

        row, g, _, _ = witness("isometry.membership")
        assert max(s_membership(model, [g.sigma])[0].values()) == row["value"]
        row, g, _, _ = witness("isometry.determinant-power")
        assert sigma_det_residual(model, g.sigma) == row["value"]
        row, g, x, _ = witness("isometry.pullback")
        assert pullback_residual(model, g, x)[0] == row["value"]
        # ... and the named witness is the worst one.
        assert max(np.max(pullback_residual(model, e, np.array(pts))[0])
                   for e in elems) == row["value"]

        def inverse_law(g):
            g_inv, ident = iso_inverse(model, g), iso_identity(model)
            return max(iso_distance(iso_compose(model, g, g_inv), ident),
                       iso_distance(iso_compose(model, g_inv, g), ident))

        row, g, _, detail = witness("isometry.inverse")
        assert set(detail) == {"worst_element"}
        assert inverse_law(g) == row["value"] == max(map(inverse_law, elems))

        row, g, x, detail = witness("isometry.action-compatibility")
        h = elems[detail["worst_element"] + 1]
        composed = iso_apply(model, iso_compose(model, g, h), x)
        stepwise = iso_apply(model, g, iso_apply(model, h, x))
        assert np.max(np.abs(composed - stepwise)) == row["value"]
        assert detail["scale"] == np.max(np.abs(composed))


class TestPlantedFaults:
    def test_shifted_inverse_fails_inverse_row(self, tmp_path, monkeypatch):
        # The inverse row measures g g^-1 = g^-1 g = id; an inverse whose r is
        # off by 1e-6 moves the r of g g^-1 by 1e-6 / q and of g^-1 g by 1e-6.
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "isometry-check", "elements": 4, "points": 3}]

        def inverse_row(report):
            return next(r for r in report["checks"] if r["anchor"] == "isometry.inverse")

        code, report = run_cli(tmp_path, payload)
        assert code == 0 and inverse_row(report)["pass"]

        def shifted_inverse(model, g):
            inv = iso_inverse(model, g)
            return IsoElement(inv.sigma, inv.r + 1e-6, inv.u)

        monkeypatch.setattr(cli, "iso_inverse", shifted_inverse)
        code, report = run_cli(tmp_path, payload, report_name="faulty.json")
        assert code == 1
        row = inverse_row(report)
        assert not row["pass"]
        rng = np.random.default_rng([payload["seed"], 0])
        g = sample_isometries(build_model(payload["model"]), rng, 4)[
            row["detail"]["worst_element"]]
        assert row["value"] >= 1e-6 * min(1.0, 1.0 / g.sigma.q)
        assert [r["anchor"] for r in report["checks"] if not r["pass"]] == [
            "isometry.inverse"]

    @pytest.mark.parametrize("fault", ["r", "u"])
    def test_perturbed_straightening_fails_appendix_b(self, tmp_path, monkeypatch,
                                                      fault):
        # Any Heisenberg element is an isometry, so only the axis part of the
        # row sees a straightening element whose r or u is off.
        payload = copy.deepcopy(HOMOGENEOUS)
        payload["tasks"] = [{"task": "appendix-b", "count": 2}]
        code, report = run_cli(tmp_path, payload)
        assert code == 0 and report["checks"][0]["pass"]

        def perturbed(model, point, vdot0):
            g = straightening_element(model, point, vdot0)
            if fault == "r":
                return IsoElement(g.sigma, g.r + 1e-3, g.u)
            return IsoElement(g.sigma, g.r, g.u + 1e-3)

        monkeypatch.setattr(cli, "straightening_element", perturbed)
        code, report = run_cli(tmp_path, payload, report_name="faulty.json")
        assert code == 1
        [row] = report["checks"]
        assert row["anchor"] == "reconstruction.pullback-identity"
        assert not row["pass"]
        assert row["detail"]["pullback"] < 1e-12
        assert row["detail"]["axis"] > 1e-4
        if fault == "r":
            assert row["detail"]["axis"] == pytest.approx(1e-3, rel=1e-6)

    @pytest.mark.parametrize("name,scale", [
        ("homogeneous_m2", 1.5),
        ("polynomial_m3", 1.5),
        ("polynomial_m3", 1.0 + 1e-6),
    ])
    def test_wrong_flow_fails_appendix_a(self, tmp_path, monkeypatch, name, scale):
        # The endpoint curve comes from the flow and the terminal row
        # integrates the geodesic equations, so a flow that solves
        # u'' = (f + scale A) u fails the row. (At 1 + 1e-6, homogeneous_m2's
        # draws read 8.8e-7, just under the budget.)
        payload = json.loads((SCENARIOS / f"{name}.json").read_text())
        payload["tasks"] = [t for t in payload["tasks"] if t["task"] == "appendix-a"]
        code, report = run_cli(tmp_path, payload)
        assert code == 0

        def rhs(self, t, y):
            m = self.m
            M = y.reshape(2 * m, 2 * m)
            fa = self.model.profile.value(t) * np.eye(m) + scale * self.model.A
            return np.vstack([M[m:], fa @ M[:m]]).ravel()

        monkeypatch.setattr(CauchyFlow, "_rhs", rhs)
        code, report = run_cli(tmp_path, payload, report_name="faulty.json")
        assert code == 1
        assert [row["anchor"] for row in report["checks"] if not row["pass"]] == [
            "variation.terminal-geodesic"]


    @pytest.mark.parametrize("name", ["homogeneous_m2", "polynomial_m3"])
    def test_scaled_third_jet_fails_ricci_profile(self, tmp_path, monkeypatch, name):
        # Scaling the third metric derivatives keeps nabla R pure trace, so
        # nabla W stays 0 and Ric does not read them; only the nabla Ric
        # part of the Ricci row compares them with a closed form.
        payload = json.loads((SCENARIOS / f"{name}.json").read_text())
        payload["tasks"] = [t for t in payload["tasks"] if t["task"] == "verify-model"]
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        metric_jet = model_geometry.metric_jet

        def scaled(model, point):
            g, dg, ddg, dddg = metric_jet(model, point)
            return g, dg, ddg, dddg * (1 + 1e-6)

        monkeypatch.setattr(model_geometry, "metric_jet", scaled)
        code, report = run_cli(tmp_path, payload, report_name="faulty.json")
        assert code == 1
        [row] = [r for r in report["checks"] if not r["pass"]]
        assert row["anchor"] == "curvature.ricci-profile"
        assert row["detail"]["ricci"] < 1e-12
        assert row["detail"]["nabla_ricci"] > 1e-7


class TestLargeC:
    def test_spectra_kernel_dimension_at_c_100(self, tmp_path):
        # B's singular values grow like c^2, so a kernel counted against the
        # largest of them took the unit ones for a kernel (2.0 at c = 100)
        payload = json.loads((SCENARIOS / "homogeneous_m2.json").read_text())
        payload["model"]["profile"]["c"] = [100.0, 0.0]
        payload["tasks"] = [{"task": "spectra", "q_values": [2.0]}]
        _, report = run_cli(tmp_path, payload)
        rows = [row for row in report["checks"]
                if row["anchor"] == "spectra.kernel-dimension"]
        assert len(rows) == 1 and rows[0]["pass"] and rows[0]["value"] == 0.0

    @pytest.mark.parametrize("c,task", [(30.0, "appendix-b"), (300.0, "appendix-a")])
    def test_singular_flow_matrix_fails_the_rows(self, tmp_path, c, task):
        # At large c the flow matrix that straightening_element solves with
        # is singular in double precision. The sample fails its rows, as in
        # the group tasks, and the run exits 1 instead of 3.
        payload = json.loads((SCENARIOS / "homogeneous_m2.json").read_text())
        payload["model"]["profile"]["c"] = [c, 0.0]
        payload["tasks"] = [{"task": task, "count": 1}]
        code, report = run_cli(tmp_path, payload)
        assert code == 1
        assert report["checks"] and not any(row["pass"] for row in report["checks"])


class TestFlowLookups:
    def test_spectra_looks_each_dilation_up_once(self, monkeypatch):
        # The three dilation rows at one q act through one element, which
        # keeps its matrix: one flow lookup per q (three at the parent).
        hm = HomogeneousModel.standard(2, 0.3)
        calls = []
        lookup = CauchyFlow.matrix
        monkeypatch.setattr(CauchyFlow, "matrix",
                            lambda self, t: calls.append(t) or lookup(self, t))
        q_values = [0.25, 0.5, 2.0, 4.0]
        rows = cli.task_spectra(hm.model, {"q_values": q_values},
                                np.random.default_rng(0))
        assert len(rows) == 2 + 3 * len(q_values)
        assert all(row["pass"] for row in rows)
        assert calls == [1.0 / q for q in q_values]

    def test_tcp_check_makes_no_identity_lookup(self, roster, monkeypatch):
        # The central-commutator loop composes and inverts Heisenberg
        # elements, whose sigma fixes the base time; the flow there is the
        # identity, so none of them looks the flow up.
        at_base = []
        matrices = CauchyFlow.matrices

        def recording(self, ts):
            at_base.append(bool(np.all(np.asarray(ts) == self.base_t)))
            return matrices(self, ts)

        monkeypatch.setattr(CauchyFlow, "matrices", recording)
        for entry in roster[1::2]:
            cli.task_tcp_check(entry.model, cli._task_params({"task": "tcp-check"}),
                               np.random.default_rng(11))
        assert at_base and not any(at_base)

    def test_tcp_check_evaluates_the_criterion_on_agreement_pairs_only(
            self, roster, monkeypatch):
        # Only the agreement row compares the two commutation routes; the
        # within-class, across-class and transitivity rows read the
        # commutator alone.
        calls = []
        criterion = cli.commute_criterion_residual
        monkeypatch.setattr(cli, "commute_criterion_residual",
                            lambda *args: calls.append(1) or criterion(*args))
        params = cli._task_params({"task": "tcp-check"})
        for entry in roster[1::2]:
            calls.clear()
            rows = cli.task_tcp_check(entry.model, params, np.random.default_rng(11))
            assert len(calls) == params["agreement_pairs"] == 30
            assert all(row["pass"] for row in rows), entry.name


def per_element_isometry_values(model, n_elements, n_points, rng):
    """isometry-check's values computed one element at a time with the
    one-element functions, from the task's draws in the task's order: each
    element's checks stop at its first failing lookup."""
    elems = sample_isometries(model, rng, n_elements)
    pts = np.array([random_chart_point(model, rng).coords() for _ in range(n_points)])
    n_pairs = n_elements // 2
    values = {"member": np.zeros(n_elements), "omega": np.full(n_elements, np.nan),
              "det": np.full(n_elements, np.nan), "inverse": np.full(n_elements, np.nan),
              "pull": np.full((n_elements, n_points), np.nan),
              "compat": np.full((n_pairs, n_points), np.nan),
              "composed": np.full((n_pairs, n_points, model.dim), np.nan)}
    images = np.full((n_elements, n_points, model.dim), np.nan)
    ident = iso_identity(model)
    for k, g in enumerate(elems):
        values["member"][k] = max(s_membership(model, [g.sigma])[0].values())
        pairs = [(random_solution(model, rng), random_solution(model, rng))
                 for _ in range(3)]
        with suppress(IntegrationError):
            values["omega"][k] = omega_scaling_residual(model, g.sigma, pairs)
            values["det"][k] = sigma_det_residual(model, g.sigma)
            values["pull"][k], images[k] = pullback_residual(model, g, pts)
            g_inv = iso_inverse(model, g)
            values["inverse"][k] = max(iso_distance(iso_compose(model, g, g_inv), ident),
                                       iso_distance(iso_compose(model, g_inv, g), ident))
    for i in range(n_pairs):
        g, h = elems[2 * i], elems[2 * i + 1]
        if np.isnan(images[2 * i + 1]).any():
            continue
        with suppress(IntegrationError):
            composed = values["composed"][i] = iso_apply(model, iso_compose(model, g, h), pts)
            values["compat"][i] = np.max(np.abs(composed - iso_apply(model, g, images[2 * i + 1])),
                                         axis=-1)
    return values


class TestIsometryBlocks:
    """isometry-check moves its elements' points stacked, one flow lookup per
    block of max(1, 2**14 // (points (2m)^2)) elements for each of the
    sigma matrices, the pullbacks and the inverse sigmas, and the same per
    block of pairs for each side of the pairs."""

    AC05 = {"task": "isometry-check", "elements": 50, "points": 20}

    @staticmethod
    def block_size(model, points):
        return max(1, cli._BLOCK_DOUBLES // (points * (2 * model.m) ** 2))

    def test_lookups_per_block(self, roster, monkeypatch):
        # Per element block one lookup for the sigma matrices, one for the
        # pullbacks and one for the inverse sigmas, and per pair block one
        # for each side of the pairs; the homogeneous models need them all.
        # On the polynomial models every sigma fixes the base time.
        calls = []
        matrices = CauchyFlow.matrices
        monkeypatch.setattr(CauchyFlow, "matrices",
                            lambda self, ts: calls.append(ts) or matrices(self, ts))
        for entry in roster:
            model = entry.model
            calls.clear()
            cli.task_isometry_check(model, cli._task_params(self.AC05),
                                    np.random.default_rng(11))
            blocks = math.ceil(50 / self.block_size(model, 20))
            assert len(calls) <= 1 + 4 * blocks
            assert entry.hm is None or len(calls) == 1 + 4 * blocks

    def test_values_equal_a_per_element_evaluation(self, roster):
        for entry in roster:
            model = entry.model
            stacked = cli._isometry_values(model, 50, 20, np.random.default_rng(11))
            alone = per_element_isometry_values(model, 50, 20, np.random.default_rng(11))
            assert stacked.keys() == alone.keys()
            for key in stacked:
                assert np.array_equal(stacked[key], alone[key]), (entry.name, key)

    @pytest.mark.parametrize("cut,partial", [(2.6, ("pull", "compat")),
                                             (1.5, ("omega", "det"))])
    def test_partial_flow_failure_fails_only_its_elements(self, roster, monkeypatch,
                                                          cut, partial):
        # Lookups past t = cut raise. At 2.6 the pullbacks of 6 of 12
        # elements and two of the six pairs fail; at 1.5 the sigma lookups
        # of 3 elements fail (and every pullback). A block that fails runs
        # again one element at a time, so exactly the elements that fail
        # alone read NaN, and the others keep their values.
        model = roster[3].model
        monkeypatch.setattr(cli, "_BLOCK_DOUBLES", 3 * 2 * (2 * model.m) ** 2)
        matrices = CauchyFlow.matrices

        def failing(self, ts):
            if np.max(ts) > cut:
                raise IntegrationError("planted failure")
            return matrices(self, ts)

        monkeypatch.setattr(CauchyFlow, "matrices", failing)
        sizes = []
        stack = cli.stack_elements
        monkeypatch.setattr(cli, "stack_elements",
                            lambda elems: sizes.append(len(elems)) or stack(elems))
        stacked = cli._isometry_values(model, 12, 2, np.random.default_rng(78))
        alone = per_element_isometry_values(model, 12, 2, np.random.default_rng(78))
        for key in stacked:
            assert np.array_equal(stacked[key], alone[key], equal_nan=True), key
        for key in partial:
            failed = np.isnan(stacked[key]).reshape(len(stacked[key]), -1).any(axis=1)
            assert 0 < failed.sum() < len(failed), key
        assert max(sizes) == 3 and 1 in sizes

    def test_inverse_failure_fails_only_its_inverse(self, roster, monkeypatch):
        # Inverses that fail after their block's sigma lookup and pullback got
        # through: the block runs again one element at a time, so only those
        # inverses read NaN and every other value stays. A planted time cut
        # cannot single the inverses out, since the reference looks sigmas up
        # one element at a time and the task one block at a time.
        model = roster[3].model
        monkeypatch.setattr(cli, "_BLOCK_DOUBLES", 3 * 2 * (2 * model.m) ** 2)
        clean = cli._isometry_values(model, 12, 2, np.random.default_rng(78))
        assert not any(np.isnan(values).any() for values in clean.values())
        inverse = iso_inverse

        def failing(model, g):
            if g.sigma.q > 1.3:
                raise IntegrationError("planted failure")
            return inverse(model, g)

        monkeypatch.setattr(cli, "iso_inverse", failing)
        monkeypatch.setattr(sys.modules[__name__], "iso_inverse", failing)
        sizes = []
        stack = cli.stack_elements
        monkeypatch.setattr(cli, "stack_elements",
                            lambda elems: sizes.append(len(elems)) or stack(elems))
        stacked = cli._isometry_values(model, 12, 2, np.random.default_rng(78))
        alone = per_element_isometry_values(model, 12, 2, np.random.default_rng(78))
        for key in stacked:
            assert np.array_equal(stacked[key], alone[key], equal_nan=True), key
        failed = np.isnan(stacked["inverse"])
        assert 0 < failed.sum() < len(failed)
        assert np.array_equal(stacked["inverse"][~failed], clean["inverse"][~failed])
        for key in clean.keys() - {"inverse"}:
            assert np.array_equal(stacked[key], clean[key]), key
        assert max(sizes) == 3 and 1 in sizes

    @pytest.mark.parametrize("m", [5, 16])
    def test_peak_memory_stays_bounded(self, monkeypatch, m):
        # Stacking adds no more than eight block budgets of doubles (1 MB) to
        # the peak of one element at a time, as m grows: 0.33 -> 0.76 MB at
        # m = 5 and 1.71 -> 1.71 MB at m = 16, where a block holds one
        # element. Blocks four times as large read 2.18 and 3.30 MB.
        model = HomogeneousModel.standard(m, 0.25).model
        params = cli._task_params(self.AC05)

        def traced_peak():
            tracemalloc.start()
            try:
                cli.task_isometry_check(model, params, np.random.default_rng(5))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cli.task_isometry_check(model, params, np.random.default_rng(5))  # the flow
        stacked = traced_peak()
        monkeypatch.setattr(cli, "_BLOCK_DOUBLES", 1)
        one_at_a_time = traced_peak()
        assert stacked <= one_at_a_time + 8 * 8 * 2 ** 14


class TestNoVacuousPass:
    def test_transitivity_with_every_premise_failing_fails(self, tmp_path):
        # At m = 12 both sampled triples fail their premise, so no conclusion
        # is tested: the row reads NaN and fails, and says why.
        hm = HomogeneousModel.standard(12, 0.3)
        payload = {
            "schema_version": "1",
            "seed": 7,
            "model": {"gram": hm.model.space.gram.tolist(), "A": hm.model.A.tolist(),
                      "profile": {"kind": "homogeneous", "c": 0.3},
                      "interval": [0.0, None]},
            "tasks": [{"task": "tcp-check", "classes": 2, "per_class": 2,
                       "round_trips": 3, "agreement_pairs": 3, "triples": 2}],
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 1
        [row] = [row for row in report["checks"]
                 if row["anchor"] == "group.transitive-commutation"]
        assert row["value"] == "nan" and not row["pass"]
        assert row["detail"]["premise_failures"] == 2

    @pytest.mark.parametrize("count,tau,hits", [(2, 0.1, 0), (15, 2.0, 2)])
    def test_boundary_row_only_when_a_run_reaches_an_end(self, tmp_path, count, tau,
                                                         hits):
        # On homogeneous_m2's model two short runs stay inside (0, inf), so
        # there is no exit to judge and the row is left out; fifteen runs
        # over tau = 2 plunge twice and keep it.
        payload = json.loads((SCENARIOS / "homogeneous_m2.json").read_text())
        payload["tasks"] = [{"task": "geodesic", "count": count, "tau": tau}]
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        rows = [row for row in report["checks"]
                if row["anchor"] == "geodesic.boundary-exit"]
        assert [row["detail"]["hits"] for row in rows] == ([hits] if hits else [])


class TestDeterminism:
    def test_identical_runs_identical_reports(self, tmp_path):
        scenario = write_scenario(tmp_path, HOMOGENEOUS)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["run", "--scenario", scenario, "--report", str(r1)]) == 0
        assert main(["run", "--scenario", scenario, "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_task_rows_ignore_earlier_tasks(self, tmp_path):
        # Tasks share one model and its flows; a task's rows depend only on
        # the seed and its own index, not on what ran before it.
        checked = [{"task": "isometry-check", "elements": 4, "points": 3},
                   {"task": "tcp-check", "classes": 2, "round_trips": 3,
                    "agreement_pairs": 3, "triples": 2}]
        reports = []
        for first in ({"task": "spectra", "q_values": [0.3, 3.5]},
                      {"task": "verify-model", "points": 1}):
            payload = copy.deepcopy(HOMOGENEOUS)
            payload["tasks"] = [first, *checked]
            _, report = run_cli(tmp_path, payload,
                                report_name=f"{first['task']}.json")
            reports.append([row for row in report["checks"]
                            if row["task"] != first["task"]])
        assert reports[0] and reports[0] == reports[1]

    def test_seed_override_changes_values(self, tmp_path):
        scenario = write_scenario(tmp_path, HOMOGENEOUS)
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--scenario", scenario, "--report", str(r1)]) == 0
        assert main(["run", "--scenario", scenario, "--report", str(r2),
                     "--seed", "123"]) == 0
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        assert d2["scenario"]["seed"] == 123
        v1 = [row["value"] for row in d1["checks"]]
        v2 = [row["value"] for row in d2["checks"]]
        assert v1 != v2


class TestConsoleInvocation:
    def test_module_entry_point(self, tmp_path):
        scenario = write_scenario(tmp_path, HOMOGENEOUS)
        report = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ecs_lab.cli", "run",
             "--scenario", scenario, "--report", str(report)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        assert report.exists()


class TestReadme:
    def test_task_table_knobs_match_task_keys(self):
        # The "main knobs" column of the README task table names exactly the
        # keys each task entry accepts.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z-]+)` \|.*\| (.*) \|$", readme, re.MULTILINE)
        knobs = {task: set(re.findall(r"`(\w+)`", cell)) for task, cell in rows}
        assert knobs == {task: set(params) for task, params in TASK_PARAMS.items()}


class TestShippedScenarios:
    @pytest.mark.parametrize("name", ["homogeneous_m2", "polynomial_m3"])
    def test_scenarios_pass(self, tmp_path, name):
        scenario = SCENARIOS / f"{name}.json"
        report = tmp_path / f"{name}.json"
        code = main(["run", "--scenario", str(scenario),
                     "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["summary"]["failed"] == 0

    def test_every_anchor_is_emitted(self, tmp_path):
        # homogeneous_m2 runs all eight tasks; a table entry that no row
        # emits is a budget that judges nothing.
        assert set(TASK_PARAMS) == {
            entry["task"] for entry in
            json.loads((SCENARIOS / "homogeneous_m2.json").read_text())["tasks"]}
        report = tmp_path / "report.json"
        main(["run", "--scenario", str(SCENARIOS / "homogeneous_m2.json"),
              "--report", str(report)])
        anchors = {row["anchor"] for row in json.loads(report.read_text())["checks"]}
        assert anchors == set(cli.TOLERANCES)

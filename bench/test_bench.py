"""Tests of the benchmark's own parts: every independent checker accepts
the program's output and rejects a planted error; workloads repeat for a
seed; the tracer restores what it patches and counts repeat exactly.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from ecs_lab.cli import build_model, main  # noqa: E402
from ecs_lab.geodesics import geodesic  # noqa: E402
from ecs_lab.homogeneous import HomogeneousModel  # noqa: E402
from ecs_lab.model_geometry import ChartPoint, curvature_at, weyl_tidal_operator  # noqa: E402

N5_HOMOG = workloads.ROSTER["n5-homog"]
N5_POLY = workloads.ROSTER["n5-poly"]


def test_sigma_q_checker_rejects_a_perturbed_matrix():
    hm = HomogeneousModel.from_model(build_model(N5_HOMOG))
    M = hm.sigma_q_matrix(2.0)
    oracles.check_sigma_q(M, 2.0, 3, 1.5, N5_HOMOG["gram"])
    bad = M.copy()
    bad[1, 4] += 1e-5
    with pytest.raises(oracles.CheckFailed):
        oracles.check_sigma_q(bad, 2.0, 3, 1.5, N5_HOMOG["gram"])


def test_sigma_q_checker_rejects_a_wrong_dilation():
    hm = HomogeneousModel.from_model(build_model(N5_HOMOG))
    with pytest.raises(oracles.CheckFailed):
        oracles.check_sigma_q(hm.sigma_q_matrix(2.0), 2.0 * (1 + 1e-5), 3, 1.5,
                              N5_HOMOG["gram"])


def test_t_affine_checker_rejects_a_kink():
    model = build_model(N5_POLY)
    vel = np.array([0.7, -0.2, 0.1, 0.3, -0.4])
    res = geodesic(model, ChartPoint(0.3, 0.1, np.array([0.2, -0.1, 0.5])), vel, (0.0, 1.5))
    oracles.check_t_affine(res.taus, res.t_values(), 0.3, 0.7)
    kinked = res.t_values().copy()
    after = res.taus > 0.8
    kinked[after] += 1e-6 * (res.taus[after] - 0.8)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_t_affine(res.taus, kinked, 0.3, 0.7)


def test_plunge_checker_accepts_the_barrier_and_rejects_a_shift():
    model = build_model(N5_HOMOG)
    t0, vel = 1.3, np.array([-1.2, 0.3, 0.1, 0.0, -0.2])
    res = geodesic(model, ChartPoint(t0, 0.0, np.array([0.1, 0.2, 0.3])), vel, (0.0, 2.0))
    assert res.hit_boundary
    oracles.check_plunge_end(res.boundary_tau, t0, vel[0])
    with pytest.raises(oracles.CheckFailed):
        oracles.check_plunge_end(res.boundary_tau * (1 + 1e-8), t0, vel[0])


@pytest.mark.parametrize("spec", [N5_POLY, N5_HOMOG])
def test_ricci_checker_rejects_a_factor(spec):
    model = build_model(spec)
    t = 1.7
    pt = ChartPoint(t, 0.4, np.array([0.3, -1.1, 0.6]))
    pack = curvature_at(model, pt)
    oracles.check_ricci(pack.ricci, spec["profile"], t, 5)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_ricci(1.01 * pack.ricci, spec["profile"], t, 5)


def test_tidal_checker_rejects_a_perturbed_operator():
    model = build_model(N5_POLY)
    pt = ChartPoint(-0.5, 0.0, np.array([1.0, 0.5, -0.3]))
    tidal = weyl_tidal_operator(model, pt, curvature_at(model, pt))
    oracles.check_tidal(tidal, N5_POLY["A"])
    with pytest.raises(oracles.CheckFailed):
        oracles.check_tidal(tidal + 1e-6 * np.eye(3), N5_POLY["A"])


def test_identical_checker_rejects_one_byte():
    report = b'{"summary": {"failed": 0}}\n'
    oracles.check_identical([report, report, report], "s")
    flipped = bytearray(report)
    flipped[-3] ^= 1
    with pytest.raises(oracles.CheckFailed):
        oracles.check_identical([report, bytes(flipped)], "s")


def test_profile_value_matches_the_program():
    for spec in (N5_POLY, N5_HOMOG, workloads.IMAGINARY["m3-imag"]):
        model = build_model(spec)
        for t in (0.3, 1.0, 2.5):
            assert oracles.profile_value(spec["profile"], t) == \
                pytest.approx(float(model.profile.value(t)), rel=1e-14)


def test_scenarios_repeat_for_a_seed_and_differ_across_seeds():
    for w in workloads.WORKLOADS:
        assert workloads.scenarios(w, 5) == workloads.scenarios(w, 5)
        seeded = [p["seed"] for _, p in workloads.scenarios(w, 5)
                  if p["seed"] != workloads.FIXED_SEED]
        other = [p["seed"] for _, p in workloads.scenarios(w, 6)
                 if p["seed"] != workloads.FIXED_SEED]
        assert seeded and seeded != other


def test_predicted_plunges_match_the_report(tmp_path):
    name, payload = next((n, p) for n, p in workloads.scenarios("ode-campaign", 3)
                         if n == "ode-n4-homog")
    payload = {**payload, "tasks": payload["tasks"][:1]}
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(payload))
    report = tmp_path / "r.json"
    assert main(["run", "--scenario", str(scenario), "--report", str(report)]) == 0
    hits = next(row["detail"]["hits"] for row in json.loads(report.read_text())["checks"]
                if row["anchor"] == "geodesic.boundary-exit")
    assert hits == workloads.PLUNGES


def test_tracer_restores_and_counts_repeat(tmp_path):
    import ecs_lab.cli as cli
    import ecs_lab.geodesics as geodesics
    originals = (cli.curvature_at, geodesics.solve_ivp, dict(cli.TASK_RUNNERS))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"schema_version": "1", "seed": 4, "model": N5_HOMOG,
                                    "tasks": [{"task": "verify-model", "points": 2},
                                              {"task": "geodesic", "count": 2},
                                              {"task": "spectra", "q_values": [2.0]}]}))
    tables = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            main(["run", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")])
        finally:
            tracer.uninstall()
        tables.append(layer_metrics(tracer.table()))
    assert (cli.curvature_at, geodesics.solve_ivp, dict(cli.TASK_RUNNERS)) == originals
    counts = [{k: v for k, (v, unit) in t.items() if unit == "count"} for t in tables]
    assert counts[0] == counts[1]
    assert counts[0]["model_geometry.curvature_at.calls"] == 4   # olszak recomputes
    assert counts[0]["geodesics.regular.calls"] + counts[0]["geodesics.plunge.calls"] == 2
    assert counts[0]["solution_space.flow.integrations"] > 0

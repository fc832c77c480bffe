"""Benchmark of ecs-lab verification campaigns.

Usage (from the repository root):

    python3 bench/run.py --workload curvature-sweep --seed 1 --seconds 30 --trace 0

Generates the workload's scenario files from the seed, measures set-up in
fresh interpreters, then runs whole passes of `ecs_lab.cli.main(["run", ...])`
over the scenarios, serially in this process, until `--seconds` are used.
Afterwards it checks a seeded sample of the workload's inputs against closed
forms evaluated apart from the program (`oracles.py`).

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; attempted and failed count
check rows over all passes. The full result, stamped with the software
stack, goes to `bench/out/<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
import workloads  # noqa: E402
from reference import RUN_ELASTICITY, SETUP_ELASTICITY, rescale, run_reference  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# Fresh-interpreter set-ups per run; set-up time is their median.
SETUP_REPEATS = 5
# Passes per run at least, whatever --seconds says: each scenario's time is
# the median of its passes, so a burst of load on the machine during one
# pass does not move the result.
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def openblas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp(args) -> dict:
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up in fresh interpreters
# ---------------------------------------------------------------------------

def _import_cumulative_s(stderr: str, module: str) -> float:
    """Cumulative seconds of one module in `-X importtime` output."""
    pattern = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*" + re.escape(module) + r"$")
    for line in stderr.splitlines():
        match = pattern.match(line)
        if match:
            return int(match.group(1)) * 1e-6
    return 0.0


def setup_runs(paths: list[str], importtime: bool) -> list[dict]:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "setup_probe.py"), *paths]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_ref_s"] = rescale(rec["setup_s"], rec["reference_s"], SETUP_ELASTICITY)
        if importtime:
            # `import ecs_lab.cli` loads the package inside the submodule's entry.
            rec["ecs_lab_import_s"] = max(_import_cumulative_s(proc.stderr, "ecs_lab"),
                                          _import_cumulative_s(proc.stderr, "ecs_lab.cli"))
            rec["scipy_integrate_import_s"] = _import_cumulative_s(
                proc.stderr, "scipy.integrate")
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Campaign:
    """One workload's scenarios, run as whole passes through the CLI."""

    def __init__(self, cli, scenario_paths: list[tuple[str, str]], workdir: Path,
                 elasticity: float):
        self.cli = cli
        self.elasticity = elasticity
        (workdir / "reports").mkdir(parents=True, exist_ok=True)
        self.items = [(name, spath, str(workdir / "reports" / f"{name}.json"))
                      for name, spath in scenario_paths]
        self.reports: dict[str, list[bytes]] = {name: [] for name, _, _ in self.items}
        self.rows: dict[str, tuple[int, list[str]]] = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, times: dict[str, list[float]],
                 rescaled: dict[str, list[float]]) -> float:
        """Run every scenario once, appending each run's wall time to
        `times[name]` and its time at reference speed to `rescaled[name]`;
        returns the wall seconds of the whole pass.

        The reference is timed just before and just after the pass.
        """
        walls = {}
        ref_before = run_reference()
        with contextlib.redirect_stdout(io.StringIO()):
            for name, spath, rpath in self.items:
                start = perf_counter()
                code = self.cli.main(["run", "--scenario", spath, "--report", rpath])
                walls[name] = perf_counter() - start
                if code not in (0, 1):
                    raise RuntimeError(f"ecs-lab run on {name} exited with {code}")
                self._account(name, Path(rpath).read_bytes())
        reference_s = 0.5 * (ref_before + run_reference())
        for name, wall in walls.items():
            times.setdefault(name, []).append(wall)
            rescaled.setdefault(name, []).append(
                rescale(wall, reference_s, self.elasticity))
        return sum(walls.values())

    def _account(self, name: str, data: bytes):
        self.reports[name].append(data)
        if name not in self.rows:
            checks = json.loads(data)["checks"]
            self.rows[name] = (len(checks),
                               [row["anchor"] for row in checks if not row["pass"]])
        total, failing = self.rows[name]
        self.attempted += total
        self.failed += len(failing)

    def errors(self) -> list[str]:
        out = []
        for name, (_, failing) in self.rows.items():
            for anchor in failing:
                if (name, anchor) not in workloads.ABSOLUTE_BUDGET_ROWS:
                    out.append(f"{name}: unexpected failing row {anchor}")
        for name, reports in self.reports.items():
            try:
                oracles.check_identical(reports, name)
            except oracles.CheckFailed as exc:
                out.append(str(exc))
        return out

    def plunges(self) -> dict[str, int]:
        """Boundary hits reported by each geodesic task (first pass)."""
        out = {}
        for name, reports in self.reports.items():
            for row in json.loads(reports[0])["checks"]:
                if row["anchor"] == "geodesic.boundary-exit":
                    out[name] = row["detail"]["hits"]
        return out


# ---------------------------------------------------------------------------
# checks on a seeded sample of the inputs
# ---------------------------------------------------------------------------

def _window(spec: dict) -> tuple[float, float]:
    return (0.25, 4.0) if workloads.is_homogeneous(spec) else (-2.0, 2.0)


def sample_checks(workload: str, seed: int,
                  scenarios: list[tuple[str, dict]]) -> list[str]:
    """Check program outputs on sampled inputs; returns the failures."""
    from ecs_lab.cli import build_model
    from ecs_lab.geodesics import geodesic
    from ecs_lab.homogeneous import HomogeneousModel
    from ecs_lab.model_geometry import ChartPoint, curvature_at, weyl_tidal_operator

    rng = np.random.default_rng([seed, 99])
    errors = []
    for name, payload in scenarios:
        spec = payload["model"]
        model = build_model(spec)
        m = model.m
        lo, hi = _window(spec)
        try:
            if workload == "curvature-sweep":
                for _ in range(3):
                    t = rng.uniform(lo, hi)
                    pt = ChartPoint(t, rng.standard_normal(), rng.standard_normal(m))
                    pack = curvature_at(model, pt)
                    oracles.check_ricci(pack.ricci, spec["profile"], t, m + 2)
                    oracles.check_tidal(weyl_tidal_operator(model, pt, pack), spec["A"])
            elif workload == "ode-campaign":
                plunge = workloads.is_homogeneous(spec)
                for k in range(3 if plunge else 2):
                    t0 = rng.uniform(lo, hi)
                    vel = rng.standard_normal(m + 2)
                    if k == 2:   # aimed at t = 0: must stop at the barrier
                        vel[0] = -t0 / workloads.TAU - 0.5
                    pt = ChartPoint(t0, rng.standard_normal(), rng.standard_normal(m))
                    res = geodesic(model, pt, vel, (0.0, workloads.TAU))
                    oracles.check_t_affine(res.taus, res.t_values(), t0, vel[0])
                    if k == 2 and not res.hit_boundary:
                        raise oracles.CheckFailed("aimed geodesic did not plunge")
                    if res.hit_boundary:
                        oracles.check_plunge_end(res.boundary_tau, t0, vel[0])
            elif workload == "group-campaign" and name.startswith("group-"):
                hm = HomogeneousModel.from_model(model)
                c = complex(*spec["profile"]["c"])
                q_random = float(np.exp(rng.uniform(-np.log(4.0), np.log(4.0))))
                for q in [*workloads.SPECTRA_Q, q_random]:
                    oracles.check_sigma_q(hm.sigma_q_matrix(q), q, m, c, spec["gram"])
        except oracles.CheckFailed as exc:
            errors.append(f"{name}: {exc}")
    return errors


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def typical_pass_s(times: dict[str, list[float]]) -> float:
    """Sum over the scenarios of the median wall time of their runs."""
    return sum(statistics.median(ts) for ts in times.values())


def _more_passes(start: float, done: int, least: int, last_pass_s: float,
                 seconds: float) -> bool:
    return done < least or perf_counter() - start + last_pass_s <= seconds


def measure(args, workdir: Path) -> dict:
    scenarios = workloads.scenarios(args.workload, args.seed)
    (workdir / "scenarios").mkdir(parents=True, exist_ok=True)
    paths = []
    for name, payload in scenarios:
        path = workdir / "scenarios" / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1))
        paths.append((name, str(path)))
    setups = setup_runs([p for _, p in paths], importtime=bool(args.trace))

    import ecs_lab.cli as cli
    campaign = Campaign(cli, paths, workdir, RUN_ELASTICITY[args.workload])
    result = {"stamp": stamp(args)}
    start = perf_counter()
    if not args.trace:
        times: dict[str, list[float]] = {}
        rescaled: dict[str, list[float]] = {}
        passes = 0
        while True:
            last = campaign.run_pass(times, rescaled)
            passes += 1
            if not _more_passes(start, passes, MIN_PASSES, last, args.seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "run_s": _metric(typical_pass_s(rescaled), "s"),
            "setup_s": _metric(statistics.median(s["setup_ref_s"] for s in setups), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        result.update(run_wall_s=typical_pass_s(times),
                      setup_wall_s=statistics.median(s["setup_s"] for s in setups),
                      run_times_s=times, run_times_reference_s=rescaled)
    else:
        tracer = Tracer()
        untraced: dict[str, list[float]] = {}
        traced: dict[str, list[float]] = {}
        untraced_rescaled: dict[str, list[float]] = {}
        traced_rescaled: dict[str, list[float]] = {}
        per_pass = []
        while True:
            last = campaign.run_pass(untraced, untraced_rescaled)
            tracer.reset()
            tracer.install()
            try:
                last += campaign.run_pass(traced, traced_rescaled)
            finally:
                tracer.uninstall()
            per_pass.append(layer_metrics(tracer.table()))
            if not _more_passes(start, len(per_pass), 1, last, args.seconds):
                break
        metrics = {}
        for name, (_, unit) in per_pass[0].items():
            values = [p[name][0] for p in per_pass]
            if unit == "count" and len(set(values)) > 1:
                result.setdefault("errors", []).append(
                    f"count {name} differs between traced passes: {values}")
            metrics[name] = _metric(values[0] if unit == "count"
                                    else statistics.median(values), unit)
        metrics["setup.import.ecs_lab_s"] = _metric(
            statistics.median(s["ecs_lab_import_s"] for s in setups), "s")
        metrics["setup.import.scipy_integrate_s"] = _metric(
            statistics.median(s["scipy_integrate_import_s"] for s in setups), "s")
        metrics["setup.build_model_s"] = _metric(
            statistics.median(s["build_model_s"] for s in setups), "s")
        metrics["trace.overhead_s"] = _metric(
            typical_pass_s(traced_rescaled) - typical_pass_s(untraced_rescaled), "s")
        result.update(untraced_run_times_s=untraced, traced_run_times_s=traced,
                      trace=tracer.table())
    result["setups"] = setups
    result["plunges"] = campaign.plunges()
    errors = result.setdefault("errors", [])
    errors.extend(campaign.errors())
    errors.extend(sample_checks(args.workload, args.seed, scenarios))
    result.update(correct=not errors, attempted=campaign.attempted,
                  failed=campaign.failed, metrics=metrics)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ecs_lab" / "cli.py").is_file():
        print(f"no ecs_lab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

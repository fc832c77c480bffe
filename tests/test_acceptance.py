"""Top-level acceptance run: one test per advertised guarantee.

Every test prints a single summary line with the measured worst case next
to its budget, then asserts. Nothing here is fitted to the implementation;
the thresholds are the package's contract and the samples are seeded so a
failure reproduces exactly.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from ecs_lab.geodesics import (
    PolyCurve,
    affine_defect_residual,
    affine_transport_residual,
    energy_report,
    geodesic,
    straightened_axis_residual,
    t_affinity_report,
    terminal_curve_residual,
    variation_field,
)
from ecs_lab.homogeneous import (
    HomogeneousModel,
    class_map,
    class_map_inverse,
    commute_test,
    conjugation_spectrum_check,
    dilation_spectrum_check,
    expected_kernel_dim,
    exponential_consistency_residual,
    generator_spectrum_check,
    shifted_invertibility,
    spectral_split,
    standard_homogeneous_space,
    transitive_commutation_check,
)
from ecs_lab.isometry_group import (
    IsoElement,
    classify_holonomy,
    iso_apply,
    iso_compose,
    iso_distance,
    iso_identity,
    iso_inverse,
    omega_scaling_residual,
    pullback_residual,
    sigma_det_residual,
    straightening_element,
)
from ecs_lab.model_geometry import (
    ChartPoint,
    christoffel_pattern_residual,
    curvature_at,
    nabla_riemann_norm,
    parallel_weyl_residual,
    random_chart_point,
    ricci_profile_residuals,
    weyl_nonzero_norm,
    weyl_tidal_operator,
)
from ecs_lab.pseudo_linear import (
    PseudoEuclideanSpace,
    density_experiment,
    genericity_test,
    nilpotent_order,
    random_self_adjoint,
)
from ecs_lab.solution_space import omega_drift, random_solution

Q_SAMPLES = (0.25, 0.5, 2.0, 4.0)


def _conclude(capsys, label: str, ok: bool, detail: str) -> None:
    """Print the one-line verdict outside pytest's capture, then assert."""
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def curvature_survey(roster):
    """100 seeded random points per model with full curvature packs.

    Built once and timed, because the first guarantee carries a runtime
    budget and the later curvature checks reuse the same sample set.
    """
    t_start = time.perf_counter()
    rows = []
    for k, entry in enumerate(roster):
        rng = np.random.default_rng([20260816, k])
        recs = []
        for _ in range(100):
            pt = random_chart_point(entry.model, rng)
            recs.append((pt, curvature_at(entry.model, pt)))
        rows.append((entry, recs))
    return rows, time.perf_counter() - t_start


@pytest.fixture(scope="session")
def spectral_grid():
    """The (m, c) grid for the scaling-family checks, one imaginary c
    included, with the kernel/range split precomputed."""
    out = []
    for m, c in [(2, 0.3), (2, 1.5), (3, 0.25), (3, 0.7j)]:
        hm = HomogeneousModel.standard(m, c)
        out.append((m, c, hm, spectral_split(hm)))
    return out


def test_ac01_weyl_parallel_riemann_not(curvature_survey, capsys):
    rows, build_seconds = curvature_survey
    t0 = time.perf_counter()
    worst_weyl = 0.0
    min_count = 100
    min_weyl_norm = np.inf
    for entry, recs in rows:
        res = [parallel_weyl_residual(pack) for _, pack in recs]
        riem = [nabla_riemann_norm(pack) for _, pack in recs]
        norms = [weyl_nonzero_norm(pack) for _, pack in recs]
        worst_weyl = max(worst_weyl, max(res))
        min_count = min(min_count, sum(1 for x in riem if x > 1e-4))
        min_weyl_norm = min(min_weyl_norm, min(norms))
    elapsed = build_seconds + (time.perf_counter() - t0)
    ok = (worst_weyl < 1e-9 and min_count >= 90
          and min_weyl_norm > 0.0 and elapsed < 30.0)
    _conclude(
        capsys,
        "AC01 Weyl parallel, Riemann not, on 6 models x 100 points",
        ok,
        f"max rel |nabla W| {worst_weyl:.1e} < 1e-9, nonparallel Riemann at "
        f">= {min_count}/100 points, min rel |W| {min_weyl_norm:.2f} > 0, "
        f"{elapsed:.1f}s < 30s",
    )


def test_ac02_ricci_profile(curvature_survey, capsys):
    rows, _ = curvature_survey
    worst = 0.0
    for entry, recs in rows:
        for pt, pack in recs:
            worst = max(worst, ricci_profile_residuals(entry.model, pt, pack)["ricci"])
    ok = worst < 1e-9
    _conclude(
        capsys,
        "AC02 Ricci equals (2-n) f dt x dt at all 600 sampled points",
        ok,
        f"max residual {worst:.1e} < 1e-9",
    )


def test_ac03_leafwise_christoffel_vanishes(curvature_survey, capsys):
    rows, _ = curvature_survey
    worst = 0.0
    for entry, recs in rows:
        for _, pack in recs:
            worst = max(worst, christoffel_pattern_residual(pack))
    ok = worst < 1e-13
    _conclude(
        capsys,
        "AC03 Christoffel symbols vanish on leaf index pairs everywhere",
        ok,
        f"max |Gamma| over leaf pairs {worst:.1e} < 1e-13",
    )


def test_ac04_tidal_operator_recovers_A(curvature_survey, capsys):
    rows, _ = curvature_survey
    worst_match = 0.0
    worst_spread = 0.0
    for entry, recs in rows:
        model = entry.model
        a_norm = float(np.max(np.abs(model.A)))
        ops = [weyl_tidal_operator(model, pt, pack) for pt, pack in recs[:20]]
        for T in ops:
            worst_match = max(
                worst_match, float(np.max(np.abs(T - model.A))) / a_norm)
            worst_spread = max(
                worst_spread, float(np.max(np.abs(T - ops[0]))) / a_norm)
    ok = worst_match < 1e-8 and worst_spread < 1e-8
    _conclude(
        capsys,
        "AC04 curvature tidal operator recovers A, point independent, "
        "20 points per model",
        ok,
        f"max rel mismatch {worst_match:.1e} < 1e-8, max rel spread "
        f"{worst_spread:.1e} < 1e-8",
    )


def test_ac05_isometry_pullback_compose_inverse(roster, iso_sampler, capsys):
    rng = np.random.default_rng(20260805)
    worst_pull = 0.0
    worst_compose = 0.0
    worst_inverse = 0.0
    triples = 0
    for entry in roster:
        model = entry.model
        elems = iso_sampler(entry, rng, 50)
        pts = np.array([random_chart_point(model, rng).coords() for _ in range(20)])
        ident = iso_identity(model)
        for g in elems:
            worst_pull = max(worst_pull, float(np.max(pullback_residual(model, g, pts)[0])))
            ginv = iso_inverse(model, g)
            worst_inverse = max(
                worst_inverse,
                iso_distance(iso_compose(model, g, ginv), ident),
                iso_distance(iso_compose(model, ginv, g), ident),
            )
        for _ in range(9):
            a = elems[int(rng.integers(50))]
            b = elems[int(rng.integers(50))]
            pt = pts[int(rng.integers(20))]
            lhs = iso_apply(model, iso_compose(model, a, b), pt)
            rhs = iso_apply(model, a, iso_apply(model, b, pt))
            worst_compose = max(worst_compose, float(np.max(np.abs(lhs - rhs))))
            triples += 1
    ok = worst_pull < 1e-8 and worst_compose < 1e-8 and worst_inverse < 1e-9
    _conclude(
        capsys,
        "AC05 isometry action: pullback, composition, inverses "
        "(50 elements per model)",
        ok,
        f"max pullback {worst_pull:.1e} < 1e-8, compose compatibility "
        f"{worst_compose:.1e} < 1e-8 on {triples} triples, inverse law "
        f"{worst_inverse:.1e} < 1e-9",
    )


def test_ac06_symplectic_form_and_determinant(roster, capsys):
    rng = np.random.default_rng(20260806)
    worst_drift = 0.0
    worst_scaling = 0.0
    worst_det = 0.0
    for entry in roster:
        model = entry.model
        lo, hi = model.compact_window()
        ts = np.linspace(lo, hi, 16)
        for _ in range(5):
            u = random_solution(model, rng)
            w = random_solution(model, rng)
            worst_drift = max(worst_drift, omega_drift(model, u, w, ts))
        if entry.kind != "homogeneous":
            continue
        pairs = [(random_solution(model, rng), random_solution(model, rng))
                 for _ in range(8)]
        for q in Q_SAMPLES:
            sig = entry.hm.dilation(q)
            worst_scaling = max(
                worst_scaling, omega_scaling_residual(model, sig, pairs))
            worst_det = max(worst_det, sigma_det_residual(model, sig))
    ok = worst_drift < 1e-9 and worst_scaling < 1e-9 and worst_det < 1e-7
    _conclude(
        capsys,
        "AC06 symplectic form: t-independence, q^-1 scaling, det = q^(2-n)",
        ok,
        f"max drift over 16 t-samples {worst_drift:.1e} < 1e-9, max scaling "
        f"residual {worst_scaling:.1e} < 1e-9, max rel det error "
        f"{worst_det:.1e} < 1e-7",
    )


def test_ac07_scaling_spectra_and_generator(spectral_grid, capsys):
    worst_sigma = 0.0
    worst_gen = 0.0
    worst_exp = 0.0
    kernel_hits = 0
    cases = 0
    for m, c, hm, split in spectral_grid:
        worst_gen = max(worst_gen, generator_spectrum_check(hm).max_rel_error)
        for q in Q_SAMPLES:
            sigma = hm.dilation(q)
            worst_sigma = max(
                worst_sigma, dilation_spectrum_check(hm, sigma).max_rel_error)
            worst_exp = max(
                worst_exp, exponential_consistency_residual(hm, sigma))
        cases += 1
        if split.kernel_dim == expected_kernel_dim(c):
            kernel_hits += 1
    ok = (worst_sigma < 1e-6 and worst_gen < 1e-6 and worst_exp < 1e-6
          and kernel_hits == cases)
    _conclude(
        capsys,
        "AC07 scaling-family spectra on the (m, c) grid with one imaginary c",
        ok,
        f"max sigma_q spectrum error {worst_sigma:.1e} < 1e-6, max generator "
        f"spectrum error {worst_gen:.1e} < 1e-6, max exp(log q B) residual "
        f"{worst_exp:.1e} < 1e-6, kernel dim correct {kernel_hits}/{cases}",
    )


def test_ac08_shifted_scaling_invertibility(spectral_grid, capsys):
    min_sv = np.inf
    worst_kernel = 0.0
    for m, c, hm, split in spectral_grid:
        for q in Q_SAMPLES:
            rep = shifted_invertibility(hm, hm.dilation(q), split)
            min_sv = min(min_sv, rep["min_singular_value"])
            worst_kernel = max(worst_kernel, rep["kernel_fixed_residual"])
    ok = min_sv > 1e-8 and worst_kernel < 1e-9
    _conclude(
        capsys,
        "AC08 sigma_q - 1 invertible off the kernel and zero on it",
        ok,
        f"min singular value {min_sv:.2e} > 1e-8, max kernel residual "
        f"{worst_kernel:.1e} < 1e-9",
    )


def test_ac09_commuting_class_suite(spectral_grid, capsys):
    rng = np.random.default_rng(20260809)
    worst_rt = 0.0
    round_trips = 0
    disagreements = 0
    pair_count = 0
    premise_failures = 0
    counterexamples = 0
    triple_count = 0
    for m, c, hm, split in spectral_grid[:2]:
        m2 = 2 * hm.m
        kdim = split.kernel_dim

        def away_from_one():
            q = float(np.exp(rng.uniform(-np.log(4.0), np.log(4.0))))
            return q * 1.3 if abs(q - 1.0) < 0.05 else q

        def kernel_vec():
            if kdim:
                return split.e0 @ rng.standard_normal(kdim)
            return np.zeros(m2)

        for _ in range(50):
            a = float(rng.standard_normal())
            z = split.eplus @ rng.standard_normal(split.eplus.shape[1])
            q = away_from_one()
            w = kernel_vec()
            g = class_map(hm, a, z, q, w)
            a2, z2, q2, w2 = class_map_inverse(hm, g, split)
            scale = max(1.0, abs(a), float(np.max(np.abs(z))))
            worst_rt = max(
                worst_rt,
                abs(a2 - a) / scale,
                float(np.max(np.abs(z2 - z))) / scale,
                float(np.max(np.abs(w2 - w))) / scale,
                abs(q2 - q),
            )
            round_trips += 1
        for _ in range(50):
            g = IsoElement(hm.dilation(away_from_one()), float(rng.standard_normal()),
                           rng.standard_normal(m2))
            labels = class_map_inverse(hm, g, split)
            back = class_map(hm, *labels)
            scale = max(1.0, abs(g.r), float(np.max(np.abs(g.u))))
            worst_rt = max(worst_rt, iso_distance(g, back) / scale)
            round_trips += 1

        for _ in range(125):
            g1 = IsoElement(hm.dilation(away_from_one()), float(rng.standard_normal()),
                            rng.standard_normal(m2))
            g2 = IsoElement(hm.dilation(away_from_one()), float(rng.standard_normal()),
                            rng.standard_normal(m2))
            if not commute_test(hm, g1, g2).agree:
                disagreements += 1
            pair_count += 1
        for _ in range(125):
            a = float(rng.standard_normal())
            z = split.eplus @ rng.standard_normal(split.eplus.shape[1])
            g1 = class_map(hm, a, z, away_from_one(), kernel_vec())
            g2 = class_map(hm, a, z, away_from_one(), kernel_vec())
            if not commute_test(hm, g1, g2).agree:
                disagreements += 1
            pair_count += 1

        rep = transitive_commutation_check(hm, split, 100, rng)
        premise_failures += rep.premise_failures
        counterexamples += rep.counterexamples
        triple_count += rep.triples
    ok = (worst_rt < 1e-8 and disagreements == 0 and premise_failures == 0
          and counterexamples == 0)
    _conclude(
        capsys,
        "AC09 commuting classes: label round-trips, two commutation routes, "
        "transitivity",
        ok,
        f"max of {round_trips} round-trip residuals {worst_rt:.1e} < 1e-8, "
        f"{disagreements} disagreements on {pair_count} pairs, "
        f"{counterexamples} counterexamples on {triple_count} triples "
        f"({premise_failures} premise failures)",
    )


def test_ac10_conjugation_spectrum(spectral_grid, capsys):
    rng = np.random.default_rng(20260810)
    worst = 0.0
    count = 0
    picks = [spectral_grid[0], spectral_grid[2], spectral_grid[1]]
    for (m, c, hm, split), n_elems in zip(picks, (7, 7, 6)):
        m2 = 2 * hm.m
        for _ in range(n_elems):
            q = float(np.exp(rng.uniform(-np.log(4.0), np.log(4.0))))
            g = IsoElement(hm.dilation(q), float(rng.standard_normal()),
                           rng.standard_normal(m2))
            worst = max(worst, conjugation_spectrum_check(hm, g).max_rel_error)
            count += 1
    ok = worst < 1e-6
    _conclude(
        capsys,
        "AC10 conjugation spectrum is {1/q} plus the sigma_q spectrum",
        ok,
        f"max multiset error {worst:.1e} < 1e-6 on {count} elements",
    )


def test_ac11_geodesic_energy_affinity_boundary(roster, capsys):
    rng = np.random.default_rng(20260811)
    worst_energy = 0.0
    worst_affinity = 0.0
    for entry in roster:
        model = entry.model
        bounded = bool(np.any(np.isfinite(model.interval)))
        span = 0.5 if bounded else 2.0
        for _ in range(100):
            pt = random_chart_point(model, rng)
            vel = rng.standard_normal(model.dim)
            if abs(vel[0]) < 0.2:
                vel[0] = 0.2 if vel[0] >= 0 else -0.2
            res = geodesic(model, pt, vel, (0.0, span), samples=33)
            worst_energy = max(
                worst_energy, energy_report(model, res)["drift_rel"])
            rep = t_affinity_report(res)
            worst_affinity = max(
                worst_affinity, rep["residual"] / max(1.0, rep["t_range"]))
    hits = 0
    tried = 0
    worst_t_end = 0.0
    for entry in roster:
        if entry.kind != "homogeneous":
            continue
        model = entry.model
        for _ in range(20):
            pt = random_chart_point(model, rng)
            vel = rng.standard_normal(model.dim)
            vel[0] = -abs(vel[0]) - 0.2
            res = geodesic(model, pt, vel, (0.0, 1e4), samples=17)
            tried += 1
            if res.hit_boundary and res.boundary_tau is not None \
                    and np.isfinite(res.boundary_tau):
                hits += 1
                worst_t_end = max(worst_t_end, float(res.t_values()[-1]))
    ok = (worst_energy < 1e-8 and worst_affinity < 1e-8
          and hits == tried and worst_t_end < 1e-6)
    _conclude(
        capsys,
        "AC11 geodesics: energy, affine t, boundary plunges "
        "(100 per model + 60 plunges)",
        ok,
        f"max energy drift {worst_energy:.1e} < 1e-8, max t-affinity "
        f"{worst_affinity:.1e} < 1e-8, {hits}/{tried} plunges hit the wall "
        f"with max final t {worst_t_end:.1e} < 1e-6",
    )


def test_ac12_variation_terminal_geodesic(roster, capsys):
    rng = np.random.default_rng(20260812)
    worst_terminal = 0.0
    worst_defect = 0.0
    worst_affine = 0.0
    configs = 0
    for entry, count in zip((roster[0], roster[1], roster[3]), (7, 7, 6)):
        model = entry.model
        lo, hi = model.compact_window()
        t_a = lo + 0.3 * (hi - lo)
        t_b = lo + 0.7 * (hi - lo)
        for _ in range(count):
            curve = PolyCurve(0.3 * rng.standard_normal(3),
                              0.2 * rng.standard_normal((model.m, 3)))
            z0 = (float(0.3 * rng.standard_normal()),
                  0.2 * rng.standard_normal(model.m))
            zd0 = (float(0.3 * rng.standard_normal()),
                   0.2 * rng.standard_normal(model.m))
            field = variation_field(model, curve, z0, zd0, (t_a, t_b))
            worst_terminal = max(
                worst_terminal, terminal_curve_residual(model, field))
            worst_defect = max(
                worst_defect, affine_defect_residual(model, field))

            t_fix = 0.5 * (t_a + t_b)
            wvec = rng.standard_normal(model.m)

            def leaf(s, t_fix=t_fix, wvec=wvec):
                pt = ChartPoint(t_fix, 0.4 * s, wvec * np.sin(s))
                vel = np.concatenate([[0.0, 0.4], wvec * np.cos(s)])
                return pt, vel

            worst_affine = max(
                worst_affine,
                affine_transport_residual(model, leaf,
                                          rng.standard_normal(model.dim)))
            configs += 1
    ok = worst_terminal < 1e-6 and worst_defect < 1e-9 and worst_affine < 1e-9
    _conclude(
        capsys,
        "AC12 variation endpoint curves are geodesics and transported "
        "fields decay affinely",
        ok,
        f"max endpoint-geodesic residual {worst_terminal:.1e} < 1e-6 on "
        f"{configs} configurations, max algebraic affine defect "
        f"{worst_defect:.1e} < 1e-9, max (1-s)-profile residual "
        f"{worst_affine:.1e} < 1e-9",
    )


def test_ac13_null_geodesic_straightening(roster, capsys):
    rng = np.random.default_rng(20260813)
    model = roster[1].model
    t_grid = np.linspace(0.6, 2.4, 7)
    pulls, axes = [], []
    for _ in range(5):
        t0 = float(rng.uniform(0.8, 1.4))
        s0 = float(rng.standard_normal())
        v0 = 0.5 * rng.standard_normal(model.m)
        vd0 = 0.5 * rng.standard_normal(model.m)
        v_grid = [rng.standard_normal(model.m) for _ in range(4)]
        pt = ChartPoint(t0, s0, v0)
        g = straightening_element(model, pt, vd0)
        grid = np.array([[[t, s, *v] for s in (-1.0, 0.5, 2.0) for v in v_grid]
                         for t in t_grid])
        pulls.append(np.max(pullback_residual(model, g, grid)[0]))
        axes.append(straightened_axis_residual(model, g, pt, vd0,
                                               (t_grid[0], t_grid[-1])))
    worst_pull, worst_axis = np.max(pulls), np.max(axes)
    ok = worst_pull < 1e-6 and worst_axis < 1e-6
    _conclude(
        capsys,
        "AC13 straightening a transverse null geodesic pulls the metric "
        "back to itself and maps the t-axis onto it (5 runs)",
        ok,
        f"max pullback residual {worst_pull:.1e} < 1e-6, max distance from "
        f"the image of the t-axis to the integrated null geodesic "
        f"{worst_axis:.1e} < 1e-6",
    )


def test_ac14_holonomy_classifier_and_genericity(roster, capsys):
    rng = np.random.default_rng(20260814)
    entry = roster[1]
    model = entry.model

    cases = [
        ([], "translational"),
        ([1.0], "translational"),
        ([1.0, 1.0, 1.0], "translational"),
        ([2.0], "dilational"),
        ([1.0, 2.0], "dilational"),
        ([0.5, 1.0, 1.0], "dilational"),
        ([1.0] * 5, "translational"),
        ([4.0, 0.25], "dilational"),
        ([1.0 + 1e-15], "translational"),
        ([1.0, 1.0, 1.5, 1.0], "dilational"),
    ]
    table_hits = 0
    for qs, expected in cases:
        elems = [IsoElement(entry.hm.dilation(q), float(rng.standard_normal()),
                            random_solution(model, rng)) for q in qs]
        if classify_holonomy(elems) == expected:
            table_hits += 1

    spaces = [PseudoEuclideanSpace(np.eye(2)),
              PseudoEuclideanSpace(np.diag([1.0, -1.0]))]
    rule_hits = 0
    for i in range(100):
        space = spaces[i % 2]
        A = random_self_adjoint(space, rng)
        nonzero = float(np.max(np.abs(A))) > 1e-12
        if genericity_test(space, A).is_generic == nonzero:
            rule_hits += 1

    nilpotent_hits = 0
    nilpotent_cases = 0
    while nilpotent_cases < 50:
        for m in (3, 4):
            space, _ = standard_homogeneous_space(m)
            basis = space.skew_basis()
            coeffs = 0.5 * rng.standard_normal(len(basis))
            C = expm(sum(c * S for c, S in zip(coeffs, basis)))
            Ci = np.linalg.inv(C)
            seeds = [np.eye(m, k=1),
                     np.outer(np.eye(m)[0], space.gram @ np.eye(m)[0])]
            if m == 4:
                seeds.append(np.eye(m, k=2))
            for A0 in seeds:
                if nilpotent_cases >= 50:
                    break
                A = C @ A0 @ Ci
                full_order = nilpotent_order(A) == m
                if genericity_test(space, A).is_generic == full_order:
                    nilpotent_hits += 1
                nilpotent_cases += 1

    fraction = density_experiment(PseudoEuclideanSpace(np.eye(2)),
                                  np.zeros((2, 2)), 1e-3, 100, rng)

    ok = (table_hits == len(cases) and rule_hits == 100
          and nilpotent_hits == nilpotent_cases and fraction == 1.0)
    _conclude(
        capsys,
        "AC14 holonomy classifier and genericity of A",
        ok,
        f"classifier table {table_hits}/{len(cases)}, nonzero-is-generic rule "
        f"{rule_hits}/100 for m=2, full-order rule {nilpotent_hits}/"
        f"{nilpotent_cases} for nilpotent m in {{3,4}}, perturbation-generic "
        f"fraction {fraction}",
    )

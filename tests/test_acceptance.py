"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them inline).  Tolerances are pinned here and nowhere else:

1. geometry identities (roundtrip 1e-8, comparison slack -1e-9) under 10 s
2. field resolvents (fixed points 1e-8, firm nonexpansiveness 1e-9,
   Euclidean oracles 1e-8) under 30 s
3. bifunction resolvents (firm nonexpansiveness, fixed points = equilibria,
   prox oracle 1e-8)
4. end-to-end common-solution runs on four manifold families (Fejer slack
   1e-9, descent inequality 1e-8, terminal steps 1e-6, reference 1e-5)
   under 60 s
5. specialization coherence (relaxed proximal point 1e-10, equilibrium
   iteration 1e-5)
6. applications (means 1e-5 / 1e-6, bilinear saddle 1e-6, saddle
   inequalities 1e-6)
7. negative controls (anti-monotone witness, schedule rejection)
8. byte-level determinism of verify reports and run artifacts
"""

import math
import subprocess
import sys
import time

import numpy as np

from hsplit import apps
from hsplit.equilibrium import resolvent_T
from hsplit.fields import (
    DistanceGradientField,
    LinearField,
    ResolventConfig,
    anti_monotone_field,
    check_firmly_nonexpansive,
    check_monotone,
    resolvent,
)
from hsplit.manifold import (
    SPD,
    Euclidean,
    Hyperboloid,
    Product,
    TangentVector,
    comparison_triangle,
    dist,
    exp_map,
    geodesic_point,
    inner,
    log_map,
)
from hsplit.splitting import (
    ProblemInstance,
    ScheduleBounds,
    ScheduleError,
    StepSchedule,
    StoppingRule,
    fejer_diagnostics,
    run,
    validate_schedule,
)
from hsplit.fields import VectorField


def report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}  ({detail})")
    assert passed, f"{name}: {detail}"


GEOMETRY_INSTANCES = (
    Euclidean(3),
    Hyperboloid(2),
    SPD(2),
    Product((Euclidean(2), Hyperboloid(2))),
)


def test_criterion_1_geometry_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    worst_roundtrip = 0.0
    for m in GEOMETRY_INSTANCES:
        for _ in range(1000):
            # both endpoints within radius 5 of the base point, so pair
            # distances range over [0, 10]
            x = m.random_point(rng, 5.0)
            y = m.random_point(rng, 5.0)
            worst_roundtrip = max(worst_roundtrip, dist(exp_map(x, log_map(x, y)), y))

    min_law = math.inf
    min_residual = math.inf
    for m in (Hyperboloid(2), SPD(2)):
        for _ in range(1000):
            c = m.random_point(rng, 1.5)
            pts = [exp_map(c, m.random_tangent(rng, c, 1.5 * rng.uniform())) for _ in range(3)]
            rep = comparison_triangle(*pts)
            min_residual = min(min_residual, float(rep.cosine_law_residuals.min()))
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                lhs = (
                    dist(pts[i], pts[j]) ** 2
                    + dist(pts[j], pts[k]) ** 2
                    - 2.0 * inner(log_map(pts[j], pts[i]), log_map(pts[j], pts[k]))
                )
                min_law = min(min_law, dist(pts[k], pts[i]) ** 2 - lhs)

    worst_convexity = 0.0
    ts = np.linspace(0.0, 1.0, 21)
    for m in GEOMETRY_INSTANCES:
        for _ in range(125):  # 500 geodesic pairs across the instances
            a, b = m.random_point(rng, 3.0), m.random_point(rng, 3.0)
            c, d = m.random_point(rng, 3.0), m.random_point(rng, 3.0)
            d0, d1 = dist(a, c), dist(b, d)
            for t in ts:
                g = dist(geodesic_point(a, b, float(t)), geodesic_point(c, d, float(t)))
                worst_convexity = max(worst_convexity, g - ((1 - t) * d0 + t * d1))

    elapsed = time.perf_counter() - t0
    ok = (
        worst_roundtrip <= 1e-8
        and min_law >= -1e-9
        and min_residual >= -1e-9
        and worst_convexity <= 1e-9
        and elapsed < 10.0
    )
    report(
        "1-geometry",
        ok,
        f"roundtrip {worst_roundtrip:.2e}, law-of-cosines slack {min_law:.2e}, "
        f"comparison residual {min_residual:.2e}, convexity {worst_convexity:.2e}, "
        f"{elapsed:.1f}s",
    )


def shipped_fields():
    seen = []
    for pid in apps.problem_ids():
        field = apps.get_problem(pid).field
        if field is not None:
            seen.append(field)
    return seen


def test_criterion_2_resolvent_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    lams = (0.1, 1.0, 10.0)

    worst_fixed = 0.0
    for field in shipped_fields():
        for zero in field.known_zeros:
            for lam in lams:
                cfg = ResolventConfig(lam=lam, inner_tol=1e-12, inner_max_iter=4000)
                worst_fixed = max(worst_fixed, dist(resolvent(field, cfg, zero), zero))

    worst_firm = -math.inf
    for field in shipped_fields():
        cfg = ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=4000)
        mapping = lambda p, field=field, cfg=cfg: resolvent(field, cfg, p)
        for _ in range(100):
            x = field.manifold.random_point(rng, 2.0)
            y = field.manifold.random_point(rng, 2.0)
            rep = check_firmly_nonexpansive(mapping, x, y)
            worst_firm = max(worst_firm, rep.max_increase, rep.endpoint_gap)

    e2 = Euclidean(2)
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    lin = LinearField(e2, q)
    anchor = e2.point([1.0, -2.0])
    dg = DistanceGradientField(anchor, weight=1.5)
    worst_oracle = 0.0
    for lam in lams:
        cfg = ResolventConfig(lam=lam, inner_tol=1e-12)
        for _ in range(50):
            x = e2.random_point(rng, 3.0)
            z = resolvent(lin, cfg, x)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(
                z.coords - np.linalg.solve(np.eye(2) + lam * q, x.coords)
            ))))
            t = lam * 1.5 / (1.0 + lam * 1.5)
            z = resolvent(dg, cfg, x)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(
                z.coords - ((1 - t) * x.coords + t * anchor.coords)
            ))))

    elapsed = time.perf_counter() - t0
    ok = worst_fixed <= 1e-8 and worst_firm <= 1e-9 and worst_oracle <= 1e-8 and elapsed < 30.0
    report(
        "2-resolvents",
        ok,
        f"fixed points {worst_fixed:.2e}, firm nonexpansiveness {worst_firm:.2e}, "
        f"euclidean oracle {worst_oracle:.2e}, {elapsed:.1f}s",
    )


def shipped_bifunctions():
    out = []
    for pid in apps.problem_ids():
        bf = apps.get_problem(pid).bifunction
        if bf is not None:
            out.append(bf)
    return out


def test_criterion_3_equilibrium_suite():
    rng = np.random.default_rng(303)

    worst_firm = -math.inf
    for bf in shipped_bifunctions():
        cfg = ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=4000)
        mapping = lambda p, bf=bf, cfg=cfg: resolvent_T(bf, cfg, p)[0]
        for _ in range(100):
            x = bf.manifold.random_point(rng, 2.0)
            y = bf.manifold.random_point(rng, 2.0)
            rep = check_firmly_nonexpansive(mapping, x, y)
            worst_firm = max(worst_firm, rep.max_increase, rep.endpoint_gap)

    worst_fixed = 0.0
    for bf in shipped_bifunctions():
        cfg = ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=4000)
        for star in bf.known_equilibria:
            worst_fixed = max(worst_fixed, dist(resolvent_T(bf, cfg, star)[0], star))

    # convex-difference resolvents against independent proximal oracles
    worst_prox = 0.0
    e1 = Euclidean(1)
    bf = apps.get_problem("euclid_quad").bifunction
    for r in (0.5, 1.0, 2.0):
        cfg = ResolventConfig(lam=r, inner_tol=1e-12)
        for _ in range(20):
            x = e1.random_point(rng, 4.0)
            z, _ = resolvent_T(bf, cfg, x)
            worst_prox = max(worst_prox, abs(z.coords[0] - x.coords[0] / (1.0 + r)))
    hyper = apps.get_problem("hyper_dist")
    p_anchor = hyper.reference_solution
    for r in (0.5, 1.0, 2.0):
        cfg = ResolventConfig(lam=r, inner_tol=1e-12)
        for _ in range(20):
            x = hyper.manifold.random_point(rng, 2.0)
            z, _ = resolvent_T(hyper.bifunction, cfg, x)
            oracle = geodesic_point(x, p_anchor, r / (1.0 + r))
            worst_prox = max(worst_prox, dist(z, oracle))

    ok = worst_firm <= 1e-9 and worst_fixed <= 1e-8 and worst_prox <= 1e-8
    report(
        "3-equilibrium",
        ok,
        f"firm nonexpansiveness {worst_firm:.2e}, fixed points {worst_fixed:.2e}, "
        f"prox oracle {worst_prox:.2e}",
    )


END_TO_END_PROBLEMS = (
    "euclid_quad", "euclid_linear", "hyper_dist", "hyper_frechet",
    "spd_karcher", "saddle_bilinear", "saddle_quadratic",
)


def test_criterion_4_theorem_end_to_end():
    t0 = time.perf_counter()
    details = []
    ok = True
    for pid in END_TO_END_PROBLEMS:
        trace = run(apps.get_problem(pid), stop=StoppingRule(max_iter=10_000, step_tol=1e-9))
        diag = fejer_diagnostics(trace)
        good = (
            diag.fejer_max_violation <= 1e-9
            and diag.composite_max_violation <= 1e-8
            and diag.final_step_distance <= 1e-6
            and diag.final_y_gap <= 1e-6
            and diag.final_ref_distance <= 1e-5
            and trace.iterations <= 10_000
        )
        ok = ok and good
        details.append(f"{pid}:{'ok' if good else 'FAIL'}({diag.final_ref_distance:.1e})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report("4-theorem-end-to-end", ok, f"{' '.join(details)}, {elapsed:.1f}s")


def test_criterion_5_corollary_coherence():
    # relaxed proximal point against a standalone scalar oracle, at the
    # relaxation 0.5 and step 1 the oracle's recurrence is written for
    prob = apps.get_problem("euclid_quad")
    trace = run(prob, StepSchedule.constant(0.5, 0.5, 1.0, 1.0),
                StoppingRule(max_iter=50, step_tol=0.0), algorithm="inclusion")
    x = 8.0
    worst_ppa = 0.0
    for rec in trace.records:
        x = x + 0.5 * (x / (1.0 + 1.0) - x)
        worst_ppa = max(worst_ppa, abs(rec.x_next.coords[0] - x))

    # equilibrium-only iteration reaches registered equilibria
    worst_ep = 0.0
    for pid in ("euclid_quad", "hyper_dist"):
        source = apps.get_problem(pid)
        ep_problem = ProblemInstance(
            source.manifold, source.x0, bifunction=source.bifunction,
            reference_solution=source.reference_solution, name=f"{pid}_ep_only",
        )
        trace = run(ep_problem)
        worst_ep = max(worst_ep, trace.final_reference_distance())

    ok = worst_ppa <= 1e-10 and worst_ep <= 1e-5
    report("5-corollaries", ok, f"relaxed ppa {worst_ppa:.2e}, equilibrium-only {worst_ep:.2e}")


def test_criterion_6_applications():
    rng = np.random.default_rng(606)
    frechet_gap = run(apps.get_problem("hyper_frechet")).final_reference_distance()
    karcher = run(apps.get_problem("spd_karcher"))
    karcher_gap = dist(karcher.final_point, SPD(2).point((2.0 * np.eye(2)).ravel()))

    sp = apps.bilinear_saddle_problem()
    saddle_trace = apps.solve_saddle(sp, None, x0=sp.product.point([1.5, -1.0]))
    saddle_gap = saddle_trace.final_reference_distance()
    x_t, y_t = sp.product.split_point(saddle_trace.final_point)
    left, right = apps.saddle_inequality_probe(sp, x_t, y_t, n_probes=100, rng=rng)

    ok = (
        frechet_gap <= 1e-5
        and karcher_gap <= 1e-6
        and saddle_gap <= 1e-6
        and max(left, right) <= 1e-6
    )
    report(
        "6-applications",
        ok,
        f"frechet {frechet_gap:.2e}, karcher {karcher_gap:.2e}, "
        f"saddle {saddle_gap:.2e}, inequalities {max(left, right):.2e}",
    )


def test_criterion_7_negative_controls():
    rng = np.random.default_rng(707)
    anti = anti_monotone_field(Euclidean(1))
    pairs = [
        (anti.manifold.random_point(rng, 2.0), anti.manifold.random_point(rng, 2.0))
        for _ in range(20)
    ]
    rep = check_monotone(anti, pairs)
    anti_ok = (not rep.passed) and rep.witness is not None and rep.min_slack < 0.0

    # an out-of-bounds schedule is rejected before any field evaluation
    m = Euclidean(1)
    calls = {"n": 0}

    def counting(x):
        calls["n"] += 1
        return (TangentVector(x, x.coords.copy()),)

    prob = ProblemInstance(m, m.point([1.0]),
                           field=VectorField(m, counting, single_valued=True))
    bad = StepSchedule.constant(alpha=0.999, bounds=ScheduleBounds(b=0.99))
    assert not validate_schedule(bad, 10).passed
    try:
        run(prob, bad, StoppingRule(max_iter=10))
        rejected = False
    except ScheduleError:
        rejected = calls["n"] == 0

    ok = anti_ok and rejected
    report(
        "7-negative-controls",
        ok,
        f"anti-monotone witness slack {rep.min_slack:.2e}, "
        f"schedule rejected before iteration: {rejected}",
    )


def test_criterion_8_determinism(tmp_path):
    cmd = [sys.executable, "-m", "hsplit.cli", "verify", "all", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    verify_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )

    run_cmd = [
        sys.executable, "-m", "hsplit.cli", "run",
        "--problem", "spd_karcher", "--seed", "11",
    ]
    subprocess.run(run_cmd + ["--out", str(tmp_path / "a")], capture_output=True)
    subprocess.run(run_cmd + ["--out", str(tmp_path / "b")], capture_output=True)
    run_ok = (
        (tmp_path / "a" / "spd_karcher_trace.csv").read_bytes()
        == (tmp_path / "b" / "spd_karcher_trace.csv").read_bytes()
        and (tmp_path / "a" / "spd_karcher_meta.json").read_bytes()
        == (tmp_path / "b" / "spd_karcher_meta.json").read_bytes()
    )

    ok = verify_ok and run_ok
    report("8-determinism", ok, f"verify bytes identical: {verify_ok}, run bytes identical: {run_ok}")

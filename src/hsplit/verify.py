"""Seeded property suites behind the ``verify`` command.

Each suite replays the numeric facts its module relies on (geometric
comparison inequalities, resolvent contracts, equilibrium assumptions,
convergence diagnostics) on seeded random data and reports one line per
property with the worst observed value against its bound.  Reports are
pure functions of the seed, so repeated invocations are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import apps
from . import equilibrium as eq
from . import fields
from . import splitting
from .manifold import (
    Euclidean,
    Hyperboloid,
    Manifold,
    Product,
    SPD,
    TangentVector,
    comparison_triangle,
    dist,
    exp_map,
    geodesic_point,
    inner,
    log_map,
)

__all__ = ["PropertyResult", "SUITES", "run_suites", "format_report"]


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    name: str
    passed: bool
    worst: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (
            f"[{verdict}] {self.suite}/{self.name}: worst={self.worst:.6e} "
            f"bound={self.bound:.6e}{extra}"
        )


def _upper(suite, name, worst, bound, detail="") -> PropertyResult:
    # check of the form worst <= bound
    return PropertyResult(suite, name, worst <= bound, float(worst), float(bound), detail)


def _lower(suite, name, worst, bound, detail="") -> PropertyResult:
    # check of the form worst >= bound
    return PropertyResult(suite, name, worst >= bound, float(worst), float(bound), detail)


def _pair(m: Manifold, rng: np.random.Generator, spread: float):
    return m.random_point(rng, spread), m.random_point(rng, spread)


# -- geometry -----------------------------------------------------------------


def geometry_suite(seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out: list[PropertyResult] = []
    instances = (
        Euclidean(3),
        Hyperboloid(2),
        SPD(2),
        Product((Euclidean(2), Hyperboloid(2))),
    )

    for m in instances:
        worst = 0.0
        for _ in range(200):
            x, y = _pair(m, rng, 5.0)
            worst = max(worst, dist(exp_map(x, log_map(x, y)), y))
        out.append(_upper("geometry", f"roundtrip[{m.tag}]", worst, 1e-8))

    for m in (Hyperboloid(2), SPD(2)):
        res_min = math.inf
        law_min = math.inf
        for _ in range(200):
            c = m.random_point(rng, 2.0)
            pts = [exp_map(c, m.random_tangent(rng, c, 1.5 * rng.uniform())) for _ in range(3)]
            rep = comparison_triangle(*pts)
            res_min = min(res_min, float(rep.cosine_law_residuals.min()))
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                lhs = (
                    dist(pts[i], pts[j]) ** 2
                    + dist(pts[j], pts[k]) ** 2
                    - 2.0 * inner(log_map(pts[j], pts[i]), log_map(pts[j], pts[k]))
                )
                law_min = min(law_min, dist(pts[k], pts[i]) ** 2 - lhs)
        out.append(_lower("geometry", f"comparison_residual[{m.tag}]", res_min, -1e-9))
        out.append(_lower("geometry", f"law_of_cosines[{m.tag}]", law_min, -1e-9))

    for m in instances:
        slack = 0.0
        ts = np.linspace(0.0, 1.0, 21)
        for _ in range(25):
            a, b = _pair(m, rng, 3.0)
            c, d = _pair(m, rng, 3.0)
            d0, d1 = dist(a, c), dist(b, d)
            for t in ts:
                g = dist(geodesic_point(a, b, float(t)), geodesic_point(c, d, float(t)))
                slack = max(slack, g - ((1.0 - t) * d0 + t * d1))
        out.append(_upper("geometry", f"distance_convexity[{m.tag}]", slack, 1e-9))

    hyp = Hyperboloid(2)
    x, y = _pair(hyp, rng, 1.0)
    drift = 0.0
    for _ in range(3400):  # ~3 ops per pass: 10,200 chained operations
        v = log_map(x, y)
        x2 = exp_map(x, 0.3 * v)
        mid = geodesic_point(x2, y, 0.5)
        x, y = mid, x
        drift = max(drift, abs(hyp.minkowski(x.coords, x.coords) + 1.0))
    out.append(_upper("geometry", "hyperboloid_constraint_chain", drift, 1e-8))

    prod = Product((Euclidean(2), Hyperboloid(2)))
    add_err = 0.0
    cat_err = 0.0
    for _ in range(100):
        x, y = _pair(prod, rng, 2.0)
        parts = list(zip(prod.split_point(x), prod.split_point(y)))
        add_err = max(add_err, abs(sum(dist(a, b) ** 2 for a, b in parts) - dist(x, y) ** 2))
        stitched = np.concatenate([log_map(a, b).components for a, b in parts])
        cat_err = max(cat_err, float(np.max(np.abs(log_map(x, y).components - stitched))))
    out.append(_upper("geometry", "product_dist_additivity", add_err, 1e-10))
    out.append(_upper("geometry", "product_log_concatenation", cat_err, 1e-12))

    worst_deg = 0.0
    for _ in range(50):
        x, y = _pair(hyp, rng, 2.0)
        z = geodesic_point(x, y, float(rng.uniform()))
        rep = comparison_triangle(x, y, z)
        worst_deg = max(worst_deg, float(np.max(np.abs(rep.cosine_law_residuals))))
    out.append(_upper("geometry", "degenerate_triangle_equality", worst_deg, 1e-8))
    return out


# -- fields -------------------------------------------------------------------


def _library_fields() -> list[fields.VectorField]:
    return [
        apps.get_problem(pid).field
        for pid in apps.problem_ids()
        if apps.get_problem(pid).field is not None
    ]


def fields_suite(seed: int, *, with_anti_monotone: bool = False) -> list[PropertyResult]:
    rng = np.random.default_rng(seed + 1)
    out: list[PropertyResult] = []
    lams = (0.1, 1.0, 10.0)
    lib = _library_fields()

    worst_fix = 0.0
    for vf in lib:
        for zero in vf.known_zeros:
            for lam in lams:
                cfg = fields.ResolventConfig(lam=lam, inner_tol=1e-12, inner_max_iter=2000)
                worst_fix = max(worst_fix, dist(fields.resolvent(vf, cfg, zero), zero))
    out.append(_upper("fields", "resolvent_fixed_points", worst_fix, 1e-8))

    worst_nonexp = -math.inf
    for vf in lib:
        for lam in lams:
            cfg = fields.ResolventConfig(lam=lam, inner_tol=1e-12, inner_max_iter=2000)
            for _ in range(10):
                x, y = _pair(vf.manifold, rng, 2.0)
                gap = dist(fields.resolvent(vf, cfg, x), fields.resolvent(vf, cfg, y)) - dist(x, y)
                worst_nonexp = max(worst_nonexp, gap)
    out.append(_upper("fields", "resolvent_nonexpansive", worst_nonexp, 1e-9))

    worst_firm = -math.inf
    for vf in lib:
        cfg = fields.ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=2000)
        mapping = lambda p, vf=vf, cfg=cfg: fields.resolvent(vf, cfg, p)
        for _ in range(10):
            x, y = _pair(vf.manifold, rng, 2.0)
            rep = fields.check_firmly_nonexpansive(mapping, x, y)
            worst_firm = max(worst_firm, rep.max_increase, rep.endpoint_gap)
    out.append(_upper("fields", "resolvent_firmly_nonexpansive", worst_firm, 1e-9))

    e2 = Euclidean(2)
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    lin = fields.LinearField(e2, q)
    anchor = e2.point([1.0, -2.0])
    dg = fields.DistanceGradientField(anchor)
    worst_oracle = 0.0
    for lam in lams:
        cfg = fields.ResolventConfig(lam=lam, inner_tol=1e-12)
        for _ in range(20):
            x = e2.random_point(rng, 3.0)
            z_lin = fields.resolvent(lin, cfg, x)
            z_ref = np.linalg.solve(np.eye(2) + lam * q, x.coords)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(z_lin.coords - z_ref))))
            z_dg = fields.resolvent(dg, cfg, x)
            z_ref = (x.coords + lam * anchor.coords) / (1.0 + lam)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(z_dg.coords - z_ref))))
    out.append(_upper("fields", "euclidean_resolvent_oracle", worst_oracle, 1e-8))

    checked = lib if not with_anti_monotone else lib + [fields.anti_monotone_field(Euclidean(1))]
    worst_slack = math.inf
    for vf in checked:
        pairs = [_pair(vf.manifold, rng, 2.0) for _ in range(40)]
        rep = fields.check_monotone(vf, pairs)
        worst_slack = min(worst_slack, rep.min_slack)
    out.append(
        _lower(
            "fields",
            "monotonicity_spot_checks",
            worst_slack,
            -1e-9,
            detail="includes anti-monotone fixture" if with_anti_monotone else "",
        )
    )

    anti = fields.anti_monotone_field(Euclidean(1))
    pairs = [_pair(anti.manifold, rng, 2.0) for _ in range(20)]
    rep = fields.check_monotone(anti, pairs)
    witness = "witness recorded" if rep.witness is not None else "no witness"
    out.append(
        PropertyResult(
            "fields",
            "negative_control_anti_monotone",
            not rep.passed and rep.witness is not None,
            rep.min_slack,
            0.0,
            detail=f"check_monotone correctly FAILs ({witness})",
        )
    )

    hyp = Hyperboloid(2)
    p = hyp.random_point(rng, 1.5)
    dg_h = fields.DistanceGradientField(p)
    cfg = fields.ResolventConfig(lam=1.0)
    mapping = lambda x: fields.resolvent(dg_h, cfg, x)
    worst_ip = -math.inf
    for _ in range(40):
        y = hyp.random_point(rng, 2.5)
        worst_ip = max(worst_ip, fields.firmly_nonexpansive_inequality(mapping, p, y))
    out.append(_upper("fields", "fixed_point_inner_product", worst_ip, 1e-9))

    steps = [2.0 ** -n for n in range(1, 31)]
    lam_seq = [1.0 + h for h in steps]
    x_lim = e2.point([2.0, 2.0])
    x_seq = [e2.point(x_lim.coords + np.array([h, 0.0])) for h in steps]
    rep = fields.resolvent_continuity_probe(lin, lam_seq, x_seq, 1.0, x_lim)
    out.append(_upper("fields", "resolvent_continuity", rep.final_gap, 1e-6))

    sub = apps.get_problem("hyper_frechet").field
    x = sub.manifold.random_point(rng, 2.0)
    cfg = fields.ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=2000)
    starts = [sub.manifold.random_point(rng, 2.0) for _ in range(10)]
    sols = [fields.resolvent(sub, cfg, x, initial=s) for s in starts]
    spread = max(dist(a, b) for a in sols for b in sols)
    out.append(_upper("fields", "inner_solver_single_valued", spread, 1e-6))

    # each closed form against the inner solver on a plain field of the same
    # values; the resolvent equation is 1-strongly monotone, so the two lie
    # within the inner solver's residual of each other
    worst_closed = 0.0
    for vf in lib + [lin, dg, dg_h]:
        plain = fields.VectorField(vf.manifold, vf.evaluate, name=f"plain[{vf.name}]")
        for lam in lams:
            cfg = fields.ResolventConfig(lam=lam, inner_tol=1e-12, inner_max_iter=2000)
            for _ in range(5):
                x = vf.manifold.random_point(rng, 2.0)
                z = vf._closed_form(lam, x)
                if z is not None:
                    worst_closed = max(worst_closed, dist(z, fields.resolvent(plain, cfg, x)))
    out.append(_upper("fields", "closed_form_matches_inner_solver", worst_closed, 1e-10))
    return out


# -- equilibrium ---------------------------------------------------------------


def _library_bifunctions() -> list[eq.Bifunction]:
    return [
        apps.get_problem(pid).bifunction
        for pid in apps.problem_ids()
        if apps.get_problem(pid).bifunction is not None
    ]


def equilibrium_suite(seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed + 2)
    out: list[PropertyResult] = []
    lib = _library_bifunctions()

    diag = 0.0
    mono = -math.inf
    convexity = -math.inf
    for bf in lib:
        samples = [_pair(bf.manifold, rng, 2.0) for _ in range(20)]
        rep = eq.check_assumptions(bf, samples)
        diag = max(diag, rep.diagonal_max_abs)
        mono = max(mono, rep.monotonicity_max_sum)
        convexity = max(convexity, rep.convexity_max_violation)
    out.append(_upper("equilibrium", "diagonal_vanishes", diag, 1e-12))
    out.append(_upper("equilibrium", "monotonicity_A2", mono, 1e-9))
    out.append(_upper("equilibrium", "geodesic_convexity_A4", convexity, 1e-9))

    worst_firm = -math.inf
    for bf in lib:
        cfg = fields.ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=2000)
        mapping = lambda p, bf=bf, cfg=cfg: eq.resolvent_T(bf, cfg, p)[0]
        for _ in range(10):
            x, y = _pair(bf.manifold, rng, 2.0)
            rep = fields.check_firmly_nonexpansive(mapping, x, y)
            worst_firm = max(worst_firm, rep.max_increase, rep.endpoint_gap)
    out.append(_upper("equilibrium", "resolvent_firmly_nonexpansive", worst_firm, 1e-9))

    worst_fix = 0.0
    worst_move = math.inf
    for bf in lib:
        cfg = fields.ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=2000)
        for star in bf.known_equilibria:
            worst_fix = max(worst_fix, dist(eq.resolvent_T(bf, cfg, star)[0], star))
        for _ in range(5):
            x = bf.manifold.random_point(rng, 2.0)
            if bf.known_equilibria and dist(x, bf.known_equilibria[0]) > 0.5:
                worst_move = min(worst_move, dist(eq.resolvent_T(bf, cfg, x)[0], x))
    out.append(_upper("equilibrium", "fixed_points_are_equilibria", worst_fix, 1e-8))
    out.append(_lower("equilibrium", "non_equilibria_move", worst_move, 1e-6))

    e1 = Euclidean(1)
    g_field = fields.LinearField(e1, np.eye(1))
    bf = eq.convex_difference(e1, lambda x: 0.5 * float(x.coords @ x.coords), g_field)
    worst_prox = 0.0
    for r in (0.1, 0.5, 1.0, 2.0, 10.0):
        cfg = fields.ResolventConfig(lam=r, inner_tol=1e-12)
        for _ in range(10):
            x = e1.random_point(rng, 4.0)
            z, _ = eq.resolvent_T(bf, cfg, x)
            worst_prox = max(worst_prox, abs(z.coords[0] - x.coords[0] / (1.0 + r)))
    out.append(_upper("equilibrium", "prox_oracle_match", worst_prox, 1e-8))

    domain_failures = 0
    for bf in lib:
        cfg = fields.ResolventConfig(lam=1.0, inner_tol=1e-10, inner_max_iter=2000)
        for _ in range(40):
            x = bf.manifold.random_point(rng, 3.0)
            try:
                eq.resolvent_T(bf, cfg, x)
            except fields.FieldError:
                domain_failures += 1
    out.append(_upper("equilibrium", "full_domain", float(domain_failures), 0.0))

    worst_r_mono = -math.inf
    grid = (0.1, 0.5, 1.0, 2.0, 10.0)
    for bf in lib:
        if bf.gradient_field is None:
            continue
        for _ in range(5):
            x = bf.manifold.random_point(rng, 2.0)
            gaps = []
            for r in grid:
                cfg = fields.ResolventConfig(lam=r, inner_tol=1e-12, inner_max_iter=2000)
                gaps.append(dist(eq.resolvent_T(bf, cfg, x)[0], x))
            for lo, hi in zip(gaps, gaps[1:]):
                worst_r_mono = max(worst_r_mono, lo - hi)
    out.append(_upper("equilibrium", "prox_step_monotone_in_r", worst_r_mono, 1e-9))

    good = eq.convex_difference(
        e1, lambda x: 0.5 * float(x.coords @ x.coords), g_field, name="sign_ok"
    )
    flipped = eq.generic_bifunction(
        e1,
        lambda x, y: 0.5 * float(x.coords @ x.coords) - 0.5 * float(y.coords @ y.coords),
        name="sign_flipped",
        anchors=(e1.base_point(),),
    )
    samples = [_pair(e1, rng, 2.0) for _ in range(20)]
    rep_good = eq.check_assumptions(good, samples)
    rep_bad = eq.check_assumptions(flipped, samples)
    out.append(
        PropertyResult(
            "equilibrium",
            "negative_control_sign_flip",
            rep_good.passed and not rep_bad.passed,
            rep_bad.convexity_max_violation,
            0.0,
            detail="flipped bifunction correctly FAILs (concave in y)",
        )
    )
    return out


# -- splitting ------------------------------------------------------------------


def splitting_suite(seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed + 3)
    out: list[PropertyResult] = []

    prob = apps.get_problem("euclid_quad")
    # the hand-computed values and the scalar recurrence below assume
    # relaxation 0.5 and unit resolvent steps
    half_unit = splitting.StepSchedule.constant(0.5, 0.5, 1.0, 1.0)
    step = splitting.algorithm1_step(prob, half_unit, 0, prob.x0, inner_tol=1e-14)
    hand = {
        "u0": abs(step.u.coords[0] - 4.0),
        "y0": abs(step.y.coords[0] - 6.0),
        "z0": abs(step.z.coords[0] - 3.0),
        "x1": abs(step.x_next.coords[0] - 5.5),
    }
    out.append(_upper("splitting", "hand_computed_step", max(hand.values()), 1e-12,
                      detail="u0=4, y0=6, z0=3, x1=5.5"))

    rep = splitting.validate_schedule(splitting.StepSchedule.constant(), 1000)
    ok = rep.passed
    bad = splitting.StepSchedule(
        lambda n: min(0.9, 1.0 / (n + 1)), lambda n: 0.5, lambda n: 1.0, lambda n: 1.0,
        splitting.ScheduleBounds(a=0.1), "alpha=min(0.9, 1/(n+1))",
    )
    rep_bad = splitting.validate_schedule(bad, 50)
    ok = ok and (not rep_bad.passed) and rep_bad.first_violation[0] == 10
    out.append(
        PropertyResult(
            "splitting", "schedule_validation", ok, 0.0 if ok else 1.0, 0.0,
            detail="constant PASS, alpha_n=1/(n+1) FAIL at n=10",
        )
    )

    worst_fejer = -math.inf
    worst_comp = -math.inf
    worst_step = 0.0
    worst_ref = 0.0
    for pid in ("euclid_quad", "hyper_dist"):
        trace = splitting.run(apps.get_problem(pid))
        diag = splitting.fejer_diagnostics(trace)
        worst_fejer = max(worst_fejer, diag.fejer_max_violation)
        worst_comp = max(worst_comp, diag.composite_max_violation)
        worst_step = max(worst_step, diag.final_step_distance)
        worst_ref = max(worst_ref, diag.final_ref_distance)
    out.append(_upper("splitting", "fejer_monotone", worst_fejer, 1e-9))
    out.append(_upper("splitting", "step_descent_inequality", worst_comp, 1e-8))
    out.append(_upper("splitting", "vanishing_steps", worst_step, 1e-6))
    out.append(_upper("splitting", "reference_distance", worst_ref, 1e-5))

    t1 = splitting.run(apps.get_problem("euclid_quad")).to_csv()
    t2 = splitting.run(apps.get_problem("euclid_quad")).to_csv()
    out.append(
        PropertyResult(
            "splitting", "trace_determinism", t1 == t2, 0.0 if t1 == t2 else 1.0, 0.0,
            detail="identical CSV bytes across two runs",
        )
    )

    prob = apps.get_problem("euclid_quad")
    x_scalar = prob.x0.coords[0]
    worst_ppa = 0.0
    trace = splitting.run(prob, half_unit, splitting.StoppingRule(max_iter=50, step_tol=0.0),
                          algorithm="inclusion")
    for rec in trace.records:
        x_scalar = x_scalar + 0.5 * (x_scalar / 2.0 - x_scalar)
        worst_ppa = max(worst_ppa, abs(rec.x_next.coords[0] - x_scalar))
    out.append(_upper("splitting", "relaxed_ppa_oracle", worst_ppa, 1e-10))

    trace3 = splitting.run(apps.get_problem("euclid_quad"), algorithm="equilibrium")
    out.append(_upper("splitting", "equilibrium_iteration_converges",
                      trace3.final_reference_distance(), 1e-5))

    try:
        splitting.fejer_diagnostics(splitting.run(apps.get_problem("euclid_quad")),
                                    ref=Euclidean(1).point([8.0]))
        refused = False
    except splitting.ReferenceMembershipError:
        refused = True
    out.append(
        PropertyResult(
            "splitting", "diagnostic_refusal_guard", refused, 0.0 if refused else 1.0, 0.0,
            detail="non-member reference refused",
        )
    )
    return out


# -- apps -----------------------------------------------------------------------


def apps_suite(seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed + 4)
    out: list[PropertyResult] = []

    hyp = Hyperboloid(2)
    anchors = [hyp.random_point(rng, 1.5) for _ in range(3)]
    prog = apps.squared_distance_program(anchors)
    worst_fd = 0.0
    for _ in range(10):
        x = hyp.random_point(rng, 2.0)
        (s,) = prog.subgradient(x)
        for _ in range(3):
            h = 1e-5
            u = hyp.random_tangent(rng, x, 1.0)
            fd = (prog.objective(exp_map(x, h * u)) - prog.objective(exp_map(x, -h * u))) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - inner(s, u)))
    out.append(_upper("apps", "subgradient_finite_difference", worst_fd, 1e-5))

    e1 = Euclidean(1)
    concave = apps.ConvexProgram(
        e1,
        lambda x: -float(x.coords[0] ** 2),
        lambda x: (TangentVector(x, -2.0 * x.coords),),
        name="concave_control",
    )
    try:
        apps.subdifferential_field(concave, rng=np.random.default_rng(seed + 5))
        refused = False
    except apps.RegistrationError as exc:
        refused = exc.witness is not None
    out.append(
        PropertyResult(
            "apps", "registration_refusal", refused, 0.0 if refused else 1.0, 0.0,
            detail="concave objective refused with witness",
        )
    )

    trace = splitting.run(apps.get_problem("hyper_frechet"))
    out.append(_upper("apps", "frechet_mean_vs_descent_oracle",
                      trace.final_reference_distance(), 1e-5))

    trace = splitting.run(apps.get_problem("spd_karcher"))
    out.append(_upper("apps", "spd_karcher_closed_form",
                      trace.final_reference_distance(), 1e-6))

    sp = apps.bilinear_saddle_problem()
    trace = apps.solve_saddle(sp, None, x0=sp.product.point([1.5, -1.0]))
    out.append(_upper("apps", "bilinear_saddle_origin",
                      trace.final_reference_distance(), 1e-6))
    x_t, y_t = sp.product.split_point(trace.final_point)
    left, right = apps.saddle_inequality_probe(sp, x_t, y_t,
                                               rng=np.random.default_rng(seed + 6))
    out.append(_upper("apps", "saddle_inequalities", max(left, right), 1e-6))

    worst_memb = 0.0
    for factory in (apps.bilinear_saddle_problem, apps.quadratic_saddle_problem):
        sp = factory()
        worst_memb = max(worst_memb, apps.saddle_membership_residual(sp, *sp.known_saddle))
    out.append(_upper("apps", "saddle_membership", worst_memb, 1e-9))

    sp = apps.quadratic_saddle_problem()
    worst_perturbed = math.inf
    for _ in range(25):
        u = sp.m1.random_tangent(rng, sp.known_saddle[0], 1e-2 + rng.uniform())
        v = sp.m2.random_tangent(rng, sp.known_saddle[1], 1e-2 + rng.uniform())
        res = apps.saddle_membership_residual(
            sp, exp_map(sp.known_saddle[0], u), exp_map(sp.known_saddle[1], v)
        )
        worst_perturbed = min(worst_perturbed, res)
    out.append(_lower("apps", "perturbed_non_saddles_detected", worst_perturbed, 1e-4))

    prod = Product((Euclidean(2), Hyperboloid(2)))
    worst_prod = 0.0
    for _ in range(20):
        x, y = prod.random_point(rng, 2.0), prod.random_point(rng, 2.0)
        stitched = np.concatenate(
            [log_map(a, b).components for a, b in zip(prod.split_point(x), prod.split_point(y))]
        )
        worst_prod = max(worst_prod, float(np.max(np.abs(log_map(x, y).components - stitched))))
    out.append(_upper("apps", "product_log_identity", worst_prod, 1e-12))

    lib_prog = apps.squared_distance_program(anchors)
    field = apps.subdifferential_field(lib_prog, rng=np.random.default_rng(seed + 7))
    mean = apps.frechet_mean(anchors)
    res_min = apps.minimizer_residual(lib_prog, mean)
    probes_ok = all(
        lib_prog.objective(mean) <= lib_prog.objective(hyp.random_point(rng, 3.0)) + 1e-8
        for _ in range(200)
    )
    out.append(
        PropertyResult(
            "apps", "minimizer_zero_equivalence",
            res_min <= 1e-8 and probes_ok, res_min, 1e-8,
            detail="zero subgradient iff no better probe",
        )
    )
    return out


SUITES = {
    "geometry": geometry_suite,
    "fields": fields_suite,
    "equilibrium": equilibrium_suite,
    "splitting": splitting_suite,
    "apps": apps_suite,
}


def run_suites(
    names: Sequence[str], seed: int, *, with_anti_monotone: bool = False
) -> tuple[list[PropertyResult], bool]:
    """Run the named suites; returns (results, all_passed)."""
    results: list[PropertyResult] = []
    for name in names:
        suite = SUITES[name]
        if name == "fields":
            results.extend(suite(seed, with_anti_monotone=with_anti_monotone))
        else:
            results.extend(suite(seed))
    return results, all(r.passed for r in results)


def format_report(results: Sequence[PropertyResult], seed: int) -> str:
    lines = [f"property verification (seed {seed})"]
    lines.extend(r.line() for r in results)
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} properties passed")
    return "\n".join(lines) + "\n"

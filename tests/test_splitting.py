"""Splitting iteration tests.

The scalar worked example is frozen from hand algebra (u0=4, y0=6,
z0=3, x1=5.5, per-step contraction 11/16); schedules, stopping rules,
trace serialization, convergence diagnostics, and the specialized
iterations are exercised against closed-form oracles.
"""

import collections
import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hsplit import apps, equilibrium
from hsplit.equilibrium import convex_difference, field_induced, generic_bifunction
from hsplit.fields import DistanceGradientField, LinearField, VectorField, resolvent_residual
from hsplit.manifold import (
    SPD,
    Euclidean,
    GeometryError,
    Hyperboloid,
    Product,
    TangentVector,
    dist,
    exp_map,
    log_map,
)
from hsplit.splitting import (
    DEFAULT_SCHEDULE,
    ProblemInstance,
    ReferenceMembershipError,
    ScheduleBounds,
    ScheduleError,
    StepSchedule,
    StoppingRule,
    TRACE_HEADER,
    algorithm1_step,
    algorithm2_step,
    algorithm3_step,
    choose_algorithm,
    fejer_diagnostics,
    membership_residuals,
    run,
    validate_schedule,
)


def euclid_quad():
    return apps.get_problem("euclid_quad")


#: the schedule the hand-computed values below assume: half relaxation, unit steps
HALF_UNIT = StepSchedule.constant(0.5, 0.5, 1.0, 1.0)


# -- single steps ------------------------------------------------------------------


def test_hand_computed_first_step():
    prob = euclid_quad()
    step = algorithm1_step(prob, HALF_UNIT, 0, prob.x0, inner_tol=1e-14)
    assert abs(step.u.coords[0] - 4.0) < 1e-12
    assert abs(step.y.coords[0] - 6.0) < 1e-12
    assert abs(step.z.coords[0] - 3.0) < 1e-12
    assert abs(step.x_next.coords[0] - 5.5) < 1e-12


def test_step_fixes_common_solutions():
    prob = euclid_quad()
    ref = prob.reference_solution
    step = algorithm1_step(prob, DEFAULT_SCHEDULE, 0, ref, inner_tol=1e-12)
    for point in (step.u, step.y, step.z, step.x_next):
        assert dist(point, ref) <= 1e-7


def test_small_alpha_keeps_y_close():
    prob = euclid_quad()
    sched = StepSchedule.constant(alpha=0.01, beta=0.5)
    step = algorithm1_step(prob, sched, 0, prob.x0)
    u_gap = dist(prob.x0, step.u)
    assert dist(prob.x0, step.y) <= 0.01 * u_gap + 1e-12


def test_algorithm2_first_step_arithmetic():
    prob = euclid_quad()
    step = algorithm2_step(prob, HALF_UNIT, 0, prob.x0)
    assert abs(step.x_next.coords[0] - 6.0) < 1e-12  # 8 + (4-8)/2


def test_algorithm3_first_step_arithmetic():
    m = Euclidean(1)
    bifun = convex_difference(
        m, lambda x: 0.5 * float(x.coords @ x.coords), LinearField(m, np.eye(1))
    )
    prob = ProblemInstance(m, m.point([4.0]), bifunction=bifun,
                           reference_solution=m.base_point(), name="quad_only")
    step = algorithm3_step(prob, HALF_UNIT, 0, prob.x0)
    assert abs(step.z.coords[0] - 2.0) < 1e-12
    assert abs(step.x_next.coords[0] - 3.0) < 1e-12


def test_algorithm1_with_zero_bifunction_composes_coefficients():
    # with no bifunction z_n = y_n, so one common-solution step equals
    # the inclusion step at the composite coefficient alpha * beta
    m = Euclidean(1)
    prob = ProblemInstance(m, m.point([8.0]), field=LinearField(m, np.eye(1)),
                           reference_solution=m.base_point(), name="inclusion_only")
    sched = StepSchedule.constant(alpha=0.4, beta=0.7)
    one = algorithm1_step(prob, sched, 0, prob.x0)
    composite = StepSchedule.constant(alpha=0.4 * 0.7)
    two = algorithm2_step(prob, composite, 0, prob.x0)
    assert abs(one.x_next.coords[0] - two.x_next.coords[0]) < 1e-12
    assert dist(one.z, one.y) == 0.0


def test_specialized_steps_require_their_component():
    m = Euclidean(1)
    prob_field = ProblemInstance(m, m.point([1.0]), field=LinearField(m, np.eye(1)))
    prob_bifun = ProblemInstance(
        m, m.point([1.0]),
        bifunction=convex_difference(
            m, lambda x: 0.5 * float(x.coords @ x.coords), LinearField(m, np.eye(1))
        ),
    )
    with pytest.raises(ValueError):
        algorithm2_step(prob_bifun, DEFAULT_SCHEDULE, 0, prob_bifun.x0)
    with pytest.raises(ValueError):
        algorithm3_step(prob_field, DEFAULT_SCHEDULE, 0, prob_field.x0)
    assert choose_algorithm(prob_field) == "inclusion"
    assert choose_algorithm(prob_bifun) == "equilibrium"
    assert choose_algorithm(euclid_quad()) == "common"


@pytest.mark.parametrize("manifold", [Euclidean(2), Hyperboloid(2)], ids=lambda m: m.tag)
def test_step_calls_raw_oracle_only_inside_its_resolvent(manifold, monkeypatch):
    # res_F is the residual the bifunction resolvent returned: the step
    # makes no oracle call, and so no finite difference, outside it
    anchor = manifold.base_point()
    x0 = manifold.exp(anchor, manifold.tangent_basis(anchor)[0])
    calls = {"n": 0}

    def oracle(x, y):
        calls["n"] += 1
        return 0.5 * dist(y, anchor) ** 2 - 0.5 * dist(x, anchor) ** 2

    bf = generic_bifunction(manifold, oracle, anchors=(anchor,))
    prob = ProblemInstance(manifold, x0, field=DistanceGradientField(anchor), bifunction=bf)
    inside = []
    resolvent_T = equilibrium.resolvent_T

    def counting(*args, **kwargs):
        before = calls["n"]
        result = resolvent_T(*args, **kwargs)
        inside.append(calls["n"] - before)
        return result

    monkeypatch.setattr(equilibrium, "resolvent_T", counting)
    algorithm1_step(prob, DEFAULT_SCHEDULE, 0, x0)
    assert len(inside) == 1 and inside[0] > 0
    assert calls["n"] == inside[0]


def test_step_evaluates_bifunction_field_once(monkeypatch):
    # hyper_dist's bifunction resolvent is a closed form; its residual
    # needs the one field value the solver already took
    prob = apps.get_problem("hyper_dist")
    field = prob.bifunction.gradient_field
    assert isinstance(field, DistanceGradientField)
    calls = {"n": 0}
    evaluate = field.evaluate

    def counting(x):
        calls["n"] += 1
        return evaluate(x)

    monkeypatch.setattr(field, "evaluate", counting)
    algorithm1_step(prob, DEFAULT_SCHEDULE, 0, prob.x0)
    assert calls["n"] == 1


@pytest.mark.parametrize("max_iter", [0, 5])
def test_run_refuses_algorithm_missing_its_part(max_iter):
    # checked before the schedule and the loop, whatever the budget
    m = Euclidean(1)
    field = LinearField(m, np.eye(1))
    prob_field = ProblemInstance(m, m.point([1.0]), field=field)
    prob_bifun = ProblemInstance(
        m, m.point([1.0]),
        bifunction=convex_difference(m, lambda x: 0.5 * float(x.coords @ x.coords), field),
    )
    bad = StepSchedule.constant(alpha=0.999, bounds=ScheduleBounds(b=0.99))
    for schedule in (DEFAULT_SCHEDULE, bad):
        stop = StoppingRule(max_iter=max_iter)
        with pytest.raises(ValueError, match="needs a bifunction"):
            run(prob_field, schedule, stop, algorithm="equilibrium")
        with pytest.raises(ValueError, match="needs a vector field"):
            run(prob_bifun, schedule, stop, algorithm="inclusion")


# -- schedules -----------------------------------------------------------------------


def test_constant_schedule_valid():
    report = validate_schedule(StepSchedule.constant(), 1000)
    assert report.passed


def test_schedule_alpha_decay_fails_at_ten():
    sched = StepSchedule(
        lambda n: min(0.9, 1.0 / (n + 1)), lambda n: 0.5, lambda n: 1.0, lambda n: 1.0,
        ScheduleBounds(a=0.1), "alpha decay",
    )
    report = validate_schedule(sched, 50)
    assert not report.passed
    n, condition = report.first_violation
    assert n == 10 and "alpha" in condition


def test_schedule_oscillating_r_liminf_surrogate():
    sched = StepSchedule(
        lambda n: 0.5, lambda n: 0.5, lambda n: 1.0,
        lambda n: 1.0 + (-1.0) ** n / 2.0,
        ScheduleBounds(r_min=0.4), "oscillating r",
    )
    assert validate_schedule(sched, 200).passed


def test_schedule_bounds_validation():
    with pytest.raises(ScheduleError):
        ScheduleBounds(a=0.0)
    with pytest.raises(ScheduleError):
        ScheduleBounds(a=0.6, b=0.5)
    with pytest.raises(ScheduleError):
        ScheduleBounds(r_min=0.0)
    with pytest.raises(ScheduleError):
        ScheduleBounds(lam_lo=0.0)


@pytest.mark.parametrize("r_min", [math.nan, math.inf])
def test_schedule_bounds_refuse_nonfinite_r_min(r_min):
    with pytest.raises(ScheduleError):
        ScheduleBounds(r_min=r_min)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_schedule_refuses_nonfinite_r(r):
    report = validate_schedule(StepSchedule.constant(r=r), 10)
    assert not report.passed
    assert report.first_violation[0] == 0 and "r_n" in report.first_violation[1]


def _as_lambdas(schedule):
    # the same values as custom sequences, which the check visits index by index
    a, b, lam, r = (f(0) for f in (schedule.alpha, schedule.beta, schedule.lam, schedule.r))
    return StepSchedule(
        lambda n: a, lambda n: b, lambda n: lam, lambda n: r, schedule.bounds, "custom"
    )


@pytest.mark.parametrize("horizon", [1, 10, 10_000])
@pytest.mark.parametrize(
    "values",
    [{}, {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": math.nan}, {"alpha": math.inf},
     {"beta": 0.995}, {"beta": math.nan}, {"beta": -math.inf},
     {"lam": 0.001}, {"lam": 1e3}, {"lam": math.nan}, {"lam": math.inf},
     {"r": 0.001}, {"r": math.nan}, {"r": math.inf}, {"r": -math.inf}],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()) or "in-bounds",
)
def test_constant_schedule_report_equals_indexwise_report(values, horizon):
    sched = StepSchedule.constant(**values)
    report = validate_schedule(sched, horizon)
    assert report == validate_schedule(_as_lambdas(sched), horizon)
    assert report.passed == (not values)


def test_mixed_schedule_checks_every_index():
    # constant alpha, beta and lam; a custom r that leaves its bound only at n = 5000
    sched = dataclasses.replace(StepSchedule.constant(), r=lambda n: 0.001 if n == 5000 else 1.0)
    report = validate_schedule(sched, 10_000)
    assert report.first_violation == (5000, "r_n=0.001 outside [0.01, inf)")
    assert validate_schedule(sched, 4999).passed


def test_constant_schedule_check_is_constant_time():
    # no Python function runs more than a few times, where an index-by-index
    # check would call each of the four sequences 10**6 + 1 times
    sched = StepSchedule.constant()
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        report = validate_schedule(sched, 10**6)
    finally:
        sys.setprofile(None)
    assert report.passed and report.horizon == 10**6
    assert max(calls.values()) <= 10


@pytest.mark.parametrize(
    "kwargs",
    [{"max_iter": -1}, {"step_tol": -1.0}, {"step_tol": math.nan},
     {"ref_tol": -1.0}, {"ref_tol": math.nan}],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_stopping_rule_refuses_invalid_values(kwargs):
    with pytest.raises(ValueError):
        StoppingRule(**kwargs)


def test_run_rejects_invalid_schedule_before_iterating():
    m = Euclidean(1)
    calls = {"n": 0}

    def counting(x):
        calls["n"] += 1
        return (TangentVector(x, x.coords.copy()),)

    prob = ProblemInstance(m, m.point([1.0]),
                           field=VectorField(m, counting, single_valued=True))
    bad = StepSchedule.constant(alpha=0.999, bounds=ScheduleBounds(b=0.99))
    with pytest.raises(ScheduleError):
        run(prob, bad, StoppingRule(max_iter=10))
    assert calls["n"] == 0


# -- run ------------------------------------------------------------------------------


def test_run_zero_iterations_trace_only_x0():
    trace = run(euclid_quad(), stop=StoppingRule(max_iter=0))
    assert trace.iterations == 0
    assert trace.termination_reason == "max_iter"
    assert dist(trace.final_point, euclid_quad().x0) == 0.0
    csv = trace.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 2 and lines[1].startswith("0,nan")


def test_run_converges_to_common_zero():
    trace = run(euclid_quad(), stop=StoppingRule(max_iter=10_000, step_tol=1e-10))
    assert trace.termination_reason == "step_tol"
    assert trace.final_reference_distance() <= 1e-9
    refs = [rec.d_ref for rec in trace.records]
    assert all(b < a for a, b in zip(refs, refs[1:]))  # strictly decreasing


def test_run_contraction_pattern():
    trace = run(euclid_quad(), HALF_UNIT, StoppingRule(max_iter=5, step_tol=0.0))
    for n, rec in enumerate(trace.records):
        assert abs(rec.d_ref - 8.0 * 0.6875**n) < 1e-9


def test_run_hyperboloid_distance_problem():
    trace = run(apps.get_problem("hyper_dist"))
    ref = apps.get_problem("hyper_dist").reference_solution
    assert trace.final_reference_distance() <= 1e-6
    refs = [rec.d_ref for rec in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(refs, refs[1:]))


def test_run_ref_tolerance_stopping():
    trace = run(euclid_quad(), stop=StoppingRule(max_iter=10_000, step_tol=0.0, ref_tol=1e-3))
    assert trace.termination_reason == "ref_tol"
    assert trace.final_reference_distance() <= 1e-3


def test_run_adaptive_inner_tolerance_bounds_residuals():
    trace = run(euclid_quad())
    for rec in trace.records:
        assert rec.res_field <= 1e-10 + 1e-15
        assert rec.res_bifun <= 1e-10 + 1e-15


def test_run_resolvent_failure_keeps_partial_trace():
    m = Euclidean(1)

    def sign_field(x):
        # extreme points of the abs-value subdifferential: at the kink
        # the resolvent equation needs an interior selection, which this
        # representation cannot certify, so the inner solver must give up
        v = x.coords[0]
        if v == 0.0:
            return (TangentVector(x, np.array([-1.0])), TangentVector(x, np.array([1.0])))
        return (TangentVector(x, np.array([math.copysign(1.0, v)])),)

    prob = ProblemInstance(m, m.point([0.25]), field=VectorField(m, sign_field, name="stuck"))
    trace = run(prob, stop=StoppingRule(max_iter=50), inner_max_iter=30)
    assert trace.termination_reason == "resolvent_failure"
    assert trace.error != ""
    assert trace.iterations == 0


def test_run_oracle_failure_keeps_partial_trace():
    # a raw oracle that turns non-finite partway through a run ends the
    # run as a resolvent failure, with the iterations before it recorded
    m = Euclidean(1)
    calls = {"n": 0}

    def oracle(x, y):
        calls["n"] += 1
        if calls["n"] > 2000:
            return math.nan
        return 0.5 * float(y.coords @ y.coords) - 0.5 * float(x.coords @ x.coords)

    origin = m.base_point()
    bf = generic_bifunction(m, oracle, name="failing", anchors=(origin,))
    prob = ProblemInstance(m, m.point([2.0]), bifunction=bf)
    trace = run(prob, HALF_UNIT, StoppingRule(max_iter=50, step_tol=1e-8))
    assert trace.termination_reason == "resolvent_failure"
    assert "non-finite" in trace.error
    assert 0 < trace.iterations < 50
    assert [rec.n for rec in trace.records] == list(range(trace.iterations))
    assert trace.final_point is trace.records[-1].x_next


def _generic_workload_traces(seed):
    # the twelve raw-oracle instances the generic_equilibrium workload
    # draws for a seed: anchors within radius 1 of the base point, starts
    # at stratified radii in [0.5, 3]; each run under the default schedule
    rng = np.random.default_rng(seed)
    radii = [0.5 + 2.5 * (k + rng.uniform()) / 6 for k in range(6)]
    for radius in radii:
        for m in (Euclidean(2), Hyperboloid(2)):
            anchor = m.random_point(rng, 1.0)

            def half_sq_dist_difference(x, y, anchor=anchor):
                return 0.5 * dist(y, anchor) ** 2 - 0.5 * dist(x, anchor) ** 2

            bf = generic_bifunction(m, half_sq_dist_difference, anchors=(anchor,))
            start = exp_map(anchor, m.random_tangent(rng, anchor, radius))
            prob = ProblemInstance(m, start, field=DistanceGradientField(anchor),
                                   bifunction=bf, reference_solution=anchor)
            yield run(prob, stop=StoppingRule(step_tol=1e-8))


def _assert_workload_gate(trace):
    # ends by step_tol, within 100 * step_tol of the anchor, Fejer replay passes
    assert trace.termination_reason == "step_tol"
    assert trace.final_reference_distance() <= 1e-6
    assert fejer_diagnostics(trace).passed


@pytest.mark.parametrize("seed", range(5))
def test_seeded_generic_instances_pass_the_workload_gate(seed):
    # every resolvent of these runs is certified on the frame-built probes
    for trace in _generic_workload_traces(seed):
        _assert_workload_gate(trace)


def test_default_schedule_solves_seeded_generic_instances_within_150_iterations():
    # the seed-5 instances pass the gate and all twelve together take at
    # most 150 iterations
    iterations = 0
    for trace in _generic_workload_traces(5):
        _assert_workload_gate(trace)
        iterations += trace.iterations
    assert iterations <= 150


def test_run_geometry_failure_keeps_trace():
    # a GeometryError inside a step ends the run with the trace so far: a
    # zero field whose third evaluation raises, outside any resolvent
    # trial, in the third iteration.  (A field 1e6 times too steep, whose
    # first trial overflowed exp, ended here too, until failing trials
    # became rejected trials; the resolvent now converges.)
    m = Hyperboloid(2)
    base = m.base_point()
    calls = {"n": 0}

    def zero_until_third_call(x):
        calls["n"] += 1
        if calls["n"] == 3:
            raise GeometryError("third evaluation refused")
        return (m.zero_vector(x),)

    failing = VectorField(m, zero_until_third_call, name="failing")
    trace = run(ProblemInstance(m, base, field=failing),
                stop=StoppingRule(max_iter=5, step_tol=None))
    assert trace.termination_reason == "resolvent_failure"
    assert trace.error == "third evaluation refused"
    assert [rec.n for rec in trace.records] == [0, 1]
    # a raw oracle anchored at hyperbolic radius 19, where distances drift
    # by about 0.4: its diagonal-gradient resolvent fails, with a trace
    far = m.exp(base, m.tangent(base, [0.0, 19.0 * math.cos(1.85), 19.0 * math.sin(1.85)]))

    def half_sq_dist_difference(x, y):
        return 0.5 * dist(y, far) ** 2 - 0.5 * dist(x, far) ** 2

    bf = generic_bifunction(m, half_sq_dist_difference, anchors=(far,))
    trace = run(ProblemInstance(m, far, bifunction=bf), stop=StoppingRule(max_iter=5))
    assert trace.termination_reason == "resolvent_failure"
    assert [rec.n for rec in trace.records] == list(range(trace.iterations))
    steep = VectorField(m, lambda x: (1e6 * -log_map(x, base),), name="steep")
    prob = ProblemInstance(m, m.point([math.cosh(1.0), math.sinh(1.0), 0.0]), field=steep)
    assert run(prob, stop=StoppingRule(max_iter=50)).termination_reason == "step_tol"


@pytest.mark.parametrize("lam", [1.0, 2.0, 10.0, 100.0])
def test_run_overflowing_exp_keeps_trace(lam):
    # the damped fixed-point step overflows exp: a field 1e6 times too
    # steep on SPD(2), and a field with a singular Newton system at
    # 1.5e308 on the line.  Each overflowing trial is rejected, before
    # numpy warns, and the step halves until the resolvent stalls; each
    # run ends with the stall and a trace.  For lam >= 2 the line's
    # resolvent defect at the start is past the float range, and the
    # resolvent stalls there, again without a numpy warning
    spd = SPD(2)
    a = spd.point(np.diag([2.0, 3.0]).ravel())
    steep = VectorField(spd, lambda x: (1e6 * -log_map(x, a),), name="steep")
    line = Euclidean(1)
    anti = VectorField(line, lambda x: (TangentVector(x, -x.coords),), name="anti")
    for prob in (
        ProblemInstance(spd, spd.base_point(), field=steep),
        ProblemInstance(line, line.point([1.5e308]), field=anti),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(prob, StepSchedule.constant(lam=lam), StoppingRule(max_iter=50))
        assert trace.termination_reason == "resolvent_failure"
        assert "stalled" in trace.error
        assert [rec.n for rec in trace.records] == list(range(trace.iterations))


@pytest.mark.parametrize("manifold", [Euclidean(1), Hyperboloid(2)], ids=lambda m: m.tag)
def test_run_large_r_generic_bifunction_converges(manifold):
    # r = 20 is inside the schedule bounds, so the raw oracle's resolvent
    # must converge there as it does for small r
    anchor = manifold.base_point()
    x0 = manifold.exp(anchor, manifold.tangent_basis(anchor)[0])

    def half_sq_dist_difference(x, y):
        return 0.5 * dist(y, anchor) ** 2 - 0.5 * dist(x, anchor) ** 2

    bf = generic_bifunction(manifold, half_sq_dist_difference, anchors=(anchor,))
    prob = ProblemInstance(
        manifold, x0, field=DistanceGradientField(anchor), bifunction=bf,
        reference_solution=anchor,
    )
    trace = run(prob, StepSchedule.constant(r=20.0), StoppingRule(step_tol=1e-8))
    assert trace.termination_reason == "step_tol"
    assert trace.final_reference_distance() <= 1e-6


@pytest.mark.parametrize("manifold", [Euclidean(2), Hyperboloid(2)], ids=lambda m: m.tag)
def test_run_generic_bifunction_records_diagonal_residual(manifold):
    # res_F of a raw oracle is the measured resolvent defect of its
    # diagonal gradient field, not the inner tolerance it was asked for
    anchor = manifold.base_point()
    x0 = manifold.exp(anchor, manifold.tangent_basis(anchor)[0])
    bf = generic_bifunction(
        manifold,
        lambda x, y: 0.5 * dist(y, anchor) ** 2 - 0.5 * dist(x, anchor) ** 2,
        anchors=(anchor,),
    )
    prob = ProblemInstance(manifold, x0, bifunction=bf, reference_solution=anchor)
    trace = run(prob, stop=StoppingRule(step_tol=1e-8))
    assert trace.termination_reason == "step_tol"
    for rec in trace.records:
        expected = resolvent_residual(bf.resolvent_field, rec.r, rec.y, rec.z)
        assert rec.res_bifun == expected


def test_run_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        run(euclid_quad(), algorithm="nosuch")


def test_problem_instance_validation():
    m = Euclidean(1)
    with pytest.raises(ValueError):
        ProblemInstance(m, m.point([0.0]))  # neither field nor bifunction
    with pytest.raises(ValueError):
        ProblemInstance(
            m, m.point([0.0]), field=LinearField(m, np.eye(1)),
            reference_solution=m.point([3.0]),  # not a zero
        )
    res_a, res_f = membership_residuals(
        LinearField(m, np.eye(1)), None, m.point([3.0])
    )
    assert res_a == 3.0 and res_f == 0.0


@pytest.mark.parametrize("make", ["convex_difference", "field_induced"])
@pytest.mark.parametrize("m", [Euclidean(3), Hyperboloid(2)], ids=lambda m: m.tag)
def test_membership_probes_evaluate_each_point_once(make, m, rng):
    # 4*dim frame probes (two radii, two signs) plus each known
    # equilibrium once; the structured constructors set no anchors
    p = m.random_point(rng, 1.0)
    field = DistanceGradientField(p)
    if make == "convex_difference":
        bf = convex_difference(m, lambda x: 0.5 * dist(x, p) ** 2, field)
    else:
        bf = field_induced(field)
    calls = {"n": 0}
    evaluate = bf.eval

    def counting(x, y):
        calls["n"] += 1
        return evaluate(x, y)

    bf.eval = counting
    membership_residuals(None, bf, m.random_point(rng, 1.0))
    assert calls["n"] == 4 * m.manifold_dim + len(bf.known_equilibria)


def test_reference_membership_checked_once_per_field_bifunction_and_point():
    # a problem rebuilt with a new start, and the Fejer replay of its trace,
    # reuse the reference's check against the same parts; other parts at the
    # same point are checked again, and one the point fails is still refused
    m = Hyperboloid(2)
    anchor = m.base_point()
    calls = {"n": 0}

    def oracle(x, y):
        calls["n"] += 1
        return 0.5 * dist(y, anchor) ** 2 - 0.5 * dist(x, anchor) ** 2

    field = DistanceGradientField(anchor)
    bf = generic_bifunction(m, oracle, anchors=(anchor,))
    prob = ProblemInstance(m, anchor, field=field, bifunction=bf, reference_solution=anchor)
    checked = calls["n"]
    assert checked == 4 * m.manifold_dim + 1
    moved = dataclasses.replace(prob, x0=m.exp(anchor, m.tangent_basis(anchor)[0]))
    assert calls["n"] == checked
    trace = run(moved, stop=StoppingRule(max_iter=1))
    calls["n"] = 0
    assert fejer_diagnostics(trace).passed
    assert calls["n"] == 0
    ProblemInstance(m, anchor, field=field,
                    bifunction=generic_bifunction(m, oracle, anchors=(anchor,)),
                    reference_solution=anchor)
    assert calls["n"] == checked
    other = m.exp(anchor, m.tangent_basis(anchor)[1])
    with pytest.raises(ValueError, match="fails membership"):
        ProblemInstance(m, anchor, field=DistanceGradientField(other),
                        bifunction=bf, reference_solution=anchor)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from((Euclidean(2), Hyperboloid(2), Hyperboloid(3), SPD(2),
                     Product((Euclidean(1), Hyperboloid(2))))),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_membership_probes_match_scalar_exp_reference_property(m, seed, ra, rp):
    # the frame probes are the exp_map loop they replace, evaluated in the
    # same order, and the residual is the loop's: bit for bit off the
    # Hyperboloid; on it each probe is within the float64 Lorentz floor
    # 16 eps cosh(R)^2 of the loop's, and the residual within that floor
    # times the oracle's Lipschitz bound d(y, a) <= ra + rp + 1
    rng = np.random.default_rng(seed)
    base = m.base_point()
    try:
        a = m.exp(base, m.random_tangent(rng, base, ra))
        p = m.exp(base, m.random_tangent(rng, base, rp))
    except GeometryError:
        assume(False)
    seen = []

    def oracle(x, y):
        seen.append(y.coords.tolist())
        return 0.5 * dist(y, a) ** 2 - 0.5 * dist(x, a) ** 2

    bf = generic_bifunction(m, oracle, anchors=(a,))
    _, res_f = membership_residuals(None, bf, p)
    batched, seen[:] = list(seen), []

    probes = [
        exp_map(p, float(s) * radius * b)
        for b in m.tangent_basis(p)
        for radius in (0.5, 1.0)
        for s in (1.0, -1.0)
    ]
    probes.append(a)
    expected = max(0.0, -min(bf.eval(p, y) for y in probes))
    assert len(batched) == len(seen) == 4 * m.manifold_dim + 1
    if isinstance(m, Hyperboloid):
        floor = 16.0 * np.finfo(float).eps * math.cosh(rp + 1.0) ** 2
        for c, y in zip(batched, probes):
            assert dist(m.point(c), y) <= floor
        assert abs(res_f - expected) <= (ra + rp + 1.0) * floor
    else:
        assert res_f == expected
        assert batched == seen


# -- traces ---------------------------------------------------------------------------


def test_trace_records_contiguous_and_nonnegative():
    trace = run(euclid_quad())
    for n, rec in enumerate(trace.records):
        assert rec.n == n
        assert rec.d_step >= 0.0 and rec.d_xy >= 0.0 and rec.d_xz >= 0.0
    assert len(trace.points) == trace.iterations + 1


def test_trace_csv_schema_and_determinism():
    t1 = run(euclid_quad()).to_csv()
    t2 = run(euclid_quad()).to_csv()
    assert t1 == t2
    lines = t1.strip().splitlines()
    assert lines[0] == "n,dx_step,dx_y,dx_z,dx_ref,res_A,res_F,wall_ms"
    assert all(len(line.split(",")) == 8 for line in lines[1:])
    assert all(line.endswith(",0.0") for line in lines[1:])  # deterministic timing


def test_trace_write_and_sidecar(tmp_path):
    trace = run(euclid_quad())
    csv_path, meta_path = trace.write(tmp_path, "euclid_quad")
    assert csv_path.read_text() == trace.to_csv()
    meta = json.loads(meta_path.read_text())
    assert meta["problem"] == "euclid_quad"
    assert meta["manifold"] == "euclidean:1"
    assert meta["termination"] == "step_tol"
    assert meta["iterations"] == trace.iterations
    assert "total_wall_ms" not in meta
    meta2 = trace.sidecar(include_timing=True)
    assert meta2["total_wall_ms"] >= 0.0


# -- diagnostics -------------------------------------------------------------------------


def test_fejer_diagnostics_pass_on_library_runs():
    for pid in ("euclid_quad", "hyper_dist", "saddle_quadratic"):
        trace = run(apps.get_problem(pid))
        rep = fejer_diagnostics(trace)
        assert rep.passed, f"{pid}: {rep}"
        assert rep.fejer_max_violation <= 1e-9
        assert rep.composite_max_violation <= 1e-8
        assert rep.final_step_distance <= 1e-6
        assert rep.final_y_gap <= 1e-6
        assert rep.tail_nonincreasing


def test_fejer_diagnostics_constant_trace():
    prob = euclid_quad()
    at_ref = ProblemInstance(
        prob.manifold, prob.reference_solution, field=prob.field,
        bifunction=prob.bifunction, reference_solution=prob.reference_solution,
        name="at_ref",
    )
    trace = run(at_ref, stop=StoppingRule(max_iter=5, step_tol=0.0))
    rep = fejer_diagnostics(trace)
    assert rep.passed
    assert rep.final_ref_distance <= 1e-9


def test_fejer_diagnostics_refuses_non_member_reference():
    trace = run(euclid_quad())
    with pytest.raises(ReferenceMembershipError) as err:
        fejer_diagnostics(trace, ref=Euclidean(1).point([8.0]))
    assert err.value.res_field > 1e-6


def test_fejer_diagnostics_requires_some_reference():
    m = Euclidean(1)
    prob = ProblemInstance(m, m.point([2.0]), field=LinearField(m, np.eye(1)))
    trace = run(prob, stop=StoppingRule(max_iter=3))
    with pytest.raises(ValueError):
        fejer_diagnostics(trace)


# -- specialization coherence ---------------------------------------------------------------


def test_relaxed_proximal_point_matches_scalar_oracle():
    prob = euclid_quad()
    trace = run(prob, HALF_UNIT, StoppingRule(max_iter=50, step_tol=0.0), algorithm="inclusion")
    x = 8.0
    for rec in trace.records:
        x = x + 0.5 * (x / 2.0 - x)  # relaxed proximal point recurrence
        assert abs(rec.x_next.coords[0] - x) < 1e-10


def test_equilibrium_only_iteration_converges():
    m = Euclidean(1)
    bifun = convex_difference(
        m, lambda x: 0.5 * float(x.coords @ x.coords), LinearField(m, np.eye(1))
    )
    prob = ProblemInstance(m, m.point([4.0]), bifunction=bifun,
                           reference_solution=m.base_point(), name="equilibrium_only")
    trace = run(prob)
    assert trace.final_reference_distance() <= 1e-8

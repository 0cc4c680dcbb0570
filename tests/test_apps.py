"""Application-layer tests: convex programs, saddle problems, problem library.

Reference values come from independent routes: finite differences for
subgradients, geodesic gradient descent with line search for weighted
means, the matrix geometric mean for commuting SPD anchors, and direct
algebra for the saddle examples.
"""

import dataclasses

import numpy as np
import pytest

from hsplit.apps import (
    ConvexProgram,
    RegistrationError,
    SaddleProblem,
    bilinear_saddle_problem,
    frechet_mean,
    get_problem,
    linear_program,
    minimizer_residual,
    problem_ids,
    problem_metadata,
    quadratic_saddle_problem,
    saddle_field,
    saddle_inequality_probe,
    saddle_membership_residual,
    solve_minimization,
    solve_saddle,
    squared_distance_program,
    subdifferential_field,
)
from hsplit.equilibrium import convex_difference
from hsplit.fields import (
    DistanceGradientField,
    anti_monotone_field,
    check_monotone,
    monotonicity_slack,
)
from hsplit.manifold import (
    SPD,
    Euclidean,
    Hyperboloid,
    TangentVector,
    dist,
    exp_map,
    inner,
    log_map,
    norm,
)
from hsplit.splitting import run


# -- subdifferential fields ------------------------------------------------------


def test_subdifferential_of_squared_distance_is_negative_log(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.5)
    prog = squared_distance_program([p])
    field = subdifferential_field(prog, rng=rng)
    for _ in range(10):
        x = m.random_point(rng, 2.0)
        (g,) = field.evaluate(x)
        assert norm(g - (-1.0) * log_map(x, p)) < 1e-12
        # finite-difference directional derivative agrees
        u = m.random_tangent(rng, x, 1.0)
        h = 1e-5
        fd = (prog.objective(exp_map(x, h * u)) - prog.objective(exp_map(x, -h * u))) / (2 * h)
        assert abs(fd - inner(g, u)) < 1e-5


def test_linear_program_constant_field(rng):
    m = Euclidean(3)
    prog = linear_program(m, [1.0, -2.0, 0.5])
    field = subdifferential_field(prog, rng=rng)
    for _ in range(5):
        (g,) = field.evaluate(m.random_point(rng, 2.0))
        assert np.allclose(g.components, [1.0, -2.0, 0.5])


def test_zero_subgradient_at_registered_minimizers():
    for pid in ("hyper_frechet", "spd_karcher"):
        problem = get_problem(pid)
        ref = problem.reference_solution
        assert norm(problem.field.selection(ref)) <= 1e-9


def test_registration_refused_for_nonconvex_objective(rng):
    m = Euclidean(1)
    concave = ConvexProgram(
        m,
        lambda x: -float(x.coords[0] ** 2),
        lambda x: (TangentVector(x, -2.0 * x.coords),),
        name="concave",
    )
    with pytest.raises(RegistrationError) as err:
        subdifferential_field(concave, rng=rng)
    assert err.value.witness is not None


def test_registration_refused_for_wrong_subgradients(rng):
    m = Euclidean(1)
    lying = ConvexProgram(
        m,
        lambda x: 0.5 * float(x.coords[0] ** 2),
        lambda x: (TangentVector(x, -x.coords),),  # wrong sign
        name="lying",
    )
    with pytest.raises(RegistrationError):
        subdifferential_field(lying, rng=rng)


def test_registration_checks_the_handed_on_gradient_field(rng):
    # a program's gradient_field goes through every registration check:
    # convexity and the subgradient inequality on the program, monotonicity
    # on the field that subdifferential_field returns
    m = Euclidean(1)
    prog = squared_distance_program([m.point([1.0])])
    assert subdifferential_field(prog, rng=rng) is prog.gradient_field
    concave = dataclasses.replace(prog, objective=lambda x: -prog.objective(x))
    with pytest.raises(RegistrationError):
        subdifferential_field(concave, rng=rng)
    anti = dataclasses.replace(prog, gradient_field=anti_monotone_field(m))
    with pytest.raises(RegistrationError, match="monotonicity"):
        subdifferential_field(anti, rng=rng)


def test_hyper_dist_closed_form_run():
    # the field resolvent is the geodesic point toward the anchor: the run
    # keeps its 11 iterations, its final point moves in the last bits
    # (final_dx_ref 8.9411057e-11 with the inner solver, 8.941106306e-11
    # with geodesics through exp and log, 8.941130195e-11 with the closed
    # form), and every field residual is at rounding level
    problem = get_problem("hyper_dist")
    assert isinstance(problem.field, DistanceGradientField)
    trace = run(problem)
    assert trace.termination_reason == "step_tol" and trace.iterations == 11
    assert abs(trace.final_reference_distance() - 8.941130195e-11) < 3e-18
    assert max(rec.res_field for rec in trace.records) <= 1e-12


def test_subdifferential_monotone_on_samples(rng):
    m = Hyperboloid(2)
    anchors = [m.random_point(rng, 1.5) for _ in range(3)]
    field = subdifferential_field(squared_distance_program(anchors), rng=rng)
    pairs = [(m.random_point(rng, 2.0), m.random_point(rng, 2.0)) for _ in range(200)]
    assert check_monotone(field, pairs).passed


# -- minimization ------------------------------------------------------------------


def test_frechet_mean_oracle_basics(rng):
    m = Euclidean(2)
    a, b = m.point([0.0, 0.0]), m.point([2.0, 4.0])
    mean = frechet_mean([a, b], [0.25, 0.75])
    assert np.allclose(mean.coords, [1.5, 3.0], atol=1e-9)
    p = Hyperboloid(2).random_point(rng, 1.0)
    assert dist(frechet_mean([p]), p) <= 1e-12


def test_solve_minimization_hyperbolic_frechet_mean(rng):
    m = Hyperboloid(2)
    base = m.base_point()
    anchors = [
        exp_map(base, m.tangent(base, v, project=True))
        for v in ([0.0, 0.7, 0.1], [0.0, -0.3, 0.5], [0.0, -0.1, -0.6])
    ]
    mean = frechet_mean(anchors)
    prog = squared_distance_program(anchors, known_minimizer=mean)
    bifun = convex_difference(
        m, prog.objective, subdifferential_field(prog, check=False),
        known_equilibria=(mean,),
    )
    trace = solve_minimization(prog, bifun, x0=anchors[0])
    assert dist(trace.final_point, mean) <= 1e-5


def test_solve_minimization_quadratic_without_bifunction(rng):
    m = Euclidean(2)
    p = m.point([1.0, -2.0])
    prog = squared_distance_program([p])
    trace = solve_minimization(prog, None, x0=m.point([5.0, 5.0]))
    assert dist(trace.final_point, p) <= 1e-6


def test_spd_karcher_mean_commuting_closed_form():
    trace = run(get_problem("spd_karcher"))
    expected = SPD(2).point((2.0 * np.eye(2)).ravel())
    assert dist(trace.final_point, expected) <= 1e-6


# -- saddle problems ----------------------------------------------------------------


def test_bilinear_saddle_field_values(rng):
    sp = bilinear_saddle_problem()
    field = saddle_field(sp, rng=rng)
    prod = sp.product
    for _ in range(10):
        z = prod.random_point(rng, 2.0)
        x, y = prod.split_point(z)
        (value,) = field.evaluate(z)
        assert np.allclose(value.components, [-y.coords[0], x.coords[0]])


def test_zero_saddle_function_every_point_is_saddle(rng):
    m = Euclidean(1)
    sp = SaddleProblem(
        m, m,
        h=lambda x, y: 0.0,
        neg_x_subgradient=lambda x, y: (TangentVector(x, np.zeros(1)),),
        y_subgradient=lambda x, y: (TangentVector(y, np.zeros(1)),),
        name="zero",
    )
    for _ in range(10):
        x, y = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
        assert saddle_membership_residual(sp, x, y) == 0.0


def test_separated_squared_distance_saddle(rng):
    # H(x,y) = -d(x,a)^2/2 + d(y,b)^2/2 is concave-convex with saddle (a, b)
    m1, m2 = Hyperboloid(2), Euclidean(2)
    a = m1.random_point(rng, 1.0)
    b = m2.point([1.0, 2.0])
    sp = SaddleProblem(
        m1, m2,
        h=lambda x, y: -0.5 * dist(x, a) ** 2 + 0.5 * dist(y, b) ** 2,
        neg_x_subgradient=lambda x, y: (-1.0 * log_map(x, a),),
        y_subgradient=lambda x, y: (-1.0 * log_map(y, b),),
        known_saddle=(a, b),
        name="separated",
    )
    assert saddle_membership_residual(sp, a, b) <= 1e-9
    trace = solve_saddle(sp, None)
    assert trace.final_reference_distance() <= 1e-6


def test_registration_refused_for_convex_concave_swap(rng):
    m = Euclidean(1)
    sp = SaddleProblem(
        m, m,
        h=lambda x, y: 0.5 * float(x.coords[0] ** 2) - 0.5 * float(y.coords[0] ** 2),
        neg_x_subgradient=lambda x, y: (TangentVector(x, -x.coords),),
        y_subgradient=lambda x, y: (TangentVector(y, -y.coords),),
        name="swapped",
    )
    with pytest.raises(RegistrationError):
        saddle_field(sp, rng=rng)


def _refusing_registration(name, rng):
    e1, h2 = Euclidean(1), Hyperboloid(2)
    a = h2.base_point()
    if name == "concave":
        prog = ConvexProgram(e1, lambda x: -float(x.coords[0] ** 2),
                             lambda x: (TangentVector(x, -2.0 * x.coords),), name=name)
        return subdifferential_field(prog, rng=rng)
    if name == "lying":
        prog = ConvexProgram(e1, lambda x: 0.5 * float(x.coords[0] ** 2),
                             lambda x: (TangentVector(x, -x.coords),), name=name)
        return subdifferential_field(prog, rng=rng)
    if name == "hyper_concave":
        prog = ConvexProgram(h2, lambda x: -dist(x, a) ** 2,
                             lambda x: (2.0 * log_map(x, a),), name=name)
        return subdifferential_field(prog, rng=rng)
    if name == "swapped":
        sp = SaddleProblem(
            e1, e1, h=lambda x, y: 0.5 * float(x.coords[0] ** 2) - 0.5 * float(y.coords[0] ** 2),
            neg_x_subgradient=lambda x, y: (TangentVector(x, -x.coords),),
            y_subgradient=lambda x, y: (TangentVector(y, -y.coords),), name=name,
        )
        return saddle_field(sp, rng=rng)
    if name == "bilinear_wrong_sign":  # H passes; its field fails the monotone pairs
        sp = SaddleProblem(
            e1, e1, h=lambda x, y: float(x.coords[0] * y.coords[0]),
            neg_x_subgradient=lambda x, y: (TangentVector(x, y.coords.copy()),),
            y_subgradient=lambda x, y: (TangentVector(y, x.coords.copy()),), name=name,
        )
        return saddle_field(sp, rng=rng)
    # H = 0 passes; the pairs on a product of hyperbolic planes refute the field
    sp = SaddleProblem(h2, h2, h=lambda x, y: 0.0,
                       neg_x_subgradient=lambda x, y: (log_map(x, a),),
                       y_subgradient=lambda x, y: (log_map(y, a),), name=name)
    return saddle_field(sp, rng=rng)


def _plain(witness):
    if isinstance(witness, tuple):
        return tuple(_plain(w) for w in witness)
    if isinstance(witness, TangentVector):
        return witness.components.tolist()
    if hasattr(witness, "coords"):
        return witness.coords.tolist()
    return float(witness)


# each refusal's message, witness and the generator's next draw, recorded
# before the monotonicity pairs and convexity grids were batched
REFUSALS = {
    "concave": (
        "objective of concave not geodesically convex: gap 6.785e-01 at t=0.5",
        ([-1.0855418474928593], [0.561863976864591], (0.5, 0.6784864875317126)),
        0.8034426152666134,
    ),
    "lying": (
        "subgradient inequality of lying violated by 2.220e+00",
        ([-1.0855418474928593], [0.561863976864591], [1.0855418474928593]),
        0.8034426152666134,
    ),
    "hyper_concave": (
        "objective of hyper_concave not geodesically convex: gap 3.467e-01 at t=0.5",
        ([1.649381281280935, 1.2035226055837, 0.5215284737087328],
         [2.593882027829356, 2.3749281173081, -0.29654748678000264],
         (0.5, 0.3466787733443668)),
        0.8108303682244624,
    ),
    "swapped": (
        "swapped: H(x, .) not geodesically convex (gap 5.879e-01)",
        ([-1.0855418474928593], [0.561863976864591], [-1.6068852305332268],
         (0.5, 0.5879341405735827)),
        0.9998905068597175,
    ),
    "bilinear_wrong_sign": (
        "saddle field of bilinear_wrong_sign failed a monotonicity spot check: "
        "monotonicity FAIL: min slack -8.168e+00 over 200 pairs",
        ([-0.48115503016941696, 1.3752112740636657], [1.9665126415271093, -0.2933463148425123],
         [1.3752112740636657, -0.48115503016941696], [-0.2933463148425123, 1.9665126415271093]),
        0.4854411171239553,
    ),
    "hyper_anti": (
        "saddle field of hyper_anti failed a monotonicity spot check: "
        "monotonicity FAIL: min slack -1.232e+01 over 200 pairs",
        ([3.3273455705830353, 2.0194895691613755, 2.448038076935681,
          1.0360730872002553, -0.14415835156393697, -0.22949033028656293],
         [2.6088118348766525, -2.1427451422302273, -1.1020628136550334,
          1.3740678076191406, -0.6444816766258572, -0.6875359688254831],
         [-5.940623977573747, -3.9635937478515455, -4.804693504940517,
          -0.07257683276168386, 0.14758816631338384, 0.23495036302925967],
         [-3.8868397602637863, 3.742315696009491, 1.9247585185221632,
          -0.7916203586868981, 0.7893911272907982, 0.8421260264924406]),
        0.5995575307301594,
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_registration_refusals_keep_message_and_witness(name, rng):
    message, witness, next_draw = REFUSALS[name]
    with pytest.raises(RegistrationError) as err:
        _refusing_registration(name, rng)
    assert str(err.value) == message
    assert _plain(err.value.witness) == witness
    assert rng.uniform() == next_draw


def test_solve_saddle_bilinear_converges_to_origin():
    sp = bilinear_saddle_problem()
    trace = solve_saddle(sp, None, x0=sp.product.point([1.5, -1.0]))
    assert trace.final_reference_distance() <= 1e-6


def test_solve_saddle_quadratic_with_bifunction(rng):
    trace = run(get_problem("saddle_quadratic"))
    assert trace.final_reference_distance() <= 1e-5
    sp = quadratic_saddle_problem()
    x_t, y_t = sp.product.split_point(trace.final_point)
    left, right = saddle_inequality_probe(sp, x_t, y_t, rng=rng)
    assert left <= 1e-6 and right <= 1e-6


def test_product_log_identity(rng):
    prod = bilinear_saddle_problem().product
    for _ in range(20):
        z, w = prod.random_point(rng, 2.0), prod.random_point(rng, 2.0)
        parts = [
            log_map(a, b).components
            for a, b in zip(prod.split_point(z), prod.split_point(w))
        ]
        assert np.array_equal(log_map(z, w).components, np.concatenate(parts))


def test_saddle_singularity_equivalence(rng):
    sp = quadratic_saddle_problem()
    x_s, y_s = sp.known_saddle
    assert saddle_membership_residual(sp, x_s, y_s) <= 1e-9
    for _ in range(100):
        du = sp.m1.random_tangent(rng, x_s, 1e-2 + rng.uniform())
        dv = sp.m2.random_tangent(rng, y_s, 1e-2 + rng.uniform())
        res = saddle_membership_residual(sp, exp_map(x_s, du), exp_map(y_s, dv))
        assert res >= 1e-4


def test_product_metric_additivity_of_saddle_slack(rng):
    sp = quadratic_saddle_problem()
    field = saddle_field(sp, check=False)
    prod = sp.product
    for _ in range(30):
        z, w = prod.random_point(rng, 2.0), prod.random_point(rng, 2.0)
        (u,), (v,) = field.evaluate(z), field.evaluate(w)
        total = monotonicity_slack(z, w, u, v)
        parts = 0.0
        for (zf, wf, sl) in zip(prod.split_point(z), prod.split_point(w), prod._slices):
            uf = TangentVector(zf, u.components[sl])
            vf = TangentVector(wf, v.components[sl])
            parts += monotonicity_slack(zf, wf, uf, vf)
        assert abs(total - parts) < 1e-12


# -- minimizer equivalence ------------------------------------------------------------


def test_minimizer_zero_equivalence(rng):
    m = Hyperboloid(2)
    anchors = [m.random_point(rng, 1.5) for _ in range(3)]
    prog = squared_distance_program(anchors)
    mean = frechet_mean(anchors)
    assert minimizer_residual(prog, mean) <= 1e-8
    f_mean = prog.objective(mean)
    for _ in range(1000):
        probe = m.random_point(rng, 3.0)
        assert f_mean <= prog.objective(probe) + 1e-8
    off = exp_map(mean, m.random_tangent(rng, mean, 0.5))
    assert minimizer_residual(prog, off) > 1e-4


# -- problem library --------------------------------------------------------------------


def test_library_ids_and_metadata():
    ids = problem_ids()
    assert {"euclid_quad", "hyper_dist", "hyper_frechet", "spd_karcher",
            "saddle_bilinear", "saddle_quadratic"} <= set(ids)
    meta = problem_metadata("spd_karcher")
    assert meta["manifold"] == "spd:2"
    assert meta["reference"] is not None
    assert "provenance" in meta and meta["provenance"]


def test_library_unknown_id():
    with pytest.raises(KeyError):
        get_problem("nosuch")


def test_library_references_satisfy_membership():
    from hsplit.splitting import membership_residuals

    for pid in problem_ids():
        problem = get_problem(pid)
        res_a, res_f = membership_residuals(
            problem.field, problem.bifunction, problem.reference_solution
        )
        assert max(res_a, res_f) <= 1e-6, pid

"""Vector field and resolvent tests.

Closed-form resolvents are checked by direct algebra, the generic inner
solver against linear-solve oracles, and the operator-theoretic
contracts (monotonicity, firm nonexpansiveness, fixed points) on seeded
random data across the shipped field zoo.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsplit import apps, fields
from hsplit.fields import (
    DistanceGradientField,
    DomainError,
    LinearField,
    MonotonicityReport,
    ResolventConfig,
    ResolventNonconvergence,
    VectorField,
    anti_monotone_field,
    check_firmly_nonexpansive,
    check_monotone,
    firmly_nonexpansive_inequality,
    monotonicity_slack,
    resolvent,
    resolvent_continuity_probe,
    resolvent_residual,
    resolvent_with_residual,
)
from hsplit.manifold import (
    SPD,
    Euclidean,
    GeometryError,
    Hyperboloid,
    Product,
    TangentVector,
    dist,
    exp_map,
    geodesic_point,
    inner,
    log_map,
    norm,
)


def library_fields():
    out = []
    for pid in apps.problem_ids():
        field = apps.get_problem(pid).field
        if field is not None:
            out.append(field)
    return out


def abs_subdifferential(m):
    """Subdifferential of |x| on the line, reporting interval endpoints at 0.

    Carries a membership oracle for the full interval [-1, 1] at the
    kink, as the finite value set only lists its extreme points.
    """

    def evaluate(x):
        v = x.coords[0]
        if v > 0.0:
            return (TangentVector(x, np.array([1.0])),)
        if v < 0.0:
            return (TangentVector(x, np.array([-1.0])),)
        return (TangentVector(x, np.array([-1.0])), TangentVector(x, np.array([1.0])))

    field = VectorField(m, evaluate, name="abs")
    field.contains = lambda x, s: (
        abs(s) <= 1.0 if x.coords[0] == 0.0 else s == math.copysign(1.0, x.coords[0])
    )
    return field


# -- evaluate -------------------------------------------------------------------


def test_evaluate_linear_identity():
    m = Euclidean(2)
    f = LinearField(m, np.eye(2))
    (v,) = f.evaluate(m.point([1.0, 2.0]))
    assert np.allclose(v.components, [1.0, 2.0])


def test_evaluate_abs_subdifferential_interval():
    m = Euclidean(1)
    f = abs_subdifferential(m)
    values = f.evaluate(m.point([0.0]))
    assert sorted(v.components[0] for v in values) == [-1.0, 1.0]
    x0 = m.point([0.0])
    assert f.contains(x0, 0.3) and f.contains(x0, -1.0) and not f.contains(x0, 1.5)
    assert norm(f.selection(x0)) == 1.0  # min-norm among reported extremes


def test_evaluate_distance_gradient_finite_difference(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.5)
    f = DistanceGradientField(p)
    for _ in range(20):
        x = m.random_point(rng, 2.0)
        (g,) = f.evaluate(x)
        u = m.random_tangent(rng, x, 1.0)
        h = 1e-5
        fd = (
            0.5 * dist(exp_map(x, h * u), p) ** 2 - 0.5 * dist(exp_map(x, -h * u), p) ** 2
        ) / (2 * h)
        assert abs(fd - inner(g, u)) < 1e-5


def test_evaluate_empty_domain_allowed_but_selection_fails():
    m = Euclidean(1)
    f = VectorField(m, lambda x: (), name="empty")
    assert f.evaluate(m.point([0.0])) == ()
    with pytest.raises(DomainError):
        f.selection(m.point([0.0]))


def test_evaluate_nonfinite_output_surfaced():
    m = Euclidean(1)
    f = VectorField(m, lambda x: (TangentVector(x, np.array([np.nan])),), name="bad")
    with pytest.raises(Exception, match="non-finite"):
        f.evaluate(m.point([0.0]))


def test_evaluate_off_manifold_rejected():
    f = LinearField(Euclidean(2), np.eye(2))
    with pytest.raises(GeometryError):
        f.evaluate(Euclidean(3).point([0.0, 0.0, 0.0]))


# -- resolvent --------------------------------------------------------------------


def test_resolvent_identity_field_halves():
    m = Euclidean(2)
    f = LinearField(m, np.eye(2))
    z = resolvent(f, ResolventConfig(lam=1.0), m.point([2.0, 4.0]))
    assert np.allclose(z.coords, [1.0, 2.0])


def test_resolvent_distance_gradient_interpolates(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.5)
    f = DistanceGradientField(p)
    for lam in (0.3, 1.0, 4.0):
        x = m.random_point(rng, 2.0)
        z, res = resolvent_with_residual(f, ResolventConfig(lam=lam), x)
        expected = geodesic_point(x, p, lam / (1.0 + lam))
        assert dist(z, expected) < 1e-10
        assert res <= 1e-8
    x = m.random_point(rng, 2.0)
    z = resolvent(f, ResolventConfig(lam=1.0), x)
    assert dist(z, geodesic_point(x, p, 0.5)) < 1e-10  # midpoint at lam = 1


def test_resolvent_generic_solver_matches_linear_solve(rng):
    m = Euclidean(3)
    q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]])
    generic = VectorField(
        m, lambda x: (TangentVector(x, q @ x.coords),),
        name="generic_psd", single_valued=True,
    )
    for lam in (0.1, 1.0, 10.0):
        for _ in range(10):
            x = m.random_point(rng, 3.0)
            z = resolvent(generic, ResolventConfig(lam=lam, inner_tol=1e-12), x)
            oracle = np.linalg.solve(np.eye(3) + lam * q, x.coords)
            assert np.max(np.abs(z.coords - oracle)) < 1e-8


def test_resolvent_curved_generic_solver(rng):
    # subdifferential field on the hyperbolic plane goes through the
    # damped geometric iteration, not the flat-chart Newton stage
    m = Hyperboloid(2)
    anchors = [m.random_point(rng, 1.5) for _ in range(3)]
    field = apps.subdifferential_field(apps.squared_distance_program(anchors), check=False)
    for lam in (0.1, 1.0, 10.0):
        x = m.random_point(rng, 2.0)
        z, res = resolvent_with_residual(
            field, ResolventConfig(lam=lam, inner_tol=1e-11, inner_max_iter=2000), x
        )
        assert res <= 1e-11
        assert resolvent_residual(field, lam, x, z) <= 1e-11


def test_resolvent_weak_field_at_lam_hi():
    # 0.01 times a distance gradient, as a plain field, at the largest
    # schedule lam: the resolvent is the midpoint toward the anchor
    m = Hyperboloid(2)
    a = m.base_point()
    x = exp_map(a, m.tangent(a, [0.0, 1.0, 0.5]))
    weak = VectorField(m, lambda p: (0.01 * -log_map(p, a),), name="weak")
    z, res = resolvent_with_residual(weak, ResolventConfig(lam=100.0), x)
    assert res <= 1e-10
    assert dist(z, geodesic_point(x, a, 0.5)) < 1e-9


@pytest.mark.parametrize("manifold, lam", [(Hyperboloid(2), 1.0), (SPD(2), 100.0)],
                         ids=["hyperboloid", "spd"])
def test_resolvent_steep_field_rejects_failing_trials(manifold, lam):
    # 100 times the mean of two distance gradients: the first trial step
    # overshoots, and its exp cannot project back onto the hyperboloid,
    # or its SPD log is not finite.  Such a trial is rejected like one
    # that raises the residual, so the step halves and the solve converges
    rng = np.random.default_rng(7)
    a, b, x = (manifold.random_point(rng, 2.0) for _ in range(3))
    steep = VectorField(manifold, lambda p: (-50.0 * (log_map(p, a) + log_map(p, b)),),
                        name="steep")
    cfg = ResolventConfig(lam=lam)
    z, res = resolvent_with_residual(steep, cfg, x)
    assert res <= cfg.inner_tol
    assert resolvent_residual(steep, lam, x, z) == res


def test_resolvent_nonconvergence_carries_residual():
    m = Euclidean(1)
    f = abs_subdifferential(m)
    cfg = ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=40)
    # prox of |.| at 0.5 needs the selection 0.5 from [-1, 1], which the
    # extreme-point representation cannot certify
    with pytest.raises(ResolventNonconvergence) as err:
        resolvent(f, cfg, m.point([0.5]))
    assert err.value.last_residual > 0.0


def test_resolvent_empty_domain_error():
    m = Euclidean(1)
    f = VectorField(m, lambda x: (), name="empty")
    with pytest.raises(DomainError):
        resolvent(f, ResolventConfig(), m.point([1.0]))


def test_resolvent_config_validation():
    with pytest.raises(ValueError):
        ResolventConfig(lam=0.0)
    with pytest.raises(ValueError):
        ResolventConfig(inner_tol=-1.0)
    with pytest.raises(ValueError):
        ResolventConfig(inner_max_iter=0)


@pytest.mark.parametrize(
    "kwargs", [{"lam": math.nan}, {"lam": math.inf}, {"inner_tol": math.nan}],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_resolvent_config_refuses_nonfinite(kwargs):
    with pytest.raises(ValueError):
        ResolventConfig(**kwargs)


# -- operator contracts across the shipped zoo --------------------------------------


def test_fixed_points_are_registered_zeros(rng):
    for field in library_fields():
        for zero in field.known_zeros:
            for lam in (0.1, 1.0, 10.0):
                cfg = ResolventConfig(lam=lam, inner_tol=1e-12, inner_max_iter=2000)
                assert dist(resolvent(field, cfg, zero), zero) <= 1e-8


def test_resolvent_single_valued_from_many_starts(rng):
    field = apps.get_problem("hyper_frechet").field
    m = field.manifold
    x = m.random_point(rng, 2.0)
    cfg = ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=2000)
    sols = [
        resolvent(field, cfg, x, initial=m.random_point(rng, 2.0)) for _ in range(10)
    ]
    assert max(dist(a, b) for a in sols for b in sols) <= 1e-6


def test_resolvent_nonexpansive_on_pairs(rng):
    for field in library_fields():
        cfg = ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=2000)
        for _ in range(10):
            x = field.manifold.random_point(rng, 2.0)
            y = field.manifold.random_point(rng, 2.0)
            assert dist(resolvent(field, cfg, x), resolvent(field, cfg, y)) <= dist(x, y) + 1e-9


def test_euclidean_oracle_equivalence(rng):
    m = Euclidean(2)
    q = np.array([[3.0, 1.0], [1.0, 2.0]])
    lin = LinearField(m, q)
    anchor = m.point([0.5, -1.5])
    dg = DistanceGradientField(anchor, weight=2.0)
    for lam in (0.1, 1.0, 10.0):
        cfg = ResolventConfig(lam=lam, inner_tol=1e-12)
        for _ in range(10):
            x = m.random_point(rng, 3.0)
            assert np.max(np.abs(
                resolvent(lin, cfg, x).coords - np.linalg.solve(np.eye(2) + lam * q, x.coords)
            )) < 1e-8
            # prox of weight*d(.,p)^2/2 is the convex combination toward p
            t = lam * 2.0 / (1.0 + lam * 2.0)
            expected = (1 - t) * x.coords + t * anchor.coords
            assert np.max(np.abs(resolvent(dg, cfg, x).coords - expected)) < 1e-8


def test_subgradient_inequality_on_shipped_programs(rng):
    m = Hyperboloid(2)
    anchors = [m.random_point(rng, 1.5) for _ in range(3)]
    prog = apps.squared_distance_program(anchors)
    for _ in range(50):
        x, y = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
        for s in prog.subgradient(x):
            assert prog.objective(y) >= prog.objective(x) + inner(s, log_map(x, y)) - 1e-9


# -- check_monotone -------------------------------------------------------------------


def test_monotone_identity_slack_is_squared_distance(rng):
    m = Euclidean(3)
    f = LinearField(m, np.eye(3))
    x, y = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
    (u,), (v,) = f.evaluate(x), f.evaluate(y)
    assert abs(monotonicity_slack(x, y, u, v) - dist(x, y) ** 2) < 1e-12
    report = check_monotone(f, [(x, y)])
    assert report.passed and report.min_slack >= 0.0


def test_anti_monotone_fails_with_witness():
    m = Euclidean(1)
    f = anti_monotone_field(m)
    x, y = m.point([0.0]), m.point([1.0])
    report = check_monotone(f, [(x, y)])
    assert isinstance(report, MonotonicityReport)
    assert not report.passed
    assert abs(report.min_slack - (-1.0)) < 1e-12
    assert report.witness is not None


def test_monotone_subdifferential_on_hyperboloid(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.0)
    field = apps.subdifferential_field(
        apps.squared_distance_program([p]), check=False
    )
    pairs = [(m.random_point(rng, 2.0), m.random_point(rng, 2.0)) for _ in range(200)]
    report = check_monotone(field, pairs)
    assert report.passed
    assert report.min_slack >= -1e-9


def test_check_monotone_requires_domain():
    m = Euclidean(1)
    f = VectorField(m, lambda x: (), name="empty")
    with pytest.raises(DomainError):
        check_monotone(f, [(m.point([0.0]), m.point([1.0]))])


# -- firm nonexpansiveness --------------------------------------------------------------


def test_firmly_nonexpansive_identity_constant(rng):
    m = Hyperboloid(2)
    x, y = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
    rep = check_firmly_nonexpansive(lambda p: p, x, y)
    assert rep.passed
    assert np.allclose(rep.phi, rep.phi[0])


def test_firmly_nonexpansive_translation_constant(rng):
    m = Euclidean(2)
    shift = np.array([0.7, -0.3])
    mapping = lambda p: exp_map(p, m.tangent(p, shift))
    x, y = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
    rep = check_firmly_nonexpansive(mapping, x, y)
    assert rep.passed
    assert np.allclose(rep.phi, rep.phi[0])


def test_resolvent_firmly_nonexpansive_grid(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.5)
    f = DistanceGradientField(p)
    cfg = ResolventConfig(lam=1.0)
    mapping = lambda x: resolvent(f, cfg, x)
    for _ in range(100):
        x, y = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
        rep = check_firmly_nonexpansive(mapping, x, y)
        assert rep.passed
        assert rep.endpoint_gap <= 1e-9  # d(Tx, Ty) <= d(x, y)


def test_firmly_nonexpansive_grid_requires_endpoints(rng):
    m = Euclidean(1)
    x, y = m.point([0.0]), m.point([1.0])
    with pytest.raises(ValueError):
        check_firmly_nonexpansive(lambda p: p, x, y, grid=[0.2, 0.4])


# -- fixed point inner product (firmly nonexpansive consequence) -------------------------


def test_inequality_at_fixed_point_trivial_cases():
    m = Euclidean(1)
    halve = lambda p: m.point(p.coords / 2.0)
    fixed = m.point([0.0])
    assert firmly_nonexpansive_inequality(halve, fixed, fixed) == 0.0
    val = firmly_nonexpansive_inequality(halve, fixed, m.point([2.0]))
    assert abs(val - (-1.0)) < 1e-12  # <0-1, 2-1> = -1


def test_inequality_at_fixed_point_hyperboloid(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.5)
    f = DistanceGradientField(p)
    mapping = lambda x: resolvent(f, ResolventConfig(lam=1.0), x)
    for _ in range(100):
        y = m.random_point(rng, 2.5)
        assert firmly_nonexpansive_inequality(mapping, p, y) <= 1e-9


def test_inequality_rejects_non_fixed_point(rng):
    m = Euclidean(1)
    halve = lambda p: m.point(p.coords / 2.0)
    with pytest.raises(ValueError):
        firmly_nonexpansive_inequality(halve, m.point([1.0]), m.point([2.0]))


# -- continuity probe ----------------------------------------------------------------------


def test_continuity_constant_sequences_zero_gap():
    m = Euclidean(2)
    f = LinearField(m, np.eye(2))
    x = m.point([1.0, 1.0])
    rep = resolvent_continuity_probe(f, [1.0] * 5, [x] * 5, 1.0, x)
    assert rep.passed
    assert rep.final_gap == 0.0


def test_continuity_slow_sequences_track_closed_form():
    # lam_n = 1 + 1/n, x_n = x + (1/n) e1: each computed resolvent must
    # match its closed form x_n / (1 + lam_n); the gap to the limit
    # decays like 1/n
    m = Euclidean(2)
    f = LinearField(m, np.eye(2))
    x = m.point([2.0, 2.0])
    gaps = []
    for n in range(1, 101):
        lam_n = 1.0 + 1.0 / n
        x_n = m.point(x.coords + np.array([1.0 / n, 0.0]))
        z = resolvent(f, ResolventConfig(lam=lam_n), x_n)
        assert np.max(np.abs(z.coords - x_n.coords / (1.0 + lam_n))) < 1e-12
        gaps.append(dist(z, m.point(x.coords / 2.0)))
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 2.0 / 100  # O(1/n) decay reached


def test_continuity_geometric_sequences_reach_tolerance():
    m = Euclidean(2)
    f = LinearField(m, np.eye(2))
    x = m.point([2.0, 2.0])
    hs = [2.0 ** -n for n in range(1, 31)]
    rep = resolvent_continuity_probe(
        f, [1.0 + h for h in hs], [m.point(x.coords + np.array([h, 0.0])) for h in hs],
        1.0, x,
    )
    assert rep.passed and rep.final_gap <= 1e-6
    assert np.all(np.diff(rep.gaps) <= 1e-12)


def test_continuity_hyperboloid_distance_gradient(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.5)
    f = DistanceGradientField(p)
    x = m.random_point(rng, 2.0)
    lams = [1.0 + 2.0 ** -n for n in range(1, 31)]
    rep = resolvent_continuity_probe(f, lams, [x] * len(lams), 1.0, x)
    assert rep.passed and rep.final_gap <= 1e-6
    # limit agrees with the geodesic midpoint formula
    limit = resolvent(f, ResolventConfig(lam=1.0), x)
    assert dist(limit, geodesic_point(x, p, 0.5)) < 1e-10



# -- one norm per residual ----------------------------------------------------------------

RESIDUAL_MANIFOLDS = (
    Euclidean(2), Hyperboloid(2), SPD(2), Product((Euclidean(1), Euclidean(1))),
    Product((Euclidean(1), Hyperboloid(2))),
)


def _single_valued_fields(m, rng):
    a = m.random_point(rng, 2.0)
    out = [
        DistanceGradientField(a, 0.7),
        VectorField(m, lambda p: (-3.0 * log_map(p, a),), name="steep"),
    ]
    if isinstance(m, Euclidean):
        out.append(LinearField(m, rng.standard_normal((m.dim, m.dim))))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(RESIDUAL_MANIFOLDS), st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([0.1, 1.0, 10.0]))
def test_single_value_residual_is_the_min_norm_defect_property(m, seed, lam):
    # one value needs no choice: its defect is what min(..., key=norm) picks, bit for bit
    rng = np.random.default_rng(seed)
    x, z = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
    for field in _single_valued_fields(m, rng):
        got = fields._residual_vector(field, lam, x, z)
        target = log_map(z, x)
        expected = min((target - lam * a for a in field.evaluate(z)), key=norm)
        assert got.base is z
        assert got.components.tobytes() == expected.components.tobytes()
        assert resolvent_residual(field, lam, x, z) == norm(expected)


@pytest.mark.parametrize("m", RESIDUAL_MANIFOLDS, ids=lambda m: m.tag)
def test_resolvent_residual_takes_one_norm(m, rng, monkeypatch):
    calls = []
    cls = type(m)
    kernel = cls.norm

    def counted(self, v):
        calls.append(v)
        return kernel(self, v)

    monkeypatch.setattr(cls, "norm", counted)
    x, z = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
    for field in _single_valued_fields(m, rng):
        calls.clear()
        resolvent_residual(field, 1.0, x, z)
        assert len(calls) == 1
    # a field of two values takes the norm of each defect, and then of the least
    two = VectorField(m, lambda p: (-log_map(p, x), 2.0 * -log_map(p, x)), name="two")
    calls.clear()
    resolvent_residual(two, 1.0, x, z)
    assert len(calls) == 3


# -- closed-form resolvents ---------------------------------------------------------------

CLOSED_FORM_MANIFOLDS = (Euclidean(3), Hyperboloid(2), SPD(2))


def _single_anchor_program(m, rng):
    return apps.squared_distance_program([m.random_point(rng, 1.5)], [0.7])


@pytest.mark.parametrize("m", CLOSED_FORM_MANIFOLDS, ids=lambda m: m.tag)
@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_closed_form_matches_inner_solver(m, lam, rng):
    prog = _single_anchor_program(m, rng)
    closed = apps.subdifferential_field(prog)
    generic = apps.subdifferential_field(dataclasses.replace(prog, gradient_field=None))
    assert isinstance(closed, DistanceGradientField)
    cfg = ResolventConfig(lam=lam)
    for _ in range(5):
        x = m.random_point(rng, 2.0)
        z, res, steps = fields._solve(closed, cfg, x)
        z_inner, res_inner, steps_inner = fields._solve(generic, cfg, x)
        assert steps == 0 and steps_inner > 0
        assert res <= cfg.inner_tol and res_inner <= cfg.inner_tol
        assert dist(z, z_inner) <= cfg.inner_tol


@pytest.mark.parametrize("m", CLOSED_FORM_MANIFOLDS, ids=lambda m: m.tag)
def test_single_anchor_field_values_are_the_subgradient_bits(m, rng):
    # -w log_x p against the generic subgradient's 0 + (-w) log_x p
    prog = _single_anchor_program(m, rng)
    for _ in range(20):
        x = m.random_point(rng, 2.0)
        (value,) = prog.gradient_field.evaluate(x)
        (expected,) = prog.subgradient(x)
        assert value.components.tobytes() == expected.components.tobytes()


@pytest.mark.parametrize("m", CLOSED_FORM_MANIFOLDS, ids=lambda m: m.tag)
def test_multi_anchor_program_takes_inner_solver(m, rng):
    prog = apps.squared_distance_program([m.random_point(rng, 1.5) for _ in range(2)])
    field = apps.subdifferential_field(prog)
    assert prog.gradient_field is None and type(field) is VectorField
    x = m.random_point(rng, 2.0)
    assert field._closed_form(1.0, x) is None
    _, res, steps = fields._solve(field, ResolventConfig(lam=1.0), x)
    assert res <= 1e-10 and steps > 0


def test_linear_field_memo_is_bit_identical_to_fresh_solves(rng):
    m = Euclidean(3)
    q = rng.standard_normal((3, 3))
    field = LinearField(m, q)
    x = m.random_point(rng, 3.0)
    for lam in (0.5, 2.0, 0.5, 0.5, 2.0):
        fresh = LinearField(m, q)._closed_form(lam, x)
        z = resolvent(field, ResolventConfig(lam=lam), x)
        oracle = np.linalg.solve(np.eye(3) + lam * q, x.coords)
        assert z.coords.tobytes() == fresh.coords.tobytes() == oracle.tobytes()
        assert field._shifted[0] == lam


def test_linear_field_matrix_is_a_read_only_copy():
    m = Euclidean(2)
    q = np.eye(2)
    field = LinearField(m, q)
    q[0, 0] = 5.0
    assert field.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        field.matrix[0, 0] = 5.0


@pytest.mark.parametrize("lam", [0.1, 10.0])
def test_resolvent_two_point_step_inner_work_on_the_generic_route(lam):
    # the shipped hyper_dist field takes its resolvent in closed form; the
    # same values as a plain field go to the two-point step, which reads
    # the step length from the last step taken and takes 5 inner steps at
    # lam 0.1 and 6 at lam 10.  lam = 1 takes 6 and is left unbounded:
    # summed over a whole run it costs no more
    prob = apps.get_problem("hyper_dist")
    cfg = ResolventConfig(lam=lam)
    assert fields._solve(prob.field, cfg, prob.x0)[2] == 0
    generic = VectorField(prob.manifold, prob.field.evaluate, name="generic_hyper_dist")
    z, res, steps = fields._solve(generic, cfg, prob.x0)
    assert res <= cfg.inner_tol
    assert steps <= 6


# -- inner solvers at the edge of the float range ------------------------------------------


@pytest.mark.parametrize(
    "sign, lam, start",
    [(-1.0, 1.1, (1.5e308, 1.0)), (1.0, 0.5, (-1.7e308, 1.0)), (-1.0, 0.5, (1.5e308, 1.0))],
    ids=["residual_multiply", "two_point_step", "newton_stencil"],
)
def test_inner_solvers_overflow_without_warning(sign, lam, start):
    # a residual, two-point step or Jacobian stencil past the float range
    # rejects its trial or ends the solve, and raises no numpy warning
    m = Euclidean(2)
    field = VectorField(m, lambda x: (TangentVector(x, sign * x.coords),), name="scaled_identity")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolventNonconvergence):
            resolvent_with_residual(field, ResolventConfig(lam=lam), m.point(start))


def test_two_point_step_rescales_overflowing_dots():
    # at -1.7e308 both dots of the two-point step overflow; their ratio,
    # taken again on s and the residual change scaled by one power of two,
    # keeps the step length, so the solve stalls at the rounding floor of
    # its coordinates within a few steps instead of running its budget at
    # the clamp's 1e-6
    m = Euclidean(2)
    field = VectorField(m, lambda x: (TangentVector(x, x.coords),), name="identity")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolventNonconvergence, match="stalled") as info:
            resolvent_with_residual(field, ResolventConfig(lam=0.5), m.point([-1.7e308, 1.0]))
    assert info.value.iterations < 10

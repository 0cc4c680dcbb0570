"""Equilibrium bifunction and resolvent tests.

Structural resolvents are checked against proximal closed forms, the
sampled generic path against the same oracle at its documented
tolerance, and the resolvent's operator contracts (single-valuedness,
firm nonexpansiveness, fixed points = equilibria, full domain) on the
shipped bifunction zoo.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hsplit import apps, fields
from hsplit.equilibrium import (
    _FD_STEP,
    Bifunction,
    EquilibriumError,
    check_assumptions,
    convex_difference,
    equilibrium_residual,
    field_induced,
    _certificate_coefficients,
    _certificate_probes,
    generic_bifunction,
    resolvent_T,
)
from hsplit.fields import (
    DistanceGradientField,
    LinearField,
    ResolventConfig,
    check_firmly_nonexpansive,
    monotonicity_slack,
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
)


def library_bifunctions():
    out = []
    for pid in apps.problem_ids():
        bf = apps.get_problem(pid).bifunction
        if bf is not None:
            out.append(bf)
    return out


def half_norm_sq_bifunction(m):
    return convex_difference(
        m, lambda x: 0.5 * float(x.coords @ x.coords), LinearField(m, np.eye(m.dim))
    )


# -- eval ---------------------------------------------------------------------


def test_eval_convex_difference_of_squared_distance(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.5)
    bf = convex_difference(
        m, lambda x: 0.5 * dist(x, p) ** 2, DistanceGradientField(p)
    )
    for _ in range(20):
        x, y = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
        expected = 0.5 * dist(y, p) ** 2 - 0.5 * dist(x, p) ** 2
        assert abs(bf.eval(x, y) - expected) < 1e-12
        assert bf.eval(x, x) == 0.0


def test_eval_field_induced_direct_value():
    m = Euclidean(2)
    bf = field_induced(LinearField(m, np.eye(2)))
    x, y = m.point([1.0, 0.0]), m.point([0.0, 1.0])
    assert abs(bf.eval(x, y) - (-1.0)) < 1e-15  # <(1,0), (-1,1)> = -1


def test_eval_off_manifold_rejected():
    bf = half_norm_sq_bifunction(Euclidean(2))
    with pytest.raises(GeometryError):
        bf.eval(Euclidean(3).point([0, 0, 0]), Euclidean(3).point([0, 0, 0]))


def test_eval_nonfinite_surfaced():
    m = Euclidean(1)
    bf = generic_bifunction(m, lambda x, y: float("nan"), anchors=(m.base_point(),))
    with pytest.raises(EquilibriumError):
        bf.eval(m.point([0.0]), m.point([1.0]))


# -- resolvent_T ----------------------------------------------------------------


def test_resolvent_quadratic_prox():
    m = Euclidean(1)
    bf = half_norm_sq_bifunction(m)
    z, _ = resolvent_T(bf, ResolventConfig(lam=1.0), m.point([2.0]))
    assert abs(z.coords[0] - 1.0) < 1e-12  # z = x / (1 + r)


def test_resolvent_field_induced_midpoint(rng):
    m = Hyperboloid(2)
    p = m.random_point(rng, 1.5)
    bf = field_induced(DistanceGradientField(p))
    for _ in range(10):
        x = m.random_point(rng, 2.0)
        z, _ = resolvent_T(bf, ResolventConfig(lam=1.0), x)
        assert dist(z, geodesic_point(x, p, 0.5)) < 1e-8


def test_resolvent_fixes_equilibrium_points(rng):
    for bf in library_bifunctions():
        cfg = ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=2000)
        for star in bf.known_equilibria:
            assert dist(resolvent_T(bf, cfg, star)[0], star) <= 1e-8
        # and nothing sampled away from the equilibrium stays put
        for _ in range(5):
            x = bf.manifold.random_point(rng, 2.0)
            if bf.known_equilibria and dist(x, bf.known_equilibria[0]) > 0.5:
                assert dist(resolvent_T(bf, cfg, x)[0], x) > 1e-6


def test_resolvent_generic_sampled_matches_prox_oracle(rng):
    # same bifunction as the structural quadratic, but presented as a
    # raw (x, y) oracle; the field resolvent of its finite-difference
    # diagonal gradient is documented to ~1e-6 accuracy
    m = Euclidean(1)
    bf = generic_bifunction(
        m,
        lambda x, y: 0.5 * float(y.coords @ y.coords) - 0.5 * float(x.coords @ x.coords),
        name="sampled_quadratic",
        anchors=(m.base_point(),),
    )
    cfg = ResolventConfig(lam=1.0, inner_tol=1e-8, inner_max_iter=200)
    for x0 in (2.0, -1.5, 0.5):
        z, _ = resolvent_T(bf, cfg, m.point([x0]))
        assert abs(z.coords[0] - x0 / 2.0) < 1e-6

    # off flat charts the same diagonal resolvent runs the damped
    # fixed-point iteration; the prox of r*d(., a)^2/2 is on the geodesic.
    # Its certificate makes one oracle call per sampled direction and anchor
    h = Hyperboloid(2)
    a = h.random_point(rng, 1.0)
    calls = {"n": 0}

    def oracle(x, y):
        calls["n"] += 1
        return 0.5 * dist(y, a) ** 2 - 0.5 * dist(x, a) ** 2

    bf = generic_bifunction(h, oracle, name="sampled_half_sq_dist", anchors=(a,))
    for r in (0.1, 0.5, 1.0, 20.0):
        cfg = ResolventConfig(lam=r, inner_tol=1e-8, inner_max_iter=200)
        for _ in range(3):
            x = h.random_point(rng, 2.0)
            calls["n"] = 0
            _, solve_residual = fields.resolvent_with_residual(bf.resolvent_field, cfg, x)
            solve_calls = calls["n"]
            calls["n"] = 0
            z, residual = resolvent_T(bf, cfg, x)
            assert dist(z, geodesic_point(x, a, r / (1.0 + r))) < 1e-6
            assert residual == solve_residual
            assert calls["n"] == solve_calls + 64 + len(bf.anchors)


def test_raw_resolvent_runs_the_distance_kernel_once_per_pair(rng, monkeypatch):
    # the oracle measures d(z, a) at every call; the memo on z runs the
    # kernel once per distinct (point, coordinate array) pair
    h = Hyperboloid(2)
    a = h.random_point(rng, 1.0)
    kernel = Hyperboloid._dist
    runs, pairs, alive = [0], set(), []

    def counting(self, x, y):
        runs[0] += 1
        pairs.add((id(x), id(y.coords)))
        alive.append((x, y.coords))  # keep the ids from being reused
        return kernel(self, x, y)

    monkeypatch.setattr(Hyperboloid, "_dist", counting)
    bf = generic_bifunction(h, _half_sq_dist_oracle(a), anchors=(a,))
    calls = {"n": 0}
    evaluate = bf.eval

    def counting_eval(x, y):
        calls["n"] += 1
        return evaluate(x, y)

    bf.eval = counting_eval
    resolvent_T(bf, ResolventConfig(lam=1.0, inner_tol=1e-8, inner_max_iter=200),
                h.random_point(rng, 2.0))
    assert calls["n"] > 64
    assert runs[0] == len(pairs)
    # each oracle call measures d(y, a) afresh, and d(z, a) once per z
    assert runs[0] < 2 * calls["n"]


#: C of the float64 Lorentz floor ``C eps cosh(R)^2`` within which a
#: Hyperboloid frame point at radius R keeps to the exact exp
_LORENTZ_FLOOR_C = 16.0


def _assert_frame_points_match_exp(m, z, coeffs, points):
    # on a Hyperboloid the closed-form point lies within the Lorentz floor
    # of exp_map, and at the distance |a_k| from z up to that floor; on
    # every other space it is exp_map bit for bit
    radius = dist(m.base_point(), z)
    for a, v, y in zip(coeffs, coeffs @ m._frame(z), points):
        exact = exp_map(z, m.tangent(z, v))
        if isinstance(m, Hyperboloid):
            rho = float(np.linalg.norm(a))
            floor = _LORENTZ_FLOOR_C * np.finfo(float).eps * math.cosh(radius + rho) ** 2
            assert dist(y, exact) <= floor
            assert abs(dist(z, y) - rho) <= floor
        else:
            assert np.array_equal(y.coords, exact.coords)


@pytest.mark.parametrize(
    "m",
    [Euclidean(2), Hyperboloid(2), Hyperboloid(3), SPD(2), Product((Euclidean(1), Hyperboloid(2)))],
    ids=lambda m: m.tag,
)
def test_certificate_probes_match_sequential_draws(m, rng):
    # coefficient row k is the k-th draw of d normals from a reseeded
    # generator, scaled to norm 0.1; its probe is exp_z of that row times
    # the orthonormal frame, so every tangent has Riemannian norm 0.1
    base = m.base_point()
    bf = generic_bifunction(m, lambda x, y: 0.0, anchors=(base,))
    for radius in (0.5, 4.0, 8.0):
        z = m.exp(base, m.random_tangent(rng, base, radius))
        for seed in (0, 7):
            probes, (coeffs, points) = _certificate_probes(bf, z, seed)
            assert probes == (base,) and coeffs.shape == (64, m.manifold_dim)
            assert not coeffs.flags.writeable and len(points) == 64
            _, (_, again) = _certificate_probes(bf, z, seed)
            assert [y.coords.tolist() for y in again] == [y.coords.tolist() for y in points]
            sequential = np.random.default_rng(seed)
            for a in coeffs:
                draw = sequential.standard_normal(m.manifold_dim)
                np.testing.assert_allclose(a, 0.1 * draw / np.linalg.norm(draw), rtol=1e-14)
            for v in coeffs @ m._frame(z):
                assert abs(m.tangent(z, v).norm() - 0.1) <= 1e-9
            _assert_frame_points_match_exp(m, z, coeffs, points)


def test_certificate_refuses_non_timelike_probes():
    # probes 16, 23 and 32 of the seed-0 certificate at this radius-19
    # base round to a spacelike self-product; exp refuses each, and the
    # certificate's batched exp raises what exp raises
    m = Hyperboloid(2)
    base = m.base_point()
    z = m.exp(base, m.tangent(base, [0.0, 19.0 * math.cos(1.85), 19.0 * math.sin(1.85)]))
    bf = generic_bifunction(m, lambda x, y: 0.0, anchors=(base,))
    with pytest.raises(GeometryError, match="non-timelike point from exp"):
        _certificate_probes(bf, z, 0)
    refused = []
    for k, v in enumerate(_certificate_coefficients(0, 2) @ m._frame(z)):
        try:
            exp_map(z, TangentVector(z, v))
        except GeometryError:
            refused.append(k)
    assert refused == [16, 23, 32]


def _half_sq_dist_oracle(anchor, seen=None):
    def oracle(x, y):
        if seen is not None:
            seen.append(y.coords.tolist())
        return 0.5 * dist(y, anchor) ** 2 - 0.5 * dist(x, anchor) ** 2

    return oracle


def _point_at(m, rng, radius):
    base = m.base_point()
    try:
        return m.exp(base, m.random_tangent(rng, base, radius))
    except GeometryError:  # beyond the float range of the chart
        assume(False)


PROBE_MANIFOLDS = (
    Euclidean(2), Hyperboloid(2), Euclidean(3), Hyperboloid(3), SPD(2),
    Product((Euclidean(1), Hyperboloid(2))),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
radii = st.floats(min_value=0.0, max_value=8.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(PROBE_MANIFOLDS), seeds, radii, radii, radii,
       st.floats(min_value=0.05, max_value=20.0))
def test_certificate_margin_matches_per_probe_loop_property(m, seed, ra, rz, rx, r):
    # the certificate's terms a_k . c over the frame coordinates c equal
    # the per-probe loop with inner(log_z x, v_k), up to rounding
    rng = np.random.default_rng(seed)
    a, z, x = _point_at(m, rng, ra), _point_at(m, rng, rz), _point_at(m, rng, rx)
    bf = generic_bifunction(m, _half_sq_dist_oracle(a), anchors=(a,))
    cert_seed = seed % 1000
    probes, sampled = _certificate_probes(bf, z, cert_seed)
    margin = equilibrium_residual(bf, z, probes, x=x, r=r, sampled=sampled)

    zr, xr, ar = m.point(z.coords), m.point(x.coords), m.point(a.coords)
    log_zx = log_map(zr, xr)
    expected = bf.eval(zr, ar) - inner(log_zx, log_map(zr, ar)) / r
    for v in _certificate_coefficients(cert_seed, m.manifold_dim) @ m._frame(zr):
        u = TangentVector(zr, v)
        expected = min(expected, bf.eval(zr, exp_map(zr, u)) - inner(log_zx, u) / r)
    assert margin == pytest.approx(expected, rel=1e-12, abs=0.0)
    # without x the margin is the plain minimum over the same probes
    plain = equilibrium_residual(bf, z, probes, sampled=sampled)
    assert plain == min(bf.eval(z, y) for y in [*probes, *sampled[1]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(PROBE_MANIFOLDS), seeds, radii, radii)
def test_diagonal_gradient_matches_scalar_exp_reference_property(m, seed, ra, rz):
    # the stencil is the per-vector loop of exp_map calls, with the oracle
    # called on its points in the same order: bit for bit off the
    # Hyperboloid, within the Lorentz floor on it.  The gradient is
    # g @ frame for the central differences g of the oracle's values
    rng = np.random.default_rng(seed)
    a, z = _point_at(m, rng, ra), _point_at(m, rng, rz)
    seen, values = [], []
    oracle = _half_sq_dist_oracle(a, seen)
    bf = generic_bifunction(m, lambda x, y: values.append(oracle(x, y)) or values[-1],
                            anchors=(a,))
    (got,) = bf.resolvent_field.evaluate(z)
    batched = [m.point(c) for c in seen]
    g = (np.array(values[0::2]) - np.array(values[1::2])) / (2.0 * _FD_STEP)
    assert got.components.tolist() == (g @ m._frame(z)).tolist()
    assert len(batched) == 2 * m.manifold_dim

    zr = m.point(z.coords)
    coeffs = np.kron(np.eye(m.manifold_dim), [[_FD_STEP], [-_FD_STEP]])
    _assert_frame_points_match_exp(m, zr, coeffs, batched)


def test_resolvent_dispatches_on_gradient_field():
    # a gradient field alone selects the field resolvent: no anchors, and
    # the oracle is never called
    m = Euclidean(1)
    calls = {"n": 0}

    def oracle(x, y):
        calls["n"] += 1
        return 0.5 * float(y.coords @ y.coords) - 0.5 * float(x.coords @ x.coords)

    field = LinearField(m, np.eye(1))
    bf = Bifunction(m, oracle, gradient_field=field)
    cfg = ResolventConfig(lam=2.0, inner_tol=1e-12)
    for x0 in (3.0, -1.0):
        x = m.point([x0])
        z, residual = resolvent_T(bf, cfg, x)
        expected, expected_residual = fields.resolvent_with_residual(field, cfg, x)
        assert np.array_equal(z.coords, expected.coords)
        assert residual == expected_residual
    assert calls["n"] == 0


def test_resolvent_certificate_failure_reports_rounds_run():
    # the sign-flipped oracle has no regularized equilibrium to certify;
    # the diagonal field's resolvent stops after a few steps, and the
    # error says so
    m = Euclidean(1)
    bf = generic_bifunction(
        m,
        lambda x, y: 0.5 * float(x.coords @ x.coords) - 0.5 * float(y.coords @ y.coords),
        name="sign_flipped",
        anchors=(m.base_point(),),
    )
    cfg = ResolventConfig(lam=0.5)
    with pytest.raises(fields.ResolventNonconvergence, match="failed its certificate") as info:
        resolvent_T(bf, cfg, m.point([1.0]))
    assert 0 < info.value.iterations < cfg.inner_max_iter


def test_resolvent_certificate_failure_off_a_flat_chart():
    # the same sign flip on Hyperboloid(2): y -> F(x, y) is concave, so
    # the frame-built probes must still refuse the solver's point
    m = Hyperboloid(2)
    rng = np.random.default_rng(3)
    a = m.random_point(rng, 1.0)
    bf = generic_bifunction(
        m, lambda x, y: 0.5 * dist(x, a) ** 2 - 0.5 * dist(y, a) ** 2,
        name="concave", anchors=(a,),
    )
    for r in (0.1, 0.5):
        cfg = ResolventConfig(lam=r)
        with pytest.raises(fields.ResolventNonconvergence, match="failed its certificate") as info:
            resolvent_T(bf, cfg, m.random_point(rng, 1.0))
        assert 0 < info.value.iterations < cfg.inner_max_iter


def test_resolvent_generic_requires_directions():
    m = Euclidean(1)
    bf = generic_bifunction(m, lambda x, y: 0.0, name="no_anchors")
    with pytest.raises(EquilibriumError, match="needs at least one anchor"):
        resolvent_T(bf, ResolventConfig(lam=1.0, inner_tol=1e-6), m.point([1.0]))


# -- check_assumptions -------------------------------------------------------------


def test_assumptions_pass_for_convex_difference(rng):
    m = Hyperboloid(2)
    anchors = [m.random_point(rng, 1.5) for _ in range(3)]
    prog = apps.squared_distance_program(anchors)
    bf = convex_difference(
        m, prog.objective, apps.subdifferential_field(prog, check=False)
    )
    samples = [(m.random_point(rng, 2.0), m.random_point(rng, 2.0)) for _ in range(30)]
    rep = check_assumptions(bf, samples)
    assert rep.passed
    assert rep.diagonal_max_abs <= 1e-12
    assert rep.monotonicity_max_sum <= 1e-9
    assert rep.convexity_max_violation <= 1e-9
    assert rep.declared_only == ("A3", "A5", "A6")


def test_field_induced_monotonicity_equals_field_slack(rng):
    # F(x,y) + F(y,x) = -(monotonicity slack of V) for field-induced
    # bifunctions; check the identity numerically
    m = Euclidean(2)
    field = LinearField(m, np.array([[2.0, 0.3], [0.3, 1.0]]))
    bf = field_induced(field)
    for _ in range(50):
        x, y = m.random_point(rng, 2.0), m.random_point(rng, 2.0)
        (u,), (v,) = field.evaluate(x), field.evaluate(y)
        lhs = bf.eval(x, y) + bf.eval(y, x)
        assert abs(lhs + monotonicity_slack(x, y, u, v)) < 1e-12
    samples = [(m.random_point(rng, 2.0), m.random_point(rng, 2.0)) for _ in range(30)]
    assert check_assumptions(bf, samples).monotonicity_max_sum <= 1e-9


def test_assumptions_sign_flip_detected(rng):
    m = Euclidean(2)
    good = half_norm_sq_bifunction(m)
    flipped = generic_bifunction(
        m,
        lambda x, y: float(x.coords @ x.coords) - float(y.coords @ y.coords),
        name="flipped",
        anchors=(m.base_point(),),
    )
    samples = [(m.random_point(rng, 2.0), m.random_point(rng, 2.0)) for _ in range(20)]
    assert check_assumptions(good, samples).passed
    rep = check_assumptions(flipped, samples)
    # the flip keeps F(x,y) + F(y,x) = 0 but makes y -> F(x,y) concave
    assert not rep.passed
    assert rep.convexity_max_violation > 1e-6


# -- operator contracts --------------------------------------------------------------


def test_resolvent_firmly_nonexpansive_per_bifunction(rng):
    for bf in library_bifunctions():
        cfg = ResolventConfig(lam=1.0, inner_tol=1e-12, inner_max_iter=2000)
        mapping = lambda p: resolvent_T(bf, cfg, p)[0]
        for _ in range(20):
            x = bf.manifold.random_point(rng, 2.0)
            y = bf.manifold.random_point(rng, 2.0)
            rep = check_firmly_nonexpansive(mapping, x, y)
            assert rep.passed, f"{bf.name}: {rep}"


def test_resolvent_full_domain(rng):
    for bf in library_bifunctions():
        cfg = ResolventConfig(lam=1.0, inner_tol=1e-10, inner_max_iter=2000)
        for _ in range(140):  # ~1000 samples across the seven shipped bifunctions
            x = bf.manifold.random_point(rng, 3.0)
            resolvent_T(bf, cfg, x)  # must not raise a domain error


def test_prox_step_monotone_in_r(rng):
    grid = (0.1, 0.5, 1.0, 2.0, 10.0)
    for bf in library_bifunctions():
        if bf.gradient_field is None:
            continue
        for _ in range(5):
            x = bf.manifold.random_point(rng, 2.0)
            gaps = [
                dist(
                    resolvent_T(
                        bf, ResolventConfig(lam=r, inner_tol=1e-12, inner_max_iter=2000), x
                    )[0],
                    x,
                )
                for r in grid
            ]
            for lo, hi in zip(gaps, gaps[1:]):
                assert hi >= lo - 1e-9


def test_field_induced_rejects_multivalued_field():
    m = Euclidean(1)
    with pytest.raises(EquilibriumError):
        field_induced(
            apps.subdifferential_field(
                apps.squared_distance_program([m.point([0.0]), m.point([1.0])]), check=False
            )
        )

"""Geometry kernel tests against independent numerical oracles.

The hyperboloid exponential is checked against a fixed-step RK4
integration of the ambient geodesic equation, and the SPD distance
against a Schur-based matrix logarithm; closed-form identities
(roundtrips, comparison triangles, distance convexity) are exercised on
seeded random data.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from hsplit.equilibrium import _certificate_normals
from hsplit.fields import FieldError, VectorField
from hsplit.manifold import (
    SPD,
    Euclidean,
    GeometryError,
    Hyperboloid,
    Product,
    _finite_sum,
    _same_coords,
    _two_product,
    comparison_triangle,
    dist,
    exp_map,
    geodesic_point,
    inner,
    log_map,
    norm,
    zero_vector,
)


def random_pair(m, rng, spread=2.0):
    return m.random_point(rng, spread), m.random_point(rng, spread)


# -- oracles -------------------------------------------------------------------


def rk4_hyperboloid_geodesic(x0, v0, t_end=1.0, step=1e-4):
    """Integrate the ambient geodesic equation y'' = <y',y'>_L y.

    Fourth-order fixed-step integration, independent of the closed-form
    exponential.  Returns the endpoint and the accumulated arc length.
    """

    def mink(a, b):
        return float(a @ b - 2.0 * a[0] * b[0])

    def rhs(state):
        y, dy = state
        return np.array([dy, mink(dy, dy) * y])

    state = np.array([x0, v0])
    n_steps = int(round(t_end / step))
    arc = 0.0
    for _ in range(n_steps):
        arc += math.sqrt(max(mink(state[1], state[1]), 0.0)) * step
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * step * k1)
        k3 = rhs(state + 0.5 * step * k2)
        k4 = rhs(state + step * k3)
        state = state + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state[0], arc


def spd_distance_oracle(a, b):
    """Affine-invariant distance via Schur-based sqrtm/logm."""
    isq = np.linalg.inv(scipy.linalg.sqrtm(a))
    return float(np.linalg.norm(scipy.linalg.logm(isq @ b @ isq), "fro"))


# -- exp_map --------------------------------------------------------------------


def test_exp_euclidean_is_translation():
    m = Euclidean(2)
    x = m.point([0.0, 0.0])
    v = m.tangent(x, [3.0, 4.0])
    assert np.allclose(exp_map(x, v).coords, [3.0, 4.0])


def test_exp_zero_vector_identity():
    m = Hyperboloid(2)
    x = m.point([1.0, 0.0, 0.0])
    y = exp_map(x, zero_vector(x))
    assert dist(x, y) == 0.0


def test_exp_hyperboloid_matches_rk4_oracle(rng):
    m = Hyperboloid(2)
    x = m.point([1.0, 0.0, 0.0])
    v = m.tangent(x, [0.0, 1.0, 0.0])
    endpoint, arc = rk4_hyperboloid_geodesic(x.coords, v.components)
    got = exp_map(x, v)
    assert np.max(np.abs(got.coords - endpoint)) < 1e-6
    assert abs(arc - 1.0) < 1e-6
    for _ in range(5):
        x = m.random_point(rng, 1.5)
        v = m.random_tangent(rng, x, 2.0 * rng.uniform())
        endpoint, arc = rk4_hyperboloid_geodesic(x.coords, v.components)
        got = exp_map(x, v)
        assert np.max(np.abs(got.coords - endpoint)) < 1e-6
        assert abs(arc - norm(v)) < 1e-6


def test_exp_distance_equals_speed(manifold, rng):
    for _ in range(30):
        x = manifold.random_point(rng, 2.0)
        v = manifold.random_tangent(rng, x, 3.0 * rng.uniform())
        assert abs(dist(x, exp_map(x, v)) - norm(v)) < 1e-9


def test_exp_base_mismatch_rejected(rng):
    m = Hyperboloid(2)
    x, y = random_pair(m, rng)
    v = m.random_tangent(rng, x, 1.0)
    with pytest.raises(GeometryError):
        exp_map(y, v)


def test_exp_nonfinite_rejected():
    m = Euclidean(2)
    x = m.point([0.0, 0.0])
    with pytest.raises(GeometryError):
        m.tangent(x, [np.inf, 0.0])


def test_exp_overflowing_result_rejected():
    # finite inputs whose endpoint overflows: x + v on the line, and the
    # matrix exponential of 800*I on SPD (inf times zero gives NaN)
    line = Euclidean(1)
    x = line.point([1e308])
    spd = SPD(2)
    eye = spd.base_point()
    with np.errstate(all="ignore"):
        with pytest.raises(GeometryError, match="from exp"):
            line.exp(x, line.tangent(x, [1e308]))
        with pytest.raises(GeometryError, match="from exp"):
            spd.exp(eye, spd.tangent(eye, 800.0 * np.eye(2).ravel()))


@pytest.mark.parametrize("n", [1, 2])
def test_exp_hyperboloid_representable_radius(n):
    # float64 Lorentz coordinates hold points up to radius ~19.5
    h = Hyperboloid(n)
    base = h.base_point()
    direction = np.zeros(n + 1)
    direction[1] = 1.0
    far = exp_map(base, h.tangent(base, 19.0 * direction))
    assert far.coords[0] > 1e7
    with pytest.raises(GeometryError):
        exp_map(base, h.tangent(base, 25.0 * direction))


def test_exp_hyperboloid_non_timelike_result_rejected():
    # just inside radius 19.5 the projected endpoint can round to a
    # self-product of +0.973, on which dist and log would take the square
    # root of a negative number; exp refuses it instead, also as a factor
    h = Hyperboloid(2)
    base = h.base_point()
    r, th = 19.21187786299926, 3.3212242924482505
    w = [0.0, r * math.cos(th), r * math.sin(th)]
    with pytest.raises(GeometryError, match="non-timelike point from exp"):
        h.exp(base, h.tangent(base, w))
    prod = Product((Euclidean(1), h))
    pbase = prod.base_point()
    with pytest.raises(GeometryError, match="non-timelike point from exp"):
        prod.exp(pbase, prod.tangent(pbase, [0.0, *w]))


@pytest.mark.parametrize("radius", [355.0, 720.0, 20000.0])
def test_exp_hyperboloid_beyond_the_float_range_raises_without_warnings(radius):
    # past radius ~355 the endpoint's squares overflow, past ~710 its
    # coordinates and past ~11356 the long-double sinh and cosh; exp,
    # exp_sphere and the row kernel each raise before numpy warns
    h = Hyperboloid(2)
    base = h.base_point()
    rows = np.array([[0.0, 1.0, 0.0], [0.0, radius, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="exp leaves the float range: tangent norm"):
            h.exp(base, h.tangent(base, [0.0, radius, 0.0]))
        with pytest.raises(GeometryError, match="exp leaves the float range: tangent norm"):
            h.exp_sphere(base, rows, radius)
        with pytest.raises(GeometryError, match="exp leaves the float range"):
            h._exp_rows(base, rows)


def test_exp_sphere_matches_random_tangent_then_exp(manifold, rng):
    # each row of the batch is the pair random_tangent + exp would give
    # for a generator drawing that row, bit for bit; SPD and the product
    # run the looping default, the others their array forms
    for spread in (0.5, 3.0):
        x = manifold.random_point(rng, spread)
        seed = int(rng.integers(1 << 30))
        directions = np.random.default_rng(seed).standard_normal((16, manifold.ambient_dim))
        sequential = np.random.default_rng(seed)
        for v, y in manifold.exp_sphere(x, directions, 0.1):
            u = manifold.random_tangent(sequential, x, 0.1)
            assert np.array_equal(v.components, u.components)
            assert np.array_equal(y.coords, exp_map(x, u).coords)
            assert v.base is x
    with pytest.raises(GeometryError):
        manifold.exp_sphere(x, np.zeros((1, manifold.ambient_dim + 1)), 0.1)
    with pytest.raises(GeometryError):
        manifold.exp_sphere(x, directions, 0.0)


# -- log_map --------------------------------------------------------------------


def test_log_euclidean_is_subtraction():
    m = Euclidean(3)
    x, y = m.point([1.0, 1.0, 1.0]), m.point([2.0, 0.0, 1.0])
    assert np.allclose(log_map(x, y).components, [1.0, -1.0, 0.0])


def test_log_self_is_zero(manifold, rng):
    x = manifold.random_point(rng, 2.0)
    assert norm(log_map(x, x)) == 0.0


def test_log_roundtrip_hyperboloid(rng):
    m = Hyperboloid(2)
    for _ in range(200):
        x = m.random_point(rng, 2.5)
        y = exp_map(x, m.random_tangent(rng, x, 5.0 * rng.uniform()))
        assert dist(exp_map(x, log_map(x, y)), y) < 1e-8


def test_log_norm_equals_distance(manifold, rng):
    for _ in range(50):
        x, y = random_pair(manifold, rng, 3.0)
        assert abs(norm(log_map(x, y)) - dist(x, y)) < 1e-9


def test_log_overflowing_result_rejected():
    # finite points whose difference overflows
    line = Euclidean(1)
    with np.errstate(over="ignore"):
        with pytest.raises(GeometryError, match="from log"):
            line.log(line.point([-1e308]), line.point([1e308]))


def test_log_manifold_mismatch_rejected():
    with pytest.raises(GeometryError):
        log_map(Euclidean(2).point([0, 0]), Euclidean(3).point([0, 0, 0]))


# -- dist -----------------------------------------------------------------------


def test_dist_euclidean_norm():
    m = Euclidean(2)
    assert dist(m.point([1.0, 2.0]), m.point([4.0, 6.0])) == 5.0


def test_dist_hyperboloid_unit():
    m = Hyperboloid(2)
    x = m.point([1.0, 0.0, 0.0])
    y = m.point([math.cosh(1.0), math.sinh(1.0), 0.0])
    assert abs(dist(x, y) - 1.0) < 1e-12
    # arc length of the integrated geodesic agrees
    _, arc = rk4_hyperboloid_geodesic(x.coords, log_map(x, y).components)
    assert abs(arc - dist(x, y)) < 1e-6


def test_dist_overflowing_result_rejected():
    line = Euclidean(1)
    with np.errstate(over="ignore"):
        with pytest.raises(GeometryError, match="non-finite distance"):
            line.dist(line.point([-1e308]), line.point([1e308]))


@pytest.mark.parametrize("big", [1e155, 1e200])
def test_flat_dist_and_norm_past_overflowing_squares(big):
    # the sum of squares overflows, the norm does not: both match hypot within 1 ulp
    line, plane, hyp = Euclidean(1), Euclidean(2), Hyperboloid(1)
    lines = Product((line, line))
    o1, o2, oo = line.point([0.0]), plane.point([0.0, 0.0]), lines.point([0.0, 0.0])
    h = hyp.point([math.cosh(1.0), math.sinh(1.0)])
    with np.errstate(over="ignore"):
        cases = [
            (line.dist(o1, line.point([big])), (big,)),
            (line.dist(line.point([-big / 4]), line.point([big / 2])), (0.75 * big,)),
            (plane.dist(o2, plane.point([big, -big / 3])), (big, -big / 3)),
            (norm(line.tangent(o1, [big])), (big,)),
            (norm(plane.tangent(o2, [-big / 3, big])), (-big / 3, big)),
            (lines.dist(oo, lines.point([big, -big / 3])), (big, -big / 3)),
            (norm(lines.tangent(oo, [big, -big / 3])), (big, -big / 3)),
        ]
        # both squares of a tangent off the hyperboloid's apex overflow; its
        # norm cancels -sinh^2 + cosh^2, which costs a few ulps
        curved = norm(hyp.tangent(h, [big * math.sinh(1.0), big * math.cosh(1.0)]))
    for value, parts in cases:
        expected = math.hypot(*parts)
        assert math.isfinite(value)
        assert abs(value - expected) <= math.ulp(expected)
    assert abs(curved - big) <= 1e-14 * big


def test_dist_spd_against_logm_oracle(rng):
    m = SPD(2)
    x = m.point(np.eye(2).ravel())
    y = m.point(np.diag([math.e, math.e]).ravel())
    assert abs(dist(x, y) - math.sqrt(2.0)) < 1e-12
    for _ in range(25):
        a, b = random_pair(m, rng, 2.0)
        oracle = spd_distance_oracle(a.coords.reshape(2, 2), b.coords.reshape(2, 2))
        assert abs(dist(a, b) - oracle) < 1e-9


def test_dist_symmetry_and_triangle(manifold, rng):
    for _ in range(40):
        x, y = random_pair(manifold, rng, 3.0)
        z = manifold.random_point(rng, 3.0)
        assert abs(dist(x, y) - dist(y, x)) < 1e-12
        assert dist(x, y) <= dist(x, z) + dist(z, y) + 1e-9
    x = manifold.random_point(rng, 2.0)
    assert dist(x, x) == 0.0


# -- inner ----------------------------------------------------------------------


def test_inner_euclidean_dot():
    m = Euclidean(3)
    x = m.point([0.0, 0.0, 0.0])
    u = m.tangent(x, [1.0, 2.0, 3.0])
    v = m.tangent(x, [4.0, -5.0, 6.0])
    assert inner(u, v) == 1.0 * 4 - 2 * 5 + 3 * 6


def test_inner_hyperboloid_positive_definite(rng):
    m = Hyperboloid(2)
    for _ in range(100):
        x = m.random_point(rng, 3.0)
        v = m.random_tangent(rng, x, 1.0 + rng.uniform())
        assert inner(v, v) > 0.0


def test_spd_log_refuses_a_quotient_that_is_not_positive_definite():
    # P^-1/2 Q P^-1/2 of this nearly singular P rounds to an eigenvalue
    # <= 0; log raises as dist does, before np.log divides by zero
    m = SPD(2)
    x = m.point([2504938.565438934, -5626108.030770256, -5626108.030770256, 12636282.318486042])
    y = m.point([2423.949352014272, -134.0324688307403, -134.0324688307403, 7.411336015063465])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (m.dist, m.log):
            with pytest.raises(GeometryError, match="second argument is not positive definite"):
                op(x, y)


def test_inner_spd_trace_symmetry(rng):
    m = SPD(2)
    for _ in range(50):
        p = m.random_point(rng, 2.0)
        u = m.random_tangent(rng, p, 1.0)
        v = m.random_tangent(rng, p, 1.0)
        assert abs(inner(u, v) - inner(v, u)) < 1e-12


def test_inner_cauchy_schwarz(manifold, rng):
    for _ in range(50):
        x = manifold.random_point(rng, 2.0)
        u = manifold.random_tangent(rng, x, 2.0 * rng.uniform())
        v = manifold.random_tangent(rng, x, 2.0 * rng.uniform())
        assert abs(inner(u, v)) <= norm(u) * norm(v) + 1e-12


def test_inner_overflowing_result_rejected():
    # finite tangents whose squares overflow: the flat sum reaches inf, and the
    # Minkowski sum meets -inf + inf, which norm rescales past
    plane, hyp = Euclidean(2), Hyperboloid(1)
    o = plane.point([0.0, 0.0])
    h = hyp.point([math.cosh(1.0), math.sinh(1.0)])
    with np.errstate(over="ignore"):
        flat = plane.tangent(o, [1e200, 1e200])
        curved = hyp.tangent(h, [1e160 * math.sinh(1.0), 1e160 * math.cosh(1.0)])
        for u in (flat, curved):
            with pytest.raises(GeometryError):
                inner(u, u)
        assert abs(norm(curved) - 1e160) <= 1e-14 * 1e160


def test_inner_base_mismatch_rejected(rng):
    m = Euclidean(2)
    x, y = m.point([0.0, 0.0]), m.point([1.0, 0.0])
    with pytest.raises(GeometryError):
        inner(m.tangent(x, [1.0, 0.0]), m.tangent(y, [1.0, 0.0]))


# -- geodesic_point ---------------------------------------------------------------


def test_geodesic_endpoints(manifold, rng):
    x, y = random_pair(manifold, rng)
    assert dist(geodesic_point(x, y, 0.0), x) == 0.0
    assert dist(geodesic_point(x, y, 1.0), y) == 0.0


def test_geodesic_euclidean_midpoint():
    m = Euclidean(2)
    mid = geodesic_point(m.point([0.0, 0.0]), m.point([2.0, 4.0]), 0.5)
    assert np.allclose(mid.coords, [1.0, 2.0])


def test_geodesic_distance_scaling(manifold, rng):
    for _ in range(20):
        x, y = random_pair(manifold, rng, 3.0)
        t = float(rng.uniform())
        assert abs(dist(x, geodesic_point(x, y, t)) - t * dist(x, y)) < 1e-9


def test_geodesic_additive_along_curve(rng):
    m = Hyperboloid(2)
    for _ in range(50):
        x, y = random_pair(m, rng, 3.0)
        t = float(rng.uniform())
        mid = geodesic_point(x, y, t)
        assert abs(dist(x, mid) + dist(mid, y) - dist(x, y)) < 1e-8


def test_geodesic_parameter_out_of_range(rng):
    m = Euclidean(2)
    x, y = random_pair(m, rng)
    with pytest.raises(GeometryError):
        geodesic_point(x, y, 1.5)
    with pytest.raises(GeometryError):
        geodesic_point(x, y, -0.1)


# -- comparison triangles ----------------------------------------------------------


def test_comparison_triangle_flat_residuals_zero(rng):
    m = Euclidean(3)
    for _ in range(50):
        pts = [m.random_point(rng, 3.0) for _ in range(3)]
        rep = comparison_triangle(*pts)
        assert np.max(np.abs(rep.cosine_law_residuals)) < 1e-12


def test_comparison_triangle_hyperboloid_cat0(rng):
    m = Hyperboloid(2)
    for _ in range(1000):
        c = m.random_point(rng, 1.5)
        pts = [exp_map(c, m.random_tangent(rng, c, 1.5 * rng.uniform())) for _ in range(3)]
        rep = comparison_triangle(*pts)
        assert rep.cosine_law_residuals.min() >= -1e-9
        # planar triangle realizes the same side lengths
        planar = rep.comparison_vertices
        for i in range(3):
            j = (i + 1) % 3
            assert abs(np.linalg.norm(planar[j] - planar[i]) - rep.side_lengths[i]) < 1e-9
        sides = rep.side_lengths
        for i in range(3):
            assert sides[i] <= sides[(i + 1) % 3] + sides[(i + 2) % 3] + 1e-9


def test_comparison_triangle_degenerate_collinear(rng):
    m = Hyperboloid(2)
    for _ in range(50):
        x, y = random_pair(m, rng, 2.0)
        z = geodesic_point(x, y, float(rng.uniform()))
        rep = comparison_triangle(x, y, z)
        assert abs(rep.cosine_law_residuals[0]) < 1e-8


def test_law_of_cosines_inequality_all_rotations(rng):
    for m in (Hyperboloid(2), SPD(2)):
        for _ in range(200):
            c = m.random_point(rng, 1.5)
            p = [exp_map(c, m.random_tangent(rng, c, 1.5 * rng.uniform())) for _ in range(3)]
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                lhs = (
                    dist(p[i], p[j]) ** 2
                    + dist(p[j], p[k]) ** 2
                    - 2.0 * inner(log_map(p[j], p[i]), log_map(p[j], p[k]))
                )
                assert lhs <= dist(p[k], p[i]) ** 2 + 1e-9


# -- invariants ---------------------------------------------------------------------


def test_roundtrip_invariant(manifold, rng):
    for _ in range(200):
        x, y = random_pair(manifold, rng, 5.0)
        assert dist(exp_map(x, log_map(x, y)), y) <= 1e-8


def test_distance_convexity(manifold, rng):
    ts = np.linspace(0.0, 1.0, 21)
    for _ in range(30):
        a, b = random_pair(manifold, rng, 3.0)
        c, d = random_pair(manifold, rng, 3.0)
        d0, d1 = dist(a, c), dist(b, d)
        for t in ts:
            g = dist(geodesic_point(a, b, float(t)), geodesic_point(c, d, float(t)))
            assert g <= (1 - t) * d0 + t * d1 + 1e-9


def test_hyperboloid_constraint_preserved_over_chain(rng):
    m = Hyperboloid(2)
    x, y = random_pair(m, rng, 1.0)
    ops = 0
    while ops < 10_000:
        v = log_map(x, y)
        x2 = exp_map(x, 0.3 * v)
        mid = geodesic_point(x2, y, 0.5)
        x, y = mid, x
        ops += 3
        assert abs(m.minkowski(x.coords, x.coords) + 1.0) <= 1e-8


def test_product_structure(rng):
    prod = Product((Euclidean(2), Hyperboloid(2), SPD(2)))
    for _ in range(50):
        x, y = random_pair(prod, rng, 2.0)
        parts = list(zip(prod.split_point(x), prod.split_point(y)))
        assert abs(sum(dist(a, b) ** 2 for a, b in parts) - dist(x, y) ** 2) < 1e-10
        stitched = np.concatenate([log_map(a, b).components for a, b in parts])
        assert np.array_equal(log_map(x, y).components, stitched)
    rebuilt = prod.join_points(prod.split_point(x))
    assert dist(rebuilt, x) == 0.0


def test_tangent_basis_orthonormal(manifold, rng):
    x = manifold.random_point(rng, 1.5)
    basis = manifold.tangent_basis(x)
    assert len(basis) == manifold.manifold_dim
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            expected = 1.0 if i == j else 0.0
            assert abs(inner(u, v) - expected) < 1e-9


# -- validation and serialization -----------------------------------------------------


def test_invalid_hyperboloid_point_rejected():
    m = Hyperboloid(2)
    with pytest.raises(GeometryError):
        m.point([0.5, 0.0, 0.0])  # <x,x>_L > -1
    with pytest.raises(GeometryError):
        m.point([-1.0, 0.0, 0.0])  # lower sheet
    projected = m.point([2.0, 0.3, -0.1], project=True)
    assert abs(m.minkowski(projected.coords, projected.coords) + 1.0) < 1e-12


def test_hyperboloid_point_off_sheet_at_large_radius_rejected():
    m = Hyperboloid(1)
    # at radius 300 the rounded coordinates have self-product exactly 0,
    # inside the precision floor of the constraint but not timelike
    c = [math.cosh(300.0), math.sinh(300.0)]
    assert m.minkowski_exact(np.array(c), np.array(c)) == 0.0
    with pytest.raises(GeometryError, match="upper hyperboloid sheet"):
        m.point(c)
    # at radius 400 the self-product overflows
    with pytest.raises(GeometryError, match="overflows"):
        m.point([math.cosh(400.0), math.sinh(400.0)])
    # an accepted point caches the self-product its check computed
    x = m.point([math.cosh(3.0), math.sinh(3.0)])
    assert x.self_product == m.minkowski_exact(x.coords, x.coords)
    assert x.self_product is x.self_product


def test_invalid_spd_point_rejected():
    m = SPD(2)
    with pytest.raises(GeometryError):
        m.point([1.0, 0.5, -0.5, 1.0])  # not symmetric
    with pytest.raises(GeometryError):
        m.point([1.0, 2.0, 2.0, 1.0])  # indefinite
    with pytest.raises(GeometryError):
        m.tangent(m.base_point(), [0.0, 1.0, -1.0, 0.0])  # skew tangent


def test_descriptor_invariants():
    with pytest.raises(GeometryError):
        Euclidean(0)
    with pytest.raises(GeometryError):
        Hyperboloid(0)
    with pytest.raises(GeometryError):
        SPD(0)
    with pytest.raises(GeometryError):
        Product((Euclidean(2),))


def test_vector_at_equal_coordinates_accepted(manifold, rng):
    # a distinct point object with the same coordinates is the same base
    x = manifold.random_point(rng, 1.0)
    twin = manifold.point(x.coords)
    assert twin is not x
    u = manifold.random_tangent(rng, x, 0.5)
    v = manifold.random_tangent(rng, twin, 0.5)
    assert np.array_equal(exp_map(twin, u).coords, exp_map(x, u).coords)
    assert inner(u, v) == inner(u, manifold.tangent(x, v.components))
    assert np.array_equal((u + v).components, u.components + v.components)
    assert np.array_equal((u - v).components, u.components - v.components)
    assert VectorField(manifold, lambda p: (u,)).evaluate(twin) == (u,)


def test_vector_at_nearby_point_rejected(manifold, rng):
    x = manifold.random_point(rng, 1.0)
    y = exp_map(x, manifold.random_tangent(rng, x, 1e-6))
    u = manifold.random_tangent(rng, x, 0.5)
    v = manifold.random_tangent(rng, y, 0.5)
    with pytest.raises(GeometryError):
        exp_map(y, u)
    with pytest.raises(GeometryError):
        inner(u, v)
    with pytest.raises(GeometryError):
        u + v
    with pytest.raises(GeometryError):
        u - v
    with pytest.raises(FieldError):
        VectorField(manifold, lambda p: (u,)).evaluate(y)


@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_point_and_tangent_rejected(manifold, bad, project):
    base = manifold.base_point()
    c = base.coords.copy()
    c[0] = bad
    with pytest.raises(GeometryError, match="non-finite"):
        manifold.point(c, project=project)
    w = np.zeros(manifold.ambient_dim)
    w[-1] = bad
    with pytest.raises(GeometryError, match="non-finite"):
        manifold.tangent(base, w, project=project)


def test_projection_overflow_rejected():
    # finite input whose symmetrization overflows to inf
    m = SPD(2)
    big = [1.7e308, 0.0, 0.0, 1.7e308]
    with np.errstate(over="ignore"):
        with pytest.raises(GeometryError, match="non-finite"):
            m.point(big, project=True)
        with pytest.raises(GeometryError, match="non-finite"):
            m.tangent(m.base_point(), big, project=True)


def test_two_product_is_error_free():
    rng = np.random.default_rng(11)
    signs = rng.choice([-1.0, 1.0], size=(5000, 2))
    mags = 10.0 ** rng.uniform(-8.0, 8.0, size=(5000, 2))
    for a, b in signs * mags:
        p, err = _two_product(float(a), float(b))
        assert p == a * b
        assert Fraction(p) + Fraction(err) == Fraction(a) * Fraction(b)


def test_minkowski_exact_is_correctly_rounded(rng):
    m = Hyperboloid(3)

    def exact(a, b):
        terms = [Fraction(float(ai)) * Fraction(float(bi)) for ai, bi in zip(a, b)]
        return float(sum(terms[1:]) - terms[0])

    for _ in range(200):
        x, y = m.random_point(rng, 8.0), m.random_point(rng, 8.0)
        v = m.random_tangent(rng, x, 8.0 * rng.uniform())
        for a, b in ((x.coords, x.coords), (x.coords, y.coords), (x.coords, v.components)):
            assert m.minkowski_exact(a, b) == exact(a, b)


# -- hypothesis properties -------------------------------------------------------------


coords = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=3, max_size=3
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coords, coords)
def test_euclidean_roundtrip_property(a, b):
    m = Euclidean(3)
    x, y = m.point(a), m.point(b)
    assert dist(exp_map(x, log_map(x, y)), y) <= 1e-9 * max(1.0, dist(x, y))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coords, coords, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_euclidean_geodesic_interpolates_property(a, b, t):
    m = Euclidean(3)
    x, y = m.point(a), m.point(b)
    g = geodesic_point(x, y, t)
    assert abs(dist(x, g) - t * dist(x, y)) <= 1e-9 * max(1.0, dist(x, y))


# -- kernel rewrites against the formulas they replace ----------------------------------


def _old_minkowski_exact(a, b):
    terms = []
    p, err = _two_product(float(a[0]), float(b[0]))
    terms.extend((-p, -err))
    for ai, bi in zip(a[1:], b[1:]):
        p, err = _two_product(float(ai), float(bi))
        terms.extend((p, err))
    return _finite_sum(terms)


in_range = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
vector_pairs = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.tuples(st.lists(in_range, min_size=k, max_size=k),
                        st.lists(in_range, min_size=k, max_size=k))
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(vector_pairs)
def test_euclidean_dist_matches_linalg_norm_property(pair):
    a, b = pair
    m = Euclidean(len(a))
    x, y = m.point(a), m.point(b)
    expected = float(np.linalg.norm(y.coords - x.coords))
    got = m._dist(x, y)
    assert type(got) is float
    assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(vector_pairs.filter(lambda pair: len(pair[0]) >= 2))
def test_minkowski_forms_match_array_formulas_property(pair):
    a, b = (np.array(v) for v in pair)
    form = Hyperboloid.minkowski(a, b)
    assert form == math.fsum([-a[0] * b[0], *(a[1:] * b[1:])])
    try:
        expected = _old_minkowski_exact(a, b)
    except GeometryError:
        with pytest.raises(GeometryError):
            Hyperboloid.minkowski_exact(a, b)
    else:
        assert Hyperboloid.minkowski_exact(a, b) == expected


EQUAL_TEST_MANIFOLDS = (
    Euclidean(3), Hyperboloid(2), SPD(2), Product((Euclidean(2), Hyperboloid(2))),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(EQUAL_TEST_MANIFOLDS),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.sampled_from(["same", "copy", "signed_zeros", "other"]),
)
def test_equal_coordinates_test_matches_array_equal_property(m, seed, at_base, kind):
    rng = np.random.default_rng(seed)
    x = m.base_point() if at_base else m.random_point(rng, 2.0)
    if kind == "same":
        y = x
    elif kind == "copy":
        y = m.point(x.coords.copy())
    elif kind == "signed_zeros":  # 0.0 and -0.0 are equal coordinates
        y = m.point(np.where(x.coords == 0.0, -x.coords, x.coords))
    else:
        y = m.random_point(rng, 2.0)
    same = np.array_equal(x.coords, y.coords)
    assert _same_coords(x, y) == same
    assert same == (kind != "other")
    if same:
        d = m.dist(x, y)
        assert d == 0.0 and math.copysign(1.0, d) == 1.0
        v = m.log(x, y)
        assert v.base is x and v.components.tolist() == [0.0] * m.ambient_dim


def test_tangent_arithmetic_results_are_read_only():
    m = Euclidean(2)
    x = m.point([1.0, 2.0])
    u, v = m.tangent(x, [1.0, -1.0]), m.tangent(x, [0.5, 3.0])
    for w, expected in ((u + v, [1.5, 2.0]), (u - v, [0.5, -4.0]), (2 * u, [2.0, -2.0]),
                        (u * 2, [2.0, -2.0]), (-u, [-1.0, 1.0])):
        assert w.base is x and w.components.tolist() == expected
        assert not w.components.flags.writeable
        with pytest.raises(ValueError):
            w.components[0] = 0.0


# -- batched exponentials ---------------------------------------------------------------
#
# exp_sphere, geodesic_points and random_points serve many tangents at one
# base point from one kernel call; each must give exactly what the single
# calls give, errors included.  Hyperboloid bases reach out to radius 19,
# near the edge of what float64 coordinates hold.

# the three-factor product pins the order of the norm sum across factors
BATCH_MANIFOLDS = (
    Euclidean(3), Hyperboloid(2), SPD(2), Product((Euclidean(1), Hyperboloid(2))),
    Product((Euclidean(1), Hyperboloid(2), Euclidean(2))),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
radii = st.floats(min_value=0.0, max_value=19.0, allow_nan=False)


def _outcome(compute):
    # the points computed and their coordinates, or no points and the
    # GeometryError raised
    try:
        points = compute()
    except GeometryError as exc:
        return [], str(exc)
    return points, [y.coords.tolist() for y in points]


def _point_at(m, rng, radius):
    base = m.base_point()
    try:
        return m.exp(base, m.random_tangent(rng, base, radius))
    except GeometryError:  # beyond the float range of the chart
        assume(False)


def _assert_cached_self_products(m, points):
    # a Hyperboloid point from a batch carries its exact self-product as a float
    if not isinstance(m, Hyperboloid):
        return
    for y in points:
        q = y.__dict__["_self_product"]
        assert type(q) is float
        assert q == Hyperboloid.minkowski_exact(y.coords, y.coords)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(BATCH_MANIFOLDS), seeds, radii, radii,
    st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
             min_size=1, max_size=8),
)
def test_geodesic_points_match_geodesic_point_property(m, seed, rx, ry, ts):
    rng = np.random.default_rng(seed)
    x, y = _point_at(m, rng, rx), _point_at(m, rng, ry)
    _, expected = _outcome(lambda: [geodesic_point(x, y, t) for t in ts])
    points, got = _outcome(lambda: m.geodesic_points(x, y, ts))
    assert got == expected
    for t, p in zip(ts, points):
        assert p is x if t == 0.0 else p is y if t == 1.0 else p.manifold is m
    _assert_cached_self_products(m, [p for t, p in zip(ts, points) if 0.0 < t < 1.0])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(BATCH_MANIFOLDS), seeds, st.integers(min_value=0, max_value=12),
    st.one_of(st.just(0.0), radii),
)
def test_random_points_match_random_point_property(m, seed, n, spread):
    single, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    _, expected = _outcome(lambda: [m.random_point(single, spread) for _ in range(n)])
    points, got = _outcome(lambda: m.random_points(batched, n, spread))
    assert got == expected
    assert batched.uniform() == single.uniform()
    _assert_cached_self_products(m, points)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(BATCH_MANIFOLDS), seeds, radii, st.floats(min_value=1e-3, max_value=2.0))
def test_exp_sphere_matches_exp_property(m, seed, rx, radius):
    # each row is random_tangent from a generator drawing that row, then exp
    x = _point_at(m, np.random.default_rng(seed), rx)
    directions = np.random.default_rng(seed + 1).standard_normal((8, m.ambient_dim))
    sequential = np.random.default_rng(seed + 1)
    _, expected = _outcome(
        lambda: [exp_map(x, m.random_tangent(sequential, x, radius)) for _ in directions]
    )
    points, got = _outcome(lambda: [y for _, y in m.exp_sphere(x, directions, radius)])
    assert got == expected
    _assert_cached_self_products(m, points)


class _ZeroRadiusGenerator:
    """A generator whose uniform draws below 0.3 read 0, a function of its state."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def uniform(self):
        u = self._rng.uniform()
        return 0.0 if u < 0.3 else u

    def standard_normal(self, size):
        return self._rng.standard_normal(size)


def test_random_points_zero_radius_takes_the_single_calls(manifold):
    # a zero radius draws no direction in random_point, so the batch rewinds
    # the generator and runs the single calls; points and state still match
    single, batched = _ZeroRadiusGenerator(7), _ZeroRadiusGenerator(7)
    expected = [manifold.random_point(single, 2.0) for _ in range(12)]
    got = manifold.random_points(batched, 12, 2.0)
    assert [y.coords.tolist() for y in got] == [y.coords.tolist() for y in expected]
    assert any(np.array_equal(y.coords, manifold.base_point().coords) for y in got)
    assert batched.uniform() == single.uniform()


def test_exp_sphere_refuses_non_timelike_probes():
    # probes 2, 29 and 63 of the seed-0 certificate directions at this
    # radius-19 base round to a spacelike self-product (probe 2: +0.1477);
    # exp refuses each, and so does exp_sphere
    m = Hyperboloid(2)
    base = m.base_point()
    z = m.exp(base, m.tangent(base, [0.0, 19.0 * math.cos(1.85), 19.0 * math.sin(1.85)]))
    normals = _certificate_normals(0, 3)
    with pytest.raises(GeometryError, match="non-timelike point from exp"):
        m.exp_sphere(z, normals, 0.1)
    rng = np.random.default_rng(0)
    refused = []
    for k in range(len(normals)):
        try:
            exp_map(z, m.random_tangent(rng, z, 0.1))
        except GeometryError:
            refused.append(k)
    assert refused == [2, 29, 63]


def test_euclidean_tangent_basis_is_the_identity_frame(rng):
    for k in range(1, 6):
        m = Euclidean(k)
        x = m.random_point(rng, 3.0)
        assert [b.components.tolist() for b in m.tangent_basis(x)] == np.eye(k).tolist()


def _gram_error(m, basis):
    return max(
        abs(m.inner(u, v) - (1.0 if i == j else 0.0))
        for i, u in enumerate(basis) for j, v in enumerate(basis)
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(BATCH_MANIFOLDS + (SPD(3), Hyperboloid(5))), seeds, radii)
def test_tangent_basis_closed_form_property(m, seed, radius):
    # manifold_dim read-only vectors at x, orthonormal to 1e-9 within radius
    # 5; on a hyperboloid, to the chart's own floor eps*cosh(R)^2 at any radius
    x = _point_at(m, np.random.default_rng(seed), radius)
    basis = m.tangent_basis(x)
    assert len(basis) == m.manifold_dim
    assert all(b.base is x and not b.components.flags.writeable for b in basis)
    if radius <= 5.0:
        assert _gram_error(m, basis) <= 1e-9
    if isinstance(m, Hyperboloid):
        assert _gram_error(m, basis) <= 4.0 * np.finfo(float).eps * math.cosh(radius) ** 2


@pytest.mark.parametrize("radius", [14.0, 19.0])
def test_hyperboloid_tangent_basis_at_the_chart_edge(radius):
    # coordinates near 1e6 and 5e7 here: the frame is orthonormal only up to
    # the chart's own rounding floor eps*cosh(R)^2
    m = Hyperboloid(2)
    base = m.base_point()
    direction = [0.0, radius * math.cos(1.85), radius * math.sin(1.85)]
    x = m.exp(base, m.tangent(base, direction))
    basis = m.tangent_basis(x)
    assert len(basis) == 2
    assert _gram_error(m, basis) <= 4.0 * np.finfo(float).eps * math.cosh(radius) ** 2


def test_tangent_basis_at_the_base_point_is_the_standard_frame():
    # the coordinate directions at the apex, the diagonal units and then the
    # scaled off-diagonal pairs at the identity, and their concatenation
    r = math.sqrt(0.5)
    expected = {
        Hyperboloid(2): [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        SPD(2): [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, r, r, 0.0]],
        Product((Euclidean(1), Hyperboloid(1))): [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    }
    for m, rows in expected.items():
        assert [b.components.tolist() for b in m.tangent_basis(m.base_point())] == rows


def test_euclidean_inner_matches_matmul(rng):
    for k in (1, 2, 3, 5, 17):
        m = Euclidean(k)
        for _ in range(200):
            u, v = rng.standard_normal(k) * 10.0 ** rng.integers(-5, 5), rng.standard_normal(k)
            assert m._inner(u, u, v) == float(u @ v)

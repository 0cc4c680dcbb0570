"""Hadamard manifold geometry kernel.

Concrete simply connected spaces of nonpositive sectional curvature with
closed-form exponential and logarithm maps:

* ``Euclidean(n)`` -- flat space, curvature 0.
* ``Hyperboloid(n)`` -- hyperbolic space of curvature -1 in the Lorentz
  model, embedded in Minkowski space with signature ``(-,+,...,+)``.
* ``SPD(k)`` -- symmetric positive definite ``k x k`` matrices under the
  affine-invariant metric.
* ``Product(factors)`` -- finite products of the above.

Points and tangent vectors are immutable value objects holding ambient
chart coordinates as flat float arrays.  Every operation is a pure
function of its inputs, so values are safe to share across threads.

On all of these spaces the exponential map is a global diffeomorphism at
every base point, so ``log`` is total and geodesics between any two
points are unique.  Comparison-triangle utilities expose the planar
triangle with matching side lengths together with the CAT(0) inner
product residuals at each vertex.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "Manifold",
    "Euclidean",
    "Hyperboloid",
    "SPD",
    "Product",
    "ManifoldPoint",
    "TangentVector",
    "GeodesicTriangleReport",
    "attached",
    "exp_map",
    "log_map",
    "dist",
    "inner",
    "norm",
    "geodesic_point",
    "zero_vector",
    "comparison_triangle",
]


class GeometryError(ValueError):
    """Invalid point/tangent data, mismatched manifolds, or non-finite input."""


# Tolerances for constraint checks and series cutovers.  The geometric
# identities themselves are exact; these only fix how much floating-point
# slack constraint checks allow and where the stabilized series replace
# the naive formulas.
HYPERBOLOID_CONSTRAINT_TOL = 1e-10
SPD_SYMMETRY_TOL = 1e-12
BASE_MATCH_TOL = 1e-12
#: switch arcosh(1+e) to its sqrt expansion below this e
ACOSH_SERIES_CUT = 1e-7
#: switch sinh(t)/t to its Taylor series below this |t|
SINHC_SERIES_CUT = 1e-5
#: side length below which a comparison triangle is treated as degenerate
DEGENERATE_SIDE_TOL = 1e-14
#: squared tangent norm below which a sampled direction counts as zero
_MIN_SAMPLE_NORM2 = 1e-20
#: fewest rows the Hyperboloid's array exp serves; fewer loop the scalar
#: kernel, which costs less below about six rows
_ROW_KERNEL_MIN = 6
#: largest tangent norm n a Hyperboloid exp accepts: its endpoint holds
#: coordinates up to e^n x_0, and x_0 < sqrt(float max) at every point
#: (its self-product is finite), so e^n x_0 stays below float max / e^0.5
_EXP_MAX_NORM = (math.log(np.finfo(float).max) - 1.0) / 2.0
#: largest log of a bound on the entries an SPD exp accepts: its result is
#: symmetrized by a sum of two entries, so they stay below float max / e
_SPD_EXP_MAX_LOG = math.log(np.finfo(float).max) - 1.0


def _stable_acosh1p(e: float) -> float:
    # arcosh(1 + e); the sqrt expansion avoids cancellation for e near 0
    if e <= 0.0:
        return 0.0
    if e < ACOSH_SERIES_CUT:
        return math.sqrt(2.0 * e) * (1.0 - e / 12.0 + 3.0 * e * e / 160.0)
    s = 1.0 + e
    return math.log(s + math.sqrt(s * s - 1.0))


def _two_product(a: float, b: float) -> tuple[float, float]:
    # Dekker's error-free product via 2^27+1 splitting: p + err == a*b exactly
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _sphere_scale(n2: np.ndarray, radii: float | np.ndarray) -> np.ndarray:
    # per-row factor taking squared norms n2 to `radii` (one, or one per
    # row), as random_tangent computes it
    if not np.all(n2 > _MIN_SAMPLE_NORM2):
        raise GeometryError(
            "a sphere direction has no tangential part: the direction is zero, or "
            "the base point is at the edge of the chart, where its coordinates "
            "swamp the direction's projection"
        )
    return radii / np.sqrt(n2)


def _finite_sum(terms: list[float]) -> float:
    # exactly rounded sum; products that overflowed leave inf or nan terms
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # an overflowing or inf - inf sum
        total = math.nan
    if not math.isfinite(total):
        raise GeometryError("Minkowski form overflows the float range")
    return total


def _finite_row_sums(rows: list[list[float]]) -> np.ndarray:
    # _finite_sum of every row, bit for bit: one map over the rows, and the
    # per-row form only where that map raises, to raise its error
    try:
        sums = list(map(math.fsum, rows))
    except (OverflowError, ValueError):
        sums = [_finite_sum(r) for r in rows]
    if not all(map(math.isfinite, sums)):
        raise GeometryError("Minkowski form overflows the float range")
    return np.array(sums)


def _as_coords(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel().copy()
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    # a freshly computed array needs no copy to become immutable; the raw
    # kernels return new float arrays
    arr.setflags(write=False)
    return arr


def _same_coords(x: ManifoldPoint, y: ManifoldPoint) -> bool:
    # what np.array_equal answers for points of one manifold, at a tenth of its cost
    return x is y or x.coords.tolist() == y.coords.tolist()


def _all_finite(arr: np.ndarray) -> bool:
    # a Python loop over a few coordinates is ~10x faster than np.isfinite
    return all(map(math.isfinite, arr.ravel().tolist()))


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not _all_finite(arr):
        raise GeometryError(f"non-finite {what}: {arr!r}")


def _squares_fit(c: list[float]) -> bool:
    # a sum of products of at most 32 entries below 1e150 stays below
    # 32e300 < float max, so a dot over them cannot overflow
    return len(c) <= 32 and -1e150 < min(c) and max(c) < 1e150


def _euclidean_norm(d: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D array, ``sqrt(d.d)``, without its dispatch.

    ``math.hypot`` replaces it only where the squares overflow before the
    norm does.  The dot product cannot overflow on at most 32 entries
    below 1e150 (32e300 < float max); any other array takes its dot under
    ``np.errstate``, so an overflow there raises no numpy warning.
    """
    c = d.tolist()
    if _squares_fit(c):
        return math.sqrt(d.dot(d))
    with np.errstate(over="ignore"):
        n2 = d.dot(d)
    return math.sqrt(n2) if n2 < math.inf else math.hypot(*c)


def _flat_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y - x``: log on a flat chart, and the difference a flat distance measures.

    Taken on Python floats: the same IEEE differences as the array
    subtraction, but one that overflows gives inf, which log and dist
    then reject as a non-finite result, without a numpy warning.
    """
    return np.fromiter(map(operator.sub, y.tolist(), x.tolist()), float, len(x))


def _flat_exp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x + v`` (v one tangent or rows of tangents): exp on a flat chart.

    The sum runs under ``np.errstate``, so an overflow, which exp then
    rejects as a non-finite result, raises no numpy warning.
    """
    with np.errstate(over="ignore"):
        return x + v


def _root_sum_squares(ds: list[float]) -> float:
    # sqrt of the builtin sum of squares (Python 3.12 and later compensate
    # that sum); hypot only where the squares overflow before the root does
    try:
        n2 = sum(d ** 2 for d in ds)
    except OverflowError:
        n2 = math.inf
    return math.sqrt(n2) if n2 < math.inf else math.hypot(*ds)


#: stores a value computed from a point's read-only coordinates on the
#: point; the instance keeps it among its inline attribute values, where a
#: write through ``__dict__`` would build a dictionary for every point
_keep = object.__setattr__


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on a concrete Hadamard manifold, in ambient chart coordinates.

    Besides its two fields a point keeps values computed from its
    coordinates: the Hyperboloid self-product, a product point's factor
    points, the distance memo of :meth:`Manifold.dist`, and the
    solution-set membership memo of a problem's reference solution
    (:mod:`hsplit.splitting`).  The class attributes below are their
    "not yet computed" values.
    """

    manifold: "Manifold"
    coords: np.ndarray

    _self_product = None
    _parts = None
    _dist_memo = None
    _membership_memo = None

    @property
    def self_product(self) -> float:
        """Minkowski self-product ``<x,x>_L`` with error-free products.

        Read by the Hyperboloid kernels.  A point is immutable, so the
        value is computed once, on first use, and never goes stale.
        """
        # a plain memo: cached_property takes a lock on Python < 3.12
        q = self._self_product
        if q is None:
            q = Hyperboloid.minkowski_exact(self.coords, self.coords)
            _keep(self, "_self_product", q)
        return q

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ManifoldPoint({self.manifold.tag}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A vector attached to a base point, in the base point's chart."""

    base: ManifoldPoint
    components: np.ndarray

    @property
    def manifold(self) -> "Manifold":
        return self.base.manifold

    def norm(self) -> float:
        return self.manifold.norm(self)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        _check_same_base(self, other)
        return TangentVector(self.base, _frozen(self.components + other.components))

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        _check_same_base(self, other)
        return TangentVector(self.base, _frozen(self.components - other.components))

    def __mul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.base, _frozen(float(scalar) * self.components))

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return TangentVector(self.base, _frozen(-self.components))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TangentVector({self.manifold.tag}, {np.array2string(self.components, precision=6)})"


def attached(v: TangentVector, x: ManifoldPoint) -> bool:
    """True when v is a tangent vector at x: same manifold, coordinates within ``BASE_MATCH_TOL``."""
    return v.base is x or (
        v.base.manifold == x.manifold
        and np.allclose(v.base.coords, x.coords, rtol=0.0, atol=BASE_MATCH_TOL)
    )


def _check_same_manifold(x: ManifoldPoint, y: ManifoldPoint) -> None:
    if x.manifold is not y.manifold and x.manifold != y.manifold:
        raise GeometryError(f"manifold mismatch: {x.manifold.tag} vs {y.manifold.tag}")


def _check_same_base(u: TangentVector, v: TangentVector) -> None:
    if not attached(u, v.base):
        _check_same_manifold(u.base, v.base)
        raise GeometryError("tangent vectors attached to different base points")


class Manifold(ABC):
    """Common interface of the concrete Hadamard manifold instances.

    Subclasses implement the raw kernels (prefixed ``_``), which assume
    finite input.  ``_validate_point``, ``_validate_exp_point``, ``_exp``,
    ``_exp_rows``, ``_tangent_rows``, ``_frame``, ``_log`` and ``_dist``
    take points, so a space can read what a point caches
    (:attr:`ManifoldPoint.self_product`); the others take coordinate
    arrays.  Each check lives in one place: :meth:`point` and
    :meth:`tangent` check finiteness and then the constraints
    (``_validate_*``), :meth:`exp` and ``_exp_points`` the finiteness of
    their vectors and whether each result can serve as a point
    (``_validate_exp_point``), :meth:`log`, :meth:`dist` and
    :meth:`exp_sphere` the finiteness of their results, and
    :func:`attached` every base point.  ``_exp_points`` is the batched
    :meth:`exp` behind :meth:`exp_sphere`, :meth:`geodesic_points` and
    :meth:`random_points`: one ``_exp_rows`` call serves many tangents at
    one base point, and every row equals :meth:`exp` bit for bit.  It is
    the one row path for every probe set at one point: the equilibrium
    certificate's sphere rows, the finite-difference stencil of a raw
    oracle and the membership probes each take one call.
    ``_inner_rows(x, u, v)`` is ``_inner(x, u, v_k)`` for every row v_k,
    bit for bit, so a probe set's metric terms take one call too.
    :meth:`dist` keeps a per-point memo of the last distance a point
    measured.  The flat spaces (:attr:`is_flat`: ``Euclidean`` and
    products of flat factors) also implement ``_flat_dist(d)``, the
    distance between two points whose coordinates differ by d.
    """

    # -- shape ---------------------------------------------------------

    @property
    @abstractmethod
    def ambient_dim(self) -> int:
        """Length of the flat coordinate array of a point."""

    @property
    @abstractmethod
    def manifold_dim(self) -> int:
        """Intrinsic dimension."""

    @property
    @abstractmethod
    def tag(self) -> str:
        """Serialization tag, e.g. ``euclidean:3``."""

    @property
    def is_flat(self) -> bool:
        """True when the chart is a Euclidean vector space (zero curvature)."""
        return False

    # -- raw kernels ----------------------------------------------------

    @abstractmethod
    def _base_coords(self) -> np.ndarray: ...

    @abstractmethod
    def _project_point(self, c: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _project_tangent(self, x: np.ndarray, w: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float: ...

    @abstractmethod
    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray: ...

    @abstractmethod
    def _dist(self, x: ManifoldPoint, y: ManifoldPoint) -> float: ...

    def _exp_rows(
        self, x: ManifoldPoint, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``_exp`` of every row of v, and the self-products of the results
        where the space caches them on its points (else None)."""
        return np.array([self._exp(x, r) for r in v]), None

    def _tangent_rows(
        self, x: ManifoldPoint, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``_project_tangent`` of every row of ``directions``, and the
        squared norm ``_inner`` gives each projected row."""
        w = np.array([self._project_tangent(x.coords, d) for d in directions])
        return w, np.array([self._inner(x.coords, r, r) for r in w])

    def _inner_rows(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[float]:
        """``_inner(x, u, v_k)`` for every row v_k of v, bit for bit."""
        return [self._inner(x, u, r) for r in v]

    def _sphere_tangents(
        self, x: ManifoldPoint, directions: np.ndarray, radii: float | np.ndarray
    ) -> np.ndarray:
        """Rows of ``directions`` projected to T_x and scaled to norms ``radii``,
        each as :meth:`random_tangent` computes it from that draw."""
        w, n2 = self._tangent_rows(x, directions)
        return _sphere_scale(n2, radii)[:, None] * w

    @abstractmethod
    def _frame(self, x: ManifoldPoint) -> np.ndarray:
        """Orthonormal basis of T_x in closed form, one vector per row."""

    def _validate_point(self, x: ManifoldPoint) -> None:
        """Raise GeometryError unless the finite coordinates of x are a point."""

    def _validate_tangent(self, x: np.ndarray, w: np.ndarray) -> None:
        """Raise GeometryError unless the finite components w are tangent at x."""

    def _validate_exp_point(self, y: ManifoldPoint) -> None:
        """Raise GeometryError unless the finite result y of :meth:`exp` is usable."""

    # -- construction ----------------------------------------------------

    def point(self, coords, *, project: bool = False) -> ManifoldPoint:
        """Wrap raw coordinates as a validated point.

        With ``project=True`` the coordinates are first projected back
        onto the manifold (renormalization / resymmetrization), which is
        the supported way to absorb small constraint drift.
        """
        c = _as_coords(coords)
        if c.size != self.ambient_dim:
            raise GeometryError(
                f"expected {self.ambient_dim} coordinates for {self.tag}, got {c.size}"
            )
        _require_finite(c, "point coordinates")
        if project:
            # projecting can overflow, e.g. symmetrizing entries near the float maximum
            c = _as_coords(self._project_point(c))
            _require_finite(c, "projected point coordinates")
        x = ManifoldPoint(self, c)
        self._validate_point(x)
        return x

    def base_point(self) -> ManifoldPoint:
        """A canonical reference point (origin, apex, or identity)."""
        return ManifoldPoint(self, _as_coords(self._base_coords()))

    def tangent(self, base: ManifoldPoint, components, *, project: bool = False) -> TangentVector:
        """Wrap raw components as a validated tangent vector at ``base``."""
        self._own_point(base)
        w = _as_coords(components)
        if w.size != self.ambient_dim:
            raise GeometryError(
                f"expected {self.ambient_dim} components for {self.tag}, got {w.size}"
            )
        _require_finite(w, "tangent components")
        if project:
            w = _as_coords(self._project_tangent(base.coords, w))
            _require_finite(w, "projected tangent components")
        self._validate_tangent(base.coords, w)
        return TangentVector(base, w)

    def zero_vector(self, base: ManifoldPoint) -> TangentVector:
        self._own_point(base)
        return TangentVector(base, _as_coords(np.zeros(self.ambient_dim)))

    # -- geometry ---------------------------------------------------------

    def exp(self, x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        """Point reached at unit time along the geodesic leaving x with velocity v."""
        self._own_point(x)
        if not attached(v, x):
            raise GeometryError("tangent vector is not attached to the given base point")
        _require_finite(v.components, "tangent components")
        c = _frozen(self._exp(x, v.components))
        _require_finite(c, "point coordinates from exp")
        y = ManifoldPoint(self, c)
        self._validate_exp_point(y)
        return y

    def exp_sphere(
        self, x: ManifoldPoint, directions: np.ndarray, radius: float
    ) -> list[tuple[TangentVector, ManifoldPoint]]:
        """Pairs ``(v, exp_x v)`` for tangents v of norm ``radius`` at x.

        Each row of ``directions`` (ambient, shape ``(n, ambient_dim)``)
        is projected to T_x and rescaled to Riemannian norm ``radius``.
        Its pair equals, bit for bit, ``v = random_tangent(rng, x, radius)``
        with a generator that draws that row, followed by ``exp(x, v)``;
        one kernel call serves every row.  A row with no tangential part
        raises :class:`GeometryError` where ``random_tangent`` would draw
        again: a zero row, or, at the edge of the chart, a row whose
        projection the coordinates of x swamp.
        """
        self._own_point(x)
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != self.ambient_dim:
            raise GeometryError(
                f"expected rows of {self.ambient_dim} coordinates for {self.tag}, "
                f"got shape {directions.shape}"
            )
        _require_finite(directions, "directions")
        if not 0.0 < radius < math.inf:
            raise GeometryError(f"sphere radius {radius!r} is not positive and finite")
        v, points = self._sphere_points(x, directions, float(radius))
        # the rows are read-only views, as immutable as coordinates of their own
        return [(TangentVector(x, vk), y) for vk, y in zip(v, points)]

    def _sphere_points(
        self, x: ManifoldPoint, directions: np.ndarray, radius: float
    ) -> tuple[np.ndarray, list[ManifoldPoint]]:
        """:meth:`exp_sphere` as rows, for checked arguments: the read-only
        tangent rows v_k at x and the points ``exp(x, v_k)``."""
        v = _frozen(self._sphere_tangents(x, directions, radius))
        return v, self._exp_points(x, v)

    def _exp_points(self, x: ManifoldPoint, v: np.ndarray) -> list[ManifoldPoint]:
        """``exp(x, v_k)`` for every row v_k of v, with the checks :meth:`exp` makes."""
        if not len(v):
            return []
        try:
            _require_finite(v, "tangent components")
            c, q = self._exp_rows(x, v)
            c = _frozen(np.asarray(c, dtype=float))
            _require_finite(c, "point coordinates from exp")
            points = [ManifoldPoint(self, ck) for ck in c]
            if q is not None:
                for y, qk in zip(points, q.tolist()):
                    _keep(y, "_self_product", qk)
            for y in points:
                self._validate_exp_point(y)
            return points
        except GeometryError:
            # the rows one by one: the first failing row raises what exp raises for it
            return [self.exp(x, TangentVector(x, _as_coords(r))) for r in v]

    def log(self, x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        """Initial velocity of the minimal geodesic from x to y; inverse of exp."""
        if x.manifold is not self or y.manifold is not self:
            self._own_point(x)
            _check_same_manifold(x, y)
        if _same_coords(x, y):
            return self.zero_vector(x)
        w = _frozen(self._log(x, y))
        _require_finite(w, "tangent components from log")
        return TangentVector(x, w)

    def dist(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        """Riemannian distance between x and y.

        x keeps the last finite distance it measured, with the coordinate
        array of the point it measured it to.  After the ownership and
        manifold checks, a call to that same array returns the kept value,
        the kernel's bits, without running the kernel again: coordinates
        are read-only, so the same array means the same coordinates.  The
        memo holds the array, not the point, so it keeps no chain of
        points alive.
        """
        if x.manifold is not self or y.manifold is not self:
            self._own_point(x)
            _check_same_manifold(x, y)
        yc = y.coords
        memo = x._dist_memo
        if memo is not None and memo[0] is yc:
            return memo[1]
        if _same_coords(x, y):
            return 0.0
        d = float(self._dist(x, y))
        if not math.isfinite(d):
            raise GeometryError(f"non-finite distance {d!r}")
        _keep(x, "_dist_memo", (yc, d))
        return d

    def inner(self, u: TangentVector, v: TangentVector) -> float:
        _check_same_base(u, v)
        val = float(self._inner(u.base.coords, u.components, v.components))
        if not math.isfinite(val):
            raise GeometryError(f"non-finite inner product {val!r}")
        return val

    def norm(self, v: TangentVector) -> float:
        x, w = v.base.coords, v.components
        try:
            val = self._inner(x, w, w)
        except (OverflowError, ValueError):  # a Minkowski fsum over overflowed products
            val = math.inf
        if not math.isfinite(val):
            # the squares overflow before the norm does: |w| = s * |w / s|
            # with s = max |w_i|, as the metric is quadratic in w
            s = float(np.max(np.abs(w)))
            if not 0.0 < s < math.inf:
                return s
            w = w / s
            return s * math.sqrt(max(self._inner(x, w, w), 0.0))
        return math.sqrt(max(val, 0.0))

    def geodesic(self, x: ManifoldPoint, y: ManifoldPoint, t: float) -> ManifoldPoint:
        """The point ``gamma(t)`` on the unique geodesic with gamma(0)=x, gamma(1)=y."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise GeometryError(f"geodesic parameter t={t} outside [0, 1]")
        if t == 0.0:
            return x
        if t == 1.0:
            _check_same_manifold(x, y)
            return y
        return self.exp(x, t * self.log(x, y))

    def geodesic_points(
        self, x: ManifoldPoint, y: ManifoldPoint, ts: Sequence[float]
    ) -> list[ManifoldPoint]:
        """``geodesic(x, y, t)`` for each t, from one ``log`` and one batched ``exp``.

        Each point equals the single call bit for bit, t = 0 and t = 1
        included.
        """
        ts = [float(t) for t in ts]
        inside = [t for t in ts if 0.0 < t < 1.0]
        mids = iter(
            self._exp_points(x, np.multiply.outer(inside, self.log(x, y).components))
            if inside else ()
        )
        return [next(mids) if 0.0 < t < 1.0 else self.geodesic(x, y, t) for t in ts]

    # -- tangent frames and sampling ---------------------------------------

    def tangent_basis(self, x: ManifoldPoint) -> tuple[TangentVector, ...]:
        """Orthonormal basis of T_x under the Riemannian metric, in closed form."""
        self._own_point(x)
        # the rows are read-only views, as immutable as coordinates of their own
        return tuple(TangentVector(x, b) for b in _frozen(self._frame(x)))

    def random_tangent(
        self, rng: np.random.Generator, x: ManifoldPoint, scale: float = 1.0
    ) -> TangentVector:
        """Random tangent vector at x with Riemannian norm exactly ``scale``."""
        self._own_point(x)
        if scale == 0.0:
            return self.zero_vector(x)
        for _ in range(16):
            w = self._project_tangent(x.coords, rng.standard_normal(self.ambient_dim))
            n2 = self._inner(x.coords, w, w)
            if n2 > _MIN_SAMPLE_NORM2:
                return TangentVector(x, _as_coords((scale / math.sqrt(n2)) * w))
        raise GeometryError("could not sample a nonzero tangent direction")

    def random_point(
        self, rng: np.random.Generator, spread: float = 1.0
    ) -> ManifoldPoint:
        """Random point within geodesic distance ``spread`` of the base point.

        A :class:`Hyperboloid` holds no point beyond radius about 19.5.
        """
        base = self.base_point()
        radius = spread * rng.uniform()
        return self.exp(base, self.random_tangent(rng, base, scale=radius))

    def random_points(
        self, rng: np.random.Generator, n: int, spread: float
    ) -> list[ManifoldPoint]:
        """``n`` calls of :meth:`random_point` in order, from one batched ``exp``.

        The points, and the generator's state after them, equal those of
        the single calls bit for bit.  The draws come in the same order;
        where a radius is 0 or a direction degenerate (the single call
        then draws differently) or a row fails, the generator is rewound
        and the calls run one by one.
        """
        state = rng.bit_generator.state
        dim = self.ambient_dim
        radii = np.empty(n)
        directions = np.empty((n, dim))
        for k in range(n):
            radii[k] = spread * rng.uniform()
            directions[k] = rng.standard_normal(dim)
        if np.all(radii != 0.0):
            base = self.base_point()
            try:
                return self._exp_points(base, self._sphere_tangents(base, directions, radii))
            except GeometryError:
                pass
        rng.bit_generator.state = state
        return [self.random_point(rng, spread) for _ in range(n)]

    # -- internals ----------------------------------------------------------

    def _own_point(self, x: ManifoldPoint) -> None:
        if x.manifold is not self and x.manifold != self:
            raise GeometryError(f"point on {x.manifold.tag} passed to {self.tag}")


@dataclass(frozen=True)
class Euclidean(Manifold):
    """Flat space R^n with the dot product metric."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise GeometryError("Euclidean dimension must be >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.dim

    @property
    def manifold_dim(self) -> int:
        return self.dim

    @property
    def tag(self) -> str:
        return f"euclidean:{self.dim}"

    @property
    def is_flat(self) -> bool:
        return True

    def _base_coords(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _project_point(self, c: np.ndarray) -> np.ndarray:
        return c

    def _project_tangent(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return w

    def _inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        # the BLAS dot that `u @ v` calls, without matmul's dispatch
        return float(u.dot(v))

    def norm(self, v: TangentVector) -> float:
        # the base class's norm wherever the squares stay finite, without
        # a numpy warning where they overflow
        return _euclidean_norm(v.components)

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> np.ndarray:
        return _flat_exp(x.coords, v)

    def _exp_rows(self, x: ManifoldPoint, v: np.ndarray) -> tuple[np.ndarray, None]:
        return _flat_exp(x.coords, v), None

    def _tangent_rows(
        self, x: ManifoldPoint, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # squared norms row by row: a batched dot rounds differently from `_inner`'s
        return directions, np.array([self._inner(x.coords, d, d) for d in directions])

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        return _flat_difference(x.coords, y.coords)

    def _dist(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        return _euclidean_norm(_flat_difference(x.coords, y.coords))

    def _flat_dist(self, d: np.ndarray) -> float:
        """Distance between two points whose coordinates differ by d."""
        return _euclidean_norm(d)

    def _frame(self, x: ManifoldPoint) -> np.ndarray:
        return np.eye(self.dim)


@dataclass(frozen=True)
class Hyperboloid(Manifold):
    """Hyperbolic n-space of curvature -1 in the Lorentz model.

    Points live on the upper sheet ``<x,x>_L = -1, x_0 > 0`` of the
    hyperboloid in R^{n+1}, where ``<.,.>_L`` is the Minkowski form with
    signature ``(-,+,...,+)``.  The Riemannian metric is the restriction
    of the Minkowski form to tangent spaces, where it is positive
    definite.

    Float64 coordinates hold points only within radius about 19.5 of
    the base point: ``exp`` beyond it raises :class:`GeometryError`, and
    distances drift before it (by about 0.4 at radius 19).
    """

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise GeometryError("hyperboloid dimension must be >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    @property
    def manifold_dim(self) -> int:
        return self.dim

    @property
    def tag(self) -> str:
        return f"hyperboloid:{self.dim}"

    @staticmethod
    def minkowski(a: np.ndarray, b: np.ndarray) -> float:
        """Minkowski bilinear form -a0*b0 + a1*b1 + ... .

        Summed with compensation: geodesic formulas amplify form-level
        rounding by sinh of the distance, so the extra cost is the price
        of meaningful tangency defects.
        """
        return Hyperboloid._minkowski_lists(a.tolist(), b.tolist())

    @staticmethod
    def _minkowski_lists(a: list[float], b: list[float]) -> float:
        # minkowski of coordinates already read out as Python floats
        try:
            return math.fsum([-a[0] * b[0], *map(operator.mul, a[1:], b[1:])])
        except (OverflowError, ValueError) as exc:  # an overflowing or inf - inf sum
            raise GeometryError(f"Minkowski form overflows the float range: {exc}") from exc

    @staticmethod
    def minkowski_exact(a: np.ndarray, b: np.ndarray) -> float:
        """Minkowski form with error-free products, correct to ~1 ulp.

        The exponential map must resolve the tangency defect of a stored
        vector to absolute precision: its effect on the endpoint grows
        like sinh(d)^2/d, so ordinary product rounding (relative in the
        coordinate magnitudes) is far too coarse.
        """
        a, b = a.tolist(), b.tolist()
        terms: list[float] = []
        p, err = _two_product(a[0], b[0])
        terms.extend((-p, -err))
        for ai, bi in zip(a[1:], b[1:]):
            p, err = _two_product(ai, bi)
            terms.extend((p, err))
        return _finite_sum(terms)

    @staticmethod
    def _minkowski_exact_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # minkowski_exact of each row pair: the same error-free products, and
        # an exactly rounded sum, so every value is bit-identical to it
        with np.errstate(over="ignore", invalid="ignore"):
            p, err = _two_product(a, b)
        p[:, 0] = -p[:, 0]
        err[:, 0] = -err[:, 0]
        return _finite_row_sums(np.hstack((p, err)).tolist())

    def _base_coords(self) -> np.ndarray:
        c = np.zeros(self.dim + 1)
        c[0] = 1.0
        return c

    def _validate_point(self, x: ManifoldPoint) -> None:
        c = x.coords
        q = x.self_product
        # float64 coordinates at hyperbolic radius R cannot satisfy the
        # constraint better than ~eps * cosh(R)^2; allow that floor, but
        # the self-product must stay timelike, as _project_point requires
        mass = float(c @ c) + 2.0 * c[0] * c[0]
        tol = max(HYPERBOLOID_CONSTRAINT_TOL, 16.0 * 2.3e-16 * mass)
        if not q < 0.0 or abs(q + 1.0) > tol or c[0] <= 0.0:
            raise GeometryError(
                f"not on the upper hyperboloid sheet: <x,x>_L = {q!r}, x0 = {c[0]!r}"
            )

    def _project_point(self, c: np.ndarray) -> np.ndarray:
        q = self.minkowski_exact(c, c)
        if not q < 0.0:
            raise GeometryError("cannot project coordinates with non-timelike self-product")
        c = c / math.sqrt(-q)
        return c if c[0] > 0.0 else -c

    def _validate_exp_point(self, y: ManifoldPoint) -> None:
        # near radius 19.5 the projected coordinates round to a
        # non-timelike self-product, on which dist and log are undefined;
        # the product stays cached on y for them
        if not y.self_product < 0.0:
            raise GeometryError(
                f"non-timelike point from exp: <y,y>_L = {y.self_product!r}"
            )

    def _project_tangent(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return w + self.minkowski(x, w) * x

    def _validate_tangent(self, x: np.ndarray, w: np.ndarray) -> None:
        scale = max(1.0, float(np.max(np.abs(w))) * float(np.max(np.abs(x))) * x.size)
        if abs(self.minkowski(x, w)) > HYPERBOLOID_CONSTRAINT_TOL * scale:
            raise GeometryError("tangent vector is not Minkowski-orthogonal to its base")

    def _inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        return self.minkowski(u, v)

    def _inner_rows(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[float]:
        # the products of `minkowski`, one exactly rounded sum per row
        signed = u.copy()
        signed[0] = -signed[0]
        with np.errstate(over="ignore", invalid="ignore"):
            rows = (v * signed).tolist()
        try:
            return list(map(math.fsum, rows))
        except (OverflowError, ValueError):  # the row's own call raises its error
            return super()._inner_rows(x, u, v)

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> np.ndarray:
        # The endpoint is exp of the exact tangential part of v taken at
        # the exact radial normalization of x.  Defects of the stored
        # data (the timelike component m = <x,v>_L, the off-shell factor
        # in qx = <x,x>_L, and any mismatch between the trig argument
        # and the true norm of v) displace the endpoint with an
        # amplification ~ sinh(n)*cosh(n), so the three bilinear forms
        # use error-free products and the scalar stage runs in extended
        # precision, folding all corrections into the coefficient of x.
        # _exp_rows repeats these steps row-wise, bit for bit
        ld = np.longdouble
        qx = ld(x.self_product)
        xc = x.coords
        m = ld(self.minkowski_exact(xc, v))
        n2 = ld(self.minkowski_exact(v, v)) - m * m / qx
        if n2 <= 0.0:
            n = ld(0.0)
            s = ld(1.0)
        else:
            n = np.sqrt(n2)
            if n > _EXP_MAX_NORM:
                raise GeometryError(f"exp leaves the float range: tangent norm {float(n)!r}")
            if n < SINHC_SERIES_CUT:
                t2 = n * n
                s = 1.0 + t2 / 6.0 + t2 * t2 / 120.0
            else:
                s = np.sinh(n) / n
        a = np.cosh(n) / np.sqrt(-qx) - s * m / qx
        c = a * xc.astype(ld) + s * v.astype(ld)
        return self._project_point(np.asarray(c, dtype=float))

    def _exp_rows(
        self, x: ManifoldPoint, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # _exp and _project_point for all rows at once, plus the exact
        # self-product of each result.  Each Minkowski form is an exactly
        # rounded sum of the same products as the scalar code's, so every
        # row matches it bit for bit.  Below _ROW_KERNEL_MIN rows the array
        # set-up costs more than the scalar kernel saves, so those loop _exp
        if len(v) < _ROW_KERNEL_MIN:
            return super()._exp_rows(x, v)
        ld = np.longdouble
        xc = x.coords
        qx = ld(x.self_product)
        k = len(v)
        forms = self._minkowski_exact_rows(
            np.vstack((np.broadcast_to(xc, v.shape), v)), np.vstack((v, v))
        ).astype(ld)
        m = forms[:k]
        n2 = forms[k:] - m * m / qx
        n = np.sqrt(np.maximum(n2, 0.0))
        if np.any(n > _EXP_MAX_NORM):
            raise GeometryError("exp leaves the float range")
        t2 = n * n
        s = 1.0 + t2 / 6.0 + t2 * t2 / 120.0
        big = n >= SINHC_SERIES_CUT
        s[big] = np.sinh(n[big]) / n[big]
        a = np.cosh(n) / np.sqrt(-qx) - s * m / qx
        c = np.asarray(a[:, None] * xc.astype(ld) + s[:, None] * v.astype(ld), dtype=float)

        q = self._minkowski_exact_rows(c, c)
        if not np.all(q < 0.0):
            raise GeometryError("cannot project coordinates with non-timelike self-product")
        c = c / np.sqrt(-q)[:, None]
        c = np.where(c[:, :1] > 0.0, c, -c)
        return c, self._minkowski_exact_rows(c, c)

    def _tangent_rows(
        self, x: ManifoldPoint, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # exactly rounded sums of the scalar code's products, bit for bit
        xc = x.coords
        signed = xc.copy()
        signed[0] = -signed[0]
        xw = _finite_row_sums((directions * signed).tolist())
        w = directions + xw[:, None] * xc
        w2 = w * w
        w2[:, 0] = -w2[:, 0]
        return w, _finite_row_sums(w2.tolist())

    def _chord_half(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        # cosh(d) - 1 computed from the chord <y-x, y-x>_L = 2(cosh d - 1),
        # whose rounding stays relative to the separation, then corrected
        # for the off-shell radial factors of the stored endpoints:
        #   cosh d = (e - (qx+qy)/2) / sqrt(qx*qy).
        # Stored coordinates at hyperbolic radius R are off shell by
        # ~eps*cosh(R)^2, which would otherwise bias e by the same
        # relative amount.  The chord is taken on Python floats: the same
        # IEEE differences as on arrays, without their overhead
        diff = list(map(operator.sub, y.coords.tolist(), x.coords.tolist()))
        e = 0.5 * self._minkowski_lists(diff, diff)  # may be < 0 off shell
        qx = x.self_product
        qy = y.self_product
        scale = math.sqrt(qx * qy)
        u = -0.5 * (qx + 1.0)
        w = -0.5 * (qy + 1.0)
        # exact rewrite of -(qx+qy)/2 - scale, free of the absolute-eps
        # cancellation of the direct difference
        correction = (u - w) ** 2 / ((1.0 + u + w) + scale)
        return max((e + correction) / scale, 0.0)

    def _dist(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        return _stable_acosh1p(self._chord_half(x, y))

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        # tangential part of the chord is (y - x) - e*x, rescaled to
        # length d; its residual timelike defect is resolved by exp
        e = self._chord_half(x, y)
        x, y = x.coords, y.coords
        if e <= 0.0:
            return np.zeros_like(x)
        d = _stable_acosh1p(e)
        t = (y - x) - e * x
        tn2 = self.minkowski(t, t)
        if tn2 <= 0.0:
            return np.zeros_like(x)
        return (d / math.sqrt(tn2)) * t

    def _frame(self, x: ManifoldPoint) -> np.ndarray:
        # the standard frame e_1..e_n at the base point e_0, moved to x by
        # parallel transport along the geodesic: e_i + x_i/(1+x_0) (e_0 + x),
        # an isometry of tangent spaces
        c = x.coords
        u = c.copy()
        u[0] += 1.0  # e_0 + x
        b = np.outer(c[1:] / u[0], u)
        b[:, 1:] += np.eye(self.dim)
        return b


@dataclass(frozen=True)
class SPD(Manifold):
    """Symmetric positive definite matrices with the affine-invariant metric.

    A point is a flat row-major ``k*k`` array of a symmetric positive
    definite matrix P; tangent vectors are symmetric matrices.  The
    metric is ``<U,V>_P = tr(P^-1 U P^-1 V)``, under which the space has
    nonpositive curvature and closed-form geodesics

        exp_P(U) = P^1/2 expm(P^-1/2 U P^-1/2) P^1/2.
    """

    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise GeometryError("SPD matrix order must be >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.order * self.order

    @property
    def manifold_dim(self) -> int:
        return self.order * (self.order + 1) // 2

    @property
    def tag(self) -> str:
        return f"spd:{self.order}"

    # -- matrix helpers -------------------------------------------------

    def _mat(self, c: np.ndarray) -> np.ndarray:
        return c.reshape(self.order, self.order)

    @staticmethod
    def _sym(m: np.ndarray) -> np.ndarray:
        return (m + m.T) / 2.0

    def _sqrt_pair(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, vecs = np.linalg.eigh(p)
        if w[0] <= 0.0:
            raise GeometryError(f"matrix is not positive definite (min eig {w[0]!r})")
        sq = (vecs * np.sqrt(w)) @ vecs.T
        isq = (vecs * (1.0 / np.sqrt(w))) @ vecs.T
        return sq, isq

    # -- kernel ----------------------------------------------------------

    def _base_coords(self) -> np.ndarray:
        return np.eye(self.order).ravel()

    def _validate_point(self, x: ManifoldPoint) -> None:
        m = self._mat(x.coords)
        if np.max(np.abs(m - m.T)) > SPD_SYMMETRY_TOL * max(
            1.0, float(np.max(np.abs(m)))
        ):
            raise GeometryError("matrix is not symmetric")
        w = np.linalg.eigvalsh(self._sym(m))
        if w[0] <= 0.0:
            raise GeometryError(f"matrix is not positive definite (min eig {w[0]!r})")

    def _project_point(self, c: np.ndarray) -> np.ndarray:
        return self._sym(self._mat(c)).ravel()

    def _project_tangent(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self._sym(self._mat(w)).ravel()

    def _validate_tangent(self, x: np.ndarray, w: np.ndarray) -> None:
        m = self._mat(w)
        if np.max(np.abs(m - m.T)) > SPD_SYMMETRY_TOL * max(
            1.0, float(np.max(np.abs(m)))
        ):
            raise GeometryError("tangent matrix is not symmetric")

    def _inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        p = self._mat(x)
        a = np.linalg.solve(p, self._mat(u))
        b = np.linalg.solve(p, self._mat(v))
        return float(np.einsum("ij,ji->", a, b))

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> np.ndarray:
        sq, isq = self._sqrt_pair(self._mat(x.coords))
        w, vecs = np.linalg.eigh(self._sym(isq @ self._mat(v) @ isq))
        # row i of P^1/2 has norm sqrt(P_ii), and expm(S) = V e^w V^T has
        # spectral norm e^max(w), so every entry of expm(S), of P^1/2 expm(S)
        # and of the result, and each partial sum on the way, is at most
        # max(1, max_i P_ii) e^max(w); a NaN exponent fails the test too
        top = max(x.coords[:: self.order + 1].tolist())
        if not w[-1] + max(0.0, math.log(top)) <= _SPD_EXP_MAX_LOG:
            raise GeometryError(
                f"point coordinates from exp leave the float range: "
                f"largest exponent eigenvalue {float(w[-1])!r}, "
                f"largest diagonal entry {top!r}"
            )
        return self._sym(sq @ ((vecs * np.exp(w)) @ vecs.T) @ sq).ravel()

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        sq, isq = self._sqrt_pair(self._mat(x.coords))
        q = self._sym(isq @ self._mat(y.coords) @ isq)
        w, vecs = np.linalg.eigh(q)
        if w[0] <= 0.0:
            raise GeometryError("second argument is not positive definite")
        return self._sym(sq @ ((vecs * np.log(w)) @ vecs.T) @ sq).ravel()

    def _dist(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        _, isq = self._sqrt_pair(self._mat(x.coords))
        q = self._sym(isq @ self._mat(y.coords) @ isq)
        w = np.linalg.eigvalsh(q)
        if w[0] <= 0.0:
            raise GeometryError("second argument is not positive definite")
        return float(np.linalg.norm(np.log(w)))

    def _frame(self, x: ManifoldPoint) -> np.ndarray:
        # U -> P^1/2 U P^1/2 maps T_I isometrically onto T_P; it takes the
        # frame at the identity (the diagonal units, then (E_ij + E_ji)/sqrt 2
        # for i < j) to the symmetrized outer products of rows of P^1/2
        sq, _ = self._sqrt_pair(self._mat(x.coords))
        k = self.order
        pairs = [(i, i) for i in range(k)] + [(i, j) for i in range(k) for j in range(i + 1, k)]
        i, j = np.array(pairs).T
        b = sq[i, :, None] * sq[j, None, :]
        b = np.where(i == j, 0.5, math.sqrt(0.5))[:, None, None] * (b + b.transpose(0, 2, 1))
        return b.reshape(len(b), -1)


@dataclass(frozen=True)
class Product(Manifold):
    """Finite product of Hadamard manifolds with the sum metric.

    Coordinates are the concatenation of factor coordinates; geodesics,
    exponentials, and logarithms act factorwise, and squared distances
    add across factors.  A product of flat factors (:attr:`is_flat`) is
    itself a Euclidean chart: its ``exp``, ``log``, ``dist`` and point
    checks compute on whole coordinate arrays and build no factor
    points, with the factorwise arithmetic bit for bit (``dist`` still
    takes each factor's own distance of its slice).
    """

    factors: tuple[Manifold, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise GeometryError("a product manifold needs at least two factors")

    @cached_property
    def _slices(self) -> tuple[slice, ...]:
        out, start = [], 0
        for f in self.factors:
            out.append(slice(start, start + f.ambient_dim))
            start += f.ambient_dim
        return tuple(out)

    @cached_property
    def ambient_dim(self) -> int:
        return sum(f.ambient_dim for f in self.factors)

    @property
    def manifold_dim(self) -> int:
        return sum(f.manifold_dim for f in self.factors)

    @property
    def tag(self) -> str:
        return "product:(" + ",".join(f.tag for f in self.factors) + ")"

    @cached_property
    def is_flat(self) -> bool:
        return all(f.is_flat for f in self.factors)

    def split_point(self, x: ManifoldPoint) -> tuple[ManifoldPoint, ...]:
        """Factor points of a product point."""
        self._own_point(x)
        return self._parts(x)

    def _parts(self, x: ManifoldPoint) -> tuple[ManifoldPoint, ...]:
        # factor points viewing the coordinates of x; x is immutable, so
        # they are built once and kept with it
        parts = x._parts
        if parts is None:
            parts = tuple(ManifoldPoint(f, x.coords[s]) for f, s in zip(self.factors, self._slices))
            _keep(x, "_parts", parts)
        return parts

    def join_points(self, parts: Sequence[ManifoldPoint]) -> ManifoldPoint:
        """Product point assembled from one point per factor."""
        if len(parts) != len(self.factors):
            raise GeometryError("wrong number of factor points")
        for f, p in zip(self.factors, parts):
            if p.manifold != f:
                raise GeometryError(f"factor point on {p.manifold.tag}, expected {f.tag}")
        return ManifoldPoint(self, _as_coords(np.concatenate([p.coords for p in parts])))

    def _base_coords(self) -> np.ndarray:
        return np.concatenate([f._base_coords() for f in self.factors])

    def _validate_point(self, x: ManifoldPoint) -> None:
        if self.is_flat:  # flat factors check nothing; skip building the parts
            return
        for f, p in zip(self.factors, self._parts(x)):
            f._validate_point(p)

    def _validate_exp_point(self, y: ManifoldPoint) -> None:
        if self.is_flat:
            return
        for f, p in zip(self.factors, self._parts(y)):
            f._validate_exp_point(p)

    def _project_point(self, c: np.ndarray) -> np.ndarray:
        return np.concatenate([f._project_point(c[s]) for f, s in zip(self.factors, self._slices)])

    def _project_tangent(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [f._project_tangent(x[s], w[s]) for f, s in zip(self.factors, self._slices)]
        )

    def _validate_tangent(self, x: np.ndarray, w: np.ndarray) -> None:
        for f, s in zip(self.factors, self._slices):
            f._validate_tangent(x[s], w[s])

    def _inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        return sum(
            f._inner(x[s], u[s], v[s]) for f, s in zip(self.factors, self._slices)
        )

    def norm(self, v: TangentVector) -> float:
        # a Euclidean factor's dot warns where its squares overflow, which
        # entries below 1e150 cannot do; larger ones take it under
        # np.errstate, and the base class then rescales
        if _squares_fit(v.components.tolist()):
            return super().norm(v)
        with np.errstate(over="ignore", invalid="ignore"):
            return super().norm(v)

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> np.ndarray:
        if self.is_flat:
            return _flat_exp(x.coords, v)
        return np.concatenate(
            [f._exp(p, v[s]) for f, p, s in zip(self.factors, self._parts(x), self._slices)]
        )

    def _exp_rows(self, x: ManifoldPoint, v: np.ndarray) -> tuple[np.ndarray, None]:
        if self.is_flat:
            return _flat_exp(x.coords, v), None
        parts = zip(self.factors, self._parts(x), self._slices)
        return np.hstack([f._exp_rows(p, v[:, s])[0] for f, p, s in parts]), None

    def _tangent_rows(
        self, x: ManifoldPoint, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # each row's squared norm is the builtin sum of its factors' norms,
        # as in _inner (Python 3.12 and later compensate that sum)
        rows = [f._tangent_rows(p, directions[:, s])
                for f, p, s in zip(self.factors, self._parts(x), self._slices)]
        n2 = np.array([sum(r) for r in zip(*(n2.tolist() for _, n2 in rows))])
        return np.hstack([w for w, _ in rows]), n2

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        if self.is_flat:
            return _flat_difference(x.coords, y.coords)
        return np.concatenate(
            [f._log(p, q) for f, p, q in zip(self.factors, self._parts(x), self._parts(y))]
        )

    def _dist(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        if self.is_flat:
            return self._flat_dist(_flat_difference(x.coords, y.coords))
        return _root_sum_squares(
            [f._dist(p, q) for f, p, q in zip(self.factors, self._parts(x), self._parts(y))]
        )

    def _flat_dist(self, d: np.ndarray) -> float:
        """Distance between two points of a flat product whose coordinates differ by d."""
        return _root_sum_squares([f._flat_dist(d[s]) for f, s in zip(self.factors, self._slices)])

    def _frame(self, x: ManifoldPoint) -> np.ndarray:
        # the factor frames, each padded with zeros in the other factors
        b = np.zeros((self.manifold_dim, self.ambient_dim))
        row = 0
        for f, p, s in zip(self.factors, self._parts(x), self._slices):
            fb = f._frame(p)
            b[row:row + len(fb), s] = fb
            row += len(fb)
        return b


# -- module-level operation aliases ---------------------------------------


def exp_map(x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
    """Exponential map: follow the geodesic leaving x with velocity v for unit time."""
    return x.manifold.exp(x, v)


def log_map(x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
    """Inverse exponential map: initial velocity of the geodesic from x to y."""
    return x.manifold.log(x, y)


def dist(x: ManifoldPoint, y: ManifoldPoint) -> float:
    """Riemannian distance."""
    return x.manifold.dist(x, y)


def inner(u: TangentVector, v: TangentVector) -> float:
    """Riemannian inner product of two tangent vectors at a shared base point."""
    return u.base.manifold.inner(u, v)


def norm(v: TangentVector) -> float:
    """Riemannian norm of a tangent vector."""
    return v.base.manifold.norm(v)


def geodesic_point(x: ManifoldPoint, y: ManifoldPoint, t: float) -> ManifoldPoint:
    """Constant-speed geodesic interpolation between x (t=0) and y (t=1)."""
    return x.manifold.geodesic(x, y, t)


def zero_vector(x: ManifoldPoint) -> TangentVector:
    """The zero tangent vector at x."""
    return x.manifold.zero_vector(x)


@dataclass(frozen=True)
class GeodesicTriangleReport:
    """A geodesic triangle, its planar comparison triangle, and CAT(0) residuals.

    ``side_lengths`` holds ``(d(p1,p2), d(p2,p3), d(p3,p1))``.
    ``comparison_vertices`` is a 3x2 array of planar points realizing the
    same side lengths.  ``cosine_law_residuals[i]`` is the vertex-``i``
    gap between the manifold and planar inner products of the two side
    vectors, which is nonnegative on spaces of nonpositive curvature.
    """

    vertices: tuple[ManifoldPoint, ManifoldPoint, ManifoldPoint]
    side_lengths: np.ndarray
    comparison_vertices: np.ndarray
    cosine_law_residuals: np.ndarray


def comparison_triangle(
    x1: ManifoldPoint, x2: ManifoldPoint, x3: ManifoldPoint
) -> GeodesicTriangleReport:
    """Build the planar comparison triangle and the per-vertex residuals.

    The residual at vertex ``p`` for neighbors ``q, r`` is

        <log_p q, log_p r>  -  <q_bar - p_bar, r_bar - p_bar>

    which the comparison inequality makes nonnegative (up to float
    noise) on Hadamard manifolds, with equality in flat space and for
    degenerate triangles.
    """
    m = x1.manifold
    _check_same_manifold(x1, x2)
    _check_same_manifold(x1, x3)
    pts = (x1, x2, x3)
    l01 = m.dist(x1, x2)
    l12 = m.dist(x2, x3)
    l20 = m.dist(x3, x1)
    for l in (l01, l12, l20):
        if not math.isfinite(l):
            raise GeometryError("non-finite side length in geodesic triangle")

    tiny = DEGENERATE_SIDE_TOL
    p1 = np.array([0.0, 0.0])
    p2 = np.array([l01, 0.0])
    if l01 <= tiny:
        p3 = np.array([l20, 0.0])
    else:
        xi = (l01 * l01 + l20 * l20 - l12 * l12) / (2.0 * l01)
        eta2 = l20 * l20 - xi * xi
        p3 = np.array([xi, math.sqrt(eta2) if eta2 > 0.0 else 0.0])
    planar = np.vstack([p1, p2, p3])

    residuals = np.zeros(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        man_ip = m.inner(m.log(pts[i], pts[j]), m.log(pts[i], pts[k]))
        flat_ip = float((planar[j] - planar[i]) @ (planar[k] - planar[i]))
        residuals[i] = man_ip - flat_ip

    side_lengths = np.array([l01, l12, l20])
    side_lengths.setflags(write=False)
    planar.setflags(write=False)
    residuals.setflags(write=False)
    return GeodesicTriangleReport(pts, side_lengths, planar, residuals)

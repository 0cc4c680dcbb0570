"""Monotone vector fields and their resolvents.

A vector field assigns to each point a finite (possibly empty) set of
tangent vectors at that point.  For a monotone field ``A`` and a step
``lam > 0``, the resolvent ``J`` sends ``x`` to the unique ``z``
satisfying

    log_z(x) = lam * a(z)    for some a(z) in A(z),

the geodesic analogue of ``(I + lam A)^-1``.  A field that knows its
resolvent in closed form (linear on flat space, gradients of squared
distances) returns it from ``_closed_form``.  On a flat chart of at most
32 coordinates every other field goes to a damped Newton iteration
first; elsewhere, or where Newton finds no descent step, a geometric
fixed-point iteration runs, whose fixed points are exactly the solutions
of the resolvent equation.  Its step length is the two-point
(Barzilai-Borwein) estimate read from the last step taken, guarded by
monotone backtracking on the residual.  Each residual norm is computed
once: a field value that is the only one at its point needs no
minimum-norm choice, and Newton's defect norms are ``np.linalg.norm``'s
arithmetic without its dispatch.

Verification helpers check monotonicity, firm nonexpansiveness, the
fixed-point inequality satisfied by firmly nonexpansive maps, and
resolvent continuity in the step and the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .manifold import (
    Euclidean,
    GeometryError,
    Manifold,
    ManifoldPoint,
    TangentVector,
    _all_finite,
    _euclidean_norm,
    _frozen,
    _require_finite,
    attached,
    dist,
    exp_map,
    geodesic_point,
    inner,
    log_map,
    norm,
)

__all__ = [
    "FieldError",
    "DomainError",
    "ResolventNonconvergence",
    "VectorField",
    "LinearField",
    "DistanceGradientField",
    "anti_monotone_field",
    "ResolventConfig",
    "resolvent",
    "resolvent_with_residual",
    "resolvent_residual",
    "MonotonicityReport",
    "check_monotone",
    "monotonicity_slack",
    "FirmNonexpansivenessReport",
    "check_firmly_nonexpansive",
    "firmly_nonexpansive_inequality",
    "ContinuityReport",
    "resolvent_continuity_probe",
]

MONOTONE_SLACK_TOL = 1e-9


class FieldError(RuntimeError):
    """Base error for vector-field evaluation and resolvent computation."""


class DomainError(FieldError):
    """The field has no value at a point the solver needs."""


class ResolventNonconvergence(FieldError):
    """Inner solver exhausted its budget before meeting the tolerance."""

    def __init__(self, message: str, last_residual: float, iterations: int):
        super().__init__(f"{message} (last residual {last_residual:.3e}, {iterations} iterations)")
        self.last_residual = last_residual
        self.iterations = iterations


class VectorField:
    """A possibly multivalued assignment ``x -> A(x)`` of tangent vectors.

    One method picks its resolvent: :meth:`_closed_form` returns the
    resolvent point where the field knows it in closed form
    (:class:`LinearField`, :class:`DistanceGradientField`), and None,
    the default, sends the resolvent to the generic inner solver.

    Parameters
    ----------
    manifold:
        The manifold the field lives on.
    evaluator:
        Callable mapping a point to an iterable of tangent vectors based
        at that point.  An empty iterable means the point is outside the
        field's domain.
    known_zeros:
        Optional points known to satisfy ``0 in A(z)``; used by
        fixed-point checks and problem registries.
    """

    def __init__(
        self,
        manifold: Manifold,
        evaluator: Callable[[ManifoldPoint], Sequence[TangentVector]],
        *,
        name: str = "generic",
        single_valued: bool = False,
        known_zeros: Sequence[ManifoldPoint] = (),
    ):
        self.manifold = manifold
        self._evaluator = evaluator
        self.name = name
        self.single_valued = single_valued
        self.known_zeros = tuple(known_zeros)

    def evaluate(self, x: ManifoldPoint) -> tuple[TangentVector, ...]:
        """All field values at x, validated to be finite tangents based at x."""
        if x.manifold is not self.manifold and x.manifold != self.manifold:
            raise GeometryError(
                f"field on {self.manifold.tag} evaluated at point on {x.manifold.tag}"
            )
        values = tuple(self._evaluator(x))
        for v in values:
            if not _all_finite(v.components):
                raise FieldError(f"field {self.name} produced a non-finite value at {x!r}")
            if not attached(v, x):
                raise FieldError(f"field {self.name} returned a vector at the wrong base point")
        return values

    def selection(self, x: ManifoldPoint) -> TangentVector:
        """Minimum-norm element of A(x); the deterministic selection rule."""
        values = self.evaluate(x)
        if not values:
            raise DomainError(f"field {self.name} is empty at {x!r}")
        if len(values) == 1:
            return values[0]
        return min(values, key=norm)

    def _closed_form(self, lam: float, x: ManifoldPoint) -> ManifoldPoint | None:
        """The resolvent ``J_lam(x)`` in closed form, or None to solve for it."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorField({self.name!r}, on {self.manifold.tag})"


class LinearField(VectorField):
    """``A(x) = M x`` on flat space; monotone iff the symmetric part of M is PSD.

    Its resolvent solves ``(I + lam M) z = x``.  M is a read-only copy, so
    the matrix kept for the last lam cannot go stale.
    """

    #: ``(lam, I + lam M)`` of the last resolvent; a run holds lam fixed
    _shifted = None

    def __init__(self, manifold: Euclidean, matrix, *, name: str = "linear"):
        if not isinstance(manifold, Euclidean):
            raise GeometryError("linear fields are only defined on Euclidean instances")
        m = _frozen(np.array(matrix, dtype=float))
        if m.shape != (manifold.dim, manifold.dim):
            raise GeometryError(f"matrix shape {m.shape} does not match {manifold.tag}")
        self.matrix = m
        zero = manifold.base_point()
        super().__init__(
            manifold,
            lambda x: (TangentVector(x, np.asarray(m @ x.coords)),),
            name=name,
            single_valued=True,
            known_zeros=(zero,) if _nonsingular(m) else (),
        )

    def _closed_form(self, lam: float, x: ManifoldPoint) -> ManifoldPoint:
        memo = self._shifted
        if memo is None or memo[0] != lam:
            memo = (lam, np.eye(self.manifold.ambient_dim) + lam * self.matrix)
            self._shifted = memo
        return self.manifold.point(np.linalg.solve(memo[1], x.coords))


def _nonsingular(m: np.ndarray) -> bool:
    return np.linalg.matrix_rank(m) == m.shape[0]


class DistanceGradientField(VectorField):
    """Gradient field of ``weight * d(., anchor)^2 / 2``.

    On a Hadamard manifold this gradient is ``-weight * log_x(anchor)``,
    a single-valued maximal monotone field whose only zero is the anchor.
    Its resolvent is the point ``lam*w / (1 + lam*w)`` of the way along
    the geodesic from x to the anchor.
    """

    def __init__(self, anchor: ManifoldPoint, weight: float = 1.0, *, name: str = ""):
        if weight <= 0.0:
            raise ValueError("distance-gradient weight must be positive")
        self.anchor = anchor
        self.weight = float(weight)
        super().__init__(
            anchor.manifold,
            lambda x: (self.weight * -log_map(x, self.anchor),),
            name=name or "distance_gradient",
            single_valued=True,
            known_zeros=(anchor,),
        )

    def _closed_form(self, lam: float, x: ManifoldPoint) -> ManifoldPoint:
        return geodesic_point(x, self.anchor, lam * self.weight / (1.0 + lam * self.weight))


def anti_monotone_field(manifold: Euclidean) -> LinearField:
    """Negative-control fixture ``A(x) = -x``; intentionally not monotone."""
    f = LinearField(manifold, -np.eye(manifold.dim), name="anti_monotone_fixture")
    f.known_zeros = ()
    return f


@dataclass(frozen=True)
class ResolventConfig:
    """Step size and inner-solver budget for resolvent evaluation."""

    lam: float = 1.0
    inner_tol: float = 1e-10
    inner_max_iter: int = 500

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < math.inf:
            raise ValueError("resolvent step lam must be positive and finite")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        if self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be >= 1")


#: first trial step of the fixed-point iteration, scaled by 1/(1+lam);
#: later steps are the two-point estimate
_DAMPING = 0.5


def resolvent_residual(
    field: VectorField, lam: float, x: ManifoldPoint, z: ManifoldPoint
) -> float:
    """Norm of the resolvent equation defect at a candidate solution z.

    Takes the best available selection from A(z), which coincides with
    the minimum-norm selection wherever the field is single-valued.
    """
    return norm(_residual_vector(field, lam, x, z))


def _residual_vector(
    field: VectorField, lam: float, x: ManifoldPoint, z: ManifoldPoint
) -> TangentVector:
    """The defect ``log_z(x) - lam * a`` of least norm over the values a in A(z).

    A single value's defect is returned as it is, so a caller that needs
    its norm computes that norm once.
    """
    values = field.evaluate(z)
    if not values:
        raise DomainError(f"field {field.name} is empty at {z!r}")
    target = log_map(z, x)
    if len(values) == 1:
        return target - lam * values[0]
    return min((target - lam * a for a in values), key=norm)


def resolvent_with_residual(
    field: VectorField,
    cfg: ResolventConfig,
    x: ManifoldPoint,
    *,
    initial: ManifoldPoint | None = None,
) -> tuple[ManifoldPoint, float]:
    """Resolvent of a monotone field, plus the residual norm it achieved.

    A field that knows its resolvent in closed form returns it from
    :meth:`VectorField._closed_form`.  On a flat chart of at most 32
    coordinates every other field goes to a damped Newton iteration
    first; where Newton finds no step, and off flat charts, the
    fixed-point iteration runs:

        z_{k+1} = exp_{z_k}( eta_k * r_k ),   r_k = log_{z_k} x - lam * a(z_k)

    with ``a`` the minimum-norm selection, starting from ``initial``
    (default: x).  The first trial step is ``eta = 0.5 / (1 + lam)``;
    after each accepted step ``s = eta_k * r_k`` the next is the
    two-point estimate ``<s, s> / -<s, r_{k+1} - r_k>`` on ambient
    components, clamped to ``[1e-6, 1]``, or ``1.5 * eta_k`` (at most 1)
    when that denominator is not positive.  A trial is accepted only if
    it lowers the residual norm; otherwise the step halves.  A trial
    whose ``exp`` or residual raises :class:`GeometryError`, or whose
    residual leaves the float range, is rejected the same way, and no
    numpy warning escapes either solver.
    """
    z, residual, _ = _solve(field, cfg, x, initial)
    return z, residual


def _solve(
    field: VectorField, cfg: ResolventConfig, x: ManifoldPoint, initial: ManifoldPoint | None = None
) -> tuple[ManifoldPoint, float, int]:
    """:func:`resolvent_with_residual` plus the inner steps run (0 in closed form)."""
    if x.manifold is not field.manifold and x.manifold != field.manifold:
        raise GeometryError("query point is not on the field's manifold")

    z = field._closed_form(cfg.lam, x)
    if z is not None:
        return z, resolvent_residual(field, cfg.lam, x, z), 0
    z0 = initial if initial is not None else x
    if field.manifold.is_flat and field.manifold.ambient_dim <= 32:
        result = _newton_resolvent_flat(field, cfg, x, z0)
        if result is not None:
            return result
    # a residual or a two-point step past the float range is inf or NaN
    # here, which the backtracking rejects, rather than a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _iterate_resolvent(field, cfg, x, z0)


def resolvent(
    field: VectorField,
    cfg: ResolventConfig,
    x: ManifoldPoint,
    *,
    initial: ManifoldPoint | None = None,
) -> ManifoldPoint:
    """Resolvent ``J(x)``: the unique z with ``log_z(x) = lam * a(z)``."""
    z, _ = resolvent_with_residual(field, cfg, x, initial=initial)
    return z


def _newton_resolvent_flat(
    field: VectorField, cfg: ResolventConfig, x: ManifoldPoint, z0: ManifoldPoint
) -> tuple[ManifoldPoint, float, int] | None:
    """Damped Newton on ``z - x + lam*a(z) = 0`` for flat charts.

    Shares its fixed points with the geometric iteration but
    converges quadratically, which matters for skew monotone fields
    (e.g. saddle fields) whose forward iterations stall at large lam.
    Returns None to fall back when a Jacobian is singular or cannot be
    formed (a stencil point past the float range) or no descent step
    exists (kinks of multivalued fields).  A trial point or defect past
    the float range is a rejected trial; a start whose defect is past it
    stalls, since no step can be formed from that defect.
    """
    man = field.manifold
    dim = man.ambient_dim
    x_list = x.coords.tolist()
    lam = cfg.lam

    def defect(coords: np.ndarray) -> np.ndarray:
        # what man.point checks of a flat point, without its copy: every
        # coords array here is fresh and never written again
        _require_finite(coords, "point coordinates")
        a = field.selection(ManifoldPoint(man, _frozen(coords)))
        # z - x + lam*a on Python floats: the IEEE operations of the array
        # expression, but a value past the float range becomes inf, which
        # the norm then reports, without a numpy overflow warning
        return np.array(
            [c - xc + lam * ac for c, xc, ac in zip(coords.tolist(), x_list, a.components.tolist())]
        )

    z = np.array(z0.coords, dtype=float)
    fz = defect(z)
    rn = _euclidean_norm(fz)
    if not rn < math.inf:
        raise ResolventNonconvergence(
            f"resolvent of {field.name} stalled", last_residual=rn, iterations=0
        )
    for k in range(cfg.inner_max_iter):
        if rn <= cfg.inner_tol:
            return man.point(z), rn, k
        jac = np.empty((dim, dim))
        z_list = z.tolist()
        for i in range(dim):
            h = 1e-7 * max(1.0, abs(z_list[i]))
            zp = z.copy()
            # on Python floats, as in defect: a stencil point past the
            # float range is inf, which defect rejects
            zp[i] = z_list[i] + h
            try:
                jac[:, i] = (defect(zp) - fz) / h
            except GeometryError:
                return None
        try:
            step = np.linalg.solve(jac, -fz)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        while t > 1e-12:
            # z + t*step on Python floats, as in defect
            z_new = np.array([zi + t * si for zi, si in zip(z.tolist(), step.tolist())])
            try:
                f_new = defect(z_new)
                rn_new = _euclidean_norm(f_new)
            except GeometryError:
                rn_new = math.inf
            if rn_new < rn:
                break
            t *= 0.5
        else:
            return None
        z, fz, rn = z_new, f_new, rn_new
    raise ResolventNonconvergence(
        f"resolvent of {field.name} did not converge",
        last_residual=rn,
        iterations=cfg.inner_max_iter,
    )


def _iterate_resolvent(
    field: VectorField, cfg: ResolventConfig, x: ManifoldPoint, z0: ManifoldPoint
) -> tuple[ManifoldPoint, float, int]:
    z = z0
    r = _residual_vector(field, cfg.lam, x, z)
    rn = norm(r)
    # scale the first step by 1/(1+lam): near-optimal for unit-curvature
    # gradient fields; the two-point step and the backtracking below do the rest
    eta = _DAMPING / (1.0 + cfg.lam)
    for k in range(cfg.inner_max_iter):
        if rn <= cfg.inner_tol:
            return z, rn, k
        accepted = False
        for _ in range(60):
            try:
                z_new = exp_map(z, eta * r)
                r_new = _residual_vector(field, cfg.lam, x, z_new)
                rn_new = norm(r_new)
            except GeometryError:
                # a trial past the float range of the chart is a rejected trial
                rn_new = math.inf
            if rn_new < rn:
                accepted = True
                break
            eta *= 0.5
            if eta < 1e-18:
                break
        if not accepted:
            raise ResolventNonconvergence(
                f"resolvent of {field.name} stalled", last_residual=rn, iterations=k
            )
        # two-point (Barzilai-Borwein) step, clamped to [1e-6, 1], from the
        # step s = eta*r just taken and the change of residual, on ambient
        # components; a NaN estimate falls to the clamp's lower end
        s = eta * r.components
        dr = r_new.components - r.components
        ss, sy = float(s @ s), -float(s @ dr)
        if not (math.isfinite(ss) and math.isfinite(sy)):
            # the dots overflow near the float maximum; their ratio is the
            # same for s and dr scaled by one power of two, which is exact
            e = -math.frexp(float(np.max(np.abs(s))))[1]
            s, dr = np.ldexp(s, e), np.ldexp(dr, e)
            ss, sy = float(s @ s), -float(s @ dr)
        if sy > 0.0:
            eta = min(1.0, max(1e-6, ss / sy))
        else:
            eta = min(1.5 * eta, 1.0)
        z, r, rn = z_new, r_new, rn_new
    if rn <= cfg.inner_tol:
        return z, rn, cfg.inner_max_iter
    raise ResolventNonconvergence(
        f"resolvent of {field.name} did not converge",
        last_residual=rn,
        iterations=cfg.inner_max_iter,
    )


# -- verification -----------------------------------------------------------


def monotonicity_slack(
    x: ManifoldPoint, y: ManifoldPoint, u: TangentVector, v: TangentVector
) -> float:
    """Slack of the monotonicity inequality for values u at x and v at y.

    Nonnegative for every selection pair of a monotone field:

        <v, -log_y x> - <u, log_x y> >= 0.
    """
    return inner(v, -log_map(y, x)) - inner(u, log_map(x, y))


@dataclass(frozen=True)
class MonotonicityReport:
    min_slack: float
    n_pairs: int
    passed: bool
    witness: tuple[ManifoldPoint, ManifoldPoint, TangentVector, TangentVector] | None

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"monotonicity {verdict}: min slack {self.min_slack:.3e} over {self.n_pairs} pairs"


def check_monotone(
    field: VectorField,
    samples: Sequence[tuple[ManifoldPoint, ManifoldPoint]],
) -> MonotonicityReport:
    """Spot-check monotonicity over sample point pairs.

    Evaluates the slack for every value pair ``(u, v)`` in
    ``A(x) x A(y)`` and reports the minimum; PASS means no slack fell
    below ``-MONOTONE_SLACK_TOL``.  Sampling can only refute
    monotonicity, never prove it.
    """
    min_slack = math.inf
    witness = None
    count = 0
    for x, y in samples:
        us = field.evaluate(x)
        vs = field.evaluate(y)
        if not us or not vs:
            continue
        count += 1
        for u in us:
            for v in vs:
                slack = monotonicity_slack(x, y, u, v)
                if slack < min_slack:
                    min_slack, witness = slack, (x, y, u, v)
    if count == 0:
        raise DomainError("no sample pair lies inside the field's domain")
    return MonotonicityReport(min_slack, count, min_slack >= -MONOTONE_SLACK_TOL, witness)


@dataclass(frozen=True)
class FirmNonexpansivenessReport:
    phi: np.ndarray
    grid: np.ndarray
    max_increase: float
    endpoint_gap: float  # phi(1) - phi(0); <= 0 for nonexpansive maps
    passed: bool

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"firm nonexpansiveness {verdict}: max increase {self.max_increase:.3e}, "
            f"phi(1)-phi(0) = {self.endpoint_gap:.3e}"
        )


def check_firmly_nonexpansive(
    mapping: Callable[[ManifoldPoint], ManifoldPoint],
    x: ManifoldPoint,
    y: ManifoldPoint,
    grid: Sequence[float] = tuple(np.linspace(0.0, 1.0, 11)),
) -> FirmNonexpansivenessReport:
    """Check that the interpolated displacement distance is nonincreasing.

    For ``phi(t) = d(gamma_x(t), gamma_y(t))`` with ``gamma_x`` the
    geodesic from x to ``T(x)`` and likewise for y, a firmly
    nonexpansive map T makes phi nonincreasing on [0, 1]; in particular
    ``d(Tx, Ty) = phi(1) <= phi(0) = d(x, y)``.
    """
    ts = np.asarray(sorted(float(t) for t in grid))
    if ts.size < 2 or ts[0] != 0.0 or ts[-1] != 1.0:
        raise ValueError("grid must contain at least t=0 and t=1")
    tx, ty = mapping(x), mapping(y)
    phi = np.array(
        [dist(geodesic_point(x, tx, t), geodesic_point(y, ty, t)) for t in ts]
    )
    increments = np.diff(phi)
    max_increase = float(increments.max()) if increments.size else 0.0
    endpoint_gap = float(phi[-1] - phi[0])
    passed = max_increase <= MONOTONE_SLACK_TOL and endpoint_gap <= MONOTONE_SLACK_TOL
    phi.setflags(write=False)
    ts.setflags(write=False)
    return FirmNonexpansivenessReport(phi, ts, max_increase, endpoint_gap, passed)


#: largest drift ``d(T x*, x*)`` accepted for a claimed fixed point
_FIXED_POINT_TOL = 1e-9


def firmly_nonexpansive_inequality(
    mapping: Callable[[ManifoldPoint], ManifoldPoint],
    fixed_point: ManifoldPoint,
    y: ManifoldPoint,
) -> float:
    """Inner product ``<log_{Ty} x*, log_{Ty} y>`` at a fixed point x*.

    Firmly nonexpansive maps make this nonpositive for every y.  Raises
    if the supplied point does not satisfy its fixed-point equation.
    """
    drift = dist(mapping(fixed_point), fixed_point)
    if drift > _FIXED_POINT_TOL:
        raise ValueError(f"claimed fixed point moves by {drift:.3e} > {_FIXED_POINT_TOL:.1e}")
    ty = mapping(y)
    return inner(log_map(ty, fixed_point), log_map(ty, y))


@dataclass(frozen=True)
class ContinuityReport:
    gaps: np.ndarray
    final_gap: float
    passed: bool

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"resolvent continuity {verdict}: final gap {self.final_gap:.3e}"


#: largest final gap the continuity probe accepts
_CONTINUITY_TOL = 1e-6


def resolvent_continuity_probe(
    field: VectorField,
    lam_seq: Sequence[float],
    point_seq: Sequence[ManifoldPoint],
    lam_limit: float,
    x_limit: ManifoldPoint,
) -> ContinuityReport:
    """Check ``J_{lam_n}(x_n) -> J_lam(x)`` along explicit convergent inputs."""
    if len(lam_seq) != len(point_seq) or len(lam_seq) == 0:
        raise ValueError("lam_seq and point_seq must be equal-length and nonempty")
    limit = resolvent(field, ResolventConfig(lam=lam_limit), x_limit)
    gaps = np.array(
        [
            dist(resolvent(field, ResolventConfig(lam=lam), x), limit)
            for lam, x in zip(lam_seq, point_seq)
        ]
    )
    gaps.setflags(write=False)
    return ContinuityReport(gaps, float(gaps[-1]), bool(gaps[-1] <= _CONTINUITY_TOL))


"""Equilibrium bifunctions and their regularized resolvents.

A bifunction ``F(x, y)`` with ``F(x, x) = 0`` defines the equilibrium
problem of finding ``x*`` with ``F(x*, y) >= 0`` for all y.  Its
resolvent with parameter ``r > 0`` maps x to the unique z satisfying
the regularized variational inequality

    F(z, y) - (1/r) <log_z x, log_z y> >= 0   for all y,

a single-valued, firmly nonexpansive map whose fixed points are exactly
the equilibrium points.

One datum picks the resolvent method: the bifunction's
``gradient_field``.  When it is set, the resolvent is the vector-field
resolvent of that field with step r.  The two constructors that set it
are

* ``convex_difference``: ``F(x,y) = g(y) - g(x)`` for geodesically
  convex g; the resolvent is the proximal map of ``r*g``.
* ``field_induced``: ``F(x,y) = <V(x), log_x y>`` for a single-valued
  monotone V; the resolvent solves ``log_z x = r V(z)``.

A bifunction without a field goes through the same machinery.  When
``y -> F(z, y)`` is geodesically convex, z solves the regularized
inequality exactly when ``log_z x = r G(z)`` for the diagonal gradient
``G(z) = grad_y F(z, y)|_{y=z}``: one direction is the subgradient
inequality (``F(z, z) = 0``), the other first-order optimality at
``y = z``.  So the resolvent is the field resolvent of G, read off the
oracle by central differences, and one solver runs per resolvent.  Its
output is then certified on one probe set, the guard against oracles
that break the convexity assumption: the bifunction's anchors plus 64
probes sampled at radius 0.1.  A sampled probe ``y = exp_z(v)`` carries
its tangent v, so the certificate reads ``<log_z x, v>`` without a
logarithm and costs one oracle call per probe beyond one batched
:meth:`~hsplit.manifold.Manifold.exp_sphere`.  Such a bifunction needs
at least one anchor.

Both kinds share one config type: :func:`resolvent_T` takes the
:class:`fields.ResolventConfig` of a field resolvent, reads its ``lam``
as r, and returns the pair ``(z, residual)`` of that one solve.  Its
``seed`` keyword seeds the certificate's probe draw.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import fields
from .manifold import (
    GeometryError,
    Manifold,
    ManifoldPoint,
    TangentVector,
    exp_map,
    inner,
    log_map,
)

__all__ = [
    "EquilibriumError",
    "Bifunction",
    "convex_difference",
    "field_induced",
    "generic_bifunction",
    "resolvent_T",
    "equilibrium_residual",
    "AssumptionReport",
    "check_assumptions",
]


class EquilibriumError(fields.FieldError):
    """Errors in bifunction evaluation or resolvent computation.

    A subclass of :class:`fields.FieldError`, so a splitting run ends
    with a recorded ``resolvent_failure`` instead of raising.
    """


#: central-difference step of the diagonal gradient of a raw oracle
_FD_STEP = 1e-5


class Bifunction:
    """An equilibrium bifunction ``F: M x M -> R``.

    The resolvent (:func:`resolvent_T`) is the field resolvent of
    :attr:`resolvent_field`: ``gradient_field`` when it is set, else the
    diagonal gradient of the oracle.  It returns the point and the
    residual of that one solve.  Without ``gradient_field`` the point is
    certified on the ``anchors`` plus 64 sampled probes, so at least one
    anchor is needed.
    """

    def __init__(
        self,
        manifold: Manifold,
        evaluator: Callable[[ManifoldPoint, ManifoldPoint], float],
        *,
        name: str = "generic",
        gradient_field: fields.VectorField | None = None,
        known_equilibria: Sequence[ManifoldPoint] = (),
        anchors: Sequence[ManifoldPoint] = (),
    ):
        self.manifold = manifold
        self._evaluator = evaluator
        self.name = name
        self.gradient_field = gradient_field
        self.known_equilibria = tuple(known_equilibria)
        self.anchors = tuple(anchors)

    def eval(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        """Evaluate F(x, y); finite by contract, zero on the diagonal."""
        m = self.manifold
        if (x.manifold is not m and x.manifold != m) or (y.manifold is not m and y.manifold != m):
            raise GeometryError(f"bifunction {self.name} evaluated off its manifold")
        value = float(self._evaluator(x, y))
        if not math.isfinite(value):
            raise EquilibriumError(f"bifunction {self.name} returned non-finite value")
        return value

    @property
    def resolvent_field(self) -> fields.VectorField:
        """The field whose resolvent with step r is this bifunction's resolvent.

        ``gradient_field`` when set, else the diagonal gradient
        ``z -> grad_y F(z, y)|_{y=z}`` by central differences of the oracle.
        """
        if self.gradient_field is not None:
            return self.gradient_field
        return fields.VectorField(
            self.manifold, self._diagonal_gradient, name=f"{self.name}_diagonal",
            single_valued=True,
        )

    def _diagonal_gradient(self, z: ManifoldPoint) -> tuple[TangentVector]:
        """Central differences of ``t -> F(z, exp_z(t b))`` per basis vector b."""
        grad = np.zeros(z.manifold.ambient_dim)
        for b in z.manifold.tangent_basis(z):
            fwd = self.eval(z, exp_map(z, _FD_STEP * b))
            bwd = self.eval(z, exp_map(z, -_FD_STEP * b))
            grad += ((fwd - bwd) / (2.0 * _FD_STEP)) * b.components
        return (z.manifold.tangent(z, grad, project=True),)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bifunction({self.name!r}, on {self.manifold.tag})"


def convex_difference(
    manifold: Manifold,
    objective: Callable[[ManifoldPoint], float],
    gradient_field: fields.VectorField,
    *,
    name: str = "convex_difference",
    known_equilibria: Sequence[ManifoldPoint] = (),
) -> Bifunction:
    """Bifunction ``F(x,y) = g(y) - g(x)`` for a registered convex g.

    ``gradient_field`` must be (a selection of) the subdifferential of
    g; the resolvent then reduces to the proximal map of ``r*g``, i.e.
    the vector field resolvent with step r.
    """
    equilibria = tuple(known_equilibria) or gradient_field.known_zeros
    return Bifunction(
        manifold,
        lambda x, y: objective(y) - objective(x),
        name=name,
        gradient_field=gradient_field,
        known_equilibria=equilibria,
    )


def field_induced(
    field: fields.VectorField, *, name: str = "field_induced"
) -> Bifunction:
    """Bifunction ``F(x,y) = <V(x), log_x y>`` of a single-valued monotone V."""
    if not field.single_valued:
        raise EquilibriumError("field-induced bifunctions require a single-valued field")

    def _eval(x: ManifoldPoint, y: ManifoldPoint) -> float:
        (v,) = field.evaluate(x)
        return inner(v, log_map(x, y))

    return Bifunction(
        field.manifold,
        _eval,
        name=name,
        gradient_field=field,
        known_equilibria=field.known_zeros,
    )


def generic_bifunction(
    manifold: Manifold,
    evaluator: Callable[[ManifoldPoint, ManifoldPoint], float],
    *,
    name: str = "generic",
    anchors: Sequence[ManifoldPoint] = (),
    known_equilibria: Sequence[ManifoldPoint] = (),
) -> Bifunction:
    """Wrap a raw ``(x, y) -> R`` oracle with no structure information.

    The resolvent of a generic bifunction certifies its output on the
    ``anchors`` plus 64 sampled probes, so at least one anchor must be
    supplied.
    """
    return Bifunction(
        manifold,
        evaluator,
        name=name,
        anchors=anchors,
        known_equilibria=known_equilibria,
    )


def equilibrium_residual(
    bifun: Bifunction,
    z: ManifoldPoint,
    probes: Sequence[ManifoldPoint],
    *,
    x: ManifoldPoint | None = None,
    r: float = 1.0,
    sampled: Sequence[tuple[TangentVector, ManifoldPoint]] = (),
) -> float:
    """Worst violation of the (regularized) variational inequality at z.

    With ``x`` given, evaluates ``min_y F(z,y) - (1/r)<log_z x, log_z y>``
    over the probe points y; without it, plain ``min_y F(z,y)``.
    ``sampled`` adds probes as pairs ``(v, y)`` with ``y = exp_z(v)``,
    whose term reads ``<log_z x, v>``: the tangent is carried, not
    recovered by a logarithm.  Nonnegative (up to solver tolerance) when
    z solves the respective problem; only the probed directions are
    certified.
    """
    if not probes and not sampled:
        raise EquilibriumError("no probe directions supplied")
    worst = math.inf
    log_zx = log_map(z, x) if x is not None else None
    for v, y in itertools.chain(((None, y) for y in probes), sampled):
        val = bifun.eval(z, y)
        if log_zx is not None:
            val -= inner(log_zx, log_map(z, y) if v is None else v) / r
        worst = min(worst, val)
    return worst


#: number of sampled certificate directions
_CERT_DIRECTIONS = 64
#: geodesic radius of sampled certificate probes
_CERT_RADIUS = 0.1


@functools.lru_cache(maxsize=32)
def _certificate_normals(seed: int, ambient_dim: int) -> np.ndarray:
    # the generator is reseeded on every certificate, so its draws never
    # change; one block equals the old per-probe draws bit for bit
    normals = np.random.default_rng(seed).standard_normal((_CERT_DIRECTIONS, ambient_dim))
    normals.setflags(write=False)
    return normals


def _certificate_probes(
    bifun: Bifunction, z: ManifoldPoint, seed: int
) -> tuple[tuple[ManifoldPoint, ...], list[tuple[TangentVector, ManifoldPoint]]]:
    """The anchors, and the 64 sampled ``(v, exp_z v)`` pairs at radius 0.1."""
    normals = _certificate_normals(seed, z.manifold.ambient_dim)
    return bifun.anchors, z.manifold.exp_sphere(z, normals, _CERT_RADIUS)


def resolvent_T(
    bifun: Bifunction, cfg: fields.ResolventConfig, x: ManifoldPoint, *, seed: int = 0
) -> tuple[ManifoldPoint, float]:
    """Resolvent of an equilibrium bifunction at x, with its residual.

    One solve of the field resolvent of ``bifun.resolvent_field`` with
    step ``r = cfg.lam``; returns the point and the resolvent residual
    the solver reached.  Without a ``gradient_field`` that field is the
    oracle's diagonal gradient, and the result must then pass the
    regularized variational inequality on the anchors plus 64 probes
    sampled at radius 0.1 from the generator seeded with ``seed``; a
    failure raises :class:`fields.ResolventNonconvergence` with the
    steps run.  Such a bifunction without anchors is refused.
    """
    raw = bifun.gradient_field is None
    if raw and not bifun.anchors:
        raise EquilibriumError(f"generic bifunction {bifun.name} needs at least one anchor")
    z, residual, steps = fields._solve(bifun.resolvent_field, cfg, x)
    if raw:
        probes, sampled = _certificate_probes(bifun, z, seed)
        margin = equilibrium_residual(bifun, z, probes, x=x, r=cfg.lam, sampled=sampled)
        if margin < -cfg.inner_tol:
            raise fields.ResolventNonconvergence(
                f"equilibrium resolvent of {bifun.name} failed its certificate",
                last_residual=-margin,
                iterations=steps,
            )
    return z, residual


@dataclass(frozen=True)
class AssumptionReport:
    """Numeric checks of the equilibrium assumptions on sampled data.

    Diagonal vanishing and monotonicity are checked directly; geodesic
    convexity of ``y -> F(x, y)`` is checked along sampled geodesics on
    a grid.  Semicontinuity and coercivity are not falsifiable by finite
    sampling and stay declared-only.
    """

    diagonal_max_abs: float
    monotonicity_max_sum: float
    convexity_max_violation: float
    declared_only: tuple[str, ...]
    passed: bool

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"assumptions {verdict}: |F(x,x)| <= {self.diagonal_max_abs:.3e}, "
            f"max F(x,y)+F(y,x) = {self.monotonicity_max_sum:.3e}, "
            f"max convexity violation = {self.convexity_max_violation:.3e} "
            f"(declared only: {', '.join(self.declared_only)})"
        )


#: geodesic grid of the convexity spot checks, endpoints included
_CONVEXITY_GRID = 21
#: largest |F(x, x)| the diagonal check accepts
_DIAGONAL_TOL = 1e-12
#: largest convexity gap the convexity check accepts
_CONVEXITY_TOL = 1e-9


def _worst_convexity_gap(
    value: Callable[[ManifoldPoint], float], x: ManifoldPoint, y: ManifoldPoint
) -> tuple[float, float]:
    """The first worst ``(t, gap)`` over the interior grid points of [x, y],
    where gap is ``value(gamma(t)) - ((1-t) value(x) + t value(y))``."""
    f0, f1 = value(x), value(y)
    worst = (math.nan, -math.inf)
    ts = np.linspace(0.0, 1.0, _CONVEXITY_GRID)[1:-1]
    for t, p in zip(ts, x.manifold.geodesic_points(x, y, ts)):
        gap = value(p) - ((1.0 - t) * f0 + t * f1)
        if gap > worst[1]:
            worst = (float(t), float(gap))
    return worst


def check_assumptions(
    bifun: Bifunction, samples: Sequence[tuple[ManifoldPoint, ManifoldPoint]]
) -> AssumptionReport:
    """Spot-check the verifiable equilibrium assumptions on sample pairs."""
    if not samples:
        raise ValueError("need at least one sample pair")
    diag = 0.0
    mono = -math.inf
    convexity = -math.inf
    for x, y in samples:
        diag = max(diag, abs(bifun.eval(x, x)), abs(bifun.eval(y, y)))
        mono = max(mono, bifun.eval(x, y) + bifun.eval(y, x))
        _, gap = _worst_convexity_gap(lambda q: bifun.eval(x, q), x, y)
        convexity = max(convexity, gap)
    passed = (
        diag <= _DIAGONAL_TOL
        and mono <= fields.MONOTONE_SLACK_TOL
        and convexity <= _CONVEXITY_TOL
    )
    return AssumptionReport(diag, mono, convexity, ("A3", "A5", "A6"), passed)


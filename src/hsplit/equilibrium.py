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

Bifunctions without a field are solved by proximal best-response
iteration with a geodesic gradient descent inner loop, and the output
is certified against sampled directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import fields
from .manifold import (
    GeometryError,
    Manifold,
    ManifoldPoint,
    dist,
    exp_map,
    geodesic_point,
    inner,
    log_map,
)

__all__ = [
    "EquilibriumError",
    "Bifunction",
    "convex_difference",
    "field_induced",
    "generic_bifunction",
    "EquilibriumResolventConfig",
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


class Bifunction:
    """An equilibrium bifunction ``F: M x M -> R``.

    ``gradient_field`` decides how the resolvent is computed.  When it is
    set, the resolvent is that field's resolvent, a single delegated
    solve.  When it is None, the resolvent runs the sampled best-response
    solver, which needs ``direction_sampler`` or ``anchors``.
    """

    def __init__(
        self,
        manifold: Manifold,
        evaluator: Callable[[ManifoldPoint, ManifoldPoint], float],
        *,
        name: str = "generic",
        gradient_field: fields.VectorField | None = None,
        known_equilibria: Sequence[ManifoldPoint] = (),
        direction_sampler: Callable[[ManifoldPoint, np.random.Generator, float], list[ManifoldPoint]]
        | None = None,
        anchors: Sequence[ManifoldPoint] = (),
    ):
        self.manifold = manifold
        self._evaluator = evaluator
        self.name = name
        self.gradient_field = gradient_field
        self.known_equilibria = tuple(known_equilibria)
        self.direction_sampler = direction_sampler
        self.anchors = tuple(anchors)

    def eval(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        """Evaluate F(x, y); finite by contract, zero on the diagonal."""
        if x.manifold != self.manifold or y.manifold != self.manifold:
            raise GeometryError(f"bifunction {self.name} evaluated off its manifold")
        value = float(self._evaluator(x, y))
        if not math.isfinite(value):
            raise EquilibriumError(f"bifunction {self.name} returned non-finite value")
        return value

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
        anchors=equilibria,
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
        anchors=field.known_zeros,
    )


def generic_bifunction(
    manifold: Manifold,
    evaluator: Callable[[ManifoldPoint, ManifoldPoint], float],
    *,
    name: str = "generic",
    direction_sampler=None,
    anchors: Sequence[ManifoldPoint] = (),
    known_equilibria: Sequence[ManifoldPoint] = (),
) -> Bifunction:
    """Wrap a raw ``(x, y) -> R`` oracle with no structure information.

    The resolvent of a generic bifunction certifies its output against
    sampled directions, so either ``direction_sampler`` or ``anchors``
    must be supplied.
    """
    return Bifunction(
        manifold,
        evaluator,
        name=name,
        direction_sampler=direction_sampler,
        anchors=anchors,
        known_equilibria=known_equilibria,
    )


@dataclass(frozen=True)
class EquilibriumResolventConfig:
    """Regularization parameter and solver budget for the bifunction resolvent."""

    r: float = 1.0
    inner_tol: float = 1e-10
    inner_max_iter: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ValueError("resolvent parameter r must be positive")
        if self.inner_tol <= 0.0:
            raise ValueError("inner_tol must be positive")
        if self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be >= 1")


def equilibrium_residual(
    bifun: Bifunction,
    z: ManifoldPoint,
    probes: Sequence[ManifoldPoint],
    *,
    x: ManifoldPoint | None = None,
    r: float = 1.0,
) -> float:
    """Worst violation of the (regularized) variational inequality at z.

    With ``x`` given, evaluates ``min_y F(z,y) - (1/r)<log_z x, log_z y>``
    over the probe directions; without it, plain ``min_y F(z,y)``.
    Nonnegative (up to solver tolerance) when z solves the respective
    problem; only the probed directions are certified.
    """
    worst = math.inf
    log_zx = log_map(z, x) if x is not None else None
    for y in probes:
        val = bifun.eval(z, y)
        if log_zx is not None:
            val -= inner(log_zx, log_map(z, y)) / r
        worst = min(worst, val)
    if not probes:
        raise EquilibriumError("no probe directions supplied")
    return worst


#: number of sampled certificate directions when no sampler is given
_CERT_DIRECTIONS = 64
#: geodesic radius of sampled certificate probes
_CERT_RADIUS = 0.1


def _certificate_probes(
    bifun: Bifunction, z: ManifoldPoint, cfg: EquilibriumResolventConfig
) -> list[ManifoldPoint]:
    probes = list(bifun.anchors)
    rng = np.random.default_rng(cfg.seed)
    if bifun.direction_sampler is not None:
        probes.extend(bifun.direction_sampler(z, rng, _CERT_RADIUS))
    else:
        for _ in range(_CERT_DIRECTIONS):
            v = z.manifold.random_tangent(rng, z, scale=_CERT_RADIUS)
            probes.append(exp_map(z, v))
    return probes


def resolvent_T(
    bifun: Bifunction, cfg: EquilibriumResolventConfig, x: ManifoldPoint
) -> ManifoldPoint:
    """Resolvent of an equilibrium bifunction at x.

    A bifunction with a ``gradient_field`` delegates to that field's
    resolvent with step r.  One without runs proximal best-response
    iteration

        w_{k+1} = argmin_y  r * F(w_k, y) + d(y, x)^2 / 2

    (inner argmin by geodesic gradient descent) until consecutive
    iterates are within ``inner_tol``, then certifies the regularized
    variational inequality on sampled directions plus anchors.
    """
    if x.manifold != bifun.manifold:
        raise GeometryError("query point is not on the bifunction's manifold")

    if bifun.gradient_field is not None:
        field_cfg = fields.ResolventConfig(
            lam=cfg.r, inner_tol=cfg.inner_tol, inner_max_iter=cfg.inner_max_iter
        )
        return fields.resolvent(bifun.gradient_field, field_cfg, x)

    if bifun.direction_sampler is None and not bifun.anchors:
        raise EquilibriumError(
            f"generic bifunction {bifun.name} needs a direction sampler or anchors"
        )
    z, rounds = _best_response_resolvent(bifun, cfg, x)
    residual = equilibrium_residual(
        bifun, z, _certificate_probes(bifun, z, cfg), x=x, r=cfg.r
    )
    if residual < -cfg.inner_tol:
        raise fields.ResolventNonconvergence(
            f"equilibrium resolvent of {bifun.name} failed its certificate",
            last_residual=-residual,
            iterations=rounds,
        )
    return z


# best-response inner loop parameters: modest gradient step (at most
# 1/(1+r)) with a finite-difference fallback gradient for sampled bifunctions
_BR_GRAD_STEP = 0.1
_BR_GRAD_ITERS = 200
_FD_STEP = 1e-5


def _fd_partial_gradient(
    bifun: Bifunction, w: ManifoldPoint, y: ManifoldPoint
) -> np.ndarray:
    """Central finite differences of ``t -> F(w, exp_y(t b))`` per basis vector."""
    grads = np.zeros(y.manifold.ambient_dim)
    for b in y.manifold.tangent_basis(y):
        fwd = bifun.eval(w, exp_map(y, _FD_STEP * b))
        bwd = bifun.eval(w, exp_map(y, -_FD_STEP * b))
        grads += ((fwd - bwd) / (2.0 * _FD_STEP)) * b.components
    return grads


def _best_response_resolvent(
    bifun: Bifunction, cfg: EquilibriumResolventConfig, x: ManifoldPoint
) -> tuple[ManifoldPoint, int]:
    """The last best-response iterate and the number of rounds run."""
    man = bifun.manifold
    # a fixed step above 2/L diverges; r*F(w, .) + d(., x)^2/2 has L >= 1 + r
    # when F(w, .) is 1-strongly convex, as half-squared distances are
    eta = min(_BR_GRAD_STEP, 1.0 / (1.0 + cfg.r))
    w = x
    for rounds in range(1, cfg.inner_max_iter + 1):
        y = w
        for _ in range(_BR_GRAD_ITERS):
            grad = cfg.r * _fd_partial_gradient(bifun, w, y) - log_map(y, x).components
            step = man.tangent(y, -eta * grad, project=True)
            y_next = exp_map(y, step)
            if dist(y_next, y) <= 0.1 * cfg.inner_tol:
                y = y_next
                break
            y = y_next
        if dist(y, w) <= cfg.inner_tol:
            return y, rounds
        w = y
    return w, cfg.inner_max_iter


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


def check_assumptions(
    bifun: Bifunction,
    samples: Sequence[tuple[ManifoldPoint, ManifoldPoint]],
    *,
    grid_size: int = 21,
    diagonal_tol: float = 1e-12,
    monotone_tol: float = 1e-9,
    convexity_tol: float = 1e-9,
) -> AssumptionReport:
    """Spot-check the verifiable equilibrium assumptions on sample pairs."""
    if not samples:
        raise ValueError("need at least one sample pair")
    diag = 0.0
    mono = -math.inf
    convexity = -math.inf
    ts = np.linspace(0.0, 1.0, grid_size)
    for x, y in samples:
        diag = max(diag, abs(bifun.eval(x, x)), abs(bifun.eval(y, y)))
        mono = max(mono, bifun.eval(x, y) + bifun.eval(y, x))
        f0, f1 = bifun.eval(x, x), bifun.eval(x, y)
        for t in ts[1:-1]:
            mid = geodesic_point(x, y, float(t))
            gap = bifun.eval(x, mid) - ((1.0 - t) * f0 + t * f1)
            convexity = max(convexity, float(gap))
    passed = diag <= diagonal_tol and mono <= monotone_tol and convexity <= convexity_tol
    return AssumptionReport(diag, mono, convexity, ("A3", "A5", "A6"), passed)


"""Double-backward splitting iterations and their convergence diagnostics.

The common-solution iteration alternates two resolvent steps with
geodesic relaxation.  Given a monotone vector field A, an equilibrium
bifunction F, and per-iteration parameters ``alpha_n, beta_n`` in (0,1)
and ``lam_n, r_n > 0``:

    u_n = J^A_{lam_n}(x_n)                    (field resolvent)
    y_n = gamma(x_n -> u_n; alpha_n)          (geodesic relaxation)
    z_n = T^F_{r_n}(y_n)                      (bifunction resolvent)
    x_{n+1} = gamma(x_n -> z_n; beta_n)

Under bounded schedules the iterates are Fejer monotone with respect to
the common solution set and converge to a point that is simultaneously
an equilibrium point of F and a zero of A.  Dropping F gives the relaxed
proximal point iteration for the inclusion problem alone; dropping A
gives the proximal iteration for the equilibrium problem alone.

Each run produces an :class:`IterationTrace` carrying the per-iteration
quantities the convergence argument controls (consecutive-step
distances, relaxation gaps, distances to a reference solution), and
:func:`fejer_diagnostics` replays those proof obligations numerically.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import equilibrium as eq
from . import fields
from .manifold import (
    GeometryError,
    Manifold,
    ManifoldPoint,
    _keep,
    dist,
    geodesic_point,
    norm,
)

__all__ = [
    "ScheduleError",
    "ScheduleBounds",
    "StepSchedule",
    "ScheduleReport",
    "validate_schedule",
    "StoppingRule",
    "ProblemInstance",
    "membership_residuals",
    "StepResult",
    "IterationRecord",
    "IterationTrace",
    "algorithm1_step",
    "algorithm2_step",
    "algorithm3_step",
    "run",
    "ReferenceMembershipError",
    "FejerReport",
    "fejer_diagnostics",
    "TRACE_HEADER",
]


class ScheduleError(ValueError):
    """A step schedule violates its declared bounds."""


@dataclass(frozen=True)
class ScheduleBounds:
    """Declared bounds (a, b, lam_lo, lam_hi, r_min) for a step schedule.

    Every ``r_n`` must be finite and at least ``r_min``, the finite
    surrogate for a positive lower limit of the ``r_n`` sequence.
    """

    a: float = 0.01
    b: float = 0.99
    lam_lo: float = 0.01
    lam_hi: float = 100.0
    r_min: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.a <= self.b < 1.0:
            raise ScheduleError(f"need 0 < a <= b < 1, got a={self.a}, b={self.b}")
        if not 0.0 < self.lam_lo <= self.lam_hi < math.inf:
            raise ScheduleError("need 0 < lam_lo <= lam_hi < inf")
        if not 0.0 < self.r_min < math.inf:
            raise ScheduleError("need 0 < r_min < inf")


DEFAULT_BOUNDS = ScheduleBounds()


class _Constant:
    """The sequence ``n -> value``: one bound check covers every index."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def __call__(self, n: int) -> float:
        return self.value


@dataclass(frozen=True)
class StepSchedule:
    """Per-iteration relaxation and resolvent parameters.

    ``alpha`` and ``beta`` are the geodesic relaxation coefficients,
    ``lam`` the field-resolvent step, and ``r`` the bifunction-resolvent
    parameter, each as a function of the iteration index.
    """

    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    lam: Callable[[int], float]
    r: Callable[[int], float]
    bounds: ScheduleBounds = DEFAULT_BOUNDS
    description: str = "custom"

    @staticmethod
    def constant(
        alpha: float = 0.9,
        beta: float = 0.9,
        lam: float = 10.0,
        r: float = 10.0,
        bounds: ScheduleBounds = DEFAULT_BOUNDS,
    ) -> "StepSchedule":
        """The schedule with the same four values at every index.

        :func:`validate_schedule` checks it once, at n = 0, whatever
        the horizon.

        The defaults are the one source of :data:`DEFAULT_SCHEDULE` and of
        every value a caller leaves unset: the point of a measured grid
        that ends each shipped problem in 11-12 iterations (51-63 at
        0.5, 0.5, 1, 1).  r stops at 10, where a raw-oracle resolvent's
        finite-difference noise floor, carried times r, still lets every
        generic benchmark instance solve; README "The default schedule"
        has the grid.
        """
        desc = f"alpha={alpha!r},beta={beta!r},lam={lam!r},r={r!r}"
        return StepSchedule(
            _Constant(alpha), _Constant(beta), _Constant(lam), _Constant(r), bounds, desc
        )


DEFAULT_SCHEDULE = StepSchedule.constant()


@dataclass(frozen=True)
class ScheduleReport:
    passed: bool
    horizon: int
    first_violation: tuple[int, str] | None

    def __str__(self) -> str:
        if self.passed:
            return f"schedule PASS up to n={self.horizon}"
        n, cond = self.first_violation
        return f"schedule FAIL at n={n}: {cond}"


def validate_schedule(schedule: StepSchedule, horizon: int) -> ScheduleReport:
    """Check the three bound conditions for all indices up to ``horizon``.

    A schedule whose four sequences all come from
    :meth:`StepSchedule.constant` is checked once, at n = 0: a value that
    passes there passes at every n.  Any other schedule is checked at
    every index.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    b = schedule.bounds
    seqs = (schedule.alpha, schedule.beta, schedule.lam, schedule.r)
    last = 0 if all(isinstance(s, _Constant) for s in seqs) else horizon
    for n in range(last + 1):
        alpha, beta = schedule.alpha(n), schedule.beta(n)
        lam, r = schedule.lam(n), schedule.r(n)
        if not b.a <= alpha <= b.b:
            return ScheduleReport(False, horizon, (n, f"alpha_n={alpha!r} outside [{b.a}, {b.b}]"))
        if not b.a <= beta <= b.b:
            return ScheduleReport(False, horizon, (n, f"beta_n={beta!r} outside [{b.a}, {b.b}]"))
        if not b.lam_lo <= lam <= b.lam_hi:
            return ScheduleReport(
                False, horizon, (n, f"lam_n={lam!r} outside [{b.lam_lo}, {b.lam_hi}]")
            )
        if not b.r_min <= r < math.inf:
            return ScheduleReport(False, horizon, (n, f"r_n={r!r} outside [{b.r_min}, inf)"))
    return ScheduleReport(True, horizon, None)


@dataclass(frozen=True)
class StoppingRule:
    """Run termination: step tolerance, optional reference tolerance, or budget."""

    max_iter: int = 10_000
    step_tol: float = 1e-9
    ref_tol: float | None = None

    def __post_init__(self) -> None:
        if not self.max_iter >= 0:
            raise ValueError("max_iter must be >= 0")
        if self.step_tol is not None and not self.step_tol >= 0.0:
            raise ValueError("step_tol must be >= 0")
        if self.ref_tol is not None and not self.ref_tol >= 0.0:
            raise ValueError("ref_tol must be >= 0")


MEMBERSHIP_TOL = 1e-6
#: geodesic radii of the tangent-frame probes of the equilibrium residual
_PROBE_RADII = (0.5, 1.0)
#: signed radii of the probes along each frame vector, in probe order
_PROBE_STEPS = tuple(s * radius for radius in _PROBE_RADII for s in (1.0, -1.0))


@dataclass(frozen=True)
class ProblemInstance:
    """A common-solution problem: a field, a bifunction, or both.

    ``reference_solution``, when given, must lie in the solution set: a
    registered zero of the field and an equilibrium point of the
    bifunction, verified within :data:`MEMBERSHIP_TOL` at construction.
    """

    manifold: Manifold
    x0: ManifoldPoint
    field: fields.VectorField | None = None
    bifunction: eq.Bifunction | None = None
    reference_solution: ManifoldPoint | None = None
    name: str = "problem"

    def __post_init__(self) -> None:
        if self.field is None and self.bifunction is None:
            raise ValueError("a problem needs a vector field, a bifunction, or both")
        if self.x0.manifold != self.manifold:
            raise GeometryError("initial point is not on the problem manifold")
        for part in (self.field, self.bifunction):
            if part is not None and part.manifold != self.manifold:
                raise GeometryError(f"{part!r} is not on the problem manifold")
        if self.reference_solution is not None:
            res_a, res_f = _reference_residuals(
                self.field, self.bifunction, self.reference_solution
            )
            if max(res_a, res_f) > MEMBERSHIP_TOL:
                raise ValueError(
                    f"reference solution fails membership: field residual {res_a:.3e}, "
                    f"equilibrium residual {res_f:.3e}"
                )


def membership_residuals(
    field: fields.VectorField | None,
    bifunction: eq.Bifunction | None,
    point: ManifoldPoint,
) -> tuple[float, float]:
    """How far a point is from the solution set of each subproblem.

    Field residual: norm of the minimum-norm element of A(point).
    Equilibrium residual: worst negativity of ``F(point, y)`` over
    deterministic probes (tangent frame directions at the given radii
    plus any registered anchors).  Both are zero at a common solution.
    The frame probes ``exp(point, +-radius b)``, for every frame vector b
    and radius in turn, are the frame points
    (:meth:`Manifold._frame_points`) of the coefficient rows
    ``+-radius e_j``.
    """
    res_a = 0.0
    if field is not None:
        res_a = norm(field.selection(point))
    res_f = 0.0
    if bifunction is not None:
        man = point.manifold
        probes = man._frame_points(point, eq._axis_steps(man.manifold_dim, _PROBE_STEPS))
        probes.extend(bifunction.anchors)
        probes.extend(bifunction.known_equilibria)
        res_f = max(0.0, -eq.equilibrium_residual(bifunction, point, probes))
    return res_a, res_f


def _reference_residuals(
    field: fields.VectorField | None,
    bifunction: eq.Bifunction | None,
    point: ManifoldPoint,
) -> tuple[float, float]:
    """:func:`membership_residuals`, measured once per field, bifunction and point.

    A problem rebuilt by ``dataclasses.replace`` and the Fejer replay of
    its traces check the same reference against the same parts, so the
    point keeps its last result with the parts, compared by identity.
    Parts are not changed after construction, so the same parts mean the
    same residuals.
    """
    memo = point._membership_memo
    if memo is not None and memo[0] is field and memo[1] is bifunction:
        return memo[2]
    residuals = membership_residuals(field, bifunction, point)
    _keep(point, "_membership_memo", (field, bifunction, residuals))
    return residuals


@dataclass(frozen=True)
class StepResult:
    """One iteration's intermediate points and resolvent residuals."""

    u: ManifoldPoint
    y: ManifoldPoint
    z: ManifoldPoint
    x_next: ManifoldPoint
    res_field: float
    res_bifun: float


@dataclass(frozen=True)
class IterationRecord:
    n: int
    x: ManifoldPoint
    u: ManifoldPoint
    y: ManifoldPoint
    z: ManifoldPoint
    x_next: ManifoldPoint
    alpha: float
    beta: float
    lam: float
    r: float
    d_step: float
    d_xy: float
    d_xz: float
    d_ref: float  # nan when no reference is registered
    res_field: float
    res_bifun: float
    wall_ms: float


TRACE_HEADER = "n,dx_step,dx_y,dx_z,dx_ref,res_A,res_F,wall_ms"


@dataclass
class IterationTrace:
    """Complete record of one run; rows are contiguous in the iteration index."""

    problem: ProblemInstance
    schedule: StepSchedule
    records: list[IterationRecord]
    termination_reason: str
    final_point: ManifoldPoint
    error: str = ""
    seed: int = 0

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def points(self) -> list[ManifoldPoint]:
        """Visited iterates ``x_0, ..., x_N``."""
        if not self.records:
            return [self.final_point]
        return [rec.x for rec in self.records] + [self.final_point]

    def final_step_distance(self) -> float:
        return self.records[-1].d_step if self.records else math.nan

    def final_reference_distance(self) -> float:
        ref = self.problem.reference_solution
        if ref is None:
            return math.nan
        return dist(self.final_point, ref)

    # -- serialization -------------------------------------------------

    def to_csv(self, *, deterministic_timing: bool = True) -> str:
        """Render the trace as CSV text.

        ``deterministic_timing=True`` (the default) zeroes the wall-time
        column so identical runs produce identical bytes; measured times
        stay available in memory.
        """
        lines = [TRACE_HEADER]
        if not self.records:
            d_ref = self.final_reference_distance()
            lines.append(f"0,nan,nan,nan,{_fmt(d_ref)},nan,nan,{_fmt(0.0)}")
        for rec in self.records:
            wall = 0.0 if deterministic_timing else rec.wall_ms
            lines.append(
                ",".join(
                    [
                        str(rec.n),
                        _fmt(rec.d_step),
                        _fmt(rec.d_xy),
                        _fmt(rec.d_xz),
                        _fmt(rec.d_ref),
                        _fmt(rec.res_field),
                        _fmt(rec.res_bifun),
                        _fmt(wall),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def sidecar(self, *, include_timing: bool = False) -> dict:
        """Metadata record accompanying the CSV trace."""
        ref = self.problem.reference_solution
        meta = {
            "problem": self.problem.name,
            "manifold": self.problem.manifold.tag,
            "schedule": self.schedule.description,
            "bounds": {
                "a": self.schedule.bounds.a,
                "b": self.schedule.bounds.b,
                "lam_lo": self.schedule.bounds.lam_lo,
                "lam_hi": self.schedule.bounds.lam_hi,
                "r_min": self.schedule.bounds.r_min,
            },
            "termination": self.termination_reason,
            "iterations": self.iterations,
            "seed": self.seed,
            "x0": self.problem.x0.coords.tolist(),
            "final_point": self.final_point.coords.tolist(),
            "final_dx_step": _json_float(self.final_step_distance()),
            "final_dx_ref": _json_float(self.final_reference_distance()),
            "reference": None if ref is None else ref.coords.tolist(),
            "error": self.error,
        }
        if include_timing:
            meta["total_wall_ms"] = sum(rec.wall_ms for rec in self.records)
        return meta

    def write(self, directory, stem: str, *, deterministic_timing: bool = True) -> tuple[Path, Path]:
        """Write ``<stem>_trace.csv`` and ``<stem>_meta.json``; returns both paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        csv_path = directory / f"{stem}_trace.csv"
        meta_path = directory / f"{stem}_meta.json"
        csv_path.write_text(self.to_csv(deterministic_timing=deterministic_timing))
        meta_path.write_text(
            json.dumps(
                self.sidecar(include_timing=not deterministic_timing),
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
        return csv_path, meta_path


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else repr(float(x))


def _json_float(x: float):
    return None if math.isnan(x) else x


# -- single iterations -------------------------------------------------------


def _field_resolve(
    problem: ProblemInstance, lam: float, x: ManifoldPoint, inner_tol: float, inner_max_iter: int
) -> tuple[ManifoldPoint, float]:
    if problem.field is None:
        return x, 0.0
    cfg = fields.ResolventConfig(lam=lam, inner_tol=inner_tol, inner_max_iter=inner_max_iter)
    return fields.resolvent_with_residual(problem.field, cfg, x)


def _bifun_resolve(
    problem: ProblemInstance,
    r: float,
    y: ManifoldPoint,
    inner_tol: float,
    inner_max_iter: int,
    seed: int,
) -> tuple[ManifoldPoint, float]:
    if problem.bifunction is None:
        return y, 0.0
    cfg = fields.ResolventConfig(lam=r, inner_tol=inner_tol, inner_max_iter=inner_max_iter)
    return eq.resolvent_T(problem.bifunction, cfg, y, seed=seed)


def algorithm1_step(
    problem: ProblemInstance,
    schedule: StepSchedule,
    n: int,
    x: ManifoldPoint,
    *,
    inner_tol: float = 1e-10,
    inner_max_iter: int = 500,
    seed: int = 0,
) -> StepResult:
    """One double-backward step: field resolvent, relaxation, bifunction resolvent, relaxation."""
    u, res_a = _field_resolve(problem, schedule.lam(n), x, inner_tol, inner_max_iter)
    y = geodesic_point(x, u, schedule.alpha(n))
    z, res_f = _bifun_resolve(problem, schedule.r(n), y, inner_tol, inner_max_iter, seed)
    x_next = geodesic_point(x, z, schedule.beta(n))
    return StepResult(u, y, z, x_next, res_a, res_f)


def algorithm2_step(
    problem: ProblemInstance,
    schedule: StepSchedule,
    n: int,
    x: ManifoldPoint,
    *,
    inner_tol: float = 1e-10,
    inner_max_iter: int = 500,
    seed: int = 0,
) -> StepResult:
    """Relaxed proximal point step for the inclusion problem (no bifunction)."""
    if problem.field is None:
        raise ValueError("inclusion iteration needs a vector field")
    u, res_a = _field_resolve(problem, schedule.lam(n), x, inner_tol, inner_max_iter)
    x_next = geodesic_point(x, u, schedule.alpha(n))
    return StepResult(u, x_next, x_next, x_next, res_a, 0.0)


def algorithm3_step(
    problem: ProblemInstance,
    schedule: StepSchedule,
    n: int,
    x: ManifoldPoint,
    *,
    inner_tol: float = 1e-10,
    inner_max_iter: int = 500,
    seed: int = 0,
) -> StepResult:
    """Proximal step for the equilibrium problem alone (no vector field)."""
    if problem.bifunction is None:
        raise ValueError("equilibrium iteration needs a bifunction")
    z, res_f = _bifun_resolve(problem, schedule.r(n), x, inner_tol, inner_max_iter, seed)
    x_next = geodesic_point(x, z, schedule.beta(n))
    return StepResult(x, x, z, x_next, 0.0, res_f)


_STEP_FUNCTIONS = {
    "common": algorithm1_step,
    "inclusion": algorithm2_step,
    "equilibrium": algorithm3_step,
}


def choose_algorithm(problem: ProblemInstance) -> str:
    """Default iteration for a problem: both parts present -> common-solution."""
    if problem.field is not None and problem.bifunction is not None:
        return "common"
    if problem.field is not None:
        return "inclusion"
    return "equilibrium"


# adaptive inner tolerance: keep resolvent error two orders below the
# current outer progress, with a hard floor
_INNER_TOL_BASE = 1e-10
_INNER_TOL_FLOOR = 1e-12
_INNER_TOL_FRACTION = 1e-2


def run(
    problem: ProblemInstance,
    schedule: StepSchedule = DEFAULT_SCHEDULE,
    stop: StoppingRule = StoppingRule(),
    *,
    algorithm: str = "auto",
    inner_max_iter: int = 500,
    seed: int = 0,
) -> IterationTrace:
    """Drive the splitting iteration until the stopping rule fires.

    The per-iteration resolvent tolerance tightens with the consecutive
    step distance so inner error cannot mask outer convergence.  A
    resolvent failure or a :class:`GeometryError` inside a step aborts
    the run and is recorded in the trace rather than raised.

    Before any iteration, an ``algorithm`` that needs a part the problem
    lacks (``"inclusion"`` without a field, ``"equilibrium"`` without a
    bifunction) raises :class:`ValueError`, and the schedule is checked
    against its bounds up to ``max(stop.max_iter, 1)`` (once, for a
    constant schedule); a violation raises :class:`ScheduleError`.
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(problem)
    try:
        step_fn = _STEP_FUNCTIONS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}; options: auto, "
                         + ", ".join(_STEP_FUNCTIONS)) from None
    if algorithm == "inclusion" and problem.field is None:
        raise ValueError("inclusion iteration needs a vector field")
    if algorithm == "equilibrium" and problem.bifunction is None:
        raise ValueError("equilibrium iteration needs a bifunction")
    report = validate_schedule(schedule, max(stop.max_iter, 1))
    if not report.passed:
        raise ScheduleError(str(report))

    ref = problem.reference_solution
    records: list[IterationRecord] = []
    x = problem.x0
    termination = "max_iter"
    error = ""
    prev_step = math.inf
    for n in range(stop.max_iter):
        tol_n = min(_INNER_TOL_BASE, max(_INNER_TOL_FLOOR, _INNER_TOL_FRACTION * prev_step))
        t0 = time.perf_counter()
        try:
            result = step_fn(
                problem, schedule, n, x,
                inner_tol=tol_n, inner_max_iter=inner_max_iter, seed=seed,
            )
        except (fields.FieldError, GeometryError) as exc:
            termination = "resolvent_failure"
            error = str(exc)
            break
        wall_ms = (time.perf_counter() - t0) * 1e3
        d_step = dist(x, result.x_next)
        records.append(
            IterationRecord(
                n=n,
                x=x,
                u=result.u,
                y=result.y,
                z=result.z,
                x_next=result.x_next,
                alpha=schedule.alpha(n),
                beta=schedule.beta(n),
                lam=schedule.lam(n),
                r=schedule.r(n),
                d_step=d_step,
                d_xy=dist(x, result.y),
                d_xz=dist(x, result.z),
                d_ref=dist(x, ref) if ref is not None else math.nan,
                res_field=result.res_field,
                res_bifun=result.res_bifun,
                wall_ms=wall_ms,
            )
        )
        x = result.x_next
        prev_step = d_step
        if stop.step_tol is not None and d_step <= stop.step_tol:
            termination = "step_tol"
            break
        if stop.ref_tol is not None and ref is not None and dist(x, ref) <= stop.ref_tol:
            termination = "ref_tol"
            break
    return IterationTrace(problem, schedule, records, termination, x, error=error, seed=seed)


# -- diagnostics --------------------------------------------------------------


class ReferenceMembershipError(ValueError):
    """The diagnostic reference point is not in the solution set."""

    def __init__(self, res_field: float, res_bifun: float):
        super().__init__(
            "diagnostic refused: reference point fails solution-set membership "
            f"(field residual {res_field:.3e}, equilibrium residual {res_bifun:.3e})"
        )
        self.res_field = res_field
        self.res_bifun = res_bifun


@dataclass(frozen=True)
class FejerReport:
    """Numeric replay of the convergence proof obligations along a trace.

    ``fejer_max_violation`` is the worst increase of ``d(x_n, ref)``
    across consecutive iterates; ``composite_max_violation`` the worst
    violation of the per-step descent inequality

        d(y_n, ref)^2 <= d(x_n, ref)^2 - alpha_n * d(x_n, u_n)^2;

    the step and relaxation-gap sequences must vanish along the run.
    """

    n_steps: int
    fejer_max_violation: float
    composite_max_violation: float
    final_step_distance: float
    final_y_gap: float
    final_ref_distance: float
    tail_step_maxima: tuple[float, ...]
    tail_nonincreasing: bool
    passed: bool

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"fejer diagnostics {verdict}: max d(x,ref) increase {self.fejer_max_violation:.3e}, "
            f"max composite violation {self.composite_max_violation:.3e}, "
            f"final step {self.final_step_distance:.3e}, final y-gap {self.final_y_gap:.3e}"
        )


#: largest increase of d(x_n, ref) the Fejer replay accepts
_FEJER_TOL = 1e-9
#: largest violation of the per-step descent inequality it accepts
_COMPOSITE_TOL = 1e-8


def fejer_diagnostics(
    trace: IterationTrace,
    ref: ManifoldPoint | None = None,
) -> FejerReport:
    """Check Fejer monotonicity and the per-step descent inequality.

    Refuses to run when the reference point is not (numerically) in the
    solution set, since the monotonicity guarantee only holds there.
    """
    if ref is None:
        ref = trace.problem.reference_solution
    if ref is None:
        raise ValueError("no reference point available for diagnostics")
    res_a, res_f = _reference_residuals(trace.problem.field, trace.problem.bifunction, ref)
    if max(res_a, res_f) > MEMBERSHIP_TOL:
        raise ReferenceMembershipError(res_a, res_f)

    if not trace.records:
        d0 = dist(trace.final_point, ref)
        return FejerReport(0, 0.0, 0.0, math.nan, math.nan, d0, (), True, True)

    fejer_violation = -math.inf
    composite_violation = -math.inf
    for rec in trace.records:
        d_now = dist(rec.x, ref)
        d_next = dist(rec.x_next, ref)
        fejer_violation = max(fejer_violation, d_next - d_now)
        d_y = dist(rec.y, ref)
        d_xu = dist(rec.x, rec.u)
        composite_violation = max(
            composite_violation, d_y**2 + rec.alpha * d_xu**2 - d_now**2
        )

    steps = [rec.d_step for rec in trace.records]
    quarters = max(1, len(steps) // 4)
    tail_maxima = tuple(
        max(steps[i : i + quarters]) for i in range(0, len(steps), quarters)
    )
    tail_nonincreasing = all(
        tail_maxima[i + 1] <= tail_maxima[i] + _FEJER_TOL for i in range(len(tail_maxima) - 1)
    )
    passed = fejer_violation <= _FEJER_TOL and composite_violation <= _COMPOSITE_TOL
    return FejerReport(
        n_steps=len(trace.records),
        fejer_max_violation=float(fejer_violation),
        composite_max_violation=float(composite_violation),
        final_step_distance=steps[-1],
        final_y_gap=trace.records[-1].d_xy,
        final_ref_distance=dist(trace.final_point, ref),
        tail_step_maxima=tail_maxima,
        tail_nonincreasing=tail_nonincreasing,
        passed=passed,
    )

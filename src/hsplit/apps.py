"""Applications: geodesically convex minimization and saddle-point problems.

Minimization ``min g`` over a Hadamard manifold is solved by feeding the
subdifferential of g (a maximal monotone field whose zeros are exactly
the minimizers) into the splitting iteration.  Saddle points of a
function ``H`` that is concave in its first slot and convex in its
second are the zeros of the monotone product field

    V_H(x, y) = d(-H(., y))(x)  x  d(H(x, .))(y)

on the product manifold, and are found the same way.

The module also ships a small library of problems with independently
computed reference solutions (closed forms where available, a geodesic
gradient-descent oracle for weighted means otherwise) that back the
end-to-end verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import equilibrium as eq
from . import fields
from . import splitting
from .manifold import (
    Euclidean,
    Hyperboloid,
    Manifold,
    ManifoldPoint,
    Product,
    SPD,
    TangentVector,
    dist,
    exp_map,
    inner,
    log_map,
    norm,
)

__all__ = [
    "RegistrationError",
    "ConvexProgram",
    "squared_distance_program",
    "linear_program",
    "subdifferential_field",
    "minimizer_residual",
    "solve_minimization",
    "frechet_mean",
    "SaddleProblem",
    "saddle_field",
    "solve_saddle",
    "saddle_inequality_probe",
    "saddle_membership_residual",
    "problem_ids",
    "get_problem",
    "problem_metadata",
]

_CHECK_SEED = 20240901
# registration spot checks: geodesic radius of the random points, largest
# accepted gap, and sample counts per kind of check
_CHECK_SPREAD = 2.0
_CHECK_TOL = 1e-9
_MONOTONE_PAIRS = 200
_PROGRAM_SAMPLES = 40
_SADDLE_SAMPLES = 30
# stopping rule of the frechet_mean reference oracle
_MEAN_GRAD_TOL = 1e-9
_MEAN_MAX_ITER = 10_000


class RegistrationError(ValueError):
    """A convexity or subgradient contract failed a spot check; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ConvexProgram:
    """A geodesically convex objective with a subgradient oracle.

    ``subgradient`` maps a point to a nonempty tuple of subgradients at
    that point; ``known_minimizers`` lists points where the zero vector
    is a subgradient.  ``gradient_field``, when set, is the same
    subdifferential as a structured field with a closed-form resolvent,
    which :func:`subdifferential_field` hands on.
    """

    manifold: Manifold
    objective: Callable[[ManifoldPoint], float]
    subgradient: Callable[[ManifoldPoint], tuple[TangentVector, ...]]
    known_minimizers: tuple[ManifoldPoint, ...] = ()
    name: str = "convex_program"
    gradient_field: fields.VectorField | None = None


def squared_distance_program(
    anchors: Sequence[ManifoldPoint],
    weights: Sequence[float] | None = None,
    *,
    known_minimizer: ManifoldPoint | None = None,
    name: str = "",
) -> ConvexProgram:
    """Weighted squared-distance objective ``sum_i w_i d(x, p_i)^2 / 2``.

    Its gradient is ``-sum_i w_i log_x(p_i)``.  With a single anchor the
    anchor itself is the unique minimizer, and ``gradient_field`` is the
    anchor's :class:`~hsplit.fields.DistanceGradientField`, whose values
    equal those of ``subgradient`` and whose resolvent is closed-form.
    """
    anchors = tuple(anchors)
    if not anchors:
        raise ValueError("need at least one anchor")
    man = anchors[0].manifold
    w = np.full(len(anchors), 1.0 / len(anchors)) if weights is None else np.asarray(
        weights, dtype=float
    )
    if w.shape != (len(anchors),) or np.any(w <= 0.0):
        raise ValueError("weights must be positive, one per anchor")

    def objective(x: ManifoldPoint) -> float:
        return 0.5 * sum(wi * dist(x, p) ** 2 for wi, p in zip(w, anchors))

    def subgrad(x: ManifoldPoint) -> tuple[TangentVector, ...]:
        g = man.zero_vector(x)
        for wi, p in zip(w, anchors):
            g = g + float(-wi) * log_map(x, p)
        return (g,)

    name = name or f"squared_distance[{len(anchors)}]"
    if len(anchors) > 1:
        minimizers = () if known_minimizer is None else (known_minimizer,)
        return ConvexProgram(man, objective, subgrad, minimizers, name)
    # -w log_x p, which subgrad's 0 + (-w) log_x p equals
    gradient = fields.DistanceGradientField(anchors[0], w[0], name=f"subdiff[{name}]")
    minimizer = anchors[0] if known_minimizer is None else known_minimizer
    return ConvexProgram(man, objective, subgrad, (minimizer,), name, gradient)


def linear_program(manifold: Euclidean, c) -> ConvexProgram:
    """Linear objective ``<c, x>`` on flat space; constant subgradient, no minimizer."""
    cvec = np.asarray(c, dtype=float)

    def objective(x: ManifoldPoint) -> float:
        return float(cvec @ x.coords)

    def subgrad(x: ManifoldPoint) -> tuple[TangentVector, ...]:
        return (TangentVector(x, cvec.copy()),)

    return ConvexProgram(manifold, objective, subgrad, (), "linear")


def _validate_program(prog: ConvexProgram, rng: np.random.Generator) -> None:
    man = prog.manifold
    for _ in range(_PROGRAM_SAMPLES):
        x = man.random_point(rng, _CHECK_SPREAD)
        y = man.random_point(rng, _CHECK_SPREAD)
        bad = eq._worst_convexity_gap(prog.objective, x, y)
        if bad[1] > _CHECK_TOL:
            raise RegistrationError(
                f"objective of {prog.name} not geodesically convex: gap {bad[1]:.3e} at t={bad[0]}",
                witness=(x, y, bad),
            )
        for s in prog.subgradient(x):
            gap = prog.objective(x) + inner(s, log_map(x, y)) - prog.objective(y)
            if gap > _CHECK_TOL:
                raise RegistrationError(
                    f"subgradient inequality of {prog.name} violated by {gap:.3e}",
                    witness=(x, y, s),
                )


def subdifferential_field(
    prog: ConvexProgram,
    *,
    check: bool = True,
    rng: np.random.Generator | None = None,
) -> fields.VectorField:
    """Subdifferential of a convex program as a monotone vector field.

    Registration spot-checks the subgradient inequality and convexity,
    then monotonicity across random pairs, and refuses (with a witness)
    on any violation.  The zeros of the returned field are exactly the
    minimizers of the objective.  The field is the program's
    ``gradient_field`` when it has one, after the same checks, else a
    generic field of ``subgradient`` for the inner resolvent solver.
    """
    man = prog.manifold
    rng = rng if rng is not None else np.random.default_rng(_CHECK_SEED)
    if check:
        _validate_program(prog, rng)
    vf = prog.gradient_field
    if vf is None:
        vf = fields.VectorField(
            man,
            prog.subgradient,
            name=f"subdiff[{prog.name}]",
            single_valued=False,
            known_zeros=prog.known_minimizers,
        )
    if check:
        points = man.random_points(rng, 2 * _MONOTONE_PAIRS, _CHECK_SPREAD)
        report = fields.check_monotone(vf, list(zip(points[::2], points[1::2])))
        if not report.passed:
            raise RegistrationError(
                f"subdifferential of {prog.name} failed a monotonicity spot check: {report}",
                witness=report.witness,
            )
    return vf


def minimizer_residual(prog: ConvexProgram, x: ManifoldPoint) -> float:
    """Norm of the minimum-norm subgradient at x; zero exactly at minimizers."""
    grads = prog.subgradient(x)
    if not grads:
        raise fields.DomainError(f"{prog.name} has no subgradient at {x!r}")
    return min(norm(s) for s in grads)


def solve_minimization(
    prog: ConvexProgram,
    bifunction: eq.Bifunction | None,
    schedule: splitting.StepSchedule = splitting.DEFAULT_SCHEDULE,
    stop: splitting.StoppingRule = splitting.StoppingRule(),
    *,
    x0: ManifoldPoint | None = None,
    reference: ManifoldPoint | None = None,
    **run_kwargs,
) -> splitting.IterationTrace:
    """Minimize a convex program, optionally jointly with an equilibrium problem.

    Feeds the subdifferential field into the splitting iteration; with a
    bifunction present the run targets a common solution, otherwise the
    relaxed proximal point iteration for the minimization alone.
    """
    field = subdifferential_field(prog)
    if x0 is None:
        x0 = prog.manifold.base_point()
    if reference is None and prog.known_minimizers:
        reference = prog.known_minimizers[0]
    problem = splitting.ProblemInstance(
        manifold=prog.manifold,
        x0=x0,
        field=field,
        bifunction=bifunction,
        reference_solution=reference,
        name=f"minimize[{prog.name}]",
    )
    return splitting.run(problem, schedule, stop, **run_kwargs)


def frechet_mean(
    anchors: Sequence[ManifoldPoint],
    weights: Sequence[float] | None = None,
) -> ManifoldPoint:
    """Weighted mean by geodesic gradient descent with Armijo line search.

    Independent of the splitting machinery; serves as the reference
    oracle for mean problems.  Terminates when the Riemannian gradient
    norm of the weighted squared-distance objective drops below 1e-9.
    """
    anchors = tuple(anchors)
    w = np.full(len(anchors), 1.0 / len(anchors)) if weights is None else np.asarray(
        weights, dtype=float
    )
    w = w / w.sum()
    man = anchors[0].manifold

    def value(x: ManifoldPoint) -> float:
        return 0.5 * sum(wi * dist(x, p) ** 2 for wi, p in zip(w, anchors))

    def gradient(x: ManifoldPoint) -> TangentVector:
        g = man.zero_vector(x)
        for wi, p in zip(w, anchors):
            g = g + float(-wi) * log_map(x, p)
        return g

    x = anchors[0]
    fx = value(x)
    for _ in range(_MEAN_MAX_ITER):
        g = gradient(x)
        gn = norm(g)
        if gn <= _MEAN_GRAD_TOL:
            return x
        t = 1.0
        while t > 1e-16:
            cand = exp_map(x, -t * g)
            fc = value(cand)
            if fc <= fx - 1e-4 * t * gn * gn:
                x, fx = cand, fc
                break
            t *= 0.5
        else:
            return x  # no further progress possible at float precision
    raise RuntimeError(f"mean computation did not reach gradient norm {_MEAN_GRAD_TOL:.1e}")


# -- saddle problems ----------------------------------------------------------


@dataclass(frozen=True)
class SaddleProblem:
    """A concave-convex function H on a product of two Hadamard manifolds.

    ``H(., y)`` is geodesically concave for each y and ``H(x, .)``
    geodesically convex for each x.  ``neg_x_subgradient`` returns
    subgradients of ``-H(., y)`` at x and ``y_subgradient`` subgradients
    of ``H(x, .)`` at y.
    """

    m1: Manifold
    m2: Manifold
    h: Callable[[ManifoldPoint, ManifoldPoint], float]
    neg_x_subgradient: Callable[[ManifoldPoint, ManifoldPoint], tuple[TangentVector, ...]]
    y_subgradient: Callable[[ManifoldPoint, ManifoldPoint], tuple[TangentVector, ...]]
    known_saddle: tuple[ManifoldPoint, ManifoldPoint] | None = None
    name: str = "saddle"

    @property
    def product(self) -> Product:
        return Product((self.m1, self.m2))


def _validate_saddle(sp: SaddleProblem, rng: np.random.Generator) -> None:
    for _ in range(_SADDLE_SAMPLES):
        x = sp.m1.random_point(rng, _CHECK_SPREAD)
        y1, y2 = sp.m2.random_point(rng, _CHECK_SPREAD), sp.m2.random_point(rng, _CHECK_SPREAD)
        bad = eq._worst_convexity_gap(lambda q: sp.h(x, q), y1, y2)
        if bad[1] > _CHECK_TOL:
            raise RegistrationError(
                f"{sp.name}: H(x, .) not geodesically convex (gap {bad[1]:.3e})",
                witness=(x, y1, y2, bad),
            )
        x1, x2 = sp.m1.random_point(rng, _CHECK_SPREAD), sp.m1.random_point(rng, _CHECK_SPREAD)
        y = sp.m2.random_point(rng, _CHECK_SPREAD)
        bad = eq._worst_convexity_gap(lambda q: -sp.h(q, y), x1, x2)
        if bad[1] > _CHECK_TOL:
            raise RegistrationError(
                f"{sp.name}: H(., y) not geodesically concave (gap {bad[1]:.3e})",
                witness=(x1, x2, y, bad),
            )


def saddle_field(
    sp: SaddleProblem,
    *,
    check: bool = True,
    rng: np.random.Generator | None = None,
) -> fields.VectorField:
    """The monotone product field whose zeros are the saddle points of H.

    At ``(x, y)`` the field value set is the product of the subgradients
    of ``-H(., y)`` at x with those of ``H(x, .)`` at y, combined in the
    product-manifold tangent space.
    """
    prod = sp.product
    rng = rng if rng is not None else np.random.default_rng(_CHECK_SEED + 1)
    if check:
        _validate_saddle(sp, rng)

    def evaluate(z: ManifoldPoint) -> tuple[TangentVector, ...]:
        x, y = prod.split_point(z)
        us = sp.neg_x_subgradient(x, y)
        vs = sp.y_subgradient(x, y)
        return tuple(
            TangentVector(z, np.concatenate([u.components, v.components]))
            for u in us
            for v in vs
        )

    zeros = ()
    if sp.known_saddle is not None:
        zeros = (prod.join_points(sp.known_saddle),)
    vf = fields.VectorField(
        prod,
        evaluate,
        name=f"saddle[{sp.name}]",
        single_valued=False,
        known_zeros=zeros,
    )
    if check:
        points = prod.random_points(rng, 2 * _MONOTONE_PAIRS, _CHECK_SPREAD)
        report = fields.check_monotone(vf, list(zip(points[::2], points[1::2])))
        if not report.passed:
            raise RegistrationError(
                f"saddle field of {sp.name} failed a monotonicity spot check: {report}",
                witness=report.witness,
            )
    return vf


def saddle_membership_residual(sp: SaddleProblem, x: ManifoldPoint, y: ManifoldPoint) -> float:
    """Norm of the minimum-norm field value at (x, y); zero exactly at saddles."""
    prod = sp.product
    vf = saddle_field(sp, check=False)
    return norm(vf.selection(prod.join_points((x, y))))


def solve_saddle(
    sp: SaddleProblem,
    bifunction: eq.Bifunction | None,
    schedule: splitting.StepSchedule = splitting.DEFAULT_SCHEDULE,
    stop: splitting.StoppingRule = splitting.StoppingRule(),
    *,
    x0: ManifoldPoint | None = None,
    **run_kwargs,
) -> splitting.IterationTrace:
    """Find a saddle point of H, optionally jointly with an equilibrium problem."""
    prod = sp.product
    field = saddle_field(sp)
    reference = None
    if sp.known_saddle is not None:
        reference = prod.join_points(sp.known_saddle)
    problem = splitting.ProblemInstance(
        manifold=prod,
        x0=x0 if x0 is not None else prod.base_point(),
        field=field,
        bifunction=bifunction,
        reference_solution=reference,
        name=f"saddle[{sp.name}]",
    )
    return splitting.run(problem, schedule, stop, **run_kwargs)


def saddle_inequality_probe(
    sp: SaddleProblem,
    x_tilde: ManifoldPoint,
    y_tilde: ManifoldPoint,
    *,
    n_probes: int = 100,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Worst violations of the two saddle inequalities at a candidate point.

    Returns ``(max_x H(x, y~) - H(x~, y~), max_y H(x~, y~) - H(x~, y))``;
    both are nonpositive (up to solver error) at a true saddle.
    """
    rng = rng if rng is not None else np.random.default_rng(_CHECK_SEED + 2)
    h_at = sp.h(x_tilde, y_tilde)
    left = -math.inf
    right = -math.inf
    for _ in range(n_probes):
        x = sp.m1.random_point(rng, _CHECK_SPREAD)
        y = sp.m2.random_point(rng, _CHECK_SPREAD)
        left = max(left, sp.h(x, y_tilde) - h_at)
        right = max(right, h_at - sp.h(x_tilde, y))
    return left, right


# -- shipped problem library --------------------------------------------------


@dataclass(frozen=True)
class LibraryEntry:
    id: str
    summary: str
    provenance: str
    factory: Callable[[], splitting.ProblemInstance]


def _euclid_quad() -> splitting.ProblemInstance:
    man = Euclidean(1)
    a_field = fields.LinearField(man, np.eye(1), name="identity")
    g_field = fields.LinearField(man, np.eye(1), name="grad_half_sq")
    bifun = eq.convex_difference(
        man,
        lambda x: 0.5 * float(x.coords @ x.coords),
        g_field,
        name="half_norm_sq",
    )
    return splitting.ProblemInstance(
        manifold=man,
        x0=man.point([8.0]),
        field=a_field,
        bifunction=bifun,
        reference_solution=man.base_point(),
        name="euclid_quad",
    )


def _euclid_linear() -> splitting.ProblemInstance:
    man = Euclidean(3)
    q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.5]])
    a_field = fields.LinearField(man, q, name="psd_linear")
    g_field = fields.LinearField(man, np.eye(3), name="grad_half_sq")
    bifun = eq.convex_difference(
        man,
        lambda x: 0.5 * float(x.coords @ x.coords),
        g_field,
        name="half_norm_sq",
    )
    return splitting.ProblemInstance(
        manifold=man,
        x0=man.point([3.0, -2.0, 5.0]),
        field=a_field,
        bifunction=bifun,
        reference_solution=man.base_point(),
        name="euclid_linear",
    )


def _hyper_dist() -> splitting.ProblemInstance:
    man = Hyperboloid(2)
    base = man.base_point()
    p = exp_map(base, man.tangent(base, [0.0, 0.8, -0.3], project=True))
    prog = squared_distance_program([p], name="half_dist_sq")
    a_field = subdifferential_field(prog)
    bifun = eq.convex_difference(
        man, prog.objective, fields.DistanceGradientField(p), name="half_dist_sq"
    )
    x0 = exp_map(base, man.tangent(base, [0.0, -0.5, 1.1], project=True))
    return splitting.ProblemInstance(
        manifold=man,
        x0=x0,
        field=a_field,
        bifunction=bifun,
        reference_solution=p,
        name="hyper_dist",
    )


def _hyper_anchors() -> tuple[ManifoldPoint, ...]:
    man = Hyperboloid(2)
    base = man.base_point()
    vs = ([0.0, 0.9, 0.2], [0.0, -0.4, 0.7], [0.0, -0.2, -0.8])
    return tuple(exp_map(base, man.tangent(base, v, project=True)) for v in vs)


def _hyper_frechet() -> splitting.ProblemInstance:
    anchors = _hyper_anchors()
    mean = frechet_mean(anchors)
    prog = squared_distance_program(anchors, known_minimizer=mean, name="frechet3")
    a_field = subdifferential_field(prog)
    bifun = eq.convex_difference(
        anchors[0].manifold,
        prog.objective,
        a_field,
        name="frechet3",
        known_equilibria=(mean,),
    )
    return splitting.ProblemInstance(
        manifold=anchors[0].manifold,
        x0=anchors[0],
        field=a_field,
        bifunction=bifun,
        reference_solution=mean,
        name="hyper_frechet",
    )


def _spd_karcher() -> splitting.ProblemInstance:
    man = SPD(2)
    p1 = man.point(np.eye(2).ravel())
    p2 = man.point((4.0 * np.eye(2)).ravel())
    # commuting anchors with equal weights: the mean is the matrix
    # geometric mean, here 2 * identity
    mean = man.point((2.0 * np.eye(2)).ravel())
    prog = squared_distance_program([p1, p2], known_minimizer=mean, name="karcher2")
    a_field = subdifferential_field(prog)
    bifun = eq.convex_difference(
        man, prog.objective, a_field, name="karcher2", known_equilibria=(mean,)
    )
    x0 = man.point(np.array([[3.0, 1.0], [1.0, 2.0]]).ravel())
    return splitting.ProblemInstance(
        manifold=man,
        x0=x0,
        field=a_field,
        bifunction=bifun,
        reference_solution=mean,
        name="spd_karcher",
    )


def bilinear_saddle_problem() -> SaddleProblem:
    """H(x, y) = x * y on the line times the line; unique saddle at the origin."""
    m1 = m2 = Euclidean(1)

    def h(x: ManifoldPoint, y: ManifoldPoint) -> float:
        return float(x.coords[0] * y.coords[0])

    return SaddleProblem(
        m1,
        m2,
        h,
        neg_x_subgradient=lambda x, y: (TangentVector(x, -y.coords.copy()),),
        y_subgradient=lambda x, y: (TangentVector(y, x.coords.copy()),),
        known_saddle=(m1.base_point(), m2.base_point()),
        name="bilinear",
    )


def quadratic_saddle_problem() -> SaddleProblem:
    """Separable concave-convex quadratic with saddle at (1, 2)."""
    m1 = m2 = Euclidean(1)

    def h(x: ManifoldPoint, y: ManifoldPoint) -> float:
        return -0.5 * float((x.coords[0] - 1.0) ** 2) + 0.5 * float((y.coords[0] - 2.0) ** 2)

    return SaddleProblem(
        m1,
        m2,
        h,
        neg_x_subgradient=lambda x, y: (TangentVector(x, x.coords - 1.0),),
        y_subgradient=lambda x, y: (TangentVector(y, y.coords - 2.0),),
        known_saddle=(m1.point([1.0]), m2.point([2.0])),
        name="separable_quadratic",
    )


def _product_norm_bifunction(prod: Product, center: ManifoldPoint, name: str) -> eq.Bifunction:
    field = fields.DistanceGradientField(center, name=f"grad_half_dist_sq[{name}]")
    return eq.convex_difference(
        prod, lambda x: 0.5 * dist(x, center) ** 2, field, name=name
    )


def _saddle_bilinear() -> splitting.ProblemInstance:
    sp = bilinear_saddle_problem()
    prod = sp.product
    center = prod.join_points(sp.known_saddle)
    return splitting.ProblemInstance(
        manifold=prod,
        x0=prod.point([1.5, -1.0]),
        field=saddle_field(sp),
        bifunction=_product_norm_bifunction(prod, center, "half_dist_sq_origin"),
        reference_solution=center,
        name="saddle_bilinear",
    )


def _saddle_quadratic() -> splitting.ProblemInstance:
    sp = quadratic_saddle_problem()
    prod = sp.product
    center = prod.join_points(sp.known_saddle)
    return splitting.ProblemInstance(
        manifold=prod,
        x0=prod.point([3.0, 0.5]),
        field=saddle_field(sp),
        bifunction=_product_norm_bifunction(prod, center, "half_dist_sq_saddle"),
        reference_solution=center,
        name="saddle_quadratic",
    )


_LIBRARY: dict[str, LibraryEntry] = {
    entry.id: entry
    for entry in (
        LibraryEntry(
            "euclid_quad",
            "identity field + half squared norm on the line",
            "closed form: unique common zero at the origin",
            _euclid_quad,
        ),
        LibraryEntry(
            "euclid_linear",
            "positive semidefinite linear field + half squared norm in R^3",
            "closed form: unique common zero at the origin",
            _euclid_linear,
        ),
        LibraryEntry(
            "hyper_dist",
            "squared-distance potential to one anchor on the hyperbolic plane",
            "anchor point is the unique minimizer and equilibrium",
            _hyper_dist,
        ),
        LibraryEntry(
            "hyper_frechet",
            "three-anchor weighted mean on the hyperbolic plane",
            "independent geodesic gradient descent with Armijo line search (grad tol 1e-9)",
            _hyper_frechet,
        ),
        LibraryEntry(
            "spd_karcher",
            "two-anchor mean of commuting SPD matrices",
            "closed form: geometric mean of commuting matrices (2 * identity)",
            _spd_karcher,
        ),
        LibraryEntry(
            "saddle_bilinear",
            "bilinear saddle x*y on the product of two lines",
            "closed form: unique saddle at the origin",
            _saddle_bilinear,
        ),
        LibraryEntry(
            "saddle_quadratic",
            "separable concave-convex quadratic saddle at (1, 2)",
            "closed form: unique saddle of the separable quadratic",
            _saddle_quadratic,
        ),
    )
}


def problem_ids() -> list[str]:
    """Identifiers of the shipped problems, in registration order."""
    return list(_LIBRARY)


@lru_cache(maxsize=None)
def get_problem(problem_id: str) -> splitting.ProblemInstance:
    """Build (and cache) a shipped problem by identifier."""
    try:
        entry = _LIBRARY[problem_id]
    except KeyError:
        raise KeyError(
            f"unknown problem {problem_id!r}; available: {', '.join(_LIBRARY)}"
        ) from None
    return entry.factory()


def problem_metadata(problem_id: str) -> dict:
    """Manifold, reference solution, and provenance of a shipped problem."""
    entry = _LIBRARY[problem_id]
    problem = get_problem(problem_id)
    ref = problem.reference_solution
    return {
        "id": entry.id,
        "summary": entry.summary,
        "provenance": entry.provenance,
        "manifold": problem.manifold.tag,
        "reference": None if ref is None else ref.coords.tolist(),
        "x0": problem.x0.coords.tolist(),
    }

"""Resolvent splitting for common equilibrium and inclusion solutions on Hadamard manifolds."""

from .manifold import (
    Euclidean,
    GeometryError,
    Hyperboloid,
    Manifold,
    ManifoldPoint,
    Product,
    SPD,
    TangentVector,
    comparison_triangle,
    dist,
    exp_map,
    geodesic_point,
    inner,
    log_map,
    norm,
    zero_vector,
)
from .fields import (
    DistanceGradientField,
    LinearField,
    ResolventConfig,
    ResolventNonconvergence,
    VectorField,
    check_firmly_nonexpansive,
    check_monotone,
    resolvent,
)
from .equilibrium import (
    Bifunction,
    check_assumptions,
    convex_difference,
    field_induced,
    resolvent_T,
)
from .splitting import (
    IterationTrace,
    ProblemInstance,
    ScheduleBounds,
    StepSchedule,
    StoppingRule,
    fejer_diagnostics,
    run,
    validate_schedule,
)
from .apps import (
    ConvexProgram,
    SaddleProblem,
    frechet_mean,
    get_problem,
    problem_ids,
    saddle_field,
    solve_minimization,
    solve_saddle,
    subdifferential_field,
)

__version__ = "0.1.0"

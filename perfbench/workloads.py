"""The hsplit benchmark workloads: seeded inputs, set-up, measurement and the correctness gate.

Every workload is a closed loop with one caller: the next solve (or the
next ``hsplit bench`` grid) starts when the previous one has returned.
Inputs come only from the seed.  A run measures whole passes over its
input set, so every run weighs each input equally, and stops at the pass
boundary nearest to the requested duration.

Correctness gate, applied outside the timed region to every solve: the
run ends by ``step_tol``, ``d(final, reference) <= REF_ERR_FACTOR *
step_tol`` and the Fejer replay passes.  Failed solves are counted, never
dropped.
"""

from __future__ import annotations

import csv
import os
import dataclasses
import io
import json
import math
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import ExitStack, contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hsplit import apps, cli, equilibrium, fields, splitting
from hsplit.manifold import Euclidean, Hyperboloid, dist, exp_map

import tracer

WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: geodesic distance of seeded starts from the reference solution
START_RADII = (0.5, 3.0)
#: a solve passes only when d(final, reference) <= REF_ERR_FACTOR * step_tol
REF_ERR_FACTOR = 100.0
#: largest increase of d(x_n, reference) the Fejer replay of a sweep trace allows
FEJER_TOL = 1e-9
#: set-up is repeated at least this often, and until this much time is spent
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPS = 100
#: solve_ms.tail is the highest percentile with at least this many samples beyond it,
#: and no lower than TAIL_FLOOR
TAIL_BEYOND = 10
TAIL_FLOOR = 90.0

# every problem of the shipped library that some workload builds
LIBRARY_PROBLEMS = ("euclid_quad", "euclid_linear", "saddle_bilinear", "saddle_quadratic", "hyper_dist")

UNITS = {
    "setup_s": "s",
    "solve_ms.p50": "ms",
    "solve_ms.tail": "ms",
    "sweep_s": "s",
    "solves_per_s": "1/s",
    "iters_per_s": "1/s",
    "ref_err.max": "dist",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
    "manifold.exp.calls": "count",
    "manifold.log.calls": "count",
    "manifold.dist.calls": "count",
    "manifold.point.calls": "count",
    "manifold.self_s": "s",
    "manifold.us_per_call": "us",
    "fields.resolvent.calls": "count",
    "fields.evaluate.calls": "count",
    "fields.evals_per_resolvent": "ratio",
    "fields.resolvent.self_s": "s",
    "equilibrium.resolvent.calls": "count",
    "equilibrium.eval.calls": "count",
    "equilibrium.evals_per_resolvent": "ratio",
    "equilibrium.resolvent.self_s": "s",
    "splitting.iterations": "count",
    "splitting.validate.s": "s",
    "splitting.self_s": "s",
    "splitting.trace_write.s": "s",
    "splitting.trace_write.bytes": "bytes",
    "apps.setup.s": "s",
    **{f"apps.setup.{pid}.s": "s" for pid in LIBRARY_PROBLEMS},
    "apps.registration.s": "s",
    "cli.cells": "count",
    "cli.cpu_util": "ratio",
    "cli.speedup_vs_1job": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class Measurement:
    """What a run observed; ``passes`` holds the wall time of each pass over the inputs."""

    latencies: list[float] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    solves: int = 0
    iterations: int = 0
    failed: int = 0
    ref_errors: list[float] = field(default_factory=list)

    def add(self, ok: bool, iterations: int, ref_error: float | None) -> None:
        self.solves += 1
        self.failed += not ok
        self.iterations += iterations
        if ref_error is not None:
            self.ref_errors.append(ref_error)


# -- seeded inputs ------------------------------------------------------------


def stratified_radii(rng: np.random.Generator, n: int) -> list[float]:
    """One start radius from each of n equal slices of START_RADII."""
    lo, hi = START_RADII
    return [lo + (hi - lo) * (k + rng.uniform()) / n for k in range(n)]


def with_start(problem: splitting.ProblemInstance, rng: np.random.Generator,
               radius: float) -> splitting.ProblemInstance:
    """``problem`` started at a seeded point ``radius`` away from its reference."""
    ref = problem.reference_solution
    start = exp_map(ref, problem.manifold.random_tangent(rng, ref, radius))
    return dataclasses.replace(problem, x0=start)


def _half_sq_dist_difference(anchor):
    def evaluate(x, y):
        return 0.5 * dist(y, anchor) ** 2 - 0.5 * dist(x, anchor) ** 2

    return evaluate


def generic_problem(manifold, anchor, name: str) -> splitting.ProblemInstance:
    """Distance-gradient field plus a raw oracle for ``(d(y,a)^2 - d(x,a)^2) / 2``."""
    bifunction = equilibrium.generic_bifunction(
        manifold, _half_sq_dist_difference(anchor), name=name, anchors=(anchor,)
    )
    return splitting.ProblemInstance(
        manifold, anchor,
        field=fields.DistanceGradientField(anchor),
        bifunction=bifunction,
        reference_solution=anchor,
        name=name,
    )


def build_library(problem_ids) -> tuple[dict, dict]:
    """Library problems by id, and the seconds each took to build."""
    built, setup_s = {}, {}
    for pid in problem_ids:
        t0 = time.perf_counter()
        built[pid] = apps.get_problem(pid)
        setup_s[pid] = time.perf_counter() - t0
    return built, setup_s


# -- correctness gate ---------------------------------------------------------


def gate_trace(trace: splitting.IterationTrace, bound: float) -> tuple[bool, float]:
    err = trace.final_reference_distance()
    ok = trace.termination_reason == "step_tol" and err <= bound
    try:
        ok = ok and splitting.fejer_diagnostics(trace).passed
    except ValueError:
        ok = False
    return ok, err


def _gate_cell(out: Path, row: dict, instances: dict, bound: float):
    """Gate one sweep cell from its summary row, sidecar and trace CSV."""
    stem = f"{row['problem']}__a{row['alpha']}_b{row['beta']}_l{row['lambda']}_r{row['r']}"
    try:
        meta = json.loads((out / f"{stem}_meta.json").read_text())
        with (out / f"{stem}_trace.csv").open(newline="") as fh:
            d_ref = [float(rec["dx_ref"]) for rec in csv.DictReader(fh)]
        problem = instances[row["problem"]]
        man = problem.manifold
        err = man.dist(man.point(meta["final_point"]), problem.reference_solution)
    except (OSError, KeyError, ValueError):
        return False, 0, None
    d_ref.append(err)
    iters = row.get("iters_to_tol") or ""
    ok = (
        iters.isdigit()
        and meta["termination"] == "step_tol"
        and meta["iterations"] == int(iters)
        and err <= bound
        and all(b - a <= FEJER_TOL for a, b in zip(d_ref, d_ref[1:]))
    )
    return ok, int(meta["iterations"]), err


def gate_sweep(out: Path, instances: dict, bound: float, cells: int, m: Measurement) -> None:
    """Add every cell of a finished grid to ``m``; a missing cell counts as failed."""
    try:
        with (out / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    for row in rows:
        m.add(*_gate_cell(out, row, instances, bound))
    for _ in range(cells - len(rows)):
        m.add(False, 0, None)


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    step_tol = 0.0

    def build(self, seed: int):
        """Problems from cold, started from seeded points, and per-problem build seconds."""
        raise NotImplementedError

    def timed_pass(self, instances, seed: int, m: Measurement) -> None:
        """One pass over the inputs, gated; adds its wall time to ``m.passes``."""
        raise NotImplementedError

    def measure(self, instances, seconds: float, seed: int) -> Measurement:
        """Whole passes until the next one would end further past ``seconds`` than half a pass."""
        m = Measurement()
        while True:
            self.timed_pass(instances, seed, m)
            if sum(m.passes) + 0.5 * statistics.median(m.passes) > seconds:
                return m


class SolveWorkload(Workload):
    """In-process solves through ``splitting.run`` with the default schedule."""

    def warm(self, instances) -> None:
        for problem in instances:
            splitting.run(problem, stop=splitting.StoppingRule(max_iter=1, step_tol=self.step_tol))

    def solve_pass(self, instances, m: Measurement) -> list[splitting.IterationTrace]:
        """Solve every instance once; adds latencies and the pass time to ``m``."""
        stop = splitting.StoppingRule(step_tol=self.step_tol)
        traces, total = [], 0.0
        for problem in instances:
            t0 = time.perf_counter()
            traces.append(splitting.run(problem, stop=stop))
            dt = time.perf_counter() - t0
            m.latencies.append(dt)
            total += dt
        m.passes.append(total)
        return traces

    def gate(self, traces, m: Measurement) -> None:
        bound = REF_ERR_FACTOR * self.step_tol
        for trace in traces:
            ok, err = gate_trace(trace, bound)
            m.add(ok, trace.iterations, err)

    def timed_pass(self, instances, seed: int, m: Measurement) -> None:
        self.gate(self.solve_pass(instances, m), m)

    def traced_pass(self, instances, seed: int, recorder: tracer.SpanRecorder,
                    m: Measurement) -> tuple[tracer.Spans, dict]:
        """An untraced pass, then a traced one; the gate runs outside both."""
        self.gate(self.solve_pass(instances, m), m)
        with tracer.tracing(recorder):
            traces = self.solve_pass(instances, m)
        spans = recorder.take()
        before = m.iterations
        self.gate(traces, m)
        return spans, {
            "splitting.iterations": m.iterations - before,
            "splitting.trace_write.bytes": 0,
            "cli.cells": 0,
            "cli.cpu_util": 0.0,
            "cli.speedup_vs_1job": 0.0,
            "trace.overhead_s": m.passes[1] - m.passes[0],
        }


class GenericEquilibrium(SolveWorkload):
    name = "generic_equilibrium"
    step_tol = 1e-8
    strata = 6  # seeded anchors and starts per manifold

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        instances = []
        for k, radius in enumerate(stratified_radii(rng, self.strata)):
            for man in (Euclidean(2), Hyperboloid(2)):
                anchor = man.random_point(rng, 1.0)
                problem = generic_problem(man, anchor, f"generic_{man.tag}_{k}")
                instances.append(with_start(problem, rng, radius))
        return instances, {}


class Sweep(Workload):
    """``hsplit bench`` over a schedule grid, driven through ``cli.main``."""

    name = "sweep"
    step_tol = 1e-9
    problems = ("euclid_quad", "euclid_linear", "saddle_bilinear", "saddle_quadratic", "hyper_dist")
    alphas = "0.1,0.3,0.5,0.7,0.9"
    lambdas = "0.1,1,10"
    cells = len(problems) * len(alphas.split(",")) * len(lambdas.split(","))
    jobs = 2

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        built, setup_s = build_library(self.problems)
        instances = {
            pid: with_start(problem, rng, rng.uniform(*START_RADII))
            for pid, problem in built.items()
        }
        return instances, setup_s

    def bench(self, instances: dict, seed: int, out: Path, *, jobs: int,
              alphas: str, lambdas: str, latencies: list | None = None) -> tuple[float, float]:
        """One grid into ``out``; returns (wall seconds, process CPU seconds)."""
        argv = [
            "bench", "--problems", ",".join(instances), "--alpha", alphas, "--lambda", lambdas,
            "--tol", repr(self.step_tol), "--seed", str(seed), "--jobs", str(jobs),
            "--out", str(out),
        ]
        with ExitStack() as stack:
            # the program receives the seeded instances through its registry lookup
            stack.enter_context(tracer.patched(apps, "get_problem", instances.__getitem__))
            if latencies is not None:
                stack.enter_context(tracer.patched(splitting, "run", _timed(splitting.run, latencies)))
            printed = stack.enter_context(redirect_stdout(io.StringIO()))
            c0, t0 = _cpu_seconds(), time.perf_counter()
            rc = cli.main(argv)
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        if rc != 0 or "swept" not in printed.getvalue():
            raise RuntimeError(f"hsplit bench exited with {rc}: {printed.getvalue()!r}")
        return wall, cpu

    def warm(self, instances: dict) -> None:
        with _scratch_dir() as out:
            self.bench(instances, 0, out, jobs=self.jobs, alphas="0.5", lambdas="1")

    def gated_bench(self, instances: dict, seed: int, m: Measurement, *, jobs: int,
                    latencies: list | None = None, context=None) -> tuple[float, float, int]:
        """One full grid, gated; returns (wall s, CPU s, trace bytes written)."""
        with _scratch_dir() as out:
            with context or nullcontext():
                wall, cpu = self.bench(instances, seed, out, jobs=jobs, alphas=self.alphas,
                                       lambdas=self.lambdas, latencies=latencies)
            gate_sweep(out, instances, REF_ERR_FACTOR * self.step_tol, self.cells, m)
            written = sum(p.stat().st_size for p in out.iterdir() if p.name != "summary.csv")
        m.passes.append(wall)
        return wall, cpu, written

    def timed_pass(self, instances: dict, seed: int, m: Measurement) -> None:
        self.gated_bench(instances, seed, m, jobs=self.jobs, latencies=m.latencies)

    def traced_pass(self, instances: dict, seed: int, recorder: tracer.SpanRecorder,
                    m: Measurement) -> tuple[tracer.Spans, dict]:
        """Untraced grids at ``jobs`` and at one job, then a traced grid at ``jobs``."""
        wall_jobs, cpu_jobs, _ = self.gated_bench(instances, seed, m, jobs=self.jobs)
        wall_one, _, _ = self.gated_bench(instances, seed, m, jobs=1)
        iterations, cells = m.iterations, m.solves
        wall_traced, _, written = self.gated_bench(
            instances, seed, m, jobs=self.jobs, context=tracer.tracing(recorder)
        )
        return recorder.take(), {
            "splitting.iterations": m.iterations - iterations,
            "splitting.trace_write.bytes": written,
            "cli.cells": m.solves - cells,
            "cli.cpu_util": cpu_jobs / (self.jobs * wall_jobs),
            "cli.speedup_vs_1job": wall_one / wall_jobs,
            "trace.overhead_s": wall_traced - wall_jobs,
        }


WORKLOADS = {w.name: w for w in (GenericEquilibrium(), Sweep())}


# -- runs ---------------------------------------------------------------------


def time_setup(workload, seed: int):
    """Median set-up time from cold over several repetitions, and the last build."""
    times = []
    while len(times) < SETUP_MIN_REPS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
    ):
        apps.get_problem.cache_clear()
        t0 = time.perf_counter()
        instances, _ = workload.build(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), instances


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    Short runs, where that percentile would fall below p90, report p90
    instead, so the statistic does not jump with the sample count.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND
    if rank >= TAIL_FLOOR / 100.0 * (n - 1):
        return ordered[rank], 100.0 * (rank + 1) / n
    return float(np.percentile(ordered, TAIL_FLOOR)), TAIL_FLOOR


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, Measurement, list[str]]:
    """End-to-end metrics of one untraced run."""
    workload = WORKLOADS[name]
    # warm the process before timing set-up, so setup_s is not the
    # process's first allocations; the problem cache is cleared either way
    instances, _ = workload.build(seed)
    workload.warm(instances)
    setup_s, instances = time_setup(workload, seed)
    m = workload.measure(instances, seconds, seed)
    busy = sum(m.passes)
    latencies_ms = [1e3 * t for t in m.latencies]
    tail_ms, percentile = tail(latencies_ms)
    metrics = {
        "setup_s": setup_s,
        "solve_ms.p50": statistics.median(latencies_ms),
        "solve_ms.tail": tail_ms,
        "sweep_s": statistics.median(m.passes),
        "solves_per_s": m.solves / busy,
        "iters_per_s": m.iterations / busy,
        "ref_err.max": max(m.ref_errors, default=math.nan),
        "pass_ratio": (m.solves - m.failed) / m.solves,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"solve_ms: {len(latencies_ms)} samples, tail is p{percentile:.1f}",
        f"passes over the inputs: {len(m.passes)}, {busy:.2f} s measured",
    ]
    return metrics, m, notes


def traced_run(name: str, seed: int) -> tuple[dict, Measurement, list[str]]:
    """Per-layer metrics: traced set-up from cold, then a traced pass over the inputs."""
    workload = WORKLOADS[name]
    recorder = tracer.SpanRecorder()
    apps.get_problem.cache_clear()
    with tracer.tracing(recorder):
        instances, setup_s = workload.build(seed)
    setup_spans = recorder.take()
    workload.warm(instances)
    m = Measurement()
    solve_spans, extra = workload.traced_pass(instances, seed, recorder, m)
    metrics = {
        **tracer.layer_metrics(solve_spans),
        **_apps_metrics(setup_spans, setup_s),
        **extra,
    }
    path = WORK_DIR / "spans" / f"{name}_seed{seed}.npz"
    tracer.write_spans(path, setup=setup_spans, solve=solve_spans)
    return metrics, m, [f"spans written to {path}"]


# -- helpers ------------------------------------------------------------------


def _apps_metrics(setup_spans: tracer.Spans, setup_s: dict) -> dict:
    out = {f"apps.setup.{pid}.s": setup_s.get(pid, 0.0) for pid in LIBRARY_PROBLEMS}
    out["apps.setup.s"] = sum(setup_s.values())
    out["apps.registration.s"] = setup_spans.total("apps.subdifferential_field", "apps.saddle_field")
    return out


def _timed(fn, latencies: list):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - t0)

    return timed


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


@contextmanager
def _scratch_dir():
    """A fresh output directory under WORK_DIR, removed afterwards."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
